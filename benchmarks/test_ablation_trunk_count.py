"""Ablation: memory-trunk count (Section 3).

"The reason we partition a machine's local memory space into multiple
memory trunks is twofold: 1) trunk level parallelism can be achieved
without any overhead of locking; 2) the performance of a single huge
hash table is suboptimal due to a higher probability of hashing
conflicts."  This ablation loads the same cells under different trunk
counts (2**p) and reports mean hash-probe length and the trunk-level
parallelism available.

The probe lengths are those of textbook linear probing: the table's
accounting is pinned to a list-based reference prober in
``tests/test_memcloud_hashtable.py``.
"""

import random

from repro.config import ClusterConfig, MemoryParams
from repro.memcloud import MemoryCloud

from _harness import format_table, report

CELLS = 40_000
MACHINES = 4


def run_ablation():
    rng = random.Random(7)
    payloads = [
        (rng.getrandbits(60), bytes(rng.getrandbits(8) for _ in range(24)))
        for _ in range(CELLS)
    ]
    rows = []
    probes = {}
    for trunk_bits in (3, 5, 7, 9):
        cloud = MemoryCloud(ClusterConfig(
            machines=MACHINES, trunk_bits=trunk_bits,
            memory=MemoryParams(trunk_size=16 * 1024 * 1024),
        ))
        for uid, value in payloads:
            cloud.put(uid, value)
        for uid, _ in payloads:
            cloud.get(uid)
        mean_probe = sum(
            t.mean_probe_length * len(t) for t in cloud.trunks.values()
        ) / CELLS
        probes[trunk_bits] = mean_probe
        per_trunk = CELLS / cloud.config.trunk_count
        rows.append((
            2 ** trunk_bits, f"{per_trunk:.0f}", f"{mean_probe:.3f}",
            cloud.config.trunk_count // MACHINES,
        ))
    return rows, probes


def test_ablation_trunk_count(benchmark):
    rows, probes = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    report("ablation_trunk_count", format_table(
        ("trunks (2^p)", "cells/trunk", "mean probe length",
         "lock-free parallel units per machine"),
        rows,
    ))
    # Every configuration keeps probes short (the tables resize), but
    # more trunks must never be worse, and the parallelism units grow.
    assert probes[9] <= probes[3] + 0.05
    # Trunk-level parallelism: with 2^9 trunks each of 4 machines owns
    # 128 independently lockable units.
    assert rows[-1][3] == 2 ** 9 // MACHINES
