"""Ablation: hub-vertex message buffering (Section 5.4).

The paper's estimate: on a scale-free graph with gamma = 2.16, buffering
messages from 1% of vertices (the hubs) serves 72.8% of message needs.
This ablation measures (a) the hub-coverage fraction on such a graph,
(b) the wire-message reduction PageRank gets from buffering, and (c) the
control case — an Erdos-Renyi graph, where buffering cannot help much
because no vertex dominates.
"""

import numpy as np

from repro.compute.scheduler import BipartiteScheduler
from repro.generators import erdos_renyi_edges, powerlaw_edges

from _harness import build_topology, format_table, report


def run_ablation():
    rows = []
    metrics = {}
    for name, edges in (
        ("power-law g=2.16",
         powerlaw_edges(8_000, gamma=2.16, avg_degree=13, seed=1)),
        ("erdos-renyi",
         erdos_renyi_edges(8_000, avg_degree=13, directed=True, seed=1)),
    ):
        directed = name != "power-law g=2.16"
        topology = build_topology(edges, machines=8, directed=directed,
                                  trunk_bits=7, include_inlinks=directed)
        # A full broadcast's messages per machine pair, from the
        # topology's fan-out table: each vertex's row, or a hub's row cut
        # to one message per destination machine.
        everyone = np.arange(topology.n)
        hubs = topology.hub_fanout(topology.hub_threshold(0.01))
        wire_buffered = int(topology.pair_traffic(everyone, hubs).sum())
        wire_plain = int(topology.pair_traffic(
            everyone, topology.machine_fanout).sum())
        saving = 1.0 - wire_buffered / wire_plain
        metrics[name] = saving
        rows.append((
            name, wire_plain, wire_buffered, f"{saving * 100:.1f}%",
        ))

    # Coverage: fraction of a machine's incoming message needs served by
    # buffering 1% hubs, measured by the scheduler (needs inlinks).
    edges = powerlaw_edges(8_000, gamma=2.16, avg_degree=13, seed=1)
    topo = build_topology(edges, machines=8, directed=True,
                          trunk_bits=7, include_inlinks=True)
    scheduler = BipartiteScheduler(topo, hub_fraction=0.01)
    coverage = scheduler.plan_for_machine(0).stats["hub_coverage"]
    return rows, metrics, coverage


def analytic_hub_coverage(gamma: float = 2.16, n: int = 800_000_000,
                          hub_fraction: float = 0.01) -> float:
    """Expected stub share of the top ``hub_fraction`` vertices for
    P(k) ~ k^-gamma with the natural cutoff k_max = n^(1/(gamma-1)).

    The paper's 72.8% is this quantity at web scale; at simulation scale
    (n ~ 1e4) the cutoff truncates the tail and the share is much lower,
    which is why the measured and analytic numbers are reported side by
    side."""
    k_max = n ** (1.0 / (gamma - 1.0))
    ks = np.arange(1, int(k_max) + 1, dtype=np.float64)
    pmf = ks ** -gamma
    pmf /= pmf.sum()
    # Threshold degree of the top hub_fraction of vertices.
    tail = np.cumsum(pmf[::-1])[::-1]
    threshold = int(np.argmax(tail <= hub_fraction))
    stubs = ks * pmf
    return float(stubs[threshold:].sum() / stubs.sum())


def test_ablation_hub_buffering(benchmark):
    rows, metrics, coverage = benchmark.pedantic(run_ablation, rounds=1,
                                                 iterations=1)
    lines = format_table(
        ("graph", "wire msgs (plain)", "wire msgs (hub-buffered)",
         "saving"),
        rows,
    )
    paper_scale = analytic_hub_coverage()
    sim_scale = analytic_hub_coverage(n=8_000)
    lines.append("")
    lines.append(
        f"1%-hub coverage of one machine's message needs: measured "
        f"{coverage * 100:.1f}% at n=8000 "
        f"(analytic at n=8000: {sim_scale * 100:.1f}%; analytic at the "
        f"paper's n=8e8: {paper_scale * 100:.1f}%; paper quotes 72.8%)"
    )
    report("ablation_hub_buffering", lines)

    # Hub buffering must save a large share on the scale-free graph...
    assert metrics["power-law g=2.16"] > 0.20
    # ...and much less on the degree-flat control.
    assert metrics["erdos-renyi"] < metrics["power-law g=2.16"] / 2
    # The measured hub coverage matches its own-scale analytic value...
    assert coverage > sim_scale - 0.15
    # ...and the analytic model at web scale is of the paper's order
    # (our stub-share metric is stricter than the paper's "fraction of
    # vertices reached", which credits a hub's whole neighborhood).
    assert paper_scale > 0.45
