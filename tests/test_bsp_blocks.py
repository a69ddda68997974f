"""The machine-block contract: compute order stays inside the engine.

The vectorized fast path keeps vertex state in compute order (machine by
machine, ascending dense id within a machine) and hands each batch kernel
one :class:`~repro.compute.vertex.MachineBlock` per machine: views of the
machine's slice when all of it runs, gathers written back otherwise.
These tests hold what a user sees to dense-id order — results,
``value_by_node``, ``initial_values`` and the ``on_superstep`` hook —
and the answers and accounting to the reference path's, bit for bit, on
placements that are neither strided nor even: random machines per
vertex, one machine often left empty, 1 to 7 machines.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import BfsProgram, PageRankProgram, SsspProgram
from repro.algorithms.wcc import WccProgram
from repro.compute import BspEngine, CheckpointManager, VertexProgram
from repro.errors import ComputeError
from repro.faults import FaultPlan
from repro.graph import CsrTopology
from repro.net import SimNetwork
from repro.obs import MetricsRegistry
from repro.oracle import checking
from repro.tfs import TrinityFileSystem


class Probe(VertexProgram):
    """A test-side program that reaches every block primitive: its
    choices depend on ``block.ids``, it sends along edges with per-edge
    weights, halts half of its vertices each superstep (so later blocks
    are gathers) and sums an aggregator.  Its values start from the
    caller's ``initial_values``, plus the vertex id."""

    restrictive = True
    uniform_messages = False
    combiner = "sum"

    def __init__(self, weights: np.ndarray, rounds: int = 3):
        self.weights = weights
        self.rounds = rounds

    def init(self, ctx, vertex):
        ctx.set_value(vertex, ctx.get_value(vertex) + vertex)

    def init_batch(self, ctx, block):
        block.values += block.ids

    def compute(self, ctx, vertex, messages):
        if messages:
            ctx.value = ctx.value * 0.5 + sum(messages)
        ctx.aggregate("mass", ctx.value)
        step = ctx.superstep
        if step < self.rounds and (vertex + step) % 3:
            start, _ = ctx.out_edge_range()
            for offset, dst in enumerate(ctx.out_neighbors()):
                ctx.send(int(dst), ctx.value + self.weights[start + offset])
        if step >= self.rounds or vertex % 2 == step % 2:
            ctx.vote_to_halt()

    def compute_batch(self, ctx, block):
        values, received = block.values, block.received
        values[received] = values[received] * 0.5 + block.combined[received]
        ctx.aggregate("mass", values)
        step = ctx.superstep
        if step < self.rounds:
            senders = ((block.ids + step) % 3).astype(bool)
            _, positions = block.out_edges(senders)
            block.send_along_edges(
                senders,
                np.repeat(values[senders], block.degrees[senders])
                + self.weights[positions])
            block.halt(block.ids % 2 == step % 2)
        else:
            block.halt()


class ScalarProbe(Probe):
    """:class:`Probe` without its kernels: a combiner program that takes
    the reference path on a vectorizing engine too."""

    init_batch = VertexProgram.init_batch
    compute_batch = VertexProgram.compute_batch


def placed_topology(edges, n: int, placement,
                    machines: int | None = None) -> CsrTopology:
    """``from_arrays`` with vertex ``i`` on machine ``placement[i]``, on
    ``machines`` machines (default: enough for ``placement``)."""
    topology = CsrTopology.from_arrays(
        edges, machines=machines or int(placement.max()) + 1, num_nodes=n)
    topology.machine = np.asarray(placement, dtype=np.int32)
    return topology


@st.composite
def cases(draw):
    n = draw(st.integers(1, 30))
    machines = draw(st.sampled_from([1, 3, 4, 7]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    edges = rng.integers(0, n, size=(draw(st.integers(0, 4 * n)), 2))
    if machines > 1 and draw(st.booleans()):
        # Leave one machine empty: its slice has no positions.
        empty = draw(st.integers(0, machines - 1))
        placement = rng.integers(0, machines - 1, size=n)
        placement[placement >= empty] += 1
    else:
        placement = rng.integers(0, machines, size=n)
    topology = placed_topology(edges, n, placement, machines)
    weights = rng.uniform(0.5, 4.0, size=topology.num_edges)
    root = draw(st.integers(0, n - 1))
    name = draw(st.sampled_from(
        ["pagerank", "bfs", "sssp", "wcc", "probe", "scalar_probe"]))
    initial = None
    if name.endswith("probe"):
        initial = rng.normal(size=n).tolist()
    program = {
        "pagerank": lambda: PageRankProgram(iterations=3),
        "bfs": lambda: BfsProgram(root=root),
        "sssp": lambda: SsspProgram(root=root, edge_weights=weights),
        "wcc": lambda: WccProgram(),
        "probe": lambda: Probe(weights),
        "scalar_probe": lambda: ScalarProbe(weights),
    }[name]
    crash = (draw(st.integers(0, 3)), draw(st.integers(0, machines - 1)))
    return topology, program, initial, crash


def engine_for(topology, **kwargs) -> BspEngine:
    return BspEngine(topology,
                     network=SimNetwork(registry=MetricsRegistry()),
                     **kwargs)


def hooked_run(engine, program, initial):
    seen = []
    result = engine.run(
        program, initial_values=initial,
        on_superstep=lambda step, values: seen.append(
            (step, np.array(values, dtype=np.float64))))
    return result, seen


@settings(max_examples=120, deadline=None)
@given(cases())
def test_blocks_are_invisible_outside_the_engine(case):
    topology, make_program, initial, crash = case
    with checking():
        fast, fast_seen = hooked_run(engine_for(topology), make_program(),
                                     initial)
    reference, reference_seen = hooked_run(
        engine_for(topology, vectorize=False), make_program(), initial)

    # Dense-id order everywhere a caller looks.
    values = np.asarray(fast.values)
    assert np.array_equal(values,
                          np.asarray(reference.values, dtype=values.dtype))
    assert fast.value_by_node(topology) == {
        node: values.dtype.type(value)
        for node, value in reference.value_by_node(topology).items()}
    assert len(fast_seen) == len(reference_seen)
    for (step, seen), (ref_step, ref_seen) in zip(fast_seen,
                                                  reference_seen):
        assert step == ref_step
        assert np.array_equal(seen, ref_seen)
    assert fast.supersteps == reference.supersteps
    assert fast.aggregators == reference.aggregators

    # A crash and restart from a checkpoint replays to the same bits.
    with checking():
        chaos = engine_for(
            topology, faults=FaultPlan(seed=3, crashes=(crash,)),
            checkpoints=CheckpointManager(TrinityFileSystem(), every=2),
        ).run(make_program(), initial_values=initial)
    assert chaos.restarts == int(fast.superstep_count > crash[0])
    assert np.array_equal(np.asarray(chaos.values), values)
    assert chaos.aggregators == fast.aggregators


# -- views and gathers ----------------------------------------------------

def test_a_whole_machine_gets_views_and_a_partial_one_gathers():
    n = 12
    edges = np.array([[i, (i + 1) % n] for i in range(n)])
    topology = placed_topology(edges, n, np.arange(n) % 3)
    engine = engine_for(topology)
    shapes = []

    class Recording(Probe):
        def compute_batch(self, ctx, block):
            shapes.append((ctx.superstep, len(block),
                           np.shares_memory(block.values, engine.values)))
            super().compute_batch(ctx, block)

    engine.run(Recording(np.ones(n)), initial_values=[0.0] * n)
    # Superstep 0 runs every vertex: one view per machine.
    assert shapes[:3] == [(0, 4, True)] * 3
    # Then half of each machine halted: gathers of what still runs.
    assert any(not view for step, size, view in shapes if step > 0)
    assert all(size < 4 for step, size, view in shapes if not view)


def test_block_ids_and_degrees_are_read_only():
    topology = placed_topology(np.array([[0, 1], [1, 2]]), 3,
                               np.array([0, 1, 0]))
    failures = []

    class Writer(PageRankProgram):
        def compute_batch(self, ctx, block):
            for name in ("ids", "degrees"):
                try:
                    getattr(block, name)[:] = 0
                except ValueError:
                    failures.append(name)
            super().compute_batch(ctx, block)

    engine_for(topology).run(Writer(iterations=1))
    assert failures.count("ids") == failures.count("degrees") > 0


def test_a_mask_must_be_boolean_over_the_block():
    topology = placed_topology(np.array([[0, 1], [1, 0]]), 2,
                               np.array([0, 0]))

    class IndexSender(WccProgram):
        def compute_batch(self, ctx, block):
            block.send_to_neighbors(np.array([0]), block.values[:1])

    with pytest.raises(ComputeError, match="boolean array of length 2"):
        engine_for(topology).run(IndexSender())


def test_a_send_reads_its_values_at_the_call():
    """A kernel may send its block's own values and then change them:
    the messages carry what the values were, as ``ctx.send_to_neighbors``
    does on the reference path."""
    topology = placed_topology(np.array([[0, 1], [1, 2], [2, 0], [0, 2]]),
                               3, np.array([0, 1, 0]))

    class SendThenDouble(VertexProgram):
        combiner = "sum"
        uniform_messages = True

        def init(self, ctx, vertex):
            ctx.set_value(vertex, 1.0 + vertex)

        def init_batch(self, ctx, block):
            block.values[:] = 1.0 + block.ids

        def compute(self, ctx, vertex, messages):
            ctx.value = ctx.value + sum(messages)
            if ctx.superstep < 2:
                ctx.send_to_neighbors(ctx.value)
            ctx.value = ctx.value * 2
            ctx.vote_to_halt()

        def compute_batch(self, ctx, block):
            block.values[:] = block.values + block.combined
            if ctx.superstep < 2:
                block.send_to_neighbors(None, block.values)
            block.values *= 2
            block.halt()

    with checking():
        result = engine_for(topology).run(SendThenDouble())
    assert result.superstep_count == 3
