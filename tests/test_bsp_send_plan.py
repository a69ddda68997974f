"""A superstep's send plan is data, and reusing it is never observable.

The fast path derives everything a barrier's sends need except their
values — destinations, received mask, machine-pair traffic — from the
sender array alone, keeps the last such plan, and re-applies it while
the sender array repeats.  These tests hold the contract: answers,
superstep reports and traffic are bit for bit what a fresh build (and
the per-vertex reference path) gives, across program changes, hub-flag
flips and crash rollbacks; the plan is counted; and the array form of
the sum-aggregator is the per-call left fold.

The CI fault matrix re-runs this module over a grid of seeds and
cluster sizes via the ``FAULTS_SEED`` / ``FAULTS_MACHINES`` environment
variables, like ``tests/test_faults_equivalence.py``.
"""

from __future__ import annotations

import os
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import BfsProgram, PageRankProgram, SsspProgram
from repro.algorithms.wcc import WccProgram
from repro.compute import BspEngine, CheckpointManager, VertexProgram
from repro.compute.vertex import BatchComputeContext, ComputeContext
from repro.errors import ComputeError
from repro.faults import FaultPlan
from repro.generators import rmat_edges
from repro.graph import CsrTopology
from repro.net import SimNetwork
from repro.obs import MetricsRegistry
from repro.oracle import checking
from repro.tfs import TrinityFileSystem

SEED = int(os.environ.get("FAULTS_SEED", "7"))
MACHINES = int(os.environ.get("FAULTS_MACHINES", "4"))


def rmat_topology(scale: int, degree: int) -> CsrTopology:
    edges = rmat_edges(scale=scale, avg_degree=degree, seed=42 + SEED)
    return CsrTopology.from_arrays(edges, machines=MACHINES,
                                   num_nodes=1 << scale)


@pytest.fixture(scope="module")
def topology() -> CsrTopology:
    return rmat_topology(9, 8)


def make_engine(topology, **kwargs) -> BspEngine:
    return BspEngine(topology,
                     network=SimNetwork(registry=MetricsRegistry()),
                     **kwargs)


def plan_counts(engine) -> tuple[int, int]:
    obs = engine.network.obs
    return (obs.counter("bsp.send_plan.builds").value,
            obs.counter("bsp.send_plan.reuses").value)


def assert_same_run(left, right):
    left_values, right_values = np.asarray(left.values), np.asarray(
        right.values)
    assert left_values.dtype == right_values.dtype
    assert np.array_equal(left_values, right_values)
    assert left.supersteps == right.supersteps    # every field, elapsed too
    assert left.aggregators == right.aggregators
    assert left.restarts == right.restarts


# -- one engine, many programs ----------------------------------------------

class UnbufferedPageRank(PageRankProgram):
    """PageRank's sends without the uniform-message promise, so no hub
    is buffered: the same sender array under the other hub flag."""

    uniform_messages = False


def test_programs_back_to_back_on_one_engine(topology):
    """Whatever plan the previous program left behind, every run equals
    the reference path (a checked run) and a fresh engine's run."""
    weights = np.random.default_rng(3).uniform(
        0.5, 4.0, size=topology.num_edges)
    sequence = [
        lambda: PageRankProgram(iterations=10),
        lambda: SsspProgram(root=0, edge_weights=weights),
        lambda: WccProgram(),
        lambda: UnbufferedPageRank(iterations=10),
        lambda: BfsProgram(root=0),
        lambda: PageRankProgram(iterations=10),
        # The same senders as the run before without hub buffering: the
        # hub flag is part of the key.
        lambda: UnbufferedPageRank(iterations=10),
    ]
    engine = make_engine(topology)
    for make_program in sequence:
        with checking():
            checked = engine.run(make_program())
        assert_same_run(checked, make_engine(topology).run(make_program()))
    builds, reuses = plan_counts(engine)
    # Four PageRanks, each after another program or a hub-flag flip
    # evicted its plan: one build and nine reuses apiece at the least.
    assert builds >= 4 and reuses >= 36


# -- fold-by-plan == fold-by-fresh-build ------------------------------------

FOLDS = {"sum": sum, "min": min, "max": max}


class ScriptedBroadcast(VertexProgram):
    """Superstep ``s``: the vertices in ``script[s][0]`` broadcast their
    entry of ``script[s][1]``; every vertex keeps the fold of its latest
    non-empty inbox.  Nobody halts before the script ends."""

    restrictive = True

    def __init__(self, combiner, dtype, uniform, script):
        self.combiner = combiner
        self.value_dtype = dtype
        self.uniform_messages = uniform
        self.script = script

    def init(self, ctx, vertex):
        ctx.set_value(vertex, 0)

    def init_batch(self, ctx, block):
        block.values[:] = 0

    def compute(self, ctx, vertex, messages):
        if messages:
            ctx.value = FOLDS[self.combiner](messages)
        if ctx.superstep < len(self.script):
            sends, values = self.script[ctx.superstep]
            if sends[vertex]:
                ctx.send_to_neighbors(values[vertex])
        else:
            ctx.vote_to_halt()

    def compute_batch(self, ctx, block):
        block.values[block.received] = block.combined[block.received]
        if ctx.superstep < len(self.script):
            sends, values = self.script[ctx.superstep]
            senders = sends[block.ids]
            block.send_to_neighbors(senders, values[block.ids[senders]])
        else:
            block.halt()


SMALL = rmat_topology(6, 4)
# Lives across hypothesis examples: each starts from whatever plan the
# last one left.  Its runs are checked.
LONG_LIVED = make_engine(SMALL)


def barrier_states(engine, program):
    """Run ``program``; return the result and, per superstep, copies of
    the folded inbox, the received mask and the machine-pair counts the
    barrier produced."""
    states = []

    def snapshot(_superstep, _values):
        states.append((engine._fs_next_combined.copy(),
                       engine._woken.copy(),
                       engine._pair_counts.copy()))
    return engine.run(program, on_superstep=snapshot), states


def as_mask(members) -> np.ndarray:
    mask = np.zeros(SMALL.n, dtype=bool)
    mask[list(members)] = True
    return mask


@st.composite
def scripts(draw):
    vertices = st.integers(0, SMALL.n - 1)
    base = draw(st.sets(vertices, min_size=1, max_size=SMALL.n))
    shift = draw(st.integers(1, SMALL.n - 1))
    # Same length as ``base``, other members: must not reuse its plan.
    rotated = {(v + shift) % SMALL.n for v in base}
    pool = [base, rotated, draw(st.sets(vertices, max_size=SMALL.n))]
    order = draw(st.lists(st.integers(0, 2), min_size=2, max_size=6))
    dtype = draw(st.sampled_from([np.float64, np.int64]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    script = []
    for index in order:
        values = (rng.normal(scale=1e3, size=SMALL.n) if dtype is np.float64
                  else rng.integers(-10 ** 6, 10 ** 6, size=SMALL.n))
        script.append((as_mask(pool[index]), values.astype(dtype)))
    return (draw(st.sampled_from(sorted(FOLDS))), dtype,
            draw(st.booleans()), script)


@settings(max_examples=60, deadline=None)
@given(scripts())
def test_fold_by_cached_plan_equals_fold_by_fresh_build(case):
    combiner, dtype, uniform, script = case
    with checking():
        cached, cached_states = barrier_states(
            LONG_LIVED, ScriptedBroadcast(combiner, dtype, uniform, script))
    fresh_engine = make_engine(SMALL)
    fresh, fresh_states = barrier_states(
        fresh_engine, ScriptedBroadcast(combiner, dtype, uniform, script))
    assert_same_run(cached, fresh)
    assert len(cached_states) == len(fresh_states)
    for cached_state, fresh_state in zip(cached_states, fresh_states):
        for cached_array, fresh_array in zip(cached_state, fresh_state):
            assert cached_array.dtype == fresh_array.dtype
            assert np.array_equal(cached_array, fresh_array)
    # Every sending barrier either built a plan or reused one.
    sending = sum(1 for report in fresh.supersteps if report.messages)
    assert sum(plan_counts(fresh_engine)) == sending


def test_equal_length_sender_sets_with_other_members_rebuild():
    with_edges = np.nonzero(SMALL.out_degrees())[0]
    half = len(with_edges) // 2
    first, second = with_edges[:half], with_edges[half:2 * half]
    values = np.arange(SMALL.n, dtype=np.float64)
    script = [(as_mask(members), values)
              for members in (first, second, second, first)]
    engine = make_engine(SMALL)
    with checking():
        engine.run(ScriptedBroadcast("sum", np.float64, True, script))
    assert plan_counts(engine) == (3, 1)


# -- rollback with a cached plan --------------------------------------------

@pytest.mark.parametrize("checkpointed", [False, True])
@pytest.mark.parametrize("make_program", [
    lambda: PageRankProgram(iterations=6),    # one sender set throughout
    lambda: WccProgram(),                     # a new sender set each time
], ids=["pagerank", "wcc"])
def test_rollback_with_a_plan_cached_from_a_later_superstep(
        topology, make_program, checkpointed):
    baseline = make_engine(topology).run(make_program())
    engine = make_engine(
        topology,
        faults=FaultPlan(seed=SEED, crashes=((3, SEED % MACHINES),)),
        checkpoints=(CheckpointManager(TrinityFileSystem(), every=2)
                     if checkpointed else None),
    )
    # The second run starts from the first's plan (and from a store that
    # still holds the first's images, which it must not resume).
    for _ in range(2):
        before = plan_counts(engine)
        with checking():
            chaos = engine.run(make_program())
        assert chaos.restarts == 1
        chaos.restarts = 0
        # Replayed supersteps recharge the clock, never the answers.
        assert np.array_equal(np.asarray(baseline.values),
                              np.asarray(chaos.values))
        assert chaos.aggregators == baseline.aggregators
        if isinstance(make_program(), PageRankProgram):
            # Sends in supersteps 0-5, plus the replay of 0-2 (from
            # scratch) or of 2 (from the image saved after 1): all but
            # the engine's first apply the one plan.
            builds, reuses = np.subtract(plan_counts(engine), before)
            assert builds + reuses == 6 + (1 if checkpointed else 3)
            assert builds == (1 if before == (0, 0) else 0)


# -- the plan is counted ------------------------------------------------------

def test_pagerank_builds_one_plan_per_engine_lifetime(topology):
    engine = make_engine(topology)
    engine.run(PageRankProgram(iterations=10))
    assert plan_counts(engine) == (1, 9)
    engine.run(PageRankProgram(iterations=10))
    assert plan_counts(engine) == (1, 19)


def test_bfs_builds_one_plan_per_sending_superstep(topology):
    engine = make_engine(topology)
    result = engine.run(BfsProgram(root=0))
    sending = sum(1 for report in result.supersteps if report.messages)
    assert sending > 2
    assert plan_counts(engine) == (sending, 0)


def test_pagerank_aggregates_once_per_machine_slice(topology, monkeypatch):
    calls = []
    inner = BatchComputeContext.aggregate

    def counting(self, name, values):
        calls.append(np.size(values))
        inner(self, name, values)
    monkeypatch.setattr(BatchComputeContext, "aggregate", counting)
    result = make_engine(topology).run(PageRankProgram(iterations=10))
    dangling = int((topology.out_degrees() == 0).sum())
    assert dangling > MACHINES
    assert sum(calls) == dangling * 10
    assert len(calls) <= MACHINES * result.superstep_count


# -- misaligned broadcasts fail at the call ---------------------------------

class MisalignedWcc(WccProgram):
    """HashMin whose superstep-0 kernel call ``i`` (machine ``i``) passes
    ``len(block) + skew[i]`` values for the whole block."""

    def __init__(self, skew):
        self.skew = list(skew)

    def compute_batch(self, ctx, block):
        values = block.values
        skew = self.skew.pop(0) if self.skew else 0
        if skew < 0:
            values = values[:skew]
        elif skew > 0:
            values = np.append(values, np.zeros(skew, dtype=values.dtype))
        block.send_to_neighbors(None, values)
        block.halt()


def test_short_broadcast_values_raise_at_the_call(topology):
    sent = len(topology.nodes_of_machine(0))
    with pytest.raises(ComputeError,
                       match=rf"{sent - 1} values for {sent} vertices"):
        make_engine(topology).run(MisalignedWcc([-1]))


def test_cancelling_length_errors_across_machines_still_raise(topology):
    """One value short on machine 0 and one long on machine 1: the
    concatenated lengths agree, so only a check at the call sees it."""
    with pytest.raises(ComputeError, match="values for"):
        make_engine(topology).run(MisalignedWcc([-1, 1]))


# -- the array aggregator is the per-call left fold ---------------------------

def bits(value: float) -> bytes:
    """Tells -0.0 from 0.0, which ``==`` does not."""
    return struct.pack("<d", value)


def per_call_fold(chunks) -> dict:
    engine = SimpleNamespace(aggregators_next={})
    ctx = ComputeContext(engine)
    for chunk in chunks:
        for value in chunk:
            ctx.aggregate("mass", value)
    return engine.aggregators_next


def array_fold(chunks) -> dict:
    engine = SimpleNamespace(aggregators_next={})
    ctx = BatchComputeContext(engine)
    for chunk in chunks:
        ctx.aggregate("mass", np.array(chunk, dtype=np.float64))
    return engine.aggregators_next


EDGE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-5e-324 * 2 ** 20, max_value=5e-324 * 2 ** 20),
    st.sampled_from([0.0, -0.0, 1e308, -1e308, 1.7e308, 5e-324, 1.0, 0.1]),
)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(EDGE_FLOATS, max_size=40), min_size=1, max_size=8))
def test_array_aggregate_is_the_per_call_fold_bit_for_bit(chunks):
    expected, got = per_call_fold(chunks), array_fold(chunks)
    assert expected.keys() == got.keys()    # all-empty: the key stays unset
    if expected:
        assert type(got["mass"]) is float
        assert bits(got["mass"]) == bits(expected["mass"])


def test_a_scalar_aggregate_still_works_on_the_batch_context():
    assert array_fold([[0.25]]) == per_call_fold([[0.25]]) == {"mass": 0.25}
    engine = SimpleNamespace(aggregators_next={})
    BatchComputeContext(engine).aggregate("mass", 0.25)
    assert engine.aggregators_next == {"mass": 0.25}


def test_pairwise_sum_is_not_the_per_call_fold():
    """Why the aggregator says ``accumulate``: ``ndarray.sum`` adds
    pairwise and lands on other last bits than the left fold."""
    values = np.random.default_rng(1).random(4096) / 4096
    expected = per_call_fold([values.tolist()])["mass"]
    assert array_fold([values.tolist()])["mass"] == expected
    assert float(values.sum()) != expected
