"""Tests for the BSP vertex engine."""

import numpy as np
import pytest

from repro.algorithms import PageRankProgram
from repro.compute import BspEngine, VertexProgram
from repro.errors import ComputeError
from repro.oracle import checking


class CountdownProgram(VertexProgram):
    """Every vertex decrements its value until zero, then halts."""

    restrictive = True

    def init(self, ctx, vertex):
        ctx.set_value(vertex, 3)

    def compute(self, ctx, vertex, messages):
        if ctx.value > 0:
            ctx.value = ctx.value - 1
        else:
            ctx.vote_to_halt()


class NeighborSumProgram(VertexProgram):
    """Superstep 0: send own id to neighbors; 1: sum what arrived."""

    restrictive = True
    uniform_messages = True

    def compute(self, ctx, vertex, messages):
        if ctx.superstep == 0:
            ctx.set_value(vertex, 0)
            ctx.send_to_neighbors(vertex)
        else:
            ctx.set_value(vertex, ctx.value + sum(messages))
            ctx.vote_to_halt()


class GeneralSendProgram(VertexProgram):
    """General model: everyone messages vertex 0."""

    restrictive = False

    def compute(self, ctx, vertex, messages):
        if ctx.superstep == 0:
            ctx.send(0, 1)
            ctx.set_value(vertex, 0)
        elif vertex == 0:
            ctx.set_value(vertex, sum(messages))
        ctx.vote_to_halt()


class AggregatorProgram(VertexProgram):
    def compute(self, ctx, vertex, messages):
        if ctx.superstep == 0:
            ctx.aggregate("total", 1.0)
        else:
            ctx.set_value(vertex, ctx.aggregated("total"))
        if ctx.superstep >= 1:
            ctx.vote_to_halt()


class TestEngineBasics:
    def test_halts_when_quiet(self, rmat_topology):
        engine = BspEngine(rmat_topology)
        result = engine.run(CountdownProgram(), max_supersteps=50)
        # 3 decrements + 1 all-halt superstep.
        assert result.superstep_count <= 5
        assert all(v == 0 for v in result.values)

    def test_max_supersteps_cap(self, rmat_topology):
        engine = BspEngine(rmat_topology)

        class Forever(VertexProgram):
            def compute(self, ctx, vertex, messages):
                ctx.set_value(vertex, ctx.superstep)

        result = engine.run(Forever(), max_supersteps=3)
        assert result.superstep_count == 3

    def test_neighbor_messages_delivered(self, rmat_topology):
        engine = BspEngine(rmat_topology)
        result = engine.run(NeighborSumProgram(), max_supersteps=5)
        topo = rmat_topology
        # Check a few vertices against a direct in-neighbor sum.
        for vertex in range(0, topo.n, 97):
            expected = int(topo.in_neighbors(vertex).sum())
            assert result.values[vertex] == expected

    def test_general_model_any_target(self, rmat_topology):
        engine = BspEngine(rmat_topology)
        result = engine.run(GeneralSendProgram(), max_supersteps=5)
        assert result.values[0] == rmat_topology.n

    def test_restrictive_violation_detected(self, rmat_topology):
        engine = BspEngine(rmat_topology)

        class Cheater(VertexProgram):
            restrictive = True

            def compute(self, ctx, vertex, messages):
                if ctx.superstep == 0 and vertex == 1:
                    ctx.send((vertex + 101) % ctx.num_vertices, 1)
                ctx.vote_to_halt()

        # Vertex 1 messaging an arbitrary far vertex: almost surely not a
        # neighbor in the fixture graph.
        far = (1 + 101) % rmat_topology.n
        if far in set(rmat_topology.out_neighbors(1).tolist()):
            pytest.skip("fixture graph happens to contain the edge")
        with checking(), pytest.raises(ComputeError, match="non-neighbor"):
            engine.run(Cheater(), max_supersteps=2)

    def test_restrictive_violation_detected_with_a_combiner(self,
                                                            rmat_topology):
        # A combiner without batch kernels runs per vertex on a
        # vectorizing engine too; the cross-checked engine holds it to
        # the same rule.
        engine = BspEngine(rmat_topology)

        class Cheater(VertexProgram):
            restrictive = True
            combiner = "sum"

            def compute(self, ctx, vertex, messages):
                if ctx.superstep == 0 and vertex == 1:
                    ctx.send((vertex + 101) % ctx.num_vertices, 1.0)
                ctx.vote_to_halt()

        far = (1 + 101) % rmat_topology.n
        if far in set(rmat_topology.out_neighbors(1).tolist()):
            pytest.skip("fixture graph happens to contain the edge")
        with checking(), pytest.raises(ComputeError, match="non-neighbor"):
            engine.run(Cheater(), max_supersteps=2)

    def test_aggregators_visible_next_superstep(self, rmat_topology):
        engine = BspEngine(rmat_topology)
        result = engine.run(AggregatorProgram(), max_supersteps=4)
        assert result.values[0] == rmat_topology.n

    def test_initial_values(self, rmat_topology):
        engine = BspEngine(rmat_topology)

        class Keep(VertexProgram):
            def compute(self, ctx, vertex, messages):
                ctx.vote_to_halt()

        seed = list(range(rmat_topology.n))
        result = engine.run(Keep(), initial_values=seed, max_supersteps=2)
        assert result.values == seed

    def test_initial_values_length_checked(self, rmat_topology):
        engine = BspEngine(rmat_topology)
        with pytest.raises(ComputeError):
            engine.run(CountdownProgram(), initial_values=[1, 2, 3])

    def test_bad_max_supersteps(self, rmat_topology):
        with pytest.raises(ComputeError):
            BspEngine(rmat_topology).run(CountdownProgram(), max_supersteps=0)

    def test_on_superstep_callback(self, rmat_topology):
        engine = BspEngine(rmat_topology)
        seen = []
        engine.run(
            CountdownProgram(), max_supersteps=10,
            on_superstep=lambda step, values: seen.append(step),
        )
        assert seen == list(range(len(seen)))
        assert seen  # ran at least once

    @pytest.mark.parametrize("vectorize", [True, False],
                             ids=["fast", "reference"])
    def test_on_superstep_gets_a_snapshot(self, rmat_topology, vectorize):
        """What the hook keeps stays that superstep's values, whatever
        the engine writes afterwards, and both paths hand it the same
        values superstep by superstep."""
        def collect(vectorize):
            kept = []
            BspEngine(rmat_topology, vectorize=vectorize).run(
                PageRankProgram(iterations=4),
                on_superstep=lambda _step, values: kept.append(values))
            return [np.asarray(values, dtype=np.float64) for values in kept]

        kept, reference = collect(vectorize), collect(False)
        assert len(kept) == len(reference) == 5
        for values, expected in zip(kept, reference):
            assert np.array_equal(values, expected)
        # Successive supersteps differ: no two snapshots are one object.
        assert not np.array_equal(kept[0], kept[1])


class TestAccounting:
    def test_superstep_reports_present(self, rmat_topology):
        engine = BspEngine(rmat_topology)
        result = engine.run(NeighborSumProgram(), max_supersteps=5)
        assert result.supersteps
        first = result.supersteps[0]
        assert first.elapsed > 0
        assert first.messages == rmat_topology.num_edges
        assert first.active_vertices == rmat_topology.n
        assert result.elapsed == pytest.approx(
            sum(r.elapsed for r in result.supersteps)
        )

    @staticmethod
    def unbuffered_remote(topology) -> int:
        """Wire messages of a full broadcast with no hub buffered: one
        per cut edge, from the topology's fan-out table."""
        machines = topology.machine_count
        counts = topology.pair_traffic(
            np.arange(topology.n), topology.machine_fanout
        ).reshape(machines, machines)
        return int(counts.sum() - np.trace(counts))

    def test_hub_buffering_reduces_wire_messages(self, rmat_topology):
        result = BspEngine(rmat_topology).run(NeighborSumProgram(),
                                              max_supersteps=5)
        # Fewer charged wire transfers on the scale-free graph than one
        # message per cut edge.
        assert (result.supersteps[0].remote_transfers
                < self.unbuffered_remote(rmat_topology))

    def test_hub_buffering_requires_uniform_messages(self, rmat_topology):
        engine = BspEngine(rmat_topology)

        class NonUniform(NeighborSumProgram):
            uniform_messages = False

        res_uniform = engine.run(NeighborSumProgram(), max_supersteps=5)
        res_nonuniform = engine.run(NonUniform(), max_supersteps=5)
        assert (res_uniform.supersteps[0].remote_transfers
                <= res_nonuniform.supersteps[0].remote_transfers)
        # Without the uniform promise no hub is buffered.
        assert (res_nonuniform.supersteps[0].remote_transfers
                == self.unbuffered_remote(rmat_topology))

    def test_value_by_node_mapping(self, rmat_topology):
        engine = BspEngine(rmat_topology)
        result = engine.run(CountdownProgram(), max_supersteps=10)
        by_node = result.value_by_node(rmat_topology)
        assert len(by_node) == rmat_topology.n
        assert set(by_node.values()) == {0}
