"""Ablation: restrictive vs general vertex-centric model (Section 5.3).

The restrictive model (vertices message a fixed set — their neighbors)
is what makes the communication pattern "predictable iteration after
iteration" and unlocks hub buffering + action-script scheduling.  This
ablation runs the same semantic computation (everyone pushes a value to
its out-neighbors) through both models and compares the charged wire
traffic; the general-model program sends the identical messages but,
being unpredictable, gets no hub optimisation.
"""

from repro.compute import BspEngine, VertexProgram
from repro.generators import powerlaw_edges

from _harness import build_topology, format_table, report


class RestrictivePush(VertexProgram):
    restrictive = True
    uniform_messages = True

    def compute(self, ctx, vertex, messages):
        if ctx.superstep == 0:
            ctx.send_to_neighbors(1.0)
        ctx.vote_to_halt()


class GeneralPush(VertexProgram):
    restrictive = False       # same sends, declared unpredictable
    uniform_messages = False

    def compute(self, ctx, vertex, messages):
        if ctx.superstep == 0:
            for neighbor in ctx.out_neighbors():
                ctx.send(int(neighbor), 1.0)
        ctx.vote_to_halt()


def run_ablation():
    edges = powerlaw_edges(6_000, gamma=2.16, avg_degree=13, seed=2)
    topology = build_topology(edges, machines=8, directed=False,
                              trunk_bits=7)
    rows = []
    stats = {}
    for name, program in (("restrictive", RestrictivePush()),
                          ("general", GeneralPush())):
        engine = BspEngine(topology)
        result = engine.run(program, max_supersteps=3)
        first = result.supersteps[0]
        stats[name] = first
        rows.append((
            name, first.messages, first.remote_transfers,
            f"{first.elapsed * 1e3:.2f}",
        ))
    return rows, stats


def test_ablation_vertex_model(benchmark):
    rows, stats = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    report("ablation_vertex_model", format_table(
        ("model", "logical messages", "wire transfers", "superstep ms"),
        rows,
    ))
    # Identical logical traffic...
    assert stats["restrictive"].messages == stats["general"].messages
    # ...but the predictable pattern ships far fewer wire messages.
    assert (stats["restrictive"].remote_transfers
            < 0.8 * stats["general"].remote_transfers)
    assert stats["restrictive"].elapsed <= stats["general"].elapsed
