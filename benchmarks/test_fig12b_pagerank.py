"""Figure 12(b): PageRank time per iteration vs graph size and machines.

Paper setting: R-MAT graphs, 64M-1024M nodes, average degree 13; one BSP
iteration timed on 8/10/12/14 machines; the 1B-node graph takes < 60 s
per iteration on 8 machines.

Scaled setting: R-MAT scales 10-13 (1k-8k nodes), same degree and machine
sweep, on the IPoIB-parameterised fabric.  Shapes to hold: time grows
~linearly with nodes, decreases with machines.  The analytic model is
then evaluated at the paper's actual 1B-node size to check the < 60 s
headline.
"""

from repro.algorithms import pagerank
from repro.algorithms.validation import validate_pagerank
from repro.config import (
    BARRIER_COST,
    CELL_ACCESS_COST,
    EDGE_SCAN_COST,
    THREADS_PER_MACHINE,
    VERTEX_COMPUTE_COST,
)
from repro.generators import rmat_edges
from repro.net import SimNetwork

from _harness import IPOIB, build_topology, format_table, report

SCALES = (10, 11, 12, 13)
MACHINES = (8, 10, 12, 14)
DEGREE = 13
ITERATIONS = 5


def run_sweep():
    table = {}
    for scale in SCALES:
        edges = rmat_edges(scale=scale, avg_degree=DEGREE, seed=scale)
        for machines in MACHINES:
            topology = build_topology(edges, machines, trunk_bits=7)
            run = pagerank(topology, iterations=ITERATIONS,
                           network=SimNetwork(IPOIB))
            validate_pagerank(run.ranks)
            table[(scale, machines)] = run.time_per_iteration
    return table


def model_paper_scale(machines: int = 8) -> float:
    """Analytic per-iteration time at the paper's 1B-node scale.

    Applies the same cost model the simulation charges, at the paper's
    graph size: per-machine compute over hardware threads plus packed
    message traffic (hub buffering serving ~70% of needs, Section 5.4).
    """
    vertices = 1_000_000_000
    edges = 13 * vertices
    per_machine_vertices = vertices / machines
    per_machine_edges = edges / machines
    compute = (
        per_machine_vertices
        * (VERTEX_COMPUTE_COST + CELL_ACCESS_COST)
        + per_machine_edges * EDGE_SCAN_COST
    ) / THREADS_PER_MACHINE
    remote_fraction = 1.0 - 1.0 / machines
    hub_saving = 0.7
    wire_messages = per_machine_edges * remote_fraction * (1 - hub_saving)
    comm = IPOIB.transfer_time(int(wire_messages * 16),
                               int(wire_messages))
    return compute + comm + BARRIER_COST


def test_fig12b_pagerank(benchmark):
    table = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    rows = []
    for scale in SCALES:
        rows.append((
            f"2^{scale} nodes",
            *(f"{table[(scale, m)] * 1e3:.2f}" for m in MACHINES),
        ))
    headline = model_paper_scale(8)
    lines = format_table(
        ("graph", *(f"{m} machines (ms/iter)" for m in MACHINES)), rows,
    )
    lines.append("")
    lines.append(
        f"analytic model @ paper scale (1B nodes, 13B edges, 8 machines): "
        f"{headline:.1f} s/iteration (paper: ~51 s, < 60 s headline)"
    )
    report("fig12b_pagerank", lines)

    # Shape 1: larger graphs cost more at every machine count.
    for machines in MACHINES:
        times = [table[(scale, machines)] for scale in SCALES]
        assert times == sorted(times)
    # Shape 2: more machines never slower on the largest graph.
    largest = [table[(SCALES[-1], m)] for m in MACHINES]
    assert largest[-1] <= largest[0]
    # Headline: the paper's "one minute per iteration on 1B nodes with 8
    # machines" holds under the model.
    assert headline < 60.0
