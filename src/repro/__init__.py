"""Trinity: a distributed graph engine on a memory cloud — reproduction.

A full-system Python reproduction of Shao, Wang & Li, SIGMOD 2013.  The
cluster is simulated in-process (machines, trunks, fabric and failure
model are all explicit objects); data structures and algorithms are real.

Quick start::

    from repro import ClusterConfig, TrinityCluster
    from repro.graph import GraphBuilder, plain_graph_schema

    cluster = TrinityCluster(ClusterConfig(machines=8))
    builder = GraphBuilder(cluster.cloud, plain_graph_schema())
    builder.add_edges([(0, 1), (1, 2), (2, 0)])
    graph = builder.finalize()
    graph.outlinks(0)   # -> [1]

Package map: :mod:`repro.memcloud` (key-value memory cloud),
:mod:`repro.tsl` (the TSL language), :mod:`repro.net` (message passing),
:mod:`repro.cluster` (roles + fault tolerance), :mod:`repro.graph` (data
model), :mod:`repro.compute` (BSP/async engines), :mod:`repro.algorithms`
(online queries + analytics), :mod:`repro.rdf` (SPARQL on Trinity),
:mod:`repro.generators` (synthetic graphs), :mod:`repro.baselines`
(PBGL/Giraph comparators), :mod:`repro.tfs` (persistence).
"""

from .config import ClusterConfig, MemoryParams, NetworkParams
from .errors import TrinityError
from .faults import FaultPlan
from .memcloud import MemoryCloud
from .cluster import TrinityCluster
from .tsl import compile_tsl

__version__ = "1.0.0"

__all__ = [
    "ClusterConfig",
    "NetworkParams",
    "MemoryParams",
    "TrinityError",
    "FaultPlan",
    "MemoryCloud",
    "TrinityCluster",
    "compile_tsl",
    "__version__",
]
