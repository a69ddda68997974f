"""Graph computation paradigms (Section 5) and their runtime machinery.

* :mod:`~repro.compute.vertex` — the vertex-program abstraction, covering
  both of the paper's models: the **general** model (a vertex may message
  any vertex, as in Pregel) and the **restrictive** model (a vertex
  messages a fixed set — its neighbors), which unlocks Trinity's message
  optimisations.
* :mod:`~repro.compute.bsp` — the bulk-synchronous engine: supersteps,
  barriers, aggregators, halting, hub-vertex message buffering, and the
  per-superstep simulated-time accounting used by every offline benchmark.
  Every machine's kernels run in this process, one machine after another,
  each on its machine's slice of the engine's compute-ordered state;
  "parallel" is what the simulated clock is charged, not how the host
  runs them.
* :mod:`~repro.compute.scheduler` — the bipartite-partition message
  scheduler and action scripts of Section 5.4.
* :mod:`~repro.compute.residence` — the Type A / Type B memory-residence
  model and the paper's memory formulas (Section 5.4).
* :mod:`~repro.compute.termination` — Safra's termination-detection
  algorithm, used to snapshot asynchronous computations (Section 6.2).
* :mod:`~repro.compute.async_engine` — asynchronous (GraphChi-style)
  vertex computation: its slices run as rounds of the BSP loop, which
  snapshots them and rolls back to a snapshot after a crash.
* :mod:`~repro.compute.checkpoint` — engine images and cloud images in
  TFS.
"""

from .vertex import (
    BatchComputeContext,
    ComputeContext,
    MachineBlock,
    VertexProgram,
)
from .bsp import BspEngine, BspResult, SuperstepReport
from .scheduler import ActionScript, BipartiteScheduler, SchedulerPlan
from .action_replay import ReplayReport, replay_all
from .residence import MemoryResidenceModel, ResidencePlan
from .termination import SafraDetector
from .async_engine import AsyncEngine, AsyncResult
from .checkpoint import CheckpointManager

__all__ = [
    "VertexProgram",
    "ComputeContext",
    "BatchComputeContext",
    "MachineBlock",
    "BspEngine",
    "BspResult",
    "SuperstepReport",
    "BipartiteScheduler",
    "SchedulerPlan",
    "ActionScript",
    "ReplayReport",
    "replay_all",
    "MemoryResidenceModel",
    "ResidencePlan",
    "SafraDetector",
    "AsyncEngine",
    "AsyncResult",
    "CheckpointManager",
]
