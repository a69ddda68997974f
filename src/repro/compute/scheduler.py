"""Bipartite-partition message scheduling and action scripts (Section 5.4).

From a local machine's point of view the graph is bipartite: local
vertices on one side, remote vertices on the other (Figure 9).  Before a
superstep can run on a local vertex, the messages from its remote
in-neighbors must be present.  Trinity's scheme:

1. **Hub vertices** — remote vertices "having a large degree and
   connecting to a great percentage of local vertices" — are excluded from
   partitioning; their messages are buffered for the whole iteration.
   (Paper estimate: on a scale-free graph with gamma = 2.16, buffering 1%
   of vertices serves 72.8% of message needs.)
2. The remaining local vertices are grouped into partitions whose message
   working sets fit the machine's buffer; each non-hub remote source is
   assigned to the partition that needs it most.
3. ``K_i`` — the remote sources partition *i* needs but that are assigned
   elsewhere — are fetched on demand while partition *i−1* runs.
4. Each remote machine receives an **action script**: the order in which
   to emit its sources' messages (partition by partition, including the
   ``K_i`` stragglers).  Machines merge the scripts they receive and
   replay them every iteration, since the restrictive model makes the
   pattern identical iteration after iteration.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from ..errors import ComputeError


@dataclass(frozen=True)
class ActionScript:
    """The message-emission order one remote machine must follow.

    ``schedule[i]`` lists the dense indices of sources (hosted on
    ``remote_machine``) whose messages are needed for partition ``i`` of
    ``local_machine``.  ``hub_sources`` are sent once, up front, and
    buffered for the whole iteration.
    """

    local_machine: int
    remote_machine: int
    hub_sources: tuple[int, ...]
    schedule: tuple[tuple[int, ...], ...]

    @property
    def total_sources(self) -> int:
        return len(self.hub_sources) + sum(len(s) for s in self.schedule)


@dataclass
class SchedulerPlan:
    """The full message-delivery plan for one local machine."""

    machine: int
    partitions: list[np.ndarray]            # local vertices per partition
    hub_sources: set[int]                   # remote hubs, buffered all iter
    assigned_sources: list[set[int]]        # non-hub sources per partition
    k_sets: list[set[int]]                  # K_i: needed but owned elsewhere
    action_scripts: dict[int, ActionScript] # remote machine -> script
    stats: dict[str, float] = field(default_factory=dict)

    @property
    def partition_count(self) -> int:
        return len(self.partitions)


class BipartiteScheduler:
    """Builds :class:`SchedulerPlan`s from a CSR topology with inlinks."""

    def __init__(self, topology, hub_fraction: float = 0.01,
                 num_partitions: int = 4):
        if topology.in_indptr is None:
            raise ComputeError(
                "BipartiteScheduler needs a topology built with "
                "include_inlinks=True"
            )
        if num_partitions < 1:
            raise ComputeError("num_partitions must be >= 1")
        if not 0.0 <= hub_fraction < 1.0:
            raise ComputeError("hub_fraction must be in [0, 1)")
        self.topology = topology
        self.num_partitions = num_partitions
        self.hub_threshold = topology.hub_threshold(hub_fraction)

    def is_hub(self, vertex: int) -> bool:
        topo = self.topology
        degree = int(topo.out_indptr[vertex + 1] - topo.out_indptr[vertex])
        return degree >= self.hub_threshold

    def plan_for_machine(self, machine: int) -> SchedulerPlan:
        """Compute partitions, K sets and action scripts for one machine."""
        topo = self.topology
        local = topo.nodes_of_machine(machine)
        partitions = self._partition_local(local)

        # Remote in-neighbors per partition, split hub / non-hub.
        hub_sources: set[int] = set()
        needs: list[set[int]] = []
        total_incoming = 0
        hub_covered = 0
        for part in partitions:
            part_needs: set[int] = set()
            for vertex in part:
                for src in topo.in_neighbors(int(vertex)):
                    src = int(src)
                    if topo.machine[src] == machine:
                        continue
                    total_incoming += 1
                    if self.is_hub(src):
                        hub_sources.add(src)
                        hub_covered += 1
                    else:
                        part_needs.add(src)
            needs.append(part_needs)

        # Assign each non-hub source to the partition needing it most
        # (ties to the earliest partition, so its message arrives soonest).
        demand: dict[int, list[int]] = defaultdict(
            lambda: [0] * len(partitions)
        )
        for i, part_needs in enumerate(needs):
            for src in part_needs:
                demand[src][i] += 1
        owner: dict[int, int] = {
            src: int(np.argmax(votes)) for src, votes in demand.items()
        }
        assigned: list[set[int]] = [set() for _ in partitions]
        for src, i in owner.items():
            assigned[i].add(src)
        k_sets: list[set[int]] = [
            {src for src in part_needs if owner[src] != i}
            for i, part_needs in enumerate(needs)
        ]

        scripts = self._build_scripts(machine, hub_sources, assigned, k_sets)
        naive_buffer = len({s for n in needs for s in n} | hub_sources)
        peak_buffer = len(hub_sources) + max(
            (len(a) + len(k) for a, k in zip(assigned, k_sets)), default=0
        )
        plan = SchedulerPlan(
            machine=machine,
            partitions=partitions,
            hub_sources=hub_sources,
            assigned_sources=assigned,
            k_sets=k_sets,
            action_scripts=scripts,
        )
        plan.stats = {
            "incoming_message_needs": float(total_incoming),
            "hub_coverage": (hub_covered / total_incoming
                             if total_incoming else 0.0),
            "naive_buffer_slots": float(naive_buffer),
            "peak_buffer_slots": float(peak_buffer),
            "duplicate_deliveries": float(sum(len(k) for k in k_sets)),
        }
        return plan

    # -- helpers -------------------------------------------------------------

    def _partition_local(self, local: np.ndarray) -> list[np.ndarray]:
        """Split local vertices into chunks of balanced in-edge volume.

        Vertices are first clustered by their smallest in-neighbor (a
        one-pass min-hash of the source set), so vertices that consume
        the same remote messages land in the same partition — this is
        what keeps the paper's ``K_i`` sets small ("in the ideal case,
        local vertices in a partition only need messages from remote
        vertices in the same partition").
        """
        topo = self.topology
        if not len(local):
            return [np.empty(0, dtype=local.dtype)
                    for _ in range(self.num_partitions)]
        degrees = topo.out_degrees()
        min_source = np.empty(len(local), dtype=np.int64)
        for i, vertex in enumerate(local):
            sources = topo.in_neighbors(int(vertex))
            # Hubs are buffered machine-wide, so they carry no locality
            # signal; key on the rarest (non-hub) source instead.
            non_hub = sources[degrees[sources] < self.hub_threshold]
            if len(non_hub):
                min_source[i] = int(non_hub.min())
            elif len(sources):
                min_source[i] = int(sources.min())
            else:
                min_source[i] = -1
        local = local[np.argsort(min_source, kind="stable")]
        weights = (topo.in_indptr[local + 1] - topo.in_indptr[local]) + 1
        target = float(weights.sum()) / self.num_partitions
        partitions: list[np.ndarray] = []
        start = 0
        acc = 0.0
        for i, w in enumerate(weights):
            acc += float(w)
            if acc >= target and len(partitions) < self.num_partitions - 1:
                partitions.append(local[start:i + 1])
                start = i + 1
                acc = 0.0
        partitions.append(local[start:])
        while len(partitions) < self.num_partitions:
            partitions.append(np.empty(0, dtype=local.dtype))
        return partitions

    def _build_scripts(self, machine: int, hub_sources: set[int],
                       assigned: list[set[int]],
                       k_sets: list[set[int]]) -> dict[int, ActionScript]:
        topo = self.topology
        by_remote: dict[int, dict] = defaultdict(
            lambda: {"hubs": [], "parts": [[] for _ in assigned]}
        )
        for src in sorted(hub_sources):
            by_remote[int(topo.machine[src])]["hubs"].append(src)
        for i, sources in enumerate(assigned):
            # K_i messages are requested alongside partition i's own
            # sources; emit them in the same slot of the script.
            for src in sorted(sources | k_sets[i]):
                by_remote[int(topo.machine[src])]["parts"][i].append(src)
        return {
            remote: ActionScript(
                local_machine=machine,
                remote_machine=remote,
                hub_sources=tuple(entry["hubs"]),
                schedule=tuple(tuple(p) for p in entry["parts"]),
            )
            for remote, entry in by_remote.items()
        }


def merge_action_scripts(scripts: list[ActionScript]) -> list[int]:
    """Merge scripts received from several local machines into one send
    order (Section 5.4: "each machine merges the action scripts it
    receives from other machines").

    Interleaves partition slots round-robin across requesting machines so
    no requester starves, hubs first.  Returns the flat source order.
    """
    order: list[int] = []
    seen: set[tuple[int, int]] = set()
    for script in scripts:
        for src in script.hub_sources:
            key = (script.local_machine, src)
            if key not in seen:
                seen.add(key)
                order.append(src)
    max_parts = max((len(s.schedule) for s in scripts), default=0)
    for slot in range(max_parts):
        for script in scripts:
            if slot >= len(script.schedule):
                continue
            for src in script.schedule[slot]:
                key = (script.local_machine, src)
                if key not in seen:
                    seen.add(key)
                    order.append(src)
    return order
