"""Shared-memory execution backend: real processes, simulated clock.

:class:`SharedMemoryBackend` fans each superstep's kernels out to forked
worker processes.  The dense engine state — vertex values and the active
mask — lives in anonymous shared mappings
(:class:`~repro.memcloud.arena.Arena`), so workers write their (disjoint)
machine slices directly and the coordinator sees the result without any
copy.  The per-superstep message inputs
(``combined``/``received``) are coordinator-copied into two more shared
arrays before the step fans out.

What workers do NOT do is fold.  Deferred sends, aggregate
contributions, and traffic pair counts are all order- and
float-association-sensitive: a per-worker partial fold would combine as
``A + (c1 + c2)`` where the in-process path computes ``(A + c1) + c2``,
which is a different float result.  So each worker ships back *what it
collected* — its deferred send buffers, an ordered ``(name, value)``
aggregate log, per-machine compute counts, and a metrics delta — and the
coordinator concatenates them in worker order (= ascending machine
order, because workers own contiguous machine blocks) and runs the
single-process fold (:meth:`BspEngine._flush_deferred_sends`) itself.
The fold sequence is therefore *identical* to the in-process backend's,
which is what lets ``cross_check=True`` hold bit-for-bit.

The simulated clock stays authoritative: workers never touch the
network; the coordinator charges ``ParallelRound`` from the integer
``(machine, ran_count, degree_sum)`` tuples the workers report, exactly
as the in-process path does.

Workers are forked lazily at the first superstep (after the dense state
is bound into shared memory) and inherit everything — engine, topology,
program, shared mappings — through ``fork``; nothing is pickled at spawn
time.  A fault-injected rollback tears the pool down
(:meth:`on_restart`) and re-forks from the rolled-back image, so the
fault plan replays deterministically under real workers too.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback

import numpy as np

from ..errors import ComputeError
from ..memcloud.arena import Arena
from .backend import ExecutionBackend

_FORK = multiprocessing.get_context("fork")


def _worker_main(backend, engine, machines, use_batch, conn) -> None:
    """Worker loop: run kernels for a machine block, ship collections.

    Runs in a forked child.  ``engine.values`` / ``engine._active`` are
    shared-memory views inherited from the coordinator, so value writes
    and halts land in the coordinator's pages; everything else the
    kernels produce is collected locally and shipped over the pipe.
    """
    obs = engine.network.obs
    agg_log: list = []

    def aggregate(name: str, value: float) -> None:
        # Order-preserving capture; the coordinator replays the log so
        # same-name contributions left-fold in the exact sequence the
        # in-process path would have used.
        agg_log.append((name, value))

    engine._fs_ctx.aggregate = aggregate
    engine._fs_batch_ctx.aggregate = aggregate
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg[0] == "stop":
            break
        _, superstep, aggregators = msg
        try:
            engine.aggregators = aggregators
            engine.aggregators_next = {}
            engine._fs_ctx.superstep = superstep
            engine._fs_batch_ctx.superstep = superstep
            agg_log.clear()
            engine._reset_send_buffers(arrays=False)
            baseline = obs.capture_state()
            ran, costs = engine._compute_machines(
                machines, backend._sh_combined, backend._sh_received,
                use_batch,
            )
            conn.send(("ok", {
                "ran": ran,
                "costs": costs,
                "messages": engine._messages,
                "sends": (
                    engine._fs_bcast_src, engine._fs_bcast_val,
                    engine._fs_bcast_verts, engine._fs_bcast_vals,
                    engine._fs_edge_verts, engine._fs_edge_vals,
                    engine._fs_single_dst, engine._fs_single_val,
                    engine._fs_single_pair,
                ),
                "agg_log": list(agg_log),
                "metrics": obs.delta_since(baseline),
            }))
        except BaseException:
            try:
                conn.send(("err", traceback.format_exc()))
            except (BrokenPipeError, OSError):
                break
    conn.close()
    # Skip interpreter teardown: inherited finalizers (checkpoint
    # managers, page-file removal) belong to the coordinator.
    os._exit(0)


class SharedMemoryBackend(ExecutionBackend):
    """Run superstep kernels in forked workers over shared mappings."""

    name = "shared_memory"

    def __init__(self, workers: int | None = None):
        self.requested_workers = workers
        self.worker_count = 0
        self._procs: list = []
        self._conns: list = []
        self._blocks: list = []
        self._arenas: list = []
        self._sh_values = None
        self._sh_active = None
        self._sh_combined = None
        self._sh_received = None

    # -- arena plumbing ------------------------------------------------------

    def _alloc(self, n: int, dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        arena = Arena(max(1, n * dtype.itemsize), shared=True)
        self._arenas.append(arena)
        return np.ndarray((n,), dtype=dtype, buffer=arena.buf)

    # -- lifecycle -----------------------------------------------------------

    def prepare_run(self, engine, program, use_batch: bool) -> None:
        super().prepare_run(engine, program, use_batch)
        machine_count = engine.topology.machine_count
        requested = (self.requested_workers
                     or os.cpu_count() or 1)
        self.worker_count = max(1, min(requested, machine_count))
        # Plain-int machine ids: numpy ints would leak into the round's
        # load keys and the fault plan's repr-hashed draw coordinates,
        # where repr(np.int64(0)) != repr(0) changes every fault draw.
        self._blocks = [
            [int(machine) for machine in block] for block in
            np.array_split(np.arange(machine_count), self.worker_count)
            if len(block)
        ]
        n = engine.topology.n
        dtype = engine._fs_dtype
        self._sh_values = self._alloc(n, dtype)
        self._sh_active = self._alloc(n, bool)
        self._sh_combined = self._alloc(n, dtype)
        self._sh_received = self._alloc(n, bool)

    def bind_values(self, values):
        self._sh_values[:] = values
        return self._sh_values

    def bind_active(self, active):
        self._sh_active[:] = active
        return self._sh_active

    def _ensure_pool(self, engine) -> None:
        if self._procs:
            return
        for block in self._blocks:
            parent, child = _FORK.Pipe()
            proc = _FORK.Process(
                target=_worker_main,
                args=(self, engine, block, self._use_batch, child),
                daemon=True,
            )
            proc.start()
            child.close()
            self._procs.append(proc)
            self._conns.append(parent)

    def run_superstep(self, engine, superstep: int, combined, received):
        self._ensure_pool(engine)
        np.copyto(self._sh_combined, combined)
        np.copyto(self._sh_received, received)
        for conn in self._conns:
            conn.send(("step", superstep, engine.aggregators))
        engine._reset_send_buffers()
        ran_total = 0
        costs: list = []
        for worker_id, conn in enumerate(self._conns):
            try:
                status, payload = conn.recv()
            except (EOFError, OSError) as exc:
                self._shutdown_pool(graceful=False)
                raise ComputeError(
                    f"shared-memory worker {worker_id} died mid-superstep"
                ) from exc
            if status != "ok":
                self._shutdown_pool(graceful=False)
                raise ComputeError(
                    f"shared-memory worker {worker_id} failed:\n{payload}"
                )
            ran_total += payload["ran"]
            costs.extend(payload["costs"])
            engine._messages += payload["messages"]
            (bcast_src, bcast_val, bcast_verts, bcast_vals,
             edge_verts, edge_vals,
             single_dst, single_val, single_pair) = payload["sends"]
            engine._fs_bcast_src.extend(bcast_src)
            engine._fs_bcast_val.extend(bcast_val)
            engine._fs_bcast_verts.extend(bcast_verts)
            engine._fs_bcast_vals.extend(bcast_vals)
            engine._fs_edge_verts.extend(edge_verts)
            engine._fs_edge_vals.extend(edge_vals)
            engine._fs_single_dst.extend(single_dst)
            engine._fs_single_val.extend(single_val)
            engine._fs_single_pair.extend(single_pair)
            for name, value in payload["agg_log"]:
                engine.aggregators_next[name] = (
                    engine.aggregators_next.get(name, 0.0) + value
                )
            engine.network.obs.apply_deltas(payload["metrics"])
        engine._flush_deferred_sends()
        return ran_total, costs

    def on_restart(self, engine) -> None:
        # Kill the pool; the next superstep re-forks from the rolled-back
        # engine image, so recovery is a *real* worker restart.
        self._shutdown_pool(graceful=False)

    def materialize(self, values):
        return np.array(values)

    def finish_run(self, engine) -> None:
        self._shutdown_pool(graceful=True)
        self._sh_values = None
        self._sh_active = None
        self._sh_combined = None
        self._sh_received = None
        arenas, self._arenas = self._arenas, []
        for arena in arenas:
            arena.close()

    # -- pool teardown -------------------------------------------------------

    def _shutdown_pool(self, graceful: bool) -> None:
        for conn in self._conns:
            if graceful:
                try:
                    conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
        for proc in self._procs:
            proc.join(timeout=5 if graceful else 0.5)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
        for conn in self._conns:
            conn.close()
        self._procs = []
        self._conns = []
