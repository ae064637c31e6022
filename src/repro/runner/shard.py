"""Spatial peer-space sharding: partition planning and shard execution.

:mod:`repro.runner.partition` splits a run *temporally* into checkpointed
round-blocks; this module splits each round *spatially* into peer shards.
A :class:`ShardPlan` assigns every peer id to a shard — either by a
``hash`` baseline (``peer_id % shards``) or by an ``overlay``-aware
greedy BFS over :meth:`~repro.overlay.topology.OverlayTopology.csr_adjacency`
that grows balanced, connected regions to minimise the edge cut — and the
simulators execute each shard's intra-round kernel work concurrently via
:func:`run_shard_tasks`, merging per-shard buffers in shard order at the
round barrier (the boundary-exchange phase).

Determinism contract
--------------------
Sharding is an *execution* concern, never a *modelling* one:

* every RNG draw happens centrally, in the same order as the monolithic
  kernel — shard tasks only consume slices of pre-drawn arrays;
* shard tasks are pure functions of read-only inputs; they return
  per-shard buffers and never mutate shared state (statically enforced by
  the ``SHARD001`` analysis rule);
* merges walk shards in index order, and per-shard contributions are
  exact (integer counts carried in float64, or writes to disjoint index
  sets), so the merged arrays are byte-identical to the monolithic
  kernel's at every dtype the kernels support;
* shard settings live on :class:`~repro.runner.plan.ExecutionPlan` alone
  and never enter simulator or sweep configurations, so sharded and
  monolithic runs share artifact-cache keys.

Consequently ``shards=N`` composes freely with ``--intra-jobs`` temporal
partitioning: checkpoints taken under any shard count restore under any
other.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "MAX_SHARDS",
    "PARTITIONERS",
    "SHARD_BACKENDS",
    "ShardPlan",
    "plan_shards",
    "run_shard_tasks",
    "shard_plan_for",
]

#: Valid spatial-shard partitioners, in documentation order.
PARTITIONERS: Tuple[str, ...] = ("overlay", "hash")

#: Valid shard execution backends.
SHARD_BACKENDS: Tuple[str, ...] = ("thread", "process", "serial")

#: Ceiling on shard counts — far above any core count, and keeps shard
#: ids comfortably inside the int16 assignment tables.
MAX_SHARDS = 4096


# --------------------------------------------------------------------- plan


@dataclass(frozen=True)
class ShardPlan:
    """Immutable peer-id → shard assignment plus partition-quality metrics.

    ``table[peer_id]`` holds the shard of every peer known when the plan
    was built; ids beyond the table (peers that join mid-run) fall back to
    ``peer_id % shards``, so the assignment is total over the unbounded id
    space and churned populations stay fully, disjointly covered.
    """

    shards: int
    partitioner: str
    table: np.ndarray  # int16, indexed by peer id
    sizes: Tuple[int, ...]  # peers per shard at planning time
    edge_cut: Optional[int]  # boundary edges (None when not computed)
    total_edges: Optional[int]

    def shard_of(self, peer_ids: np.ndarray) -> np.ndarray:
        """Vectorized shard lookup for an array of peer ids."""
        ids = np.asarray(peer_ids, dtype=np.int64)
        out = (ids % self.shards).astype(np.int16)
        if self.table.size:
            known = ids < self.table.size
            out[known] = self.table[ids[known]]
        return out

    def shard_of_peer(self, peer_id: int) -> int:
        """Scalar shard lookup (joiners beyond the table hash by id)."""
        peer_id = int(peer_id)
        if 0 <= peer_id < self.table.size:
            return int(self.table[peer_id])
        return peer_id % self.shards

    @property
    def cut_fraction(self) -> Optional[float]:
        """Fraction of overlay edges crossing shard boundaries."""
        if self.edge_cut is None or not self.total_edges:
            return None
        return self.edge_cut / self.total_edges

    @property
    def imbalance(self) -> float:
        """Largest shard size over the balanced ideal (1.0 = perfect)."""
        total = sum(self.sizes)
        if not total or not self.shards:
            return 1.0
        return max(self.sizes) / (total / self.shards)


def _segmented_gather(row_start: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Positions of every CSR entry belonging to ``rows``, in row order."""
    counts = row_start[rows + 1] - row_start[rows]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return (
        np.repeat(row_start[rows], counts)
        + np.arange(total, dtype=np.int64)
        - np.repeat(offsets[:-1], counts)
    )


def _balanced_quotas(count: int, shards: int) -> List[int]:
    """Split ``count`` peers into ``shards`` quotas, earlier shards larger."""
    base, remainder = divmod(count, shards)
    return [base + (1 if shard < remainder else 0) for shard in range(shards)]


def _overlay_assignment(row_start: np.ndarray, cols: np.ndarray, count: int, shards: int) -> np.ndarray:
    """Greedy BFS partition over a CSR adjacency into balanced regions.

    Each shard grows breadth-first from the lowest-indexed unvisited node
    until its quota fills; surplus frontier nodes seed the next shard, so
    consecutive shards stay spatially adjacent and the edge cut stays low
    on clustered overlays.  Fully deterministic: frontiers are deduplicated
    with :func:`numpy.unique` (sorted) and quotas follow peer order.
    """
    assign = np.full(count, -1, dtype=np.int16)
    visited = np.zeros(count, dtype=bool)
    carry = np.empty(0, dtype=np.int64)
    next_seed = 0
    for shard, quota in enumerate(_balanced_quotas(count, shards)):
        need = quota
        current = carry
        carry = np.empty(0, dtype=np.int64)
        while need > 0:
            if current.size == 0:
                while next_seed < count and visited[next_seed]:
                    next_seed += 1
                if next_seed >= count:
                    break
                current = np.array([next_seed], dtype=np.int64)
                visited[next_seed] = True
            if current.size > need:
                carry = current[need:]
                current = current[:need]
            assign[current] = shard
            need -= current.size
            if need == 0:
                break
            frontier = cols[_segmented_gather(row_start, current)]
            frontier = np.unique(frontier[~visited[frontier]])
            visited[frontier] = True
            current = frontier
    # The quota accounting above assigns every node; the fallback guards
    # against leaving a stray -1 in the cover if it ever regresses.
    stray = np.flatnonzero(assign < 0)
    if stray.size:
        assign[stray] = (stray % shards).astype(np.int16)
    return assign


def plan_shards(topology, shards: int, partitioner: str = "overlay") -> ShardPlan:
    """Partition ``topology``'s peers into ``shards`` shards.

    ``partitioner="hash"`` assigns ``peer_id % shards`` — O(1), overlay
    oblivious, the edge-cut baseline.  ``partitioner="overlay"`` runs the
    balanced greedy BFS of :func:`_overlay_assignment` over the CSR
    adjacency so neighbouring peers land in the same shard and the
    boundary-exchange phase carries less traffic.  Edge-cut metrics are
    recorded whenever the CSR adjacency is materialised (always for
    ``overlay``; for ``hash`` only on overlays small enough to walk
    cheaply).
    """
    if not isinstance(shards, int) or shards < 1 or shards > MAX_SHARDS:
        raise ValueError(f"shards must be an int in [1, {MAX_SHARDS}], got {shards!r}")
    if partitioner not in PARTITIONERS:
        raise ValueError(
            f"unknown partitioner {partitioner!r}; known: {', '.join(PARTITIONERS)}"
        )
    peers = topology.peers()
    count = len(peers)
    max_id = peers[-1] if count else -1
    table = (np.arange(max_id + 1, dtype=np.int64) % shards).astype(np.int16)
    edge_cut: Optional[int] = None
    total_edges: Optional[int] = None
    peer_ids = np.asarray(peers, dtype=np.int64)
    if partitioner == "overlay" and shards > 1 and count:
        row_start, cols = topology.csr_adjacency(order=peers)
        assign = _overlay_assignment(row_start, cols, count, shards)
        table[peer_ids] = assign
        src = np.repeat(np.arange(count, dtype=np.int64), np.diff(row_start))
        edge_cut = int(np.count_nonzero(assign[src] != assign[cols])) // 2
        total_edges = int(cols.size) // 2
    elif shards > 1 and count and topology.num_edges <= 1_000_000:
        row_start, cols = topology.csr_adjacency(order=peers)
        assign = table[peer_ids]
        src = np.repeat(np.arange(count, dtype=np.int64), np.diff(row_start))
        edge_cut = int(np.count_nonzero(assign[src] != assign[cols])) // 2
        total_edges = int(cols.size) // 2
    if count:
        sizes = tuple(
            int(n) for n in np.bincount(table[peer_ids], minlength=shards)[:shards]
        )
    else:
        sizes = tuple(0 for _ in range(shards))
    return ShardPlan(
        shards=shards,
        partitioner=partitioner,
        table=table,
        sizes=sizes,
        edge_cut=edge_cut,
        total_edges=total_edges,
    )


# ----------------------------------------------------------------- executors


def _run_forked(tasks: Sequence[Callable[[], object]]) -> List[object]:
    """Process-pool fallback: one forked child per task, results via pipes.

    ``fork`` children inherit the task callables (and the numpy arrays
    they close over) by address-space copy, so nothing on the input side
    needs to pickle; only the per-shard result buffers travel back.
    """
    context = multiprocessing.get_context("fork")
    channels = []
    for task in tasks:
        receiver, sender = context.Pipe(duplex=False)
        process = context.Process(target=_forked_child, args=(task, sender))
        process.start()
        sender.close()
        channels.append((receiver, process))
    results: List[object] = []
    failure: Optional[BaseException] = None
    for receiver, process in channels:
        try:
            ok, payload = receiver.recv()
        except EOFError:
            ok, payload = False, RuntimeError("shard worker exited before returning")
        receiver.close()
        process.join()
        if ok:
            results.append(payload)
        elif failure is None:
            failure = payload  # type: ignore[assignment]
    if failure is not None:
        raise failure
    return results


def _forked_child(task: Callable[[], object], sender) -> None:  # pragma: no cover - child
    try:
        sender.send((True, task()))
    except BaseException as error:  # noqa: BLE001 - relayed to the parent
        try:
            sender.send((False, error))
        except Exception:
            pass
    finally:
        sender.close()


def run_shard_tasks(
    tasks: Sequence[Callable[[], object]], backend: str = "thread"
) -> List[object]:
    """Run shard tasks and return their results in task order.

    ``thread`` (default) fans the tasks over a thread pool — the shard
    kernels are numpy sections that release the GIL, so threads scale on
    multi-core boxes with zero serialization cost.  ``process`` forks one
    child per task (for workloads that stay Python-bound), falling back to
    threads where ``fork`` is unavailable.  ``serial`` runs inline — the
    reference executor the other two must match byte-for-byte.
    """
    if backend not in SHARD_BACKENDS:
        raise ValueError(
            f"unknown shard backend {backend!r}; known: {', '.join(SHARD_BACKENDS)}"
        )
    if len(tasks) <= 1 or backend == "serial":
        return [task() for task in tasks]
    if backend == "process":
        if "fork" in multiprocessing.get_all_start_methods():
            return _run_forked(tasks)
        backend = "thread"
    with ThreadPoolExecutor(
        max_workers=len(tasks), thread_name_prefix="repro-shard"
    ) as pool:
        futures = [pool.submit(task) for task in tasks]
        return [future.result() for future in futures]


# ------------------------------------------------------------ simulator hook


def shard_plan_for(plan, kernel: str, topology) -> Optional[ShardPlan]:
    """The :class:`ShardPlan` a simulator runs under, or ``None`` if monolithic.

    ``plan`` is the run's :class:`~repro.runner.plan.ExecutionPlan`; the
    per-spender ``loop`` kernel has no sharded form, so ``kernel="loop"``
    with ``plan.shards > 1`` is rejected.
    """
    if plan.shards == 1:
        return None
    if kernel == "loop":
        raise ValueError(
            "shards > 1 requires the vectorized kernel; the per-spender loop "
            "kernel has no sharded form"
        )
    return plan_shards(topology, plan.shards, plan.partitioner)
