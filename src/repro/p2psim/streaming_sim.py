"""Batched chunk-level simulator of a credit-incentivized streaming swarm.

This is the detailed counterpart of
:class:`~repro.p2psim.market_sim.CreditMarketSimulator`: instead of moving
credits directly, peers run a mesh-pull streaming protocol (UUSee-like, as
in Sec. VI of the paper) and credits move only when a chunk is actually
bought from a neighbour:

* the source emits the live chunk stream and seeds every new chunk to a few
  random peers;
* once per ``scheduling_interval`` every peer looks at the availability of
  the chunks between its playback point and the live edge, requests the
  missing ones closest to their playback deadline from a supplier chosen by
  the configured policy, and pays the supplier's posted price from its
  wallet (skipping chunks it cannot afford — the budget constraint that
  couples wealth to download performance);
* suppliers admit at most ``upload_capacity`` uploads per interval;
* purchased chunks arrive after a transfer latency and playback advances at
  the stream rate, recording continuity.

The simulator produces per-peer credit spending rates (Fig. 1), wealth
profiles over time (Figs. 5–6) and — with a churn configuration — the
dynamic-overlay Gini series of Fig. 11, at higher fidelity than the market
simulator.

Execution model
---------------
Earlier revisions drove every peer through its own discrete-event process
(one heap event per peer per scheduling round, one per chunk delivery),
which made the per-peer Python loop the dominant cost of every paper-scale
streaming scenario.  The simulator now advances in **synchronous ticks** of
one scheduling interval: peer state lives in slot-indexed numpy arrays
behind an alive mask, chunk availability is a sliding boolean window over
the live stream, and the whole scheduling round — candidate scoring,
supplier choice, upload-slot admission — executes as one batched kernel
over all alive peers.  The vectorized round first packs the availability
window into ``uint64`` words and ORs them over every peer's neighbours, so
it resolves suppliers only for the chunks a peer lacks and some neighbour
can actually sell; the budget walk and upload admission then run on those
resolved requests alone.

Two kernels implement the identical round semantics and consume the
identical random draws (one tie-break uniform per (peer, window-position)
cell, drawn tick-wise before the kernel runs):

* ``kernel="vectorized"`` (default) stacks the round into array
  operations — the measured hot path;
* ``kernel="loop"`` walks peers and window positions in a per-peer Python
  loop — the benchmark baseline (``benchmarks/bench_streamkernel.py``).

Results are bit-identical between the kernels by construction.  Because
each tick depends only on the simulator's (fully picklable) state, runs
also partition into checkpointed round-blocks
(:mod:`repro.runner.partition`) that are bit-identical to the monolithic
run.

Churn (Sec. VI-E) follows the market simulator's round-based model: per
tick, each alive peer departs with probability ``1 − exp(−dt/lifespan)``
and a Poisson number of peers arrives, each endowed with the initial
credits and wired into the overlay by the membership tracker.  Topology
surgery only touches the affected peers' compacted neighbour rows, so it
commutes with the batched tick.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import MetricsEmitter, get_emitter
from repro.overlay.generators import scale_free_topology
from repro.overlay.membership import MembershipTracker
from repro.overlay.topology import OverlayTopology
from repro.p2psim.config import StreamingSimConfig
from repro.p2psim.recorder import WealthRecorder
from repro.p2psim.slots import apply_income_taxation, apply_round_churn
from repro.utils.rng import make_rng
from repro.utils.validation import check_index_capacity

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.runner.plan import ExecutionPlan

__all__ = ["StreamingSimResult", "StreamingMarketSimulator"]

#: Tolerance used in budget and tie comparisons, matching the historical
#: wallet/scheduler epsilon.  Both kernels must use the same constant.
_EPS = 1e-12


#: Upper bound on the edge mass a single segmented-expansion block of the
#: vectorized scheduling kernel materialises at once.  Supplier choice is
#: independent per candidate cell, so processing cells in bounded blocks is
#: exact; blocks of ~2^16 edges keep each pass's temporaries (a few MB per
#: block, whatever the swarm size) in cache.
_EDGE_BLOCK = 1 << 16


def _pack_availability(have: np.ndarray) -> np.ndarray:
    """Pack a boolean availability matrix into ``uint64`` words per row.

    Bit ``c % 64`` of word ``c // 64`` in row ``r`` is ``have[r, c]``
    (little-endian bit order); rows are padded to whole words, so width 120
    takes two words per slot.  PyPPSPP's ``Swarm.set_have`` keeps chunk
    maps the same way; here the packed copy is rebuilt per tick and the
    boolean matrix stays the state.
    """
    rows, width = have.shape
    num_words = -(-width // 64)
    packed = np.zeros((rows, 8 * num_words), dtype=np.uint8)
    if width % 8 == 0:  # whole bytes per row: pack the flat buffer, much faster
        bits = np.packbits(have.reshape(-1), bitorder="little").reshape(rows, -1)
    else:
        bits = np.packbits(have, axis=1, bitorder="little")
    packed[:, : bits.shape[1]] = bits
    return packed.view(np.uint64)


def _unpack_availability(words: np.ndarray, width: int) -> np.ndarray:
    """Inverse of :func:`_pack_availability`: a ``rows × width`` boolean matrix."""
    bits = np.unpackbits(words.view(np.uint8), axis=1, count=width, bitorder="little")
    return bits.view(bool)


def _neighbour_availability(
    words: np.ndarray, row_start: np.ndarray, edge_dst: np.ndarray
) -> np.ndarray:
    """Packed union of each pack row's neighbours' availability words.

    ``words`` is :func:`_pack_availability` of the slot-indexed
    availability matrix; row ``r`` of the result ORs the words of the slots
    in its edge segment ``edge_dst[row_start[r]:row_start[r+1]]``, so a bit
    is set exactly when some neighbour holds that column.  Each word column
    costs one gather and one segmented reduction over the edges, instead of
    one test per (cell, neighbour) pair.  Rows without neighbours hold
    nothing.
    """
    count = row_start.size - 1
    reach = np.zeros((count, words.shape[1]), dtype=np.uint64)
    # ``reduceat`` yields an element, not the OR identity, for an empty
    # segment, and rejects a start equal to ``edge_dst.size``: reduce over
    # the non-empty segments only.  Degree-0 rows, trailing ones included,
    # add no edges between them, and an edgeless pack (heavy churn) has no
    # segment to reduce at all.
    heads = row_start[:-1]
    linked = np.flatnonzero(row_start[1:] > heads)
    starts = heads[linked]
    for word, column in enumerate(np.ascontiguousarray(words.T)):
        reach[linked, word] = np.bitwise_or.reduceat(column[edge_dst], starts)
    return reach


def _choose_suppliers_for_cells(
    have: np.ndarray,
    price_win: np.ndarray,
    uploads_total: np.ndarray,
    row_start: np.ndarray,
    edge_dst: np.ndarray,
    cand_rows: np.ndarray,
    cand_cols: np.ndarray,
    cand_u: np.ndarray,
    seg_len: np.ndarray,
    choice: str,
    sel: np.ndarray,
) -> np.ndarray:
    """Resolve the supplier choice for the candidate cells listed in ``sel``.

    The segmented-expansion core of the vectorized scheduling kernel,
    factored out as a pure function of read-only inputs so the spatial
    shard executor can run disjoint cell subsets concurrently (each cell's
    supplier depends only on its own edge segment, so any partition of the
    cells — like any ``_EDGE_BLOCK`` blocking — produces bit-identical
    results).  Returns the chosen supplier slot of every cell, aligned with
    ``sel``.  Every selected cell must be reachable: some neighbour in its
    edge segment holds its column (see :func:`_neighbour_availability`).
    """
    n = sel.size
    chosen = np.zeros(n, dtype=np.int64)
    if n == 0:
        return chosen
    sub_rows = cand_rows[sel]
    sub_cols = cand_cols[sel]
    sub_u = cand_u[sel]
    sub_len = seg_len[sel]
    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sub_len, out=starts[1:])
    # One flat index ``dst * width + col`` gathers eligibility and quotes.
    width = have.shape[1]
    have_flat = have.reshape(-1)
    price_flat = price_win.reshape(-1)
    lo_cell = 0
    while lo_cell < n:
        hi_cell = int(
            np.searchsorted(starts, starts[lo_cell] + _EDGE_BLOCK, side="right")
        ) - 1
        hi_cell = min(max(hi_cell, lo_cell + 1), n)
        block = slice(lo_cell, hi_cell)
        seg = sub_len[block]
        heads = starts[block] - starts[lo_cell]
        edge_pos = np.repeat(row_start[sub_rows[block]] - heads, seg)
        edge_pos += np.arange(edge_pos.size)
        dst = edge_dst[edge_pos]
        flat = np.multiply(dst, width, dtype=np.int64)
        flat += np.repeat(sub_cols[block], seg)
        tie = have_flat[flat]
        if choice != "availability":
            if choice == "least-loaded":
                score = np.where(tie, uploads_total[dst], np.inf)
            else:  # cheapest
                score = np.where(tie, price_flat[flat], np.inf)
            best = np.minimum.reduceat(score, heads)
            tie &= score <= np.repeat(best + _EPS, seg)
        tie_count = np.add.reduceat(tie, heads, dtype=np.int64)
        pick = np.floor(sub_u[block] * tie_count).astype(np.int64)
        pick = np.minimum(pick, tie_count - 1)  # u*cnt can round up to cnt
        # The chosen supplier is the loop kernel's ``ties[pick]``: tie number
        # ``first_tie + pick`` of the block, ties taken in neighbour order.
        # Every cell is reachable, so every ``tie_count`` is positive.
        first_tie = np.cumsum(tie_count) - tie_count
        chosen[block] = dst[np.flatnonzero(tie)[first_tie + pick]]
        lo_cell = hi_cell
    return chosen


def _greedy_requests(
    cell_rows: np.ndarray, price: np.ndarray, budget: np.ndarray, max_requests: int
) -> np.ndarray:
    """Indices of the cells each row buys under its budget, in global order.

    ``cell_rows`` lists the resolved cells' pack rows in row-major (global)
    order and ``price`` their quotes; ``budget`` (one entry per row) is
    spent in place.  Each of at most ``max_requests`` passes takes, for
    every row, its first open cell with ``price <= budget + _EPS``.
    Budgets only decrease, so a cell that fails the test once can never
    pass it later: each pass drops those cells with the taken ones, and
    the passes reproduce the sequential "scan once, skip unaffordable"
    rule exactly.  A row's picks rise in window position, so the taken
    cells in index order are the global request order.
    """
    taken = np.zeros(cell_rows.size, dtype=bool)
    open_cells = np.arange(cell_rows.size)
    rows = cell_rows
    for _ in range(max_requests):
        affordable = price[open_cells] <= budget[rows] + _EPS
        open_cells = open_cells[affordable]
        rows = rows[affordable]
        if open_cells.size == 0:
            break
        # Run heads of the row array: each row's first affordable cell.
        first = np.empty(rows.size, dtype=bool)
        first[0] = True
        np.not_equal(rows[1:], rows[:-1], out=first[1:])
        picked = open_cells[first]
        taken[picked] = True
        budget[rows[first]] -= price[picked]
        open_cells = open_cells[~first]
        rows = rows[~first]
    return np.flatnonzero(taken)


def _admit_uploads(sellers: np.ndarray, capacity: int) -> np.ndarray:
    """Upload-slot admission: within each seller, the first ``capacity`` requests win.

    ``sellers`` lists the requests' seller slots in global order.  One sort
    of the unique keys ``seller * n + position`` groups the requests by
    seller and keeps each group in global order — the order a stable
    argsort of ``sellers`` gives — so a request's rank within its seller
    is its distance from the group's head.
    """
    n = sellers.size
    keys = np.sort(sellers * n + np.arange(n))
    grouped = keys // n
    head = np.ones(n, dtype=bool)
    np.not_equal(grouped[1:], grouped[:-1], out=head[1:])
    position = np.arange(n)
    rank = position - np.maximum.accumulate(np.where(head, position, 0))
    admitted = np.empty(n, dtype=bool)
    admitted[keys - grouped * n] = rank < capacity
    return admitted


def _emit_phase(emitter: MetricsEmitter, phase: str, since: float) -> float:
    """Emit the time since ``since`` as ``streaming.phase.<phase>``; return now."""
    now = time.perf_counter()
    emitter.timing("streaming.phase." + phase, now - since)
    return now


@dataclass
class _StreamPack:
    """Alive peers' neighbour rows in CSR (segmented) layout — no padding.

    Row ``r`` describes the peer in slot ``alive_slots[r]``:
    ``edge_dst[row_start[r]:row_start[r+1]]`` are its neighbour slot
    indices in ascending slot order.  Both kernels (and the stateful
    settlement path) read neighbours from these edge segments; earlier
    revisions also stacked a padded ``count × max_degree`` matrix, which
    priced every peer at the maximum hub degree — prohibitive on a
    scale-free overlay at large N, where a single 10^3-degree hub would
    pad a million rows.

    The pack is a pure cache derived from the per-peer neighbour rows; any
    membership change drops it and the next tick rebuilds it.  ``peer_ids``
    caches each row's peer id for the per-chunk price quotes.
    """

    alive_slots: np.ndarray
    degrees: np.ndarray
    edge_dst: np.ndarray
    row_start: np.ndarray
    row_of: Dict[int, int]
    peer_ids: List[int]

    def neighbors_of_row(self, row: int) -> np.ndarray:
        """The neighbour-slot segment of pack row ``row`` (a view)."""
        return self.edge_dst[self.row_start[row] : self.row_start[row + 1]]


@dataclass
class StreamingSimResult:
    """Output of one :class:`StreamingMarketSimulator` run.

    Attributes
    ----------
    config:
        The configuration that produced the run.
    recorder:
        Wealth time series (Gini, bankruptcy fraction, snapshots).
    final_wealths:
        Final wallet balances of the peers alive at the end, in peer-id
        order.
    spending_rates:
        Credit spending rate of every surviving peer measured over the
        second half of the run (credits per second) — the quantity plotted
        in Fig. 1.
    earning_rates:
        Credit earning rate over the same window.
    continuity:
        Playback continuity (fraction of due chunks held at their deadline)
        per surviving peer.
    chunks_delivered:
        Total chunks purchased and delivered across the swarm.
    joins, leaves:
        Churn event counts (zero for static overlays).
    """

    config: StreamingSimConfig
    recorder: WealthRecorder
    final_wealths: np.ndarray
    spending_rates: np.ndarray
    earning_rates: np.ndarray
    continuity: np.ndarray
    chunks_delivered: int
    joins: int = 0
    leaves: int = 0
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def final_gini(self) -> float:
        """Gini index of wealth at the end of the run."""
        return self.recorder.final_gini()

    @property
    def stabilized_gini(self) -> float:
        """Mean Gini over the last quarter of samples."""
        return self.recorder.stabilized_gini()

    @property
    def spending_rate_gini(self) -> float:
        """Gini index of the per-peer credit spending rates (the Fig. 1 statistic)."""
        from repro.core.metrics import gini_index

        return gini_index(self.spending_rates)


class StreamingMarketSimulator:
    """Builds and runs a credit-incentivized streaming swarm simulation.

    Parameters
    ----------
    config:
        Simulation parameters (see :class:`~repro.p2psim.config.StreamingSimConfig`).
    topology:
        Optional pre-built overlay; a scale-free overlay with the configured
        shape/mean degree is generated when omitted.
    snapshot_times:
        Simulation times at which sorted wealth snapshots are kept.
    seed_fanout:
        Override of ``config.seed_fanout`` (number of random peers that
        receive each freshly emitted chunk for free).
    plan:
        How the run executes (:class:`~repro.runner.plan.ExecutionPlan`:
        spatial shards); ``None`` runs monolithically.  Any plan gives
        byte-identical results.
    """

    def __init__(
        self,
        config: StreamingSimConfig,
        topology: Optional[OverlayTopology] = None,
        snapshot_times: Optional[Sequence[float]] = None,
        seed_fanout: Optional[int] = None,
        plan: Optional[ExecutionPlan] = None,
    ) -> None:
        self.config = config
        self._rng = make_rng(config.seed, "streaming-sim")
        self.topology = (
            topology
            if topology is not None
            else scale_free_topology(
                config.num_peers,
                shape=config.topology_shape,
                mean_degree=config.topology_mean_degree,
                seed=config.seed,
            )
        )
        if self.topology.num_peers < 2:
            raise ValueError("the overlay must contain at least 2 peers")
        self.recorder = WealthRecorder(snapshot_times=snapshot_times)
        self._tracker = MembershipTracker(
            self.topology,
            target_degree=max(1, int(round(config.topology_mean_degree))),
            seed=config.seed + 1,
        )
        self.seed_fanout = max(
            1, int(seed_fanout if seed_fanout is not None else config.seed_fanout)
        )

        # --- sliding availability window over the live stream ----------------------
        window = config.playback_window
        self._win_width = max(4 * window, window + 2, config.startup_chunks + 2)
        self._win_base = 0
        self._emitted = 0

        # --- spatial sharding ------------------------------------------------------
        # Execution knobs come from the plan alone, and a shard plan is only
        # built when actually sharding.  Lazy imports, mirroring run_config.
        from repro.runner.plan import ExecutionPlan
        from repro.runner.shard import shard_plan_for

        plan = plan if plan is not None else ExecutionPlan()
        options = config.options
        self._shard_backend = plan.shard_backend
        self._shard_plan = shard_plan_for(plan, options.kernel, self.topology)

        # --- slot-based peer state -------------------------------------------------
        float_dtype = options.float_dtype
        capacity = max(16, 2 * self.topology.num_peers)
        if options.is_narrow:
            check_index_capacity(capacity, options.index_dtype, "slot capacity")
        self._capacity = capacity
        self._alive = np.zeros(capacity, dtype=bool)
        self._balance = np.zeros(capacity, dtype=float_dtype)
        self._spent_win = np.zeros(capacity, dtype=float_dtype)
        self._earned_win = np.zeros(capacity, dtype=float_dtype)
        self._uploads_total = np.zeros(capacity, dtype=float_dtype)
        self._played = np.zeros(capacity, dtype=np.int64)
        self._missed = np.zeros(capacity, dtype=np.int64)
        self._pb_next = np.zeros(capacity, dtype=np.int64)
        self._pb_started = np.zeros(capacity, dtype=bool)
        self._pb_backlog = np.zeros(capacity, dtype=float_dtype)
        self._have = np.zeros((capacity, self._win_width), dtype=bool)
        self._price_win = np.zeros((capacity, self._win_width), dtype=float_dtype)
        self._slot_of: Dict[int, int] = {}
        self._peer_of: Dict[int, int] = {}
        self._free_slots: List[int] = list(range(capacity - 1, -1, -1))
        self._neighbors: Dict[int, np.ndarray] = {}
        self._shard_of_slot: Optional[np.ndarray] = (
            np.zeros(capacity, dtype=np.int16) if self._shard_plan is not None else None
        )
        self._pack: Optional[_StreamPack] = None

        # Purchased chunks in flight: ``_in_flight[i]`` is applied at the
        # end of the i-th tick from now; each batch is a list of
        # ``(buyer_slots, chunk_indices)`` array pairs.  The transfer
        # latency rounds up to whole ticks (at least one: a chunk bought
        # this round is available to playback and neighbours from the next
        # round on).
        interval = config.scheduling_interval
        delay_ticks = max(1, int(np.ceil(config.transfer_latency / interval - 1e-9)))
        self._delay_ticks = delay_ticks
        self._in_flight: List[List[Tuple[np.ndarray, np.ndarray]]] = [
            [] for _ in range(delay_ticks)
        ]

        self._tax_pool = 0.0
        self._minted = 0.0
        self._destroyed = 0.0
        self.chunks_delivered = 0
        self.joins = 0
        self.leaves = 0
        self._tick = 0
        self._next_sample = 0.0
        self._measure_start = config.horizon / 2.0

        # Bulk admission: create every peer's state first, then derive each
        # compacted neighbour row exactly once — the per-admission refresh
        # cascade is O(sum degree^2) Python work, quadratic in the mean
        # degree, and dominated start-up well below the million-peer scale.
        # A row only depends on which of its own neighbours are admitted,
        # so refresh-once-at-the-end yields bit-identical rows.
        initial_peers = self.topology.peers()
        for peer_id in initial_peers:
            self._admit(peer_id)
        self._refresh_neighbor_rows(initial_peers)
        # Build the stream pack eagerly: construction cost, not tick cost.
        self._stream_pack()
        emitter = get_emitter()
        if self._shard_plan is not None and emitter.enabled and options.telemetry:
            emitter.gauge("streaming.shard.count", float(self._shard_plan.shards))
            emitter.gauge("streaming.shard.plan_imbalance", self._shard_plan.imbalance)
            if self._shard_plan.cut_fraction is not None:
                emitter.gauge(
                    "streaming.shard.cut_fraction", self._shard_plan.cut_fraction
                )

    # ------------------------------------------------------------------ clock helpers

    @property
    def now(self) -> float:
        """Current simulation time (tick counter × scheduling interval)."""
        return self._tick * self.config.scheduling_interval

    def _upload_epoch(self) -> int:
        """The upload-slot accounting epoch: the integer tick counter.

        Deriving the epoch from the float clock (``floor(now / interval)``)
        mis-buckets ticks once accumulated additions drift — e.g. sixty
        additions of 0.1 give 5.999999999999998, whose quotient floors to
        59 instead of 60 — silently granting a seller a double capacity
        window.  The integer counter cannot drift; the per-tick admission
        counters (see ``_upload_slot_available``) are scoped to it.
        """
        return self._tick

    # ------------------------------------------------------------------ peer lifecycle

    def _grow_capacity(self) -> None:
        new_capacity = self._capacity * 2
        pad = new_capacity - self._capacity

        def extend(array: np.ndarray) -> np.ndarray:
            return np.concatenate([array, np.zeros(pad, dtype=array.dtype)])

        self._alive = extend(self._alive)
        self._balance = extend(self._balance)
        self._spent_win = extend(self._spent_win)
        self._earned_win = extend(self._earned_win)
        self._uploads_total = extend(self._uploads_total)
        self._played = extend(self._played)
        self._missed = extend(self._missed)
        self._pb_next = extend(self._pb_next)
        self._pb_started = extend(self._pb_started)
        self._pb_backlog = extend(self._pb_backlog)
        self._have = np.vstack(
            [self._have, np.zeros((pad, self._win_width), dtype=bool)]
        )
        self._price_win = np.vstack(
            [self._price_win, np.zeros((pad, self._win_width), dtype=self._price_win.dtype)]
        )
        if self._shard_of_slot is not None:
            self._shard_of_slot = extend(self._shard_of_slot)
        self._free_slots = (
            list(range(new_capacity - 1, self._capacity - 1, -1)) + self._free_slots
        )
        self._capacity = new_capacity

    def _admit(self, peer_id: int) -> int:
        """Create simulator state for ``peer_id`` (already present in the topology).

        No neighbour row is derived here: construction and churn each
        re-derive the rows they affect, the new peer's included, in one
        :meth:`_refresh_neighbor_rows` call.
        """
        if not self._free_slots:
            self._grow_capacity()
        slot = self._free_slots.pop()
        self._alive[slot] = True
        self._balance[slot] = self.config.initial_credits
        self._minted += self.config.initial_credits
        self._spent_win[slot] = 0.0
        self._earned_win[slot] = 0.0
        self._uploads_total[slot] = 0.0
        self._played[slot] = 0
        self._missed[slot] = 0
        # A joiner tunes in near the live edge (initial peers start at 0).
        self._pb_next[slot] = max(0, self._emitted - self.config.startup_chunks)
        self._pb_started[slot] = False
        self._pb_backlog[slot] = 0.0
        self._have[slot, :] = False
        self._slot_of[peer_id] = slot
        self._peer_of[slot] = peer_id
        if self._shard_of_slot is not None:
            self._shard_of_slot[slot] = self._shard_plan.shard_of_peer(peer_id)
        self._fill_price_row(slot)
        return slot

    def _evict(self, peer_id: int) -> None:
        """Remove ``peer_id``'s simulator state (topology surgery happens separately).

        The departing peer takes its credits out of the economy, and any
        chunk still in flight toward it is dropped — a mid-purchase
        departure must neither crash the delivery nor hand the chunk to
        whichever peer later reuses the slot.
        """
        slot = self._slot_of.pop(peer_id)
        self._peer_of.pop(slot)
        self._alive[slot] = False
        self._destroyed += float(self._balance[slot])
        self._balance[slot] = 0.0
        self._have[slot, :] = False
        self._neighbors.pop(slot, None)
        for batch in self._in_flight:
            for position, (buyer_slots, chunk_indices) in enumerate(batch):
                keep = buyer_slots != slot
                if not keep.all():
                    batch[position] = (buyer_slots[keep], chunk_indices[keep])
        self._free_slots.append(slot)
        self._pack = None

    def _refresh_neighbor_rows(self, peer_ids: Sequence[int]) -> None:
        """Recompute the compacted neighbour-slot rows of ``peer_ids``.

        A row lists the admitted neighbours' slots in ascending order, as
        :meth:`~repro.overlay.topology.OverlayTopology.csr_adjacency` over
        the slot map gives them; peers without a slot (not admitted, or
        departed) are skipped.
        """
        peers = [peer for peer in peer_ids if peer in self._slot_of]
        if not peers:
            return
        row_start, slots = self.topology.csr_adjacency(peers, columns=self._slot_of)
        slots = slots.astype(self.config.options.index_dtype, copy=False)
        bounds = row_start.tolist()
        for row, peer in enumerate(peers):
            # A copy, so a surviving row never pins the whole pass.
            self._neighbors[self._slot_of[peer]] = slots[bounds[row] : bounds[row + 1]].copy()
        self._pack = None

    def _stream_pack(self) -> _StreamPack:
        """Return the CSR neighbour arrays of the alive population.

        Rebuilt lazily after any membership change; on static overlays the
        pack is built once and reused for the whole run.  Memory scales
        with the edge count, never with ``N × max_degree``.
        """
        if self._pack is None:
            alive_slots = np.flatnonzero(self._alive)
            count = alive_slots.size
            index_dtype = self.config.options.index_dtype
            empty_row = np.empty(0, dtype=index_dtype)
            rows = [self._neighbors.get(int(slot), empty_row) for slot in alive_slots]
            degrees = np.fromiter(
                (row.size for row in rows), dtype=np.int64, count=count
            )
            edge_dst = np.concatenate(rows) if rows else empty_row
            row_start = np.zeros(count + 1, dtype=np.int64)
            np.cumsum(degrees, out=row_start[1:])
            row_of = {int(slot): row for row, slot in enumerate(alive_slots)}
            peer_ids = [self._peer_of[int(slot)] for slot in alive_slots]
            self._pack = _StreamPack(
                alive_slots, degrees, edge_dst, row_start, row_of, peer_ids
            )
        return self._pack

    # ------------------------------------------------------------------ churn

    def _apply_churn(self, dt: float) -> None:
        apply_round_churn(
            self,
            dt,
            admit=self._admit,
            refresh_rows=self._refresh_neighbor_rows,
        )

    # ------------------------------------------------------------------ stream window

    def _fill_price_row(self, slot: int) -> None:
        """Quote one (re)admitted seller's prices for every chunk in the window."""
        peer_id = self._peer_of[slot]
        live_cols = self._emitted - self._win_base
        for col in range(live_cols):
            self._price_win[slot, col] = self.config.pricing.price(
                peer_id, self._win_base + col
            )

    def _fill_price_column(self, col: int, chunk_index: int) -> None:
        """Quote every alive seller's posted price for one new chunk column."""
        pack = self._stream_pack()
        self._price_win[pack.alive_slots, col] = self.config.pricing.price_array(
            pack.peer_ids, chunk_index
        )

    def _refresh_price_window(self) -> None:
        """Re-quote the whole window (stateful pricing schemes only)."""
        live_cols = self._emitted - self._win_base
        for col in range(live_cols):
            self._fill_price_column(col, self._win_base + col)

    def _slide_window(self, shift: int) -> None:
        width = self._win_width
        if shift >= width:
            self._have[:, :] = False
            self._price_win[:, :] = 0.0
        else:
            self._have[:, : width - shift] = self._have[:, shift:]
            self._have[:, width - shift :] = False
            self._price_win[:, : width - shift] = self._price_win[:, shift:]
            self._price_win[:, width - shift :] = 0.0
        self._win_base += shift

    def _emit_due_chunks(self) -> None:
        """Emit (and seed) every chunk due by the current tick time.

        The source pre-fills ``startup_chunks`` of backlog at time zero and
        then emits at ``chunk_rate``; each fresh chunk is pushed for free to
        ``seed_fanout`` random alive peers (the origin server's push
        degree).
        """
        config = self.config
        target = config.startup_chunks + int(
            np.floor(self.now * config.chunk_rate + 1e-9)
        )
        rng = self._rng
        while self._emitted < target:
            index = self._emitted
            col = index - self._win_base
            if col >= self._win_width:
                self._slide_window(col - self._win_width + 1)
                col = index - self._win_base
            self._fill_price_column(col, index)
            alive_slots = np.flatnonzero(self._alive)
            if alive_slots.size:
                fanout = min(self.seed_fanout, alive_slots.size)
                chosen = rng.choice(alive_slots, size=fanout, replace=False)
                self._have[chosen, col] = True
            self._emitted += 1

    # ------------------------------------------------------------------ scheduling kernels

    def _schedule_vectorized(
        self,
        pack: _StreamPack,
        balances: np.ndarray,
        uniforms: np.ndarray,
        base: int,
        live_edge: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Batched scheduling round: every alive peer's requests at once.

        Implements exactly the per-peer semantics of ``_schedule_loop`` —
        same candidate order, same supplier tie-breaks (cell ``(r, w)``
        spends uniform ``uniforms[r, w]``), same greedy budget rule, same
        global admission order — as pure array operations, doing only the
        work that can change the result:

        * ``mask``: the cells a peer lacks *and* some neighbour holds, from
          packed availability words OR-reduced over each neighbour segment
          (the loop kernel skips the other cells, having no supplier);
        * ``resolve``: the segmented supplier choice over those cells only;
        * ``greedy``: the budget walk over the resolved cells' 1-D arrays;
        * ``admit``: upload-slot ranks within each seller from one sort.

        With telemetry on, each phase is emitted as a
        ``streaming.phase.<name>`` timing.
        """
        config = self.config
        window = config.playback_window
        count = pack.alive_slots.size
        if count == 0 or live_edge < 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty, np.empty(0)
        emitter = get_emitter()
        observing = emitter.enabled and config.options.telemetry
        mark = time.perf_counter() if observing else 0.0

        slots = pack.alive_slots
        width = self._win_width
        # Cells a peer lacks and some neighbour holds, as one packed pass:
        # a cell no neighbour can serve never resolves a supplier, so the
        # reachability prefilter drops it before the per-edge expansion
        # (with every cell of a neighbourless peer).
        words = _pack_availability(self._have)
        fetch_words = _neighbour_availability(words, pack.row_start, pack.edge_dst)
        fetch_words &= ~words[slots]
        # Each peer's want window is the ``window`` columns from its
        # playback point.  Framing the emitted columns in ``window`` empty
        # columns on both sides makes every window a plain slice, with the
        # positions before the base or past the live edge already clear.
        live_cols = live_edge - base + 1
        framed = np.zeros((count, width + 2 * window), dtype=bool)
        framed[:, window : window + live_cols] = _unpack_availability(
            fetch_words, width
        )[:, :live_cols]
        start = self._pb_next[slots] - base
        windows = np.lib.stride_tricks.sliding_window_view(framed, window, axis=1)
        candidate = windows[np.arange(count), np.clip(start, -window, width) + window]
        cells = np.flatnonzero(candidate)  # row-major = global order
        cand_rows = cells // window
        cand_cols = start[cand_rows] + (cells - cand_rows * window)
        if observing:
            mark = _emit_phase(emitter, "mask", mark)

        # Supplier choice for every candidate (peer, window-position) cell,
        # via a segmented expansion over each candidate peer's edge list.
        # Cost scales with the degree mass of the candidate cells — a
        # scale-free hub only pays its own degree where it is actually
        # missing a chunk some neighbour holds, never as padding on every
        # other peer.
        chosen = self._resolve_suppliers(
            pack,
            cand_rows,
            cand_cols,
            uniforms.reshape(-1)[cells],
            pack.degrees[cand_rows],
            config.supplier_choice,
        )
        price = self._price_win[chosen, cand_cols].astype(np.float64, copy=False)
        if observing:
            mark = _emit_phase(emitter, "resolve", mark)

        # Greedy selection with budget skip over the resolved cells, whose
        # row-major order is the global order.
        taken = _greedy_requests(
            cand_rows, price, balances.copy(), config.max_requests_per_round
        )
        if observing:
            mark = _emit_phase(emitter, "greedy", mark)

        buyers = slots[cand_rows[taken]]
        sellers = chosen[taken]
        chunk_abs = cand_cols[taken] + base
        paid = price[taken]

        # Upload-slot admission in global order: within each seller, the
        # first ``upload_capacity`` requests win.
        admitted = _admit_uploads(sellers, config.upload_capacity)
        if observing:
            _emit_phase(emitter, "admit", mark)
        return buyers[admitted], sellers[admitted], chunk_abs[admitted], paid[admitted]

    def _resolve_suppliers(
        self,
        pack: _StreamPack,
        cand_rows: np.ndarray,
        cand_cols: np.ndarray,
        cand_u: np.ndarray,
        seg_len: np.ndarray,
        choice: str,
    ) -> np.ndarray:
        """Run the supplier-choice expansion, monolithic or sharded by buyer.

        Sharded mode partitions the candidate cells by the *buyer's* shard
        and resolves each subset concurrently against the shared read-only
        state; the central merge writes each subset's results back to its
        own (disjoint) cell indices in shard order.  Supplier choice is
        independent per cell, so the merged arrays are byte-identical to
        the monolithic expansion; the budget walk and the global
        upload-slot admission that follow stay central — they are the
        round's boundary-exchange phase, where cross-shard chunk deliveries
        reconcile deterministically.
        """
        args = (
            self._have,
            self._price_win,
            self._uploads_total,
            pack.row_start,
            pack.edge_dst,
            cand_rows,
            cand_cols,
            cand_u,
            seg_len,
            choice,
        )
        if self._shard_plan is None:
            return _choose_suppliers_for_cells(
                *args, np.arange(cand_rows.size, dtype=np.int64)
            )
        from repro.runner.shard import run_shard_tasks

        shard_of_cell = self._shard_of_slot[pack.alive_slots[cand_rows]]
        selections = [
            np.flatnonzero(shard_of_cell == shard)
            for shard in range(self._shard_plan.shards)
        ]
        tasks = [
            functools.partial(_choose_suppliers_for_cells, *args, sel)
            for sel in selections
        ]
        chosen = np.zeros(cand_rows.size, dtype=np.int64)
        results = run_shard_tasks(tasks, backend=self._shard_backend)
        for sel, chosen_s in zip(selections, results):
            chosen[sel] = chosen_s
        return chosen

    def _schedule_loop(
        self,
        pack: _StreamPack,
        balances: np.ndarray,
        uniforms: np.ndarray,
        base: int,
        live_edge: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-peer scheduling loop (the benchmark baseline).

        Walks every alive peer's want window one position at a time —
        exactly what the retired event-driven scheduler did per peer per
        round — consuming the same tie-break uniforms as the vectorized
        kernel, so both produce bit-identical purchases.
        """
        config = self.config
        window = config.playback_window
        capacity = config.upload_capacity
        choice = config.supplier_choice
        max_requests = config.max_requests_per_round
        have = self._have
        price_win = self._price_win
        uploads_total = self._uploads_total
        buyers: List[int] = []
        sellers: List[int] = []
        chunks: List[int] = []
        paid: List[float] = []
        used: Dict[int, int] = {}
        if live_edge < 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty, np.empty(0)
        for row in range(pack.alive_slots.size):
            slot = int(pack.alive_slots[row])
            degree = int(pack.degrees[row])
            if degree == 0:
                continue
            neighbors = pack.neighbors_of_row(row)
            playback_point = int(self._pb_next[slot])
            budget = float(balances[row])
            requests = 0
            for w in range(window):
                if requests >= max_requests:
                    break
                index = playback_point + w
                if index < base or index > live_edge:
                    continue
                col = index - base
                if have[slot, col]:
                    continue
                eligible = [int(s) for s in neighbors if have[s, col]]
                if not eligible:
                    continue
                if choice == "least-loaded":
                    loads = [float(uploads_total[s]) for s in eligible]
                    best = min(loads)
                    ties = [s for s, load in zip(eligible, loads) if load <= best + _EPS]
                elif choice == "cheapest":
                    quotes = [float(price_win[s, col]) for s in eligible]
                    best = min(quotes)
                    ties = [s for s, quote in zip(eligible, quotes) if quote <= best + _EPS]
                else:
                    ties = eligible
                pick = min(int(float(uniforms[row, w]) * len(ties)), len(ties) - 1)
                seller = ties[pick]
                price = float(price_win[seller, col])
                if price > budget + _EPS:
                    continue
                budget -= price
                requests += 1
                # Upload-slot admission (global order = this scan order).
                if not self._upload_slot_available(seller, used):
                    continue
                used[seller] = used.get(seller, 0) + 1
                buyers.append(slot)
                sellers.append(seller)
                chunks.append(index)
                paid.append(price)
        return (
            np.array(buyers, dtype=np.int64),
            np.array(sellers, dtype=np.int64),
            np.array(chunks, dtype=np.int64),
            np.array(paid),
        )

    def _upload_slot_available(self, seller_slot: int, used: Dict[int, int]) -> bool:
        """Whether ``seller_slot`` still has upload capacity this tick.

        ``used`` is the tick-local admission counter; the epoch is the
        integer tick counter (see ``_upload_epoch``), so the windowed
        accounting cannot drift with the float clock.
        """
        return used.get(seller_slot, 0) < self.config.upload_capacity

    # ------------------------------------------------------------------ settlement

    def _settle(
        self,
        pack: _StreamPack,
        buyers: np.ndarray,
        sellers: np.ndarray,
        chunk_abs: np.ndarray,
        prices: np.ndarray,
    ) -> None:
        """Apply one tick's admitted purchases: credits now, chunks after latency.

        Shared verbatim by both kernels.  Posted-price schemes settle as
        batched array updates; stateful schemes (auctions, linear pricing)
        settle purchase-by-purchase in the global admission order through
        the scalar ``settle``/``note_purchase`` hooks.
        """
        config = self.config
        income = np.zeros(self._capacity)
        deliveries = self._in_flight[self._delay_ticks - 1]
        measuring = self.now >= self._measure_start
        if buyers.size:
            if config.pricing.is_stateful():
                base = self._win_base
                delivered_slots: List[int] = []
                delivered_chunks: List[int] = []
                for buyer, seller, index, _quote in zip(
                    buyers, sellers, chunk_abs, prices
                ):
                    buyer_slot, seller_slot = int(buyer), int(seller)
                    buyer_id = self._peer_of[buyer_slot]
                    seller_id = self._peer_of[seller_slot]
                    row = pack.row_of[buyer_slot]
                    col = int(index) - base
                    competing = [
                        self._peer_of[int(s)]
                        for s in pack.neighbors_of_row(row)
                        if self._have[int(s), col]
                    ]
                    price = float(
                        config.pricing.settle(
                            seller_id, int(index), buyer_id=buyer_id,
                            competing_sellers=competing,
                        )
                    )
                    if price > self._balance[buyer_slot] + _EPS:
                        continue
                    self._balance[buyer_slot] -= price
                    self._balance[seller_slot] += price
                    income[seller_slot] += price
                    if measuring:
                        self._spent_win[buyer_slot] += price
                        self._earned_win[seller_slot] += price
                    config.pricing.note_purchase(seller_id, int(index), buyer_id)
                    self._uploads_total[seller_slot] += 1.0
                    self.chunks_delivered += 1
                    delivered_slots.append(buyer_slot)
                    delivered_chunks.append(int(index))
                if delivered_slots:
                    deliveries.append(
                        (
                            np.array(delivered_slots, dtype=np.int64),
                            np.array(delivered_chunks, dtype=np.int64),
                        )
                    )
            else:
                spent = np.bincount(buyers, weights=prices, minlength=self._capacity)
                income = np.bincount(sellers, weights=prices, minlength=self._capacity)
                self._balance -= spent
                self._balance += income
                self._uploads_total += np.bincount(
                    sellers, minlength=self._capacity
                ).astype(float)
                if measuring:
                    self._spent_win += spent
                    self._earned_win += income
                self.chunks_delivered += int(buyers.size)
                deliveries.append((buyers, chunk_abs))
        self._apply_taxation(income)

    def _apply_taxation(self, income: np.ndarray) -> None:
        apply_income_taxation(self, income, self.now)

    # ------------------------------------------------------------------ playback

    def _advance_playback(self, pack: _StreamPack, dt: float) -> None:
        """Advance every started peer's playback clock by one tick.

        Due chunks not held at their deadline are skipped and counted as
        misses (live-streaming semantics).  Peers that have buffered
        ``startup_chunks`` contiguous chunks from their playback point
        start playing.
        """
        slots = pack.alive_slots
        if slots.size == 0:
            return
        base = self._win_base
        live_edge = self._emitted - 1
        need = self.config.startup_chunks
        not_started = slots[~self._pb_started[slots]]
        if not_started.size:
            if need == 0:
                self._pb_started[not_started] = True
            else:
                idx = self._pb_next[not_started][:, None] + np.arange(need)[None, :]
                in_window = (idx >= base) & (idx <= live_edge)
                cols = np.clip(idx - base, 0, self._win_width - 1)
                held = self._have[not_started[:, None], cols] & in_window
                self._pb_started[not_started[held.all(axis=1)]] = True
        playing = slots[self._pb_started[slots]]
        if playing.size == 0:
            return
        self._pb_backlog[playing] += dt * self.config.chunk_rate
        due = np.floor(self._pb_backlog[playing]).astype(np.int64)
        max_due = int(due.max()) if due.size else 0
        if max_due <= 0:
            return
        idx = self._pb_next[playing][:, None] + np.arange(max_due)[None, :]
        active = np.arange(max_due)[None, :] < due[:, None]
        in_window = (idx >= base) & (idx <= live_edge)
        cols = np.clip(idx - base, 0, self._win_width - 1)
        held = self._have[playing[:, None], cols] & in_window & active
        hits = held.sum(axis=1)
        self._played[playing] += hits
        self._missed[playing] += due - hits
        self._pb_next[playing] += due
        self._pb_backlog[playing] -= due

    def _apply_deliveries(self) -> None:
        """Materialise the chunk batch whose transfer latency has elapsed.

        Chunks whose window position has already been evicted (a transfer
        that out-lived the live window) are dropped, as are chunks bound
        for a peer that departed mid-transfer.
        """
        batch = self._in_flight.pop(0)
        self._in_flight.append([])
        base = self._win_base
        width = self._win_width
        for buyer_slots, chunk_indices in batch:
            cols = chunk_indices - base
            landed = (cols >= 0) & (cols < width) & self._alive[buyer_slots]
            self._have[buyer_slots[landed], cols[landed]] = True

    # ------------------------------------------------------------------ main loop

    def total_rounds(self) -> int:
        """Number of scheduling ticks the configured horizon spans."""
        return int(np.ceil(self.config.horizon / self.config.scheduling_interval))

    def advance_rounds(self, rounds: int) -> None:
        """Advance the simulation by ``rounds`` ticks (without finalising).

        ``run()`` is ``advance_rounds(total_rounds())`` + ``finalize()``;
        intra-run partitioning (:mod:`repro.runner.partition`) advances the
        same ticks in checkpointed blocks, which yields an identical state
        because each tick's draws depend only on the state before it.
        """
        config = self.config
        dt = config.scheduling_interval
        stateful_pricing = config.pricing.is_stateful()
        emitter = get_emitter()
        observing = emitter.enabled and config.options.telemetry
        started = time.perf_counter() if observing else 0.0
        for _ in range(rounds):
            if self.now + 1e-9 >= self._next_sample:
                self._record_sample()
                self._next_sample += config.sample_interval
            if observing:
                with emitter.span("streaming.tick"):
                    self._advance_tick(dt, stateful_pricing)
            else:
                self._advance_tick(dt, stateful_pricing)
            self._tick += 1
        if observing and rounds:
            elapsed = max(time.perf_counter() - started, 1e-9)
            emitter.gauge("streaming.ticks_per_second", rounds / elapsed)

    def _advance_tick(self, dt: float, stateful_pricing: bool) -> None:
        """Execute one scheduling tick (churn, emission, scheduling, settlement).

        With telemetry on, the monolithic vectorized path also times the
        tick around its kernel as ``streaming.phase.{emit,settle,playback}``
        (churn stays outside the phases, as in the market).
        """
        config = self.config
        options = config.options
        emitter = get_emitter()
        observing = emitter.enabled and options.telemetry
        phased = observing and options.kernel == "vectorized" and self._shard_plan is None
        self._apply_churn(dt)
        mark = time.perf_counter() if phased else 0.0
        self._emit_due_chunks()
        if stateful_pricing:
            config.pricing.reset_round()
            self._refresh_price_window()
        pack = self._stream_pack()
        balances = self._balance[pack.alive_slots]
        uniforms = self._rng.random((pack.alive_slots.size, config.playback_window))
        if phased:
            _emit_phase(emitter, "emit", mark)
        kernel = (
            self._schedule_loop if options.kernel == "loop" else self._schedule_vectorized
        )
        args = (pack, balances, uniforms, self._win_base, self._emitted - 1)
        if observing:
            with emitter.span("streaming.kernel." + options.kernel):
                buyers, sellers, chunk_abs, prices = kernel(*args)
        else:
            buyers, sellers, chunk_abs, prices = kernel(*args)
        if observing and self._shard_plan is not None:
            # Admitted purchases whose buyer and seller live in different
            # shards — the chunk deliveries the boundary-exchange phase
            # reconciles this tick.
            boundary = int(
                np.count_nonzero(
                    self._shard_of_slot[buyers] != self._shard_of_slot[sellers]
                )
            )
            emitter.counter("streaming.shard.boundary_chunks", float(boundary))
        mark = time.perf_counter() if phased else 0.0
        self._settle(pack, buyers, sellers, chunk_abs, prices)
        if phased:
            mark = _emit_phase(emitter, "settle", mark)
        self._advance_playback(pack, dt)
        self._apply_deliveries()
        if phased:
            _emit_phase(emitter, "playback", mark)

    def finalize(self) -> StreamingSimResult:
        """Record the final sample and assemble the run's result."""
        self._record_sample()
        return self._build_result()

    def run(self) -> StreamingSimResult:
        """Run the simulation for the configured horizon and return the result."""
        self.advance_rounds(self.total_rounds())
        return self.finalize()

    # ------------------------------------------------------------------ bookkeeping

    def verify_conservation(self, tolerance: float = 1e-6) -> None:
        """Raise ``AssertionError`` if the credit-conservation invariant is violated."""
        alive_slots = np.flatnonzero(self._alive)
        in_circulation = float(self._balance[alive_slots].sum()) + self._tax_pool
        error = abs(self._minted - self._destroyed - in_circulation)
        if error > tolerance:
            raise AssertionError(
                f"credit conservation violated: minted={self._minted:.6g}, "
                f"destroyed={self._destroyed:.6g}, "
                f"in_circulation={in_circulation:.6g} (error {error:.3g})"
            )

    def _peer_order(self) -> List[int]:
        """Alive peer ids in ascending order (the reporting order)."""
        return sorted(self._slot_of)

    def _record_sample(self) -> None:
        order = self._peer_order()
        slots = np.array([self._slot_of[peer] for peer in order], dtype=np.int64)
        emitter = get_emitter()
        observing = emitter.enabled and self.config.options.telemetry
        before = len(self.recorder.gini_series.x) if observing else 0
        self.recorder.record(self.now, self._balance[slots])
        # Stream the freshly recorded sample (the recorder drops empty
        # populations, so only emit when it actually appended one).
        if observing and len(self.recorder.gini_series.x) > before:
            emitter.point("streaming.gini", self.now, self.recorder.gini_series.y[-1])
            emitter.point(
                "streaming.bankrupt_fraction", self.now, self.recorder.bankrupt_series.y[-1]
            )
            emitter.point(
                "streaming.mean_wealth", self.now, self.recorder.mean_wealth_series.y[-1]
            )
            emitter.point("streaming.population", self.now, float(len(order)))
            if self._shard_plan is not None and slots.size:
                sizes = np.bincount(
                    self._shard_of_slot[slots], minlength=self._shard_plan.shards
                )
                ideal = slots.size / self._shard_plan.shards
                emitter.point(
                    "streaming.shard.imbalance", self.now, float(sizes.max() / ideal)
                )

    def _build_result(self) -> StreamingSimResult:
        order = self._peer_order()
        slots = np.array([self._slot_of[peer] for peer in order], dtype=np.int64)
        window = max(self.config.horizon - self._measure_start, 1e-9)
        played = self._played[slots].astype(float)
        missed = self._missed[slots].astype(float)
        due = played + missed
        continuity = np.where(due > 0, played / np.maximum(due, 1.0), 1.0)
        return StreamingSimResult(
            config=self.config,
            recorder=self.recorder,
            final_wealths=self._balance[slots].copy(),
            spending_rates=self._spent_win[slots] / window,
            earning_rates=self._earned_win[slots] / window,
            continuity=continuity,
            chunks_delivered=self.chunks_delivered,
            joins=self.joins,
            leaves=self.leaves,
            extras={
                "peer_order": order,
                "source_chunks": self._emitted,
                "final_population": len(order),
                "tax_pool": self._tax_pool,
            },
        )

    # ------------------------------------------------------------------ conveniences

    @classmethod
    def run_config(
        cls,
        config: StreamingSimConfig,
        topology: Optional[OverlayTopology] = None,
        snapshot_times: Optional[Sequence[float]] = None,
    ) -> StreamingSimResult:
        """Build a simulator for ``config`` and run it to completion.

        The run executes under the ambient execution context (see
        :func:`repro.runner.partition.running`): its
        :class:`~repro.runner.plan.ExecutionPlan` reaches the constructor,
        and when a :class:`~repro.runner.partition.BlockContext` is active
        the run executes as checkpointed round-blocks through it —
        producing bit-identical results, since block boundaries only
        pickle/unpickle the state the monolithic loop would carry anyway.
        """
        from repro.runner.partition import active_context, active_plan

        build = functools.partial(cls, plan=active_plan())
        context = active_context()
        if context is not None:
            return context.run_simulation(
                build, config, topology=topology, snapshot_times=snapshot_times
            )
        return build(config, topology=topology, snapshot_times=snapshot_times).run()
