"""Transaction-level credit-market simulator.

The simulator advances the credit circulation of a P2P market one round at
a time: within a round of length ``step`` seconds every peer spends a
Poisson number of credits (rate = its effective spending rate, capped by
its balance) and each spent credit is routed to one of its neighbours with
the routing probabilities derived from the overlay and the pricing scheme.
This is a direct simulation of the closed (or, with churn, open) Jackson
network of Table I — one job = one credit — with the practical extensions
the paper studies on top: taxation of income (Sec. VI-C), dynamic
wealth-dependent spending rates (Sec. VI-D) and peer churn (Sec. VI-E).

The simulator is deliberately array-based (peer state lives in numpy
arrays indexed by slot) so that populations of several hundred peers over
tens of thousands of simulated seconds run in seconds of wall-clock time.
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
from repro.p2psim.config import MarketSimConfig, UtilizationMode
from repro.p2psim.recorder import WealthRecorder
from repro.p2psim.slots import apply_income_taxation, apply_round_churn
from repro.queueing.routing import RoutingMatrix
from repro.queueing.traffic import solve_traffic_equations
from repro.utils.rng import make_rng
from repro.utils.validation import check_index_capacity

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.runner.plan import ExecutionPlan

__all__ = ["MarketSimResult", "CreditMarketSimulator"]


#: Forward steps a credit may take from its guide entry before it falls
#: back to the global binary search.  Credits take about one step under
#: uniform prices and 1.3 on average under Poisson prices (under 0.1%
#: need more than eight); the cap bounds the worst case, a bucket holding
#: many edges of a heavily skewed row.
_GUIDE_STEPS = 8

#: Packs with fewer edges get no guide and route every credit with one
#: global binary search: their CDF array fits in a core's L2 cache, where
#: the search beats the guide's fixed per-call cost.  Routing every pack
#: through the guide cost ``bench_simkernel.py``'s smoke cells (6
#: alternating runs, 2-core x86-64) 22% of the 100-peer vectorized
#: steps/s and 12% at 500 peers, and gained 38% at 10k peers.
_GUIDED_MIN_EDGES = 1 << 15


@dataclass
class _RoutingPack:
    """Alive peers' routing rows in CSR (segmented) layout — no padding.

    Row ``r`` describes the peer in slot ``alive_slots[r]``: its routing
    edges occupy positions ``row_start[r]:row_start[r+1]`` of the flat
    edge arrays, neighbours in ascending slot order.  ``edge_dst`` holds
    neighbour slot indices and ``flat`` the segmented cumulative routing
    probabilities offset by ``3.0 * r`` (each row's CDF is normalised so
    its last entry is exactly 1.0, so row ``r`` occupies values in
    ``(3r, 3r + 1]``).  The concatenation is therefore one globally sorted
    vector, and a credit of spender row ``r`` with uniform ``u`` routes to
    edge ``min(searchsorted(flat, u + 3r, "right"), row_start[r+1] - 1)``
    — the inverse-CDF rule both kernels implement.  The loop kernel runs
    that search per row; the vectorized kernel gets the same edge from
    :func:`_locate_edges`, which starts each credit at a guide entry and
    only falls back to the global search for the rare credit a few steps
    do not resolve.  Memory scales with the degree mass of the overlay,
    never with ``N × max_degree`` padding.  ``flat`` stays float64 under
    either dtype switch because float32 cannot resolve a CDF against a
    ``3.0 * r`` offset once ``r`` is large (spacing 0.25 at
    ``r ≈ 10^6``).

    ``guide`` runs parallel to the edges: for row ``r`` of degree ``d``,
    ``guide[row_start[r] + b]`` (``0 <= b < d``) counts the row's CDF
    entries ``c_j <= (b - 1) / d`` (up to rounding in ``c_j d``), as a
    row-local int32 offset.  A draw ``u`` in bucket
    ``b = min(floor(u d), d - 1)`` is at least ``b / d`` up to rounding, so
    every counted edge has ``c_j < u`` and lies before the inverse-CDF
    edge: the guide is a conservative start for a forward scan.
    :func:`_guide_table` derives it from the concatenated CDF in a few
    linear passes whenever a pack of at least ``_GUIDED_MIN_EDGES`` edges
    is built; smaller packs have none.

    The pack is a pure cache derived from ``_neighbors``/``_cdfs``; any
    membership or routing change drops it and the next round rebuilds it.
    """

    alive_slots: np.ndarray
    degrees: np.ndarray
    row_start: np.ndarray
    edge_dst: np.ndarray
    flat: np.ndarray
    #: None for packs under ``_GUIDED_MIN_EDGES`` edges.
    guide: Optional[np.ndarray]
    #: Row indices grouped by spatial shard (None when running monolithic).
    shard_rows: Optional[List[np.ndarray]] = None


def _locate_edges(pack: _RoutingPack, rows: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Global edge index each credit routes to, by guided inverse-CDF lookup.

    Credit ``i`` of spender row ``rows[i]`` with uniform ``draws[i]``
    lands on exactly ``min(searchsorted(pack.flat, draws[i] + 3 rows[i],
    "right"), row end - 1)`` — the search the loop kernel runs, including
    the clamp for a ``u + 3r`` that rounds up onto the row's last value
    and zero-weight tails of equal CDF values.  Every edge before the
    guide entry compares at most the target, so the scan steps forward
    while the current edge does too; credits still unresolved after
    ``_GUIDE_STEPS`` steps take the global ``searchsorted``, as do all
    credits of a pack without a guide.  Every row in ``rows`` must have at
    least one edge.
    """
    targets = draws + 3.0 * rows
    last = pack.row_start[rows + 1] - 1
    if pack.guide is None:
        return np.minimum(np.searchsorted(pack.flat, targets, side="right"), last)
    starts = pack.row_start[rows]
    degrees = pack.degrees[rows]
    buckets = np.minimum((draws * degrees).astype(np.int64), degrees - 1)
    hits = starts + pack.guide[starts + buckets]
    # Step on while the current edge's value is at most the target, but
    # never past the row's last edge (the clamp).  Most credits take one
    # step, so the first runs over all of them; later ones over the rest.
    hits += (pack.flat[hits] <= targets) & (hits < last)
    pending = np.flatnonzero((pack.flat[hits] <= targets) & (hits < last))
    for _ in range(_GUIDE_STEPS - 1):
        if pending.size == 0:
            return hits
        hits[pending] += 1
        moved = hits[pending]
        pending = pending[(pack.flat[moved] <= targets[pending]) & (moved < last[pending])]
    if pending.size:
        hits[pending] = np.minimum(
            np.searchsorted(pack.flat, targets[pending], side="right"), last[pending]
        )
    return hits


def _route_shard_rows(
    pack: _RoutingPack,
    rows: np.ndarray,
    spendable: np.ndarray,
    row_offsets: np.ndarray,
    draws: np.ndarray,
    capacity: int,
    shard_of_slot: Optional[np.ndarray],
    shard: int,
) -> Tuple[Optional[np.ndarray], int]:
    """Route one shard's credits: the restrict-to-shard view of the kernel.

    A pure function of read-only inputs (the shard executor may run it on
    a thread or in a forked child): for the spender rows of one shard it
    gathers exactly the global draw positions the monolithic kernel would
    consume for those rows (``row_offsets`` is the cumulative spendable
    count over *all* rows), locates them with the same
    :func:`_locate_edges`, and returns a full-capacity income buffer plus
    the number of credits that crossed the shard boundary.  Incomes are
    integer counts in float64, so summing the per-shard buffers in shard
    order is exact — byte-identical to the monolithic ``bincount``.
    """
    counts = spendable[rows]
    total = int(counts.sum())
    if total == 0:
        return None, 0
    offsets = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    expanded = np.repeat(rows, counts)
    positions = (
        np.repeat(row_offsets[rows], counts)
        + np.arange(total, dtype=np.int64)
        - np.repeat(offsets[:-1], counts)
    )
    destinations = pack.edge_dst[_locate_edges(pack, expanded, draws[positions])]
    income = np.bincount(destinations, minlength=capacity).astype(float)
    boundary = 0
    if shard_of_slot is not None:
        boundary = int(np.count_nonzero(shard_of_slot[destinations] != shard))
    return income, boundary


def _guide_table(cdf: np.ndarray, degrees: np.ndarray, row_start: np.ndarray) -> np.ndarray:
    """Guide entries of every row of concatenated CDFs, one per edge.

    Entry ``b`` of a row of degree ``d`` counts its CDF values
    ``c_j <= (b - 1) / d``: edge ``j`` counts from bucket
    ``ceil(c_j d) + 1`` on, so one histogram of those buckets over the
    whole edge array, accumulated and taken relative to each row's bucket
    0, gives every row's counts.  Bucket 0 itself only ever collects the
    previous row's capped buckets (no edge starts there), which the
    relative sum leaves out.  Rounding in ``c_j d`` can shift an edge by
    one bucket either way; the one-bucket margin of ``(b - 1) / d`` below
    a bucket's lowest draw keeps the guide conservative regardless.
    """
    # The bucket arithmetic runs in place on one float64 array (exact:
    # every value is an integer below 2^53), so the pass holds at most two
    # edge-length temporaries at a time.
    heads = row_start[:-1]
    edge_degree = np.repeat(degrees, degrees)
    scaled = np.multiply(cdf, edge_degree, dtype=np.float64)
    np.ceil(scaled, out=scaled)
    scaled += 1.0
    np.minimum(scaled, edge_degree, out=scaled)
    del edge_degree
    scaled += np.repeat(heads, degrees)
    buckets = scaled.astype(np.int64)
    del scaled
    # One slot past the end takes the last row's capped buckets.
    counts = np.bincount(buckets, minlength=cdf.size + 1)
    del buckets
    np.cumsum(counts, out=counts)
    guide = counts[: cdf.size]
    guide -= np.repeat(counts[heads], degrees)
    return guide.astype(np.int32)


class _PhaseClock:
    """Emits consecutive ``market.phase.<name>`` timings of one round."""

    __slots__ = ("emitter", "mark")

    def __init__(self, emitter: MetricsEmitter) -> None:
        self.emitter = emitter
        self.mark = time.perf_counter()

    def lap(self, phase: str) -> None:
        """Emit the time since the previous lap as ``phase``."""
        now = time.perf_counter()
        self.emitter.timing("market.phase." + phase, now - self.mark)
        self.mark = now


@dataclass
class MarketSimResult:
    """Output of one :class:`CreditMarketSimulator` run.

    Attributes
    ----------
    config:
        The configuration that produced the run.
    recorder:
        Time series of Gini index, bankruptcy fraction, mean wealth and
        population, plus any requested snapshots.
    final_wealths:
        Wealth of every peer alive at the end of the run.
    spending_rates:
        Measured credit spending rate (credits per second over the whole
        run) of every peer alive at the end.
    earning_rates:
        Measured credit earning rate of every peer alive at the end.
    total_transfers:
        Total number of credit transfers simulated.
    joins, leaves:
        Churn event counts (zero for static overlays).
    """

    config: MarketSimConfig
    recorder: WealthRecorder
    final_wealths: np.ndarray
    spending_rates: np.ndarray
    earning_rates: np.ndarray
    total_transfers: int
    joins: int = 0
    leaves: int = 0
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def final_gini(self) -> float:
        """Gini index at the end of the run."""
        return self.recorder.final_gini()

    @property
    def stabilized_gini(self) -> float:
        """Mean Gini over the last quarter of samples."""
        return self.recorder.stabilized_gini()


class CreditMarketSimulator:
    """Round-based simulator of credit circulation on a P2P overlay.

    Parameters
    ----------
    config:
        Simulation parameters (see :class:`~repro.p2psim.config.MarketSimConfig`).
    topology:
        Optional pre-built overlay; a scale-free overlay with the configured
        shape/mean degree is generated when omitted.
    snapshot_times:
        Simulation times at which sorted wealth snapshots are kept.
    plan:
        How the run executes (:class:`~repro.runner.plan.ExecutionPlan`:
        spatial shards); ``None`` runs monolithically.  Any plan gives
        byte-identical results.
    """

    def __init__(
        self,
        config: MarketSimConfig,
        topology: Optional[OverlayTopology] = None,
        snapshot_times: Optional[Sequence[float]] = None,
        plan: Optional[ExecutionPlan] = None,
    ) -> None:
        self.config = config
        self._rng = make_rng(config.seed, "market-sim")
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
            target_degree=int(round(config.topology_mean_degree)),
            seed=config.seed + 1,
        )

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
        self._base_mu = np.zeros(capacity, dtype=float_dtype)
        self._spent = np.zeros(capacity, dtype=float_dtype)
        self._earned = np.zeros(capacity, dtype=float_dtype)
        self._slot_of: Dict[int, int] = {}
        self._peer_of: Dict[int, int] = {}
        self._free_slots: List[int] = list(range(capacity - 1, -1, -1))
        self._neighbors: Dict[int, np.ndarray] = {}
        self._cdfs: Dict[int, np.ndarray] = {}
        self._shard_of_slot: Optional[np.ndarray] = (
            np.zeros(capacity, dtype=np.int16) if self._shard_plan is not None else None
        )
        self._pack: Optional[_RoutingPack] = None
        # Per-round scratch buffers: `_income` accumulates the loop kernel's
        # transfers, `_zero_income` is the (never written) empty-round view —
        # both preallocated so the hot loop allocates nothing on quiet rounds.
        # Incomes are integer transfer counts and stay float64 under either
        # dtype switch: counts are exact in float64, so narrowing only the
        # persistent state keeps both kernels' settlements identical.
        self._income = np.zeros(capacity)
        self._zero_income = np.zeros(capacity)

        self._tax_pool = 0.0
        self.total_transfers = 0
        self.joins = 0
        self.leaves = 0
        self._time = 0.0
        self._next_sample = 0.0

        initial_peers = self.topology.peers()
        mu_by_peer = self._configure_spending_rates(initial_peers)
        # Bulk admission: initial peers take slots 0..n-1 in id order (the
        # order one-by-one admission from the free list would give), then
        # one array pass derives every routing row.  The pack is assembled
        # from that pass's arrays, in slot order, without copying them.
        count = len(initial_peers)
        self._alive[:count] = True
        self._balance[:count] = config.initial_credits
        self._base_mu[:count] = np.fromiter(
            map(mu_by_peer.__getitem__, initial_peers), dtype=float, count=count
        )
        self._slot_of = dict(zip(initial_peers, range(count)))
        self._peer_of = dict(zip(range(count), initial_peers))
        self._free_slots = list(range(capacity - 1, count - 1, -1))
        if self._shard_of_slot is not None:
            self._shard_of_slot[:count] = [
                self._shard_plan.shard_of_peer(peer) for peer in initial_peers
            ]
        slots, degrees, edge_dst, cdf = self._refresh_routing_rows(initial_peers)
        self._pack = self._assemble_pack(slots, degrees, edge_dst, cdf)
        emitter = get_emitter()
        if self._shard_plan is not None and emitter.enabled and options.telemetry:
            emitter.gauge("market.shard.count", float(self._shard_plan.shards))
            emitter.gauge("market.shard.plan_imbalance", self._shard_plan.imbalance)
            if self._shard_plan.cut_fraction is not None:
                emitter.gauge(
                    "market.shard.cut_fraction", self._shard_plan.cut_fraction
                )

    # ------------------------------------------------------------------ setup helpers

    def _configure_spending_rates(self, peers: Sequence[int]) -> Dict[int, float]:
        """Assign base spending rates according to the utilization mode.

        Asymmetric mode gives every peer the same maximum spending rate, so
        utilizations inherit the (heterogeneous) earning rates implied by
        the topology and pricing.  Symmetric mode solves the traffic
        equations and sets ``μ_i ∝ λ_i`` so every utilization is equal,
        then rescales so the mean spending rate equals the configured base
        rate (keeping overall credit velocity comparable across modes).
        """
        base = self.config.base_spending_rate
        if self.config.utilization is UtilizationMode.ASYMMETRIC:
            rates = {peer: base for peer in peers}
        else:
            routing = RoutingMatrix.weighted_over_neighbors(
                self.topology,
                weights=self._seller_weights(peers),
                order=peers,
            )
            solution = solve_traffic_equations(routing)
            lam = solution.arrival_rates
            lam = lam / lam.mean() * base
            rates = {peer: float(rate) for peer, rate in zip(peers, lam)}
        noise = self.config.spending_rate_noise
        if noise > 0:
            sigma = float(np.sqrt(np.log(1.0 + noise**2)))
            for peer in rates:
                rates[peer] *= float(self._rng.lognormal(-sigma**2 / 2.0, sigma))
        return rates

    def _seller_weights(self, peers: Sequence[int]) -> Dict[int, float]:
        """Attractiveness of each peer as a seller (its posted chunk price)."""
        return {
            peer: float(self.config.pricing.price(peer, chunk_index=0)) for peer in peers
        }

    def _default_spending_rate(self) -> float:
        """Spending rate for peers that join after start-up."""
        if self.config.utilization is UtilizationMode.ASYMMETRIC:
            return self.config.base_spending_rate
        alive_rates = self._base_mu[self._alive]
        if alive_rates.size == 0:
            return self.config.base_spending_rate
        return float(alive_rates.mean())

    # ------------------------------------------------------------------ peer lifecycle

    def _grow_capacity(self) -> None:
        new_capacity = self._capacity * 2
        if self.config.options.is_narrow:
            check_index_capacity(
                new_capacity, self.config.options.index_dtype, "slot capacity"
            )
        pad = new_capacity - self._capacity

        def extend(array: np.ndarray) -> np.ndarray:
            return np.concatenate([array, np.zeros(pad, dtype=array.dtype)])

        self._alive = extend(self._alive)
        self._balance = extend(self._balance)
        self._base_mu = extend(self._base_mu)
        self._spent = extend(self._spent)
        self._earned = extend(self._earned)
        self._income = np.zeros(new_capacity)
        self._zero_income = np.zeros(new_capacity)
        if self._shard_of_slot is not None:
            self._shard_of_slot = extend(self._shard_of_slot)
        self._free_slots = list(range(new_capacity - 1, self._capacity - 1, -1)) + self._free_slots
        self._capacity = new_capacity

    def _admit(self, peer_id: int, spending_rate: float) -> int:
        """Create simulator state for ``peer_id`` (already present in the topology).

        No routing row is derived here: churn re-derives the rows of every
        peer whose adjacency changed, the joiner's included, in one
        :meth:`_refresh_routing_rows` call at the end of the round.
        """
        if not self._free_slots:
            self._grow_capacity()
        slot = self._free_slots.pop()
        self._alive[slot] = True
        self._balance[slot] = self.config.initial_credits
        self._base_mu[slot] = spending_rate
        self._spent[slot] = 0.0
        self._earned[slot] = 0.0
        self._slot_of[peer_id] = slot
        self._peer_of[slot] = peer_id
        if self._shard_of_slot is not None:
            self._shard_of_slot[slot] = self._shard_plan.shard_of_peer(peer_id)
        self._pack = None
        return slot

    def _evict(self, peer_id: int) -> None:
        """Remove ``peer_id``'s simulator state (topology surgery happens separately)."""
        slot = self._slot_of.pop(peer_id)
        self._peer_of.pop(slot)
        self._alive[slot] = False
        self._balance[slot] = 0.0
        self._neighbors.pop(slot, None)
        self._cdfs.pop(slot, None)
        self._free_slots.append(slot)
        self._pack = None

    def _refresh_routing_rows(
        self, peer_ids: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Derive the routing rows of ``peer_ids`` in one array pass.

        The one place a routing row is built: construction calls it once
        for every peer, churn once per round for the peers whose adjacency
        changed; peers without a slot are skipped.  A row lists the
        peer's admitted neighbours in ascending slot order.  That order is
        fixed by the simulator's own state — adjacency-set iteration order
        depends on each set's insertion history and does not survive a
        pickle round-trip, so a checkpointed run would diverge from the
        monolithic one.

        The row's CDF is the running sum of its neighbours' posted prices
        (clipped at 1e-12, then normalised), computed in float64 and
        stored at the configured state dtype.  Rows of equal degree are
        stacked so that one ``cumsum(axis=1)`` per degree reproduces each
        row's own sequential ``cumsum`` bit for bit; a segmented cumsum
        over the concatenated edges would accumulate across rows and round
        differently.

        The pass's arrays are returned as ``(slots, degrees, edge_dst,
        cdf)`` in row order.
        """
        options = self.config.options
        slot_of = self._slot_of
        peers = [peer for peer in peer_ids if peer in slot_of]
        count = len(peers)
        slots = np.fromiter(map(slot_of.__getitem__, peers), dtype=np.int64, count=count)
        row_start, edge_slots = self.topology.csr_adjacency(peers, columns=slot_of)
        degrees = np.diff(row_start)
        peer_at = np.zeros(self._capacity, dtype=np.int64)
        peer_at[np.fromiter(self._peer_of, dtype=np.int64, count=len(self._peer_of))] = (
            np.fromiter(self._peer_of.values(), dtype=np.int64, count=len(self._peer_of))
        )
        weights = np.asarray(
            self.config.pricing.price_array(peer_at[edge_slots], 0), dtype=float
        )
        weights = np.clip(weights, 1e-12, None)
        edge_dst = edge_slots.astype(options.index_dtype, copy=False)
        del edge_slots

        cdf = np.empty(weights.size, dtype=options.float_dtype)
        by_degree = np.argsort(degrees, kind="stable")
        group_bounds = np.flatnonzero(np.diff(degrees[by_degree])) + 1
        for group in np.split(by_degree, group_bounds):
            degree = int(degrees[group[0]]) if group.size else 0
            if degree == 0:
                continue
            cells = row_start[group][:, None] + np.arange(degree)
            stacked = weights[cells]
            row_cdf = np.cumsum(stacked / stacked.sum(axis=1, keepdims=True), axis=1)
            # The last entry must be exactly 1.0 so every uniform draw in
            # [0, 1) lands on a real neighbour despite cumsum rounding;
            # dividing by the total guarantees it.
            row_cdf /= row_cdf[:, -1:]
            cdf[cells] = row_cdf
        # Rows of a pass over every admitted peer are views into its
        # arrays; rows of a partial pass are copies, so one surviving row
        # never keeps a whole churn round's arrays alive.
        share = count == len(slot_of)
        bounds = row_start.tolist()
        for row, slot in enumerate(slots.tolist()):
            neighbors = edge_dst[bounds[row] : bounds[row + 1]]
            row_cdf = cdf[bounds[row] : bounds[row + 1]]
            if not share:
                neighbors, row_cdf = neighbors.copy(), row_cdf.copy()
            self._neighbors[slot] = neighbors
            self._cdfs[slot] = row_cdf
        self._pack = None
        return slots, degrees, edge_dst, cdf

    # ------------------------------------------------------------------ churn

    def _apply_churn(self, dt: float) -> None:
        apply_round_churn(
            self,
            dt,
            admit=lambda peer_id: self._admit(peer_id, self._default_spending_rate()),
            refresh_rows=self._refresh_routing_rows,
        )

    # ------------------------------------------------------------------ taxation

    def _apply_taxation(self, income: np.ndarray) -> None:
        apply_income_taxation(self, income, self._time)

    # ------------------------------------------------------------------ main loop

    def _assemble_pack(
        self,
        alive_slots: np.ndarray,
        degrees: np.ndarray,
        edge_dst: np.ndarray,
        cdf: np.ndarray,
    ) -> _RoutingPack:
        """Build the routing pack over rows given in ascending slot order."""
        count = alive_slots.size
        row_start = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(degrees, out=row_start[1:])
        # The guide first, so its temporaries never coexist with `flat`.
        guide = None
        if cdf.size >= _GUIDED_MIN_EDGES:
            guide = _guide_table(cdf, degrees, row_start)
        # float64 offsets regardless of the state dtype: adding 3r to a
        # float32 CDF stops resolving distinct probabilities once r is
        # large, while a float64 add of a float32 cdf value is exact.
        flat = np.repeat(3.0 * np.arange(count, dtype=np.float64), degrees)
        flat += cdf
        shard_rows = None
        if self._shard_plan is not None:
            shard_of_rows = self._shard_of_slot[alive_slots]
            shard_rows = [
                np.flatnonzero(shard_of_rows == shard)
                for shard in range(self._shard_plan.shards)
            ]
        return _RoutingPack(
            alive_slots, degrees, row_start, edge_dst, flat, guide, shard_rows
        )

    def _routing_pack(self) -> _RoutingPack:
        """Return the CSR routing arrays of the alive population.

        Rebuilt lazily after any membership/routing change by
        concatenating the stored rows (no row is re-derived; the guide
        takes a few linear passes over the result); on static overlays the pack built at construction serves the whole
        run.  Memory and build time scale with the edge count, never with
        ``N × max_degree``.
        """
        if self._pack is None:
            options = self.config.options
            alive_slots = np.flatnonzero(self._alive)
            slots = alive_slots.tolist()
            rows = list(map(self._neighbors.__getitem__, slots))
            degrees = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
            edge_dst = np.concatenate([np.empty(0, dtype=options.index_dtype), *rows])
            cdf = np.concatenate(
                [np.empty(0, dtype=options.float_dtype), *map(self._cdfs.__getitem__, slots)]
            )
            self._pack = self._assemble_pack(alive_slots, degrees, edge_dst, cdf)
        return self._pack

    def _route_credits_vectorized(
        self,
        pack: _RoutingPack,
        spendable: np.ndarray,
        draws: np.ndarray,
        clock: Optional[_PhaseClock] = None,
    ) -> np.ndarray:
        """Route every credit of the round in one batched guided lookup.

        Expands the spendable counts into one spender row per credit and
        locates each credit's edge with :func:`_locate_edges` — the same
        edge the loop kernel's per-row search finds.  With a ``clock``,
        the expansion and the lookup are emitted as the ``expand`` and
        ``locate`` phases.
        """
        rows = np.repeat(np.arange(pack.alive_slots.size), spendable)
        if clock is not None:
            clock.lap("expand")
        hits = _locate_edges(pack, rows, draws)
        if clock is not None:
            clock.lap("locate")
        destinations = pack.edge_dst[hits]
        return np.bincount(destinations, minlength=self._capacity).astype(float)

    def _route_credits_sharded(
        self,
        pack: _RoutingPack,
        spendable: np.ndarray,
        draws: np.ndarray,
        observing: bool,
    ) -> Tuple[np.ndarray, int]:
        """Route the round's credits shard by shard, concurrently.

        Each shard task runs :func:`_route_shard_rows` over its own spender
        rows against the shared read-only pack; the boundary-exchange
        phase is the ordered sum of the returned income buffers (exact —
        integer counts in float64), so the merged income is byte-identical
        to :meth:`_route_credits_vectorized` on the same draws.  Boundary
        destinations are only counted when telemetry is observing.
        """
        from repro.runner.shard import run_shard_tasks

        row_offsets = np.zeros(spendable.size + 1, dtype=np.int64)
        np.cumsum(spendable, out=row_offsets[1:])
        shard_of_slot = self._shard_of_slot if observing else None
        tasks = [
            functools.partial(
                _route_shard_rows,
                pack,
                rows,
                spendable,
                row_offsets,
                draws,
                self._capacity,
                shard_of_slot,
                shard,
            )
            for shard, rows in enumerate(pack.shard_rows)
        ]
        income = np.zeros(self._capacity)
        boundary = 0
        for shard_income, shard_boundary in run_shard_tasks(
            tasks, backend=self._shard_backend
        ):
            if shard_income is not None:
                income += shard_income
            boundary += shard_boundary
        return income, boundary

    def _route_credits_loop(
        self, pack: _RoutingPack, spendable: np.ndarray, draws: np.ndarray
    ) -> np.ndarray:
        """Per-spender routing loop (the benchmark baseline).

        Consumes the draws exactly like the vectorized kernel — the same
        inverse-CDF search against the same edge-segment values — so both
        kernels produce bit-identical income vectors.
        """
        income = self._income
        income.fill(0.0)
        offset = 0
        for row in range(pack.alive_slots.size):
            to_spend = int(spendable[row])
            if to_spend == 0:
                continue
            uniforms = draws[offset : offset + to_spend]
            offset += to_spend
            start = pack.row_start[row]
            end = pack.row_start[row + 1]
            segment = pack.flat[start:end]
            hits = np.searchsorted(segment, uniforms + 3.0 * row, side="right")
            hits = np.minimum(hits, pack.degrees[row] - 1)
            np.add.at(income, pack.edge_dst[start:end][hits], 1.0)
        return income

    def _spending_round(self, dt: float) -> None:
        rng = self._rng
        pack = self._routing_pack()
        alive_slots = pack.alive_slots
        if alive_slots.size == 0:
            return
        # Per-round timings are pre-measured `timing()` events rather than
        # `span()` context managers — roughly half the instrumentation
        # cost, which the telemetry-overhead CI gate holds under 5%.  The
        # monolithic vectorized kernel also splits its round into the
        # draw, expand, locate and settle phases.
        options = self.config.options
        emitter = get_emitter()
        observing = emitter.enabled and options.telemetry
        clock = None
        if observing and options.kernel == "vectorized" and self._shard_plan is None:
            clock = _PhaseClock(emitter)
        balances = self._balance[alive_slots]
        rates = self.config.spending_policy.effective_rate_vector(
            self._base_mu[alive_slots], balances
        )
        intended = rng.poisson(rates * dt)
        spendable = np.minimum(intended, np.floor(balances).astype(np.int64))
        spendable = np.where(pack.degrees > 0, spendable, 0)
        total = int(spendable.sum())
        if total == 0:
            # Nobody spent: skip the transfer machinery entirely, but still
            # show the (all-zero) income to the tax policy — rebate rounds
            # may fire on a quiet round once the pool is full.
            self._apply_taxation(self._zero_income)
            return
        draws = rng.random(total)
        if clock is not None:
            clock.lap("draw")
        kernel_started = time.perf_counter() if observing else 0.0
        boundary = 0
        if options.kernel == "loop":
            income = self._route_credits_loop(pack, spendable, draws)
        elif self._shard_plan is not None:
            income, boundary = self._route_credits_sharded(
                pack, spendable, draws, observing
            )
        else:
            income = self._route_credits_vectorized(pack, spendable, draws, clock)
        if observing:
            emitter.timing(
                "market.kernel." + options.kernel,
                time.perf_counter() - kernel_started,
            )
            if self._shard_plan is not None:
                emitter.counter("market.shard.boundary_credits", float(boundary))
        spent = spendable.astype(float)
        self._balance[alive_slots] -= spent
        self._spent[alive_slots] += spent
        self.total_transfers += total
        received = np.flatnonzero(income > 0)
        self._balance[received] += income[received]
        self._earned[received] += income[received]
        self._apply_taxation(income)
        if clock is not None:
            clock.lap("settle")

    def total_rounds(self) -> int:
        """Number of simulation rounds the configured horizon spans."""
        return int(np.ceil(self.config.horizon / self.config.step))

    def advance_rounds(self, rounds: int) -> None:
        """Advance the simulation by ``rounds`` rounds (without finalising).

        ``run()`` is ``advance_rounds(total_rounds())`` + ``finalize()``;
        intra-run partitioning (:mod:`repro.runner.partition`) advances the
        same rounds in checkpointed blocks, which yields an identical state
        because each round's draws depend only on the state before it.
        """
        dt = self.config.step
        observing = get_emitter().enabled and self.config.options.telemetry
        started = time.perf_counter() if observing else 0.0
        for _ in range(rounds):
            if self._time + 1e-9 >= self._next_sample:
                self._record_sample()
                self._next_sample += self.config.sample_interval
            self._apply_churn(dt)
            self._spending_round(dt)
            self._time += dt
        if observing and rounds:
            elapsed = max(time.perf_counter() - started, 1e-9)
            get_emitter().gauge("market.steps_per_second", rounds / elapsed)

    def finalize(self) -> MarketSimResult:
        """Record the final sample and assemble the run's result."""
        self._record_sample()
        return self._build_result()

    def run(self) -> MarketSimResult:
        """Run the simulation for the configured horizon and return the result."""
        self.advance_rounds(self.total_rounds())
        return self.finalize()

    def _record_sample(self) -> None:
        alive_slots = np.flatnonzero(self._alive)
        emitter = get_emitter()
        observing = emitter.enabled and self.config.options.telemetry
        before = len(self.recorder.gini_series.x) if observing else 0
        self.recorder.record(self._time, self._balance[alive_slots])
        # Stream the freshly recorded sample (the recorder drops empty
        # populations, so only emit when it actually appended one).
        if observing and len(self.recorder.gini_series.x) > before:
            emitter.point("market.gini", self._time, self.recorder.gini_series.y[-1])
            emitter.point(
                "market.bankrupt_fraction", self._time, self.recorder.bankrupt_series.y[-1]
            )
            emitter.point(
                "market.mean_wealth", self._time, self.recorder.mean_wealth_series.y[-1]
            )
            emitter.point("market.population", self._time, float(alive_slots.size))
            if self._shard_plan is not None and alive_slots.size:
                sizes = np.bincount(
                    self._shard_of_slot[alive_slots],
                    minlength=self._shard_plan.shards,
                )
                ideal = alive_slots.size / self._shard_plan.shards
                emitter.point(
                    "market.shard.imbalance", self._time, float(sizes.max() / ideal)
                )

    def _build_result(self) -> MarketSimResult:
        alive_slots = np.flatnonzero(self._alive)
        elapsed = max(self._time, 1e-9)
        return MarketSimResult(
            config=self.config,
            recorder=self.recorder,
            final_wealths=self._balance[alive_slots].copy(),
            spending_rates=self._spent[alive_slots] / elapsed,
            earning_rates=self._earned[alive_slots] / elapsed,
            total_transfers=self.total_transfers,
            joins=self.joins,
            leaves=self.leaves,
            extras={
                "tax_pool": self._tax_pool,
                "final_population": int(alive_slots.size),
            },
        )

    # ------------------------------------------------------------------ conveniences

    @classmethod
    def run_config(
        cls,
        config: MarketSimConfig,
        topology: Optional[OverlayTopology] = None,
        snapshot_times: Optional[Sequence[float]] = None,
    ) -> MarketSimResult:
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
