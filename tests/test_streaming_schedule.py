"""The vectorized streaming scheduler's array passes against plain references.

The scheduling round of :class:`~repro.p2psim.StreamingMarketSimulator`
runs as three array passes between the candidate mask and settlement:

* the reachability prefilter — packed availability words OR-reduced over
  each pack row's neighbour segment — keeps only the cells some neighbour
  can serve;
* the greedy budget walk runs over the resolved cells only;
* upload admission ranks every request within its seller from one sort.

Each pass is checked here against the obvious reference (a brute-force
neighbour scan, the dense ``count × window`` greedy walk, a stable argsort),
and the whole kernel against the per-peer loop kernel at ``float32``.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.pricing import PoissonPricing
from repro.overlay.topology import OverlayTopology
from repro.p2psim import KernelOptions, StreamingMarketSimulator, StreamingSimConfig
from repro.p2psim import streaming_sim
from repro.p2psim.streaming_sim import (
    _EPS,
    _admit_uploads,
    _greedy_requests,
    _neighbour_availability,
    _pack_availability,
    _unpack_availability,
)


def random_pack(rng, capacity, degrees, index_dtype=np.int64):
    """CSR neighbour rows with the given degrees over ``capacity`` slots."""
    rows = [np.sort(rng.choice(capacity, size=d, replace=False)) for d in degrees]
    row_start = np.zeros(len(degrees) + 1, dtype=np.int64)
    np.cumsum(degrees, out=row_start[1:])
    return row_start, np.concatenate(rows).astype(index_dtype)


def reachable(have, row_start, edge_dst):
    """The prefilter under test, unpacked to a ``count × width`` matrix."""
    words = _neighbour_availability(_pack_availability(have), row_start, edge_dst)
    return _unpack_availability(words, have.shape[1])


def brute_force_reachable(have, row_start, edge_dst):
    """Some neighbour holds the column: one ``any`` per pack row."""
    count = row_start.size - 1
    out = np.zeros((count, have.shape[1]), dtype=bool)
    for row in range(count):
        segment = edge_dst[row_start[row] : row_start[row + 1]]
        if segment.size:
            out[row] = have[segment].any(axis=0)
    return out


class TestReachabilityPrefilter:
    @pytest.mark.parametrize("width", [7, 64, 65, 120, 130])
    @pytest.mark.parametrize("index_dtype", [np.int64, np.int32])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_force_neighbour_scan(self, width, index_dtype, seed):
        rng = np.random.default_rng(seed)
        capacity, count = 60, 40
        degrees = rng.integers(0, 12, size=count)
        degrees[rng.random(count) < 0.25] = 0  # isolated rows in the middle
        degrees[-3:] = 0  # ... and at the end of the pack
        row_start, edge_dst = random_pack(rng, capacity, degrees, index_dtype)
        have = rng.random((capacity, width)) < 0.08
        got = reachable(have, row_start, edge_dst)
        assert got.dtype == bool and got.shape == (count, width)
        assert got.tolist() == brute_force_reachable(have, row_start, edge_dst).tolist()
        assert 0 < got.sum() < got.size

    def test_pack_round_trips_every_width(self):
        rng = np.random.default_rng(5)
        for width in (1, 7, 8, 63, 64, 65, 120, 130):
            have = rng.random((9, width)) < 0.5
            words = _pack_availability(have)
            assert words.dtype == np.uint64
            assert words.shape == (9, -(-width // 64))
            assert _unpack_availability(words, width).tolist() == have.tolist()

    def test_degree_zero_rows_hold_nothing(self):
        # Degree-0 rows between and after linked rows: ``reduceat`` would
        # hand an empty segment the next edge's word, and a trailing empty
        # segment's start equals ``edge_dst.size``.
        have = np.ones((4, 120), dtype=bool)
        row_start = np.array([0, 0, 2, 2, 3, 3, 3])
        edge_dst = np.array([1, 2, 3])
        got = reachable(have, row_start, edge_dst)
        assert got.any(axis=1).tolist() == [False, True, False, True, False, False]

    def test_edgeless_pack_reaches_nothing(self):
        # Heavy churn can leave every alive peer without a neighbour.
        have = np.ones((8, 65), dtype=bool)
        row_start = np.zeros(6, dtype=np.int64)
        got = reachable(have, row_start, np.empty(0, dtype=np.int32))
        assert got.shape == (5, 65) and not got.any()

    def test_empty_pack(self):
        have = np.ones((8, 65), dtype=bool)
        got = reachable(have, np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64))
        assert got.shape == (0, 65)


def dense_greedy(cell_rows, cell_ws, price, budget, count, window, max_requests):
    """The dense ``count × window`` budget walk the compact pass replaced."""
    open_price = np.full((count, window), np.inf)
    open_price[cell_rows, cell_ws] = price
    sel_w = np.full((count, max_requests), -1, dtype=np.int64)
    for request in range(max_requests):
        affordable = open_price <= budget[:, None] + _EPS
        any_affordable = affordable.any(axis=1)
        if not any_affordable.any():
            break
        first = np.argmax(affordable, axis=1)
        takers = np.flatnonzero(any_affordable)
        picked = first[takers]
        sel_w[takers, request] = picked
        budget[takers] -= open_price[takers, picked]
        open_price[takers, picked] = np.inf
    flat = np.flatnonzero(sel_w.ravel() >= 0)
    return flat // max_requests, sel_w.ravel()[flat]


class TestCompactGreedy:
    @pytest.mark.parametrize("float_dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("max_requests", [1, 2, 4, 40])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dense_budget_walk(self, float_dtype, max_requests, seed):
        rng = np.random.default_rng(seed)
        count, window = 50, 30
        cells = np.flatnonzero(rng.random(count * window) < 0.3)
        cell_rows, cell_ws = cells // window, cells % window
        # Few distinct quotes and budgets on their sums, so exact-boundary
        # comparisons and skipped-then-affordable orders all occur.
        price = rng.choice([0.0, 0.5, 1.0, 2.0, 3.0], size=cells.size).astype(float_dtype)
        price = price.astype(np.float64)
        budget = rng.choice([0.0, 0.5, 1.0, 2.5, 4.0, 100.0], size=count).astype(float_dtype)
        taken = _greedy_requests(cell_rows, price, budget.copy(), max_requests)
        rows, ws = dense_greedy(
            cell_rows, cell_ws, price, budget.copy(), count, window, max_requests
        )
        assert cell_rows[taken].tolist() == rows.tolist()
        assert cell_ws[taken].tolist() == ws.tolist()
        assert 0 < taken.size < cells.size

    def test_spends_budget_in_place(self):
        cell_rows = np.array([0, 0, 1, 1])
        price = np.array([1.0, 5.0, 2.0, 2.0])
        budget = np.array([3.0, 3.0])
        taken = _greedy_requests(cell_rows, price, budget, 4)
        assert taken.tolist() == [0, 2]
        assert budget.tolist() == [2.0, 1.0]

    def test_no_cells(self):
        taken = _greedy_requests(np.empty(0, dtype=np.int64), np.empty(0), np.ones(3), 4)
        assert taken.size == 0


def stable_argsort_admission(sellers, capacity):
    """The stable-argsort plus ``searchsorted`` admission the one sort replaced."""
    order = np.argsort(sellers, kind="stable")
    sorted_sellers = sellers[order]
    rank = np.arange(sellers.size) - np.searchsorted(sorted_sellers, sorted_sellers)
    admitted = np.empty(sellers.size, dtype=bool)
    admitted[order] = rank < capacity
    return admitted


class TestOneSortAdmission:
    @pytest.mark.parametrize("requests", [0, 1, 2, 17, 500, 5000])
    @pytest.mark.parametrize("capacity", [1, 3, 8])
    def test_matches_stable_argsort(self, requests, capacity):
        rng = np.random.default_rng(requests + 100 * capacity)
        for sellers_range in (1, 7, 20_000):
            sellers = rng.integers(0, sellers_range, size=requests).astype(np.int64)
            got = _admit_uploads(sellers, capacity)
            assert got.dtype == bool and got.shape == (requests,)
            assert got.tolist() == stable_argsort_admission(sellers, capacity).tolist()

    def test_first_requests_of_each_seller_win(self):
        sellers = np.array([5, 2, 5, 5, 2, 9, 5])
        assert _admit_uploads(sellers, 2).tolist() == [
            True, True, True, False, True, True, False,
        ]


def end_state(simulator):
    return (
        simulator._balance.tobytes(),
        simulator._spent_win.tobytes(),
        simulator._earned_win.tobytes(),
        simulator._uploads_total.tobytes(),
        simulator._have.tobytes(),
        simulator._pb_next.tobytes(),
        simulator.chunks_delivered,
    )


class TestKernelsAgreeAtFloat32:
    BLOCK = 16

    @pytest.mark.parametrize("choice", ["availability", "least-loaded", "cheapest"])
    def test_vectorized_matches_loop_across_edge_blocks(self, monkeypatch, choice):
        # Blocks of 16 edges at 300 peers: a hub's candidate cells, and
        # each single hub cell, span several blocks.
        monkeypatch.setattr(streaming_sim, "_EDGE_BLOCK", self.BLOCK)
        base = StreamingSimConfig(
            num_peers=300,
            initial_credits=6.0,  # budgets bind, so the greedy walk skips
            horizon=25.0,
            pricing=PoissonPricing(seed=11),
            supplier_choice=choice,
            seed=4,
        )
        states = {}
        for kernel in ("loop", "vectorized"):
            config = dataclasses.replace(
                base, options=KernelOptions(kernel=kernel, dtype="float32")
            )
            simulator = StreamingMarketSimulator(config)
            assert simulator._stream_pack().degrees.max() > 3 * self.BLOCK
            simulator.advance_rounds(simulator.total_rounds())
            assert simulator._balance.dtype == np.float32
            states[kernel] = end_state(simulator)
        assert states["loop"][-1] > 0
        assert states["loop"] == states["vectorized"]

    @pytest.mark.parametrize(
        "edges, delivers",
        [
            # Peers 5-7 are isolated, peer 7 last in the pack.
            ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)], True),
            ([], False),  # an edgeless pack: nobody can buy anything
        ],
    )
    def test_isolated_peers_and_edgeless_overlays(self, edges, delivers):
        base = StreamingSimConfig(
            num_peers=8, topology_mean_degree=2.0, horizon=15.0, seed=2
        )
        states = {}
        for kernel in ("loop", "vectorized"):
            config = dataclasses.replace(
                base, options=KernelOptions(kernel=kernel, dtype="float32")
            )
            topology = OverlayTopology.from_edges(8, edges)
            simulator = StreamingMarketSimulator(config, topology=topology)
            simulator.advance_rounds(simulator.total_rounds())
            states[kernel] = end_state(simulator)
        assert (states["loop"][-1] > 0) == delivers
        assert states["loop"] == states["vectorized"]
