"""Routing rows of the market simulator: bulk derivation and guided lookup.

Every routing row is derived by one array pass over many peers at once
(``CreditMarketSimulator._refresh_routing_rows``), in a fixed order
(neighbours by ascending slot), and every credit of a vectorized round is
located through a per-row guide table instead of one global binary
search.  These tests pin both against plain per-row references kept
here: the historical one-peer-at-a-time derivation and
``searchsorted(flat, u + 3r, "right")`` clamped onto the row's last edge.
They also pin what the fixed order buys: rows that match the overlay
after every churned round, and a run resumed from a pickle that matches
the live one.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.core.pricing import LinearPricing, PerPeerFlatPricing, UniformPricing
from repro.overlay import ChurnConfig
from repro.overlay.topology import OverlayTopology
from repro.p2psim import (
    CreditMarketSimulator,
    KernelOptions,
    MarketSimConfig,
    StreamingMarketSimulator,
    StreamingSimConfig,
    UtilizationMode,
)
from repro.p2psim import market_sim
from repro.p2psim.market_sim import _locate_edges, _route_shard_rows


def market_config(num_peers=120, **overrides):
    params = dict(
        num_peers=num_peers,
        initial_credits=20.0,
        horizon=60.0,
        topology_mean_degree=6.0,
        sample_interval=10.0,
        utilization=UtilizationMode.ASYMMETRIC,
        seed=11,
    )
    params.update(overrides)
    return MarketSimConfig(**params)


def flat_prices(num_peers, values, seed=0):
    rng = np.random.default_rng(seed)
    return PerPeerFlatPricing(
        {peer: float(rng.choice(values)) for peer in range(num_peers)}
    )


def poisson_prices(num_peers, seed=0):
    rng = np.random.default_rng(seed)
    return PerPeerFlatPricing(
        {peer: float(price) for peer, price in enumerate(rng.poisson(1.0, num_peers))}
    )


def reference_row(sim, peer):
    """One peer's row the historical per-row way, in ascending slot order."""
    options = sim.config.options
    neighbors = sorted(
        (n for n in sim.topology.neighbors(peer) if n in sim._slot_of),
        key=sim._slot_of.__getitem__,
    )
    slots = np.array([sim._slot_of[n] for n in neighbors], dtype=options.index_dtype)
    if not neighbors:
        return slots, np.empty(0, dtype=options.float_dtype)
    weights = np.asarray(sim.config.pricing.price_array(neighbors, 0), dtype=float)
    weights = np.clip(weights, 1e-12, None)
    cdf = np.cumsum(weights / weights.sum())
    cdf /= cdf[-1]
    return slots, cdf.astype(options.float_dtype, copy=False)


def assert_rows_match_reference(sim):
    checked = 0
    for slot in np.flatnonzero(sim._alive):
        peer = sim._peer_of[int(slot)]
        slots, cdf = reference_row(sim, peer)
        row = sim._neighbors[int(slot)]
        assert row.dtype == slots.dtype and row.tobytes() == slots.tobytes()
        assert sim._cdfs[int(slot)].dtype == cdf.dtype
        assert sim._cdfs[int(slot)].tobytes() == cdf.tobytes()
        checked += 1
    assert checked == int(np.count_nonzero(sim._alive))


def reference_guide(cdf):
    """One row's guide: entry ``b`` counts the CDF values at or below ``(b - 1) / d``.

    Edge ``j`` counts from bucket ``ceil(c_j d) + 1`` on; the histogram of
    those first buckets, accumulated, gives the counts row by row.
    """
    degree = cdf.size
    first = np.minimum(np.ceil(cdf.astype(np.float64) * degree).astype(np.int64) + 1, degree)
    return np.cumsum(np.bincount(first, minlength=degree + 1)[:degree])


def reference_hits(pack, rows, draws):
    hits = np.searchsorted(pack.flat, draws + 3.0 * rows, side="right")
    return np.minimum(hits, pack.row_start[rows + 1] - 1)


def boundary_draws(pack):
    """Rows and draws at and around every CDF value and guide bucket edge."""
    rows, draws = [], []
    for row in range(pack.alive_slots.size):
        degree = int(pack.degrees[row])
        if degree == 0:
            continue
        start = int(pack.row_start[row])
        cdf = pack.flat[start : start + degree] - 3.0 * row
        points = np.concatenate([cdf, np.arange(degree + 1) / degree])
        points = np.concatenate(
            [points, np.nextafter(points, 0.0), np.nextafter(points, 2.0)]
        )
        points = points[(points >= 0.0) & (points < 1.0)]
        points = np.concatenate([points, [0.0, 1.0 - 2.0**-53]])
        rows.append(np.full(points.size, row))
        draws.append(points)
    return np.concatenate(rows), np.concatenate(draws)


PRICINGS = {
    "uniform": lambda n: UniformPricing(),
    "poisson": poisson_prices,
    "fractional": lambda n: flat_prices(n, [0.1, 0.3, 0.7]),
    "linear": lambda n: LinearPricing(),
}


@pytest.fixture
def guided_everywhere(monkeypatch):
    """Route through the guide table even on packs small enough to search."""
    monkeypatch.setattr(market_sim, "_GUIDED_MIN_EDGES", 0)


class TestBulkDerivation:
    @pytest.mark.parametrize("pricing", sorted(PRICINGS))
    def test_bulk_rows_equal_per_row_rows(self, pricing):
        sim = CreditMarketSimulator(market_config(pricing=PRICINGS[pricing](120)))
        assert_rows_match_reference(sim)

    def test_narrow_dtypes(self):
        config = market_config(
            pricing=poisson_prices(120), options=KernelOptions(dtype="float32")
        )
        sim = CreditMarketSimulator(config)
        assert sim._cdfs[0].dtype == np.float32
        assert sim._neighbors[0].dtype == np.int32
        assert_rows_match_reference(sim)

    def test_peers_with_degree_zero(self):
        topology = OverlayTopology.from_edges(6, [(0, 1), (1, 2), (2, 3)])
        sim = CreditMarketSimulator(
            market_config(num_peers=6, topology_mean_degree=2.0), topology=topology
        )
        assert_rows_match_reference(sim)
        pack = sim._routing_pack()
        assert pack.degrees.tolist() == [1, 2, 2, 1, 0, 0]
        sim.advance_rounds(5)

    def test_churned_overlay_with_non_contiguous_ids(self):
        config = market_config(
            pricing=poisson_prices(2000),
            churn=ChurnConfig(arrival_rate=1.0, mean_lifespan=40.0),
        )
        sim = CreditMarketSimulator(config)
        sim.advance_rounds(40)
        ids = sorted(sim._slot_of)
        assert ids[-1] >= 120 and len(ids) < ids[-1] + 1
        assert_rows_match_reference(sim)

    def test_one_call_for_many_rows_equals_one_call_per_row(self):
        sim = CreditMarketSimulator(market_config(pricing=poisson_prices(120)))
        bulk = {slot: (sim._neighbors[slot], sim._cdfs[slot]) for slot in range(120)}
        for peer in range(120):
            sim._refresh_routing_rows([peer])
        for slot, (neighbors, cdf) in bulk.items():
            assert sim._neighbors[slot].tobytes() == neighbors.tobytes()
            assert sim._cdfs[slot].tobytes() == cdf.tobytes()

    @pytest.mark.usefixtures("guided_everywhere")
    def test_rebuilt_pack_equals_construction_pack(self):
        sim = CreditMarketSimulator(market_config(pricing=poisson_prices(120)))
        built = sim._routing_pack()
        sim._pack = None
        rebuilt = sim._routing_pack()
        for name in ("alive_slots", "degrees", "row_start", "edge_dst", "flat", "guide"):
            assert getattr(built, name).tobytes() == getattr(rebuilt, name).tobytes()

    @pytest.mark.usefixtures("guided_everywhere")
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_pack_guide_equals_per_row_guide(self, dtype):
        # Degree-0 rows between others: a row's overflow bucket must not
        # leak into the next non-empty row.
        edges = [(0, 1), (0, 2), (0, 5), (2, 5), (5, 6), (6, 9), (9, 10), (10, 11)]
        topology = OverlayTopology.from_edges(12, edges)
        pricing = flat_prices(12, [0.0, 0.1, 1.0, 3.0])
        for sim in (
            CreditMarketSimulator(
                market_config(num_peers=12, pricing=pricing, options=KernelOptions(dtype=dtype)),
                topology=topology,
            ),
            CreditMarketSimulator(
                market_config(pricing=poisson_prices(120), options=KernelOptions(dtype=dtype))
            ),
        ):
            pack = sim._routing_pack()
            assert pack.guide.dtype == np.int32 and pack.guide.size == pack.flat.size
            for row, slot in enumerate(pack.alive_slots.tolist()):
                start, end = pack.row_start[row], pack.row_start[row + 1]
                np.testing.assert_array_equal(
                    pack.guide[start:end], reference_guide(sim._cdfs[slot])
                )
            assert 0 in pack.degrees.tolist() or sim.topology.num_peers == 120

    @pytest.mark.usefixtures("guided_everywhere")
    def test_guide_is_a_conservative_start(self):
        sim = CreditMarketSimulator(market_config(pricing=poisson_prices(120)))
        pack = sim._routing_pack()
        for slot in range(120):
            cdf = sim._cdfs[slot].astype(np.float64)
            row = int(np.flatnonzero(pack.alive_slots == slot)[0])
            guide = pack.guide[pack.row_start[row] : pack.row_start[row + 1]]
            degree = cdf.size
            assert np.all(np.diff(guide) >= 0)
            assert guide.min() >= 0 and guide.max() <= degree - 1
            for bucket, start in enumerate(guide.tolist()):
                # Every skipped edge lies below the bucket's lowest draw.
                assert np.all(cdf[:start] < bucket / degree)


@pytest.mark.usefixtures("guided_everywhere")
class TestGuidedRouting:
    @pytest.mark.parametrize("pricing", sorted(PRICINGS))
    def test_random_draws_match_global_search(self, pricing):
        sim = CreditMarketSimulator(market_config(pricing=PRICINGS[pricing](120)))
        pack = sim._routing_pack()
        rng = np.random.default_rng(3)
        rows = np.repeat(np.arange(120), rng.integers(0, 40, size=120))
        draws = rng.random(rows.size)
        np.testing.assert_array_equal(
            _locate_edges(pack, rows, draws), reference_hits(pack, rows, draws)
        )

    @pytest.mark.parametrize("pricing", sorted(PRICINGS))
    def test_boundary_draws_match_global_search(self, pricing):
        sim = CreditMarketSimulator(market_config(pricing=PRICINGS[pricing](120)))
        pack = sim._routing_pack()
        rows, draws = boundary_draws(pack)
        np.testing.assert_array_equal(
            _locate_edges(pack, rows, draws), reference_hits(pack, rows, draws)
        )

    def test_degree_one_rows(self):
        edges = [(0, peer) for peer in range(1, 9)]
        topology = OverlayTopology.from_edges(9, edges)
        sim = CreditMarketSimulator(
            market_config(num_peers=9, topology_mean_degree=2.0), topology=topology
        )
        pack = sim._routing_pack()
        assert sorted(pack.degrees.tolist()) == [1] * 8 + [8]
        rows, draws = boundary_draws(pack)
        hits = _locate_edges(pack, rows, draws)
        np.testing.assert_array_equal(hits, reference_hits(pack, rows, draws))
        leaves = rows > 0
        np.testing.assert_array_equal(hits[leaves], pack.row_start[rows[leaves]])

    def test_zero_weight_tails(self):
        # Half the peers give chunks away: their 1e-12 clipped weights add
        # ~1e-13 steps to a CDF, which vanish once the 3r offset is past
        # ~2000, so high rows carry runs of equal `flat` values.
        pricing = PerPeerFlatPricing(
            {peer: (1.0 if peer < 450 else 0.0) for peer in range(900)}
        )
        sim = CreditMarketSimulator(market_config(num_peers=900, pricing=pricing))
        pack = sim._routing_pack()
        ties = 0
        for row in range(900):
            start, end = pack.row_start[row], pack.row_start[row + 1]
            ties += int(np.any(np.diff(pack.flat[start:end]) == 0.0))
        assert ties > 0
        rows, draws = boundary_draws(pack)
        np.testing.assert_array_equal(
            _locate_edges(pack, rows, draws), reference_hits(pack, rows, draws)
        )

    def test_clamp_draw_lands_on_last_edge(self):
        sim = CreditMarketSimulator(market_config())
        pack = sim._routing_pack()
        rows = np.arange(120)
        draws = np.full(120, 1.0 - 2.0**-53)
        hits = _locate_edges(pack, rows, draws)
        np.testing.assert_array_equal(hits, reference_hits(pack, rows, draws))
        np.testing.assert_array_equal(hits, pack.row_start[1:] - 1)

    def test_skewed_rows_fall_back_to_the_global_search(self, monkeypatch):
        # A hub whose first neighbours carry almost all the weight puts
        # ~190 edges in the last guide bucket: credits drawn there need
        # more forward steps than the scan allows.
        hub_degree = 200
        edges = [(0, peer) for peer in range(1, hub_degree + 1)]
        edges += [(peer, peer + 1) for peer in range(1, hub_degree)]
        topology = OverlayTopology.from_edges(hub_degree + 1, edges)
        pricing = PerPeerFlatPricing(
            {peer: (1e6 if peer <= 10 else 1.0) for peer in range(hub_degree + 1)}
        )
        sim = CreditMarketSimulator(
            market_config(num_peers=hub_degree + 1, pricing=pricing), topology=topology
        )
        pack = sim._routing_pack()
        tail = 1.0 - 190.0 / (1e7 + 190.0)
        draws = np.concatenate(
            [np.linspace(0.0, 1.0 - 2.0**-53, 2001), np.linspace(tail, 1.0 - 2.0**-53, 2001)]
        )
        rows = np.zeros(draws.size, dtype=np.int64)
        expected = reference_hits(pack, rows, draws)
        searched = []
        search = np.searchsorted

        def counting_search(flat, targets, **kwargs):
            searched.append(np.size(targets))
            return search(flat, targets, **kwargs)

        monkeypatch.setattr(market_sim.np, "searchsorted", counting_search)
        np.testing.assert_array_equal(_locate_edges(pack, rows, draws), expected)
        assert searched and searched[0] > 1000

    def test_shard_rows_match_global_search(self):
        sim = CreditMarketSimulator(market_config(pricing=poisson_prices(120)))
        pack = sim._routing_pack()
        rng = np.random.default_rng(9)
        spendable = rng.integers(0, 6, size=120)
        row_offsets = np.zeros(121, dtype=np.int64)
        np.cumsum(spendable, out=row_offsets[1:])
        draws = rng.random(int(spendable.sum()))
        draws[::17] = 1.0 - 2.0**-53
        rows = np.repeat(np.arange(120), spendable)
        expected = np.bincount(
            pack.edge_dst[reference_hits(pack, rows, draws)], minlength=sim._capacity
        ).astype(float)
        merged = np.zeros(sim._capacity)
        shards = [np.arange(0, 120, 3), np.arange(1, 120, 3), np.arange(2, 120, 3)]
        for shard, shard_rows in enumerate(shards):
            income, _ = _route_shard_rows(
                pack, shard_rows, spendable, row_offsets, draws, sim._capacity, None, shard
            )
            merged += income
        assert merged.tobytes() == expected.tobytes()

    def test_vectorized_round_equals_loop_round(self):
        sim = CreditMarketSimulator(market_config(pricing=poisson_prices(120)))
        pack = sim._routing_pack()
        rng = np.random.default_rng(4)
        spendable = rng.integers(0, 8, size=120)
        draws = rng.random(int(spendable.sum()))
        vectorized = sim._route_credits_vectorized(pack, spendable, draws).copy()
        loop = sim._route_credits_loop(pack, spendable, draws).copy()
        assert vectorized.tobytes() == loop.tobytes()


def test_only_large_packs_get_a_guide():
    assert CreditMarketSimulator(market_config())._routing_pack().guide is None


def test_large_packs_route_through_the_guide(monkeypatch):
    sim = CreditMarketSimulator(market_config(num_peers=2500, topology_mean_degree=14.0))
    pack = sim._routing_pack()
    assert pack.flat.size >= market_sim._GUIDED_MIN_EDGES and pack.guide is not None
    rng = np.random.default_rng(6)
    rows = np.repeat(np.arange(2500), rng.integers(0, 4, size=2500))
    draws = rng.random(rows.size)
    draws[::50] = 1.0 - 2.0**-53

    def no_global_search(*args, **kwargs):
        raise AssertionError("every credit should resolve from its guide entry")

    expected = reference_hits(pack, rows, draws)
    monkeypatch.setattr(market_sim.np, "searchsorted", no_global_search)
    np.testing.assert_array_equal(_locate_edges(pack, rows, draws), expected)


@pytest.mark.usefixtures("guided_everywhere")
@pytest.mark.parametrize("churn", [None, ChurnConfig(arrival_rate=0.5, mean_lifespan=50.0)])
def test_guided_vectorized_run_equals_loop_run(churn):
    config = market_config(pricing=poisson_prices(120), churn=churn, horizon=120.0)
    vectorized = CreditMarketSimulator.run_config(config)
    loop = CreditMarketSimulator.run_config(
        dataclasses.replace(config, options=KernelOptions(kernel="loop"))
    )
    assert vectorized.total_transfers == loop.total_transfers
    assert vectorized.final_wealths.tobytes() == loop.final_wealths.tobytes()


def churned(kind, **overrides):
    params = dict(
        num_peers=80,
        initial_credits=20.0,
        horizon=400.0,
        topology_mean_degree=3.0,
        sample_interval=20.0,
        churn=ChurnConfig(arrival_rate=0.8, mean_lifespan=60.0),
        seed=4,
    )
    params.update(overrides)
    if kind == "market":
        return CreditMarketSimulator(MarketSimConfig(**params))
    return StreamingMarketSimulator(StreamingSimConfig(**params))


@pytest.mark.parametrize("kind", ["market", "streaming"])
def test_rows_match_overlay_after_every_churned_round(kind):
    """Every alive row lists exactly the alive overlay neighbours.

    At mean degree 3 departures orphan peers often; the tracker wires each
    orphan to a fresh candidate, whose row must pick up the new edge too.
    """
    sim = churned(kind)
    repairs = 0
    for _ in range(40):
        degrees_before = {peer: sim.topology.degree(peer) for peer in sim._slot_of}
        sim.advance_rounds(1)
        repairs += sum(
            1
            for peer, degree in degrees_before.items()
            if peer in sim._slot_of and sim.topology.degree(peer) > degree
        )
        for slot in np.flatnonzero(sim._alive):
            peer = sim._peer_of[int(slot)]
            expected = sorted(sim._slot_of[n] for n in sim.topology.neighbors(peer))
            assert sim._neighbors[int(slot)].tolist() == expected
    assert sim.leaves > 0 and repairs > 0


def test_churned_market_resumed_from_pickle_matches_live_run():
    live = churned("market", pricing=poisson_prices(80))
    live.advance_rounds(60)
    resumed = pickle.loads(pickle.dumps(live))
    live.advance_rounds(140)
    resumed.advance_rounds(140)
    assert live.leaves > 0 and live.joins > 0
    assert resumed._balance.tobytes() == live._balance.tobytes()
    assert resumed.finalize().final_wealths.tobytes() == live.finalize().final_wealths.tobytes()


def test_churned_float32_market_keeps_kernels_identical():
    config = dataclasses.replace(
        churned("market").config, options=KernelOptions(dtype="float32")
    )
    vectorized = CreditMarketSimulator.run_config(config)
    loop = CreditMarketSimulator.run_config(
        dataclasses.replace(config, options=KernelOptions(kernel="loop", dtype="float32"))
    )
    assert vectorized.final_wealths.tobytes() == loop.final_wealths.tobytes()
