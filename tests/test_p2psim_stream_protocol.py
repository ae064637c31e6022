"""Chunk-level protocol behaviour of the tick streaming simulator.

Pins the mesh-pull semantics the streaming market is built from — the
source's emission schedule and free seeding, the startup rule and
playback clock, transfer latency and the per-round scheduling rules
(window bounds, request cap, budget, supplier choice) — on small swarms,
observing each round's admitted purchases just before settlement.
Behaviour that must hold for both scheduling kernels is checked under
both.
"""

import math

import numpy as np
import pytest

from repro.core.pricing import PerPeerFlatPricing, UniformPricing
from repro.p2psim import KernelOptions, StreamingMarketSimulator, StreamingSimConfig

KERNELS = ["vectorized", "loop"]


def config(kernel="vectorized", **overrides):
    defaults = dict(
        num_peers=24,
        initial_credits=40.0,
        horizon=60.0,
        topology_mean_degree=6.0,
        sample_interval=20.0,
        upload_capacity=3,
        options=KernelOptions(kernel=kernel),
        seed=11,
    )
    defaults.update(overrides)
    return StreamingSimConfig(**defaults)


def broke_config(kernel="vectorized", **overrides):
    """A swarm that cannot afford a single chunk: only the source moves data."""
    overrides.setdefault("initial_credits", 0.5)
    overrides.setdefault("pricing", UniformPricing(price_per_chunk=1.0))
    return config(kernel, **overrides)


def flat_prices(seed, num_peers=24):
    """Heterogeneous posted prices: one flat quote per seller in [0.5, 2)."""
    quotes = np.random.default_rng(seed).uniform(0.5, 2.0, size=num_peers)
    return PerPeerFlatPricing({peer: float(q) for peer, q in enumerate(quotes)})


class PurchaseLog:
    """Records every round's admitted purchases, with the state they were made in."""

    def __init__(self, simulator):
        self.simulator = simulator
        self.rounds = []
        settle = simulator._settle

        def spy(pack, buyers, sellers, chunk_abs, prices):
            sim = self.simulator
            cols = chunk_abs - sim._win_base
            self.rounds.append(
                dict(
                    buyers=buyers.copy(),
                    sellers=sellers.copy(),
                    chunks=chunk_abs.copy(),
                    prices=np.asarray(prices, dtype=float).copy(),
                    buyer_had=sim._have[buyers, cols].copy(),
                    seller_had=sim._have[sellers, cols].copy(),
                    posted=sim._price_win[sellers, cols].astype(float),
                    playback_point=sim._pb_next[buyers].copy(),
                    balance=sim._balance.astype(float).copy(),
                    uploads=sim._uploads_total.astype(float).copy(),
                    have=sim._have.copy(),
                    price_win=sim._price_win.astype(float).copy(),
                    base=sim._win_base,
                    live_edge=sim._emitted - 1,
                    neighbors={
                        int(slot): set(int(n) for n in pack.neighbors_of_row(row))
                        for row, slot in enumerate(pack.alive_slots)
                    },
                )
            )
            return settle(pack, buyers, sellers, chunk_abs, prices)

        simulator._settle = spy

    def all_rounds(self):
        return [r for r in self.rounds if r["buyers"].size]


def logged_run(cfg, rounds=None):
    simulator = StreamingMarketSimulator(cfg)
    log = PurchaseLog(simulator)
    simulator.advance_rounds(simulator.total_rounds() if rounds is None else rounds)
    return simulator, log


class TestSourceEmission:
    def test_nothing_emitted_before_the_first_round(self):
        simulator = StreamingMarketSimulator(config())
        assert simulator._emitted == 0
        assert not simulator._have.any()

    @pytest.mark.parametrize("chunk_rate", [0.5, 1.0, 2.0])
    def test_emits_startup_backlog_then_at_chunk_rate(self, chunk_rate):
        cfg = broke_config(chunk_rate=chunk_rate, startup_chunks=4)
        simulator = StreamingMarketSimulator(cfg)
        for rounds in (1, 7, 20):
            simulator.advance_rounds(rounds - simulator._tick)
            # Round k emits everything due by time k * interval.
            last_time = (rounds - 1) * cfg.scheduling_interval
            expected = cfg.startup_chunks + math.floor(last_time * chunk_rate + 1e-9)
            assert simulator._emitted == expected

    def test_result_reports_source_chunks(self):
        cfg = config(horizon=30.0)
        result = StreamingMarketSimulator(cfg).run()
        assert result.extras["source_chunks"] == cfg.startup_chunks + 29

    @pytest.mark.parametrize("fanout", [1, 3, 7])
    def test_each_chunk_seeded_to_fanout_peers(self, fanout):
        simulator = StreamingMarketSimulator(broke_config(seed_fanout=fanout))
        simulator.advance_rounds(10)
        live = simulator._emitted - simulator._win_base
        holders = simulator._have[:, :live].sum(axis=0)
        assert np.all(holders == fanout)
        assert simulator.chunks_delivered == 0

    def test_constructor_fanout_overrides_config(self):
        simulator = StreamingMarketSimulator(broke_config(seed_fanout=2), seed_fanout=5)
        simulator.advance_rounds(3)
        live = simulator._emitted - simulator._win_base
        assert np.all(simulator._have[:, :live].sum(axis=0) == 5)

    def test_fanout_capped_by_population(self):
        cfg = broke_config(num_peers=10, topology_mean_degree=4.0, seed_fanout=50)
        simulator = StreamingMarketSimulator(cfg)
        simulator.advance_rounds(5)
        live = simulator._emitted - simulator._win_base
        alive = np.flatnonzero(simulator._alive)
        assert simulator._have[alive, :live].all()

    def test_window_slides_past_old_chunks(self):
        cfg = broke_config(playback_window=5, startup_chunks=2, horizon=80.0)
        simulator = StreamingMarketSimulator(cfg)
        simulator.advance_rounds(simulator.total_rounds())
        assert simulator._win_base > 0
        assert simulator._emitted - simulator._win_base <= simulator._win_width


class TestPlayback:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_continuity_vacuously_one_before_playback(self, kernel):
        # Nobody can buy and one free copy per chunk cannot give a peer
        # twenty contiguous chunks: no peer ever starts playing.
        cfg = broke_config(kernel, startup_chunks=20, seed_fanout=1)
        simulator = StreamingMarketSimulator(cfg)
        result = simulator.run()
        assert not simulator._pb_started.any()
        assert np.all(result.continuity == 1.0)

    def test_does_not_start_without_a_contiguous_prefix(self):
        cfg = broke_config(startup_chunks=6, seed_fanout=2)
        simulator = StreamingMarketSimulator(cfg)
        simulator.advance_rounds(15)
        alive = np.flatnonzero(simulator._alive)
        for slot in alive:
            prefix = simulator._have[slot, : cfg.startup_chunks]
            if not prefix.all():
                assert not simulator._pb_started[slot]
        assert simulator._played[alive].sum() == 0

    def test_zero_startup_chunks_start_immediately(self):
        simulator = StreamingMarketSimulator(broke_config(startup_chunks=0))
        simulator.advance_rounds(1)
        assert simulator._pb_started[np.flatnonzero(simulator._alive)].all()

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_full_seeding_gives_perfect_continuity(self, kernel):
        cfg = broke_config(kernel, seed_fanout=24)
        result = StreamingMarketSimulator(cfg).run()
        assert np.all(result.continuity == 1.0)

    def test_missing_chunks_counted_and_skipped(self):
        cfg = broke_config(startup_chunks=0, seed_fanout=3)
        simulator = StreamingMarketSimulator(cfg)
        simulator.advance_rounds(20)
        alive = np.flatnonzero(simulator._alive)
        assert simulator._missed[alive].sum() > 0
        # Misses do not stall playback: every peer's clock keeps moving.
        consumed = simulator._played[alive] + simulator._missed[alive]
        assert np.all(simulator._pb_next[alive] == consumed)

    @pytest.mark.parametrize("chunk_rate", [0.5, 1.0, 2.0])
    def test_consumes_at_chunk_rate(self, chunk_rate):
        cfg = broke_config(startup_chunks=0, chunk_rate=chunk_rate)
        simulator = StreamingMarketSimulator(cfg)
        rounds = 12
        simulator.advance_rounds(rounds)
        alive = np.flatnonzero(simulator._alive)
        due = simulator._played[alive] + simulator._missed[alive]
        expected = math.floor(rounds * cfg.scheduling_interval * chunk_rate)
        assert np.all(due == expected)

    def test_partial_interval_consumes_nothing(self):
        simulator = StreamingMarketSimulator(broke_config(startup_chunks=0, chunk_rate=0.5))
        simulator.advance_rounds(1)
        alive = np.flatnonzero(simulator._alive)
        assert simulator._played[alive].sum() + simulator._missed[alive].sum() == 0
        assert np.all(simulator._pb_backlog[alive] == 0.5)

    def test_repeated_advances_accumulate(self):
        cfg = config(horizon=40.0)
        stepped = StreamingMarketSimulator(cfg)
        for _ in range(4):
            stepped.advance_rounds(10)
        whole = StreamingMarketSimulator(cfg)
        whole.advance_rounds(40)
        np.testing.assert_array_equal(stepped._played, whole._played)
        np.testing.assert_array_equal(stepped._missed, whole._missed)
        np.testing.assert_array_equal(stepped._balance, whole._balance)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_continuity_is_a_fraction(self, kernel):
        result = StreamingMarketSimulator(config(kernel)).run()
        assert np.all((result.continuity >= 0.0) & (result.continuity <= 1.0))


class TestTransferLatency:
    @pytest.mark.parametrize(
        "latency, interval, ticks",
        [(0.0, 1.0, 1), (0.2, 1.0, 1), (1.0, 1.0, 1), (1.5, 1.0, 2), (3.0, 1.0, 3), (0.3, 0.1, 3)],
    )
    def test_latency_rounds_up_to_whole_ticks(self, latency, interval, ticks):
        cfg = config(transfer_latency=latency, scheduling_interval=interval)
        simulator = StreamingMarketSimulator(cfg)
        assert simulator._delay_ticks == ticks
        assert len(simulator._in_flight) == ticks

    def test_purchase_lands_only_after_the_latency(self):
        simulator, log = logged_run(config(transfer_latency=3.0), rounds=8)
        first = next(index for index, r in enumerate(log.rounds) if r["buyers"].size)
        bought = log.rounds[first]
        assert first + 3 <= 8
        # Not yet held one and two rounds after the purchase ...
        for later in (first + 1, first + 2):
            state = log.rounds[later]
            cols = bought["chunks"] - state["base"]
            in_window = cols >= 0
            assert not state["have"][bought["buyers"][in_window], cols[in_window]].any()
        # ... and held once the third round has ended.
        state = log.rounds[first + 3]
        cols = bought["chunks"] - state["base"]
        in_window = cols >= 0
        assert state["have"][bought["buyers"][in_window], cols[in_window]].all()

    def test_delivered_count_is_settled_purchases(self):
        simulator, log = logged_run(config())
        assert simulator.chunks_delivered == sum(r["buyers"].size for r in log.rounds)


class TestScheduling:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("max_requests", [1, 2, 4])
    def test_requests_per_round_capped(self, kernel, max_requests):
        _, log = logged_run(config(kernel, max_requests_per_round=max_requests))
        assert log.all_rounds()
        for r in log.all_rounds():
            assert np.bincount(r["buyers"]).max() <= max_requests

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_buys_only_missing_chunks_from_holding_neighbours(self, kernel):
        _, log = logged_run(config(kernel))
        assert log.all_rounds()
        for r in log.all_rounds():
            assert not r["buyer_had"].any()
            assert r["seller_had"].all()
            for buyer, seller in zip(r["buyers"], r["sellers"]):
                assert int(seller) in r["neighbors"][int(buyer)]

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_requests_stay_inside_the_playback_window(self, kernel):
        cfg = config(kernel, playback_window=6)
        _, log = logged_run(cfg)
        assert log.all_rounds()
        for r in log.all_rounds():
            ahead = r["chunks"] - r["playback_point"]
            assert np.all((ahead >= 0) & (ahead < cfg.playback_window))
            assert np.all((r["chunks"] >= r["base"]) & (r["chunks"] <= r["live_edge"]))

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_no_chunk_bought_twice(self, kernel):
        _, log = logged_run(config(kernel))
        seen = set()
        assert log.all_rounds()
        for r in log.all_rounds():
            for buyer, chunk in zip(r["buyers"], r["chunks"]):
                assert (int(buyer), int(chunk)) not in seen
                seen.add((int(buyer), int(chunk)))

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_round_spending_within_balance(self, kernel):
        _, log = logged_run(config(kernel, initial_credits=3.0, pricing=flat_prices(1)))
        assert log.all_rounds()
        for r in log.all_rounds():
            spent = np.bincount(r["buyers"], weights=r["prices"])
            buyers = np.flatnonzero(spent)
            assert np.all(spent[buyers] <= r["balance"][buyers] + 1e-9)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_playback_driven_prefers_earliest_chunks(self, kernel):
        # Ample credit and upload slots: a buyer never skips an earlier
        # missing chunk that a neighbour could have sold it.
        cfg = config(kernel, initial_credits=1000.0, upload_capacity=1000, max_requests_per_round=3)
        _, log = logged_run(cfg)
        assert log.all_rounds()
        for r in log.all_rounds():
            for buyer in np.unique(r["buyers"]):
                mine = r["buyers"] == buyer
                last = int(r["chunks"][mine].max())
                bought = set(int(c) for c in r["chunks"][mine])
                start = max(int(r["playback_point"][mine][0]), r["base"])
                for index in range(start, last):
                    col = index - r["base"]
                    if r["have"][buyer, col] or index in bought:
                        continue
                    holders = [n for n in r["neighbors"][int(buyer)] if r["have"][n, col]]
                    assert not holders

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("choice", ["availability", "least-loaded", "cheapest"])
    def test_buyer_pays_the_posted_price(self, kernel, choice):
        pricing = flat_prices(3)
        _, log = logged_run(config(kernel, supplier_choice=choice, pricing=pricing))
        assert log.all_rounds()
        for r in log.all_rounds():
            np.testing.assert_array_equal(r["prices"], r["posted"])

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_cheapest_mode_picks_the_lowest_quote(self, kernel):
        pricing = flat_prices(3)
        cfg = config(kernel, supplier_choice="cheapest", pricing=pricing)
        _, log = logged_run(cfg)
        assert log.all_rounds()
        for r in log.all_rounds():
            for buyer, chunk, price in zip(r["buyers"], r["chunks"], r["prices"]):
                col = int(chunk) - r["base"]
                quotes = [
                    r["price_win"][n, col]
                    for n in r["neighbors"][int(buyer)]
                    if r["have"][n, col]
                ]
                assert price <= min(quotes) + 1e-12

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_least_loaded_mode_picks_the_least_loaded_holder(self, kernel):
        _, log = logged_run(config(kernel, supplier_choice="least-loaded"))
        assert log.all_rounds()
        for r in log.all_rounds():
            for buyer, seller, chunk in zip(r["buyers"], r["sellers"], r["chunks"]):
                col = int(chunk) - r["base"]
                loads = [
                    r["uploads"][n]
                    for n in r["neighbors"][int(buyer)]
                    if r["have"][n, col]
                ]
                assert r["uploads"][seller] <= min(loads) + 1e-12

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_broke_swarm_buys_nothing(self, kernel):
        cfg = broke_config(kernel)
        simulator, log = logged_run(cfg)
        assert not log.all_rounds()
        alive = np.flatnonzero(simulator._alive)
        assert np.all(simulator._balance[alive] == cfg.initial_credits)

    def test_uniform_price_spending_counts_chunks(self):
        cfg = config(pricing=UniformPricing(price_per_chunk=1.0))
        simulator = StreamingMarketSimulator(cfg)
        result = simulator.run()
        uploads = simulator._uploads_total[np.flatnonzero(simulator._alive)]
        assert result.chunks_delivered == int(uploads.sum())
