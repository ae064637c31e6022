"""Tests for the round churn and income taxation shared by both simulators.

:mod:`repro.p2psim.slots` holds the one copy of the per-round churn and
taxation steps.  Taxation is pinned on a minimal slot-array stand-in;
churn is driven through both real simulators, since its contract is the
one they share (wallet endowment and destruction, overlay surgery,
neighbour-row refresh, the two-peer floor).
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.taxation import NoTax, ProportionalRedistributionTax, ThresholdIncomeTax
from repro.overlay.churn import ChurnConfig
from repro.p2psim import (
    CreditMarketSimulator,
    MarketSimConfig,
    StreamingMarketSimulator,
    StreamingSimConfig,
)
from repro.p2psim.slots import apply_income_taxation, apply_round_churn


def slot_state(policy, balances, alive=None):
    balances = np.array(balances, dtype=float)
    alive = np.ones(balances.size, dtype=bool) if alive is None else np.array(alive)
    return SimpleNamespace(
        config=SimpleNamespace(tax_policy=policy),
        _alive=alive,
        _balance=balances,
        _tax_pool=0.0,
    )


class TestIncomeTaxation:
    def test_no_tax_is_a_no_op(self):
        sim = slot_state(NoTax(), [10.0, 90.0])
        apply_income_taxation(sim, np.array([5.0, 5.0]), now=0.0)
        np.testing.assert_array_equal(sim._balance, [10.0, 90.0])
        assert sim._tax_pool == 0.0

    def test_empty_population_is_a_no_op(self):
        policy = ThresholdIncomeTax(rate=0.5, threshold=0.0)
        sim = slot_state(policy, [10.0, 90.0], alive=[False, False])
        apply_income_taxation(sim, np.array([5.0, 5.0]), now=0.0)
        np.testing.assert_array_equal(sim._balance, [10.0, 90.0])
        assert policy.total_collected == 0.0

    def test_only_income_above_threshold_is_taxed(self):
        policy = ThresholdIncomeTax(rate=0.2, threshold=50.0, rebate_unit=100.0)
        sim = slot_state(policy, [10.0, 60.0, 90.0])
        apply_income_taxation(sim, np.array([5.0, 5.0, 5.0]), now=0.0)
        np.testing.assert_allclose(sim._balance, [10.0, 59.0, 89.0])
        assert sim._tax_pool == pytest.approx(2.0)
        assert policy.total_collected == pytest.approx(2.0)
        assert policy.rebate_rounds == 0

    def test_peers_without_income_are_not_taxed(self):
        policy = ThresholdIncomeTax(rate=0.5, threshold=0.0, rebate_unit=100.0)
        sim = slot_state(policy, [80.0, 90.0])
        apply_income_taxation(sim, np.array([0.0, 4.0]), now=0.0)
        np.testing.assert_allclose(sim._balance, [80.0, 88.0])

    def test_tax_is_capped_by_the_balance(self):
        policy = ThresholdIncomeTax(rate=0.1, threshold=50.0, rebate_unit=1000.0)
        sim = slot_state(policy, [51.0, 0.0])
        apply_income_taxation(sim, np.array([1000.0, 0.0]), now=0.0)
        assert sim._balance[0] == 0.0
        assert sim._tax_pool == pytest.approx(51.0)

    def test_rebate_paid_once_the_pool_covers_a_round(self):
        policy = ThresholdIncomeTax(rate=0.2, threshold=50.0, rebate_unit=0.5)
        sim = slot_state(policy, [10.0, 20.0, 100.0])
        apply_income_taxation(sim, np.array([0.0, 0.0, 10.0]), now=0.0)
        # 2.0 collected, one rebate round costs 3 × 0.5.
        np.testing.assert_allclose(sim._balance, [10.5, 20.5, 98.5])
        assert sim._tax_pool == pytest.approx(0.5)
        assert policy.rebate_rounds == 1
        assert policy.total_rebated == pytest.approx(1.5)

    def test_pool_pays_as_many_rebate_rounds_as_it_covers(self):
        policy = ThresholdIncomeTax(rate=0.2, threshold=50.0, rebate_unit=0.1)
        sim = slot_state(policy, [10.0, 20.0, 100.0])
        apply_income_taxation(sim, np.array([0.0, 0.0, 10.0]), now=0.0)
        assert policy.rebate_rounds == 6
        assert sim._tax_pool == pytest.approx(0.2)

    def test_departed_slots_are_neither_taxed_nor_rebated(self):
        policy = ThresholdIncomeTax(rate=0.5, threshold=0.0, rebate_unit=0.5)
        sim = slot_state(policy, [100.0, 100.0, 7.0], alive=[True, True, False])
        apply_income_taxation(sim, np.array([4.0, 0.0, 4.0]), now=0.0)
        assert sim._balance[2] == 7.0
        np.testing.assert_allclose(sim._balance[:2], [99.0, 101.0])

    def test_taxation_conserves_credits(self):
        policy = ThresholdIncomeTax(rate=0.3, threshold=20.0, rebate_unit=0.25)
        rng = np.random.default_rng(0)
        sim = slot_state(policy, rng.uniform(0.0, 100.0, size=40))
        before = sim._balance.sum()
        for _ in range(5):
            apply_income_taxation(sim, rng.integers(0, 6, size=40).astype(float), now=0.0)
        assert sim._balance.sum() + sim._tax_pool == pytest.approx(before)
        assert np.all(sim._balance >= 0.0)

    def test_custom_policy_runs_through_the_ledger(self):
        policy = ProportionalRedistributionTax(rate=0.5, threshold=50.0)
        sim = slot_state(policy, [10.0, 90.0, 30.0])
        apply_income_taxation(sim, np.array([0.0, 10.0, 0.0]), now=0.0)
        # Peer 1 pays 5, split over the shortfalls 40 and 20 below 50.
        np.testing.assert_allclose(sim._balance, [10.0 + 10.0 / 3.0, 85.0, 30.0 + 5.0 / 3.0])
        assert sim._tax_pool == pytest.approx(0.0)
        assert policy.total_collected == pytest.approx(5.0)


SIMULATORS = ["market", "streaming"]


def simulator(kind, churn=None, num_peers=30, **overrides):
    params = dict(
        num_peers=num_peers,
        initial_credits=20.0,
        horizon=200.0,
        topology_mean_degree=6.0,
        sample_interval=25.0,
        churn=churn,
        seed=5,
    )
    params.update(overrides)
    if kind == "market":
        return CreditMarketSimulator(MarketSimConfig(**params))
    return StreamingMarketSimulator(StreamingSimConfig(**params))


def alive_peers(sim):
    return set(sim._slot_of)


@pytest.mark.parametrize("kind", SIMULATORS)
class TestRoundChurn:
    def test_static_overlay_draws_nothing(self, kind):
        sim = simulator(kind)
        state = sim._rng.bit_generator.state
        apply_round_churn(sim, 1.0, admit=None, refresh_rows=None)
        assert sim._rng.bit_generator.state == state
        sim.advance_rounds(50)
        assert sim.joins == sim.leaves == 0
        assert len(alive_peers(sim)) == 30

    def test_population_is_initial_plus_joins_minus_leaves(self, kind):
        sim = simulator(kind, churn=ChurnConfig(arrival_rate=0.3, mean_lifespan=60.0))
        sim.advance_rounds(sim.total_rounds())
        assert sim.joins > 0 and sim.leaves > 0
        assert len(alive_peers(sim)) == 30 + sim.joins - sim.leaves
        assert sim.topology.num_peers == len(alive_peers(sim))
        assert int(np.count_nonzero(sim._alive)) == len(alive_peers(sim))

    def test_joiners_get_fresh_ids_and_a_full_endowment(self, kind):
        sim = simulator(kind, churn=ChurnConfig(arrival_rate=20.0, mean_lifespan=1e6))
        before = alive_peers(sim)
        sim._apply_churn(1.0)
        joined = alive_peers(sim) - before
        assert joined and len(joined) == sim.joins
        assert min(joined) >= 30
        for peer in joined:
            assert sim._balance[sim._slot_of[peer]] == sim.config.initial_credits
            assert sim.topology.degree(peer) >= 1

    def test_departed_peers_leave_overlay_and_state(self, kind):
        sim = simulator(kind, churn=ChurnConfig(arrival_rate=0.01, mean_lifespan=2.0))
        before = alive_peers(sim)
        sim._apply_churn(1.0)
        departed = before - alive_peers(sim)
        assert departed and len(departed) == sim.leaves
        remaining = set(sim.topology.peers())
        assert not departed & remaining
        assert remaining == alive_peers(sim)

    def test_neighbour_rows_never_point_at_departed_slots(self, kind):
        sim = simulator(kind, churn=ChurnConfig(arrival_rate=0.5, mean_lifespan=30.0))
        for _ in range(8):
            sim.advance_rounds(10)
            for slot in np.flatnonzero(sim._alive):
                row = sim._neighbors[int(slot)]
                assert sim._alive[row].all()
                peer = sim._peer_of[int(slot)]
                expected = {sim._slot_of[n] for n in sim.topology.neighbors(peer)}
                assert set(int(s) for s in row) == expected

    def test_departures_stop_at_two_peers(self, kind):
        sim = simulator(kind, churn=ChurnConfig(arrival_rate=1e-6, mean_lifespan=1e-3))
        sim._apply_churn(1.0)
        assert sim.topology.num_peers == 2
        assert len(alive_peers(sim)) == 2
        assert sim.leaves == 28

    def test_population_tracks_littles_law(self, kind):
        churn = ChurnConfig.for_population(30, mean_lifespan=40.0)
        sim = simulator(kind, churn=churn, horizon=400.0)
        sizes = []
        for _ in range(40):
            sim.advance_rounds(10)
            sizes.append(len(alive_peers(sim)))
        steady = np.mean(sizes[10:])
        assert 0.6 * churn.expected_population <= steady <= 1.4 * churn.expected_population

    def test_departure_rate_matches_exponential_lifetimes(self, kind):
        churn = ChurnConfig.for_population(60, mean_lifespan=10.0)
        sim = simulator(kind, churn=churn, num_peers=60)
        exposed = 0
        for _ in range(40):
            exposed += len(alive_peers(sim))
            sim._apply_churn(1.0)
        expected = 1.0 - np.exp(-1.0 / churn.mean_lifespan)
        assert sim.leaves / exposed == pytest.approx(expected, rel=0.2)
