"""Sharded execution must be byte-identical to monolithic execution.

The sharding tentpole's whole contract: ``shards=N`` changes how a round
executes — per-shard kernel sections fanned over an executor, merged in
shard order at the round barrier — and nothing else.  These tests pin
byte-identity for both simulators across shard counts, partitioners,
executor backends, churned populations and narrow dtypes, then climb the
stack: sharding composes with round-block partitioning, and sweep
payloads (the artifacts CI's determinism job compares) are identical with
and without a sharded execution plan.
"""

import json

import numpy as np
import pytest

from repro.core.spending import DynamicSpendingPolicy
from repro.overlay import ChurnConfig
from repro.p2psim import (
    CreditMarketSimulator,
    KernelOptions,
    MarketSimConfig,
    StreamingMarketSimulator,
    StreamingSimConfig,
    UtilizationMode,
)
from repro.runner import ExecutionPlan, execute, running
from repro.runner.grid import SweepSpec
from repro.runner.executor import run_sweep


def market_fingerprint(result):
    return (
        result.final_wealths.tobytes(),
        result.spending_rates.tobytes(),
        result.earning_rates.tobytes(),
        result.total_transfers,
        result.joins,
        result.leaves,
        tuple(result.recorder.gini_series.y),
        tuple(result.recorder.bankrupt_series.y),
        tuple(result.recorder.population_series.y),
    )


def streaming_fingerprint(result):
    return (
        result.final_wealths.tobytes(),
        result.spending_rates.tobytes(),
        result.earning_rates.tobytes(),
        result.continuity.tobytes(),
        result.chunks_delivered,
        result.joins,
        result.leaves,
        tuple(result.recorder.gini_series.y),
        tuple(result.recorder.population_series.y),
    )


def market_config(**overrides):
    defaults = dict(
        num_peers=64,
        initial_credits=10.0,
        horizon=240.0,
        step=2.0,
        utilization=UtilizationMode.SYMMETRIC,
        spending_rate_noise=0.05,
        topology_mean_degree=8.0,
        sample_interval=40.0,
        seed=13,
    )
    defaults.update(overrides)
    return MarketSimConfig(**defaults)


def streaming_config(**overrides):
    defaults = dict(
        num_peers=36,
        initial_credits=20.0,
        horizon=120.0,
        topology_mean_degree=8.0,
        sample_interval=30.0,
        upload_capacity=2,
        seed=17,
    )
    defaults.update(overrides)
    return StreamingSimConfig(**defaults)


def sharded_plan(shards, partitioner="overlay", backend="serial"):
    return ExecutionPlan(shards=shards, partitioner=partitioner, shard_backend=backend)


class TestMarketShardIdentity:
    @pytest.mark.parametrize("shards", [2, 4, 8])
    def test_shard_counts_byte_identical(self, shards):
        baseline = CreditMarketSimulator(market_config()).run()
        sharded = CreditMarketSimulator(market_config(), plan=sharded_plan(shards)).run()
        assert market_fingerprint(baseline) == market_fingerprint(sharded)

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_backends_byte_identical(self, backend):
        baseline = CreditMarketSimulator(market_config()).run()
        sharded = CreditMarketSimulator(
            market_config(), plan=sharded_plan(4, backend=backend)
        ).run()
        assert market_fingerprint(baseline) == market_fingerprint(sharded)

    @pytest.mark.parametrize("partitioner", ["overlay", "hash"])
    def test_partitioners_byte_identical_under_churn(self, partitioner):
        shape = dict(
            churn=ChurnConfig(arrival_rate=0.4, mean_lifespan=90.0),
            spending_policy=DynamicSpendingPolicy(wealth_threshold=12.0),
            seed=29,
        )
        baseline = CreditMarketSimulator(market_config(**shape)).run()
        sharded = CreditMarketSimulator(
            market_config(**shape), plan=sharded_plan(4, partitioner=partitioner)
        ).run()
        assert baseline.joins > 0  # churn actually happened
        assert market_fingerprint(baseline) == market_fingerprint(sharded)

    def test_float32_sharded_matches_float32_monolithic(self):
        baseline = CreditMarketSimulator(
            market_config(options=KernelOptions(dtype="float32"))
        ).run()
        sharded = CreditMarketSimulator(
            market_config(options=KernelOptions(dtype="float32")), plan=sharded_plan(4)
        ).run()
        assert baseline.final_wealths.dtype == np.float32
        assert market_fingerprint(baseline) == market_fingerprint(sharded)

    def test_loop_kernel_rejected(self):
        config = market_config(options=KernelOptions(kernel="loop"))
        with pytest.raises(ValueError, match="vectorized"):
            CreditMarketSimulator(config, plan=sharded_plan(2))


class TestStreamingShardIdentity:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_shard_counts_byte_identical(self, shards):
        baseline = StreamingMarketSimulator(streaming_config()).run()
        sharded = StreamingMarketSimulator(streaming_config(), plan=sharded_plan(shards)).run()
        assert streaming_fingerprint(baseline) == streaming_fingerprint(sharded)

    @pytest.mark.parametrize("policy", ["cheapest", "least-loaded", "availability"])
    def test_supplier_policies_byte_identical(self, policy):
        shape = dict(supplier_choice=policy, seed=23)
        baseline = StreamingMarketSimulator(streaming_config(**shape)).run()
        sharded = StreamingMarketSimulator(
            streaming_config(**shape), plan=sharded_plan(4, backend="thread")
        ).run()
        assert streaming_fingerprint(baseline) == streaming_fingerprint(sharded)

    def test_churned_swarm_byte_identical(self):
        shape = dict(churn=ChurnConfig(arrival_rate=0.3, mean_lifespan=70.0), seed=23)
        baseline = StreamingMarketSimulator(streaming_config(**shape)).run()
        sharded = StreamingMarketSimulator(
            streaming_config(**shape), plan=sharded_plan(4, partitioner="hash")
        ).run()
        assert baseline.joins > 0
        assert streaming_fingerprint(baseline) == streaming_fingerprint(sharded)


class TestPlanComposition:
    def test_shards_compose_with_round_blocks(self):
        config = market_config()
        baseline = CreditMarketSimulator(config).run()
        combined = execute(
            config, ExecutionPlan(rounds_per_block=30, shards=2, shard_backend="serial")
        )
        assert market_fingerprint(baseline) == market_fingerprint(combined)

    def test_execute_with_plan_shards_matches_run(self):
        config = streaming_config()
        baseline = StreamingMarketSimulator(config).run()
        planned = execute(config, ExecutionPlan(shards=4, shard_backend="serial"))
        assert streaming_fingerprint(baseline) == streaming_fingerprint(planned)

    def test_running_plan_does_not_change_results(self):
        config = market_config()
        baseline = CreditMarketSimulator(config).run()
        with running(sharded_plan(4)):
            sharded = CreditMarketSimulator.run_config(config)
        assert market_fingerprint(baseline) == market_fingerprint(sharded)


def _payloads(spec, plan=None):
    report = run_sweep(spec, plan=plan)
    return json.dumps(
        [shard.payload for shard in report.shards], sort_keys=True
    )


class TestSweepPayloadIdentity:
    """Sharded sweep payloads are the artifacts CI's determinism job diffs."""

    @pytest.mark.parametrize("experiment_id", ["fig7", "fig11"])
    def test_smoke_payloads_identical_with_shards(self, experiment_id):
        spec = SweepSpec(experiment_id, replications=2, base_seed=5, scale="smoke")
        baseline = _payloads(spec)
        sharded = _payloads(
            spec,
            plan=ExecutionPlan(shards=4, partitioner="overlay", shard_backend="serial"),
        )
        assert baseline == sharded

    def test_hash_partitioner_payloads_identical(self):
        spec = SweepSpec("fig7", replications=1, base_seed=3, scale="smoke")
        assert _payloads(spec) == _payloads(
            spec, plan=ExecutionPlan(shards=2, partitioner="hash")
        )

    def test_shards_and_intra_jobs_payloads_identical(self):
        spec = SweepSpec("fig7", replications=1, base_seed=7, scale="smoke")
        assert _payloads(spec) == _payloads(
            spec, plan=ExecutionPlan(intra_jobs=2, shards=2, shard_backend="serial")
        )
