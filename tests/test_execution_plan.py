"""``ExecutionPlan``: the one home of every execution knob.

``ExecutionPlan`` + ``execute`` carry temporal round-blocks and spatial
shards; simulator configurations and their ``KernelOptions`` carry none
of them.  Every plan is byte-identical to the monolithic run, simulators
take the plan as a constructor argument, and ``run_config`` reads it from
the ambient execution context that ``execute`` and the sweep workers
install.
"""

import dataclasses

import pytest

from repro.p2psim import (
    CreditMarketSimulator,
    MarketSimConfig,
    StreamingMarketSimulator,
    StreamingSimConfig,
)
from repro.runner import (
    CheckpointStore,
    ExecutionPlan,
    execute,
    run_sweep,
    running,
)
from repro.runner.grid import SweepSpec
from repro.runner.partition import active_plan


def market_config(**overrides):
    defaults = dict(
        num_peers=60,
        initial_credits=10.0,
        horizon=200.0,
        step=2.0,
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
        horizon=100.0,
        topology_mean_degree=8.0,
        sample_interval=25.0,
        seed=17,
    )
    defaults.update(overrides)
    return StreamingSimConfig(**defaults)


def fingerprint(result):
    return (
        result.final_wealths.tobytes(),
        result.spending_rates.tobytes(),
        tuple(result.recorder.gini_series.y),
    )


class TestExecutionPlanValidation:
    def test_defaults_are_inert(self):
        plan = ExecutionPlan()
        assert plan.blocks_for(100) == 1
        assert (plan.shards, plan.partitioner, plan.shard_backend) == (1, "overlay", "thread")

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(rounds_per_block=0),
            dict(intra_jobs=0),
            dict(shards=0),
            dict(shards=5000),
            dict(shards=True),
            dict(partitioner="metis"),
            dict(shard_backend="gpu"),
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExecutionPlan(**kwargs)

    def test_blocks_for_prefers_rounds_per_block(self):
        plan = ExecutionPlan(rounds_per_block=30, intra_jobs=8)
        assert plan.blocks_for(100) == 4  # ceil(100 / 30)
        assert ExecutionPlan(intra_jobs=3).blocks_for(100) == 3

    def test_plan_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ExecutionPlan().intra_jobs = 2


class TestExecuteEquivalence:
    def test_market_plan_variants_byte_identical(self):
        config = market_config()
        baseline = CreditMarketSimulator(config).run()
        for plan in (
            None,
            ExecutionPlan(),
            ExecutionPlan(intra_jobs=3),
            ExecutionPlan(rounds_per_block=25),
            ExecutionPlan(shards=2, shard_backend="serial"),
            ExecutionPlan(rounds_per_block=40, shards=2, shard_backend="serial"),
        ):
            assert fingerprint(execute(config, plan)) == fingerprint(baseline)

    def test_streaming_plan_variants_byte_identical(self):
        config = streaming_config()
        baseline = StreamingMarketSimulator(config).run()
        for plan in (ExecutionPlan(intra_jobs=2), ExecutionPlan(shards=4)):
            assert fingerprint(execute(config, plan)) == fingerprint(baseline)

    def test_execute_rejects_unknown_config(self):
        with pytest.raises(TypeError, match="MarketSimConfig or StreamingSimConfig"):
            execute({"num_peers": 10})

    def test_execute_persists_blocks_into_store(self, tmp_path):
        store = CheckpointStore(tmp_path)
        config = market_config()
        result = execute(config, ExecutionPlan(intra_jobs=2), store=store, scope="t")
        assert fingerprint(result) == fingerprint(CreditMarketSimulator(config).run())
        assert list(tmp_path.iterdir())  # checkpoints actually landed


class TestPlanReachesTheSimulator:
    def test_constructor_takes_the_plan(self):
        config = market_config()
        assert CreditMarketSimulator(config)._shard_plan is None
        sharded = CreditMarketSimulator(
            config, plan=ExecutionPlan(shards=2, partitioner="hash", shard_backend="serial")
        )
        assert sharded._shard_plan.shards == 2
        assert sharded._shard_plan.partitioner == "hash"
        assert sharded._shard_backend == "serial"
        streaming = StreamingMarketSimulator(streaming_config(), plan=ExecutionPlan(shards=3))
        assert streaming._shard_plan.shards == 3

    def test_run_config_reads_the_running_plan(self, monkeypatch):
        seen = []
        original = CreditMarketSimulator.__init__

        def spy(self, *args, plan=None, **kwargs):
            seen.append(plan)
            original(self, *args, plan=plan, **kwargs)

        monkeypatch.setattr(CreditMarketSimulator, "__init__", spy)
        plan = ExecutionPlan(shards=2, shard_backend="serial")
        config = market_config(horizon=20.0)
        CreditMarketSimulator.run_config(config)
        with running(plan):
            assert active_plan() is plan
            CreditMarketSimulator.run_config(config)
        execute(config, plan)
        execute(config, dataclasses.replace(plan, intra_jobs=2))
        assert seen[0] is None
        assert seen[1] is plan and seen[2] is plan
        assert seen[3] == dataclasses.replace(plan, intra_jobs=2)
        assert active_plan() is None


class TestRunSweepPlan:
    def test_plan_rejects_rounds_per_block(self):
        spec = SweepSpec("fig7", replications=1, scale="smoke")
        with pytest.raises(ValueError, match="rounds_per_block"):
            run_sweep(spec, plan=ExecutionPlan(rounds_per_block=10))

    def test_intra_jobs_has_one_home(self):
        spec = SweepSpec("fig7", replications=1, scale="smoke")
        with pytest.raises(TypeError, match="intra_jobs"):
            run_sweep(spec, intra_jobs=2)

    def test_plan_intra_jobs_drives_report(self):
        spec = SweepSpec("fig7", replications=1, scale="smoke")
        report = run_sweep(spec, plan=ExecutionPlan(intra_jobs=2))
        assert report.intra_jobs == 2
        assert report.plan is not None

    def test_sharded_sweep_shares_cache_keys(self, tmp_path):
        from repro.runner import ArtifactCache

        spec = SweepSpec("fig7", replications=1, scale="smoke")
        cache = ArtifactCache(tmp_path)
        first = run_sweep(
            spec, cache=cache, plan=ExecutionPlan(shards=4, shard_backend="serial")
        )
        assert first.executed == 1
        # A monolithic re-run restores the sharded run's artifact: shard
        # settings never enter the cache key.
        second = run_sweep(spec, cache=cache)
        assert second.executed == 0
        assert second.cached == 1
        assert [s.payload for s in first.shards] == [s.payload for s in second.shards]
