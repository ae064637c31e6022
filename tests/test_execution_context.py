"""Tests for the ambient execution context and the plan it carries.

:func:`repro.runner.partition.running` installs an
:class:`~repro.runner.plan.ExecutionPlan` for the simulations run in its
scope, in a ContextVar shared with the :class:`BlockContext` of a
round-partitioned run.  These tests pin its scoping (nesting, errors,
threads, asyncio tasks, copied contexts) and the plan's value semantics
that let sweep workers receive it by pickling.
"""

import asyncio
import contextvars
import dataclasses
import pickle
import threading

import pytest

from repro.p2psim import MarketSimConfig
from repro.runner import CheckpointStore, ExecutionPlan, execute, running
from repro.runner.partition import BlockContext, active_context, active_plan


class TestRunningScope:
    def test_nothing_is_running_by_default(self):
        assert active_plan() is None
        assert active_context() is None

    def test_installs_the_plan_and_restores_on_exit(self):
        plan = ExecutionPlan(shards=2)
        with running(plan):
            assert active_plan() is plan
            assert active_context() is None
        assert active_plan() is None

    def test_nested_scopes_restore_the_outer_plan(self):
        outer, inner = ExecutionPlan(shards=2), ExecutionPlan(shards=3)
        with running(outer):
            with running(inner):
                assert active_plan() is inner
            assert active_plan() is outer
        assert active_plan() is None

    def test_restores_after_an_exception(self):
        with pytest.raises(KeyError):
            with running(ExecutionPlan(intra_jobs=3)):
                raise KeyError("boom")
        assert active_plan() is None

    def test_plan_installed_inside_a_block_context_keeps_it(self, tmp_path):
        with BlockContext(CheckpointStore(tmp_path), blocks=2, scope="s") as context:
            plan = ExecutionPlan(shards=2)
            with running(plan):
                assert active_context() is context
                assert active_plan() is plan
            assert active_context() is context
            assert active_plan() is None
        assert active_context() is None

    def test_new_threads_start_without_a_plan(self):
        seen = []
        with running(ExecutionPlan(shards=2)):
            thread = threading.Thread(target=lambda: seen.append(active_plan()))
            thread.start()
            thread.join()
        assert seen == [None]

    def test_threads_hold_their_own_plans(self):
        barrier = threading.Barrier(3, timeout=30)
        seen = {}

        def job(shards):
            with running(ExecutionPlan(shards=shards)):
                barrier.wait()
                seen[shards] = active_plan().shards
                barrier.wait()

        threads = [threading.Thread(target=job, args=(n,)) for n in (2, 3, 4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert seen == {2: 2, 3: 3, 4: 4}

    def test_asyncio_tasks_hold_their_own_plans(self):
        async def job(shards, gate):
            with running(ExecutionPlan(shards=shards)):
                await gate.wait()
                return active_plan().shards

        async def main():
            gate = asyncio.Event()
            tasks = [asyncio.create_task(job(n, gate)) for n in (2, 5)]
            await asyncio.sleep(0)
            gate.set()
            return await asyncio.gather(*tasks)

        assert asyncio.run(main()) == [2, 5]
        assert active_plan() is None

    def test_copied_context_carries_the_plan(self):
        plan = ExecutionPlan(intra_jobs=2)
        with running(plan):
            snapshot = contextvars.copy_context()
        assert active_plan() is None
        assert snapshot.run(active_plan) is plan


class TestExecuteScope:
    def config(self):
        return MarketSimConfig(
            num_peers=20, horizon=20.0, topology_mean_degree=4.0, sample_interval=10.0, seed=3
        )

    def test_execute_leaves_no_plan_behind(self):
        execute(self.config(), ExecutionPlan(intra_jobs=2))
        assert active_plan() is None
        assert active_context() is None

    def test_explicit_plan_wins_over_the_ambient_one(self, monkeypatch):
        from repro.p2psim import CreditMarketSimulator

        seen = []
        original = CreditMarketSimulator.run_config.__func__

        def spy(cls, config, topology=None, snapshot_times=None):
            seen.append(active_plan())
            return original(cls, config, topology=topology, snapshot_times=snapshot_times)

        monkeypatch.setattr(CreditMarketSimulator, "run_config", classmethod(spy))
        outer, explicit = ExecutionPlan(shards=3), ExecutionPlan(shards=2)
        with running(outer):
            execute(self.config(), explicit)
            assert active_plan() is outer
        assert seen == [explicit]


PLANS = [
    ExecutionPlan(),
    ExecutionPlan(rounds_per_block=50),
    ExecutionPlan(intra_jobs=4, shards=2, partitioner="hash"),
    ExecutionPlan(shards=8, shard_backend="process"),
]


class TestPlanValues:
    @pytest.mark.parametrize("plan", PLANS)
    def test_pickles_to_an_equal_plan(self, plan):
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert hash(clone) == hash(plan)

    def test_equal_plans_hash_alike(self):
        assert {ExecutionPlan(shards=2), ExecutionPlan(shards=2)} == {ExecutionPlan(shards=2)}
        assert ExecutionPlan(shards=2) != ExecutionPlan(shards=3)

    def test_replace_revalidates(self):
        with pytest.raises(ValueError):
            dataclasses.replace(ExecutionPlan(), shard_backend="gpu")

    @pytest.mark.parametrize(
        "kwargs, total_rounds, blocks",
        [
            (dict(), 10, 1),
            (dict(intra_jobs=4), 10, 4),
            (dict(rounds_per_block=3), 10, 4),
            (dict(rounds_per_block=5, intra_jobs=8), 10, 2),
            (dict(rounds_per_block=100), 10, 1),
            (dict(rounds_per_block=3), 0, 1),
        ],
    )
    def test_blocks_for(self, kwargs, total_rounds, blocks):
        assert ExecutionPlan(**kwargs).blocks_for(total_rounds) == blocks
