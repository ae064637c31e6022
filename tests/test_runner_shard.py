"""Unit tests for spatial shard planning and execution primitives.

The sharding layer's contract has three legs: the partition is a *total,
disjoint cover* of the peer-id space (including ids that only exist after
churn), the per-shard executors return results in task order regardless
of backend, and a simulator's shard plan follows its ``ExecutionPlan``.
Each leg is pinned here in isolation; the byte-identity of whole sharded
simulations lives in ``test_shard_determinism.py``.
"""

import numpy as np
import pytest

from repro.overlay import erdos_renyi_topology, ring_topology, scale_free_topology
from repro.runner.plan import ExecutionPlan
from repro.runner.shard import (
    MAX_SHARDS,
    PARTITIONERS,
    plan_shards,
    run_shard_tasks,
    shard_plan_for,
)


def _topology(kind="scale-free", num_peers=200, seed=11):
    if kind == "scale-free":
        return scale_free_topology(num_peers, mean_degree=8.0, seed=seed)
    if kind == "erdos-renyi":
        return erdos_renyi_topology(num_peers, mean_degree=6.0, seed=seed)
    return ring_topology(num_peers)


class TestShardPlanCover:
    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    @pytest.mark.parametrize("shards", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("kind", ["scale-free", "erdos-renyi", "ring"])
    def test_full_disjoint_cover_of_initial_peers(self, partitioner, shards, kind):
        topology = _topology(kind)
        plan = plan_shards(topology, shards, partitioner=partitioner)
        ids = np.asarray(topology.peers(), dtype=np.int64)
        assignment = plan.shard_of(ids)
        # Total: every peer lands in a valid shard (no -1 / out-of-range).
        assert assignment.min() >= 0
        assert assignment.max() < shards
        # Disjoint + covering by construction of a single-valued map:
        # per-peer assignment is a function, so summing per-shard counts
        # must reproduce the population exactly.
        assert int(np.bincount(assignment, minlength=shards).sum()) == ids.size
        assert plan.sizes == tuple(
            int(n) for n in np.bincount(assignment, minlength=shards)[:shards]
        )

    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    def test_churned_ids_beyond_table_stay_covered(self, partitioner):
        """Peers that join mid-run get ids past the planning table."""
        plan = plan_shards(_topology(num_peers=120), 4, partitioner=partitioner)
        joined = np.arange(120, 520, dtype=np.int64)  # ids unknown at planning
        assignment = plan.shard_of(joined)
        assert assignment.min() >= 0
        assert assignment.max() < 4
        np.testing.assert_array_equal(assignment, (joined % 4).astype(np.int16))
        for peer_id in (120, 121, 4093, 10**7):
            assert plan.shard_of_peer(peer_id) == peer_id % 4

    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    def test_scalar_and_vector_lookup_agree(self, partitioner):
        plan = plan_shards(_topology(num_peers=90), 3, partitioner=partitioner)
        ids = np.arange(0, 300, 7, dtype=np.int64)
        vector = plan.shard_of(ids)
        scalars = [plan.shard_of_peer(int(peer)) for peer in ids]
        assert vector.tolist() == scalars

    def test_overlay_quotas_are_balanced(self):
        plan = plan_shards(_topology(num_peers=203), 4, partitioner="overlay")
        assert max(plan.sizes) - min(plan.sizes) <= 1
        assert plan.imbalance == pytest.approx(max(plan.sizes) / (203 / 4))

    def test_plans_are_deterministic(self):
        topology = _topology(num_peers=150, seed=3)
        for partitioner in PARTITIONERS:
            first = plan_shards(topology, 4, partitioner=partitioner)
            second = plan_shards(topology, 4, partitioner=partitioner)
            np.testing.assert_array_equal(first.table, second.table)
            assert first.sizes == second.sizes
            assert first.edge_cut == second.edge_cut

    def test_invalid_arguments_rejected(self):
        topology = _topology(num_peers=60)
        with pytest.raises(ValueError):
            plan_shards(topology, 0)
        with pytest.raises(ValueError):
            plan_shards(topology, MAX_SHARDS + 1)
        with pytest.raises(ValueError):
            plan_shards(topology, 2, partitioner="metis")


class TestPartitionMetrics:
    def test_plan_edge_cut_matches_topology_metrics(self):
        topology = _topology(num_peers=160, seed=5)
        for partitioner in PARTITIONERS:
            plan = plan_shards(topology, 4, partitioner=partitioner)
            metrics = topology.partition_metrics(plan.shard_of_peer)
            assert metrics["edge_cut"] == plan.edge_cut
            assert metrics["total_edges"] == plan.total_edges
            assert metrics["cut_fraction"] == pytest.approx(plan.cut_fraction)
            assert sum(metrics["shard_sizes"].values()) == topology.num_peers

    def test_overlay_cut_beats_hash_on_clustered_graph(self):
        """On a ring the BFS partitioner is near-optimal; hash cuts ~all edges."""
        topology = ring_topology(240)
        overlay = plan_shards(topology, 4, partitioner="overlay")
        hashed = plan_shards(topology, 4, partitioner="hash")
        assert overlay.edge_cut is not None and hashed.edge_cut is not None
        assert overlay.edge_cut < hashed.edge_cut
        assert overlay.edge_cut <= 8  # 4 contiguous arcs → a handful of cuts

    def test_partition_boundary_edges_cross_shards_only(self):
        topology = _topology(num_peers=100, seed=7)
        plan = plan_shards(topology, 2, partitioner="overlay")
        for u, v in topology.partition_boundary_edges(plan.shard_of_peer):
            assert plan.shard_of_peer(u) != plan.shard_of_peer(v)

    def test_single_shard_plan_is_trivial(self):
        plan = plan_shards(_topology(num_peers=80), 1)
        assert plan.sizes == (80,)
        assert plan.imbalance == pytest.approx(1.0)
        ids = np.arange(80, dtype=np.int64)
        assert plan.shard_of(ids).max() == 0


class TestRunShardTasks:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_results_return_in_task_order(self, backend):
        data = np.arange(40.0)
        chunks = np.array_split(np.arange(40), 4)
        tasks = [lambda rows=rows: float(data[rows].sum()) for rows in chunks]
        results = run_shard_tasks(tasks, backend=backend)
        assert results == [float(data[rows].sum()) for rows in chunks]

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_task_errors_propagate(self, backend):
        def boom():
            raise RuntimeError("shard exploded")

        with pytest.raises(RuntimeError, match="shard exploded"):
            run_shard_tasks([lambda: 1, boom], backend=backend)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            run_shard_tasks([lambda: 1], backend="gpu")

    def test_single_task_runs_inline(self):
        # One task short-circuits every backend to an inline call.
        assert run_shard_tasks([lambda: "only"], backend="process") == ["only"]


class TestShardPlanFor:
    """How a simulator turns its ExecutionPlan into a shard plan."""

    def test_monolithic_plan_builds_no_shard_plan(self):
        assert shard_plan_for(ExecutionPlan(), "vectorized", _topology()) is None
        assert shard_plan_for(ExecutionPlan(), "loop", _topology()) is None

    def test_plan_fields_reach_the_partition(self):
        topology = _topology()
        plan = shard_plan_for(ExecutionPlan(shards=4, partitioner="hash"), "vectorized", topology)
        expected = plan_shards(topology, 4, "hash")
        assert (plan.shards, plan.partitioner) == (4, "hash")
        assert np.array_equal(plan.table, expected.table)

    def test_loop_kernel_rejected_with_shards(self):
        with pytest.raises(ValueError, match="vectorized"):
            shard_plan_for(ExecutionPlan(shards=2), "loop", _topology())
