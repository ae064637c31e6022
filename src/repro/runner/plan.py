"""The execution plan: the one object that says *how* a simulation runs.

Every execution knob lives here and nowhere else — temporal partitioning
into checkpointed round-blocks (``rounds_per_block`` / ``intra_jobs``,
the CLI's ``--intra-jobs``) and spatial peer-space sharding (``shards`` /
``partitioner`` / ``shard_backend``).  Simulator configurations describe
the simulated system only; kernel and dtype selection is part of that
description (:class:`~repro.p2psim.options.KernelOptions`).  The frozen
:class:`ExecutionPlan` composes them behind one :func:`execute` entry
point:

>>> from repro.runner.plan import ExecutionPlan, execute
>>> plan = ExecutionPlan(rounds_per_block=500, shards=4)
>>> result = execute(config, plan)                        # doctest: +SKIP

Every plan field describes *execution*, never the simulated system:
``execute(config, plan)`` is byte-identical to ``execute(config)`` for
all plans, which is why sweeps can apply a plan without touching task
configurations or artifact-cache keys.  :func:`execute`, the sweep
workers, ``repro run`` and the ``repro serve`` daemon all install the
plan as the ambient execution context
(:func:`repro.runner.partition.running`), from which the simulators'
``run_config`` read it; code that builds a simulator directly passes the
plan to its constructor.
"""

from __future__ import annotations

import math
import tempfile
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.runner.partition import BlockContext, CheckpointStore, running
from repro.runner.shard import MAX_SHARDS, PARTITIONERS, SHARD_BACKENDS

__all__ = ["ExecutionPlan", "execute"]


@dataclass(frozen=True)
class ExecutionPlan:
    """Immutable description of how (not what) a simulation executes.

    Attributes
    ----------
    rounds_per_block:
        Temporal partitioning: checkpoint every that-many rounds (the
        block count follows from the config's horizon).  ``None`` leaves
        the block count to ``intra_jobs``.
    intra_jobs:
        Number of checkpointed round-blocks (and, in sweeps, the pipeline
        width for block execution) — the CLI's ``--intra-jobs``.  Ignored
        for block counting when ``rounds_per_block`` is set.
    shards:
        Spatial shard count (default 1 = monolithic).  ``shards > 1``
        requires the vectorized kernel.
    partitioner:
        Peer-space partitioner: ``"overlay"`` (default, edge-cut
        minimising BFS) or ``"hash"`` (``peer_id % shards`` baseline).
    shard_backend:
        Shard executor: ``"thread"`` (default), ``"process"`` or
        ``"serial"``.
    """

    rounds_per_block: Optional[int] = None
    intra_jobs: int = 1
    shards: int = 1
    partitioner: str = "overlay"
    shard_backend: str = "thread"

    def __post_init__(self) -> None:
        if self.rounds_per_block is not None and self.rounds_per_block < 1:
            raise ValueError(
                f"rounds_per_block must be >= 1, got {self.rounds_per_block}"
            )
        if self.intra_jobs < 1:
            raise ValueError(f"intra_jobs must be >= 1, got {self.intra_jobs}")
        if not isinstance(self.shards, int) or isinstance(self.shards, bool):
            raise ValueError(f"shards must be an int, got {self.shards!r}")
        if not 1 <= self.shards <= MAX_SHARDS:
            raise ValueError(
                f"shards must be in [1, {MAX_SHARDS}], got {self.shards}"
            )
        if self.partitioner not in PARTITIONERS:
            raise ValueError(
                f"partitioner must be one of {PARTITIONERS}, got {self.partitioner!r}"
            )
        if self.shard_backend not in SHARD_BACKENDS:
            raise ValueError(
                f"shard_backend must be one of {SHARD_BACKENDS}, "
                f"got {self.shard_backend!r}"
            )

    def blocks_for(self, total_rounds: int) -> int:
        """Round-block count for a run of ``total_rounds`` rounds."""
        if self.rounds_per_block is not None:
            return max(1, math.ceil(total_rounds / self.rounds_per_block))
        return max(1, self.intra_jobs)


def _round_length(sim_config: object) -> float:
    """Seconds of simulated time per round for either simulator config."""
    if hasattr(sim_config, "step"):
        return float(sim_config.step)
    return float(sim_config.scheduling_interval)


def execute(
    sim_config: object,
    plan: Optional[ExecutionPlan] = None,
    *,
    topology: object = None,
    snapshot_times: Optional[Sequence[float]] = None,
    store: Optional[CheckpointStore] = None,
    scope: str = "execute",
) -> object:
    """Run ``sim_config`` to completion under ``plan``.

    The single entry point behind which temporal partitioning
    (``rounds_per_block`` / ``intra_jobs`` checkpointed blocks, persisted
    in ``store`` when given) and spatial sharding (``shards`` /
    ``partitioner`` / ``shard_backend``) compose; kernel and dtype ride on
    the config's options.  Dispatches on the config type; any plan
    produces byte-identical results to the monolithic default plan.
    """
    from repro.p2psim.config import MarketSimConfig, StreamingSimConfig
    from repro.p2psim.market_sim import CreditMarketSimulator
    from repro.p2psim.streaming_sim import StreamingMarketSimulator

    if plan is None:
        plan = ExecutionPlan()
    if isinstance(sim_config, MarketSimConfig):
        runner = CreditMarketSimulator.run_config
    elif isinstance(sim_config, StreamingSimConfig):
        runner = StreamingMarketSimulator.run_config
    else:
        raise TypeError(
            "execute() needs a MarketSimConfig or StreamingSimConfig, "
            f"got {type(sim_config).__name__}"
        )
    total = max(1, math.ceil(float(sim_config.horizon) / _round_length(sim_config)))
    blocks = plan.blocks_for(total)
    with running(plan), ExitStack() as stack:
        if blocks > 1 or store is not None:
            if store is None:
                tmp = stack.enter_context(tempfile.TemporaryDirectory(prefix="repro-intra-"))
                store = CheckpointStore(tmp)
            stack.enter_context(BlockContext(store, blocks=blocks, scope=scope, budget=None))
        return runner(sim_config, topology=topology, snapshot_times=snapshot_times)
