"""The traced run: a survey that yields every per-layer metric.

Each section mirrors one workload.  It first runs the workload's blocking
path (set-up, steps, finalize; or one cold sweep) under a root span, with
spans around every call into a layer, then times the layer calls the
per-layer table of ``perfbench/README.md`` names.  Every traced run
surveys all four sections, so each per-layer metric is measured the same
way whichever workload is named; the named workload's blocking path is
also run untraced, which gives the tracing overhead.
"""

from __future__ import annotations

import dataclasses
import gc
import shutil
import statistics
import tempfile
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core import gini_index
from repro.obs import MemorySink, MetricsEmitter, use_emitter
from repro.overlay import MembershipTracker, scale_free_topology
from repro.p2psim import CreditMarketSimulator, StreamingMarketSimulator, WealthRecorder
from repro.runner import (
    ArtifactCache,
    CheckpointStore,
    ExecutionPlan,
    code_fingerprint,
    execute,
    plan_shards,
)

from perfbench.tracing import NULL_TRACER, Span, Tracer, write_trace
from perfbench.workloads import (
    SIM_WORKLOADS,
    Outcome,
    SimWorkload,
    Size,
    check_final_state,
    sample_steps,
    sweep_pass,
    timed_steps,
    build_simulator,
)

#: Steps each traced simulator section times: fewer than the end-to-end
#: run (per-layer medians need no tail percentile), but enough to include
#: three sampling rounds.
TRACE_STEPS = {"market-static-100k": 101, "market-churn-10k": 40, "stream-10k": 61}
#: Rounds of the short market run executed monolithic and with 2 shards.
SHARD_ROUNDS = 30
#: Rounds of the churn config run without churn, for ``churn_share``.
STATIC_PROBE_STEPS = 30
#: Streaming ticks before, and tick pairs of, the telemetry probe.
TELEMETRY_WARMUP = 10
TELEMETRY_PAIRS = 10
#: Warm sweep passes after the traced cold pass.
WARM_PASSES = 5
#: Repeats of the sub-millisecond layer calls (median reported).
REPEATS = 5

#: Layers on each section's blocking path, whose self times are reported.
PATH_LAYERS = {
    "static": ("overlay", "market_sim"),
    "churn": ("overlay", "market_sim"),
    "stream": ("overlay", "streaming_sim"),
    "sweep": ("grid", "cache", "executor", "aggregate"),
}
SECTION_WORKLOAD = {
    "static": "market-static-100k",
    "churn": "market-churn-10k",
    "stream": "stream-10k",
    "sweep": "sweep-smoke",
}


def median_ms(values) -> float:
    return 1e3 * float(statistics.median(values))


def timed(function: Callable[[], object]) -> float:
    started = time.perf_counter()
    function()
    return time.perf_counter() - started


# ------------------------------------------------------------ blocking paths


@dataclass
class SimRun:
    """One simulator run's blocking path: set-up, single steps, finalize."""

    workload: SimWorkload
    simulator: object
    topology: object
    result: object
    generate_s: float
    construct_s: float
    step_s: np.ndarray
    counts: np.ndarray
    finalize_s: float
    total_s: float
    root: Optional[Span]


def simulate(workload: SimWorkload, size: Size, seed: int, tracer: Tracer) -> SimRun:
    peers = workload.peers(size)
    steps = TRACE_STEPS[workload.name]
    with tracer.span("bench/run") as root:
        started = time.perf_counter()
        simulator, topology, generate_s, construct_s = build_simulator(
            workload, peers, seed, tracer
        )
        step_s, counts = timed_steps(simulator, steps, tracer, workload.layer)
        with tracer.span(workload.layer + "/finalize"):
            finalizing = time.perf_counter()
            result = simulator.finalize()
            finalize_s = time.perf_counter() - finalizing
        total_s = time.perf_counter() - started
    return SimRun(
        workload, simulator, topology, result, generate_s, construct_s,
        step_s, counts, finalize_s, total_s, root,
    )


def plain_step_ms(run: SimRun) -> float:
    """Median time of the steps that record no sample, in ms."""
    samples = sample_steps(run.simulator.config, run.step_s.size)
    return median_ms(run.step_s[~samples])


def step_metrics(run: SimRun, outcome: Outcome) -> None:
    """Construct, plain and sample step, and finalize metrics of one run."""
    layer = run.workload.layer
    samples = sample_steps(run.simulator.config, run.step_s.size)
    outcome.metric(f"{layer}.construct_s", run.construct_s, "s")
    outcome.metric(f"{layer}.plain_step_ms", plain_step_ms(run), "ms")
    outcome.metric(f"{layer}.sample_step_ms", median_ms(run.step_s[samples]), "ms")
    outcome.metric(f"{layer}.finalize_ms", 1e3 * run.finalize_s, "ms")


# ------------------------------------------------------------------ sections


def static_section(size: Size, seed: int, tracer: Tracer, outcome: Outcome, scratch: Path) -> SimRun:
    run = simulate(SIM_WORKLOADS["market-static-100k"], size, seed, tracer)
    step_metrics(run, outcome)
    outcome.operations(2 + run.step_s.size)
    topology = run.topology
    peers = topology.num_peers
    edges = topology.num_edges
    steps = run.step_s.size
    check_final_state(run.workload, run.simulator, run.result, peers, outcome)
    outcome.metric("overlay.generate_s", run.generate_s, "s")
    outcome.metric("overlay.edges", edges, "count")
    outcome.metric("market_sim.transfers_per_step", run.counts[-1, 0] / steps, "count")
    # The routing pack's flat CDF (float64) and destination (int64) per
    # directed edge, plus slot, degree and row-start (int64) per peer.
    outcome.metric("market_sim.routing_bytes", 2 * edges * (8 + 8) + peers * 3 * 8, "B_computed")
    outcome.counts.update({"static.overlay.edges": edges, "static.transfers": int(run.counts[-1, 0])})

    with tracer.span("overlay/csr_adjacency"):
        outcome.metric("overlay.csr_s", timed(topology.csr_adjacency), "s")
    wealths = run.result.final_wealths
    record = []
    for _ in range(REPEATS):
        with tracer.span("recorder/record"):
            record.append(timed(lambda: WealthRecorder().record(0.0, wealths)))
    outcome.metric("recorder.record_ms", median_ms(record), "ms")
    gini = []
    for _ in range(REPEATS):
        with tracer.span("metrics/gini_index"):
            gini.append(timed(lambda: gini_index(wealths)))
    outcome.metric("metrics.gini_ms", median_ms(gini), "ms")
    outcome.operations(2 * REPEATS + 1)

    store = CheckpointStore(Path(tempfile.mkdtemp(prefix="checkpoints-", dir=scratch)))
    with tracer.span("partition/checkpoint_store"):
        started = time.perf_counter()
        path = store.store("perfbench", 0, 1, 2, run.simulator)
        outcome.metric("partition.checkpoint_store_ms", 1e3 * (time.perf_counter() - started), "ms")
    outcome.metric("partition.checkpoint_bytes", path.stat().st_size, "B")
    transfers = run.simulator.total_transfers
    run.simulator = run.result = None
    gc.collect()
    with tracer.span("partition/checkpoint_load"):
        started = time.perf_counter()
        restored = store.load("perfbench", 0, 1, 2)
        outcome.metric("partition.checkpoint_load_ms", 1e3 * (time.perf_counter() - started), "ms")
    outcome.check(
        "checkpoint restores the simulator",
        restored is not None and restored.total_transfers == transfers,
    )
    del restored
    shutil.rmtree(store.root)
    gc.collect()
    outcome.operations(2)

    with tracer.span("shard/plan_shards"):
        started = time.perf_counter()
        shard_plan = plan_shards(topology, 2)
        outcome.metric("shard.plan_s", time.perf_counter() - started, "s")
    outcome.metric("shard.cut_fraction", shard_plan.cut_fraction, "ratio")
    outcome.metric("shard.imbalance", shard_plan.imbalance, "ratio")
    config = dataclasses.replace(run.workload.make_config(peers, seed), horizon=float(SHARD_ROUNDS))
    with tracer.span("plan/execute_monolithic"):
        started = time.perf_counter()
        monolithic = execute(config, ExecutionPlan(), topology=topology)
        monolithic_s = time.perf_counter() - started
    with tracer.span("shard/execute_2_shards"):
        started = time.perf_counter()
        sharded = execute(config, ExecutionPlan(shards=2), topology=topology)
        sharded_s = time.perf_counter() - started
    outcome.metric("shard.speedup_2x", monolithic_s / sharded_s, "x")
    outcome.check(
        "sharded end state is byte-identical to monolithic",
        monolithic.final_wealths.tobytes() == sharded.final_wealths.tobytes()
        and monolithic.total_transfers == sharded.total_transfers
        and list(monolithic.recorder.gini_series.y) == list(sharded.recorder.gini_series.y),
    )
    outcome.operations(3)
    return run


def churn_section(size: Size, seed: int, tracer: Tracer, outcome: Outcome, scratch: Path) -> SimRun:
    workload = SIM_WORKLOADS["market-churn-10k"]
    run = simulate(workload, size, seed, tracer)
    churned_ms = plain_step_ms(run)
    steps = run.step_s.size
    outcome.operations(2 + steps)
    check_final_state(workload, run.simulator, run.result, workload.peers(size), outcome)
    joins, leaves = int(run.counts[-1, 1]), int(run.counts[-1, 2])
    outcome.metric("market_sim.churn_step_ms", churned_ms, "ms")
    outcome.metric("market_sim.joins", joins, "count")
    outcome.metric("market_sim.leaves", leaves, "count")
    outcome.counts.update({"churn.joins": joins, "churn.leaves": leaves,
                           "churn.transfers": int(run.counts[-1, 0])})

    # One round's membership events, driven directly on a copy of the
    # overlay as the churned run left it.
    tracker = MembershipTracker(
        run.topology.copy(),
        target_degree=int(round(run.simulator.config.topology_mean_degree)),
        seed=seed,
    )
    join_s = []
    for _ in range(max(1, round(joins / steps))):
        with tracer.span("overlay/membership.join"):
            join_s.append(timed(tracker.join))
    rng = np.random.default_rng(seed)
    victims = rng.choice(tracker.topology.peers(), size=max(1, round(leaves / steps)), replace=False)
    leave_s = []
    for victim in victims:
        with tracer.span("overlay/membership.leave"):
            leave_s.append(timed(lambda: tracker.leave(int(victim))))
    outcome.metric("overlay.membership.join_ms", median_ms(join_s), "ms")
    outcome.metric("overlay.membership.leave_ms", median_ms(leave_s), "ms")
    outcome.operations(len(join_s) + len(leave_s))

    # The same configuration without churn, for the share churn costs.
    peers = workload.peers(size)
    config = dataclasses.replace(workload.make_config(peers, seed), churn=None)
    static = CreditMarketSimulator(config, topology=scale_free_topology(peers, seed=seed))
    static_s, _ = timed_steps(static, STATIC_PROBE_STEPS, tracer, "market_sim")
    static_ms = median_ms(static_s[~sample_steps(config, STATIC_PROBE_STEPS)])
    outcome.metric("market_sim.static_step_ms", static_ms, "ms")
    outcome.metric("market_sim.churn_share", 1.0 - static_ms / churned_ms, "ratio")
    outcome.operations(1 + STATIC_PROBE_STEPS)
    return run


def stream_section(size: Size, seed: int, tracer: Tracer, outcome: Outcome, scratch: Path) -> SimRun:
    workload = SIM_WORKLOADS["stream-10k"]
    run = simulate(workload, size, seed, tracer)
    step_metrics(run, outcome)
    outcome.operations(2 + run.step_s.size)
    chunks = int(run.counts[-1, 0])
    outcome.metric("streaming_sim.chunks_per_step", chunks / run.step_s.size, "count")
    outcome.counts["stream.chunks"] = chunks
    with tracer.span("streaming_sim/verify_conservation"):
        started = time.perf_counter()
        check_final_state(workload, run.simulator, run.result, workload.peers(size), outcome)
        outcome.metric(
            "streaming_sim.verify_conservation_ms", 1e3 * (time.perf_counter() - started), "ms"
        )

    # Telemetry probe: adjacent ticks of one simulator alternate between an
    # enabled emitter (with a memory sink) and none, in alternating order.
    probe = StreamingMarketSimulator(run.simulator.config, topology=run.topology)
    probe.advance_rounds(TELEMETRY_WARMUP)
    sink = MemorySink()
    emitter = MetricsEmitter([sink])
    enabled_s: List[float] = []
    disabled_s: List[float] = []
    for pair in range(TELEMETRY_PAIRS):
        for observed in ((True, False) if pair % 2 == 0 else (False, True)):
            if observed:
                with use_emitter(emitter), tracer.span("obs/observed_tick"):
                    enabled_s.append(timed(lambda: probe.advance_rounds(1)))
            else:
                with tracer.span("streaming_sim/advance_rounds"):
                    disabled_s.append(timed(lambda: probe.advance_rounds(1)))
    spans = sink.spans()
    outcome.metric(
        "streaming_sim.kernel_share",
        spans["streaming.kernel.vectorized"]["total"] / spans["streaming.tick"]["total"],
        "ratio",
    )
    outcome.metric(
        "obs.telemetry_overhead",
        statistics.median(enabled_s) / statistics.median(disabled_s) - 1.0,
        "ratio",
    )
    outcome.operations(1 + TELEMETRY_WARMUP + 2 * TELEMETRY_PAIRS)
    return run


class TracedCache(ArtifactCache):
    """An artifact cache whose loads and stores are recorded as spans."""

    def __init__(self, root: Path, tracer: Tracer) -> None:
        super().__init__(root)
        self._tracer = tracer

    def load(self, key: str):
        with self._tracer.span("cache/load"):
            return super().load(key)

    def store(self, key: str, payload):
        with self._tracer.span("cache/store"):
            return super().store(key, payload)


@dataclass
class SweepSection:
    """The sweep section's blocking path (one cold pass) and its timing."""

    total_s: float
    root: Optional[Span]


def fresh_dir(scratch: Path, prefix: str) -> Path:
    return Path(tempfile.mkdtemp(prefix=prefix, dir=scratch))


def cold_sweep(size: Size, seed: int, tracer: Tracer, root_dir: Path):
    with tracer.span("bench/run") as root:
        cold = sweep_pass(
            seed, size, root_dir, tracer,
            cache_factory=lambda path: TracedCache(path, tracer),
        )
    return cold, root


def sweep_section(size: Size, seed: int, tracer: Tracer, outcome: Outcome, scratch: Path) -> SweepSection:
    cache_dir = fresh_dir(scratch, "cache-")
    cold, root = cold_sweep(size, seed, tracer, cache_dir)
    outcome.operations(cold.tasks)
    outcome.metric("executor.tasks", cold.tasks, "count")
    outcome.metric("executor.executed", cold.executed, "count")
    outcome.metric("executor.tasks_per_s", cold.executed / cold.total_s, "1/s")
    outcome.check("cold pass executes every task", cold.executed == cold.tasks, cold.executed)
    outcome.counts["sweep.tasks"] = cold.tasks
    outcome.metric("cache.store_ms", median_ms(tracer.durations("cache/store")), "ms")
    outcome.metric(
        "cache.artifact_bytes", sum(path.stat().st_size for path in cache_dir.rglob("*.json")), "B"
    )

    first_warm = len(tracer.spans)
    warm_ok = True
    for _ in range(WARM_PASSES):
        warm = sweep_pass(
            seed, size, cache_dir, tracer,
            cache_factory=lambda path: TracedCache(path, tracer),
        )
        warm_ok = warm_ok and warm.executed == 0 and warm.tables == cold.tables
    outcome.check("warm passes execute nothing and match cold tables", warm_ok)
    outcome.operations(WARM_PASSES)
    stats = warm.reports[-1].cache_stats
    outcome.metric("executor.cached", warm.cached, "count")
    outcome.metric("cache.hit_ratio", stats["hits"] / (stats["hits"] + stats["misses"]), "ratio")
    outcome.check("warm cache hit ratio is 1", stats["misses"] == 0, stats)
    warm_loads = [s.duration for s in tracer.spans[first_warm:] if s.name == "cache/load"]
    outcome.metric("cache.load_ms", median_ms(warm_loads), "ms")
    outcome.metric("grid.build_spec_ms", median_ms(tracer.durations("grid/build_spec")), "ms")
    # Aggregation time per pass: the cold pass and each warm pass.
    per_pass = len(cold.tables)
    aggregate = tracer.durations("aggregate/aggregate_sweep")
    outcome.metric(
        "aggregate.ms",
        median_ms([sum(aggregate[i:i + per_pass]) for i in range(0, len(aggregate), per_pass)]),
        "ms",
    )
    shutil.rmtree(cache_dir)

    fingerprint = []
    for _ in range(REPEATS):
        code_fingerprint.cache_clear()
        with tracer.span("cache/code_fingerprint"):
            fingerprint.append(timed(code_fingerprint))
    outcome.metric("cache.code_fingerprint_ms", median_ms(fingerprint), "ms")
    outcome.operations(REPEATS)

    with tracer.span("executor/sweep_jobs1"):
        serial = sweep_pass(seed, size, fresh_dir(scratch, "jobs1-"), NULL_TRACER, jobs=1)
    outcome.metric("executor.jobs1_run_s", serial.total_s, "s")
    outcome.metric("executor.parallel_speedup", serial.total_s / cold.total_s, "x")
    outcome.check("jobs=1 tables match jobs=2", serial.tables == cold.tables)
    with tracer.span("partition/sweep_intra_jobs2"):
        blocks = sweep_pass(
            seed, size, fresh_dir(scratch, "intra2-"), NULL_TRACER,
            plan=ExecutionPlan(intra_jobs=2),
        )
    outcome.metric("partition.intra2_run_s", blocks.total_s, "s")
    # Reported, not checked: on the reference code the churned fig11 grid
    # differs under intra_jobs=2 with two workers (see README.md).
    mismatched = sum(a != b for a, b in zip(blocks.tables, cold.tables))
    outcome.metric("partition.intra2_mismatched_specs", mismatched, "count")
    outcome.operations(serial.tasks + blocks.tasks)
    return SweepSection(cold.total_s, root)


SECTIONS = {
    "static": static_section,
    "churn": churn_section,
    "stream": stream_section,
    "sweep": sweep_section,
}


def untraced_total(section: str, size: Size, seed: int, scratch: Path) -> float:
    """Wall time of the section's blocking path with tracing off."""
    if section == "sweep":
        cold, _ = cold_sweep(size, seed, NULL_TRACER, fresh_dir(scratch, "twin-"))
        return cold.total_s
    return simulate(SIM_WORKLOADS[SECTION_WORKLOAD[section]], size, seed, NULL_TRACER).total_s


def survey(
    workload: str, size: Size, seed: int, scratch: Path, out: Path, env: Dict[str, object],
    outcome: Outcome,
) -> None:
    """Run every traced section, recording per-layer metrics into ``outcome``.

    Writes the spans of all sections to ``out/trace-<workload>-seed<seed>.json``.
    """
    tracers: List[Tracer] = []
    coverage: List[float] = []
    # The named workload's section runs last, in a process the other
    # sections have warmed up, between two untraced runs of its blocking
    # path; their mean is the untraced time ``trace.overhead`` compares to.
    order = sorted(SECTIONS, key=lambda section: SECTION_WORKLOAD[section] == workload)
    for section in order:
        named = SECTION_WORKLOAD[section] == workload
        tracer = Tracer(run_id=f"{SECTION_WORKLOAD[section]}-seed{seed}-{uuid.uuid4().hex[:8]}")
        tracers.append(tracer)
        if named:
            before_s = untraced_total(section, size, seed, scratch)
        blocking = SECTIONS[section](size, seed, tracer, outcome, scratch)
        root = blocking.root
        self_times = tracer.self_times(root)
        for layer in PATH_LAYERS[section]:
            outcome.metric(f"self.{section}.{layer}_s", self_times.get(layer, 0.0), "s")
        unexpected = set(self_times) - set(PATH_LAYERS[section]) - {"bench"}
        covered = sum(self_times[layer] for layer in PATH_LAYERS[section]) / root.duration
        outcome.check(
            f"{section}: layer self times add up to run_s within 5%",
            not unexpected and 0.95 <= covered <= 1.0 + 1e-9,
            f"coverage {covered:.4f}, unexpected layers {sorted(unexpected)}",
        )
        coverage.append(covered)
        traced_s = blocking.total_s
        # Free the section's simulator before the next set-up.
        del blocking
        gc.collect()
        if named:
            untraced_s = (before_s + untraced_total(section, size, seed, scratch)) / 2
            outcome.metric("trace.overhead", traced_s / untraced_s - 1.0, "ratio")
    outcome.metric("trace.coverage", min(coverage), "ratio")
    write_trace(out / f"trace-{workload}-seed{seed}.json", env, tracers)
