"""The benchmark's workloads and their end-to-end measurements.

Every workload generates its inputs from the seed: the simulator workloads
build the overlay with ``scale_free_topology`` and hand it to the
simulator; the sweep workload derives every task seed from the seed
through ``build_spec(..., base_seed=seed)``.  Loads come from this one
process; simulations run single-threaded and sweeps use two workers.
"""

from __future__ import annotations

import gc
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import repro.experiments  # noqa: F401 - imported here so no timed region pays for it
from repro.core import ThresholdIncomeTax
from repro.overlay import ChurnConfig, scale_free_topology
from repro.p2psim import (
    CreditMarketSimulator,
    MarketSimConfig,
    StreamingMarketSimulator,
    StreamingSimConfig,
    UtilizationMode,
)
from repro.runner import (
    ArtifactCache,
    ExecutionPlan,
    ParamGrid,
    SweepSpec,
    aggregate_sweep,
    build_spec,
    run_sweep,
)

from perfbench.tracing import NULL_TRACER, Tracer

#: Steps every simulator run times at least, so ≥10 lie beyond p90.
MIN_STEPS = 100
#: Set-ups per simulator run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Steps run on a throw-away instance to check that counts repeat in-run.
PROBE_STEPS = 3
#: Workers for every sweep (the benchmark box has two cores).
SWEEP_JOBS = 2


@dataclass(frozen=True)
class Size:
    """Population sizes; ``tiny`` keeps the benchmark's own tests fast."""

    static_peers: int
    churn_peers: int
    stream_peers: int
    tiny_sweep: bool


SIZES: Dict[str, Size] = {
    "full": Size(static_peers=100_000, churn_peers=10_000, stream_peers=10_000, tiny_sweep=False),
    "tiny": Size(static_peers=2_000, churn_peers=1_000, stream_peers=400, tiny_sweep=True),
}


class Outcome:
    """Metrics, counts and check results of one benchmark run."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.counts: Dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def operations(self, count: int) -> None:
        """Count ``count`` program operations that completed without raising."""
        self.attempted += count

    def check(self, name: str, ok: bool, detail: object = "") -> None:
        """Count one check; a failed one is recorded with ``detail``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set size in MiB (of this process, or the largest worker)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


# --------------------------------------------------------------- simulators


@dataclass(frozen=True)
class SimWorkload:
    """A simulator workload: which simulator, at what size, with which config."""

    name: str
    layer: str  # span layer of the simulator: "market_sim" or "streaming_sim"
    peers: Callable[[Size], int]
    make_config: Callable[[int, int], object]  # (peers, seed) -> config
    #: Steps per second of the reference code, so that ``--seconds`` buys a
    #: fixed number of steps: the same work on every commit.
    nominal_rate: float

    def steps(self, seconds: float) -> int:
        return max(MIN_STEPS, int(round(self.nominal_rate * seconds)))

    def simulator(self, config: object, topology: object):
        if self.layer == "market_sim":
            return CreditMarketSimulator(config, topology=topology)
        return StreamingMarketSimulator(config, topology=topology)


def static_market_config(peers: int, seed: int) -> MarketSimConfig:
    return MarketSimConfig(
        num_peers=peers, utilization=UtilizationMode.ASYMMETRIC, seed=seed
    )


def churn_market_config(peers: int, seed: int) -> MarketSimConfig:
    return MarketSimConfig(
        num_peers=peers,
        utilization=UtilizationMode.ASYMMETRIC,
        churn=ChurnConfig.for_population(peers, mean_lifespan=1000.0),
        tax_policy=ThresholdIncomeTax(0.1, 150.0),
        seed=seed,
    )


def streaming_config(peers: int, seed: int) -> StreamingSimConfig:
    return StreamingSimConfig(num_peers=peers, seed=seed)


SIM_WORKLOADS: Dict[str, SimWorkload] = {
    workload.name: workload
    for workload in (
        SimWorkload(
            "market-static-100k", "market_sim",
            lambda size: size.static_peers, static_market_config, nominal_rate=30.0,
        ),
        SimWorkload(
            "market-churn-10k", "market_sim",
            lambda size: size.churn_peers, churn_market_config, nominal_rate=8.0,
        ),
        SimWorkload(
            "stream-10k", "streaming_sim",
            lambda size: size.stream_peers, streaming_config, nominal_rate=8.0,
        ),
    )
}


def build_simulator(workload: SimWorkload, peers: int, seed: int, tracer: Tracer):
    """Generate the overlay and construct the simulator; returns both timings."""
    config = workload.make_config(peers, seed)
    started = time.perf_counter()
    with tracer.span("overlay/scale_free_topology"):
        topology = scale_free_topology(peers, seed=seed)
    generated = time.perf_counter()
    with tracer.span(workload.layer + "/construct"):
        simulator = workload.simulator(config, topology)
    constructed = time.perf_counter()
    return simulator, topology, generated - started, constructed - generated


def work_done(simulator) -> int:
    """Cumulative work count: credit transfers or delivered chunks."""
    if isinstance(simulator, CreditMarketSimulator):
        return simulator.total_transfers
    return simulator.chunks_delivered


def timed_steps(
    simulator, steps: int, tracer: Tracer, layer: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Advance ``steps`` single rounds, timing each.

    Returns the step times in seconds and, per step, the cumulative
    ``(work, joins, leaves)`` counts after it.
    """
    times = np.empty(steps)
    counts = np.empty((steps, 3), dtype=np.int64)
    for step in range(steps):
        with tracer.span(layer + "/advance_rounds"):
            started = time.perf_counter()
            simulator.advance_rounds(1)
            times[step] = time.perf_counter() - started
        counts[step] = (work_done(simulator), simulator.joins, simulator.leaves)
    return times, counts


def sample_steps(config, steps: int) -> np.ndarray:
    """Which of the first ``steps`` rounds record a recorder sample.

    Mirrors the simulators' rule: a round samples when the clock has
    reached the next sample time, which then moves on by the interval.
    """
    step = float(getattr(config, "step", getattr(config, "scheduling_interval", 1.0)))
    flags = np.zeros(steps, dtype=bool)
    now = next_sample = 0.0
    for index in range(steps):
        if now + 1e-9 >= next_sample:
            flags[index] = True
            next_sample += config.sample_interval
        now += step
    return flags


def check_final_state(workload: SimWorkload, simulator, result, peers: int, outcome: Outcome) -> None:
    """The workload's correctness checks on a finished run."""
    wealths = result.final_wealths
    if workload.name == "market-static-100k":
        expected = peers * simulator.config.initial_credits
        outcome.check(
            "credits conserved", float(np.sum(wealths)) == expected,
            f"sum {float(np.sum(wealths))!r} != {expected!r}",
        )
        outcome.check("balances non-negative", bool(np.all(wealths >= 0)), float(wealths.min()))
    elif workload.name == "market-churn-10k":
        outcome.check("balances non-negative", bool(np.all(wealths >= 0)), float(wealths.min()))
        tax_pool = float(result.extras["tax_pool"])
        outcome.check("tax pool non-negative", tax_pool >= 0, tax_pool)
        outcome.check("peers joined", result.joins > 0, result.joins)
        outcome.check("peers left", result.leaves > 0, result.leaves)
    else:
        try:
            simulator.verify_conservation()
        except AssertionError as error:
            outcome.check("streaming credits conserved", False, error)
        else:
            outcome.check("streaming credits conserved", True)


def run_simulator(
    workload: SimWorkload, size: Size, seed: int, seconds: float, outcome: Outcome
) -> None:
    """End-to-end run of a simulator workload (tracing off).

    Sets up ``SETUP_REPEATS`` times (overlay generation plus constructor)
    and reports the median as ``setup_s``; the last instance runs a fixed
    number of single-round steps and is finalized.  The first instance
    also runs ``PROBE_STEPS`` rounds whose counts must equal the main
    instance's first rounds.
    """
    peers = workload.peers(size)
    steps = workload.steps(seconds)
    setups: List[float] = []
    edges: List[int] = []
    probe: Optional[np.ndarray] = None
    for attempt in range(SETUP_REPEATS):
        simulator, topology, generate_s, construct_s = build_simulator(
            workload, peers, seed, NULL_TRACER
        )
        setups.append(generate_s + construct_s)
        edges.append(topology.num_edges)
        outcome.operations(2)
        if attempt == 0:
            _, probe = timed_steps(simulator, PROBE_STEPS, NULL_TRACER, workload.layer)
            outcome.operations(PROBE_STEPS)
        if attempt < SETUP_REPEATS - 1:
            # Free the instance before the next set-up so peak memory is
            # that of one simulator.
            del simulator, topology
            gc.collect()
    times, counts = timed_steps(simulator, steps, NULL_TRACER, workload.layer)
    outcome.operations(steps)
    started = time.perf_counter()
    result = simulator.finalize()
    finalize_s = time.perf_counter() - started
    outcome.operations(1)

    outcome.check("overlay repeats across set-ups", len(set(edges)) == 1, edges)
    outcome.check(
        "step counts repeat across instances",
        np.array_equal(probe, counts[:PROBE_STEPS]),
        f"{probe.tolist()} vs {counts[:PROBE_STEPS].tolist()}",
    )
    check_final_state(workload, simulator, result, peers, outcome)
    outcome.counts.update(
        {
            "overlay.edges": edges[0],
            "work": int(counts[-1, 0]),
            "joins": int(counts[-1, 1]),
            "leaves": int(counts[-1, 2]),
        }
    )

    setup_s = statistics.median(setups)
    busy = float(times.sum())
    outcome.metric("setup_s", setup_s, "s")
    outcome.metric("run_s", setup_s + busy + finalize_s, "s")
    outcome.metric("steps_per_s", steps / busy, "1/s")
    outcome.metric("step_ms_p50", 1e3 * float(np.median(times)), "ms")
    outcome.metric("step_ms_p90", 1e3 * float(np.percentile(times, 90)), "ms")
    outcome.metric("peak_rss_mb", peak_rss_mb(), "MB")


# -------------------------------------------------------------------- sweep


def sweep_specs(seed: int, size: Size) -> List[SweepSpec]:
    """The sweep workload's specs, every task seed derived from ``seed``."""
    if size.tiny_sweep:
        return [
            build_spec(
                "fig7", grid=ParamGrid({"average_wealth": [10.0]}),
                replications=2, base_seed=seed, scale="smoke",
            ),
            build_spec(
                "fig5_6-streaming-smoke",
                grid=ParamGrid(
                    {"simulator": ["streaming"], "kernel": ["vectorized"],
                     "num_peers": [36], "horizon": [60.0]}
                ),
                replications=2, base_seed=seed,
            ),
        ]
    return [
        build_spec(
            "fig1",
            grid=ParamGrid(
                {"initial_credits": [12.0, 200.0], "pricing_model": ["uniform", "poisson-seller"]}
            ),
            replications=2, base_seed=seed, scale="smoke",
        ),
        build_spec(
            "fig7", grid=ParamGrid({"average_wealth": [10.0, 30.0]}),
            replications=2, base_seed=seed, scale="smoke",
        ),
        build_spec("fig9-taxation-grid", replications=2, base_seed=seed, scale="smoke"),
        build_spec("fig11-churn-grid", replications=2, base_seed=seed, scale="smoke"),
        build_spec("fig5_6-streaming-smoke", replications=2, base_seed=seed),
    ]


@dataclass
class SweepRun:
    """One pass over the sweep specs: timings, reports and aggregate tables."""

    setup_s: float
    total_s: float
    executed: int
    cached: int
    tasks: int
    tables: List[str] = field(default_factory=list)
    reports: list = field(default_factory=list)


def sweep_pass(
    seed: int,
    size: Size,
    cache_root: Path,
    tracer: Tracer,
    jobs: int = SWEEP_JOBS,
    plan: Optional[ExecutionPlan] = None,
    cache_factory: Callable[[Path], ArtifactCache] = ArtifactCache,
) -> SweepRun:
    """Build the specs, open the cache, run every spec and aggregate it.

    This is what a user waits for when sweeping: cold when ``cache_root``
    is empty, warm when a previous pass filled it.
    """
    started = time.perf_counter()
    with tracer.span("grid/build_spec"):
        specs = sweep_specs(seed, size)
    with tracer.span("cache/open"):
        cache = cache_factory(cache_root)
    ready = time.perf_counter()
    run = SweepRun(setup_s=ready - started, total_s=0.0, executed=0, cached=0, tasks=0)
    for spec in specs:
        with tracer.span("executor/run_sweep"):
            report = run_sweep(spec, jobs=jobs, cache=cache, plan=plan)
        with tracer.span("aggregate/aggregate_sweep"):
            run.tables.append(aggregate_sweep(report).to_csv())
        run.reports.append(report)
        run.executed += report.executed
        run.cached += report.cached
        run.tasks += len(report.shards)
    run.total_s = time.perf_counter() - started
    return run


def run_sweep_workload(
    size: Size, seed: int, seconds: float, outcome: Outcome, scratch: Path
) -> None:
    """End-to-end run of ``sweep-smoke`` (tracing off).

    Cold passes against fresh caches give ``run_s`` (median).  Every step
    is one warm re-run against the latest filled cache; it must execute
    nothing and reproduce the first cold pass's aggregate tables byte for
    byte.  Warm steps are interleaved with the cold passes, so both sample
    the whole run.
    """
    cold_passes = max(5, int(round(seconds / 2)))
    warm_per_pass = -(-max(MIN_STEPS, int(round(10 * seconds))) // cold_passes)
    # Every pass, cold or warm, starts with a set-up; ``setup_s`` is the
    # median over all of them, spread over the whole run.
    setups: List[float] = []
    colds: List[SweepRun] = []
    warm_times: List[float] = []
    warm_ok = True
    for _ in range(cold_passes):
        cache_root = Path(tempfile.mkdtemp(prefix="cache-", dir=scratch))
        cold = sweep_pass(seed, size, cache_root, NULL_TRACER)
        colds.append(cold)
        setups.append(cold.setup_s)
        outcome.operations(cold.tasks)
        for _ in range(warm_per_pass):
            warm = sweep_pass(seed, size, cache_root, NULL_TRACER)
            warm_times.append(warm.total_s)
            setups.append(warm.setup_s)
            warm_ok = warm_ok and warm.executed == 0 and warm.tables == colds[0].tables
        outcome.operations(warm_per_pass)
        shutil.rmtree(cache_root)

    first = colds[0]
    outcome.check(
        "cold passes execute every task",
        all(run.executed == run.tasks == first.tasks for run in colds),
        [(run.executed, run.tasks) for run in colds],
    )
    outcome.check("cold tables repeat", all(run.tables == first.tables for run in colds))
    outcome.check("warm re-runs execute nothing and match cold tables", warm_ok)
    outcome.counts["executor.tasks"] = first.tasks

    times = np.asarray(warm_times)
    outcome.metric("setup_s", statistics.median(setups), "s")
    outcome.metric("run_s", statistics.median(run.total_s for run in colds), "s")
    outcome.metric("steps_per_s", times.size / float(times.sum()), "1/s")
    outcome.metric("step_ms_p50", 1e3 * float(np.median(times)), "ms")
    outcome.metric("step_ms_p90", 1e3 * float(np.percentile(times, 90)), "ms")
    outcome.metric("peak_rss_mb", peak_rss_mb(include_children=True), "MB")


WORKLOADS: Tuple[str, ...] = tuple(SIM_WORKLOADS) + ("sweep-smoke",)


def run_end_to_end(
    workload: str, size: Size, seed: int, seconds: float, scratch: Path, outcome: Outcome
) -> None:
    """Run one workload with tracing off, recording into ``outcome``."""
    if workload == "sweep-smoke":
        run_sweep_workload(size, seed, seconds, outcome, scratch)
    else:
        run_simulator(SIM_WORKLOADS[workload], size, seed, seconds, outcome)
