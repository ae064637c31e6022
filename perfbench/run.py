"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload market-static-100k --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints every end-to-end
metric; ``--trace 1`` runs the traced layer survey and prints every
per-layer metric.  Every line before the last is for people; the last
line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Outputs (span traces, result history and the
count ledger) go to ``perfbench/.out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Dict, Optional

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = ROOT / "perfbench" / ".out"
WORKLOADS = ("market-static-100k", "market-churn-10k", "stream-10k", "sweep-smoke")


def parse_args(argv: Optional[list] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="population sizes; 'tiny' is for the benchmark's own tests",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    return parser.parse_args(argv)


def prepare_environment(out: Path) -> None:
    """Single-threaded numerics, the checkout's sources, temp files inside ``out``."""
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    scratch = out / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def machine() -> Dict[str, object]:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


class CountLedger:
    """Exact counts per (workload, size, seed, seconds, code) across runs.

    The first run of a key records its counts; every later run must
    reproduce them exactly.  The key includes the fingerprint of the
    ``repro`` sources, so an edited program starts a fresh entry.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        try:
            self.entries = json.loads(path.read_text(encoding="utf-8"))
        except (FileNotFoundError, json.JSONDecodeError):
            self.entries = {}

    def compare(self, key: str, counts: Dict[str, int]) -> Optional[str]:
        """Record ``counts`` under ``key``; return a mismatch message, if any."""
        known = self.entries.setdefault(key, {})
        mismatched = {
            name: (known[name], value)
            for name, value in counts.items()
            if name in known and known[name] != value
        }
        for name, value in counts.items():
            known.setdefault(name, value)
        temporary = self.path.with_suffix(".tmp")
        temporary.write_text(json.dumps(self.entries, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(temporary, self.path)
        return f"expected vs got: {mismatched}" if mismatched else None


def run(args: argparse.Namespace) -> Dict[str, object]:
    """Run the requested workload; returns the result object."""
    from repro.runner import code_fingerprint

    from perfbench.workloads import SIZES, Outcome, run_end_to_end

    size = SIZES[args.size]
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out / "tmp"))
    outcome = Outcome()
    try:
        if args.trace:
            from perfbench.layers import survey

            survey(args.workload, size, args.seed, scratch, args.out, machine(), outcome)
        else:
            run_end_to_end(args.workload, size, args.seed, args.seconds, scratch, outcome)
    except Exception:  # noqa: BLE001 - a raised operation is reported, not fatal
        traceback.print_exc()
        outcome.attempted += 1
        outcome.failed += 1
        outcome.failures.append("an operation raised (traceback above)")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    key = "|".join(
        (args.workload, args.size, str(args.seed), repr(args.seconds),
         "trace" if args.trace else "e2e", code_fingerprint()[:16])
    )
    mismatch = CountLedger(args.out / "counts.json").compare(key, outcome.counts)
    if mismatch is not None:
        outcome.check("exact counts repeat across runs of one seed", False, mismatch)

    for name, (value, unit) in outcome.metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    for name, value in sorted(outcome.counts.items()):
        print(f"count {name}: {value}")
    ratio = outcome.failed / max(outcome.attempted, 1)
    print(f"failed_ratio: {ratio:.6g} ({outcome.failed}/{outcome.attempted})")
    for failure in outcome.failures:
        print(f"FAILED {failure}")
    env = machine()
    print("env: " + json.dumps(env, sort_keys=True))
    result = {
        "correct": outcome.failed == 0,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "env": env, "time": time.time(),
              "result": result}
    with open(args.out / "results.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    return result


def main(argv: Optional[list] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program sources at {ROOT / 'src' / 'repro'}; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    args.out = args.out.resolve()
    prepare_environment(args.out)
    result = run(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
