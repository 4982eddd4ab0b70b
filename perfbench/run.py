"""Benchmark entry point: cold end-to-end runs or one traced run of a workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload {fig6,sched,calib} --seed N \\
        --seconds S --trace {0,1}

With ``--trace 0`` it starts ``worker.py`` in a fresh interpreter a few
times for set-up only, then once per cold pass until ``--seconds`` is
used up (at least one pass), and reports the ``end_to_end`` metrics of
``BENCHMARK.json`` as medians over the passes.  With ``--trace 1`` it
runs one untraced pass and one traced pass and reports the
``per_layer`` metrics, including the tracing overhead.  Every pass
checks its outputs against ``perfbench/expected/<workload>.json``.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is non-zero, with no result line, when the
program's source is missing or a pass crashes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
RUN_LIMIT_S = 175
"""Every pass must end this long after the run starts (the run's limit is 180 s)."""


class PassFailed(RuntimeError):
    pass


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("fig6", "sched", "calib"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--profile", default="full", help="'tiny' shrinks every workload (checks only)"
    )
    parser.add_argument(
        "--expected-dir", type=Path, default=HERE / "expected",
        help="directory of the recorded <workload>.json results",
    )
    return parser.parse_args(argv)


def child_env() -> dict:
    """A clean environment: no program switches, the checkout's source."""
    env = {
        k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "REPRO"))
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(mode: str, args: argparse.Namespace, env: dict) -> dict:
    """Start one worker interpreter and return its JSON report."""
    timeout = args.deadline - time.monotonic()
    command = [
        sys.executable, str(HERE / "worker.py"), mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--profile", args.profile,
        "--expected", str(args.expected_dir / f"{args.workload}.json"),
    ]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            command + ["--spawned", repr(spawned)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise PassFailed(
            f"{mode} pass did not end within {RUN_LIMIT_S} s of the run"
        ) from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"{mode} pass exited with code {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(args: argparse.Namespace, env: dict) -> tuple[dict, list[dict]]:
    setups = [run_pass("setup", args, env)["setup_s"] for _ in range(SETUP_SAMPLES)]
    start = time.monotonic()
    passes = [run_pass("run", args, env)]
    while True:
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(passes) > args.seconds:
            break
        passes.append(run_pass("run", args, env))
    cycles = {p["sim_cycles"] for p in passes}
    if len(cycles) != 1:
        # A deterministic count that moves between passes is a wrong output.
        passes[0]["failed"] += 1
        passes[0]["mismatched"].append(
            f"sim_cycles differ across passes: {sorted(cycles)}"
        )
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "sim_cycles": passes[0]["sim_cycles"],
    }
    return metrics, passes


def traced(args: argparse.Namespace, env: dict) -> tuple[dict, list[dict]]:
    base = run_pass("run", args, env)
    trace = run_pass("trace", args, env)
    metrics = trace["metrics"]
    # The traced pass ends with one extra pass over the warm cache (the
    # sweep, or the calib revive); the rest is the untraced workload's work.
    layered = (
        metrics["trace.wall_s"]
        - metrics["sweep.overhead_s"]
        - metrics["cache.revive_s"]
    )
    metrics["trace.overhead_s"] = layered - base["wall_s"]
    return metrics, [base, trace]


def main(argv=None) -> int:
    args = parse_args(argv)
    args.deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source in {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    env = child_env()
    try:
        metrics, passes = (traced if args.trace else end_to_end)(args, env)
    except PassFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"passes={len(passes)}"
    )
    for m in wanted:
        print(f"  {m['name']:<26} {metrics[m['name']]:>16.6g} {m['unit']}")
    print(f"  {'failed_frac':<26} {failed / attempted:>16.6g} ({failed}/{attempted})")
    for p in passes:
        for ident in p["mismatched"]:
            print(f"  wrong output: {ident}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
