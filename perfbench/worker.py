"""One cold pass of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per pass so every module memo (route
tables, plan and scheduler memos, ``calibrate_app``'s memo, vec plan
arrays) starts empty.  Modes:

* ``setup`` -- import the program and generate the point list, then stop;
* ``run``   -- the untraced timed section, then the output check;
* ``trace`` -- the layer-by-layer traced pass (see ``tracing.py``).

The last line of standard output is one JSON object with the pass's
measurements.  ``--spawned`` is the parent's ``time.monotonic()`` just
before it started this interpreter, so ``setup_s`` covers interpreter
start, importing ``repro``, generating the point list and, for
``calib``, creating the empty cache directory.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--profile", default="full")
    parser.add_argument("--expected", type=Path)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import repro.core  # noqa: F401  (part of set-up time)
    import repro.runner

    src = (ROOT / "src").resolve()
    if src not in Path(repro.runner.__file__).resolve().parents:
        print(f"perfbench: repro imported from outside {src}", file=sys.stderr)
        return 2
    prof = wl.profile(args.profile)
    inputs = wl.make_inputs(args.workload, args.seed, prof)
    cache_dir = None
    if args.workload == "calib":
        (OUT_DIR / "tmp").mkdir(parents=True, exist_ok=True)
        cache_dir = Path(tempfile.mkdtemp(prefix="calib-", dir=OUT_DIR / "tmp"))
    try:
        report = measure(args, prof, inputs, cache_dir)
    finally:
        if cache_dir is not None:
            shutil.rmtree(cache_dir, ignore_errors=True)
    print(json.dumps(report))
    return 0


def measure(args, prof, inputs, cache_dir) -> dict:
    t0 = time.monotonic()
    origin = time.perf_counter()
    report = {"setup_s": t0 - args.spawned}
    if args.mode == "setup":
        return report
    expected_file = args.expected or wl.expected_path(args.workload)
    if args.mode == "run":
        from repro.runner import StageCache

        cache = StageCache(cache_dir)
        outputs = wl.run_workload(args.workload, inputs, cache, prof)
        report["wall_s"] = time.monotonic() - t0
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        report["peak_rss_mb"] = peak_kib / 1024
        if args.workload == "calib":
            outputs.update(wl.calib_braids(inputs, cache, prof))
        expected = wl.load_expected(expected_file)
        bad = wl.mismatches(outputs, expected)
        report["sim_cycles"] = wl.sim_cycles(outputs)
        report["attempted"] = len(expected)
    else:
        import tracing as tr

        tracer = tr.Tracer()
        outputs, revived, counts = tr.traced_pass(
            args.workload, inputs, prof, tracer, cache_dir
        )
        wall_s = time.perf_counter() - origin
        spans = OUT_DIR / "trace" / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans, origin)
        expected = wl.load_expected(expected_file)
        bad = wl.mismatches(outputs, expected)
        attempted = len(expected)
        if args.workload == "calib":
            revived_expected = {
                k: v for k, v in expected.items() if not k.startswith("braid/")
            }
            bad += wl.mismatches(revived, revived_expected)
            attempted += len(revived_expected)
        report["metrics"] = tr.layer_metrics(tracer, counts, wall_s)
        report["attempted"] = attempted
    report["failed"] = len(bad)
    report["mismatched"] = bad[:10]
    return report


if __name__ == "__main__":
    sys.exit(main())
