"""Workload definitions shared by the benchmark's worker, recorder and checks.

A workload is generated from a seed, run through the program's public API
and reduced to a JSON-comparable output dictionary keyed by output id:

* ``fig6``  -- the Fig. 6 sweep (4 apps x policies 0-6, d=5) through
  ``SweepRunner.run`` on a memory-only ``StageCache``;
* ``sched`` -- the same 4 apps with only policies 7-8 (reservation table,
  matrix scoreboard), memory-only;
* ``calib`` -- the Figs. 7-9 paper-planes path: ``calibrate_app`` on the
  five Fig. 9 variants into a fresh on-disk ``StageCache``, then
  ``analyze_crossover`` (sq, im) and ``boundary_for_app`` over
  ``sweep_error_rates(per_decade=1)``.

The seed only permutes the order in which points (or calibration
variants) are handed to the program; results and every count must not
depend on it.  The ``tiny`` profile shrinks every workload to the CI
sizes (gse 3, sq 2, im 8, d=3) for the benchmark's own checks.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from pathlib import Path
from typing import Any, Optional

WORKLOADS = ("fig6", "sched", "calib")
PROFILES = ("full", "tiny")

HERE = Path(__file__).resolve().parent
EXPECTED_DIR = HERE / "expected"

FLOAT_REL_TOL = 1e-9
"""Floats must agree to this relative tolerance; ints, strings and None
must agree exactly (so every braid count and cycle is bit-identical)."""


@dataclasses.dataclass(frozen=True)
class Profile:
    apps: tuple[str, ...]
    sizes: dict[str, int]
    distance: int
    calib_variants: tuple[tuple[str, Optional[int]], ...]


def profile(name: str) -> Profile:
    from repro.core import FIGURE9_VARIANTS
    from repro.runner import SMALL_SIM_SIZES

    if name == "full":
        return Profile(
            apps=("gse", "sq", "sha1", "im"),
            sizes=dict(SMALL_SIM_SIZES),
            distance=5,
            calib_variants=FIGURE9_VARIANTS,
        )
    if name == "tiny":
        return Profile(
            apps=("gse", "sq", "im"),
            sizes={"gse": 3, "sq": 2, "im": 8},
            distance=3,
            calib_variants=(("gse", None), ("sq", None), ("im", 0), ("im", None)),
        )
    raise ValueError(f"unknown profile {name!r}; choose from {PROFILES}")


def make_inputs(workload: str, seed: int, prof: Profile) -> list:
    """The workload's point list, permuted by ``seed``.

    ``fig6``/``sched`` yield ``PointSpec``s; ``calib`` yields
    ``(app, inline_depth)`` variants.
    """
    if workload == "calib":
        items = list(prof.calib_variants)
    else:
        from repro.runner import GridSpec

        items = GridSpec(
            apps=prof.apps,
            sizes=prof.sizes,
            policies=tuple(range(7)) if workload == "fig6" else (7, 8),
            distance=prof.distance,
        ).expand()
    random.Random(seed).shuffle(items)
    return items


def point_id(spec) -> str:
    inline = "-" if spec.inline_depth is None else spec.inline_depth
    return f"{spec.app}/{spec.size}/i{inline}/p{spec.policy}/d{spec.distance}"


def variant_id(app: str, inline_depth: Optional[int]) -> str:
    return app if inline_depth is None else f"{app}-inline{inline_depth}"


def jsonable(value: Any) -> Any:
    """Normalize dataclasses/tuples/floats through one JSON round trip."""
    if dataclasses.is_dataclass(value):
        value = dataclasses.asdict(value)
    return json.loads(json.dumps(value))


# ---------------------------------------------------------------------------
# The timed sections


def run_sweep(points: list, cache) -> dict:
    """``fig6``/``sched``: one sweep with every point failure isolated."""
    from repro.runner import SweepRunner

    result = SweepRunner(cache=cache, workers=1, max_failures=None).run(points)
    return {point_id(p.spec): point_output(p) for p in result.points}


def point_output(point) -> dict:
    return jsonable(
        {
            "distance": point.distance,
            "braid": dataclasses.asdict(point.braid),
            "planar": dataclasses.asdict(point.planar),
            "double_defect": dataclasses.asdict(point.double_defect),
        }
    )


def run_calib(variants: list, cache, prof: Profile) -> dict:
    """``calib``: calibrations, Fig. 8 crossovers and Fig. 9 boundaries."""
    from repro.core import (
        analyze_crossover,
        boundary_for_app,
        calibrate_app,
        sweep_error_rates,
    )
    from repro.tech import OPTIMISTIC

    calibrations = {}
    outputs: dict[str, Any] = {}
    for app, inline in variants:
        calibrations[(app, inline)] = calibrate_app(
            app, inline, distance=prof.distance, sim_size=prof.sizes[app], cache=cache
        )
        outputs[f"calibration/{variant_id(app, inline)}"] = jsonable(
            calibrations[(app, inline)]
        )
    for app, inline in variants:
        if inline is None and app in ("sq", "im"):
            analysis = analyze_crossover(
                app, OPTIMISTIC, calibration=calibrations[(app, inline)]
            )
            outputs[f"crossover/{app}"] = jsonable(
                {
                    "crossover_size": analysis.crossover_size,
                    "spacetime_ratios": [p.spacetime_ratio for p in analysis.points],
                }
            )
    rates = sweep_error_rates(per_decade=1)
    for app, inline in variants:
        line = boundary_for_app(
            app,
            inline_depth=inline,
            error_rates=rates,
            calibration=calibrations[(app, inline)],
        )
        outputs[f"boundary/{variant_id(app, inline)}"] = jsonable(
            list(line.crossover_sizes)
        )
    return outputs


def calib_braids(variants: list, cache, prof: Profile) -> dict:
    """The calibration braid results (memory hits after :func:`run_calib`)."""
    from repro.runner.stages import compute_braid

    return {
        f"braid/{variant_id(app, inline)}": jsonable(
            compute_braid(
                cache,
                app,
                prof.sizes[app],
                inline,
                policy=6,
                distance=prof.distance,
                optimize_layout=True,
            )
        )
        for app, inline in variants
    }


def run_workload(workload: str, inputs: list, cache, prof: Profile) -> dict:
    """Run the timed section and return its outputs.

    A point that fails is missing from the outputs, so the output check
    counts it as failed.
    """
    if workload == "calib":
        return run_calib(inputs, cache, prof)
    return run_sweep(inputs, cache)


def sim_cycles(outputs: dict) -> int:
    """Total simulated braid cycles over the workload's simulations."""
    total = 0
    for key, value in outputs.items():
        if key.startswith("braid/"):
            total += value["schedule_length"]
        elif isinstance(value, dict) and "braid" in value:
            total += value["braid"]["schedule_length"]
    return total


# ---------------------------------------------------------------------------
# Output check


def expected_path(workload: str, directory: Path = EXPECTED_DIR) -> Path:
    return Path(directory) / f"{workload}.json"


def load_expected(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))["outputs"]


def same(actual: Any, expected: Any) -> bool:
    if isinstance(expected, bool) or expected is None or isinstance(expected, str):
        return actual == expected and type(actual) is type(expected)
    if isinstance(expected, int):
        return type(actual) is int and actual == expected
    if isinstance(expected, float):
        return isinstance(actual, float) and math.isclose(
            actual, expected, rel_tol=FLOAT_REL_TOL, abs_tol=0.0
        )
    if isinstance(expected, list):
        return (
            isinstance(actual, list)
            and len(actual) == len(expected)
            and all(same(a, e) for a, e in zip(actual, expected))
        )
    if isinstance(expected, dict):
        return (
            isinstance(actual, dict)
            and actual.keys() == expected.keys()
            and all(same(actual[k], expected[k]) for k in expected)
        )
    raise TypeError(f"unexpected value in expected results: {expected!r}")


def mismatches(outputs: dict, expected: dict) -> list[str]:
    """Output ids that are missing, unexpected, or differ from ``expected``."""
    bad = [k for k in expected if k not in outputs or not same(outputs[k], expected[k])]
    bad += [k for k in outputs if k not in expected]
    return sorted(bad)
