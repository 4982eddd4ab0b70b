"""The benchmark's traced run: one workload, called layer by layer.

The traced pass follows the paper's Fig. 4 toolflow bottom-up on one
shared ``StageCache``, so each call does exactly one layer's new work:
lowering, frontend analysis, layout, braid plan, scheduler artifacts
(policies 7-8), braid simulation per policy, SIMD schedule, EPR
pipeline, scaling fit, then the analytics.  A final pass runs what the
untraced workload runs over the now-warm cache: the sweep for
``fig6``/``sched`` (its time is ``sweep.overhead_s``), or a revive of
the calibrations from the written cache directory with a fresh
``StageCache`` for ``calib`` (``cache.revive_s``).

Spans are recorded only here, around calls into each layer's public
functions; nothing inside the program is instrumented.  Counters that
need tracing inside the braid engine (open attempts per successful open,
epoch early-outs, wakes) are not measured.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Optional

import workloads as wl

POLICY_RANGE = range(9)


class Tracer:
    """In-memory spans: name, start, end, design-point id and self time.

    A span's self time is its duration minus the time its child spans
    cover; a child inherits its parent's design-point id.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[list] = []  # [child seconds, point id]

    @contextlib.contextmanager
    def span(self, name: str, point: Optional[str] = None):
        if point is None and self._stack:
            point = self._stack[-1][1]
        frame = [0.0, point]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += end - start
            self.spans.append(
                {
                    "name": name,
                    "start": start,
                    "end": end,
                    "point": point,
                    "self_s": end - start - frame[0],
                }
            )

    def self_seconds(self, name: str) -> float:
        return sum(s["self_s"] for s in self.spans if s["name"] == name)

    def seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def write(self, path: Path, origin: float) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": s["name"],
                            "start": s["start"] - origin,
                            "end": s["end"] - origin,
                            "point": s["point"],
                            "self_s": s["self_s"],
                        }
                    )
                    + "\n"
                )


class TimedBackend:
    """Forwards the ``CacheBackend`` protocol, timing ``load`` and ``store``."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def load(self, stage: str, digest: str):
        with self.tracer.span("cache.load"):
            return self.inner.load(stage, digest)

    def store(self, stage: str, digest: str, record: dict) -> bytes:
        with self.tracer.span("cache.store"):
            return self.inner.store(stage, digest, record)


def _unique(items) -> list:
    return list(dict.fromkeys(items))


def design(workload: str, inputs: list, prof: wl.Profile) -> dict:
    """Per-layer call lists for one workload, in first-use order.

    Instances are ``(app, size, inline_depth)``; a simulation is
    ``instance + (optimize_layout, distance, policy)``; an EPR run is
    ``instance + (regions, distance, window)``.
    """
    from repro.apps.scaling import CALIBRATION_SIZES
    from repro.network import POLICIES

    if workload == "calib":
        instances, scaled_apps, sims, eprs = [], [], [], []
        for app, inline in inputs:
            size = prof.sizes[app]
            instances.append((app, size, inline))
            if inline is None:
                scaled_apps.append(app)
            else:
                # calibrate_app fits an inlining variant from the last two
                # calibration sizes of that variant.
                instances += [(app, s, inline) for s in CALIBRATION_SIZES[app][-2:]]
            sims.append((app, size, inline, True, prof.distance, 6))
            eprs.append((app, size, inline, 4, prof.distance, 64))
    else:
        instances = [(p.app, p.size, p.inline_depth) for p in inputs]
        scaled_apps = [p.app for p in inputs]
        sims = [
            (
                p.app,
                p.size,
                p.inline_depth,
                p.optimize_layout
                if p.optimize_layout is not None
                else POLICIES[p.policy].optimized_layout,
                p.distance,
                p.policy,
            )
            for p in inputs
        ]
        eprs = [
            (p.app, p.size, p.inline_depth, p.regions, p.distance, p.window)
            for p in inputs
        ]
    scaled_apps = _unique(scaled_apps)
    calib_lowered = [
        (app, s, None, True) for app in scaled_apps for s in CALIBRATION_SIZES[app]
    ]
    instances = _unique(instances)
    return {
        "lowered": [i + (False,) for i in instances] + calib_lowered,
        "frontends": instances,
        "plans": _unique(s[:5] for s in sims),
        "sims": _unique(sims),
        "eprs": _unique(eprs),
        "scaled_apps": scaled_apps,
    }


def _pid(app, size, inline, *rest) -> str:
    """A span's design-point id: app/size/i<inline>/<the call's other keys>."""
    inline = "-" if inline is None else inline
    return "/".join(map(str, (app, size, f"i{inline}", *rest)))


def traced_pass(
    workload: str,
    inputs: list,
    prof: wl.Profile,
    tracer: Tracer,
    cache_dir: Optional[Path],
) -> tuple[dict, dict, Counter]:
    """Run the workload layer by layer.

    Returns ``(outputs, revived, counts)``: the workload's outputs (as
    the untraced run produces them), the calibrations revived from disk
    (``calib`` only; empty otherwise) and the per-layer work counters.
    """
    from repro.network import reservation_schedule, scoreboard_matrix
    from repro.runner import StageCache, default_backend
    from repro.runner import stages

    backend = None
    if cache_dir is not None:
        backend = TimedBackend(default_backend(cache_dir), tracer)
    cache = StageCache(backend=backend)
    calls = design(workload, inputs, prof)
    counts: Counter = Counter()
    span = tracer.span

    for app, size, inline, scaling in calls["lowered"]:
        kind = "scaling" if scaling else "sim"
        with span("frontend.lower", _pid(app, size, inline, kind)):
            circuit = stages.compute_lowered(cache, app, size, inline, scaling=scaling)
        counts["frontend.ops"] += len(circuit)
    for app, size, inline in calls["frontends"]:
        with span("frontend.analyze", _pid(app, size, inline)):
            stages.compute_frontend(cache, app, size, inline)
    for app, size, inline, opt in _unique(p[:4] for p in calls["plans"]):
        with span("layout", _pid(app, size, inline, opt)):
            stages.compute_layout(cache, app, size, inline, opt)
    plans, plan_segments = {}, {}
    for key in calls["plans"]:
        app, size, inline, opt, distance = key
        with span("plan.build", _pid(*key)):
            plans[key] = stages.compute_braid_plan(
                cache, app, size, inline, opt, distance
            )
        plan_segments[key] = sum(len(segs) for segs in plans[key].segments)
    counts["plan.segments"] = sum(plan_segments.values())
    for key in _unique(s[:5] for s in calls["sims"] if s[5] == 7):
        with span("sched.reservation", _pid(*key)):
            schedule = reservation_schedule(plans[key])
        counts["sched.ii"] += schedule.ii
        counts["sched.ii_lower"] += schedule.ii_lower
    for key in _unique(s[:5] for s in calls["sims"] if s[5] == 8):
        with span("sched.scoreboard", _pid(*key)):
            matrix = scoreboard_matrix(plans[key])
        counts["sched.matrix_bits"] += sum(row.bit_length() for row in matrix)
    for app, size, inline, opt, distance, policy in calls["sims"]:
        key = (app, size, inline, opt, distance)
        with span(f"braid.sim.p{policy}", _pid(*key, policy)):
            result = stages.compute_braid(
                cache, app, size, inline, policy=policy, distance=distance,
                optimize_layout=opt,
            )
        counts["braid.braids"] += result.braids
        counts["braid.adaptive_routes"] += result.adaptive_routes
        counts["braid.drops"] += result.drops
        counts["braid.cycles"] += result.schedule_length
        counts["braid.plan_segments"] += plan_segments[key]
    for app, size, inline, regions in _unique(e[:4] for e in calls["eprs"]):
        with span("simd.schedule", _pid(app, size, inline, regions)):
            stages.compute_simd(cache, app, size, inline, regions)
    for app, size, inline, regions, distance, window in calls["eprs"]:
        with span("epr.pipeline", _pid(app, size, inline, regions, distance)):
            epr = stages.compute_epr(
                cache, app, size, inline, regions, distance, window
            )
        counts["epr.pairs"] += epr.total_pairs
        counts["epr.stall_cycles"] += epr.stall_cycles
    for app in calls["scaled_apps"]:
        with span("model.scaling", app):
            stages.compute_scaling(cache, app)

    revived: dict = {}
    if workload == "calib":
        with span("model.accounting", "all"):
            outputs = wl.run_calib(inputs, cache, prof)
        outputs.update(wl.calib_braids(inputs, cache, prof))
        with span("cache.revive", "all"):
            revived = wl.run_calib(inputs, StageCache(backend=backend), prof)
        counts["cache.bytes_raw"] = backend.raw_bytes_written
        counts["cache.bytes_stored"] = backend.stored_bytes_written
    else:
        for p in inputs:
            fe = stages.compute_frontend(cache, p.app, p.size, p.inline_depth)
            braid = stages.compute_braid(
                cache, p.app, p.size, p.inline_depth, policy=p.policy,
                distance=p.distance, optimize_layout=p.optimize_layout,
            )
            pid = _pid(p.app, p.size, p.inline_depth, p.policy)
            with span("model.accounting", pid):
                stages.compute_accounting(
                    cache,
                    p.app,
                    fe.logical.computation_size,
                    p.technology(),
                    congestion=max(1.0, braid.schedule_to_critical_ratio),
                )
        before = dict(cache.stats.misses)
        with span("sweep", "all"):
            outputs = wl.run_sweep(inputs, cache)
        counts["sweep.points"] = len(outputs)
        # Only the point composition should be new work here; anything else
        # means the layer calls above missed a stage and its time is misfiled.
        recomputed = {
            stage: n - before.get(stage, 0)
            for stage, n in cache.stats.misses.items()
            if stage != "point" and n != before.get(stage, 0)
        }
        if recomputed:
            print(f"perfbench: sweep recomputed stages {recomputed}", file=sys.stderr)
    counts["layout.builds"] = cache.stats.misses.get("layout", 0)
    counts["plan.builds"] = cache.stats.misses.get("braid_plan", 0)
    return outputs, revived, counts


def layer_metrics(tracer: Tracer, counts: Counter, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass (self times in seconds)."""
    s = tracer.self_seconds
    sim_by_policy = {p: s(f"braid.sim.p{p}") for p in POLICY_RANGE}
    sim_s = sum(sim_by_policy.values())
    lower_s = s("frontend.lower")
    braids = counts["braid.braids"]
    cycles = counts["braid.cycles"]
    return {
        "frontend.lower_s": lower_s,
        "frontend.analyze_s": s("frontend.analyze"),
        "frontend.ops": counts["frontend.ops"],
        "frontend.ops_per_s": counts["frontend.ops"] / lower_s if lower_s else 0.0,
        "layout.s": s("layout"),
        "layout.builds": counts["layout.builds"],
        "plan.build_s": s("plan.build"),
        "plan.builds": counts["plan.builds"],
        "plan.segments": counts["plan.segments"],
        "sched.reservation_s": s("sched.reservation"),
        "sched.scoreboard_s": s("sched.scoreboard"),
        "sched.ii": counts["sched.ii"],
        "sched.ii_lower": counts["sched.ii_lower"],
        "sched.matrix_bits": counts["sched.matrix_bits"],
        "braid.sim_s": sim_s,
        **{f"braid.sim_s.p{p}": v for p, v in sim_by_policy.items()},
        "braid.braids": braids,
        "braid.segments_per_open": counts["braid.plan_segments"] / braids
        if braids
        else 0.0,
        "braid.adaptive_routes": counts["braid.adaptive_routes"],
        "braid.drops": counts["braid.drops"],
        "braid.host_us_per_cycle": sim_s * 1e6 / cycles if cycles else 0.0,
        "simd.schedule_s": s("simd.schedule"),
        "epr.pipeline_s": s("epr.pipeline"),
        "epr.pairs": counts["epr.pairs"],
        "epr.stall_cycles": counts["epr.stall_cycles"],
        "model.scaling_s": s("model.scaling"),
        "model.accounting_s": s("model.accounting"),
        "cache.store_s": s("cache.store"),
        "cache.load_s": s("cache.load"),
        "cache.stores": tracer.calls("cache.store"),
        "cache.loads": tracer.calls("cache.load"),
        "cache.bytes_raw": counts["cache.bytes_raw"],
        "cache.bytes_stored": counts["cache.bytes_stored"],
        "cache.revive_s": tracer.seconds("cache.revive"),
        "sweep.overhead_s": tracer.seconds("sweep"),
        "sweep.points": counts["sweep.points"],
        "trace.wall_s": wall_s,
        "trace.unattributed_s": wall_s - sum(span["self_s"] for span in tracer.spans),
    }
