"""Figure 6: braid scheduling policies 0-6 across the four applications.

The sweep runs through :class:`repro.runner.SweepRunner`, which splits
the pipeline into cached stages: every application's frontend is
compiled exactly once for all seven policies, and each braid plan once
per layout, where an equivalent per-point loop rebuilds both for every
point (asserted below from exact cache-stat stage counts; timing
belongs in ``perfbench/``).

Paper claims reproduced and asserted here:

* Parallel apps (SHA-1, IM) start far above the critical path under
  Policy 0 and improve substantially by Policy 6 (paper: ~12x down to
  ~1.7x, up to ~7x improvement).
* Serial apps (GSE, SQ) sit near the critical path for all policies.
* Mesh utilization rises with better policies (paper: up to ~22%).
"""

import pytest

from repro.runner import GridSpec, StageCache, SweepRunner, fig6_grid, run_point
from repro.runner.report import render_fig6


@pytest.fixture(scope="module")
def fig6_sweep(fig6_sim_sizes):
    return SweepRunner().run(fig6_grid(fig6_sim_sizes))


@pytest.fixture(scope="module")
def fig6_results(fig6_sweep):
    results = {}
    for point in fig6_sweep.points:
        results.setdefault(point.spec.app, {})[point.spec.policy] = (
            point.braid
        )
    return results


def test_fig6_frontend_compiled_exactly_once_per_app(fig6_sweep, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    stats = fig6_sweep.stats
    assert len(fig6_sweep.points) == 28, "4 apps x 7 policies"
    assert stats.computed("frontend") == 4, (
        f"each app's frontend must compile exactly once: {stats.as_dict()}"
    )
    assert stats.reused("frontend") >= 24
    assert stats.computed("braid_sim") == 28, "one braid sim per point"
    # The EPR pipeline does not depend on the braid policy, so it too
    # runs exactly once per app.
    assert stats.computed("simd_epr") == 4


def test_fig6_sweep_dedups_per_point_loop(benchmark):
    """The sweep shares stages that an uncached per-point loop repeats."""
    grid = GridSpec(
        apps=("sq",), sizes={"sq": 3}, policies=tuple(range(7)), distance=5
    )
    specs = grid.expand()

    loop_plans = loop_frontends = 0
    for spec in specs:
        cache = StageCache()
        run_point(spec, cache)
        loop_plans += cache.stats.computed("braid_plan")
        loop_frontends += cache.stats.computed("frontend")
    assert (loop_plans, loop_frontends) == (7, 7)

    sweep = benchmark.pedantic(
        SweepRunner().run, args=(grid,), rounds=1, iterations=1
    )
    # One plan per layout: naive for policies 0-1, optimized for 2-6.
    assert sweep.stats.computed("braid_plan") == 2, sweep.stats.as_dict()
    assert sweep.stats.computed("frontend") == 1, sweep.stats.as_dict()


def test_fig6_serial_apps_near_critical_path(fig6_results, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for app in ("gse", "sq"):
        for policy in range(1, 7):
            ratio = fig6_results[app][policy].schedule_to_critical_ratio
            assert ratio < 2.0, f"{app} policy {policy}: ratio {ratio}"


def test_fig6_parallel_apps_improve(fig6_results, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for app in ("sha1", "im"):
        base = fig6_results[app][0].schedule_to_critical_ratio
        best = min(
            fig6_results[app][p].schedule_to_critical_ratio
            for p in range(1, 7)
        )
        assert base > 2.0, f"{app}: policy 0 should be contention-bound"
        assert best < base / 1.5, (
            f"{app}: best policy must improve >= 1.5x over policy 0 "
            f"(got {base:.2f} -> {best:.2f})"
        )


def test_fig6_utilization_rises(fig6_results, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for app in ("sha1", "im"):
        u0 = fig6_results[app][0].mean_utilization
        u_best = max(
            fig6_results[app][p].mean_utilization for p in range(1, 7)
        )
        assert u_best > u0, f"{app}: utilization should rise with policies"


def test_fig6_print_table(fig6_sweep, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print("\n" + "=" * 64)
    print("FIGURE 6 -- Braid policy sweep (schedule/CP ratio, utilization)")
    print("=" * 64)
    print(render_fig6(fig6_sweep.points))
    print(f"[cache] {fig6_sweep.stats.summary()}")
