"""Timing and grid facts the benchmark reads: per-stage self time from
``SweepRunner``, the ``braid_plan``/``braid_sim`` split, and the fig6 grid."""

from repro.runner import GridSpec, SweepRunner, fig6_grid

TINY = GridSpec(
    apps=("sq",), sizes={"sq": 2}, policies=(0, 6), distance=3
)


class TestGridPresets:
    def test_fig6_preset_is_the_paper_grid(self):
        assert len(fig6_grid().expand()) == 28


class TestTimingAttribution:
    def test_braid_seconds_exclude_frontend(self):
        """Stage seconds are self time: the braid stage's closure pulls
        the frontend through the cache, but its compile time must be
        attributed to the frontend stage."""
        runner = SweepRunner()
        stats = runner.run(TINY).stats
        assert stats.stage_seconds("frontend") > 0
        assert stats.stage_seconds("braid_sim") > 0
        total_children = sum(
            stats.stage_seconds(s)
            for s in ("frontend", "layout", "braid_sim", "simd", "simd_epr",
                      "accounting")
        )
        # The 'point' stage self time is glue, not the whole pipeline.
        assert stats.stage_seconds("point") < total_children


class TestPlanBuildSplit:
    """Plan builds are recorded separately from pure simulation time."""

    def test_braid_plan_split_in_report(self):
        stats = SweepRunner().run(TINY).stats
        # One plan build per point, each its own stage rather than folded
        # into the simulation that uses it.
        assert stats.computed("braid_plan") == 2
        assert stats.computed("braid_sim") == 2
        assert stats.stage_seconds("braid_plan") > 0
        assert stats.stage_seconds("braid_sim") > 0
