"""Golden equivalence: optimized braid simulator vs the seed event loop.

The optimized core (flat event ints, mesh bitmasks, cached routes,
epoch early-outs) must be *bit-identical* to the pre-optimization
simulator preserved in ``repro.network._braidsim_reference`` -- same
schedule lengths, same braid/adaptive/drop counters, same utilization
floats.  These tests sweep every policy over small application
instances -- the CI-sized ``tiny_grid()`` points, through both the
flat and the vec engine -- and over synthetic high-contention circuits
(which exercise adaptive routing and the drop/re-inject path); the
full Figure 6 grid is verified against the reference loop whenever the
benchmark's expected outputs are recorded (``perfbench/record.py``).

The scheduler-family policies (7 reservation-table, 8 matrix-
scoreboard) predate no seed loop to compare against, so their contract
is pinned the other way: a committed golden JSON
(``golden_policy_sched.json``) records their results on a small fixed
grid, and ``TestSchedulerFamilyGolden`` recomputes and compares every
field.  Refactors that change their scheduling decisions must update
the golden file deliberately.
"""

import json
from pathlib import Path

import pytest

from repro.network import (
    BraidMesh,
    BraidSimConfig,
    braidsim_vec,
    simulate_braids,
    simulate_braids_reference,
)
from repro.network.braidsim import simulate_plan
from repro.network.plan import BraidPlan
from repro.partition import GridShape, naive_layout
from repro.qasm import Circuit
from repro.runner import StageCache
from repro.runner.stages import (
    POLICIES,
    compute_braid_plan,
    compute_frontend,
    compute_layout,
)

GOLDEN_PATH = Path(__file__).parent / "golden_policy_sched.json"


def assert_equivalent(circuit, placement, rows, cols, policy, distance,
                      factories=(), config=None, dag=None):
    optimized = simulate_braids(
        circuit, placement, BraidMesh(rows, cols), policy, distance,
        factory_routers=factories, config=config, dag=dag,
    )
    reference = simulate_braids_reference(
        circuit, placement, BraidMesh(rows, cols), policy, distance,
        factory_routers=factories, config=config, dag=dag,
    )
    assert optimized == reference
    return optimized


class TestSyntheticCircuits:
    """Hand-built circuits hitting contention, adaptivity, and drops."""

    @pytest.mark.parametrize("policy", range(7))
    def test_crossing_braids_tiny_mesh(self, policy):
        qubits = [f"q{i}" for i in range(4)]
        placement = naive_layout(qubits, GridShape(2, 2))
        c = Circuit(qubits=qubits)
        # All pairs interact: heavy crossing on a 2x2 mesh.
        for i in range(4):
            for j in range(i + 1, 4):
                c.apply("CNOT", f"q{i}", f"q{j}")
        result = assert_equivalent(c, placement, 2, 2, policy, 3)
        assert result.operations == 6

    @pytest.mark.parametrize("policy", range(7))
    def test_serializing_1x2_mesh_forces_drops(self, policy):
        qubits = ["q0", "q1"]
        placement = naive_layout(qubits, GridShape(1, 2))
        c = Circuit(qubits=qubits)
        for _ in range(6):
            c.apply("CNOT", "q0", "q1")
        config = BraidSimConfig(adaptive_timeout=1, drop_timeout=3)
        assert_equivalent(c, placement, 1, 2, policy, 4, config=config)

    @pytest.mark.parametrize("policy", (0, 1, 5, 6))
    def test_t_gates_with_factories(self, policy):
        qubits = [f"q{i}" for i in range(6)]
        placement = naive_layout(qubits, GridShape(2, 3))
        factories = ((2, 0), (2, 3))
        c = Circuit(qubits=qubits)
        for i in range(6):
            c.apply("T", f"q{i}")
        for i in range(5):
            c.apply("CNOT", f"q{i}", f"q{i + 1}")
        c.apply("H", "q0")
        assert_equivalent(c, placement, 2, 3, policy, 3, factories=factories)


class TestApplicationInstances:
    """Small real instances through the staged pipeline's machines."""

    @pytest.fixture(scope="class")
    def cache(self):
        return StageCache()

    @pytest.mark.parametrize("policy", range(7))
    @pytest.mark.parametrize(
        "app,size", [("sq", 2), ("gse", 3), ("im", 8)]
    )
    def test_policy_grid(self, cache, app, size, policy):
        """Both engines match the seed loop on every tiny-grid point."""
        fe = compute_frontend(cache, app, size, None)
        optimize = POLICIES[policy].optimized_layout
        machine = compute_layout(cache, app, size, None, optimize)
        mesh = BraidMesh(machine.grid.rows, machine.grid.cols)
        reference = simulate_braids_reference(
            machine.circuit, machine.placement, mesh, policy, 3,
            code=machine.code, factory_routers=machine.factory_routers,
            dag=fe.dag,
        )

        plan = compute_braid_plan(cache, app, size, None, optimize, 3)

        def braid(engine):
            return simulate_plan(plan, POLICIES[policy], engine=engine)

        assert braid("flat") == reference
        if braidsim_vec.np is None:
            pytest.skip("vec engine needs the numpy optional extra")
        assert braid("vec") == reference

    @pytest.mark.parametrize(
        "policy,distance",
        [(1, 5), (6, 3)],  # p1/d5 hits adaptive routes, p6/d3 drops
    )
    def test_contended_parallel_app(self, cache, policy, distance):
        """An Ising instance big enough to need adaptivity or drops."""
        fe = compute_frontend(cache, "im", 8, None)
        machine = compute_layout(cache, "im", 8, None, True)
        optimized = machine.simulate(POLICIES[policy], distance, dag=fe.dag)
        mesh = BraidMesh(machine.grid.rows, machine.grid.cols)
        reference = simulate_braids_reference(
            machine.circuit, machine.placement, mesh, policy, distance,
            code=machine.code,
            factory_routers=machine.factory_routers,
            dag=fe.dag,
        )
        assert optimized == reference
        assert optimized.adaptive_routes + optimized.drops > 0, (
            "instance too small to exercise contention handling"
        )


class TestSchedulerFamilyGolden:
    """Policies 7/8 pinned against the committed golden JSON."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))

    @pytest.fixture(scope="class")
    def cache(self):
        return StageCache()

    def _plan(self, cache, app, size):
        fe = compute_frontend(cache, app, size, None)
        machine = compute_layout(cache, app, size, None, True)
        mesh = BraidMesh(machine.grid.rows, machine.grid.cols)
        return BraidPlan.build(
            machine.circuit, machine.placement, mesh, machine.code, 3,
            machine.factory_routers, dag=fe.dag,
        )

    @pytest.mark.parametrize("policy", (7, 8))
    @pytest.mark.parametrize(
        "app,size", [("sq", 2), ("gse", 3), ("im", 8)]
    )
    def test_pinned_results(self, golden, cache, app, size, policy):
        expected = golden[f"{app}[{size}]/d=3/p{policy}"]
        result = simulate_plan(self._plan(cache, app, size), policy)
        actual = {
            "schedule_length": result.schedule_length,
            "critical_path": result.critical_path,
            "operations": result.operations,
            "braids": result.braids,
            "adaptive_routes": result.adaptive_routes,
            "drops": result.drops,
            "mean_utilization": result.mean_utilization,
        }
        assert actual == expected

    def test_golden_covers_contention(self, golden):
        # The grid must keep exercising the scoreboard's drop and
        # adaptive paths, or the pin loses most of its power.
        assert any(
            entry["drops"] or entry["adaptive_routes"]
            for entry in golden.values()
        )
