"""Shared braid simulation plans: golden equivalence, immutability, memo.

The plan refactor moves every policy-independent setup product (tasks,
prebound routes, DAG arrays, critical path) out of the simulator into a
:class:`~repro.network.plan.BraidPlan` shared by all seven policies of
a design point.  These tests pin three contracts:

* a plan-backed simulation is bit-identical to the reference loop for
  every policy (the plan must not observable-change anything);
* a plan's arrays are *unchanged* after simulations run from it (the
  mutation guard hashes them before and after);
* the process-wide memo builds one plan per design point and validates
  placement identity on hits;
* the one-pass builder lowers every op exactly as
  :func:`~repro.network.events.build_tasks` (the reference loop's
  lowering) does, errors included.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import (
    BraidMesh,
    BraidSimConfig,
    BraidSimulator,
    braid_plan,
    build_tasks,
    plan_memo_stats,
    reset_plan_memo,
    simulate_braids,
    simulate_braids_reference,
    simulate_plan,
)
from repro.network.plan import DEFAULT_MAX_DETOUR, BraidPlan
from repro.network.routing import route_table
from repro.partition import GridShape, Placement, naive_layout
from repro.qasm import Circuit, CircuitDag
from repro.qec.codes import DOUBLE_DEFECT, PLANAR
from repro.runner import StageCache
from repro.runner.stages import POLICIES, compute_frontend, compute_layout


def _contended_instance(cache):
    """A small real machine with enough contention to matter."""
    fe = compute_frontend(cache, "sq", 2, None)
    machine = compute_layout(cache, "sq", 2, None, True)
    return fe, machine


class TestPlanGolden:
    """One shared plan, all seven policies, bit-identical results."""

    @pytest.fixture(scope="class")
    def cache(self):
        return StageCache()

    @pytest.fixture(scope="class")
    def shared(self, cache):
        fe, machine = _contended_instance(cache)
        return machine, machine.plan(3, dag=fe.dag)

    @pytest.mark.parametrize("policy", range(7))
    def test_plan_backed_matches_reference(self, shared, policy):
        machine, plan = shared
        optimized = simulate_plan(plan, policy)
        mesh = BraidMesh(machine.grid.rows, machine.grid.cols)
        reference = simulate_braids_reference(
            machine.circuit, machine.placement, mesh, policy, 3,
            code=machine.code, factory_routers=machine.factory_routers,
            dag=plan.dag,
        )
        assert optimized == reference

    @pytest.mark.parametrize("policy", range(7))
    def test_synthetic_contention_from_shared_plan(self, policy):
        qubits = [f"q{i}" for i in range(4)]
        placement = naive_layout(qubits, GridShape(2, 2))
        c = Circuit(qubits=qubits)
        for i in range(4):
            for j in range(i + 1, 4):
                c.apply("CNOT", f"q{i}", f"q{j}")
        config = BraidSimConfig(adaptive_timeout=1, drop_timeout=3)
        plan = BraidPlan.build(
            c, placement, BraidMesh(2, 2), distance=3,
            max_detour=config.max_detour,
        )
        optimized = simulate_plan(plan, policy, config=config)
        reference = simulate_braids_reference(
            c, placement, BraidMesh(2, 2), policy, 3, config=config
        )
        assert optimized == reference


class TestPlanImmutability:
    def _fingerprint(self, plan):
        # criticality() materializes lazily on first use; force it first
        # so the fingerprint covers the array the policies share.
        return hash((
            plan.is_braid,
            plan.route_length,
            plan.segments,
            plan.in_degrees,
            plan.successors,
            plan.sources,
            plan.critical_path,
            tuple(plan.criticality()),
            plan.local_cycles,
        ))

    def test_shared_plan_unchanged_across_policies(self):
        cache = StageCache()
        fe, machine = _contended_instance(cache)
        plan = machine.plan(3, dag=fe.dag)
        before = self._fingerprint(plan)
        first = [simulate_plan(plan, p) for p in (0, 4, 5, 6)]
        assert self._fingerprint(plan) == before
        # Re-running from the same plan reproduces the results exactly:
        # nothing per-run leaked into the shared arrays.
        again = [simulate_plan(plan, p) for p in (0, 4, 5, 6)]
        assert first == again

    def test_plan_rejects_attribute_mutation(self):
        cache = StageCache()
        fe, machine = _contended_instance(cache)
        plan = machine.plan(3, dag=fe.dag)
        with pytest.raises(AttributeError):
            plan.critical_path = 0

    def test_plan_rejects_mismatched_detour_config(self):
        cache = StageCache()
        fe, machine = _contended_instance(cache)
        plan = machine.plan(3, dag=fe.dag)
        with pytest.raises(ValueError, match="max_detour"):
            BraidSimulator(
                policy=POLICIES[6],
                plan=plan,
                config=BraidSimConfig(max_detour=2),
            )


class TestPlanMemo:
    def test_simulate_braids_shares_one_build(self):
        reset_plan_memo()
        qubits = ["a", "b", "c", "d"]
        placement = naive_layout(qubits, GridShape(2, 2))
        c = Circuit(qubits=qubits)
        for i in range(3):
            c.apply("CNOT", qubits[i], qubits[i + 1])
        for policy in range(7):
            simulate_braids(c, placement, BraidMesh(2, 2), policy, 3)
        stats = plan_memo_stats()
        assert stats["builds"] == 1
        assert stats["hits"] == 6
        # A different distance is a different plan.
        simulate_braids(c, placement, BraidMesh(2, 2), 6, 5)
        assert plan_memo_stats()["builds"] == 2

    def test_distinct_placements_do_not_alias(self):
        reset_plan_memo()
        qubits = ["a", "b", "c", "d"]
        c = Circuit(qubits=qubits)
        c.apply("CNOT", "a", "b")
        p1 = naive_layout(qubits, GridShape(2, 2))
        p2 = naive_layout(list(reversed(qubits)), GridShape(2, 2))
        r1 = simulate_braids(c, p1, BraidMesh(2, 2), 6, 3)
        r2 = simulate_braids(c, p2, BraidMesh(2, 2), 6, 3)
        assert plan_memo_stats()["builds"] == 2
        ref1 = simulate_braids_reference(c, p1, BraidMesh(2, 2), 6, 3)
        ref2 = simulate_braids_reference(c, p2, BraidMesh(2, 2), 6, 3)
        assert (r1, r2) == (ref1, ref2)

    def test_machine_plan_memoizes_per_distance(self):
        reset_plan_memo()
        cache = StageCache()
        fe, machine = _contended_instance(cache)
        plan_a = machine.plan(3, dag=fe.dag)
        plan_b = machine.plan(3, dag=fe.dag)
        plan_c = machine.plan(5, dag=fe.dag)
        assert plan_a is plan_b
        assert plan_c is not plan_a
        stats = plan_memo_stats()
        assert stats["builds"] == 2 and stats["hits"] == 1

    def test_reset_clears_counters_and_entries(self):
        reset_plan_memo()
        stats = plan_memo_stats()
        assert stats["builds"] == 0
        assert stats["hits"] == 0
        assert stats["plans"] == 0
        assert stats["capacity"] >= 8  # a Fig. 6 sweep's working set

    def test_memo_is_lru_bounded(self):
        from repro.network import plan as plan_module

        reset_plan_memo()
        qubits = ["a", "b"]
        placement = naive_layout(qubits, GridShape(1, 2))
        c = Circuit(qubits=qubits)
        c.apply("CNOT", "a", "b")
        for distance in range(1, plan_module.PLAN_MEMO_CAPACITY + 4):
            braid_plan(c, placement, BraidMesh(1, 2), distance=distance)
        stats = plan_memo_stats()
        assert stats["plans"] == plan_module.PLAN_MEMO_CAPACITY
        assert stats["builds"] == plan_module.PLAN_MEMO_CAPACITY + 3

    def test_mutating_a_planned_circuit_fails_loudly(self):
        reset_plan_memo()
        qubits = ["a", "b", "c"]
        placement = naive_layout(qubits, GridShape(1, 3))
        c = Circuit(qubits=qubits)
        c.apply("CNOT", "a", "b")
        first = simulate_braids(c, placement, BraidMesh(1, 3), 6, 3)
        assert first.operations == 1
        c.apply("CNOT", "b", "c")
        with pytest.raises(ValueError, match="changed length"):
            simulate_braids(c, placement, BraidMesh(1, 3), 6, 3)

    def test_explicit_plan_with_wrong_distance_rejected(self):
        cache = StageCache()
        fe, machine = _contended_instance(cache)
        plan = machine.plan(3, dag=fe.dag)
        with pytest.raises(ValueError, match="distance"):
            machine.simulate(6, 9, plan=plan)
        with pytest.raises(ValueError, match="distance"):
            BraidSimulator(policy=POLICIES[6], distance=9, plan=plan)


# ---------------------------------------------------------------------------
# The one-pass builder against the build_tasks oracle

ONE_QUBIT = ["H", "X", "Z", "S", "SDG", "PREPZ", "MEASZ", "T", "TDG"]
TWO_QUBIT = ["CNOT", "CZ", "SWAP"]


def plan_from_tasks(circuit, placement, mesh, code, distance, factories):
    """The plan arrays re-derived from ``build_tasks``' per-op objects."""
    tasks = build_tasks(circuit, placement, mesh, code, distance, factories)
    routes = route_table(mesh.rows, mesh.cols, DEFAULT_MAX_DETOUR)
    successors = CircuitDag(circuit).successor_tuples()
    start = [0] * len(tasks)
    critical = 0
    for task in tasks:
        finish = start[task.index] + task.busy_cycles
        critical = max(critical, finish)
        for succ in successors[task.index]:
            start[succ] = max(start[succ], finish)
    return {
        "is_braid": tuple(t.is_braid for t in tasks),
        "route_length": tuple(
            t.route_length if t.is_braid else 0 for t in tasks
        ),
        "segments": tuple(
            tuple(
                (s.src, s.dst, s.hold, s.min_length, *routes.dor(s.src, s.dst))
                for s in t.segments
            )
            for t in tasks
        ),
        "local_cycles": tuple(t.local_cycles for t in tasks),
        "critical_path": critical,
    }


@st.composite
def design_points(draw):
    rows = draw(st.integers(min_value=1, max_value=3))
    cols = draw(st.integers(min_value=1, max_value=3))
    grid = GridShape(rows, cols)
    count = draw(st.integers(min_value=2, max_value=max(2, rows * cols)))
    sites = draw(st.permutations(grid.sites()))
    qubits = [f"q{i}" for i in range(count)]
    if count > len(sites):  # a 1x1 grid holds one qubit
        grid = GridShape(1, 2)
        sites = grid.sites()
    placement = Placement(grid, dict(zip(qubits, sites)))
    circuit = Circuit(name="gen", qubits=qubits)
    for _ in range(draw(st.integers(min_value=0, max_value=25))):
        if draw(st.booleans()):
            circuit.apply(
                draw(st.sampled_from(ONE_QUBIT)), draw(st.sampled_from(qubits))
            )
        else:
            a, b = draw(
                st.lists(
                    st.sampled_from(qubits), min_size=2, max_size=2,
                    unique=True,
                )
            )
            circuit.apply(draw(st.sampled_from(TWO_QUBIT)), a, b)
    mesh = BraidMesh(grid.rows, grid.cols)
    routers = [
        (r, c)
        for r in range(mesh.router_rows)
        for c in range(mesh.router_cols)
    ]
    factories = tuple(
        draw(st.lists(st.sampled_from(routers), max_size=3, unique=True))
    )
    code = draw(st.sampled_from([DOUBLE_DEFECT, PLANAR]))
    distance = draw(st.integers(min_value=1, max_value=7))
    return circuit, placement, mesh, code, distance, factories


@settings(max_examples=150, deadline=None)
@given(point=design_points())
def test_one_pass_plan_matches_build_tasks(point):
    circuit, placement, mesh, code, distance, factories = point
    try:
        expected = plan_from_tasks(*point)
    except ValueError as error:  # a T with no factory router
        with pytest.raises(ValueError) as caught:
            BraidPlan.build(circuit, placement, mesh, code, distance, factories)
        assert str(caught.value) == str(error)
        return
    plan = BraidPlan.build(circuit, placement, mesh, code, distance, factories)
    actual = {name: getattr(plan, name) for name in expected}
    assert actual == expected


def test_equidistant_factories_tie_break_by_router():
    qubits = ["a", "b"]
    placement = Placement(GridShape(2, 2), {"a": (1, 1), "b": (0, 0)})
    c = Circuit(qubits=qubits)
    c.apply("T", "a")
    mesh = BraidMesh(2, 2)
    factories = ((2, 1), (1, 2), (1, 0), (0, 1))  # all one hop from (1, 1)
    plan = BraidPlan.build(c, placement, mesh, distance=3,
                           factory_routers=factories)
    assert plan.segments[0][0][:2] == ((0, 1), (1, 1))
    assert plan.segments == plan_from_tasks(
        c, placement, mesh, DOUBLE_DEFECT, 3, factories
    )["segments"]


def _composite_circuit():
    c = Circuit(qubits=["a", "b", "c"])
    c.apply("CNOT", "a", "b")
    c.apply("TOFFOLI", "a", "b", "c")
    return c


def _t_circuit():
    c = Circuit(qubits=["a", "b", "c"])
    c.apply("TOFFOLI", "a", "b", "c")  # the factory error comes first
    c.apply("T", "c")
    return c


@pytest.mark.parametrize(
    "circuit, distance, factories",
    [
        (_composite_circuit(), 3, ((0, 0),)),
        (_composite_circuit(), 0, ((0, 0),)),
        (_t_circuit(), 3, ()),
    ],
    ids=["composite", "distance", "no-factory"],
)
def test_errors_match_build_tasks(circuit, distance, factories):
    placement = naive_layout(["a", "b", "c"], GridShape(2, 2))
    mesh = BraidMesh(2, 2)
    with pytest.raises(ValueError) as oracle:
        build_tasks(circuit, placement, mesh, DOUBLE_DEFECT, distance,
                    factories)
    with pytest.raises(ValueError) as caught:
        BraidPlan.build(circuit, placement, mesh, DOUBLE_DEFECT, distance,
                        factories)
    assert str(caught.value) == str(oracle.value)
