"""Invariants of policies 7 (reservation table) and 8 (program order).

Property tests over Hypothesis-generated plans pin the contracts these
policies are built on:

* a reservation schedule never double-books a link-cycle slot (its
  bookings replay into a fresh :class:`ReservationTable` without
  conflict);
* the achieved initiation interval is never below the link-pressure
  ``ii()`` lower bound;
* no policy, on either engine, opens a segment before all of its op's
  DAG predecessors are done (checked on the engines' decision trace);
* policy 8 on the flat and vec engines equals the seed reference loop;
* both policies yield makespans at or above the plan's
  policy-independent critical path, and the reservation policy's
  simulated schedule length equals the planner's makespan exactly
  (no drops, no adaptive reroutes — periodic issue by construction).

The ``check_sched`` IR pass is exercised both ways: a clean schedule
produces zero diagnostics, and seeded defects (shifted reservations,
lowered ii, truncated schedules) are each flagged as errors.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.ir_checks import check_sched
from repro.network import (
    BraidMesh,
    ReservationTable,
    braidsim_vec,
    build_reservation,
    dependency_matrix,
    ii_lower_bound,
    reservation_schedule,
    scoreboard_matrix,
)
from repro.network.braidsim import BraidSimulator, simulate_plan
from repro.network.plan import BraidPlan
from repro.network.policies import POLICIES
from repro.partition import GridShape, naive_layout
from repro.qasm import Circuit

_MESHES = ((1, 2), (2, 2), (2, 3), (3, 3))


@st.composite
def small_plans(draw):
    """A small random circuit compiled to a BraidPlan on a tiny mesh."""
    rows, cols = draw(st.sampled_from(_MESHES))
    n = draw(st.integers(2, min(6, rows * cols)))
    qubits = [f"q{i}" for i in range(n)]
    with_factory = draw(st.booleans())
    factories = ((rows, 0),) if with_factory else ()
    gates = ("CNOT", "H", "X") + (("T",) if with_factory else ())
    circuit = Circuit(qubits=qubits)
    for _ in range(draw(st.integers(1, 10))):
        gate = draw(st.sampled_from(gates))
        i = draw(st.integers(0, n - 1))
        if gate == "CNOT":
            j = draw(st.integers(0, n - 2))
            if j >= i:
                j += 1
            circuit.apply("CNOT", qubits[i], qubits[j])
        else:
            circuit.apply(gate, qubits[i])
    return BraidPlan.build(
        circuit,
        naive_layout(qubits, GridShape(rows, cols)),
        BraidMesh(rows, cols),
        distance=3,
        factory_routers=factories,
    )


def _fixed_plan():
    qubits = [f"q{i}" for i in range(4)]
    circuit = Circuit(qubits=qubits)
    for i in range(4):
        for j in range(i + 1, 4):
            circuit.apply("CNOT", f"q{i}", f"q{j}")
    return BraidPlan.build(
        circuit,
        naive_layout(qubits, GridShape(2, 2)),
        BraidMesh(2, 2),
        distance=3,
    )


class TestReservationTable:
    """The per-cycle link-slot table primitive."""

    def test_booking_claims_slots(self):
        table = ReservationTable(4)
        assert table.conflict(0, 2, 0b11) == -1
        table.book(0, 2, 0b11)
        assert table.conflict(0, 1, 0b01) == 0
        assert table.conflict(1, 1, 0b10) == 0
        # Disjoint links share the cycle freely.
        assert table.conflict(0, 2, 0b100) == -1

    def test_double_book_raises(self):
        table = ReservationTable(3)
        table.book(1, 1, 0b1)
        with pytest.raises(ValueError):
            table.book(1, 1, 0b1)

    def test_modulo_wraparound_conflicts(self):
        table = ReservationTable(3)
        table.book(0, 1, 0b1)
        # Cycle 3 aliases cycle 0 at ii=3.
        assert table.conflict(3, 1, 0b1) == 0

    def test_window_longer_than_ii_self_overlaps(self):
        table = ReservationTable(2)
        assert table.conflict(0, 3, 0b1) == 0

    def test_empty_mask_never_conflicts(self):
        table = ReservationTable(2)
        table.book(0, 2, 0b11)
        assert table.conflict(0, 5, 0) == -1


def assert_respects_dependencies(plan, trace):
    """No segment opens before all of its op's DAG predecessors are done."""
    predecessors = [[] for _ in range(plan.num_ops)]
    for op, succs in enumerate(plan.successors):
        for succ in succs:
            predecessors[succ].append(op)
    done = set()
    for entry in trace:
        kind, time, op = entry[:3]
        if kind == "done":
            done.add(op)
        elif kind == "open":
            waiting = [p for p in predecessors[op] if p not in done]
            assert not waiting, (
                f"op {op} opened segment {entry[3]} at cycle {time} "
                f"before predecessors {waiting} were done"
            )
    assert len(done) == plan.num_ops


class TestSchedulerProperties:
    """Hypothesis-driven invariants over random small plans."""

    @given(plan=small_plans())
    @settings(max_examples=40, deadline=None)
    def test_reservation_never_double_books(self, plan):
        schedule = build_reservation(plan)
        table = ReservationTable(schedule.ii)
        for op in range(plan.num_ops):
            if not plan.is_braid[op]:
                assert schedule.reserved[op] == ()
                continue
            for seg, cycle in zip(plan.segments[op], schedule.reserved[op]):
                table.book(cycle, seg[2] + 2, seg[5])  # raises on overlap

    @given(plan=small_plans())
    @settings(max_examples=40, deadline=None)
    def test_achieved_ii_at_least_lower_bound(self, plan):
        schedule = build_reservation(plan)
        assert schedule.ii_lower == ii_lower_bound(plan)
        assert schedule.ii >= schedule.ii_lower

    @given(plan=small_plans())
    @settings(max_examples=40, deadline=None)
    def test_makespans_at_least_critical_path(self, plan):
        for policy in (7, 8):
            result = simulate_plan(plan, policy)
            assert result.schedule_length >= plan.critical_path

    @given(plan=small_plans())
    @settings(max_examples=40, deadline=None)
    def test_reservation_sim_matches_planner(self, plan):
        schedule = build_reservation(plan)
        result = simulate_plan(plan, 7)
        assert result.schedule_length == schedule.makespan
        assert result.drops == 0
        assert result.adaptive_routes == 0

    @pytest.mark.parametrize("policy", range(9))
    @given(plan=small_plans())
    @settings(max_examples=20, deadline=None)
    def test_no_open_before_predecessors_done(self, policy, plan):
        engines = [BraidSimulator]
        if braidsim_vec.np is not None:
            engines.append(braidsim_vec.VecBraidSimulator)
        for engine in engines:
            sim = engine(policy=POLICIES[policy], plan=plan)
            sim.trace = []
            sim.run()
            assert_respects_dependencies(plan, sim.trace)

    @given(plan=small_plans())
    @settings(max_examples=40, deadline=None)
    def test_scoreboard_never_selects_blocked_op(self, plan):
        # Policy 8 on each engine equals the seed reference loop, and
        # its trace opens no op before all of its predecessors are done.
        reference = simulate_plan(plan, 8, engine="reference")
        engines = [BraidSimulator]
        if braidsim_vec.np is not None:
            engines.append(braidsim_vec.VecBraidSimulator)
        for engine in engines:
            sim = engine(policy=POLICIES[8], plan=plan)
            sim.trace = []
            assert sim.run() == reference
            assert_respects_dependencies(plan, sim.trace)

    @given(plan=small_plans())
    @settings(max_examples=40, deadline=None)
    def test_matrix_rows_match_in_degrees(self, plan):
        matrix = dependency_matrix(plan)
        for op, row in enumerate(matrix):
            assert row.bit_count() == plan.in_degrees[op]
            assert not row & (1 << op)


class TestSchedMemo:
    """The per-plan memo returns identical artifacts per identity."""

    def test_memo_reuses_per_plan(self):
        plan = _fixed_plan()
        assert reservation_schedule(plan) is reservation_schedule(plan)
        assert scoreboard_matrix(plan) is scoreboard_matrix(plan)


class TestCheckSchedPass:
    """``check_sched`` accepts clean artifacts, flags seeded defects."""

    @pytest.fixture(scope="class")
    def plan(self):
        return _fixed_plan()

    def test_clean_plan_has_no_findings(self, plan):
        assert check_sched(plan) == []

    def _errors(self, plan, **kwargs):
        return [d.format() for d in check_sched(plan, **kwargs)]

    def test_lowered_ii_is_flagged(self, plan):
        schedule = build_reservation(plan)
        bad = dataclasses.replace(schedule, ii=schedule.ii_lower - 1)
        errors = self._errors(plan, schedule=bad)
        assert any("lower bound" in e for e in errors)

    def test_shifted_reservation_is_flagged(self, plan):
        schedule = build_reservation(plan)
        braid = next(
            op for op in range(plan.num_ops) if schedule.reserved[op]
        )
        reserved = list(schedule.reserved)
        cycles = list(reserved[braid])
        cycles[0] += 1
        reserved[braid] = tuple(cycles)
        bad = dataclasses.replace(schedule, reserved=tuple(reserved))
        assert self._errors(plan, schedule=bad)

    def test_truncated_schedule_is_flagged(self, plan):
        schedule = build_reservation(plan)
        bad = dataclasses.replace(
            schedule, reserved=schedule.reserved[:-1]
        )
        errors = self._errors(plan, schedule=bad)
        assert any("covers" in e for e in errors)
