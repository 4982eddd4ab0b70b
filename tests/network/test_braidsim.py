"""Tests for the braid schedule simulator and policies."""

import pytest

from repro.frontend import decompose_circuit
from repro.network import (
    ALL_POLICIES,
    POLICIES,
    BraidMesh,
    BraidSimConfig,
    build_tasks,
    simulate_braids,
    simulate_braids_reference,
)
from repro.network import braidsim, braidsim_vec
from repro.network.plan import BraidPlan
from repro.network.policies import Policy
from repro.partition import GridShape, naive_layout
from repro.qasm import Circuit
from repro.qec import DOUBLE_DEFECT


def make_env(num_qubits: int, rows: int, cols: int):
    qubits = [f"q{i}" for i in range(num_qubits)]
    grid = GridShape(rows, cols)
    placement = naive_layout(qubits, grid)
    mesh = BraidMesh(rows, cols)
    factories = ((rows, cols),)  # bottom-right corner router
    return qubits, placement, mesh, factories


class TestBuildTasks:
    def test_two_qubit_op_gets_two_segments(self):
        qubits, placement, mesh, factories = make_env(4, 2, 2)
        c = Circuit(qubits=qubits)
        c.apply("CNOT", "q0", "q3")
        tasks = build_tasks(c, placement, mesh, DOUBLE_DEFECT, 5, factories)
        assert len(tasks[0].segments) == 2
        assert all(seg.hold == 5 for seg in tasks[0].segments)

    def test_t_op_braids_from_factory(self):
        qubits, placement, mesh, factories = make_env(4, 2, 2)
        c = Circuit(qubits=qubits)
        c.apply("T", "q0")
        tasks = build_tasks(c, placement, mesh, DOUBLE_DEFECT, 5, factories)
        assert len(tasks[0].segments) == 1
        assert tasks[0].segments[0].src == factories[0]

    def test_t_without_factory_rejected(self):
        qubits, placement, mesh, _ = make_env(4, 2, 2)
        c = Circuit(qubits=qubits)
        c.apply("T", "q0")
        with pytest.raises(ValueError, match="factory"):
            build_tasks(c, placement, mesh, DOUBLE_DEFECT, 5, ())

    def test_local_op(self):
        qubits, placement, mesh, factories = make_env(4, 2, 2)
        c = Circuit(qubits=qubits)
        c.apply("H", "q0")
        tasks = build_tasks(c, placement, mesh, DOUBLE_DEFECT, 5, factories)
        assert not tasks[0].is_braid
        assert tasks[0].local_cycles >= 1

    def test_composites_rejected(self):
        qubits, placement, mesh, factories = make_env(4, 2, 2)
        c = Circuit(qubits=qubits)
        c.apply("TOFFOLI", "q0", "q1", "q2")
        with pytest.raises(ValueError, match="decomposed"):
            build_tasks(c, placement, mesh, DOUBLE_DEFECT, 5, factories)

    def test_route_length_metric(self):
        qubits, placement, mesh, factories = make_env(4, 2, 2)
        c = Circuit(qubits=qubits)
        c.apply("CNOT", "q0", "q3")  # (0,0) -> (1,1): manhattan 2, x2 segs
        tasks = build_tasks(c, placement, mesh, DOUBLE_DEFECT, 5, factories)
        assert tasks[0].route_length == 4


class TestSimulateBraids:
    def simple_circuit(self, qubits):
        c = Circuit(qubits=qubits)
        c.apply("CNOT", "q0", "q1")
        c.apply("CNOT", "q2", "q3")
        c.apply("CNOT", "q0", "q3")
        return c

    def test_all_ops_complete_zero_contention(self):
        qubits, placement, mesh, factories = make_env(4, 2, 2)
        c = Circuit(qubits=qubits)
        c.apply("CNOT", "q0", "q1")
        result = simulate_braids(c, placement, mesh, 1, distance=5,
                                 factory_routers=factories)
        # One 2-segment braid: exactly 2*(d+1) cycles, ratio 1.
        assert result.schedule_length == 12
        assert result.schedule_to_critical_ratio == pytest.approx(1.0)
        assert result.braids == 2

    @pytest.mark.parametrize("policy", list(range(7)))
    def test_every_policy_completes(self, policy):
        qubits, placement, mesh, factories = make_env(6, 2, 3)
        c = self.simple_circuit(qubits)
        c.apply("T", "q1")
        c.apply("H", "q5")
        result = simulate_braids(c, placement, mesh, policy, distance=3,
                                 factory_routers=factories)
        assert result.operations == 5
        assert result.schedule_length >= result.critical_path or (
            result.schedule_to_critical_ratio >= 0.99
        )

    def test_schedule_never_beats_critical_path(self):
        qubits, placement, mesh, factories = make_env(9, 3, 3)
        c = Circuit(qubits=qubits)
        for i in range(8):
            c.apply("CNOT", f"q{i}", f"q{i + 1}")
        for policy in (0, 1, 6):
            result = simulate_braids(
                c, placement, BraidMesh(3, 3), policy, distance=3,
                factory_routers=factories,
            )
            assert result.schedule_length >= result.critical_path

    def test_policy0_serializes_braids(self):
        qubits, placement, mesh, factories = make_env(4, 2, 2)
        c = self.simple_circuit(qubits)
        serial = simulate_braids(c, placement, BraidMesh(2, 2), 0, distance=3,
                                 factory_routers=factories)
        parallel = simulate_braids(c, placement, BraidMesh(2, 2), 1, distance=3,
                                   factory_routers=factories)
        assert serial.schedule_length >= parallel.schedule_length

    def test_contention_detected_on_tiny_mesh(self):
        # Many crossing braids on a 1x2 mesh must serialize.
        qubits, placement, mesh, factories = make_env(2, 1, 2)
        c = Circuit(qubits=qubits)
        for _ in range(4):
            c.apply("CNOT", "q0", "q1")
        result = simulate_braids(c, placement, mesh, 1, distance=3,
                                 factory_routers=factories)
        assert result.schedule_length >= 4 * 2 * 4  # serial lower bound

    def test_utilization_in_unit_range(self):
        qubits, placement, mesh, factories = make_env(4, 2, 2)
        result = simulate_braids(
            self.simple_circuit(qubits), placement, mesh, 6, distance=3,
            factory_routers=factories,
        )
        assert 0.0 < result.mean_utilization < 1.0

    def test_local_only_circuit(self):
        qubits, placement, mesh, factories = make_env(4, 2, 2)
        c = Circuit(qubits=qubits)
        for q in qubits:
            c.apply("H", q)
        result = simulate_braids(c, placement, mesh, 1, distance=3,
                                 factory_routers=factories)
        assert result.braids == 0
        assert result.schedule_length == 1
        assert result.mean_utilization == 0.0

    def test_empty_circuit(self):
        qubits, placement, mesh, factories = make_env(4, 2, 2)
        result = simulate_braids(Circuit(qubits=qubits), placement, mesh, 1,
                                 distance=3, factory_routers=factories)
        assert result.schedule_length == 0
        assert result.operations == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BraidSimConfig(adaptive_timeout=5, drop_timeout=3)
        with pytest.raises(ValueError):
            BraidSimConfig(drop_timeout=0)

    def test_policy_lookup_by_number(self):
        qubits, placement, mesh, factories = make_env(4, 2, 2)
        by_num = simulate_braids(
            self.simple_circuit(qubits), placement, mesh, 2, distance=3,
            factory_routers=factories,
        )
        by_obj = simulate_braids(
            self.simple_circuit(qubits), placement, BraidMesh(2, 2),
            POLICIES[2], distance=3, factory_routers=factories,
        )
        assert by_num.schedule_length == by_obj.schedule_length


def contended_circuit(qubits):
    """Mirrored, rotating CNOTs on a 3x3 mesh: adaptive routes and drops."""
    c = Circuit(qubits=qubits)
    for r in range(4):
        for i in range(9):
            j = (8 - i + r) % 9
            if i != j:
                c.apply("CNOT", f"q{i}", f"q{j}")
        c.apply("T", f"q{r}")
        c.apply("H", f"q{8 - r}")
    return c


class TestEngineSafetyChecks:
    """The flat loop's guards and its write-back of mesh occupancy."""

    @pytest.mark.parametrize("policy", range(9))
    def test_max_cycles_below_schedule_length_raises(self, policy):
        qubits, placement, _, factories = make_env(9, 3, 3)
        c = contended_circuit(qubits)
        full = simulate_braids(c, placement, BraidMesh(3, 3), policy,
                               distance=3, factory_routers=factories)
        config = BraidSimConfig(max_cycles=full.schedule_length - 1)
        with pytest.raises(RuntimeError, match="exceeded"):
            simulate_braids(c, placement, BraidMesh(3, 3), policy,
                            distance=3, factory_routers=factories,
                            config=config)
        at_limit = BraidSimConfig(max_cycles=full.schedule_length)
        assert simulate_braids(
            c, placement, BraidMesh(3, 3), policy, distance=3,
            factory_routers=factories, config=at_limit,
        ) == full

    @pytest.mark.parametrize("policy", range(7))
    def test_caller_mesh_ends_released_with_reference_epoch(self, policy):
        qubits, placement, _, factories = make_env(9, 3, 3)
        c = contended_circuit(qubits)
        config = BraidSimConfig(adaptive_timeout=1, drop_timeout=3)
        flat_mesh = BraidMesh(3, 3)
        ref_mesh = BraidMesh(3, 3)
        flat = simulate_braids(c, placement, flat_mesh, policy, distance=3,
                               factory_routers=factories, config=config)
        ref = simulate_braids_reference(
            c, placement, ref_mesh, policy, distance=3,
            factory_routers=factories, config=config,
        )
        assert flat == ref
        assert flat_mesh.occupied_mask == 0
        assert flat_mesh.busy_links() == 0
        assert flat_mesh.epoch == ref_mesh.epoch > 0

    @pytest.mark.parametrize("policy", [7, 8])
    def test_caller_mesh_ends_released_with_vec_epoch(self, policy):
        # The reference loop does not speak policies 7-8; the vec
        # engine is their oracle.
        pytest.importorskip("numpy")
        qubits, placement, _, factories = make_env(9, 3, 3)
        c = contended_circuit(qubits)
        flat_mesh = BraidMesh(3, 3)
        vec_mesh = BraidMesh(3, 3)
        flat = simulate_braids(c, placement, flat_mesh, policy, distance=3,
                               factory_routers=factories)
        vec = simulate_braids(c, placement, vec_mesh, policy, distance=3,
                              factory_routers=factories, engine="vec")
        assert flat == vec
        assert flat_mesh.occupied_mask == 0
        assert flat_mesh.busy_links() == 0
        assert flat_mesh.epoch == vec_mesh.epoch > 0

    def test_event_counter_overflow_raises(self, monkeypatch):
        qubits, placement, mesh, factories = make_env(4, 2, 2)
        c = Circuit(qubits=qubits)
        for _ in range(4):
            c.apply("CNOT", "q0", "q3")
        monkeypatch.setattr(braidsim, "_SEQ_LIMIT", 3)
        with pytest.raises(RuntimeError, match="overflow"):
            simulate_braids(c, placement, mesh, 1, distance=3,
                            factory_routers=factories)

    @pytest.mark.parametrize("policy", range(9))
    def test_unreachable_op_is_reported_as_stall(self, policy):
        qubits, placement, mesh, factories = make_env(4, 2, 2)
        c = Circuit(qubits=qubits)
        c.apply("CNOT", "q0", "q1")
        c.apply("H", "q1")
        plan = BraidPlan.build(c, placement, mesh, distance=3,
                               factory_routers=factories)
        fields = {name: getattr(plan, name) for name in BraidPlan.__slots__}
        # A phantom second predecessor: op 1 never becomes ready.
        fields["in_degrees"] = (plan.in_degrees[0], plan.in_degrees[1] + 1)
        stalled = BraidPlan(**fields)
        sim = braidsim.BraidSimulator(policy=POLICIES[policy], plan=stalled)
        with pytest.raises(RuntimeError, match="stalled"):
            sim.run()

    @pytest.mark.parametrize("rank", ["use_criticality", "use_length"])
    def test_close_first_policy_without_queue_matches_reference(self, rank):
        # No built-in close-first policy ranks by criticality or length
        # alone, so this is the only coverage of the flat loop's
        # policy-sort-key fallback.
        policy = Policy(number=9, description="custom", closes_first=True,
                        **{rank: True})
        qubits, placement, _, factories = make_env(9, 3, 3)
        c = contended_circuit(qubits)
        config = BraidSimConfig(adaptive_timeout=1, drop_timeout=3)
        flat = simulate_braids(c, placement, BraidMesh(3, 3), policy,
                               distance=3, factory_routers=factories,
                               config=config)
        ref = simulate_braids_reference(
            c, placement, BraidMesh(3, 3), policy, distance=3,
            factory_routers=factories, config=config,
        )
        assert flat == ref
        assert flat.drops > 0


class TestDecisionTrace:
    """The ``trace`` recorder both engines share."""

    @pytest.mark.parametrize("policy", range(9))
    def test_recording_leaves_the_result_unchanged(self, policy):
        qubits, placement, mesh, factories = make_env(9, 3, 3)
        c = contended_circuit(qubits)
        config = BraidSimConfig(adaptive_timeout=1, drop_timeout=3)
        plan = BraidPlan.build(c, placement, mesh, distance=3,
                               factory_routers=factories)
        engines = [braidsim.BraidSimulator]
        if braidsim_vec.np is not None:
            engines.append(braidsim_vec.VecBraidSimulator)
        for engine in engines:
            quiet = engine(policy=POLICIES[policy], plan=plan, config=config)
            assert quiet.trace is None
            traced = engine(policy=POLICIES[policy], plan=plan, config=config)
            traced.trace = []
            assert traced.run() == quiet.run()
            times = [entry[1] for entry in traced.trace]
            assert times == sorted(times)
            done = [entry[2] for entry in traced.trace if entry[0] == "done"]
            assert sorted(done) == list(range(plan.num_ops))


class TestPolicies:
    def test_nine_policies(self):
        assert len(ALL_POLICIES) == 9
        assert [p.number for p in ALL_POLICIES] == list(range(9))

    def test_policy_families(self):
        assert all(POLICIES[i].family == "reactive" for i in range(7))
        assert POLICIES[7].family == "reservation"
        assert POLICIES[8].family == "scoreboard"

    def test_policy0_no_interleave(self):
        assert not POLICIES[0].interleave
        assert all(POLICIES[i].interleave for i in range(1, 7))

    def test_layout_from_policy2(self):
        assert not POLICIES[1].optimized_layout
        assert all(POLICIES[i].optimized_layout for i in range(2, 7))

    def test_policy6_combines_everything(self):
        p6 = POLICIES[6]
        assert p6.closes_first
        assert p6.use_criticality
        assert p6.combined_length_rule

    def test_sort_key_criticality(self):
        key = POLICIES[3].open_sort_key(
            criticality=lambda op: {1: 5, 2: 9}[op],
            route_length=lambda op: 0,
            arrival=lambda op: op,
        )
        assert sorted([1, 2], key=key) == [2, 1]

    def test_sort_key_length(self):
        key = POLICIES[4].open_sort_key(
            criticality=lambda op: 0,
            route_length=lambda op: {1: 3, 2: 8}[op],
            arrival=lambda op: op,
        )
        assert sorted([1, 2], key=key) == [2, 1]

    def test_policy6_length_rule_splits_by_criticality(self):
        crit = {1: 10, 2: 10, 3: 1, 4: 1}
        length = {1: 5, 2: 2, 3: 5, 4: 2}
        key = POLICIES[6].open_sort_key(
            criticality=crit.get,
            route_length=length.get,
            arrival=lambda op: 0,
            ready_criticalities=list(crit.values()),
        )
        ordered = sorted(crit, key=key)
        # Critical group first, short before long; low group long first.
        assert ordered == [2, 1, 3, 4]
