"""Cross-engine differential harness over the full 9-policy plane.

The scheduler-family policies (7 reservation-table, 8 matrix-
scoreboard) have no seed-reference oracle — the preserved seed loop in
``repro.network._braidsim_reference`` predates them and refuses to run
them.  Their correctness oracle is *differential*: the flat and vec
engines implement the same semantics through very different code paths
(one fused event loop vs a method-per-step loop with batched
word-packed candidate filtering), so
Hypothesis-generated circuits run through every (policy x engine) pair
and must agree not just on the final counters but on the *entire event
order* — every successful segment open, every close, every op
completion, at the same cycle in the same sequence.

Traces come from the engines' own ``trace`` recorder: set to a list,
both engines append one ``(kind, time, op[, segment])`` tuple per
successful segment open, segment close and op completion.  The flat
engine records from its fused event loop, the vec engine from its
per-step methods, and the vec engine's batched prefilter only
short-circuits *failing* candidates, so identical traces mean
identical scheduling decisions.

On the numpy-absent matrix leg the vec half self-skips and the
flat-engine determinism subset still runs (same circuit twice must
yield the same trace), so the harness is load-bearing on every leg.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import BraidMesh, BraidSimConfig, braidsim_vec
from repro.network.braidsim import BraidSimulator, simulate_plan
from repro.network.plan import BraidPlan
from repro.network.policies import ALL_POLICIES, POLICIES
from repro.partition import GridShape, naive_layout
from repro.qasm import Circuit

np = braidsim_vec.np
VecBraidSimulator = braidsim_vec.VecBraidSimulator
requires_numpy = pytest.mark.skipif(
    np is None, reason="vec engine needs the numpy optional extra"
)

ALL_POLICY_NUMBERS = tuple(p.number for p in ALL_POLICIES)

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
    for _ in range(draw(st.integers(1, 12))):
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


def _traced_run(cls, plan, policy, config=None):
    sim = cls(policy=POLICIES[policy], plan=plan, config=config)
    sim.trace = []
    result = sim.run()
    return result, sim.trace


def _assert_flat_vec_identical(plan, policy, config=None):
    flat_result, flat_trace = _traced_run(
        BraidSimulator, plan, policy, config
    )
    vec_result, vec_trace = _traced_run(VecBraidSimulator, plan, policy, config)
    assert vec_result == flat_result, (
        f"policy {policy}: vec result diverged from flat"
    )
    assert vec_trace == flat_trace, (
        f"policy {policy}: engines agree on totals but took different "
        "scheduling decisions"
    )
    return flat_result, flat_trace


def _wide_plan():
    """8 simultaneously-ready crossing CNOTs: the batched vec path."""
    qubits = [f"q{i}" for i in range(16)]
    placement = naive_layout(qubits, GridShape(4, 4))
    circuit = Circuit(qubits=qubits)
    for i in range(8):
        circuit.apply("CNOT", f"q{i}", f"q{15 - i}")
    for i in range(8):
        circuit.apply("CNOT", f"q{i}", f"q{(i + 8) % 16}")
    return BraidPlan.build(
        circuit, placement, BraidMesh(4, 4), distance=3
    )


@requires_numpy
class TestDifferentialHypothesis:
    """Random circuits: flat and vec must make identical decisions."""

    @pytest.mark.parametrize("policy", ALL_POLICY_NUMBERS)
    @given(plan=small_plans())
    @settings(max_examples=25, deadline=None)
    def test_flat_vs_vec_traces(self, policy, plan):
        result, trace = _assert_flat_vec_identical(plan, policy)
        assert result.operations == plan.num_ops
        done = [entry for entry in trace if entry[0] == "done"]
        assert len(done) == plan.num_ops

    @pytest.mark.parametrize("policy", ALL_POLICY_NUMBERS)
    @given(plan=small_plans())
    @settings(max_examples=15, deadline=None)
    def test_flat_vs_vec_under_contention_config(self, policy, plan):
        config = BraidSimConfig(adaptive_timeout=1, drop_timeout=3)
        _assert_flat_vec_identical(plan, policy, config)


@requires_numpy
class TestDifferentialFixed:
    """Deterministic scenarios covering every policy on both engines."""

    @pytest.mark.parametrize("policy", ALL_POLICY_NUMBERS)
    def test_wide_batched_rounds(self, policy):
        plan = _wide_plan()
        result, _ = _assert_flat_vec_identical(plan, policy)
        assert result.operations == 16

    @pytest.mark.parametrize("policy", ALL_POLICY_NUMBERS)
    def test_factories_and_locals(self, policy):
        qubits = [f"q{i}" for i in range(6)]
        circuit = Circuit(qubits=qubits)
        for i in range(6):
            circuit.apply("T", f"q{i}")
        for i in range(5):
            circuit.apply("CNOT", f"q{i}", f"q{i + 1}")
        circuit.apply("H", "q0")
        plan = BraidPlan.build(
            circuit,
            naive_layout(qubits, GridShape(2, 3)),
            BraidMesh(2, 3),
            distance=3,
            factory_routers=((2, 0), (2, 3)),
        )
        _assert_flat_vec_identical(plan, policy)

    @pytest.mark.parametrize("policy", ALL_POLICY_NUMBERS)
    def test_engine_selector_agrees_with_traced_run(self, policy):
        plan = _wide_plan()
        traced, _ = _traced_run(BraidSimulator, plan, policy)
        assert simulate_plan(plan, policy, engine="flat") == traced
        assert simulate_plan(plan, policy, engine="vec") == traced


class TestFlatDeterminism:
    """Numpy-free subset: the flat engine replays identically."""

    @pytest.mark.parametrize("policy", ALL_POLICY_NUMBERS)
    @given(plan=small_plans())
    @settings(max_examples=10, deadline=None)
    def test_flat_trace_is_deterministic(self, policy, plan):
        first = _traced_run(BraidSimulator, plan, policy)
        second = _traced_run(BraidSimulator, plan, policy)
        assert first == second

    def test_nine_policies_registered(self):
        assert ALL_POLICY_NUMBERS == tuple(range(9))
