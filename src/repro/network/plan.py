"""Precompiled braid simulation plans, shared across scheduling policies.

The Figure 6 methodology runs the *same* compiled circuit under all
seven scheduling policies.  Everything the braid simulator needs that
does not depend on the policy — each op's braid flag, route length,
local duration and prebound segments (the Section 6.1 lowering with
the per-site nearest-factory resolution, and each segment's dominant
route and link mask from the shared
:class:`~repro.network.routing.RouteTable`), the dependence DAG's
in-degrees/successor tuples, the policy-independent critical path, and
the lazily materialized criticality array — is built once per
``(circuit, placement, mesh shape, code, distance, max_detour)`` into
a :class:`BraidPlan` and reused by every simulation of that design
point.

:meth:`BraidPlan.build` fills those arrays in one pass over the
circuit, with no per-op objects: endpoints are resolved once per
qubit, the nearest factory once per magic-state site, and each
segment tuple once per operand tuple and shared by every op on those
operands.  :mod:`repro.network.events` lowers the same circuit into
one task object per op; that lowering serves the reference loop and
:func:`~repro.analysis.ir_checks.check_plan`, which makes it an
independent oracle for this builder.

Plans are immutable: simulators copy the one mutable seed
(`in_degrees`) and treat every other field as read-only, which the
mutation-guard tests enforce by hashing a shared plan's arrays across
simulations.

:func:`braid_plan` is the process-wide memo.  Like the route-table
registry it is LRU-bounded (:data:`PLAN_MEMO_CAPACITY` plans), so a
long-lived service sweeping many design points retains a bounded
working set; every hit validates circuit/placement/code *identity*
against the stored plan (an entry keeps its objects alive, so an id
can only match the object it was recorded for) plus the circuit's
length, so a circuit mutated after planning fails loudly instead of
replaying a stale plan.  Hit/build counters are exposed through
:func:`plan_memo_stats`, next to
:func:`~repro.network.routing.route_table_stats`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from ..analysis.diagnostics import PlanMismatchError
from ..partition.layout import Placement
from ..qasm.circuit import Circuit
from ..qasm.dag import CircuitDag
from ..qasm.gates import GateKind, GateSpec
from ..qec.codes import DOUBLE_DEFECT, SurfaceCode
from .mesh import BraidMesh, Router, manhattan
from .routing import RouteTable, route_table

__all__ = [
    "DEFAULT_MAX_DETOUR",
    "BraidPlan",
    "braid_plan",
    "plan_memo_stats",
    "reset_plan_memo",
]

DEFAULT_MAX_DETOUR = 4
"""Staircase detour radius shared by ``BraidSimConfig`` and plan builds."""


class BraidPlan:
    """Immutable, policy-independent simulation plan for one design point.

    Attributes:
        circuit: The flat Clifford+T program.
        placement: Data-qubit placement the tasks were resolved against.
        code: Surface code used for local-op latencies.
        distance: Code distance d (braid stabilization hold).
        rows / cols: Mesh tile shape the routes were compiled for.
        max_detour: Adaptive-routing detour radius of :attr:`routes`.
        dag: The dependence DAG (owner of the lazy criticality array).
        is_braid: Per-op braid flag.
        route_length: Per-op minimal total route length (policy metric).
        segments: Per-op tuples of ``(src, dst, hold, min_len, dor_path,
            dor_mask)``, dominant route prebound from :attr:`routes`.
            Ops on the same operands share one tuple.
        local_cycles: Per-op tile-local duration (0 for braid ops).
        in_degrees: Per-op predecessor counts (simulators copy this).
        successors: Per-op successor index tuples.
        sources: Initially-ready operation indices.
        critical_path: Dependence-limited schedule lower bound (cycles).
        routes: The shared :class:`RouteTable` for adaptive alternatives.

    Treat every field as read-only; plans are shared across simulations.
    """

    __slots__ = (
        "circuit", "placement", "code", "distance", "factory_routers",
        "rows", "cols", "max_detour", "dag", "num_ops",
        "is_braid", "route_length", "segments", "local_cycles", "in_degrees",
        "successors", "sources", "critical_path", "routes",
    )

    def __init__(self, **fields: object) -> None:
        for name in self.__slots__:
            object.__setattr__(self, name, fields[name])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("BraidPlan is immutable")

    @classmethod
    def build(
        cls,
        circuit: Circuit,
        placement: Placement,
        mesh: BraidMesh,
        code: SurfaceCode = DOUBLE_DEFECT,
        distance: int = 5,
        factory_routers: tuple[Router, ...] = (),
        max_detour: int = DEFAULT_MAX_DETOUR,
        dag: Optional[CircuitDag] = None,
    ) -> "BraidPlan":
        """Compile one plan in one pass (no memoization; see :func:`braid_plan`).

        Lowers each op the way Section 6.1 does: a 2-qubit op is two
        segments between its operands' tiles, a magic-state consumer
        one segment from the nearest factory (ties broken by router
        id), anything else tile-local work of ``code.op_cycles``.
        Endpoints are resolved once per qubit and the prebound segment
        tuples once per operand tuple, so ops on the same qubits share
        one tuple.

        Raises:
            ValueError: On ``distance < 1``, a composite gate, or a
                magic-state consumer with no factory router (the same
                messages as the task lowering in
                :mod:`repro.network.events`).
        """
        if distance < 1:
            raise ValueError(f"distance must be >= 1, got {distance}")
        factory_routers = tuple(factory_routers)
        endpoint: dict[str, Router] = {
            q: mesh.tile_router(placement.position(q))
            for q in placement.positions
        }
        if not factory_routers and any(
            op.consumes_magic_state and op.qubits[0] in endpoint
            for op in circuit
        ):
            raise ValueError("T operation requires at least one factory site")
        dag = dag or CircuitDag(circuit)
        n = len(circuit)
        successors = dag.successor_tuples()[:n] if n else ()
        routes: RouteTable = route_table(mesh.rows, mesh.cols, max_detour)
        dor = routes.dor
        segment_busy = distance + 1  # open cycle + stabilization hold

        # Per gate name: its spec and, for tile-local gates, the cycles.
        specs: dict[str, GateSpec] = {}
        local_of: dict[str, int] = {}
        # Per operand tuple: (segments, route_length, busy cycles).  A
        # placed qubit owns its tile, so this also resolves the nearest
        # factory once per magic-state site.
        braid_of: dict[tuple[str, ...], tuple] = {}

        is_braid: list[bool] = []
        route_length: list[int] = []
        segments: list[tuple] = []
        local_cycles: list[int] = []
        # Policy-independent critical path: forward ASAP recurrence over
        # the op latencies, shared by all simulations of this plan.
        start = [0] * n
        critical = 0
        for index, op in enumerate(circuit):
            gate = op.gate
            spec = specs.get(gate)
            if spec is None:
                spec = specs[gate] = op.spec
            if spec.kind is GateKind.COMPOSITE:
                raise ValueError(
                    f"operation {index} ({gate}) must be decomposed before "
                    "network simulation"
                )
            qubits = op.qubits
            if len(qubits) == 2 or spec.consumes_magic_state:
                entry = braid_of.get(qubits)
                if entry is None:
                    if len(qubits) == 2:
                        src = endpoint[qubits[0]]
                        dst = endpoint[qubits[1]]
                        count = 2
                    else:
                        dst = endpoint[qubits[0]]
                        src = min(
                            factory_routers,
                            key=lambda f: (manhattan(f, dst), f),
                        )
                        count = 1
                    min_len = manhattan(src, dst)
                    dor_path, dor_mask = dor(src, dst)
                    info = (src, dst, distance, min_len, dor_path, dor_mask)
                    entry = braid_of[qubits] = (
                        (info,) * count, count * min_len, count * segment_busy
                    )
                segs, length, busy = entry
                is_braid.append(True)
                route_length.append(length)
                segments.append(segs)
                local_cycles.append(0)
            else:
                busy = local_of.get(gate)
                if busy is None:
                    busy = local_of[gate] = max(
                        1, round(code.op_cycles(spec.kind, distance))
                    )
                is_braid.append(False)
                route_length.append(0)
                segments.append(())
                local_cycles.append(busy)
            finish = start[index] + busy
            if finish > critical:
                critical = finish
            for succ in successors[index]:  # program order is topological
                if finish > start[succ]:
                    start[succ] = finish
        return cls(
            circuit=circuit,
            placement=placement,
            code=code,
            distance=distance,
            factory_routers=factory_routers,
            rows=mesh.rows,
            cols=mesh.cols,
            max_detour=max_detour,
            dag=dag,
            num_ops=n,
            is_braid=tuple(is_braid),
            route_length=tuple(route_length),
            segments=tuple(segments),
            local_cycles=tuple(local_cycles),
            in_degrees=tuple(dag.in_degrees()[:n]),
            successors=successors,
            sources=tuple(dag.sources()),
            critical_path=critical,
            routes=routes,
        )

    def criticality(self) -> list[int]:
        """The shared per-op criticality array (lazy, owned by the DAG).

        Materialized on the first simulation whose policy ranks by
        criticality and shared read-only by every later one.
        """
        return self.dag.criticality_array()


# ---------------------------------------------------------------------------
# Process-wide plan memo

PLAN_MEMO_CAPACITY = 32
"""Bound on memoized plans (a Figure 6 sweep needs 8 live at once)."""

_PLAN_MEMO: "OrderedDict[tuple, BraidPlan]" = OrderedDict()
_PLAN_BUILDS = 0
_PLAN_HITS = 0


def braid_plan(
    circuit: Circuit,
    placement: Placement,
    mesh: BraidMesh,
    code: SurfaceCode = DOUBLE_DEFECT,
    distance: int = 5,
    factory_routers: tuple[Router, ...] = (),
    max_detour: int = DEFAULT_MAX_DETOUR,
    dag: Optional[CircuitDag] = None,
) -> BraidPlan:
    """Memoized :meth:`BraidPlan.build` for the common simulation path.

    Keys on the circuit/placement/code identities plus the remaining
    value parameters, so the seven-policy Figure 6 sweep builds one
    plan per (app, size, layout, distance) and every other policy
    point is a memo hit.  The memo is an LRU bounded by
    :data:`PLAN_MEMO_CAPACITY` (the same discipline as the route-table
    registry): an entry keeps its circuit/placement/code alive, which
    is exactly what makes the id-based key sound — a stored id can
    only ever match the object it was recorded for — and eviction
    only drops the registry's reference, never a plan in use.

    A hit additionally checks the circuit's operation count against
    the plan: cached plans assume the circuit is frozen (everything in
    the staged pipeline is), and appending to a planned circuit would
    otherwise silently replay the stale plan.

    Raises:
        PlanMismatchError: If the memoized circuit changed length since
            its plan was built (still a ``ValueError`` for existing
            callers).
    """
    global _PLAN_BUILDS, _PLAN_HITS
    key = (
        id(circuit), id(placement), mesh.rows, mesh.cols, distance,
        tuple(factory_routers), max_detour, id(code),
    )
    plan = _PLAN_MEMO.get(key)
    if (
        plan is not None
        and plan.circuit is circuit
        and plan.placement is placement
        and plan.code is code
    ):
        if plan.num_ops != len(circuit):
            raise PlanMismatchError(
                f"circuit {circuit.name!r} changed length "
                f"({plan.num_ops} -> {len(circuit)}) after its braid "
                "plan was built; planned circuits must not be mutated",
                artifact=f"plan for {circuit.name!r}",
            )
        _PLAN_HITS += 1
        _PLAN_MEMO.move_to_end(key)
        return plan
    plan = BraidPlan.build(
        circuit, placement, mesh, code, distance,
        factory_routers, max_detour, dag=dag,
    )
    _PLAN_MEMO[key] = plan
    _PLAN_BUILDS += 1
    while len(_PLAN_MEMO) > PLAN_MEMO_CAPACITY:
        _PLAN_MEMO.popitem(last=False)
    return plan


def plan_memo_stats() -> dict[str, int]:
    """Plan-memo counters (reported next to ``route_table_stats``).

    ``builds`` counts actual plan compilations, ``hits`` memo reuses;
    ``plans`` is the live entry count, bounded by ``capacity``.
    """
    return {
        "builds": _PLAN_BUILDS,
        "hits": _PLAN_HITS,
        "plans": len(_PLAN_MEMO),
        "capacity": PLAN_MEMO_CAPACITY,
    }


def reset_plan_memo() -> None:
    """Drop all memoized plans and zero the counters (testing hook)."""
    global _PLAN_BUILDS, _PLAN_HITS
    _PLAN_MEMO.clear()
    _PLAN_BUILDS = 0
    _PLAN_HITS = 0
