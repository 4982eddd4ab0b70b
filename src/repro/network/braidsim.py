"""Cycle-accurate braid schedule simulator (Sections 6.1 and 6.3).

The simulator maintains "a ready queue of operations whose dependencies
have been met, and execute[s] as many of them as possible in each
cycle."  Braids claim circuit-switched routes atomically (no crossing,
no buffering), stabilize for d cycles, then close.  Forward progress in
a busy network uses route adaptivity on a dimension-ordered route and a
drop/re-inject mechanism, both after timeouts.

The implementation is event-driven -- time jumps between braid
expiries, local-op completions, and retry wakeups -- so large circuits
simulate in O(events), not O(cycles).  It still reproduces per-cycle
semantics: opens and closes issued at the same timestamp are ordered by
the active policy, and an open attempted before a same-cycle close sees
the link as busy (which is exactly what close-first prioritization
exploits).

Everything that does not depend on the scheduling policy — per-op
braid flags, segments and local durations, dominant routes and link masks, DAG arrays, the critical path — is
precompiled into an immutable :class:`~repro.network.plan.BraidPlan`,
built once per design point and shared by all seven policy simulations
(see :mod:`repro.network.plan`).

:meth:`BraidSimulator.run` is one fused event loop for all three policy
families.  At Fig. 6 scale a timestep holds about one ready open, so
the cost is per-timestep interpreter overhead rather than route
searches; the loop therefore inlines every per-step action (close,
claim, complete, make-ready, event scheduling) and keeps its state in
locals:

* heap entries are single ints (``time << 34 | seq``) with a dict
  mapping ``seq`` to the event's kind and op;
* a wake event only forces a timestep, so it has no dict entry and is
  pushed only when no wake is already pending at its time;
* link occupancy is a local big-int mask (a route is free iff
  ``route_mask & occupied == 0``) with a per-op held-mask list; the
  :class:`~.mesh.BraidMesh` gets the final occupancy and epoch back
  when the run ends;
* routes come precomputed from a shared :class:`~.routing.RouteTable`;
* a blocked open records the mesh *epoch* (release counter) at which its
  route search failed and skips the search entirely until a link is
  released or adaptivity widens its candidate set;
* each fixpoint pass fixes its open order before its closes run.
  Close-first policies (5, 6 and 8) walk the closes, then the opens
  in policy order — arrival-ordered FIFO entries for Policy 5 and
  criticality buckets with cached per-bucket sorts for Policy 6, both
  incrementally maintained, and a plain program-index sort for
  Policy 8.  Interleaved policies walk closes and opens merged by op
  index, so their criticality and length keys are never consulted.

The reservation family (policy 7, machinery in :mod:`.policies_sched`)
runs in the same loop: it gates each segment's open on its reserved
cycle and wakes exactly there.

For the reactive policies (0--6 and 8), results are bit-identical to
the seed event loop, which is preserved in
:mod:`repro.network._braidsim_reference` and enforced by the golden
equivalence tests.  Policy 7 has no seed oracle; its contract is
flat-vs-vec bit-identity of the full decision trace
(:attr:`BraidSimulator.trace`), enforced by the cross-engine
differential harness against the method-per-step loop of
:class:`~.braidsim_vec.VecBraidSimulator`.
"""

from __future__ import annotations

import dataclasses
import heapq
from bisect import bisect_left, insort
from typing import Optional

from ..analysis.diagnostics import PlanMismatchError
from ..partition.layout import Placement
from ..qasm.circuit import Circuit
from ..qasm.dag import CircuitDag
from ..qec.codes import DOUBLE_DEFECT, SurfaceCode
from .mesh import BraidMesh, Router
from .plan import DEFAULT_MAX_DETOUR, BraidPlan, braid_plan
from .policies import POLICIES, Policy
from .policies_sched import reservation_schedule

__all__ = [
    "BraidSimConfig",
    "BraidSimResult",
    "BraidSimulator",
    "ENGINES",
    "engine_class",
    "simulate_braids",
    "simulate_plan",
]

ENGINES = ("flat", "vec", "reference")
"""Selectable braid engines.

* ``"flat"`` — this module's fused event loop (the default
  everywhere).
* ``"vec"`` — :mod:`.braidsim_vec`'s method-per-step loop with
  numpy-batched open tests (requires the ``vec`` optional extra).
* ``"reference"`` — the preserved seed loop in
  :mod:`._braidsim_reference`, the semantic oracle.

All three produce bit-identical :class:`BraidSimResult`\\ s; the golden
tests and the benchmark's ``perfbench/record.py`` validation enforce it.
"""


def engine_class(engine: str) -> type:
    """Resolve an engine name to its simulator class.

    Raises:
        KeyError: On an unknown engine name.
        ImportError: For ``"vec"`` when numpy is not installed (the
            message names the ``vec`` extra).
    """
    if engine == "flat":
        return BraidSimulator
    if engine == "vec":
        from . import braidsim_vec

        if braidsim_vec.np is None:
            raise ImportError(braidsim_vec.NUMPY_HINT)
        return braidsim_vec.VecBraidSimulator
    if engine == "reference":
        from ._braidsim_reference import ReferenceBraidSimulator

        return ReferenceBraidSimulator
    raise KeyError(
        f"unknown braid engine {engine!r}; available: {sorted(ENGINES)}"
    )


@dataclasses.dataclass(frozen=True)
class BraidSimConfig:
    """Simulator knobs.

    Attributes:
        adaptive_timeout: Cycles an open may wait before route adaptivity
            (alternatives beyond the dimension-ordered route) kicks in.
        drop_timeout: Cycles before a blocked open is dropped and
            re-injected at the back of the ready queue.
        max_detour: Staircase detour radius for adaptive routing.
        max_cycles: Hard safety limit on simulated time.
    """

    adaptive_timeout: int = 2
    drop_timeout: int = 12
    max_detour: int = DEFAULT_MAX_DETOUR
    max_cycles: int = 200_000_000

    def __post_init__(self) -> None:
        if self.adaptive_timeout < 0 or self.drop_timeout <= 0:
            raise ValueError("timeouts must be positive")
        if self.drop_timeout <= self.adaptive_timeout:
            raise ValueError("drop_timeout must exceed adaptive_timeout")


@dataclasses.dataclass(frozen=True)
class BraidSimResult:
    """Outcome of one braid simulation.

    Attributes:
        schedule_length: Completion time of the last operation (cycles).
        critical_path: Dependence-limited lower bound with the same
            per-op latencies (cycles).
        mean_utilization: Time-averaged fraction of busy mesh links.
        operations: Total operations executed.
        braids: Braid segments opened (including re-opens after drops).
        adaptive_routes: Opens that needed a non-DOR route.
        drops: Drop/re-inject events.
    """

    schedule_length: int
    critical_path: int
    mean_utilization: float
    operations: int
    braids: int
    adaptive_routes: int
    drops: int

    @property
    def schedule_to_critical_ratio(self) -> float:
        """Figure 6's blue-bar metric."""
        if self.critical_path == 0:
            return 1.0
        return self.schedule_length / self.critical_path


# Phase codes (int-valued for flat array storage).
_WAITING, _READY, _HOLDING, _CLOSING, _DONE = range(5)


class _FifoReadyQueue:
    """Arrival-ordered ready opens for close-first FIFO policies (5).

    Arrival stamps are globally monotone, so the queue is an
    append-only list of ``(stamp, op)`` entries that is sorted by
    construction; removals and re-stamps invalidate entries lazily
    (an entry is live iff its op is still ready *and* carries the
    entry's stamp).  :meth:`ordered` therefore replaces the per-
    fixpoint-iteration O(n log n) sort with one linear scan, and
    compacts the backing list when stale entries pile up.
    """

    __slots__ = ("_arrival", "_entries")

    def __init__(self, arrival: list[int]) -> None:
        self._arrival = arrival
        self._entries: list[tuple[int, int]] = []

    def add(self, op: int) -> None:
        self._entries.append((self._arrival[op], op))

    def remove(self, op: int) -> None:
        pass  # lazy: the entry dies with its stale ready-set membership

    def restamp(self, op: int) -> None:
        # Drop/re-inject: the old entry goes stale, the new stamp is
        # larger than every existing one so appending keeps the order.
        self._entries.append((self._arrival[op], op))

    def ordered(self, ready: set[int]) -> list[int]:
        arrival = self._arrival
        out = [
            op
            for stamp, op in self._entries
            if op in ready and arrival[op] == stamp
        ]
        if len(self._entries) > 2 * len(out) + 64:
            self._entries = [(arrival[op], op) for op in out]
        return out


class _BucketReadyQueue:
    """Criticality-bucketed ready opens for Policy 6's combined rule.

    The combined key ``(-crit, ±length, arrival, op)`` orders ops by
    criticality bucket first; only the *sign* of the length component
    depends on the ready set (via the median-criticality threshold).
    Buckets are therefore kept per criticality value with their sorted
    order cached per (membership, sign): a fixpoint iteration re-sorts
    only buckets whose membership changed or whose side of the
    threshold flipped, and concatenates cached runs for the rest —
    a partial resort instead of re-sorting the whole ready set.
    """

    __slots__ = (
        "_crit",
        "_length",
        "_arrival",
        "_buckets",
        "_order_cache",
        "_crits",
        "_distinct",
    )

    def __init__(
        self, crit: list[int], length: list[int], arrival: list[int]
    ) -> None:
        self._crit = crit
        self._length = length
        self._arrival = arrival
        self._buckets: dict[int, list[int]] = {}
        # crit -> (is_high_side, members sorted for that side)
        self._order_cache: dict[int, tuple[bool, list[int]]] = {}
        self._crits: list[int] = []  # multiset, ascending
        self._distinct: list[int] = []  # distinct crits, ascending

    def add(self, op: int) -> None:
        crit = self._crit[op]
        bucket = self._buckets.get(crit)
        if bucket is None:
            self._buckets[crit] = [op]
            insort(self._distinct, crit)
        else:
            bucket.append(op)
        self._order_cache.pop(crit, None)
        insort(self._crits, crit)

    def remove(self, op: int) -> None:
        crit = self._crit[op]
        bucket = self._buckets[crit]
        bucket.remove(op)
        self._order_cache.pop(crit, None)
        if not bucket:
            del self._buckets[crit]
            self._distinct.pop(bisect_left(self._distinct, crit))
        self._crits.pop(bisect_left(self._crits, crit))

    def restamp(self, op: int) -> None:
        # Arrival changed: membership is intact but the cached order
        # within the op's bucket is no longer trustworthy.
        self._order_cache.pop(self._crit[op], None)

    def ordered(self, ready: set[int]) -> list[int]:
        crits = self._crits
        n = len(crits)
        if n == 0:
            return []
        # Median of the ready criticalities, descending convention:
        # values_desc[(n - 1) // 2] == values_asc[n - 1 - (n - 1) // 2].
        threshold = crits[n - 1 - (n - 1) // 2]
        length = self._length
        arrival = self._arrival
        cache = self._order_cache
        out: list[int] = []
        for crit in reversed(self._distinct):
            high = crit >= threshold
            cached = cache.get(crit)
            if cached is None or cached[0] is not high:
                if high:
                    run = sorted(
                        self._buckets[crit],
                        key=lambda op: (length[op], arrival[op], op),
                    )
                else:
                    run = sorted(
                        self._buckets[crit],
                        key=lambda op: (-length[op], arrival[op], op),
                    )
                cache[crit] = (high, run)
            else:
                run = cached[1]
            out.extend(run)
        return out

# Event kinds, packed into the low bits of the per-seq meta entry.
_EXPIRY, _LOCAL, _WAKE = range(3)

_SEQ_BITS = 34
_SEQ_LIMIT = 1 << _SEQ_BITS
_SEQ_MASK = _SEQ_LIMIT - 1

_NO_OPS = ()  # an empty close or open list


class BraidSimulator:
    """Single-run braid schedule simulator (the ``flat`` engine).

    Use :func:`simulate_braids` for the common path (it memoizes the
    policy-independent :class:`~repro.network.plan.BraidPlan` per
    design point), :func:`simulate_plan` to run several policies from
    one prebuilt plan, and instantiate directly to inspect internals
    or record a decision trace.

    Attributes:
        trace: ``None`` (the default) or a list the engine appends one
            tuple to per scheduling decision: ``("open", time, op,
            segment)`` for a successful segment open, ``("close",
            time, op, segment)`` for a segment close and ``("done",
            time, op)`` for an op completion.  Set it to ``[]`` before
            :meth:`run`; the vec engine records the same tuples.
    """

    def __init__(
        self,
        circuit: Optional[Circuit] = None,
        placement: Optional[Placement] = None,
        mesh: Optional[BraidMesh] = None,
        policy: Optional[Policy] = None,
        distance: Optional[int] = None,
        code: SurfaceCode = DOUBLE_DEFECT,
        factory_routers: tuple[Router, ...] = (),
        config: Optional[BraidSimConfig] = None,
        dag: Optional[CircuitDag] = None,
        plan: Optional[BraidPlan] = None,
    ) -> None:
        if policy is None:
            raise TypeError("BraidSimulator requires a policy")
        self.config = config or BraidSimConfig()
        if plan is None:
            if circuit is None or placement is None or mesh is None or (
                distance is None
            ):
                raise TypeError(
                    "BraidSimulator needs either a plan or "
                    "(circuit, placement, mesh, distance)"
                )
            plan = BraidPlan.build(
                circuit,
                placement,
                mesh,
                code,
                distance,
                factory_routers,
                max_detour=self.config.max_detour,
                dag=dag,
            )
        elif plan.max_detour != self.config.max_detour:
            raise PlanMismatchError(
                f"plan was compiled with max_detour={plan.max_detour}, "
                f"config wants {self.config.max_detour}",
                artifact=f"plan for {plan.circuit.name!r}",
            )
        elif distance is not None and distance != plan.distance:
            raise PlanMismatchError(
                f"plan was compiled for distance={plan.distance}, "
                f"got distance={distance}; build a plan per distance",
                artifact=f"plan for {plan.circuit.name!r}",
            )
        self.plan = plan
        self.circuit = plan.circuit
        self.dag = plan.dag
        # The mesh is the only mutable run-time structure shared with
        # callers: reuse a provided one, else make a fresh empty mesh.
        self.mesh = mesh if mesh is not None else BraidMesh(
            plan.rows, plan.cols
        )
        self.policy = policy
        self.num_ops = plan.num_ops
        self.trace: Optional[list[tuple]] = None
        n = self.num_ops

        self._phase = [_WAITING] * n
        self._segment_index = [0] * n
        self._remaining_preds = list(plan.in_degrees)  # mutable copy
        self._successors = plan.successors  # shared, read-only
        self._wait_start = [0] * n
        self._arrival = [0] * n

        # Flat per-op scheduling keys, shared read-only from the plan.
        # Criticality is only materialized for policies that rank by it
        # (the DAG's lazy descendant counts are shared across plans).
        self._is_braid = plan.is_braid
        self._route_length = plan.route_length
        if policy.use_criticality or policy.combined_length_rule:
            self._criticality = plan.criticality()
        else:
            self._criticality = []

        # Per-op, per-segment route handles: (src, dst, hold, min_len,
        # dor_path, dor_mask), prebound through the shared route table.
        self._routes = plan.routes
        self._segments = plan.segments

        # Blocked-open memo: the mesh epoch at which this op's last
        # route search failed, and whether that search was adaptive.
        self._fail_epoch = [-1] * n
        self._fail_adaptive = [False] * n

        # Reservation family (policy 7): the plan-derived schedule,
        # memoized per plan and shared with the vec engine and the IR
        # verifier (see repro.network.policies_sched).
        self._resv = (
            reservation_schedule(plan)
            if policy.family == "reservation"
            else None
        )

        # Close-first policies 5 and 6 take each pass's open order from
        # an incrementally-maintained queue instead of sorting the
        # whole ready set (see the queue classes above); policy 8's
        # program-index order is a plain sort.
        self._open_queue: Optional[_FifoReadyQueue | _BucketReadyQueue]
        if policy.closes_first and policy.combined_length_rule:
            self._open_queue = _BucketReadyQueue(
                self._criticality, self._route_length, self._arrival
            )
        elif policy.closes_first and not (
            policy.use_criticality
            or policy.use_length
            or policy.program_order
        ):
            self._open_queue = _FifoReadyQueue(self._arrival)
        else:
            self._open_queue = None

    def run(self) -> BraidSimResult:
        """Simulate to completion in one fused event loop.

        Each timestep pops every event due at that time, completes the
        local ops among them, then runs the issue fixpoint: passes that
        walk the closes and the eligible opens (closes first, or merged
        by op index) until a pass makes no progress.  Closing, claiming,
        completing and readying are inlined; plan arrays, per-op state
        and mesh occupancy live in locals, and the mesh gets its final
        occupancy and epoch back at the end.
        """
        plan = self.plan
        n = self.num_ops
        config = self.config
        adaptive_timeout = config.adaptive_timeout
        drop_timeout = config.drop_timeout
        max_cycles = config.max_cycles
        seq_limit = _SEQ_LIMIT
        policy = self.policy
        closes_first = policy.closes_first
        interleave = policy.interleave
        trace = self.trace

        # Read-only plan arrays and policy machinery.
        is_braid = self._is_braid
        segments = self._segments
        successors = self._successors
        local_cycles = self.plan.local_cycles
        alternatives = self._routes.alternatives
        reserved = self._resv.reserved if self._resv is not None else None
        queue = self._open_queue
        if queue is not None:
            queue_add = queue.add
            queue_remove = queue.remove
            queue_restamp = queue.restamp
            queue_ordered = queue.ordered
        else:
            queue_add = queue_remove = queue_restamp = queue_ordered = None

        # Per-op run state (the queues share the arrival list).
        phase = self._phase
        seg_index = self._segment_index
        remaining = self._remaining_preds
        wait_start = self._wait_start
        arrival = self._arrival
        fail_epoch = self._fail_epoch
        fail_adaptive = self._fail_adaptive
        held = [0] * n  # link mask of each op's open segment
        ready: set[int] = set()
        closing: list[int] = []
        stamp = 0  # next arrival stamp
        p0_head = 0  # policy-0 program-order cursor

        # Mesh occupancy; busy links are always occupied.bit_count().
        mesh = self.mesh
        occupied = mesh.occupied_mask
        epoch = mesh.epoch

        # Heap entries are (time << _SEQ_BITS) | seq, with the event's
        # kind and op packed into meta[seq].  A wake only forces a
        # timestep, so it carries no meta entry and is pushed only when
        # no wake is pending at its time yet.
        events: list[int] = []
        meta: dict[int, int] = {}
        wakes: set[int] = set()
        seq = 0
        heappush = heapq.heappush
        heappop = heapq.heappop

        completion = 0
        busy_integral = 0
        last_time = 0
        braids = adaptive_routes = drops = 0

        for op in plan.sources:
            if is_braid[op]:
                phase[op] = _READY
                arrival[op] = stamp
                stamp += 1
                ready.add(op)
                if queue_add is not None:
                    queue_add(op)
                if reserved is not None:
                    cycle = reserved[op][0]
                    if cycle > 0 and cycle not in wakes:
                        wakes.add(cycle)
                        heappush(events, (cycle << _SEQ_BITS) | seq)
                        seq += 1
            else:
                phase[op] = _HOLDING
                meta[seq] = ((op + 1) << 2) | _LOCAL
                heappush(events, (local_cycles[op] << _SEQ_BITS) | seq)
                seq += 1
        wakes.add(0)  # reservation wakes above are all later
        heappush(events, seq)
        seq += 1

        error = None
        while events:
            if seq > seq_limit:
                error = "braid simulation event counter overflow"
                break
            time = events[0] >> _SEQ_BITS
            if time > max_cycles:
                error = (
                    f"braid simulation exceeded {max_cycles} cycles; "
                    "likely livelock"
                )
                break
            if time != last_time:
                busy_integral += occupied.bit_count() * (time - last_time)
                last_time = time

            # Pop the timestep.  Expiries turn into closes; local ops
            # complete after the pop, in event order, so an event they
            # schedule for this same time gets a timestep of its own.
            done_locals = None
            while events and events[0] >> _SEQ_BITS == time:
                packed = meta.pop(heappop(events) & _SEQ_MASK, _WAKE)
                kind = packed & 3
                if kind == _EXPIRY:
                    op = (packed >> 2) - 1
                    if phase[op] == _HOLDING:
                        phase[op] = _CLOSING
                        closing.append(op)
                elif kind == _LOCAL:
                    if done_locals is None:
                        done_locals = []
                    done_locals.append((packed >> 2) - 1)
                else:
                    wakes.discard(time)
            if done_locals is not None:
                for op in done_locals:
                    # Complete op (mirrored in the close walk below).
                    if trace is not None:
                        trace.append(("done", time, op))
                    phase[op] = _DONE
                    completion = time
                    for succ in successors[op]:
                        left = remaining[succ] - 1
                        remaining[succ] = left
                        if left:
                            continue
                        if is_braid[succ]:
                            phase[succ] = _READY
                            wait_start[succ] = time
                            arrival[succ] = stamp
                            stamp += 1
                            ready.add(succ)
                            if queue_add is not None:
                                queue_add(succ)
                            if reserved is not None:
                                cycle = reserved[succ][0]
                                if cycle > time and cycle not in wakes:
                                    wakes.add(cycle)
                                    heappush(events, (cycle << _SEQ_BITS) | seq)
                                    seq += 1
                        else:
                            phase[succ] = _HOLDING
                            meta[seq] = ((succ + 1) << 2) | _LOCAL
                            heappush(
                                events,
                                ((time + local_cycles[succ]) << _SEQ_BITS)
                                | seq,
                            )
                            seq += 1

            # Issue fixpoint: closes can complete ops whose successors
            # may open in this same cycle (the greedy "place as many
            # braids as possible" rule).
            release_with_blocked = False
            while True:
                if closing:
                    closes = closing
                    closes.sort()
                    closing = []
                else:
                    closes = _NO_OPS
                # The open order is fixed before this pass's closes run.
                if not ready:
                    opens = _NO_OPS
                elif queue_ordered is not None:
                    opens = queue_ordered(ready)
                else:
                    if reserved is not None:
                        # Reservation gate: a segment issues on (or
                        # after) its reserved cycle, where a wake waits.
                        opens = [
                            op
                            for op in ready
                            if reserved[op][seg_index[op]] <= time
                        ]
                    elif interleave:
                        opens = list(ready)
                    else:
                        # Policy 0: the lowest-index incomplete braid op
                        # proceeds alone.
                        while p0_head < n and (
                            not is_braid[p0_head] or phase[p0_head] == _DONE
                        ):
                            p0_head += 1
                        opens = [p0_head] if p0_head in ready else []
                    if closes_first:
                        # A close-first policy without a specialized
                        # queue ranks with the policy's own sort key.
                        opens.sort(
                            key=policy.open_sort_key(
                                self._criticality.__getitem__,
                                self._route_length.__getitem__,
                                arrival.__getitem__,
                            )
                        )
                    else:
                        opens.sort()
                progress = released_any = blocked_any = False
                num_closes = len(closes)
                num_opens = len(opens)
                ci = oi = 0
                # Walk closes then opens (close-first policies), or both
                # merged by op index; no op is both closing and opening.
                while ci < num_closes or oi < num_opens:
                    if ci < num_closes and (
                        closes_first
                        or oi == num_opens
                        or closes[ci] < opens[oi]
                    ):
                        op = closes[ci]
                        ci += 1
                        si = seg_index[op]
                        if trace is not None:
                            trace.append(("close", time, op, si))
                        mask = held[op]
                        if mask:
                            held[op] = 0
                            occupied ^= mask
                            epoch += 1
                        si += 1
                        seg_index[op] = si
                        released_any = progress = True
                        if si < len(segments[op]):
                            # Next segment: ready again, back of the
                            # arrival order.
                            phase[op] = _READY
                            wait_start[op] = time
                            arrival[op] = stamp
                            stamp += 1
                            ready.add(op)
                            if queue_add is not None:
                                queue_add(op)
                            if reserved is not None:
                                cycle = reserved[op][si]
                                if cycle > time and cycle not in wakes:
                                    wakes.add(cycle)
                                    heappush(events, (cycle << _SEQ_BITS) | seq)
                                    seq += 1
                            continue
                        # Complete op (mirrored in the local pass above).
                        if trace is not None:
                            trace.append(("done", time, op))
                        phase[op] = _DONE
                        completion = time
                        for succ in successors[op]:
                            left = remaining[succ] - 1
                            remaining[succ] = left
                            if left:
                                continue
                            if is_braid[succ]:
                                phase[succ] = _READY
                                wait_start[succ] = time
                                arrival[succ] = stamp
                                stamp += 1
                                ready.add(succ)
                                if queue_add is not None:
                                    queue_add(succ)
                                if reserved is not None:
                                    cycle = reserved[succ][0]
                                    if cycle > time and cycle not in wakes:
                                        wakes.add(cycle)
                                        heappush(
                                            events, (cycle << _SEQ_BITS) | seq
                                        )
                                        seq += 1
                            else:
                                phase[succ] = _HOLDING
                                meta[seq] = ((succ + 1) << 2) | _LOCAL
                                heappush(
                                    events,
                                    ((time + local_cycles[succ])
                                     << _SEQ_BITS)
                                    | seq,
                                )
                                seq += 1
                        continue

                    op = opens[oi]
                    oi += 1
                    waited = time - wait_start[op]
                    adaptive = waited >= adaptive_timeout
                    path = None
                    # Epoch early-out: a search that failed at this mesh
                    # epoch with the same (or a wider) candidate set
                    # must fail again -- claims since then only shrank
                    # the free set.
                    if fail_epoch[op] != epoch or (
                        adaptive and not fail_adaptive[op]
                    ):
                        seg = segments[op][seg_index[op]]
                        mask = seg[5]
                        if mask & occupied == 0:
                            path = seg[4]
                        elif adaptive:
                            for cand_path, cand_mask in alternatives(
                                seg[0], seg[1]
                            ):
                                if cand_mask & occupied == 0:
                                    path = cand_path
                                    mask = cand_mask
                                    break
                    if path is None:
                        blocked_any = True
                        if fail_epoch[op] == epoch:
                            # Keep an adaptive failure sticky within the
                            # epoch: a post-drop non-adaptive miss must
                            # not narrow the memo.
                            if adaptive:
                                fail_adaptive[op] = True
                        else:
                            fail_epoch[op] = epoch
                            fail_adaptive[op] = adaptive
                        if waited >= drop_timeout:
                            # Drop and re-inject at the back of the
                            # ready queue.
                            drops += 1
                            wait_start[op] = time
                            arrival[op] = stamp
                            stamp += 1
                            if queue_restamp is not None:
                                queue_restamp(op)
                        if not adaptive:
                            # Retry once adaptivity unlocks, even if no
                            # braid closes in the meantime.
                            cycle = wait_start[op] + adaptive_timeout
                            if cycle not in wakes:
                                wakes.add(cycle)
                                heappush(events, (cycle << _SEQ_BITS) | seq)
                                seq += 1
                        continue
                    # A found path implies the search ran, so seg is
                    # this op's current segment.
                    if adaptive and len(path) - 1 > seg[3]:
                        adaptive_routes += 1
                    if mask:
                        if mask & occupied or held[op]:
                            raise ValueError(
                                f"braid claim for op {op} conflicts with "
                                "claimed links or an open segment"
                            )
                        held[op] = mask
                        occupied |= mask
                    ready.discard(op)
                    if queue_remove is not None:
                        queue_remove(op)
                    phase[op] = _HOLDING
                    braids += 1
                    # Open takes this cycle; stabilize for `hold`; then
                    # close.
                    meta[seq] = ((op + 1) << 2) | _EXPIRY
                    heappush(
                        events, ((time + 1 + seg[2]) << _SEQ_BITS) | seq
                    )
                    seq += 1
                    if trace is not None:
                        trace.append(("open", time, op, seg_index[op]))
                    progress = True
                if released_any and blocked_any:
                    release_with_blocked = True
                if not progress or (not closing and not ready):
                    break
            if release_with_blocked and ready:
                # Links freed this cycle; blocked opens retry next cycle.
                cycle = time + 1
                if cycle not in wakes:
                    wakes.add(cycle)
                    heappush(events, (cycle << _SEQ_BITS) | seq)
                    seq += 1

        mesh.adopt(
            occupied,
            epoch,
            {op: mask for op, mask in enumerate(held) if mask},
        )
        if error is not None:
            raise RuntimeError(error)
        unfinished = [i for i in range(n) if phase[i] != _DONE]
        if unfinished:
            raise RuntimeError(
                f"braid simulation stalled with {len(unfinished)} "
                f"unfinished operations (first: {unfinished[:5]}); this "
                "is a simulator bug"
            )
        return BraidSimResult(
            schedule_length=completion,
            critical_path=plan.critical_path,
            mean_utilization=(
                busy_integral / (max(completion, 1) * mesh.num_links)
            ),
            operations=n,
            braids=braids,
            adaptive_routes=adaptive_routes,
            drops=drops,
        )


def _require_reference_support(policy: Policy) -> None:
    """The preserved seed loop predates policy 7's reservation family."""
    if policy.family != "reactive":
        raise ValueError(
            f"{policy.name} ({policy.family} family) has no reference-"
            "engine implementation: policy 7 is the only policy without "
            "a seed-loop oracle, and its oracle is the flat-vs-vec "
            'differential harness (use engine="flat" or "vec")'
        )


def simulate_braids(
    circuit: Circuit,
    placement: Placement,
    mesh: BraidMesh,
    policy: Policy | int,
    distance: int,
    code: SurfaceCode = DOUBLE_DEFECT,
    factory_routers: tuple[Router, ...] = (),
    config: Optional[BraidSimConfig] = None,
    dag: Optional[CircuitDag] = None,
    engine: str = "flat",
) -> BraidSimResult:
    """Simulate a circuit's braid schedule under one policy.

    Args:
        circuit: Flat Clifford+T circuit.
        placement: Data-qubit placement on the tile grid.
        mesh: Braid mesh matching the placement's grid.
        policy: A :class:`Policy` or its number (0-8).
        distance: Code distance d.
        code: Surface code variant (defaults to double-defect).
        factory_routers: Magic-state factory endpoints.
        config: Timeout/limit knobs.
        dag: Optional pre-built dependence DAG.
        engine: Braid engine (see :data:`ENGINES`); all engines return
            bit-identical results.
    """
    if isinstance(policy, int):
        policy = POLICIES[policy]
    if engine == "reference":
        _require_reference_support(policy)
        from ._braidsim_reference import simulate_braids_reference

        return simulate_braids_reference(
            circuit,
            placement,
            mesh,
            policy,
            distance,
            code=code,
            factory_routers=factory_routers,
            config=config,
            dag=dag,
        )
    cls = engine_class(engine)
    config = config or BraidSimConfig()
    plan = braid_plan(
        circuit,
        placement,
        mesh,
        code,
        distance,
        factory_routers,
        max_detour=config.max_detour,
        dag=dag,
    )
    return cls(policy=policy, config=config, plan=plan, mesh=mesh).run()


def simulate_plan(
    plan: BraidPlan,
    policy: Policy | int,
    config: Optional[BraidSimConfig] = None,
    engine: str = "flat",
) -> BraidSimResult:
    """Simulate one policy from a prebuilt (shared) plan.

    The plan is read-only: callers can run all seven policies from the
    same plan, concurrently or in sequence, and each simulation gets
    fresh mutable state (mesh occupancy, phases, event heap).  The
    ``engine`` selects the implementation (see :data:`ENGINES`); the
    reference engine replays the plan's circuit/placement on a fresh
    mesh through the preserved seed loop.
    """
    if isinstance(policy, int):
        policy = POLICIES[policy]
    if engine == "reference":
        _require_reference_support(policy)
        from ._braidsim_reference import simulate_braids_reference

        return simulate_braids_reference(
            plan.circuit,
            plan.placement,
            BraidMesh(plan.rows, plan.cols),
            policy,
            plan.distance,
            code=plan.code,
            factory_routers=plan.factory_routers,
            config=config,
            dag=plan.dag,
        )
    cls = engine_class(engine)
    return cls(policy=policy, config=config, plan=plan).run()
