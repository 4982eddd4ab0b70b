"""Reference braid simulator: the pre-optimization event loop, verbatim.

This is the seed implementation of the cycle-accurate braid schedule
simulator, kept as the golden model for the optimized core in
:mod:`repro.network.braidsim`.  The optimized simulator must produce a
bit-identical :class:`~repro.network.braidsim.BraidSimResult` for every
(circuit, placement, policy, distance) input; the equivalence tests in
``tests/network/test_braidsim_golden.py`` and the benchmark's
expected-output recorder (``perfbench/record.py``) both drive this
module.

Do not optimize this file.  Its value is that it is the slow, obviously
correct transcription of Sections 6.1 and 6.3: per-event tuple heap
entries, per-attempt route regeneration, per-link occupancy checks.
"""

from __future__ import annotations

import heapq
import itertools
from enum import Enum
from typing import Optional

from ..partition.layout import Placement
from ..qasm.circuit import Circuit
from ..qasm.dag import CircuitDag
from ..qec.codes import DOUBLE_DEFECT, SurfaceCode
from .braidsim import BraidSimConfig, BraidSimResult
from .events import OpTask, build_tasks
from .mesh import BraidMesh, Router
from .policies import POLICIES, Policy
from .routing import find_free_path

__all__ = ["ReferenceBraidSimulator", "simulate_braids_reference"]


class _Phase(Enum):
    WAITING = "waiting"      # dependencies not met
    READY = "ready"          # next segment wants to open
    HOLDING = "holding"      # route claimed, stabilizing
    CLOSING = "closing"      # hold expired, close event pending
    DONE = "done"


class ReferenceBraidSimulator:
    """Single-run braid schedule simulator (seed implementation)."""

    def __init__(
        self,
        circuit: Circuit,
        placement: Placement,
        mesh: BraidMesh,
        policy: Policy,
        distance: int,
        code: SurfaceCode = DOUBLE_DEFECT,
        factory_routers: tuple[Router, ...] = (),
        config: Optional[BraidSimConfig] = None,
        dag: Optional[CircuitDag] = None,
        tasks: Optional[list[OpTask]] = None,
    ) -> None:
        self.circuit = circuit
        self.mesh = mesh
        self.policy = policy
        self.config = config or BraidSimConfig()
        self.dag = dag or CircuitDag(circuit)
        self.tasks = tasks if tasks is not None else build_tasks(
            circuit, placement, mesh, code, distance, factory_routers
        )
        self.num_ops = len(self.tasks)

        self._phase = [_Phase.WAITING] * self.num_ops
        self._segment_index = [0] * self.num_ops
        self._remaining_preds = [
            self.dag.in_degree(i) for i in range(self.num_ops)
        ]
        self._wait_start = [0] * self.num_ops
        self._arrival = [0] * self.num_ops
        self._arrival_counter = itertools.count()
        self._ready_opens: set[int] = set()
        self._closing: list[int] = []
        # Event heap entries: (time, tiebreak, kind, op) with kinds
        # "expiry", "local", "wake".
        self._events: list[tuple[int, int, str, int]] = []
        self._event_counter = itertools.count()
        self._completion_time = 0
        self._busy_integral = 0
        self._last_time = 0
        self._braids = 0
        self._adaptive = 0
        self._drops = 0
        self._p0_head = 0  # policy-0 program-order cursor

    # -- public API ---------------------------------------------------------

    def run(self) -> BraidSimResult:
        for op in self.dag.sources():
            self._make_ready(op, time=0)
        self._schedule_wake(0)
        time = 0
        while self._events:
            time, _, kind, op = heapq.heappop(self._events)
            if time > self.config.max_cycles:
                raise RuntimeError(
                    f"braid simulation exceeded {self.config.max_cycles} "
                    "cycles; likely livelock"
                )
            self._integrate_busy(time)
            batch = [(kind, op)]
            while self._events and self._events[0][0] == time:
                _, _, k2, o2 = heapq.heappop(self._events)
                batch.append((k2, o2))
            self._process_timestep(time, batch)
        unfinished = [
            i for i in range(self.num_ops) if self._phase[i] is not _Phase.DONE
        ]
        if unfinished:
            raise RuntimeError(
                f"braid simulation stalled with {len(unfinished)} "
                f"unfinished operations (first: {unfinished[:5]}); this "
                "is a simulator bug"
            )
        critical = self._critical_path()
        total_time = max(self._completion_time, 1)
        return BraidSimResult(
            schedule_length=self._completion_time,
            critical_path=critical,
            mean_utilization=(
                self._busy_integral / (total_time * self.mesh.num_links)
            ),
            operations=self.num_ops,
            braids=self._braids,
            adaptive_routes=self._adaptive,
            drops=self._drops,
        )

    # -- internals ------------------------------------------------------------

    def _critical_path(self) -> int:
        finish = [0] * self.num_ops
        for index in range(self.num_ops):
            start = 0
            for pred in self.dag.predecessors(index):
                start = max(start, finish[pred])
            finish[index] = start + self.tasks[index].busy_cycles
        return max(finish, default=0)

    def _integrate_busy(self, now: int) -> None:
        if now > self._last_time:
            self._busy_integral += self.mesh.busy_links() * (
                now - self._last_time
            )
            self._last_time = now

    def _schedule_wake(self, time: int) -> None:
        heapq.heappush(
            self._events, (time, next(self._event_counter), "wake", -1)
        )

    def _schedule_event(self, time: int, kind: str, op: int) -> None:
        heapq.heappush(
            self._events, (time, next(self._event_counter), kind, op)
        )

    def _make_ready(self, op: int, time: int) -> None:
        task = self.tasks[op]
        if task.is_braid:
            self._phase[op] = _Phase.READY
            self._wait_start[op] = time
            self._arrival[op] = next(self._arrival_counter)
            self._ready_opens.add(op)
        else:
            # Local op: runs unconditionally for its duration.
            self._phase[op] = _Phase.HOLDING
            self._schedule_event(time + task.local_cycles, "local", op)

    def _complete(self, op: int, time: int) -> None:
        self._phase[op] = _Phase.DONE
        self._completion_time = max(self._completion_time, time)
        for succ in self.dag.successors(op):
            self._remaining_preds[succ] -= 1
            if self._remaining_preds[succ] == 0:
                self._make_ready(succ, time)

    def _process_timestep(
        self, time: int, batch: list[tuple[str, int]]
    ) -> None:
        for kind, op in batch:
            if kind == "local":
                self._complete(op, time)
            elif kind == "expiry":
                if self._phase[op] is _Phase.HOLDING:
                    self._phase[op] = _Phase.CLOSING
                    self._closing.append(op)
            # "wake" entries only force a timestep.
        self._issue_events(time)

    def _eligible_opens(self) -> list[int]:
        if self.policy.interleave:
            return list(self._ready_opens)
        # Policy 0: the lowest-index incomplete braid op proceeds alone.
        while self._p0_head < self.num_ops and (
            not self.tasks[self._p0_head].is_braid
            or self._phase[self._p0_head] is _Phase.DONE
        ):
            self._p0_head += 1
        head = self._p0_head
        if head < self.num_ops and head in self._ready_opens:
            return [head]
        return []

    def _issue_events(self, time: int) -> None:
        # Fixpoint within the timestep: closes can complete operations,
        # whose successors become ready and may open in the same cycle
        # (the greedy "place as many braids as possible" rule).
        any_release_with_blocked = False
        while True:
            closes = sorted(self._closing)
            self._closing = []
            opens = self._eligible_opens()
            key = self.policy.open_sort_key(
                criticality=self.dag.criticality,
                route_length=lambda op: self.tasks[op].route_length,
                arrival=lambda op: self._arrival[op],
                ready_criticalities=[self.dag.criticality(o) for o in opens],
            )
            opens.sort(key=key)
            if self.policy.closes_first:
                sequence: list[tuple[str, int]] = [
                    ("close", o) for o in closes
                ]
                sequence += [("open", o) for o in opens]
            else:
                # Unprioritized: events interleave by program order.
                sequence = sorted(
                    [("close", o) for o in closes]
                    + [("open", o) for o in opens],
                    key=lambda item: item[1],
                )
            progress = False
            released_any = False
            blocked_any = False
            for kind, op in sequence:
                if kind == "close":
                    self._close_segment(op, time)
                    released_any = True
                    progress = True
                else:
                    opened = self._try_open(op, time)
                    progress |= opened
                    blocked_any |= not opened
            any_release_with_blocked |= released_any and blocked_any
            if not progress or (not self._closing and not self._ready_opens):
                break
        if any_release_with_blocked and self._ready_opens:
            # Links freed this cycle; blocked opens retry next cycle.
            self._schedule_wake(time + 1)

    def _close_segment(self, op: int, time: int) -> None:
        self.mesh.release(op)
        self._segment_index[op] += 1
        if self._segment_index[op] >= len(self.tasks[op].segments):
            self._complete(op, time)
        else:
            self._phase[op] = _Phase.READY
            self._wait_start[op] = time
            self._arrival[op] = next(self._arrival_counter)
            self._ready_opens.add(op)

    def _try_open(self, op: int, time: int) -> bool:
        segment = self.tasks[op].segments[self._segment_index[op]]
        waited = time - self._wait_start[op]
        adaptive = waited >= self.config.adaptive_timeout
        path = find_free_path(
            self.mesh,
            segment.src,
            segment.dst,
            adaptive=adaptive,
            max_detour=self.config.max_detour,
        )
        if path is None:
            if waited >= self.config.drop_timeout:
                # Drop and re-inject at the back of the ready queue.
                self._drops += 1
                self._wait_start[op] = time
                self._arrival[op] = next(self._arrival_counter)
            if not adaptive:
                # Make sure the op is retried once adaptivity unlocks,
                # even if no braid closes in the meantime.
                self._schedule_wake(
                    self._wait_start[op] + self.config.adaptive_timeout
                )
            return False
        if adaptive and len(path) - 1 > segment.min_length:
            self._adaptive += 1
        self.mesh.claim(path, op)
        self._ready_opens.discard(op)
        self._phase[op] = _Phase.HOLDING
        self._braids += 1
        # Open takes this cycle; stabilize for `hold`; then close.
        self._schedule_event(time + 1 + segment.hold, "expiry", op)
        return True


def simulate_braids_reference(
    circuit: Circuit,
    placement: Placement,
    mesh: BraidMesh,
    policy: Policy | int,
    distance: int,
    code: SurfaceCode = DOUBLE_DEFECT,
    factory_routers: tuple[Router, ...] = (),
    config: Optional[BraidSimConfig] = None,
    dag: Optional[CircuitDag] = None,
) -> BraidSimResult:
    """Simulate one policy with the pre-optimization simulator."""
    if isinstance(policy, int):
        policy = POLICIES[policy]
    if policy.family != "reactive":
        raise ValueError(
            f"{policy.name} ({policy.family} family) postdates the "
            "preserved seed loop: policy 7 is the only policy without "
            "a seed-loop oracle, and its oracle is the flat-vs-vec "
            "differential harness"
        )
    sim = ReferenceBraidSimulator(
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
    return sim.run()
