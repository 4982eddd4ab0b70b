"""Braid prioritization policies 0--8.

Policies 0--6 are the paper's reactive heuristics (Section 6.3).  Each
controls three things:

* whether events from different operations may interleave (Policy 0
  executes each operation's event sequence atomically, in program order);
* whether the initial qubit layout is interaction-optimized (Section 6.2);
* how competing events are ordered within a cycle: braid type (closing
  braids release network resources, so close-first helps), criticality
  (transitive dependents), and route length.

Policy 8 is one more reactive close-first policy: it ranks ready opens
by program index (oldest op first), so a drop never sends an op to the
back.  Policy 7 is the one classical-scheduler *family* (machinery in
:mod:`.policies_sched`): it plans periodic braid issue on a modulo
reservation table.  The :attr:`Policy.family` field selects the engine
machinery; reactive policies keep the paper's seed-reference oracle,
while the reservation family is oracle-checked by the flat-vs-vec
differential harness instead (the preserved seed loop predates it and
refuses to run it).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Sequence

__all__ = ["Policy", "POLICIES", "ALL_POLICIES"]


@dataclasses.dataclass(frozen=True)
class Policy:
    """One braid scheduling policy.

    Attributes:
        number: Policy number (0-6 from the paper, 7 the reservation
            family, 8 the program-order close-first policy).
        description: One-line summary.
        interleave: Allow events of different ops to interleave.
        optimized_layout: Use the Section 6.2 interaction-aware layout.
        closes_first: Process closing braids before opening braids.
        use_criticality: Rank opens by criticality, highest first.
        use_length: Rank opens by route length, longest first.
        combined_length_rule: Policy 6's refinement -- among the most
            critical braids prefer short ones; among less critical
            braids prefer long ones.
        program_order: Rank opens by program index alone; a drop does
            not send the op to the back.
        family: Engine machinery selector -- ``"reactive"`` for the
            ranked heuristics, ``"reservation"`` for the
            :mod:`.policies_sched` modulo-scheduled family.
    """

    number: int
    description: str
    interleave: bool = True
    optimized_layout: bool = False
    closes_first: bool = False
    use_criticality: bool = False
    use_length: bool = False
    combined_length_rule: bool = False
    program_order: bool = False
    family: str = "reactive"

    @property
    def name(self) -> str:
        return f"Policy {self.number}"

    def open_sort_key(
        self,
        criticality: Callable[[int], int],
        route_length: Callable[[int], int],
        arrival: Callable[[int], int],
        ready_criticalities: Sequence[int] = (),
    ) -> Callable[[int], tuple]:
        """Build the ready-open ordering key (ascending sort).

        Args:
            criticality: Op index -> transitive dependent count.
            route_length: Op index -> minimal route length.
            arrival: Op index -> FIFO arrival sequence (re-injection
                moves an op to the back).
            ready_criticalities: Criticalities of currently-ready opens
                (used by Policy 6 to split high/low criticality groups).
        """
        if self.program_order or self.family == "reservation":
            # Age is the program index, not the FIFO arrival stamp, so
            # re-injection never reorders.  (Reservation issue cycles
            # are planned, not ranked; ties break in program order.)
            return lambda op: (op,)
        if self.combined_length_rule:
            values = sorted(ready_criticalities, reverse=True)
            # "Highest criticality" = top half of the ready set (the
            # boundary value of the upper half, so ties stay together).
            threshold = values[(len(values) - 1) // 2] if values else 0

            def key(op: int) -> tuple:
                crit = criticality(op)
                length = route_length(op)
                if crit >= threshold:
                    return (-crit, length, arrival(op), op)
                return (-crit, -length, arrival(op), op)

            return key
        if self.use_criticality:
            return lambda op: (-criticality(op), arrival(op), op)
        if self.use_length:
            return lambda op: (-route_length(op), arrival(op), op)
        return lambda op: (arrival(op), op)


POLICIES: dict[int, Policy] = {
    policy.number: policy
    for policy in [
        Policy(
            number=0,
            description="No optimization; operations and events in program order",
            interleave=False,
        ),
        Policy(
            number=1,
            description="Interleave events; operations in program order",
        ),
        Policy(
            number=2,
            description="Interleave + interaction-optimized layout",
            optimized_layout=True,
        ),
        Policy(
            number=3,
            description="Interleave + layout + criticality-first",
            optimized_layout=True,
            use_criticality=True,
        ),
        Policy(
            number=4,
            description="Interleave + layout + longest-braid-first",
            optimized_layout=True,
            use_length=True,
        ),
        Policy(
            number=5,
            description="Interleave + layout + closing-braids-first",
            optimized_layout=True,
            closes_first=True,
        ),
        Policy(
            number=6,
            description=(
                "Combined: interleave, layout, closes first, criticality, "
                "short-first for critical / long-first for non-critical"
            ),
            optimized_layout=True,
            closes_first=True,
            use_criticality=True,
            use_length=True,
            combined_length_rule=True,
        ),
        Policy(
            number=7,
            description=(
                "Reservation table: modulo-scheduled periodic issue on "
                "per-cycle link-slot tables (VLIW idiom)"
            ),
            optimized_layout=True,
            family="reservation",
        ),
        Policy(
            number=8,
            description=(
                "Interleave + layout + closes first, oldest ready op "
                "(program order) first"
            ),
            optimized_layout=True,
            closes_first=True,
            program_order=True,
        ),
    ]
}

ALL_POLICIES: tuple[Policy, ...] = tuple(
    POLICIES[i] for i in sorted(POLICIES)
)
