"""Vectorized braid engine: batched open-candidate tests on numpy bitsets.

This engine is the second, independently written event loop behind the
cross-engine differential harness: where the flat engine
(:mod:`.braidsim`) fuses every per-timestep action into one loop, this
one runs one method per step (``_process_timestep`` ->
``_issue_events`` -> ``_try_open``/``_close_segment`` -> ``_complete``
-> ``_make_ready`` -> ``_schedule_event``).  Under contention its
costly step is the per-braid ``_try_open`` route scan, re-run for
every blocked op each time a release invalidates the epoch memo, and
the issue fixpoint replaces it with batched tests:

* link occupancy and every route mask are packed into uint64 *words*
  (word ``i`` holds links ``64i..64i+63``), each segment's dominant
  route is a prepacked word row, and the adaptive candidates of a
  ``(src, dst)`` pair are one block of a lazily grown bank matrix,
  rows in the exact preference order of
  :meth:`~.routing.RouteTable.alternatives`.  When a fixpoint round
  queues :data:`_BATCH_MIN` or more candidate opens, their
  current-segment rows are stacked into a ``(candidates, words)``
  matrix and "which blocked braids could open now" is one broadcast
  AND + any reduction (plus a segmented ``logical_and.reduceat`` over
  the bank) instead of a Python route scan per braid, and the policy
  order (criticality / route length / the combined median rule) is
  one ``np.lexsort`` over arrays prefetched from the shared plan;
* below the batch threshold the engine runs the scalar
  :meth:`VecBraidSimulator._sort_opens` ordering directly — with no
  incremental queues to maintain, and with empty/singleton ready sets
  short-circuited before any list is built.

The batched test is a *prefilter*, not the final word: occupancy only
grows while a round's opens are walked, so an op whose every candidate
is blocked against the round's occupancy floor is guaranteed to fail
at its turn — only its failure bookkeeping runs, bit-for-bit the flat
engine's.  Survivors go through the scalar ``_try_open``,
which performs the authoritative search, claim, and counter updates.
Results are therefore bit-identical to the flat engine and to the seed
loop in :mod:`._braidsim_reference`, which the golden tests and the
benchmark's ``perfbench/record.py`` validation enforce.

The plan-derived arrays (mask words, alternative bank, key arrays) are
cached per :class:`~.plan.BraidPlan` identity and shared by all
policy simulations of a design point; they are derived *from* the plan
and never written back — the plan stays read-only.

The scheduler families (policies 7/8) reuse this loop unchanged except
that the scoreboard family's dependency rows and ready bitset are kept
as ``<u8`` word arrays (:class:`_VecMatrixScoreboard`), so the
oldest-ready selection is one ``unpackbits``/``nonzero`` pass — the
vectorized select the flat engine's big-int walk mirrors bit for bit.

numpy is an optional dependency (the ``vec`` extra): importing this
module without it is fine, but constructing the engine raises an
``ImportError`` that names the extra.
"""

from __future__ import annotations

import heapq
import itertools
from collections import OrderedDict

try:  # numpy is the "vec" optional extra, not a hard dependency
    import numpy as np
except ImportError:  # pragma: no cover - exercised via monkeypatching
    np = None

from .braidsim import (
    _CLOSING,
    _DONE,
    _EXPIRY,
    _HOLDING,
    _LOCAL,
    _READY,
    _SEQ_BITS,
    _SEQ_LIMIT,
    _SEQ_MASK,
    _WAKE,
    BraidSimResult,
    BraidSimulator,
)
from .plan import BraidPlan
from .policies_sched import ScoreboardReadyQueue, scoreboard_matrix

__all__ = ["VecBraidSimulator", "NUMPY_HINT", "vec_plan_arrays"]

NUMPY_HINT = (
    "the vectorized braid engine needs numpy; install the optional "
    'extra ("pip install repro[vec]" or "pip install numpy") or use '
    'engine="flat"'
)

_BATCH_MIN = 8
"""Candidate opens below which a round runs the scalar path.

Purely a performance threshold — the batched prefilter only ever
classifies *guaranteed* failures, so both paths produce identical
results; the golden tests run contention scenarios on both sides."""

_WORD_DTYPE = "<u8"  # little-endian uint64: word i holds links 64i..64i+63


def _mask_words(mask: int, words: int):
    """Unpack a big-int link mask into a (words,) uint64 array."""
    return np.frombuffer(
        mask.to_bytes(words * 8, "little"), dtype=_WORD_DTYPE
    )


def _words_mask(row) -> int:
    """Repack a (words,) uint64 array into the big-int link mask."""
    return int.from_bytes(row.tobytes(), "little")


class _VecPlanArrays:
    """Word-packed, read-only views of one plan's routing data.

    Built once per :class:`BraidPlan` and shared by every policy
    simulation of that plan (see :func:`vec_plan_arrays`).  The
    alternative bank grows lazily — a ``(src, dst)`` pair's block is
    packed on the first adaptive test that needs it — and consolidates
    into one matrix on demand so the gather stays a single fancy index.
    """

    __slots__ = (
        "plan", "words", "seg_rows", "route_length",
        "_criticality", "_pair_span", "_pending", "_matrix", "_size",
    )

    def __init__(self, plan: BraidPlan) -> None:
        self.plan = plan
        num_links = (plan.rows + 1) * plan.cols + plan.rows * (
            plan.cols + 1
        )
        self.words = max(1, (num_links + 63) // 64)
        seg_rows: list[tuple] = []
        for segs in plan.segments:
            seg_rows.append(
                tuple(_mask_words(seg[5], self.words) for seg in segs)
            )
        self.seg_rows = seg_rows
        self.route_length = np.asarray(plan.route_length, dtype=np.int64)
        self._criticality = None
        self._pair_span: dict[tuple, tuple[int, int]] = {}
        self._pending: list = []
        self._matrix = np.zeros((0, self.words), dtype=_WORD_DTYPE)
        self._size = 0

    def criticality(self):
        if self._criticality is None:
            self._criticality = np.asarray(
                self.plan.criticality(), dtype=np.int64
            )
        return self._criticality

    def pair_span(self, src, dst) -> tuple[int, int]:
        """(start, count) of the pair's candidate rows in the bank."""
        span = self._pair_span.get((src, dst))
        if span is None:
            alts = self.plan.routes.alternatives(src, dst)
            block = np.stack(
                [_mask_words(mask, self.words) for _, mask in alts]
            )
            span = (self._size, len(alts))
            self._pair_span[(src, dst)] = span
            self._pending.append(block)
            self._size += len(alts)
        return span

    def bank_matrix(self):
        if self._pending:
            self._matrix = np.concatenate([self._matrix, *self._pending])
            self._pending = []
        return self._matrix


_WORD64 = 0xFFFFFFFFFFFFFFFF


class _VecMatrixScoreboard:
    """Word-packed flavor of :class:`~.policies_sched.MatrixScoreboard`.

    Same bits, same protocol — dependency rows and the ready bitset
    live as ``<u8`` word arrays (the engine's link-mask idiom), column
    clears are fancy-indexed word ANDs, and the oldest-ready selection
    is one ``unpackbits`` + ``nonzero`` over the ready words instead
    of a per-bit Python walk.
    """

    __slots__ = ("rows_words", "ready_words", "num_ops")

    def __init__(self, matrix, num_ops: int) -> None:
        words = max(1, (num_ops + 63) // 64)
        if num_ops:
            self.rows_words = np.stack(
                [_mask_words(row, words) for row in matrix]
            ).copy()  # frombuffer rows are read-only; columns mutate
        else:
            self.rows_words = np.zeros((0, words), dtype=_WORD_DTYPE)
        self.ready_words = np.zeros(words, dtype=_WORD_DTYPE)
        self.num_ops = num_ops

    def retire(self, op: int, successors) -> None:
        succs = successors[op]
        if succs:
            clear = np.uint64(~(1 << (op & 63)) & _WORD64)
            self.rows_words[list(succs), op >> 6] &= clear

    def row_clear(self, op: int) -> bool:
        return not self.rows_words[op].any()

    def outstanding(self) -> int:
        return int(self.rows_words.any(axis=1).sum())

    def add_ready(self, op: int) -> None:
        self.ready_words[op >> 6] |= np.uint64(1 << (op & 63))

    def remove_ready(self, op: int) -> None:
        self.ready_words[op >> 6] &= np.uint64(
            ~(1 << (op & 63)) & _WORD64
        )

    def ordered_ready(self) -> list[int]:
        bits = np.unpackbits(
            self.ready_words.view(np.uint8), bitorder="little"
        )
        return np.nonzero(bits)[0].tolist()


_VEC_MEMO: "OrderedDict[int, _VecPlanArrays]" = OrderedDict()
VEC_MEMO_CAPACITY = 8


def vec_plan_arrays(plan: BraidPlan) -> _VecPlanArrays:
    """Per-plan word-array cache (id-keyed, identity-checked LRU).

    Mirrors the :func:`~.plan.braid_plan` memo idiom: the entry keeps
    its plan alive, so an id hit that passes the ``is`` check can only
    be the plan the arrays were packed for.
    """
    if np is None:
        raise ImportError(NUMPY_HINT)
    key = id(plan)
    entry = _VEC_MEMO.get(key)
    if entry is not None and entry.plan is plan:
        _VEC_MEMO.move_to_end(key)
        return entry
    entry = _VecPlanArrays(plan)
    _VEC_MEMO[key] = entry
    _VEC_MEMO.move_to_end(key)
    while len(_VEC_MEMO) > VEC_MEMO_CAPACITY:
        _VEC_MEMO.popitem(last=False)
    return entry


class VecBraidSimulator(BraidSimulator):
    """Braid simulator with numpy-batched open-candidate tests.

    Same constructor, :attr:`~.braidsim.BraidSimulator.trace` and
    results as :class:`~.braidsim.BraidSimulator`, but an independently
    written event loop: one method per step (``_process_timestep`` ->
    ``_issue_events`` -> ``_try_open``/``_close_segment`` ->
    ``_complete`` -> ``_make_ready`` -> ``_schedule_event``) where the
    flat engine runs one fused loop, so the differential harness
    compares two implementations.  See the module docstring for the
    batching scheme and the scalar fast paths below the batch
    threshold.
    """

    def __init__(self, *args, **kwargs) -> None:
        if np is None:
            raise ImportError(NUMPY_HINT)
        super().__init__(*args, **kwargs)
        if self._scoreboard is not None:
            # Scoreboard family: swap in the word-packed flavor (same
            # bits, vectorized select) before anything enqueues.
            self._scoreboard = _VecMatrixScoreboard(
                scoreboard_matrix(self.plan), self.num_ops
            )
            self._open_queue = ScoreboardReadyQueue(self._scoreboard)
        else:
            # The incremental ready queues are superseded: small rounds
            # sort directly (cheaper than queue upkeep at fig6's
            # ready-set sizes), large rounds lexsort over prefetched
            # arrays.
            self._open_queue = None
        vec = vec_plan_arrays(self.plan)
        self._vec = vec
        # Lazily bound (start, count) into the alternative bank,
        # stamped with the segment it was bound for (ops advance
        # through segments, invalidating the binding).
        n = self.num_ops
        self._alt_start = [0] * n
        self._alt_count = [0] * n
        self._alt_seg = [-1] * n
        self._len_arr = vec.route_length
        if self.policy.use_criticality or self.policy.combined_length_rule:
            self._crit_arr = vec.criticality()
        else:
            self._crit_arr = None
        # Event-loop state (the flat engine keeps these in locals).
        self._arrival_counter = itertools.count()
        self._ready_opens: set[int] = set()
        self._closing: list[int] = []
        # Event heap entries: time << 34 | seq, with the event's kind
        # and op packed into _event_meta[seq].  Ordering is (time, seq),
        # exactly the seed's (time, tiebreak) tuple order.  Meta entries
        # are popped with their events, so memory tracks outstanding
        # events, not every event ever scheduled.
        self._events: list[int] = []
        self._event_meta: dict[int, int] = {}
        self._event_seq = 0
        self._completion_time = 0
        self._busy_integral = 0
        self._last_time = 0
        self._braids = 0
        self._adaptive = 0
        self._drops = 0
        self._p0_head = 0  # policy-0 program-order cursor

    # -- the method-per-step event loop --------------------------------------

    def run(self) -> BraidSimResult:
        for op in self.plan.sources:
            self._make_ready(op, time=0)
        self._schedule_event(0, _WAKE, -1)
        events = self._events
        meta = self._event_meta
        max_cycles = self.config.max_cycles
        heappop = heapq.heappop
        while events:
            entry = heappop(events)
            time = entry >> _SEQ_BITS
            if time > max_cycles:
                raise RuntimeError(
                    f"braid simulation exceeded {max_cycles} "
                    "cycles; likely livelock"
                )
            self._integrate_busy(time)
            batch = [meta.pop(entry & _SEQ_MASK)]
            while events and events[0] >> _SEQ_BITS == time:
                batch.append(meta.pop(heappop(events) & _SEQ_MASK))
            self._process_timestep(time, batch)
        phase = self._phase
        unfinished = [
            i for i in range(self.num_ops) if phase[i] != _DONE
        ]
        if unfinished:
            raise RuntimeError(
                f"braid simulation stalled with {len(unfinished)} "
                f"unfinished operations (first: {unfinished[:5]}); this "
                "is a simulator bug"
            )
        if self._scoreboard is not None:
            dirty = self._scoreboard.outstanding()
            if dirty:
                raise RuntimeError(
                    f"scoreboard finished with {dirty} rows still "
                    "holding dependency bits; retire bookkeeping "
                    "diverged from the event loop"
                )
        critical = self.plan.critical_path
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

    def _integrate_busy(self, now: int) -> None:
        if now > self._last_time:
            self._busy_integral += self.mesh.busy_links() * (
                now - self._last_time
            )
            self._last_time = now

    def _schedule_event(self, time: int, kind: int, op: int) -> None:
        seq = self._event_seq
        if seq >= _SEQ_LIMIT:
            raise RuntimeError("braid simulation event counter overflow")
        self._event_seq = seq + 1
        self._event_meta[seq] = ((op + 1) << 2) | kind
        heapq.heappush(self._events, (time << _SEQ_BITS) | seq)

    def _make_ready(self, op: int, time: int) -> None:
        if self._is_braid[op]:
            self._phase[op] = _READY
            self._wait_start[op] = time
            self._arrival[op] = next(self._arrival_counter)
            self._ready_opens.add(op)
            if self._open_queue is not None:
                self._open_queue.add(op)
            if self._resv is not None:
                # Reserved-cycle gate: wake exactly when the table says
                # this segment issues (no event may exist there yet).
                cycle = self._resv.reserved[op][self._segment_index[op]]
                if cycle > time:
                    self._schedule_event(cycle, _WAKE, -1)
        else:
            # Local op: runs unconditionally for its duration.
            self._phase[op] = _HOLDING
            self._schedule_event(
                time + self.plan.local_cycles[op], _LOCAL, op
            )

    def _complete(self, op: int, time: int) -> None:
        if self.trace is not None:
            self.trace.append(("done", time, op))
        self._phase[op] = _DONE
        if time > self._completion_time:
            self._completion_time = time
        if self._scoreboard is not None:
            # Clear this op's column before readying successors, so a
            # wakeup (zero row) is visible the moment an op is ready.
            self._scoreboard.retire(op, self._successors)
        remaining = self._remaining_preds
        for succ in self._successors[op]:
            remaining[succ] -= 1
            if remaining[succ] == 0:
                self._make_ready(succ, time)

    def _process_timestep(self, time: int, batch: list[int]) -> None:
        phase = self._phase
        for packed in batch:
            kind = packed & 3
            if kind == _LOCAL:
                self._complete((packed >> 2) - 1, time)
            elif kind == _EXPIRY:
                op = (packed >> 2) - 1
                if phase[op] == _HOLDING:
                    phase[op] = _CLOSING
                    self._closing.append(op)
            # _WAKE entries only force a timestep.
        self._issue_events(time)

    def _eligible_opens(self, time: int) -> list[int]:
        if self._resv is not None:
            # Reservation gate: an op may only issue on (or after) its
            # segment's reserved cycle; a _WAKE is always pending for
            # gated ops, scheduled when they became ready.
            reserved = self._resv.reserved
            seg_index = self._segment_index
            return [
                op
                for op in self._ready_opens
                if reserved[op][seg_index[op]] <= time
            ]
        if self.policy.interleave:
            return list(self._ready_opens)
        # Policy 0: the lowest-index incomplete braid op proceeds alone.
        head = self._p0_head
        is_braid = self._is_braid
        phase = self._phase
        while head < self.num_ops and (
            not is_braid[head] or phase[head] == _DONE
        ):
            head += 1
        self._p0_head = head
        if head < self.num_ops and head in self._ready_opens:
            return [head]
        return []

    def _sort_opens(self, opens: list[int]) -> list[int]:
        """Policy open order for close-first issue sequences.

        Matches ``Policy.open_sort_key`` exactly: every key ends in the
        unique FIFO arrival stamp, so the sort is total and reduces to
        plain tuple sorts over prefetched arrays.
        """
        policy = self.policy
        arrival = self._arrival
        if policy.family == "scoreboard":
            # Oldest ready = lowest program index (matrix-wakeup age).
            opens.sort()
            return opens
        if policy.combined_length_rule:
            crit = self._criticality
            length = self._route_length
            values = sorted((crit[op] for op in opens), reverse=True)
            # "Highest criticality" = top half of the ready set (the
            # boundary value of the upper half, so ties stay together).
            threshold = values[(len(values) - 1) // 2] if values else 0
            decorated = []
            for op in opens:
                c = crit[op]
                key_len = length[op] if c >= threshold else -length[op]
                decorated.append((-c, key_len, arrival[op], op))
            decorated.sort()
            return [entry[3] for entry in decorated]
        if policy.use_criticality:
            crit = self._criticality
            decorated = [(-crit[op], arrival[op], op) for op in opens]
            decorated.sort()
            return [entry[2] for entry in decorated]
        if policy.use_length:
            length = self._route_length
            decorated = [(-length[op], arrival[op], op) for op in opens]
            decorated.sort()
            return [entry[2] for entry in decorated]
        opens.sort(key=arrival.__getitem__)
        return opens

    def _close_segment(self, op: int, time: int) -> None:
        if self.trace is not None:
            self.trace.append(("close", time, op, self._segment_index[op]))
        self.mesh.release(op)
        self._segment_index[op] += 1
        if self._segment_index[op] >= len(self._segments[op]):
            self._complete(op, time)
        else:
            self._phase[op] = _READY
            self._wait_start[op] = time
            self._arrival[op] = next(self._arrival_counter)
            self._ready_opens.add(op)
            if self._open_queue is not None:
                self._open_queue.add(op)
            if self._resv is not None:
                cycle = self._resv.reserved[op][self._segment_index[op]]
                if cycle > time:
                    self._schedule_event(cycle, _WAKE, -1)

    def _try_open(self, op: int, time: int) -> bool:
        config = self.config
        mesh = self.mesh
        waited = time - self._wait_start[op]
        adaptive = waited >= config.adaptive_timeout
        path = None
        mask = 0
        # Epoch early-out: a search that failed at this mesh epoch with
        # the same (or a wider) candidate set must fail again -- claims
        # since then only shrank the free set.
        if self._fail_epoch[op] == mesh.epoch and (
            self._fail_adaptive[op] or not adaptive
        ):
            pass
        else:
            src, dst, hold, min_len, dor_path, dor_mask = self._segments[
                op
            ][self._segment_index[op]]
            occupied = mesh.occupied_mask
            if dor_mask & occupied == 0:
                path, mask = dor_path, dor_mask
            elif adaptive:
                for cand_path, cand_mask in self._routes.alternatives(
                    src, dst
                ):
                    if cand_mask & occupied == 0:
                        path, mask = cand_path, cand_mask
                        break
        if path is None:
            if self._fail_epoch[op] == mesh.epoch:
                # Keep an adaptive failure sticky within the epoch: a
                # post-drop non-adaptive miss must not narrow the memo.
                self._fail_adaptive[op] |= adaptive
            else:
                self._fail_epoch[op] = mesh.epoch
                self._fail_adaptive[op] = adaptive
            if waited >= config.drop_timeout:
                # Drop and re-inject at the back of the ready queue.
                self._drops += 1
                self._wait_start[op] = time
                self._arrival[op] = next(self._arrival_counter)
                if self._open_queue is not None:
                    self._open_queue.restamp(op)
            if not adaptive:
                # Make sure the op is retried once adaptivity unlocks,
                # even if no braid closes in the meantime.
                self._schedule_event(
                    self._wait_start[op] + config.adaptive_timeout,
                    _WAKE,
                    -1,
                )
            return False
        # A found path implies the search branch ran, so the segment
        # fields (hold, min_len) are bound.
        if adaptive and len(path) - 1 > min_len:
            self._adaptive += 1
        mesh.claim_mask(mask, op)
        self._ready_opens.discard(op)
        if self._open_queue is not None:
            self._open_queue.remove(op)
        self._phase[op] = _HOLDING
        self._braids += 1
        # Open takes this cycle; stabilize for `hold`; then close.
        self._schedule_event(time + 1 + hold, _EXPIRY, op)
        if self.trace is not None:
            self.trace.append(("open", time, op, self._segment_index[op]))
        return True

    # -- plumbing -----------------------------------------------------------

    def _occ_words(self, occupied: int):
        """A big-int occupancy mask as uint64 words."""
        return np.frombuffer(
            occupied.to_bytes(self._vec.words * 8, "little"),
            dtype=_WORD_DTYPE,
        )

    # -- batched open tests -------------------------------------------------

    def _ordered_opens_vec(self, opens: list[int]) -> list[int]:
        """Policy open order as one lexsort over prefetched arrays.

        Matches :meth:`_sort_opens` exactly: every key
        ends in (arrival, op), so the order is total and deterministic
        regardless of the ready set's iteration order.
        """
        ops = np.asarray(opens, dtype=np.int64)
        arrival_list = self._arrival
        arrival = np.fromiter(
            (arrival_list[op] for op in opens), np.int64, len(opens)
        )
        policy = self.policy
        if policy.combined_length_rule:
            crit = self._crit_arr[ops]
            length = self._len_arr[ops]
            n = len(opens)
            # Boundary value of the descending upper half, as in
            # _sort_opens: values_desc[(n-1)//2].
            kth = n - 1 - (n - 1) // 2
            threshold = np.partition(crit, kth)[kth]
            key_len = np.where(crit >= threshold, length, -length)
            order = np.lexsort((ops, arrival, key_len, -crit))
        elif policy.use_criticality:
            order = np.lexsort((ops, arrival, -self._crit_arr[ops]))
        elif policy.use_length:
            order = np.lexsort((ops, arrival, -self._len_arr[ops]))
        else:
            order = np.lexsort((ops, arrival))
        return ops[order].tolist()

    def _record_failure(self, op: int, time: int, adaptive: bool) -> None:
        """The failure branch of ``_try_open``, minus the search.

        Runs for ops the prefilter proved blocked; must stay
        bit-identical to the bookkeeping in :meth:`_try_open`.
        """
        if self._fail_epoch[op] == self.mesh.epoch:
            self._fail_adaptive[op] |= adaptive
        else:
            self._fail_epoch[op] = self.mesh.epoch
            self._fail_adaptive[op] = adaptive
        config = self.config
        if time - self._wait_start[op] >= config.drop_timeout:
            self._drops += 1
            self._wait_start[op] = time
            self._arrival[op] = next(self._arrival_counter)
        if not adaptive:
            self._schedule_event(
                self._wait_start[op] + config.adaptive_timeout, _WAKE, -1
            )

    def _bank_all_blocked(self, ops: list[int], occ):
        """Per op: True when *every* adaptive candidate hits ``occ``.

        ``ops`` are braid ops whose DOR row is blocked and whose
        candidate set is the full alternative list of their current
        segment; rows are gathered from the shared bank in one fancy
        index with a segmented all-reduction.
        """
        m = len(ops)
        starts = np.empty(m, dtype=np.int64)
        counts = np.empty(m, dtype=np.int64)
        alt_start = self._alt_start
        alt_count = self._alt_count
        alt_seg = self._alt_seg
        seg_index = self._segment_index
        vec = self._vec
        for j, op in enumerate(ops):
            si = seg_index[op]
            if alt_seg[op] != si:
                seg = self._segments[op][si]
                start, count = vec.pair_span(seg[0], seg[1])
                alt_start[op] = start
                alt_count[op] = count
                alt_seg[op] = si
            starts[j] = alt_start[op]
            counts[j] = alt_count[op]
        total = int(counts.sum())
        group = np.cumsum(counts) - counts
        rows = (
            np.arange(total, dtype=np.int64)
            - np.repeat(group, counts)
            + np.repeat(starts, counts)
        )
        hit = (vec.bank_matrix()[rows] & occ).any(axis=1)
        # Alternatives lists are never empty (the DOR route is one of
        # them), so every reduceat segment is nonempty.
        return np.logical_and.reduceat(hit, group)

    def _classify_opens(self, ordered: list[int], time: int, occ,
                        use_memo: bool):
        """Prefilter: which queued opens are *guaranteed* to fail.

        ``occ`` is a lower bound on occupancy at every op's turn in the
        upcoming walk (claims only add links; every release of the
        round either already happened or was subtracted by the caller),
        so a candidate set fully blocked against ``occ`` stays blocked.
        ``use_memo`` additionally applies the epoch memo — only sound
        when the mesh epoch cannot change before the op's turn
        (close-first rounds, where all releases precede the open walk).
        """
        k = len(ordered)
        wait_start = self._wait_start
        timeout = self.config.adaptive_timeout
        adaptive = np.fromiter(
            (time - wait_start[op] >= timeout for op in ordered), bool, k
        )
        seg_index = self._segment_index
        seg_rows = self._vec.seg_rows
        dor_rows = np.stack(
            [seg_rows[op][seg_index[op]] for op in ordered]
        )
        dor_blocked = (dor_rows & occ).any(axis=1)
        if use_memo:
            epoch = self.mesh.epoch
            fail_epoch = self._fail_epoch
            fail_adaptive = self._fail_adaptive
            memo_fail = np.fromiter(
                (
                    fail_epoch[op] == epoch
                    and (fail_adaptive[op] or not a)
                    for op, a in zip(ordered, adaptive.tolist())
                ),
                bool,
                k,
            )
            definite_fail = memo_fail | (dor_blocked & ~adaptive)
            need_bank = dor_blocked & adaptive & ~memo_fail
        else:
            definite_fail = dor_blocked & ~adaptive
            need_bank = dor_blocked & adaptive
        if need_bank.any():
            idx = np.nonzero(need_bank)[0]
            definite_fail[idx] |= self._bank_all_blocked(
                [ordered[i] for i in idx.tolist()], occ
            )
        return definite_fail, adaptive

    # -- the issue fixpoint -------------------------------------------------

    def _issue_events(self, time: int) -> None:
        closes_first = self.policy.closes_first
        any_release_with_blocked = False
        while True:
            closes = self._closing
            if closes:
                closes.sort()
                self._closing = []
            progress = False
            released_any = False
            blocked_any = False
            # Open candidates come from the pre-close ready set, as in
            # the flat engine (closes completing ops this round ready
            # their successors for the *next* fixpoint round).
            opens = self._eligible_opens(time) if self._ready_opens else []
            k = len(opens)
            batched = k >= _BATCH_MIN
            if closes_first:
                if self._open_queue is not None:
                    # Scoreboard family: the word-packed ready bitset
                    # is the order (oldest program index first).
                    ordered = self._open_queue.ordered(self._ready_opens)
                elif batched:
                    ordered = self._ordered_opens_vec(opens)
                elif k > 1:
                    ordered = self._sort_opens(opens)
                else:
                    ordered = opens
                for op in closes:
                    self._close_segment(op, time)
                    released_any = True
                    progress = True
                if batched:
                    # Post-close occupancy only grows from here, and
                    # the epoch is fixed for the walk: memo + batched
                    # candidate tests give exact failure verdicts.
                    definite_fail, adaptive = self._classify_opens(
                        ordered,
                        time,
                        self._occ_words(self.mesh.occupied_mask),
                        use_memo=True,
                    )
                    for i, op in enumerate(ordered):
                        if definite_fail[i]:
                            self._record_failure(
                                op, time, bool(adaptive[i])
                            )
                            blocked_any = True
                        else:
                            opened = self._try_open(op, time)
                            progress |= opened
                            blocked_any |= not opened
                else:
                    for op in ordered:
                        opened = self._try_open(op, time)
                        progress |= opened
                        blocked_any |= not opened
            else:
                # Unprioritized: closes and opens interleave by program
                # order (a two-pointer merge of the two sorted lists;
                # an op is never both closing and opening).
                opens.sort()
                if batched:
                    # The epoch moves mid-walk here, so the prefilter
                    # tests against the round's occupancy *floor* —
                    # everything this round's closes will release,
                    # subtracted up front — and leaves the memo to the
                    # scalar path of the surviving opens.
                    release_mask = 0
                    for op in closes:
                        release_mask |= self.mesh.owner_mask(op)
                    definite_fail, adaptive = self._classify_opens(
                        opens,
                        time,
                        self._occ_words(
                            self.mesh.occupied_mask & ~release_mask
                        ),
                        use_memo=False,
                    )
                ci, num_closes = 0, len(closes)
                oi = 0
                while ci < num_closes or oi < k:
                    if oi >= k or (
                        ci < num_closes and closes[ci] < opens[oi]
                    ):
                        self._close_segment(closes[ci], time)
                        ci += 1
                        released_any = True
                        progress = True
                    elif batched and definite_fail[oi]:
                        self._record_failure(
                            opens[oi], time, bool(adaptive[oi])
                        )
                        oi += 1
                        blocked_any = True
                    else:
                        opened = self._try_open(opens[oi], time)
                        oi += 1
                        progress |= opened
                        blocked_any |= not opened
            any_release_with_blocked |= released_any and blocked_any
            if not progress or (
                not self._closing and not self._ready_opens
            ):
                break
        if any_release_with_blocked and self._ready_opens:
            self._schedule_event(time + 1, _WAKE, -1)
