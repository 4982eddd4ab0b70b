"""Declarative grid sweeps with dedup, fan-out, and fault tolerance.

A :class:`GridSpec` expands into :class:`PointSpec` grid points (the
cross product the paper's figures sweep: application x size x policy x
technology).  :class:`SweepRunner` deduplicates identical points,
groups the rest by their shared frontend compilation, and executes the
groups either serially through one :class:`StageCache` (every shared
prefix computed exactly once) or across a
:class:`~concurrent.futures.ProcessPoolExecutor`.

Parallel execution splits each frontend group into *work-stealing
chunks over the policy axis*: when there are more workers than frontend
groups, a group's braid simulations -- the sweep's hot stage -- are
striped across several chunk jobs, and idle workers pull the next chunk
from the pool queue.  Each chunk compiles its frontend at most once in
its worker process, so a group split into ``k`` chunks compiles its
frontend at most ``k`` times; with ``workers <= groups`` the split
degenerates to one chunk per group and every frontend is compiled
exactly once across the pool, as before.

Execution is fault tolerant (see :mod:`repro.runner.faults`):

* every point runs isolated -- an exception becomes a structured
  :class:`~repro.runner.faults.PointFailure` inside the
  :class:`SweepResult` instead of losing the sweep, up to the runner's
  ``max_failures`` budget (0, the default, keeps fail-fast semantics
  by raising :exc:`~repro.runner.faults.SweepAborted` on the first
  failure);
* points retry with deterministic exponential backoff and a per-point
  deadline under a :class:`~repro.runner.faults.RetryPolicy`;
* a crashed worker (``BrokenProcessPool``) or a wedged chunk only
  costs its unfinished chunks, which are re-queued on a rebuilt pool;
* completed points are journaled to ``<out>.partial.jsonl`` as they
  land, so an interrupted sweep resumes (``python -m repro sweep
  --resume``) without recomputing journaled points.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence, Union

from ..apps.registry import SIM_SIZES
from .cache import CacheStats, StageCache
from .faults import (
    PointFailure,
    RetryPolicy,
    SweepAborted,
    active_plan,
    execute_point,
)
from .stages import PointResult, PointSpec, frontend_key

__all__ = [
    "GridSpec",
    "SweepResult",
    "SweepRunner",
    "fig6_grid",
    "fig6x_grid",
    "tiny_grid",
    "journal_path",
    "load_journal",
    "SMALL_SIM_SIZES",
    "SWEEP_SCHEMA_VERSION",
]

DEFAULT_APPS: tuple[str, ...] = ("gse", "sq", "sha1", "im")

SWEEP_SCHEMA_VERSION = 2
"""Schema of persisted sweep reports.  v1 (pre-fault-tolerance) had no
``schema`` field and no ``failures``; the loader accepts both."""

SMALL_SIM_SIZES: dict[str, int] = dict(SIM_SIZES)
"""Per-app "small" instance sizes (a copy of the registry's
:data:`~repro.apps.registry.SIM_SIZES`, shared with the calibration
layer)."""


@dataclasses.dataclass(frozen=True)
class GridSpec:
    """A declarative sweep grid.

    Attributes:
        apps: Applications to sweep.
        sizes: Per-app size knob; None uses each app's default size.  A
            value may be a single size or a *sequence* of sizes, so a
            Figure 9-style size sweep is one grid.
        policies: Braid policies to sweep.
        inline_depths: Flattening variants (None = fully inlined).
        regions: SIMD region count.
        tech_name: Technology preset.
        error_rate: Explicit error rate overriding the preset.
        error_rates: Error-rate *list* sweeping the technology axis
            (None entries fall back to ``tech_name``); overrides
            ``error_rate`` when given.
        distance: Code distance override for simulations.
        window: EPR look-ahead window.
    """

    apps: tuple[str, ...] = DEFAULT_APPS
    sizes: Optional[Mapping[str, Union[int, Sequence[int]]]] = None
    policies: tuple[int, ...] = (6,)
    inline_depths: tuple[Optional[int], ...] = (None,)
    regions: int = 4
    tech_name: str = "intermediate"
    error_rate: Optional[float] = None
    error_rates: Optional[tuple[Optional[float], ...]] = None
    distance: Optional[int] = None
    window: int = 64

    def _app_sizes(self, app: str) -> tuple[Optional[int], ...]:
        if self.sizes is None:
            return (None,)
        value = self.sizes.get(app)
        if value is None:
            return (None,)
        if isinstance(value, int):
            return (value,)
        return tuple(value)

    def _error_rates(self) -> tuple[Optional[float], ...]:
        if self.error_rates is not None:
            return tuple(self.error_rates)
        return (self.error_rate,)

    def expand(self) -> list[PointSpec]:
        """Cross product as normalized, deduplicated grid points."""
        specs: list[PointSpec] = []
        seen: set[str] = set()
        for app in self.apps:
            for size in self._app_sizes(app):
                for inline_depth in self.inline_depths:
                    for error_rate in self._error_rates():
                        for policy in self.policies:
                            spec = PointSpec(
                                app=app,
                                size=size,
                                inline_depth=inline_depth,
                                policy=policy,
                                regions=self.regions,
                                tech_name=self.tech_name,
                                error_rate=error_rate,
                                distance=self.distance,
                                window=self.window,
                            ).normalized()
                            digest = spec.key().digest
                            if digest not in seen:
                                seen.add(digest)
                                specs.append(spec)
        return specs


def fig6_grid(sizes: Optional[Mapping[str, int]] = None) -> GridSpec:
    """The Figure 6 sweep: four applications x seven braid policies."""
    return GridSpec(
        apps=DEFAULT_APPS,
        sizes=dict(sizes) if sizes is not None else dict(SMALL_SIM_SIZES),
        policies=tuple(range(7)),
        distance=5,
    )


def fig6x_grid(sizes: Optional[Mapping[str, int]] = None) -> GridSpec:
    """The extended Fig. 6 plane: the paper's seven reactive policies
    plus policy 7 (the reservation-table family) and policy 8 (reactive
    close-first in program order) over the same four applications."""
    return GridSpec(
        apps=DEFAULT_APPS,
        sizes=dict(sizes) if sizes is not None else dict(SMALL_SIM_SIZES),
        policies=tuple(range(9)),
        distance=5,
    )


def tiny_grid() -> GridSpec:
    """A CI-sized grid: three small apps x the seven reactive policies
    at d=3 (the sizes perfbench's ``tiny`` profile and the golden
    equivalence tests use)."""
    return GridSpec(
        apps=("gse", "sq", "im"),
        sizes={"gse": 3, "sq": 2, "im": 8},
        policies=tuple(range(7)),
        distance=3,
    )


@dataclasses.dataclass
class SweepResult:
    """Outcome of one sweep.

    Attributes:
        points: One result per *completed* deduplicated grid point, in
            grid order (failed points are absent here).
        stats: Cache hit/miss counters for this sweep (all workers).
        elapsed_seconds: Wall-clock time of the sweep.
        workers: Process count used (1 = in-process serial).
        failures: Structured records of every point that exhausted its
            retry policy (empty on a fully successful sweep).
    """

    points: list[PointResult]
    stats: CacheStats
    elapsed_seconds: float
    workers: int
    failures: list[PointFailure] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every grid point completed."""
        return not self.failures

    def to_jsonable(self) -> dict:
        return {
            "schema": SWEEP_SCHEMA_VERSION,
            "points": [p.to_jsonable() for p in self.points],
            "failures": [f.to_jsonable() for f in self.failures],
            "stats": self.stats.as_dict(),
            "elapsed_seconds": self.elapsed_seconds,
            "workers": self.workers,
        }

    @classmethod
    def from_jsonable(cls, payload: dict) -> "SweepResult":
        schema = payload.get("schema", 1)
        if not isinstance(schema, int) or schema < 1:
            raise ValueError(f"invalid sweep report schema {schema!r}")
        if schema > SWEEP_SCHEMA_VERSION:
            raise ValueError(
                f"sweep report schema {schema} is newer than this "
                f"codebase understands (<= {SWEEP_SCHEMA_VERSION})"
            )
        # v1 reports predate fault tolerance: no failures were
        # recordable, so an empty list is exact, not a guess.
        failures = [
            PointFailure.from_jsonable(f)
            for f in payload.get("failures", [])
        ]
        return cls(
            points=[
                PointResult.from_jsonable(p) for p in payload["points"]
            ],
            stats=CacheStats.from_dict(payload.get("stats", {})),
            elapsed_seconds=payload.get("elapsed_seconds", 0.0),
            workers=payload.get("workers", 1),
            failures=failures,
        )

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(
            json.dumps(self.to_jsonable(), indent=1), encoding="utf-8"
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SweepResult":
        return cls.from_jsonable(
            json.loads(Path(path).read_text(encoding="utf-8"))
        )


# ---------------------------------------------------------------------------
# Checkpoint journal


def journal_path(out: Union[str, Path]) -> Path:
    """The checkpoint journal companion of a sweep output file."""
    return Path(f"{out}.partial.jsonl")


def _journal_append(path: Path, point: PointResult) -> None:
    """Durably append one finished point to the journal.

    One JSON object per line, flushed and fsynced, so a sweep killed
    mid-run loses at most the point being written (a torn final line
    is skipped by :func:`load_journal`).  A resumed sweep may append
    after such a torn line, so the write re-establishes the line
    boundary first -- otherwise the new record would fuse with the
    fragment and both would be lost.
    """
    line = json.dumps(
        {
            "schema": SWEEP_SCHEMA_VERSION,
            "digest": point.spec.key().digest,
            "point": point.to_jsonable(),
        },
        separators=(",", ":"),
    )
    prefix = ""
    try:
        with open(path, "rb") as tail:
            tail.seek(-1, os.SEEK_END)
            if tail.read(1) != b"\n":
                prefix = "\n"
    except OSError:  # absent or empty journal: already at a boundary
        pass
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(prefix + line + "\n")
        handle.flush()
        os.fsync(handle.fileno())


def load_journal(path: Union[str, Path]) -> dict[str, PointResult]:
    """Revive journaled points as ``{spec digest: result}``.

    Torn or corrupt lines (a SIGKILL mid-append) and entries whose
    recomputed spec digest disagrees with the recorded one are
    silently skipped: the sweep recomputes those points.
    """
    path = Path(path)
    revived: dict[str, PointResult] = {}
    if not path.exists():
        return revived
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                point = PointResult.from_jsonable(record["point"])
            except (
                json.JSONDecodeError,
                KeyError,
                TypeError,
                ValueError,
            ):
                continue
            digest = point.spec.key().digest
            if record.get("digest") not in (None, digest):
                continue
            revived[digest] = point
    return revived


# ---------------------------------------------------------------------------
# Worker entry point


def _run_chunk(
    spec_payloads: list[dict],
    cache_dir: Optional[str],
    retry_payload: Optional[dict],
) -> dict:
    """Worker entry point: run one chunk of points, isolated per point."""
    plan = active_plan()
    if plan is not None:
        # "stall" injection point: a wedged worker the pool-level
        # watchdog must recycle (cooperative deadlines can't see it).
        plan.check("chunk")
    cache = StageCache(cache_dir)
    retry = (
        RetryPolicy.from_jsonable(retry_payload)
        if retry_payload is not None
        else RetryPolicy()
    )
    points: list[dict] = []
    failures: list[dict] = []
    for payload in spec_payloads:
        outcome = execute_point(
            PointSpec.from_jsonable(payload), cache, retry
        )
        if isinstance(outcome, PointFailure):
            failures.append(outcome.to_jsonable())
        else:
            points.append(outcome.to_jsonable())
    return {
        "points": points,
        "failures": failures,
        "stats": cache.stats.as_dict(),
    }


class SweepRunner:
    """Expands grids, dedups shared work, and executes stage jobs.

    Args:
        cache: Stage cache to run through (made fresh if omitted).
        cache_dir: On-disk cache directory for the default cache; with
            ``workers > 1`` this is also how workers persist results.
        workers: Process count.  ``1`` (default) runs in-process and
            shares every stage through one memory cache; ``> 1`` fans
            work-stealing chunks of frontend-sharing groups out to a
            process pool (splitting the braid stage inside a group
            when workers outnumber groups).
        retry: Per-point retry/backoff/deadline policy (default: one
            attempt, no deadline).
        max_failures: Failure budget.  The sweep aborts with
            :exc:`~repro.runner.faults.SweepAborted` once *more* than
            this many points have failed; ``0`` (default) is the
            historical fail-fast behavior, ``None`` never aborts.
        pool_retries: How many times a chunk lost to a crashed or
            wedged worker is re-queued on a rebuilt pool before its
            points are recorded as failures.
        pool_grace: Additive slack (seconds) on the pool watchdog
            budget derived from ``retry.timeout_s``; only meaningful
            when a per-point deadline is set.
    """

    def __init__(
        self,
        cache: Optional[StageCache] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        workers: int = 1,
        retry: Optional[RetryPolicy] = None,
        max_failures: Optional[int] = 0,
        pool_retries: int = 2,
        pool_grace: float = 30.0,
    ):
        if cache is None:
            cache = StageCache(cache_dir)
        self.cache = cache
        self.workers = max(1, workers)
        self.retry = retry if retry is not None else RetryPolicy()
        self.max_failures = max_failures
        self.pool_retries = max(0, pool_retries)
        self.pool_grace = pool_grace

    def run(
        self,
        grid: Union[GridSpec, Iterable[PointSpec]],
        journal: Optional[Union[str, Path]] = None,
        resume: bool = False,
    ) -> SweepResult:
        """Execute every grid point, computing shared prefixes once.

        Args:
            grid: Grid (or explicit point list) to sweep.
            journal: Checkpoint file; every finished point is appended
                as it lands, and a fresh (non-resume) run truncates any
                stale journal first.
            resume: Revive journaled points instead of recomputing
                them; only the remainder of the grid executes.
        """
        if isinstance(grid, GridSpec):
            specs = grid.expand()
        else:
            specs = _dedup(grid)
        start = time.perf_counter()
        done: dict[str, PointResult] = {}
        if journal is not None:
            journal = Path(journal)
            if resume:
                revived = load_journal(journal)
                wanted = {s.key().digest for s in specs}
                done = {
                    digest: point
                    for digest, point in revived.items()
                    if digest in wanted
                }
            elif journal.exists():
                journal.unlink()
            journal.parent.mkdir(parents=True, exist_ok=True)
        todo = [s for s in specs if s.key().digest not in done]
        failures: list[PointFailure] = []
        before = CacheStats.from_dict(self.cache.stats.as_dict())
        if self.workers == 1 or len(todo) <= 1:
            for spec in todo:
                outcome = execute_point(spec, self.cache, self.retry)
                if isinstance(outcome, PointFailure):
                    failures.append(outcome)
                    self._maybe_abort(failures)
                else:
                    done[outcome.spec.key().digest] = outcome
                    if journal is not None:
                        _journal_append(journal, outcome)
            stats = _diff(self.cache.stats, before)
            workers = 1
        else:
            stats = self._run_parallel(todo, done, failures, journal)
            workers = self.workers
        order = {s.key().digest: i for i, s in enumerate(specs)}
        failures.sort(
            key=lambda f: order.get(f.spec.key().digest, len(order))
        )
        return SweepResult(
            points=[
                done[s.key().digest]
                for s in specs
                if s.key().digest in done
            ],
            stats=stats,
            elapsed_seconds=time.perf_counter() - start,
            workers=workers,
            failures=failures,
        )

    def _maybe_abort(self, failures: list[PointFailure]) -> None:
        if self.max_failures is None:
            return
        if len(failures) <= self.max_failures:
            return
        last = failures[-1]
        raise SweepAborted(
            f"sweep aborted: {len(failures)} point failure(s) exceeded "
            f"max_failures={self.max_failures} "
            f"(last: {last.error_type} in stage {last.stage!r}: "
            f"{last.error})",
            failures=list(failures),
        )

    def _pool_budget(
        self, batch: Sequence[tuple], max_workers: int
    ) -> Optional[float]:
        """Watchdog budget for one pool round (None = no deadline).

        The cooperative per-point deadline inside each worker is the
        precise mechanism; this budget is the backstop that catches a
        worker wedged *outside* it (e.g. stuck before the point even
        starts).  A worker serializes at most ``ceil(chunks /
        workers)`` chunks, each point of which gets its full retry
        schedule; ``pool_grace`` covers process startup and backoff
        sleeps on top.
        """
        timeout_s = self.retry.timeout_s
        if timeout_s is None:
            return None
        per_point = timeout_s * self.retry.max_attempts
        longest = max(len(chunk) for _, chunk, _ in batch)
        waves = math.ceil(len(batch) / max(1, max_workers))
        return per_point * longest * waves + self.pool_grace

    def _fail_chunk(
        self,
        failures: list[PointFailure],
        chunk: Sequence[PointSpec],
        tries: int,
        error: str,
        error_type: str,
        stage: str,
    ) -> None:
        for spec in chunk:
            failures.append(
                PointFailure(
                    spec=spec,
                    stage=stage,
                    error=error,
                    error_type=error_type,
                    attempts=tries + 1,
                    elapsed_seconds=0.0,
                )
            )

    def _run_parallel(
        self,
        specs: Sequence[PointSpec],
        done: dict[str, PointResult],
        failures: list[PointFailure],
        journal: Optional[Path],
    ) -> CacheStats:
        """Fan work-stealing chunks of frontend groups out to a pool.

        With more workers than frontend groups, each group's points --
        dominated by the per-policy braid simulations -- are striped
        across ``workers // groups`` chunk jobs, so the braid stage
        itself parallelizes instead of serializing behind one worker
        per group.  The pool queue is the steal queue: idle workers
        take whichever chunk is next.

        The pool is *recyclable*: a chunk lost to a crashed worker
        (``BrokenProcessPool``) or to a wedged worker (the watchdog
        budget expiring) is re-queued up to ``pool_retries`` times on
        a freshly built pool; only the unfinished chunks are re-run,
        results that already landed are kept.
        """
        groups: dict[str, list[PointSpec]] = {}
        for spec in specs:
            digest = frontend_key(
                spec.app, spec.size, spec.inline_depth
            ).digest
            groups.setdefault(digest, []).append(spec)

        chunks: list[list[PointSpec]] = []
        splits = max(1, self.workers // max(1, len(groups)))
        for group in groups.values():
            stripes = min(splits, len(group))
            # Round-robin striping balances the per-policy cost skew
            # (policy 0/1 simulate far longer on contended apps).
            chunks.extend(
                group[offset::stripes] for offset in range(stripes)
            )

        cache_dir = (
            str(self.cache.disk_dir)
            if self.cache.disk_dir is not None
            else None
        )
        retry_payload = self.retry.to_jsonable()
        stats = CacheStats()
        queue: deque[tuple[int, list[PointSpec], int]] = deque(
            (cid, chunk, 0) for cid, chunk in enumerate(chunks)
        )
        while queue:
            batch = list(queue)
            queue.clear()
            max_workers = min(self.workers, len(batch))
            budget = self._pool_budget(batch, max_workers)
            pool = ProcessPoolExecutor(max_workers=max_workers)
            futures = {
                pool.submit(
                    _run_chunk,
                    [spec.to_jsonable() for spec in chunk],
                    cache_dir,
                    retry_payload,
                ): (cid, chunk, tries)
                for cid, chunk, tries in batch
            }
            hung = False
            try:
                for future in as_completed(
                    list(futures), timeout=budget
                ):
                    cid, chunk, tries = futures.pop(future)
                    try:
                        payload = future.result()
                    except (BrokenProcessPool, OSError) as error:
                        # Worker crashed (OOM-kill, segfault): rebuild
                        # the pool and re-queue only this chunk.
                        self._recycle_chunk(
                            queue, failures, cid, chunk, tries,
                            repr(error), type(error).__name__, "pool",
                        )
                        continue
                    except Exception as error:
                        # The chunk runner itself failed before any
                        # per-point isolation could engage.
                        self._recycle_chunk(
                            queue, failures, cid, chunk, tries,
                            repr(error), type(error).__name__, "pool",
                        )
                        continue
                    stats.merge(CacheStats.from_dict(payload["stats"]))
                    for failure_payload in payload["failures"]:
                        failures.append(
                            PointFailure.from_jsonable(failure_payload)
                        )
                    for point_payload in payload["points"]:
                        point = PointResult.from_jsonable(point_payload)
                        done[point.spec.key().digest] = point
                        if journal is not None:
                            _journal_append(journal, point)
            except FuturesTimeout:
                hung = True
            for future, (cid, chunk, tries) in futures.items():
                self._recycle_chunk(
                    queue,
                    failures,
                    cid,
                    chunk,
                    tries,
                    f"chunk {cid} unfinished after the pool "
                    f"{'watchdog budget expired' if hung else 'broke'}",
                    "PointTimeout" if hung else "BrokenProcessPool",
                    "timeout" if hung else "pool",
                )
            # A wedged worker never drains its queue: don't block on
            # it -- abandon the pool and let the process reap at exit.
            pool.shutdown(wait=not hung, cancel_futures=True)
            self._maybe_abort(failures)
        return stats

    def _recycle_chunk(
        self,
        queue: deque,
        failures: list[PointFailure],
        cid: int,
        chunk: list[PointSpec],
        tries: int,
        error: str,
        error_type: str,
        stage: str,
    ) -> None:
        if tries < self.pool_retries:
            queue.append((cid, chunk, tries + 1))
        else:
            self._fail_chunk(
                failures, chunk, tries, error, error_type, stage
            )


def _dedup(specs: Iterable[PointSpec]) -> list[PointSpec]:
    out: list[PointSpec] = []
    seen: set[str] = set()
    for spec in specs:
        spec = spec.normalized()
        digest = spec.key().digest
        if digest not in seen:
            seen.add(digest)
            out.append(spec)
    return out


def _diff(after: CacheStats, before: CacheStats) -> CacheStats:
    """Counters accumulated between two snapshots of the same cache."""
    result = CacheStats()
    for name in ("hits", "disk_hits", "misses", "seconds", "waits"):
        now, then, out = (
            getattr(after, name),
            getattr(before, name),
            getattr(result, name),
        )
        for stage, count in now.items():
            delta = count - then.get(stage, 0)
            if delta:
                out[stage] = delta
    return result
