"""Crash-safe cache backend: record checksums, gzip write policy,
single-flight locking (8-way multiprocessing stress + staleness
takeover), stale-format entries, and the seeded backend fault modes
(torn write, checksum flip)."""

import gzip
import json
import multiprocessing
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.runner import (
    CorruptEntry,
    FaultAction,
    FaultPlan,
    StageCache,
    StageKey,
    set_fault_plan,
)
from repro.runner.backends import (
    CACHE_FORMAT_VERSION,
    GZIP_THRESHOLD,
    LocalDirBackend,
    decode_record,
    default_backend,
    make_record,
    payload_checksum,
    stored_entry_sizes,
)
from repro.runner.cli import main as cli_main

KEY = StageKey.make("demo", x=1)


@pytest.fixture(autouse=True)
def _no_leaked_fault_plan():
    set_fault_plan(None)
    yield
    set_fault_plan(None)


def _identity_cache_args():
    return dict(to_jsonable=lambda v: v, from_jsonable=lambda p: p)


def _dead_pid():
    """A real-but-dead pid: wait() reaps the child, so the pid is free
    by the time a staleness probe looks at it."""
    child = subprocess.Popen(["true"])
    child.wait()
    return child.pid


# ---------------------------------------------------------------------------
# Record format


class TestRecordFormat:
    def test_round_trip_with_checksum(self):
        record = make_record(KEY.describe(), {"v": [1, 2, 3]})
        assert record["format"] == CACHE_FORMAT_VERSION
        assert record["sha256"] == payload_checksum(record["value"])
        data = LocalDirBackend("unused").encode(record)
        assert decode_record(data) == record

    def test_normalizes_non_string_dict_keys(self):
        # int dict keys sort numerically before persistence but
        # lexicographically (as strings) after a JSON round trip; the
        # checksum must be computed over the normalized form.
        payload = {10: "a", 9: "b", 2: "c"}
        record = make_record(KEY.describe(), payload)
        rebuilt = json.loads(json.dumps(record))
        assert payload_checksum(rebuilt["value"]) == record["sha256"]

    def test_checksum_mismatch_raises_checksum_kind(self):
        record = make_record(KEY.describe(), {"v": 1})
        record["sha256"] = "0" * 64
        with pytest.raises(CorruptEntry) as excinfo:
            decode_record(json.dumps(record).encode())
        assert excinfo.value.kind == "checksum"
        assert "checksum" in excinfo.value.reason

    def test_missing_checksum_on_format_2_raises(self):
        record = make_record(KEY.describe(), {"v": 1})
        del record["sha256"]
        with pytest.raises(CorruptEntry) as excinfo:
            decode_record(json.dumps(record).encode())
        assert excinfo.value.kind == "checksum"

    def test_garbage_and_truncated_gzip_are_undecodable(self):
        with pytest.raises(CorruptEntry) as excinfo:
            decode_record(b"{not json")
        assert excinfo.value.kind == "undecodable"
        packed = gzip.compress(b'{"format": 1}', mtime=0)
        with pytest.raises(CorruptEntry):
            decode_record(packed[: len(packed) // 2])

    def test_non_object_record_rejected(self):
        with pytest.raises(CorruptEntry):
            decode_record(b"[1, 2, 3]")


class TestStaleFormat:
    def test_format_1_entry_is_recomputed_and_rewritten(self, tmp_path):
        # The checksum-less format 1 is no longer read: such an entry is
        # a plain miss -- recomputed and overwritten, never quarantined.
        cache = StageCache(tmp_path)
        path = cache._path(KEY)
        path.parent.mkdir(parents=True)
        legacy = {"format": 1, "key": KEY.describe(), "value": {"v": 1}}
        path.write_text(json.dumps(legacy), encoding="utf-8")
        assert StageCache(tmp_path).verify()["stale_format"] == [str(path)]

        computes = []
        value = cache.get_or_compute(
            KEY,
            lambda: computes.append(1) or {"v": 2},
            **_identity_cache_args(),
        )
        assert value == {"v": 2}
        assert computes == [1]
        assert cache.stats.disk_hits == {}
        record = decode_record(path.read_bytes())
        assert record["format"] == CACHE_FORMAT_VERSION == 2
        assert record["value"] == {"v": 2}
        assert cache.quarantined_count() == 0
        audit = StageCache(tmp_path).verify()
        assert audit["ok"] == audit["checked"] == 1


# ---------------------------------------------------------------------------
# Gzip write policy


class TestGzipBackend:
    def test_small_records_stay_plain_json(self, tmp_path):
        backend = default_backend(tmp_path)
        backend.store("demo", KEY.digest, make_record(KEY.describe(), {"v": 1}))
        raw = backend.entry_path("demo", KEY.digest).read_bytes()
        assert raw[:1] == b"{"
        assert backend.plain_writes == 1

    def test_large_records_gzip_and_round_trip(self, tmp_path):
        backend = default_backend(tmp_path)
        payload = {"rows": [[i] * 40 for i in range(200)]}
        record = make_record(KEY.describe(), payload)
        backend.store("demo", KEY.digest, record)
        path = backend.entry_path("demo", KEY.digest)
        stored, raw, compressed = stored_entry_sizes(path)
        assert compressed and stored < raw
        assert backend.compressed_writes == 1
        assert backend.load("demo", KEY.digest) == record

    def test_legacy_uncompressed_entries_load_forever(self, tmp_path):
        # A large record written as plain JSON (before gzip became the
        # write policy) still loads: reads sniff the gzip magic.
        backend = default_backend(tmp_path)
        record = make_record(
            KEY.describe(), {"rows": [[i] * 40 for i in range(200)]}
        )
        plain = json.dumps(record, indent=1).encode("utf-8")
        assert len(plain) >= GZIP_THRESHOLD
        path = backend.entry_path("demo", KEY.digest)
        path.parent.mkdir(parents=True)
        path.write_bytes(plain)
        assert backend.load("demo", KEY.digest) == record

    def test_encoding_is_deterministic(self, tmp_path):
        backend = default_backend(tmp_path)
        record = make_record(
            KEY.describe(), {"rows": [[i] * 40 for i in range(200)]}
        )
        assert backend.encode(record) == backend.encode(record)
        # Level 6 and mtime=0: the stored bytes are a pure function of
        # the record, so existing format-2 caches stay byte-identical.
        plain = (json.dumps(record, indent=1) + "\n").encode("utf-8")
        assert backend.encode(record) == gzip.compress(
            plain, compresslevel=6, mtime=0
        )

    def test_health_reports_byte_counters(self, tmp_path):
        backend = default_backend(tmp_path)
        backend.store("demo", KEY.digest, make_record(KEY.describe(), {"v": 1}))
        report = backend.health()
        assert report["backend"] == "local"
        assert report["gzip"]["plain_writes"] == 1
        assert report["gzip"]["raw_bytes_written"] > 0
        assert backend.raw_bytes_written == backend.stored_bytes_written


# ---------------------------------------------------------------------------
# Single-flight (in-process semantics)


class TestSingleFlightLocal:
    def test_leader_then_follower(self, tmp_path):
        backend = LocalDirBackend(tmp_path, lock_poll=0.01)
        lease = backend.wait_or_lead("demo", KEY.digest)
        assert lease is not None
        assert lease.lock_path.exists()
        backend.store("demo", KEY.digest, make_record(KEY.describe(), {"v": 1}))
        # Entry now exists: a second caller must not lead.
        assert backend.wait_or_lead("demo", KEY.digest) is None
        lease.release()
        assert not lease.lock_path.exists()
        lease.release()  # idempotent

    def test_dead_pid_lock_taken_over(self, tmp_path):
        backend = LocalDirBackend(tmp_path, lock_poll=0.01)
        lock = backend.lock_path("demo", KEY.digest)
        lock.parent.mkdir(parents=True)
        lock.write_text(
            json.dumps(
                {"pid": _dead_pid(), "host": platform.node(), "time": time.time()}
            ),
            encoding="utf-8",
        )
        lease = backend.wait_or_lead("demo", KEY.digest)
        assert lease is not None
        assert backend.lock_takeovers == 1
        lease.release()

    def test_old_lock_taken_over_by_age(self, tmp_path):
        backend = LocalDirBackend(
            tmp_path, lock_stale_after=0.01, lock_poll=0.01
        )
        lock = backend.lock_path("demo", KEY.digest)
        lock.parent.mkdir(parents=True)
        # A live-holder lock (our own pid) that is simply too old.
        lock.write_text(
            json.dumps(
                {"pid": os.getpid(), "host": platform.node(), "time": 0}
            ),
            encoding="utf-8",
        )
        os.utime(lock, (1, 1))
        lease = backend.wait_or_lead("demo", KEY.digest)
        assert lease is not None
        assert backend.lock_takeovers == 1
        lease.release()

    def test_second_breaker_spares_the_new_leaders_lock(self, tmp_path):
        # Replays the takeover race: followers A and B both judge a dead
        # holder's lock stale; A breaks it and leads with a fresh lock
        # before B gets to break.  B must leave A's live lock alone and
        # wait for A's entry instead of leading a second compute.
        a = LocalDirBackend(tmp_path, lock_poll=0.01)
        b = LocalDirBackend(tmp_path, lock_poll=0.01)
        lock = b.lock_path("demo", KEY.digest)
        lock.parent.mkdir(parents=True)
        lock.write_text(
            json.dumps(
                {"pid": _dead_pid(), "host": platform.node(), "time": 0}
            ),
            encoding="utf-8",
        )
        judge = b._lock_stale
        seen = []

        def interleaved(path):
            verdict = judge(path)
            if not seen:
                # B has judged the dead lock stale; A now acts first.
                seen.append(a.wait_or_lead("demo", KEY.digest))
            elif len(seen) == 1:
                # B is back to waiting: A's lock must still be there.
                seen.append(path.read_text(encoding="utf-8"))
                a.store(
                    "demo", KEY.digest, make_record(KEY.describe(), {"v": 1})
                )
                seen[0].release()
            return verdict

        b._lock_stale = interleaved
        lease = b.wait_or_lead("demo", KEY.digest)
        assert lease is None, "second breaker deleted the leader's lock"
        assert a.lock_takeovers == 1
        assert b.lock_takeovers == 0
        assert json.loads(seen[1])["pid"] == os.getpid()
        assert not lock.exists()
        assert not list(lock.parent.glob("*.break*"))

    def test_entry_stored_before_acquire_is_loaded_not_led(
        self, tmp_path, monkeypatch
    ):
        # Replays the release race: a follower sees no entry, then the
        # leader stores its entry and releases the lock before the
        # follower's O_EXCL acquire.  The acquire succeeds, but the
        # follower must load the entry rather than compute it again.
        backend = LocalDirBackend(tmp_path, lock_poll=0.01)
        lock = backend.lock_path("demo", KEY.digest)
        real_open = os.open
        raced = []

        def open_after_leader_finished(path, flags, *args):
            if Path(path) == lock and not raced:
                raced.append(True)
                backend.store(
                    "demo", KEY.digest, make_record(KEY.describe(), {"v": 1})
                )
            return real_open(path, flags, *args)

        monkeypatch.setattr(os, "open", open_after_leader_finished)
        assert backend.wait_or_lead("demo", KEY.digest) is None
        assert raced
        assert not lock.exists()
        assert backend.flights_led == 0
        assert backend.flights_waited == 1

    def test_followers_load_instead_of_recomputing(self, tmp_path):
        computes = []

        def compute():
            computes.append(1)
            return {"v": 42}

        leader = StageCache(tmp_path)
        value = leader.get_or_compute(KEY, compute, **_identity_cache_args())
        assert value == {"v": 42}
        follower = StageCache(tmp_path)
        assert (
            follower.get_or_compute(KEY, compute, **_identity_cache_args())
            == value
        )
        assert computes == [1]
        assert not list((tmp_path / "demo").glob("*.lock"))


# ---------------------------------------------------------------------------
# Single-flight (multiprocessing stress)


def _hammer_worker(root, log_path, out_path, barrier, plan_json):
    """Worker for the 8-way stress: all processes miss the same key."""
    from repro.runner.cache import StageCache
    from repro.runner.faults import FaultPlan, set_fault_plan

    cache = StageCache(root)
    cache.backend.lock_poll = 0.01
    if plan_json is not None:
        set_fault_plan(FaultPlan.from_json(plan_json))
        # Bound the takeover time when the killed leader's pid is still
        # an unreaped zombie.  Without a kill every leader is alive, so
        # the default staleness applies: a 2 s bound would let a leader
        # stalled by a loaded host be taken over and computed twice.
        cache.backend.lock_stale_after = 2.0
    key = StageKey.make("demo", x=1)

    def compute():
        with open(log_path, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()}\n")
        time.sleep(0.05)  # widen the stampede window
        return {"rows": [[i] * 8 for i in range(64)], "pid_free": True}

    barrier.wait()
    value = cache.get_or_compute(
        key, compute, to_jsonable=lambda v: v, from_jsonable=lambda p: p
    )
    Path(out_path).write_text(
        json.dumps(value, sort_keys=True), encoding="utf-8"
    )


def _run_workers(tmp_path, count, plan_json=None):
    log_path = tmp_path / "computes.log"
    log_path.touch()
    cache_root = tmp_path / "cache"
    barrier = multiprocessing.Barrier(count)
    workers = [
        multiprocessing.Process(
            target=_hammer_worker,
            args=(
                str(cache_root),
                str(log_path),
                str(tmp_path / f"out-{idx}.json"),
                barrier,
                plan_json,
            ),
        )
        for idx in range(count)
    ]
    for worker in workers:
        worker.start()
    deadline = time.time() + 60
    pending = list(workers)
    while pending and time.time() < deadline:
        # Join with a short timeout so exited children are reaped
        # promptly -- a zombie pid would look alive to the
        # staleness probe.
        for worker in list(pending):
            worker.join(timeout=0.05)
            if worker.exitcode is not None:
                pending.remove(worker)
    for worker in pending:
        worker.terminate()
        worker.join()
    assert not pending, "stress workers wedged"
    return workers, log_path, cache_root


@pytest.mark.slow
class TestSingleFlightStress:
    def test_eight_workers_one_compute(self, tmp_path):
        workers, log_path, cache_root = _run_workers(tmp_path, 8)
        assert [w.exitcode for w in workers] == [0] * 8
        computes = log_path.read_text(encoding="utf-8").splitlines()
        assert len(computes) == 1, computes
        outputs = {
            (tmp_path / f"out-{idx}.json").read_text(encoding="utf-8")
            for idx in range(8)
        }
        assert len(outputs) == 1, "loads diverged from the compute"
        audit = StageCache(cache_root).verify()
        assert audit["ok"] == audit["checked"] == 1
        assert audit["quarantined_total"] == 0
        assert not list((cache_root / "demo").glob("*.lock"))

    def test_lock_holder_kill_is_taken_over(self, tmp_path):
        # The seeded kill fires at the compute site -- i.e. in
        # whichever worker won the lock -- so the flight's leader dies
        # holding the lock and a follower must take over.
        plan = FaultPlan(
            [FaultAction(op="kill", stage="demo")],
            seed=7,
            state_dir=str(tmp_path / "state"),
            # This (parent) process installs the plan; without the pid
            # the first worker would claim installership and refuse to
            # hard-exit itself.
            installer_pid=os.getpid(),
        )
        workers, log_path, cache_root = _run_workers(
            tmp_path, 4, plan_json=plan.to_json()
        )
        exits = sorted(w.exitcode for w in workers)
        assert exits == [0, 0, 0, 73], exits
        computes = log_path.read_text(encoding="utf-8").splitlines()
        assert len(computes) == 1, computes
        outputs = {
            path.read_text(encoding="utf-8")
            for path in tmp_path.glob("out-*.json")
        }
        assert len(outputs) == 1
        audit = StageCache(cache_root).verify()
        assert audit["ok"] == audit["checked"] == 1
        assert audit["quarantined_total"] == 0
        assert not list((cache_root / "demo").glob("*.lock"))


# ---------------------------------------------------------------------------
# Quarantine hardening


class TestQuarantineFallback:
    def _corrupt_entry(self, tmp_path):
        cache = StageCache(tmp_path)
        cache.store_payload(KEY, {"v": 1})
        path = cache._path(KEY)
        path.write_text("{corrupt", encoding="utf-8")
        return cache, path

    def test_failed_move_falls_back_to_copy(self, tmp_path, monkeypatch):
        cache, path = self._corrupt_entry(tmp_path)
        import repro.runner.cache as cache_module

        real_replace = os.replace

        def exdev(src, dst):
            if "quarantine" in str(dst):
                raise OSError(18, "Invalid cross-device link")
            return real_replace(src, dst)

        monkeypatch.setattr(cache_module.os, "replace", exdev)
        target = cache.quarantine(path, "failed verify: test")
        assert target is not None and target.exists()
        assert not path.exists(), "corrupt entry left in place"
        sidecar = target.with_suffix(".reason.txt")
        assert "failed verify" in sidecar.read_text(encoding="utf-8")
        assert cache.quarantined_count() == 1

    def test_failed_move_and_copy_still_unlinks(self, tmp_path, monkeypatch):
        cache, path = self._corrupt_entry(tmp_path)
        import repro.runner.cache as cache_module

        real_replace = os.replace

        def exdev(src, dst):
            if "quarantine" in str(dst):
                raise OSError(18, "Invalid cross-device link")
            return real_replace(src, dst)

        monkeypatch.setattr(cache_module.os, "replace", exdev)
        monkeypatch.setattr(
            Path,
            "write_bytes",
            lambda self, data: (_ for _ in ()).throw(OSError("denied")),
        )
        assert cache.quarantine(path, "broken disk") is None
        assert not path.exists(), "corrupt entry left in place"
        # The reason sidecar still lands (written via write_text).
        assert cache.quarantined_count() == 1

    def test_checksum_flip_quarantined_with_checksum_reason(self, tmp_path):
        cache = StageCache(tmp_path)
        cache.store_payload(KEY, {"v": 1})
        path = cache._path(KEY)
        record = json.loads(path.read_text(encoding="utf-8"))
        record["sha256"] = "f" * 64
        path.write_text(json.dumps(record), encoding="utf-8")
        assert cache.load_payload(KEY) is None
        sidecar = (
            cache.disk_dir
            / "quarantine"
            / "demo"
            / f"{KEY.digest}.reason.txt"
        )
        assert "checksum" in sidecar.read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# Store-site fault modes (torn write, checksum flip)


class TestStoreFaults:
    def _stored_under_fault(self, tmp_path, op):
        set_fault_plan(FaultPlan([FaultAction(op=op, stage="demo")]))
        cache = StageCache(tmp_path)
        computes = []
        cache.get_or_compute(
            KEY,
            lambda: computes.append(1) or {"v": 5},
            **_identity_cache_args(),
        )
        set_fault_plan(None)
        return cache, computes

    @pytest.mark.parametrize("op", ["torn", "flip"])
    def test_damaged_entry_recomputed_and_quarantined(self, tmp_path, op):
        cache, computes = self._stored_under_fault(tmp_path, op)
        fresh = StageCache(tmp_path)
        value = fresh.get_or_compute(
            KEY,
            lambda: computes.append(1) or {"v": 5},
            **_identity_cache_args(),
        )
        assert value == {"v": 5}
        assert len(computes) == 2, "damaged entry served instead of recomputed"
        assert fresh.quarantined_count() == 1

    def test_flip_is_reported_as_checksum_by_verify(self, tmp_path):
        cache, _ = self._stored_under_fault(tmp_path, "flip")
        audit = StageCache(tmp_path).verify()
        assert len(audit["checksum"]) == 1
        assert audit["corrupt"] == []
        assert audit["quarantined_total"] == 1

    def test_torn_is_undecodable(self, tmp_path):
        cache, _ = self._stored_under_fault(tmp_path, "torn")
        audit = StageCache(tmp_path).verify()
        assert len(audit["corrupt"]) == 1
        assert audit["checksum"] == []


# ---------------------------------------------------------------------------
# Stats plumbing


class TestStatsPlumbing:
    def test_waits_and_remote_round_trip_and_merge(self):
        from repro.runner import CacheStats

        stats = CacheStats()
        stats.record_wait("demo")
        again = CacheStats.from_dict(stats.as_dict())
        assert again.as_dict() == stats.as_dict()
        # Stats saved while the cache had a remote tier still load;
        # the retired counters are dropped.
        saved = dict(stats.as_dict(), remote={"hits": 2, "degraded": 1})
        assert CacheStats.from_dict(saved).as_dict() == stats.as_dict()

        other = CacheStats()
        other.record_wait("demo")
        stats.merge(other)
        assert stats.waits["demo"] == 2

    def test_disk_stats_reports_raw_and_compressed(self, tmp_path):
        cache = StageCache(tmp_path)
        cache.store_payload(KEY, {"rows": [[i] * 40 for i in range(200)]})
        cache.store_payload(StageKey.make("demo", x=2), {"v": 1})
        stats = cache.disk_stats()
        demo = stats["stages"]["demo"]
        assert demo["entries"] == 2
        assert demo["compressed_entries"] == 1
        assert demo["raw_bytes"] > demo["bytes"]
        assert stats["total_raw_bytes"] > stats["total_bytes"]
        assert stats["backend"]["gzip"]["compressed_writes"] == 1
        assert stats["backend"]["gzip"]["plain_writes"] == 1


# ---------------------------------------------------------------------------
# CLI surface


class TestBackendCli:
    def _seed(self, tmp_path):
        cache = StageCache(tmp_path)
        cache.store_payload(KEY, {"rows": [[i] * 40 for i in range(200)]})
        return cache

    def test_stats_surfaces_bytes_and_health(self, tmp_path, capsys):
        self._seed(tmp_path)
        assert cli_main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_compressed_entries"] == 1
        assert payload["total_raw_bytes"] > payload["total_bytes"]
        assert payload["backend"]["backend"] == "local"

    def test_verify_fails_on_checksum_damage(self, tmp_path, capsys):
        cache = StageCache(tmp_path)
        cache.store_payload(KEY, {"v": 1})
        path = cache._path(KEY)
        record = json.loads(path.read_text(encoding="utf-8"))
        record["sha256"] = "e" * 64
        path.write_text(json.dumps(record), encoding="utf-8")
        code = cli_main(["cache", "verify", "--cache-dir", str(tmp_path)])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["checksum"]) == 1

    def test_stage_flag_rejected_outside_prune_and_migrate(
        self, tmp_path, capsys
    ):
        code = cli_main(
            [
                "cache",
                "verify",
                "--cache-dir",
                str(tmp_path),
                "--stage",
                "demo",
            ]
        )
        assert code == 2


# ---------------------------------------------------------------------------
# Import cost


def test_import_leaves_out_urllib():
    src = Path(repro.__file__).resolve().parent.parent
    code = "import sys, repro.runner; print('urllib.request' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "False"
