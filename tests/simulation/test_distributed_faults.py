"""Fault injection for distributed sweeps: crashes must cost nothing.

Injected failures — a worker SIGKILLed mid-chunk, a corrupt task file,
a lease whose heartbeat is back-dated past the TTL, a poison seed that
raises on every attempt, a flaky seed that fails ``k`` attempts before
succeeding, and a worker that hangs past its lease TTL — and one
invariant: the sweep terminates with every healthy seed bit-identical
to the sequential oracle, every recovery event visible in the
steal/requeue counters, and every exhausted seed quarantined with a
structured diagnostic instead of crashing the fleet.

The tests use the harness built into the worker itself:
``REPRO_WORKER_FAULT=sigkill:<seed>`` makes exactly one worker *daemon*
kill itself (``SIGKILL``: no cleanup, no lease release) right before
running that seed; ``raise:<seed>`` makes every attempt at the seed
raise; ``flaky:<seed>:<k>`` fails the seed's first ``k`` attempts
sweep-wide; ``hang:<seed>`` makes one daemon sleep past its lease TTL.
"""

import multiprocessing
import os
import time
from pathlib import Path

import pytest

from repro.leases import steal_threshold
from repro.simulation import registry
from repro.simulation.distributed import (
    WorkQueue,
    requeue_quarantined,
    worker_loop,
)
from repro.simulation.faults import DEFAULT_MAX_ATTEMPTS
from repro.simulation.sweep import run_sweep, seed_range

SCENARIO = "fig15-environment"
# Generous bound for one killed-and-stolen smoke chunk on a loaded CI box.
WAIT = 120.0


def _oracle(seeds):
    spec = registry.get(SCENARIO)
    return {seed: spec.run(seed, smoke=True) for seed in seeds}


def _make_queue(tmp_path, seeds, chunk_size):
    spec = registry.get(SCENARIO)
    return WorkQueue.create(
        tmp_path / "queue", SCENARIO, spec.params_key(smoke=True),
        seeds, chunk_size,
    )


def _daemon_worker(queue_dir, cache_dir, fault, lease_ttl=30.0):
    """Run one worker daemon in-process (forked child entry point)."""
    os.environ["REPRO_WORKER_FAULT"] = fault
    worker_loop(queue_dir, cache_dir, drain=True, poll=0.01,
                lease_ttl=lease_ttl, _daemon=True)


class TestSigkillMidChunk:
    def test_killed_worker_chunk_is_stolen_and_bit_identical(
        self, tmp_path
    ):
        """Worker dies inside a chunk; a peer steals and finishes it."""
        seeds = [1, 2, 3, 4, 5, 6]
        queue = _make_queue(tmp_path, seeds, chunk_size=3)
        cache_dir = str(tmp_path / "cache")

        # Worker A: dies right before seed 2 — after completing seed 1
        # of its first chunk, mid-chunk by construction.
        context = multiprocessing.get_context("fork")
        victim = context.Process(
            target=_daemon_worker,
            args=(str(tmp_path / "queue"), cache_dir, "sigkill:2"),
        )
        victim.start()
        victim.join(timeout=WAIT)
        assert victim.exitcode == -9  # died by SIGKILL, not exit()

        # The crash left an orphaned lease and an unfinished task.
        assert not queue.is_complete()
        leases = list((queue.sweep_dir / "leases").glob("*.lease"))
        assert len(leases) == 1

        # Worker B (a live peer) steals the expired lease and drains.
        # The lease is minutes-fresh, so expire it the honest way: wait
        # for a short TTL rather than touching the file.
        time.sleep(0.3)
        stats = worker_loop(
            tmp_path / "queue", cache_dir, drain=True, lease_ttl=0.25,
        )
        assert queue.is_complete()
        assert stats.steals == 1

        results, _, totals = queue.collect()
        assert results == _oracle(seeds)
        counters = queue.counters()
        assert counters.steals == 1
        assert counters.requeues == 1
        # Seed 1 was cached by the victim before it died; the stealer
        # replays it instead of recomputing.
        assert totals.cache_hits >= 1

    def test_end_to_end_run_sweep_with_killed_worker(self, tmp_path):
        """The acceptance criterion: >=2 workers, one SIGKILLed
        mid-chunk, and ``run_sweep`` still returns the oracle's bits
        with the steal visible in the counters."""
        seeds = seed_range(6)
        sequential = run_sweep(SCENARIO, seeds, workers=1, smoke=True)

        os.environ["REPRO_WORKER_FAULT"] = "sigkill:3"
        try:
            distributed = run_sweep(
                SCENARIO, seeds, workers=2, backend="distributed",
                smoke=True, queue_dir=tmp_path / "q",
                cache_dir=tmp_path / "c", lease_ttl=0.5, chunk_size=2,
            )
        finally:
            del os.environ["REPRO_WORKER_FAULT"]

        assert distributed.per_seed == sequential.per_seed
        assert distributed.mean == sequential.mean
        assert distributed.variance == sequential.variance
        assert distributed.steals == 1
        assert distributed.requeues == 1
        assert distributed.tasks_total == 3

    def test_fault_fires_exactly_once_across_workers(self, tmp_path):
        """Two daemons, one fault flag: exactly one dies, the other
        (plus the coordinator, if needed) completes the sweep."""
        seeds = seed_range(4)
        os.environ["REPRO_WORKER_FAULT"] = "sigkill:1"
        try:
            distributed = run_sweep(
                SCENARIO, seeds, workers=2, backend="distributed",
                smoke=True, queue_dir=tmp_path / "q",
                cache_dir=tmp_path / "c", lease_ttl=0.5, chunk_size=1,
            )
        finally:
            del os.environ["REPRO_WORKER_FAULT"]
        sequential = run_sweep(SCENARIO, seeds, workers=1, smoke=True)
        assert distributed.per_seed == sequential.per_seed
        assert distributed.steals == 1  # one death, one reclaim


class TestCorruptTaskFile:
    def test_worker_repairs_and_completes(self, tmp_path):
        seeds = [1, 2, 3, 4]
        queue = _make_queue(tmp_path, seeds, chunk_size=2)
        (queue.sweep_dir / "tasks" / "task-0001.json").write_text(
            "\x00 not a task \x00"
        )
        stats = worker_loop(tmp_path / "queue", None, drain=True)
        assert stats.repairs == 1
        assert queue.is_complete()
        results, _, _ = queue.collect()
        assert results == _oracle(seeds)
        counters = queue.counters()
        assert counters.repairs == 1
        assert counters.requeues == 1
        assert counters.steals == 0

    def test_end_to_end_requeue_count_in_sweep_result(self, tmp_path):
        """Corruption injected between enqueue and execution surfaces
        as a requeue in the SweepResult counters."""
        queue_dir = tmp_path / "q"
        seeds = seed_range(3)

        # Stage the sweep by hand so the corruption lands before any
        # worker runs, then let the coordinator-equivalent drain it.
        spec = registry.get(SCENARIO)
        queue = WorkQueue.create(
            queue_dir, SCENARIO, spec.params_key(smoke=True), seeds, 1
        )
        (queue.sweep_dir / "tasks" / "task-0000.json").write_text("junk")
        worker_loop(queue_dir, tmp_path / "c", drain=True)
        results, _, _ = queue.collect()
        assert results == _oracle(seeds)
        assert queue.counters().requeues == 1


class TestBackdatedLease:
    def test_expired_heartbeat_lease_is_reclaimed(self, tmp_path):
        """A lease whose heartbeat mtime is back-dated past the TTL is
        treated as a dead worker's and stolen."""
        seeds = [1, 2]
        queue = _make_queue(tmp_path, seeds, chunk_size=2)
        claim = queue.claim("task-0000", "wedged-worker")
        past = time.time() - 3600
        os.utime(claim.lease_path, (past, past))

        stats = worker_loop(
            tmp_path / "queue", None, drain=True, lease_ttl=5.0,
        )
        assert stats.steals == 1
        assert queue.is_complete()
        results, _, _ = queue.collect()
        assert results == _oracle(seeds)
        assert queue.counters().steals == 1
        # The wedged worker's heartbeat now fails: its lease is gone.
        assert not queue.heartbeat(claim)

    def test_live_lease_is_never_stolen(self, tmp_path):
        """The other half of the contract: a fresh heartbeat protects
        the chunk — the drain pass leaves it alone."""
        queue = _make_queue(tmp_path, [1, 2], chunk_size=1)
        queue.claim("task-0000", "busy-but-alive")
        stats = worker_loop(
            tmp_path / "queue", None, drain=True, lease_ttl=60.0,
        )
        # Only the unleased task was processed.
        assert stats.tasks_done == 1
        assert stats.steals == 0
        assert queue.pending() == ["task-0000"]

    def test_future_mtime_lease_is_never_stolen(self, tmp_path):
        """A lease mtime *ahead* of time.time() (filesystem/clock skew,
        or a clock step) must read as a fresh heartbeat, not as a
        negative — and under ``time.time() - mtime`` arithmetic, hugely
        expired — age."""
        queue = _make_queue(tmp_path, [1, 2], chunk_size=1)
        claim = queue.claim("task-0000", "worker-on-skewed-clock")
        future = time.time() + 300
        os.utime(claim.lease_path, (future, future))

        assert queue.claim("task-0000", "thief", lease_ttl=5.0) is None
        stats = worker_loop(
            tmp_path / "queue", None, drain=True, lease_ttl=5.0,
        )
        assert stats.steals == 0
        assert queue.pending() == ["task-0000"]
        assert queue.heartbeat(claim)

    def test_lease_inside_skew_margin_is_not_stolen(self, tmp_path):
        """An age past the TTL but inside the skew margin is still a
        live lease: sub-margin clock disagreement must never make a
        heartbeating worker look dead."""
        queue = _make_queue(tmp_path, [1, 2], chunk_size=1)
        claim = queue.claim("task-0000", "slightly-behind")
        ttl = 60.0
        margin = steal_threshold(ttl) - ttl
        assert margin > 0
        past = time.time() - (ttl + margin * 0.5)
        os.utime(claim.lease_path, (past, past))

        assert queue.claim("task-0000", "thief", lease_ttl=ttl) is None

        # Strictly beyond TTL + margin the steal goes through.
        past = time.time() - (steal_threshold(ttl) + 0.5)
        os.utime(claim.lease_path, (past, past))
        stolen = queue.claim("task-0000", "thief", lease_ttl=ttl)
        assert stolen is not None and stolen.stolen


class TestHeartbeatLeaseVanishes:
    def test_heartbeat_reports_lost_when_lease_vanishes(self, tmp_path):
        """The lease can be tombstoned away between the owner check and
        the ``utime`` — heartbeat must report the lease lost, never
        crash with FileNotFoundError."""
        queue = _make_queue(tmp_path, [1, 2], chunk_size=1)
        claim = queue.claim("task-0000", "victim")

        real_utime = os.utime

        def vanishing_utime(path, *args, **kwargs):
            # A thief renames the lease to a tombstone at the worst
            # possible instant.
            if Path(path) == claim.lease_path:
                claim.lease_path.rename(
                    claim.lease_path.with_name("task-0000.stale-test")
                )
                return real_utime(path, *args, **kwargs)  # must raise
            return real_utime(path, *args, **kwargs)

        utime_patch = pytest.MonkeyPatch()
        try:
            utime_patch.setattr(os, "utime", vanishing_utime)
            assert queue.heartbeat(claim) is False
        finally:
            utime_patch.undo()

    def test_heartbeat_detects_thief_after_refresh(self, tmp_path):
        """If a thief replaces the lease file between the owner read
        and the ``utime``, the post-refresh re-read must still report
        the claim lost — we refreshed *someone else's* lease."""
        queue = _make_queue(tmp_path, [1, 2], chunk_size=1)
        claim = queue.claim("task-0000", "victim")

        real_utime = os.utime

        def racing_utime(path, *args, **kwargs):
            if Path(path) == claim.lease_path:
                # Thief wins the tombstone rename and re-creates the
                # slot under its own name before our utime lands.
                claim.lease_path.write_text("thief")
            return real_utime(path, *args, **kwargs)

        utime_patch = pytest.MonkeyPatch()
        try:
            utime_patch.setattr(os, "utime", racing_utime)
            assert queue.heartbeat(claim) is False
        finally:
            utime_patch.undo()

    def test_worker_abandons_chunk_on_lost_lease_under_threads(
        self, tmp_path
    ):
        """Race a heartbeating owner against stealer threads deleting
        and reclaiming the lease: heartbeat may flip to False but must
        never raise, mirroring the 8-thread claim race above."""
        import threading

        queue = _make_queue(tmp_path, [1, 2], chunk_size=1)
        claim = queue.claim("task-0000", "owner")
        stop = threading.Event()
        errors = []

        def stealer():
            while not stop.is_set():
                try:
                    claim.lease_path.unlink()
                except OSError:
                    pass
                try:
                    queue.claim("task-0000", "stealer", lease_ttl=0.0)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

        threads = [threading.Thread(target=stealer) for _ in range(4)]
        for thread in threads:
            thread.start()
        lost = False
        try:
            for _ in range(200):
                if not queue.heartbeat(claim):
                    lost = True
        except Exception as exc:  # pragma: no cover
            errors.append(exc)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not errors
        # With the lease deleted under us repeatedly, at least one
        # heartbeat observed the loss and reported it.
        assert lost


class TestPoisonSeedQuarantine:
    def test_poison_seed_quarantined_rest_bit_identical(
        self, tmp_path, monkeypatch
    ):
        """A seed raising on every attempt costs its retry budget, then
        its quarantine slot — never the worker, never the sweep."""
        seeds = [1, 2, 3]
        queue = _make_queue(tmp_path, seeds, chunk_size=1)
        monkeypatch.setenv("REPRO_WORKER_FAULT", "raise:2")
        stats = worker_loop(tmp_path / "queue", tmp_path / "cache",
                            drain=True)
        assert queue.is_complete()  # the sweep drained anyway
        assert stats.quarantined == 1
        assert stats.seed_failures == 1

        results, failures, totals = queue.collect()
        oracle = _oracle(seeds)
        assert results == {s: oracle[s] for s in (1, 3)}
        assert set(failures) == {2}
        record = failures[2]
        assert record["error_type"] == "InjectedFaultError"
        assert "poison" in record["message"]
        assert record["attempts"] == DEFAULT_MAX_ATTEMPTS
        assert totals.quarantined == 1
        # Exactly max_attempts budget markers were spent on the seed.
        assert queue.attempt_count("task-0001", 2) == DEFAULT_MAX_ATTEMPTS
        # The diagnostic JSON names the owning task.
        assert queue.quarantined()[2]["task"] == "task-0001"
        assert queue.counters().quarantined == 1

    def test_manifest_pinned_budget_beats_worker_default(
        self, tmp_path, monkeypatch
    ):
        spec = registry.get(SCENARIO)
        queue = WorkQueue.create(
            tmp_path / "queue", SCENARIO, spec.params_key(smoke=True),
            [1, 2], 1, max_attempts=1,
        )
        monkeypatch.setenv("REPRO_WORKER_FAULT", "raise:1")
        worker_loop(tmp_path / "queue", None, drain=True, max_attempts=5)
        assert queue.attempt_count("task-0000", 1) == 1
        _, failures, _ = queue.collect()
        assert failures[1]["attempts"] == 1

    def test_end_to_end_poison_seed_acceptance(self, tmp_path,
                                               monkeypatch):
        """The acceptance criterion: one always-raising seed, and the
        distributed sweep terminates with no worker death (no steals),
        quarantines exactly that seed after ``max_attempts`` tries,
        reports it in ``failed_seeds``, and leaves every other seed
        bit-identical to the sequential oracle."""
        seeds = seed_range(5)
        healthy = [seed for seed in seeds if seed != 3]
        sequential = run_sweep(SCENARIO, healthy, workers=1, smoke=True)

        monkeypatch.setenv("REPRO_WORKER_FAULT", "raise:3")
        distributed = run_sweep(
            SCENARIO, seeds, workers=2, backend="distributed",
            smoke=True, queue_dir=tmp_path / "q",
            cache_dir=tmp_path / "c", chunk_size=2,
        )
        assert distributed.seeds == list(healthy)
        assert distributed.per_seed == sequential.per_seed
        assert distributed.mean == sequential.mean
        assert distributed.variance == sequential.variance
        assert [r["seed"] for r in distributed.failed_seeds] == [3]
        assert distributed.failed_seeds[0]["attempts"] == (
            DEFAULT_MAX_ATTEMPTS
        )
        # No worker died: the retry loop never let the lease go stale.
        assert distributed.steals == 0


class TestFlakySeed:
    def test_flaky_seed_retries_to_success(self, tmp_path, monkeypatch):
        """``flaky:<seed>:<k>`` with ``k`` under the budget exercises
        the full retry path and still converges on the oracle's bits."""
        seeds = [1, 2, 3]
        queue = _make_queue(tmp_path, seeds, chunk_size=3)
        monkeypatch.setenv("REPRO_WORKER_FAULT", "flaky:2:2")
        stats = worker_loop(tmp_path / "queue", None, drain=True)
        results, failures, _ = queue.collect()
        assert failures == {}
        assert results == _oracle(seeds)
        # Two failed attempts plus the succeeding third.
        assert queue.attempt_count("task-0000", 2) == 3
        assert queue.quarantined() == {}
        assert stats.quarantined == 0

    def test_flaky_beyond_budget_is_quarantined(self, tmp_path,
                                                monkeypatch):
        spec = registry.get(SCENARIO)
        queue = WorkQueue.create(
            tmp_path / "queue", SCENARIO, spec.params_key(smoke=True),
            [1, 2], 1, max_attempts=2,
        )
        monkeypatch.setenv("REPRO_WORKER_FAULT", "flaky:1:5")
        worker_loop(tmp_path / "queue", None, drain=True)
        results, failures, _ = queue.collect()
        assert set(failures) == {1}
        assert failures[1]["attempts"] == 2
        assert results == {2: _oracle([2])[2]}


class TestHangingWorker:
    def test_hung_chunk_is_stolen_and_sweep_matches_oracle(
        self, tmp_path
    ):
        """``hang:<seed>`` sleeps one daemon past its lease TTL: a peer
        steals the chunk and finishes it — steal-then-succeed, with the
        sleeper's late duplicate results harmlessly idempotent."""
        seeds = [1, 2, 3]
        queue = _make_queue(tmp_path, seeds, chunk_size=3)
        cache_dir = str(tmp_path / "cache")

        context = multiprocessing.get_context("fork")
        sleeper = context.Process(
            target=_daemon_worker,
            args=(str(tmp_path / "queue"), cache_dir, "hang:2", 0.5),
        )
        sleeper.start()
        try:
            # Give the sleeper time to claim, run seed 1, and fall
            # asleep before seed 2 (it sleeps well past its 0.5s TTL).
            time.sleep(0.6)
            stats = worker_loop(
                tmp_path / "queue", cache_dir, drain=True,
                lease_ttl=0.25,
            )
        finally:
            sleeper.join(timeout=WAIT)
        assert sleeper.exitcode == 0  # woke up and exited cleanly
        assert stats.steals == 1
        assert queue.is_complete()
        results, failures, _ = queue.collect()
        assert failures == {}
        assert results == _oracle(seeds)
        assert queue.counters().steals == 1


class TestRequeueQuarantined:
    def test_requeue_releases_for_a_clean_redrain(self, tmp_path,
                                                  monkeypatch):
        """After the poison is fixed (fault removed), ``requeue``
        restores the seed's budget and the sweep drains healthy."""
        seeds = [1, 2]
        queue = _make_queue(tmp_path, seeds, chunk_size=1)
        monkeypatch.setenv("REPRO_WORKER_FAULT", "raise:2")
        worker_loop(tmp_path / "queue", None, drain=True)
        assert set(queue.quarantined()) == {2}

        monkeypatch.delenv("REPRO_WORKER_FAULT")
        released = requeue_quarantined(tmp_path / "queue")
        assert released == {queue.sweep_id: [2]}
        assert queue.quarantined() == {}
        assert queue.attempt_count("task-0001", 2) == 0
        assert "task-0001" in queue.pending()

        worker_loop(tmp_path / "queue", None, drain=True)
        results, failures, _ = queue.collect()
        assert failures == {}
        assert results == _oracle(seeds)

    def test_requeue_filters_by_seed(self, tmp_path, monkeypatch):
        queue = _make_queue(tmp_path, [1, 2, 3], chunk_size=1)
        monkeypatch.setenv("REPRO_WORKER_FAULT", "raise:1,raise:3")
        worker_loop(tmp_path / "queue", None, drain=True)
        assert set(queue.quarantined()) == {1, 3}

        assert requeue_quarantined(tmp_path / "queue", seed=7) == {}
        released = requeue_quarantined(tmp_path / "queue", seed=3)
        assert released == {queue.sweep_id: [3]}
        assert set(queue.quarantined()) == {1}


class TestCoordinatorOfLastResort:
    def test_sweep_completes_when_every_worker_dies(self, tmp_path):
        """All local daemons dead: the coordinator notices the stall
        and drains inline — a distributed sweep always terminates."""
        seeds = seed_range(3)
        sequential = run_sweep(SCENARIO, seeds, workers=1, smoke=True)
        # Every worker that picks up seed 1's task dies... but the
        # exactly-once flag means only the first daemon dies; with one
        # worker the coordinator must finish the job itself.
        os.environ["REPRO_WORKER_FAULT"] = "sigkill:1"
        try:
            distributed = run_sweep(
                SCENARIO, seeds, workers=1, backend="distributed",
                smoke=True, queue_dir=tmp_path / "q",
                cache_dir=tmp_path / "c", lease_ttl=0.5, chunk_size=3,
            )
        finally:
            del os.environ["REPRO_WORKER_FAULT"]
        assert distributed.per_seed == sequential.per_seed
        assert distributed.mean == sequential.mean
        assert distributed.steals >= 1
