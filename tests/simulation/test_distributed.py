"""Unit tests for the shared-directory distributed sweep queue.

The lease protocol (exclusive claims, heartbeats, steals), the task
sharding, the worker loop and the coordinator are each pinned here at
the file level; the fault-injection suite and the equivalence suite
cover the end-to-end crash and bit-identity contracts.
"""

import json
import os
import threading
import time
from pathlib import Path

import pytest

from repro.simulation import registry
from repro.simulation.cache import SweepCache
from repro.simulation.distributed import (
    WorkQueue,
    QueuedJob,
    default_worker_id,
    execute_queued,
    params_signature,
    rehydrate_params,
    worker_loop,
)
from repro.simulation.sweep import run_sweep, seed_range

SCENARIO = "fig15-environment"


def _make_queue(tmp_path, seeds=(1, 2, 3, 4), chunk_size=2):
    spec = registry.get(SCENARIO)
    params = spec.params_key(smoke=True)
    return WorkQueue.create(
        tmp_path / "queue", SCENARIO, params, list(seeds), chunk_size
    )


class TestParamsSignature:
    def test_order_independent(self):
        a = params_signature({"x": 1, "y": [1, 2], "z": "s"})
        b = params_signature({"z": "s", "y": [1, 2], "x": 1})
        assert a == b

    def test_round_trips_through_json(self):
        spec = registry.get("fig16-light")
        params = spec.params_key(smoke=True)  # contains nested tuples
        wire = json.loads(json.dumps([[k, v] for k, v in params]))
        assert rehydrate_params(wire) == params

    def test_rehydrated_params_key_cache_keys_match(self):
        for name in registry.names():
            spec = registry.get(name)
            params = spec.params_key(smoke=True)
            wire = json.loads(json.dumps([[k, v] for k, v in params]))
            assert SweepCache.key(name, rehydrate_params(wire), 7) == (
                SweepCache.key(name, params, 7)
            )


class TestWorkQueueLayout:
    def test_create_shards_contiguous_chunks(self, tmp_path):
        queue = _make_queue(tmp_path, seeds=(5, 6, 7, 8, 9), chunk_size=2)
        chunks = queue.manifest["chunks"]
        assert list(chunks.values()) == [[5, 6], [7, 8], [9]]
        assert queue.task_ids() == sorted(chunks)
        for task_id in queue.task_ids():
            task = queue.read_task(task_id)
            assert task["scenario"] == SCENARIO
            assert task["seeds"] == chunks[task_id]

    def test_manifest_records_code_version(self, tmp_path):
        from repro.simulation.cache import code_version

        queue = _make_queue(tmp_path)
        assert queue.manifest["code_version"] == code_version()

    def test_discover_finds_created_sweeps(self, tmp_path):
        queue = _make_queue(tmp_path)
        found = WorkQueue.discover(tmp_path / "queue")
        assert [q.sweep_id for q in found] == [queue.sweep_id]

    def test_discover_skips_junk_entries(self, tmp_path):
        _make_queue(tmp_path)
        (tmp_path / "queue" / "not-a-sweep").mkdir()
        (tmp_path / "queue" / "stray.txt").write_text("junk")
        assert len(WorkQueue.discover(tmp_path / "queue")) == 1

    def test_empty_seed_list_rejected(self, tmp_path):
        spec = registry.get(SCENARIO)
        with pytest.raises(ValueError, match="at least one seed"):
            WorkQueue.create(
                tmp_path, SCENARIO, spec.params_key(smoke=True), [], 1
            )


class TestLeases:
    def test_claim_is_exclusive(self, tmp_path):
        queue = _make_queue(tmp_path)
        first = queue.claim("task-0000", "alice")
        second = queue.claim("task-0000", "bob")
        assert first is not None and not first.stolen
        assert second is None

    def test_release_reopens_the_task(self, tmp_path):
        queue = _make_queue(tmp_path)
        claim = queue.claim("task-0000", "alice")
        queue.release(claim)
        again = queue.claim("task-0000", "bob")
        assert again is not None and not again.stolen

    def test_fresh_lease_cannot_be_stolen(self, tmp_path):
        queue = _make_queue(tmp_path)
        assert queue.claim("task-0000", "alice", lease_ttl=30.0)
        assert queue.claim("task-0000", "bob", lease_ttl=30.0) is None
        assert queue.counters().steals == 0

    def test_expired_lease_is_stolen_once(self, tmp_path):
        queue = _make_queue(tmp_path)
        claim = queue.claim("task-0000", "alice")
        # Back-date the heartbeat: the owner is presumed dead.
        past = time.time() - 3600
        os.utime(claim.lease_path, (past, past))
        stolen = queue.claim("task-0000", "bob", lease_ttl=1.0)
        assert stolen is not None and stolen.stolen
        assert stolen.lease_path.read_text() == "bob"
        # The new lease is fresh again; a third claimer is locked out.
        assert queue.claim("task-0000", "carol", lease_ttl=1.0) is None
        assert queue.counters().steals == 1

    def test_heartbeat_refreshes_and_detects_theft(self, tmp_path):
        queue = _make_queue(tmp_path)
        claim = queue.claim("task-0000", "alice")
        past = time.time() - 3600
        os.utime(claim.lease_path, (past, past))
        assert queue.heartbeat(claim)  # still ours: mtime refreshed
        assert time.time() - claim.lease_path.stat().st_mtime < 60
        stolen = queue.claim("task-0000", "bob", lease_ttl=1.0)
        assert stolen is None  # heartbeat revived it
        # Simulate an actual theft: someone else's owner id in the file.
        claim.lease_path.write_text("mallory")
        assert not queue.heartbeat(claim)

    def test_concurrent_claimers_one_winner(self, tmp_path):
        queue = _make_queue(tmp_path)
        barrier = threading.Barrier(8)
        wins = []

        def contend(name):
            barrier.wait()
            claim = queue.claim("task-0000", name)
            if claim is not None:
                wins.append(name)

        threads = [
            threading.Thread(target=contend, args=(f"w{i}",))
            for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(wins) == 1

    def test_claim_of_done_task_is_refused(self, tmp_path):
        queue = _make_queue(tmp_path)
        queue.mark_done("task-0000", {"results": {}})
        assert queue.claim("task-0000", "alice") is None
        # And the probe lease did not linger.
        assert not (queue.sweep_dir / "leases" / "task-0000.lease").exists()


class TestRepair:
    def test_corrupt_task_file_rewritten_from_manifest(self, tmp_path):
        queue = _make_queue(tmp_path)
        path = queue.sweep_dir / "tasks" / "task-0001.json"
        original = queue.read_task("task-0001")
        path.write_text("{definitely not json")
        assert queue.read_task("task-0001") is None
        assert queue.repair() == 1
        assert queue.read_task("task-0001") == original
        assert queue.counters().repairs == 1
        assert queue.counters().requeues == 1

    def test_missing_task_file_rewritten(self, tmp_path):
        queue = _make_queue(tmp_path)
        (queue.sweep_dir / "tasks" / "task-0000.json").unlink()
        assert queue.repair() == 1
        assert queue.read_task("task-0000") is not None

    def test_identical_corruption_repaired_concurrently_counts_once(
        self, tmp_path
    ):
        queue = _make_queue(tmp_path)
        path = queue.sweep_dir / "tasks" / "task-0000.json"
        path.write_text("garbage")
        assert queue.repair() == 1
        # A second repairer that raced on the same corrupt bytes finds
        # the content-keyed marker and does not double-count.
        path.write_text("garbage")
        assert queue.repair() == 0
        assert queue.counters().repairs == 1

    def test_done_tasks_never_repaired(self, tmp_path):
        queue = _make_queue(tmp_path)
        queue.mark_done("task-0000", {"results": {}})
        (queue.sweep_dir / "tasks" / "task-0000.json").write_text("junk")
        assert queue.repair() == 0


class TestWorkerLoop:
    def test_drain_completes_queue_with_oracle_results(self, tmp_path):
        spec = registry.get(SCENARIO)
        queue = _make_queue(tmp_path, seeds=(1, 2, 3), chunk_size=2)
        stats = worker_loop(
            tmp_path / "queue", tmp_path / "cache", drain=True
        )
        assert stats.tasks_done == 2
        assert stats.seeds_run == 3
        assert queue.is_complete()
        results, _, totals = queue.collect()
        for seed in (1, 2, 3):
            assert results[seed] == spec.run(seed, smoke=True)
        assert totals.cache_misses == 3
        # Leases are all released once their done markers landed.
        assert not list((queue.sweep_dir / "leases").glob("*.lease"))

    def test_second_drain_replays_from_cache(self, tmp_path):
        queue = _make_queue(tmp_path, seeds=(1, 2), chunk_size=1)
        worker_loop(tmp_path / "queue", tmp_path / "cache", drain=True)
        first, _, _ = queue.collect()
        # A fresh sweep over the same seeds: all hits, same bits.
        queue2 = _make_queue(tmp_path, seeds=(1, 2), chunk_size=1)
        stats = worker_loop(
            tmp_path / "queue", tmp_path / "cache", drain=True
        )
        second, _, totals = queue2.collect()
        assert stats.cache_hits == 2 and stats.cache_misses == 0
        assert totals.cache_hits == 2
        assert second == first

    def test_without_cache_results_come_from_done_markers(self, tmp_path):
        spec = registry.get(SCENARIO)
        queue = _make_queue(tmp_path, seeds=(4,), chunk_size=1)
        worker_loop(tmp_path / "queue", None, drain=True)
        results, _, _ = queue.collect()
        assert results[4] == spec.run(4, smoke=True)

    def test_version_skew_sweep_is_skipped(self, tmp_path):
        queue = _make_queue(tmp_path, seeds=(1,), chunk_size=1)
        manifest = dict(queue.manifest)
        manifest["code_version"] = "0" * 16
        (queue.sweep_dir / "manifest.json").write_text(
            json.dumps(manifest)
        )
        with pytest.warns(RuntimeWarning, match="code version"):
            stats = worker_loop(tmp_path / "queue", None, drain=True)
        assert stats.tasks_done == 0
        assert not queue.is_complete()

    def test_max_tasks_stops_early(self, tmp_path):
        queue = _make_queue(tmp_path, seeds=(1, 2, 3, 4), chunk_size=1)
        stats = worker_loop(
            tmp_path / "queue", None, drain=True, max_tasks=2
        )
        assert stats.tasks_done == 2
        assert len(queue.pending()) == 2

    def test_stop_callable_breaks_the_daemon_loop(self, tmp_path):
        _make_queue(tmp_path, seeds=(1,), chunk_size=1)
        calls = []

        def stop():
            calls.append(None)
            return len(calls) > 2

        stats = worker_loop(tmp_path / "queue", None, stop=stop)
        assert stats.tasks_done <= 1  # terminated, not hung

    def test_collect_refuses_incomplete_queue(self, tmp_path):
        queue = _make_queue(tmp_path)
        with pytest.raises(RuntimeError, match="pending"):
            queue.collect()


class TestExecuteDistributed:
    def test_inline_drain_matches_oracle(self, tmp_path):
        spec = registry.get(SCENARIO)
        params = spec.params_key(smoke=True)
        outcome = execute_queued(
            [QueuedJob(SCENARIO, params, (1, 2, 3))], workers=0,
            queue_dir=tmp_path / "q", cache_root=tmp_path / "c",
        )[0]
        for seed in (1, 2, 3):
            assert outcome.results[seed] == spec.run(seed, smoke=True)
        assert outcome.tasks == 3
        assert outcome.steals == 0 and outcome.requeues == 0
        # The sweep directory is cleaned up after collection.
        assert not list((tmp_path / "q").iterdir())

    def test_negative_workers_rejected(self, tmp_path):
        spec = registry.get(SCENARIO)
        with pytest.raises(ValueError, match="workers"):
            execute_queued(
                [QueuedJob(SCENARIO, spec.params_key(smoke=True), (1,))],
                workers=-1, queue_dir=tmp_path,
            )[0]

    def test_bad_lease_ttl_rejected(self, tmp_path):
        spec = registry.get(SCENARIO)
        with pytest.raises(ValueError, match="lease_ttl"):
            execute_queued(
                [QueuedJob(SCENARIO, spec.params_key(smoke=True), (1,))],
                workers=0, queue_dir=tmp_path, lease_ttl=0.0,
            )[0]


class TestRunSweepDistributed:
    def test_local_workers_bit_identical_with_counters(self, tmp_path):
        seeds = seed_range(4)
        sequential = run_sweep(SCENARIO, seeds, workers=1, smoke=True)
        distributed = run_sweep(
            SCENARIO, seeds, workers=2, backend="distributed", smoke=True,
            queue_dir=tmp_path / "q", cache_dir=tmp_path / "c",
        )
        assert distributed.per_seed == sequential.per_seed
        assert distributed.mean == sequential.mean
        assert distributed.variance == sequential.variance
        assert distributed.timing.backend == "distributed"
        assert distributed.timing.workers == 2
        assert distributed.tasks_total == len(seeds)
        assert distributed.steals == 0 and distributed.requeues == 0
        assert distributed.cache_misses == len(seeds)

    def test_warm_cache_skips_the_queue_entirely(self, tmp_path):
        seeds = seed_range(3)
        cold = run_sweep(
            SCENARIO, seeds, workers=0, backend="distributed", smoke=True,
            queue_dir=tmp_path / "q", cache_dir=tmp_path / "c",
        )
        warm = run_sweep(
            SCENARIO, seeds, workers=0, backend="distributed", smoke=True,
            queue_dir=tmp_path / "q", cache_dir=tmp_path / "c",
        )
        assert warm.cache_hits == len(seeds)
        assert warm.tasks_total == 0  # nothing was enqueued
        assert warm.timing.backend == "cache"
        assert warm.per_seed == cold.per_seed

    def test_external_worker_thread_joins_a_zero_worker_sweep(
        self, tmp_path
    ):
        """A daemon pointed at the queue dir picks up coordinator tasks."""
        queue_dir = tmp_path / "q"
        queue_dir.mkdir()
        done = threading.Event()
        stats_box = {}

        def external():
            stats_box["stats"] = worker_loop(
                queue_dir, tmp_path / "c", owner="external-1",
                poll=0.01, stop=done.is_set,
            )

        thread = threading.Thread(target=external)
        thread.start()
        try:
            sequential = run_sweep(
                SCENARIO, seed_range(4), workers=1, smoke=True
            )
            distributed = run_sweep(
                SCENARIO, seed_range(4), workers=0, backend="distributed",
                smoke=True, queue_dir=queue_dir, cache_dir=tmp_path / "c",
            )
        finally:
            done.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert distributed.mean == sequential.mean
        assert distributed.per_seed == sequential.per_seed

    def test_queue_dir_kwargs_rejected_for_pool_backends(self):
        with pytest.raises(ValueError, match="distributed"):
            run_sweep(SCENARIO, [1], workers=1, backend="process",
                      smoke=True, queue_dir="/tmp/nope")
        with pytest.raises(ValueError, match="distributed"):
            run_sweep(SCENARIO, [1], workers=1, backend="thread",
                      smoke=True, lease_ttl=5.0)

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            run_sweep(SCENARIO, [1], workers=-1, backend="distributed",
                      smoke=True)

    def test_bad_lease_ttl_rejected_even_on_warm_cache(self, tmp_path):
        """Validation must not depend on cache state: an all-hits
        replay rejects a bad lease_ttl exactly like a cold run."""
        run_sweep(SCENARIO, [1], workers=0, backend="distributed",
                  smoke=True, cache_dir=tmp_path)
        with pytest.raises(ValueError, match="lease_ttl"):
            run_sweep(SCENARIO, [1], workers=0, backend="distributed",
                      smoke=True, cache_dir=tmp_path, lease_ttl=-1.0)


class TestWorkerIdentity:
    def test_default_worker_id_names_host_and_pid(self):
        owner = default_worker_id()
        assert str(os.getpid()) in owner
