"""Distributed sweep execution over a shared-directory work queue.

One sweep becomes a directory of **task files** (one seed chunk each)
that any number of worker processes — on this machine or on any machine
mounting the same volume — drain concurrently.  There is no broker and
no network protocol: every step is one of the file protocols of
:mod:`repro.leases` (atomic JSON publishes, exclusive creates, leases).

Queue layout (one subdirectory per sweep under the queue dir)::

    queue-dir/
      sweep-<params-hash>-<nonce>/
        manifest.json            # scenario, params, seeds, chunks, code version
        tasks/task-0000.json     # one seed chunk: {"scenario", "params", "seeds"}
        leases/task-0000.lease   # claim file: owner id inside, heartbeat = mtime
        leases/task-0000.stale-* # steal tombstone (one per reclaim event)
        leases/task-0000.requeue-* # repair marker (one per corrupt-task rewrite)
        done/task-0000.json      # result marker: per-seed payloads + counters
        attempts/task-0000.seed-7.attempt-02  # one marker per started attempt
        quarantine/task-0000.seed-7.json      # diagnostic for a poisoned seed
        faults/                  # exactly-once flags for injected faults

Each task is claimed with a :mod:`repro.leases` lease.  Liveness is the
heartbeat alone: the owner touches the lease's mtime before every seed,
and a lease whose mtime is older than ``lease_ttl`` (plus the skew
margin of :func:`repro.leases.steal_threshold`) belongs to a dead *or
wedged* worker and is fair game for any live one — a hung-but-alive
worker must still lose its chunk.  ``lease_ttl`` must therefore exceed
the longest single-seed runtime.  Steal tombstones stay next to the
lease as the sweep's steal record.

Results flow through the PR-2 cache *and* the done marker: each seed's
reduced result is ``put`` into the shared :class:`SweepCache` (so other
sweeps replay it) and inlined into the task's done marker (so
collection never depends on the cache being writable).  A worker that
dies after caching some seeds loses nothing: the stealer's cache
lookups turn those seeds into hits and only the rest recompute — every
execution is idempotent and byte-identical, so double completion of a
task is benign by design.

Crash recovery, concretely:

* **worker SIGKILLed mid-chunk** — its lease stops heartbeating,
  expires after ``lease_ttl``, and any live worker steals the task
  (counted as a *steal*, visible in :class:`SweepResult`);
* **corrupt task file** — the manifest is the source of truth; any
  worker (or the coordinator) rewrites the task file from it
  atomically (counted as a *requeue* via a content-keyed marker, so
  concurrent repairers do not double-count);
* **every worker dead** — the coordinating ``run_sweep`` notices the
  queue stalling and drains the remaining tasks inline, so a
  distributed sweep always terminates with the oracle's results;
* **poison seed** — a seed whose scenario *raises* is caught at the
  per-seed error boundary instead of crashing the worker.  Every
  started attempt leaves an ``O_EXCL`` marker under ``attempts/`` (so
  the budget survives worker crashes and steals), failed attempts back
  off exponentially, and once ``max_attempts`` markers exist the seed
  is **quarantined**: a diagnostic JSON (exception type, message,
  traceback digest, attempt count) lands under ``quarantine/``, the
  chunk's done marker records the seed under ``"failed"``, and the
  sweep drains normally — healthy seeds in the same chunk keep their
  results, and the poisoned seed surfaces in
  ``SweepResult.failed_seeds`` instead of killing the fleet.
  ``requeue_quarantined`` releases a quarantined seed for another
  round of attempts after a fix.

Fault injection (the test harness's hook): ``REPRO_WORKER_FAULT``
holds comma-separated specs — ``sigkill:<seed>`` (one daemon SIGKILLs
itself, exactly once per sweep), ``hang:<seed>`` (one daemon sleeps
past the lease TTL, exactly once — exercises steal-then-succeed),
``raise:<seed>`` (the seed raises deterministically in every executor
— the always-poison seed) and ``flaky:<seed>:<k>`` (the seed's first
``k`` attempts raise, then it succeeds — exercises bounded retry).
The process-killing kinds fire in daemon workers only; the
coordinator's inline drain never kills or wedges the caller's
process.  See :mod:`repro.simulation.faults`.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import signal
import socket
import tempfile
import time
import warnings
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro import leases
from repro.simulation import faults, registry
from repro.simulation.cache import (
    SweepCache,
    code_version,
    reduced_from_payload,
    reduced_to_payload,
)
from repro.simulation.faults import DEFAULT_MAX_ATTEMPTS
from repro.simulation.parallel import auto_chunk_size
from repro.simulation.results import RateSummary, SeriesResult

Reduced = Union[RateSummary, SeriesResult]
Params = Tuple[Tuple[str, object], ...]

DEFAULT_LEASE_TTL = 30.0
DEFAULT_POLL = 0.05
_ENV_FAULT = faults.ENV_FAULT


class SweepAborted(RuntimeError):
    """A coordinator's ``stop()`` fired mid-run: the queued sweeps were
    abandoned and their sweep directories (tasks, leases, attempt
    markers, quarantine diagnostics) removed, so the queue dir is clean
    for whatever runs next."""

# Sweeps already warned about (by id) for a code-version mismatch.
_WARNED_VERSION_SKEW: set = set()


# ---------------------------------------------------------------------------
# parameter signatures: one canonical shape on both sides of the JSON gap
# ---------------------------------------------------------------------------

def params_signature(params) -> Params:
    """The canonical, order-independent form of a parameter set.

    Accepts a mapping or an iterable of ``(name, value)`` pairs in any
    insertion order and returns the sorted tuple-of-pairs every key in
    the system (task files, lease math, :meth:`SweepCache.key`) is
    computed from.  Container values normalize exactly like
    :meth:`ScenarioSpec.params` does, so a parameter set that took the
    JSON round trip through a task file signs identically to the one
    the coordinator hashed.
    """
    pairs = params.items() if hasattr(params, "items") else params
    return tuple(sorted(
        (str(name), registry._hashable(value)) for name, value in pairs
    ))


def rehydrate_params(pairs: Sequence[Sequence[object]]) -> Params:
    """Rebuild a params tuple from its JSON form (lists back to tuples)."""
    return params_signature(tuple((name, value) for name, value in pairs))


def default_worker_id() -> str:
    """A worker identity unique enough for lease files: host + pid."""
    return f"{socket.gethostname()}-{os.getpid()}"


def queue_path_error(path) -> Optional[str]:
    """Why ``path`` cannot serve as a queue dir (``None`` when it can).

    The one validation (and message shape) every queue-facing surface
    shares — ``repro queue``, ``repro worker`` and the service's
    ``GET /v1/queue`` — so a mistyped volume is a loud, consistent
    error everywhere instead of an empty-queue report.
    """
    target = Path(path)
    if not target.exists():
        return f"queue path {path} does not exist"
    if not target.is_dir():
        return f"queue path {path} is not a directory"
    return None


# ---------------------------------------------------------------------------
# claims and counters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Claim:
    """One successful lease on one task."""

    task_id: str
    lease_path: Path
    owner: str
    stolen: bool


@dataclass(frozen=True)
class QueueCounters:
    """Lifetime accounting of one sweep's queue, read from its files."""

    tasks: int
    done: int
    steals: int
    repairs: int
    quarantined: int = 0

    @property
    def requeues(self) -> int:
        """Every event that put a task back in play: steals + repairs."""
        return self.steals + self.repairs


@dataclass
class WorkerStats:
    """What one worker (or one drain pass) processed."""

    tasks_done: int = 0
    seeds_run: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_errors: int = 0
    steals: int = 0
    repairs: int = 0
    seed_failures: int = 0
    quarantined: int = 0


# ---------------------------------------------------------------------------
# the work queue (one sweep)
# ---------------------------------------------------------------------------

class WorkQueue:
    """One sweep's task files, leases and done markers on a shared volume.

    The coordinator creates it (:meth:`create`); workers discover it
    (:meth:`discover`) and drive :meth:`claim` / :meth:`heartbeat` /
    :meth:`mark_done` / :meth:`release`; anyone may :meth:`repair`.
    All state is files, so every operation is safe across processes and
    machines sharing the directory.
    """

    def __init__(self, sweep_dir: Path, manifest: dict) -> None:
        self.sweep_dir = Path(sweep_dir)
        self.manifest = manifest

    # -- construction --------------------------------------------------
    @classmethod
    def create(
        cls,
        queue_dir: Union[str, Path],
        scenario: str,
        params: Params,
        seeds: Sequence[int],
        chunk_size: int,
        spec_payload: Optional[dict] = None,
        max_attempts: Optional[int] = None,
        chunks: Optional[Sequence[Sequence[int]]] = None,
        rank: Optional[int] = None,
        est_seconds_per_seed: Optional[float] = None,
    ) -> "WorkQueue":
        """Shard ``seeds`` into task files under a fresh sweep directory.

        Chunks are contiguous and order-preserving (the same batches
        :class:`ParallelRunner` would form), so any chunk size merges
        back into the identical seed-ordered result list.  The manifest
        is written last: a sweep directory is invisible to workers
        until its tasks are all in place.  ``spec_payload`` (the
        :class:`repro.api.SweepSpec` JSON form, when the sweep came
        through the job API) is embedded in the manifest purely for
        observability — ``repro queue status`` names what is queued.
        ``max_attempts`` pins the per-seed retry budget in the manifest
        so every worker serving the sweep applies the same budget, no
        matter how its own daemon was configured.

        The scheduler's levers: ``chunks`` overrides uniform sharding
        with an explicit chunk list (must concatenate back to
        ``seeds`` — the planner's shrinking-tail shapes); ``rank``
        prefixes the sweep directory name so workers — which scan in
        sorted order — serve rank 0 first (the queue's serving order,
        submission order for FIFO, long-pole-first for cost plans);
        ``est_seconds_per_seed`` records the planner's cost estimate
        in the manifest for ``repro queue status`` ETAs.  All three
        move work around without changing what any seed computes.
        """
        seeds = [int(seed) for seed in seeds]
        if not seeds:
            raise ValueError("need at least one seed")
        if chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        if max_attempts is not None and max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        params = params_signature(params)
        digest = sha256(
            repr((scenario, params, tuple(seeds), code_version())).encode()
        ).hexdigest()[:12]
        prefix = "sweep" if rank is None else f"sweep-r{int(rank):04d}"
        sweep_id = f"{prefix}-{digest}-{os.urandom(4).hex()}"
        sweep_dir = Path(queue_dir) / sweep_id
        for sub in ("tasks", "leases", "done", "attempts", "quarantine",
                    "faults"):
            (sweep_dir / sub).mkdir(parents=True, exist_ok=True)

        if chunks is None:
            chunk_lists = [
                seeds[start:start + chunk_size]
                for start in range(0, len(seeds), chunk_size)
            ]
        else:
            chunk_lists = [[int(seed) for seed in chunk] for chunk in chunks]
            if any(not chunk for chunk in chunk_lists):
                raise ValueError("chunks must all be non-empty")
            flattened = [seed for chunk in chunk_lists for seed in chunk]
            if flattened != seeds:
                raise ValueError(
                    "chunks must concatenate back to the seed list — "
                    "scheduling may reshape chunks, never the work"
                )
        task_ids = [f"task-{index:04d}" for index in range(len(chunk_lists))]
        params_json = [[name, value] for name, value in params]
        for task_id, chunk in zip(task_ids, chunk_lists):
            leases.atomic_write_json(sweep_dir / "tasks" / f"{task_id}.json", {
                "task": task_id,
                "scenario": scenario,
                "params": params_json,
                "seeds": chunk,
            })
        manifest = {
            "sweep": sweep_id,
            "scenario": scenario,
            "params": params_json,
            "seeds": seeds,
            "chunks": dict(zip(task_ids, chunk_lists)),
            "chunk_size": chunk_size,
            "code_version": code_version(),
        }
        if rank is not None:
            manifest["rank"] = int(rank)
        if est_seconds_per_seed is not None:
            manifest["est_seconds_per_seed"] = float(est_seconds_per_seed)
        if max_attempts is not None:
            manifest["max_attempts"] = int(max_attempts)
        if spec_payload is not None:
            manifest["spec"] = spec_payload
        leases.atomic_write_json(sweep_dir / "manifest.json", manifest)
        return cls(sweep_dir, manifest)

    @classmethod
    def open(cls, sweep_dir: Union[str, Path]) -> "WorkQueue":
        """Attach to an existing sweep directory (raises if unreadable).

        A manifest that is unreadable, mid-write, or structurally not a
        sweep manifest (missing its id or chunk table) is rejected the
        same way as a missing one, so scanners skip the directory
        instead of crashing on it later.
        """
        sweep_dir = Path(sweep_dir)
        manifest = leases.read_json(sweep_dir / "manifest.json")
        if (
            manifest is None
            or not isinstance(manifest.get("sweep"), str)
            or not isinstance(manifest.get("chunks"), dict)
        ):
            raise FileNotFoundError(
                f"no readable manifest under {sweep_dir}"
            )
        return cls(sweep_dir, manifest)

    @classmethod
    def discover(cls, queue_dir: Union[str, Path]) -> List["WorkQueue"]:
        """Every openable sweep under ``queue_dir``, in sorted order."""
        queue_dir = Path(queue_dir)
        if not queue_dir.is_dir():
            return []
        queues = []
        for child in sorted(queue_dir.iterdir()):
            try:
                queues.append(cls.open(child))
            except (FileNotFoundError, NotADirectoryError):
                continue
        return queues

    # -- introspection -------------------------------------------------
    @property
    def sweep_id(self) -> str:
        return self.manifest["sweep"]

    def task_ids(self) -> List[str]:
        return sorted(self.manifest["chunks"])

    def _task_path(self, task_id: str) -> Path:
        return self.sweep_dir / "tasks" / f"{task_id}.json"

    def _lease_path(self, task_id: str) -> Path:
        return self.sweep_dir / "leases" / f"{task_id}.lease"

    def _done_path(self, task_id: str) -> Path:
        return self.sweep_dir / "done" / f"{task_id}.json"

    def is_done(self, task_id: str) -> bool:
        return self._done_path(task_id).exists()

    def pending(self) -> List[str]:
        """Task ids without a done marker yet."""
        return [t for t in self.task_ids() if not self.is_done(t)]

    def done_count(self) -> int:
        """How many tasks have done markers (one directory listing)."""
        return len(list((self.sweep_dir / "done").glob("*.json")))

    def active_leases(self) -> int:
        """How many tasks are currently leased (one directory listing)."""
        return len(list((self.sweep_dir / "leases").glob("*.lease")))

    def is_complete(self) -> bool:
        return not self.pending()

    def read_task(self, task_id: str) -> Optional[dict]:
        """The task file's payload, or ``None`` when corrupt/missing."""
        payload = leases.read_json(self._task_path(task_id))
        if payload is None or not isinstance(payload.get("seeds"), list):
            return None
        return payload

    def steal_events(self) -> Tuple[str, ...]:
        """The task id behind every steal tombstone, sorted — the
        sweep's work-stealing history (one entry per reclaim event)."""
        return tuple(sorted(
            tombstone.name.split(".stale-")[0]
            for tombstone in (self.sweep_dir / "leases").glob("*.stale-*")
        ))

    def counters(self) -> QueueCounters:
        """Steal/requeue accounting recovered from the marker files.

        A done marker only counts when it parses: our own markers are
        published atomically, but a marker caught mid-write by a
        non-atomic writer reports its task as still pending rather
        than crashing (or lying to) the status scan.
        """
        repairs = len(list(
            (self.sweep_dir / "leases").glob("*.requeue-*")
        ))
        return QueueCounters(
            tasks=len(self.task_ids()),
            done=sum(
                1 for t in self.task_ids()
                if leases.read_json(self._done_path(t)) is not None
            ),
            steals=len(self.steal_events()),
            repairs=repairs,
            quarantined=len(
                list((self.sweep_dir / "quarantine").glob("*.json"))
            ),
        )

    # -- retry budget and quarantine -----------------------------------
    def max_attempts(self, default: Optional[int] = None) -> int:
        """The sweep's per-seed retry budget.

        The manifest's value (pinned at :meth:`create`) wins so every
        worker applies the same budget; a worker-level ``default``
        covers sweeps written before budgets existed.
        """
        value = self.manifest.get("max_attempts")
        if isinstance(value, int) and value >= 1:
            return value
        if default is not None and default >= 1:
            return int(default)
        return DEFAULT_MAX_ATTEMPTS

    def _attempt_path(self, task_id: str, seed: int, attempt: int) -> Path:
        return (self.sweep_dir / "attempts"
                / f"{task_id}.seed-{seed}.attempt-{attempt:02d}")

    def _quarantine_path(self, task_id: str, seed: int) -> Path:
        return self.sweep_dir / "quarantine" / f"{task_id}.seed-{seed}.json"

    def attempt_count(self, task_id: str, seed: int) -> int:
        """Attempts *started* at this seed, across all workers ever.

        The markers are files next to the task file, so the budget
        survives SIGKILLed workers, steals, and coordinator restarts —
        an attempt that died mid-seed still spent budget.
        """
        return len(list((self.sweep_dir / "attempts").glob(
            f"{task_id}.seed-{seed}.attempt-*"
        )))

    def record_attempt(self, task_id: str, seed: int) -> int:
        """Claim the next attempt number for this seed (``O_EXCL``).

        Called *before* running the seed; racing workers (an owner and
        a stealer overlapping mid-steal) each get distinct numbers, so
        the budget only ever over-counts — a poison seed can never
        retry forever.
        """
        (self.sweep_dir / "attempts").mkdir(parents=True, exist_ok=True)
        attempt = self.attempt_count(task_id, seed) + 1
        while not leases.create_exclusive(
            self._attempt_path(task_id, seed, attempt)
        ):
            attempt += 1
        return attempt

    def record_attempt_failure(
        self, task_id: str, seed: int, attempt: int, failure: dict,
    ) -> None:
        """Attach the caught exception's record to an attempt marker.

        Best-effort: the marker's existence is what spends budget; its
        content only improves the quarantine diagnostic.
        """
        try:
            leases.atomic_write_json(
                self._attempt_path(task_id, seed, attempt), failure,
            )
        except OSError:
            pass

    def last_attempt_failure(
        self, task_id: str, seed: int,
    ) -> Optional[dict]:
        """The most recent recorded failure for this seed, if any.

        Empty markers (attempts that died without writing a record —
        the worker crashed mid-seed) are skipped.
        """
        markers = sorted((self.sweep_dir / "attempts").glob(
            f"{task_id}.seed-{seed}.attempt-*"
        ), reverse=True)
        for marker in markers:
            record = faults.normalize_failure(leases.read_json(marker), seed)
            if record is not None:
                return record
        return None

    def quarantine_seed(
        self, task_id: str, seed: int, failure: dict,
    ) -> None:
        """Publish a poisoned seed's diagnostic under ``quarantine/``.

        Idempotent by content: concurrent quarantiners write the same
        record (the budget and failure travel with the seed, not the
        worker).
        """
        (self.sweep_dir / "quarantine").mkdir(parents=True, exist_ok=True)
        leases.atomic_write_json(self._quarantine_path(task_id, seed), {
            "sweep": self.sweep_id,
            "task": task_id,
            "scenario": self.manifest.get("scenario"),
            "failure": failure,
        })

    def quarantined(self) -> Dict[int, dict]:
        """Every quarantined seed's record, keyed by seed.

        Robust to scan races and partial writes: an unreadable or
        malformed quarantine file is skipped (the seed stays visibly
        pending/failed through the done markers), never a crash.
        """
        records: Dict[int, dict] = {}
        for path in sorted((self.sweep_dir / "quarantine").glob("*.json")):
            payload = leases.read_json(path)
            if payload is None:
                continue
            failure = faults.normalize_failure(payload.get("failure"))
            if failure is None:
                continue
            records[int(failure["seed"])] = {
                "task": str(payload.get("task", "?")),
                "failure": failure,
            }
        return records

    def requeue_quarantined(self, seed: Optional[int] = None) -> List[int]:
        """Release quarantined seeds back into the queue, post-fix.

        Deletes each matching seed's quarantine record and attempt
        markers (a fresh retry budget) and the owning task's done
        marker, so the task is pending again.  Recomputation is
        idempotent: the task's healthy seeds replay from the shared
        cache or recompute bit-identically.  Returns the released
        seeds, sorted.
        """
        released: List[int] = []
        for task_seed, record in sorted(self.quarantined().items()):
            if seed is not None and task_seed != int(seed):
                continue
            task_id = record["task"]
            try:
                self._quarantine_path(task_id, task_seed).unlink()
            except OSError:
                continue  # another requeue beat us to this seed
            for marker in (self.sweep_dir / "attempts").glob(
                f"{task_id}.seed-{task_seed}.attempt-*"
            ):
                leases.discard(marker)
            leases.discard(self._done_path(task_id))
            released.append(task_seed)
        return released

    # -- leasing -------------------------------------------------------
    def claim(
        self, task_id: str, owner: str,
        lease_ttl: float = DEFAULT_LEASE_TTL,
    ) -> Optional[Claim]:
        """Try to lease ``task_id``; ``None`` when someone else holds it.

        A lease whose heartbeat mtime is older than ``lease_ttl`` is
        stolen (:func:`repro.leases.acquire`); its tombstone stays as
        the steal record that :meth:`steal_events` counts.
        """
        lease = self._lease_path(task_id)
        stolen = leases.acquire(
            lease, owner,
            lambda _owner, mtime: leases.fresh(mtime, lease_ttl),
            keep_tombstone=True,
        )
        if stolen is None:
            return None
        claim = Claim(task_id, lease, owner, stolen)
        if self.is_done(task_id):
            # Finished between our scan and the claim; nothing to do.
            self.release(claim)
            return None
        return claim

    def heartbeat(self, claim: Claim) -> bool:
        """Refresh the lease mtime; ``False`` if the lease was stolen.

        A ``False`` return means another worker reclaimed the task (we
        were presumed dead); the caller should abandon the chunk — the
        new owner recomputes it identically.
        """
        return leases.refresh(claim.lease_path, claim.owner)

    def release(self, claim: Claim) -> None:
        """Drop the lease (after the done marker is published), unless
        it was stolen meanwhile: then it is the thief's to drop."""
        leases.release(claim.lease_path, claim.owner)

    # -- completion ----------------------------------------------------
    def mark_done(self, task_id: str, payload: dict) -> None:
        """Publish a task's results atomically (idempotent by content)."""
        leases.atomic_write_json(self._done_path(task_id), payload)

    def repair(self) -> int:
        """Rewrite corrupt/missing task files from the manifest.

        Any live process may call this — the manifest is the source of
        truth for every chunk.  Each repair leaves a marker keyed by a
        hash of the corrupt content, so two workers repairing the same
        corruption concurrently count one requeue, not two.
        """
        repaired = 0
        for task_id in self.task_ids():
            if self.is_done(task_id):
                continue
            if self.read_task(task_id) is not None:
                continue
            path = self._task_path(task_id)
            try:
                corrupt = path.read_bytes()
            except OSError:
                corrupt = b"<missing>"
            marker = self.sweep_dir / "leases" / (
                f"{task_id}.requeue-{sha256(corrupt).hexdigest()[:12]}"
            )
            leases.atomic_write_json(path, {
                "task": task_id,
                "scenario": self.manifest["scenario"],
                "params": self.manifest["params"],
                "seeds": self.manifest["chunks"][task_id],
            })
            # Of any repairers racing on the same corrupt bytes,
            # exactly one counts the requeue.
            if leases.create_exclusive(marker):
                repaired += 1
        return repaired

    def collect(
        self,
    ) -> Tuple[Dict[int, Reduced], Dict[int, dict], WorkerStats]:
        """Per-seed results, per-seed failures, and summed counters.

        Every chunk seed must be accounted for: either a valid result
        payload or a structured failure record in the done marker
        (corroborated by the ``quarantine/`` diagnostics when the done
        marker's record went missing).  Raises ``RuntimeError`` if any
        task is incomplete or a seed has neither — collection is
        strict; the wait loop is where patience lives.
        """
        pending = self.pending()
        if pending:
            raise RuntimeError(
                f"sweep {self.sweep_id} incomplete: {pending} still pending"
            )
        results: Dict[int, Reduced] = {}
        failures: Dict[int, dict] = {}
        quarantined = self.quarantined()
        totals = WorkerStats()
        for task_id in self.task_ids():
            payload = leases.read_json(self._done_path(task_id))
            if payload is None:
                raise RuntimeError(
                    f"done marker for {task_id} of {self.sweep_id} is "
                    f"unreadable"
                )
            totals.tasks_done += 1
            totals.cache_hits += int(payload.get("hits", 0))
            totals.cache_misses += int(payload.get("misses", 0))
            totals.cache_errors += int(payload.get("cache_errors", 0))
            chunk = self.manifest["chunks"][task_id]
            per_seed = payload.get("results", {})
            failed = payload.get("failed", {})
            if not isinstance(failed, dict):
                failed = {}
            for seed in chunk:
                seed = int(seed)
                failure = faults.normalize_failure(
                    failed.get(str(seed)), seed,
                )
                if failure is None and seed in quarantined:
                    failure = quarantined[seed]["failure"]
                if failure is not None:
                    failures[seed] = failure
                    totals.seed_failures += 1
                    continue
                try:
                    results[seed] = reduced_from_payload(
                        per_seed[str(seed)]
                    )
                except (KeyError, ValueError, TypeError) as error:
                    raise RuntimeError(
                        f"done marker for {task_id} of {self.sweep_id} "
                        f"lacks a valid result for seed {seed}: {error}"
                    ) from None
                totals.seeds_run += 1
        totals.quarantined = len(quarantined)
        return results, failures, totals

    def seed_runtimes(self) -> Dict[int, float]:
        """Per-seed compute wall times harvested from the done markers.

        Advisory telemetry (seconds per seed) recorded by whichever
        worker computed each seed; seeds whose markers predate runtime
        recording — or whose values do not parse as non-negative
        numbers — are simply absent.  Safe on incomplete sweeps: only
        published markers are read.
        """
        runtimes: Dict[int, float] = {}
        for task_id in self.task_ids():
            payload = leases.read_json(self._done_path(task_id))
            if payload is None:
                continue
            recorded = payload.get("runtimes")
            if not isinstance(recorded, dict):
                continue
            for seed, runtime in recorded.items():
                try:
                    seed = int(seed)
                    runtime = float(runtime)
                except (TypeError, ValueError):
                    continue
                if runtime >= 0:
                    runtimes[seed] = runtime
        return runtimes

    def cleanup(self) -> None:
        """Remove the sweep directory (after a successful collect)."""
        shutil.rmtree(self.sweep_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# the worker
# ---------------------------------------------------------------------------

def _claim_fault_flag(queue: WorkQueue, name: str) -> bool:
    """Win the exactly-once arbitration for one injected fault."""
    (queue.sweep_dir / "faults").mkdir(parents=True, exist_ok=True)
    return leases.create_exclusive(queue.sweep_dir / "faults" / name)


def _maybe_process_fault(
    queue: WorkQueue, seed: int, lease_ttl: float,
) -> None:
    """Honour the process-level faults (daemon workers only).

    ``sigkill:<seed>`` kills this process with SIGKILL right before it
    would run that seed — no cleanup, no lease release: exactly the
    crash the stale-lease reclaim exists for.  ``hang:<seed>`` sleeps
    past the steal threshold instead, so a peer reclaims the chunk
    while this worker is wedged — the steal-then-succeed path.  The
    ``O_EXCL`` flag file makes each fault fire in one worker per
    sweep, never more.
    """
    for spec in faults.faults_for(seed):
        if spec.kind == "sigkill":
            if _claim_fault_flag(queue, f"sigkill-{seed}"):
                os.kill(os.getpid(), signal.SIGKILL)
        elif spec.kind == "hang":
            if _claim_fault_flag(queue, f"hang-{seed}"):
                time.sleep(leases.steal_threshold(lease_ttl) + 0.5)


def _maybe_seed_fault(queue: WorkQueue, seed: int) -> None:
    """Honour the exception-level faults (every executor).

    ``raise:<seed>`` throws deterministically on every attempt — the
    always-poison seed the quarantine exists for.  ``flaky:<seed>:<k>``
    throws on the seed's first ``k`` attempts *sweep-wide* (``O_EXCL``
    flag files arbitrate, so the failures land exactly ``k`` times no
    matter which workers attempt) and then succeeds — the bounded-retry
    path.  These fire inside the per-seed error boundary, in daemons,
    pool workers and the coordinator's inline drain alike.
    """
    faults.maybe_raise(seed)
    for spec in faults.faults_for(seed, "flaky"):
        for n in range(1, spec.fails + 1):
            if _claim_fault_flag(queue, f"flaky-{seed}-{n}"):
                raise faults.InjectedFaultError(
                    f"injected fault: seed {seed} flaky failure "
                    f"{n} of {spec.fails}"
                )


def _backoff_wait(queue: WorkQueue, claim: Claim, delay: float) -> bool:
    """Back off between attempts without letting the lease expire.

    Sleeps in heartbeat-keeping slices; ``False`` means the lease was
    stolen mid-backoff and the caller must abandon the chunk.
    """
    deadline = time.monotonic() + delay
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return True
        time.sleep(min(remaining, 0.05))
        if not queue.heartbeat(claim):
            return False


def _process_task(
    queue: WorkQueue,
    task: dict,
    claim: Claim,
    cache: Optional[SweepCache],
    stats: WorkerStats,
    daemon: bool,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    max_attempts: Optional[int] = None,
) -> None:
    """Execute one claimed chunk: cache-or-compute each seed, publish.

    Per-seed results go through the registry's arena path (build once
    per process, run per seed) and into the shared cache *and* the done
    marker.  The heartbeat precedes every seed; a lost lease abandons
    the chunk to its new owner.

    Every seed runs inside an **error boundary**: a raising seed never
    crashes the worker.  Each started attempt first spends one unit of
    the sweep-wide retry budget (an ``O_EXCL`` marker under
    ``attempts/``, so crashed attempts count too), failed attempts back
    off exponentially while keeping the lease warm, and a seed whose
    budget is exhausted is quarantined — its structured failure record
    lands in the done marker's ``"failed"`` map and under
    ``quarantine/``, and the chunk's healthy seeds complete normally.
    """
    task_id = task["task"]
    scenario = task["scenario"]
    params = rehydrate_params(task["params"])
    budget = queue.max_attempts(default=max_attempts)
    results: Dict[str, dict] = {}
    failed: Dict[str, dict] = {}
    runtimes: Dict[str, float] = {}
    hits = misses = errors = 0
    warned_unwritable = False
    for seed in task["seeds"]:
        seed = int(seed)
        if not queue.heartbeat(claim):
            return  # stolen from us; the thief recomputes identically
        if daemon:
            _maybe_process_fault(queue, seed, lease_ttl)
        key = SweepCache.key(scenario, params, seed)
        entry = cache.get_entry(key) if cache is not None else None
        if entry is not None:
            result, cached_runtime = entry
            hits += 1
            results[str(seed)] = reduced_to_payload(result)
            if cached_runtime is not None:
                # A replay costs nothing *now*; report the runtime the
                # original compute recorded so cost estimates stay
                # grounded in real measurements.
                runtimes[str(seed)] = cached_runtime
            stats.seeds_run += 1
            continue
        while True:
            spent = queue.attempt_count(task_id, seed)
            if spent >= budget:
                # The budget was exhausted — by our own failed attempts
                # below, or by earlier workers (possibly ones that died
                # mid-attempt and never recorded an exception).
                failure = (
                    queue.last_attempt_failure(task_id, seed)
                    or faults.crash_failure_payload(seed, spent)
                )
                queue.quarantine_seed(task_id, seed, failure)
                failed[str(seed)] = failure
                stats.seed_failures += 1
                stats.quarantined += 1
                break
            attempt = queue.record_attempt(task_id, seed)
            seed_start = time.perf_counter()
            try:
                _maybe_seed_fault(queue, seed)
                result = registry.run_reduced(scenario, params, seed)
            except Exception as error:  # the error boundary
                failure = faults.failure_payload(seed, error, attempt)
                queue.record_attempt_failure(
                    task_id, seed, attempt, failure,
                )
                if attempt >= budget:
                    continue  # budget spent; quarantine on the next pass
                if not _backoff_wait(
                    queue, claim, faults.backoff_delay(attempt),
                ):
                    return  # lease stolen mid-backoff; new owner retries
                continue
            runtime = time.perf_counter() - seed_start
            runtimes[str(seed)] = runtime
            misses += 1
            if cache is not None:
                try:
                    cache.put(key, result, scenario=scenario, seed=seed,
                              runtime=runtime)
                except OSError as error:
                    errors += 1
                    if not warned_unwritable:
                        warned_unwritable = True
                        warnings.warn(
                            f"worker cache write to {cache.root} failed "
                            f"({error}); results still reach the done "
                            f"marker",
                            RuntimeWarning,
                            stacklevel=2,
                        )
            results[str(seed)] = reduced_to_payload(result)
            stats.seeds_run += 1
            break
    payload = {
        "task": task_id,
        "sweep": queue.sweep_id,
        "worker": claim.owner,
        "stolen": claim.stolen,
        "hits": hits,
        "misses": misses,
        "cache_errors": errors,
        "results": results,
        # Per-seed compute wall times (seconds) observed by this worker
        # (or replayed from cache metadata) — the scheduler's telemetry.
        "runtimes": runtimes,
    }
    if failed:
        payload["failed"] = failed
    queue.mark_done(task_id, payload)
    queue.release(claim)
    stats.tasks_done += 1
    stats.cache_hits += hits
    stats.cache_misses += misses
    stats.cache_errors += errors
    if claim.stolen:
        stats.steals += 1


def worker_loop(
    queue_dir: Union[str, Path],
    cache_dir: Optional[Union[str, Path]] = None,
    *,
    owner: Optional[str] = None,
    poll: float = DEFAULT_POLL,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    drain: bool = False,
    max_tasks: Optional[int] = None,
    max_attempts: Optional[int] = None,
    stop: Optional[Callable[[], bool]] = None,
    only_sweep: Optional[str] = None,
    only_sweeps: Optional[Sequence[str]] = None,
    _daemon: bool = False,
) -> WorkerStats:
    """One worker: claim, execute and complete tasks under ``queue_dir``.

    ``drain=True`` returns as soon as a full pass finds nothing
    claimable (the coordinator's inline mode and ``repro worker
    --drain``); otherwise the loop polls forever — the daemon mode —
    until ``stop()`` turns true or the process is terminated.  Workers
    also heal the queue: every pass repairs corrupt task files and
    steals expired leases.  Sweeps written by different code (manifest
    ``code_version`` mismatch) are skipped loudly, never executed —
    mixing code versions would break the bit-identity contract.

    ``max_attempts`` is this worker's *default* per-seed retry budget;
    a sweep manifest that pins its own budget always wins, so a fleet
    of differently-configured daemons still quarantines consistently.
    """
    owner = owner or default_worker_id()
    cache = SweepCache(Path(cache_dir)) if cache_dir is not None else None
    stats = WorkerStats()
    # ``only_sweep`` (one id) and ``only_sweeps`` (a campaign's ids)
    # compose into one allow-set; ``None``/empty means "serve all".
    allowed = set(only_sweeps or ())
    if only_sweep is not None:
        allowed.add(only_sweep)
    while True:
        progressed = False
        for queue in WorkQueue.discover(queue_dir):
            if allowed and queue.sweep_id not in allowed:
                continue
            if queue.manifest.get("code_version") != code_version():
                if queue.sweep_id not in _WARNED_VERSION_SKEW:
                    _WARNED_VERSION_SKEW.add(queue.sweep_id)
                    warnings.warn(
                        f"skipping sweep {queue.sweep_id}: its manifest "
                        f"was written by code version "
                        f"{queue.manifest.get('code_version')!r}, this "
                        f"worker runs {code_version()!r}",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                continue
            stats.repairs += queue.repair()
            for task_id in queue.task_ids():
                if stop is not None and stop():
                    return stats
                if queue.is_done(task_id):
                    continue
                task = queue.read_task(task_id)
                if task is None:
                    continue  # corrupt; repaired on the next pass
                claim = queue.claim(task_id, owner, lease_ttl)
                if claim is None:
                    continue
                _process_task(
                    queue, task, claim, cache, stats, _daemon,
                    lease_ttl=lease_ttl, max_attempts=max_attempts,
                )
                progressed = True
                if max_tasks is not None and stats.tasks_done >= max_tasks:
                    return stats
        if stop is not None and stop():
            return stats
        if not progressed:
            if drain:
                return stats
            time.sleep(poll)


def _local_worker_main(
    queue_dir: str,
    cache_dir: Optional[str],
    poll: float,
    lease_ttl: float,
    stop_flag: Optional[str] = None,
) -> None:
    """Entry point of a coordinator-spawned local worker process.

    ``stop_flag`` names a file whose existence asks this worker to
    retire: it finishes its current task, sees the flag between
    claims, and exits — the autoscaler's graceful scale-down (a lease
    is never cut mid-task, so retiring can never cause a steal).
    """
    stop = None
    if stop_flag is not None:
        flag = Path(stop_flag)
        stop = flag.exists
    worker_loop(
        queue_dir, cache_dir, poll=poll, lease_ttl=lease_ttl,
        stop=stop, _daemon=True,
    )


# ---------------------------------------------------------------------------
# the coordinator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QueuedJob:
    """One sweep's worth of queue work: what to shard into task files.

    ``spec_payload`` (the :class:`repro.api.SweepSpec` JSON form, when
    the job came through the job API) rides into the sweep manifest so
    ``repro queue status`` can name what is queued.
    """

    scenario: str
    params: Params
    seeds: Tuple[int, ...]
    spec_payload: Optional[dict] = None


@dataclass
class DistributedOutcome:
    """What one queued sweep produced, for the sweep engine.

    ``failed_seeds`` maps each quarantined seed to its structured
    failure record (exception type, message, traceback digest, attempt
    count); an empty dict is the healthy case.
    """

    results: Dict[int, Reduced]
    chunk_size: int
    tasks: int
    steals: int
    requeues: int
    cache_errors: int
    wall_seconds: float = 0.0
    failed_seeds: Dict[int, dict] = field(default_factory=dict)
    # Per-seed compute wall times from the done markers (telemetry for
    # the cost estimator; may cover only a subset of the seeds).
    seed_runtimes: Dict[int, float] = field(default_factory=dict)


def execute_queued(
    jobs: Sequence[QueuedJob],
    *,
    workers: int = 1,
    chunk_size: Optional[int] = None,
    cache_root: Optional[Union[str, Path]] = None,
    queue_dir: Optional[Union[str, Path]] = None,
    lease_ttl: Optional[float] = None,
    poll: float = DEFAULT_POLL,
    timeout: float = 600.0,
    max_attempts: Optional[int] = None,
    stop: Optional[Callable[[], bool]] = None,
    schedule: str = "fifo",
    autoscale: bool = False,
    min_workers: Optional[int] = None,
    max_workers: Optional[int] = None,
) -> List[DistributedOutcome]:
    """Run one or more sweeps through the shared-directory queue.

    Every job is sharded into task files under ``queue_dir`` (a private
    temp dir when ``None``) **before** any worker starts, then one
    fleet of ``workers`` local worker daemons drains all of them
    concurrently — a campaign's sweeps multiplex over the same workers
    instead of idling between scenarios.  The coordinator waits for
    every task's done marker, stepping in itself whenever nobody else
    is working: with ``workers=0`` it drains inline as long as no
    external daemon holds a lease (so an attached worker fleet keeps
    the tasks, but a lone coordinator never waits on anyone); with
    local daemons it drains when they have all died or when no done
    marker lands for a full stall window.  External ``repro worker``
    daemons pointed at the same ``queue_dir`` join transparently — the
    lease protocol does not care who claims.

    Completion is unconditional: every sweep's results are exactly the
    sequential oracle's whether computed by local daemons, remote
    daemons, stealers, or the coordinator itself.  ``timeout`` bounds
    how long the queue may go *without progress* (no new done marker
    and nothing drainable inline) before giving up — steady progress
    never trips it, however long the campaign.  Outcomes are returned
    in job order; each carries the wall clock from enqueue to its own
    collection.

    Failure tolerance: a seed that keeps raising is quarantined after
    ``max_attempts`` tries (pinned in each sweep's manifest; defaults
    to :data:`repro.simulation.faults.DEFAULT_MAX_ATTEMPTS`) and comes
    back in ``DistributedOutcome.failed_seeds`` instead of wedging the
    fleet.  A sweep that quarantined seeds keeps its directory under an
    explicit ``queue_dir`` — the diagnostics stay inspectable via
    ``repro queue status`` and releasable via ``repro queue requeue``
    — while fully-healthy sweeps (and private temp queues) clean up as
    before.

    ``stop`` is polled between claims and wait-loop passes; when it
    turns true the coordinator abandons the run, terminates its local
    daemons, removes every sweep directory it created (leases, attempt
    markers, quarantine included — the queue dir stays clean for the
    next campaign), and raises :class:`SweepAborted`.

    Scheduling (:mod:`repro.sched`): ``schedule="fifo"`` enqueues the
    jobs in submission order with uniform chunks; ``schedule="cost"``
    estimates each sweep's cost from runtime telemetry (cache entry
    metadata) or family priors, serves the long poles first and
    shrinks chunk sizes toward each sweep's tail.  ``autoscale=True``
    replaces the fixed fleet with a supervisor that sizes the local
    fleet from observed queue depth, bounded by ``min_workers`` /
    ``max_workers`` (default ``0`` / ``max(workers, 1)``) with
    hysteresis.  Both levers are result-neutral — every mode's results
    are bit-identical to the sequential oracle's.
    """
    if not jobs:
        raise ValueError("need at least one queued job")
    if workers < 0:
        raise ValueError("workers must be >= 0 for the distributed backend")
    if schedule not in ("fifo", "cost"):
        raise ValueError(
            f"schedule must be 'fifo' or 'cost', got {schedule!r}"
        )
    if not autoscale and (min_workers is not None or max_workers is not None):
        raise ValueError(
            "min_workers/max_workers require autoscale=True"
        )
    lease_ttl = DEFAULT_LEASE_TTL if lease_ttl is None else float(lease_ttl)
    if lease_ttl <= 0:
        raise ValueError("lease_ttl must be positive")
    made_temp = queue_dir is None
    if made_temp:
        queue_root = Path(tempfile.mkdtemp(prefix="repro-queue-"))
    else:
        queue_root = Path(queue_dir).expanduser()
        queue_root.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    try:
        return _run_queued(
            jobs, queue_root, start,
            workers=workers, chunk_size=chunk_size,
            cache_root=cache_root, lease_ttl=lease_ttl,
            poll=poll, timeout=timeout,
            max_attempts=max_attempts, stop=stop,
            keep_failed_dirs=not made_temp,
            schedule=schedule, autoscale=autoscale,
            min_workers=min_workers, max_workers=max_workers,
        )
    finally:
        # A private temp queue is useless after this call either way:
        # on success every sweep dir was collected and cleaned, and on
        # failure (stall timeout, unreadable done marker) nobody can
        # ever reach the directory again — don't leak it.
        if made_temp:
            shutil.rmtree(queue_root, ignore_errors=True)


def _run_queued(
    jobs: Sequence[QueuedJob],
    queue_root: Path,
    start: float,
    *,
    workers: int,
    chunk_size: Optional[int],
    cache_root: Optional[Union[str, Path]],
    lease_ttl: float,
    poll: float,
    timeout: float,
    max_attempts: Optional[int] = None,
    stop: Optional[Callable[[], bool]] = None,
    keep_failed_dirs: bool = False,
    schedule: str = "fifo",
    autoscale: bool = False,
    min_workers: Optional[int] = None,
    max_workers: Optional[int] = None,
) -> List[DistributedOutcome]:
    """The enqueue / fleet / wait / collect body of ``execute_queued``."""
    # Late import: repro.sched builds on this module's queue primitives.
    from repro.sched.autoscale import (
        AutoscalePolicy,
        FleetSupervisor,
        QueueSample,
    )
    from repro.sched.estimator import estimate_sweep_cost
    from repro.sched.planner import long_pole_order, shrinking_chunks

    fleet_min = 0 if min_workers is None else int(min_workers)
    fleet_max = max(workers, 1) if max_workers is None else int(max_workers)
    planning_workers = fleet_max if autoscale else max(workers, 1)

    estimates: List[Optional[object]] = [None] * len(jobs)
    ranks = list(range(len(jobs)))  # FIFO: serve in submission order
    if schedule == "cost":
        est_cache = (
            SweepCache(Path(cache_root)) if cache_root is not None else None
        )
        estimates = [
            estimate_sweep_cost(
                job.scenario, job.params, job.seeds, cache=est_cache,
            )
            for job in jobs
        ]
        order = long_pole_order(
            [estimate.total_seconds for estimate in estimates]
        )
        for rank, job_index in enumerate(order):
            ranks[job_index] = rank

    queues: List[WorkQueue] = []
    chunk_sizes: List[int] = []
    for index, job in enumerate(jobs):
        seeds = [int(seed) for seed in job.seeds]
        effective_chunk = (
            chunk_size if chunk_size is not None
            else auto_chunk_size(len(seeds), planning_workers)
        )
        chunk_sizes.append(effective_chunk)
        estimate = estimates[index]
        queues.append(WorkQueue.create(
            queue_root, job.scenario, job.params, seeds, effective_chunk,
            spec_payload=job.spec_payload,
            max_attempts=max_attempts,
            chunks=(
                shrinking_chunks(seeds, effective_chunk)
                if schedule == "cost" else None
            ),
            rank=ranks[index],
            est_seconds_per_seed=(
                estimate.seconds_per_seed if estimate is not None else None
            ),
        ))
    our_sweeps = [queue.sweep_id for queue in queues]
    cache_arg = str(cache_root) if cache_root is not None else None
    context = multiprocessing.get_context()

    def _spawn_worker(stop_flag: Path):
        process = context.Process(
            target=_local_worker_main,
            args=(str(queue_root), cache_arg, poll, lease_ttl,
                  str(stop_flag)),
            daemon=True,
        )
        process.start()
        return process

    supervisor: Optional[FleetSupervisor] = None
    processes: List[multiprocessing.Process] = []
    if autoscale:
        supervisor = FleetSupervisor(
            spawn=_spawn_worker,
            policy=AutoscalePolicy(fleet_min, fleet_max),
            queue_dir=queue_root,
        )
    else:
        processes = [
            context.Process(
                target=_local_worker_main,
                args=(str(queue_root), cache_arg, poll, lease_ttl),
                daemon=True,
            )
            for _ in range(workers)
        ]
    aborted = False
    try:
        for process in processes:
            process.start()
        # The stall window: how long the queue may go without a new done
        # marker before the coordinator drains inline.  At least one
        # lease TTL, so a crashed worker's chunk can first be stolen by
        # its peers (that is the point of the exercise).
        stall_window = max(lease_ttl, 1.0)
        repair_every = max(poll * 10.0, 0.5)
        scale_every = max(poll * 5.0, 0.25)
        # Adaptive wait: the idle sleep doubles while no task completes
        # (capped well under the stall window so stall detection keeps
        # its resolution) and snaps back to ``poll`` on any progress —
        # a quiet queue stops burning scans, a completion still wakes
        # the coordinator promptly.
        sleep_cap = max(poll, min(0.5, stall_window / 4.0))
        idle_sleep = poll
        total_tasks = sum(len(queue.task_ids()) for queue in queues)
        last_done = -1
        last_progress = time.monotonic()
        last_repair = 0.0
        last_scale: Optional[float] = None
        while True:
            if stop is not None and stop():
                raise SweepAborted(
                    "distributed execution cancelled; queued sweeps "
                    "abandoned and their directories removed"
                )
            now = time.monotonic()
            done_now = sum(queue.done_count() for queue in queues)
            if done_now >= total_tasks:
                break
            if done_now != last_done:
                last_done = done_now
                last_progress = now
                idle_sleep = poll
            if now - last_progress > timeout:
                pending = {
                    queue.sweep_id: queue.pending()
                    for queue in queues if not queue.is_complete()
                }
                raise RuntimeError(
                    f"distributed execution made no progress for "
                    f"{timeout:.0f}s with {pending} pending"
                )
            # Repair is a full scan of the task files; throttle it
            # rather than hammering a (possibly network) volume.
            if now - last_repair > repair_every:
                last_repair = now
                for queue in queues:
                    queue.repair()
            active = sum(queue.active_leases() for queue in queues)
            if supervisor is not None and (
                last_scale is None or now - last_scale >= scale_every
            ):
                # One autoscaler tick (the first sizes the fleet from
                # the full queue depth, so work starts immediately).
                last_scale = now
                supervisor.observe(QueueSample(
                    claimable=max(total_tasks - done_now - active, 0),
                    leased=active,
                ))
            if supervisor is not None:
                # The supervisor respawns workers as needed, so a dead
                # fleet is a scaling event, not a drain trigger; only a
                # deliberately-empty idle fleet falls through inline.
                peers_gone = False
                fleet_idle = supervisor.alive() == 0 and active == 0
            else:
                peers_gone = bool(processes) and not any(
                    process.is_alive() for process in processes
                )
                fleet_idle = workers == 0 and active == 0
            # Drain inline when nobody else is on the job: no local
            # daemons requested and no external lease active, every
            # local daemon dead, or the queue stalled a full window
            # (which also steals expired leases).
            if (fleet_idle
                    or peers_gone
                    or now - last_progress > stall_window):
                drained = worker_loop(
                    queue_root,
                    cache_arg,
                    poll=poll,
                    lease_ttl=lease_ttl,
                    drain=True,
                    stop=stop,
                    only_sweeps=our_sweeps,
                )
                if drained.tasks_done > 0:
                    last_progress = time.monotonic()
                    idle_sleep = poll
                else:
                    # Nothing claimable yet (e.g. an orphaned lease
                    # still inside its TTL) — wait, don't spin.
                    time.sleep(idle_sleep)
                    idle_sleep = min(idle_sleep * 2.0, sleep_cap)
            else:
                time.sleep(idle_sleep)
                idle_sleep = min(idle_sleep * 2.0, sleep_cap)
    except SweepAborted:
        aborted = True
        raise
    finally:
        if supervisor is not None:
            supervisor.shutdown()
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            process.join(timeout=5.0)
        if aborted:
            # Leave nothing behind: a cancelled campaign's sweep dirs
            # (tasks, leases, attempt markers, quarantine diagnostics)
            # must not confuse the next campaign on this queue dir.
            for queue in queues:
                queue.cleanup()
    outcomes = []
    for queue, effective_chunk in zip(queues, chunk_sizes):
        results, failures, totals = queue.collect()
        runtimes = queue.seed_runtimes()
        counters = queue.counters()
        if failures and keep_failed_dirs:
            # Keep the sweep dir: its quarantine diagnostics stay
            # inspectable (`repro queue status`) and releasable
            # (`repro queue requeue`) until someone acts on them.
            pass
        else:
            queue.cleanup()
        outcomes.append(DistributedOutcome(
            results=results,
            chunk_size=effective_chunk,
            tasks=counters.tasks,
            steals=counters.steals,
            requeues=counters.requeues,
            cache_errors=totals.cache_errors,
            wall_seconds=time.perf_counter() - start,
            failed_seeds=failures,
            seed_runtimes=runtimes,
        ))
    return outcomes


# ---------------------------------------------------------------------------
# queue observability (`repro queue status`)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LeaseStatus:
    """One live lease: who holds which task, and how stale it is."""

    task_id: str
    owner: str
    age_seconds: float


@dataclass(frozen=True)
class QuarantineStatus:
    """One quarantined seed: which task poisoned, and why."""

    task_id: str
    seed: int
    error_type: str
    message: str
    attempts: int

    def to_payload(self) -> dict:
        return {
            "task": self.task_id,
            "seed": self.seed,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
        }


@dataclass(frozen=True)
class SweepStatus:
    """One sweep's queue state, read entirely from its files.

    ``steal_events`` lists the task id behind every steal tombstone —
    the sweep's work-stealing history, one entry per reclaim.
    ``version_match`` is ``False`` when the manifest was written by a
    different code version (workers skip such sweeps loudly).
    ``quarantined`` lists every poisoned seed with its exception
    summary — the work `repro queue requeue` would release.
    ``est_seconds_per_seed`` is the scheduler's cost estimate recorded
    in the manifest (``None`` for sweeps enqueued without one) and
    ``est_remaining_seconds`` prices the still-pending seeds with it —
    advisory ETAs, not promises.
    """

    sweep_id: str
    scenario: str
    seeds: Tuple[int, ...]
    tasks: int
    done: int
    leased: Tuple[LeaseStatus, ...]
    steals: int
    repairs: int
    steal_events: Tuple[str, ...]
    version_match: bool
    spec: Optional[dict] = None
    quarantined: Tuple[QuarantineStatus, ...] = ()
    est_seconds_per_seed: Optional[float] = None
    est_remaining_seconds: Optional[float] = None

    @property
    def pending(self) -> int:
        """Tasks with neither a done marker nor a live lease."""
        return max(self.tasks - self.done - len(self.leased), 0)

    @property
    def complete(self) -> bool:
        return self.done >= self.tasks

    @property
    def requeues(self) -> int:
        return self.steals + self.repairs

    def to_payload(self) -> dict:
        return {
            "sweep": self.sweep_id,
            "scenario": self.scenario,
            "seeds": list(self.seeds),
            "tasks": self.tasks,
            "done": self.done,
            "pending": self.pending,
            "leased": [
                {
                    "task": lease.task_id,
                    "owner": lease.owner,
                    "age_seconds": lease.age_seconds,
                }
                for lease in self.leased
            ],
            "steals": self.steals,
            "repairs": self.repairs,
            "requeues": self.requeues,
            "steal_events": list(self.steal_events),
            "version_match": self.version_match,
            "spec": self.spec,
            "quarantined": [
                record.to_payload() for record in self.quarantined
            ],
            "est_seconds_per_seed": self.est_seconds_per_seed,
            "est_remaining_seconds": self.est_remaining_seconds,
        }


def _sweep_status(queue: WorkQueue, now: float) -> SweepStatus:
    leased = []
    for lease_path in sorted(
        (queue.sweep_dir / "leases").glob("*.lease")
    ):
        held = leases.holder(lease_path)
        if held is None:
            continue  # released/stolen while we looked
        owner, mtime = held
        leased.append(LeaseStatus(
            task_id=lease_path.stem, owner=owner or "?",
            age_seconds=max(now - mtime, 0.0),
        ))
    counters = queue.counters()
    quarantined = tuple(
        QuarantineStatus(
            task_id=str(record["task"]),
            seed=seed,
            error_type=str(record["failure"]["error_type"]),
            message=str(record["failure"]["message"]),
            attempts=int(record["failure"]["attempts"]),
        )
        for seed, record in sorted(queue.quarantined().items())
    )
    est_per_seed = queue.manifest.get("est_seconds_per_seed")
    if (
        isinstance(est_per_seed, bool)
        or not isinstance(est_per_seed, (int, float))
        or est_per_seed < 0
    ):
        est_per_seed = None
    est_remaining = None
    if est_per_seed is not None:
        remaining_seeds = sum(
            len(chunk)
            for task_id, chunk in queue.manifest.get("chunks", {}).items()
            if not queue.is_done(task_id)
        )
        est_remaining = float(est_per_seed) * remaining_seeds
    return SweepStatus(
        sweep_id=queue.sweep_id,
        scenario=str(queue.manifest.get("scenario", "?")),
        seeds=tuple(
            int(seed) for seed in queue.manifest.get("seeds", [])
        ),
        tasks=counters.tasks,
        done=counters.done,
        leased=tuple(leased),
        steals=counters.steals,
        repairs=counters.repairs,
        steal_events=queue.steal_events(),
        version_match=(
            queue.manifest.get("code_version") == code_version()
        ),
        spec=queue.manifest.get("spec"),
        quarantined=quarantined,
        est_seconds_per_seed=(
            float(est_per_seed) if est_per_seed is not None else None
        ),
        est_remaining_seconds=est_remaining,
    )


def queue_status(queue_dir: Union[str, Path]) -> List[SweepStatus]:
    """The live state of every sweep under ``queue_dir``, sorted by id.

    Pure observation: reads manifests, done markers, lease files,
    steal/requeue tombstones and quarantine diagnostics; never claims,
    repairs or deletes anything, so it is safe to run next to a live
    fleet.  Robust to scan races by construction: every file it reads
    may be mid-write or vanish between the directory listing and the
    read, and any such file is reported as still pending/absent rather
    than crashing the call.
    """
    now = time.time()
    return [
        _sweep_status(queue, now)
        for queue in WorkQueue.discover(queue_dir)
    ]


def requeue_quarantined(
    queue_dir: Union[str, Path],
    seed: Optional[int] = None,
) -> Dict[str, List[int]]:
    """Release quarantined seeds under ``queue_dir`` back into play.

    The operator's post-fix lever behind ``repro queue requeue``: for
    every sweep under the queue dir (all seeds, or just ``seed``),
    drops the quarantine record, the seed's attempt markers, and the
    owning task's done marker — the task is pending again with a fresh
    retry budget, and any attached worker fleet picks it up on its
    next pass.  Returns ``{sweep_id: [released seeds]}`` for the
    sweeps that released at least one seed.
    """
    released: Dict[str, List[int]] = {}
    for queue in WorkQueue.discover(queue_dir):
        seeds = queue.requeue_quarantined(seed)
        if seeds:
            released[queue.sweep_id] = seeds
    return released
