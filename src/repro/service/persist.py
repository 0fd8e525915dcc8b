"""Durable job state for the HTTP service: the ``--state-dir`` store.

PR 8's job table lived in memory: a server restart forgot every job
even though the queue dir and the result cache survived.  This module
gives :class:`~repro.service.jobs.JobTable` a disk face —
:class:`JobStateStore` — with the same file-based idioms the work
queue already trusts (:mod:`repro.simulation.distributed`):

* **journal** — one JSON file per job under ``jobs/``, rewritten
  atomically (temp + ``os.replace``) on every lifecycle transition, so
  the newest file always describes the job's latest state and a crash
  can never leave a half-written record;
* **results** — a ``done`` job's export payload under ``results/``,
  written *before* the ``done`` transition is journaled, so any reader
  that observes ``done`` is guaranteed to find the result;
* **leases** — dispatch claims under ``leases/``, one
  :mod:`repro.leases` lease per job.  Two servers sharing one state dir
  race for it; precisely one wins and dispatches, the loser watches the
  winner's journal.  Leases are litter once the job's journal is
  terminal: the owning table releases them after execution, and
  recovery sweeps whatever a crash left behind (steal tombstones
  included), so a long-lived state dir does not accrete one file per
  job;
* **id reservations** — a new job's number is reserved with an
  exclusive create of its (initially empty) journal file, so two live
  servers sharing the dir can never mint the same ``job-%06d`` id and
  silently overwrite each other's journals.

Every write and create goes through :mod:`repro.leases`.  Liveness is
judged the way an operator would: a lease names its owner as
``host:pid:token``.  On the same host a dead pid is dead evidence —
the job it was running crashed with its server.  Across hosts the
lease's heartbeat mtime decides (:func:`repro.leases.fresh`), so the
table's heartbeat thread keeps cross-host claims visibly alive.
"""

from __future__ import annotations

import os
import socket
import uuid
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro import leases

# Job leases heartbeat from a dedicated table thread (not per-seed like
# the work queue), so the default TTL can stay short without risking a
# live-but-busy server losing its claim.
DEFAULT_JOB_LEASE_TTL = 30.0


def default_server_id() -> str:
    """A server identity for lease files: host + pid + random token.

    The host/pid prefix is load-bearing — same-host liveness checks
    parse it back out — while the token keeps two tables in one
    process distinguishable.
    """
    return f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:8]}"


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` exists on this host (signal 0 probe)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, just not ours
    except OSError:
        return False
    return True


class JobStateStore:
    """One ``--state-dir``: job journal, result payloads, dispatch leases.

    Safe to share between servers on one volume; every mutation is an
    atomic rename or an ``O_EXCL`` create.  The store never interprets
    job payloads beyond their ``id`` — the
    :class:`~repro.service.jobs.JobTable` owns the semantics.
    """

    def __init__(
        self,
        state_dir: Union[str, Path],
        owner: Optional[str] = None,
        lease_ttl: float = DEFAULT_JOB_LEASE_TTL,
    ) -> None:
        if lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")
        self.state_dir = Path(state_dir)
        self.owner = owner if owner else default_server_id()
        self.host = self.owner.split(":", 1)[0]
        self.lease_ttl = float(lease_ttl)
        for sub in ("jobs", "results", "leases"):
            (self.state_dir / sub).mkdir(parents=True, exist_ok=True)

    # -- paths ----------------------------------------------------------
    def _job_path(self, job_id: str) -> Path:
        return self.state_dir / "jobs" / f"{job_id}.json"

    def _result_path(self, job_id: str) -> Path:
        return self.state_dir / "results" / f"{job_id}.json"

    def _lease_path(self, job_id: str) -> Path:
        return self.state_dir / "leases" / f"{job_id}.lease"

    # -- the job journal ------------------------------------------------
    def save_job(self, payload: Dict[str, object]) -> None:
        """Publish a job's latest state atomically (last writer wins)."""
        leases.atomic_write_json(self._job_path(str(payload["id"])), payload)

    def load_job(self, job_id: str) -> Optional[Dict[str, object]]:
        """The journaled payload, or ``None`` when absent/corrupt."""
        return leases.read_json(self._job_path(job_id))

    def reserve_job_id(self, number: int) -> Optional[str]:
        """Reserve ``job-%06d`` for this server; ``None`` when taken.

        The reservation is an ``O_EXCL`` create of the job's journal
        file (an empty placeholder the first real journal write
        atomically replaces).  Each live server seeds its counter from
        :meth:`max_job_number` only once, so without disk arbitration
        two servers sharing one state dir would mint identical ids and
        last-writer-wins journal each other's jobs away.
        """
        job_id = f"job-{number:06d}"
        if not leases.create_exclusive(self._job_path(job_id)):
            return None
        return job_id

    def job_ids(self) -> List[str]:
        """Every journaled job id, sorted (ids are zero-padded)."""
        return sorted(
            path.stem for path in (self.state_dir / "jobs").glob("*.json")
        )

    def recover_jobs(self) -> List[Dict[str, object]]:
        """Every readable job payload, oldest id first.

        Unreadable files are skipped, not fatal: one corrupt journal
        entry must never keep a server from starting.
        """
        payloads = []
        for job_id in self.job_ids():
            payload = self.load_job(job_id)
            if payload is not None and payload.get("id") == job_id:
                payloads.append(payload)
        return payloads

    def max_job_number(self) -> int:
        """The highest ``job-%06d`` counter on disk (0 when empty).

        Id allocation resumes past this after a restart, so recovered
        and fresh jobs can never collide.
        """
        highest = 0
        for job_id in self.job_ids():
            prefix, _, number = job_id.rpartition("-")
            if prefix == "job" and number.isdigit():
                highest = max(highest, int(number))
        return highest

    # -- result payloads ------------------------------------------------
    def save_result(self, job_id: str, payload: Dict[str, object]) -> None:
        leases.atomic_write_json(self._result_path(job_id), payload)

    def load_result(self, job_id: str) -> Optional[Dict[str, object]]:
        return leases.read_json(self._result_path(job_id))

    # -- dispatch leases ------------------------------------------------
    def claim(self, job_id: str) -> bool:
        """Claim the right to dispatch ``job_id``; one winner per claim.

        A lease whose owner is provably dead is stolen
        (:func:`repro.leases.acquire`); the steal's tombstone is
        unlinked once the steal resolves, so only a stealer crashing
        mid-steal leaves one for the recovery sweep.
        """
        return leases.acquire(
            self._lease_path(job_id), self.owner, self._owner_live,
            keep_tombstone=False,
        ) is not None

    def lease_owner(self, job_id: str) -> Optional[str]:
        return leases.read_owner(self._lease_path(job_id))

    def _owner_live(self, owner: str, mtime: float) -> bool:
        """Liveness verdict for a lease's owner string + heartbeat mtime.

        Same host: the owner pid decides (a dead pid is dead evidence,
        no TTL wait).  Other hosts — or a lease created so freshly its
        owner is not written yet — the heartbeat mtime decides.
        """
        host, _, rest = owner.partition(":")
        pid_text = rest.partition(":")[0]
        if host == self.host and pid_text.isdigit():
            return _pid_alive(int(pid_text))
        return leases.fresh(mtime, self.lease_ttl)

    def lease_live(self, job_id: str) -> bool:
        """Whether ``job_id``'s dispatch claim belongs to a live server.

        A missing lease is not live.
        """
        held = leases.holder(self._lease_path(job_id))
        return held is not None and self._owner_live(*held)

    def release(self, job_id: str) -> None:
        """Drop this store's own dispatch lease (the job went terminal).

        Owner-checked: a lease stolen mid-run belongs to the thief now
        and stays put.
        """
        leases.release(self._lease_path(job_id), self.owner)

    def discard_lease(self, job_id: str) -> None:
        """Unlink ``job_id``'s lease whoever owns it.

        Only safe once the job's journal is terminal — a terminal
        journal supersedes any dispatch claim, so the file is litter.
        """
        leases.discard(self._lease_path(job_id))

    def sweep_stale_leases(self, terminal_ids) -> None:
        """Recovery housekeeping: drop leases of terminal jobs and any
        steal tombstone old enough that no in-flight steal can still be
        examining it, so a long-lived shared state dir does not grow
        one or more lease files per job forever."""
        terminal = set(terminal_ids)
        lease_dir = self.state_dir / "leases"
        for path in lease_dir.glob("*.lease"):
            if path.stem in terminal:
                leases.discard(path)
        for path in lease_dir.glob("*.stale-*"):
            try:
                mtime = path.stat().st_mtime
            except OSError:
                continue
            if not leases.fresh(mtime, self.lease_ttl):
                leases.discard(path)

    def touch_owned_leases(self) -> None:
        """Heartbeat: refresh the mtime of every lease this store owns."""
        for path in (self.state_dir / "leases").glob("*.lease"):
            leases.refresh(path, self.owner)
