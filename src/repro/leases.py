"""The file protocols every shared directory in :mod:`repro` is built on.

The work queue (:mod:`repro.simulation.distributed`), the service's job
store (:mod:`repro.service.persist`) and the result cache
(:mod:`repro.simulation.cache`) coordinate processes — on one machine
or on many sharing a volume — through files alone.  This module is the
only place that performs a step of those protocols:

* :func:`atomic_write_json` publishes a JSON object via a temp file in
  the target's directory plus ``os.replace``, so a reader sees the old
  content or the new, never a torn write; :func:`read_json` reads it
  back, treating anything unreadable as absent.
* :func:`create_exclusive` is an ``O_CREAT | O_EXCL`` create: of any
  number of racing creators exactly one wins.  Attempt markers, repair
  markers, fault flags and job-id reservations are all this.
* A **lease** is a claim file holding its owner's id, whose mtime is
  the owner's heartbeat.  :func:`acquire` takes it, :func:`refresh`
  heartbeats it and :func:`release` drops it.

Acquiring is a fresh exclusive create.  When the lease exists and the
caller's liveness policy judges its owner dead, it is **stolen**: the
lease is renamed to a uniquely named tombstone (``os.rename`` succeeds
for exactly one stealer) and the vacant slot is taken with another
exclusive create.  ``os.rename`` clobbers whatever sits at the lease
path, and between the verdict and the rename a racing stealer may have
completed its own steal, so the tombstone is re-examined after the
rename: if it holds a live owner's lease, that lease is put back with
``os.link`` (the same inode, so its owner's heartbeat keeps working)
and the steal is abandoned.  Releasing is owner-checked, so a worker
whose lease was stolen never removes its thief's lease.

Two policies stay with the caller: how an owner's liveness is judged
(the ``live(owner, mtime)`` callable) and whether a steal's tombstone
is kept as a record of the steal.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Callable, Optional, Tuple

# Lease mtimes come from the filesystem clock while ages are judged
# against time.time(), and on shared or network filesystems the two can
# disagree a little in either direction.  A lease is only presumed dead
# strictly beyond its TTL plus this margin: 10% of the TTL, capped at
# one second (enough for realistic mtime granularity and skew; short
# test TTLs stay proportional).
_SKEW_MARGIN = 1.0


def atomic_write_json(path: Path, payload: object) -> None:
    """Publish ``payload`` at ``path`` via temp file + ``os.replace``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        "w", dir=path.parent, suffix=".tmp", delete=False
    )
    try:
        with handle:
            json.dump(payload, handle)
        os.replace(handle.name, path)
    except BaseException:
        discard(Path(handle.name))
        raise


def read_json(path: Path) -> Optional[dict]:
    """The JSON object at ``path``, or ``None`` if unreadable."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


def create_exclusive(path: Path, text: str = "") -> bool:
    """Create ``path`` holding ``text``; ``False`` if it already exists."""
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    with os.fdopen(fd, "w") as handle:
        handle.write(text)
    return True


def discard(path: Path) -> None:
    """Unlink ``path``; a file that is already gone is not an error."""
    try:
        path.unlink()
    except OSError:
        pass


def steal_threshold(lease_ttl: float) -> float:
    """Heartbeat age beyond which a lease is presumed abandoned."""
    return lease_ttl + min(_SKEW_MARGIN, 0.1 * lease_ttl)


def fresh(mtime: float, lease_ttl: float) -> bool:
    """Whether a heartbeat at ``mtime`` is recent enough to be live.

    A mtime in the future (clock skew, a clock step) is a fresh
    heartbeat, not a negative age.
    """
    return max(0.0, time.time() - mtime) <= steal_threshold(lease_ttl)


def read_owner(path: Path) -> Optional[str]:
    """The owner id written in the lease at ``path`` (``None`` if gone)."""
    try:
        return path.read_text().strip()
    except OSError:
        return None


def holder(path: Path) -> Optional[Tuple[str, float]]:
    """``(owner, heartbeat mtime)`` of the lease at ``path``, if readable."""
    try:
        mtime = path.stat().st_mtime
        owner = path.read_text().strip()
    except OSError:
        return None
    return owner, mtime


def acquire(
    path: Path, owner: str, live: Callable[[str, float], bool],
    keep_tombstone: bool,
) -> Optional[bool]:
    """Take the lease at ``path`` for ``owner``.

    Returns ``None`` when the lease stays with someone else, ``False``
    for a fresh claim and ``True`` for a steal.  ``live(owner, mtime)``
    decides whether an existing lease's owner is alive;
    ``keep_tombstone`` leaves a steal's tombstone next to the lease as
    its record (a displaced live lease's tombstone never stays).
    """
    if create_exclusive(path, owner):
        return False
    held = holder(path)
    if held is None or live(*held):
        return None  # alive, or released or stolen this instant
    tombstone = path.with_name(f"{path.stem}.stale-{os.urandom(4).hex()}")
    try:
        os.rename(path, tombstone)
    except OSError:
        return None  # a racing stealer won the rename
    held = holder(tombstone)
    if held is None or live(*held):
        # We displaced a lease a racing stealer had just re-created (or
        # the tombstone was reaped and there is no evidence either way).
        try:
            os.link(tombstone, path)
        except OSError:
            pass  # slot re-taken; nothing safe left to do
        discard(tombstone)
        return None
    stolen = create_exclusive(path, owner)
    if not keep_tombstone:
        discard(tombstone)
    return True if stolen else None  # None: a fresh claimer slipped in


def refresh(path: Path, owner: str) -> bool:
    """Heartbeat ``owner``'s lease; ``False`` once it is not theirs.

    The lease can vanish or be replaced at any point mid-steal, so the
    owner is read before the mtime update and again after it:
    refreshing a thief's lease must still report the lease lost.
    """
    if read_owner(path) != owner:
        return False
    try:
        os.utime(path)
    except OSError:
        return False
    return read_owner(path) == owner


def release(path: Path, owner: str) -> None:
    """Drop the lease at ``path`` if ``owner`` still holds it."""
    if read_owner(path) == owner:
        discard(path)
