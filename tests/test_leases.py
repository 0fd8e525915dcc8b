"""The lease protocol under the two stores that use it.

Both the work queue's task leases and the job store's dispatch leases
run :mod:`repro.leases`; each test here drives the same interleaving
through both stores.  Owners are judged by heartbeat mtime in both (the
job-store owners name other hosts), so backdating a lease makes its
owner look dead to either store.
"""

import os
import time

import pytest

from repro.service import JobStateStore
from repro.simulation import registry
from repro.simulation.distributed import WorkQueue

TTL = 5.0


class _QueueLeases:
    """Task ``task-0000`` of a one-task sweep, claimed by name."""

    def __init__(self, tmp_path):
        scenario = "fig15-environment"
        self.queue = WorkQueue.create(
            tmp_path / "queue", scenario,
            registry.get(scenario).params_key(smoke=True), [1], 1,
        )
        self.lease = self.queue.sweep_dir / "leases" / "task-0000.lease"
        self.claims = {}

    def owner(self, who):
        return f"worker-{who}"

    def claim(self, who):
        claim = self.queue.claim("task-0000", self.owner(who), TTL)
        if claim is not None:
            self.claims[who] = claim
        return claim is not None

    def heartbeat(self, who):
        assert self.queue.heartbeat(self.claims[who])

    def release(self, who):
        self.queue.release(self.claims[who])

    def tombstones(self):
        return self.queue.steal_events()


class _JobStoreLeases:
    """Job ``job-000001`` of one state dir, one store per name."""

    def __init__(self, tmp_path):
        self.state = tmp_path / "state"
        self.lease = self.state / "leases" / "job-000001.lease"
        self.stores = {}

    def owner(self, who):
        return f"host-{who}:1:{who}"

    def store(self, who):
        if who not in self.stores:
            self.stores[who] = JobStateStore(
                self.state, owner=self.owner(who), lease_ttl=TTL,
            )
        return self.stores[who]

    def claim(self, who):
        return self.store(who).claim("job-000001")

    def heartbeat(self, who):
        self.store(who).touch_owned_leases()

    def release(self, who):
        self.store(who).release("job-000001")

    def tombstones(self):
        return tuple(self.lease.parent.glob("*.stale-*"))


@pytest.fixture(params=["work-queue", "job-store"])
def holders(request, tmp_path):
    if request.param == "work-queue":
        return _QueueLeases(tmp_path)
    return _JobStoreLeases(tmp_path)


def _backdate(path, seconds=3600.0):
    past = time.time() - seconds
    os.utime(path, (past, past))
    return past


def test_stealer_never_claims_over_a_racing_steal(holders, monkeypatch):
    """The TOCTOU window: stealer A judges a stale lease dead, then a
    racing stealer B completes its whole steal before A's rename lands.
    A's rename displaces B's fresh lease; A must put it back, not
    claim."""
    holders.lease.parent.mkdir(parents=True, exist_ok=True)
    holders.lease.write_text("host-crashed:1:gone")
    _backdate(holders.lease)

    real_rename = os.rename
    seen = {}

    def b_steals_inside_a_rename(src, dst):
        monkeypatch.setattr(os, "rename", real_rename)
        seen["b_claimed"] = holders.claim("B")
        seen["b_inode"] = holders.lease.stat().st_ino
        return real_rename(src, dst)

    monkeypatch.setattr(os, "rename", b_steals_inside_a_rename)
    a_claimed = holders.claim("A")
    monkeypatch.setattr(os, "rename", real_rename)

    assert seen["b_claimed"] is True
    assert a_claimed is False
    # B's lease is back at the lease path: the same inode, so B's
    # heartbeat keeps touching it.
    assert holders.lease.read_text() == holders.owner("B")
    assert holders.lease.stat().st_ino == seen["b_inode"]
    old = _backdate(holders.lease, 60.0)
    holders.heartbeat("B")
    assert holders.lease.stat().st_mtime > old + 30.0
    # One steal happened, so the work queue records one steal event;
    # the job store unlinks every tombstone it made.
    expected = 1 if isinstance(holders, _QueueLeases) else 0
    assert len(holders.tombstones()) == expected


def test_release_after_a_steal_keeps_the_thiefs_lease(holders):
    """A worker whose lease was stolen during its last seed releases
    after publishing its result; the thief's lease must survive."""
    assert holders.claim("A")
    _backdate(holders.lease)
    assert holders.claim("B")
    holders.release("A")
    assert holders.lease.read_text() == holders.owner("B")
    holders.release("B")
    assert not holders.lease.exists()
