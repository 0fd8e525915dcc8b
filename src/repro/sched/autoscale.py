"""Fleet autoscaling: tick-based policy + coordinator-side supervisor.

The fixed-fleet executor spawns ``workers`` processes up front and
keeps them until the campaign drains — fine for one uniform sweep,
wasteful for a mixed campaign whose tail needs two workers while the
fleet holds eight.  The autoscaler splits the problem in two:

* :class:`AutoscalePolicy` is a *pure* decision function: feed it one
  :class:`QueueSample` per tick and the current fleet size, get back a
  clamped target with hysteresis (consecutive-tick holds before
  scaling, a cooldown after).  No I/O, no clocks — the Hypothesis
  suite drives it with synthetic traces and asserts the bounds and
  flap-damping invariants directly.
* :class:`FleetSupervisor` owns the processes: it samples the queue,
  asks the policy, spawns workers via an injected factory and retires
  them gracefully through per-worker stop-flag files (a worker
  finishes its current task, sees the flag, exits — leases are never
  cut mid-task, so autoscaling can't cause a steal).  Every scaling
  action appends one JSON line to ``autoscale-events.jsonl`` under the
  queue directory, which ``repro queue status`` surfaces.

Autoscaling is result-neutral by construction: it changes how many
workers pull from the queue, never what any task computes.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

_EVENTS_NAME = "autoscale-events.jsonl"
_FLAGS_DIR = "autoscale-flags"


@dataclass(frozen=True)
class QueueSample:
    """One tick's observation of campaign load.

    ``claimable`` counts tasks no live worker holds and nobody has
    finished; ``leased`` counts tasks in flight.  Their sum is the
    outstanding work — the fleet size that would give every task a
    worker right now.
    """

    claimable: int
    leased: int = 0
    oldest_lease_age: float = 0.0
    steals: int = 0

    @property
    def outstanding(self) -> int:
        return max(self.claimable, 0) + max(self.leased, 0)


@dataclass(frozen=True)
class ScaleDecision:
    """What the policy wants done this tick."""

    target: int
    action: str  # "spawn" | "retire" | "hold"
    reason: str


class AutoscalePolicy:
    """Bounded scaling with hysteresis.

    The desired fleet is the outstanding task count clamped to
    ``[min_workers, max_workers]``.  Upward moves wait
    ``scale_up_after`` consecutive ticks of pressure, downward moves
    ``scale_down_after`` ticks of slack, and any action starts a
    ``cooldown``-tick quiet period — so a queue oscillating around a
    threshold cannot flap the fleet.  Bounds violations (a fleet
    outside ``[min, max]``, e.g. after worker deaths) are corrected
    immediately, bypassing hysteresis: the bounds are a contract, the
    damping is an optimization.
    """

    def __init__(
        self,
        min_workers: int,
        max_workers: int,
        scale_up_after: int = 1,
        scale_down_after: int = 3,
        cooldown: int = 2,
    ) -> None:
        if min_workers < 0:
            raise ValueError(f"min_workers must be >= 0, got {min_workers}")
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if min_workers > max_workers:
            raise ValueError(
                f"min_workers ({min_workers}) exceeds "
                f"max_workers ({max_workers})"
            )
        if scale_up_after < 1 or scale_down_after < 1 or cooldown < 0:
            raise ValueError("hysteresis windows must be positive")
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.scale_up_after = scale_up_after
        self.scale_down_after = scale_down_after
        self.cooldown = cooldown
        self._up_streak = 0
        self._down_streak = 0
        self._cooldown_left = 0

    def clamp(self, size: int) -> int:
        return max(self.min_workers, min(self.max_workers, size))

    def decide(self, sample: QueueSample, current: int) -> ScaleDecision:
        """One tick: the fleet size to hold, and whether to move now."""
        desired = self.clamp(sample.outstanding)
        if current < self.min_workers:
            self._reset(cooldown=True)
            return ScaleDecision(
                self.min_workers, "spawn",
                f"fleet {current} below min_workers {self.min_workers}",
            )
        if current > self.max_workers:
            self._reset(cooldown=True)
            return ScaleDecision(
                self.max_workers, "retire",
                f"fleet {current} above max_workers {self.max_workers}",
            )
        if self._cooldown_left > 0:
            self._cooldown_left -= 1
            return ScaleDecision(current, "hold", "cooling down")
        if desired > current:
            self._up_streak += 1
            self._down_streak = 0
            if self._up_streak >= self.scale_up_after:
                self._reset(cooldown=True)
                return ScaleDecision(
                    desired, "spawn",
                    f"{sample.outstanding} tasks outstanding vs "
                    f"fleet of {current}",
                )
            return ScaleDecision(
                current, "hold",
                f"pressure {self._up_streak}/{self.scale_up_after}",
            )
        if desired < current:
            self._down_streak += 1
            self._up_streak = 0
            if self._down_streak >= self.scale_down_after:
                self._reset(cooldown=True)
                return ScaleDecision(
                    desired, "retire",
                    f"{sample.outstanding} tasks outstanding vs "
                    f"fleet of {current}",
                )
            return ScaleDecision(
                current, "hold",
                f"slack {self._down_streak}/{self.scale_down_after}",
            )
        self._up_streak = 0
        self._down_streak = 0
        return ScaleDecision(current, "hold", "steady")

    def _reset(self, cooldown: bool = False) -> None:
        self._up_streak = 0
        self._down_streak = 0
        if cooldown:
            self._cooldown_left = self.cooldown


class FleetSupervisor:
    """Spawn/retire local worker processes from policy decisions.

    ``spawn`` is an injected factory ``spawn(stop_flag: Path) ->
    multiprocessing.Process`` (already started); the supervisor never
    imports the worker entrypoint itself, keeping this module free of
    executor dependencies.  Retirement is cooperative: the supervisor
    touches the worker's stop flag and lets it drain its current task;
    the process is reaped on a later tick.  ``shutdown`` flags every
    worker and joins with a timeout, terminating only stragglers.
    """

    def __init__(
        self,
        spawn: Callable[[Path], object],
        policy: AutoscalePolicy,
        queue_dir: Union[str, Path],
    ) -> None:
        self._spawn = spawn
        self.policy = policy
        self.queue_dir = Path(queue_dir)
        self._flags_dir = self.queue_dir / _FLAGS_DIR
        self._events_path = self.queue_dir / _EVENTS_NAME
        self._workers: List[tuple] = []  # (process, stop_flag_path)
        self._serial = 0
        self._tick = 0
        self.spawned_total = 0
        self.retired_total = 0

    # ------------------------------------------------------------------
    def alive(self) -> int:
        """Reap exited workers; the number still running."""
        survivors = []
        for process, flag in self._workers:
            if process.is_alive():
                survivors.append((process, flag))
            else:
                process.join(timeout=0)
        self._workers = survivors
        return len(survivors)

    def sentinels(self) -> List[int]:
        """Wait handles of the running workers; each turns ready when
        its worker exits (see ``multiprocessing.connection.wait``)."""
        return [
            process.sentinel for process, _ in self._workers
            if process.is_alive()
        ]

    def observe(self, sample: QueueSample) -> ScaleDecision:
        """One autoscaler tick: decide, act, log."""
        current = self.alive()
        decision = self.policy.decide(sample, current)
        if decision.action == "spawn" and decision.target > current:
            for _ in range(decision.target - current):
                self._spawn_one()
        elif decision.action == "retire" and decision.target < current:
            # Newest-first: older workers are warmer (module imports,
            # cache handles) and more likely mid-task.
            for process, flag in self._workers[decision.target:]:
                self._flag(flag)
            self.retired_total += current - decision.target
        if decision.action != "hold":
            self._log_event(decision, current, sample)
        self._tick += 1
        return decision

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop the whole fleet: flag, drain, then terminate stragglers."""
        for _, flag in self._workers:
            self._flag(flag)
        deadline = time.monotonic() + timeout
        for process, _ in self._workers:
            process.join(timeout=max(0.0, deadline - time.monotonic()))
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        self._workers = []

    # ------------------------------------------------------------------
    def _spawn_one(self) -> None:
        self._flags_dir.mkdir(parents=True, exist_ok=True)
        flag = self._flags_dir / f"stop-{os.getpid()}-{self._serial}.flag"
        self._serial += 1
        try:
            flag.unlink()
        except OSError:
            pass
        process = self._spawn(flag)
        self._workers.append((process, flag))
        self.spawned_total += 1

    @staticmethod
    def _flag(flag: Path) -> None:
        try:
            flag.parent.mkdir(parents=True, exist_ok=True)
            flag.touch()
        except OSError:
            pass  # worst case the worker drains the queue and exits

    def _log_event(
        self, decision: ScaleDecision, previous: int, sample: QueueSample,
    ) -> None:
        event = {
            "time": time.time(),
            "tick": self._tick,
            "action": decision.action,
            "from": previous,
            "to": decision.target,
            "reason": decision.reason,
            "claimable": sample.claimable,
            "leased": sample.leased,
        }
        try:
            with self._events_path.open("a") as handle:
                handle.write(json.dumps(event) + "\n")
        except OSError:
            pass  # telemetry only; scaling still happened


def load_autoscale_events(
    queue_dir: Union[str, Path], limit: Optional[int] = None,
) -> List[Dict[str, object]]:
    """The scaling events recorded under ``queue_dir``, oldest first.

    Returns the last ``limit`` events when given; an empty list when
    no autoscaler ever ran there.  Unparseable lines (torn writes from
    a killed coordinator) are skipped.
    """
    path = Path(queue_dir) / _EVENTS_NAME
    try:
        lines = path.read_text().splitlines()
    except OSError:
        return []
    events = []
    for line in lines:
        try:
            event = json.loads(line)
        except ValueError:
            continue
        if isinstance(event, dict):
            events.append(event)
    if limit is not None and limit >= 0:
        events = events[-limit:]
    return events
