"""Parallel multi-seed runtime: fan seeds out over a worker pool.

:class:`ParallelRunner` exposes the same ``average_rates`` /
``average_series`` API as :mod:`repro.simulation.runner` but distributes
the per-seed runs over a :mod:`concurrent.futures` pool.  Results are
collected back **in seed order** and reduced with the exact helpers the
sequential path uses (:func:`~repro.simulation.runner.combine_rates` /
:func:`~repro.simulation.runner.combine_series`), so for a deterministic
``run`` callable the output is bit-identical to the sequential oracle —
the property the equivalence suite in ``tests/simulation`` asserts for
every registered scenario and every chunk size.

Scheduling is **chunked**: instead of one pool task per seed, seeds are
grouped into contiguous batches of ``chunk_size`` and each task runs a
whole batch.  One task per seed (``chunk_size=1``) pays pool dispatch +
pickling once *per seed*, which dominates for cheap scenarios; batching
amortizes that overhead while a worker's per-process scenario arena
(:mod:`repro.simulation.registry`) is reused across every seed in its
batches.  ``chunk_size=None`` (the default) picks
``ceil(len(seeds) / (workers * 4))`` — four waves of tasks per worker,
enough slack for dynamic load balancing without per-seed dispatch.
Chunking never changes results: chunks are contiguous, ``pool.map``
returns them in submission order, and the flattened list is exactly the
seed-ordered list the sequential oracle produces.

Backends:

* ``"process"`` — :class:`~concurrent.futures.ProcessPoolExecutor`; the
  ``run`` callable must be picklable (module-level functions and
  :func:`functools.partial` of them qualify — every spec produced by
  :mod:`repro.simulation.registry` is).  Unpicklable callables degrade
  to the sequential fallback with a one-time :class:`RuntimeWarning`
  naming the callable, so a pool-bound-looking sweep is diagnosable.
* ``"thread"`` — :class:`~concurrent.futures.ThreadPoolExecutor`; no
  pickling constraint, useful under the GIL only for I/O-bound runs but
  invaluable for cheap equivalence testing.

``workers <= 1`` always runs sequentially in-process (the fallback and
the oracle).  An ``initializer`` (with ``initargs``) runs once per pool
worker before any task — the hook
:func:`repro.simulation.sweep.execute_sweep` uses to materialize the
scenario arena once per process.

Worker supervision (process backend): a pool worker dying — OOM-killed,
segfaulted, SIGKILLed — breaks the whole :class:`ProcessPoolExecutor`
and poisons every in-flight future with ``BrokenProcessPool``.  The
runner catches that, rebuilds the pool, and resubmits exactly the
chunks that never completed, up to ``max_attempts`` rounds per chunk
(the same budget the distributed queue applies per seed).  A chunk
still crashing after its budget raises :class:`WorkerCrashError`
naming the chunk and its seeds, instead of the opaque
``BrokenProcessPool``.  Ordinary exceptions raised *by* a seed are not
retried here — they propagate raise-fast as before (the distributed
backend and ``on_error="collect"`` own seed-level error handling).
"""

from __future__ import annotations

import math
import os
import pickle
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from repro.simulation.faults import DEFAULT_MAX_ATTEMPTS
from repro.simulation.results import RateSummary, SeriesResult
from repro.simulation.runner import combine_rates, combine_series

T = TypeVar("T")

_BACKENDS = ("process", "thread")

# Callables already warned about (by description) when they forced the
# sequential fallback; one warning per callable, not one per sweep.
_WARNED_UNPICKLABLE: set = set()


class WorkerCrashError(RuntimeError):
    """A pool worker kept dying on the same chunk until its retry
    budget ran out.

    Names the chunk (index and seeds) so the caller knows exactly
    which work is poison — unlike the bare ``BrokenProcessPool`` it
    replaces, which says only that *some* worker died *somewhere*.
    """

    def __init__(
        self, chunk_index: int, seeds: Sequence[int], attempts: int,
    ) -> None:
        self.chunk_index = int(chunk_index)
        self.seeds = tuple(int(seed) for seed in seeds)
        self.attempts = int(attempts)
        super().__init__(
            f"process-pool worker crashed on chunk {self.chunk_index} "
            f"(seeds {list(self.seeds)}) in each of {self.attempts} "
            f"attempt(s); the chunk is presumed poison"
        )


@dataclass(frozen=True)
class RunTiming:
    """Wall-clock accounting of one multi-seed map."""

    wall_seconds: float
    seeds: int
    workers: int
    backend: str
    chunk_size: int = 1

    def seeds_per_second(self) -> float:
        if self.wall_seconds <= 0.0:
            return float("inf")
        return self.seeds / self.wall_seconds


def default_workers() -> int:
    """Worker count when none is given: one per CPU, at least one."""
    return max(1, os.cpu_count() or 1)


def auto_chunk_size(seeds: int, workers: int) -> int:
    """Default batch size: four waves of tasks per worker.

    ``ceil(seeds / (workers * 4))`` keeps every worker busy with a few
    tasks (so a slow chunk can be balanced around) while still
    amortizing dispatch overhead over multiple seeds per task.
    """
    if seeds < 1:
        raise ValueError("need at least one seed")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    return max(1, math.ceil(seeds / (workers * 4)))


def _chunked(seeds: Sequence[int], chunk_size: int) -> List[Tuple[int, ...]]:
    """Contiguous seed batches, preserving order."""
    return [
        tuple(seeds[start:start + chunk_size])
        for start in range(0, len(seeds), chunk_size)
    ]


def _run_chunk(run: Callable[[int], T], seeds: Sequence[int]) -> List[T]:
    """One pool task: a batch of seeds through the same run callable."""
    return [run(seed) for seed in seeds]


def _is_picklable(obj: object) -> bool:
    try:
        pickle.dumps(obj)
    except Exception:
        return False
    return True


def _describe_callable(run: Callable) -> str:
    """A stable human-readable name for warning messages."""
    if isinstance(run, partial):
        return f"functools.partial({_describe_callable(run.func)})"
    for attr in ("__qualname__", "__name__"):
        name = getattr(run, attr, None)
        if name:
            module = getattr(run, "__module__", None)
            return f"{module}.{name}" if module else name
    return repr(run)


def _warn_unpicklable_once(run: Callable) -> None:
    description = _describe_callable(run)
    if description in _WARNED_UNPICKLABLE:
        return
    _WARNED_UNPICKLABLE.add(description)
    warnings.warn(
        f"run callable {description} is not picklable; the process pool "
        f"cannot execute it, so the sweep degrades to sequential "
        f"in-process execution. Use a module-level function (or a "
        f"functools.partial of one, e.g. ScenarioSpec.bound()) to keep "
        f"the pool, or backend='thread' if pickling is impossible.",
        RuntimeWarning,
        stacklevel=3,
    )


@dataclass
class ParallelRunner:
    """Multi-seed runner over a process or thread pool.

    Parameters
    ----------
    workers:
        Pool size; ``None`` means one per CPU.  ``workers <= 1`` runs
        sequentially (the oracle path).
    backend:
        ``"process"`` (default) or ``"thread"``.
    chunk_size:
        Seeds per pool task.  ``None`` (default) picks
        :func:`auto_chunk_size`; any positive value is honoured and the
        result is bit-identical regardless.
    initializer / initargs:
        Run once per pool worker before its first task (both backends).
        Under the process backend they must be picklable.
    max_attempts:
        Rounds a chunk may be resubmitted after its pool worker *died*
        (``BrokenProcessPool``) before :class:`WorkerCrashError`;
        ``None`` means :data:`DEFAULT_MAX_ATTEMPTS`.  Seed exceptions
        are never retried by the runner — they propagate raise-fast.
    """

    workers: Optional[int] = None
    backend: str = "process"
    chunk_size: Optional[int] = None
    initializer: Optional[Callable[..., None]] = None
    initargs: Tuple = ()
    max_attempts: Optional[int] = None
    last_timing: Optional[RunTiming] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.backend not in _BACKENDS:
            raise ValueError(
                f"backend must be one of {_BACKENDS}, got {self.backend!r}"
            )
        if self.workers is None:
            self.workers = default_workers()
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        if self.max_attempts is not None and self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")

    # ------------------------------------------------------------------
    def map_seeds(
        self, run: Callable[[int], T], seeds: Sequence[int]
    ) -> List[T]:
        """Per-seed results, in seed order, timed into ``last_timing``."""
        if not seeds:
            raise ValueError("need at least one seed")
        workers = min(self.workers or 1, len(seeds))
        chunk_size = 1
        if workers > 1:
            chunk_size = (
                self.chunk_size if self.chunk_size is not None
                else auto_chunk_size(len(seeds), workers)
            )
            # A single chunk leaves nothing to parallelize; don't pay
            # for a pool that would run it on one worker anyway.
            workers = min(workers, math.ceil(len(seeds) / chunk_size))
        start = time.perf_counter()
        if workers <= 1:
            if self.initializer is not None:
                self.initializer(*self.initargs)
            results = [run(seed) for seed in seeds]
        elif self.backend == "process" and not _is_picklable(run):
            # An unpicklable callable cannot cross a process boundary;
            # degrade to the sequential oracle instead of erroring so
            # ad-hoc closures still work everywhere.
            _warn_unpicklable_once(run)
            if self.initializer is not None:
                self.initializer(*self.initargs)
            results = [run(seed) for seed in seeds]
            workers = 1
        elif self.backend == "process":
            chunks = _chunked(seeds, chunk_size)
            results = [
                result
                for batch in self._map_process_chunks(run, chunks, workers)
                for result in batch
            ]
        else:
            chunks = _chunked(seeds, chunk_size)
            with ThreadPoolExecutor(
                max_workers=workers,
                initializer=self.initializer,
                initargs=self.initargs,
            ) as pool:
                results = [
                    result
                    for batch in pool.map(partial(_run_chunk, run), chunks)
                    for result in batch
                ]
        self.last_timing = RunTiming(
            wall_seconds=time.perf_counter() - start,
            seeds=len(seeds),
            workers=workers,
            backend=self.backend if workers > 1 else "sequential",
            chunk_size=chunk_size,
        )
        return results

    # ------------------------------------------------------------------
    def _map_process_chunks(
        self,
        run: Callable[[int], T],
        chunks: List[Tuple[int, ...]],
        workers: int,
    ) -> List[List[T]]:
        """Chunk results in order, surviving pool-worker deaths.

        Each round submits every not-yet-completed chunk to a (fresh)
        pool.  A dead worker breaks the pool and poisons all in-flight
        futures with ``BrokenProcessPool``; those chunks — completed
        work is never re-run — go into the next round, each charged one
        attempt.  A chunk that crashed in ``max_attempts`` straight
        rounds is presumed poison and raises :class:`WorkerCrashError`
        naming it.  Ordinary seed exceptions propagate immediately.
        """
        budget = (
            self.max_attempts if self.max_attempts is not None
            else DEFAULT_MAX_ATTEMPTS
        )
        results: List[Optional[List[T]]] = [None] * len(chunks)
        attempts = [0] * len(chunks)
        remaining = list(range(len(chunks)))
        while remaining:
            crashed: List[int] = []
            with ProcessPoolExecutor(
                max_workers=min(workers, len(remaining)),
                initializer=self.initializer,
                initargs=self.initargs,
            ) as pool:
                futures = [
                    (index, pool.submit(_run_chunk, run, chunks[index]))
                    for index in remaining
                ]
                for index, future in futures:
                    attempts[index] += 1
                    try:
                        results[index] = future.result()
                    except BrokenProcessPool:
                        # The pool died under this chunk (or before it
                        # ever started); resubmit it next round.
                        crashed.append(index)
            for index in crashed:
                if attempts[index] >= budget:
                    raise WorkerCrashError(
                        index, chunks[index], attempts[index],
                    )
            remaining = crashed
        return [batch for batch in results if batch is not None]

    # ------------------------------------------------------------------
    # the sequential-compatible API
    # ------------------------------------------------------------------
    def average_rates(
        self, run: Callable[[int], RateSummary], seeds: Sequence[int]
    ) -> RateSummary:
        """Parallel drop-in for :func:`repro.simulation.runner.average_rates`."""
        return combine_rates(self.map_seeds(run, seeds))

    def average_series(
        self, run: Callable[[int], SeriesResult], seeds: Sequence[int]
    ) -> SeriesResult:
        """Parallel drop-in for :func:`repro.simulation.runner.average_series`."""
        return combine_series(self.map_seeds(run, seeds))
