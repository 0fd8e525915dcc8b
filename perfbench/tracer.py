"""Out-of-program tracing: spans and counters around ``repro``'s layers.

The benchmark measures each layer from outside: :func:`install` wraps
the public functions that mark a layer boundary and records a span per
call (name, start, end, parent span, tag) or, for high-frequency leaf
calls, only a count.  The program itself carries no tracing code.

Wrappers are installed before any worker or server process forks, so
children inherit them.  ``os.register_at_fork`` empties a child's
buffer, and the child writes its spans to one JSON file under the
trace directory when it ends (:meth:`Tracer.flush`).
:meth:`Tracer.collect` merges every process's spans and counts and
:func:`layer_metrics` reduces them to the per-layer metrics named in
``BENCHMARK.json``.

All timestamps are ``time.perf_counter()``, which on Linux is the
system-wide monotonic clock, so spans from different processes share
one time base.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import signal
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

# One span: (span id, parent id, name, start, end, tag, outcome).
Span = tuple


class Tracer:
    """Per-process span buffer; one instance per benchmark run."""

    def __init__(self, trace_dir: Path, role: str = "bench") -> None:
        self.trace_dir = Path(trace_dir)
        self.role = role
        self.active = False
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[tuple] = []
        self._pid = os.getpid()

    # -- recording -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(
        self, name: str, fn: Callable,
        tag: Optional[Callable] = None,
        outcome: Optional[Callable] = None,
    ) -> Callable:
        """Wrap ``fn`` so each call records one span named ``name``.

        ``tag(args, result)`` and ``outcome(args, result)`` attach a
        correlation key (a sweep or job id) and a success flag; an
        ``outcome`` of ``None`` drops the span (the call did no work of
        this layer, e.g. an arena lookup that found the arena built).
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span_id = f"{tracer._pid}:{next(tracer._ids)}"
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                ok = outcome(args, result) if outcome is not None else True
                if ok is not None:
                    tracer.spans.append((
                        span_id, parent, name, start, end,
                        tag(args, result) if tag is not None else None,
                        bool(ok),
                    ))

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so each call only bumps ``counts[name]``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ------------------------------------------------------
    def patch_attr(self, owner, attr: str, wrapper_factory: Callable) -> None:
        """Replace ``owner.attr`` (a class or module attribute)."""
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(wrapper_factory(raw.__func__))
        else:
            replacement = wrapper_factory(raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def patch_function(self, fn: Callable, wrapper: Callable) -> None:
        """Replace a module-level function in every ``repro`` module that
        bound it, including ``from ... import name`` copies."""
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute (newest first)."""
        self.active = False
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- process lifecycle ----------------------------------------------
    def _after_fork_child(self) -> None:
        self.spans = []
        self.counts = Counter()
        self._local = threading.local()
        self._pid = os.getpid()

    def flush(self) -> None:
        """Write this process's spans and counts (child processes)."""
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        path = self.trace_dir / (
            f"{self.role}-{os.getpid()}-{os.urandom(4).hex()}.json"
        )
        payload = {
            "role": self.role,
            "pid": os.getpid(),
            "spans": self.spans,
            "counts": dict(self.counts),
        }
        temp = path.with_suffix(".tmp")
        temp.write_text(json.dumps(payload))
        os.replace(temp, path)

    def reset(self) -> None:
        """Drop everything recorded so far in this process."""
        self.spans = []
        self.counts = Counter()

    def collect(self) -> List[dict]:
        """This process's buffer plus every flushed child buffer."""
        buffers = [{
            "role": self.role, "pid": os.getpid(),
            "spans": list(self.spans), "counts": dict(self.counts),
        }]
        if self.trace_dir.is_dir():
            for path in sorted(self.trace_dir.glob("*.json")):
                buffers.append(json.loads(path.read_text()))
        return buffers


# ---------------------------------------------------------------------------
# the layer map: which public function marks which layer boundary
# ---------------------------------------------------------------------------

def _sweep_id_of_self(args, result):
    return args[0].sweep_id


def _not_none(args, result):
    return result is not None


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are built from.

    Imports the ``repro`` modules first so that name bindings made by
    ``from ... import`` are in place to be patched.
    """
    import repro.analysis.export as export
    import repro.api.client as api_client
    import repro.core.policy as policy
    import repro.core.records as records
    import repro.core.transitivity as transitivity
    import repro.core.update as update
    import repro.service.jobs as jobs
    import repro.service.persist as persist
    import repro.service.remote as remote
    import repro.simulation.distributed as distributed
    import repro.simulation.registry as registry
    import repro.simulation.runner as runner
    import repro.socialnet.datasets as datasets
    import repro.socialnet.graph as graph
    import repro.socialnet.metrics as metrics
    from repro.simulation.cache import SweepCache

    span, count = tracer.span, tracer.counter

    # simulation.registry.  Arenas are built lazily inside run_reduced on
    # fleet workers, so the build is timed where every path meets: the
    # per-process arena store lookup, kept only when the store grew.
    def arena_wrapper(fn):
        state = threading.local()

        inner = span(
            "registry.build", fn,
            outcome=lambda args, result: (
                True if registry.arena_store_size() > state.before
                or not registry.get(args[0]).reusable else None
            ),
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state.before = registry.arena_store_size()
            return inner(*args, **kwargs)
        return wrapper

    tracer.patch_attr(registry, "_arena", arena_wrapper)
    # One seed: run_reduced on the sweep, fleet and service paths,
    # ScenarioSpec.run_full on the kernel workloads (neither calls the
    # other).
    tracer.patch_function(
        registry.run_reduced, span("registry.seed", registry.run_reduced)
    )
    tracer.patch_attr(
        registry.ScenarioSpec, "run_full",
        lambda fn: span("registry.seed", fn),
    )
    for name in ("combine_rates", "combine_series"):
        fn = getattr(runner, name)
        tracer.patch_function(fn, span("registry.reduce", fn))

    # core: selection, scoring, the Eq. 18-22 updates, transitivity.
    tracer.patch_attr(
        policy.SelectionPolicy, "select",
        lambda fn: span("core.select", fn),
    )
    pending = [policy.SelectionPolicy]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "score" in cls.__dict__:
            tracer.patch_attr(
                cls, "score", lambda fn: count("core.score_calls", fn)
            )
    tracer.patch_attr(
        update.ForgettingUpdater, "update",
        lambda fn: span("core.update", fn),
    )
    tracer.patch_attr(
        records.OutcomeFactors, "__init__",
        lambda fn: count("core.factors_built", fn),
    )
    tracer.patch_attr(
        transitivity.TrustTransitivity, "find_trustees",
        lambda fn: span("core.find_trustees", fn),
    )

    # socialnet: graph generation, all-pairs BFS, clustering.
    tracer.patch_function(
        datasets.load_network,
        span("socialnet.generate", datasets.load_network),
    )
    for name in ("diameter", "average_path_length"):
        fn = getattr(metrics, name)
        tracer.patch_function(fn, span("socialnet.bfs", fn))
    tracer.patch_function(
        metrics.average_clustering_coefficient,
        span("socialnet.clustering", metrics.average_clustering_coefficient),
    )
    tracer.patch_attr(
        graph.SocialGraph, "neighbors",
        lambda fn: count("socialnet.neighbors_calls", fn),
    )

    # simulation.cache
    tracer.patch_attr(
        SweepCache, "get_entry",
        lambda fn: span("cache.get", fn, outcome=_not_none),
    )
    tracer.patch_attr(SweepCache, "put", lambda fn: span("cache.put", fn))

    # simulation.distributed: the queue and lease protocol.
    tracer.patch_function(
        distributed.execute_queued,
        span("queue.execute", distributed.execute_queued),
    )
    tracer.patch_attr(
        distributed.WorkQueue, "create",
        lambda fn: span(
            "queue.create", fn, tag=lambda args, result: result.sweep_id,
        ),
    )
    tracer.patch_attr(
        distributed.WorkQueue, "claim",
        lambda fn: span(
            "queue.claim", fn, tag=_sweep_id_of_self,
            outcome=lambda args, result: result is not None,
        ),
    )
    for attr, name in (("heartbeat", "queue.heartbeat"),
                       ("mark_done", "queue.done"),
                       ("collect", "queue.collect")):
        tracer.patch_attr(
            distributed.WorkQueue, attr,
            lambda fn, name=name: span(name, fn),
        )
    # Fleet workers are ended with SIGTERM; turn it into SystemExit so
    # the worker unwinds and writes its spans.
    tracer.patch_function(
        distributed._local_worker_main,
        _flushing_entry(tracer, "worker", distributed._local_worker_main),
    )

    # api / service / analysis: HTTP, the job table, the export.
    tracer.patch_attr(
        remote.RemoteClient, "submit", lambda fn: span("http.submit", fn),
    )
    tracer.patch_attr(
        remote.RemoteSweepHandle, "result", lambda fn: span("http.wait", fn),
    )
    # service.queued_s pairs a job's submit_sweep with the dispatcher's
    # Client.submit of the same SweepSpec object.
    tracer.patch_attr(
        jobs.JobTable, "submit_sweep",
        lambda fn: span(
            "service.submit", fn, tag=lambda args, result: id(args[1]),
        ),
    )
    tracer.patch_attr(
        api_client.Client, "submit",
        lambda fn: span(
            "api.submit", fn, tag=lambda args, result: id(args[1]),
        ),
    )
    tracer.patch_attr(
        api_client.SweepHandle, "result", lambda fn: span("api.result", fn),
    )
    tracer.patch_function(
        export.sweep_to_payload,
        span("export.payload", export.sweep_to_payload),
    )

    # service.persist: the job journal and the job-store lease.
    tracer.patch_attr(
        persist.JobStateStore, "save_job",
        lambda fn: span("persist.journal", fn),
    )
    tracer.patch_attr(
        persist.JobStateStore, "claim",
        lambda fn: span(
            "persist.claim", fn, outcome=lambda args, result: bool(result),
        ),
    )
    tracer.patch_attr(
        persist.JobStateStore, "save_result",
        lambda fn: span("persist.result", fn),
    )

    if not getattr(tracer, "_fork_hook", False):
        os.register_at_fork(after_in_child=tracer._after_fork_child)
        tracer._fork_hook = True


def _flushing_entry(tracer: Tracer, role: str, fn: Callable) -> Callable:
    """A child-process entry point that writes its spans on the way out."""

    @functools.wraps(fn)
    def entry(*args, **kwargs):
        tracer.role = role
        signal.signal(signal.SIGTERM, _exit_on_term)
        try:
            return fn(*args, **kwargs)
        finally:
            if tracer.active:
                tracer.flush()

    return entry


def _exit_on_term(signum, frame):
    raise SystemExit(0)


# ---------------------------------------------------------------------------
# reduction to the per-layer metrics
# ---------------------------------------------------------------------------

def _self_times(spans: List[Span]) -> Dict[str, float]:
    """Per span id: duration minus the time its direct children cover."""
    child_time: Dict[str, float] = defaultdict(float)
    for span_id, parent, _name, start, end, _tag, _ok in spans:
        if parent is not None:
            child_time[parent] += end - start
    return {
        span_id: max(0.0, (end - start) - child_time.get(span_id, 0.0))
        for span_id, _parent, _name, start, end, _tag, _ok in spans
    }


def layer_metrics(buffers: List[dict]) -> Dict[str, float]:
    """Reduce merged buffers to the per-layer metrics (see design.json)."""
    spans: List[tuple] = []  # (role, span...)
    counts: Counter = Counter()
    for buffer in buffers:
        buffer_spans = [tuple(span) for span in buffer["spans"]]
        self_time = _self_times(buffer_spans)
        for span in buffer_spans:
            spans.append((buffer["role"], self_time[span[0]]) + span)
        counts.update(buffer["counts"])

    by_name: Dict[str, list] = defaultdict(list)
    for entry in spans:
        by_name[entry[4]].append(entry)

    def self_s(name: str) -> float:
        return sum(entry[1] for entry in by_name[name])

    def total_s(name: str) -> float:
        return sum(entry[6] - entry[5] for entry in by_name[name])

    def calls(name: str) -> int:
        return len(by_name[name])

    def yield_of(name: str) -> float:
        made = calls(name)
        return sum(1 for entry in by_name[name] if entry[8]) / made if made else 0.0

    # queue.fleet_s: per coordinator run, execute_queued entry to the
    # first claim attempt any process made inside it.
    claim_starts = sorted(entry[5] for entry in by_name["queue.claim"])
    fleet = 0.0
    for entry in by_name["queue.execute"]:
        start, end = entry[5], entry[6]
        first = next((t for t in claim_starts if start <= t <= end), None)
        if first is not None:
            fleet += first - start
    # queue.wait_s: per task claimed, task creation to its claim.
    created = {entry[7]: entry[6] for entry in by_name["queue.create"]}
    wait = sum(
        entry[5] - created[entry[7]]
        for entry in by_name["queue.claim"]
        if entry[8] and entry[7] in created
    )
    # service.queued_s: submit_sweep to the dispatcher's Client.submit.
    submitted = {
        entry[7]: entry[5] for entry in by_name["service.submit"]
        if entry[0] == "server"
    }
    queued = sum(
        entry[5] - submitted[entry[7]]
        for entry in by_name["api.submit"]
        if entry[0] == "server" and entry[7] in submitted
    )
    execute = sum(
        entry[6] - entry[5] for entry in by_name["api.result"]
        if entry[0] == "server"
    )
    gets = calls("cache.get")

    return {
        "registry.build_s": self_s("registry.build"),
        "registry.build_calls": calls("registry.build"),
        "registry.seed_s": self_s("registry.seed"),
        "registry.seed_total_s": total_s("registry.seed"),
        "registry.seed_calls": calls("registry.seed"),
        "registry.reduce_s": self_s("registry.reduce"),
        "core.select_s": self_s("core.select"),
        "core.select_calls": calls("core.select"),
        "core.score_calls": counts["core.score_calls"],
        "core.update_s": self_s("core.update"),
        "core.update_calls": calls("core.update"),
        "core.factors_built": counts["core.factors_built"],
        "core.find_trustees_s": self_s("core.find_trustees"),
        "core.find_trustees_calls": calls("core.find_trustees"),
        "socialnet.bfs_s": self_s("socialnet.bfs"),
        "socialnet.clustering_s": self_s("socialnet.clustering"),
        "socialnet.generate_s": self_s("socialnet.generate"),
        "socialnet.neighbors_calls": counts["socialnet.neighbors_calls"],
        "cache.get_s": self_s("cache.get"),
        "cache.get_calls": gets,
        "cache.hit_ratio": yield_of("cache.get") if gets else 0.0,
        "cache.put_s": self_s("cache.put"),
        "cache.put_calls": calls("cache.put"),
        "queue.create_s": self_s("queue.create"),
        "queue.claim_s": self_s("queue.claim"),
        "queue.claim_calls": calls("queue.claim"),
        "queue.claim_yield": yield_of("queue.claim"),
        "queue.heartbeat_s": self_s("queue.heartbeat"),
        "queue.heartbeat_calls": calls("queue.heartbeat"),
        "queue.done_s": self_s("queue.done"),
        "queue.done_calls": calls("queue.done"),
        "queue.collect_s": self_s("queue.collect"),
        "queue.fleet_s": fleet,
        "queue.wait_s": wait,
        "http.submit_s": self_s("http.submit"),
        "http.wait_s": self_s("http.wait"),
        "service.queued_s": queued,
        "service.execute_s": execute,
        "export.payload_s": self_s("export.payload"),
        "persist.journal_s": self_s("persist.journal"),
        "persist.journal_calls": calls("persist.journal"),
        "persist.claim_s": self_s("persist.claim"),
        "persist.claim_yield": yield_of("persist.claim"),
        "persist.result_s": self_s("persist.result"),
    }
