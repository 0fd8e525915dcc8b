"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload delegation --seed 1 --seconds 20 --trace 0

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.

``--trace 0`` measures the end-to-end metrics with tracing off.  On
delegation and graph-search every time, and the ``--seconds`` deadline,
is in seconds scaled to a reference machine speed (``speed.py``); the
raw values are printed and recorded next to them.
``--trace 1`` runs the workload twice for half the time each, traced
(spans and counts around every ``repro`` layer, see ``tracer.py``) and
untraced, and reports the per-layer metrics plus the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it print every metric by name and unit.  The exit code is non-zero when
any output differs from the oracle.

Other modes: ``--units N`` runs exactly N units instead of a deadline
(the self-tests use it); ``--record FILE`` appends the full run record
as one JSON line (``suite.py`` reads these); ``--make-digests``
recomputes ``digests.json`` with the sequential oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "seeds_per_s": "seeds/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
}


def _config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _per_layer_units() -> dict:
    return {entry["name"]: entry["unit"] for entry in _config()["per_layer"]}


def _use_checkout() -> None:
    """Import ``repro`` from this checkout's sources, or fail."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"perfbench: no repro sources under {ROOT / 'src'}; run from "
            f"the root of a full checkout\n"
        )
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))


def _peak_rss_mb() -> tuple:
    """Peak RSS of this process and of its largest waited-for child
    (or grandchild), in MB.  Read before the oracle or any set-up probe
    runs, so the only children are the program's: fleet workers and the
    job server."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, child / 1024.0


def _measure(workload: str, ctx, seconds: float, offset: int,
             traced: bool, server=None):
    ctx.seconds = seconds
    if workload == "service":
        return workloads.service_phase(ctx, server, offset, traced=traced)
    workloads.set_tracing(ctx, traced)
    return workloads.phase_runner(workload)(ctx, offset)


def run_end_to_end(workload: str, ctx) -> dict:
    """One measured phase with tracing off, then the output check, then
    several set-ups."""
    server = None
    if workload == "service":
        server = workloads.Server(ctx)
    elif workload in ("delegation", "graph-search"):
        workloads.kernel_setup(workload)
    try:
        phase = _measure(workload, ctx, ctx.seconds, 0, False, server)
    finally:
        if server is not None:
            server.stop()
    rss_own, rss_child = _peak_rss_mb()
    workloads.check_outputs(workload, phase)
    setup = workloads.setup_samples(workload, ctx)
    latencies = phase.scaled_latencies
    tail, percentile, count = stats.tail(latencies)
    metrics = {
        "setup_s": statistics.median(t / f for t, f in setup),
        "seeds_per_s": phase.scaled_seeds_per_s,
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
        "peak_rss_mb": rss_own + rss_child,
    }
    extra = {
        "peak_rss_own_mb": rss_own,
        "peak_rss_largest_child_mb": rss_child,
        "setup_samples": setup,
        "tail_percentile": percentile,
        "latency_samples": count,
        "error_rate": phase.failed / max(phase.attempted, 1),
        "steals": phase.steals,
        "requeues": phase.requeues,
    }
    if workload in workloads.SCALED:
        extra["speed_factor"] = statistics.median(phase.factors)
        extra["raw"] = {
            "setup_s": statistics.median(t for t, _ in setup),
            "seeds_per_s": phase.seeds_per_s,
            "latency_p50_s": statistics.median(phase.latencies),
            "latency_tail_s": stats.tail(phase.latencies)[0],
        }
    return {
        "metrics": metrics,
        "units": END_TO_END_UNITS,
        "phase": phase,
        "extra": extra,
    }


def isolation_checks(workload: str, layers: dict) -> dict:
    """Does the workload isolate the layers it was chosen for?"""
    seed_total = layers["registry.seed_total_s"] or float("inf")
    delegation_share = (
        layers["core.select_s"] + layers["core.update_s"]) / seed_total
    search_share = (
        layers["core.find_trustees_s"] + layers["socialnet.bfs_s"]
    ) / seed_total
    queue = any(layers[name] for name in layers if name.startswith("queue."))
    service = any(
        layers[name] for name in layers
        if name.startswith(("persist.", "http."))
    )
    checks = {
        "queue only on sweep-runtime and service": queue == (
            workload in ("sweep-runtime", "service")),
        "persist/http only on service": service == (workload == "service"),
    }
    if workload == "delegation":
        checks["select+update most of seed"] = delegation_share > 0.5
        checks["find_trustees+bfs near 0"] = search_share < 0.05
    if workload == "graph-search":
        checks["find_trustees+bfs most of seed"] = search_share > 0.5
        checks["select+update near 0"] = delegation_share < 0.05
    return {
        "checks": checks,
        "select_update_share": delegation_share,
        "find_trustees_bfs_share": search_share,
    }


def run_traced(workload: str, ctx) -> dict:
    """A traced half then an untraced half; per-layer metrics."""
    import tracer as tracing

    half = ctx.seconds / 2.0
    ctx.tracer = tracing.Tracer(ctx.work_dir / "trace")
    tracing.install(ctx.tracer)
    server = None
    if workload == "service":
        server = workloads.Server(ctx)
    elif workload in ("delegation", "graph-search"):
        ctx.tracer.active = True
        workloads.kernel_setup(workload)
    try:
        traced = _measure(workload, ctx, half, 0, True, server)
    finally:
        if server is not None:
            server.stop()
    workloads.check_outputs(workload, traced)
    buffers = ctx.tracer.collect()
    ctx.tracer.uninstall()
    layers = tracing.layer_metrics(buffers)
    layers["cache.errors"] = traced.cache_errors
    layers["queue.steals"] = traced.steals
    layers["queue.requeues"] = traced.requeues
    layers["http.requests_per_job"] = (
        traced.requests / traced.jobs if traced.jobs else 0.0
    )
    layers["trace.units"] = len(traced.latencies)

    server = None
    if workload == "service":
        server = workloads.Server(ctx)
    try:
        untraced = _measure(workload, ctx, half, 1, False, server)
    finally:
        if server is not None:
            server.stop()
    workloads.check_outputs(workload, untraced)
    layers["trace.overhead_seeds_per_s"] = (
        traced.scaled_seeds_per_s - untraced.scaled_seeds_per_s
    )
    units = _per_layer_units()
    phase = workloads.Phase(
        attempted=traced.attempted + untraced.attempted,
        failed=traced.failed + untraced.failed,
        notes=traced.notes + untraced.notes,
    )
    return {
        "metrics": {name: layers[name] for name in units},
        "units": units,
        "phase": phase,
        "extra": {
            "isolation": isolation_checks(workload, layers),
            "traced_seeds_per_s": traced.scaled_seeds_per_s,
            "untraced_seeds_per_s": untraced.scaled_seeds_per_s,
        },
    }


def _print_report(workload: str, outcome: dict) -> None:
    extra = outcome["extra"]
    for name, value in outcome["metrics"].items():
        line = f"{workload:14s} {name:30s} {value:14.6g} {outcome['units'][name]}"
        if name == "latency_tail_s":
            line += (f"  (p{extra['tail_percentile']:.1f} of "
                     f"{extra['latency_samples']} samples)")
        if name == "peak_rss_mb":
            line += (f"  (this process {extra['peak_rss_own_mb']:.1f} + "
                     f"largest child {extra['peak_rss_largest_child_mb']:.1f})")
        print(line)
    for name, value in extra.get("raw", {}).items():
        print(f"{workload:14s} {'raw ' + name:30s} {value:14.6g} "
              f"{outcome['units'][name]}  (unscaled, speed factor "
              f"{extra['speed_factor']:.3f})")
    if "error_rate" in extra:
        print(f"{workload:14s} {'error_rate':30s} {extra['error_rate']:14.6g} ratio")
    isolation = extra.get("isolation")
    if isolation:
        for check, passed in isolation["checks"].items():
            print(f"{workload:14s} isolation: {check}: "
                  f"{'ok' if passed else 'FAILED'}")
    for note in outcome["phase"].notes[:20]:
        print(f"{workload:14s} note: {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--units", type=int, default=None)
    parser.add_argument("--record", default=None)
    parser.add_argument("--probe", choices=workloads.WORKLOADS)
    parser.add_argument("--make-digests", action="store_true")
    args = parser.parse_args(argv)

    _use_checkout()
    if args.probe:
        workloads.probe(args.probe)
        print("ready", flush=True)
        return 0
    if args.make_digests:
        workloads.DIGESTS.write_text(
            json.dumps(workloads.make_digests(), indent=1, sort_keys=True)
            + "\n"
        )
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = float(_config()["run_seconds"])

    work_root = ROOT / ".perfbench_work"
    work_dir = work_root / f"{os.getpid()}-{time.time_ns()}"
    (work_dir / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(work_dir / "tmp")
    tempfile.tempdir = str(work_dir / "tmp")
    ctx = workloads.Context(
        seed=args.seed, seconds=args.seconds, work_dir=work_dir,
        units=args.units,
    )
    try:
        if args.trace:
            outcome = run_traced(args.workload, ctx)
        else:
            outcome = run_end_to_end(args.workload, ctx)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    phase = outcome["phase"]
    correct = phase.failed == 0 and phase.attempted > 0
    _print_report(args.workload, outcome)
    if args.record:
        record = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "correct": correct, "attempted": phase.attempted,
            "failed": phase.failed, "metrics": outcome["metrics"],
            "extra": outcome["extra"],
        }
        with open(args.record, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {
            name: {"value": value, "unit": outcome["units"][name]}
            for name, value in outcome["metrics"].items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
