"""The four benchmark workloads and their output checks.

Every workload runs units in a closed loop until its time is up (or, for
the self-tests, for a fixed number of units) and returns a
:class:`Phase`.  Inputs come only from the workload seed; the program
sees the generated scenario seeds and job sequence, never the seed
itself.

* ``delegation`` — fig13-delegation (facebook, ``second`` strategy,
  :data:`DELEGATION_ITERATIONS` iterations), one seed per unit,
  sequential in-process, no cache.
* ``graph-search`` — fig9-transitivity, fig12-overhead and
  table1-connectivity at full scale on facebook; one round runs all
  three on one scenario seed, sequential in-process, no cache.
* ``sweep-runtime`` — one caller runs ``Client.run`` with a distributed
  two-worker profile over :data:`SWEEP_SEEDS`-seed fig7-mutuality smoke
  sweeps, each on fresh seeds into a fresh cache.
* ``service`` — the same runtime behind HTTP: a forked ``JobServer``
  (state dir, fresh cache, distributed two-worker profile, one
  dispatcher) and one closed-loop caller of ``RemoteClient.run`` on
  :data:`SWEEP_SEEDS`-seed fig7-mutuality smoke sweeps; one job in
  :data:`REPLAY_EVERY` replays a spec the server has already cached, the
  rest compute fresh seeds.

Only the program's call is timed; the digest or fingerprint of its
output is taken outside the unit's time.  :func:`check_outputs` then
compares them, after the timed phase and with tracing off: kernel
results against digests committed in ``digests.json``, sweep and job
results against the sequential no-cache oracle.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import multiprocessing
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import speed

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

DELEGATION_SCENARIO = "fig13-delegation"
DELEGATION_ITERATIONS = 100
DELEGATION_POOL = 120
GRAPH_SCENARIOS = ("fig9-transitivity", "fig12-overhead", "table1-connectivity")
GRAPH_POOL = 48
SWEEP_SCENARIO = "fig7-mutuality"
SWEEP_SEEDS = 32
REPLAY_POOL = 2
REPLAY_EVERY = 5
SETUP_SAMPLES = 11
# Workloads whose units are pure in-process interpretation: their
# times track the machine speed, so they are scaled to the reference
# speed (speed.py) and their deadline runs on scaled time.  The
# runtime workloads spend their time in queue polls, process start-up
# and file I/O; scaling them made their spread worse, so they report
# raw wall-clock time.
SCALED = ("delegation", "graph-search")


@dataclass
class Phase:
    """What one measured phase produced.

    ``factors[i]`` is the machine-speed factor (see ``speed.py``) around
    unit ``i``; ``wall`` excludes the time spent calibrating and
    digesting outputs, and ``scaled_wall`` is ``wall`` at the reference
    speed.  ``outputs`` holds what :func:`check_outputs` compares, one
    entry per unit.
    """

    latencies: List[float] = field(default_factory=list)
    factors: List[float] = field(default_factory=list)
    wall: float = 0.0
    scaled_wall: float = 0.0
    attempted: int = 0
    failed: int = 0
    seeds_ok: int = 0
    cache_errors: int = 0
    steals: int = 0
    requeues: int = 0
    jobs: int = 0
    requests: int = 0
    outputs: list = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def seeds_per_s(self) -> float:
        return self.seeds_ok / self.wall if self.wall > 0 else 0.0

    @property
    def scaled_seeds_per_s(self) -> float:
        return self.seeds_ok / self.scaled_wall if self.scaled_wall > 0 else 0.0

    @property
    def scaled_latencies(self) -> List[float]:
        return [t / f for t, f in zip(self.latencies, self.factors)]

    def close_single_caller(self, wall: float) -> None:
        """Set the walls of a one-caller loop: unit time scales per unit,
        the loop's own overhead by the mean factor."""
        busy = sum(self.latencies)
        self.wall = wall
        self.scaled_wall = sum(self.scaled_latencies) + max(
            wall - busy, 0.0) / statistics.fmean(self.factors)


def single_caller(ctx: "Context", phase: Phase, rounds: Iterator[list],
                  run_unit: Callable, record: Callable, scale: bool) -> None:
    """Closed loop with one caller.

    Takes rounds of units from ``rounds`` while time (or the unit
    budget) is left; a round always runs whole.  Only ``run_unit(unit)``
    is timed; ``record(unit, output)`` keeps what the check needs,
    outside the unit's time and the phase's wall.  With ``scale`` the
    machine speed is calibrated between units (also outside) and the
    time left is counted in scaled seconds, so a run covers about the
    same units however fast the machine runs.
    """
    before = speed.calibrate() if scale else None
    harness = 0.0
    started = time.perf_counter()

    def elapsed() -> float:
        if scale:
            return sum(phase.scaled_latencies)
        return time.perf_counter() - started - harness

    while ctx.keep_going(elapsed(), len(phase.latencies)):
        for unit in next(rounds):
            unit_start = time.perf_counter()
            output = run_unit(unit)
            unit_end = time.perf_counter()
            phase.latencies.append(unit_end - unit_start)
            record(unit, output)
            if scale:
                after = speed.calibrate()
                phase.factors.append(speed.factor(before, after))
                before = after
            else:
                phase.factors.append(1.0)
            harness += time.perf_counter() - unit_end
    phase.close_single_caller(time.perf_counter() - started - harness)


@dataclass
class Context:
    """One benchmark run's settings and scratch space."""

    seed: int
    seconds: float
    work_dir: Path
    units: Optional[int] = None  # fixed unit count instead of a deadline
    tracer: object = None
    _dirs: int = 0

    def fresh_dir(self, name: str) -> Path:
        self._dirs += 1
        path = self.work_dir / f"{name}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def keep_going(self, elapsed: float, done: int) -> bool:
        if self.units is not None:
            return done < self.units
        return elapsed < self.seconds


def set_tracing(ctx: Context, on: bool) -> None:
    if ctx.tracer is not None:
        ctx.tracer.active = on


def digest(result) -> str:
    """Stable digest of one native per-seed result.

    The experiments' results are dataclasses (or dicts of them) of
    strings, ints, floats and tuples, whose ``repr`` is exact and
    deterministic.
    """
    return hashlib.sha256(repr(result).encode()).hexdigest()[:16]


def fingerprint(sweep) -> str:
    """Digest of a sweep's seeds, per-seed results and failed seeds."""
    from repro.simulation.cache import reduced_to_payload

    text = json.dumps([
        list(sweep.seeds),
        [reduced_to_payload(result) for result in sweep.per_seed],
        list(sweep.failed_seeds),
    ], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def setup_samples(workload: str, ctx: "Context") -> List[Tuple[float, float]]:
    """:data:`SETUP_SAMPLES` set-up times as ``(seconds, speed factor)``
    pairs; the factor is 1 on workloads whose times are not scaled.

    A set-up is a fresh process from interpreter start to ``ready``
    (:func:`probe`), or on the service a forked server from fork until
    it answers a health check.
    """
    if workload == "service":
        samples = []
        for _ in range(SETUP_SAMPLES):
            server = Server(ctx)
            server.stop()
            samples.append((server.setup_s, 1.0))
        return samples
    scale = workload in SCALED
    samples = []
    before = speed.calibrate() if scale else None
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--probe", workload],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
        finally:
            child.stdout.close()
            child.wait()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe for {workload} failed")
        if not scale:
            samples.append((elapsed, 1.0))
            continue
        after = speed.calibrate()
        samples.append((elapsed, speed.factor(before, after)))
        before = after
    return samples


# ---------------------------------------------------------------------------
# kernel workloads: delegation, graph-search
# ---------------------------------------------------------------------------

# Per kernel workload: the scenarios a round runs, with their parameter
# overrides, and the pool of scenario seeds digests.json covers.
KERNELS = {
    "delegation": (
        {DELEGATION_SCENARIO: {"iterations": DELEGATION_ITERATIONS}},
        DELEGATION_POOL,
    ),
    "graph-search": ({name: {} for name in GRAPH_SCENARIOS}, GRAPH_POOL),
}


def _kernel_rounds(workload: str, seed: int) -> Iterator[List[tuple]]:
    """Endless seeded rounds of ``(scenario, overrides, scenario seed)``."""
    scenarios, pool_size = KERNELS[workload]
    pool = list(range(1, pool_size + 1))
    random.Random(seed).shuffle(pool)
    while True:
        for scenario_seed in pool:
            yield [
                (name, overrides, scenario_seed)
                for name, overrides in scenarios.items()
            ]


def kernel_setup(workload: str) -> None:
    """Import the program and build the arena(s) the units run on."""
    from repro.simulation import registry

    for name, overrides in KERNELS[workload][0].items():
        registry.get(name).build_once(**overrides)


def kernel_phase(workload: str, ctx: Context, seed_offset: int = 0) -> Phase:
    """Units are ``ScenarioSpec.run_full`` calls; the digest of the whole
    native result (not only its reduction, which drops e.g. the
    diameter) is kept for :func:`check_outputs`."""
    from repro.simulation import registry

    phase = Phase()

    def run_unit(unit):
        name, overrides, scenario_seed = unit
        return registry.get(name).run_full(scenario_seed, **overrides)

    def record(unit, result) -> None:
        name, _, scenario_seed = unit
        phase.outputs.append((name, scenario_seed, digest(result)))

    single_caller(
        ctx, phase, _kernel_rounds(workload, ctx.seed + seed_offset),
        run_unit, record, scale=True,
    )
    set_tracing(ctx, False)
    return phase


def _check_digests(workload: str, phase: Phase) -> None:
    """Compare each kernel unit's digest with digests.json."""
    expected = json.loads(DIGESTS.read_text())[workload]["digests"]
    for name, scenario_seed, got in phase.outputs:
        phase.attempted += 1
        if got == expected[name][str(scenario_seed)]:
            phase.seeds_ok += 1
        else:
            phase.failed += 1
            phase.notes.append(f"{name} seed {scenario_seed}: digest mismatch")


def make_digests() -> Dict[str, object]:
    """Recompute every committed digest with the sequential oracle."""
    from repro.simulation import registry

    out: Dict[str, object] = {}
    for workload, (scenarios, pool_size) in KERNELS.items():
        specs = {name: registry.get(name) for name in scenarios}
        out[workload] = {
            "params": {
                name: dict(specs[name].params_key(**overrides))
                for name, overrides in scenarios.items()
            },
            "digests": {
                name: {
                    str(seed): digest(specs[name].run_full(seed, **overrides))
                    for seed in range(1, pool_size + 1)
                }
                for name, overrides in scenarios.items()
            },
        }
    return out


# ---------------------------------------------------------------------------
# sweep-runtime
# ---------------------------------------------------------------------------

def sweep_setup() -> None:
    from repro.api import Client, ExecutionProfile

    Client(ExecutionProfile(backend="distributed", workers=2, no_cache=True))


def _oracle_fingerprint(spec) -> str:
    from repro.api import Client, ExecutionProfile

    return fingerprint(
        Client(ExecutionProfile(workers=1, no_cache=True)).run(spec)
    )


def sequential_oracle(specs) -> Dict[object, str]:
    """The :func:`fingerprint` of the sequential no-cache run of every
    distinct spec.

    Computed in a forked child, so the arenas it builds stay out of
    this process and out of the fleets and servers it forks later.
    """
    distinct = list(dict.fromkeys(specs))
    with multiprocessing.get_context("fork").Pool(2) as pool:
        results = pool.map(_oracle_fingerprint, distinct)
    return dict(zip(distinct, results))


def _check_against_oracle(phase: Phase) -> None:
    """Compare each unit's ``(spec, fingerprint or None)`` with the
    oracle; count failed units."""
    runs = phase.outputs
    oracle = sequential_oracle(spec for spec, got in runs if got is not None)
    for spec, got in runs:
        phase.attempted += 1
        if got is not None and got == oracle[spec]:
            phase.seeds_ok += len(spec.seeds)
        else:
            phase.failed += 1
            if got is not None:
                phase.notes.append(
                    f"{spec.scenario} {spec.seeds[0]}..: differs from oracle"
                )


def _runtime_phase(ctx: Context, run: Callable, jobs: Iterator[list]) -> Phase:
    """One caller runs ``run(spec)`` for each job; the fingerprint of
    each result is kept for :func:`check_outputs`."""
    phase = Phase()

    def run_unit(spec):
        try:
            return run(spec)
        except Exception as error:  # HTTP error or failed sweep: counted
            phase.notes.append(f"sweep failed: {error!r}")
            return None

    def record(spec, sweep) -> None:
        phase.outputs.append(
            (spec, fingerprint(sweep) if sweep is not None else None)
        )
        if sweep is not None:
            phase.cache_errors += sweep.cache_errors
            phase.steals += sweep.steals
            phase.requeues += sweep.requeues

    single_caller(ctx, phase, jobs, run_unit, record, scale=False)
    set_tracing(ctx, False)
    phase.jobs = len(phase.outputs)
    return phase


def _sweep_spec(first: int):
    from repro.api import SweepSpec

    return SweepSpec(
        SWEEP_SCENARIO, range(first, first + SWEEP_SEEDS), smoke=True,
    )


def sweep_phase(ctx: Context, seed_offset: int = 0) -> Phase:
    from repro.api import Client, ExecutionProfile

    client = Client(ExecutionProfile(
        backend="distributed", workers=2,
        cache_dir=str(ctx.fresh_dir("sweep-cache")),
    ))
    base = random.Random(ctx.seed + seed_offset).randrange(1, 1 << 30)
    jobs = (
        [_sweep_spec(base + index * SWEEP_SEEDS)]
        for index in itertools.count()
    )
    return _runtime_phase(ctx, client.run, jobs)


# ---------------------------------------------------------------------------
# service
# ---------------------------------------------------------------------------

def _serve(state_dir: str, cache_dir: str, conn, tracer) -> None:
    """The forked server process: serve until told to stop.

    Messages on ``conn``: ``"trace"`` starts recording spans (after the
    replay pool is warm), ``"stop"`` (or the parent going away) closes
    the server, which then writes its spans if it recorded any.
    """
    from repro.api import ExecutionProfile
    from repro.service import JobServer

    if tracer is not None:
        tracer.role = "server"
    server = JobServer(
        ExecutionProfile(backend="distributed", workers=2, cache_dir=cache_dir),
        state_dir=state_dir,
    ).start()
    conn.send(server.url)
    try:
        while True:
            message = conn.recv()
            if message == "trace" and tracer is not None:
                tracer.reset()
                tracer.active = True
                conn.send("tracing")
            elif message == "stop":
                break
    except EOFError:
        pass
    finally:
        server.close()
        if tracer is not None and tracer.active:
            tracer.flush()


class Server:
    """A forked ``JobServer`` and the pipe that drives it."""

    def __init__(self, ctx: Context) -> None:
        from repro.service import RemoteClient

        self.conn, child_conn = multiprocessing.Pipe()
        self.process = multiprocessing.get_context("fork").Process(
            target=_serve,
            args=(str(ctx.fresh_dir("state")), str(ctx.fresh_dir("cache")),
                  child_conn, ctx.tracer),
        )
        start = time.perf_counter()
        self.process.start()
        child_conn.close()
        if not self.conn.poll(60):
            self.stop()
            raise RuntimeError("job server did not start")
        self.url = self.conn.recv()
        RemoteClient(self.url).health()
        self.setup_s = time.perf_counter() - start

    def trace(self) -> None:
        self.conn.send("trace")
        self.conn.recv()

    def stop(self) -> None:
        try:
            self.conn.send("stop")
        except OSError:
            pass
        self.process.join(30)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(10)
        self.conn.close()


def _job_sequence(seed: int) -> Tuple[list, Iterator[list]]:
    """The warm pool and the seeded job order: in every block of
    REPLAY_EVERY jobs one replays a pool spec, the rest use fresh seeds."""
    rng = random.Random(seed)
    base = rng.randrange(1, 1 << 30)
    pool = [_sweep_spec(base + index * SWEEP_SEEDS)
            for index in range(REPLAY_POOL)]

    def jobs() -> Iterator[list]:
        fresh = REPLAY_POOL
        while True:
            block = [True] + [False] * (REPLAY_EVERY - 1)
            rng.shuffle(block)
            for replay in block:
                if replay:
                    yield [rng.choice(pool)]
                else:
                    yield [_sweep_spec(base + fresh * SWEEP_SEEDS)]
                    fresh += 1

    return pool, jobs()


def service_phase(
    ctx: Context, server: Server, seed_offset: int = 0,
    traced: bool = False,
) -> Phase:
    """One closed-loop caller.  With two, behind the server's one
    dispatcher each latency is the sum of two jobs (a multi-modal mix
    whose median moved 20% run to run); with two dispatchers two fleets
    contend for the two cores."""
    from repro.service import RemoteClient

    pool, jobs = _job_sequence(ctx.seed + seed_offset)
    remote = RemoteClient(server.url)
    for spec in pool:
        remote.run(spec)
    if traced:
        server.trace()
        set_tracing(ctx, True)
    warm_requests = remote.requests_sent
    phase = _runtime_phase(ctx, remote.run, jobs)
    phase.requests = remote.requests_sent - warm_requests
    return phase


WORKLOADS = ("delegation", "graph-search", "sweep-runtime", "service")


def probe(workload: str) -> None:
    """The set-up a fresh workload process does before its first unit."""
    if workload in ("delegation", "graph-search"):
        kernel_setup(workload)
    elif workload == "sweep-runtime":
        sweep_setup()
    else:
        raise ValueError(f"no set-up probe for {workload}")


def check_outputs(workload: str, phase: Phase) -> None:
    """Count each unit of ``phase`` as correct or failed."""
    if workload in KERNELS:
        _check_digests(workload, phase)
    else:
        _check_against_oracle(phase)


def phase_runner(workload: str) -> Callable:
    if workload in ("delegation", "graph-search"):
        return lambda ctx, offset=0: kernel_phase(workload, ctx, offset)
    if workload == "sweep-runtime":
        return sweep_phase
    raise ValueError(workload)

