"""The sequential-vs-parallel equivalence suite (the PR's headline).

For **every registered scenario**, the sweep runtime must return
*bit-identical* results to the sequential oracle — same per-seed values,
same mean — for any worker count, any backend, any ``chunk_size``, and
whether the seeds were computed cold or replayed from the persistent
result cache.  Equality is asserted with ``==`` on the result
dataclasses, i.e. exact float comparison: every path shares the
reduction code and the per-seed runs are deterministic, so there is no
tolerance to hide behind.
"""

import os
import time

import pytest

from repro.api import ExecutionProfile, SweepSpec
from repro.simulation import registry
from repro.simulation.parallel import ParallelRunner
from repro.simulation.runner import average_rates, average_series
from repro.simulation.sweep import (
    execute_campaign,
    execute_sweep,
    seed_range,
)

SEEDS = [11, 12, 13]

# The oracle is deterministic, so each (scenario, seeds) pair is computed
# once and shared by every comparison in this module.
_ORACLE_MEMO = {}


def _sequential_average(spec, seeds):
    key = (spec.name, tuple(seeds))
    if key not in _ORACLE_MEMO:
        run = spec.bound(smoke=True)
        if spec.kind == "rates":
            _ORACLE_MEMO[key] = average_rates(run, seeds)
        else:
            _ORACLE_MEMO[key] = average_series(run, seeds)
    return _ORACLE_MEMO[key]


def _parallel_average(spec, seeds, workers, backend, chunk_size=None):
    run = spec.bound(smoke=True)
    runner = ParallelRunner(workers=workers, backend=backend,
                            chunk_size=chunk_size)
    if spec.kind == "rates":
        return runner.average_rates(run, seeds)
    return runner.average_series(run, seeds)


@pytest.mark.parametrize("name", registry.names())
class TestEveryScenario:
    def test_thread_pool_identical_to_sequential(self, name):
        spec = registry.get(name)
        sequential = _sequential_average(spec, SEEDS)
        parallel = _parallel_average(spec, SEEDS, workers=3, backend="thread")
        assert sequential == parallel

    def test_one_worker_identical_to_sequential(self, name):
        spec = registry.get(name)
        sequential = _sequential_average(spec, SEEDS)
        one_worker = _parallel_average(spec, SEEDS, workers=1, backend="process")
        assert sequential == one_worker

    @pytest.mark.parametrize("chunk_size", [1, 2, len(SEEDS) + 1])
    def test_any_chunk_size_identical_to_sequential(self, name, chunk_size):
        spec = registry.get(name)
        sequential = _sequential_average(spec, SEEDS)
        chunked = _parallel_average(
            spec, SEEDS, workers=3, backend="thread", chunk_size=chunk_size
        )
        assert sequential == chunked

    @pytest.mark.parametrize("workers", [1, 3])
    def test_distributed_identical_to_sequential(
        self, name, workers, tmp_path
    ):
        """The shared-directory work queue inherits the bit-identity
        contract: seq == parallel == distributed, for 1 and 3 local
        worker daemons, for every registered scenario."""
        spec = registry.get(name)
        sequential = _sequential_average(spec, SEEDS)
        sweep = execute_sweep(
            SweepSpec(name, SEEDS, smoke=True),
            ExecutionProfile(
                workers=workers, backend="distributed",
                cache_dir=tmp_path / "cache", queue_dir=tmp_path / "queue",
            ),
        )
        assert sweep.mean == sequential
        assert sweep.timing.backend == "distributed"
        assert sweep.timing.workers == workers
        assert sweep.tasks_total >= 1
        # A healthy run recovers nothing: no steals, no requeues.
        assert sweep.steals == 0
        assert sweep.requeues == 0

    def test_warm_cache_rerun_identical(self, name, tmp_path):
        spec = registry.get(name)
        cold = execute_sweep(
            SweepSpec(name, SEEDS, smoke=True),
            ExecutionProfile(workers=1, cache_dir=tmp_path),
        )
        warm = execute_sweep(
            SweepSpec(name, SEEDS, smoke=True),
            ExecutionProfile(workers=1, cache_dir=tmp_path),
        )
        assert warm.cache_hits == len(SEEDS)
        assert warm.per_seed == cold.per_seed
        assert warm.variance == cold.variance
        # ...and both match the uncached sequential oracle, bit for bit.
        assert warm.mean == cold.mean == _sequential_average(spec, SEEDS)


class TestProcessPool:
    """Process-pool equivalence incl. the 8-seed / 4-worker criterion."""

    def test_eight_seeds_four_workers_identical(self):
        seeds = seed_range(8)
        sequential = execute_sweep(
            SweepSpec("fig15-environment", seeds, smoke=True),
            ExecutionProfile(workers=1, no_cache=True),
        )
        parallel = execute_sweep(
            SweepSpec("fig15-environment", seeds, smoke=True),
            ExecutionProfile(workers=4, backend="process", no_cache=True),
        )
        assert parallel.per_seed == sequential.per_seed
        assert parallel.mean == sequential.mean
        assert parallel.variance == sequential.variance
        assert parallel.timing.workers == 4
        assert parallel.timing.backend == "process"
        assert parallel.timing.wall_seconds > 0.0
        assert sequential.timing.backend == "sequential"

    def test_process_pool_identical_on_a_graph_scenario(self):
        spec = registry.get("fig7-mutuality")
        sequential = _sequential_average(spec, SEEDS)
        parallel = _parallel_average(spec, SEEDS, workers=3, backend="process")
        assert sequential == parallel

    @pytest.mark.parametrize("chunk_size", [2, 3])
    def test_chunked_process_pool_identical(self, chunk_size):
        seeds = seed_range(8)
        sequential = execute_sweep(
            SweepSpec("fig15-environment", seeds, smoke=True),
            ExecutionProfile(workers=1, no_cache=True),
        )
        chunked = execute_sweep(
            SweepSpec("fig15-environment", seeds, smoke=True),
            ExecutionProfile(
                workers=4, backend="process", chunk_size=chunk_size,
                no_cache=True,
            ),
        )
        assert chunked.per_seed == sequential.per_seed
        assert chunked.mean == sequential.mean
        assert chunked.timing.chunk_size == chunk_size
        assert chunked.timing.backend == "process"


class TestCostSchedule:
    """The cost scheduler and autoscaler inherit the bit-identity
    contract: ``schedule="cost"`` reorders the queue and reshapes the
    chunks, autoscaling varies the fleet — neither may change a single
    bit of any result, and a healthy run still steals nothing."""

    @pytest.mark.parametrize("autoscale", [False, True])
    def test_cost_schedule_identical_to_sequential(
        self, autoscale, tmp_path
    ):
        spec = registry.get("fig7-mutuality")
        sequential = _sequential_average(spec, SEEDS)
        profile = ExecutionProfile(
            workers=2, backend="distributed",
            queue_dir=str(tmp_path / "queue"),
            cache_dir=str(tmp_path / "cache"),
            schedule="cost", autoscale=autoscale,
            max_workers=3 if autoscale else None,
        )
        sweep = execute_sweep(
            SweepSpec("fig7-mutuality", seeds=SEEDS, smoke=True), profile
        )
        assert sweep.mean == sequential
        assert sweep.steals == 0
        assert sweep.requeues == 0

    def test_cost_campaign_identical_per_sweep(self, tmp_path):
        """A mixed-cost campaign under cost scheduling + autoscaling:
        every sweep's mean matches its own sequential oracle."""
        names = ["fig15-environment", "fig7-mutuality", "fig8-inference"]
        profile = ExecutionProfile(
            workers=2, backend="distributed",
            queue_dir=str(tmp_path / "queue"),
            cache_dir=str(tmp_path / "cache"),
            schedule="cost", autoscale=True,
            min_workers=1, max_workers=3,
        )
        results = execute_campaign(
            [SweepSpec(name, seeds=SEEDS, smoke=True) for name in names],
            profile,
        )
        for name, result in zip(names, results):
            assert result.mean == _sequential_average(
                registry.get(name), SEEDS
            )
            assert result.steals == 0
            assert result.requeues == 0


@pytest.mark.slow
@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2 or bool(os.environ.get("CI")),
    reason="wall-clock speedup needs >1 CPU and a quiet machine "
           "(shared CI runners make timing assertions flaky)",
)
def test_parallel_measurably_faster_on_multicore():
    """8 seeds / 4 workers beat the sequential run on real hardware.

    Per-seed work is padded to ~0.2 s so pool startup cannot dominate;
    the 1.3x bar is deliberately conservative for a 4-way fan-out.
    """
    seeds = seed_range(8)
    overrides = {"iterations": 400, "network": "twitter"}

    start = time.perf_counter()
    sequential = execute_sweep(
        SweepSpec("fig13-delegation", seeds, smoke=True, overrides=overrides),
        ExecutionProfile(workers=1, no_cache=True),
    )
    sequential_wall = time.perf_counter() - start

    parallel = execute_sweep(
        SweepSpec("fig13-delegation", seeds, smoke=True, overrides=overrides),
        ExecutionProfile(workers=4, backend="process", no_cache=True),
    )

    assert parallel.mean == sequential.mean
    assert parallel.timing.wall_seconds < sequential_wall / 1.3
