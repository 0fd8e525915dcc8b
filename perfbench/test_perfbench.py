"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

They run each workload for a fixed number of units (``--units``), so
the input-determined counts must repeat exactly for one workload seed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
import suite  # noqa: E402

# Per workload: (units per half, counts that must repeat exactly and be
# non-zero).  Claims and heartbeats depend on timing and are only
# reported.
EXACT = {
    "delegation": (2, ["core.score_calls", "core.factors_built",
                       "socialnet.neighbors_calls", "registry.seed_calls"]),
    "graph-search": (3, ["socialnet.neighbors_calls", "registry.seed_calls",
                         "core.find_trustees_calls"]),
    "sweep-runtime": (2, ["registry.seed_calls", "cache.put_calls",
                          "queue.done_calls"]),
    "service": (10, ["registry.seed_calls", "cache.put_calls",
                     "persist.journal_calls"]),
}
ALWAYS_EXACT = (
    "core.score_calls", "core.factors_built", "socialnet.neighbors_calls",
    "registry.seed_calls", "cache.put_calls", "queue.done_calls",
    "persist.journal_calls",
)


def _run(workload: str, out: Path, trace: int, units: int, seed: int = 3):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), "--units", str(units),
         "--record", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    return json.loads(out.read_text().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(EXACT))
def test_traced_counts_repeat_and_layers_isolate(workload, tmp_path):
    units, nonzero = EXACT[workload]
    first = _run(workload, tmp_path / "a.jsonl", 1, units)
    second = _run(workload, tmp_path / "b.jsonl", 1, units)
    for name in ALWAYS_EXACT:
        if workload == "sweep-runtime" and name == "socialnet.neighbors_calls":
            continue  # which fleet worker builds an arena depends on timing
        assert first["metrics"][name] == second["metrics"][name], name
    for name in nonzero:
        assert first["metrics"][name] > 0, name
    assert first["correct"] and first["failed"] == 0
    checks = first["extra"]["isolation"]["checks"]
    assert all(checks.values()), checks


def test_end_to_end_metrics_and_units(tmp_path):
    record = _run("service", tmp_path / "e.jsonl", 0, 10)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(record["metrics"]) == {
        entry["name"] for entry in config["end_to_end"]
    }
    assert all(value > 0 for value in record["metrics"].values())
    assert record["attempted"] == 10 and record["failed"] == 0


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "delegation",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_tail_is_the_highest_ladder_percentile_with_ten_beyond():
    samples = [float(x) for x in range(1, 101)]
    assert stats.tail(samples) == (90.0, 90.0, 100)
    assert stats.tail(samples[:99]) == (75.0, 75.0, 99)
    value, percentile, count = stats.tail([float(x) for x in range(1, 5001)])
    assert (value, percentile, count) == (4950.0, 99.0, 5000)
    assert stats.tail([1.0, 2.0, 3.0])[1] == 50.0


def test_compare_marks_noisy_metrics_unresolved(tmp_path, capsys):
    def record(seed, latency):
        return {
            "workload": "delegation", "seed": seed, "trace": 0,
            "correct": True, "attempted": 1, "failed": 0,
            "metrics": {"seeds_per_s": 2.0 + seed * 1e-3,
                        "latency_p50_s": latency},
        }

    steady = [record(seed, 0.5) for seed in range(1, 6)]
    noisy = [record(seed, 0.5 * seed) for seed in range(1, 6)]
    previous = tmp_path / "previous.jsonl"
    current = tmp_path / "current.jsonl"
    previous.write_text("".join(json.dumps(r) + "\n" for r in steady))
    current.write_text("".join(json.dumps(r) + "\n" for r in noisy))
    assert suite.main(["--load", str(current), "--compare", str(previous)]) == 0
    lines = {
        line.split()[1]: line for line in capsys.readouterr().out.splitlines()
        if line.startswith("delegation")
    }
    assert "unresolved" in lines["latency_p50_s"]
    assert "unresolved" not in lines["seeds_per_s"]
    assert stats.bootstrap_median_ci([1.0, 2.0, 3.0]) == \
        stats.bootstrap_median_ci([1.0, 2.0, 3.0])
