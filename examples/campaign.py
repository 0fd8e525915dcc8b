"""Campaign quickstart: a regression campaign through the job API.

Describes a small campaign with :class:`repro.api.SweepSpec` (what to
run) and :class:`repro.api.ExecutionProfile` (how to run it), submits
it non-blockingly through :class:`repro.api.Client`, and collects the
per-scenario exports — the programmatic equivalent of::

    repro campaign manifest.json --out-dir exports/

Run:  python examples/campaign.py
"""

import tempfile
from pathlib import Path

from repro.api import Client, ExecutionProfile, SweepSpec


def main() -> None:
    # 1. What to run: three of the paper's scenarios, CI-sized (smoke)
    #    parameters, three seeds each.  Specs are frozen, validated and
    #    JSON-serializable — spec.to_json() is a campaign manifest line.
    specs = [
        SweepSpec("fig7-mutuality", seeds=[1, 2, 3], smoke=True),
        SweepSpec("fig15-environment", seeds=[1, 2, 3], smoke=True),
        SweepSpec(
            "fig7-mutuality", seeds=[1, 2, 3], smoke=True,
            overrides={"threshold": 0.6},
        ),
    ]

    # 2. How to run it: two worker processes, private cache.  Swap in
    #    backend="distributed" + queue_dir=... and the same campaign
    #    multiplexes over a shared `repro worker` fleet instead.
    work_dir = Path(tempfile.mkdtemp(prefix="repro-campaign-"))
    profile = ExecutionProfile(
        workers=2, cache_dir=str(work_dir / "cache"),
    )

    # 3. Submit and watch.  submit_campaign returns immediately; the
    #    handle exposes status()/progress()/wait()/result()/cancel().
    client = Client(profile)
    handle = client.submit_campaign(specs)
    print(f"submitted {len(specs)} sweeps; status={handle.status()}")
    handle.wait()
    completed, total = handle.progress()
    print(f"campaign finished: {completed}/{total} sweeps")

    # 4. Collect.  Results are bit-identical to per-scenario
    #    execute_sweep calls; write_exports drops one standard sweep
    #    export per spec (repeats get #2/#3-suffixed labels).
    result = handle.result()
    for label, sweep in result.by_label().items():
        timing = sweep.timing
        print(
            f"  {label:<22} {timing.seeds} seeds in "
            f"{timing.wall_seconds:.2f}s "
            f"({sweep.cache_hits} cache hit(s))"
        )
    paths = result.write_exports(work_dir / "exports")
    print(f"exports: {len(paths)} file(s) under {work_dir / 'exports'}")


if __name__ == "__main__":
    main()
