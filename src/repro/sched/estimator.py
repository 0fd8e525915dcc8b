"""Per-sweep cost estimation from runtime telemetry and priors.

A campaign is a list of sweeps with wildly different per-seed costs
(``table1-connectivity`` runs ~20x longer than ``fig8-inference``).
To order the queue long-pole-first the planner needs a cost number per
sweep *before* anything runs.  Three sources, best first:

1. **Observed** — per-seed wall times recorded by earlier executions:
   either passed in directly (``SweepResult.seed_runtimes``) or read
   from the persistent cache's entry metadata for this exact
   ``(scenario, params, seed, code_version)`` key set.
2. **Probe** — optionally, time one real seed and extrapolate.  Exact
   for homogeneous sweeps, but costs one seed of latency up front.
3. **Prior** — a small measured table of seconds-per-seed by scenario
   family, with linear workload scaling on known size parameters
   (``runs``, ``iterations``).  Coarse, but ordering-accurate: the
   planner only needs relative magnitudes, not wall-clock precision.

Estimates are *advisory*: they steer task order and chunk shape, never
what any seed computes — a wrong estimate costs makespan, not results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Mapping, Optional, Sequence, Tuple

Params = Tuple[Tuple[str, object], ...]

# Seconds per seed by scenario family (the name up to the first "-"),
# measured on the smoke configurations of the reference machine.  The
# absolute numbers drift with hardware; the ~100x spread between
# families is structural (population size x rounds x estimator math),
# which is all long-pole ordering needs.
_FAMILY_PRIORS: Dict[str, float] = {
    "table1": 0.037,
    "table2": 0.11,
    "fig7": 0.015,
    "fig8": 0.002,
    "fig9": 0.10,
    "fig12": 0.11,
    "fig13": 0.08,
    "fig14": 0.04,
    "fig15": 0.001,
    "fig16": 0.01,
    "eq24": 0.003,
    "ablation": 0.06,
}
_DEFAULT_PRIOR = 0.05

# Parameters that scale work linearly, with the value the family prior
# was measured at.  A sweep overriding ``runs=800`` on a family
# measured at ``runs=1`` costs ~800x the prior — the estimate scales
# with it so a parameter override cannot hide a long pole.
_WORKLOAD_PARAMS: Dict[str, float] = {
    "runs": 1.0,
    "iterations": 100.0,
    "rounds": 40.0,
}


@dataclass(frozen=True)
class CostEstimate:
    """Estimated cost of one sweep.

    ``source`` records provenance: ``"observed"`` (telemetry covered
    every seed), ``"mixed"`` (telemetry for some seeds, priors for the
    rest), ``"probe"`` (one timed seed extrapolated), ``"prior"``
    (family table only).
    """

    scenario: str
    seeds: int
    seconds_per_seed: float
    source: str
    observed_seeds: int = 0

    @property
    def total_seconds(self) -> float:
        return self.seconds_per_seed * self.seeds


def prior_seconds_per_seed(scenario: str, params: Params = ()) -> float:
    """Family-table prior for one seed of ``scenario`` under ``params``."""
    family = scenario.split("-", 1)[0]
    base = _FAMILY_PRIORS.get(family, _DEFAULT_PRIOR)
    scale = 1.0
    for key, value in params or ():
        reference = _WORKLOAD_PARAMS.get(str(key))
        if reference is None:
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        if value > 0:
            scale *= float(value) / reference
    return base * scale


def observed_runtimes(
    cache, scenario: str, params: Params, seeds: Sequence[int],
) -> Dict[int, float]:
    """Per-seed runtimes the cache has recorded for this exact work.

    Only entries keyed by the *current* code version count — a source
    edit invalidates the cache, and with it the telemetry.  Lookups go
    through the cache's own stats-free path would be ideal; they do
    bump hit/miss counters, so callers estimating against a live
    sweep's cache instance should pass a fresh one.
    """
    from repro.simulation.cache import SweepCache

    runtimes: Dict[int, float] = {}
    keys = SweepCache.keys_for(scenario, tuple(params), seeds)
    for seed, key in keys.items():
        entry = cache.get_entry(key)
        if entry is None:
            continue
        _, runtime = entry
        if runtime is not None:
            runtimes[seed] = runtime
    return runtimes


def estimate_sweep_cost(
    scenario: str,
    params: Params,
    seeds: Sequence[int],
    cache=None,
    runtimes: Optional[Mapping[int, float]] = None,
    probe: Optional[Callable[[str, Params], float]] = None,
) -> CostEstimate:
    """Estimate one sweep's cost, preferring telemetry over priors.

    ``runtimes`` is a ready-made per-seed map (e.g. a previous
    ``SweepResult.seed_runtimes``); ``cache`` is a ``SweepCache`` to
    mine for entry metadata; ``probe`` is called as
    ``probe(scenario, params) -> seconds`` only when nothing was
    observed.  Seeds without telemetry are costed at the family prior.
    """
    seed_list = list(seeds)
    count = len(seed_list)
    prior = prior_seconds_per_seed(scenario, params)
    if count == 0:
        return CostEstimate(scenario, 0, prior, "prior")

    known: Dict[int, float] = {}
    if runtimes:
        for seed, runtime in runtimes.items():
            try:
                value = float(runtime)
            except (TypeError, ValueError):
                continue
            if value >= 0 and int(seed) in seed_list:
                known[int(seed)] = value
    if cache is not None:
        missing = [s for s in seed_list if s not in known]
        if missing:
            known.update(observed_runtimes(cache, scenario, params, missing))

    if known:
        observed_mean = sum(known.values()) / len(known)
        if len(known) == count:
            return CostEstimate(scenario, count, observed_mean,
                                "observed", observed_seeds=count)
        # Cover the unobserved seeds with the observed mean rather than
        # the prior: same machine, same code, same params — the sweep's
        # own telemetry is the better predictor of its other seeds.
        return CostEstimate(scenario, count, observed_mean, "mixed",
                            observed_seeds=len(known))

    if probe is not None:
        measured = float(probe(scenario, tuple(params)))
        if measured >= 0:
            return CostEstimate(scenario, count, measured, "probe",
                                observed_seeds=1)
    return CostEstimate(scenario, count, prior, "prior")


def estimate_campaign(
    jobs: Iterable[Tuple[str, Params, Sequence[int]]],
    cache=None,
) -> Tuple[CostEstimate, ...]:
    """Cost every ``(scenario, params, seeds)`` job of a campaign."""
    return tuple(
        estimate_sweep_cost(scenario, params, seeds, cache=cache)
        for scenario, params, seeds in jobs
    )
