"""Fig. 15 simulation: trustworthiness under a dynamic environment
(Section 5.7).

A single trustor–trustee pair; the trustee's actual competence on the task
is 0.8.  The environment follows the paper's schedule — 100 iterations at
E = 1.0, 100 at E = 0.4, 100 at E = 0.7 — and the *observed* outcome of
each delegation is Bernoulli in ``0.8 * min(E_X, E_Y)``.

Three expected-success-rate trackers are compared, each updated with
forgetting factor β = 0.1 and averaged over 100 independent runs:

* ``no-environment-influence`` — control: outcomes unaffected by the
  environment (converges to the actual 0.8);
* ``traditional`` — outcomes affected, raw observations fed to Eq. 19
  (shows error and delay around each environment step);
* ``proposed`` — outcomes affected, observations de-biased by r(·) of
  Eq. 29 before Eq. 25 (tracks the actual competence through the steps).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.environment import (
    EnvironmentReading,
    EnvironmentSchedule,
    cannikin_debias,
)
from repro.core.ids import resolve_compute
from repro.core.update import forget
from repro.simulation.config import EnvironmentConfig
from repro.simulation.results import SeriesResult
from repro.simulation.rng import spawn


@dataclass
class EnvironmentTrackingResult:
    """The three Fig. 15 curves plus the ground-truth effective rate."""

    no_influence: SeriesResult
    traditional: SeriesResult
    proposed: SeriesResult
    effective_rate: SeriesResult

    def curves(self) -> Dict[str, SeriesResult]:
        return {
            "without environment influence": self.no_influence,
            "affected - traditional method": self.traditional,
            "affected - proposed method": self.proposed,
            "effective success rate": self.effective_rate,
        }


class EnvironmentSimulation:
    """Runs the Section 5.7 tracking experiment.

    ``compute="vectorized"`` runs the same experiment through the numpy
    kernels (:mod:`repro.core.kernels`): per run, all Bernoulli draws
    are generated as one block from the replicated Mersenne Twister
    stream and compared/de-biased as vectors, with only the inherently
    sequential Eq. 19 recurrence left as a scalar scan.  Results are
    bit-identical to the python backend; on a numpy-less host the switch
    silently falls back to python.
    """

    def __init__(
        self,
        config: EnvironmentConfig = EnvironmentConfig(),
        seed: int = 0,
        compute: str = "python",
    ) -> None:
        self.config = config
        self.seed = seed
        self.schedule = EnvironmentSchedule(config.schedule)
        self.compute = resolve_compute(compute)

    def run(self) -> EnvironmentTrackingResult:
        """Average the three trackers over ``config.runs`` runs."""
        if self.compute == "vectorized":
            sums = self._tracker_sums_vectorized()
        else:
            sums = self._tracker_sums_python()
        return self._assemble(sums)

    def _tracker_sums_python(self) -> Dict[str, list]:
        """The sequential oracle: one scalar draw/update per iteration."""
        iterations = self.schedule.total_iterations
        sums = {
            "no_influence": [0.0] * iterations,
            "traditional": [0.0] * iterations,
            "proposed": [0.0] * iterations,
        }
        actual = self.config.actual_success_rate
        beta = self.config.beta

        for run_index in range(self.config.runs):
            rng = spawn(self.seed, "environment", run_index)
            # The paper initializes the expected success rate to 1.
            est_no_influence = 1.0
            est_traditional = 1.0
            est_proposed = 1.0
            for iteration in range(iterations):
                level = self.schedule.level_at(iteration)
                reading = EnvironmentReading(
                    trustor_env=level, trustee_env=level
                )

                # Control: environment does not affect the outcome.
                clean = 1.0 if rng.random() < actual else 0.0
                est_no_influence = forget(est_no_influence, clean, beta)

                # Affected: outcome degraded by the worst environment.
                affected = (
                    1.0 if rng.random() < actual * reading.worst() else 0.0
                )
                est_traditional = forget(est_traditional, affected, beta)
                est_proposed = min(1.0, forget(
                    est_proposed, cannikin_debias(affected, reading), beta
                ))

                sums["no_influence"][iteration] += est_no_influence
                sums["traditional"][iteration] += est_traditional
                sums["proposed"][iteration] += est_proposed
        return sums

    def _tracker_sums_vectorized(self) -> Dict[str, list]:
        """Block draws + vector de-bias; only the Eq. 19 scan is scalar.

        Per run the two interleaved Bernoulli streams (clean, affected)
        come from one ``DrawStream.block`` — the exact doubles the
        oracle's alternating ``rng.random()`` calls produce — and the
        threshold comparison, the Cannikin de-bias and the cross-run
        accumulation are all elementwise vector ops with the oracle's
        expression trees.
        """
        import numpy as np

        from repro.core.ids import validate_probability
        from repro.core.kernels import bernoulli_block, borrow_stream
        from repro.simulation.rng import spawn_key

        iterations = self.schedule.total_iterations
        actual = self.config.actual_success_rate
        beta = self.config.beta
        validate_probability(beta, "forgetting factor beta")
        weight = 1.0 - beta
        levels = np.array(self.schedule.levels())
        affected_threshold = actual * levels
        totals = {
            name: np.zeros(iterations)
            for name in ("no_influence", "traditional", "proposed")
        }
        for run_index in range(self.config.runs):
            stream = borrow_stream(
                spawn_key(self.seed, "environment", run_index)
            )
            draws = stream.block(2 * iterations)
            clean_obs = bernoulli_block(draws[0::2], actual)
            affected_obs = bernoulli_block(draws[1::2], affected_threshold)
            # cannikin_debias: observed / worst-level, floored at 0.
            debiased = np.where(
                affected_obs > 0.0, affected_obs / levels, 0.0
            )
            # One fused Eq. 19 scan for the three trackers (the
            # recurrence is the only inherently sequential piece; see
            # kernels.forget_scan for the single-tracker form).
            est_none = est_trad = est_prop = 1.0
            run_none, run_trad, run_prop = [], [], []
            for clean, affected, debias in zip(
                clean_obs.tolist(), affected_obs.tolist(), debiased.tolist()
            ):
                est_none = beta * est_none + weight * clean
                run_none.append(est_none)
                est_trad = beta * est_trad + weight * affected
                run_trad.append(est_trad)
                blended = beta * est_prop + weight * debias
                est_prop = blended if blended < 1.0 else 1.0  # min(1.0, ·)
                run_prop.append(est_prop)
            totals["no_influence"] += np.array(run_none)
            totals["traditional"] += np.array(run_trad)
            totals["proposed"] += np.array(run_prop)
        return {name: series.tolist() for name, series in totals.items()}

    def _assemble(self, sums: Dict[str, list]) -> EnvironmentTrackingResult:
        actual = self.config.actual_success_rate
        runs = self.config.runs
        result = EnvironmentTrackingResult(
            no_influence=SeriesResult(
                "without environment influence",
                [value / runs for value in sums["no_influence"]],
            ),
            traditional=SeriesResult(
                "affected - traditional method",
                [value / runs for value in sums["traditional"]],
            ),
            proposed=SeriesResult(
                "affected - proposed method",
                [value / runs for value in sums["proposed"]],
            ),
            effective_rate=SeriesResult(
                "effective success rate",
                [actual * level for level in self.schedule.levels()],
            ),
        )
        return result

    def tracking_errors(
        self, result: EnvironmentTrackingResult
    ) -> Dict[str, float]:
        """Mean absolute error of each tracker against the actual 0.8.

        The proposed tracker estimates intrinsic competence, so both it
        and the control are scored against ``actual``; the traditional
        tracker is scored against the same target to quantify exactly the
        error-and-delay the paper annotates in Fig. 15.
        """
        actual = self.config.actual_success_rate
        errors: Dict[str, float] = {}
        for name, series in (
            ("no_influence", result.no_influence),
            ("traditional", result.traditional),
            ("proposed", result.proposed),
        ):
            values = series.values
            errors[name] = sum(
                abs(value - actual) for value in values
            ) / len(values)
        return errors
