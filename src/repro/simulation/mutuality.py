"""Fig. 7 simulation: mutuality of trustor and trustee (Section 5.3).

Each trustor carries a hidden responsibility value in [0, 1]; with that
probability it uses a granted resource legitimately.  Trustees log how
their resources were used (a warm-up phase populates the logs) and then
reverse-evaluate requesters: a delegation request is accepted only when
the requester's observed responsible-use fraction reaches the trustee's
threshold θ_y(τ) (Eq. 1).  θ = 0 disables the reverse evaluation — the
unilateral-evaluation baseline.

Reported rates match the paper's definitions:

* success rate     = successful delegations / all requests,
* unavailable rate = requests no trustee accepted / all requests,
* abuse rate       = abusive uses / all uses of trustee resources.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.ids import NodeId, resolve_compute
from repro.simulation.config import MutualityConfig
from repro.simulation.results import RateSummary
from repro.simulation.rng import spawn
from repro.simulation.scenario import Scenario, build_scenario
from repro.socialnet.graph import SocialGraph

_TASK_NAME = "resource-use"


@dataclass
class _UsageStats:
    """Running responsible/total counts about one trustor."""

    responsible: int = 0
    total: int = 0

    def record(self, responsible: bool) -> None:
        self.total += 1
        if responsible:
            self.responsible += 1

    def fraction(self) -> float:
        if self.total == 0:
            return 1.0  # strangers get the benefit of the doubt
        return self.responsible / self.total


@dataclass(frozen=True)
class MutualityResult:
    """One network × one threshold outcome."""

    network: str
    threshold: float
    rates: RateSummary


class MutualitySimulation:
    """Runs the Fig. 7 experiment over one network.

    Usage logs are shared between trustees ("gossip"): the paper's reverse
    evaluation reads the trustee's own log files, but in a short simulation
    any single trustee sees each trustor only a handful of times.  Sharing
    the statistics — equivalent to trustees exchanging recommendations
    about requesters — preserves the mechanism (the log-derived gate of
    Eq. 1) with enough samples for the threshold to bite.
    """

    def __init__(
        self,
        graph: SocialGraph,
        config: MutualityConfig = MutualityConfig(),
        seed: int = 0,
        compute: str = "python",
        hoods: Optional[Mapping[NodeId, Sequence[NodeId]]] = None,
    ) -> None:
        self.graph = graph
        self.config = config
        self.seed = seed
        self.scenario: Scenario = build_scenario(graph, seed, config.roles)
        self.compute = resolve_compute(compute)
        # Optional seed-independent columnar view from the scenario
        # arena: every node within ``candidate_hops`` of each node,
        # sorted.  Per-seed candidate lists then reduce to a filter by
        # the seed's trustee set instead of a BFS per trustor (the
        # result is identical — see ``_candidates_for``).
        self._hoods = hoods
        self._trustee_set = self.scenario.trustee_set

    # ------------------------------------------------------------------
    def _candidates_for(self, trustor: NodeId) -> List[NodeId]:
        """The trustor's candidate trustees, hood-accelerated when
        possible.

        ``trustee_neighbors`` sorts the trustees found within range;
        filtering the presorted hood by the trustee set preserves that
        order, so both paths return the same list.
        """
        if self._hoods is not None:
            trustee_set = self._trustee_set
            return [
                node for node in self._hoods[trustor]
                if node in trustee_set
            ]
        return self.scenario.trustee_neighbors(
            trustor, hops=self.config.candidate_hops
        )

    def _warmup(self, rng: random.Random, candidates_map):
        """Populate usage statistics with threshold-free interactions.

        With shared logs, one statistic per trustor; with private logs,
        one statistic per (trustee, trustor) pair, spread over the
        trustor's candidates.
        """
        shared: Dict[NodeId, _UsageStats] = defaultdict(_UsageStats)
        private: Dict[tuple, _UsageStats] = defaultdict(_UsageStats)
        for trustor in self.scenario.trustors:
            candidates = candidates_map[trustor]
            if not candidates:
                continue
            responsibility = self.scenario.responsibility[trustor]
            for _ in range(self.config.warmup_interactions):
                responsible = rng.random() < responsibility
                if self.config.shared_logs:
                    shared[trustor].record(responsible)
                else:
                    trustee = rng.choice(candidates)
                    private[(trustee, trustor)].record(responsible)
        return shared if self.config.shared_logs else private

    def _warmup_vectorized(self, candidates_map):
        """Shared-logs warm-up as one block of draws (bit-identical).

        The oracle draws ``warmup_interactions`` uniforms per trustor
        (sorted order) and counts ``draw < responsibility``; here the
        whole phase is one replicated-stream block and one vectorized
        comparison.  Returns the populated stats *and* a genuine
        ``random.Random`` continuing the exact stream for the measured
        phase (which needs ``choice``).
        """
        import numpy as np

        from repro.core.kernels import borrow_stream
        from repro.simulation.rng import spawn_key

        stream = borrow_stream(spawn_key(
            self.seed, "mutuality", self.graph.name, self.config.threshold
        ))
        interactions = self.config.warmup_interactions
        active = [
            trustor for trustor in self.scenario.trustors
            if candidates_map[trustor]
        ]
        stats: Dict[NodeId, _UsageStats] = defaultdict(_UsageStats)
        if active and interactions:
            draws = stream.block(interactions * len(active)).reshape(
                len(active), interactions
            )
            responsibility = np.array(
                [self.scenario.responsibility[t] for t in active]
            )
            responsible_counts = (
                draws < responsibility[:, None]
            ).sum(axis=1)
            for trustor, responsible in zip(
                active, responsible_counts.tolist()
            ):
                stats[trustor] = _UsageStats(
                    responsible=int(responsible), total=interactions
                )
        return stats, stream.to_python()

    def run(self) -> MutualityResult:
        """Run warm-up then the measured delegation phase."""
        candidates_map = {
            trustor: self._candidates_for(trustor)
            for trustor in self.scenario.trustors
        }
        if self.compute == "vectorized" and self.config.shared_logs:
            stats, rng = self._warmup_vectorized(candidates_map)
        else:
            rng = spawn(self.seed, "mutuality", self.graph.name,
                        self.config.threshold)
            stats = self._warmup(rng, candidates_map)

        requests = 0
        successes = 0
        unavailable = 0
        uses = 0
        abusive_uses = 0

        threshold = self.config.threshold
        for trustor in self.scenario.trustors:
            responsibility = self.scenario.responsibility[trustor]
            candidates = candidates_map[trustor]
            for _ in range(self.config.requests_per_trustor):
                requests += 1
                if not candidates:
                    unavailable += 1
                    continue
                if self.config.shared_logs:
                    # With shared usage statistics every candidate
                    # reaches the same verdict, so one gate decides the
                    # request (trustor-side ranking is exercised by the
                    # Fig. 13 simulation; this isolates the gate).
                    if stats[trustor].fraction() < threshold:
                        unavailable += 1
                        continue
                    accepted_by = rng.choice(candidates)
                else:
                    # Private logs: the trustor tries candidates in
                    # random order; each gates on its own history with
                    # this trustor (the paper's literal log files).
                    order = list(candidates)
                    rng.shuffle(order)
                    accepted_by = None
                    for trustee in order:
                        if stats[(trustee, trustor)].fraction() >= threshold:
                            accepted_by = trustee
                            break
                    if accepted_by is None:
                        unavailable += 1
                        continue

                # The trustee acts; the trustor uses the resource.
                competence = self.scenario.competence(accepted_by, _TASK_NAME)
                if rng.random() < competence:
                    successes += 1
                uses += 1
                responsible = rng.random() < responsibility
                if not responsible:
                    abusive_uses += 1
                if self.config.shared_logs:
                    stats[trustor].record(responsible)
                else:
                    stats[(accepted_by, trustor)].record(responsible)

        rates = RateSummary(
            success_rate=successes / requests if requests else 0.0,
            unavailable_rate=unavailable / requests if requests else 0.0,
            abuse_rate=abusive_uses / uses if uses else 0.0,
            total_requests=requests,
        )
        return MutualityResult(
            network=self.graph.name,
            threshold=threshold,
            rates=rates,
        )


def sweep_thresholds(
    graph: SocialGraph,
    thresholds: Tuple[float, ...] = (0.0, 0.3, 0.6),
    seed: int = 0,
    config: MutualityConfig = MutualityConfig(),
) -> List[MutualityResult]:
    """The Fig. 7 sweep: one result per threshold value."""
    results = []
    for threshold in thresholds:
        threshold_config = MutualityConfig(
            threshold=threshold,
            warmup_interactions=config.warmup_interactions,
            requests_per_trustor=config.requests_per_trustor,
            candidate_hops=config.candidate_hops,
            shared_logs=config.shared_logs,
            roles=config.roles,
        )
        results.append(
            MutualitySimulation(graph, threshold_config, seed).run()
        )
    return results
