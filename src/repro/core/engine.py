"""Delegation engine: one full pass of the trust process (Fig. 1 / Fig. 2).

A delegation round runs the complete causal chain the paper insists trust
is — not a static score, but *pre-evaluate → decide → act → exploit result
→ post-evaluate*:

1. the trustor pre-evaluates candidates (direct experience, or inference
   via :class:`~repro.core.inference.CharacteristicInferrer`);
2. candidates reverse-evaluate the trustor (Eq. 1) and may refuse;
3. the chosen trustee acts; the result may deviate from expectation;
4. both sides post-evaluate: the trustor folds the outcome into its
   expected factors (Eq. 19–22, optionally environment-de-biased), the
   trustee logs how its resources were used.
"""

from __future__ import annotations

import enum
import random
import weakref
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.agent import TrusteeAgent, TrustorAgent
from repro.core.environment import EnvironmentAwareUpdater, EnvironmentReading
from repro.core.evaluation import ReverseEvaluator
from repro.core.ids import NodeId, resolve_compute
from repro.core.inference import CharacteristicInferrer, InferenceError
from repro.core.policy import NetProfitPolicy, SelectionPolicy
from repro.core.records import DelegationRecord, OutcomeFactors, UsageRecord
from repro.core.task import Task


class DelegationStatus(enum.Enum):
    """Terminal states of one delegation request."""

    SUCCESS = "success"
    FAILURE = "failure"
    UNAVAILABLE = "unavailable"


@dataclass(frozen=True)
class DelegationOutcome:
    """Everything observable about one completed delegation round."""

    status: DelegationStatus
    trustor: NodeId
    task: Task
    trustee: Optional[NodeId] = None
    abusive: bool = False
    gain: float = 0.0
    damage: float = 0.0
    cost: float = 0.0
    rejections: int = 0

    @property
    def answered(self) -> bool:
        """Whether any trustee accepted the request."""
        return self.status is not DelegationStatus.UNAVAILABLE

    def net_profit(self) -> float:
        """Realized net profit of this round."""
        return self.gain - self.damage - self.cost


def _config_fingerprint(obj: object) -> Tuple:
    """A value-based identity for a policy/inferrer configuration.

    Captures the concrete type plus every attribute's ``repr``, so a
    *swap* to an equal-valued object keeps the cache warm while an
    **in-place mutation** of the same object (legal on non-frozen
    policies) invalidates it — comparing by ``is`` missed exactly that
    case and served rankings scored under the old configuration.
    """
    if obj is None:
        return (None,)
    state = getattr(obj, "__dict__", None)
    if state is None:  # __slots__ objects: fall back to their repr
        return (type(obj), repr(obj))
    return (
        type(obj),
        tuple(sorted(
            (name, repr(value)) for name, value in state.items()
        )),
    )


class _StoreCache:
    """Memoized pre-evaluation state derived from one trust store.

    Valid only while the store's write counter stands still *and* the
    engine's policy/inferrer still fingerprint the way they did when the
    cache was filled (:func:`_config_fingerprint` — value-based, so
    in-place reconfiguration invalidates too); the engine drops the
    whole cache the moment any of those move, so a stale entry can never
    outlive the write (or reconfiguration) that would change it.  Tasks
    key by the full ``Task`` value — name, characteristics and weights —
    because the inference path depends on more than the name.
    """

    __slots__ = ("version", "policy_print", "inferrer_print", "factors",
                 "rankings")

    def __init__(
        self, version: int, policy_print: Tuple, inferrer_print: Tuple
    ) -> None:
        self.version = version
        self.policy_print = policy_print
        self.inferrer_print = inferrer_print
        # (trustee, task) -> OutcomeFactors
        self.factors: Dict[Tuple[NodeId, Task], OutcomeFactors] = {}
        # (task, candidate ids) -> [(trustee id, score), ...]
        self.rankings: Dict[
            Tuple[Task, Tuple[NodeId, ...]], List[Tuple[NodeId, float]]
        ] = {}


@dataclass
class DelegationEngine:
    """Coordinates trustor/trustee agents through delegation rounds.

    Parameters
    ----------
    policy:
        How the trustor ranks candidates (default: Eq. 23 net profit).
    reverse_evaluator:
        The trustee-side gate of Eq. 1.  Individual trustees can override
        the threshold per task via their ``thresholds`` map.
    inferrer:
        When set, trustors with no direct experience of a task infer its
        trustworthiness from analogous tasks (Section 4.2).  When ``None``
        unseen tasks fall back to the store's optimistic initial factors —
        the "without proposed model" baseline.
    environment_updater:
        When set, post-evaluation de-biases observations by the supplied
        :class:`EnvironmentReading` (Section 4.5).
    """

    policy: SelectionPolicy = field(default_factory=NetProfitPolicy)
    reverse_evaluator: ReverseEvaluator = field(default_factory=ReverseEvaluator)
    inferrer: Optional[CharacteristicInferrer] = None
    environment_updater: Optional[EnvironmentAwareUpdater] = None
    rng: random.Random = field(default_factory=random.Random)
    # Candidate-ranking fast path: pre-evaluation is pure in the trustor's
    # store, so results are memoized per store and invalidated by the
    # store's write counter.  ``memoize=False`` restores the always-
    # recompute behavior (the oracle the cache tests compare against).
    memoize: bool = True
    # Scoring backend for rank_candidates: "vectorized" scores candidate
    # columns through repro.core.kernels (bit-identical; falls back to
    # python for custom policies or numpy-less hosts).
    compute: str = "python"
    _caches: "weakref.WeakKeyDictionary" = field(
        default_factory=weakref.WeakKeyDictionary, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.compute = resolve_compute(self.compute)

    def _cache_for(self, trustor: TrustorAgent) -> _StoreCache:
        """The trustor's memo, reset on store writes or reconfiguration."""
        store = trustor.store
        cache = self._caches.get(store)
        policy_print = _config_fingerprint(self.policy)
        inferrer_print = _config_fingerprint(self.inferrer)
        if (
            cache is None
            or cache.version != store.version
            or cache.policy_print != policy_print
            or cache.inferrer_print != inferrer_print
        ):
            cache = _StoreCache(store.version, policy_print, inferrer_print)
            self._caches[store] = cache
        return cache

    # ------------------------------------------------------------------
    # pre-evaluation
    # ------------------------------------------------------------------
    def expected_factors(
        self, trustor: TrustorAgent, trustee: TrusteeAgent, task: Task
    ) -> OutcomeFactors:
        """The trustor's expectation toward one candidate for ``task``.

        Memoized per (trustee, task) until the trustor's store is written
        (see ``memoize``); the underlying computation is deterministic in
        the store state, so the cache is observationally transparent.
        """
        if not self.memoize:
            return self._compute_expected_factors(trustor, trustee, task)
        cache = self._cache_for(trustor)
        key = (trustee.node_id, task)
        hit = cache.factors.get(key)
        if hit is None:
            hit = self._compute_expected_factors(trustor, trustee, task)
            cache.factors[key] = hit
        return hit

    def _compute_expected_factors(
        self, trustor: TrustorAgent, trustee: TrusteeAgent, task: Task
    ) -> OutcomeFactors:
        """The uncached expectation computation.

        Direct experience wins; otherwise, with an inferrer configured, the
        success-rate aspect is inferred from characteristic-sharing tasks
        (gain/damage/cost are averaged over the supporting tasks' stored
        expectations, weighted the same way the success rate is).
        """
        store = trustor.store
        if store.has_experience(trustee.node_id, task) or self.inferrer is None:
            return store.expected(trustee.node_id, task)

        experienced_tasks = store.experienced_tasks(trustee.node_id)
        experienced = [
            (exp_task, store.expected(trustee.node_id, exp_task).success_rate)
            for exp_task in experienced_tasks
        ]
        try:
            inferred_success = self.inferrer.infer(task, experienced)
        except InferenceError:
            return store.expected(trustee.node_id, task)

        # Stakes are inferred the same way: average over supporting tasks.
        if experienced_tasks:
            gain = sum(
                store.expected(trustee.node_id, t).gain for t in experienced_tasks
            ) / len(experienced_tasks)
            damage = sum(
                store.expected(trustee.node_id, t).damage
                for t in experienced_tasks
            ) / len(experienced_tasks)
            cost = sum(
                store.expected(trustee.node_id, t).cost for t in experienced_tasks
            ) / len(experienced_tasks)
        else:  # pragma: no cover - inference already failed in this case
            gain = damage = cost = 0.0
        return OutcomeFactors(
            success_rate=inferred_success.value,
            gain=gain,
            damage=damage,
            cost=cost,
        )

    def rank_candidates(
        self,
        trustor: TrustorAgent,
        task: Task,
        candidates: Sequence[TrusteeAgent],
    ) -> List[Tuple[TrusteeAgent, float]]:
        """Candidates ordered by policy score, best first.

        The ranking for one (task, candidate list) is memoized against the
        trustor's store version: repeated rankings between store writes —
        batched pre-evaluation, multi-round probing — skip both the factor
        lookups and the sort.
        """
        if not self.memoize:
            return self._compute_ranking(trustor, task, candidates)
        cache = self._cache_for(trustor)
        key = (task, tuple(t.node_id for t in candidates))
        hit = cache.rankings.get(key)
        if hit is None:
            ranked = self._compute_ranking(trustor, task, candidates)
            cache.rankings[key] = [
                (trustee.node_id, score) for trustee, score in ranked
            ]
            return ranked
        # Rehydrate agent references from the caller's candidate list —
        # the cache stores ids only, so stale agent objects never leak.
        by_id = {trustee.node_id: trustee for trustee in candidates}
        return [(by_id[node_id], score) for node_id, score in hit]

    def _compute_ranking(
        self,
        trustor: TrustorAgent,
        task: Task,
        candidates: Sequence[TrusteeAgent],
    ) -> List[Tuple[TrusteeAgent, float]]:
        eligible = [
            trustee for trustee in candidates
            if trustee.node_id != trustor.node_id
        ]
        if self.compute == "vectorized" and len(eligible) > 1:
            from repro.core import kernels

            if kernels.HAVE_NUMPY:
                columns = kernels.factor_columns([
                    self.expected_factors(trustor, trustee, task)
                    for trustee in eligible
                ])
                scores = kernels.score_columns(self.policy, *columns)
                if scores is not None:
                    # Same stable sort over the same python floats as the
                    # scalar path — identical permutation, NaNs included.
                    scored = list(zip(eligible, scores.tolist()))
                    scored.sort(key=lambda pair: pair[1], reverse=True)
                    return scored
        scored = [
            (trustee, self.policy.score(self.expected_factors(trustor, trustee, task)))
            for trustee in eligible
        ]
        scored.sort(key=lambda pair: pair[1], reverse=True)
        return scored

    # ------------------------------------------------------------------
    # the full round
    # ------------------------------------------------------------------
    def delegate(
        self,
        trustor: TrustorAgent,
        task: Task,
        candidates: Sequence[TrusteeAgent],
        environment: Optional[EnvironmentReading] = None,
    ) -> DelegationOutcome:
        """Run one delegation round end to end.

        Walks the candidate ranking; each candidate reverse-evaluates the
        trustor against its own θ_y(τ) and may refuse (the Fig. 2 flow).
        The first acceptor executes the task; both sides post-evaluate.
        Returns UNAVAILABLE when every candidate refuses or none exists.
        """
        rejections = 0
        for trustee, _score in self.rank_candidates(trustor, task, candidates):
            reverse_ok = self._reverse_accepts(trustee, trustor, task)
            if not reverse_ok:
                rejections += 1
                continue
            return self._execute(
                trustor, trustee, task, environment, rejections
            )
        return DelegationOutcome(
            status=DelegationStatus.UNAVAILABLE,
            trustor=trustor.node_id,
            task=task,
            rejections=rejections,
        )

    def _reverse_accepts(
        self, trustee: TrusteeAgent, trustor: TrustorAgent, task: Task
    ) -> bool:
        """Eq. 1 gate with the trustee's per-task threshold."""
        gate = ReverseEvaluator(
            threshold=trustee.threshold_for(task),
            default_trust=self.reverse_evaluator.default_trust,
        )
        return gate.accepts(trustee.store, trustor.node_id)

    def _execute(
        self,
        trustor: TrustorAgent,
        trustee: TrusteeAgent,
        task: Task,
        environment: Optional[EnvironmentReading],
        rejections: int,
    ) -> DelegationOutcome:
        """Action + mutual post-evaluation."""
        result = trustee.perform(task, self.rng)

        # Trustor-side post-evaluation (Eq. 19-22 / 25-28).
        record = DelegationRecord(
            trustor=trustor.node_id,
            trustee=trustee.node_id,
            task_name=task.name,
            succeeded=result.succeeded,
            gain=result.gain,
            damage=result.damage,
            cost=result.cost,
            environment=environment.worst() if environment else None,
        )
        if self.environment_updater is not None and environment is not None:
            previous = trustor.store.expected(trustee.node_id, task)
            refreshed = self.environment_updater.update(
                previous, record.observed_factors(), environment
            )
            trustor.store.set_expected(trustee.node_id, task, refreshed)
        else:
            trustor.store.record_delegation(record, task)

        # Trustee-side post-evaluation: log how its resources were used.
        abusive = self._trustor_abuses(trustor)
        trustee.store.record_usage(
            UsageRecord(
                trustor=trustor.node_id,
                trustee=trustee.node_id,
                abusive=abusive,
            )
        )

        status = (
            DelegationStatus.SUCCESS if result.succeeded
            else DelegationStatus.FAILURE
        )
        return DelegationOutcome(
            status=status,
            trustor=trustor.node_id,
            task=task,
            trustee=trustee.node_id,
            abusive=abusive,
            gain=result.gain,
            damage=result.damage,
            cost=result.cost,
            rejections=rejections,
        )

    def _trustor_abuses(self, trustor: TrustorAgent) -> bool:
        """Sample whether the trustor abuses the granted resources."""
        return not trustor.behavior.uses_responsibly(self.rng)


def run_rounds(
    engine: DelegationEngine,
    pairs: Iterable[Tuple[TrustorAgent, Task, Sequence[TrusteeAgent]]],
    environment: Optional[EnvironmentReading] = None,
) -> List[DelegationOutcome]:
    """Run many delegation rounds and collect the outcomes."""
    return [
        engine.delegate(trustor, task, candidates, environment)
        for trustor, task, candidates in pairs
    ]
