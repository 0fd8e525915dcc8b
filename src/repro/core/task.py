"""Tasks and task characteristics (Section 4.2 of the paper).

A task is not an opaque label: it is a bundle of *characteristics*
``{a_j(tau)}`` with per-characteristic weights.  This is what enables the
inferential transfer of trust — the trustworthiness of a task never seen
before can be assembled from the trustworthiness of its characteristics
observed in other tasks (Eq. 2–4), and it is what the restricted
transitivity schemes reason about (Eq. 8 and Eq. 12).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

Characteristic = str


def _normalized_weights(
    characteristics: Tuple[Characteristic, ...],
    weights: Optional[Mapping[Characteristic, float]],
) -> Dict[Characteristic, float]:
    """Build a weight map over ``characteristics`` that sums to 1."""
    if not characteristics:
        return {}
    if weights is None:
        uniform = 1.0 / len(characteristics)
        return {ch: uniform for ch in characteristics}

    missing = [ch for ch in characteristics if ch not in weights]
    if missing:
        raise ValueError(f"weights missing for characteristics: {missing}")
    extra = [ch for ch in weights if ch not in characteristics]
    if extra:
        raise ValueError(f"weights given for unknown characteristics: {extra}")

    raw = {ch: float(weights[ch]) for ch in characteristics}
    if any(w < 0.0 for w in raw.values()):
        raise ValueError("characteristic weights must be non-negative")
    total = sum(raw.values())
    if total <= 0.0:
        raise ValueError("characteristic weights must not all be zero")
    return {ch: w / total for ch, w in raw.items()}


@dataclass(frozen=True)
class Task:
    """An immutable task: a name plus weighted characteristics.

    Parameters
    ----------
    name:
        Task identifier, e.g. ``"real-time-traffic"``.
    characteristics:
        The characteristics composing the task, e.g.
        ``("gps", "image")``.  Order does not matter; duplicates are
        rejected.
    weights:
        Optional per-characteristic importance ``w_i(tau)``.  Normalized to
        sum to 1; uniform if omitted.
    """

    name: str
    characteristics: FrozenSet[Characteristic] = field(default_factory=frozenset)
    weights: Tuple[Tuple[Characteristic, float], ...] = field(default=())

    def __init__(
        self,
        name: str,
        characteristics: Iterable[Characteristic] = (),
        weights: Optional[Mapping[Characteristic, float]] = None,
    ) -> None:
        chars = tuple(characteristics)
        if len(chars) != len(set(chars)):
            raise ValueError(f"duplicate characteristics in task {name!r}: {chars}")
        weight_map = _normalized_weights(chars, weights)
        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "characteristics", frozenset(chars))
        object.__setattr__(
            self, "weights", tuple(sorted(weight_map.items()))
        )
        # Not a field: eq, hash and repr see only the three above.
        object.__setattr__(self, "_weight_lookup", dict(self.weights))

    @property
    def weight_map(self) -> Dict[Characteristic, float]:
        """Normalized weight of each characteristic (sums to 1)."""
        return dict(self.weights)

    def weight_of(self, characteristic: Characteristic) -> float:
        """Weight ``w_i(tau)`` of one characteristic (0 if absent)."""
        return self._weight_lookup.get(characteristic, 0.0)

    def is_subset_of(self, others: Iterable["Task"]) -> bool:
        """True when every characteristic appears in the union of ``others``.

        This is the aggressive-transitivity admission test (Eq. 12):
        ``{a(tau'')} ⊆ {a(tau)} ∪ {a(tau')}``.
        """
        pool: set = set()
        for task in others:
            pool.update(task.characteristics)
        return self.characteristics <= pool

    def is_within_intersection(self, first: "Task", second: "Task") -> bool:
        """Conservative-transitivity admission test (Eq. 8).

        True when every characteristic appears in *both* experienced tasks:
        ``{a(tau'')} ⊆ {a(tau)} ∩ {a(tau')}``.
        """
        return self.characteristics <= (
            first.characteristics & second.characteristics
        )

    def shares_characteristic(self, other: "Task") -> bool:
        """True when the two tasks have at least one common characteristic."""
        return bool(self.characteristics & other.characteristics)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        chars = ",".join(sorted(self.characteristics))
        return f"Task({self.name!r}, {{{chars}}})"


def recommendation_of(task: Task) -> Task:
    """The recommendation context ``R_tau`` for a task (Section 4.3).

    Intermediate nodes on a transitivity path provide *recommendation*
    rather than execution; the paper keeps its own trust context ``R_tau``
    with the same characteristics as the underlying task.
    """
    return Task(
        name=f"R[{task.name}]",
        characteristics=task.characteristics,
        weights=task.weight_map or None,
    )
