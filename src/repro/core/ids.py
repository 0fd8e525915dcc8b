"""Identifier types and validation helpers shared across the library.

Node and task identifiers are plain hashable values (typically ``int`` for
simulation nodes and ``str`` for IoT device names).  Keeping them as aliases
rather than wrapper classes keeps the hot simulation loops allocation-free
while the validators below give early, readable errors at API boundaries.
"""

from __future__ import annotations

from typing import Hashable

NodeId = Hashable
TaskId = str


def validate_node_id(node_id: NodeId) -> NodeId:
    """Return ``node_id`` unchanged, rejecting unusable values.

    A node identifier must be hashable and must not be ``None`` — ``None``
    is reserved as the "no node" sentinel throughout the engine.
    """
    if node_id is None:
        raise ValueError("node id must not be None")
    try:
        hash(node_id)
    except TypeError as exc:
        raise TypeError(f"node id must be hashable, got {node_id!r}") from exc
    return node_id


def validate_probability(value: float, name: str = "value") -> float:
    """Validate that ``value`` lies in the closed interval [0, 1]."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value


def validate_non_negative(value: float, name: str = "value") -> float:
    """Validate that ``value`` is a non-negative finite float."""
    value = float(value)
    if value < 0.0 or value != value:  # NaN check via self-inequality
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return value


COMPUTE_BACKENDS = ("python", "vectorized")


def resolve_compute(compute: str) -> str:
    """Validate a compute-backend name; numpy-less hosts fall back.

    ``"vectorized"`` silently degrades to ``"python"`` when numpy is
    unavailable — the python kernels are the oracle, so the results are
    identical either way (that is the whole contract); only the speed
    differs.  Only ``"vectorized"`` imports :mod:`repro.core.kernels`
    (and through it numpy): a python-compute seed never pays for it.
    """
    if compute not in COMPUTE_BACKENDS:
        raise ValueError(
            f"compute must be 'python' or 'vectorized', got {compute!r}"
        )
    if compute == "vectorized":
        from repro.core.kernels import HAVE_NUMPY

        if not HAVE_NUMPY:
            return "python"
    return compute
