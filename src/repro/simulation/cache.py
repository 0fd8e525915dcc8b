"""Persistent cross-process result cache for multi-seed sweeps.

A sweep's unit of work is one ``(scenario, params, seed)`` triple, and
its reduced result (:class:`RateSummary` / :class:`SeriesResult`) is a
handful of floats — tiny to store, expensive to recompute.
:class:`SweepCache` persists each per-seed result as one JSON file on
disk, keyed by a content hash of::

    (scenario name, effective params, seed, code version)

so repeated ``repro sweep`` invocations, and incrementally grown ones
(``--seeds 8`` after ``--seeds 4``), only compute the seeds they have
never seen.  The cache is *cross-process* by construction: it is plain
files, each published with :func:`repro.leases.atomic_write_json`, so
concurrent sweeps — or pool workers of different sweeps — can share one
directory without coordination.

Correctness properties:

* **Bit-identical replay.**  Floats round-trip through JSON losslessly
  (``repr``-based serialization), so a warm-cache rerun reproduces the
  cold run's reduced results exactly — the equivalence suite asserts
  ``==`` on the dataclasses, with no tolerance.
* **Code-version invalidation.**  The key includes
  :func:`code_version`, a hash over every ``.py`` source file of the
  :mod:`repro` package: any code change produces fresh keys, so a stale
  cache can never leak results computed by older logic.
* **Corruption tolerance.**  An unreadable, truncated or shape-invalid
  cache file is treated as a miss and recomputed (and overwritten);
  the cache can only ever cost a recompute, never wrong results.

``REPRO_CACHE_DIR`` overrides the default location
(``$XDG_CACHE_HOME/repro/sweeps`` or ``~/.cache/repro/sweeps``).
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple, Union

from repro import leases
from repro.simulation.results import RateSummary, SeriesResult

Reduced = Union[RateSummary, SeriesResult]
Params = Tuple[Tuple[str, object], ...]

_ENV_CACHE_DIR = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """Where sweep results cache by default.

    ``$REPRO_CACHE_DIR`` wins; otherwise the XDG cache home convention.
    """
    override = os.environ.get(_ENV_CACHE_DIR)
    if override:
        return Path(override).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro" / "sweeps"


def _package_source_files() -> Iterable[Path]:
    import repro

    package_root = Path(repro.__file__).resolve().parent
    return sorted(package_root.rglob("*.py"))


_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """Hash of every ``repro`` source file; the cache's invalidation token.

    Computed once per process — any edit to the package flips it, so
    results computed by different code never collide in the cache.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        digest = hashlib.sha256()
        for path in _package_source_files():
            digest.update(str(path.name).encode())
            digest.update(path.read_bytes())
        _CODE_VERSION = digest.hexdigest()[:16]
    return _CODE_VERSION


@dataclass
class CacheStats:
    """Hit/miss/error accounting of one sweep's cache traffic.

    ``errors`` counts results that could not be *persisted* (read-only
    directory, full disk): the sweep still returns them, but a rerun
    will recompute those seeds — silent until this counter surfaced it.
    """

    hits: int = 0
    misses: int = 0
    errors: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses


@dataclass
class SweepCache:
    """File-per-result cache of reduced per-seed sweep outputs.

    One instance tracks its own :class:`CacheStats`; ``execute_sweep``
    creates one per sweep so the export can report this sweep's
    hits and misses, not the directory's lifetime totals.
    """

    root: Path
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        # expanduser: a literal "~/..." (README example, service env
        # files) must mean the home cache, not a ./~ directory.
        self.root = Path(self.root).expanduser()

    # ------------------------------------------------------------------
    @staticmethod
    def key(scenario: str, params: Params, seed: int,
            version: Optional[str] = None) -> str:
        """Content hash naming one per-seed result."""
        version = code_version() if version is None else version
        token = repr((scenario, tuple(params), seed, version))
        return hashlib.sha256(token.encode()).hexdigest()

    @staticmethod
    def keys_for(
        scenario: str, params: Params, seeds: Iterable[int],
        version: Optional[str] = None,
    ) -> Dict[int, str]:
        """One cache key per seed of one sweep (shared by the sweep
        engine and the distributed workers, so both sides of the queue
        agree on what is already computed)."""
        return {
            seed: SweepCache.key(scenario, params, seed, version=version)
            for seed in seeds
        }

    def _path(self, key: str) -> Path:
        # Two-level fan-out keeps directories small for big sweeps.
        return self.root / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[Reduced]:
        """The cached reduced result, or ``None`` on miss/corruption."""
        entry = self.get_entry(key)
        return entry[0] if entry is not None else None

    def get_entry(
        self, key: str,
    ) -> Optional[Tuple[Reduced, Optional[float]]]:
        """The cached result plus its recorded compute runtime.

        Returns ``(result, runtime_seconds)`` — the runtime is ``None``
        for entries written before runtimes were recorded (or by
        executors that did not time the seed).  The runtime is advisory
        telemetry for the cost estimator; only the result participates
        in the bit-identity contract.
        """
        payload = leases.read_json(self._path(key))
        try:
            result = _payload_to_reduced(payload["result"])
        except Exception:
            # Missing, truncated, bad JSON, wrong shape: recompute rather
            # than trust it.  The eventual put() overwrites the file.
            self.stats.misses += 1
            return None
        runtime = payload.get("runtime")
        if not isinstance(runtime, (int, float)) or isinstance(
            runtime, bool
        ) or runtime < 0:
            runtime = None
        self.stats.hits += 1
        return result, (float(runtime) if runtime is not None else None)

    def put(self, key: str, result: Reduced, scenario: str = "",
            seed: Optional[int] = None,
            version: Optional[str] = None,
            runtime: Optional[float] = None) -> None:
        """Persist one reduced result atomically.

        ``runtime`` is the seed's observed compute wall time in seconds;
        it rides along as entry metadata so the campaign scheduler can
        estimate sweep costs from what this machine actually measured.
        """
        payload = {
            "result": _reduced_to_payload(result),
            # Metadata: the key is the contract; scenario/seed are debug
            # aids, version lets `repro cache prune` drop entries keyed
            # by code this checkout no longer runs.
            "scenario": scenario,
            "seed": seed,
            "version": code_version() if version is None else version,
        }
        if runtime is not None:
            payload["runtime"] = float(runtime)
        leases.atomic_write_json(self._path(key), payload)


# ---------------------------------------------------------------------------
# reduced-result (de)serialization
# ---------------------------------------------------------------------------

# The cache's payloads are the dataclasses' own ``to_payload`` dicts
# (shared with the sweep JSON export) plus a ``kind`` tag so replay can
# dispatch without guessing.
_KINDS = {"rates": RateSummary, "series": SeriesResult}


def _reduced_to_payload(result: Reduced) -> dict:
    for kind, cls in _KINDS.items():
        if isinstance(result, cls):
            return {"kind": kind, **result.to_payload()}
    raise TypeError(f"cannot cache result of type {type(result).__name__}")


def _payload_to_reduced(payload: dict) -> Reduced:
    kind = payload["kind"]
    if kind not in _KINDS:
        raise ValueError(f"unknown cached result kind: {kind!r}")
    return _KINDS[kind].from_payload(payload)


def reduced_to_payload(result: Reduced) -> dict:
    """Public form of the cache's result serialization.

    The distributed work queue inlines the same payloads into its done
    markers, so a sweep collected from done files is byte-identical to
    one replayed from the cache.
    """
    return _reduced_to_payload(result)


def reduced_from_payload(payload: dict) -> Reduced:
    """Inverse of :func:`reduced_to_payload`."""
    return _payload_to_reduced(payload)


# ---------------------------------------------------------------------------
# maintenance tooling (`repro cache`)
# ---------------------------------------------------------------------------

# Version label for entries whose payload predates the version field or
# cannot be parsed at all; both are prunable — nothing current wrote them.
UNKNOWN_VERSION = "unknown"


@dataclass(frozen=True)
class CacheUsage:
    """What one cache directory currently holds."""

    root: Path
    entries: int
    total_bytes: int
    versions: Dict[str, int]
    current_version: str

    @property
    def current_entries(self) -> int:
        return self.versions.get(self.current_version, 0)

    @property
    def stale_entries(self) -> int:
        return self.entries - self.current_entries


@dataclass(frozen=True)
class PruneReport:
    """Outcome of one prune pass."""

    root: Path
    examined: int
    removed: int
    freed_bytes: int
    kept: int
    dry_run: bool


def _entry_files(root: Path) -> Iterable[Path]:
    """Every entry file under the two-level fan-out, sorted."""
    if not root.is_dir():
        return []
    return sorted(root.glob("??/*.json"))


def _entry_version(path: Path) -> str:
    """The code version recorded in one entry (``unknown`` if absent)."""
    version = (leases.read_json(path) or {}).get("version")
    return version if isinstance(version, str) else UNKNOWN_VERSION


def cache_usage(root: Union[str, Path]) -> CacheUsage:
    """Size and per-code-version census of one cache directory."""
    root = Path(root).expanduser()
    versions: Dict[str, int] = {}
    entries = 0
    total = 0
    for path in _entry_files(root):
        entries += 1
        try:
            total += path.stat().st_size
        except OSError:
            pass
        version = _entry_version(path)
        versions[version] = versions.get(version, 0) + 1
    return CacheUsage(
        root=root,
        entries=entries,
        total_bytes=total,
        versions=versions,
        current_version=code_version(),
    )


# A .tmp file this old cannot belong to a live put(): writes are
# sub-second, so anything beyond an hour is a crashed writer's orphan.
_TMP_ORPHAN_AGE_SECONDS = 3600.0


def prune_stale(
    root: Union[str, Path],
    keep_version: Optional[str] = None,
    dry_run: bool = False,
) -> PruneReport:
    """Remove entries not written by ``keep_version`` (default: current).

    Any code change flips :func:`code_version`, so after an upgrade the
    old entries are dead weight — unreachable by every new key.  Also
    sweeps up orphaned ``.tmp`` files from crashed writers — but only
    ones old enough that no live writer can still own them, so pruning
    never races a concurrent sweep's in-flight ``put``.  With
    ``dry_run`` nothing is deleted; the report says what would be.
    """
    root = Path(root).expanduser()
    keep = code_version() if keep_version is None else keep_version
    examined = removed = kept = freed = 0
    victims = []
    for path in _entry_files(root):
        examined += 1
        if _entry_version(path) == keep:
            kept += 1
        else:
            victims.append(path)
    if root.is_dir():
        cutoff = time.time() - _TMP_ORPHAN_AGE_SECONDS
        for tmp in root.glob("??/*.tmp"):
            try:
                if tmp.stat().st_mtime < cutoff:
                    victims.append(tmp)
            except OSError:
                continue  # completed or claimed while we looked
    for path in victims:
        try:
            size = path.stat().st_size
        except OSError:
            size = 0
        if not dry_run:
            try:
                path.unlink()
            except OSError:
                continue
        removed += 1
        freed += size
    if not dry_run and root.is_dir():
        for fanout in root.glob("??"):
            try:
                fanout.rmdir()  # only succeeds when emptied
            except OSError:
                pass
    return PruneReport(
        root=root,
        examined=examined,
        removed=removed,
        freed_bytes=freed,
        kept=kept,
        dry_run=dry_run,
    )
