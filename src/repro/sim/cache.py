"""Scenario fingerprints and the on-disk Monte-Carlo result cache.

The :class:`ResultCache` persists aggregated metric arrays keyed by
the deterministic task address ``(tag, scenario fingerprint, seed,
n_runs)`` so regenerating an already-computed figure is a cache lookup
instead of a simulation — and both backends (serial and fused) derive
the same key for the same campaign, so entries are shared across
backends and worker counts.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Sequence

import numpy as np

from repro._version import __version__


# ----------------------------------------------------------------------
# Scenario fingerprinting
# ----------------------------------------------------------------------
def _canonical(obj: Any) -> Any:
    """Recursively convert ``obj`` into JSON-stable primitives.

    Plain objects are fingerprinted through their ``vars()`` so every
    attribute participates (a lossy ``repr`` would let two differently
    calibrated scenarios collide on one cache key). Mapping keys are
    canonicalised to strings and sorted, so enum-keyed mappings hash
    stably too.
    """
    if is_dataclass(obj) and not isinstance(obj, type):
        return _canonical(asdict(obj))
    if isinstance(obj, Mapping):
        return dict(
            sorted((str(k), _canonical(v)) for k, v in obj.items())
        )
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = [_canonical(v) for v in obj]
        if isinstance(obj, (set, frozenset)):
            items = sorted(items, key=repr)
        return items
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    attrs = getattr(obj, "__dict__", None)
    if attrs:
        return {
            "__class__": type(obj).__qualname__,
            **dict(sorted((str(k), _canonical(v)) for k, v in attrs.items())),
        }
    return repr(obj)


def fingerprint(obj: Any) -> str:
    """A short stable hash of a (nested) dataclass / mapping / sequence."""
    blob = json.dumps(_canonical(obj), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# On-disk result cache
# ----------------------------------------------------------------------
class ResultCache:
    """Persists aggregated Monte-Carlo metric arrays as JSON files.

    A cache entry is keyed by the sha256 of the deterministic task
    address ``(tag, scenario fingerprint, seed, n_runs)`` — exactly
    the coordinates that fix a campaign's results bit-for-bit, and
    nothing else. Execution details (backend, worker count, code
    version) are deliberately absent: any backend replaying the same
    address reproduces the same arrays, so it may reuse any backend's
    entry. The package version that *wrote* an entry is recorded in
    its stored metadata for forensics, not in the key.
    """

    def __init__(self, directory: "str | os.PathLike[str]") -> None:
        self._dir = Path(directory)

    @property
    def directory(self) -> Path:
        """Root directory entries are written beneath."""
        return self._dir

    @staticmethod
    def key(
        tag: str,
        config_fingerprint: str,
        seed: int,
        n_runs: int,
    ) -> str:
        """The cache key for one aggregated campaign: a hash of its
        deterministic task address and nothing more."""
        blob = json.dumps(
            {
                "tag": tag,
                "fingerprint": config_fingerprint,
                "seed": seed,
                "n_runs": n_runs,
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> Path:
        return self._dir / f"{key}.json"

    def load(self, key: str) -> Optional[Dict[str, np.ndarray]]:
        """The stored metric arrays for ``key``, or None on a miss."""
        path = self._path(key)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            return None
        metrics = payload.get("metrics")
        if not isinstance(metrics, dict):
            return None
        try:
            return {
                name: np.asarray(values, dtype=np.float64)
                for name, values in metrics.items()
            }
        except (TypeError, ValueError):
            return None  # structurally corrupt entry == miss

    def store(
        self,
        key: str,
        metrics: Mapping[str, Sequence[float]],
        meta: Optional[Mapping[str, Any]] = None,
    ) -> Path:
        """Persist ``metrics`` under ``key`` (atomic rename).

        The writing package version is stamped into the entry's
        metadata (callers may override it via ``meta``) so stale
        entries remain attributable even though the key ignores it.
        """
        self._dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "meta": {"version": __version__, **dict(meta or {})},
            "metrics": {
                name: [float(v) for v in values]
                for name, values in metrics.items()
            },
        }
        path = self._path(key)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        tmp.replace(path)
        return path
