"""Slope fitting and deterministic (byte-stable) report emission."""

from __future__ import annotations

import hashlib
import json

import numpy as np


def fit_loglog_slope(xs, ys) -> float:
    """Least-squares slope of log2(y) against log2(x)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 2:
        raise ValueError("slope fit needs at least 2 points")
    if np.any(ys <= 0) or np.any(xs <= 0):
        raise ValueError("slope fit needs positive data")
    return float(np.polyfit(np.log2(xs), np.log2(ys), 1)[0])


def _canonical(obj):
    """Round-trip floats through repr so output is bit-stable across runs."""
    if isinstance(obj, dict):
        return {k: _canonical(obj[k]) for k in sorted(obj)}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_canonical(v) for v in obj.tolist()]
    return obj


def json_dumps(obj) -> str:
    return json.dumps(_canonical(obj), sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        fh.write(json_dumps(obj))


def write_csv(path, header, rows) -> None:
    """Rows are emitted sorted by value; floats via repr (byte-stable)."""
    def fmt(v):
        if isinstance(v, (float, np.floating)):
            return repr(float(v))
        return str(v)

    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in sorted(rows):
            fh.write(",".join(fmt(v) for v in row) + "\n")


def config_hash(obj) -> str:
    return hashlib.sha256(json_dumps(obj).encode()).hexdigest()[:16]
