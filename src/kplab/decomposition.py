"""Dyadic shells, slope sectors, the l^q l^p L^2 norm, and the 2-variation.

The frequency plane (xi != 0) is tiled twice over:

* dyadic shells  lam <= |xi| < 2 lam,  lam a power of two;
* inside each shell, slope sectors keyed by (j, k1, k2), lam = 2^j and k
  in Z^2, holding the modes with eta/xi - lam*k in the half-open box
  [-lam/2, lam/2)^2 (`sector_key`, labelled once per grid by
  `grid_geometry(grid).sector` from per-axis tables).

Half-open membership makes both tilings exact partitions, so squared L^2
masses are additive across shells and sectors to machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .spectral import (GridSpec, SpectralField, apply_linear_propagator,
                       grid_geometry)


@dataclass(frozen=True)
class NormParams:
    """(q, p) for the l^q l^p L^2 norm."""

    q: float = math.inf
    p: float = 1.5

    def __post_init__(self):
        if not (1.0 <= self.p <= math.inf and 1.0 <= self.q <= math.inf):
            raise ConfigurationError("p, q must lie in [1, inf]")


@dataclass
class SpaceTimeTrace:
    """Time-sampled trajectory {t_n, u(t_n)}: one complex (n, *grid.shape)
    coefficient stack, one row per sample time."""

    times: np.ndarray
    coeff: np.ndarray
    grid: GridSpec
    real_flag: bool = True

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.coeff.shape != (self.times.size, *self.grid.shape):
            raise ConfigurationError(
                f"trace stack shape {self.coeff.shape} != "
                f"{(self.times.size, *self.grid.shape)} (samples, *grid shape)")
        if self.times.size and np.any(np.diff(self.times) <= 0):
            raise ConfigurationError("trace times must be strictly increasing")

    @property
    def states(self) -> list:
        """Read-only SpectralField views of the rows, one per sample."""
        rows = self.coeff.view()
        rows.flags.writeable = False
        return [SpectralField(self.grid, r, self.real_flag) for r in rows]


# ----------------------------------------------------------------------
# Shell / sector addressing
# ----------------------------------------------------------------------

def sector_projection(u: SpectralField, key: tuple) -> SpectralField:
    """Keep coefficients in sector key = (j, k1, k2) of grid_geometry(grid).sector:
    shell 2^j <= |xi| < 2^(j+1), slope box 2^j (k + [-1/2, 1/2)^2)."""
    geo = grid_geometry(u.grid)
    id1, id2, keys = geo.sector
    keep = np.all(keys(id1 + id2) == np.reshape(key, (3, 1, 1, 1)), axis=0) & (geo.xi != 0)
    return SpectralField(u.grid, np.where(keep, u.coeff, 0.0), u.real_flag)


_ALL_MODES = (slice(None),) * 3   # the whole grid as a selection of modes


def _sector_sums(keys, ids: np.ndarray, mass):
    """keys (of sector_labels) of the sectors that `ids` (one per point) meet,
    as (3, n) in order of first occurrence, and each row of the (rows, points)
    `mass` totalled per key in point order, as (rows, n): no sort."""
    pos = np.arange(ids.size)
    first = np.full(ids.max(initial=-1) + 1, ids.size)
    np.minimum.at(first, ids, pos)
    order = ids[first[ids] == pos]
    first[order] = np.arange(order.size)          # id -> column
    at = first[ids] + order.size * np.arange(len(mass))[:, None]
    sums = np.bincount(at.ravel(), weights=mass.ravel())
    return keys(order), sums.reshape(len(mass), order.size)


def _sector_mass_rows(stack: np.ndarray, grid: GridSpec, modes: tuple, measure):
    """_sector_sums of the squared L^2 masses measure |c|^2 of an (n, *selection)
    stack on the selection `modes` of grid (per-axis slices, or an open mesh like
    `box`, in index order: the xi = 0 plane, if selected, comes first), keyed over
    the union support of its rows; measure is the cell size or an array
    broadcasting to the selection."""
    geo, (ix, i1, i2) = grid_geometry(grid), modes
    id1, id2, keys = geo.sector
    id1, id2 = id1[ix, i1, 0], id2[ix, 0, i2]        # the selection's per-axis tables
    rows = np.reshape(stack, (-1,) + id1.shape[:2] + id2.shape[-1:])
    flat, (s1, s2) = np.flatnonzero(np.any(rows, axis=0)), rows.shape[2:]
    if flat.size and flat[0] < s1 * s2 and np.ravel(geo.xi[ix, 0, 0])[0] == 0:
        raise DomainError("field has content on the xi = 0 plane, which lies in no sector")
    q = flat // s2                        # i s1 + a, and i s2 + b below: no label per mode
    ids = id1.take(q) + id2.take(q // s1 * s2 + flat - q * s2)
    if isinstance(measure, np.ndarray):
        measure = np.broadcast_to(measure, rows.shape[1:]).take(flat)
    return _sector_sums(keys, ids, measure * np.abs(rows.reshape(len(rows), -1).take(flat, 1)) ** 2)


def sector_masses(u: SpectralField) -> dict:
    """Squared L^2 mass per occupied sector, keyed by (j, k1, k2) in C order of
    first occurrence; an exact partition, summing to the squared L^2 norm."""
    keys, sums = _sector_mass_rows(u.coeff, u.grid, _ALL_MODES, u.grid.volume)
    return dict(zip(map(tuple, keys.T.tolist()), sums[0].tolist()))


def _lp_reduce(values, p: float, measure=1.0) -> np.ndarray:
    """(sum measure * values^p)^{1/p} along the last axis, the max at p = inf:
    the one l^p / L^p reduction of nonnegative samples (measure = the cell
    size, or an array of quadrature weights, for L^p)."""
    values = np.ascontiguousarray(values, dtype=float)   # rows sum as 1-D rows do
    if p == math.inf:
        return np.max(values, axis=-1, initial=0.0)
    powers = values ** p
    total = (np.sum(measure * powers, -1) if isinstance(measure, np.ndarray)
             else measure * np.sum(powers, -1))
    # the root as a scalar power rounds it (libm); numpy's array power may not
    return np.reshape([t ** (1.0 / p) for t in np.ravel(total).tolist()], np.shape(total))


def _gl_nodes(rule, lo, hi):
    """Nodes and weights of a Gauss-Legendre rule mapped to [lo, hi]; array
    bounds give one row of nodes per interval."""
    x, w = rule
    lo, hi = np.asarray(lo)[..., None], np.asarray(hi)[..., None]
    half = 0.5 * (hi - lo)
    return 0.5 * (hi + lo) + half * x, half * w


def _lqlp_reduce(j, values, q: float, p: float) -> np.ndarray:
    """The one l^q l^p reduction: (sum_j (2^{j/2} ||a_j||_p)^q)^{1/q} per row of
    `values`, max at p or q = inf, where a_j holds the row's entries in columns
    of shell j (sector norms, or l^p norms of disjoint groups of sectors)."""
    values, j = np.atleast_2d(values), np.asarray(j)
    shells = np.flatnonzero(np.bincount(j - j.min(initial=0))) + j.min(initial=0)   # no sort
    norms = [math.sqrt(2.0 ** s) * _lp_reduce(values[:, j == s], p) for s in shells.tolist()]
    return _lp_reduce(np.reshape(norms, (-1, len(values))).T, q)


def lqlp_norms(stack: np.ndarray, grid: GridSpec, np_: NormParams, modes: tuple = _ALL_MODES,
               measure=None) -> np.ndarray:
    """lqlp_norm of each row of an (n, *selection) stack on the selection `modes`
    of grid (all modes by default), labelled once for all rows; a mode's squared
    mass is measure |c|^2, with measure grid.volume by default (see
    _sector_mass_rows)."""
    keys, masses = _sector_mass_rows(stack, grid, modes,
                                     grid.volume if measure is None else measure)
    return _lqlp_reduce(keys[0], np.sqrt(masses), np_.q, np_.p)


def lqlp_norm(u: SpectralField, np_: NormParams) -> float:
    """The anisotropic norm (sum_lam lam^{q/2} (sum_k ||u_sector||^p)^{q/p})^{1/q},
    with max-reductions at p or q = infinity."""
    return float(lqlp_norms(u.coeff, u.grid, np_)[0])


# ----------------------------------------------------------------------
# Variation norms of the pullback
# ----------------------------------------------------------------------

def pullback_states(tr: SpaceTimeTrace) -> np.ndarray:
    """Stacked coefficients of t -> S(-t) u(t)."""
    out = np.empty((tr.times.size,) + tr.grid.shape, dtype=np.complex128)
    for i, (t, s) in enumerate(zip(tr.times, tr.states)):
        out[i] = apply_linear_propagator(s, -t).coeff
    return out


def _increment_matrix(pull: np.ndarray, measure) -> np.ndarray:
    """d[i, j] = L^2 distance between rows i and j of a pullback stack, a mode's
    squared mass being measure |c|^2 (the cell size, or an array broadcasting to
    a row)."""
    n = len(pull)
    gram = ((pull * measure).reshape(n, -1) @ np.conj(pull.reshape(n, -1).T)).real
    diag = np.diag(gram)
    d2 = diag[:, None] + diag[None, :] - 2 * gram
    return np.sqrt(np.maximum(d2, 0.0))


def v2_variation_norm(pull: np.ndarray, measure) -> float:
    """Two-variation of a pullback stack (a trace's `pullback_states` with its
    cell size as measure) over all sub-partitions of the sample grid:
    maximum-weight-path dynamic programming in O(N^2) pairs.

    Finite sampling only refines so far; the value is a lower bound for the
    continuum 2-variation.
    """
    n = len(pull)
    if n < 2:
        return 0.0
    d = _increment_matrix(pull, measure) ** 2
    best = np.zeros(n)
    for jj in range(1, n):
        best[jj] = np.max(best[:jj] + d[:jj, jj])
    return float(math.sqrt(np.max(best)))


def v2_variation_bruteforce(pull: np.ndarray, measure) -> float:
    """Exponential enumeration over all sub-partitions; oracle for N <= 12."""
    n = len(pull)
    if n < 2:
        return 0.0
    if n > 16:
        raise ConfigurationError("bruteforce variation limited to 16 samples")
    d = _increment_matrix(pull, measure) ** 2
    best = 0.0
    for mask in range(1, 1 << n):
        pts = [i for i in range(n) if mask >> i & 1]
        if len(pts) < 2:
            continue
        tot = sum(d[a, b] for a, b in zip(pts, pts[1:]))
        best = max(best, tot)
    return float(math.sqrt(best))
