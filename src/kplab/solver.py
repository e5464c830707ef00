"""Nonlinear KP-II evolution, Duhamel quadrature, Picard iteration, and the
slope-filtered bilinear projections.

The evolution equation in coefficient form is

    d/dt u-hat = i w(xi, eta) u-hat  +  N(u)-hat,      N(u) = -d/dx (u^2),

integrated with an integrating-factor classical 4-stage Runge-Kutta scheme:
the stiff oscillatory linear part is treated exactly by unit-modulus phase
factors, so the scheme is exact for the linear flow and 4th order in the
nonlinearity.  Quadratic products are dealiased with the 2/3 rule: the
state keeps |k| <= (n - 1)//3, that is |k| < n/3, on each axis of n modes.
Then a sum of two kept modes never wraps onto a kept mode, so the masked
pointwise square equals the exact truncated convolution, and the discrete
mass integral u^2 is conserved up to time discretization error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .decomposition import (NormParams, SpaceTimeTrace, lqlp_norm, lqlp_norms,
                            v2_variation_norm)
from .errors import (BlowupError, ConfigurationError, DivergenceError,
                     PreconditionError)
from .spectral import (GridSpec, SpectralField, grid_geometry, nonzero_modes,
                       require_number, require_power_of_two)

# ----------------------------------------------------------------------
# The active box and the quadratic term
# ----------------------------------------------------------------------

def _expand(grid: GridSpec, a: np.ndarray, box: tuple) -> np.ndarray:
    """Full Hermitian spectra of box coefficients a (any leading axes): the
    box, and its conjugate mirror on k2 < 0."""
    full = np.zeros(a.shape[:-3] + grid.shape, dtype=np.complex128)
    full[(..., *box)] = a
    neg = slice(grid.modes_y2 - box[2].size + 1, None)
    rx, r1, r2 = grid_geometry(grid).reverse
    mirror = full[..., rx, r1, r2[..., neg]]
    full[..., neg] = np.conjugate(mirror, out=mirror)
    return full


def _rhs_work(grid: GridSpec, box: tuple, lead: tuple = ()) -> tuple:
    """The synthesis matrices and buffers of `_nonlinear_rhs`, for box
    coefficients with leading axes `lead`: built once per evolution, so that
    each call allocates only its result.

    `syn1` (n1 x m1, complex) takes the box's eta1 rows to all n1 eta1
    samples; `syn2` (2 m2 x n2, real) takes the interleaved real and
    imaginary parts of the box's k2 columns to all n2 real eta2 samples.
    Each is pocketfft's inverse transform of unit vectors, not exponentials
    of angles: on a power-of-two length every quarter-turn entry is then
    exactly 0, +-1 or +-2, where np.exp(1j * pi / 2) is 6e-17 off.  Only the
    box planes of `planes` are ever written, so its zero padding holds across
    calls.  `stage` holds the box planes on their way into the x transform
    and out of it; it is the flat prefix of `half`, which is free both times."""
    nx, n1, n2 = grid.shape
    k, m2 = box[0].size, box[2].size
    syn1 = np.fft.ifft(np.eye(n1)[:, box[1].ravel()], axis=0, norm="forward")
    unit = np.eye(m2, n2 // 2 + 1)
    syn2 = np.stack([np.fft.irfft(unit, n2, norm="forward"),
                     np.fft.irfft(1j * unit, n2, norm="forward")], axis=1)
    planes = np.zeros(lead + (nx, n1, m2), dtype=np.complex128)
    half = np.empty(lead + (nx, n1, n2 // 2 + 1), dtype=np.complex128)
    stage = half.reshape(-1)[:planes.size // nx * k].reshape(lead + (k, n1, m2))
    return (syn1, syn2.reshape(2 * m2, n2), stage, planes, np.empty_like(planes),
            np.empty(lead + (nx, n1, n2)), half)


def _synthesize(a: np.ndarray, box: tuple, work: tuple) -> np.ndarray:
    """The real samples of box coefficients a (any leading axes) on the whole
    space grid, unscaled as norm="forward" leaves an inverse FFT: written
    into the `phys` buffer of `work` and returned.  The eta1 transform is a
    complex matrix product over the box planes, the x transform pocketfft on
    the box's k2 columns, and the eta2 transform one real matrix product on
    the float64 view of those columns, interleaved real and imaginary parts.
    """
    syn1, syn2, stage, planes, xt, phys, _ = work
    np.matmul(syn1, a, out=stage)
    planes[..., box[0].ravel(), :, :] = stage
    np.fft.ifft(planes, axis=-3, norm="forward", out=xt)
    np.matmul(xt.view(np.float64).reshape(-1, syn2.shape[0]), syn2,
              out=phys.reshape(-1, syn2.shape[1]))
    return phys


def _nonlinear_rhs(grid: GridSpec, a: np.ndarray, box: tuple, xi: np.ndarray,
                   work: tuple) -> np.ndarray:
    """-i xi FFT((IFFT a)^2) on the box, for box coefficients a with any
    leading axes: the coefficient-space N(u).  `work` is `_rhs_work` of the
    same grid, box and leading axes; the result is a new array.

    The inverse transforms are `_synthesize`: the two eta transforms, short
    and mostly zero-padded, as matrix products.  The forward transforms stay
    FFTs, pruned axis by axis (the real eta2 transform keeps the box's k2
    columns, the x transform runs on them, the eta1 transform on the box's
    x-planes): a mode outside the square's support then comes out exactly
    zero, where a dense matrix product leaves rounding in it.
    """
    ix, i1 = box[0].ravel(), box[1].ravel()
    m2 = box[2].size
    _, _, stage, _, xt, phys, half = work
    np.square(_synthesize(a, box, work), out=phys)
    np.fft.rfft(phys, axis=-1, norm="forward", out=half)
    np.fft.fft(half[..., :m2], axis=-3, norm="forward", out=xt)
    np.take(xt, ix, axis=-3, out=stage, mode="clip")   # "raise" would buffer a copy
    top = xt[..., :ix.size, :, :]   # xt is read: its first planes take the eta1 transform
    np.fft.fft(stage, axis=-2, norm="forward", out=top)
    out = np.take(top, i1, axis=-2)
    return np.multiply(-1j * xi, out, out=out)


def _on_box(u: SpectralField, grid: GridSpec, caller: str) -> tuple:
    """(box, box coefficients of u, xi on the box planes) of a datum for a
    solver on `grid`.  Only k2 >= 0 is read, so u must be marked real, lie
    on `grid` and pass `validate()`."""
    if not u.real_flag:
        raise PreconditionError(f"{caller} requires a real field")
    if u.grid != grid:
        raise ConfigurationError("datum grid differs from SimConfig grid")
    u.validate()
    geo = grid_geometry(grid)
    box = geo.box
    return box, u.coeff[box], geo.xi[box[0], 0, 0]


def nonlinearity(u: SpectralField) -> SpectralField:
    """Spectral representation of -d/dx(u^2) with the 2/3-rule mask applied.

    The xi = 0 output plane is annihilated by the derivative, so the result
    keeps the zero-x-mean invariant automatically.
    """
    g = u.grid
    box, c, xi = _on_box(u, g, "nonlinearity")
    out = _nonlinear_rhs(g, c, box, xi, _rhs_work(g, box))
    return SpectralField(g, _expand(g, out, box), real_flag=True)


def nonlinearity_direct(u: SpectralField) -> SpectralField:
    """O(N^2) frequency-space convolution oracle for the quadratic term.

    Verification-scale only; matches nonlinearity() on masked inputs.
    """
    g = u.grid
    if np.prod(g.shape) > 40 ** 3:
        raise ConfigurationError("direct convolution oracle limited to small grids")
    geo = grid_geometry(g)
    kx, k1, k2, vals = nonzero_modes(g, np.where(geo.active, u.coeff, 0.0))
    out = np.zeros(g.shape, dtype=np.complex128)
    for a in range(vals.size):
        index, ok = g.index(kx[a] + kx, k1[a] + k1, k2[a] + k2)
        np.add.at(out, tuple(i[ok] for i in index), vals[a] * vals[ok])
    out = -1j * geo.xi * np.where(geo.active, out, 0.0)
    return SpectralField(g, out, real_flag=True)


def spectral_product(u: SpectralField, v: SpectralField) -> SpectralField:
    """Exact (alias-free) convolution product u*v truncated to the grid.

    Implemented by zero-padded FFT; the xi = 0 output plane is dropped per
    the zero-x-mean invariant.
    """
    if u.grid != v.grid:
        raise ConfigurationError("product requires a shared grid")
    g = u.grid
    big = replace(g, modes_x=2 * g.modes_x, modes_y1=2 * g.modes_y1, modes_y2=2 * g.modes_y2)
    index, _ = big.index(*np.ix_(*map(g.mode_numbers, range(3))))
    pu, pv = np.zeros((2,) + big.shape, dtype=np.complex128)
    pu[index], pv[index] = u.coeff, v.coeff
    prod = np.fft.fftn(np.fft.ifftn(pu) * np.fft.ifftn(pv)) * pu.size
    out = prod[index]
    out[~grid_geometry(g).structural] = 0.0
    return SpectralField(g, out, u.real_flag and v.real_flag)


# ----------------------------------------------------------------------
# Time stepping
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SimConfig:
    grid: GridSpec
    dt: float = 0.01
    T: float = 1.0
    samples_per_unit: int = 8

    def __post_init__(self):
        for v, name in ((self.dt, "dt"), (self.T, "T"),
                        (self.samples_per_unit, "samples_per_unit")):
            require_number(v, name)
        n = self.T * self.samples_per_unit   # samples after t = 0; NaN, inf fail the range
        if not (0.5 <= n < math.inf and abs(n - round(n)) <= 1e-9):
            raise ConfigurationError(f"T * samples_per_unit = {n} is not a whole number >= 1")
        if not (0 < self.dt < math.inf):
            raise ConfigurationError("dt must be positive and finite")
        if not (self.dt <= self.T < math.inf):
            raise ConfigurationError("horizon T must be finite and at least one step")

    @property
    def sample_dt(self) -> float:
        return 1.0 / self.samples_per_unit

    @property
    def sample_times(self) -> np.ndarray:
        """The sample times 0, sample_dt, ..., T of `evolve` and `picard_iterate`."""
        return np.arange(int(round(self.T / self.sample_dt)) + 1) * self.sample_dt


def evolve(u0: SpectralField, cfg: SimConfig) -> SpaceTimeTrace:
    """Integrate the nonlinear flow; returns the sampled trajectory.

    The state lives on the active box (`grid_geometry(grid).box`) and is
    expanded to the full Hermitian spectrum at sample times only.  Raises
    ConfigurationError on a datum whose norm overflows, and BlowupError
    with a time stamp on NaN or norm explosion (the small-data step guard).
    """
    g = cfg.grid
    box, c, xi = _on_box(u0, g, "evolve")
    twice = np.where(box[2] > 0, 2.0, 1.0)   # a k2 > 0 mode stands for its mirror too

    times = cfg.sample_times
    steps = max(1, math.ceil(cfg.sample_dt / cfg.dt))
    h = cfg.sample_dt / steps
    E, E2 = grid_geometry(g).phase([h, h / 2], *box)

    with np.errstate(over="ignore"):
        norm0 = np.sqrt(np.sum(twice * np.abs(c) ** 2))
    if not np.isfinite(norm0):
        raise ConfigurationError("evolve datum norm overflows double precision")
    states = np.empty(times.shape + c.shape, dtype=np.complex128)
    states[0] = c

    work = _rhs_work(g, box)
    t = 0.0
    for js in range(1, times.size):
        for _ in range(steps):
            n1 = _nonlinear_rhs(g, c, box, xi, work)
            u2 = E2 * (c + 0.5 * h * n1)
            n2 = _nonlinear_rhs(g, u2, box, xi, work)
            u3 = E2 * c + 0.5 * h * n2
            n3 = _nonlinear_rhs(g, u3, box, xi, work)
            u4 = E * c + h * (E2 * n3)
            n4 = _nonlinear_rhs(g, u4, box, xi, work)
            c = E * c + (h / 6.0) * (E * n1 + 2.0 * E2 * (n2 + n3) + n4)
            t += h
            nn = np.sqrt(np.sum(twice * np.abs(c) ** 2))
            if not np.isfinite(nn) or (norm0 > 0 and nn > 1e3 * norm0):
                raise BlowupError(f"step rejected at t={t:.6g} (norm {nn:.3e})", t=t)
        states[js] = c
    del work   # free before the full-spectrum expansion, the memory peak
    return SpaceTimeTrace(times, _expand(g, states, box), g, True)


def mass_series(tr: SpaceTimeTrace) -> np.ndarray:
    """Integral of u^2 over the box at each sample (the conserved quantity)."""
    return np.array([s.l2_norm() ** 2 for s in tr.states])


# ----------------------------------------------------------------------
# Duhamel quadrature
# ----------------------------------------------------------------------

def _composite_weights(n: int, dt: float) -> np.ndarray:
    """Composite Simpson weights on n uniform samples (3/8 tail if needed)."""
    if n < 3:
        raise PreconditionError("Duhamel quadrature needs at least 3 samples")
    w = np.zeros(n)
    if (n - 1) % 2 == 0:
        w[0] = w[-1] = 1.0
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        w *= dt / 3.0
    elif n == 4:
        w = dt * 3.0 / 8.0 * np.array([1.0, 3.0, 3.0, 1.0])
    else:
        w[: n - 3] += _composite_weights(n - 3, dt)
        w[n - 4:] += dt * 3.0 / 8.0 * np.array([1.0, 3.0, 3.0, 1.0])
    return w


def _duhamel_weights(n: int, dt: float) -> np.ndarray:
    """Prefix quadrature matrix W on n uniform samples of spacing dt: row j
    integrates over [0, t_j], by composite Simpson from t_2 on and the
    trapezoid rule on the first interval."""
    W = np.zeros((n, n))
    for jj in range(2, n):
        W[jj, : jj + 1] = _composite_weights(jj + 1, dt)
    if n >= 2:
        W[1, :2] = dt / 2.0  # trapezoid on the first interval only
    return W


# ----------------------------------------------------------------------
# Picard iteration
# ----------------------------------------------------------------------

@dataclass
class PicardReport:
    iterates: int
    diffs: list
    ratios: list
    converged: bool


def _box_surrogate(grid: GridSpec, box: tuple, phases: np.ndarray, diff: np.ndarray,
                   np_: NormParams) -> float:
    """sup-in-t lqlp norm plus the 2-variation of the pullback diff * conj(phases)
    of a box difference stack, exact on the box: a k2 > 0 mode stands for its
    mirror too, which lies in the same sector with the same pullback mass."""
    measure = grid.volume * np.where(box[2] > 0, 2.0, 1.0)
    return (float(np.max(lqlp_norms(diff, grid, np_, box, measure)))
            + v2_variation_norm(diff * np.conj(phases), measure))


def picard_iterate(u0: SpectralField, cfg: SimConfig, n_max: int = 12,
                   tol: float = 1e-10, smallness_threshold: float = 0.05):
    """Duhamel fixed-point iteration w <- S(t)u0 + int_0^t S(t-s) N(w)(s) ds.

    Returns (trace of the final iterate, PicardReport); the trace has the
    sample times of `evolve`, T * samples_per_unit after t = 0.  Successive
    differences are measured on the box in the composite surrogate norm
    (sup-in-t l^inf l^1.5 norm + 2-variation of the difference); three
    consecutive ratios >= 1 raise DivergenceError.
    """
    g = cfg.grid
    box, c0, xi = _on_box(u0, g, "picard_iterate")
    np_ = NormParams()
    datum_norm = lqlp_norm(u0, np_)
    if datum_norm > smallness_threshold:
        raise PreconditionError(
            f"datum norm {datum_norm:.3e} exceeds the small-data threshold "
            f"{smallness_threshold:.1e}")

    times = cfg.sample_times   # evolve's sample grid; dt is not read
    n_t = times.size
    phases = grid_geometry(g).phase(times, *box)
    base = c0[None, ...] * phases  # S(t) u0 on the box

    W = _duhamel_weights(n_t, cfg.sample_dt)
    work = _rhs_work(g, box, (n_t,))

    def apply_duhamel(warr):
        pull = _nonlinear_rhs(g, warr, box, xi, work) * np.conj(phases)
        integ = np.tensordot(W, pull.reshape(n_t, -1), axes=(1, 0))
        integ = integ.reshape(warr.shape) * phases
        return base + integ

    w = base.copy()
    diffs, ratios = [], []
    converged = datum_norm == 0.0
    n_done = 0
    rising = 0
    for it in range(1, n_max + 1):
        w_next = apply_duhamel(w)
        d = _box_surrogate(g, box, phases, w_next - w, np_)
        diffs.append(d)
        if len(diffs) >= 2 and diffs[-2] > 0:
            r = diffs[-1] / diffs[-2]
            ratios.append(r)
            rising = rising + 1 if r >= 1.0 else 0
            if rising >= 3:
                raise DivergenceError(
                    f"non-contractive ratios for 3 consecutive iterates "
                    f"(last {r:.3f}); datum too large")
        w = w_next
        n_done = it
        if d <= tol:
            converged = True
            break
    del work   # free before the full-spectrum expansion, the memory peak
    trace = SpaceTimeTrace(times, _expand(g, w, box), g, True)
    return trace, PicardReport(n_done, diffs, ratios, converged)


# ----------------------------------------------------------------------
# Slope-filtered bilinear projections
# ----------------------------------------------------------------------

_PLATEAU, _SUPPORT = 128.0, 129.0   # phi1 = 1 on (-128, 128)^2, 0 outside (-129, 129)^2


def _ramp(a: np.ndarray) -> np.ndarray:
    t = np.clip((np.abs(a) - _PLATEAU) / (_SUPPORT - _PLATEAU), 0.0, 1.0)
    return 1.0 - t * t * t * (10.0 + t * (-15.0 + 6.0 * t))  # quintic smoothstep, C^2


def phi1(s1, s2) -> np.ndarray:
    """Even C^2 cutoff on R^2, the base of the telescoping band family."""
    return _ramp(np.asarray(s1, dtype=float)) * _ramp(np.asarray(s2, dtype=float))


def band_weight(L: float, s1, s2) -> np.ndarray:
    """rho_L: phi1 at L=1, else psi_L(s) = phi1(s/L) - phi1(2s/L)."""
    j = require_power_of_two(L, "band index L")
    if j < 0:
        raise ConfigurationError(f"band index L={L} must be >= 1")
    s1, s2 = np.asarray(s1, dtype=float), np.asarray(s2, dtype=float)
    return phi1(s1, s2) if j == 0 else phi1(s1 / L, s2 / L) - phi1(2 * s1 / L, 2 * s2 / L)


def bands_for_extent(max_abs_arg: float) -> list:
    """All L whose union covers arguments up to max_abs_arg (sum = 1)."""
    L, bands = 1.0, [1.0]
    while _PLATEAU * L < max_abs_arg:
        L *= 2.0
        bands.append(L)
    bands.append(bands[-1] * 2.0)
    return bands


_SLOPE_PRODUCT_LIMIT = 24 ** 3


def _mode_list(u: SpectralField):
    """Mode numbers, wavenumbers and values of the nonzero coefficients."""
    g = u.grid
    *k, c = nonzero_modes(g, u.coeff)
    return k, (k[0] * g.dxi, k[1] * g.deta1, k[2] * g.deta2), c


def slope_filtered_product(u: SpectralField, v: SpectralField,
                           L: float) -> SpectralField:
    """The band-L piece of the product:  weight rho_L((s1-s2)/(xi1+xi2))
    applied to each frequency pair of the convolution.

    Direct O(Nu * Nv) pair quadrature; verification-scale (grids <= 24^3).
    Pairs with xi1 + xi2 = 0 would feed the xi = 0 plane, which stays zero;
    they are skipped.
    """
    if u.grid != v.grid:
        raise ConfigurationError("slope_filtered_product requires a shared grid")
    g = u.grid
    if int(np.prod(g.shape)) > _SLOPE_PRODUCT_LIMIT:
        raise ConfigurationError("slope_filtered_product is restricted to <= 24^3 grids")
    ku, (xu, e1u, e2u), cu = _mode_list(u)
    kv, (xv, e1v, e2v), cv = _mode_list(v)
    out = np.zeros(g.shape, dtype=np.complex128)
    s1v = e1v / xv
    s2v = e2v / xv
    for a in range(cu.size):
        xsum = xu[a] + xv
        ok = xsum != 0.0
        arg1 = (e1u[a] / xu[a] - s1v[ok]) / xsum[ok]
        arg2 = (e2u[a] / xu[a] - s2v[ok]) / xsum[ok]
        w = band_weight(L, arg1, arg2)
        index, infl = g.index(*(ka[a] + kb[ok] for ka, kb in zip(ku, kv)))
        vals = w * cu[a] * cv[ok]
        np.add.at(out, tuple(i[infl] for i in index), vals[infl])
    return SpectralField(g, out, u.real_flag and v.real_flag)


def slope_band_extent(grid: GridSpec) -> float:
    """Largest |(s1-s2)/(xi1+xi2)| over grid mode pairs, for band coverage."""
    geo = grid_geometry(grid)
    smax = max(abs(geo.eta1).max() / grid.dxi, abs(geo.eta2).max() / grid.dxi)
    return 2.0 * smax / grid.dxi
