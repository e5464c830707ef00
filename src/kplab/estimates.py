"""Exact resonance/measure identities and ensemble scaling checks for the
Strichartz and bilinear estimates.

Identity checks are two-sided floating-point evaluations with relative
defects; estimate checks are slope/ratio/boundedness statements over random
ensembles, never certified constants (discretization and windowing shift
absolute constants, the scalings do not).

Note on the level-circle measure: the closed form implemented here is

    pi * |xi - xi1| * |xi - xi2| / |xi2 - xi1|.

This is the orientation forced by the completed square: the level-set
function is q |eta - c|^2 + g0 with q = (xi2-xi1)/((xi-xi1)(xi-xi2)), so
the delta integral is pi/|q|.  A smeared-delta Monte-Carlo oracle confirms
it; the reciprocal form with constant 4 pi sometimes quoted for this
measure fails both routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import member_rng
from .decomposition import _lp_reduce
from .errors import (ConfigurationError, DomainError, KplabError,
                     PreconditionError)
from .spectral import (SpectralField, apply_linear_propagator, dispersion_symbol,
                       grid_geometry, inverse_transform)
from .reporting import fit_loglog_slope


# ----------------------------------------------------------------------
# Resonance identity on the interaction hyperplane
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ResonancePoint:
    """Three frequency-modulation triples on the hyperplane
    sum xi = sum eta = sum tau = 0, all xi nonzero."""

    xi: tuple
    eta: tuple    # three pairs
    tau: tuple

    def __post_init__(self):
        if any(x == 0 for x in self.xi):
            raise DomainError("resonance point has a zero xi component")
        if abs(sum(self.xi)) > 1e-12 * max(abs(x) for x in self.xi):
            raise ConfigurationError("xi components must sum to zero")
        for d in (0, 1):
            tot = sum(e[d] for e in self.eta)
            scale = max(abs(e[d]) for e in self.eta) or 1.0
            if abs(tot) > 1e-12 * scale:
                raise ConfigurationError("eta components must sum to zero")
        scale = max(abs(t) for t in self.tau) or 1.0
        if abs(sum(self.tau)) > 1e-12 * scale:
            raise ConfigurationError("tau components must sum to zero")


def resonance_identity_defect(p: ResonancePoint) -> float:
    """|LHS - RHS| / max-term of

        sum_i (tau_i - w_i)  =  -3 xi1 xi2 xi3 - (xi1 xi2 / xi3) |eta1/xi1 - eta2/xi2|^2

    on the hyperplane.  Returns the relative defect.
    """
    x1, x2, x3 = p.xi
    e1, e2, _ = p.eta
    lhs = sum(t - dispersion_symbol(x, e) for t, x, e in zip(p.tau, p.xi, p.eta))
    ds0 = e1[0] / x1 - e2[0] / x2
    ds1 = e1[1] / x1 - e2[1] / x2
    rhs = -3.0 * x1 * x2 * x3 - (x1 * x2 / x3) * (ds0 * ds0 + ds1 * ds1)
    scale = max(abs(lhs), abs(rhs),
                abs(3.0 * x1 * x2 * x3), abs((x1 * x2 / x3) * (ds0 ** 2 + ds1 ** 2)),
                *(abs(t) for t in p.tau),
                *(abs(dispersion_symbol(x, e)) for x, e in zip(p.xi, p.eta)), 1e-300)
    return abs(lhs - rhs) / scale


def random_resonance_point(rng: np.random.Generator, on_shell: bool = True) -> ResonancePoint:
    """Random hyperplane point with |xi_i| in [1/4, 8] (rejection on xi3)."""
    while True:
        x1 = rng.uniform(0.25, 8.0) * rng.choice((-1.0, 1.0))
        x2 = rng.uniform(0.25, 8.0) * rng.choice((-1.0, 1.0))
        x3 = -(x1 + x2)
        if 0.25 <= abs(x3) <= 8.0:
            break
    e1 = tuple(rng.uniform(-4, 4, 2))
    e2 = tuple(rng.uniform(-4, 4, 2))
    e3 = (-(e1[0] + e2[0]), -(e1[1] + e2[1]))
    if on_shell:
        t1 = dispersion_symbol(x1, e1)
        t2 = dispersion_symbol(x2, e2)
    else:
        t1, t2 = rng.uniform(-10, 10, 2)
    t3 = -(t1 + t2)
    return ResonancePoint((x1, x2, x3), (e1, e2, e3), (t1, t2, t3))


# ----------------------------------------------------------------------
# Circle measure of the phase-difference level set
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MeasureConfig:
    xi: float
    xi1: float
    xi2: float
    eta1: tuple
    eta2: tuple
    tau: float

    def __post_init__(self):
        if self.xi == self.xi1 or self.xi == self.xi2:
            raise DomainError("xi - xi1 and xi - xi2 must be nonzero")


@dataclass(frozen=True)
class LevelCircle:
    degenerate: bool
    center: tuple
    radius: float
    quad_coeff: float


def circle_level_set(c: MeasureConfig) -> LevelCircle:
    """Geometry of {eta : phi(xi-xi1, eta-eta1) - phi(xi-xi2, eta-eta2) = tau}."""
    a1 = c.xi - c.xi1
    a2 = c.xi - c.xi2
    q = 1.0 / a2 - 1.0 / a1
    if q == 0.0:
        return LevelCircle(True, (math.nan, math.nan), 0.0, 0.0)
    e1 = np.asarray(c.eta1, dtype=float)
    e2 = np.asarray(c.eta2, dtype=float)
    center = (e2 / a2 - e1 / a1) / q
    g0 = (dispersion_symbol(a1, center - e1)
          - dispersion_symbol(a2, center - e2)) - c.tau
    r2 = -g0 / q
    if r2 <= 0.0 or math.sqrt(r2) < 1e-8:
        return LevelCircle(True, tuple(center), max(r2, 0.0) ** 0.5, q)
    return LevelCircle(False, tuple(center), math.sqrt(r2), q)


def circle_measure_closed_form(c: MeasureConfig) -> float:
    """pi |xi-xi1||xi-xi2| / |xi2-xi1| when the level set is a circle, else 0."""
    geo = circle_level_set(c)
    if geo.degenerate:
        return 0.0
    return math.pi * abs(c.xi - c.xi1) * abs(c.xi - c.xi2) / abs(c.xi2 - c.xi1)


def circle_measure_integral(c: MeasureConfig):
    """Coarea quadrature of the delta measure over the level circle.

    The level-set function is treated as a black box: the radius is located
    by bisection along rays from the completed-square center and the coarea
    weight 1/|grad g| uses central finite differences.  4096 rays, refined
    once to 8192 when the two disagree.  Returns (value, LevelCircle);
    degenerate level sets return value 0.
    """
    geo = circle_level_set(c)
    if geo.degenerate:
        return 0.0, geo
    a1, a2 = c.xi - c.xi1, c.xi - c.xi2
    e1 = np.asarray(c.eta1, dtype=float)
    e2 = np.asarray(c.eta2, dtype=float)

    def g(h1, h2):
        return (dispersion_symbol(a1, (h1 - e1[0], h2 - e1[1]))
                - dispersion_symbol(a2, (h1 - e2[0], h2 - e2[1])) - c.tau)

    def quad(n):
        th = 2 * np.pi * np.arange(n) / n
        ct, st = np.cos(th), np.sin(th)
        # bisection refinement of the radius along each ray
        rlo = np.full(n, geo.radius * 0.5)
        rhi = np.full(n, geo.radius * 1.5)
        glo = g(geo.center[0] + rlo * ct, geo.center[1] + rlo * st)
        for _ in range(60):
            rm = 0.5 * (rlo + rhi)
            gm = g(geo.center[0] + rm * ct, geo.center[1] + rm * st)
            takes = (gm > 0) == (glo > 0)
            rlo = np.where(takes, rm, rlo)
            glo = np.where(takes, gm, glo)
            rhi = np.where(takes, rhi, rm)
        r = 0.5 * (rlo + rhi)
        h1 = geo.center[0] + r * ct
        h2 = geo.center[1] + r * st
        step = 1e-6 * max(1.0, geo.radius)
        dg1 = (g(h1 + step, h2) - g(h1 - step, h2)) / (2 * step)
        dg2 = (g(h1, h2 + step) - g(h1, h2 - step)) / (2 * step)
        grad = np.hypot(dg1, dg2)
        arc = np.hypot(np.diff(np.append(h1, h1[0])), np.diff(np.append(h2, h2[0])))
        return float(np.sum(arc / grad))

    val = quad(4096)
    val2 = quad(8192)
    if abs(val2 - val) > 1e-8 * max(abs(val), 1e-30):
        val = val2
    return val, geo


def random_measure_config(rng: np.random.Generator) -> MeasureConfig:
    """Admissible random config (level set a genuine circle)."""
    while True:
        xi = rng.uniform(-4, 4)
        xi1 = rng.uniform(-4, 4)
        xi2 = rng.uniform(-4, 4)
        if min(abs(xi - xi1), abs(xi - xi2), abs(xi1 - xi2)) < 0.2:
            continue
        eta1 = tuple(rng.uniform(-2, 2, 2))
        eta2 = tuple(rng.uniform(-2, 2, 2))
        probe = MeasureConfig(xi, xi1, xi2, eta1, eta2, 0.0)
        geo = circle_level_set(probe)
        radius = rng.uniform(0.3, 2.0)
        # retune tau for a circle of the chosen radius
        a1, a2 = xi - xi1, xi - xi2
        cvec = np.asarray(geo.center)
        g0 = (dispersion_symbol(a1, cvec - np.asarray(eta1))
              - dispersion_symbol(a2, cvec - np.asarray(eta2)))
        tau = g0 + geo.quad_coeff * radius ** 2
        cfg = MeasureConfig(xi, xi1, xi2, eta1, eta2, tau)
        if not circle_level_set(cfg).degenerate:
            return cfg


# ----------------------------------------------------------------------
# Roots of the fixed-slope phase section g_rho
# ----------------------------------------------------------------------

@dataclass
class SectionRootReport:
    roots: np.ndarray
    defects: np.ndarray

    @property
    def count(self) -> int:
        return int(self.roots.size)


def _g_rho(xi, xi1, xi2, deta, rho, tau):
    a = xi - xi1
    b = xi - xi2
    v0 = rho[0] * b + deta[0]
    v1 = rho[1] * b + deta[1]
    return a ** 3 - (v0 * v0 + v1 * v1) / a - b ** 3 + b * (rho[0] ** 2 + rho[1] ** 2) - tau


# The xi window of the section roots
_SECTION_WINDOW = (-64.0, 64.0)


def phase_difference_roots(xi1: float, xi2: float, deta, rho,
                           tau: float) -> SectionRootReport:
    """All real roots of the fixed-slope phase section g_rho(xi) = tau on
    `_SECTION_WINDOW` (at most 4), with a two-sided evaluation of the derivative
    identity |g'| = |3(xi-xi1)^2 - 3(xi-xi2)^2 + |slope difference|^2| at
    each root.

    Roots come from the cleared-denominator polynomial
        (xi-xi1)^4 - |rho (xi-xi2) + deta|^2 - (xi-xi2)^3 (xi-xi1)
            + (xi-xi1)(xi-xi2)|rho|^2 - tau (xi-xi1) = 0,
    followed by filtering of spurious roots at the xi = xi1 pole.
    """
    deta = np.asarray(deta, dtype=float)
    rho = np.asarray(rho, dtype=float)
    P = np.polynomial.Polynomial
    a = P([-xi1, 1.0])
    b = P([-xi2, 1.0])
    quad = (rho[0] * b + P([deta[0]])) ** 2 + (rho[1] * b + P([deta[1]])) ** 2
    poly = a ** 4 - quad - b ** 3 * a + a * b * float(rho @ rho) - tau * a
    coeffs = poly.coef
    nz = np.nonzero(np.abs(coeffs) > 1e-13 * max(np.max(np.abs(coeffs)), 1e-300))[0]
    if nz.size == 0:
        return SectionRootReport(np.array([]), np.array([]))
    poly = P(coeffs[: nz[-1] + 1])
    roots = poly.roots()
    real = roots[np.abs(roots.imag) < 1e-8 * np.maximum(1.0, np.abs(roots.real))].real
    lo, hi = _SECTION_WINDOW
    real = real[(real >= lo) & (real <= hi)]
    real = real[np.abs(real - xi1) > 1e-6]   # clear of the pole
    real = np.unique(np.round(real, 10))
    # confirm against the section itself; reject spurious cleared-denominator roots
    keep = []
    scale = max(abs(tau), 1.0)
    for r in real:
        val = _g_rho(r, xi1, xi2, deta, rho, tau)
        dval = _g_rho_prime_raw(r, xi1, xi2, deta, rho)
        if abs(val) <= 1e-6 * max(scale, abs(dval) * max(abs(r), 1.0), 1.0):
            keep.append(r)
        else:
            raise KplabError(
                f"root finder non-convergence near xi={r:.6g}: residual {val:.3e}; "
                f"bracket data: g({r - 1e-3:.6g})={_g_rho(r - 1e-3, xi1, xi2, deta, rho, tau):.3e}, "
                f"g({r + 1e-3:.6g})={_g_rho(r + 1e-3, xi1, xi2, deta, rho, tau):.3e}")
    roots = np.asarray(keep)
    lhs = np.abs([_g_rho_prime_raw(r, xi1, xi2, deta, rho) for r in roots])
    rhs = np.abs([_g_rho_prime_slope_form(r, xi1, xi2, deta, rho) for r in roots])
    scale = np.maximum(np.maximum(lhs, rhs), 1e-300)
    defects = np.abs(lhs - rhs) / scale
    return SectionRootReport(roots, defects)


def _g_rho_prime_raw(xi, xi1, xi2, deta, rho):
    """d/dxi of the section, term by term (the unsimplified expression)."""
    a = xi - xi1
    b = xi - xi2
    v = rho * b + deta
    return (3 * a ** 2 - 2 * (rho @ v) / a + (v @ v) / a ** 2
            - 3 * b ** 2 + rho @ rho)


def _g_rho_prime_slope_form(xi, xi1, xi2, deta, rho):
    """The simplified slope-difference form of the same derivative."""
    a = xi - xi1
    b = xi - xi2
    w = (rho * b + deta) / a - rho  # (eta-eta1)/(xi-xi1) - (eta-eta2)/(xi-xi2)
    return 3 * a ** 2 - 3 * b ** 2 + w @ w


# ----------------------------------------------------------------------
# Strichartz ratios
# ----------------------------------------------------------------------

def strichartz_exponent(p: float, q: float, family: str = "auto") -> float:
    """The |D_x| exponent for an admissible space-time pair.

    family "auto" accepts pairs on either admissible line and raises for
    anything else; family "scaling" accepts any pair with the dilation-forced
    exponent s = 5/2 - 5/q - 3/p (which reduces to the line values).
    """
    if family == "scaling":
        return 2.5 - 5.0 / q - 3.0 / p
    if family == "auto" and abs(2.0 / p + 3.0 / q - 1.5) < 1e-9:
        return 1.0 / (3.0 * p)
    if family == "auto" and abs(1.0 / p + 1.0 / q - 0.5) < 1e-9:
        return 2.0 / p
    raise PreconditionError(
        f"(p={p}, q={q}) is inadmissible; the two admissible lines are "
        "2/p + 3/q = 3/2 (x-derivative gain 1/(3p)) and "
        "1/p + 1/q = 1/2 (x-derivative gain 2/p)")


def _flow_samples(u0: SpectralField, times, m: int, shift: int):
    """Physical samples of the linear flow S(t) u0 on an m-point x-grid, one
    array per time (lazy).

    A real field is checked for Hermitian symmetry once, on the call, so the
    two fields of a product are both checked before either holds a sample.
    The phase and the eta1 transform run on the occupied x-planes only (FFT
    pruning); plane kx goes to row (kx - shift) mod m of one zero buffer for
    the x transform.
    - shift = 0 samples the whole real field from its eta2 half spectrum
      (k2 <= n2/2), with a real eta2 transform after the x transform; it
      needs m above twice the field's top |kx| (m = nx is the full grid).
    - shift > 0 samples its one-sided part u0+ (the planes kx > 0, none below
      shift) demodulated by shift, exp(-i shift dxi x) S(t) u0+, as complex
      samples: a full complex eta2 transform, pruned like the eta1 one.
    A field not marked real keeps the full complex path and its real part,
    on the full grid.
    """
    if not u0.real_flag:
        return (inverse_transform(apply_linear_propagator(u0, t)) for t in times)
    u0.validate()
    n2 = u0.grid.modes_y2
    k2 = n2 if shift else n2 // 2 + 1
    kx = u0.grid.mode_numbers(0)
    c = u0.coeff[:, :, :k2]
    occupied = c.any(axis=(1, 2))
    if shift:
        occupied &= kx > 0
    planes = np.flatnonzero(occupied)
    c = c[planes]
    phase = grid_geometry(u0.grid).phase
    rows = (kx[planes] - shift) % m
    buf = np.zeros((m, u0.grid.modes_y1, k2), complex)
    axes = (1, 2) if shift else (1,)

    def sample(t):
        # norm="forward" leaves the inverse transforms unscaled: ifftn(coeff) * N
        buf[rows] = np.fft.ifftn(c * phase(t, planes, k2=slice(k2)), axes=axes, norm="forward")
        x = np.fft.ifft(buf, axis=0, norm="forward")
        return x if shift else np.fft.irfft(x, n=n2, axis=2, norm="forward")
    return map(sample, times)


def strichartz_ratio(u0: SpectralField, p: float, q: float, T: float,
                     family: str = "auto", n_time: int = 96) -> float:
    """|| S(t) u0 ||_{L^p_t L^q_{xy}} / || |D_x|^s u0 ||_{L^2} on [0, T]."""
    if u0.l2_norm() == 0.0:
        raise PreconditionError("u0 must be nonzero")
    s = strichartz_exponent(p, q, family)
    g = u0.grid
    xi = np.abs(grid_geometry(g).xi)
    wgt = np.where(xi > 0, xi, 1.0) ** s
    denom = math.sqrt(g.volume * float(np.sum((wgt * np.abs(u0.coeff)) ** 2)))
    dV = g.volume / u0.coeff.size
    dt = T / n_time
    times = (np.arange(n_time) + 0.5) * dt  # midpoint rule in t
    vals = np.array([_lp_reduce(np.abs(ph).ravel(), q, dV)
                     for ph in _flow_samples(u0, times, g.modes_x, 0)])
    return float(_lp_reduce(vals, p, dt)) / denom


# ----------------------------------------------------------------------
# Bilinear low x high ratio and sweeps
# ----------------------------------------------------------------------

@dataclass
class SlopeReport:
    xs: np.ndarray
    values: np.ndarray
    slope: float
    per_seed: np.ndarray


def _ensemble_slope(xs, ensemble_size: int, seed: int, draw,
                    threads: int) -> SlopeReport:
    """Per sweep point i, the mean over members m of draw(i, rng) with the
    member stream member_rng(seed, i * ensemble_size + m); and the fitted
    log2-log2 slope of the means against xs.  threads > 1 draws the members
    on a thread pool."""
    jobs = [(i, m) for i in range(len(xs)) for m in range(ensemble_size)]

    def member(job):
        i, m = job
        return draw(i, member_rng(seed, i * ensemble_size + m))

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            vals = list(pool.map(member, jobs))
    else:
        vals = [member(j) for j in jobs]
    per_seed = np.array(vals, dtype=float).reshape(len(xs), ensemble_size)
    means = per_seed.mean(axis=1)
    return SlopeReport(xs, means, fit_loglog_slope(xs, means), per_seed)


def bilinear_lowhigh_ratio_transient(u0: SpectralField, v0: SpectralField,
                                     T: float) -> float:
    """|| u v ||_{L^2_{t,x,y}} / (||u0|| ||v0||) for the linear waves u, v of
    the real low and high data u0, v0, on a log-spaced time grid resolving
    the overlap transient.

    The product of two coherent packets decays on a timescale set by their
    relative group velocity; geometric sampling captures every scale of the
    decay with few transforms: the trapezoid rule on t = 0 and 17 geometric
    times from 2e-3 T to T, a grid that dilates with T.

    The product is computed on its own x-band.  With v+ the xi > 0 half of v,
    uv = 2 Re(u v+); when u's top |xi| plane a lies below v's lowest xi plane
    b, u v+ has a one-sided x-spectrum (the analytic signal; Gabor, J. IEE
    93, 1946), so ||uv||^2 = 2 ||u v+||^2 exactly.  v+ demodulated by b makes
    u v+ span the B = (top - b) + 2a + 1 planes from -a to top - b + a, which
    an M = B point x-grid holds with no wrap (Parseval): the sum is
    2 |u w|^2 V / (M n1 n2).  The eta axes are sampled, and wrap, as on the
    full grid.  A pair with a >= b is refused, never approximated.
    """
    nu, nv = u0.l2_norm(), v0.l2_norm()
    if nu == 0.0 or nv == 0.0:
        return 0.0
    if not (u0.real_flag and v0.real_flag):
        raise PreconditionError("the low x high product needs real fields")
    g = u0.grid
    kx = g.mode_numbers(0)
    a = np.abs(kx[u0.coeff.any(axis=(1, 2))]).max()
    kv = kx[v0.coeff.any(axis=(1, 2)) & (kx > 0)]   # ascending: FFT order
    if not kv.size or a >= kv[0]:
        raise PreconditionError(
            f"low x high bands overlap or touch: the low field's top |xi| plane ({a}) "
            "must lie below the high field's lowest xi > 0 plane")
    b, top = int(kv[0]), int(kv[-1])
    m = int(top - b + 2 * a + 1)
    ts = np.concatenate([[0.0], np.geomspace(2e-3 * T, T, 17)])
    dV = 2.0 * g.volume / (m * g.modes_y1 * g.modes_y2)

    def sq(pu, pw):
        # pu is real, so |pu pw|^2 = (pu pw.real)^2 + (pu pw.imag)^2 in real arithmetic
        re, im = pu * pw.real, pu * pw.imag
        re *= re
        im *= im
        re += im
        return np.sum(re) * dV

    # map, not a loop over zip: no sample of the previous time stays alive
    # while the next pair is transformed
    vals = map(sq, _flow_samples(u0, ts, m, 0), _flow_samples(v0, ts, m, b))
    return math.sqrt(float(np.trapezoid(np.fromiter(vals, float, ts.size), ts))) / (nu * nv)


def _cap_field(grid, planes, prof) -> SpectralField:
    """The real field (p + conj(p(-k))) / 2 of a profile p given on the
    x-planes `planes`, all with xi > 0: p / 2 and its conjugate mirror
    written into one zero array, Nyquist entries zero (make_field's
    hermitize, without its full-grid profile, copy and average)."""
    geo = grid_geometry(grid)
    half = np.where(geo.structural[planes], 0.5 * prof, 0.0)
    c = np.zeros(grid.shape, complex)
    c[planes] = half
    rx, r1, r2 = geo.reverse
    c[rx[planes], r1, r2] = np.conjugate(half)
    return SpectralField(grid, c, real_flag=True)


def coherent_low_cap(grid, mu: float, slope_center,
                     phase: complex = 1.0) -> SpectralField:
    """Smooth constant-phase cap supported in 0 < xi <= mu with slopes in a
    fixed box of width 0.75: the sector-respecting family that saturates the
    low-frequency gain (transverse extent scales with mu automatically)."""
    geo = grid_geometry(grid)
    xi = geo.xi[:, 0, 0]
    planes = np.flatnonzero((xi > 0) & (xi <= mu))
    xi = geo.xi[planes]
    prof = (np.exp(-((xi - 0.6 * mu) ** 2) / (2 * (0.22 * mu) ** 2))
            * np.exp(-((geo.s1[planes] - slope_center[0]) ** 2
                       + (geo.s2[planes] - slope_center[1]) ** 2)
                     / (2 * (0.75 / 2) ** 2)))
    return _cap_field(grid, planes, prof * phase)


def coherent_high_cap(grid, lam: float, width: float, eta_center) -> SpectralField:
    """Smooth constant-phase cap supported in lam < xi <= lam + width, with
    transverse half-width 1 about eta_center."""
    geo = grid_geometry(grid)
    xi = geo.xi[:, 0, 0]
    planes = np.flatnonzero((xi > lam) & (xi <= lam + width))
    xi = geo.xi[planes]
    prof = (np.exp(-((xi - (lam + width / 2)) ** 2) / (2 * (0.3 * width) ** 2))
            * np.exp(-((geo.eta1 - eta_center[0]) ** 2 + (geo.eta2 - eta_center[1]) ** 2)
                     / (2 * (1.0 / 2) ** 2)))
    return _cap_field(grid, planes, prof)


def bilinear_mu_sweep(mus, lam: float, ensemble_size: int, T: float,
                      grid, seed: int = 0, threads: int = 1) -> SlopeReport:
    """Fitted log2-log2 slope of the low-frequency gain: expected near 1.

    The ensemble draws randomized coherent caps (random slope/transverse
    centers and global phase, i.e. the symmetry orbit of the extremizing
    family).  Independent-phase data are deliberately not used: their
    product norm is the decorrelated lattice floor ~ sqrt(T/V), flat in mu,
    and blind to the transversality gain under test.
    """
    mus = sorted(mus)
    if mus[-1] > lam:
        raise PreconditionError("mu sweep requires mu <= lam (low x high bands)")
    if lam + 2.0 + mus[-1] > grid.xi_max():
        raise ConfigurationError("high band plus products do not fit on this grid")

    def draw(im, rng):
        cs = rng.uniform(-0.2, 0.2, 2)
        ec = rng.uniform(-0.2, 0.2, 2)
        ph = np.exp(1j * rng.uniform(0, 2 * np.pi))
        u0 = coherent_low_cap(grid, mus[im], cs, phase=ph)
        v0 = coherent_high_cap(grid, lam, 2.0, ec)
        return bilinear_lowhigh_ratio_transient(u0, v0, T)

    return _ensemble_slope(np.asarray(mus), ensemble_size, seed, draw, threads)


# ----------------------------------------------------------------------
# Sector bilinear estimate (weighted convolution, sparse pair quadrature)
# ----------------------------------------------------------------------

@dataclass
class SparseWave:
    """Sparse mode list (xi, eta1, eta2, coefficient) for pair quadrature."""

    xi: np.ndarray
    eta1: np.ndarray
    eta2: np.ndarray
    coeff: np.ndarray

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.coeff) ** 2)))

    def omega(self) -> np.ndarray:
        return dispersion_symbol(self.xi, (self.eta1, self.eta2))


def random_sector_wave(rng, mu: float, gamma_center, gamma_side: float,
                       n_modes: int) -> SparseWave:
    """Random modes with mu/2 < xi <= mu and slopes in mu * Gamma-box."""
    xi = mu * rng.uniform(0.5, 1.0, n_modes)
    half = gamma_side / 2.0
    s1 = mu * (gamma_center[0] + rng.uniform(-half, half, n_modes))
    s2 = mu * (gamma_center[1] + rng.uniform(-half, half, n_modes))
    z = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
    return SparseWave(xi, s1 * xi, s2 * xi, z)


def weighted_pair_norm(u: SparseWave, v: SparseWave, lam: float, T: float) -> float:
    """L^2_t l^2_out norm of the weighted convolution

        sum_pairs (lam + |s1 - s2|) u-hat v-hat e^{i t (w1 + w2)}

    computed by direct frequency-pair quadrature with 16 midpoint time samples.

    Pairs whose sums coincide (after rounding to 1e-9) share one output, and
    only there do the time phases interfere.  The outputs are grouped by 1-D
    sorts of the rounded sums and of their rank codes, in the lexicographic
    order of `np.unique(keys, axis=0)` and without its sort of structured
    rows.  The continuous draws of `sector_gamma_sweep` give every pair its own output
    (61440 outputs for 384 x 160 pairs at seed 108), so there this norm equals
    sqrt(T * sum |amp|^2) to rounding and its |Gamma|-slope measures the
    weight lam + |s1 - s2| alone.
    """
    wu, wv = u.omega(), v.omega()
    # group output by the pair sums; accumulate weighted amplitudes per time
    tx = np.add.outer(u.xi, v.xi).ravel()
    t1 = np.add.outer(u.eta1, v.eta1).ravel()
    t2 = np.add.outer(u.eta2, v.eta2).ravel()
    s1d = np.subtract.outer(u.eta1 / u.xi, v.eta1 / v.xi).ravel()
    s2d = np.subtract.outer(u.eta2 / u.xi, v.eta2 / v.xi).ravel()
    wgt = lam + np.hypot(s1d, s2d)
    amp = np.multiply.outer(u.coeff, v.coeff).ravel() * wgt
    om = np.add.outer(wu, wv).ravel()
    # rank each rounded sum, and rank the mixed-radix code of the ranks so far:
    # codes below N^2 for N pairs, ordered as the rows of (tx, t1, t2)
    inverse = np.zeros(tx.size, dtype=np.intp)
    for k in (tx, t1, t2):
        vals, rank = np.unique(np.round(k, 9), return_inverse=True)
        vals, inverse = np.unique(inverse * vals.size + rank, return_inverse=True)
    nout = vals.size
    n_time = 16
    dt = T / n_time
    total = 0.0
    for i in range(n_time):
        t = (i + 0.5) * dt
        ph = amp * np.exp(1j * t * om)
        acc = np.zeros(nout, dtype=np.complex128)
        np.add.at(acc, inverse, ph)
        total += np.sum(np.abs(acc) ** 2) * dt
    return math.sqrt(total)


def check_sector_hypotheses(mu: float, lam: float, gamma_center,
                            gamma_side: float, v_eta_min: float) -> None:
    """Raise PreconditionError naming the violated support clause."""
    if mu <= lam / 8:
        return
    if mu <= lam:
        ext = max(abs(gamma_center[0]), abs(gamma_center[1])) + gamma_side / 2
        if ext > lam:
            raise PreconditionError(
                "support hypothesis violated: lam/8 < mu <= lam requires the "
                "slope box inside the radius-lam ball")
        if v_eta_min < 10 * lam ** 2:
            raise PreconditionError(
                "support hypothesis violated: the high-frequency factor must "
                "avoid |eta| <= 10 lam^2 when lam/8 < mu <= lam")
        return
    raise PreconditionError("support hypothesis violated: mu must be <= lam")


def sector_gamma_sweep(sides, mu: float, lam: float, ensemble_size: int,
                       T: float, seed: int = 0) -> SlopeReport:
    """|Gamma|-sweep of the weighted product norm; expected slope 1/2.

    Each sweep point draws u (384 modes) supported in slopes mu*Gamma (Gamma
    a centered square of the given side) and a fixed-band high-frequency v
    (160 modes); the report fits log2 ||weighted conv|| / (||u0|| ||v0||)
    against log2 |Gamma|.
    """
    sides = sorted(sides)
    for side in sides:
        # the drawn high-frequency waves carry no modulation exclusion
        check_sector_hypotheses(mu, lam, (0.0, 0.0), side, 0.0)

    def draw(i, rng):
        u = random_sector_wave(rng, mu, (0.0, 0.0), sides[i], 384)
        # xi in (lam, 2 lam]
        v = random_sector_wave(rng, 2 * lam, (0.0, 0.0), 0.25, 160)
        return weighted_pair_norm(u, v, lam, T) / (u.l2_norm() * v.l2_norm())

    areas = np.array([s * s for s in sides], dtype=float)
    return _ensemble_slope(areas, ensemble_size, seed, draw, 1)
