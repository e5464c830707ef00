"""Numerical witnesses for the relation of the anisotropic spaces to test
functions and distributions: sector-sum decay of smooth data, the bounded
sequence that diverges as distributions, and the zero-x-mean dichotomy.

Smooth data are modeled by Gaussians: sector masses have closed transverse
integrals (erf windows) and reduce to one-dimensional quadratures, so the
shells can run over many octaves with no lattice.  Sector sums use the
exact lattice enumeration when the sector count is small and the slope
integral (Poisson summation; corrections exponentially small) when it is
astronomically large.

Measured small-lambda exponents for a Gaussian with nonzero x-mean:

    (sum_k mass^p)^{1/p} ~ lam^{5/2 - 4/p},   partial value ~ lam^{3 - 4/p},

which vanishes at p = 4/3 (the embedding threshold); at p = 2 the bare-sum
exponent equals the classical 3/2 - 2/p = 1/2.  For the x-mean-zero
derivative datum the partial value stays bounded as lam -> 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy.special import erf

from .decomposition import _gl_nodes, _lp_reduce
from .errors import ConfigurationError
from .reporting import fit_loglog_slope
from .spectral import require_power_of_two


@dataclass(frozen=True)
class AnalyticDatum:
    """Closed-form spectral datum for the lattice-free experiments, the unit
    Gaussian or its x-derivative:

        coeff(xi, eta) = (i xi)^deriv_x * exp(-xi^2/2) * exp(-|eta|^2/2)
    """

    deriv_x: int = 0

    def __post_init__(self):
        if self.deriv_x not in (0, 1):
            raise ConfigurationError("deriv_x must be 0 or 1")


# ----------------------------------------------------------------------
# Gaussian sector machinery (transverse center 0, radial in the slope)
# ----------------------------------------------------------------------

def _xi_weight(d: AnalyticDatum, xi: np.ndarray) -> np.ndarray:
    w = 2.0 * np.exp(-xi ** 2)   # both signs of xi
    if d.deriv_x:
        w = w * xi ** 2
    return w


def _eta_window(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """integral of exp(-eta^2) over [lo, hi]."""
    return (math.sqrt(math.pi) / 2.0) * (erf(hi) - erf(lo))


def gaussian_sector_sum(d: AnalyticDatum, lam: float, p: float,
                        enumeration_limit: int = 300) -> float:
    """(sum over sectors of mass^{p/2})^{1/p} at shell lam.

    Slopes reach ~6 / lam, i.e. sector indices up to ~6 / lam^2 per dim;
    beyond the enumeration limit the lattice sum is replaced by the slope
    integral (radial, one-dimensional).
    """
    m_max = int(math.ceil(6.0 / lam ** 2)) + 1
    xi, wxi = _gl_nodes(np.polynomial.legendre.leggauss(48), lam, 2.0 * lam)
    base = 2.0 * wxi * _xi_weight(d, xi)
    if m_max <= enumeration_limit:
        ms = np.arange(-m_max, m_max + 1)
        G = _eta_window(np.outer(xi * lam, ms - 0.5),
                        np.outer(xi * lam, ms + 0.5))       # (n_xi, n_m)
        M = (G * base[:, None]).T @ G                       # (n_m, n_m) masses
        return float(_lp_reduce(np.sqrt(np.maximum(M, 0.0)).ravel(), p))
    # slope-integral route in v = slope/lam: masses are separable windows, not
    # radial, so each ring of radius v averages rays of one octant
    v, wv = _gl_nodes(np.polynomial.legendre.leggauss(160), 0.0, 8.0 / lam ** 2)
    nang = 8
    angs = (np.arange(nang) + 0.5) * (math.pi / 4) / nang
    a1, a2 = (_eta_window(xi * lam * (c - 0.5), xi * lam * (c + 0.5))
              for c in (v[:, None, None] * f(angs)[:, None] for f in (np.cos, np.sin)))
    mass = np.sum(base * a1 * a2, axis=-1)                  # (n_v, nang)
    ring = np.repeat(wv * 2.0 * math.pi * v / nang, nang)
    return float(_lp_reduce(np.sqrt(mass).ravel(), p, ring))


# ----------------------------------------------------------------------
# Operations
# ----------------------------------------------------------------------

@dataclass
class DecayTable:
    lams: np.ndarray
    values: np.ndarray
    low_slope: float


def sector_sum_decay(d: AnalyticDatum, p: float, lam_lo: float = 2.0 ** -7,
                     lam_hi: float = 16.0) -> DecayTable:
    """Per-shell table of (sum_k mass^{p/2})^{1/p} with low-lambda slope fit.

    The fit uses the 4 smallest shells; the measured law predicts the slope
    5/2 - 4/p (+1 per x-derivative), which at p = 2 equals the classical
    3/2 - 2/p.
    """
    jlo = require_power_of_two(lam_lo, "lam_lo")
    jhi = require_power_of_two(lam_hi, "lam_hi")
    lams = np.array([2.0 ** j for j in range(jlo, jhi + 1)])
    vals = np.array([gaussian_sector_sum(d, l, p) for l in lams])
    if not np.all(vals[:4] > 0):
        raise ConfigurationError(f"p = {p:g} is too large: the sector sums of the "
                                 "fitted shells underflow to 0")
    low = fit_loglog_slope(lams[:4], vals[:4])
    return DecayTable(lams, vals, low)


@dataclass
class DichotomyReport:
    lams: np.ndarray
    sum_slope: float               # slope of the bare sector sum
    partial_slope: float           # slope of the partial value
    divergent: bool                # partial values blow up as lam -> 0


def zero_mean_blowup(d: AnalyticDatum, p: float) -> DichotomyReport:
    """Partial values lam^{1/2} (sum_k mass^{p/2})^{1/p} as lam -> 0, on the
    shells 2^-7 .. 2^-1.

    A negative fitted partial slope certifies divergence (possible only for
    p < 4/3 when the x-mean is nonzero); x-mean-zero derivative data stay
    bounded.
    """
    table = sector_sum_decay(d, p, 2.0 ** -7, 2.0 ** -1)
    partial = np.sqrt(table.lams) * table.values
    pslope = fit_loglog_slope(table.lams[:4], partial[:4])
    return DichotomyReport(table.lams, table.low_slope, pslope,
                           divergent=pslope < -0.05)


# ----------------------------------------------------------------------
# The bounded-but-distribution-divergent comb
# ----------------------------------------------------------------------

def _bump_1d(x: np.ndarray) -> np.ndarray:
    """Even C^2 low-pass profile: 1 on |x|<=1, quintic ramp to 0 at |x|=2."""
    t = np.clip(np.abs(x) - 1.0, 0.0, 1.0)
    return 1.0 - t ** 3 * (10.0 + t * (-15.0 + 6.0 * t))


def comb_shell_value(lam: float) -> float:
    """lam^{1/2} ||f_lam||_2 for the comb layer f_lam-hat = lam^{-1} 1_shell g.

    With the normalized transverse profile this is exactly sqrt(2)*||g|| = 1.
    """
    return math.sqrt(lam) * (1.0 / lam) * math.sqrt(2.0 * lam) * math.sqrt(0.5)


def comb_norm(mu: float, p: float) -> float:
    """l^p l^2 L^2-analogue norm of the comb phi_mu (closed form); a comb
    whose innermost shell mu^2 lies below 2^-80 is refused."""
    a = -require_power_of_two(mu, "mu")
    if mu ** 2 < 2.0 ** -80:
        raise ConfigurationError(
            f"mu^2 = {mu**2:.3e} below the shell floor {2.0 ** -80:.3e}")
    count = a + 1   # shells 2^-2a .. 2^-a
    weight = abs(math.log(mu)) ** (-1.0 / p)
    vals = np.full(count, comb_shell_value(1.0))    # scale-free: all equal 1
    return weight * float(_lp_reduce(vals, p))


@cache
def _pair_constant() -> float:
    """integral over R^2 of g(eta) * b(eta1) b(eta2) for the comb profile."""
    x = np.linspace(-2.0, 2.0, 4001)
    # g = c0 * exp(-|eta|^2 / 2) with c0 chosen so ||g||^2 = 1/2
    c0 = math.sqrt(0.5 / math.pi)
    one_d = np.trapezoid(np.exp(-x ** 2 / 2.0) * _bump_1d(x), x)
    return c0 * one_d ** 2


def comb_layer_pairing(lam: float) -> float:
    """<psi, f_lam> for one comb layer against the fixed low-pass test
    function psi-hat = b(xi) b(eta1) b(eta2): closed form 2 * pair constant
    for shells inside the psi plateau."""
    if 2 * lam <= 1.0:
        xi_part = 2.0   # lam^{-1} * (shell measure 2 lam)
    else:
        x = np.linspace(lam, 2 * lam, 2001)
        xi_part = 2.0 / lam * np.trapezoid(_bump_1d(x), x)
    return float(xi_part * _pair_constant())


def comb_pairing(mu: float) -> float:
    """<psi, phi_mu> without the log normalization applied by the caller."""
    a = -require_power_of_two(mu, "mu")
    lams = [2.0 ** (-j) for j in range(a, 2 * a + 1)]
    return float(sum(comb_layer_pairing(l) for l in lams))


@dataclass
class CombReport:
    mus: np.ndarray
    norms: np.ndarray
    pairings: np.ndarray
    growth_exponent: float      # predicted 1 - 1/p


def divergent_sequence_check(mu_list, p: float) -> CombReport:
    """Norms stay in a fixed band while the low-pass pairing grows like
    |ln mu|^{1 - 1/p} (flat at p = 1, the embedding endpoint)."""
    if p < 1.0:
        raise ConfigurationError("p must be >= 1")
    mus = np.asarray(sorted(mu_list, reverse=True), dtype=float)
    norms, pairings = [], []
    for mu in mus:
        norms.append(comb_norm(mu, p))
        pairings.append(abs(math.log(mu)) ** (-1.0 / p) * comb_pairing(mu))
    logs = np.abs(np.log(mus))
    if p == 1.0 and np.ptp(pairings) < 1e-9 * max(pairings):
        growth = 0.0
    else:
        growth = float(np.polyfit(np.log(logs), np.log(pairings), 1)[0])
    return CombReport(mus, np.asarray(norms), np.asarray(pairings), growth)
