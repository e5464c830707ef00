"""Two-bump datum, resonance function, the second Picard iterate of the
cross term, and the norm-growth sweep that rules out twice-differentiable
flow maps for p > 2.

Everything here works directly on frequency boxes with tensor quadrature:
the required xi-resolution (mu/4 = lam^-2/4 at lam = 64) is infeasible on a
full lattice, and the datum is a characteristic function, exact in box
arithmetic.  The cross term's anisotropic norm labels each quadrature node
with its sector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decomposition import _gl_nodes, _lqlp_reduce, _sector_sums
from .errors import (AccuracyError, ConfigurationError, DomainError,
                     PreconditionError)
from .reporting import fit_loglog_slope
from .solver import _composite_weights
from .spectral import dispersion_symbol, require_power_of_two, sector_key, sector_labels


@dataclass(frozen=True)
class IllposedParams:
    mu: float
    lam: float
    coupling: bool = True

    def __post_init__(self):
        require_power_of_two(self.mu, "mu")
        require_power_of_two(self.lam, "lam")
        if not (self.mu < 1 < self.lam):
            raise ConfigurationError("need mu << 1 << lam")
        # coarse doubles at lam corrupt the cross-term norms, not the route gap
        if math.ulp(self.lam) > 2.0 ** -16 * self.mu:
            raise ConfigurationError(f"double precision cannot resolve mu = {self.mu} "
                                     f"at lam = {self.lam}: need ulp(lam) <= 2^-16 mu")
        if self.coupling and not (0.5 <= self.mu * self.lam ** 2 <= 2.0):
            raise ConfigurationError(
                f"coupling requires mu*lam^2 in [1/2, 2], got {self.mu * self.lam ** 2}")


@dataclass(frozen=True)
class FrequencyBox:
    xi_range: tuple
    eta_range: tuple   # the same interval in both transverse dims
    amplitude: float

    def __post_init__(self):
        if not (self.xi_range[0] < self.xi_range[1]
                and self.eta_range[0] < self.eta_range[1]):
            raise ConfigurationError("frequency box ranges must be nonempty")
        if not (self.amplitude > 0):
            raise ConfigurationError("box amplitude must be positive")


def two_bump_datum(ip: IllposedParams, p: float) -> tuple:
    """The two bumps of the ill-posedness datum; p sets the first amplitude."""
    if not (1.0 < p < math.inf):
        raise ConfigurationError("p must lie in (1, inf)")
    mu, lam = ip.mu, ip.lam
    eta = (lam * mu / 2, 2 * lam * mu)
    box1 = FrequencyBox((mu / 2, mu), eta, mu ** -3 * (lam / mu) ** (-2.0 / p))
    box2 = FrequencyBox((lam + mu / 2, lam + mu), eta, mu ** -1.5 * lam ** -1.5)
    return box1, box2


# ----------------------------------------------------------------------
# Resonance function
# ----------------------------------------------------------------------

def _resonance_parts(xi, xi1):
    """A and B of resonance_function at (xi, xi1), refusing its poles."""
    if np.any(xi == 0) or np.any(xi1 == 0) or np.any(xi == xi1):
        raise DomainError("resonance function pole (xi, xi1, xi-xi1 must be nonzero)")
    return -3.0 * xi * xi1 * (xi - xi1), -(xi * xi1 / (xi - xi1))


def resonance_function(xi, xi1, eta, eta1):
    """R = A + B |eta/xi - eta1/xi1|^2, A = -3 xi xi1 (xi-xi1), B = -xi xi1/(xi-xi1),
    elementwise on broadcastable xi, xi1 and pairs eta, eta1."""
    A, B = _resonance_parts(xi, xi1)
    d0 = eta[0] / xi - eta1[0] / xi1
    d1 = eta[1] / xi - eta1[1] / xi1
    return A + B * (d0 * d0 + d1 * d1)


def sample_interaction_set(ip: IllposedParams, n: int, seed: int):
    """Uniform samples of the pair set A; returns (R values, lam^2 mu)."""
    rng = np.random.default_rng(seed)
    mu, lam = ip.mu, ip.lam
    xi1 = rng.uniform(mu / 2, mu, n)
    xi2 = rng.uniform(lam + mu / 2, lam + mu, n)
    e1 = rng.uniform(lam * mu / 2, 2 * lam * mu, (n, 2))
    e2 = rng.uniform(lam * mu / 2, 2 * lam * mu, (n, 2))
    eta = e1 + e2
    return resonance_function(xi1 + xi2, xi1, eta.T, e1.T), lam ** 2 * mu


# ----------------------------------------------------------------------
# Second Picard iterate of the cross term
# ----------------------------------------------------------------------

@dataclass
class CrossTermResult:
    xi_nodes: np.ndarray
    eta_nodes: np.ndarray
    weights: np.ndarray             # Gauss-Legendre cell weights of the nodes
    closed: np.ndarray              # (n_xi, n_eta, n_eta) complex
    rel_l2_gap: float


# Gauss-Legendre nodes per output axis and per pair axis of the closed and
# direct routes; composite-Simpson samples in s
_N_OUT, _N_PAIR, _N_PAIR_DIRECT, _N_SIMPSON = 8, 24, 18, 33


def second_picard_cross_term(ip: IllposedParams,
                             rel_tol: float = 0.05) -> CrossTermResult:
    """Sampled cross-term coefficient F3-hat(1, xi, eta) of unit-amplitude
    bumps by two routes.

    closed: analytic time factor (e^{iR}-1)/(iR), tensor Gauss-Legendre over
    the pair set A; per x-plane the phase factors per axis (one exp per
    (eta node, x, h) line), and the pairs i1 <= i2 give all values, which
    are symmetric in (i1, i2).  direct: composite-Simpson quadrature in s of
    the Duhamel integrand e^{i s R}, with factorized transverse sums on an
    independent pair quadrature.  A disagreement beyond rel_tol raises
    AccuracyError.
    """
    if not ip.coupling:
        raise PreconditionError("cross-term experiment requires the coupling flag")
    mu, lam = ip.mu, ip.lam
    out_rule = np.polynomial.legendre.leggauss(_N_OUT)
    xi_out, w_xi = _gl_nodes(out_rule, lam + mu, lam + 2 * mu)
    eta_out, w_eta = _gl_nodes(out_rule, lam * mu, 4 * lam * mu)
    # per output node, the interval of the first bump's frequency that puts
    # the second bump's at the node; one eta interval serves both dims
    x_lo = np.maximum(mu / 2, xi_out - lam - mu)
    x_hi = np.minimum(mu, xi_out - lam - mu / 2)
    e_lo = np.maximum(lam * mu / 2, eta_out - 2 * lam * mu)
    e_hi = np.minimum(2 * lam * mu, eta_out - lam * mu / 2)
    ixs, ies = np.flatnonzero(x_hi > x_lo), np.flatnonzero(e_hi > e_lo)

    def node_table(n_nodes):
        rule = np.polynomial.legendre.leggauss(n_nodes)
        return _gl_nodes(rule, x_lo, x_hi), _gl_nodes(rule, e_lo, e_hi)

    def closed_route():
        (x1, wx1), (h, wh) = node_table(_N_PAIR)
        vals = np.zeros((_N_OUT,) * 3, dtype=np.complex128)
        # work arrays reused at every output node: fresh per-node temporaries
        # make the allocator hand pages back and fault them in again
        R, ker = np.empty((_N_PAIR,) * 3), np.empty((_N_PAIR,) * 3, dtype=np.complex128)
        for ix in ixs:
            # on this plane R = A + B (D[i1] + D[i2]), formed as resonance_function
            # forms it, and e^{iR} = e^{iA} P[i1] P[i2] with P = e^{iBD}
            A, B = (c[:, None] for c in _resonance_parts(xi_out[ix], x1[ix]))
            D = {i: (eta_out[i] / xi_out[ix] - h[i][None, :] / x1[ix][:, None]) ** 2
                 for i in ies}
            P = {i: np.exp(1j * B * D[i]) for i in ies}
            eA = np.exp(1j * A)
            for n, i1 in enumerate(ies):
                eAP = eA * P[i1]
                for i2 in ies[n:]:      # one node table for both axes: vals is symmetric
                    np.add(D[i1][:, :, None], D[i2][:, None, :], out=R)
                    R *= B[:, :, None]
                    R += A[:, :, None]
                    np.multiply(eAP[:, :, None], P[i2][:, None, :], out=ker)
                    ker -= 1.0
                    ker /= R                    # i (e^{iR} - 1) / (iR); -i goes on the sum
                    np.copyto(ker, 1j, where=~(np.abs(R) > 1e-12))     # i times the limit 1
                    vals[ix, i1, i2] = vals[ix, i2, i1] = -1j * (
                        wx1[ix] @ np.dot(ker, wh[i2]) @ wh[i1])
        return vals

    def direct_route():
        (x1, wx1), (h, wh) = node_table(_N_PAIR_DIRECT)
        s_nodes = np.linspace(0.0, 1.0, _N_SIMPSON)
        sw = _composite_weights(_N_SIMPSON, 1.0 / (_N_SIMPSON - 1))
        vals = np.zeros((_N_OUT,) * 3, dtype=np.complex128)
        for ix in ixs:
            xo, xs = xi_out[ix], x1[ix]
            A = -3.0 * xo * xs * (xo - xs)                    # (nx,)
            B = -(xo * xs / (xo - xs))                        # (nx,)
            phase = np.exp(1j * s_nodes[:, None] * A[None, :])
            # transverse factor of one eta_out node, the same in both dims
            T = {}
            for i in ies:
                C = (eta_out[i] / xo - h[i][None, :] / xs[:, None]) ** 2   # (nx, nh)
                T[i] = np.einsum("h,sxh->sx", wh[i], np.exp(
                    1j * s_nodes[:, None, None] * B[None, :, None] * C[None]))
            for i1 in ies:
                for i2 in ies:
                    vals[ix, i1, i2] = np.einsum("s,x,sx->", sw, wx1[ix],
                                                 phase * T[i1] * T[i2])
        return vals

    def finish(vals):
        # -2 (second Gateaux derivative) * 2 (cross term) * i (d/dx)/i, at unit
        # bump amplitudes: the cross term is bilinear in them (cross_term_norm)
        xo = xi_out[:, None, None]
        return -4j * xo * np.exp(1j * dispersion_symbol(
            xo, (eta_out[None, :, None], eta_out[None, None, :]))) * vals

    closed = finish(closed_route())
    direct = finish(direct_route())

    W = w_xi[:, None, None] * w_eta[None, :, None] * w_eta[None, None, :]

    def l2(arr):
        return math.sqrt(float(np.sum(W * np.abs(arr) ** 2)))

    gap = l2(closed - direct) / max(l2(closed), 1e-300)
    if gap > rel_tol:
        raise AccuracyError(f"cross-term quadratures disagree by {gap:.2%}")
    return CrossTermResult(xi_out, eta_out, W, closed, gap)


def cross_term_norm(ip: IllposedParams, result: CrossTermResult, p: float) -> float:
    """l^infty l^p L^2 norm of the sampled cross term of the datum
    `two_bump_datum(ip, p)`: the unit-amplitude norm times amp1 * amp2.

    Sector addressing per quadrature node; for the sweep parameters the
    support lies in one shell and one sector, so this reduces to the
    lam^{1/2}-weighted L^2 mass, but mixed-sector supports are handled.
    """
    xo = result.xi_nodes[:, None, None]
    id1, id2, keys = sector_labels(*sector_key(xo, result.eta_nodes[None, :, None] / xo,
                                               result.eta_nodes[None, None, :] / xo))
    keys, sums = _sector_sums(keys, (id1 + id2).ravel(),
                              np.reshape(result.weights * np.abs(result.closed) ** 2, (1, -1)))
    box1, box2 = two_bump_datum(ip, p)
    return (box1.amplitude * box2.amplitude
            * float(_lqlp_reduce(keys[0], np.sqrt(sums), math.inf, p)[0]))


@dataclass
class GrowthReport:
    lams: np.ndarray
    mus: np.ndarray
    norms: np.ndarray
    gaps: np.ndarray
    slope: float
    predicted: float


def growth_sweeps(lams, ps) -> list:
    """One GrowthReport per p in ps: the fitted log2 slope of ||F3(1)||
    against lam with mu = lam^{-2}, predicted 3 - 6/p (growth for p > 2,
    flat at p = 2).  One quadrature per lam serves every p."""
    lams = sorted(lams)
    if len(lams) < 3:
        raise ConfigurationError("growth sweep needs at least 3 lam values")
    if not lams[0] > 1.0:   # before lam^-2 overflows for a tiny lam
        raise ConfigurationError(f"need mu << 1 << lam, got lam = {lams[0]}")
    ips = [IllposedParams(lam ** -2.0, lam) for lam in lams]
    for p in ps:                       # refuse a bad p before any quadrature
        two_bump_datum(ips[0], p)
    results = [second_picard_cross_term(ip) for ip in ips]
    norms = [np.array([cross_term_norm(ip, res, p) for ip, res in zip(ips, results)])
             for p in ps]
    return [GrowthReport(np.array(lams), np.array([ip.mu for ip in ips]), n,
                         np.array([res.rel_l2_gap for res in results]),
                         fit_loglog_slope(np.array(lams), n), 3.0 - 6.0 / p)
            for p, n in zip(ps, norms)]


def growth_sweep(lams, p: float) -> GrowthReport:
    return growth_sweeps(lams, [p])[0]
