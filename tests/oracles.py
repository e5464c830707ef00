"""Oracles only tests read: independent routes to what the package computes,
and function-space lemmas no production run needs.  Which test reads which:

* `omega` (the dispersion symbol on a grid): the phase tests of
  test_spectral_core and the linear-flow references of test_solver;
* `zero_field`, `forward_transform`, `mode` (a coefficient by its physical
  wavenumber): test_spectral_core's transforms, zero data in test_estimates,
  test_scattering and test_solver, and test_illposedness' lattice datum;
* `validate_full_grid`: test_spectral_core's check of the occupied-plane
  `SpectralField.validate`;
* `pocketfft_samples`: test_solver's reference for the right-hand side's
  matrix synthesis;
* `dyadic_range`, `dyadic_projection`: test_decomposition's shell and sector
  partitions, and test_spectral_core's grid checks;
* the windowed modulation layer (Hann taper) and the trace norms
  `l2_spacetime`, `u1_variation_norm`, `l1t_l2_norm`: test_decomposition's
  U^p/V^p lemma checks (Hadac, Herr and Koch, Ann. IHP 2009).  The modulation |tau - w| is taken circularly, mod the sampling band;
* `section_roots_by_scan`: test_estimates' section roots;
* `weighted_pair_norm_by_unique`: test_estimates' sort-based pair grouping;
* `gaussian_total_mass`: test_function_spaces' p = 2 sector sums;
* the frequency-box norms and `cross_term_support`: test_illposedness.
"""

import math

import numpy as np

from kplab.decomposition import (SpaceTimeTrace, _gl_nodes, _lp_reduce, _lqlp_reduce,
                                 pullback_states)
from kplab.errors import ConfigurationError, PreconditionError
from kplab.estimates import _SECTION_WINDOW, _g_rho, SparseWave
from kplab.function_spaces import _xi_weight
from kplab.spectral import SpectralField, dyadic_exponent, grid_geometry, sector_key


def omega(grid) -> np.ndarray:
    """w = xi^3 - |eta|^2/xi on the grid's meshes, 0 on the xi = 0 plane."""
    geo = grid_geometry(grid)
    with np.errstate(divide="ignore", invalid="ignore"):   # exactly odd; xi ** 3 is not
        w = geo.xi * geo.xi * geo.xi - (geo.eta1 ** 2 + geo.eta2 ** 2) / geo.xi
    return np.where(geo.xi != 0, w, 0.0)


def zero_field(grid) -> SpectralField:
    return SpectralField(grid, np.zeros(grid.shape, dtype=np.complex128))


def validate_full_grid(u: SpectralField) -> None:
    """SpectralField.validate read on the whole grid, every plane."""
    c = u.coeff
    scale = float(np.max(np.abs(c)))   # NaN or inf iff some coefficient is
    if not math.isfinite(scale):
        raise ConfigurationError("non-finite coefficient present")
    if np.any(c[0, :, :] != 0):
        raise ConfigurationError("zero-x-mean invariant violated")
    geo = grid_geometry(u.grid)
    if np.any(c[~geo.structural] != 0):
        raise ConfigurationError("Nyquist-plane content present")
    if u.real_flag:
        defect = c - np.conjugate(c[geo.reverse])
        if np.max(np.abs(defect)) > 1e-12 * (scale or 1.0):
            raise ConfigurationError("Hermitian symmetry violated for real field")


def pocketfft_samples(grid, a: np.ndarray, box: tuple) -> np.ndarray:
    """The real samples of box coefficients a (any leading axes) by pocketfft
    alone, unscaled: the eta1 rows zero-padded and inverse transformed, then
    the x planes likewise, then the real eta2 transform of the box's k2
    columns, the route `solver._synthesize`'s matrix products replace."""
    nx, n1, n2 = grid.shape
    lead, m2 = a.shape[:-3], box[2].size
    rows = np.zeros(lead + (box[0].size, n1, m2), dtype=np.complex128)
    rows[..., box[1].ravel(), :] = a
    planes = np.zeros(lead + (nx, n1, m2), dtype=np.complex128)
    planes[..., box[0].ravel(), :, :] = np.fft.ifft(rows, axis=-2, norm="forward")
    xt = np.fft.ifft(planes, axis=-3, norm="forward")
    return np.fft.irfft(xt, n=n2, axis=-1, norm="forward")


def forward_transform(grid, samples) -> SpectralField:
    """Real samples on the space grid -> coefficients; enforces the zero-x-mean invariant."""
    c = np.fft.fftn(samples) / samples.size
    amp = np.max(np.abs(c)) or 1.0
    if np.max(np.abs(c[0, :, :])) > 1e-10 * amp:
        raise ConfigurationError("physical field has a nonzero x-mean")
    c[~grid_geometry(grid).structural] = 0.0
    return SpectralField(grid, c, True)


def mode(u: SpectralField, *wavenumber) -> complex:
    """Coefficient at a physical wavenumber (xi, eta1, eta2), which must lie on the lattice."""
    g, k = u.grid, []
    for value, delta, name in zip(wavenumber, (g.dxi, g.deta1, g.deta2), ("xi", "eta1", "eta2")):
        k.append(round(value / delta))
        if abs(value / delta - k[-1]) > 1e-9 * max(1.0, abs(value / delta)):
            raise ConfigurationError(f"{name}={value} is not on the lattice (spacing {delta})")
    index, inside = g.index(*k)
    if not inside:
        raise ConfigurationError(f"{wavenumber} outside representable range")
    return complex(u.coeff[index])


def dyadic_range(grid):
    """All dyadic scales lam = 2^j with a nonempty shell lam <= |xi| < 2lam."""
    jlo, jhi = (int(dyadic_exponent(x)) for x in (grid.dxi, grid.xi_max()))
    if jhi < jlo:
        raise ConfigurationError("grid has an empty dyadic range")
    return [2.0 ** j for j in range(jlo, jhi + 1)]


def dyadic_projection(u: SpectralField, lam: float) -> SpectralField:
    """Keep coefficients with lam <= |xi| < 2 lam."""
    xi = np.abs(grid_geometry(u.grid).xi)
    return SpectralField(u.grid, np.where((xi >= lam) & (xi < 2 * lam), u.coeff, 0.0),
                         u.real_flag)


def _dt(tr: SpaceTimeTrace) -> float:
    return float(tr.times[1] - tr.times[0])


def window_bandwidth(T: float) -> float:
    """Effective leakage width of the normalized Hann taper.

    The factor 32 is calibrated once against the leakage oracle (exact
    linear line, worst on/half-bin placement) so that the weighted leakage
    stays below 10% of bandwidth^b throughout b in [0.55, 1]."""
    return 32.0 * 2.0 * np.pi / T


def windowed_trace(tr: SpaceTimeTrace) -> SpaceTimeTrace:
    """The trace times the periodic Hann taper, scaled to dt * sum(w^2) = 1."""
    n = tr.times.size
    w = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(n) / n)
    w = w / math.sqrt(_dt(tr) * np.sum(w ** 2))
    return SpaceTimeTrace(tr.times.copy(), tr.coeff * w[:, None, None, None], tr.grid,
                          tr.real_flag)


def _windowed_dft(tr: SpaceTimeTrace):
    n, dt = tr.times.size, np.diff(tr.times)
    if np.max(np.abs(dt - dt[0])) > 1e-9 * dt[0]:
        raise PreconditionError("modulation analysis requires a uniform time grid")
    chat = np.fft.fft(windowed_trace(tr).coeff, axis=0) / math.sqrt(n)
    tau = 2 * np.pi * np.fft.fftfreq(n, dt[0])
    band = np.pi / dt[0]   # |tau - w| circularly, mod the sampling band
    dist = np.abs((tau[:, None, None, None] - omega(tr.grid)[None, ...] + band)
                  % (2 * band) - band)
    return chat, dist


def modulation_projection(tr: SpaceTimeTrace, Lam: float, side: str) -> SpaceTimeTrace:
    """Windowed projection to modulation |tau - w(xi,eta)| > Lam (above) or
    <= Lam (below).  above-part + below-part = windowed trace exactly."""
    assert side in ("above", "below")
    chat, dist = _windowed_dft(tr)
    mask = dist > Lam if side == "above" else dist <= Lam
    filt = np.fft.ifft(chat * mask, axis=0) * math.sqrt(tr.times.size)
    return SpaceTimeTrace(tr.times.copy(), filt, tr.grid, real_flag=False)


def modulation_weighted_norm(tr: SpaceTimeTrace, b: float) -> float:
    """Discrete || |tau - w|^b u-hat ||_{L^2} of the windowed trace.

    b = 0 reduces to the space-time L^2 norm of the windowed trace.
    """
    chat, dist = _windowed_dft(tr)
    total = np.sum(dist ** (2 * b) * np.abs(chat) ** 2)
    return float(np.sqrt(_dt(tr) * tr.grid.volume * total))


def l2_spacetime(tr: SpaceTimeTrace) -> float:
    """Discrete space-time L^2 norm (dt measure in time)."""
    return float(np.sqrt(_dt(tr) * tr.grid.volume * np.sum(np.abs(tr.coeff) ** 2)))


def u1_variation_norm(tr: SpaceTimeTrace) -> float:
    """One-variation of the pullback; the finest partition is maximal."""
    diffs = np.diff(pullback_states(tr).reshape(tr.times.size, -1), axis=0)
    return float(np.sum(np.sqrt(tr.grid.volume * np.sum(np.abs(diffs) ** 2, axis=1))))


def l1t_l2_norm(tr: SpaceTimeTrace) -> float:
    """Discrete L^1_t L^2_{xy} norm of a trace (dt measure)."""
    per_t = np.sqrt(tr.grid.volume * np.sum(np.abs(tr.coeff) ** 2, axis=(1, 2, 3)))
    return float(_dt(tr) * np.sum(per_t))


def section_roots_by_scan(xi1, xi2, deta, rho, tau):
    """Independent bracketing-scan oracle for the section roots."""
    xs = np.linspace(*_SECTION_WINDOW, 200000)
    xs = xs[np.abs(xs - xi1) > 1e-4]   # clear of the pole
    sign = np.sign(_g_rho(xs, xi1, xi2, deta, rho, tau))
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    lo, hi = xs[flips], xs[flips + 1]
    keep = ~((lo < xi1) & (xi1 < hi))   # no bracket across the pole
    lo, hi = lo[keep], hi[keep]
    flo = _g_rho(lo, xi1, xi2, deta, rho, tau)
    for _ in range(80):   # bisect every bracket at once
        mid = 0.5 * (lo + hi)
        fm = _g_rho(mid, xi1, xi2, deta, rho, tau)
        same = (fm > 0) == (flo > 0)
        lo, flo, hi = np.where(same, mid, lo), np.where(same, fm, flo), np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def weighted_pair_norm_by_unique(u: SparseWave, v: SparseWave, lam: float,
                                 T: float) -> float:
    """estimates.weighted_pair_norm with its outputs grouped by
    np.unique(keys, axis=0)."""
    tx = np.add.outer(u.xi, v.xi).ravel()
    t1 = np.add.outer(u.eta1, v.eta1).ravel()
    t2 = np.add.outer(u.eta2, v.eta2).ravel()
    s1d = np.subtract.outer(u.eta1 / u.xi, v.eta1 / v.xi).ravel()
    s2d = np.subtract.outer(u.eta2 / u.xi, v.eta2 / v.xi).ravel()
    amp = np.multiply.outer(u.coeff, v.coeff).ravel() * (lam + np.hypot(s1d, s2d))
    om = np.add.outer(u.omega(), v.omega()).ravel()
    keys = np.stack([np.round(tx, 9), np.round(t1, 9), np.round(t2, 9)], axis=1)
    _, inverse = np.unique(keys, axis=0, return_inverse=True)
    dt = T / 16
    total = 0.0
    for i in range(16):
        acc = np.zeros(int(inverse.max()) + 1, dtype=np.complex128)
        np.add.at(acc, inverse, amp * np.exp(1j * ((i + 0.5) * dt) * om))
        total += np.sum(np.abs(acc) ** 2) * dt
    return math.sqrt(total)


def gaussian_total_mass(d, lam: float) -> float:
    """||f_lam||_2^2: the shell mass without sector splitting."""
    xi, wxi = _gl_nodes(np.polynomial.legendre.leggauss(64), lam, 2.0 * lam)
    return float(2.0 * np.sum(wxi * _xi_weight(d, xi)) * math.sqrt(math.pi) ** 2)


def box_volume(box) -> float:
    de = box.eta_range[1] - box.eta_range[0]
    return (box.xi_range[1] - box.xi_range[0]) * de * de


def box_l2_norm(box) -> float:
    return box.amplitude * math.sqrt(box_volume(box))


def _shell_of_box(box) -> int:
    """Exponent j of the one dyadic shell 2^j <= xi < 2^(j+1) holding the box."""
    xlo, xhi = box.xi_range
    if xlo <= 0:
        raise ConfigurationError("expected a positive-xi box")
    j = int(dyadic_exponent(xlo))
    if xhi > 2.0 ** (j + 1) * (1 + 1e-12):
        raise ConfigurationError("box straddles a dyadic shell boundary")
    return j


def _box_sector_lp(box, p: float) -> float:
    """(sum over sectors of mass^{p/2})^{1/p} for one single-shell box: an exact
    enumeration (per-axis overlap of sector windows with the eta box) when the
    box meets few sectors; else the slope integral with lattice density
    1/lam^2 of mass(s1, s2) = amp^2 lam^2 int_{Xi(s1) ^ Xi(s2)} xi^2 dxi,
    exact at p = 2 and exponentially close in the sector count otherwise."""
    lam = 2.0 ** _shell_of_box(box)
    xlo, xhi = box.xi_range
    elo, ehi = box.eta_range
    slo, shi = elo / xhi, ehi / xlo
    _, m_lo, m_hi = (int(m) for m in sector_key(xlo, slo, shi))
    count = m_hi - m_lo + 1
    xi, wxi = _gl_nodes(np.polynomial.legendre.leggauss(64), xlo, xhi)
    if count <= 256:
        ms = np.arange(m_lo, m_hi + 1)
        lo = np.maximum(np.outer(xi, lam * (ms - 0.5)), elo)
        hi = np.minimum(np.outer(xi, lam * (ms + 0.5)), ehi)
        ov = np.maximum(hi - lo, 0.0)                       # (n_xi, n_m)
        mass = box.amplitude ** 2 * np.einsum("x,xa,xb->ab", wxi, ov, ov)
        return float(_lp_reduce(np.sqrt(mass).ravel(), p))
    # many sectors: slope-integral route
    s, ws = _gl_nodes(np.polynomial.legendre.leggauss(240), slo, shi)
    lo1 = np.maximum(xlo, elo / s)
    hi1 = np.minimum(xhi, ehi / s)
    lo, hi = np.maximum.outer(lo1, lo1), np.minimum.outer(hi1, hi1)
    integ = np.where(hi > lo, (hi ** 3 - lo ** 3) / 3.0, 0.0)
    mass = box.amplitude ** 2 * lam ** 2 * integ
    return float(_lp_reduce(np.sqrt(mass).ravel(), p, np.outer(ws, ws).ravel() / lam ** 2))


def box_lqlp_norm(boxes, q: float, p: float) -> float:
    """l^q l^p L^2 norm of a union of positive-xi single-shell boxes."""
    return float(_lqlp_reduce(np.array([_shell_of_box(b) for b in boxes]),
                              [_box_sector_lp(b, p) for b in boxes], q, p)[0])


def cross_term_support(ip):
    """xi-intervals of the three parts of u1^2 and their exact disjointness."""
    mu, lam = ip.mu, ip.lam
    f1, f2, f3 = (mu, 2 * mu), (2 * lam + mu, 2 * lam + 2 * mu), (lam + mu, lam + 2 * mu)
    return f1, f2, f3, all(a[1] < b[0] or b[1] < a[0] for a, b in ((f1, f3), (f3, f2), (f1, f2)))
