"""Datum generators: Gaussian bumps, sector indicators, random band fields,
and the lattice rendition of the two-bump ill-posedness datum.

Gaussian data are defined by closed-form coefficient formulas, so the whole
dilation family h -> h^2 u(h x, h^2 y) is available analytically: the scale-h
coefficients are h^{-3} * base(xi/h, eta/h^2) evaluated on the lattice.
"""

from __future__ import annotations

import math

import numpy as np

from .decomposition import NormParams, lqlp_norm, sector_projection
from .errors import ConfigurationError
from .illposedness import IllposedParams, two_bump_datum
from .spectral import (GridSpec, SpectralField, grid_geometry, make_field,
                       require_power_of_two)

# counter-based generator so ensembles are order-independent; the key packs
# seed and member into 32 bits each, so each must lie in [0, 2^32)
def member_rng(run_seed: int, member: int) -> np.random.Generator:
    if not (0 <= run_seed < 2 ** 32 and 0 <= member < 2 ** 32):
        raise ConfigurationError(f"seed {run_seed} and member {member} must lie in [0, 2^32)")
    return np.random.Generator(np.random.Philox(key=(np.uint64(run_seed) << np.uint64(32))
                                                + np.uint64(member)))


def gaussian_datum(grid: GridSpec, amplitude: float = 1.0, scale: float = 1.0,
                   center_xi: float = 2.0, width_xi: float = 0.75,
                   width_eta: float = 0.75) -> SpectralField:
    """Real field with Gaussian coefficient profile around +-(center_xi, 0, 0).

    `scale` applies the exact dilation u -> scale^2 u(scale x, scale^2 y) to
    the base formula, evaluated in closed form on the lattice.
    """
    if center_xi == 0.0:
        raise ConfigurationError("center_xi must be nonzero (zero-x-mean fields)")
    h = scale
    try:   # h^2 lies between 1 and h^3, so a finite peak bounds both dilations
        peak = amplitude / h ** 3
    except (OverflowError, ZeroDivisionError):   # h^3 overflows or underflows to 0
        peak = math.inf
    if not math.isfinite(peak):
        raise ConfigurationError(f"scale={scale} is out of range: amplitude / scale^3 "
                                 "is not a finite double")
    geo = grid_geometry(grid)
    xi, e1, e2 = geo.xi / h, geo.eta1 / h ** 2, geo.eta2 / h ** 2
    with np.errstate(over="ignore"):   # a far lattice point squares to inf; exp(-inf) = 0
        prof = (np.exp(-((xi - center_xi) ** 2) / (2 * width_xi ** 2))
                * np.exp(-(e1 ** 2 + e2 ** 2) / (2 * width_eta ** 2)))
    coeff = peak * prof
    return make_field(grid, coeff)


def sector_indicator_datum(grid: GridSpec, lam: float, k=(0, 0),
                           amplitude: float = 1.0) -> SpectralField:
    """Indicator of one slope sector (both signs of xi, Hermitian): shell
    lam <= |xi| < 2 lam, slope box centred at lam * k."""
    j = require_power_of_two(lam, "sector scale lam")
    ones = SpectralField(grid, np.full(grid.shape, amplitude + 0.0j))
    coeff = sector_projection(ones, (j, *k)).coeff
    if not coeff.any():
        raise ConfigurationError(f"sector (lam={lam}, k={k}) does not meet the grid")
    return make_field(grid, coeff)


def random_band_field(grid: GridSpec, rng: np.random.Generator,
                      xi_lo: float, xi_hi: float,
                      eta_max: float | None = None) -> SpectralField:
    """Random real field with coefficients supported in xi_lo < |xi| <= xi_hi.

    Optional eta_max limits |eta_i|.  Coefficients are complex Gaussian,
    normalized to unit L^2 norm.
    """
    geo = grid_geometry(grid)
    xi = geo.xi
    sup = ((np.abs(xi) > xi_lo) & (np.abs(xi) <= xi_hi)
           & np.ones(grid.shape, dtype=bool))
    if eta_max is not None:
        sup &= (np.abs(geo.eta1) <= eta_max) & (np.abs(geo.eta2) <= eta_max)
    sup &= xi != 0
    if not sup.any():
        raise ConfigurationError("random band support is empty on this grid")
    z = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    f = make_field(grid, np.where(sup, z, 0.0))
    cur = f.l2_norm()
    if cur == 0.0:
        raise ConfigurationError("random band field degenerated to zero")
    return SpectralField(grid, f.coeff * (1.0 / cur), real_flag=True)


def scattering_datum(grid: GridSpec, rng: np.random.Generator,
                     lqlp_target: float, norm_params: NormParams) -> SpectralField:
    """Coherent broadband datum for asymptotic-state experiments.

    Envelope |xi| exp(-xi^2/2) vanishes linearly at low x-frequency (the
    datum is morally an x-derivative) and the slope profile is aligned, so
    pullback increments are dominated by interactions whose phase spread the
    grid resolves; amplitude jitter and the slope center are randomized.
    """
    geo = grid_geometry(grid)
    xi, s1, s2 = geo.xi, geo.s1, geo.s2
    cs = rng.uniform(-0.2, 0.2, 2)
    jitter = 1.0 + 0.2 * rng.standard_normal(grid.shape)
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
    env = (np.abs(xi) * np.exp(-xi ** 2 / 2.0)
           * np.exp(-((s1 - cs[0]) ** 2 + (s2 - cs[1]) ** 2) / (2 * 0.5 ** 2)))
    env = np.where(xi != 0, env, 0.0)
    f = make_field(grid, env * jitter * phase)
    n = lqlp_norm(f, norm_params)
    if n == 0.0:
        raise ConfigurationError("scattering datum degenerated to zero")
    return SpectralField(grid, f.coeff * (lqlp_target / n), real_flag=True)


def two_bump_lattice_datum(grid: GridSpec, ip: IllposedParams, p: float) -> SpectralField:
    """Lattice rendition of the boxes of `two_bump_datum(ip, p)`: each box's
    amplitude on the modes inside it (Hermitian mirror added)."""
    geo = grid_geometry(grid)
    xi, e1, e2 = geo.xi, geo.eta1, geo.eta2
    coeff = np.zeros(grid.shape, dtype=np.complex128)
    for box in two_bump_datum(ip, p):
        (xlo, xhi), (elo, ehi) = box.xi_range, box.eta_range
        inside = ((xi >= xlo) & (xi <= xhi) & (e1 >= elo) & (e1 <= ehi)
                  & (e2 >= elo) & (e2 <= ehi))
        if not inside.any():
            raise ConfigurationError(
                "two-bump boxes are off the representable frequency window")
        coeff += np.where(inside, box.amplitude + 0.0j, 0.0)
    # continuum spectral densities -> series coefficients on this lattice
    cell = grid.dxi * grid.deta1 * grid.deta2 / grid.volume
    return make_field(grid, coeff * np.sqrt(cell))
