import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kplab.data import (gaussian_datum, member_rng, random_band_field,
                        sector_indicator_datum)
from kplab.errors import ConfigurationError, DomainError, PreconditionError
from kplab.function_spaces import comb_norm
from kplab.illposedness import IllposedParams
from kplab.solver import band_weight
from kplab.spectral import (GridSpec, SpectralField,
                            apply_linear_propagator, dispersion_symbol, galilean_boost,
                            galilean_lattice, galilean_shift, grid_geometry,
                            inverse_transform, make_field, read_snapshot,
                            require_power_of_two, scaling_transform, write_snapshot)
from oracles import (dyadic_range, forward_transform, mode, omega, validate_full_grid,
                     zero_field)


def test_gridspec_invariants():
    with pytest.raises(ConfigurationError):
        GridSpec(6, 16, 16, 1.0, 1.0, 1.0)      # too few modes
    with pytest.raises(ConfigurationError):
        GridSpec(16, 15, 16, 1.0, 1.0, 1.0)      # odd count
    with pytest.raises(ConfigurationError):
        GridSpec(16, 16, 16, -1.0, 1.0, 1.0)     # bad length
    with pytest.raises(ConfigurationError):
        GridSpec(16, 16, 16, np.inf, 1.0, 1.0)   # no frequency spacing
    # a top |xi|^3 that underflows to 0 or overflows, a top |eta|^2/|xi| that
    # overflows, a cell volume that overflows
    for lengths in ((1e300, 1.0, 1.0), (1e-300, 1.0, 1.0), (1.0, 1e-300, 1.0),
                    (1.0, 1.0, 1e-300), (1e200, 1e200, 1e200)):
        with pytest.raises(ConfigurationError, match="not a finite nonzero double"):
            GridSpec(16, 16, 16, *lengths)
    g = GridSpec(32, 16, 16, 2 * np.pi, np.pi, np.pi)
    assert dyadic_range(g)[0] <= g.dxi
    assert 2 * dyadic_range(g)[-1] > g.xi_max()
    # dxi = 2^-25, top |eta| = 4 / (1 +- 1e-12): lowest-shell sector index 2^52 (1 -+ 1e-12)
    below = GridSpec(8, 8, 8, 2 * np.pi * 2.0 ** 25, *[2 * np.pi * (1 + 1e-12)] * 2)
    with np.errstate(all="raise"):
        grid_geometry(below).sector
    for lengths in ((2 * np.pi * 2.0 ** 25, *[2 * np.pi * (1 - 1e-12)] * 2),
                    (2 * np.pi / 5e-109, 3e-99, 1.0)):   # an index that overflows
        with pytest.raises(ConfigurationError, match="reaches 2\\^52"):
            GridSpec(8, 8, 8, *lengths)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-3.0, 30.0), min_size=3, max_size=3),
       st.lists(st.integers(4, 16), min_size=3, max_size=3))
def test_accepted_grids_build_exact_sector_keys(exponents, halves):
    # log-uniform box lengths in [1e-3, 1e30]: a grid is refused, or its sector
    # labels build with no floating-point error
    try:
        g = GridSpec(*(2 * h for h in halves), *(10.0 ** e for e in exponents))
    except ConfigurationError:
        return
    with np.errstate(all="raise"):
        grid_geometry(g).sector


def test_grid_geometry_cache_is_bounded():
    maxsize = grid_geometry.cache_info().maxsize
    for n in range(maxsize + 2):
        grid_geometry(GridSpec(8, 8, 8, 1.0 + n, 1.0, 1.0))
    assert grid_geometry.cache_info().currsize <= maxsize


def test_zero_field_transforms(grid_small):
    z = zero_field(grid_small)
    assert forward_transform(grid_small, inverse_transform(z)).l2_norm() == 0.0


def test_cosine_two_modes(grid_small):
    x = np.arange(16) * 2 * np.pi / 16
    samples = np.cos(3 * x)[:, None, None] * np.ones((1, 16, 16))
    u = forward_transform(grid_small, samples)
    nz = np.abs(u.coeff) > 1e-12
    assert nz.sum() == 2
    assert mode(u, 3.0, 0.0, 0.0) == pytest.approx(0.5, abs=1e-12)
    assert mode(u, -3.0, 0.0, 0.0) == pytest.approx(0.5, abs=1e-12)
    # off the lattice, on a Nyquist plane, and beyond the grid
    for xi, eta1, eta2 in ((3.5, 0.0, 0.0), (3.0, 0.0, 1e-3), (8.0, 0.0, 0.0),
                           (-8.0, 0.0, 0.0), (3.0, -8.0, 0.0), (3.0, 0.0, 9.0)):
        with pytest.raises(ConfigurationError):
            mode(u, xi, eta1, eta2)


def test_roundtrip_and_parseval(grid_small, rng):
    u = random_band_field(grid_small, rng, 0.0, 6.0, eta_max=6.0)
    p = inverse_transform(u)
    u2 = forward_transform(grid_small, p)
    assert np.max(np.abs(u.coeff - u2.coeff)) <= 1e-12
    p_norm = math.sqrt(grid_small.volume / p.size * np.sum(p ** 2))
    assert abs(u.l2_norm() - p_norm) <= 1e-12 * u.l2_norm()


def test_forward_transform_rejects_nonzero_x_mean(grid_small):
    samples = np.ones(grid_small.shape)
    with pytest.raises(ConfigurationError):
        forward_transform(grid_small, samples)


def test_dispersion_symbol_values():
    assert dispersion_symbol(1.0, (0.0, 0.0)) == 1.0
    assert dispersion_symbol(2.0, (2.0, 0.0)) == 6.0
    assert dispersion_symbol(-1.0, (1.0, 1.0)) == 1.0
    with pytest.raises(DomainError):
        dispersion_symbol(0.0, (1.0, 0.0))
    # elementwise on arrays, refusing any xi = 0 entry
    xi = np.array([1.0, 2.0, -1.0])
    w = dispersion_symbol(xi, (np.array([0.0, 2.0, 1.0]), np.array([0.0, 0.0, 1.0])))
    assert np.array_equal(w, [1.0, 6.0, 1.0])
    with pytest.raises(DomainError):
        dispersion_symbol(np.array([1.0, 0.0]), (1.0, 0.0))


def test_propagator_identity_and_single_mode(grid_small):
    c = np.zeros(grid_small.shape, complex)
    c[2, 1, 0] = 1.0
    u = SpectralField(grid_small, c, real_flag=False)
    assert np.array_equal(apply_linear_propagator(u, 0.0).coeff, u.coeff)
    t = 0.731
    w = dispersion_symbol(2.0, (1.0, 0.0))
    got = apply_linear_propagator(u, t).coeff[2, 1, 0]
    assert got == pytest.approx(np.exp(1j * t * w), abs=1e-14)


@settings(max_examples=25, deadline=None)
@given(st.integers(4, 16), st.integers(4, 16), st.integers(4, 16),
       st.floats(0.25, 4.0), st.floats(0.25, 4.0), st.floats(0.25, 4.0))
def test_omega_is_exactly_odd(hx, h1, h2, lx, l1, l2):
    # omega(-k) = -omega(k) to the bit, so the flow keeps real fields Hermitian
    g = GridSpec(2 * hx, 2 * h1, 2 * h2, 2 * np.pi * lx, 2 * np.pi * l1,
                 2 * np.pi * l2)
    geo = grid_geometry(g)
    assert np.all((omega(g) + omega(g)[geo.reverse])[geo.structural] == 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 16), st.integers(4, 16), st.integers(4, 16),
       st.floats(0.25, 4.0), st.floats(0.25, 4.0), st.floats(0.25, 4.0),
       st.floats(-10.0, 10.0), st.data())
def test_factored_phase_is_the_flow_phase(hx, h1, h2, lx, l1, l2, t, data):
    # exp(i t xi^3) exp(-i t eta1 s1) exp(-i t eta2 s2) against exp(i t w) on
    # the structural modes, within 8 ulp of the arguments' size; Hermitian,
    # 1 at t = 0 and on any selection the same entries, all to the bit
    g = GridSpec(2 * hx, 2 * h1, 2 * h2, 2 * np.pi * lx, 2 * np.pi * l1,
                 2 * np.pi * l2)
    geo = grid_geometry(g)
    ph, on = geo.phase(t), geo.structural
    xi = np.abs(np.where(geo.xi != 0, geo.xi, 1.0))
    size = np.abs(t) * (xi ** 3 + (geo.eta1 ** 2 + geo.eta2 ** 2) / xi)
    gap = np.abs(ph - np.exp(1j * t * omega(g)))
    assert np.all((gap <= 8 * np.finfo(float).eps * np.maximum(1.0, size))[on])
    assert np.array_equal(ph[geo.reverse][on], np.conjugate(ph)[on])
    assert np.all(geo.phase(0.0) == 1.0)
    # the solver's box, and _flow_samples' occupied planes by eta2 half or all
    assert np.array_equal(geo.phase(t, *geo.box), ph[geo.box])
    planes = np.flatnonzero(data.draw(st.lists(st.booleans(), min_size=g.modes_x,
                                               max_size=g.modes_x)))
    for k2 in (g.modes_y2 // 2 + 1, g.modes_y2):
        assert np.array_equal(geo.phase(t, planes, k2=slice(k2)), ph[planes][:, :, :k2])
    ts = [t, 0.5 * t, -t]
    assert np.array_equal(geo.phase(ts), np.stack([geo.phase(s) for s in ts]))


@settings(max_examples=25, deadline=None)
@given(st.integers(4, 16), st.integers(4, 16), st.integers(4, 16),
       st.floats(0.25, 4.0), st.floats(0.25, 4.0), st.floats(0.25, 4.0))
def test_structural_mask_and_reverse_index(hx, h1, h2, lx, l1, l2):
    # structural = xi != 0 and no Nyquist index on any axis; reverse maps
    # mode number k to the index of -k, that is -k mod n, as an open mesh;
    # index inverts mode_numbers and marks the Nyquist indices outside
    g = GridSpec(2 * hx, 2 * h1, 2 * h2, 2 * np.pi * lx, 2 * np.pi * l1,
                 2 * np.pi * l2)
    geo = grid_geometry(g)
    ix = np.indices(g.shape)
    nyquist = (ix[0] == g.modes_x // 2) | (ix[1] == g.modes_y1 // 2) | (ix[2] == g.modes_y2 // 2)
    assert np.array_equal(geo.structural, (g.mode_numbers(0)[ix[0]] != 0) & ~nyquist)
    for a, n in enumerate(g.shape):
        assert geo.reverse[a].shape == tuple(n if b == a else 1 for b in range(3))
        assert np.array_equal(geo.reverse[a].ravel(), (-g.mode_numbers(a)) % n)
    index, inside = g.index(*np.ix_(*map(g.mode_numbers, range(3))))
    assert np.array_equal(inside, ~nyquist)
    for a, n in enumerate(g.shape):
        assert geo.reverse[a].shape == index[a].shape
        assert np.array_equal(index[a].ravel(), np.arange(n))


@pytest.mark.parametrize("t", [2.0, 4.0, 8.0])
def test_propagated_real_field_stays_hermitian(t):
    # a non-dyadic box, where numpy's xi ** 3 is not odd in the last digit
    g = GridSpec(14, 8, 8, 0.7 * np.pi, 2 * np.pi, 2 * np.pi)
    u0 = random_band_field(g, np.random.default_rng(0), 0.5 * g.dxi, 6.5 * g.dxi)
    apply_linear_propagator(u0, t).validate()


def test_propagator_unitary_group(grid_small, rng):
    u = random_band_field(grid_small, rng, 0.0, 6.0, eta_max=6.0)
    ut = apply_linear_propagator(u, 0.37)
    assert abs(ut.l2_norm() / u.l2_norm() - 1.0) <= 1e-13
    back = apply_linear_propagator(ut, -0.37)
    assert np.max(np.abs(back.coeff - u.coeff)) <= 1e-12
    two_step = apply_linear_propagator(apply_linear_propagator(u, 0.2), 0.17)
    assert np.max(np.abs(two_step.coeff - ut.coeff)) <= 1e-12


def test_galilean_shift_identity_and_single_mode(grid_small):
    c = np.zeros(grid_small.shape, complex)
    c[2, 1, 0] = 1.0
    u = SpectralField(grid_small, c, real_flag=False)
    same = galilean_shift(u, (0.0, 0.0))
    assert np.array_equal(same.coeff, u.coeff)
    sh = galilean_shift(u, (1.0, 0.0))
    # target (xi, eta) sources (xi, eta + c xi): mode lands at eta1 = 1 - 2
    assert sh.coeff[2, -1 % 16, 0] == 1.0
    assert np.count_nonzero(sh.coeff) == 1
    assert sh.l2_norm() == pytest.approx(u.l2_norm())


def test_galilean_alignment_error(grid_small, rng):
    u = random_band_field(grid_small, rng, 0.0, 4.0, eta_max=4.0)
    with pytest.raises(PreconditionError):
        galilean_shift(u, (0.5, 0.0))


def test_galilean_dropped_mass_warning(grid_small):
    c = np.zeros(grid_small.shape, complex)
    c[3, -6 % 16, 0] = 1.0    # relocates to eta1 = -6 - 3 = -9, off grid
    u = SpectralField(grid_small, c, real_flag=False)
    expect = re.escape(f"dropped off-grid mass {u.l2_norm() ** 2:.3e} ")
    with pytest.warns(UserWarning, match=expect):
        shifted = galilean_shift(u, (1.0, 0.0))
    assert shifted.l2_norm() == 0.0


def test_scaling_nested_grid(grid_small):
    c = np.zeros(grid_small.shape, complex)
    c[2, 1, 1] = 1.0
    u = SpectralField(grid_small, c, real_flag=False)
    nested = scaling_transform(u, 2.0)
    assert nested.grid.length_x == grid_small.length_x / 2
    assert nested.grid.length_y1 == grid_small.length_y1 / 4
    assert nested.coeff[2, 1, 1] == 4.0   # amplitude lam^2, same index
    assert np.count_nonzero(nested.coeff) == 1
    # the wavenumbers at that index are (lam xi, lam^2 eta)
    assert nested.grid.dxi == 2 * grid_small.dxi
    assert nested.grid.deta1 == 4 * grid_small.deta1
    with pytest.raises(ConfigurationError):
        scaling_transform(u, 3.0)


def test_power_of_two_accepts_dyadic_values():
    assert require_power_of_two(1.0, "lam") == 0
    assert require_power_of_two(0.125, "lam") == -3
    assert require_power_of_two(4, "lam") == 2
    assert require_power_of_two(2.0 ** 1023, "lam") == 1023
    assert require_power_of_two(2.0 ** -1074, "lam") == -1074
    assert require_power_of_two(8.0 * (1 + 1e-13), "lam") == 3


@pytest.mark.parametrize("value", [0.0, -2.0, math.nan, math.inf, 0.3, 3.0, 1.7e308, "2"])
def test_power_of_two_refusals(grid_small, value):
    u = gaussian_datum(grid_small)
    for check in (lambda: require_power_of_two(value, "lam"),
                  lambda: scaling_transform(u, value),
                  lambda: sector_indicator_datum(grid_small, value),
                  lambda: IllposedParams(value, 8.0),
                  lambda: IllposedParams(1 / 64, value, coupling=False),
                  lambda: band_weight(value, 0.0, 0.0),
                  lambda: comb_norm(value, 2.0)):
        with pytest.raises(ConfigurationError):
            check()


def test_scaling_linear_solution_property(grid_aniso):
    # rescaled linear solution equals linear evolution of rescaled datum
    # with t -> lam^3 t, exactly on the nested grid (relabeling).
    u0 = gaussian_datum(grid_aniso, center_xi=1.0, width_xi=0.3, width_eta=0.4)
    lam, t = 2.0, 0.31
    path1 = scaling_transform(apply_linear_propagator(u0, lam ** 3 * t), lam)
    path2 = apply_linear_propagator(scaling_transform(u0, lam), t)
    assert np.max(np.abs(path1.coeff - path2.coeff)) <= 1e-12


def test_galilean_boost_matches_shift_at_zero(grid_small, rng):
    u = random_band_field(grid_small, rng, 0.0, 3.0, eta_max=3.0)
    a = galilean_boost(u, (1.0, 0.0), 0.0)
    b = galilean_shift(u, (1.0, 0.0))
    assert np.max(np.abs(a.coeff - b.coeff)) == 0.0


def test_zero_x_mean_preserved_everywhere(grid_small, rng):
    u = random_band_field(grid_small, rng, 0.0, 3.0, eta_max=1.0)
    full_eta = random_band_field(grid_small, rng, 0.0, 3.0)   # shifts onto the eta Nyquist planes
    with pytest.warns(UserWarning, match="dropped"):
        full_eta_shifted = galilean_shift(full_eta, (1.0, 1.0))
    for v in (apply_linear_propagator(u, 0.4), galilean_shift(u, (1.0, 0.0)),
              scaling_transform(u, 2.0), full_eta_shifted):
        assert np.all(v.coeff[0, :, :] == 0)
        v.validate()


@pytest.mark.parametrize("m", [(1, 1), (-1, 2), (2, -2), (-2, -1)])
def test_galilean_dropped_mass_is_the_mass_lost(m):
    # the reported loss is all that leaves the representable modes: no mass
    # may land on a Nyquist plane or the xi = 0 plane
    g = GridSpec(16, 16, 16, 4 * np.pi, 4 * np.pi, 4 * np.pi)
    u = random_band_field(g, member_rng(1, 0), 0.0, 3.0)
    base = galilean_lattice(g)
    with pytest.warns(UserWarning, match="dropped") as caught:
        shifted = galilean_shift(u, (m[0] * base[0], m[1] * base[1]))
    assert not shifted.coeff[~grid_geometry(g).structural].any()
    lost = g.volume * (np.sum(np.abs(u.coeff) ** 2) - np.sum(np.abs(shifted.coeff) ** 2))
    assert f"dropped off-grid mass {lost:.3e} " in str(caught[0].message)
    # mode by mode: a structural target takes its source when that is representable
    expect = np.zeros_like(u.coeff)
    kx, k1, k2 = (g.mode_numbers(a) for a in range(3))
    for i, j, l in np.ndindex(g.shape):
        s1, s2 = k1[j] + m[0] * kx[i], k2[l] + m[1] * kx[i]
        if kx[i] != 0 and max(abs(kx[i]), abs(k1[j]), abs(k2[l]), abs(s1), abs(s2)) < 8:
            expect[i, j, l] = u.coeff[i, s1 % 16, s2 % 16]
    assert np.array_equal(shifted.coeff, expect)


@settings(max_examples=25, deadline=None)
@given(st.integers(4, 16), st.integers(4, 16), st.integers(4, 16),
       st.floats(0.1, 100.0), st.floats(0.1, 100.0), st.floats(0.1, 100.0),
       st.booleans(), st.integers(0, 2 ** 31 - 1), st.data())
def test_snapshot_roundtrip(tmp_path_factory, hx, h1, h2, lx, l1, l2, real_flag,
                            seed, data):
    grid = GridSpec(2 * hx, 2 * h1, 2 * h2, lx, l1, l2)
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    u = SpectralField(grid, make_field(grid, c).coeff, real_flag)
    path = tmp_path_factory.mktemp("kp3f") / "u.kp3f"
    write_snapshot(u, path)
    v = read_snapshot(path)
    assert v.grid == grid and v.real_flag == real_flag
    assert v.coeff.tobytes() == u.coeff.tobytes()
    raw = path.read_bytes()
    # every cut of the 45-byte header, the bare header, the file less its
    # last byte, and one drawn cut
    cuts = {*range(46), len(raw) - 1, data.draw(st.integers(0, len(raw) - 1))}
    for cut in sorted(cuts):
        path.write_bytes(raw[:cut])
        with pytest.raises(ConfigurationError):
            read_snapshot(path)


def test_snapshot_header_layout(tmp_path, grid_small):
    u = zero_field(grid_small)
    path = tmp_path / "z.kp3f"
    write_snapshot(u, path)
    raw = path.read_bytes()
    assert raw[:4] == b"KP3F"
    assert int.from_bytes(raw[4:8], "little") == 1
    assert int.from_bytes(raw[8:12], "little") == 16
    # 4+4+12 bytes, then three little-endian float64 lengths, then u8 flag
    lengths = np.frombuffer(raw[20:44], dtype="<f8")
    assert np.allclose(lengths, 2 * np.pi)
    assert raw[44] == 1
    assert len(raw) == 45 + 16 ** 3 * 16


def _refusal(check, u):
    try:
        check(u)
    except ConfigurationError as err:
        return str(err)
    return None


# Each defect, with the message both validate routes must give on a real field.
_DEFECTS = {
    "none": None,
    "nonfinite-on-empty-plane": "non-finite coefficient present",
    "x-mean": "zero-x-mean invariant violated",
    "nyquist-plane": "Nyquist-plane content present",
    "nyquist-line": "Nyquist-plane content present",
    "one-sided-mirror": "Hermitian symmetry violated for real field",
    "asymmetry-below": None,
    "asymmetry-above": "Hermitian symmetry violated for real field",
}


@settings(max_examples=150, deadline=None)
@given(st.integers(4, 8), st.integers(4, 8), st.integers(4, 8), st.booleans(),
       st.sampled_from(sorted(_DEFECTS)), st.sampled_from([1.0, 1j, 1.0 + 1j]),
       st.integers(0, 2 ** 31 - 1), st.data())
def test_validate_reads_occupied_planes_as_the_full_grid(hx, h1, h2, real_flag, defect,
                                                         unit, seed, data):
    # validate reads only the occupied x-planes (gathered when they are
    # fewer than half, else in place); the full-grid reference reads all
    # of them.  Both must accept the same fields and refuse the others
    # with the same message.  Injected values are real, imaginary or both,
    # so neither part alone decides occupancy.
    g = GridSpec(2 * hx, 2 * h1, 2 * h2, 1.0, 1.0, 1.0)
    rng = np.random.default_rng(seed)
    kx = g.mode_numbers(0)
    filled = data.draw(st.sets(st.integers(1, hx - 1), max_size=hx - 1))
    c = np.where(np.isin(np.abs(kx), list(filled))[:, None, None],
                 rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape), 0.0)
    c = make_field(g, c).coeff if real_flag else np.where(grid_geometry(g).structural, c, 0.0)
    empty = [i for i in range(g.modes_x) if not c[i].any() and kx[i] != 0]
    unused = [i for i in empty if abs(kx[i]) != hx and -kx[i] % g.modes_x in empty]
    occupied = [i for i in range(g.modes_x) if c[i].any()]
    j, m = data.draw(st.integers(1, h1 - 1)), data.draw(st.integers(1, h2 - 1))
    if defect == "nonfinite-on-empty-plane" and empty:
        c[data.draw(st.sampled_from(empty)), j, m] = unit * data.draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
    elif defect == "x-mean":
        c[0, j, m] = unit
    elif defect == "nyquist-plane":
        c[hx, j, m] = unit
    elif defect == "nyquist-line" and occupied:
        i = data.draw(st.sampled_from(occupied))
        c[(i, *data.draw(st.sampled_from([(h1, m), (j, h2)])))] = unit
    elif defect == "one-sided-mirror" and unused:
        c[data.draw(st.sampled_from(unused)), j, m] = unit
    elif defect.startswith("asymmetry") and occupied:
        scale = np.max(np.abs(c))
        at = np.argwhere(grid_geometry(g).structural & (np.abs(c) < 0.5 * scale))
        i = tuple(at[data.draw(st.integers(0, len(at) - 1))])
        c[i] += unit / abs(unit) * scale * (0.99e-12 if defect == "asymmetry-below"
                                           else 1.01e-12)
    else:
        defect = "none"
    u = SpectralField(g, c, real_flag)
    want = _refusal(validate_full_grid, u)
    assert _refusal(SpectralField.validate, u) == want
    if real_flag or not (defect == "one-sided-mirror" or defect.startswith("asymmetry")):
        assert want == _DEFECTS[defect]


def test_validate_counts_a_purely_imaginary_plane_as_occupied(grid_small):
    # each check must see a plane whose only content is imaginary; the test
    # above draws such a plane in too few runs to catch a real-part scan
    for plane, defect in ((0, "x-mean"), (8, "nyquist-plane"), (3, "one-sided-mirror")):
        c = np.zeros(grid_small.shape, complex)
        c[plane, 1, 1] = 1j
        assert _refusal(SpectralField.validate, SpectralField(grid_small, c)) == _DEFECTS[defect]


def test_make_field_hermitize(grid_small):
    c = np.zeros(grid_small.shape, complex)
    c[2, 1, 0] = 1.0 + 0.5j
    u = make_field(grid_small, c)
    u.validate()
    assert np.count_nonzero(c) == 1 and c[2, 1, 0] == 1.0 + 0.5j   # input untouched
    p = inverse_transform(u)
    assert np.max(np.abs(p.imag if np.iscomplexobj(p) else 0)) == 0
