import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kplab import solver
from kplab.data import gaussian_datum, random_band_field
from kplab.decomposition import (NormParams, SpaceTimeTrace, lqlp_norm, lqlp_norms,
                                 pullback_states, v2_variation_norm)
from kplab.errors import ConfigurationError, DivergenceError, PreconditionError
from kplab.solver import (SimConfig, _box_surrogate, _duhamel_weights, _expand,
                          _nonlinear_rhs, _rhs_work, _synthesize, band_weight,
                          bands_for_extent, evolve, mass_series, nonlinearity,
                          nonlinearity_direct, phi1,
                          picard_iterate, slope_band_extent, slope_filtered_product,
                          spectral_product)
from kplab.spectral import (GridSpec, SpectralField, apply_linear_propagator,
                            galilean_lattice, galilean_shift, grid_geometry,
                            scaling_transform, trilinear_pairing)
from oracles import omega, pocketfft_samples, zero_field

even_modes = st.integers(4, 16).map(lambda k: 2 * k)


# ----------------------------------------------------------------------
# quadratic term
# ----------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(even_modes, even_modes, even_modes)
@example(24, 12, 12)
def test_active_box_is_the_alias_free_two_thirds_rule(nx, n1, n2):
    # the box holds one mode of each mirror pair, and with its mirrors every
    # structural mode |k| <= K on each axis, where K is the largest with
    # 3K < n: then k + k' never wraps onto a kept mode
    g = GridSpec(nx, n1, n2, 2 * np.pi, 2 * np.pi, 2 * np.pi)
    geo = grid_geometry(g)
    box = np.zeros(g.shape, bool)
    box[geo.box] = True
    assert not np.any(box & box[geo.reverse] & (np.arange(n2) > 0))   # one of each pair
    k = np.ix_(*(np.abs(g.mode_numbers(a)) for a in range(3)))
    kept = box | box[geo.reverse]
    rule = geo.structural.copy()
    for n, ka in zip(g.shape, k):
        K = int(np.max(np.where(kept, ka, 0)))
        assert 3 * K < n <= 3 * (K + 1)
        rule &= ka <= K
    assert np.array_equal(kept, rule)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), even_modes, even_modes, even_modes)
@example(0, 24, 24, 24)
@example(0, 24, 12, 12)
def test_nonlinearity_matches_direct_convolution_on_a_full_box(seed, nx, n1, n2):
    # data on every mode of the box, so its edge modes meet: with 3 | n the
    # pair k = +-n/3 sums to 2n/3, an alias of -n/3, unless the rule is strict
    g = GridSpec(nx, n1, n2, 2 * np.pi, 2 * np.pi, 2 * np.pi)
    u = random_band_field(g, np.random.default_rng(seed), 0.0, g.xi_max())
    want = nonlinearity_direct(u).coeff
    got = nonlinearity(u).coeff
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), even_modes, even_modes, even_modes,
       st.integers(1, 4))
def test_nonlinear_rhs_on_a_stack_matches_row_by_row(seed, nx, n1, n2, rows):
    # the rows run through one work set that a larger datum on every box mode
    # used first; each equals its fresh-work result bit for bit, and a result
    # is a new array that later calls on the same work leave unchanged
    g = GridSpec(nx, n1, n2, 2 * np.pi, 2 * np.pi, 2 * np.pi)
    box = grid_geometry(g).box
    xi = grid_geometry(g).xi[box[0], 0, 0]
    rng = np.random.default_rng(seed)
    stack = np.stack([random_band_field(g, rng, 0.0, 4.0).coeff[box] for _ in range(rows)])
    got = _nonlinear_rhs(g, stack, box, xi, _rhs_work(g, box, (rows,)))
    work = _rhs_work(g, box)
    shape = stack.shape[1:]
    big = 1e3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    _nonlinear_rhs(g, big, box, xi, work)
    each = [_nonlinear_rhs(g, a, box, xi, work) for a in stack]
    kept = [e.copy() for e in each]
    _nonlinear_rhs(g, big, box, xi, work)
    want = np.stack(each)
    assert got.shape == stack.shape
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    for a, e, k in zip(stack, each, kept):
        assert e.tobytes() == k.tobytes()
        assert e.tobytes() == _nonlinear_rhs(g, a, box, xi, _rhs_work(g, box)).tobytes()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), even_modes, even_modes, even_modes, st.integers(1, 3))
@example(0, 192, 24, 24, 1)
def test_synthesis_matches_the_pocketfft_route(seed, nx, n1, n2, rows):
    # the matrix products sum in another order than pocketfft's butterflies;
    # 20,000 random draws on these grids came within 5 ulp of the largest
    # sample (4 or less in 99.6 %), so 8 ulp bounds the rounding with margin
    g = GridSpec(nx, n1, n2, 2 * np.pi, 2 * np.pi, 2 * np.pi)
    box = grid_geometry(g).box
    shape = (rows,) + np.broadcast_shapes(*(b.shape for b in box))
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    want = pocketfft_samples(g, a, box)
    got = _synthesize(a, box, _rhs_work(g, box, (rows,)))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 8 * np.spacing(np.max(np.abs(want)))


@pytest.mark.parametrize("n", range(8, 34, 2))
def test_synthesis_matrices_are_unit_vector_transforms(n):
    # each column of syn1 is ifft of a unit vector and each row pair of syn2
    # is irfft of e_k and 1j e_k, bit for bit; on a power-of-two length,
    # where pocketfft's twiddles are exact, so is every quarter-turn entry
    g = GridSpec(8, n, n, 2 * np.pi, 2 * np.pi, 2 * np.pi)
    box = grid_geometry(g).box
    syn1, syn2 = _rhs_work(g, box)[:2]
    k1, m2 = box[1].ravel(), box[2].size
    unit = np.eye(n)
    assert syn1.shape == (n, k1.size) and syn2.shape == (2 * m2, n)
    for c, k in enumerate(k1):
        assert syn1[:, c].tobytes() == np.fft.ifft(unit[k], norm="forward").tobytes()
    for k in range(m2):
        assert syn2[2 * k].tobytes() == np.fft.irfft(unit[k, :n // 2 + 1], n,
                                                     norm="forward").tobytes()
        assert syn2[2 * k + 1].tobytes() == np.fft.irfft(1j * unit[k, :n // 2 + 1], n,
                                                         norm="forward").tobytes()
    assert np.all(syn2[0] == 1.0) and np.all(syn2[1] == 0.0)
    if n & (n - 1) == 0:
        j = np.arange(n)[:, None]
        quarter = 4 * j * k1 % n == 0
        assert np.all(np.isin(syn1[quarter], [1, -1, 1j, -1j]))
        quarter = np.repeat(4 * j.T * np.arange(m2)[:, None] % n == 0, 2, axis=0)
        assert np.all(np.isin(syn2[quarter], [0, 1, -1, 2, -2]))


def test_nonlinear_rhs_allocates_little_beyond_its_result():
    # with its work set a call allocates its result and small temporaries:
    # 1.56 a.nbytes on this scatter box (the result and the ufunc buffer of the
    # -i xi product), where the unbuffered transforms took 15.7
    g = GridSpec(192, 24, 24, 32 * np.pi, 8 * np.pi, 8 * np.pi)
    box = grid_geometry(g).box
    xi = grid_geometry(g).xi[box[0], 0, 0]
    a = random_band_field(g, np.random.default_rng(0), 0.0, g.xi_max()).coeff[box]
    work = _rhs_work(g, box)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _nonlinear_rhs(g, a, box, xi, work)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2 * a.nbytes


_G8 = GridSpec(8, 8, 8, 2 * np.pi, 2 * np.pi, 2 * np.pi)


@pytest.mark.parametrize("run", [
    nonlinearity,
    lambda u: evolve(u, SimConfig(_G8, dt=0.05, T=0.5)),
    lambda u: picard_iterate(u, SimConfig(_G8, dt=0.05, T=0.5)),
], ids=["nonlinearity", "evolve", "picard_iterate"])
def test_half_spectrum_callers_refuse_an_unpaired_real_datum(run):
    # they read k2 >= 0 only, so a field marked real must be Hermitian
    c = np.zeros(_G8.shape, complex)
    c[1, 1, 1] = 1e-5
    with pytest.raises(ConfigurationError, match="Hermitian"):
        run(SpectralField(_G8, c, real_flag=True))


def test_nonlinearity_zero(grid_small):
    assert nonlinearity(zero_field(grid_small)).l2_norm() == 0.0


def test_nonlinearity_single_cosine(grid_small):
    c = np.zeros(grid_small.shape, complex)
    c[2, 0, 0] = 0.5
    c[-2 % 16, 0, 0] = 0.5       # real cosine at xi0 = 2
    u = SpectralField(grid_small, c, real_flag=True)
    n = nonlinearity(u)
    nz = {tuple(int(v) for v in idx) for idx in zip(*np.nonzero(n.coeff))}
    # output supported at +-2 xi0 (xi = 0 annihilated by the derivative)
    assert nz == {(4, 0, 0), (16 - 4, 0, 0)}
    # -i xi (u^2)^: the xi = 4 coefficient of u^2 is 1/4
    assert n.coeff[4, 0, 0] == pytest.approx(-1j * 4.0 * 0.25, abs=1e-14)


def test_nonlinearity_matches_direct_convolution(grid_small, rng):
    u = random_band_field(grid_small, rng, 0.0, 4.0, eta_max=4.0)
    u = SpectralField(grid_small, 0.7 * u.coeff, real_flag=True)
    a = nonlinearity(u)
    b = nonlinearity_direct(u)
    assert np.max(np.abs(a.coeff - b.coeff)) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(-1, 1), st.integers(-1, 1),
       st.floats(0.5, 4.0), st.floats(0.5, 4.0))
def test_nonlinearity_galilean_covariance(seed, m1, m2, lx, ly):
    # |kx|, |ky| <= 2 and a shear of at most one y-mode per x-mode keep u,
    # u^2 and both their shears inside the 2/3 mask (|k| <= 8 on 26^3), so
    # N(shift u) = shift N(u) holds up to FFT rounding
    grid = GridSpec(26, 26, 26, 2 * np.pi * lx, 2 * np.pi * ly, 2 * np.pi * ly)
    u = random_band_field(grid, np.random.default_rng(seed), 0.0, 2 * grid.dxi,
                          eta_max=2 * grid.deta1)
    b1, b2 = galilean_lattice(grid)
    c = (m1 * b1, m2 * b2)
    a = nonlinearity(galilean_shift(u, c)).coeff
    b = galilean_shift(nonlinearity(u), c).coeff
    assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([0.25, 0.5, 2.0, 4.0]))
def test_nonlinearity_scaling_covariance(seed, lam):
    # u_lam = lam^2 u(lam x, lam^2 y) gives N(u_lam) = lam^3 (N u)_lam, the
    # lam^3 of the KP-II time rescaling t -> lam^3 t; exact, since lam is a
    # power of two
    grid = GridSpec(16, 16, 16, 2 * np.pi, 2 * np.pi, 2 * np.pi)
    u = random_band_field(grid, np.random.default_rng(seed), 0.0, 5.0, eta_max=5.0)
    a = nonlinearity(scaling_transform(u, lam))
    b = scaling_transform(nonlinearity(u), lam)
    assert a.grid == b.grid
    assert np.array_equal(a.coeff, lam ** 3 * b.coeff)


def test_nonlinearity_requires_real(grid_small, rng):
    u = random_band_field(grid_small, rng, 0.0, 4.0, eta_max=4.0)
    bad = SpectralField(grid_small, u.coeff, real_flag=False)
    with pytest.raises(PreconditionError):
        nonlinearity(bad)


# ----------------------------------------------------------------------
# evolve
# ----------------------------------------------------------------------

def _non_real_datum(grid):
    # a small non-Hermitian 8^3 datum: one mode without its mirror
    c = np.zeros(grid.shape, complex)
    c[1, 1, 0] = 1e-5
    return SpectralField(grid, c, real_flag=False)


def test_evolve_requires_real():
    g = GridSpec(8, 8, 8, 2 * np.pi, 2 * np.pi, 2 * np.pi)
    with pytest.raises(PreconditionError, match="requires a real field"):
        evolve(_non_real_datum(g), SimConfig(g, dt=0.05, T=0.5))


def test_picard_iterate_requires_real():
    g = GridSpec(8, 8, 8, 2 * np.pi, 2 * np.pi, 2 * np.pi)
    with pytest.raises(PreconditionError, match="requires a real field"):
        picard_iterate(_non_real_datum(g), SimConfig(g, dt=0.05, T=0.5))


@pytest.mark.parametrize("run", [evolve, picard_iterate])
def test_solvers_refuse_a_datum_from_another_grid(run):
    u0 = gaussian_datum(GridSpec(32, 16, 16, 4 * np.pi, 4 * np.pi, 4 * np.pi), amplitude=1e-3)
    cfg = SimConfig(GridSpec(24, 12, 12, 4 * np.pi, 4 * np.pi, 4 * np.pi), dt=1 / 64,
                    T=1.0, samples_per_unit=64)
    with pytest.raises(ConfigurationError, match="grid differs"):
        run(u0, cfg)


def test_simconfig_requires_whole_number_of_samples():
    g = GridSpec(8, 8, 8, 2 * np.pi, 2 * np.pi, 2 * np.pi)
    # 0.4 samples would return only t = 0; 0.7 would run the trace past T;
    # a rate that is not positive and finite gives no whole count either
    for spu in (0.4, 0.7, 2.5, 0.0, -8.0, math.inf, math.nan):
        with pytest.raises(ConfigurationError, match="not a whole number"):
            SimConfig(g, dt=0.05, T=1.0, samples_per_unit=spu)
    SimConfig(g, dt=0.05, T=2.0, samples_per_unit=2.5)              # 5 samples
    SimConfig(g, dt=1 / 64 / 8, T=0.25 / 8, samples_per_unit=32)   # criterion 05's scaled run


def test_evolve_zero_datum(grid_solver):
    tr = evolve(zero_field(grid_solver), SimConfig(grid_solver, dt=0.05, T=0.5))
    assert all(s.l2_norm() == 0.0 for s in tr.states)


def _scaled_evolve(u0, cfg, alpha):
    """The flow of u_t + u_xxx + alpha (u^2)_x = ...: KP's exact scaling
    gives it as evolve(alpha u0) / alpha."""
    tr = evolve(SpectralField(u0.grid, alpha * u0.coeff, True), cfg)
    return tr.coeff / alpha


def test_evolve_linear_matches_propagator(grid_solver):
    # at nonlinearity scale 1e-9 the flow is the linear one far below 1e-10
    u0 = gaussian_datum(grid_solver, amplitude=0.1, center_xi=1.0,
                        width_xi=0.4, width_eta=0.4)
    cfg = SimConfig(grid_solver, dt=0.02, T=0.5, samples_per_unit=8)
    tr = evolve(u0, cfg)
    for t, s in zip(tr.times, _scaled_evolve(u0, cfg, 1e-9)):
        lin = apply_linear_propagator(
            SpectralField(grid_solver, tr.states[0].coeff, True), t)
        assert np.max(np.abs(s - lin.coeff)) <= 1e-10


def test_evolve_mass_conservation(grid_solver):
    u0 = gaussian_datum(grid_solver, amplitude=0.05, center_xi=1.0,
                        width_xi=0.4, width_eta=0.4)
    tr = evolve(u0, SimConfig(grid_solver, dt=0.01, T=1.0, samples_per_unit=4))
    ms = mass_series(tr)
    assert np.max(np.abs(ms - ms[0])) / ms[0] <= 1e-6


def test_evolve_richardson_order(grid_solver):
    u0 = gaussian_datum(grid_solver, amplitude=0.3, center_xi=1.0,
                        width_xi=0.4, width_eta=0.4)
    ref = evolve(u0, SimConfig(grid_solver, dt=0.002, T=0.5,
                               samples_per_unit=2)).states[-1]
    errs = []
    for dt in (0.025, 0.0125):
        e = evolve(u0, SimConfig(grid_solver, dt=dt, T=0.5,
                                 samples_per_unit=2)).states[-1]
        errs.append(np.sqrt(np.sum(np.abs(e.coeff - ref.coeff) ** 2)))
    order = math.log2(errs[0] / errs[1])
    assert order >= 3.5


def test_evolve_linear_limit_first_order(grid_solver):
    # trajectories converge to the linear flow first-order in the
    # nonlinearity scale
    u0 = gaussian_datum(grid_solver, amplitude=0.2, center_xi=1.0,
                        width_xi=0.4, width_eta=0.4)
    cfg = SimConfig(grid_solver, dt=0.01, T=0.5, samples_per_unit=2)
    geo = grid_geometry(grid_solver)
    lin = np.where(geo.active, u0.coeff, 0.0) * np.exp(0.5j * omega(grid_solver))
    gaps = []
    for alpha in (0.2, 0.1, 0.05):
        e = _scaled_evolve(u0, cfg, alpha)[-1]
        gaps.append(np.sqrt(np.sum(np.abs(e - lin) ** 2)))
    slope = np.polyfit(np.log2([0.2, 0.1, 0.05]), np.log2(gaps), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.1)


def _reference_evolve(u0, cfg):
    """IF-RK4 on the full spectrum with complex transforms and the 2/3 mask:
    the oracle for evolve's state on the half-spectrum box."""
    g = cfg.grid
    geo = grid_geometry(g)
    mask, xi, w = geo.active, geo.xi, omega(g)
    sample_dt = 1.0 / cfg.samples_per_unit
    steps = max(1, math.ceil(sample_dt / cfg.dt))
    h = sample_dt / steps
    E = np.exp(1j * w * h)
    E2 = np.exp(1j * w * h / 2)

    def rhs(a):
        phys = np.fft.ifftn(a * mask) * a.size
        sq = np.fft.fftn(phys.real ** 2) / a.size
        return -1j * xi * np.where(mask, sq, 0.0)

    c = np.where(mask, u0.coeff, 0.0)
    out = [c]
    for _ in range(int(round(cfg.T / sample_dt))):
        for _ in range(steps):
            n1 = rhs(c)
            n2 = rhs(E2 * (c + 0.5 * h * n1))
            n3 = rhs(E2 * c + 0.5 * h * n2)
            n4 = rhs(E * c + h * (E2 * n3))
            c = E * c + (h / 6.0) * (E * n1 + 2.0 * E2 * (n2 + n3) + n4)
        out.append(c)
    return np.stack(out)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), even_modes, even_modes, even_modes,
       st.floats(0.5, 2.0))
def test_evolve_matches_full_spectrum_reference(seed, nx, n1, n2, ly):
    # three steps per sample, and a datum whose nonlinear part is far above
    # rounding: the box state, its mirror and the samples all agree with the
    # full complex-transform step
    g = GridSpec(nx, n1, n2, 2 * np.pi, 2 * np.pi * ly, 2 * np.pi * ly)
    u0 = random_band_field(g, np.random.default_rng(seed), 0.0, 3.0, eta_max=3.0)
    u0 = SpectralField(g, 2.0 * u0.coeff, real_flag=True)
    cfg = SimConfig(g, dt=0.05, T=0.25, samples_per_unit=8)
    ref = _reference_evolve(u0, cfg)
    got = evolve(u0, cfg).coeff
    times = np.arange(ref.shape[0]) / cfg.samples_per_unit
    lin = ref[0] * np.exp(1j * omega(g) * times[:, None, None, None])
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(ref - lin)) >= 1e-3 * scale
    assert np.max(np.abs(got - ref)) <= 1e-13 * scale


def test_evolve_refuses_a_datum_whose_norm_overflows(grid_solver):
    u0 = gaussian_datum(grid_solver, amplitude=1e308, center_xi=1.0,
                        width_xi=0.4, width_eta=0.4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # refused before any arithmetic overflows
        with pytest.raises(ConfigurationError, match="overflows"):
            evolve(u0, SimConfig(grid_solver, dt=0.1, T=1.0))


def test_evolve_blowup_diagnostic(grid_solver):
    from kplab.errors import BlowupError
    u0 = gaussian_datum(grid_solver, amplitude=50.0, center_xi=1.0,
                        width_xi=0.4, width_eta=0.4)
    with pytest.raises(BlowupError) as exc:
        evolve(u0, SimConfig(grid_solver, dt=0.1, T=4.0))
    assert exc.value.t is not None


# ----------------------------------------------------------------------
# Duhamel
# ----------------------------------------------------------------------

def _duhamel_of_trace(gdat, n=33, T=1.0):
    # picard_iterate's Duhamel step on the flow trace t -> S(t) gdat: pull
    # each sample back by S(-t_j), integrate by the prefix matrix, push forward
    dt = T / (n - 1)
    times = np.arange(n) * dt
    fwd = np.stack([apply_linear_propagator(gdat, t).coeff for t in times])
    pull = np.stack([apply_linear_propagator(
        SpectralField(gdat.grid, c, gdat.real_flag), -t).coeff
        for t, c in zip(times, fwd)])
    integ = np.tensordot(_duhamel_weights(n, dt), pull.reshape(n, -1),
                         axes=(1, 0)).reshape(fwd.shape)
    return times, np.stack([apply_linear_propagator(
        SpectralField(gdat.grid, c, gdat.real_flag), t).coeff
        for t, c in zip(times, integ)])


def test_duhamel_zero(grid_solver):
    _, out = _duhamel_of_trace(zero_field(grid_solver))
    assert np.all(out == 0.0)


def test_duhamel_constant_pullback(grid_solver):
    # a constant pullback integrates to t_j S(t_j) gdat at every sample
    gdat = gaussian_datum(grid_solver, center_xi=1.0, width_xi=0.4, width_eta=0.4)
    times, out = _duhamel_of_trace(gdat)
    expect = apply_linear_propagator(gdat, 1.0)
    assert np.max(np.abs(out[-1] - expect.coeff)) <= 1e-8
    expect_half = apply_linear_propagator(gdat, 0.5)
    assert times[16] == 0.5
    assert np.max(np.abs(out[16] - 0.5 * expect_half.coeff)) <= 1e-8


def test_duhamel_weights_integrate_constants_and_lines():
    # every row j of picard_iterate's prefix matrix is a rule on [0, t_j],
    # exact on 1 and t (row 0 is the empty integral)
    dt = 0.1
    for n in (3, 4, 5, 8, 33):
        t = np.arange(n) * dt
        W = _duhamel_weights(n, dt)
        assert np.max(np.abs(W @ np.ones(n) - t)) <= 1e-14 * t[-1]
        assert np.max(np.abs(W @ t - t ** 2 / 2)) <= 1e-14 * t[-1] ** 2


def test_duhamel_offset_mode_closed_form():
    # a mode off resonance by delta: the integral of e^{i delta s} over
    # [0, t_j] is (e^{i delta t_j} - 1) / (i delta); the single trapezoid
    # interval of row 1 is outside this tolerance
    delta, n = 3.0, 257
    t = np.arange(n) / (n - 1)
    got = _duhamel_weights(n, 1.0 / (n - 1)) @ np.exp(1j * delta * t)
    closed = (np.exp(1j * delta * t) - 1.0) / (1j * delta)
    assert np.max(np.abs(got - closed)[2:]) <= 1e-8


# ----------------------------------------------------------------------
# Picard iteration
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def picard_setup():
    grid = GridSpec(24, 12, 12, 4 * np.pi, 4 * np.pi, 4 * np.pi)
    npar = NormParams()
    u0 = gaussian_datum(grid, amplitude=1.0, center_xi=1.0,
                        width_xi=0.4, width_eta=0.4)
    u0 = SpectralField(grid, u0.coeff * (1e-3 / lqlp_norm(u0, npar)), True)
    return grid, npar, u0


def test_picard_zero_datum(picard_setup):
    grid, npar, _ = picard_setup
    tr, rep = picard_iterate(zero_field(grid),
                             SimConfig(grid, samples_per_unit=32, T=0.5), n_max=3)
    assert rep.converged
    assert all(s.l2_norm() == 0.0 for s in tr.states)


def test_picard_contraction_and_limit(picard_setup):
    grid, npar, u0 = picard_setup
    cfg = SimConfig(grid, dt=1 / 64, T=1.0, samples_per_unit=64)
    tr, rep = picard_iterate(u0, cfg, n_max=8, tol=1e-13)
    assert rep.converged
    assert all(r <= 0.5 for r in rep.ratios)
    tr_e = evolve(u0, SimConfig(grid, dt=1 / 256, T=1.0, samples_per_unit=64))
    gap = max(np.sqrt(grid.volume * np.sum(np.abs(a.coeff - b.coeff) ** 2))
              for a, b in zip(tr.states, tr_e.states))
    assert gap <= 1e-8


def test_picard_smallness_precondition(picard_setup):
    grid, npar, u0 = picard_setup
    big = SpectralField(grid, u0.coeff * 1e3, True)
    with pytest.raises(PreconditionError):
        picard_iterate(big, SimConfig(grid, samples_per_unit=32, T=0.5))


def test_picard_divergence_diagnostic(picard_setup):
    grid, npar, u0 = picard_setup
    # inflate just below the smallness gate, then force it through with a
    # custom threshold to reach the divergence detector
    big = SpectralField(grid, u0.coeff * 4e4, True)
    with pytest.raises(DivergenceError):
        picard_iterate(big, SimConfig(grid, samples_per_unit=32, T=1.0), n_max=12,
                       smallness_threshold=1e3)


def test_picard_iterate_expands_the_spectrum_once(picard_setup, monkeypatch):
    # iterate differences are measured on the box: only the returned trace
    # builds the full spectrum
    grid, _, u0 = picard_setup
    calls = []
    monkeypatch.setattr(solver, "_expand", lambda *a: calls.append(1) or _expand(*a))
    tr, rep = picard_iterate(u0, SimConfig(grid, dt=1 / 64, T=1.0, samples_per_unit=64),
                             n_max=3, tol=1e-14)
    assert (rep.iterates, tr.times.size) == (3, 65)
    assert len(calls) == 1


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), even_modes, even_modes, even_modes,
       st.floats(0.25, 4.0), st.floats(0.25, 4.0), st.floats(0.25, 4.0),
       st.integers(2, 12), st.floats(0.01, 1.0), st.booleans())
@example(0, 24, 12, 12, 2.0, 2.0, 2.0, 12, 1 / 64, False)
@example(0, 24, 12, 12, 2.0, 2.0, 2.0, 12, 1 / 64, True)
def test_box_surrogate_equals_the_full_spectrum_surrogate(seed, nx, n1, n2, lx, l1, l2,
                                                          n_t, dt, column):
    # a mode and its mirror share a sector and a pullback mass, so the box
    # norms weighted 2 on k2 > 0 and 1 on the k2 = 0 column (which holds both)
    # equal the norms of the full Hermitian spectrum; `column` keeps only k2 = 0
    g = GridSpec(nx, n1, n2, 2 * np.pi * lx, 2 * np.pi * l1, 2 * np.pi * l2)
    geo = grid_geometry(g)
    box = geo.box
    rng = np.random.default_rng(seed)
    diff = np.stack([random_band_field(g, rng, 0.0, g.xi_max()).coeff[box]
                     for _ in range(n_t)])
    if column:
        diff[..., 1:] = 0.0
    times = dt * np.arange(n_t)
    npar = NormParams()
    full = _expand(g, diff, box)
    tr = SpaceTimeTrace(times, full, g, real_flag=False)
    want = (float(np.max(lqlp_norms(full, g, npar)))
            + v2_variation_norm(pullback_states(tr), g.volume))
    got = _box_surrogate(g, box, geo.phase(times, *box), diff, npar)
    assert got == pytest.approx(want, rel=1e-13, abs=0)


# ----------------------------------------------------------------------
# slope-filtered bilinear projections
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def tl_grid():
    # wide slope range: dxi = 1/16 so slope arguments exceed the first bands
    return GridSpec(16, 16, 16, 32 * np.pi, 4 * np.pi, 4 * np.pi)


def test_profile_shape_and_telescoping():
    s = np.linspace(-5000, 5000, 4001)
    assert np.all(phi1(s, 0.0) <= 1.0) and np.all(phi1(s, 0.0) >= 0.0)
    assert np.array_equal(phi1(s, s), phi1(-s, -s))   # even
    inside = np.abs(s) < 128
    assert np.all(phi1(s[inside], 0.0) == 1.0)
    bands = bands_for_extent(5000.0)
    tot = sum(band_weight(L, s, 0.3 * s) for L in bands)
    assert np.max(np.abs(tot - 1.0)) <= 1e-12
    with pytest.raises(ConfigurationError):
        band_weight(0.5, s, s)   # a power of two below the first band


def test_parallel_slopes_all_in_band_one(tl_grid):
    c1 = np.zeros(tl_grid.shape, complex)
    c2 = np.zeros(tl_grid.shape, complex)
    c1[2, 1, 0] = 1.0      # slope (8, 0) at xi = 1/8
    c2[4, 2, 0] = 1.0      # slope (8, 0) at xi = 1/4: parallel
    u = SpectralField(tl_grid, c1, real_flag=False)
    v = SpectralField(tl_grid, c2, real_flag=False)
    full = spectral_product(u, v)
    band1 = slope_filtered_product(u, v, 1.0)
    assert np.max(np.abs(band1.coeff - full.coeff)) <= 1e-14
    for L in (2.0, 4.0):
        assert slope_filtered_product(u, v, L).l2_norm() == 0.0


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(0, 5), st.integers(2, 7),
       st.sampled_from([0.5, 1.0, 1.5]))
def test_band_sum_reassembles_product(tl_grid, seed, lo, width, eta_max):
    # band edges in whole x-modes (dxi = 1/16): xi in (lo, min(lo + width, 7)] / 16.
    # At least two x-modes, so xi1 + xi2 = +-1/16 is on the grid: a single
    # mode at |kx| >= 4 has an exactly zero product, and the relative bound
    # below would compare FFT rounding noise with 0
    rng = np.random.default_rng(seed)
    edges = (lo * tl_grid.dxi, min(lo + width, 7) * tl_grid.dxi)
    u = random_band_field(tl_grid, rng, *edges, eta_max=eta_max)
    v = random_band_field(tl_grid, rng, *edges, eta_max=eta_max)
    acc = None
    for L in bands_for_extent(slope_band_extent(tl_grid)):
        piece = slope_filtered_product(u, v, L)
        acc = piece.coeff if acc is None else acc + piece.coeff
    prod = spectral_product(u, v)
    scale = np.max(np.abs(prod.coeff))
    assert np.max(np.abs(acc - prod.coeff)) <= 1e-10 * scale


def test_band_projection_uses_higher_bands(tl_grid, rng):
    # this grid hosts slope arguments beyond the band-1 plateau
    u = random_band_field(tl_grid, rng, 0.0, 0.2, eta_max=1.5)
    v = random_band_field(tl_grid, rng, 0.0, 0.2, eta_max=1.5)
    high = sum(slope_filtered_product(u, v, L).l2_norm()
               for L in (2.0, 4.0, 8.0))
    assert high > 0.0


def test_trilinear_symmetry(tl_grid, rng):
    u = random_band_field(tl_grid, rng, 0.0, 0.4, eta_max=1.5)
    v = random_band_field(tl_grid, rng, 0.0, 0.4, eta_max=1.5)
    w = random_band_field(tl_grid, rng, 0.0, 0.2, eta_max=1.5)
    for L in (1.0, 2.0, 4.0):
        a = trilinear_pairing(u, slope_filtered_product(v, w, L))
        b = trilinear_pairing(v, slope_filtered_product(u, w, L))
        c = trilinear_pairing(w, slope_filtered_product(u, v, L))
        scale = max(abs(a), abs(b), abs(c), 1e-30)
        assert abs(a - b) <= 1e-10 * max(scale, 1.0)
        assert abs(a - c) <= 1e-10 * max(scale, 1.0)


def test_slope_identity_pointwise(rng):
    # ((eta1+eta2)/(xi1+xi2) - eta1/xi1)/xi2 = (eta2/xi2 - eta1/xi1)/(xi1+xi2)
    for _ in range(200):
        x1, x2 = rng.uniform(0.3, 3, 2)
        e1, e2 = rng.uniform(-3, 3, 2)
        lhs = ((e1 + e2) / (x1 + x2) - e1 / x1) / x2
        rhs = (e2 / x2 - e1 / x1) / (x1 + x2)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


def test_zero_xi_sum_pairs_dropped(tl_grid):
    c1 = np.zeros(tl_grid.shape, complex)
    c2 = np.zeros(tl_grid.shape, complex)
    c1[2, 1, 0] = 1.0
    c2[-2 % 16, 1, 0] = 1.0      # xi1 + xi2 = 0
    u = SpectralField(tl_grid, c1, real_flag=False)
    v = SpectralField(tl_grid, c2, real_flag=False)
    out = slope_filtered_product(u, v, 1.0)
    assert out.l2_norm() == 0.0


def test_slope_product_grid_guard(rng):
    big = GridSpec(32, 32, 32, 2 * np.pi, 2 * np.pi, 2 * np.pi)
    u = random_band_field(big, rng, 0.0, 4.0, eta_max=4.0)
    with pytest.raises(ConfigurationError):
        slope_filtered_product(u, u, 1.0)
