import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kplab.data import (gaussian_datum, random_band_field,
                        sector_indicator_datum)
from kplab.decomposition import (NormParams, SpaceTimeTrace, _lqlp_reduce, lqlp_norm,
                                 lqlp_norms, pullback_states, sector_masses,
                                 sector_projection, v2_variation_bruteforce,
                                 v2_variation_norm)
from kplab.errors import ConfigurationError, DomainError, PreconditionError
from kplab.spectral import (GridSpec, SpectralField, apply_linear_propagator,
                            dispersion_symbol, dyadic_exponent, galilean_shift,
                            grid_geometry, sector_key)
from oracles import (dyadic_projection, dyadic_range, l1t_l2_norm, l2_spacetime,
                     modulation_projection, modulation_weighted_norm, u1_variation_norm,
                     window_bandwidth, windowed_trace)


def test_shell_membership(grid_small):
    c = np.zeros(grid_small.shape, complex)
    c[3, 1, 0] = 1.0     # xi = 3
    u = SpectralField(grid_small, c, real_flag=False)
    assert dyadic_projection(u, 2.0).coeff[3, 1, 0] == 1.0
    assert dyadic_projection(u, 1.0).coeff[3, 1, 0] == 0.0
    assert dyadic_projection(u, 4.0).coeff[3, 1, 0] == 0.0


_powers = st.integers(-20, 20).map(lambda e: 2.0 ** e)
_frequencies = st.builds(lambda sign, mag: sign * mag, st.sampled_from([-1.0, 1.0]),
                         st.one_of(st.floats(1e-6, 1e6), _powers,
                                   _powers.map(lambda x: math.nextafter(x, 0.0))))
# slope / 2^j: anywhere, on a box edge m +- 1/2, or one ulp below an edge
_scaled_slopes = st.one_of(
    st.floats(-1e4, 1e4),
    st.builds(lambda m, e, below: math.nextafter(m + e, -math.inf) if below else m + e,
              st.integers(-64, 64), st.sampled_from([-0.5, 0.5]), st.booleans()))


@settings(max_examples=300, deadline=None)
@given(_frequencies, _scaled_slopes, _scaled_slopes)
@example(1.0, math.nextafter(0.5, -math.inf), -0.5)   # floor(t + 1/2) rounds up here
def test_sector_key_brackets_frequency_and_slope(xi, t1, t2):
    # 2^j <= |xi| < 2^(j+1), and s / 2^j - m in [-1/2, 1/2) for each slope s
    j = math.frexp(abs(xi))[1] - 1     # exact
    s = [math.ldexp(t, j) for t in (t1, t2)]
    key = [int(a) for a in sector_key(xi, *s)]
    assert math.ldexp(1.0, key[0]) <= abs(xi) < math.ldexp(1.0, key[0] + 1)
    assert key[0] == j
    for si, m in zip(s, key[1:]):   # compared exactly: s / 2^j - m may round
        assert math.ldexp(m - 0.5, j) <= si < math.ldexp(m + 0.5, j)
    assert dyadic_exponent(3.0) == 1


def test_shell_partition_exact(grid_small, rng):
    u = random_band_field(grid_small, rng, 0.0, 6.0, eta_max=6.0)
    acc = np.zeros_like(u.coeff)
    total = 0.0
    for lam in dyadic_range(grid_small):
        piece = dyadic_projection(u, lam)
        acc += piece.coeff
        total += piece.l2_norm() ** 2
    assert np.array_equal(acc, u.coeff)                     # exact partition
    assert total == pytest.approx(u.l2_norm() ** 2, rel=1e-12, abs=0)


def test_sector_membership_and_parseval(grid_small, rng):
    c = np.zeros(grid_small.shape, complex)
    c[1, 0, 0] = 1.0     # (xi, eta) = (1, 0): shell 1, sector k = (0, 0)
    u = SpectralField(grid_small, c, real_flag=False)
    kept = sector_projection(u, (0, 0, 0))
    assert kept.coeff[1, 0, 0] == 1.0

    v = random_band_field(grid_small, rng, 0.0, 6.0, eta_max=6.0)
    masses = sector_masses(v)
    assert sum(masses.values()) == pytest.approx(v.l2_norm() ** 2, rel=1e-12, abs=0)
    # spot-check the addressing against explicit projections at one shell
    lam = 2.0
    shell_mass = dyadic_projection(v, lam).l2_norm() ** 2
    got = sum(m for (j, _, _), m in masses.items() if 2.0 ** j == lam)
    assert got == pytest.approx(shell_mass, rel=1e-12, abs=0)


def test_sector_projection_partition_of_shell(grid_small, rng):
    v = random_band_field(grid_small, rng, 0.0, 6.0, eta_max=6.0)
    lam = 2.0
    shell = dyadic_projection(v, lam)
    acc = 0.0
    for key in sector_masses(shell):
        proj = sector_projection(v, key)
        acc += proj.l2_norm() ** 2
    assert acc == pytest.approx(shell.l2_norm() ** 2, rel=1e-12, abs=0)


def test_lqlp_single_sector_bump(grid_small):
    f = sector_indicator_datum(grid_small, 2.0, (0, 0))
    expect = math.sqrt(2.0) * f.l2_norm()
    for q, p in ((math.inf, 2.0), (2.0, 1.0), (1.0, math.inf), (3.0, 1.5)):
        assert lqlp_norm(f, NormParams(q=q, p=p)) == pytest.approx(expect, rel=1e-12, abs=0)


def test_lqlp_two_sector_ratio(grid_small):
    # two equal-mass sectors at one shell: p = 2 vs p = 1 ratio 2^{-1/2}
    c = np.zeros(grid_small.shape, complex)
    c[2, 0, 0] = 1.0          # shell 2, sector (0, 0)
    c[2, 4, 0] = 1.0          # slope 2 -> sector (1, 0)
    u = SpectralField(grid_small, c, real_flag=False)
    n2 = lqlp_norm(u, NormParams(q=math.inf, p=2.0))
    n1 = lqlp_norm(u, NormParams(q=math.inf, p=1.0))
    assert n2 / n1 == pytest.approx(2.0 ** -0.5, rel=1e-12, abs=0)


def test_lqlp_nesting_monotone(grid_small, rng):
    u = random_band_field(grid_small, rng, 0.0, 6.0, eta_max=6.0)
    params = [1.0, 1.5, 2.0, 3.0, math.inf]
    for q in params:
        vals = [lqlp_norm(u, NormParams(q=q, p=p)) for p in params]
        assert all(a >= b - 1e-12 * a for a, b in zip(vals, vals[1:]))
    for p in params:
        vals = [lqlp_norm(u, NormParams(q=q, p=p)) for q in params]
        assert all(a >= b - 1e-12 * a for a, b in zip(vals, vals[1:]))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([1.0, 1.5, 2.0, 4.0]),
       st.sampled_from([1.0, 1.5, 2.0, 4.0]))
def test_lqlp_nesting_property(seed, p, q):
    grid = GridSpec(16, 8, 8, 2 * np.pi, 2 * np.pi, 2 * np.pi)
    rng = np.random.default_rng(seed)
    u = random_band_field(grid, rng, 0.0, 6.0, eta_max=3.0)
    a = lqlp_norm(u, NormParams(q=q, p=p))
    b = lqlp_norm(u, NormParams(q=2 * q, p=2 * p))
    assert b <= a * (1 + 1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(4, 16), st.integers(4, 16), st.integers(4, 16),
       st.floats(0.25, 4.0), st.floats(0.25, 4.0), st.floats(0.25, 4.0),
       st.integers(0, 2 ** 31 - 1),
       st.sampled_from([1.0, 1.5, 2.0, 4.0, math.inf]),
       st.sampled_from([1.0, 1.5, 2.0, 4.0, math.inf]))
@example(4, 4, 6, 0.3, 1.0, 1.5, 0, 1.0, 1.0)   # eta2/xi stored 1 ulp below a box edge
def test_sector_masses_partition_property(hx, h1, h2, lx, l1, l2, seed, q, p):
    # sector_masses must equal the explicit sector projections key for key,
    # sum to the squared L^2 norm, and feed lqlp_norm's one array reduction
    grid = GridSpec(2 * hx, 2 * h1, 2 * h2, 2 * np.pi * lx, 2 * np.pi * l1,
                    2 * np.pi * l2)
    u = random_band_field(grid, np.random.default_rng(seed), 0.0, grid.xi_max())
    masses = sector_masses(u)
    for key, m in masses.items():
        proj = sector_projection(u, key)
        assert proj.l2_norm() ** 2 == pytest.approx(m, rel=1e-12, abs=0)
    assert sum(masses.values()) == pytest.approx(u.l2_norm() ** 2, rel=1e-12, abs=0)
    shells = np.array([j for (j, _, _) in masses])
    norms = np.sqrt(list(masses.values()))
    assert lqlp_norm(u, NormParams(q=q, p=p)) == _lqlp_reduce(shells, norms, q, p)[0]


@settings(max_examples=30, deadline=None)
@given(st.integers(4, 16), st.integers(4, 16), st.integers(4, 16),
       st.floats(0.25, 4.0), st.floats(0.25, 4.0), st.floats(0.25, 4.0),
       st.integers(0, 2 ** 31 - 1))
@example(4, 4, 6, 0.3, 1.0, 1.5, 0)   # eta2/xi stored 1 ulp below a box edge
def test_sector_labels_decode_and_keep_first_occurrence_order(hx, h1, h2, lx, l1, l2, seed):
    # every structural mode's id decodes to its sector_key, distinct keys get
    # distinct ids, and sector_masses equals a sorting oracle bit for bit, in
    # key order (first occurrence in C order, as `norms --format csv` prints)
    grid = GridSpec(2 * hx, 2 * h1, 2 * h2, 2 * np.pi * lx, 2 * np.pi * l1,
                    2 * np.pi * l2)
    geo = grid_geometry(grid)
    id1, id2, keys = geo.sector
    ids = id1 + id2
    key = np.stack([np.broadcast_to(k, grid.shape) for k in sector_key(
        np.where(geo.xi != 0, geo.xi, 1.0), geo.s1, geo.s2)])
    assert np.array_equal(keys(ids[geo.structural]), key[:, geo.structural])
    assert 0 <= ids.min() and ids.max() < np.unique(id1).size * np.unique(id2).size
    assert (np.unique(ids[geo.structural]).size
            == np.unique(key[:, geo.structural], axis=1).shape[1])

    u = random_band_field(grid, np.random.default_rng(seed), 0.0, grid.xi_max())
    flat = np.flatnonzero(u.coeff)
    cols = key.reshape(3, -1)[:, flat]
    code = np.ravel_multi_index([c - c.min() for c in cols], [int(np.ptp(c)) + 1 for c in cols])
    _, first, label = np.unique(code, return_index=True, return_inverse=True)
    order = np.argsort(first)
    sums = np.bincount(label, weights=grid.volume * np.abs(u.coeff.ravel()[flat]) ** 2)
    masses = sector_masses(u)
    assert list(masses) == list(map(tuple, cols[:, first[order]].T.tolist()))
    assert list(masses.values()) == sums[order].tolist()


@settings(max_examples=30, deadline=None)
@given(st.integers(4, 16), st.integers(4, 16), st.integers(4, 16),
       st.floats(0.25, 4.0), st.floats(0.25, 4.0), st.floats(0.25, 4.0))
@example(4, 4, 6, 0.3, 1.0, 1.5)   # eta2/xi stored 1 ulp below a box edge
@example(5, 7, 9, 1.0, 1.0, 1.0)   # n/2 odd on every axis
def test_mirror_modes_share_a_sector_and_box_weights_count_active_modes(hx, h1, h2,
                                                                       lx, l1, l2):
    # the partition identities a norm on the solver box rests on: a mode and
    # its Hermitian mirror -k lie in one sector (|xi| and eta/xi are unchanged),
    # and weight 2 on k2 > 0 (the mode and its mirror on k2 < 0) and 1 on the
    # k2 = 0 column (which holds both) counts every active mode once
    grid = GridSpec(2 * hx, 2 * h1, 2 * h2, 2 * np.pi * lx, 2 * np.pi * l1,
                    2 * np.pi * l2)
    geo = grid_geometry(grid)
    id1, id2, _ = geo.sector
    ids = id1 + id2
    assert np.array_equal(ids[geo.reverse][geo.structural], ids[geo.structural])
    box = geo.box
    weight = np.broadcast_to(np.where(box[2] > 0, 2, 1),
                             np.broadcast_shapes(*(b.shape for b in box)))
    assert weight.sum() == geo.active.sum()


@settings(max_examples=30, deadline=None)
@given(st.integers(4, 16), st.integers(4, 12), st.integers(4, 12),
       st.floats(0.25, 4.0), st.floats(0.25, 4.0), st.floats(0.25, 4.0),
       st.integers(0, 2 ** 31 - 1),
       st.lists(st.sampled_from(["zero", "low", "high", "full"]), min_size=1, max_size=5),
       st.sampled_from([1.0, 1.5, 2.0, 4.0, math.inf]),
       st.sampled_from([1.0, 1.5, 2.0, 4.0, math.inf]))
def test_lqlp_norms_rows_match_lqlp_norm(hx, h1, h2, lx, l1, l2, seed, rows, q, p):
    # rows are zero, or supported on the disjoint x-bands "low" and "high",
    # or on both, so the union support is wider than most rows' own
    grid = GridSpec(2 * hx, 2 * h1, 2 * h2, 2 * np.pi * lx, 2 * np.pi * l1,
                    2 * np.pi * l2)
    rng = np.random.default_rng(seed)
    top = grid.xi_max()
    bands = {"low": (0.0, top / 2), "high": (top / 2, top), "full": (0.0, top)}
    stack = np.array([np.zeros(grid.shape, complex) if row == "zero"
                      else random_band_field(grid, rng, *bands[row]).coeff for row in rows])
    npar = NormParams(q=q, p=p)
    got = lqlp_norms(stack, grid, npar)
    assert got.shape == (len(rows),)
    for coeff, val in zip(stack, got):
        one = lqlp_norm(SpectralField(grid, coeff, real_flag=False), npar)
        assert val == pytest.approx(one, rel=1e-14, abs=0.0)
    assert np.array_equal(lqlp_norms(np.zeros_like(stack), grid, npar), np.zeros(len(rows)))
    stack[-1, 0, 1, 0] = 1.0
    with pytest.raises(DomainError):
        lqlp_norms(stack, grid, npar)


def test_sector_masses_reject_xi_zero_content(grid_small):
    c = np.zeros(grid_small.shape, complex)
    c[0, 1, 0] = c[1, 0, 0] = 1.0      # xi = 0 lies in no shell
    with pytest.raises(DomainError):
        sector_masses(SpectralField(grid_small, c, real_flag=False))


def test_norm_params_validation():
    with pytest.raises(ConfigurationError):
        NormParams(q=0.5, p=2.0)


def test_galilean_sector_mass_permutation(grid_small, rng):
    # aligned shift with c a multiple of the top occupied shell permutes the
    # sector-mass multiset and leaves the norm invariant
    u = random_band_field(grid_small, rng, 0.9, 2.0, eta_max=1.0)
    top = max(2.0 ** j for (j, _, _) in sector_masses(u))
    c = (top, 0.0)
    v = galilean_shift(u, c)
    mu = sorted(np.round(np.sqrt(sorted(sector_masses(u).values())), 10))
    mv = sorted(np.round(np.sqrt(sorted(sector_masses(v).values())), 10))
    assert mu == mv
    npar = NormParams(q=2.0, p=1.5)
    assert lqlp_norm(v, npar) == pytest.approx(lqlp_norm(u, npar), rel=1e-10, abs=0)
    # and the sector indices shift by k -> k - c/lam at the top shell
    ku = {(j, k1, k2) for (j, k1, k2) in sector_masses(u) if 2.0 ** j == top}
    kv = {(j, k1, k2) for (j, k1, k2) in sector_masses(v) if 2.0 ** j == top}
    assert {(j, k1 - 1, k2) for (j, k1, k2) in ku} == kv


# ----------------------------------------------------------------------
# modulation machinery
# ----------------------------------------------------------------------

def _line_trace(grid, mode_idx, delta, T=16.0, n=256):
    c = np.zeros(grid.shape, complex)
    c[mode_idx] = 1.0
    kx = grid.mode_numbers(0)[mode_idx[0]]
    k1 = grid.mode_numbers(1)[mode_idx[1]]
    k2 = grid.mode_numbers(2)[mode_idx[2]]
    w = dispersion_symbol(kx * grid.dxi, (k1 * grid.deta1, k2 * grid.deta2))
    times = np.arange(n) * (T / n)
    coeff = c * np.exp(1j * (w + delta) * times)[:, None, None, None]
    return SpaceTimeTrace(times, coeff, grid, real_flag=False), w


@pytest.fixture(scope="module")
def grid_mod():
    return GridSpec(16, 8, 8, 4 * np.pi, 4 * np.pi, 4 * np.pi)


def test_modulation_split_and_parseval(grid_mod):
    tr, _ = _line_trace(grid_mod, (2, 1, 0), delta=0.0)
    T = 16.0
    above = modulation_projection(tr, 10 * 2 * np.pi / T, "above")
    below = modulation_projection(tr, 10 * 2 * np.pi / T, "below")
    wtr = windowed_trace(tr)
    gap = np.max(np.abs(above.coeff + below.coeff - wtr.coeff))
    assert gap <= 1e-10
    split = l2_spacetime(above) ** 2 + l2_spacetime(below) ** 2
    assert split == pytest.approx(l2_spacetime(wtr) ** 2, abs=1e-10)


def test_modulation_linear_solution_leakage(grid_mod):
    # exact linear line: above-part mass below 5% for Lam = 16 bins
    tr, _ = _line_trace(grid_mod, (2, 1, 0), delta=0.0)
    T = 16.0
    Lam = 16 * 2 * np.pi / T
    above = modulation_projection(tr, Lam, "above")
    frac = (l2_spacetime(above) / l2_spacetime(windowed_trace(tr))) ** 2
    assert frac < 0.05


def test_modulation_lam_zero_above_is_everything(grid_mod):
    tr, _ = _line_trace(grid_mod, (2, 1, 0), delta=3.0)
    above = modulation_projection(tr, 0.0, "above")
    wtr = windowed_trace(tr)
    assert np.max(np.abs(above.coeff - wtr.coeff)) <= 1e-12


def test_trace_refuses_bad_stack_and_times(grid_mod):
    times = np.arange(4.0)
    tr = SpaceTimeTrace(times, np.zeros((4, *grid_mod.shape), complex), grid_mod)
    row = tr.states[2].coeff
    assert np.shares_memory(row, tr.coeff) and not row.flags.writeable
    with pytest.raises(ConfigurationError, match="stack shape"):
        SpaceTimeTrace(times, np.zeros((3, *grid_mod.shape), complex), grid_mod)
    with pytest.raises(ConfigurationError, match="stack shape"):
        SpaceTimeTrace(times, np.zeros((4, 8, 8, 8), complex), grid_mod)
    with pytest.raises(ConfigurationError, match="strictly increasing"):
        SpaceTimeTrace(np.array([0.0, 1.0, 1.0, 2.0]),
                       np.zeros((4, *grid_mod.shape), complex), grid_mod)


def test_modulation_requires_uniform_grid(grid_mod):
    tr, _ = _line_trace(grid_mod, (2, 1, 0), delta=0.0, n=16)
    bad_times = tr.times.copy()
    bad_times[3] += 0.01
    tr2 = SpaceTimeTrace(bad_times, tr.coeff, grid_mod, real_flag=False)
    with pytest.raises(PreconditionError):
        modulation_projection(tr2, 1.0, "above")


def test_xdot_b_zero_is_spacetime_l2(grid_mod):
    tr, _ = _line_trace(grid_mod, (2, 1, 0), delta=1.7)
    assert modulation_weighted_norm(tr, 0.0) == pytest.approx(
        l2_spacetime(windowed_trace(tr)), rel=1e-12, abs=0)


def test_xdot_linear_solution_small(grid_mod):
    tr, _ = _line_trace(grid_mod, (2, 1, 0), delta=0.0)
    u0_norm = tr.states[0].l2_norm()
    T = 16.0
    for b in (0.6, 0.9, 1.0):
        val = modulation_weighted_norm(tr, b)
        assert val <= 0.10 * u0_norm * window_bandwidth(T) ** b


def test_xdot_shifted_line(grid_mod):
    T = 16.0
    delta = 40 * 2 * np.pi / T
    tr, _ = _line_trace(grid_mod, (2, 1, 0), delta=delta)
    u0_norm = tr.states[0].l2_norm()
    for b in (0.6, 0.9):
        val = modulation_weighted_norm(tr, b)
        assert val == pytest.approx(abs(delta) ** b * u0_norm, rel=0.10, abs=0)


# ----------------------------------------------------------------------
# variation norms
# ----------------------------------------------------------------------

def _pullback_trace_from_states(grid, raw_states):
    # build u(t_n) = S(t_n) g_n so that the pullback recovers g_n exactly
    times = np.arange(len(raw_states), dtype=float)
    coeff = np.stack([apply_linear_propagator(SpectralField(grid, g, real_flag=False), t).coeff
                      for t, g in zip(times, raw_states)])
    return SpaceTimeTrace(times, coeff, grid, real_flag=False)


def test_v2_linear_solution_zero(grid_mod):
    u0 = gaussian_datum(grid_mod, center_xi=1.0, width_xi=0.4, width_eta=0.4)
    times = np.linspace(0.0, 2.0, 9)
    tr = SpaceTimeTrace(times, np.stack([apply_linear_propagator(u0, t).coeff
                                         for t in times]), grid_mod)
    assert v2_variation_norm(pullback_states(tr), tr.grid.volume) <= 1e-6 * u0.l2_norm()
    assert u1_variation_norm(tr) <= 1e-9 * u0.l2_norm()


def test_variation_single_jump(grid_mod):
    a = 0.37
    V = grid_mod.volume
    z = np.zeros(grid_mod.shape, complex)
    step = z.copy()
    step[1, 0, 0] = a / math.sqrt(V)
    tr = _pullback_trace_from_states(grid_mod, [z, step, step])
    assert (v2_variation_norm(pullback_states(tr), tr.grid.volume)
            == pytest.approx(a, rel=1e-12, abs=0))
    assert u1_variation_norm(tr) == pytest.approx(a, rel=1e-12, abs=0)


def test_variation_staircase(grid_mod):
    # orthogonal equal jumps a over N steps: v2 = a sqrt(N), u1 = a N
    n, a = 9, 0.7
    V = grid_mod.volume
    acc = np.zeros(grid_mod.shape, complex)
    raw = []
    for i in range(n):
        if i > 0:
            acc = acc.copy()
            acc[1, i % 4, (i // 4) % 4] += a / math.sqrt(V)
        raw.append(acc)
    tr = _pullback_trace_from_states(grid_mod, raw)
    assert (v2_variation_norm(pullback_states(tr), tr.grid.volume)
            == pytest.approx(a * math.sqrt(n - 1), rel=1e-10, abs=0))
    assert u1_variation_norm(tr) == pytest.approx(a * (n - 1), rel=1e-10, abs=0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 9))
def test_v2_dp_equals_bruteforce_property(seed, n):
    grid = GridSpec(8, 8, 8, 2 * np.pi, 2 * np.pi, 2 * np.pi)
    rng = np.random.default_rng(seed)
    raw = []
    for _ in range(n):
        z = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        mask = np.zeros(grid.shape)
        mask[1:3, :2, :2] = 1.0
        raw.append(z * mask)
    tr = _pullback_trace_from_states(grid, raw)
    pull = pullback_states(tr)
    dp = v2_variation_norm(pull, grid.volume)
    bf = v2_variation_bruteforce(pull, grid.volume)
    assert dp == pytest.approx(bf, rel=1e-10, abs=1e-12)
    assert dp <= u1_variation_norm(tr) * (1 + 1e-10)


def test_u1_high_modulation_bound(grid_mod):
    # L^1_t L^2 of the above-Lam part is bounded by c/Lam * u1 variation;
    # ratio bound frozen from the ensemble oracle (x2 headroom).
    rng = np.random.default_rng(11)
    V = grid_mod.volume
    worst = 0.0
    for trial in range(6):
        n = 64
        raw = []
        acc = np.zeros(grid_mod.shape, complex)
        for i in range(n):
            if i % 8 == 0 and i > 0:
                acc = acc.copy()
                acc[1 + (i // 8) % 3, i % 3, 0] += \
                    (0.2 + 0.4 * rng.random()) / math.sqrt(V)
            raw.append(acc)
        times = np.arange(n) * (16.0 / n)
        coeff = np.stack([apply_linear_propagator(
            SpectralField(grid_mod, g, real_flag=False), t).coeff
            for t, g in zip(times, raw)])
        tr = SpaceTimeTrace(times, coeff, grid_mod, real_flag=False)
        u1 = u1_variation_norm(tr)
        for Lam in (4.0, 8.0, 16.0):
            above = modulation_projection(tr, Lam, "above")
            ratio = l1t_l2_norm(above) * Lam / u1
            worst = max(worst, ratio)
    assert worst <= 4.0
