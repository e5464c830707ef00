"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Two sub-assertions encode known-incorrect displayed forms (a
level-circle measure orientation, and a zero-mean decay exponent at p = 1)
as strict xfails: the stated assertion runs, reliably fails, and the suite
records that fact instead of hiding it; the corrected forms are verified by
the passing criteria (details in the printed lines and module docstrings).
"""

import math
import time

import numpy as np
import pytest

from kplab.data import (gaussian_datum, member_rng, random_band_field,
                        scattering_datum)
from kplab.decomposition import (NormParams, SpaceTimeTrace, lqlp_norm,
                                 lqlp_norms, pullback_states,
                                 v2_variation_bruteforce, v2_variation_norm)
from kplab.estimates import (bilinear_mu_sweep,
                             circle_measure_closed_form,
                             circle_measure_integral, phase_difference_roots,
                             random_measure_config, random_resonance_point,
                             resonance_identity_defect, sector_gamma_sweep,
                             strichartz_ratio)
from kplab.function_spaces import (AnalyticDatum, divergent_sequence_check,
                                   sector_sum_decay, zero_mean_blowup)
from kplab.illposedness import (IllposedParams, growth_sweeps,
                                sample_interaction_set)
from kplab.scattering import asymptotic_state
from kplab.solver import (SimConfig, band_weight, bands_for_extent, evolve, mass_series,
                          picard_iterate, slope_filtered_product)
from kplab.spectral import (GridSpec, SpectralField, apply_linear_propagator,
                            galilean_boost, galilean_shift, grid_geometry,
                            scaling_transform, trilinear_pairing)


def _line(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} [{name}]: {'PASS' if ok else 'FAIL'} - {detail}")


# ----------------------------------------------------------------------

def test_criterion_01_resonance_identity():
    t0 = time.time()
    rng = member_rng(101, 0)
    worst = 0.0
    for _ in range(10000):
        p = random_resonance_point(rng, on_shell=False)
        worst = max(worst, resonance_identity_defect(p))
    dt = time.time() - t0
    ok = worst <= 1e-9 and dt < 5.0
    _line(1, "resonance identity", ok,
          f"max rel defect {worst:.2e} (tol 1e-9), {dt:.1f}s (cap 5s)")
    assert worst <= 1e-9
    assert dt < 5.0


def test_criterion_02_circle_measure():
    t0 = time.time()
    rng = member_rng(102, 0)
    worst = 0.0
    for _ in range(100):
        cfg = random_measure_config(rng)
        val, _ = circle_measure_integral(cfg)
        ref = circle_measure_closed_form(cfg)
        worst = max(worst, abs(val - ref) / ref)
    dt = time.time() - t0
    ok = worst <= 1e-6 and dt < 30.0
    _line(2, "circle-measure closed form", ok,
          f"max rel defect {worst:.2e} vs pi|xi-xi1||xi-xi2|/|xi2-xi1| "
          f"(tol 1e-6), {dt:.1f}s (cap 30s)")
    assert worst <= 1e-6
    assert dt < 30.0


@pytest.mark.xfail(strict=True,
                   reason="known-incorrect orientation: the form "
                          "4pi|xi2-xi1|/(|xi-xi1||xi-xi2|) is the reciprocal "
                          "of the measure; coarea quadrature and a "
                          "Monte-Carlo oracle both give "
                          "pi|xi-xi1||xi-xi2|/|xi2-xi1|")
def test_criterion_02_erratum_displayed_constant():
    rng = member_rng(102, 1)
    cfg = random_measure_config(rng)
    val, _ = circle_measure_integral(cfg)
    displayed = 4 * math.pi * abs(cfg.xi2 - cfg.xi1) / (
        abs(cfg.xi - cfg.xi1) * abs(cfg.xi - cfg.xi2))
    _line(2, "circle-measure (reciprocal orientation)", False,
          f"quadrature {val:.4f} vs reciprocal form {displayed:.4f} "
          "- known-incorrect orientation, recorded as strict xfail")
    assert abs(val - displayed) <= 1e-6 * displayed


def test_criterion_03_section_roots():
    t0 = time.time()
    rng = member_rng(103, 0)
    max_roots, worst = 0, 0.0
    done = 0
    while done < 1000:
        x1, x2 = rng.uniform(-3, 3, 2)
        if abs(x1 - x2) < 0.1:
            continue
        rep = phase_difference_roots(x1, x2, rng.uniform(-2, 2, 2),
                                     rng.uniform(-2, 2, 2),
                                     rng.uniform(-20, 20))
        max_roots = max(max_roots, rep.count)
        if rep.count:
            worst = max(worst, float(np.max(rep.defects)))
        done += 1
    dt = time.time() - t0
    ok = max_roots <= 4 and worst <= 1e-9 and dt < 30.0
    _line(3, "phase-section roots", ok,
          f"max roots {max_roots} (cap 4), derivative defect {worst:.2e} "
          f"(tol 1e-9), {dt:.1f}s (cap 30s)")
    assert max_roots <= 4
    assert worst <= 1e-9
    assert dt < 30.0


def test_criterion_04_propagator_unitarity():
    t0 = time.time()
    grid = GridSpec(64, 32, 32, 8 * np.pi, 8 * np.pi, 8 * np.pi)
    rng = member_rng(104, 0)
    u = random_band_field(grid, rng, 0.0, 7.0, eta_max=7.0)
    worst_u, worst_g = 0.0, 0.0
    for t in (0.37, 1.9, -2.4):
        ut = apply_linear_propagator(u, t)
        worst_u = max(worst_u, abs(ut.l2_norm() / u.l2_norm() - 1.0))
        round_trip = apply_linear_propagator(ut, -t)
        worst_g = max(worst_g, float(np.max(np.abs(round_trip.coeff - u.coeff))))
    both = apply_linear_propagator(apply_linear_propagator(u, 0.31), 0.57)
    direct = apply_linear_propagator(u, 0.88)
    worst_g = max(worst_g, float(np.max(np.abs(both.coeff - direct.coeff))))
    dt = time.time() - t0
    ok = worst_u <= 1e-12 and worst_g <= 1e-12 and dt < 5.0
    _line(4, "propagator unitarity/group", ok,
          f"unitarity defect {worst_u:.2e}, group defect {worst_g:.2e} "
          f"(tol 1e-12), {dt:.1f}s (cap 5s)")
    assert worst_u <= 1e-12 and worst_g <= 1e-12
    assert dt < 5.0


def test_criterion_05_nonlinear_symmetry_covariance():
    t0 = time.time()
    T = 0.25
    grid = GridSpec(64, 96, 96, 8 * np.pi, 8 * np.pi, 8 * np.pi)
    u0 = gaussian_datum(grid, amplitude=1e-4, center_xi=1.5,
                        width_xi=0.45, width_eta=0.45)
    cfg = SimConfig(grid, dt=1 / 64, T=T, samples_per_unit=4)
    tr = evolve(u0, cfg)

    # Galilean two-path (aligned slope, same grid)
    c = (grid.deta1 / grid.dxi, 0.0)
    tr_shift = evolve(galilean_shift(u0, c), cfg)
    path2 = galilean_boost(tr.states[-1], c, T)
    num = np.sqrt(np.sum(np.abs(tr_shift.states[-1].coeff - path2.coeff) ** 2))
    den = np.sqrt(np.sum(np.abs(path2.coeff) ** 2))
    gal = num / den

    # scaling two-path (nested grids, dt and T scaled by lam^3)
    lam = 2.0
    v0 = scaling_transform(u0, lam)
    cfg_s = SimConfig(v0.grid, dt=1 / 64 / lam ** 3, T=T / lam ** 3,
                      samples_per_unit=4 * int(lam ** 3))
    tr_s = evolve(v0, cfg_s)
    want = scaling_transform(tr.states[-1], lam)
    num = np.sqrt(np.sum(np.abs(tr_s.states[-1].coeff - want.coeff) ** 2))
    den = np.sqrt(np.sum(np.abs(want.coeff) ** 2))
    scal = num / den

    dt = time.time() - t0
    ok = gal <= 1e-8 and scal <= 1e-8 and dt < 20.0
    _line(5, "nonlinear symmetry covariance", ok,
          f"galilean {gal:.2e}, scaling {scal:.2e} (tol 1e-8), "
          f"{dt:.1f}s (cap 20s)")
    assert gal <= 1e-8 and scal <= 1e-8
    assert dt < 20.0


def test_criterion_06_mass_conservation():
    t0 = time.time()
    grid = GridSpec(24, 12, 12, 4 * np.pi, 4 * np.pi, 4 * np.pi)
    u0 = gaussian_datum(grid, amplitude=0.05, center_xi=1.0,
                        width_xi=0.4, width_eta=0.4)
    tr = evolve(u0, SimConfig(grid, dt=0.01, T=1.0, samples_per_unit=8))
    ms = mass_series(tr)
    drift = float(np.max(np.abs(ms - ms[0])) / ms[0])
    dt = time.time() - t0
    ok = drift <= 1e-6 and dt < 5.0
    _line(6, "mass conservation", ok,
          f"relative drift {drift:.2e} over T=1 (tol 1e-6), {dt:.1f}s (cap 5s)")
    assert drift <= 1e-6
    assert dt < 5.0


def test_criterion_07_strichartz():
    t0 = time.time()
    grid = GridSpec(64, 32, 32, 8 * np.pi, 8 * np.pi, 8 * np.pi)
    u0 = gaussian_datum(grid, center_xi=1.5, width_xi=0.5, width_eta=0.5)
    worst = 0.0
    for (p, q, family) in ((4, 4, "auto"), (2, 6, "auto"), (6, 6, "scaling")):
        base = strichartz_ratio(u0, p, q, T=4.0, family=family, n_time=48)
        for h in (0.25, 0.5, 2.0, 4.0):
            uh = scaling_transform(u0, h)
            rh = strichartz_ratio(uh, p, q, T=4.0 / h ** 3, family=family,
                                  n_time=48)
            worst = max(worst, abs(rh / base - 1.0))
    vals = []
    for m in range(20):
        rng = member_rng(107, m)
        w = random_band_field(grid, rng, 0.5, 4.0, eta_max=4.0)
        vals.append(strichartz_ratio(w, 4, 4, T=4.0, n_time=32))
    vals = np.array(vals)
    med = float(np.median(vals))
    stable = vals.max() <= 1.2 * med and vals.min() >= 0.8 * med
    dt = time.time() - t0
    ok = worst <= 0.05 and np.isfinite(vals.max()) and stable and dt < 10.0
    _line(7, "Strichartz ratios", ok,
          f"dilation defect {worst:.2e} (tol 5%); ensemble sup "
          f"{vals.max():.3f}, spread within +-20% of median: {stable}; "
          f"{dt:.1f}s (cap 10s)")
    assert worst <= 0.05
    assert stable
    assert dt < 10.0


def test_criterion_08_bilinear_estimates():
    t0 = time.time()
    grid = GridSpec(232, 64, 64, 32 * np.pi, 32 * np.pi, 32 * np.pi)
    rep = bilinear_mu_sweep([1 / 8, 1 / 4, 1 / 2, 1.0], lam=4.0,
                            ensemble_size=20, T=1.0, grid=grid, seed=108)
    sec = sector_gamma_sweep([64, 128, 256, 512], mu=0.25, lam=2.0,
                             ensemble_size=6, T=4.0, seed=108)
    dt = time.time() - t0
    ok = 0.8 <= rep.slope <= 1.2 and 0.35 <= sec.slope <= 0.65 and dt < 80.0
    _line(8, "bilinear estimates", ok,
          f"low-high mu-slope {rep.slope:.3f} (band [0.8, 1.2]); "
          f"sector |Gamma|-slope {sec.slope:.3f} (band [0.35, 0.65]); "
          f"{dt:.0f}s (cap 80s)")
    assert 0.8 <= rep.slope <= 1.2
    assert 0.35 <= sec.slope <= 0.65
    assert dt < 80.0


def test_criterion_09_bilinear_projection_machinery():
    t0 = time.time()
    rng = member_rng(109, 0)
    s = rng.uniform(-5000, 5000, (2, 4096))
    bands = bands_for_extent(5000.0)
    tot = sum(band_weight(L, s[0], s[1]) for L in bands)
    part = float(np.max(np.abs(tot - 1.0)))

    grid = GridSpec(16, 16, 16, 32 * np.pi, 4 * np.pi, 4 * np.pi)
    worst = 0.0
    for _ in range(3):
        u = random_band_field(grid, rng, 0.0, 0.4, eta_max=1.5)
        v = random_band_field(grid, rng, 0.0, 0.4, eta_max=1.5)
        w = random_band_field(grid, rng, 0.0, 0.2, eta_max=1.5)
        for L in (1.0, 2.0, 4.0):
            a = trilinear_pairing(u, slope_filtered_product(v, w, L))
            b = trilinear_pairing(v, slope_filtered_product(u, w, L))
            c = trilinear_pairing(w, slope_filtered_product(u, v, L))
            worst = max(worst, abs(a - b), abs(a - c))
    dt = time.time() - t0
    ok = part <= 1e-12 and worst <= 1e-10 and dt < 8.0
    _line(9, "slope-projection machinery", ok,
          f"partition defect {part:.2e} (tol 1e-12); trilinear symmetry gap "
          f"{worst:.2e} (tol 1e-10); {dt:.1f}s (cap 8s)")
    assert part <= 1e-12
    assert worst <= 1e-10
    assert dt < 8.0


def test_criterion_10_picard_contraction():
    t0 = time.time()
    grid = GridSpec(24, 12, 12, 4 * np.pi, 4 * np.pi, 4 * np.pi)
    npar = NormParams()
    base = gaussian_datum(grid, amplitude=1.0, center_xi=1.0,
                          width_xi=0.4, width_eta=0.4)
    base_norm = lqlp_norm(base, npar)
    geo = grid_geometry(grid)
    cfg = SimConfig(grid, dt=1 / 64, T=1.0, samples_per_unit=64)

    quad_ratios = []
    gap = None
    ratios_ok = True
    for eps in (1e-3, 5e-4, 2.5e-4):
        u0 = SpectralField(grid, base.coeff * (eps / base_norm), True)
        tr, rep = picard_iterate(u0, cfg, n_max=8, tol=1e-14)
        ratios_ok &= all(r <= 0.5 for r in rep.ratios)
        # X-surrogate size of the nonlinear part u = w - S(t) u0
        lin = u0.coeff * geo.phase(tr.times)
        sup_l = float(np.max(lqlp_norms(tr.coeff - lin, grid, npar)))
        quad_ratios.append(sup_l / eps ** 2)
        if eps == 1e-3:
            tr_e = evolve(u0, SimConfig(grid, dt=1 / 256, T=1.0,
                                        samples_per_unit=64))
            gap = max(np.sqrt(grid.volume * np.sum(np.abs(a.coeff - b.coeff) ** 2))
                      for a, b in zip(tr.states, tr_e.states))
    spread = max(quad_ratios) / min(quad_ratios)
    dt = time.time() - t0
    # the amplitudes span x4, so a part linear in eps would give spread 4
    ok = ratios_ok and gap <= 1e-8 and spread <= 2.0 and dt < 2.0
    _line(10, "Picard contraction", ok,
          f"ratios <= 1/2: {ratios_ok}; limit-vs-stepper gap {gap:.2e} "
          f"(tol 1e-8); quadratic-smallness spread x{spread:.2f} (cap x2); "
          f"{dt:.1f}s (cap 2s)")
    assert ratios_ok
    assert gap <= 1e-8
    assert spread <= 2.0
    assert dt < 2.0


def test_criterion_11_scattering():
    t0 = time.time()
    grid = GridSpec(192, 24, 24, 32 * np.pi, 8 * np.pi, 8 * np.pi)
    npar = NormParams()
    n_seeds, n_dec, resid_ok = 20, 0, 0
    for m in range(n_seeds):
        rng = member_rng(111, m)
        u0 = scattering_datum(grid, rng, 1e-3, npar)
        tr = evolve(u0, SimConfig(grid, dt=1 / 16, T=8.0, samples_per_unit=1))
        rep = asymptotic_state(tr, npar, strict=False)
        if rep.detected and np.all(np.diff(rep.cauchy_gaps) < 0):
            n_dec += 1
        # residuals are measured against the last pullback, so the last is 0
        if rep.residuals[-2] <= rep.residuals[0] / 2:
            resid_ok += 1
    dt = time.time() - t0
    ok = n_dec >= 0.9 * n_seeds and resid_ok == n_seeds and dt < 105.0
    _line(11, "scattering", ok,
          f"strictly decreasing gaps {n_dec}/{n_seeds} (need >= 18); "
          f"residual at t=4 <= first/2 in {resid_ok}/{n_seeds}; {dt:.0f}s (cap 105s)")
    assert n_dec >= 0.9 * n_seeds
    assert resid_ok == n_seeds
    assert dt < 105.0


def test_criterion_12_illposedness_growth():
    t0 = time.time()
    lams = [8.0, 16.0, 32.0, 64.0]
    ps = (3.0, 4.0, 2.0)
    reps = growth_sweeps(lams, ps)
    results = {p: rep.slope for p, rep in zip(ps, reps)}
    worst_gap = max(float(np.max(rep.gaps)) for rep in reps)
    dt = time.time() - t0
    ok = (abs(results[3.0] - 1.0) <= 0.3 and abs(results[4.0] - 1.5) <= 0.3
          and results[2.0] <= 0.3 and worst_gap <= 0.02 and dt < 2.0)
    _line(12, "ill-posedness growth", ok,
          f"slopes p=3: {results[3.0]:.3f} (1.0+-0.3), p=4: {results[4.0]:.3f} "
          f"(1.5+-0.3), p=2: {results[2.0]:.3f} (<=0.3); route gap "
          f"{worst_gap:.2%} (tol 2%); {dt:.1f}s (cap 2s)")
    assert abs(results[3.0] - 1.0) <= 0.3
    assert abs(results[4.0] - 1.5) <= 0.3
    assert results[2.0] <= 0.3
    assert worst_gap <= 0.02
    assert dt < 2.0


def test_criterion_13_resonance_size_on_interaction_set():
    t0 = time.time()
    lo, hi = math.inf, 0.0
    for lam in (8.0, 16.0, 32.0, 64.0):
        ip = IllposedParams(lam ** -2, lam)
        R, scale = sample_interaction_set(ip, 100000, seed=113)
        ratios = np.abs(R) / scale
        lo, hi = min(lo, ratios.min()), max(hi, ratios.max())
    dt = time.time() - t0
    ok = lo >= 1 / 64 and hi <= 64 and dt < 0.25
    _line(13, "|R| ~ lam^2 mu", ok,
          f"sampled |R|/(lam^2 mu) in [{lo:.3f}, {hi:.3f}] (band [1/64, 64]); "
          f"{dt:.2f}s (cap 0.25s)")
    assert lo >= 1 / 64 and hi <= 64
    assert dt < 0.25


def test_criterion_14_function_spaces():
    t0 = time.time()
    d = AnalyticDatum()
    # the p = 2 values, where the displayed exponent 3/2 - 2/p is sharp
    tab2 = sector_sum_decay(d, 2.0)
    dich2 = zero_mean_blowup(d, 2.0)
    dich1 = zero_mean_blowup(d, 1.0)
    dd = AnalyticDatum(deriv_x=1)
    dichd = zero_mean_blowup(dd, 1.0)
    comb = divergent_sequence_check([2.0 ** -a for a in (2, 4, 8, 16, 32, 40)],
                                    3.0)
    growth = comb.pairings[-1] / comb.pairings[0]
    norms_ok = bool(np.all((comb.norms >= 0.25) & (comb.norms <= 4.0)))
    dichotomy_ok = dich1.divergent and not dich2.divergent and not dichd.divergent
    dt = time.time() - t0
    ok = (abs(tab2.low_slope - 0.5) <= 0.1 and norms_ok and growth >= 4.0
          and dichotomy_ok and abs(dich2.sum_slope - 0.5) <= 0.1 and dt < 1.0)
    _line(14, "function spaces", ok,
          f"smooth-decay low-shell slope (p=2) {tab2.low_slope:.3f} (0.5+-0.1); "
          f"comb norms in [{comb.norms.min():.2f}, {comb.norms.max():.2f}] "
          f"(band [1/4, 4]), pairing growth x{growth:.2f} (need >= 4); "
          f"dichotomy p=1 divergent/p=2 bounded/deriv bounded: {dichotomy_ok}; "
          f"{dt:.1f}s (cap 1s)")
    assert abs(tab2.low_slope - 0.5) <= 0.1
    assert norms_ok and growth >= 4.0
    assert dichotomy_ok
    assert dt < 1.0


@pytest.mark.xfail(strict=True,
                   reason="the classical displayed slope 3/2 - 2/p = -1/2 "
                          "at p = 1 is not attainable for a fixed smooth "
                          "datum; the sharp sector-count law gives -3/2 "
                          "(bare sum) / -1 (partial value), agreeing with "
                          "the displayed value only at p = 2.  The "
                          "dichotomy threshold p = 4/3 itself is verified "
                          "by the passing criterion above.")
def test_criterion_14_erratum_p1_slope_as_stated():
    d = AnalyticDatum()
    rep = zero_mean_blowup(d, 1.0)
    _line(14, "zero-mean slope p=1, classical displayed value", False,
          f"measured bare-sum slope {rep.sum_slope:.3f}, partial "
          f"{rep.partial_slope:.3f}; displayed -0.5 +- 0.1 is not sharp - "
          "recorded as strict xfail")
    assert abs(rep.sum_slope - (-0.5)) <= 0.1 or abs(rep.partial_slope - (-0.5)) <= 0.1


def test_criterion_15_variation_dp_exact():
    t0 = time.time()
    grid = GridSpec(8, 8, 8, 2 * np.pi, 2 * np.pi, 2 * np.pi)
    rng = member_rng(115, 0)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        times = np.arange(n, dtype=float)
        coeff = np.empty((n, *grid.shape), dtype=complex)
        for i in range(n):
            z = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
            mask = np.zeros(grid.shape)
            mask[1:3, :2, :2] = 1.0
            f = SpectralField(grid, z * mask, real_flag=False)
            coeff[i] = apply_linear_propagator(f, float(i)).coeff
        tr = SpaceTimeTrace(times, coeff, grid, real_flag=False)
        pull = pullback_states(tr)
        dp, bf = v2_variation_norm(pull, grid.volume), v2_variation_bruteforce(pull, grid.volume)
        worst = max(worst, abs(dp - bf) / max(bf, 1e-30))
    dt = time.time() - t0
    ok = worst <= 1e-10 and dt < 10.0
    _line(15, "2-variation DP vs enumeration", ok,
          f"max rel gap {worst:.2e} over 100 traces (exact), "
          f"{dt:.1f}s (cap 10s)")
    assert worst <= 1e-10
    assert dt < 10.0
