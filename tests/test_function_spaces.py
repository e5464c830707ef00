import numpy as np
import pytest

from kplab.errors import ConfigurationError
from kplab.function_spaces import (AnalyticDatum, comb_layer_pairing,
                                   comb_norm, divergent_sequence_check,
                                   gaussian_sector_sum, sector_sum_decay,
                                   zero_mean_blowup, _pair_constant)
from oracles import gaussian_total_mass


def test_datum_validation():
    with pytest.raises(ConfigurationError):
        AnalyticDatum(deriv_x=2)


def test_sector_sum_p2_telescopes_to_shell_mass():
    # at p = 2 the sector sum squared equals the shell mass (Parseval)
    d = AnalyticDatum()
    for lam in (0.25, 1.0, 4.0):
        s2 = gaussian_sector_sum(d, lam, 2.0)
        assert s2 ** 2 == pytest.approx(gaussian_total_mass(d, lam), rel=1e-6, abs=0)


def test_enumeration_vs_slope_integral_crossover():
    # the two summation routes agree where both are usable
    d = AnalyticDatum()
    lam = 2.0 ** -4   # m_max ~ 1536: integral route
    a = gaussian_sector_sum(d, lam, 1.5, enumeration_limit=10 ** 9)
    b = gaussian_sector_sum(d, lam, 1.5, enumeration_limit=1)
    assert a == pytest.approx(b, rel=2e-3, abs=0)


def test_low_lambda_slopes():
    d = AnalyticDatum()
    # measured sharp law 5/2 - 4/p; the classical display 3/2 - 2/p agrees
    # only at p = 2
    tab2 = sector_sum_decay(d, 2.0)
    assert tab2.low_slope == pytest.approx(0.5, abs=0.1)
    tab1 = sector_sum_decay(d, 1.0)
    assert tab1.low_slope == pytest.approx(-1.5, abs=0.1)
    tab4 = sector_sum_decay(d, 4.0)
    assert tab4.low_slope == pytest.approx(1.5, abs=0.1)


def test_high_lambda_tail():
    d = AnalyticDatum()   # unit-width gaussian
    tab = sector_sum_decay(d, 2.0, lam_lo=1.0, lam_hi=8.0)
    assert tab.values[-1] < 1e-6 * tab.values[0]


def test_p_infinity_is_max_and_nesting():
    d = AnalyticDatum()
    lam = 0.5
    vals = [gaussian_sector_sum(d, lam, p) for p in (1.0, 1.5, 2.0, 4.0)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_zero_mean_dichotomy():
    d = AnalyticDatum()
    rep1 = zero_mean_blowup(d, 1.0)
    assert rep1.divergent
    assert rep1.partial_slope == pytest.approx(-1.0, abs=0.1)
    rep2 = zero_mean_blowup(d, 2.0)
    assert not rep2.divergent
    assert rep2.partial_slope == pytest.approx(1.0, abs=0.1)
    # x-mean-zero derivative datum: bounded partial values even at p = 1
    dd = AnalyticDatum(deriv_x=1)
    repd = zero_mean_blowup(dd, 1.0)
    assert not repd.divergent
    assert abs(repd.partial_slope) <= 0.1


def test_comb_norm_uniformly_bounded():
    for p in (1.0, 2.0, 3.0):
        for a in (2, 4, 8, 16, 32, 40):
            val = comb_norm(2.0 ** -a, p)
            assert 0.25 <= val <= 4.0


def test_comb_floor_guard():
    comb_norm(2.0 ** -40, 2.0)   # innermost shell 2^-80, on the floor
    with pytest.raises(ConfigurationError):
        comb_norm(2.0 ** -41, 2.0)


def test_single_layer_pairing_closed_form():
    # deep layers pair to exactly 2 * the transverse constant
    expect = 2.0 * _pair_constant()
    assert comb_layer_pairing(2.0 ** -7) == pytest.approx(expect, rel=1e-12, abs=0)
    assert comb_layer_pairing(2.0 ** -3) == pytest.approx(expect, rel=1e-12, abs=0)


def test_comb_pairing_growth():
    mus = [2.0 ** -a for a in (2, 4, 8, 16, 32, 40)]
    rep3 = divergent_sequence_check(mus, 3.0)
    assert np.all(np.diff(rep3.pairings) > 0)
    assert rep3.pairings[-1] / rep3.pairings[0] >= 4.0
    assert rep3.growth_exponent == pytest.approx(1 - 1 / 3, abs=0.2)
    rep2 = divergent_sequence_check(mus, 2.0)
    assert np.all(np.diff(rep2.pairings) > 0)
    assert rep2.growth_exponent == pytest.approx(0.5, abs=0.2)
    # p = 1 endpoint: bounded pairing (exponent approximately 0)
    rep1 = divergent_sequence_check(mus, 1.0)
    assert abs(rep1.growth_exponent) <= 0.2
    assert rep1.pairings.max() / rep1.pairings.min() <= 2.0
