import numpy as np
import pytest

from kplab.data import gaussian_datum, member_rng, scattering_datum
from kplab.decomposition import NormParams, SpaceTimeTrace, lqlp_norm, pullback_states
from kplab.errors import PreconditionError, ScatteringNotDetected
from kplab.scattering import asymptotic_state
from kplab.solver import SimConfig, evolve
from kplab.spectral import GridSpec, SpectralField, apply_linear_propagator
from oracles import zero_field


@pytest.fixture(scope="module")
def grid_scatter():
    return GridSpec(128, 16, 16, 16 * np.pi, 8 * np.pi, 8 * np.pi)


def _linear_trace(u0, times):
    return SpaceTimeTrace(np.asarray(times),
                          np.stack([apply_linear_propagator(u0, t).coeff for t in times]),
                          u0.grid, u0.real_flag)


def test_pullback_linear_is_constant(grid_scatter):
    u0 = gaussian_datum(grid_scatter, center_xi=1.0, width_xi=0.3, width_eta=0.4)
    tr = _linear_trace(u0, np.arange(9.0) + 1.0)
    for s in pullback_states(tr):
        assert np.max(np.abs(s - u0.coeff)) <= 1e-12


def test_pullback_zero(grid_scatter):
    tr = _linear_trace(zero_field(grid_scatter), [0.0, 1.0, 2.0])
    assert not pullback_states(tr).any()


def test_asymptotic_state_linear_exact(grid_scatter):
    u0 = gaussian_datum(grid_scatter, center_xi=1.0, width_xi=0.3, width_eta=0.4)
    tr = _linear_trace(u0, np.arange(0.0, 8.5, 0.5))
    rep = asymptotic_state(tr, NormParams(), strict=False)
    assert np.max(rep.cauchy_gaps) <= 1e-12
    assert np.max(rep.residuals) <= 1e-12
    # gaps identically ~0: last-value state equals the datum
    assert np.max(np.abs(rep.pullbacks[-1].coeff - u0.coeff)) <= 1e-12


def test_asymptotic_state_requires_checkpoints(grid_scatter):
    u0 = gaussian_datum(grid_scatter, center_xi=1.0)
    tr = _linear_trace(u0, [0.0, 1.0, 2.0])   # only reaches t = 2
    with pytest.raises(PreconditionError):
        asymptotic_state(tr, NormParams())


def test_small_data_gaps_decrease(grid_scatter):
    npar = NormParams()
    rng = member_rng(41, 0)
    u0 = scattering_datum(grid_scatter, rng, 1e-3, npar)
    tr = evolve(u0, SimConfig(grid_scatter, dt=1 / 16, T=8.0, samples_per_unit=1))
    rep = asymptotic_state(tr, npar)
    assert rep.detected
    assert np.all(np.diff(rep.cauchy_gaps) < 0)
    # wave-operator residual: monotone to its minimum at the final checkpoint
    assert rep.residuals[-1] <= rep.residuals[0] / 4
    assert np.argmin(rep.residuals) == rep.residuals.size - 1


def test_large_datum_diagnostic(grid_scatter):
    # large datum: gaps stop decreasing (or the run blows up); either way no
    # asymptotic state is extracted
    npar = NormParams()
    rng = member_rng(42, 0)
    u0 = scattering_datum(grid_scatter, rng, 60.0, npar)
    from kplab.errors import BlowupError
    with pytest.raises((ScatteringNotDetected, BlowupError)):
        tr = evolve(u0, SimConfig(grid_scatter, dt=1 / 16, T=8.0,
                                  samples_per_unit=1))
        asymptotic_state(tr, npar, strict=True)


def test_u_plus_norm_comparable_for_small_data(grid_scatter):
    npar = NormParams()
    rng = member_rng(43, 0)
    u0 = scattering_datum(grid_scatter, rng, 1e-3, npar)
    tr = evolve(u0, SimConfig(grid_scatter, dt=1 / 16, T=8.0, samples_per_unit=1))
    rep = asymptotic_state(tr, npar)
    assert rep.detected   # so the last pullback is u_plus
    n_plus = lqlp_norm(SpectralField(tr.grid, rep.pullbacks[-1].coeff, real_flag=False),
                       npar)
    n0 = lqlp_norm(u0, npar)
    assert 0.5 <= n_plus / n0 <= 2.0
