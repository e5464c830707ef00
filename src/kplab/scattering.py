"""Asymptotic-state extraction: pullbacks and Cauchy gaps at dyadic
checkpoints, and the wave-operator residual.

"t -> infinity" is modeled by dyadic checkpoints {1, 2, 4, 8, ...} up to the
trace horizon; the asymptotic state is the pullback at the final checkpoint
(last-value extrapolation).  The detection criterion is a monotone trend of
the Cauchy gaps, not a rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decomposition import NormParams, SpaceTimeTrace, lqlp_norm
from .errors import PreconditionError, ScatteringNotDetected
from .spectral import SpectralField, apply_linear_propagator


@dataclass
class ScatterReport:
    sample_times: np.ndarray
    pullbacks: list
    cauchy_gaps: np.ndarray
    residuals: np.ndarray
    detected: bool          # u_plus = pullbacks[-1] is defined


def _dyadic_checkpoints(times: np.ndarray):
    out = []
    t = 1.0
    tol = 1e-9
    while t <= times[-1] * (1 + tol):
        idx = int(np.argmin(np.abs(times - t)))
        if abs(times[idx] - t) > tol * max(1.0, t):
            raise PreconditionError(f"trace has no sample at dyadic checkpoint t={t}")
        out.append(idx)
        t *= 2.0
    return out


def asymptotic_state(tr: SpaceTimeTrace, np_: NormParams,
                     strict: bool = True) -> ScatterReport:
    """Pullbacks at dyadic checkpoints; the last is u_plus when detected.

    Cauchy gaps are ||pullback(t_{j+1}) - pullback(t_j)|| in the anisotropic
    norm; u_plus is defined only if the gaps decrease over the last three
    checkpoints.  With strict=True a non-decreasing tail raises
    ScatteringNotDetected (datum too large or horizon too short).
    """
    idxs = _dyadic_checkpoints(tr.times)
    if len(idxs) < 4:
        raise PreconditionError("trace must cover dyadic checkpoints up to T >= 8")
    times = tr.times[idxs]
    states = tr.states
    pulls = [apply_linear_propagator(states[i], -tr.times[i]) for i in idxs]
    gaps = np.array([
        lqlp_norm(SpectralField(tr.grid, b.coeff - a.coeff, real_flag=False), np_)
        for a, b in zip(pulls, pulls[1:])])
    decreasing = bool(np.all(np.diff(gaps[-3:]) < 0)) if gaps.size >= 3 else False
    residuals = np.array([
        lqlp_norm(SpectralField(tr.grid, p.coeff - pulls[-1].coeff, real_flag=False), np_)
        for p in pulls])
    if not decreasing and strict:
        raise ScatteringNotDetected(
            "no scattering detected: Cauchy gaps are not decreasing "
            f"(gaps {np.array2string(gaps, precision=3)}); datum too large or T too short")
    return ScatterReport(times, pulls, gaps, residuals, decreasing)
