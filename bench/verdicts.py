"""Output checks of the benchmark operations.

Each check takes plain numbers or arrays and returns None when the answer
is acceptable, or a message saying what is wrong.  The references are
either a computation made apart from the timed path (an O(N^2) oracle, an
independent time stepper, a second quadrature) or a property the method
must have (mass conservation, an exact partition, unitarity, a scaling
exponent from the paper).  No check compares with stored earlier output.
`selftest.py` feeds every check a wrong answer and confirms it is refused.
"""

from __future__ import annotations

import math

import numpy as np


def mass_drift(masses, tol=1e-6):
    """Relative drift of the conserved mass integral u^2 along a trajectory."""
    m = np.asarray(masses, dtype=float)
    drift = float(np.max(np.abs(m - m[0])) / m[0])
    if not drift <= tol:
        return f"relative mass drift {drift:.3e} exceeds {tol:.0e}"
    return None


def partition_sum(sector_values, norm_sq, tol=1e-12):
    """Sector masses partition the squared L^2 norm exactly."""
    total = float(np.sum(np.fromiter(sector_values, dtype=float)))
    rel = abs(total - norm_sq) / norm_sq
    if not rel <= tol:
        return f"sector masses sum off ||u||^2 by {rel:.3e} (tol {tol:.0e})"
    return None


def oracle_agreement(fast, oracle, tol=1e-10):
    """Max-norm gap of a fast kernel to its oracle, relative to the oracle."""
    fast, oracle = np.asarray(fast), np.asarray(oracle)
    scale = float(np.max(np.abs(oracle)))
    rel = float(np.max(np.abs(fast - oracle))) / scale if scale else np.inf
    if not rel <= tol:
        return f"kernel differs from its oracle by {rel:.3e} (tol {tol:.0e})"
    return None


def picard_limit(gap, ratios, tol=1e-8, ratio_cap=0.5):
    """The Picard fixed point matches the independent IF-RK4 run, and the
    iteration contracts by at least `ratio_cap` per step."""
    if not gap <= tol:
        return f"Picard limit differs from IF-RK4 by {gap:.3e} (tol {tol:.0e})"
    worst = max(ratios, default=0.0)
    if not worst <= ratio_cap:
        return f"contraction ratio {worst:.3f} exceeds {ratio_cap}"
    return None


def unitarity(norm_before, norm_after, tol=1e-12):
    """| ||S(t)u|| / ||u|| - 1 | for the linear propagator."""
    defect = abs(norm_after / norm_before - 1.0)
    if not defect <= tol:
        return f"propagator changes the L^2 norm by {defect:.3e} (tol {tol:.0e})"
    return None


def slope(name, measured, expected, half_width):
    """A fitted log-log slope lies within half_width of the paper's exponent."""
    if not abs(measured - expected) <= half_width:
        return (f"{name} slope {measured:.3f} outside "
                f"{expected:.3f} +- {half_width}")
    return None


def quadrature_gap(gaps, tol=0.02):
    """The two independent cross-term quadratures agree."""
    worst = float(np.max(gaps))
    if not worst <= tol:
        return f"cross-term quadratures differ by {worst:.2%} (tol {tol:.0%})"
    return None


def strictly_decreasing(gaps):
    """True when every Cauchy gap is below the one before it."""
    return bool(np.all(np.diff(np.asarray(gaps)) < 0))


def decreasing_share(flags, min_share=0.9, alpha=0.01):
    """At least `min_share` of scattering members have strictly decreasing
    Cauchy gaps.

    Criterion 11 states the share over 20 members; a benchmark run holds
    only a few, so the claim is tested as a one-sided binomial test: the run
    is refused when its count of other members would occur with probability
    below `alpha` were the true share `min_share`.
    """
    n = len(flags)
    bad = n - sum(flags)
    q = 1.0 - min_share
    tail = sum(math.comb(n, j) * q ** j * min_share ** (n - j)
               for j in range(bad, n + 1))
    if not tail >= alpha:
        return (f"strictly decreasing Cauchy gaps in {n - bad}/{n} members: "
                f"P = {tail:.1e} at a true share of {min_share:.0%}")
    return None


def quadratic_smallness(ratios, cap=4.0):
    """The nonlinear part scales as the square of the datum: the ratios
    ||w - S(t)u0|| / eps^2 agree within a factor `cap`."""
    spread = max(ratios) / min(ratios)
    if not spread <= cap:
        return f"quadratic-smallness spread x{spread:.2f} above x{cap}"
    return None
