"""The four benchmark workloads.  One operation is one verdict-sized unit of
work, shaped like one acceptance criterion; its inputs come from the
generator it is handed, so no two operations of a run share inputs.

Every call into the program goes through a module attribute
(`solver.evolve`, not an imported name), so the traced run can wrap it.
`op` is the timed work; `check` (per output) and `finish` (per run) run
after the clock stops.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from kplab import (data, decomposition as dec, estimates as est,
                   illposedness as ill, scattering, solver, spectral)

import verdicts as V


def _checks(*results):
    return [r for r in results if r is not None]


class Workload:
    """Defaults: no per-run check, and no solver state for the rhs probe."""

    def finish(self):
        return []

    def rhs_state(self, out):
        return None


class Scatter(Workload):
    """Criterion-11 member on 192x24x24: scattering_datum -> evolve (T=8,
    dt=1/16) -> asymptotic_state."""

    def __init__(self):
        self.grid = spectral.GridSpec(192, 24, 24, 32 * np.pi, 8 * np.pi, 8 * np.pi)
        self.npar = dec.NormParams()
        self.cfg = solver.SimConfig(self.grid, dt=1 / 16, T=8.0, samples_per_unit=1)
        self.decreasing = []

    def op(self, rng):
        u0 = data.scattering_datum(self.grid, rng, 1e-3, self.npar)
        tr = solver.evolve(u0, self.cfg)
        rep = scattering.asymptotic_state(tr, self.npar, strict=False)
        return {"u0": u0, "trace": tr, "report": rep}

    def check(self, out):
        u0, tr, rep = out["u0"], out["trace"], out["report"]
        last = tr.states[-1]
        at = np.searchsorted(tr.times, rep.sample_times)
        self.decreasing.append(rep.detected and V.strictly_decreasing(rep.cauchy_gaps))
        return _checks(
            V.mass_drift(solver.mass_series(tr)),
            V.partition_sum(dec.sector_masses(u0).values(), u0.l2_norm() ** 2),
            V.partition_sum(dec.sector_masses(last).values(), last.l2_norm() ** 2),
            *(V.unitarity(tr.states[i].l2_norm(), pb.l2_norm())
              for i, pb in zip(at, rep.pullbacks)))

    def finish(self):
        flags = self.decreasing
        print(f"scatter: strictly decreasing Cauchy gaps in {sum(flags)}/{len(flags)} "
              "members", file=sys.stderr)
        return _checks(V.decreasing_share(flags))

    def rhs_state(self, out):
        return out["u0"]


class Picard(Workload):
    """Criterion-10 smallness check on 24x12x12: picard_iterate at three
    seeded amplitudes in [2.5e-4, 1e-3], the quadratic size of the nonlinear
    part, and an IF-RK4 cross-check at dt=1/256 for the largest amplitude."""

    def __init__(self):
        self.grid = spectral.GridSpec(24, 12, 12, 4 * np.pi, 4 * np.pi, 4 * np.pi)
        self.npar = dec.NormParams()
        self.cfg = solver.SimConfig(self.grid, dt=1 / 64, T=1.0, samples_per_unit=64)
        self.cfg_rk4 = solver.SimConfig(self.grid, dt=1 / 256, T=1.0, samples_per_unit=64)

    def op(self, rng):
        g = self.grid
        base = data.gaussian_datum(g, amplitude=1.0, center_xi=1.0,
                                   width_xi=0.4, width_eta=0.4)
        base_norm = dec.lqlp_norm(base, self.npar)
        amps = np.sort(rng.uniform(2.5e-4, 1e-3, 3))[::-1]
        out = {"ratios": [], "quad": [], "picard_iterates": 0}
        for k, eps in enumerate(amps):
            u0 = spectral.SpectralField(g, base.coeff * (eps / base_norm), True)
            tr, rep = solver.picard_iterate(u0, self.cfg, n_max=8, tol=1e-14)
            out["ratios"] += rep.ratios
            out["picard_iterates"] += rep.iterates
            sup = 0.0
            for t, w in zip(tr.times, tr.states):
                lin = spectral.apply_linear_propagator(u0, t)
                diff = spectral.SpectralField(g, w.coeff - lin.coeff, real_flag=False)
                sup = max(sup, dec.lqlp_norm(diff, self.npar))
            out["quad"].append(sup / eps ** 2)
            if k == 0:
                rk4 = solver.evolve(u0, self.cfg_rk4)
                out.update(u0=u0, rk4=rk4, gap=max(
                    math.sqrt(g.volume * np.sum(np.abs(a.coeff - b.coeff) ** 2))
                    for a, b in zip(tr.states, rk4.states)))
        return out

    def check(self, out):
        u0 = out["u0"]
        return _checks(
            V.picard_limit(out["gap"], out["ratios"]),
            V.mass_drift(solver.mass_series(out["rk4"])),
            V.partition_sum(dec.sector_masses(u0).values(), u0.l2_norm() ** 2),
            V.oracle_agreement(solver.nonlinearity(u0).coeff,
                               solver.nonlinearity_direct(u0).coeff),
            V.quadratic_smallness(out["quad"]))

    def rhs_state(self, out):
        return out["u0"]


class Bilinear(Workload):
    """Criterion-8 draw: one coherent low/high cap pair at each mu in
    {1/8, 1/4, 1/2, 1} on 232x64x64 (bilinear_mu_sweep), and one
    weighted_pair_norm member per |Gamma| side (sector_gamma_sweep)."""

    MUS = (1 / 8, 1 / 4, 1 / 2, 1.0)
    SIDES = (64, 128, 256, 512)

    def __init__(self):
        self.grid = spectral.GridSpec(232, 64, 64, 32 * np.pi, 32 * np.pi, 32 * np.pi)

    def op(self, rng):
        seed = int(rng.integers(2 ** 31))
        mu = est.bilinear_mu_sweep(self.MUS, lam=4.0, ensemble_size=1, T=1.0,
                                   grid=self.grid, seed=seed)
        gamma = est.sector_gamma_sweep(self.SIDES, mu=0.25, lam=2.0,
                                       ensemble_size=1, T=4.0, seed=seed)
        return {"mu_slope": mu.slope, "gamma_slope": gamma.slope,
                "slope_center": rng.uniform(-0.2, 0.2, 2), "t": rng.uniform(0.1, 1.0)}

    def check(self, out):
        cap = est.coherent_low_cap(self.grid, 0.5, out["slope_center"])
        moved = spectral.apply_linear_propagator(cap, out["t"])
        return _checks(
            V.slope("low-high mu", out["mu_slope"], 1.0, 0.2),
            V.slope("sector |Gamma|", out["gamma_slope"], 0.5, 0.15),
            V.unitarity(cap.l2_norm(), moved.l2_norm()))


class Illposed(Workload):
    """Criterion-12 growth sweep: lam on a seeded ladder of four consecutive
    powers of two in [4, 256], mu = lam^-2, at a seeded p in (1.5, 5)."""

    def op(self, rng):
        j0 = int(rng.integers(2, 6))
        p = float(rng.uniform(1.5, 5.0))
        rep = ill.growth_sweep([2.0 ** j for j in range(j0, j0 + 4)], p)
        return {"p": p, "slope": rep.slope, "gaps": rep.gaps}

    def check(self, out):
        p = out["p"]
        return _checks(
            V.slope(f"growth (p={p:.3f})", out["slope"], 3.0 - 6.0 / p, 0.3),
            V.quadrature_gap(out["gaps"]))


WORKLOADS = {"scatter": Scatter, "picard": Picard, "bilinear": Bilinear,
             "illposed": Illposed}
