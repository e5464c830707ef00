"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Runs one operation of each workload, confirms that its checks accept the
true output, then feeds each check a deliberately wrong answer (a perturbed
state, a wrong exponent, a mismatched oracle, ...) and confirms that the
check refuses it.  Exits 0 when every check behaves, 1 otherwise.  Takes
about half a minute.
"""

import sys

import run  # sets the thread count and locates src/ before NumPy loads

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

from kplab import decomposition as dec, estimates as est, solver, spectral  # noqa: E402

import verdicts as V  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _scaled(u, factor):
    return spectral.SpectralField(u.grid, u.coeff * factor, u.real_flag)


def _masses_with_last_scaled(trace, factor):
    masses = solver.mass_series(trace)
    masses[-1] = _scaled(trace.states[-1], factor).l2_norm() ** 2
    return masses


def wrong_answers(name, wl, out):
    """(description, check result) pairs for wrong answers built from `out`."""
    if name == "scatter":
        u0, tr, rep = out["u0"], out["trace"], out["report"]
        return [
            ("final state perturbed by 1e-5",
             V.mass_drift(_masses_with_last_scaled(tr, 1 + 1e-5))),
            ("sector masses of a datum perturbed by 1e-9",
             V.partition_sum(dec.sector_masses(_scaled(u0, 1 + 1e-9)).values(),
                             u0.l2_norm() ** 2)),
            ("pullback norm off by 1e-10",
             V.unitarity(tr.states[-1].l2_norm(),
                         rep.pullbacks[-1].l2_norm() * (1 + 1e-10))),
            ("no member scatters in a run of four", V.decreasing_share([False] * 4)),
            ("three of four members fail to scatter",
             V.decreasing_share([True, False, False, False])),
        ]
    if name == "picard":
        u0 = out["u0"]
        return [
            ("IF-RK4 final state perturbed by 1e-5",
             V.mass_drift(_masses_with_last_scaled(out["rk4"], 1 + 1e-5))),
            ("oracle evaluated on a datum scaled by 1.001",
             V.oracle_agreement(solver.nonlinearity(u0).coeff,
                                solver.nonlinearity_direct(_scaled(u0, 1.001)).coeff)),
            ("Picard limit 1e-7 away from IF-RK4", V.picard_limit(1e-7, out["ratios"])),
            ("a contraction ratio of 0.7",
             V.picard_limit(out["gap"], out["ratios"] + [0.7])),
            ("sector masses of a datum perturbed by 1e-9",
             V.partition_sum(dec.sector_masses(_scaled(u0, 1 + 1e-9)).values(),
                             u0.l2_norm() ** 2)),
            ("nonlinear part five times larger at one amplitude",
             V.quadratic_smallness([5 * out["quad"][0], *out["quad"][1:]])),
        ]
    if name == "bilinear":
        cap = est.coherent_low_cap(wl.grid, 0.5, out["slope_center"])
        moved = spectral.apply_linear_propagator(cap, out["t"])
        return [
            ("doubled mu exponent", V.slope("mu", out["mu_slope"], 2.0, 0.2)),
            ("doubled |Gamma| exponent", V.slope("Gamma", out["gamma_slope"], 1.0, 0.15)),
            ("propagated cap scaled by 1 + 1e-9",
             V.unitarity(cap.l2_norm(), _scaled(moved, 1 + 1e-9).l2_norm())),
        ]
    p = out["p"]
    return [
        ("exponent 3 - 3/p (p doubled)", V.slope("growth", out["slope"], 3.0 - 3.0 / p, 0.3)),
        ("one route gap of 3%", V.quadrature_gap(list(out["gaps"]) + [0.03])),
    ]


def main():
    bad = 0
    for name, cls in WORKLOADS.items():
        wl = cls()
        out = wl.op(np.random.default_rng([0, 1]))
        accepted = wl.check(out) + wl.finish()
        print(f"{'ok' if not accepted else 'FAIL'}: {name} accepts its true output"
              + "".join(f"\n    {m}" for m in accepted))
        bad += bool(accepted)
        for what, msg in wrong_answers(name, wl, out):
            print(f"{'ok' if msg else 'FAIL'}: {name} refuses {what}"
                  + (f" ({msg})" if msg else ""))
            bad += msg is None
    print("self-test passed" if not bad else f"self-test: {bad} check(s) misbehaved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
