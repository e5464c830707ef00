"""Layer boundaries wrapped by the traced run, and the per-layer metrics.

Each entry of TARGETS names a module attribute the benchmark or a `kplab`
function looks up at call time.  A function imported into several modules
is wrapped in each, so the span is recorded whichever path calls it.

Computed work counts one read and one write pass per whole-array NumPy
operation and the usual 5 N log2 N flops per complex FFT of N points.  They
come from array sizes, ignore cache misses and FFT-internal passes, and are
labelled "computed".
"""

from __future__ import annotations

import math
import statistics


def _field_modes(args):
    return args[0].coeff.size


def _rhs_modes(args):
    return args[1].size


TARGETS = [
    *((m, "apply_linear_propagator", "spectral.propagator", _field_modes)
      for m in ("kplab.spectral", "kplab.decomposition", "kplab.scattering",
                "kplab.estimates")),
    *((m, "inverse_transform", "spectral.inverse_transform", None)
      for m in ("kplab.spectral", "kplab.estimates")),
    ("kplab.solver", "_nonlinear_rhs", "solver.rhs", _rhs_modes),
    ("kplab.solver", "evolve", "solver.evolve", None),
    ("kplab.solver", "picard_iterate", "solver.picard_iterate", None),
    *((m, "lqlp_norm", "decomposition.lqlp_norm", None)
      for m in ("kplab.decomposition", "kplab.solver", "kplab.scattering")),
    *((m, "v2_variation_norm", "decomposition.v2_variation", None)
      for m in ("kplab.decomposition", "kplab.solver")),
    ("kplab.scattering", "asymptotic_state", "scattering.asymptotic_state", None),
    ("kplab.estimates", "bilinear_lowhigh_ratio_transient",
     "estimates.ratio_transient", None),
    ("kplab.estimates", "weighted_pair_norm", "estimates.weighted_pair_norm", None),
    ("kplab.estimates", "coherent_low_cap", "estimates.caps", None),
    ("kplab.estimates", "coherent_high_cap", "estimates.caps", None),
    ("kplab.illposedness", "second_picard_cross_term", "illposedness.cross_term", None),
    ("kplab.illposedness", "cross_term_norm", "illposedness.cross_term_norm", None),
    ("kplab.data", "scattering_datum", "data.datum", None),
    ("kplab.data", "gaussian_datum", "data.datum", None),
]


def rhs_flops(n):
    """-i xi FFT((IFFT c)^2): two complex FFTs plus 13 flops per mode."""
    return 10.0 * n * math.log2(n) + 13.0 * n if n else 0.0


# Bytes per mode: mask multiply 33, ifftn 32, rescale 32, real square 16,
# fftn with its real-to-complex copy 56, rescale 32, mask select 33,
# derivative multiply 32.
RHS_BYTES_PER_MODE = 266
# omega read 8, phase argument 16, exp 32, coefficient multiply 48.
PROPAGATOR_BYTES_PER_MODE = 104


def _self(st, n):
    return st


def _one(st, n):
    return 1


def metrics(tracer, ops, iterates, rhs_probe):
    """Per-operation layer figures of one traced run, as (name, unit, value)."""
    def per_op(name, value):
        return tracer.per_op(ops, name, value)

    return [
        ("spectral.propagator_call_s", "s", tracer.call_median("spectral.propagator")),
        ("spectral.propagator_calls", "count", per_op("spectral.propagator", _one)),
        ("spectral.inverse_transform_call_s", "s",
         tracer.call_median("spectral.inverse_transform")),
        ("solver.rhs_call_s", "s", statistics.median(rhs_probe) if rhs_probe else 0.0),
        ("solver.rhs_evals", "count", per_op("solver.rhs", _one)),
        ("solver.evolve_s", "s", per_op("solver.evolve", _self)),
        ("solver.picard_iterate_s", "s", per_op("solver.picard_iterate", _self)),
        ("solver.picard_iterates", "count", statistics.median(iterates)),
        ("decomposition.lqlp_norm_call_s", "s",
         tracer.call_median("decomposition.lqlp_norm")),
        ("decomposition.lqlp_norm_calls", "count",
         per_op("decomposition.lqlp_norm", _one)),
        ("decomposition.v2_variation_s", "s", per_op("decomposition.v2_variation", _self)),
        ("scattering.asymptotic_state_s", "s",
         per_op("scattering.asymptotic_state", _self)),
        ("estimates.ratio_transient_s", "s", per_op("estimates.ratio_transient", _self)),
        ("estimates.weighted_pair_norm_s", "s",
         per_op("estimates.weighted_pair_norm", _self)),
        ("estimates.caps_s", "s", per_op("estimates.caps", _self)),
        ("illposedness.cross_term_s", "s", per_op("illposedness.cross_term", _self)),
        ("illposedness.cross_term_calls", "count",
         per_op("illposedness.cross_term", _one)),
        ("illposedness.cross_term_norm_s", "s",
         per_op("illposedness.cross_term_norm", _self)),
        ("data.datum_s", "s", per_op("data.datum", _self)),
        ("solver.rhs_flops_computed", "flop",
         per_op("solver.rhs", lambda st, n: rhs_flops(n))),
        ("solver.rhs_bytes_computed", "B",
         per_op("solver.rhs", lambda st, n: RHS_BYTES_PER_MODE * n)),
        ("spectral.propagator_bytes_computed", "B",
         per_op("spectral.propagator", lambda st, n: PROPAGATOR_BYTES_PER_MODE * n)),
    ]
