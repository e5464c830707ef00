"""kplab: a pseudo-spectral laboratory for the 3-D KP-II equation."""

__version__ = "0.1.0"

from .spectral import (GridSpec, SpectralField, PhysicalField,
                       forward_transform, inverse_transform,
                       dispersion_symbol, apply_linear_propagator,
                       galilean_shift, galilean_boost, scaling_transform,
                       make_field, zero_field, write_snapshot, read_snapshot)
from .decomposition import (SectorIndex, NormParams, SpaceTimeTrace,
                            dyadic_projection, sector_projection,
                            sector_masses, lqlp_norm, modulation_projection,
                            modulation_weighted_norm, v2_variation_norm,
                            u1_variation_norm)
from .solver import (SimConfig, MultiplierProfile, PicardReport, nonlinearity,
                     evolve, duhamel_integral, picard_iterate,
                     slope_filtered_product, spectral_product)
from .scattering import pullback_trace, asymptotic_state, ScatterReport
from .estimates import (ResonancePoint, MeasureConfig,
                        resonance_identity_defect, circle_measure_integral,
                        circle_measure_closed_form, phase_difference_roots,
                        strichartz_ratio, bilinear_lowhigh_ratio)
from .illposedness import (IllposedParams, FrequencyBox, two_bump_datum,
                           resonance_function, second_picard_cross_term,
                           growth_sweep)
from .function_spaces import (AnalyticDatum, sector_sum_decay,
                              divergent_sequence_check, zero_mean_blowup)
