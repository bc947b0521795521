"""Numerical toolkit for the distance from Holder/Zygmund-class functions on
the torus to the bmo-Sobolev subspace, measured three equivalent ways:
maximal second differences, wavelet coefficient thresholds, and hyperbolic
derivatives of the Poisson extension."""

__version__ = "0.2.0"  # part of every report's content hash

from .dyadic import (CarlesonReport, DyadicCube, HalfSpacePoint, HalfSpaceSet,
                     LevelField, WhitneyCell, carleson_box_value, carleson_sup,
                     cube_contains, enlarge, hyperbolic_distance)
from .distance import (DistanceEstimate, InclusionReport, MethodComparison,
                       compare_methods, epsilon_star, inclusion_probe,
                       projection_distance_witness)
from .gridfn import (CORPUS_SPECS, FunctionSpec, GridFunction, SpecError,
                     SpectralFunction, bessel_lift, corpus, from_spectral,
                     parse_function_spec, sup_norm, synthesize, to_spectral)
from .poisson import (bmo_norm, d2y_extension, derivative_field,
                      holder_poisson_norm, jbmo_direct_norm, lipschitz_check,
                      poisson_extend)
from .secdiff import (continuity_check, holder_seminorm, second_diff_field,
                      second_difference)
from .wavelet import (FilterBank, WaveletCoefficients, analyze, filter_bank,
                      jbmo_wavelet_norm, lip_wavelet_norm, reconstruct,
                      truncate_projection)
