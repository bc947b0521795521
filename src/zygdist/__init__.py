"""Numerical toolkit for the distance from Holder/Zygmund-class functions on
the torus to the bmo-Sobolev subspace, measured three equivalent ways:
maximal second differences, wavelet coefficient thresholds, and hyperbolic
derivatives of the Poisson extension."""

__version__ = "0.2.3"  # part of every report's content hash

from .dyadic import HalfSpaceSet, LevelField, carleson_sup, enlarge
from .distance import (DistanceEstimate, InclusionReport, MethodComparison,
                       compare_methods, divergence, epsilon_star, inclusion_probe,
                       projection_distance_witness)
from .gridfn import (CORPUS_SPECS, FunctionSpec, GridFunction, SpecError,
                     bessel_lift, corpus, parse_function_spec, sup_norm,
                     synthesize)
from .poisson import (bmo_norm, d2y_extension, derivative_field,
                      holder_poisson_norm, jbmo_direct_norm, lipschitz_check,
                      poisson_extend)
from .secdiff import continuity_check, holder_seminorm, second_diff_field
from .wavelet import (FilterBank, WaveletCoefficients, analyze, filter_bank,
                      jbmo_wavelet_norm, lip_wavelet_norm, reconstruct,
                      truncate_projection)
