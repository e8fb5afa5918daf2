"""Exact limit measures of affine 2-regular sequences.

Sequences f(2n) = A0 f(n) + b0, f(2n+1) = A1 f(n) + b1 with non-negative
integer coefficients spread their values over the index blocks [2^N, 2^{N+1});
normalising those blocks into Dirac combs on the torus yields a vaguely
convergent sequence of probability measures.  This package evaluates the
sequences exactly, builds the combs, computes Fourier coefficients both by
summation and in closed form, classifies the limit measure's Lebesgue type,
and produces its interval measures, densities, concentration diagnostics
and point weights.
"""

from .approximant import (
    Approximant,
    DyadicInterval,
    build_comb,
    cdf,
    cdf_series,
    interval_mass,
)
from .errors import CatalogError, DomainError, ResourceCapError
from .fourier import (
    CoeffTable,
    CoeffValue,
    coeff_limit,
    coeff_limit_2b,
    coeff_recursive,
    coeff_table,
    coefficient_bracket,
    domination_constant,
    kappa_1b,
    l2_norm_2b,
    magnitude_sq_1b,
    wiener_average,
    wiener_profile,
)
from .ghost import (
    ConcentrationThreshold,
    DensityEstimate,
    LebesgueClass,
    MeasureKind,
    classify,
    density,
    interval_measure,
    lambda_threshold,
    point_mass,
    point_mass_tail,
    point_mass_total,
    ratio_sequence,
    ratio_sequence_exact,
)
from .linrep import LinearRepresentation, SpectralDiagnostic, build_linrep, eval_via_linrep, spectral_diagnostic
from .sequence import (
    AffineParams,
    CatalogEntry,
    big_sigma,
    catalog_lookup,
    catalog_names,
    eval_f,
    eval_region,
    max_region_level,
    sigma_inf,
    sigma_norm,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
