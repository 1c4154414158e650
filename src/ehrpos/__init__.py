"""Exact Ehrhart polynomials of sparse paving matroid polytopes.

The package computes Ehrhart polynomials in exact rational arithmetic,
constructs matroids with many circuit-hyperplanes from constant-weight
codes, and searches for (and certifies) violations of Ehrhart positivity.
"""

from __future__ import annotations

from .codes import (
    ConstantWeightCode,
    gs_best_class,
    gs_classes,
    gs_lower_bound,
    gs_partition,
    weight_k_masks,
)
from .ehrhart import (
    CounterexampleReport,
    count_points_uniform,
    counterexample_inequality,
    counterexample_inequality_strong9,
    ehr_minimal,
    ehr_minimal_shifted,
    ehr_sparse,
    ehr_uniform,
    ehr_uniform_coeff,
    intermediate_bound_quad,
    lower_bound_quad,
    quad_coeff_minimal_shifted,
    rank2_poly,
    search_counterexamples,
    upper_bound_quad_uniform,
    verify_rank2_inequalities,
)
from .errors import BudgetExceededError
from .hstar import hstar, is_real_rooted
from .matroid import (
    SparsePavingMatroid,
    circuit_hyperplane_bound,
    elements_of,
    mask_from_elements,
    matroid_from_text,
    matroid_to_text,
)
from .oracle import (
    enumerate_small_matroids,
    oracle_count,
    oracle_interior_count,
)
from .ratpoly import (
    Polynomial,
    binom_poly,
    binomial,
    harmonic,
    harmonic2,
    interpolate_at_naturals,
    poly_shift,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "ConstantWeightCode",
    "CounterexampleReport",
    "Polynomial",
    "SparsePavingMatroid",
    "binom_poly",
    "binomial",
    "circuit_hyperplane_bound",
    "count_points_uniform",
    "counterexample_inequality",
    "counterexample_inequality_strong9",
    "ehr_minimal",
    "ehr_minimal_shifted",
    "ehr_sparse",
    "ehr_uniform",
    "ehr_uniform_coeff",
    "elements_of",
    "enumerate_small_matroids",
    "gs_best_class",
    "gs_classes",
    "gs_lower_bound",
    "gs_partition",
    "harmonic",
    "harmonic2",
    "hstar",
    "interpolate_at_naturals",
    "intermediate_bound_quad",
    "is_real_rooted",
    "lower_bound_quad",
    "mask_from_elements",
    "matroid_from_text",
    "matroid_to_text",
    "oracle_count",
    "oracle_interior_count",
    "poly_shift",
    "quad_coeff_minimal_shifted",
    "rank2_poly",
    "search_counterexamples",
    "upper_bound_quad_uniform",
    "verify_rank2_inequalities",
    "weight_k_masks",
]
