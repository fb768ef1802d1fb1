"""Exact-arithmetic homotopy theory of multicomplexes.

Graded spaces and maps over the rationals; multicomplexes and their
infinity-morphisms; homotopy transfer onto homology and minimal models; the
spectral sequence of the row-filtered total complex with page-one
degeneration detection; truncated operator power series with the gauge
condition on the differential; and polynomial de Rham models of Poisson and
Jacobi structures that instantiate all of it.
"""

from .complexes import (
    InfinityMorphism,
    Multicomplex,
    compose_infinity,
    invert_infinity,
    product,
    validate_infinity_morphism,
    validate_multicomplex,
)
from .derham import (
    FormAlgebra,
    PolyVector,
    basic_subcomplex,
    check_contraction_identity,
    contraction,
    d_de_rham,
    jacobi_multicomplex,
    koszul_delta,
    schouten,
    structure_order_ladder,
)
from .exactla import Matrix, Subspace, complement, induced_subquotient_map, kernel_image
from .gauge import (
    NoGauge,
    OperatorSeries,
    check_gauge_hodge,
    conjugate_differential,
    find_gauge,
    gauge_construct,
    series_exp,
    series_log,
    series_mul,
)
from .graded import GradedMap, GradedVectorSpace, compose, homology, lincomb
from .spectral import SpectralPage, TotalComplex, degenerates_at_one, page, total_complex
from .transfer import (
    DeformationRetract,
    alternative_retract,
    build_retract,
    check_hodge_data,
    minimal_model,
    transfer_structure,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
