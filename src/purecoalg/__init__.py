"""Exact workbench for finite-rank cocommutative coalgebras over PIDs.

The package decides structural questions about flat cocommutative
coassociative coalgebras over Z, Q, F_p, and Z[S^-1] by exact linear
algebra: purity and saturation of sub-lattices, group-like elements,
pointedness, coradical filtrations, irreducible components and the
natural coradical splitting, binomial-ring conditions on dual algebras,
and simplicial chains with integral homology and weak-equivalence /
cofibration predicates.
"""

from .binomial import (
    BinomialPrimeResult,
    BinomialReport,
    algebra_mod_p,
    binomial_check,
    frobenius_matrix,
    nilradical_mod_p,
)
from .coalgebra import (
    AlgebraPresentation,
    Coalgebra,
    CoalgebraMap,
    ValidationReport,
    conjugate,
    direct_sum,
    dual_algebra,
    dual_of_algebra,
    identity_map,
    is_subcoalgebra,
    monogenic_algebra,
    purify_subcoalgebra,
    restrict_to_subcoalgebra,
    set_like,
    split_algebra,
    tensor,
    truncated_polynomial_algebra,
    validate_coalgebra,
    validate_map,
)
from .errors import (
    AmbientMismatch,
    DegreeTooHigh,
    InvalidAlgebra,
    NotExhaustive,
    NotGroupLike,
    NotGroupLikeImage,
    NotIrreducible,
    NotPointed,
    NotPure,
    NotSubcoalgebra,
    OutputError,
    ParseError,
    PrimeInverted,
    RingMismatch,
    TooLarge,
    UnsupportedRing,
    ValidationError,
    WorkbenchError,
)
from .grouplike import (
    GroupLikeSet,
    PointednessReport,
    counit_retraction,
    gr_of_map,
    group_likes,
    group_likes_bruteforce,
    is_pointed,
)
from .lattice import Lattice, kernel_lattice, solve_in_rows
from .matrix import Matrix, charpoly, elementary_divisors, hnf, hnf_basis, snf
from .rings import (
    QQ,
    ZZ,
    Ring,
    localized_integers,
    prime_field,
    reduce_mod_p,
    ring_from_spec,
)
from .simplicial import (
    ChainComplex,
    FiniteSimplicialSet,
    HomologyGroup,
    SimplicialCoalgebra,
    SimplicialCoalgebraMap,
    SimplicialMap,
    chains_functor,
    chains_map,
    constant_map,
    gr_simplicial,
    gr_simplicial_map,
    homology,
    identity_simplicial_map,
    is_cofibration,
    is_weak_equivalence,
    mapping_cone,
    normalized_complex,
    projective_plane,
    simplicial_set_from_cells,
    standard_circle,
    standard_interval,
    standard_point,
    two_point_set,
    validate_sset,
)
from .structure import (
    ComponentDecomposition,
    Filtration,
    check_splitting_naturality,
    components,
    components_by_wedge,
    coradical_filtration,
    coradical_lattice,
    primitives,
    push_filtration,
    split_coradical,
    tensor_filtration,
    wedge,
)

__version__ = "0.1.0"
