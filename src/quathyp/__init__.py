"""Arithmetic of quaternionic hyperbolic commensurability classes.

Exact arithmetic over Q and real quadratic fields (places, local
squares, Hilbert symbols), quaternion algebras and their ramification,
quadratic and Hermitian form classification, admissible triples and
commensurability decisions, totally geodesic subspace embeddings, and a
floating-point model of the hyperbolic geometry itself.
"""

from .errors import (
    AlgebraMismatchError,
    DescriptorError,
    DimensionMismatchError,
    FactoringBudgetError,
    FieldMismatchError,
    NotQuaternionicHyperbolicError,
    NotRamifiedAtPlaceError,
    PlaceKindError,
    PreconditionError,
    QuathypError,
    SignaturePreconditionError,
    SquareArgumentError,
    SubfieldEmbeddingError,
    UnsupportedRankError,
)
from .fields import (
    Field,
    FieldElement,
    Place,
    QQ,
    is_global_square,
    is_local_square,
    local_valuation,
    places_above,
    sign_at_real_place,
    split_prime,
)
from .symbols import hilbert_symbol, product_formula_check, symbol_support
from .algebras import (
    QuaternionAlgebra,
    algebras_isomorphic,
    is_division,
    is_split,
    norm_form,
    quaternion_algebra,
    ramification_set,
    subfield_embeds,
)
from .quadratic import (
    QuadraticForm,
    diagonal_form,
    forms_isometric,
    hasse_invariant,
    isotropic_at,
    isotropic_global,
    local_invariants,
    signature_at,
)
from .hermitian import (
    HermitianForm,
    hermitian_form,
    hermitian_isometric,
    hermitian_isotropic_global,
    signature_at_ramified,
    trace_form,
    trace_invariants_closed,
)
from .commensurability import (
    AdmissibleTriple,
    OrbifoldClassDescriptor,
    canonical_hermitian,
    general_cn_commensurable,
    is_admissible,
    is_compact,
    quaternionic_commensurable,
    triple_of,
    triples_equivalent,
)
from .subspaces import (
    ComplexRestrictionData,
    EmbeddingVerdict,
    embeds_complex,
    embeds_real,
    extend_complex,
    extend_real,
    restriction_complex,
    restriction_real,
    subform,
    surface_witness,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
