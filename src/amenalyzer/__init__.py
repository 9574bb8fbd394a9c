"""Amenability-style classification of finite-dimensional associative algebras."""

from .algebra import (
    AlgebraFormatError,
    FiniteAlgebra,
    direct_sum,
    from_json_dict,
    is_unital,
    load_algebra,
    matrix_algebra,
    pointwise_algebra,
    product_span,
    radical,
    semigroup_algebra,
    tensor_product,
    to_json_dict,
    truncated_polynomial,
    unitize,
    upper_triangular,
    validate,
    zero_algebra,
)
from .characters import (
    Character,
    find_characters,
    point_derivation_space,
)
from .classify import Analysis, build_report
from .corpus import corpus as builtin_corpus
from .corpus import corpus_names
from .crosscheck import run_crosscheck
from .derivations import (
    derivation_space,
    inner_space,
)
from .linalg import Subspace, nullspace, rowspace, subspace_equal
from .quasiadd import quasi_additive_space
from .scalars import QQi, qq

__version__ = "0.1.0"
