"""Exact structure-constant calculus for Lie and Leibniz algebras,
embedding tensors over coherent actions, the graded brackets that
control them, their cohomology, and linear deformations."""

from .algebras import (
    Algebra,
    LEIBNIZ,
    LIE,
    LeibnizRep,
    UNCHECKED,
    abelian_algebra,
    check_leibniz,
    check_leibniz_rep,
    check_lie,
    check_two_step_nilpotent,
    coherent_derivation_algebra,
    derivation_algebra,
    direct_sum,
    leibniz_kernel,
    quotient_lie,
    sc_table,
)
from .cohomology import (
    CohomologyReport,
    TensorComplex,
    class_equals,
    cohomology,
    induced_representation,
    tensor_coboundary,
)
from .deformations import (
    DeformationDirection,
    NijenhuisCandidate,
    check_equivalence,
    check_linear_deformation,
    check_nijenhuis_element,
    check_nijenhuis_operator,
    conjugated_tensor,
    trivial_deformation,
    zero_direction,
)
from .errors import (
    ActionIllDefined,
    ArityCapExceeded,
    DegreeOutOfRange,
    DimensionMismatch,
    FlavorViolation,
    NotACocycle,
    NotAnEmbeddingTensor,
    NotASubspace,
    NotCoherentAction,
    NotCoherentDerivation,
    NotLeibnizLie,
    NotNijenhuis,
    ParseError,
    RoutesDisagree,
    ToolkitError,
    UnresolvedReference,
    WorkspaceError,
)
from .graded import (
    GradedContext,
    MultiMap,
    balavoine,
    bracket_differential,
    derived_bracket,
    derived_bracket_nested,
    matrix_as_multimap,
    mc_check_deformation,
    mc_check_leibniz,
    mc_check_tensor,
    multimap_as_matrix,
    shuffles,
    tensor_as_multimap,
    twisted_differential,
)
from .leibniz_lie import (
    LeibnizLie,
    check_leibniz_lie,
    check_leibniz_lie_homomorphism,
    induced_leibniz_lie,
    left_multiplication_tensor,
    make_leibniz_lie,
    quotient_projection_tensor,
    subadjacent,
    subadjacent_representation,
)
from .linalg import (
    Matrix,
    Subspace,
    frac,
    kernel_basis,
    parse_scalar,
    quotient_dim,
    rank,
    rref,
    scalar_to_json,
    unit_vector,
    vector,
    zero_vector,
)
from .reports import CheckReport, Failure
from .tensors import (
    Action,
    EmbeddingTensor,
    adjoint_action,
    check_coherent_action,
    check_embedding_tensor,
    check_tensor_homomorphism,
    descendent,
    graph_subalgebra_check,
    hemisemidirect,
    projection_tensor,
)
from .workspace import Settings, Workspace, load_workspace, workspace_from_dict

__all__ = [name for name in dir() if not name.startswith("_")]
