"""gmalie: exact-arithmetic workbench for Lie derivations on generalized
matrix algebras built from Morita contexts.

Everything is exact: rationals or prime fields, canonical reduced-row-
echelon bases, and a brute-force subspace oracle that properness criteria
and the sufficient-condition checks are cross-validated against.
"""

from ._kernel import backend as kernel_backend
from .algebra import (
    DEFAULT_BUDGET,
    FDAlgebra,
    StructureReport,
    analyze_algebra,
    center,
    central_ideal_free,
    commutator_idempotent_subalgebra,
    commutator_span,
    domain_scan,
    enumerate_idempotents,
    subalgebra_closure,
)
from .errors import (
    CharacteristicTwoError,
    ConsistencyError,
    DimensionMismatch,
    PreconditionError,
    ValidationFailure,
    WorkbenchError,
)
from .fields import GF, QQ, Field
from .fuzzing import FuzzConfig, FuzzReport, fuzz, generate_contexts
from .gma import (
    CenterAnalysis,
    GMAlgebra,
    assemble,
    center_analysis,
    is_trivial,
    peirce,
)
from .linalg import Matrix, Subspace, inverse, kernel, rref, solve, subspace_intersect, subspace_sum
from .morita import (
    Bimodule,
    FaithfulnessReport,
    MoritaContext,
    faithfulness,
    strongly_faithful,
    two_torsion_free,
    validate_bimodule,
    validate_context,
)
from .presentation import (
    CentralPresentation,
    CriteriaReport,
    LiePresentation,
    central_pair_subalgebra,
    check_central_parts,
    check_derivation_parts,
    check_lie_parts,
    companion_central_maps,
    extract_central,
    extract_derivation,
    extract_lie,
    properness_criteria,
    rebuild_central,
    rebuild_derivation,
    rebuild_lie,
)
from .spaces import (
    EndoMap,
    MapSpace,
    ProperSplit,
    central_map_space,
    derivation_space,
    has_lie_derivation_property,
    is_derivation,
    is_lie_derivation,
    is_proper,
    lie_derivation_space,
    proper_space,
)
from .theorems import (
    TheoremVerdict,
    all_theorem_checks,
    check_central_ideal,
    check_combined,
    check_domains,
    check_strong_faithfulness,
    check_trivial,
)
from .tristate import TriState
from .workspace import Workspace, load_workspace, parse_workspace, render_json

__version__ = "0.1.0"
