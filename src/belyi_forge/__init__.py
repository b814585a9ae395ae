"""Two-critical-value polynomials from tree rewriting, and the singular
surfaces they bound.

The pipeline: seed families give critical profiles of bicolored plane
trees; rewriting words grow them under the floor-arithmetic admissibility
condition; trees are realized and solved numerically into polynomials
with critical values -1 and +1; exact arrangement polynomials with
critical values {0, 8, -1} pair against them to produce surfaces whose
singular points are counted both in closed form and by direct census.
"""

from .arrangement_jd import (
    Census2D,
    JStats,
    census_matches_jstats,
    jd_census,
    jd_exact_values,
    jstats,
    verify_Jd_dual_path,
)
from .belyi_numeric import (
    CriticalCensus,
    DegreeGuardError,
    NoConvergenceError,
    ShabatSolution,
    UCensus,
    WindingCensus,
    census_matches_profile,
    chebyshev_solution,
    critical_census_uni,
    shabat_for_derivation,
    shabat_solve,
    tree_for_derivation,
    vertex_u_census,
    winding_census,
)
from .profile_core import (
    CriticalProfile,
    TopStats,
    ValidationReport,
    condition_E,
    profile_from_json,
    profile_satisfies_E,
    profile_to_json,
    top_stats,
    validate_profile,
)
from .seed_families import (
    F1,
    F2,
    F3,
    SeedDomainError,
    SeedSpec,
    SeedTriple,
    coincidence_pairs,
    format_seed,
    parse_seed,
    seed_from_json,
    seed_profile,
    seed_satisfies_E,
    seed_start,
    seed_to_json,
    seed_triple,
    validate_seed,
    verify_coincidences,
)
from .surface_counts import (
    BoundRow,
    BoundTable,
    Census3D,
    ExistenceUnverifiedWarning,
    bound_table,
    constructions_up_to,
    count_A2_family,
    count_Anu,
    find_construction,
    lowest_nu_construction,
    nodal_surface_count,
    nodal_threefold_count,
    singular_census_3d,
    spectrum,
)
from .tree_realization import (
    PlaneTree,
    RealizationError,
    apply_letter_tree,
    check_tree,
    derive_tree,
    export_dot,
    export_json_adjacency,
    parse_dot,
    profile_of,
    realize_profile,
    tree_from_json,
)
from .word_engine import (
    AlphabetMismatchError,
    DerivationState,
    LetterNotApplicableError,
    NoFamilyRecordedError,
    T2_ALPHABET,
    T13_ALPHABET,
    admissible_end,
    admissible_ends,
    alphabet_for,
    alternating_word,
    apply_letter,
    catalogue_ends,
    enumerate_LE,
    initial_state,
    is_E_admissible,
    max_h,
    paper_word_families,
    trajectory,
    uses_t2,
    word_from_str,
)

__version__ = "0.1.0"
