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
    BiPoly,
    Census2D,
    JStats,
    LineSpec,
    RationalizationError,
    build_Jd,
    build_Jhat,
    build_lines,
    census_matches_jstats,
    critical_census_2d,
    jd_census,
    jhat_census,
    jstats,
    line_intersections,
    verify_Jd_dual_path,
)
from .belyi_numeric import (
    CriticalCensus,
    DegreeGuardError,
    NoConvergenceError,
    ShabatSolution,
    UniPoly,
    census_matches_profile,
    critical_census_uni,
    shabat_for_derivation,
    shabat_solve,
    to_unit_interval,
    tree_for_derivation,
)
from .profile_core import (
    CriticalProfile,
    TopStats,
    ValidationReport,
    condition_E,
    profile_from_json,
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
    seed_to_json,
    seed_triple,
    validate_seed,
    verify_coincidences,
)
from .surface_counts import (
    BoundRow,
    BoundTable,
    Census3D,
    Construction,
    ExistenceUnverifiedWarning,
    SingularitySpectrum,
    SurfacePoly,
    bound_table,
    build_nodal_surface,
    build_surface,
    census_matches_spectrum,
    constructions_up_to,
    count_A2_family,
    count_Anu,
    find_construction,
    lowest_nu_construction,
    nodal_surface_count,
    nodal_threefold_count,
    nodal_unit_poly,
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
    T2Letter,
    T13Letter,
    Word,
    alphabet_for,
    alternating_word,
    apply_letter,
    enumerate_LE,
    initial_state,
    is_E_admissible,
    max_h,
    paper_word_families,
    trajectory,
    uses_t2,
    word_from_str,
    word_to_str,
)

__version__ = "0.1.0"
