"""Exact bounds and combinatorial certificates for curve-graph translation
lengths: closed-form bound tables, Dehn twist support traces, nonnegative
integer matrix analysis and ribbon train track validation."""

from .surfaces import (
    BoundReport,
    SporadicSurfaceError,
    SurfaceSig,
    flm_upper_bound,
    lower_bound_from_spread_time,
    punctured_genus2_upper_bound,
    scaled_bound,
    translation_length_lower_bound,
    translation_length_upper_bound,
)
from .pfmatrix import (
    BlockStructureError,
    BlockTransition,
    IntMatrix,
    NotBHStructureError,
    NotIrreducibleError,
    cover_time,
    full_spread_power,
    is_irreducible,
    min_positive_diagonal_power,
    perron_root_bracket,
    primitivity_exponent,
    product_lower_right,
    wielandt_bound,
)
from .penner import (
    BaseCurve,
    TraceResult,
    k_star,
    penner_upper_bound,
    trace,
)
from .traintrack import (
    Branch,
    BranchCountReport,
    BranchEnd,
    Cusp,
    CuspVisit,
    EulerMismatchError,
    FoldSchedule,
    PeriodicCuspError,
    RegionAttachment,
    RegionCutoffError,
    RegionInfo,
    RegionReport,
    TrackStructureError,
    TrainTrack,
    add_diagonals,
    boundary_cycles,
    branch_count_report,
    check_measure,
    classify_regions,
    enumerate_diagonal_extensions,
    is_recurrent,
    max_fold_time,
    positive_on_base,
    switch_equations,
    total_cusps,
)
from .reference import (
    build_spine,
    reference_attachment,
    reference_track,
    spine_attachment,
)
from .fileio import (
    MatrixFileError,
    TrackFileError,
    data_path,
    format_matrix,
    format_track,
    frac_str,
    load_matrix,
    load_track,
)

__version__ = "0.1.0"
