"""Exact bounds and combinatorial certificates for curve-graph translation
lengths: closed-form bound tables, Dehn twist support traces, nonnegative
integer matrix analysis and ribbon train track validation.

`import curvebounds` runs no engine.  Each engine module is registered in
`sys.modules` and bound here at once, but its code runs at the first
attribute lookup on it, so a CLI subcommand executes only the engine it
uses.  The names below are looked up in their module on each access.
"""

import importlib.util
import sys


def _lazy(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# `cli` is not registered: `python -m curvebounds.cli` runs it as __main__.
surfaces = _lazy("surfaces")
pfmatrix = _lazy("pfmatrix")
penner = _lazy("penner")
traintrack = _lazy("traintrack")
reference = _lazy("reference")
fileio = _lazy("fileio")

_EXPORTS = {
    name: module
    for module, names in (
        (surfaces, (
            "BoundReport", "SporadicSurfaceError", "SurfaceSig", "flm_upper_bound",
            "frac_str", "k_star", "lower_bound_from_spread_time", "penner_upper_bound",
            "punctured_genus2_upper_bound", "translation_length_lower_bound",
            "translation_length_upper_bound",
        )),
        (pfmatrix, (
            "BlockStructureError", "BlockTransition", "IntMatrix",
            "NotBHStructureError", "NotIrreducibleError", "cover_time",
            "full_spread_power", "is_irreducible", "min_positive_diagonal_power",
            "perron_root_bracket", "primitivity_exponent", "product_lower_right",
            "wielandt_bound",
        )),
        (penner, ("BaseCurve", "TraceResult", "trace")),
        (traintrack, (
            "Branch", "BranchCountReport", "BranchEnd", "Cusp", "CuspVisit",
            "EulerMismatchError", "FoldSchedule", "PeriodicCuspError",
            "RegionAttachment", "RegionCutoffError", "RegionInfo", "RegionReport",
            "TrackStructureError", "TrainTrack", "add_diagonals", "boundary_cycles",
            "branch_count_report", "check_measure", "classify_regions",
            "enumerate_diagonal_extensions", "is_recurrent", "max_fold_time",
            "total_cusps",
        )),
        (reference, (
            "build_spine", "reference_attachment", "reference_spine",
            "reference_track", "spine_attachment",
        )),
        (fileio, (
            "MatrixFileError", "TrackFileError", "load_matrix", "load_track",
        )),
    )
    for name in names
}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
