"""Command line front end.

Subcommands: `bounds` (closed-form bound table over a genus range),
`penner` (trace report for one genus), `pf` (matrix file analysis) and
`track` (track file validation).  Exit status: 0 when every verdict in the
run passes, 1 when a verdict fails or a table row degrades to an error
marker, 2 for unusable input.  Exact rationals are printed as "p/q"; the
only float in any JSON report is the flm_upper_float64 field.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterable

from .fileio import (
    MatrixFileError,
    TrackFileError,
    frac_str,
    load_matrix,
    load_track,
    track_to_json,
)
from .penner import penner_upper_bound, trace
from .pfmatrix import (
    BlockTransition,
    NotIrreducibleError,
    full_spread_power,
    min_positive_diagonal_power,
    primitivity_exponent,
)
from .surfaces import (
    BoundReport,
    SporadicSurfaceError,
    SurfaceSig,
    cusp_bound,
    flm_upper_bound,
    lower_bound_coefficient,
    punctured_genus2_upper_bound,
    translation_length_lower_bound,
    translation_length_upper_bound,
)
from .traintrack import (
    TrackStructureError,
    branch_count_report,
    classify_regions,
    is_recurrent,
    total_cusps,
    unrouted_branches,
)

__all__ = ["main", "run_bounds", "run_penner", "run_pf", "run_track"]


def _emit(payload: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


# --- bounds -----------------------------------------------------------------


def _bounds_row(genus: int, punctures: int) -> dict:
    row: dict = {"genus": genus, "punctures": punctures}
    try:
        sig = SurfaceSig(genus, punctures)
        lower = translation_length_lower_bound(sig)
        row["lower"] = frac_str(lower)
        if punctures == 0:
            upper = translation_length_upper_bound(genus)
            flm = flm_upper_bound(genus)
            k, penner_bound = penner_upper_bound(genus)
            BoundReport(
                surface=sig,
                lower=lower,
                upper_closed=upper,
                upper_penner=penner_bound,
            ).validate()
            row["upper_closed"] = frac_str(upper)
            row["flm_upper_float64"] = flm
            row["penner_k"] = k
            row["penner_upper"] = frac_str(penner_bound)
        if genus == 2 and punctures >= 5:
            row["genus2_upper"] = frac_str(punctured_genus2_upper_bound(punctures))
    except SporadicSurfaceError:
        return {"genus": genus, "punctures": punctures, "error": "sporadic"}
    except ValueError as exc:
        return {"genus": genus, "punctures": punctures, "error": str(exc)}
    return row


def run_bounds(genus_min: int, genus_max: int, punctures: int, as_json: bool) -> int:
    rows = [_bounds_row(g, punctures) for g in range(genus_min, genus_max + 1)]
    lines = []
    for row in rows:
        if "error" in row:
            lines.append(
                f"g={row['genus']} n={row['punctures']}  error: {row['error']}"
            )
            continue
        cells = [f"g={row['genus']} n={row['punctures']}", f"lower={row['lower']}"]
        if "upper_closed" in row:
            cells.append(f"upper={row['upper_closed']}")
            cells.append(f"flm={row['flm_upper_float64']:.9f}")
            cells.append(f"penner_k={row['penner_k']}")
            cells.append(f"penner={row['penner_upper']}")
        if "genus2_upper" in row:
            cells.append(f"genus2_punctured={row['genus2_upper']}")
        lines.append("  ".join(cells))
    _emit({"rows": rows}, as_json, lines)
    return 0 if all("error" not in row for row in rows) else 1


# --- penner -----------------------------------------------------------------


def _json_list(items: Iterable[str], depth: int, quote: str = "") -> str:
    """`items` as a JSON list at nesting `depth`, laid out as by
    json.dumps(indent=2).  Each item is JSON text, or with `quote='"'` a
    string that needs no escaping."""
    pad = "  " * depth
    body = f"{quote},\n{pad}  {quote}".join(items)
    return f"[\n{pad}  {quote}{body}{quote}\n{pad}]" if body else "[]"


def run_penner(genus: int, cap: int | None, as_json: bool) -> int:
    result = trace(genus, cap)
    upper = translation_length_upper_bound(genus)
    ok = result.bound <= upper
    bound = frac_str(result.bound)
    # The supports are O(g^3) bytes, so they are written one at a time as
    # they are replayed and never held as a whole report.
    write = sys.stdout.write
    if not as_json:
        write(f"penner trace, genus {genus}, cap {result.cap}\n")
        for k, names in enumerate(result.sorted_names()):
            write(f"S_{k} = {{{' '.join(names)}}}\n")
        for k, w in result.certificates:
            write(f"certified k={k} witness={w}\n")
        write(f"best_k={result.best_k} bound={bound}\n")
        verdict = "PASS" if ok else "FAIL"
        write(f"2/{result.best_k} <= 4/(g^2+g-4) = {frac_str(upper)}: {verdict}\n")
        return 0 if ok else 1
    # The bytes of json.dumps(payload, indent=2, sort_keys=True): the keys
    # are written in sorted order.  Curve names are letters and digits.
    dump = json.dumps
    certificates = _json_list(
        (_json_list((dump(k), dump(str(w))), 2) for k, w in result.certificates), 1
    )
    write(
        f'{{\n  "best_k": {dump(result.best_k)},\n  "bound": {dump(bound)},\n'
        f'  "cap": {dump(result.cap)},\n  "certificates": {certificates},\n'
        f'  "genus": {dump(genus)},\n  "pass": {dump(ok)},\n  "supports": ['
    )
    for k, names in enumerate(result.sorted_names()):
        write(("\n    " if k == 0 else ",\n    ") + _json_list(names, 2, '"'))
    write(f'\n  ],\n  "upper_closed": {dump(frac_str(upper))}\n}}\n')
    return 0 if ok else 1


# --- pf ---------------------------------------------------------------------


def run_pf(input_path: str, as_json: bool) -> int:
    try:
        doc = load_matrix(input_path)
    except (MatrixFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    m = doc.matrix
    if m.rows != m.cols:
        print(f"error: matrix is {m.rows}x{m.cols}, analysis needs square", file=sys.stderr)
        return 2
    if (doc.real_set is None) != (doc.surface is None):
        print('error: "real:" and "surface:" lines must appear together', file=sys.stderr)
        return 2
    try:
        q = min_positive_diagonal_power(m)
    except NotIrreducibleError:
        q = None
    irr = q is not None
    # A positive power forces irreducibility, so skip the search otherwise.
    exponent = primitivity_exponent(m) if irr else None
    payload: dict = {
        "dim": m.rows,
        "irreducible": irr,
        "q": q,
        "primitivity_exponent": exponent,
    }
    lines = [
        f"matrix {m.rows}x{m.cols}",
        f"irreducible: {'yes' if irr else 'no'}",
        f"q (least power with a positive diagonal entry): {q}",
        "primitivity exponent: "
        + (str(exponent) if exponent is not None else "not primitive"),
    ]
    exit_code = 0
    if doc.real_set is not None:
        try:
            bt = BlockTransition(m, doc.real_set, doc.surface)
            k = full_spread_power(bt)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        rq = bt.q
        i = k - 2 * bt.r * rq  # the cover time, as k = 2rq + i
        chi = doc.surface.chi
        coeff = lower_bound_coefficient(doc.surface)
        k_bound = coeff * chi * chi
        ok = k < k_bound
        payload["block"] = {
            "r": bt.r,
            "q": rq,
            "cover_time": i,
            "k": k,
            "k_bound": k_bound,
            "k_ok": ok,
        }
        lines.append(f"real branches r={bt.r}, restriction q={rq}")
        lines.append(f"cover time i={i}")
        lines.append(
            f"k = 2rq+i = {k} < {coeff}*chi^2 = {k_bound}: "
            + ("PASS" if ok else "FAIL")
        )
        if not ok:
            exit_code = 1
    _emit(payload, as_json, lines)
    return exit_code


# --- track ------------------------------------------------------------------


def run_track(input_path: str, as_json: bool) -> int:
    try:
        doc = load_track(input_path)
    except (TrackFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload: dict = {}
    lines: list[str] = []
    checks: dict[str, bool] = {}
    try:
        track, attachment = doc.build()
    except TrackStructureError as exc:
        checks["structure"] = False
        payload["checks"] = checks
        payload["structure_error"] = str(exc)
        lines.append(f"structure (valences, sides, slots): FAIL ({exc})")
        _emit(payload, as_json, lines)
        return 1
    checks["structure"] = True
    lines.append("structure (valences, sides, slots): PASS")
    payload["echo"] = track_to_json(track, attachment)

    sig = attachment.surface
    try:
        report = classify_regions(track, attachment)
    except TrackStructureError as exc:
        checks["euler"] = False
        payload["euler_error"] = str(exc)
        lines.append(f"euler consistency: FAIL ({exc})")
    else:
        checks["euler"] = True
        lines.append("euler consistency: PASS")
        payload["regions"] = [r.label for r in report.regions]
        payload["large"] = report.is_large
        payload["maximal"] = report.is_maximal
        lines.append("regions: " + ", ".join(r.label for r in report.regions))
        lines.append(
            f"large: {'yes' if report.is_large else 'no'}  "
            f"maximal: {'yes' if report.is_maximal else 'no'}"
        )

    dead = unrouted_branches(track)
    checks["recurrent"] = not dead
    if not dead:
        witness = is_recurrent(track)[1]
        payload["witness"] = {name: frac_str(w) for name, w in sorted(witness.items())}
        lines.append("recurrence: PASS (positive witness measure found)")
    else:
        # Name one dead branch and the count, not the list: a large track
        # can have hundreds.
        payload["witness"] = None
        payload["no_route"] = {"count": len(dead), "first": dead[0]}
        lines.append(
            f"recurrence: FAIL ({len(dead)} branches on no closed route, "
            f"first: {dead[0]})"
        )

    counts = branch_count_report(track, sig)
    checks["branch_total"] = counts.total_ok
    checks["real_count"] = counts.real_ok
    payload["branch_counts"] = {
        "total": counts.total,
        "total_bound": counts.total_bound,
        "real": counts.real,
        "real_bound": counts.real_bound,
    }
    lines.append(
        f"branch total {counts.total} <= {counts.total_bound}: "
        + ("PASS" if counts.total_ok else "FAIL")
    )
    lines.append(
        f"real branches {counts.real} < {counts.real_bound}: "
        + ("PASS" if counts.real_ok else "FAIL")
    )

    cusps, bound = total_cusps(track), cusp_bound(sig)
    checks["cusp_count"] = cusps <= bound
    payload["cusps"] = {"total": cusps, "bound": bound}
    lines.append(
        f"cusps {cusps} <= {bound}: "
        + ("PASS" if checks["cusp_count"] else "FAIL")
    )

    payload["checks"] = checks
    _emit(payload, as_json, lines)
    return 0 if all(checks.values()) else 1


# --- entry point ------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvebounds",
        description="Exact bounds and certificates for curve-graph translation lengths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="bound table over a genus range")
    b.add_argument("--genus-min", type=int, required=True)
    b.add_argument("--genus-max", type=int, required=True)
    b.add_argument("--punctures", type=int, default=0)
    b.add_argument("--json", action="store_true")

    p = sub.add_parser("penner", help="support trace and distance certificates")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--json", action="store_true")

    f = sub.add_parser("pf", help="transition matrix analysis")
    f.add_argument("--input", required=True)
    f.add_argument("--json", action="store_true")

    t = sub.add_parser("track", help="train track file validation")
    t.add_argument("--input", required=True)
    t.add_argument("--json", action="store_true")
    return parser


def _run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.command == "bounds":
        if args.genus_min > args.genus_max:
            parser.error("empty genus range")
        if args.punctures < 0:
            parser.error("punctures must be nonnegative")
        if args.punctures == 0 and args.genus_min < 2:
            parser.error("closed-surface table needs genus >= 2")
        if args.punctures > 0 and args.genus_min < 0:
            parser.error("genus must be nonnegative")
        return run_bounds(args.genus_min, args.genus_max, args.punctures, args.json)
    if args.command == "penner":
        if args.genus < 2:
            parser.error("penner trace needs genus >= 2")
        if args.cap is not None and args.cap < 1:
            parser.error("cap must be at least 1")
        return run_penner(args.genus, args.cap, args.json)
    if args.command == "pf":
        return run_pf(args.input, args.json)
    return run_track(args.input, args.json)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        code = _run(parser, parser.parse_args(argv))
        sys.stdout.flush()  # a reader that has gone shows here at the latest
        return code
    except MemoryError:
        # Each report computes its verdict before its first write, so stdout
        # is still empty.
        print("error: input too large for available memory", file=sys.stderr)
        return 2
    except OverflowError:
        # A genus past the range of Python's int shifts or of a float, such
        # as 10**30; stdout is still empty for the same reason.
        print("error: input too large to compute with", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout.  Point fd 1 at devnull so that the flush
        # at interpreter exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the report was complete", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
