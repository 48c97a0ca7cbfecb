"""Command line front end.

Subcommands: `bounds` (closed-form bound table over a genus range, from
`surfaces` alone), `penner` (trace report for one genus, the one
subcommand that runs `penner`), `pf` (matrix file analysis) and `track`
(track file validation).  Exit status: 0 when every verdict in the
run passes, 1 when a verdict fails or a table row degrades to an error
marker, 2 for a usage error, unusable input or a report (the `-h` help
too) that cannot be written (a closed pipe, a full disk, a closed
stdout), with one `error:` line on stderr: never on stdout, and status 2
even if stderr is unusable.
Integer certificates, such as the `track` witness weights, are printed as
JSON integers and exact rationals as "p/q"; the only float in any JSON
report is the flm_upper_float64 field.  A `--json` report is compact JSON
on one line: keys sorted, no whitespace between tokens, and a closing
newline (`python -m json.tool` pretty-prints one).
"""

from __future__ import annotations

import argparse
import io
import os
import sys

# Modules, not names: the package loads each one at its first attribute
# lookup, so a subcommand runs only the engines it calls.
from . import fileio, penner, pfmatrix, surfaces, traintrack

__all__ = ["main", "run_bounds", "run_penner", "run_pf", "run_track"]


def _emit(payload: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        import json
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for line in lines:
            print(line)


# --- bounds -----------------------------------------------------------------


def _bounds_row(genus: int, punctures: int) -> dict:
    row: dict = {"genus": genus, "punctures": punctures}
    try:
        sig = surfaces.SurfaceSig(genus, punctures)
        lower = surfaces.translation_length_lower_bound(sig)
        row["lower"] = surfaces.frac_str(lower)
        if punctures == 0:
            upper = surfaces.translation_length_upper_bound(genus)
            flm = surfaces.flm_upper_bound(genus)
            k, penner_bound = surfaces.penner_upper_bound(genus)
            surfaces.BoundReport(
                surface=sig,
                lower=lower,
                upper_closed=upper,
                upper_penner=penner_bound,
            ).validate()
            row["upper_closed"] = surfaces.frac_str(upper)
            row["flm_upper_float64"] = flm
            row["penner_k"] = k
            row["penner_upper"] = surfaces.frac_str(penner_bound)
        if genus == 2 and punctures >= 5:
            upper2 = surfaces.punctured_genus2_upper_bound(punctures)
            row["genus2_upper"] = surfaces.frac_str(upper2)
    except surfaces.SporadicSurfaceError:
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


def run_penner(genus: int, cap: int | None, as_json: bool) -> int:
    result = penner.trace(genus, cap)
    upper = surfaces.translation_length_upper_bound(genus)
    ok = result.bound <= upper
    bound = surfaces.frac_str(result.bound)
    # The supports are O(g^3) bytes, so they are written one at a time as
    # they are replayed and never held as a whole report.
    write = sys.stdout.write
    if not as_json:
        write(f"penner trace, genus {genus}, cap {result.cap}\n")
        for k, names in enumerate(result.sorted_names(" ")):
            write(f"S_{k} = {{{names}}}\n")
        for k, w in result.certificates:
            write(f"certified k={k} witness={w}\n")
        write(f"best_k={result.best_k} bound={bound}\n")
        verdict = "PASS" if ok else "FAIL"
        write(f"2/{result.best_k} <= 4/(g^2+g-4) = {surfaces.frac_str(upper)}: {verdict}\n")
        return 0 if ok else 1
    # The bytes of `_emit`'s json.dumps: sorted keys, no whitespace, ints and
    # `pass` as JSON literals, and the "p/q" bounds and curve names (letters,
    # digits and "/") quoted, since they need no escaping.  Neither list is
    # empty: best_k >= 1, and every support holds a curve.
    certificates = ",".join(f'[{k},"{w}"]' for k, w in result.certificates)
    write(
        f'{{"best_k":{result.best_k},"bound":"{bound}","cap":{result.cap},'
        f'"certificates":[{certificates}],"genus":{genus},'
        f'"pass":{"true" if ok else "false"},"supports":['
    )
    lead = '["'
    for names in result.sorted_names('","'):
        write(f'{lead}{names}"]')
        lead = ',["'
    write(f'],"upper_closed":"{surfaces.frac_str(upper)}"}}\n')
    return 0 if ok else 1


# --- pf ---------------------------------------------------------------------


def run_pf(input_path: str, as_json: bool) -> int:
    doc = fileio.load_matrix(input_path)
    m = doc.matrix
    if m.rows != m.cols:
        raise ValueError(f"matrix is {m.rows}x{m.cols}, analysis needs square")
    if (doc.real_set is None) != (doc.surface is None):
        raise ValueError('"real:" and "surface:" lines must appear together')
    try:
        q = pfmatrix.min_positive_diagonal_power(m)
    except pfmatrix.NotIrreducibleError:
        q = None
    irr = q is not None
    # A positive power forces irreducibility, so skip the search otherwise.
    exponent = pfmatrix.primitivity_exponent(m) if irr else None
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
        bt = pfmatrix.BlockTransition(m, doc.real_set, doc.surface)
        k = pfmatrix.full_spread_power(bt)
        rq = bt.q
        i = k - 2 * bt.r * rq  # the cover time, as k = 2rq + i
        chi = doc.surface.chi
        coeff = surfaces.lower_bound_coefficient(doc.surface)
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
    doc = fileio.load_track(input_path)
    payload: dict = {}
    lines: list[str] = []
    checks: dict[str, bool] = {}
    try:
        track, attachment = doc.build()
    except traintrack.TrackStructureError as exc:
        checks["structure"] = False
        payload["checks"] = checks
        payload["structure_error"] = str(exc)
        lines.append(f"structure (valences, sides, slots): FAIL ({exc})")
        _emit(payload, as_json, lines)
        return 1
    checks["structure"] = True
    lines.append("structure (valences, sides, slots): PASS")

    sig = attachment.surface
    try:
        report = traintrack.classify_regions(track, attachment)
    except traintrack.TrackStructureError as exc:
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

    recurrent, evidence = traintrack.is_recurrent(track)
    if recurrent:
        payload["witness"] = evidence
        # The certificate is checked at every switch, not trusted.
        recurrent = traintrack.check_measure(track, evidence)
        lines.append(
            "recurrence: PASS (positive witness measure found)"
            if recurrent
            else "recurrence: FAIL (witness does not balance)"
        )
    else:
        # Name one dead branch and the count, not the list: a large track
        # can have hundreds.
        payload["witness"] = None
        payload["no_route"] = {"count": len(evidence), "first": evidence[0]}
        lines.append(
            f"recurrence: FAIL ({len(evidence)} branches on no closed route, "
            f"first: {evidence[0]})"
        )
    checks["recurrent"] = recurrent

    counts = traintrack.branch_count_report(track, sig)
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

    cusps, bound = traintrack.total_cusps(track), surfaces.cusp_bound(sig)
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


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # a usage error is unusable input
        raise ValueError(message)

    def _print_message(self, message: str, file=None) -> None:
        file.write(message)  # argparse would drop a failed write; `main` reports it
        file.flush()


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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


def _run(args: argparse.Namespace) -> int:
    if args.command == "bounds":
        if args.genus_min > args.genus_max:
            raise ValueError("empty genus range")
        if args.punctures < 0:
            raise ValueError("punctures must be nonnegative")
        if args.punctures == 0 and args.genus_min < 2:
            raise ValueError("closed-surface table needs genus >= 2")
        if args.punctures > 0 and args.genus_min < 0:
            raise ValueError("genus must be nonnegative")
        return run_bounds(args.genus_min, args.genus_max, args.punctures, args.json)
    if args.command == "penner":  # `trace` checks the genus and the cap
        return run_penner(args.genus, args.cap, args.json)
    if args.command == "pf":
        return run_pf(args.input, args.json)
    return run_track(args.input, args.json)


def main(argv: list[str] | None = None) -> int:
    # The one site of exit status 2; each handler below only picks the text.
    try:
        if sys.stdout is None:  # started with fd 1 closed
            raise OSError("stdout is closed")
        # Names from an input file need not encode on stdout (a latin-1 or
        # ascii locale): escape them, so the report ends with the verdict's code.
        if isinstance(sys.stdout, io.TextIOWrapper):
            sys.stdout.reconfigure(errors="backslashreplace")
        code = _run(_build_parser().parse_args(argv))
        sys.stdout.flush()  # a failed write shows here at the latest
        return code
    except MemoryError:  # each verdict comes before its report's first write
        message = "input too large for available memory"
    except OverflowError:  # a genus such as 10**30, past int shifts or floats
        message = "input too large to compute with"
    except ValueError as exc:  # each input check runs before the first write
        message = str(exc)
    except OSError as exc:
        # A closed pipe, a full disk, an I/O error.  If stdout has a fd, point
        # it at devnull, so that the flush at exit cannot fail again.
        message = f"cannot write the report: {exc.strerror or exc}"
        try:
            fd, null = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, fd)
            os.close(null)
        except (AttributeError, OSError):  # None, a stream with no fd, no devnull
            pass
    try:  # never to stdout; a line stderr cannot take is dropped
        sys.stderr.write(f"error: {message}\n")
    except (AttributeError, OSError):  # None, or fd 2 closed
        pass
    return 2


if __name__ == "__main__":
    sys.exit(main())
