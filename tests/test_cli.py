from __future__ import annotations

import contextlib
import errno
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import curvebounds
from curvebounds import penner, traintrack
from curvebounds.cli import main, run_bounds, run_penner
from curvebounds.fileio import load_track
from curvebounds.penner import TraceResult, trace
from curvebounds.reference import (
    build_spine, reference_attachment, reference_track, spine_attachment,
)

from helpers import (
    data_path, format_track, near_valid_texts, numeric_field, reference_penner_report,
    switch_balance,
)

CHAIN_MATRIX = "3 3\n0 1 0\n0 0 1\n0 0 1\nreal: 2\nsurface: 2 0\n"

BARBELL = (
    "surface 2 0\n"
    "switches L R\n"
    "branches\n"
    "loopL L:0:0 L:0:1 plain\n"
    "bar L:1:0 R:0:0 plain\n"
    "loopR R:1:0 R:1:1 plain\n"
    "attach\n"
)

DEAD_TRACK = (
    "surface 2 0\n"
    "switches s\n"
    "branches\n"
    "loop s:0:0 s:0:1 plain\n"
    "stem s:0:2 s:1:0 plain\n"
    "attach\n0 1 0\n1 1 0\n2 0 0\n"
)

CUSP_HEAVY_TRACK = (
    "surface 0 3\n"
    "switches s\n"
    "branches\n"
    "b0 s:0:0 s:0:1 plain\n"
    "b1 s:0:2 s:0:3 plain\n"
    "b2 s:0:4 s:1:0 plain\n"
    "b3 s:1:1 s:1:3 plain\n"
    "b4 s:1:2 s:1:4 plain\n"
    "attach\n0 0 1\n1 0 0\n2 0 0\n3 0 0\n"
)

TWO_VALENT_TRACK = (
    "surface 2 0\n"
    "switches s\n"
    "branches\n"
    "x s:0:0 s:1:0 plain\n"
    "attach\n"
)


def run_json(capsys, argv) -> tuple[int, dict]:
    code = main(argv + ["--json"])
    return code, json.loads(capsys.readouterr().out)


# --- bounds -----------------------------------------------------------------


def test_bounds_closed_table(capsys):
    code, payload = run_json(capsys, ["bounds", "--genus-min", "2", "--genus-max", "4"])
    assert code == 0
    rows = payload["rows"]
    assert [r["genus"] for r in rows] == [2, 3, 4]
    g2 = rows[0]
    assert g2["lower"] == "1/660"
    assert g2["upper_closed"] == "2/1"
    assert g2["penner_k"] == 2
    assert g2["penner_upper"] == "1/1"
    assert g2["flm_upper_float64"] == pytest.approx(6.496035641979318)
    g3 = rows[1]
    assert g3["lower"] == "1/2616" and g3["upper_closed"] == "1/2"
    assert g3["penner_k"] == 6 and g3["penner_upper"] == "1/3"


def test_bounds_punctured_table(capsys):
    code, payload = run_json(
        capsys,
        ["bounds", "--genus-min", "0", "--genus-max", "2", "--punctures", "5"],
    )
    assert code == 0
    rows = payload["rows"]
    assert rows[0]["lower"] == "1/180"
    assert rows[1]["lower"] == "1/480"
    assert rows[2]["lower"] == "1/924"
    assert rows[2]["genus2_upper"] == "20/1"
    assert all("upper_closed" not in r for r in rows)


def test_bounds_genus2_many_punctures(capsys):
    code, payload = run_json(
        capsys,
        ["bounds", "--genus-min", "2", "--genus-max", "2", "--punctures", "10"],
    )
    assert code == 0
    assert payload["rows"][0]["genus2_upper"] == "10/3"


def test_bounds_text_lines(capsys):
    code = main(["bounds", "--genus-min", "2", "--genus-max", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "lower=1/660" in out and "upper=2/1" in out
    assert "penner_k=2" in out and "flm=6.496035642" in out


def test_bounds_sporadic_row_marker(capsys):
    code = run_bounds(1, 1, 0, as_json=True)
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"] == [{"genus": 1, "punctures": 0, "error": "sporadic"}]


def test_bounds_parser_rejections(capsys):
    for argv, message in (
        (["bounds", "--genus-min", "3", "--genus-max", "2"], "empty genus range"),
        (["bounds", "--genus-min", "1", "--genus-max", "3"],
         "closed-surface table needs genus >= 2"),
        (["bounds", "--genus-min", "2", "--genus-max", "3", "--punctures", "-1"],
         "punctures must be nonnegative"),
        (["bounds", "--genus-min", "2"], "the following arguments are required: --genus-max"),
    ):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n"), argv


# --- penner -----------------------------------------------------------------


def test_penner_json(capsys):
    code, payload = run_json(capsys, ["penner", "--genus", "2"])
    assert code == 0
    assert payload["best_k"] == 2
    assert payload["bound"] == "1/1"
    assert payload["upper_closed"] == "2/1"
    assert payload["pass"] is True
    assert payload["supports"][0] == ["a2"]
    assert payload["supports"][2] == ["a2", "b2", "c2"]
    assert payload["certificates"] == [[1, "a2"], [2, "a1"]]


def test_penner_text(capsys):
    code = main(["penner", "--genus", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "S_0 = {a2}" in out
    assert "S_2 = {a2 b2 c2}" in out
    assert "certified k=2 witness=a1" in out
    assert "best_k=2 bound=1/1" in out
    assert "2/2 <= 4/(g^2+g-4) = 2/1: PASS" in out


def test_penner_low_cap_fails_verdict(capsys):
    # one iterate certifies only k=1, and 2/1 exceeds the genus-3 target 1/2
    code = main(["penner", "--genus", "3", "--cap", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_penner_parser_rejections(capsys):
    """The genus and cap checks are `trace`'s own; a usage error is
    argparse's message, with no usage line."""
    for argv, message in (
        (["penner", "--genus", "1"], "chain system needs genus >= 2, got 1"),
        (["penner", "--genus", "2", "--cap", "0"], "cap must be >= 1, got 0"),
        (["penner", "--genus", "x3"], "argument --genus: invalid int value: 'x3'"),
    ):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n"), argv


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["penner", "-h"])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: curvebounds penner") and err == ""


@pytest.mark.parametrize("genus", range(2, 31))
def test_penner_report_bytes_match_reference(capsys, genus):
    for cap in (None, 1, 2, genus, 3 * genus * genus):
        result = trace(genus, cap)
        for as_json in (False, True):
            code = run_penner(genus, cap, as_json)
            assert (capsys.readouterr().out, code) == reference_penner_report(result, as_json)


@pytest.mark.parametrize(
    "genus, cap",
    [(9, None), (10, None), (99, None), (100, None), (101, None), (120, None), (101, 5000)],
)
def test_penner_report_bytes_match_reference_across_digit_lengths(capsys, genus, cap):
    """Names are printed in curve order, which puts a9 before a10 and a99
    before a100 where string order would not, so the decoder is checked on
    both sides of 10 and 100."""
    result = trace(genus, cap)
    for as_json in (False, True):
        code = run_penner(genus, cap, as_json)
        assert (capsys.readouterr().out, code) == reference_penner_report(result, as_json)


def test_penner_json_lists_names_in_curve_order(capsys):
    """The genus-10 trace ends on the full system, printed a1..a10, b1..b10,
    c1..c10: family first, then index as a number."""
    assert run_penner(10, None, True) == 0
    supports = json.loads(capsys.readouterr().out)["supports"]
    assert supports[-1] == [f"{f}{i}" for f in "abc" for i in range(1, 11)]


def test_bounds_reads_best_k_only(capsys, monkeypatch):
    """`bounds` reads best_k from lemma B's closed form, so it runs no
    trace at all."""
    def refuse(*args, **kwargs):
        raise AssertionError("bounds must not run the Penner trace")

    monkeypatch.setattr(penner, "trace", refuse)
    for args in (["--genus-max", "40"], ["--genus-max", "1000", "--json"]):
        assert main(["bounds", "--genus-min", "2", *args]) == 0
        assert capsys.readouterr().out


def test_penner_never_builds_masks(capsys, monkeypatch):
    """The report replays each support as it writes it; the O(g^2)-entry
    `masks` tuple is never built."""
    def refuse(self):
        raise AssertionError("penner must not build TraceResult.masks")

    monkeypatch.setattr(TraceResult, "masks", property(refuse))
    for as_json in (False, True):
        assert run_penner(12, None, as_json) == 0
        assert capsys.readouterr().out


def test_penner_report_reads_masks_not_supports(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("penner output must not build TraceResult.supports")

    monkeypatch.setattr(TraceResult, "supports", property(refuse))
    assert main(["penner", "--genus", "5", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["supports"][0] == ["a5"]


# --- pf ---------------------------------------------------------------------


def test_pf_plain_matrix(tmp_path, capsys):
    p = tmp_path / "m.matrix"
    p.write_text("2 2\n1 1\n1 0\n")
    code, payload = run_json(capsys, ["pf", "--input", str(p)])
    assert code == 0
    assert payload == {
        "dim": 2,
        "irreducible": True,
        "q": 1,
        "primitivity_exponent": 2,
    }


def test_pf_imprimitive_matrix(tmp_path, capsys):
    p = tmp_path / "m.matrix"
    p.write_text("2 2\n0 1\n1 0\n")
    code, payload = run_json(capsys, ["pf", "--input", str(p)])
    assert code == 0
    assert payload["irreducible"] is True
    assert payload["q"] == 2
    assert payload["primitivity_exponent"] is None


def test_pf_zero_matrix(tmp_path, capsys):
    p = tmp_path / "m.matrix"
    p.write_text("1 1\n0\n")
    code, payload = run_json(capsys, ["pf", "--input", str(p)])
    assert code == 0
    assert payload["irreducible"] is False and payload["q"] is None


def test_pf_block_section(tmp_path, capsys):
    p = tmp_path / "m.matrix"
    p.write_text(CHAIN_MATRIX)
    code, payload = run_json(capsys, ["pf", "--input", str(p)])
    assert code == 0
    assert payload["block"] == {
        "r": 1,
        "q": 1,
        "cover_time": 2,
        "k": 4,
        "k_bound": 648,
        "k_ok": True,
    }


def test_pf_text_block(tmp_path, capsys):
    p = tmp_path / "m.matrix"
    p.write_text(CHAIN_MATRIX)
    code = main(["pf", "--input", str(p)])
    out = capsys.readouterr().out
    assert code == 0
    assert "cover time i=2" in out
    assert "k = 2rq+i = 4 < 162*chi^2 = 648: PASS" in out


CHI_ZERO_MATRIX = "1 1\n1\nreal: 0\nsurface: 1 0\n"


@pytest.mark.parametrize(
    "content",
    [
        "2 3\n1 1 1\n1 1 1\n",  # not square
        "1 1\n1\nreal: 0\n",  # real without surface
        "1 1\n1\nsurface: 2 0\n",  # surface without real
        "not a matrix\n",
        "2 2\n1\x1c1\n1 1\n",  # \x1c is no field separator
        "2 2\n0 1\n1 0\nreal: 0 1\nsurface: 2 0\n",  # imprimitive restriction
        "2 2\n1 0\n0 1\nreal: 0 1\nsurface: 2 0\n",  # reducible restriction
        CHI_ZERO_MATRIX,
    ],
)
def test_pf_unusable_inputs(tmp_path, capsys, content):
    p = tmp_path / "m.matrix"
    p.write_text(content)
    assert main(["pf", "--input", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    if content == CHI_ZERO_MATRIX:  # the surface as users see it
        assert err == "error: surface must have chi < 0: SurfaceSig(genus=1, punctures=0)\n"


def test_pf_missing_file(capsys):
    assert main(["pf", "--input", "/nonexistent/m.matrix"]) == 2
    assert "error:" in capsys.readouterr().err


# A superscript digit passes str.isdigit() but not int(); a run of 4301
# ASCII digits passes both checks but exceeds int()'s conversion limit; the
# other file is not UTF-8 at all.  A surface genus of 4000 digits converts,
# but 162 chi^2 then has about 8000 and could not be printed; 4300 digits
# break 9|chi| in `track` the same way, and so do region data.  All are
# unusable input, reported on one line.
UNUSABLE_BYTES = [
    ("pf", "2 \u00b2\n1 1\n1 1\n".encode()),
    ("pf", b"1 1\n\xff\n"),
    ("track", "surface 2 0\nswitches s\nbranches\nx s:0:\u00b2 s:1:0 plain\n".encode()),
    ("track", b"surface 2 0\nswitches \xe9\n"),
    ("pf", b"1 1\n" + b"9" * 4301 + b"\n"),
    ("track", b"surface 2 0\nswitches s\nbranches\nx s:0:" + b"9" * 4301 + b" s:1:0 plain\n"),
    ("pf", b"1 1\n1\nreal: 0\nsurface: " + b"9" * 4000 + b" 0\n"),
    ("track", BARBELL.replace("surface 2 0", "surface " + "9" * 4300 + " 0").encode()),
    ("track", (BARBELL + "0 " + "9" * 4300 + " 0\n1 1 0\n2 0 0\n").encode()),
]


@pytest.mark.parametrize(
    "command,content",
    UNUSABLE_BYTES,
    ids=["pf-superscript", "pf-non-utf8", "track-superscript", "track-non-utf8",
         "pf-overlong", "track-overlong", "pf-huge-surface", "track-huge-surface",
         "track-huge-region"],
)
def test_unusable_bytes_exit_2_with_one_line(tmp_path, capsys, command, content):
    p = tmp_path / "input"
    p.write_bytes(content)
    assert main([command, "--input", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1


# Files that get past the parser: the chain matrix and the barbell track with
# their surface (and region) numbers fuzzed, including runs of 1900-4300
# digits on both sides of the 2000-digit surface limit.
CHAIN_SURFACE = CHAIN_MATRIX.replace("surface: 2 0", "surface: {} {}")
BARBELL_SURFACE = BARBELL.replace("surface 2 0", "surface {} {}") + "0 {} {}\n1 {} {}\n2 {} {}\n"
FUZZ_FILES = st.one_of(
    st.binary(),
    near_valid_texts(numeric_field(4290, 4400)).map(str.encode),
    st.lists(numeric_field(1900, 4300), min_size=2, max_size=2).map(
        lambda f: CHAIN_SURFACE.format(*f).encode()),
    st.lists(numeric_field(1900, 4300), min_size=8, max_size=8).map(
        lambda f: BARBELL_SURFACE.format(*f).encode()),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(command=st.sampled_from(["pf", "track"]), content=FUZZ_FILES)
@example(command="pf", content=CHAIN_SURFACE.format("9" * 2000, "9" * 2000).encode())
@example(command="pf", content=CHAIN_SURFACE.format("9" * 2001, "0").encode())
@example(command="track", content=BARBELL_SURFACE.format(*["9" * 2000] * 8).encode())
@example(command="track", content=BARBELL_SURFACE.format("2", "0", "1", "0", "1", "0", "0", "0").encode())
def test_main_on_any_bytes_exits_0_1_or_2(tmp_path_factory, command, content):
    p = tmp_path_factory.getbasetemp() / "fuzz.input"
    p.write_bytes(content)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--input", str(p)])
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1


# --- track ------------------------------------------------------------------


def test_track_reference_files_pass(capsys):
    for genus in (2, 3):
        path = data_path(f"genus{genus}_maximal.track")
        code, payload = run_json(capsys, ["track", "--input", str(path)])
        assert code == 0
        assert all(payload["checks"].values())
        assert payload["maximal"] is True
        assert payload["regions"] == ["polygon(3)"] * (4 * genus - 4)
        assert len(payload["witness"]) == 10 * genus - 8
        assert payload["cusps"] == {
            "total": 12 * genus - 12,
            "bound": 12 * genus - 12,
        }


def test_track_witness_prints_json_ints_that_balance(tmp_path, capsys):
    """The `--json` witness gives each branch a JSON integer weight of at
    least 1, and those weights balance at every switch by the oracle.  Ints
    keep the report small: 15,277 bytes for the genus-100 reference track,
    where "c/1" strings took 19,245."""
    paths = [data_path(f"genus{g}_maximal.track") for g in (2, 3)]
    for genus in (*range(2, 11), 100):
        p = tmp_path / f"reference{genus}.track"
        p.write_text(format_track(reference_track(genus), reference_attachment(genus)))
        paths.append(p)
    for path in paths:
        assert main(["track", "--input", str(path), "--json"]) == 0
        out = capsys.readouterr().out
        witness = json.loads(out)["witness"]
        track, _ = load_track(str(path)).build()
        assert set(witness) == {b.name for b in track.branches}
        assert all(type(v) is int and v >= 1 for v in witness.values())
        assert set(switch_balance(track, witness).values()) == {0}
    assert len(out.encode()) <= 15_300  # reference_track(100), the last path


def test_track_structure_failure(tmp_path, capsys):
    p = tmp_path / "t.track"
    p.write_text(TWO_VALENT_TRACK)
    code, payload = run_json(capsys, ["track", "--input", str(p)])
    assert code == 1
    assert payload["checks"] == {"structure": False}
    assert "structure_error" in payload


def test_track_euler_failure(tmp_path, capsys):
    p = tmp_path / "t.track"
    p.write_text(BARBELL)  # no attach data for its three cycles
    code, payload = run_json(capsys, ["track", "--input", str(p)])
    assert code == 1
    assert payload["checks"]["structure"] is True
    assert payload["checks"]["euler"] is False
    assert payload["checks"]["recurrent"] is True


def test_track_non_recurrent(tmp_path, capsys):
    p = tmp_path / "t.track"
    p.write_text(DEAD_TRACK)
    code, payload = run_json(capsys, ["track", "--input", str(p)])
    assert code == 1
    checks = payload["checks"]
    assert checks["euler"] is True
    assert checks["recurrent"] is False
    assert payload["witness"] is None
    assert payload["no_route"] == {"count": 1, "first": "loop"}
    assert all(checks[k] for k in ("structure", "branch_total", "real_count", "cusp_count"))
    assert main(["track", "--input", str(p)]) == 1
    out = capsys.readouterr().out
    assert "recurrence: FAIL (1 branches on no closed route, first: loop)\n" in out


def test_track_refuses_a_witness_that_does_not_balance(capsys, monkeypatch):
    """`track` checks the witness against the switch equations before it
    prints PASS: an unbalanced one (every weight 1 on a trivalent track)
    fails the recurrence check with exit 1 and no traceback."""
    def unbalanced(track):
        return True, {b.name: 1 for b in track.branches}

    monkeypatch.setattr(traintrack, "is_recurrent", unbalanced)
    path = str(data_path("genus2_maximal.track"))
    code, payload = run_json(capsys, ["track", "--input", path])
    assert code == 1
    assert payload["checks"]["recurrent"] is False
    assert all(v for k, v in payload["checks"].items() if k != "recurrent")
    assert {Fraction(v) for v in payload["witness"].values()} == {1}
    assert main(["track", "--input", path]) == 1
    out, err = capsys.readouterr()
    assert "recurrence: FAIL (witness does not balance)\n" in out
    assert "PASS (positive witness" not in out and err == ""


def test_track_non_recurrent_spine_names_cause_in_bounded_size(tmp_path, capsys):
    """331 of the 333 branches of the all-zero-corner genus-56 spine are on
    no closed route; the report gives their count and the first one only."""
    genus = 56
    spine = build_spine(genus, (0,) * (4 * genus - 2))
    p = tmp_path / "spine.track"
    p.write_text(format_track(spine, spine_attachment(genus)))
    code, payload = run_json(capsys, ["track", "--input", str(p)])
    assert code == 1
    assert payload["checks"]["recurrent"] is False
    assert payload["witness"] is None
    assert payload["no_route"] == {"count": 331, "first": "q2"}
    assert main(["track", "--input", str(p)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "recurrence: FAIL (331 branches on no closed route, first: q2)" in lines


def test_track_cusp_budget_failure(tmp_path, capsys):
    p = tmp_path / "t.track"
    p.write_text(CUSP_HEAVY_TRACK)
    code, payload = run_json(capsys, ["track", "--input", str(p)])
    assert code == 1
    checks = payload["checks"]
    assert checks["euler"] is True and checks["recurrent"] is True
    assert checks["cusp_count"] is False
    assert payload["cusps"] == {"total": 8, "bound": 6}
    assert payload["regions"][0] == "punctured_polygon(2)"


def test_track_text_output(tmp_path, capsys):
    p = tmp_path / "t.track"
    p.write_text(CUSP_HEAVY_TRACK)
    code = main(["track", "--input", str(p)])
    out = capsys.readouterr().out
    assert code == 1
    assert "structure (valences, sides, slots): PASS" in out
    assert "cusps 8 <= 6: FAIL" in out


def test_track_unusable_input(tmp_path, capsys):
    p = tmp_path / "t.track"
    p.write_text("surface 2 0\nnothing\n")
    assert main(["track", "--input", str(p)]) == 2
    assert main(["track", "--input", str(tmp_path / "absent.track")]) == 2
    assert capsys.readouterr().err.count("error:") == 2


# Keys of a report past the structure check, without and with regions.
_CHECKED = {"checks", "witness", "branch_counts", "cusps"}
_CLASSIFIED = _CHECKED | {"regions", "large", "maximal"}


@pytest.mark.parametrize(
    "content, code, keys",
    [
        (data_path("genus2_maximal.track").read_text(), 0, _CLASSIFIED),
        (format_track(build_spine(10, (0,) * 38), spine_attachment(10)), 1,
         _CLASSIFIED | {"no_route"}),
        (BARBELL, 1, _CHECKED | {"euler_error"}),
        (TWO_VALENT_TRACK, 1, {"checks", "structure_error"}),
    ],
    ids=["recurrent", "no-route", "euler", "structure"],
)
def test_track_json_report_keys(tmp_path, capsys, content, code, keys):
    """`track --json` carries verdicts and certificates only, not a copy
    of the parsed input."""
    p = tmp_path / "t.track"
    p.write_text(content)
    got, payload = run_json(capsys, ["track", "--input", str(p)])
    assert got == code
    assert set(payload) == keys


@pytest.mark.parametrize("genus", [2, 10, 30, 64, 100])
def test_track_failing_report_stays_small_at_any_genus(tmp_path, capsys, genus):
    """The all-zero-corner spine fails recurrence at every genus, and its
    report names a count and one branch: under 400 bytes, whatever g."""
    p = tmp_path / "spine.track"
    p.write_text(format_track(build_spine(genus, (0,) * (4 * genus - 2)),
                              spine_attachment(genus)))
    assert main(["track", "--input", str(p), "--json"]) == 1
    assert len(capsys.readouterr().out.encode()) < 400


@pytest.mark.parametrize("as_json", [False, True])
def test_track_with_byte_order_mark(tmp_path, capsys, as_json):
    """Some editors start UTF-8 files with a byte-order mark."""
    path = data_path("genus2_maximal.track")
    marked = tmp_path / "bom.track"
    marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    flag = ["--json"] * as_json
    assert main(["track", "--input", str(path), *flag]) == 0
    plain = capsys.readouterr()
    assert main(["track", "--input", str(marked), *flag]) == 0
    assert capsys.readouterr() == plain


PI_SWITCH_TRACK = DEAD_TRACK.replace("stem s:0:2 s:1:0", "stem s:0:2 \u03c0:1:0")
LAMBDA_DEAD_TRACK = DEAD_TRACK.replace("loop s:0:0", "\u03bboop s:0:0")


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
@pytest.mark.parametrize(
    "content, line",
    [
        (PI_SWITCH_TRACK, "structure (valences, sides, slots): FAIL "
                          "(branch stem attaches to unknown switch '\\u03c0')"),
        (LAMBDA_DEAD_TRACK, "recurrence: FAIL (1 branches on no closed route, "
                            "first: \\u03bboop)"),
    ],
    ids=["unknown-switch", "dead-branch"],
)
def test_track_report_escapes_names_stdout_cannot_encode(tmp_path, encoding, content, line):
    """A name stdout cannot encode is written backslash-escaped: the text
    report completes with the verdict's exit code and no traceback, and the
    JSON report, ASCII already, keeps its bytes."""
    p = tmp_path / "t.track"
    p.write_text(content, encoding="utf-8")
    src = Path(curvebounds.__file__).resolve().parents[1]

    def run(io_encoding: str, *flags: str) -> subprocess.CompletedProcess:
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONIOENCODING": io_encoding}
        argv = [sys.executable, "-m", "curvebounds.cli", "track", "--input", str(p), *flags]
        return subprocess.run(argv, env=env, capture_output=True, timeout=60)

    text = run(encoding)
    assert (text.returncode, text.stderr) == (1, b"")
    assert line in text.stdout.decode("ascii").splitlines()
    as_json, as_utf8_json = run(encoding, "--json"), run("utf-8", "--json")
    assert (as_json.returncode, as_json.stderr) == (1, b"")
    assert as_json.stdout == as_utf8_json.stdout
    assert as_json.stdout.isascii()


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("ch", ["\u2028", "\u2029", "\x85", "\x1c", "\x7f", "\xa0", "\ufeff"],
                         ids=lambda ch: f"U+{ord(ch):04X}")
def test_track_refuses_unprintable_names(tmp_path, capsys, ch, as_json):
    """A dead branch named lo<ch>op would print a line break, or an
    invisible character, into the text report's verdict line; the file is
    refused as unusable input instead, with one escaped error line."""
    name = f"lo{ch}op"
    p = tmp_path / "t.track"
    p.write_text(DEAD_TRACK.replace("loop", name), encoding="utf-8")
    assert main(["track", "--input", str(p), *["--json"] * as_json]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: line 4: name {name!r} is not printable\n"
    assert err.isascii() and len(err.splitlines()) == 1


# --- JSON layout ------------------------------------------------------------


@pytest.mark.parametrize(
    "args, content, code",
    [
        (["bounds", "--genus-min", "2", "--genus-max", "6"], None, 0),
        (["bounds", "--genus-min", "0", "--genus-max", "2", "--punctures", "1"], None, 1),
        (["penner", "--genus", "12"], None, 0),
        (["penner", "--genus", "12", "--cap", "1"], None, 1),
        (["pf"], "2 2\n1 1\n1 0\n", 0),
        (["pf"], CHAIN_MATRIX, 0),
        (["pf"], "1 1\n0\n", 0),
        (["track"], data_path("genus2_maximal.track").read_text(), 0),
        (["track"], TWO_VALENT_TRACK, 1),
        (["track"], BARBELL, 1),
        (["track"], DEAD_TRACK, 1),
    ],
    ids=["bounds-closed", "bounds-punctured-error-row", "penner", "penner-cap-1",
         "pf-plain", "pf-block", "pf-reducible", "track-pass", "track-structure",
         "track-euler", "track-no-route"],
)
def test_json_reports_are_compact_with_sorted_keys(tmp_path, capsys, args, content, code):
    """Every `--json` report, from `json.dumps` or from the streaming
    `penner` writer, is one line of JSON with sorted keys and no whitespace
    between tokens, ended by a newline."""
    if content is not None:
        p = tmp_path / "input"
        p.write_text(content)
        args = [*args, "--input", str(p)]
    assert main([*args, "--json"]) == code
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) + "\n"


# Runs the CLI as `python -m curvebounds.cli` does, then writes which
# `curvebounds.*` modules have executed and which other modules the run
# added.  A module registered lazily by the package is a `_LazyModule` until
# its first attribute lookup turns it into a plain module; `type()` reads no
# attribute, so the check loads nothing.  The probe imports json only after
# the snapshot, so a run that loads json shows in `added`.
_MODULE_PROBE = """
import runpy, sys, types
report = sys.argv.pop(1)
before = set(sys.modules)
try:
    runpy.run_module("curvebounds.cli", run_name="__main__", alter_sys=True)
finally:
    executed = [
        name.partition(".")[2]
        for name, m in sys.modules.items()
        if name.startswith("curvebounds.") and type(m) is types.ModuleType
    ]
    added = sorted(set(sys.modules) - before)
    import json
    with open(report, "w") as fh:
        json.dump({"executed": executed, "added": added, "numpy": "numpy" in sys.modules}, fh)
"""


@pytest.mark.parametrize(
    "args, code, executed",
    [
        (["bounds", "--genus-min", "2", "--genus-max", "6"], 0, {"surfaces"}),
        (["penner", "--genus", "4", "--json"], 0, {"surfaces", "penner"}),
        (["pf", "--input", "{matrix}"], 0, {"surfaces", "pfmatrix", "fileio", "_digraph"}),
        (["track", "--input", "{track}"], 0,
         {"surfaces", "traintrack", "fileio", "_digraph"}),
        (["penner"], 2, set()),
    ],
    ids=["bounds", "penner", "pf", "track", "usage-error"],
)
def test_subcommand_runs_only_its_engine(tmp_path, args, code, executed):
    """Each subcommand executes only the engine modules it calls, never loads
    numpy, dataclasses or inspect, loads json only for a report that
    `json.dumps` writes (none of these cases), and writes nothing to stderr
    when it succeeds.  `pf` and `track` load none of fractions, decimal and
    numbers."""
    matrix = tmp_path / "chain.matrix"
    matrix.write_text(CHAIN_MATRIX)
    paths = {"{matrix}": str(matrix), "{track}": str(data_path("genus2_maximal.track"))}
    report = tmp_path / "modules.json"
    src = Path(curvebounds.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-c", _MODULE_PROBE, str(report), *(paths.get(a, a) for a in args)],
        env=env, capture_output=True, timeout=60,
    )
    assert result.returncode == code, result.stderr.decode()
    if code == 0:
        assert result.stderr == b""
    else:
        assert result.stderr == b"error: the following arguments are required: --genus\n"
    probe = json.loads(report.read_text())
    assert set(probe["executed"]) == executed
    assert not probe["numpy"]
    assert not {"dataclasses", "inspect", "json"} & set(probe["added"])
    if args[0] in ("pf", "track"):
        assert not {"fractions", "decimal", "numbers"} & set(probe["added"])


def _limit_address_space(nbytes: int) -> None:
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (nbytes, nbytes))


def _cli_subprocess(args: list[str], unbuffered: bool = False, **kwargs):
    """`python -m curvebounds.cli` with this checkout's package and stdout
    block-buffered as usual, or unbuffered as under PYTHONUNBUFFERED."""
    src = Path(curvebounds.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(src)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "curvebounds.cli", *args], env=env, **kwargs)


def _assert_one_error_line(proc, err: bytes) -> None:
    text = err.decode()
    assert proc.returncode == 2
    assert text.startswith("error:") and text.count("\n") == 1
    assert "Traceback" not in text and "Exception ignored" not in text


@pytest.mark.parametrize(
    "args",
    [
        ["penner", "--genus", "1000000000000"],
        ["penner", "--genus", str(10**30)],
    ],
    ids=["penner", "penner-1e30"],
)
def test_huge_genus_out_of_memory_exits_2_with_one_line(args):
    """The Penner trace of genus 10**12 needs a 3-terabit mask, so under a
    1 GiB address-space limit (set in the child only) it runs out of memory
    at once; at genus 10**30 the mask's shift overflows Python's int.  Both
    are unusable input, not a crash."""
    with _cli_subprocess(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                         preexec_fn=partial(_limit_address_space, 1 << 30)) as proc:
        out, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert out == ""
    assert err.startswith("error:")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("genus", [10**12, 10**30], ids=["bounds", "bounds-1e30"])
def test_huge_genus_bounds_row_from_closed_form(genus):
    """`bounds` runs no trace, so a genus whose trace could not run gets
    its row from integer arithmetic alone, within the same 1 GiB address
    space (set in the child only).  The row is checked against the paper's
    formulas computed here: lower 1/(162 chi^2 + 6|chi|), upper
    4/(g^2 + g - 4), and penner_k = (g-1) + floor((g-1)/2)(g+1) + [g even]."""
    args = ["bounds", "--genus-min", str(genus), "--genus-max", str(genus), "--json"]
    with _cli_subprocess(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                         preexec_fn=partial(_limit_address_space, 1 << 30)) as proc:
        out, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, "")

    def frac(p: int, q: int) -> str:
        d = math.gcd(p, q)
        return f"{p // d}/{q // d}"

    g, chi = genus, 2 - 2 * genus
    k = (g - 1) + (g - 1) // 2 * (g + 1) + (g % 2 == 0)
    [row] = json.loads(out)["rows"]
    assert math.isclose(row.pop("flm_upper_float64"),
                        4 * math.log(2 + math.sqrt(3)) / (g * math.log(g - 0.5)))
    assert row == {
        "genus": g, "punctures": 0,
        "lower": frac(1, 162 * chi * chi + 6 * abs(chi)),
        "upper_closed": frac(4, g * g + g - 4),
        "penner_k": k,
        "penner_upper": frac(2, k),
    }


def test_bounds_past_float_range_unchanged(capsys):
    """Past the float range the closed form does not help: at genus
    10**1000 the comparison bound's float overflows, and at 10**2500 the
    lower bound's denominator has too many digits to print."""
    for genus, code in ((10**1000, 2), (10**2500, 1)):
        assert main(["bounds", "--genus-min", str(genus), "--genus-max", str(genus)]) == code
        out, err = capsys.readouterr()
        if code == 2:
            assert (out, err) == ("", "error: input too large to compute with\n")
        else:
            assert err == "" and out.count("\n") == 1 and "  error: " in out


def test_penner_json_streams_within_256_mib():
    """The genus-180 report is over 25 MB (28.5 MB); written support by
    support from the masks it fits in a 256 MiB address space (set in the
    child only)."""
    with _cli_subprocess(["penner", "--genus", "180", "--json"],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         preexec_fn=partial(_limit_address_space, 256 << 20)) as proc:
        out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert err == b""
    assert len(out) > 25_000_000
    assert out.startswith(b'{"best_k":') and out.endswith(b"}\n")


def test_penner_genus_1000_decoder_tables_within_38_mib():
    """The decoder holds one string of every curve name, each led by the
    separator, about 20 KB at genus 1000, and cuts a slice of it per run of
    set bits; it and the trace fit in a 38 MiB address space (set in the
    child only).  On CPython 3.11 on Linux the job peaks at about 15 MiB
    resident, and `python -c pass` at about 14 MiB."""
    with _cli_subprocess(["penner", "--genus", "1000", "--cap", "3", "--json"],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         preexec_fn=partial(_limit_address_space, 38 << 20)) as proc:
        out, err = proc.communicate(timeout=120)
    assert proc.returncode == 1  # 2/3 is above the closed-form bound
    assert err == b""
    payload = json.loads(out)
    assert payload["supports"][0] == ["a1000"] and len(payload["supports"]) == 4


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "args",
    [
        ["penner", "--genus", "60"],
        ["bounds", "--genus-min", "2", "--genus-max", "4000", "--punctures", "1", "--json"],
    ],
    ids=["penner", "bounds"],
)
def test_closed_stdout_exits_2_with_one_line(args, unbuffered):
    """A reader that leaves after 1,024 bytes (a compact JSON report is one
    line, which `readline` would drain).  Both reports (710 KB and 201 KB)
    are far larger than a pipe's buffer, so the writer is still writing
    when the pipe closes."""
    with _cli_subprocess(args, unbuffered, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.read(1024)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    _assert_one_error_line(proc, err)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "args",
    [["penner", "--genus", "3", "--json"], ["bounds", "--genus-min", "2", "--genus-max", "3"]],
    ids=["penner", "bounds"],
)
def test_stdout_without_reader_exits_2_with_one_line(args, unbuffered):
    """Small reports to a pipe whose reader closed before the run started:
    block-buffered, the broken pipe shows only at the last flush."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    with _cli_subprocess(args, unbuffered, stdout=write_end, stderr=subprocess.PIPE) as proc:
        os.close(write_end)
        _, err = proc.communicate(timeout=60)
    _assert_one_error_line(proc, err)


def _small_report_args(name: str, tmp_path: Path) -> list[str]:
    """A small report of each subcommand, which exits 0 or 1 when stdout
    can be written."""
    matrix = tmp_path / "chain.matrix"
    matrix.write_text(CHAIN_MATRIX)
    return {
        "bounds": ["bounds", "--genus-min", "2", "--genus-max", "4"],
        "penner": ["penner", "--genus", "5"],
        "penner-json": ["penner", "--genus", "5", "--json"],
        "pf": ["pf", "--input", str(matrix)],
        "track": ["track", "--input", str(data_path("genus2_maximal.track"))],
    }[name]


SMALL_REPORTS = ["bounds", "penner", "penner-json", "pf", "track"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("name", SMALL_REPORTS)
def test_full_disk_exits_2_with_one_line(tmp_path, name, unbuffered):
    """Every write to /dev/full fails with ENOSPC: at the last flush when
    block-buffered, at the first write when unbuffered."""
    args = _small_report_args(name, tmp_path)
    with open("/dev/full", "wb") as full, _cli_subprocess(
        args, unbuffered, stdout=full, stderr=subprocess.PIPE
    ) as proc:
        _, err = proc.communicate(timeout=60)
    _assert_one_error_line(proc, err)
    assert err == b"error: cannot write the report: No space left on device\n"


@pytest.mark.parametrize("name", SMALL_REPORTS)
def test_closed_stdout_fd_exits_2_with_one_line(tmp_path, name):
    """Started with fd 1 closed (`>&-` in a shell), so `sys.stdout` is None;
    the run is refused before its arguments are read."""
    args = _small_report_args(name, tmp_path)
    with _cli_subprocess(args, stderr=subprocess.PIPE, preexec_fn=partial(os.close, 1)) as proc:
        _, err = proc.communicate(timeout=60)
    _assert_one_error_line(proc, err)
    assert err == b"error: cannot write the report: stdout is closed\n"


HELP_ARGS = [["-h"], ["bounds", "-h"]]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("args", HELP_ARGS, ids=["top", "bounds"])
def test_help_to_full_disk_exits_2(args):
    """A help text that cannot be written is a report that cannot be
    written: status 2 with one `error:` line, not 0 with the help lost."""
    with open("/dev/full", "wb") as full, _cli_subprocess(
        args, stdout=full, stderr=subprocess.PIPE
    ) as proc:
        _, err = proc.communicate(timeout=60)
    _assert_one_error_line(proc, err)
    assert err == b"error: cannot write the report: No space left on device\n"


@pytest.mark.parametrize("args", HELP_ARGS, ids=["top", "bounds"])
def test_help_without_reader_exits_2(args):
    """The help to a pipe whose reader closed before the run started."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    with _cli_subprocess(args, stdout=write_end, stderr=subprocess.PIPE) as proc:
        os.close(write_end)
        _, err = proc.communicate(timeout=60)
    _assert_one_error_line(proc, err)
    assert err == b"error: cannot write the report: Broken pipe\n"


def test_stderr_closed_after_start_exits_2(tmp_path):
    """fd 2 closed once the run has started: the `error:` line cannot be
    written and is dropped, and the status is still 2 with stdout empty."""
    missing = str(tmp_path / "missing.matrix")
    code = (
        "import os, sys\n"
        "from curvebounds.cli import main\n"
        "os.close(2)\n"
        f"sys.exit(main(['pf', '--input', {missing!r}]))\n"
    )
    src = Path(curvebounds.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, timeout=60,
    )
    assert (result.returncode, result.stdout) == (2, b"")


def test_started_with_stderr_closed_exits_2(tmp_path):
    """Started with fd 2 closed (`2>&-`), so `sys.stderr` is None: the
    `error:` line never goes to stdout, where a --json reader is."""
    args = ["pf", "--input", str(tmp_path / "missing.matrix"), "--json"]
    with _cli_subprocess(args, stdout=subprocess.PIPE, preexec_fn=partial(os.close, 2)) as proc:
        out, _ = proc.communicate(timeout=60)
    assert (proc.returncode, out) == (2, b"")


def test_failed_write_to_redirected_stdout_returns_2(capsys):
    """A library caller's stdout with no file descriptor whose write fails:
    `main` returns 2 with one `error:` line and raises nothing."""

    class FullStream(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, "No space left on device")

    with contextlib.redirect_stdout(FullStream()):
        code = main(["bounds", "--genus-min", "2", "--genus-max", "3"])
    assert code == 2
    assert capsys.readouterr().err == "error: cannot write the report: No space left on device\n"
