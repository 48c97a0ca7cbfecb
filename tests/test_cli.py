from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import curvebounds
from curvebounds.cli import main, run_bounds, run_penner
from curvebounds.fileio import data_path, format_track
from curvebounds.penner import TraceResult, trace
from curvebounds.reference import build_spine, spine_attachment

from helpers import near_valid_texts, numeric_field, reference_penner_report

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


def test_bounds_parser_rejections():
    for argv in (
        ["bounds", "--genus-min", "3", "--genus-max", "2"],
        ["bounds", "--genus-min", "1", "--genus-max", "3"],
        ["bounds", "--genus-min", "2", "--genus-max", "3", "--punctures", "-1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


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


def test_penner_parser_rejections():
    for argv in (
        ["penner", "--genus", "1"],
        ["penner", "--genus", "2", "--cap", "0"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize("genus", range(2, 31))
def test_penner_report_bytes_match_reference(capsys, genus):
    for cap in (None, 1, 2, genus, 3 * genus * genus):
        result = trace(genus, cap)
        for as_json in (False, True):
            code = run_penner(genus, cap, as_json)
            assert (capsys.readouterr().out, code) == reference_penner_report(result, as_json)


def test_bounds_reads_best_k_only(capsys, monkeypatch):
    """`bounds` needs only best_k and bound, so it never replays a trace."""
    def refuse(self):
        raise AssertionError("bounds must not rebuild per-step trace data")

    monkeypatch.setattr(TraceResult, "masks", property(refuse))
    monkeypatch.setattr(TraceResult, "certificates", property(refuse))
    assert main(["bounds", "--genus-min", "2", "--genus-max", "40"]) == 0
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


@pytest.mark.parametrize(
    "content",
    [
        "2 3\n1 1 1\n1 1 1\n",  # not square
        "1 1\n1\nreal: 0\n",  # real without surface
        "1 1\n1\nsurface: 2 0\n",  # surface without real
        "not a matrix\n",
        "2 2\n0 1\n1 0\nreal: 0 1\nsurface: 2 0\n",  # imprimitive restriction
        "2 2\n1 0\n0 1\nreal: 0 1\nsurface: 2 0\n",  # reducible restriction
        "1 1\n1\nreal: 0\nsurface: 1 0\n",  # chi = 0 surface
    ],
)
def test_pf_unusable_inputs(tmp_path, capsys, content):
    p = tmp_path / "m.matrix"
    p.write_text(content)
    assert main(["pf", "--input", str(p)]) == 2
    assert capsys.readouterr().err.startswith("error:")


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


def test_track_echo_round_trip(capsys):
    path = data_path("genus2_maximal.track")
    code, payload = run_json(capsys, ["track", "--input", str(path)])
    assert code == 0
    echo = payload["echo"]
    assert echo["surface"] == {"genus": 2, "punctures": 0}
    assert len(echo["branches"]) == 12
    names = {b["name"] for b in echo["branches"]}
    assert {"d0", "d1", "d2"} <= names


def test_cli_import_does_not_load_numpy():
    src = Path(curvebounds.__file__).resolve().parents[1]
    code = "import curvebounds.cli, sys; assert 'numpy' not in sys.modules"
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True)
    assert result.returncode == 0, result.stderr.decode()


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
        ["bounds", "--genus-min", "1000000000000", "--genus-max", "1000000000000"],
        ["penner", "--genus", str(10**30)],
        ["bounds", "--genus-min", str(10**30), "--genus-max", str(10**30)],
    ],
    ids=["penner", "bounds", "penner-1e30", "bounds-1e30"],
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


def test_penner_json_streams_within_256_mib():
    """The genus-150 report is over 25 MB; written support by support from
    the masks it fits in a 256 MiB address space (set in the child only)."""
    with _cli_subprocess(["penner", "--genus", "150", "--json"],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         preexec_fn=partial(_limit_address_space, 256 << 20)) as proc:
        out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert err == b""
    assert len(out) > 25_000_000
    assert out.startswith(b'{\n  "best_k": ') and out.endswith(b"}\n")


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
    """A reader that leaves after one line.  Both reports (710 KB and
    337 KB) are far larger than a pipe's buffer, so the writer is still
    writing when the pipe closes."""
    with _cli_subprocess(args, unbuffered, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.readline()
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
