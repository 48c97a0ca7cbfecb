from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings

from curvebounds.fileio import (
    MatrixFileError,
    TrackFileError,
    data_path,
    format_matrix,
    format_track,
    frac_str,
    load_matrix,
    load_track,
    parse_matrix_text,
    parse_track_text,
    track_to_json,
)
from curvebounds.pfmatrix import IntMatrix
from curvebounds.reference import reference_attachment, reference_track
from curvebounds.surfaces import SurfaceSig
from curvebounds.traintrack import TrackStructureError

from helpers import near_valid_texts, numeric_field, random_matrix, rng_for


def test_frac_strings():
    assert frac_str(Fraction(1, 660)) == "1/660"
    assert frac_str(Fraction(2)) == "2/1"
    assert Fraction(frac_str(Fraction(-7, 3))) == Fraction(-7, 3)


def test_matrix_round_trip_plain():
    rng = rng_for("fileio-matrix")
    for _ in range(20):
        m = random_matrix(rng, rng.randint(1, 6))
        doc = parse_matrix_text(format_matrix(m))
        assert doc.matrix == m and doc.real_set is None and doc.surface is None


def test_matrix_round_trip_full():
    m = IntMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 1]])
    text = format_matrix(m, real_set={2}, surface=SurfaceSig(2, 0))
    doc = parse_matrix_text(text)
    assert doc.matrix == m
    assert doc.real_set == frozenset({2})
    assert doc.surface == SurfaceSig(2, 0)


def test_matrix_comments_and_blanks_ignored():
    text = "# header comment\n\n2 2\n1 0\n\n# middle\n0 1\nreal: 0 1\n"
    doc = parse_matrix_text(text)
    assert doc.matrix == IntMatrix([[1, 0], [0, 1]])
    assert doc.real_set == frozenset({0, 1})


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty matrix file"),
        ("2\n1 2\n", "line 1"),
        ("a b\n", "line 1"),
        ("0 2\n", "line 1: dimensions must be positive"),
        ("2 2\n1 0\n", "expected 2 matrix rows"),
        ("2 2\n1 0\n0 x\n", "line 3: row entries must be nonnegative"),
        ("2 2\n1 0\n0 -1\n", "line 3: row entries must be nonnegative"),
        ("2 2\n1 0\n0 1 1\n", "line 3: expected 2 entries"),
        ("1 1\n1\nreal: 0\nreal: 0\n", 'line 4: duplicate "real:"'),
        ("1 1\n1\nreal: x\n", 'line 3: "real:" needs 0-based indices'),
        ("1 1\n1\nsurface: 2 0\nsurface: 2 0\n", "line 4: duplicate"),
        ("1 1\n1\nsurface: 2\n", 'line 3: "surface:" needs "g n"'),
        ("1 1\n1\njunk\n", "line 3: unexpected trailing line"),
    ],
)
def test_matrix_errors_name_the_line(text, fragment):
    with pytest.raises(MatrixFileError) as exc:
        parse_matrix_text(text)
    assert fragment in str(exc.value)


@pytest.mark.parametrize(
    "text",
    [
        "\u00b2 1\n1\n",
        "1 1\n\u00b2\n",
        "1 1\n1\nreal: \u00b2\n",
        "1 1\n1\nsurface: 2 \u00b2\n",
    ],
)
def test_matrix_rejects_non_ascii_digits(text):
    with pytest.raises(MatrixFileError):
        parse_matrix_text(text)


@pytest.mark.parametrize(
    "text",
    [
        "surface \u00b2 0\n",
        "surface 2 0\nswitches s\nbranches\nx s:\u00b2:0 s:1:0 plain\n",
        "surface 2 0\nswitches s\nbranches\nx s:0:0 s:1:0 plain\nattach\n0 1 \u00b2\n",
    ],
)
def test_track_rejects_non_ascii_digits(text):
    with pytest.raises(TrackFileError):
        parse_track_text(text)


# More digits than int() converts by default (4300): a valid-looking token
# that must still be rejected as unusable input, not crash the parser.
LONG = "9" * 4301


@pytest.mark.parametrize(
    "text,lineno",
    [
        (f"{LONG} 1\n1\n", 1),
        (f"1 {LONG}\n1\n", 1),
        (f"1 1\n{LONG}\n", 2),
        (f"1 1\n1\nreal: 0 {LONG}\n", 3),
        (f"1 1\n1\nsurface: {LONG} 0\n", 3),
        (f"1 1\n1\nsurface: 2 {LONG}\n", 3),
    ],
    ids=["rows", "cols", "entry", "real", "surface-genus", "surface-punctures"],
)
def test_matrix_rejects_overlong_integers(text, lineno):
    with pytest.raises(MatrixFileError, match=f"line {lineno}: integer of 4301 digits"):
        parse_matrix_text(text)


TRACK_HEAD = "surface 2 0\nswitches s\nbranches\n"


@pytest.mark.parametrize(
    "text,lineno",
    [
        (f"surface {LONG} 0\n", 1),
        (f"surface 2 {LONG}\n", 1),
        (TRACK_HEAD + f"x s:{LONG}:0 s:1:0 plain\n", 4),
        (TRACK_HEAD + f"x s:0:0 s:1:{LONG} plain\n", 4),
        (TRACK_HEAD + f"x s:0:0 s:1:0 plain\nattach\n{LONG} 0 0\n", 6),
        (TRACK_HEAD + f"x s:0:0 s:1:0 plain\nattach\n0 {LONG} 0\n", 6),
        (TRACK_HEAD + f"x s:0:0 s:1:0 plain\nattach\n0 0 {LONG}\n", 6),
    ],
    ids=["surface-genus", "surface-punctures", "side", "slot",
         "attach-cycle", "attach-genus", "attach-punctures"],
)
def test_track_rejects_overlong_integers(text, lineno):
    with pytest.raises(TrackFileError, match=f"line {lineno}: integer of 4301 digits"):
        parse_track_text(text)


# Near-valid files: every numeric field of both formats drawn from short
# digit runs, runs past the int() limit and arbitrary text; plus arbitrary
# text on its own.
@settings(max_examples=300, derandomize=True, deadline=None)
@given(near_valid_texts(numeric_field(4290, 4400)))
def test_any_text_parses_or_raises_a_file_error(text):
    for parse, error in ((parse_matrix_text, MatrixFileError),
                         (parse_track_text, TrackFileError)):
        try:
            parse(text)
        except error:
            pass


# A genus or puncture count of more than 2000 digits is refused: 162 chi^2
# would no longer convert to text.  Region data in "attach" counts too.
OVER = "9" * 2001


@pytest.mark.parametrize(
    "text,lineno",
    [
        (f"1 1\n1\nreal: 0\nsurface: {OVER} 0\n", 4),
        (f"1 1\n1\nreal: 0\nsurface: 2 {OVER}\n", 4),
    ],
    ids=["genus", "punctures"],
)
def test_matrix_rejects_huge_surface(text, lineno):
    with pytest.raises(MatrixFileError, match=f"line {lineno}: integer of 2001 digits .* surface"):
        parse_matrix_text(text)


@pytest.mark.parametrize(
    "text,lineno",
    [
        (f"surface {OVER} 0\n", 1),
        (f"surface 2 {OVER}\n", 1),
        (TRACK_HEAD + f"x s:0:0 s:1:0 plain\nattach\n0 {OVER} 0\n", 6),
        (TRACK_HEAD + f"x s:0:0 s:1:0 plain\nattach\n0 0 {OVER}\n", 6),
    ],
    ids=["genus", "punctures", "attach-genus", "attach-punctures"],
)
def test_track_rejects_huge_surface(text, lineno):
    with pytest.raises(TrackFileError, match=f"line {lineno}: integer of 2001 digits .* surface"):
        parse_track_text(text)


def test_surface_of_2000_digits_parses():
    big = "9" * 2000
    doc = parse_matrix_text(f"1 1\n1\nreal: 0\nsurface: {big} {big}\n")
    assert doc.surface == SurfaceSig(int(big), int(big))
    text = TRACK_HEAD.replace("2 0", f"{big} {big}") + f"x s:0:0 s:1:0 plain\nattach\n0 {big} {big}\n"
    doc = parse_track_text(text)
    assert doc.surface == SurfaceSig(int(big), int(big))
    assert doc.attach == ((int(big), int(big)),)


def test_non_utf8_files_are_format_errors(tmp_path):
    p = tmp_path / "bad"
    p.write_bytes(b"1 1\n1\n# caf\xe9\n")
    with pytest.raises(MatrixFileError, match="byte 11: file is not UTF-8 text"):
        load_matrix(p)
    with pytest.raises(TrackFileError, match="byte 11: file is not UTF-8 text"):
        load_track(p)


def test_track_round_trip_reference():
    for genus in (2, 3):
        track = reference_track(genus)
        att = reference_attachment(genus)
        doc = parse_track_text(format_track(track, att))
        built, built_att = doc.build()
        assert built == track
        assert built_att == att


def test_shipped_data_files_match_reference_builds():
    for genus in (2, 3):
        path = data_path(f"genus{genus}_maximal.track")
        assert path.is_file()
        built, att = load_track(path).build()
        assert built == reference_track(genus)
        assert att == reference_attachment(genus)


def test_track_switches_on_following_lines():
    text = (
        "surface 2 0\n"
        "switches\nL\nR\n"
        "branches\n"
        "loopL L:0:0 L:0:1 plain\n"
        "bar L:1:0 R:0:0 plain\n"
        "loopR R:1:0 R:1:1 plain\n"
        "attach\n"
    )
    doc = parse_track_text(text)
    assert doc.switches == ("L", "R")
    track, att = doc.build()
    assert track.num_branches == 3
    assert att.regions == ()


def test_track_comments_ignored():
    text = (
        "# a track\nsurface 2 0\n\nswitches L R\n"
        "branches\n# the loop\n"
        "loopL L:0:0 L:0:1 plain\n"
        "bar L:1:0 R:0:0 plain\n"
        "loopR R:1:0 R:1:1 plain\n"
        "attach\n0 1 0\n1 1 0\n2 0 0\n"
    )
    doc = parse_track_text(text)
    assert doc.attach == ((1, 0), (1, 0), (0, 0))


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("noise one two\n", "line 1: unexpected line"),
        ("surface 2 0\nsurface 2 0\n", "line 2: duplicate surface"),
        ("surface x 0\n", 'expected "surface g n"'),
        ("branches\nx L:0:0 L:0:1\n", "line 2: branch needs name"),
        ("branches\nx L:0 L:0:1 plain\n", "line 2: endpoint must be"),
        ("branches\nx L:0:z L:0:1 plain\n", "line 2: endpoint must be"),
        ("attach\n0 0\n", 'line 2: expected "cycle genus punctures"'),
        ("attach\n0 0 0\n0 1 0\n", "line 3: duplicate attach for cycle 0"),
        ("surface 2 0\nswitches L\nbranches\nx L:0:0 L:0:1 plain\nattach\n1 0 0\n",
         "attach cycle indices must cover 0..0"),
    ],
)
def test_track_errors_name_the_line(text, fragment):
    with pytest.raises(TrackFileError) as exc:
        parse_track_text(text)
    assert fragment in str(exc.value)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("switches L\nbranches\nx L:0:0 L:0:1 plain\n", "missing surface"),
        ("surface 2 0\nbranches\nx L:0:0 L:0:1 plain\n", "missing switches"),
        ("surface 2 0\nswitches L\n", "missing branches"),
    ],
)
def test_track_missing_sections(text, fragment):
    with pytest.raises(TrackFileError) as exc:
        parse_track_text(text)
    assert fragment in str(exc.value)


def test_track_document_build_validates():
    text = (
        "surface 2 0\nswitches L\nbranches\n"
        "x L:0:0 L:0:1 plain\ny L:0:2 L:1:0 oops\nattach\n"
    )
    doc = parse_track_text(text)  # parsing alone accepts the unknown tag
    with pytest.raises(TrackStructureError):
        doc.build()


def test_track_to_json_serializable():
    track = reference_track(2)
    att = reference_attachment(2)
    payload = track_to_json(track, att)
    text = json.dumps(payload)
    back = json.loads(text)
    assert back["surface"] == {"genus": 2, "punctures": 0}
    assert len(back["branches"]) == track.num_branches
    assert back["branches"][0]["ends"][0][0] in track.switches
    assert all(r == [0, 0] for r in back["attach"])
