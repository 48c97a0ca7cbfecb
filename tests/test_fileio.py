from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings

from curvebounds.fileio import (
    MatrixFileError,
    TrackFileError,
    load_matrix,
    load_track,
    parse_matrix_text,
    parse_track_text,
    track_to_json,
)
from curvebounds.pfmatrix import IntMatrix
from curvebounds.reference import reference_attachment, reference_track
from curvebounds.surfaces import SurfaceSig, frac_str
from curvebounds.traintrack import TrackStructureError

from helpers import (
    data_path,
    format_matrix,
    format_track,
    near_valid_texts,
    numeric_field,
    random_matrix,
    rng_for,
)


def test_frac_strings():
    assert frac_str(Fraction(1, 660)) == "1/660"
    assert frac_str(Fraction(2)) == "2/1"
    assert Fraction(frac_str(Fraction(-7, 3))) == Fraction(-7, 3)
    assert frac_str(7) == "7/1"


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


@pytest.mark.parametrize("load, error", [(load_matrix, MatrixFileError), (load_track, TrackFileError)])
def test_unreadable_files_are_format_errors(tmp_path, load, error):
    """A file that cannot be opened is the format's error, with the
    operating system's message, and so a ValueError like any other."""
    absent = tmp_path / "absent"
    with pytest.raises(error) as info:
        load(absent)
    assert str(info.value) == f"[Errno 2] No such file or directory: {str(absent)!r}"
    assert info.value.__cause__ is None and info.value.__suppress_context__
    with pytest.raises(error, match=r"^\[Errno 21\] Is a directory: "):
        load(tmp_path)


# Characters str.splitlines treats as line ends that a file format must not:
# \v, \f, \x1c-\x1e, \x85, U+2028 and U+2029.
LINE_LIKE = ("\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


@pytest.mark.parametrize("sep", LINE_LIKE)
def test_matrix_comment_keeps_line_like_characters(sep, tmp_path):
    text = f"# note{sep} was here\n2 2\n1 1\n# c{sep}1 0\n0 1\n"
    p = tmp_path / "m.matrix"
    p.write_text(text, encoding="utf-8", newline="")
    for doc in (parse_matrix_text(text), load_matrix(p)):
        assert doc.matrix == IntMatrix([[1, 1], [0, 1]])
    # line numbers count only \n, \r\n and \r
    with pytest.raises(MatrixFileError, match=r"^line 5: expected 2 entries, got 3$"):
        parse_matrix_text(f"2 2\n1 1\n# c{sep}1 0\n\n0 1 5\n")


@pytest.mark.parametrize("sep", LINE_LIKE)
def test_track_comment_keeps_line_like_characters(sep, tmp_path):
    body = (
        "surface 2 0\nswitches L R\nbranches\n"
        "loopL L:0:0 L:0:1 plain\n"
        "bar L:1:0 R:0:0 plain\n"
        "loopR R:1:0 R:1:1 plain\n"
        "attach\n0 1 0\n1 1 0\n2 0 0\n"
    )
    text = f"# a{sep}track\n" + body.replace("bar", f"# the{sep}x L:0:0\nbar")
    p = tmp_path / "t.track"
    p.write_text(text, encoding="utf-8", newline="")
    for doc in (parse_track_text(text), load_track(p)):
        assert doc == parse_track_text(body)
    with pytest.raises(TrackFileError, match="^line 5: branch needs name"):
        parse_track_text(f"surface 2 0\n# c{sep}x\nswitches L\nbranches\nbad\n")


# Characters str.split() and str.strip() take for whitespace that the file
# formats do not: fields are separated, and lines trimmed, only at ASCII
# spaces and tabs.
UNICODE_SPACES = ("\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028")


@pytest.mark.parametrize("ws", UNICODE_SPACES)
def test_matrix_fields_split_only_at_ascii_space_and_tab(ws):
    assert parse_matrix_text("2 2\n1\t 1\n \t1  1\t\n").matrix == IntMatrix([[1, 1], [1, 1]])
    for text, lineno in [
        (f"2{ws}2\n1 1\n1 1\n", 1),
        (f"2 2\n1{ws}1\n1 1\n", 2),
        (f"1 2\n1{ws}0\n", 2),
        (f"1 1\n1{ws}\n", 2),
        (f"1 1\n{ws}1\n", 2),
        (f"2 2\n1 1\n1 1\nreal: 0{ws}1\nsurface: 2 0\n", 4),
        (f"2 2\n1 1\n1 1\nreal: 0\nsurface: 2{ws}0\n", 5),
        (f"2 2\n1 1\n1 1\nreal:{ws}0\nsurface: 2 0\n", 4),
        (f"1 1\n1\n{ws}\n", 3),
    ]:
        with pytest.raises(MatrixFileError, match=f"^line {lineno}: "):
            parse_matrix_text(text)


@pytest.mark.parametrize("ws", UNICODE_SPACES)
def test_track_fields_split_only_at_ascii_space_and_tab(ws):
    branch = "x s:0:0 s:1:0 plain\n"
    tabbed = TRACK_HEAD + "x\ts:0:0 \t s:1:0\tplain\t\n"
    assert parse_track_text(tabbed) == parse_track_text(TRACK_HEAD + branch)
    for text, lineno in [
        (f"surface 2{ws}0\nswitches s\nbranches\n" + branch, 1),
        (TRACK_HEAD + f"x s:0:0{ws}s:1:0 plain\n", 4),
        (TRACK_HEAD + f"x s:0:0 s:1:0{ws}plain\n", 4),
        (TRACK_HEAD + f"x s:0:0 s:1:{ws}0 plain\n", 4),
        (TRACK_HEAD + branch + f"attach\n0{ws}2 0\n", 6),
        (TRACK_HEAD + branch + f"attach\n0 2 0{ws}\n", 6),
    ]:
        with pytest.raises(TrackFileError, match=f"^line {lineno}: "):
            parse_track_text(text)


# Characters that are no field separator but not printable either: line and
# paragraph separators, C0 and C1 controls, the no-break space and the
# byte-order mark.  A switch or branch name may not hold one.
UNPRINTABLE = (
    "\u2028", "\u2029", "\x85", "\x1c", "\x1d", "\x1e", "\x1f", "\x7f", "\xa0", "\ufeff",
)


@pytest.mark.parametrize("ch", UNPRINTABLE, ids=lambda ch: f"U+{ord(ch):04X}")
def test_track_names_must_be_printable(ch):
    branch = "x s:0:0 s:1:0 plain\n"
    for bad in (ch, f"lo{ch}op", f"s{ch}"):
        for text, lineno in [
            (f"surface 2 0\nswitches s {bad}\nbranches\n" + branch, 2),
            (f"surface 2 0\nswitches s\nt {bad}\nbranches\n" + branch, 3),
            (TRACK_HEAD + f"{bad} s:0:0 s:1:0 plain\n", 4),
            (TRACK_HEAD + f"x {bad}:0:0 s:1:0 plain\n", 4),
            (TRACK_HEAD + branch + f"x s:0:1 {bad}:1:1 plain\n", 5),
        ]:
            with pytest.raises(TrackFileError) as exc:
                parse_track_text(text)
            assert str(exc.value) == f"line {lineno}: name {bad!r} is not printable"
            # a printable name outside ASCII in the same place loads
            parse_track_text(text.replace(bad, "\u03c0"))


def test_line_ends_are_newline_return_and_both():
    for nl in ("\n", "\r\n", "\r"):
        with pytest.raises(MatrixFileError, match="^line 4: expected 2 entries"):
            parse_matrix_text(nl.join(["2 2", "# c", "1 1", "0"]))


def test_byte_order_mark_is_dropped(tmp_path):
    bom = b"\xef\xbb\xbf"
    m, t = tmp_path / "m.matrix", tmp_path / "t.track"
    m.write_bytes(bom + b"2 2\n1 1\n0 1\nreal: 1\n")
    assert load_matrix(m) == parse_matrix_text("2 2\n1 1\n0 1\nreal: 1\n")
    shipped = data_path("genus2_maximal.track").read_bytes()
    t.write_bytes(bom + shipped)
    assert load_track(t) == parse_track_text(shipped.decode())
    # only one mark goes, and byte offsets still count it
    m.write_bytes(bom + bom + b"1 1\n1\n")
    with pytest.raises(MatrixFileError, match="^line 1: expected"):
        load_matrix(m)
    m.write_bytes(bom + b"1 1\n1\n# caf\xe9\n")
    with pytest.raises(MatrixFileError, match="^byte 14: file is not UTF-8 text"):
        load_matrix(m)


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
    shipped = json.loads(json.dumps(track_to_json(
        *load_track(data_path("genus2_maximal.track")).build())))
    assert shipped["surface"] == {"genus": 2, "punctures": 0}
    assert len(shipped["branches"]) == 12
    assert {"d0", "d1", "d2"} <= {b["name"] for b in shipped["branches"]}
