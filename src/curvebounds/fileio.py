"""Text file formats for matrices and tracks.

Matrix files: first data line "rows cols", then one line per row of
nonnegative integers, then optionally "real: i1 i2 ..." (0-based column
indices) and "surface: g n".  Track files: a "surface g n" line, a
"switches" section, a "branches" section (one branch per line: name, two
switch:side:slot endpoints, tag) and an "attach" section giving (genus,
punctures) per boundary cycle.  Blank lines and lines starting with "#"
are ignored everywhere, and lines end only at \\n, \\r\\n and \\r, not at
the form feeds, U+2028 and the like that str.splitlines also breaks at.
Fields are separated, and lines trimmed, only at ASCII spaces and tabs, not
at the \\x1c-\\x1f, \\x85, \\xa0, U+2028 and other characters that
str.split() also takes for whitespace.  Switch and branch names, and the
switch part of an endpoint, must be printable (str.isprintable), so no
\\x1c-\\x1f, \\x7f, \\x85, \\xa0, U+2028, U+2029, U+FEFF or other control,
separator or format character: a text report prints each name on its own
line.  Files are UTF-8; one leading byte-order mark is dropped.  Numbers
are ASCII digits; a genus or puncture count has at most SURFACE_DIGITS of
them.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

# Modules, not names: a matrix file never loads `traintrack`, nor a track
# file `pfmatrix`.
from . import pfmatrix, surfaces, traintrack

__all__ = [
    "MatrixFileError",
    "TrackFileError",
    "MatrixDocument",
    "parse_matrix_text",
    "load_matrix",
    "TrackDocument",
    "parse_track_text",
    "load_track",
    "track_to_json",
]


class MatrixFileError(ValueError):
    """Malformed matrix file; message names the offending line."""


class TrackFileError(ValueError):
    """Malformed track file; message names the offending line."""


def _is_uint(token: str) -> bool:
    """ASCII digits only: str.isdigit also accepts characters such as "²"
    that int() rejects."""
    return token.isascii() and token.isdigit()


def _ints(tokens: list[str], lineno: int, error: type[ValueError]) -> list[int]:
    """Convert ASCII digit tokens; int() refuses more digits than the
    interpreter's conversion limit (4300 by default)."""
    try:
        return [int(t) for t in tokens]
    except ValueError:
        longest = max(len(t) for t in tokens)
        raise error(f"line {lineno}: integer of {longest} digits is too long") from None


# Genus and punctures of a surface or region have at most this many digits,
# so every bound derived from them (162 chi^2 has about twice as many) still
# converts to text under the interpreter's 4300-digit limit.
SURFACE_DIGITS = 2000


def _surface_ints(tokens: list[str], lineno: int, error: type[ValueError]) -> list[int]:
    longest = max(len(t) for t in tokens)
    if longest > SURFACE_DIGITS:
        raise error(
            f"line {lineno}: integer of {longest} digits is too long "
            f"for a surface (at most {SURFACE_DIGITS})"
        )
    return _ints(tokens, lineno, error)


def _read_utf8(path, error: type[ValueError]) -> str:
    # Plain UTF-8, then one byte-order mark dropped: "byte N" stays a file
    # offset, where 'utf-8-sig' would count it from after the mark.
    try:
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise error(f"byte {exc.start}: file is not UTF-8 text") from None
    except OSError as exc:  # missing, a directory, not readable
        raise error(str(exc)) from None


def _data_lines(text: str):
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip(" \t")
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _fields(line: str) -> list[str]:
    """The fields of `line` between runs of ASCII spaces and tabs."""
    return list(filter(None, line.replace("\t", " ").split(" ")))


# --- matrices ---------------------------------------------------------------


class MatrixDocument(NamedTuple):
    matrix: pfmatrix.IntMatrix
    real_set: frozenset | None
    surface: surfaces.SurfaceSig | None


def parse_matrix_text(text: str) -> MatrixDocument:
    lines = list(_data_lines(text))
    if not lines:
        raise MatrixFileError("empty matrix file")
    lineno, header = lines[0]
    parts = _fields(header)
    if len(parts) != 2 or not all(_is_uint(p) for p in parts):
        raise MatrixFileError(f'line {lineno}: expected "rows cols", got {header!r}')
    rows, cols = _ints(parts, lineno, MatrixFileError)
    if rows < 1 or cols < 1:
        raise MatrixFileError(f"line {lineno}: dimensions must be positive")
    entries = []
    pos = 1
    for _ in range(rows):
        if pos >= len(lines):
            raise MatrixFileError(
                f"line {lines[-1][0]}: expected {rows} matrix rows, found {len(entries)}"
            )
        lineno, line = lines[pos]
        pos += 1
        cells = _fields(line)
        if not all(_is_uint(c) for c in cells):
            raise MatrixFileError(f"line {lineno}: row entries must be nonnegative integers")
        if len(cells) != cols:
            raise MatrixFileError(
                f"line {lineno}: expected {cols} entries, got {len(cells)}"
            )
        entries.append(_ints(cells, lineno, MatrixFileError))
    real_set = None
    surface = None
    for lineno, line in lines[pos:]:
        if line.startswith("real:"):
            if real_set is not None:
                raise MatrixFileError(f'line {lineno}: duplicate "real:" line')
            items = _fields(line[len("real:"):])
            if not items or not all(_is_uint(i) for i in items):
                raise MatrixFileError(
                    f'line {lineno}: "real:" needs 0-based indices'
                )
            real_set = frozenset(_ints(items, lineno, MatrixFileError))
        elif line.startswith("surface:"):
            if surface is not None:
                raise MatrixFileError(f'line {lineno}: duplicate "surface:" line')
            items = _fields(line[len("surface:"):])
            if len(items) != 2 or not all(_is_uint(i) for i in items):
                raise MatrixFileError(f'line {lineno}: "surface:" needs "g n"')
            sig = _surface_ints(items, lineno, MatrixFileError)
            surface = surfaces.SurfaceSig(*sig)
        else:
            raise MatrixFileError(f"line {lineno}: unexpected trailing line {line!r}")
    return MatrixDocument(pfmatrix.IntMatrix(entries), real_set, surface)


def load_matrix(path) -> MatrixDocument:
    """Parse the matrix file at `path`; an unreadable one raises MatrixFileError."""
    return parse_matrix_text(_read_utf8(path, MatrixFileError))


# --- tracks -----------------------------------------------------------------


class TrackDocument(NamedTuple):
    surface: surfaces.SurfaceSig
    switches: tuple[str, ...]
    branches: tuple[traintrack.Branch, ...]
    attach: tuple[tuple[int, int], ...]

    def build(self) -> tuple[traintrack.TrainTrack, traintrack.RegionAttachment]:
        """Construct the validated track and its region attachment.

        Raises TrackStructureError when the slot data is inconsistent.
        """
        track = traintrack.TrainTrack(self.switches, self.branches)
        attachment = traintrack.RegionAttachment(surface=self.surface, regions=self.attach)
        return track, attachment


def _name(token: str, lineno: int) -> str:
    """A switch or branch name: printable characters only, so that a text
    report prints it on one line."""
    if not token.isprintable():
        raise TrackFileError(f"line {lineno}: name {token!r} is not printable")
    return token


def _parse_end(token: str, lineno: int) -> traintrack.BranchEnd:
    bits = token.split(":")
    if len(bits) != 3 or not _is_uint(bits[1]) or not _is_uint(bits[2]):
        raise TrackFileError(
            f"line {lineno}: endpoint must be switch:side:slot, got {token!r}"
        )
    switch = _name(bits[0], lineno)
    return traintrack.BranchEnd(switch, *_ints(bits[1:], lineno, TrackFileError))


def parse_track_text(text: str) -> TrackDocument:
    surface = None
    switches: list[str] = []
    branches: list[traintrack.Branch] = []
    attach: dict[int, tuple[int, int]] = {}
    attach_max_line = 0
    section = None
    for lineno, line in _data_lines(text):
        parts = _fields(line)
        head = parts[0]
        if head == "surface":
            if surface is not None:
                raise TrackFileError(f"line {lineno}: duplicate surface line")
            if len(parts) != 3 or not _is_uint(parts[1]) or not _is_uint(parts[2]):
                raise TrackFileError(f'line {lineno}: expected "surface g n"')
            sig = _surface_ints(parts[1:], lineno, TrackFileError)
            surface = surfaces.SurfaceSig(*sig)
        elif head == "switches":
            section = "switches"
            switches.extend(_name(p, lineno) for p in parts[1:])
        elif head == "branches":
            section = "branches"
        elif head == "attach":
            section = "attach"
        elif section == "switches":
            switches.extend(_name(p, lineno) for p in parts)
        elif section == "branches":
            if len(parts) != 4:
                raise TrackFileError(
                    f"line {lineno}: branch needs name, two endpoints and a tag"
                )
            name, e0, e1, tag = parts
            name = _name(name, lineno)
            ends = (_parse_end(e0, lineno), _parse_end(e1, lineno))
            branches.append(traintrack.Branch(name, ends, tag))
        elif section == "attach":
            if len(parts) != 3 or not all(_is_uint(p) for p in parts):
                raise TrackFileError(
                    f'line {lineno}: expected "cycle genus punctures"'
                )
            (idx,) = _ints(parts[:1], lineno, TrackFileError)
            genus, punctures = _surface_ints(parts[1:], lineno, TrackFileError)
            if idx in attach:
                raise TrackFileError(f"line {lineno}: duplicate attach for cycle {idx}")
            attach[idx] = (genus, punctures)
            attach_max_line = lineno
        else:
            raise TrackFileError(f"line {lineno}: unexpected line {line!r}")
    if surface is None:
        raise TrackFileError("missing surface line")
    if not switches:
        raise TrackFileError("missing switches section")
    if not branches:
        raise TrackFileError("missing branches section")
    if sorted(attach) != list(range(len(attach))):
        raise TrackFileError(
            f"line {attach_max_line}: attach cycle indices must cover 0..{len(attach) - 1}"
        )
    regions = tuple(attach[i] for i in range(len(attach)))
    return TrackDocument(surface, tuple(switches), tuple(branches), regions)


def load_track(path) -> TrackDocument:
    """Parse the track file at `path`; an unreadable one raises TrackFileError."""
    return parse_track_text(_read_utf8(path, TrackFileError))


def track_to_json(
    track: traintrack.TrainTrack, attachment: traintrack.RegionAttachment
) -> dict:
    """Canonical JSON form of a parsed track: its surface, switches,
    branches and attach data.  The `track` report does not carry it."""
    return {
        "surface": {
            "genus": attachment.surface.genus,
            "punctures": attachment.surface.punctures,
        },
        "switches": list(track.switches),
        "branches": [
            {
                "name": b.name,
                "ends": [[e.switch, e.side, e.slot] for e in b.ends],
                "tag": b.tag,
            }
            for b in track.branches
        ],
        "attach": [list(r) for r in attachment.regions],
    }

