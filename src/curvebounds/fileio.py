"""Text file formats for matrices and tracks, plus "p/q" rational strings.

Matrix files: first data line "rows cols", then one line per row of
nonnegative integers, then optionally "real: i1 i2 ..." (0-based column
indices) and "surface: g n".  Track files: a "surface g n" line, a
"switches" section, a "branches" section (one branch per line: name, two
switch:side:slot endpoints, tag) and an "attach" section giving (genus,
punctures) per boundary cycle.  Blank lines and lines starting with "#"
are ignored everywhere.  Numbers are ASCII digits; a genus or puncture
count has at most SURFACE_DIGITS of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .pfmatrix import IntMatrix
from .surfaces import SurfaceSig
from .traintrack import Branch, BranchEnd, RegionAttachment, TrainTrack

__all__ = [
    "MatrixFileError",
    "TrackFileError",
    "frac_str",
    "MatrixDocument",
    "parse_matrix_text",
    "load_matrix",
    "format_matrix",
    "TrackDocument",
    "parse_track_text",
    "load_track",
    "format_track",
    "track_to_json",
    "data_path",
]


class MatrixFileError(ValueError):
    """Malformed matrix file; message names the offending line."""


class TrackFileError(ValueError):
    """Malformed track file; message names the offending line."""


def frac_str(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


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
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"byte {exc.start}: file is not UTF-8 text") from None


def _data_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


# --- matrices ---------------------------------------------------------------


@dataclass(frozen=True)
class MatrixDocument:
    matrix: IntMatrix
    real_set: frozenset | None
    surface: SurfaceSig | None


def parse_matrix_text(text: str) -> MatrixDocument:
    lines = list(_data_lines(text))
    if not lines:
        raise MatrixFileError("empty matrix file")
    lineno, header = lines[0]
    parts = header.split()
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
        cells = line.split()
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
            items = line[len("real:"):].split()
            if not items or not all(_is_uint(i) for i in items):
                raise MatrixFileError(
                    f'line {lineno}: "real:" needs 0-based indices'
                )
            real_set = frozenset(_ints(items, lineno, MatrixFileError))
        elif line.startswith("surface:"):
            if surface is not None:
                raise MatrixFileError(f'line {lineno}: duplicate "surface:" line')
            items = line[len("surface:"):].split()
            if len(items) != 2 or not all(_is_uint(i) for i in items):
                raise MatrixFileError(f'line {lineno}: "surface:" needs "g n"')
            surface = SurfaceSig(*_surface_ints(items, lineno, MatrixFileError))
        else:
            raise MatrixFileError(f"line {lineno}: unexpected trailing line {line!r}")
    return MatrixDocument(IntMatrix(entries), real_set, surface)


def load_matrix(path) -> MatrixDocument:
    return parse_matrix_text(_read_utf8(path, MatrixFileError))


def format_matrix(
    matrix: IntMatrix, real_set=None, surface: SurfaceSig | None = None
) -> str:
    out = [f"{matrix.rows} {matrix.cols}"]
    for row in matrix.entries:
        out.append(" ".join(str(e) for e in row))
    if real_set is not None:
        out.append("real: " + " ".join(str(i) for i in sorted(real_set)))
    if surface is not None:
        out.append(f"surface: {surface.genus} {surface.punctures}")
    return "\n".join(out) + "\n"


# --- tracks -----------------------------------------------------------------


@dataclass(frozen=True)
class TrackDocument:
    surface: SurfaceSig
    switches: tuple[str, ...]
    branches: tuple[Branch, ...]
    attach: tuple[tuple[int, int], ...]

    def build(self) -> tuple[TrainTrack, RegionAttachment]:
        """Construct the validated track and its region attachment.

        Raises TrackStructureError when the slot data is inconsistent.
        """
        track = TrainTrack(self.switches, self.branches)
        return track, RegionAttachment(surface=self.surface, regions=self.attach)


def _parse_end(token: str, lineno: int) -> BranchEnd:
    bits = token.split(":")
    if len(bits) != 3 or not _is_uint(bits[1]) or not _is_uint(bits[2]):
        raise TrackFileError(
            f"line {lineno}: endpoint must be switch:side:slot, got {token!r}"
        )
    return BranchEnd(bits[0], *_ints(bits[1:], lineno, TrackFileError))


def parse_track_text(text: str) -> TrackDocument:
    surface = None
    switches: list[str] = []
    branches: list[Branch] = []
    attach: dict[int, tuple[int, int]] = {}
    attach_max_line = 0
    section = None
    for lineno, line in _data_lines(text):
        parts = line.split()
        head = parts[0]
        if head == "surface":
            if surface is not None:
                raise TrackFileError(f"line {lineno}: duplicate surface line")
            if len(parts) != 3 or not _is_uint(parts[1]) or not _is_uint(parts[2]):
                raise TrackFileError(f'line {lineno}: expected "surface g n"')
            surface = SurfaceSig(*_surface_ints(parts[1:], lineno, TrackFileError))
        elif head == "switches":
            section = "switches"
            switches.extend(parts[1:])
        elif head == "branches":
            section = "branches"
        elif head == "attach":
            section = "attach"
        elif section == "switches":
            switches.extend(parts)
        elif section == "branches":
            if len(parts) != 4:
                raise TrackFileError(
                    f"line {lineno}: branch needs name, two endpoints and a tag"
                )
            name, e0, e1, tag = parts
            branches.append(
                Branch(name, (_parse_end(e0, lineno), _parse_end(e1, lineno)), tag)
            )
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
    return parse_track_text(_read_utf8(path, TrackFileError))


def format_track(
    track: TrainTrack, attachment: RegionAttachment
) -> str:
    out = [f"surface {attachment.surface.genus} {attachment.surface.punctures}"]
    out.append("switches " + " ".join(track.switches))
    out.append("branches")
    for b in track.branches:
        e0, e1 = b.ends
        out.append(
            f"{b.name} {e0.switch}:{e0.side}:{e0.slot} "
            f"{e1.switch}:{e1.side}:{e1.slot} {b.tag}"
        )
    out.append("attach")
    for i, (genus, punctures) in enumerate(attachment.regions):
        out.append(f"{i} {genus} {punctures}")
    return "\n".join(out) + "\n"


def track_to_json(track: TrainTrack, attachment: RegionAttachment) -> dict:
    """Canonical JSON form of a parsed track (the validator's echo)."""
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


def data_path(name: str) -> Path:
    """Path of a data file shipped with the package."""
    return Path(__file__).parent / "data" / name
