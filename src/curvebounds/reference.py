"""Stock maximal recurrent tracks on closed surfaces of genus 2 and 3.

The construction starts from the one-vertex triangulation of the closed
genus-g surface: a 4g-gon with boundary word a b a' b' ... and the fan of
diagonals from vertex 0.  The dual spine has one trivalent switch per
triangle and one branch per triangulation edge; its complement is a single
disk whose boundary carries 4g - 2 cusps.  Filling that polygon with a fan
of diagonal branches cuts it into triangles, which makes the track maximal.

Each trivalent switch needs a smoothing: one of its three corners becomes
the cusp.  Most smoothing patterns produce a non-recurrent extension, so a
working corner assignment (plus the fan apex) was found by offline search
and is frozen below.  reference_track() rebuilds deterministically.
"""

from __future__ import annotations

from .surfaces import SurfaceSig
from .traintrack import (
    Branch,
    BranchEnd,
    RegionAttachment,
    TrainTrack,
    _chords,
    add_diagonals,
    boundary_cycles,
)

__all__ = [
    "CUSP_CORNERS",
    "FAN_APEX",
    "build_spine",
    "fan_selection",
    "spine_attachment",
    "reference_track",
    "reference_attachment",
]

# frozen by search: see tests for the properties these guarantee
CUSP_CORNERS: dict[int, tuple[int, ...]] = {
    2: (0, 0, 0, 0, 1, 0),
    3: (0, 0, 0, 0, 0, 0, 0, 0, 1, 0),
}
FAN_APEX: dict[int, int] = {2: 0, 3: 0}


def _triangle_edges(genus: int) -> list[tuple[tuple[str, str], ...]]:
    """Per triangle, the (branch name, position) of its left, bottom and
    right sides, for the fan triangulation of the 4g-gon."""
    n = 4 * genus
    pair_name = {}
    for m in range(genus):
        pair_name[4 * m] = f"s{4 * m}"
        pair_name[4 * m + 2] = f"s{4 * m}"
        pair_name[4 * m + 1] = f"s{4 * m + 1}"
        pair_name[4 * m + 3] = f"s{4 * m + 1}"
    tris = []
    for t in range(n - 2):
        left = f"q{t + 1}" if t > 0 else pair_name[0]
        bottom = pair_name[t + 1]
        right = f"q{t + 2}" if t < n - 3 else pair_name[n - 1]
        tris.append((left, bottom, right))
    return tris


def build_spine(genus: int, corners: tuple[int, ...]) -> TrainTrack:
    """Dual spine of the fan-triangulated 4g-gon.

    corners[t] in {0, 1, 2} picks which corner of triangle t is the cusp:
    the two branch ends after that corner, in counterclockwise order
    (left, bottom, right), land on side 0 and the remaining end on side 1.
    """
    if genus < 2:
        raise ValueError("genus must be at least 2")
    tris = _triangle_edges(genus)
    if len(corners) != len(tris):
        raise ValueError(f"need {len(tris)} corner choices, got {len(corners)}")
    placements: dict[str, list[BranchEnd]] = {}
    for t, cyc in enumerate(tris):
        k = corners[t]
        if k not in (0, 1, 2):
            raise ValueError(f"corner choice {k} at triangle {t}")
        layout = (
            (cyc[k], 0, 0),
            (cyc[(k + 1) % 3], 0, 1),
            (cyc[(k + 2) % 3], 1, 0),
        )
        for name, side, slot in layout:
            placements.setdefault(name, []).append(BranchEnd(f"t{t}", side, slot))
    branches = []
    for name in sorted(placements, key=lambda s: (s[0], int(s[1:]))):
        ends = placements[name]
        if len(ends) != 2:
            raise RuntimeError(f"edge {name} glued {len(ends)} times")
        branches.append(Branch(name, (ends[0], ends[1]), "plain"))
    switches = tuple(f"t{t}" for t in range(len(tris)))
    return TrainTrack(switches, tuple(branches))


def fan_selection(cusp_count: int, apex: int) -> list[tuple[int, tuple[int, int]]]:
    """Chords of the polygon region joining the apex cusp to every
    non-adjacent cusp, as (cycle 0, sorted position pair) entries."""
    return [(0, c) for c in _chords(cusp_count) if apex in c]


def spine_attachment(genus: int) -> RegionAttachment:
    return RegionAttachment(surface=SurfaceSig(genus), regions=((0, 0),))


def reference_attachment(genus: int) -> RegionAttachment:
    return RegionAttachment(
        surface=SurfaceSig(genus), regions=((0, 0),) * (4 * genus - 4)
    )


def reference_track(genus: int) -> TrainTrack:
    """The frozen maximal recurrent track for genus 2 or 3."""
    if genus not in CUSP_CORNERS:
        raise ValueError(
            f"no stock track for genus {genus}; available: {sorted(CUSP_CORNERS)}"
        )
    spine = build_spine(genus, CUSP_CORNERS[genus])
    cycles = boundary_cycles(spine)
    if len(cycles) != 1:
        raise RuntimeError("spine boundary is not a single cycle")
    sel = fan_selection(cycles[0].cusp_count, FAN_APEX[genus])
    return add_diagonals(spine, cycles, sel)
