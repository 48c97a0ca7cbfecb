"""Maximal recurrent reference tracks on the closed surface of genus g >= 2.

The construction starts from the one-vertex triangulation of the closed
genus-g surface: a 4g-gon with boundary word a b a' b' ... and the fan of
diagonals from vertex 0.  The dual spine has one trivalent switch per
triangle and one branch per triangulation edge; whatever the smoothing, its
complement is the star of the one vertex, a disk whose boundary carries
4g - 2 cusps.  Filling that polygon with a fan of diagonal branches cuts it
into triangles, which makes the track maximal.

Each trivalent switch needs a smoothing: one of its three corners becomes
the cusp, and most patterns leave branches on no closed route.  The rule
here puts it at corner 1 of triangle 4g - 4 and at corner 0 of every other
triangle, then fans from cusp 0.  No proof yet says the rule's spines are
strongly connected (which makes every extension recurrent), so
reference_track() checks is_recurrent and names the first dead branch.
"""

from __future__ import annotations

from .surfaces import SurfaceSig
from .traintrack import (
    Branch,
    BranchEnd,
    RegionAttachment,
    TrainTrack,
    _insert_diagonals,
    boundary_cycles,
    is_recurrent,
)

__all__ = [
    "build_spine",
    "fan_selection",
    "spine_attachment",
    "reference_spine",
    "reference_track",
    "reference_attachment",
]


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
    # every side pair and fan diagonal of the 4g-gon is glued exactly twice
    branches = tuple(
        Branch(name, tuple(placements[name]), "plain")
        for name in sorted(placements, key=lambda s: (s[0], int(s[1:])))
    )
    return TrainTrack(tuple(f"t{t}" for t in range(len(tris))), branches)


def fan_selection(cusp_count: int) -> list[tuple[int, tuple[int, int]]]:
    """Chords of the polygon region joining cusp 0 to every non-adjacent
    cusp, as (cycle 0, sorted position pair) entries."""
    return [(0, (0, j)) for j in range(2, cusp_count - 1)]


def spine_attachment(genus: int) -> RegionAttachment:
    if genus < 2:
        raise ValueError("genus must be at least 2")
    return RegionAttachment(surface=SurfaceSig(genus), regions=((0, 0),))


def reference_attachment(genus: int) -> RegionAttachment:
    if genus < 2:
        raise ValueError("genus must be at least 2")
    return RegionAttachment(SurfaceSig(genus), ((0, 0),) * (4 * genus - 4))


def reference_spine(genus: int) -> TrainTrack:
    """The spine with the cusp at corner 1 of triangle 4g - 4, else corner 0."""
    return build_spine(genus, (0,) * (4 * genus - 4) + (1, 0))


def reference_track(genus: int) -> TrainTrack:
    """The fan from cusp 0 over reference_spine(genus), checked recurrent.
    Chords from one cusp never cross, so the fan goes in unchecked."""
    spine = reference_spine(genus)
    cycles = boundary_cycles(spine)  # one cycle: the star of the single vertex
    track = _insert_diagonals(spine, cycles, fan_selection(cycles[0].cusp_count))
    ok, dead = is_recurrent(track)
    if not ok:
        raise RuntimeError(f"genus {genus}: branch {dead[0]} lies on no closed route")
    return track
