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
here puts it at corner 1 of triangle T = 4g - 4 and at corner 0 of every
other triangle, then fans from cusp 0.  Lemma A below shows that every
branch of the result lies on a closed smooth route, so the track is
recurrent (Penner-Harer, Combinatorics of Train Tracks, 1992).

Lemma A.  The switch-side graph of reference_spine(g) is strongly
connected for every g >= 2.  Node v = 2t + side is that side of switch
t{t}, and a branch with end nodes A and B is the edge A -> B ^ 1 one way
and B -> A ^ 1 the other (traintrack._route_graph).

Proof.  By _triangle_edges, q{k} joins the right side of triangle k - 2
to the left side of triangle k - 1, s0 joins the left of t0 to the bottom
of t1, and s{4g - 3} joins the bottom of t{T} to the right of t{T + 1}.
Corner 0 puts the left and bottom ends on side 0 and the right end on
side 1; corner 1 puts the bottom and right ends on side 0 and the left end
on side 1.  So q{k} gives the edges 2k - 3 -> 2k - 1 and 2k - 2 -> 2k - 4
for k <= T, and s0 gives 0 -> 3 and 2 -> 1.  At triangle T, q{T + 1},
q{T + 2} and s{4g - 3} give 2T - 1 -> 2T, 2T + 1 -> 2T - 2, 2T -> 2T + 3,
2T + 2 -> 2T + 1, 2T -> 2T + 2 and 2T + 3 -> 2T + 1.  These edges alone
make the closed route that leaves t1 through side 0 along the branches

    q2, s0, q3 ... q{T}, q{T + 1}, q{T + 2}, s{4g - 3}, q{T + 1}, q{T} ... q3,
    s0, q2, q3 ... q{T}, q{T + 1}, s{4g - 3}, q{T + 2}, q{T + 1}, q{T} ... q3,

16g - 12 steps through the nodes 2, 0, 3, 5, ..., 2T - 1, 2T, 2T + 3,
2T + 1, 2T - 2, 2T - 4, ..., 2, 1, 3, ..., 2T - 1, 2T, 2T + 2, 2T + 1,
2T - 2, ..., 4 and back to 2.  It passes all 2T + 4 nodes of the 4g - 2
switches, so every node reaches every other.

Extension step.  _insert_diagonals keeps every base end's node, because it
changes only slots, and adds one edge pair per diagonal.  So the
switch-side graph of reference_track(g), as of any diagonal extension of a
strongly connected base, contains the spine's graph on the same nodes and
is strongly connected too.  Every branch edge then lies inside the one
component: _route_graph finds no dead branch, and is_recurrent holds
without being run.
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
    """The fan from cusp 0 over reference_spine(genus): maximal, and
    recurrent by lemma A and its extension step.  Chords from one cusp never
    cross, so the fan goes in unchecked."""
    spine = reference_spine(genus)
    cycles = boundary_cycles(spine)  # one cycle: the star of the single vertex
    return _insert_diagonals(spine, cycles, fan_selection(cycles[0].cusp_count))
