"""Combinatorial ribbon train tracks with exact transverse measures.

A switch holds two ordered lists of branch-end slots (side 0 and side 1);
smooth paths cross from one side to the other.  The ribbon neighborhood is
reconstructed from the slot data alone: each branch end has a top and a
bottom sheet, ends attached on opposite sides of their switches glue
straight (top-top, bottom-bottom) and ends attached on the same side glue
with a half twist.  This is exactly the orientable thickening, so boundary
cycles, cusps and complementary regions all fall out of one traversal.
A track numbers its switch sides once, while it validates (see
`TrainTrack`); the traversal, the diagonal insertion, the switch balance
check and recurrence all walk those nodes.  Recurrence is one pass over the
switch-side graph: its strongly connected components decide it.  The
witness measure of a recurrent track counts closed walks along two
breadth-first trees per component, one walk through each branch.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterable, Mapping, NamedTuple, Sequence

from ._digraph import components
from .surfaces import SurfaceSig, branch_bound, cusp_bound, real_branch_bound

__all__ = [
    "TAGS",
    "TrackStructureError",
    "EulerMismatchError",
    "RegionCutoffError",
    "PeriodicCuspError",
    "BranchEnd",
    "Branch",
    "TrainTrack",
    "Cusp",
    "CuspVisit",
    "BoundaryCycle",
    "RegionAttachment",
    "RegionInfo",
    "RegionReport",
    "FoldSchedule",
    "check_measure",
    "is_recurrent",
    "boundary_cycles",
    "total_cusps",
    "classify_regions",
    "enumerate_diagonal_extensions",
    "add_diagonals",
    "BranchCountReport",
    "branch_count_report",
    "max_fold_time",
]

TAGS = ("real", "infinitesimal", "plain", "diagonal")


class TrackStructureError(ValueError):
    """Slot data does not describe a valid track."""


class EulerMismatchError(TrackStructureError):
    """Region attachment data contradicts the declared surface."""


class RegionCutoffError(TrackStructureError):
    """A region exceeds the diagonal-enumeration cusp cutoff."""


class PeriodicCuspError(ValueError):
    """A cusp orbit never meets the folded set."""


class BranchEnd(NamedTuple):
    switch: str
    side: int
    slot: int


class Branch(NamedTuple):
    name: str
    ends: tuple[BranchEnd, BranchEnd]
    tag: str = "plain"


class TrainTrack:
    """Switches and branches whose slot data forms a valid track.  Immutable;
    equal and hashed as the pair (switches, branches).  Validation numbers
    the switch sides once: node v = 2s + side is that side of switch s,
    `sides[v]` holds its slot-ordered (branch index, end index) pairs, and
    `ends[b]` the two nodes of branch b."""

    __slots__ = ("switches", "branches", "sides", "ends")

    def __init__(self, switches: Sequence[str], branches: Sequence[Branch]):
        object.__setattr__(self, "switches", tuple(switches))
        object.__setattr__(self, "branches", tuple(branches))
        # Looked up on the instance, so that a wrapper set on the class (as
        # perfbench's tracer sets one) sees every validation.
        self.__post_init__()

    def __setattr__(self, name, value):
        raise AttributeError("TrainTrack is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrainTrack):
            return NotImplemented
        return (self.switches, self.branches) == (other.switches, other.branches)

    def __hash__(self) -> int:
        return hash((self.switches, self.branches))

    def __post_init__(self) -> None:
        """Validate the slot data and derive `sides` and `ends`."""
        node = {sw: 2 * i for i, sw in enumerate(self.switches)}
        if len(node) != len(self.switches):
            raise TrackStructureError("duplicate switch names")
        names = [b.name for b in self.branches]
        if len(set(names)) != len(names):
            raise TrackStructureError("duplicate branch names")
        slots: list[dict[int, tuple[int, int]]] = [{} for _ in range(2 * len(node))]
        ends = []
        for bidx, b in enumerate(self.branches):
            if b.tag not in TAGS:
                raise TrackStructureError(f"unknown tag {b.tag!r} on branch {b.name}")
            for eidx, end in enumerate(b.ends):
                if end.switch not in node:
                    raise TrackStructureError(
                        f"branch {b.name} attaches to unknown switch {end.switch!r}"
                    )
                if end.side not in (0, 1):
                    raise TrackStructureError(
                        f"branch {b.name} has side {end.side}, expected 0 or 1"
                    )
                occupied = slots[node[end.switch] + end.side]
                if end.slot in occupied:
                    raise TrackStructureError(
                        f"slot collision at switch {end.switch} side {end.side} "
                        f"slot {end.slot}"
                    )
                occupied[end.slot] = (bidx, eidx)
            ends.append(tuple(node[e.switch] + e.side for e in b.ends))
        sides = []
        for v, occupied in enumerate(slots):
            sw, side = self.switches[v >> 1], v & 1
            if not occupied:
                raise TrackStructureError(f"switch {sw} has an empty side {side}")
            if sorted(occupied) != list(range(len(occupied))):
                raise TrackStructureError(
                    f"switch {sw} side {side} slots not contiguous from 0: "
                    f"{sorted(occupied)}"
                )
            sides.append(tuple(occupied[i] for i in range(len(occupied))))
            if side:
                valence = len(sides[v - 1]) + len(sides[v])
                if valence < 3:
                    raise TrackStructureError(f"switch {sw} has valence {valence} < 3")
        object.__setattr__(self, "sides", tuple(sides))
        object.__setattr__(self, "ends", tuple(ends))

    @property
    def num_switches(self) -> int:
        return len(self.switches)

    @property
    def num_branches(self) -> int:
        return len(self.branches)


# --- measures ---------------------------------------------------------------


def check_measure(track: TrainTrack, weights: Mapping[str, int]) -> bool:
    """True iff the int weights balance at every switch: the branch ends on
    side 0 carry the same total weight as those on side 1 (a loop with both
    ends on one side counts twice).  A missing or negative weight, or one
    that is not an int (a bool, a Fraction, a float or a string), raises
    ValueError."""
    w = []
    for b in track.branches:
        if b.name not in weights:
            raise ValueError(f"no weight for branch {b.name}")
        x = weights[b.name]
        if type(x) is not int:
            raise ValueError(f"weight {x!r} on branch {b.name} is not an int")
        if x < 0:
            raise ValueError(f"negative weight {x} on branch {b.name}")
        w.append(x)
    sums = [sum(w[i] for i, _ in ends) for ends in track.sides]
    return sums[0::2] == sums[1::2]


# --- recurrence by closed smooth routes -------------------------------------


def _route_graph(track: TrainTrack) -> tuple[str, ...]:
    """The names of the branches on no closed smooth route, in track order.
    Node 2s + side of the switch-side graph leaves switch s through that
    side; a branch with end nodes A and B (`track.ends`) is the edge
    A -> B ^ 1 one way and B -> A ^ 1 the other, because a smooth route
    arriving on one side of a switch leaves by the other.  A branch is on
    no closed route iff its edge A -> B ^ 1 joins two components."""
    succ = [0] * len(track.sides)
    for a, z in track.ends:
        succ[a] |= 1 << (z ^ 1)
        succ[z] |= 1 << (a ^ 1)
    label = components(succ)
    return tuple(
        b.name
        for b, (a, z) in zip(track.branches, track.ends)
        if label[a] != label[z ^ 1]
    )


def is_recurrent(
    track: TrainTrack,
) -> tuple[bool, dict[str, int] | tuple[str, ...]]:
    """Decide whether the track carries a strictly positive measure: whether
    every branch lies on a closed smooth route (Penner-Harer).  Returns
    (False, names of the branches on no closed route) or (True, witness).

    In a recurrent track no edge joins two components, so a breadth-first
    tree from the least node r of each component reaches all of it.  Each
    branch's edge A -> B ^ 1 closes into the walk r -> A -> B ^ 1 -> r
    along tree paths; the witness counts how often these walks cross each
    branch.  Reversing the graph relabels node v as v ^ 1, so the path
    B ^ 1 -> r crosses the branches of the tree path r ^ 1 -> B.  Each tree
    edge adds the number of walks that start (out-trees from r, at A) or
    end (in-trees from r ^ 1, at B) below it.  A tree path crosses a branch
    at most twice, so every weight is an integer in [1, 4 * branches + 1]."""
    dead = _route_graph(track)
    if dead:
        return False, dead
    count = [1] * len(track.ends)
    roots: Iterable[int] = range(len(track.sides))
    for side in (0, 1):  # out-trees, then in-trees
        parent: dict[int, tuple[int, int] | None] = {}  # in breadth-first order
        for root in roots:
            if root in parent:
                continue
            parent[root] = None
            tree = [root]
            for v in tree:
                for i, e in track.sides[v]:
                    w = track.ends[i][1 - e] ^ 1
                    if w not in parent:
                        parent[w] = v, i
                        tree.append(w)
        load = Counter(pair[side] for pair in track.ends)
        for w, up in reversed(parent.items()):
            if up:
                count[up[1]] += load[w]
                load[up[0]] += load[w]
        roots = [r ^ 1 for r, up in parent.items() if up is None]
    return True, {b.name: c for b, c in zip(track.branches, count)}


# --- ribbon boundary traversal ----------------------------------------------


class Cusp(NamedTuple):
    switch: str
    side: int
    gap: int  # between slots gap and gap+1


class CuspVisit(NamedTuple):
    cusp: Cusp
    arrive_slot: int
    depart_slot: int


class BoundaryCycle(NamedTuple):
    cusps: tuple[CuspVisit, ...]
    size: int  # boundary points traversed

    @property
    def cusp_count(self) -> int:
        return len(self.cusps)


def boundary_cycles(track: TrainTrack) -> tuple[BoundaryCycle, ...]:
    """Boundary components of the ribbon neighborhood, each with its cusp
    visits in traversal order.  Deterministic: cycles start at their least
    point and are listed by starting point.

    Point 4b + 2e + t is sheet t (0 top, 1 bottom) of end e of branch b.  At
    its switch side v and slot s the sheet turns toward slot s - 1 (top) or
    s + 1 (bottom) of `sides[v]`: if that slot exists the walk crosses the
    cusp between the two onto its other sheet, and otherwise it crosses the
    switch to the same sheet of `sides[v ^ 1][0]` (top) or `[-1]` (bottom).
    Along a branch the walk flips the end bit, and the sheet bit too when
    both ends lie on one side (the half twist)."""
    sides, switches = track.sides, track.switches
    node = [v for pair in track.ends for v in pair]  # of end 2b + e
    slot = [e.slot for b in track.branches for e in b.ends]
    twist = [3 - ((a ^ z) & 1) for a, z in track.ends]
    visited = [False] * len(twist) * 4
    cycles = []
    for start in range(len(visited)):
        if visited[start]:
            continue
        cusps = []
        size = 0
        p = start
        while True:
            v, s, t = node[p >> 1], slot[p >> 1], p & 1
            n = s + 2 * t - 1
            if 0 <= n < len(sides[v]):
                cusp = Cusp(switches[v >> 1], v & 1, min(s, n))
                cusps.append(CuspVisit(cusp, s, n))
                b, e = sides[v][n]
                q = 4 * b + 2 * e + 1 - t
            else:
                b, e = sides[v ^ 1][-t]
                q = 4 * b + 2 * e + t
            visited[p] = visited[q] = True
            size += 2
            p = q ^ twist[b]
            if p == start:
                break
        cycles.append(BoundaryCycle(cusps=tuple(cusps), size=size))
    return tuple(cycles)


def total_cusps(track: TrainTrack) -> int:
    """A switch of valence d has d - 2 cusps; valences sum to 2 * branches."""
    return 2 * (track.num_branches - track.num_switches)


# --- complementary regions --------------------------------------------------


class RegionAttachment(NamedTuple):
    """Declared filling data: the target surface plus (genus, punctures) of
    the region glued to each boundary cycle, in cycle order."""

    surface: SurfaceSig
    regions: tuple[tuple[int, int], ...]


class RegionInfo(NamedTuple):
    index: int
    cusp_count: int
    genus: int
    punctures: int

    @property
    def label(self) -> str:
        if self.genus == 0 and self.punctures == 0:
            return f"polygon({self.cusp_count})"
        if self.genus == 0 and self.punctures == 1:
            return f"punctured_polygon({self.cusp_count})"
        return f"other(genus={self.genus}, punctures={self.punctures})"


class RegionReport(NamedTuple):
    regions: tuple[RegionInfo, ...]
    is_large: bool
    is_maximal: bool


def classify_regions(track: TrainTrack, attachment: RegionAttachment) -> RegionReport:
    """Label each complementary region and check Euler consistency against
    the declared surface."""
    return _region_report(track, boundary_cycles(track), attachment)


def _region_report(
    track: TrainTrack, cycles: Sequence[BoundaryCycle], attachment: RegionAttachment
) -> RegionReport:
    if len(attachment.regions) != len(cycles):
        raise TrackStructureError(
            f"{len(attachment.regions)} regions declared for "
            f"{len(cycles)} boundary cycles"
        )
    chi = track.num_switches - track.num_branches
    infos = []
    for i, (cycle, (genus, punctures)) in enumerate(zip(cycles, attachment.regions)):
        if genus < 0 or punctures < 0:
            raise TrackStructureError(f"negative attachment data on region {i}")
        chi += 1 - 2 * genus - punctures
        infos.append(
            RegionInfo(
                index=i,
                cusp_count=cycle.cusp_count,
                genus=genus,
                punctures=punctures,
            )
        )
    declared = attachment.surface.chi
    if chi != declared:
        raise EulerMismatchError(
            f"attachment fills to chi = {chi}, surface declares {declared}"
        )
    is_large = all(r.genus == 0 and r.punctures <= 1 for r in infos)
    is_maximal = is_large and all(
        (r.punctures == 0 and r.cusp_count == 3)
        or (r.punctures == 1 and r.cusp_count == 1)
        for r in infos
    )
    return RegionReport(
        regions=tuple(infos), is_large=is_large, is_maximal=is_maximal
    )


# --- diagonal extensions ----------------------------------------------------

REGION_CUSP_CUTOFF = 8


def _crossing(c1: tuple[int, int], c2: tuple[int, int]) -> bool:
    (i, j), (p, q) = c1, c2
    return (i < p < j < q) or (p < i < q < j)


def _dissections(k: int) -> list[tuple[tuple[int, int], ...]]:
    """Every set of mutually non-crossing diagonals of a k-gon, as a sorted
    tuple of sorted position pairs, in lexicographic order."""
    chords = [(i, j) for i in range(k) for j in range(i + 2, k - (i == 0))]
    out = [()]
    for s in out:  # out grows: each set gains each later chord it does not cross
        later = [c for c in chords if not s or s[-1] < c]
        out += [s + (c,) for c in later if not any(_crossing(d, c) for d in s)]
    return sorted(out)


def _check_selection(
    cycles: Sequence[BoundaryCycle],
    selection: Sequence[tuple[int, tuple[int, int]]],
) -> None:
    """Raise TrackStructureError at the first entry that is no diagonal of
    its polygon or that repeats or crosses an earlier chord on its cycle.
    Cycle indices and cusp positions are ints (a bool or a float is none)."""
    chosen: dict[int, list[tuple[int, int]]] = {}
    for entry in selection:
        ci, (pi, pj) = entry
        k = cycles[ci].cusp_count if type(ci) is int and ci in range(len(cycles)) else None
        if k is None:
            why = f"no boundary cycle {ci}"
        elif not all(type(p) is int and p in range(k) for p in (pi, pj)):
            why = f"cycle {ci} has cusp positions 0..{k - 1}"
        elif (pj - pi) % k in (0, 1, k - 1):
            why = "equal or adjacent cusps are not a diagonal"
        else:
            chord = (min(pi, pj), max(pi, pj))
            clash = [c for c in chosen.get(ci, ()) if c == chord or _crossing(c, chord)]
            if not clash:
                chosen.setdefault(ci, []).append(chord)
                continue
            why = f"repeats or crosses {clash[0]} on cycle {ci}"
        raise TrackStructureError(f"selection entry {entry}: {why}")


def add_diagonals(
    track: TrainTrack,
    cycles: Sequence[BoundaryCycle],
    selection: Sequence[tuple[int, tuple[int, int]]],
) -> TrainTrack:
    """Rebuild the track with one new branch per (cycle index, chord) entry,
    after checking that the entries are mutually non-crossing diagonals of
    their polygons (TrackStructureError names the first that is not)."""
    _check_selection(cycles, selection)
    return _insert_diagonals(track, cycles, selection)


def _insert_diagonals(
    track: TrainTrack,
    cycles: Sequence[BoundaryCycle],
    selection: Sequence[tuple[int, tuple[int, int]]],
) -> TrainTrack:
    """`add_diagonals` on a selection known to be valid, unchecked.

    Each diagonal terminates inside its two cusps; ends sharing a cusp are
    ordered by cyclic distance to their far endpoint, nearest distance
    adjacent to the departure flank of the boundary traversal.  The new
    (branch, end) pairs go into a copy of `track.sides`, in gap order: the
    i-th new end of side v, in the gap after slot g, at position g + 1 + i.
    Every end's slot is then its position in the copy.
    """
    taken = {b.name for b in track.branches}
    names = (f"d{c}" for c in itertools.count() if f"d{c}" not in taken)
    fresh = list(itertools.islice(names, len(selection)))
    node = {sw: 2 * i for i, sw in enumerate(track.switches)}
    inserts = []
    for bidx, (ci, (pi, pj)) in enumerate(selection, len(track.branches)):
        cycle = cycles[ci]
        for eidx, (pos, far) in enumerate(((pi, pj), (pj, pi))):
            visit = cycle.cusps[pos]
            sw, side, gap = visit.cusp
            dist = (far - pos) % cycle.cusp_count
            # nearest far endpoint sits next to the departure flank
            key = -dist if visit.depart_slot == gap + 1 else dist
            inserts.append((node[sw] + side, gap, key, bidx, eidx))
    sides = [list(pairs) for pairs in track.sides]
    for v, gap, _, bidx, eidx in sorted(inserts):
        sides[v].insert(gap + 1 + len(sides[v]) - len(track.sides[v]), (bidx, eidx))
    ends = [[None, None] for _ in range(len(track.branches) + len(fresh))]
    for v, pairs in enumerate(sides):
        for slot, (bidx, eidx) in enumerate(pairs):
            ends[bidx][eidx] = BranchEnd(track.switches[v >> 1], v & 1, slot)
    tags = [(b.name, b.tag) for b in track.branches] + [(n, "diagonal") for n in fresh]
    return TrainTrack(
        track.switches,
        tuple(Branch(n, tuple(e), tag) for (n, tag), e in zip(tags, ends)),
    )


def enumerate_diagonal_extensions(
    track: TrainTrack, attachment: RegionAttachment
) -> tuple[TrainTrack, ...]:
    """All recurrent tracks obtained by adding mutually non-crossing
    diagonals inside the polygon regions (the base track included when it is
    itself recurrent), each judged by whether every branch lies on a closed
    route.  Deterministic lexicographic order, region 0 varying slowest.
    """
    cycles = boundary_cycles(track)
    report = _region_report(track, cycles, attachment)
    if not report.is_large:
        raise TrackStructureError("diagonal extensions need a large track")
    for info in report.regions:
        if info.cusp_count > REGION_CUSP_CUTOFF:
            raise RegionCutoffError(
                f"region {info.index} has {info.cusp_count} cusps, "
                f"cutoff is {REGION_CUSP_CUTOFF}"
            )
    per_region = [_dissections(info.cusp_count) for info in report.regions]
    out = []
    for combo in itertools.product(*per_region):
        sel = [(ci, chord) for ci, sub in enumerate(combo) for chord in sub]
        ext = _insert_diagonals(track, cycles, sel)
        if not _route_graph(ext):
            out.append(ext)
    return tuple(out)


# --- branch count bounds ----------------------------------------------------


class BranchCountReport(NamedTuple):
    total: int
    total_bound: int
    total_ok: bool
    real: int
    real_bound: int
    real_ok: bool


def branch_count_report(track: TrainTrack, sig: SurfaceSig) -> BranchCountReport:
    """Compare branch counts against the structural bounds 9|chi| - 3n
    (all branches) and 3|chi| - 3 (strictly, real branches).  Violations are
    reported as flags, never raised."""
    total, total_bound = track.num_branches, branch_bound(sig)
    real = sum(1 for b in track.branches if b.tag == "real")
    real_bound = real_branch_bound(sig)
    return BranchCountReport(
        total=total,
        total_bound=total_bound,
        total_ok=total <= total_bound,
        real=real,
        real_bound=real_bound,
        real_ok=real < real_bound,
    )


# --- fold schedules ---------------------------------------------------------


class FoldSchedule(NamedTuple):
    """Cusps of a splitting sequence with the induced total cusp map and the
    subset of cusps the sequence folds."""

    cusps: tuple
    cusp_map: Mapping
    folded: frozenset


def max_fold_time(fs: FoldSchedule, sig: SurfaceSig) -> int:
    """Largest j over cusps c with map^(j-1)(c) in the folded set.

    For schedules coming from an actual splitting sequence this is at most
    the cusp count, hence at most 6|chi(S)|.  An orbit that never meets the
    folded set raises PeriodicCuspError.
    """
    cusps = set(fs.cusps)
    if not cusps:
        raise ValueError("fold schedule has no cusps")
    if sig.chi >= 0:
        raise ValueError(f"surface must have chi < 0: {sig}")
    if len(cusps) > cusp_bound(sig):
        raise ValueError(f"{len(cusps)} cusps exceeds 6|chi| = {cusp_bound(sig)}")
    for c in fs.cusps:
        if c not in fs.cusp_map or fs.cusp_map[c] not in cusps:
            raise ValueError(f"cusp map is not a total map on the cusps: {c!r}")
    if not set(fs.folded) <= cusps:
        raise ValueError("folded set contains unknown cusps")
    worst = 0
    for c in fs.cusps:
        cur = c
        seen = set()
        j = 1
        while cur not in fs.folded:
            if cur in seen:
                raise PeriodicCuspError(
                    f"cusp {c!r} orbits {sorted(map(repr, seen))} without folding"
                )
            seen.add(cur)
            cur = fs.cusp_map[cur]
            j += 1
        worst = max(worst, j)
    return worst
