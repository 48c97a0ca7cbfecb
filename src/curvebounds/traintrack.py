"""Combinatorial ribbon train tracks with exact transverse measures.

A switch holds two ordered lists of branch-end slots (side 0 and side 1);
smooth paths cross from one side to the other.  The ribbon neighborhood is
reconstructed from the slot data alone: each branch end has a top and a
bottom sheet, ends attached on opposite sides of their switches glue
straight (top-top, bottom-bottom) and ends attached on the same side glue
with a half twist.  This is exactly the orientable thickening, so boundary
cycles, cusps and complementary regions all fall out of one traversal.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from ._digraph import components, shortest_path
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
    "switch_equations",
    "is_recurrent",
    "unrouted_branches",
    "boundary_cycles",
    "total_cusps",
    "classify_regions",
    "enumerate_diagonal_extensions",
    "add_diagonals",
    "positive_on_base",
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


@dataclass(frozen=True)
class Branch:
    name: str
    ends: tuple[BranchEnd, BranchEnd]
    tag: str = "plain"


@dataclass(frozen=True)
class TrainTrack:
    switches: tuple[str, ...]
    branches: tuple[Branch, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "switches", tuple(self.switches))
        object.__setattr__(self, "branches", tuple(self.branches))
        if len(set(self.switches)) != len(self.switches):
            raise TrackStructureError("duplicate switch names")
        names = [b.name for b in self.branches]
        if len(set(names)) != len(names):
            raise TrackStructureError("duplicate branch names")
        known = set(self.switches)
        slots: dict[tuple[str, int], dict[int, tuple[int, int]]] = {}
        for bidx, b in enumerate(self.branches):
            if b.tag not in TAGS:
                raise TrackStructureError(f"unknown tag {b.tag!r} on branch {b.name}")
            for eidx, end in enumerate(b.ends):
                if end.switch not in known:
                    raise TrackStructureError(
                        f"branch {b.name} attaches to unknown switch {end.switch!r}"
                    )
                if end.side not in (0, 1):
                    raise TrackStructureError(
                        f"branch {b.name} has side {end.side}, expected 0 or 1"
                    )
                key = (end.switch, end.side)
                occupied = slots.setdefault(key, {})
                if end.slot in occupied:
                    raise TrackStructureError(
                        f"slot collision at switch {end.switch} side {end.side} "
                        f"slot {end.slot}"
                    )
                occupied[end.slot] = (bidx, eidx)
        incidence: dict[tuple[str, int], tuple[tuple[int, int], ...]] = {}
        for sw in self.switches:
            valence = 0
            for side in (0, 1):
                occupied = slots.get((sw, side), {})
                if not occupied:
                    raise TrackStructureError(
                        f"switch {sw} has an empty side {side}"
                    )
                if sorted(occupied) != list(range(len(occupied))):
                    raise TrackStructureError(
                        f"switch {sw} side {side} slots not contiguous from 0: "
                        f"{sorted(occupied)}"
                    )
                incidence[(sw, side)] = tuple(
                    occupied[i] for i in range(len(occupied))
                )
                valence += len(occupied)
            if valence < 3:
                raise TrackStructureError(f"switch {sw} has valence {valence} < 3")
        object.__setattr__(self, "_incidence", incidence)

    def side_ends(self, switch: str, side: int) -> tuple[tuple[int, int], ...]:
        """Slot-ordered (branch index, end index) pairs on one side."""
        return self._incidence[(switch, side)]

    def valence(self, switch: str) -> int:
        return len(self.side_ends(switch, 0)) + len(self.side_ends(switch, 1))

    @property
    def num_switches(self) -> int:
        return len(self.switches)

    @property
    def num_branches(self) -> int:
        return len(self.branches)


# --- measures ---------------------------------------------------------------


def _weights_on(track: TrainTrack, weights: Mapping[str, Fraction]) -> dict[str, Fraction]:
    out = {}
    for b in track.branches:
        if b.name not in weights:
            raise ValueError(f"no weight for branch {b.name}")
        w = Fraction(weights[b.name])
        if w < 0:
            raise ValueError(f"negative weight {w} on branch {b.name}")
        out[b.name] = w
    return out


def switch_equations(track: TrainTrack) -> list[dict[str, int]]:
    """Per switch, the net coefficient of each branch weight (side 0 counts
    +1 per end, side 1 counts -1 per end; a loop with both ends on one side
    contributes twice)."""
    eqs = []
    for sw in track.switches:
        coeff: dict[str, int] = {}
        for side, sign in ((0, 1), (1, -1)):
            for bidx, _ in track.side_ends(sw, side):
                name = track.branches[bidx].name
                coeff[name] = coeff.get(name, 0) + sign
        eqs.append(coeff)
    return eqs


def check_measure(track: TrainTrack, weights: Mapping[str, Fraction]) -> bool:
    """True iff the weights balance at every switch."""
    w = _weights_on(track, weights)
    for coeff in switch_equations(track):
        if sum(c * w[name] for name, c in coeff.items()) != 0:
            return False
    return True


# --- recurrence by closed smooth routes -------------------------------------


def _switch_side_graph(track: TrainTrack) -> tuple[list[int], list[tuple[int, int]]]:
    """The switch-side graph and the end nodes of each branch.  Node
    2s + side leaves switch s through that side; a branch with end nodes A
    and B is the edge A -> B ^ 1 one way and B -> A ^ 1 the other, because
    a smooth route arriving on one side of a switch leaves by the other."""
    first = {sw: 2 * i for i, sw in enumerate(track.switches)}
    ends = [tuple(first[e.switch] + e.side for e in b.ends) for b in track.branches]
    succ = [0] * (2 * len(track.switches))
    for a, z in ends:
        succ[a] |= 1 << (z ^ 1)
        succ[z] |= 1 << (a ^ 1)
    return succ, ends


def unrouted_branches(track: TrainTrack) -> tuple[str, ...]:
    """Names of the branches on no closed smooth route, in track order: the
    branches whose edge A -> B ^ 1 joins two components."""
    succ, ends = _switch_side_graph(track)
    label = components(succ)
    return tuple(
        b.name for b, (a, z) in zip(track.branches, ends) if label[a] != label[z ^ 1]
    )


def is_recurrent(track: TrainTrack) -> tuple[bool, dict[str, Fraction] | None]:
    """Decide whether the track carries a strictly positive measure: whether
    every branch lies on a closed smooth route (Penner-Harer).  For each
    branch not yet covered, in track order, a shortest path B ^ 1 -> A of
    the switch-side graph closes its edge A -> B ^ 1 into a closed route; the
    witness counts how often these routes traverse each branch, so its
    weights are integers >= 1.  A branch with no such path decides False."""
    succ, ends = _switch_side_graph(track)
    via: dict[tuple[int, int], int] = {}  # one branch per edge
    for i, (a, z) in enumerate(ends):
        via[a, z ^ 1] = via[z, a ^ 1] = i
    count = [0] * len(ends)
    for i, (a, z) in enumerate(ends):
        if count[i]:
            continue
        path = shortest_path(succ, z ^ 1, a)
        if path is None:
            return False, None
        count[i] += 1
        for edge in zip(path, path[1:]):
            count[via[edge]] += 1
    return True, {b.name: Fraction(c) for b, c in zip(track.branches, count)}


# --- ribbon boundary traversal ----------------------------------------------


class Cusp(NamedTuple):
    switch: str
    side: int
    gap: int  # between slots gap and gap+1


class CuspVisit(NamedTuple):
    cusp: Cusp
    arrive_slot: int
    depart_slot: int


@dataclass(frozen=True)
class BoundaryCycle:
    cusps: tuple[CuspVisit, ...]
    size: int  # boundary points traversed

    @property
    def cusp_count(self) -> int:
        return len(self.cusps)


def _point(bidx: int, eidx: int, sheet: int) -> int:
    return (bidx * 2 + eidx) * 2 + sheet


def boundary_cycles(track: TrainTrack) -> tuple[BoundaryCycle, ...]:
    """Boundary components of the ribbon neighborhood, each with its cusp
    visits in traversal order.  Deterministic: cycles start at their least
    point and are listed by starting point.
    """
    npts = 4 * track.num_branches
    branch_partner = [0] * npts
    for bidx, b in enumerate(track.branches):
        straight = b.ends[0].side != b.ends[1].side
        for sheet in (0, 1):
            other = sheet if straight else 1 - sheet
            branch_partner[_point(bidx, 0, sheet)] = _point(bidx, 1, other)
            branch_partner[_point(bidx, 1, other)] = _point(bidx, 0, sheet)
    switch_partner = [0] * npts
    cusp_at: dict[tuple[int, int], tuple[Cusp, int, int]] = {}
    for sw in track.switches:
        side0 = track.side_ends(sw, 0)
        side1 = track.side_ends(sw, 1)
        top0 = _point(*side0[0], 0)
        top1 = _point(*side1[0], 0)
        switch_partner[top0] = top1
        switch_partner[top1] = top0
        bot0 = _point(*side0[-1], 1)
        bot1 = _point(*side1[-1], 1)
        switch_partner[bot0] = bot1
        switch_partner[bot1] = bot0
        for side, ends in ((0, side0), (1, side1)):
            for gap in range(len(ends) - 1):
                lo = _point(*ends[gap], 1)      # bottom sheet of slot gap
                hi = _point(*ends[gap + 1], 0)  # top sheet of slot gap+1
                switch_partner[lo] = hi
                switch_partner[hi] = lo
                cusp = Cusp(sw, side, gap)
                cusp_at[(lo, hi)] = (cusp, gap, gap + 1)
                cusp_at[(hi, lo)] = (cusp, gap + 1, gap)
    visited = [False] * npts
    cycles = []
    for start in range(npts):
        if visited[start]:
            continue
        cusps = []
        size = 0
        cur = start
        while True:
            visited[cur] = True
            size += 1
            nxt = switch_partner[cur]
            visited[nxt] = True
            size += 1
            if (cur, nxt) in cusp_at:
                cusp, arrive, depart = cusp_at[(cur, nxt)]
                cusps.append(CuspVisit(cusp, arrive, depart))
            cur = branch_partner[nxt]
            if cur == start:
                break
        cycles.append(BoundaryCycle(cusps=tuple(cusps), size=size))
    return tuple(cycles)


def total_cusps(track: TrainTrack) -> int:
    return sum(track.valence(sw) - 2 for sw in track.switches)


# --- complementary regions --------------------------------------------------


@dataclass(frozen=True)
class RegionAttachment:
    """Declared filling data: the target surface plus (genus, punctures) of
    the region glued to each boundary cycle, in cycle order."""

    surface: SurfaceSig
    regions: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class RegionInfo:
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


@dataclass(frozen=True)
class RegionReport:
    regions: tuple[RegionInfo, ...]
    is_large: bool
    is_maximal: bool

    @property
    def total_cusps(self) -> int:
        return sum(r.cusp_count for r in self.regions)


def classify_regions(track: TrainTrack, attachment: RegionAttachment) -> RegionReport:
    """Label each complementary region and check Euler consistency against
    the declared surface."""
    cycles = boundary_cycles(track)
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


def _chords(k: int) -> list[tuple[int, int]]:
    """Non-adjacent position pairs of a k-gon, lexicographic."""
    out = []
    for i in range(k):
        for j in range(i + 2, k):
            if i == 0 and j == k - 1:
                continue
            out.append((i, j))
    return out


def _crossing(c1: tuple[int, int], c2: tuple[int, int]) -> bool:
    (i, j), (p, q) = c1, c2
    return (i < p < j < q) or (p < i < q < j)


def _noncrossing_subsets(chords: list[tuple[int, int]]) -> list[tuple[tuple[int, int], ...]]:
    out: list[tuple[tuple[int, int], ...]] = []

    def rec(start: int, chosen: list[tuple[int, int]]) -> None:
        out.append(tuple(chosen))
        for t in range(start, len(chords)):
            if all(not _crossing(chords[t], c) for c in chosen):
                chosen.append(chords[t])
                rec(t + 1, chosen)
                chosen.pop()

    rec(0, [])
    return out


def _check_selection(
    cycles: Sequence[BoundaryCycle],
    selection: Sequence[tuple[int, tuple[int, int]]],
) -> None:
    """Raise TrackStructureError at the first entry that is no diagonal of
    its polygon or that repeats or crosses an earlier chord on its cycle."""
    chosen: dict[int, list[tuple[int, int]]] = {}
    for entry in selection:
        ci, (pi, pj) = entry
        k = cycles[ci].cusp_count if ci in range(len(cycles)) else 0
        chord = (min(pi, pj), max(pi, pj))
        clash = [c for c in chosen.get(ci, ()) if c == chord or _crossing(c, chord)]
        if ci not in range(len(cycles)):
            why = f"no boundary cycle {ci}"
        elif pi not in range(k) or pj not in range(k):
            why = f"cycle {ci} has cusp positions 0..{k - 1}"
        elif (pj - pi) % k in (0, 1, k - 1):
            why = "equal or adjacent cusps are not a diagonal"
        elif clash:
            why = f"repeats or crosses {clash[0]} on cycle {ci}"
        else:
            chosen.setdefault(ci, []).append(chord)
            continue
        raise TrackStructureError(f"selection entry {entry}: {why}")


def add_diagonals(
    track: TrainTrack,
    cycles: Sequence[BoundaryCycle],
    selection: Sequence[tuple[int, tuple[int, int]]],
) -> TrainTrack:
    """Rebuild the track with one new branch per (cycle index, chord) entry.

    Each diagonal terminates inside its two cusps; ends sharing a cusp are
    ordered by cyclic distance to their far endpoint, nearest distance
    adjacent to the departure flank of the boundary traversal.  The i-th new
    end of a side, in the gap after slot g, takes slot g + 1 + i; an old end
    at slot s moves up by the number of new ends in gaps before s.
    """
    _check_selection(cycles, selection)
    taken = {b.name for b in track.branches}
    names = (f"d{c}" for c in itertools.count() if f"d{c}" not in taken)
    fresh = list(itertools.islice(names, len(selection)))
    inserts: dict[tuple[str, int], list[tuple[int, int, str, int]]] = {}
    for name, (ci, (pi, pj)) in zip(fresh, selection):
        cycle = cycles[ci]
        for eidx, (pos, far) in enumerate(((pi, pj), (pj, pi))):
            visit = cycle.cusps[pos]
            sw, side, gap = visit.cusp
            dist = (far - pos) % cycle.cusp_count
            # nearest far endpoint sits next to the departure flank
            key = -dist if visit.depart_slot == gap + 1 else dist
            inserts.setdefault((sw, side), []).append((gap, key, name, eidx))
    gaps: dict[tuple[str, int], list[int]] = {}
    ends: dict[tuple[str, int], BranchEnd] = {}
    for (sw, side), group in inserts.items():
        group.sort()
        gaps[(sw, side)] = [gap for gap, _, _, _ in group]
        for i, (gap, _, name, eidx) in enumerate(group):
            ends[(name, eidx)] = BranchEnd(sw, side, gap + 1 + i)
    for b in track.branches:
        for eidx, e in enumerate(b.ends):
            shift = bisect_left(gaps.get((e.switch, e.side), ()), e.slot)
            ends[(b.name, eidx)] = BranchEnd(e.switch, e.side, e.slot + shift)
    tags = [(b.name, b.tag) for b in track.branches] + [(n, "diagonal") for n in fresh]
    return TrainTrack(
        track.switches,
        tuple(Branch(n, (ends[(n, 0)], ends[(n, 1)]), tag) for n, tag in tags),
    )


def enumerate_diagonal_extensions(
    track: TrainTrack, attachment: RegionAttachment
) -> tuple[TrainTrack, ...]:
    """All recurrent tracks obtained by adding mutually non-crossing
    diagonals inside the polygon regions (the base track included when it is
    itself recurrent), each judged by whether every branch lies on a closed
    route.  Deterministic lexicographic order, region 0 varying slowest.
    """
    report = classify_regions(track, attachment)
    if not report.is_large:
        raise TrackStructureError("diagonal extensions need a large track")
    cycles = boundary_cycles(track)
    for info in report.regions:
        if info.cusp_count > REGION_CUSP_CUTOFF:
            raise RegionCutoffError(
                f"region {info.index} has {info.cusp_count} cusps, "
                f"cutoff is {REGION_CUSP_CUTOFF}"
            )
    per_region = [
        _noncrossing_subsets(_chords(info.cusp_count)) for info in report.regions
    ]
    out = []
    for combo in itertools.product(*per_region):
        sel = [(ci, chord) for ci, sub in enumerate(combo) for chord in sub]
        ext = add_diagonals(track, cycles, sel)
        if not unrouted_branches(ext):
            out.append(ext)
    return tuple(out)


def positive_on_base(
    base: TrainTrack, ext: TrainTrack, weights: Mapping[str, Fraction]
) -> bool:
    """True iff the measure on the extension is strictly positive on every
    branch of the base track."""
    base_names = {b.name for b in base.branches}
    ext_names = {b.name for b in ext.branches}
    if not base_names <= ext_names:
        raise TrackStructureError(
            f"not an extension: missing branches {sorted(base_names - ext_names)}"
        )
    w = _weights_on(ext, weights)
    return all(w[name] > 0 for name in base_names)


# --- branch count bounds ----------------------------------------------------


@dataclass(frozen=True)
class BranchCountReport:
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


@dataclass(frozen=True, eq=False)
class FoldSchedule:
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
