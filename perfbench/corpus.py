"""Seeded input corpus for the benchmark.

Everything here is written with the benchmark's own code: matrix files,
track files (including the dual spine of the fan triangulation) and CLI
argument lists.  Nothing is imported from `curvebounds`, so the parent
commit and a change receive byte-identical inputs for the same seed.

A corpus is a list of `Job`s plus a dict of file names to bytes.  Job
argument lists refer to corpus files as `{work}/<name>` and to benchmark
scripts as `{bench}/<name>`; the runner substitutes real paths.  Each job
carries an `expect` dict that tells the checker (`oracle.py`) which family
the input came from and the parameters the family pins down.

Every workload mixes many small jobs (their time is mostly interpreter
start-up) with a fixed set of large jobs whose shapes do not depend on the
seed, so the cost of one pass over the job list is the same for every seed.
The seed picks the small jobs, relabels the large matrices and shuffles the
order of the pass; which jobs ask for `--json` is fixed by position, so the
output volume hardly depends on the seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

from oracle import ribbon_faces

@dataclass
class Job:
    name: str
    argv: list[str]
    expect: dict = field(default_factory=dict)


@dataclass
class Corpus:
    workload: str
    seed: int
    jobs: list[Job]
    files: dict[str, bytes]
    probes: list[Job]

    def digest(self) -> str:
        """SHA-256 over every file and every job, independent of where the
        corpus is written."""
        h = hashlib.sha256()
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name] + b"\0")
        for job in self.jobs + self.probes:
            h.update(json.dumps([job.name, job.argv, job.expect], sort_keys=True).encode())
        return h.hexdigest()


def _cli(*args: str) -> list[str]:
    return ["-m", "curvebounds.cli", *args]


# --- penner_sweep -----------------------------------------------------------

# Large jobs of fixed shape: compute-bound tables (penner best_k only) and
# memory- and byte-bound support dumps.
PENNER_LARGE = (
    ("bounds", 2, 150, True),
    ("bounds", 2, 130, False),
    ("bounds", 60, 140, True),
    ("penner", 120, True),
    ("penner", 100, True),
    ("penner", 80, True),
    ("penner", 90, False),
    ("penner", 70, True),
)

BAD_ARGS = (
    lambda r: ("bounds", "--genus-min", str(r.randint(5, 9)), "--genus-max", str(r.randint(2, 4))),
    lambda r: ("bounds", "--genus-min", str(r.randint(0, 1)), "--genus-max", str(r.randint(2, 6))),
    lambda r: ("bounds", "--genus-min", "2", "--genus-max", "4", "--punctures", str(-r.randint(1, 5))),
    lambda r: ("penner", "--genus", str(r.randint(-3, 1))),
    lambda r: ("penner", "--genus", "4", "--cap", str(-r.randint(0, 3))),
    lambda r: ("penner", "--genus", "x" + str(r.randint(0, 9))),
)


def _bounds_job(name: str, lo: int, hi: int, punctures: int, as_json: bool) -> Job:
    args = ["bounds", "--genus-min", str(lo), "--genus-max", str(hi)]
    if punctures:
        args += ["--punctures", str(punctures)]
    if as_json:
        args.append("--json")
    return Job(name, _cli(*args), {"kind": "bounds", "lo": lo, "hi": hi,
                                   "punctures": punctures, "json": as_json})


def _penner_job(name: str, genus: int, as_json: bool) -> Job:
    args = ["penner", "--genus", str(genus)] + (["--json"] if as_json else [])
    return Job(name, _cli(*args), {"kind": "penner", "genus": genus, "json": as_json})


def penner_sweep(rng: random.Random) -> tuple[list[Job], dict[str, bytes], list[Job]]:
    jobs = []
    for i, spec in enumerate(PENNER_LARGE):
        if spec[0] == "bounds":
            _, lo, hi, as_json = spec
            jobs.append(_bounds_job(f"large-bounds-{i}", lo, hi, 0, as_json))
        else:
            _, genus, as_json = spec
            jobs.append(_penner_job(f"large-penner-{i}", genus, as_json))
    for i in range(12):
        lo = rng.randint(2, 12)
        hi = rng.randint(lo, 12)
        jobs.append(_bounds_job(f"closed-{i}", lo, hi, 0, i % 2 == 0))
    for i in range(8):
        lo = rng.randint(0, 12)
        hi = rng.randint(lo, 12)
        jobs.append(_bounds_job(f"punctured-{i}", lo, hi, rng.randint(1, 8), i % 2 == 0))
    for i in range(14):
        jobs.append(_penner_job(f"penner-{i}", rng.randint(2, 12), i % 2 == 0))
    for i in range(4):
        args = rng.choice(BAD_ARGS)(rng)
        jobs.append(Job(f"usage-{i}", _cli(*args), {"kind": "usage"}))
    return jobs, {}, []


# --- matrix_files -----------------------------------------------------------


def _format_matrix(entries, real=None, surface=None) -> bytes:
    lines = [f"{len(entries)} {len(entries[0])}"]
    lines += [" ".join(str(x) for x in row) for row in entries]
    if real is not None:
        lines.append("real: " + " ".join(str(i) for i in sorted(real)))
    if surface is not None:
        lines.append(f"surface: {surface[0]} {surface[1]}")
    return ("\n".join(lines) + "\n").encode()


def _relabel(rng: random.Random, edges: dict[tuple[int, int], int], n: int):
    """Apply a random permutation to a weighted edge dict; returns the
    matrix rows and the permutation."""
    perm = list(range(n))
    rng.shuffle(perm)
    entries = [[0] * n for _ in range(n)]
    for (i, j), w in edges.items():
        entries[perm[i]][perm[j]] = w
    return entries, perm


def wielandt_matrix(rng: random.Random, n: int):
    """W_n: the cycle 0 -> 1 -> ... -> n-1 -> 0 plus the chord n-1 -> 1.
    Primitive with exponent (n-1)^2 + 1, the Wielandt bound."""
    edges = {(i, i + 1): rng.randint(1, 3) for i in range(n - 1)}
    edges[(n - 1, 0)] = rng.randint(1, 3)
    edges[(n - 1, 1)] = rng.randint(1, 3)
    return _relabel(rng, edges, n)[0]


def imprimitive_matrix(rng: random.Random, n: int, period: int, density: float = 0.12):
    """Irreducible with cyclic classes i mod `period`: every edge steps
    from class c to class c+1, and the Hamiltonian cycle 0 -> 1 -> ... ->
    n-1 -> 0 keeps it strongly connected (needs period | n)."""
    assert n % period == 0
    edges = {(i, (i + 1) % n): rng.randint(1, 3) for i in range(n)}
    for i in range(n):
        for j in range(n):
            if (j - i) % period == 1 % period and rng.random() < density:
                edges.setdefault((i, j), rng.randint(1, 3))
    return _relabel(rng, edges, n)[0]


def block_family(rng: random.Random, r: int, depth: int, n: int):
    """Transition matrix with real block W_r (girth q = r-1) and the other
    n - r branches in `depth` feeding layers: a layer-d row reaches layer
    d-1 and nothing closer to the real set, so the cover time is `depth`
    and the spread power is k = 2 r (r-1) + depth.

    Returns (entries, real index set)."""
    assert n - r >= depth >= 1 and r >= 2
    layer_of = list(range(1, depth + 1)) + [rng.randint(1, depth) for _ in range(n - r - depth)]
    layer_of.sort()
    # indices 0..r-1 are real (layer 0); r.. are infinitesimal by layer
    layers: dict[int, list[int]] = {0: list(range(r))}
    for off, d in enumerate(layer_of):
        layers.setdefault(d, []).append(r + off)
    edges = {(i, i + 1): rng.randint(1, 3) for i in range(r - 1)}
    edges[(r - 1, 0)] = rng.randint(1, 3)
    edges[(r - 1, 1)] = rng.randint(1, 3)
    for d in range(1, depth + 1):
        allowed = [j for e in range(d - 1, depth + 1) for j in layers[e]]
        for b in layers[d]:
            edges[(b, rng.choice(layers[d - 1]))] = rng.randint(1, 2)
            for j in allowed:
                if rng.random() < 0.08:
                    edges.setdefault((b, j), rng.randint(1, 2))
    entries, perm = _relabel(rng, edges, n)
    return entries, frozenset(perm[i] for i in range(r))


def random_small_matrix(rng: random.Random, n: int):
    density = rng.uniform(0.2, 0.7)
    return [[rng.randint(1, 3) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(n)]


# (dimension, period) of the large imprimitive inputs; (r, depth, n, genus)
# of the large block transitions.  Fixed so that pass cost is seed-free.
WIELANDT_DIMS = (30, 40, 50, 60)
IMPRIMITIVE = ((40, 2), (54, 3), (66, 2))
BLOCKS = ((14, 16, 44, 5), (18, 24, 60, 5))

# Malformed matrix texts; each must be rejected with exit status 2.
MALFORMED_MATRICES = (
    b"",
    b"# only a comment\n",
    b"3\n1 2 3\n",
    b"a b\n1\n",
    b"0 3\n",
    b"2 2\n1 1\n",
    b"2 2\n1 1\n1\n",
    b"2 2\n1 -1\n1 1\n",
    b"2 2\n1 x\n1 1\n",
    b"2 2\n1 1\n1 1\nbogus\n",
    b"2 3\n1 1 1\n1 1 1\n",
    b"2 2\n1 1\n0 1\nreal: 1\n",
    b"2 2\n1 1\n0 1\nsurface: 2 0\n",
    b"2 2\n1 1\n0 1\nreal: 1\nreal: 1\nsurface: 2 0\n",
    b"2 2\n1 1\n0 1\nreal:\nsurface: 2 0\n",
    b"2 2\n1 1\n0 1\nreal: 1\nsurface: 2\n",
    b"2 2\n1 1\n0 1\nreal: 7\nsurface: 2 0\n",
    b"2 2\n1 1\n1 1\nreal: 0\nsurface: 2 0\n",
    b"2 2\n1 1\n0 1\nreal: 1\nsurface: 1 0\n",
)

# Inputs that crash the CLI with a traceback as of commit 4f32c0b (a Unicode
# digit passes str.isdigit but not int(); non-UTF-8 bytes fail to decode).
# The documented contract asks for exit status 2; they are probed after
# every run and reported apart from the timed traffic.
CRASH_MATRICES = (
    ("unicode-digit", "2 ²\n1 1\n1 1\n".encode()),
    ("non-utf8", b"2 2\n1 1\n1 \xff\n"),
)
CRASH_TRACKS = (
    ("unicode-digit", "surface ² 0\nswitches s\nbranches\nx s:0:0 s:1:0 plain\nattach\n".encode()),
    ("non-utf8", b"surface 2 0\nswitches s\xfe\nbranches\n"),
)


def _pf_job(name: str, fname: str, as_json: bool, expect: dict) -> Job:
    args = ["pf", "--input", "{work}/" + fname] + (["--json"] if as_json else [])
    return Job(name, _cli(*args), dict(expect, kind="pf", file=fname, json=as_json))


def matrix_files(rng: random.Random) -> tuple[list[Job], dict[str, bytes], list[Job]]:
    files: dict[str, bytes] = {}
    jobs = []
    for n in WIELANDT_DIMS:
        fname = f"wielandt-{n}.matrix"
        files[fname] = _format_matrix(wielandt_matrix(rng, n))
        jobs.append(_pf_job(f"wielandt-{n}", fname, True,
                            {"family": "wielandt", "exponent": (n - 1) ** 2 + 1}))
    for i, (n, period) in enumerate(IMPRIMITIVE):
        fname = f"imprimitive-{n}-p{period}.matrix"
        files[fname] = _format_matrix(imprimitive_matrix(rng, n, period))
        jobs.append(_pf_job(f"imprimitive-{n}", fname, i % 2 == 0,
                            {"family": "imprimitive"}))
    for r, depth, n, genus in BLOCKS:
        fname = f"block-{n}-r{r}.matrix"
        entries, real = block_family(rng, r, depth, n)
        files[fname] = _format_matrix(entries, real, (genus, 0))
        jobs.append(_pf_job(f"block-{n}", fname, True,
                            {"family": "block", "k": 2 * r * (r - 1) + depth}))
    for i in range(16):
        fname = f"small-{i}.matrix"
        files[fname] = _format_matrix(random_small_matrix(rng, rng.randint(1, 8)))
        jobs.append(_pf_job(f"small-{i}", fname, i % 2 == 0, {"family": "small"}))
    for i in range(5):
        r = rng.randint(2, 4)
        depth = rng.randint(1, 3)
        punctures = rng.choice((0, 0, 1))
        genus = 3 if punctures == 0 else 2
        n = r + depth + rng.randint(0, 3)
        fname = f"small-block-{i}.matrix"
        entries, real = block_family(rng, r, depth, n)
        files[fname] = _format_matrix(entries, real, (genus, punctures))
        jobs.append(_pf_job(f"small-block-{i}", fname, i % 2 == 0,
                            {"family": "block", "k": 2 * r * (r - 1) + depth}))
    for i, text in enumerate(rng.sample(MALFORMED_MATRICES, 10)):
        fname = f"malformed-{i}.matrix"
        files[fname] = text
        jobs.append(_pf_job(f"malformed-{i}", fname, i % 2 == 0, {"family": "malformed"}))
    jobs.append(_pf_job("missing-file", "no-such.matrix", False, {"family": "malformed"}))
    probes = []
    for name, text in CRASH_MATRICES:
        fname = f"crash-{name}.matrix"
        files[fname] = text
        probes.append(_pf_job(f"crash-{name}", fname, False, {"family": "malformed"}))
    return jobs, files, probes


# --- track_files ------------------------------------------------------------


def fan_spine(genus: int, corners: tuple[int, ...]):
    """Dual spine of the fan triangulation of the 4g-gon a b a' b' ...

    Polygon edge positions 4m <-> 4m+2 and 4m+1 <-> 4m+3 are glued (edge
    named s<lower position>); the fan from vertex 0 adds diagonals q1 ..
    q_{4g-3}.  Triangle t has sides (left, bottom, right) =
    (q_t or s0, edge t+1, q_{t+1} or edge 4g-1) and becomes trivalent switch
    t<t>.  corners[t] picks the cusp: the two sides after it in this cyclic
    order sit on side 0 (slots 0, 1), the third on side 1.  Branches are
    listed q's first, then s's, each by number.

    Returns (switches, branches) with branches as
    (name, (switch, side, slot), (switch, side, slot)).
    """
    n = 4 * genus
    glue = {}
    for m in range(genus):
        glue[4 * m] = glue[4 * m + 2] = f"s{4 * m}"
        glue[4 * m + 1] = glue[4 * m + 3] = f"s{4 * m + 1}"
    ends: dict[str, list[tuple[str, int, int]]] = {}
    for t in range(n - 2):
        sides = (
            f"q{t}" if t > 0 else glue[0],
            glue[t + 1],
            f"q{t + 1}" if t < n - 3 else glue[n - 1],
        )
        c = corners[t]
        for offset, (side, slot) in enumerate(((0, 0), (0, 1), (1, 0))):
            ends.setdefault(sides[(c + offset) % 3], []).append((f"t{t}", side, slot))
    names = sorted(ends, key=lambda s: (s[0], int(s[1:])))
    branches = [(name, ends[name][0], ends[name][1], "plain") for name in names]
    return [f"t{t}" for t in range(n - 2)], branches


def format_track(surface, switches, branches, attach) -> bytes:
    lines = [f"surface {surface[0]} {surface[1]}", "switches " + " ".join(switches), "branches"]
    for name, e0, e1, tag in branches:
        lines.append(f"{name} {e0[0]}:{e0[1]}:{e0[2]} {e1[0]}:{e1[1]}:{e1[2]} {tag}")
    lines.append("attach")
    lines += [f"{i} {g} {p}" for i, (g, p) in enumerate(attach)]
    return ("\n".join(lines) + "\n").encode()


SIDE_SHAPES = ((1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (3, 2), (2, 3))


def random_small_track(rng: random.Random):
    """Random slot pairing on 1-3 switches; returns (switches, branches)."""
    while True:
        count = rng.randint(1, 3)
        shapes = [rng.choice(SIDE_SHAPES) for _ in range(count)]
        slots = [(f"v{s}", side, i)
                 for s, shape in enumerate(shapes)
                 for side in (0, 1) for i in range(shape[side])]
        if len(slots) % 2 or len(slots) > 16:
            continue
        rng.shuffle(slots)
        tags = ("plain", "plain", "real", "infinitesimal")
        branches = [(f"b{i}", slots[2 * i], slots[2 * i + 1], rng.choice(tags))
                    for i in range(len(slots) // 2)]
        return [f"v{s}" for s in range(count)], branches


# (genus, corner pattern) of the large spines.  Alternating corners give a
# recurrent spine (one large exact LP); all-zero corners do not.
SPINES = ((10, "alt"), (15, "alt"), (20, "alt"), (56, "zero"), (60, "zero"), (64, "zero"))

# Corner patterns of the genus-2 and genus-3 spines whose diagonal
# extensions are pinned: (genus, corners, chord selection, expected count).
EXTENSIONS = (
    (2, (0, 0, 0, 0, 1, 0), (), 45),
    (2, (0, 0, 0, 0, 1, 0), ((0, 2),), 11),
    (2, (0, 0, 0, 0, 1, 0), ((0, 2), (0, 4)), 3),
    (3, (0, 0, 0, 0, 0, 0, 0, 0, 1, 0), ((0, 5), (0, 2)), 495),
)

MALFORMED_TRACKS = (
    b"switches s\nbranches\nx s:0:0 s:1:0 plain\nattach\n",
    b"surface 2\nswitches s\n",
    b"surface 2 0\nbranches\nx s:0:0 s:1:0 plain\n",
    b"surface 2 0\nswitches s\nattach\n",
    b"surface 2 0\nswitches s\nbranches\nx s:0:0 plain\n",
    b"surface 2 0\nswitches s\nbranches\nx s:0 s:1:0 plain\n",
    b"surface 2 0\nswitches s\nbranches\nx s:0:0 s:1:a plain\n",
    b"surface 2 0\nsurface 2 0\nswitches s\n",
    b"surface 2 0\nswitches s\nbranches\nx s:0:0 s:1:0 plain\nattach\n1 0 0\n",
    b"surface 2 0\nswitches s\nbranches\nx s:0:0 s:1:0 plain\nattach\n0 0 0\n0 0 0\n",
    b"surface 2 0\nstray line\n",
)

# Parse cleanly but describe no valid track: the CLI reports a structure
# failure with exit status 1.
BROKEN_TRACKS = (
    b"surface 2 0\nswitches s\nbranches\nx s:0:0 s:1:0 plain\nattach\n",
    b"surface 2 0\nswitches s\nbranches\nx s:0:0 s:1:0 plain\ny s:0:0 s:1:1 plain\nattach\n",
    b"surface 2 0\nswitches s\nbranches\nx s:0:0 s:1:0 plain\ny s:0:1 u:1:1 plain\nattach\n",
    b"surface 2 0\nswitches s\nbranches\nx s:0:0 s:1:0 odd\ny s:0:1 s:1:1 plain\nattach\n",
    b"surface 2 0\nswitches s\nbranches\nx s:0:0 s:2:0 plain\nattach\n",
    b"surface 2 0\nswitches s s\nbranches\nx s:0:0 s:1:0 plain\nattach\n",
)


def _track_job(name: str, path: str, as_json: bool, expect: dict) -> Job:
    args = ["track", "--input", path] + (["--json"] if as_json else [])
    return Job(name, _cli(*args), dict(expect, kind="track", json=as_json))


def track_files(rng: random.Random) -> tuple[list[Job], dict[str, bytes], list[Job]]:
    files: dict[str, bytes] = {}
    jobs = []
    for genus, pattern in SPINES:
        count = 4 * genus - 2
        corners = tuple(t % 2 for t in range(count)) if pattern == "alt" else (0,) * count
        switches, branches = fan_spine(genus, corners)
        fname = f"spine-{genus}-{pattern}.track"
        files[fname] = format_track((genus, 0), switches, branches, [(0, 0)])
        jobs.append(_track_job(f"spine-{genus}-{pattern}", "{work}/" + fname, True,
                               {"file": fname}))
    for genus, corners, chords, count in EXTENSIONS:
        switches, branches = fan_spine(genus, corners)
        fname = f"ext-spine-{genus}.track"
        files[fname] = format_track((genus, 0), switches, branches, [(0, 0)])
        argv = ["{bench}/libjob.py", "{work}/" + fname, str(genus), json.dumps(chords)]
        jobs.append(Job(f"extensions-{genus}-{len(chords)}", argv,
                        {"kind": "extensions", "count": count, "genus": genus,
                         "chords": [list(c) for c in chords]}))
    for genus in (2, 3):
        path = f"src/curvebounds/data/genus{genus}_maximal.track"
        jobs.append(_track_job(f"shipped-{genus}", path, genus == 2,
                               {"shipped": path}))
    for i in range(18):
        switches, branches = random_small_track(rng)
        fname = f"small-{i}.track"
        # one disk per boundary cycle; mostly Euler-consistent, sometimes not
        faces = len(ribbon_faces(branches))
        chi = len(switches) - len(branches) + faces
        if chi <= 2 and rng.random() < 0.8:
            surface = ((2 - chi) // 2, 0) if chi % 2 == 0 else ((1 - chi) // 2, 1)
        else:
            surface = (rng.randint(2, 4), 0)
        attach = [(0, 0)] * faces
        if rng.random() < 0.15:
            attach = attach[:-1] if faces > 1 else attach + [(0, 0)]
        files[fname] = format_track(surface, switches, branches, attach)
        jobs.append(_track_job(f"small-{i}", "{work}/" + fname, i % 2 == 0,
                               {"file": fname}))
    for i, text in enumerate(rng.sample(MALFORMED_TRACKS, 6)):
        fname = f"malformed-{i}.track"
        files[fname] = text
        jobs.append(_track_job(f"malformed-{i}", "{work}/" + fname, i % 2 == 0,
                               {"file": fname, "malformed": True}))
    for i, text in enumerate(rng.sample(BROKEN_TRACKS, 3)):
        fname = f"broken-{i}.track"
        files[fname] = text
        jobs.append(_track_job(f"broken-{i}", "{work}/" + fname, i % 2 == 0,
                               {"file": fname, "broken": True}))
    probes = []
    for name, text in CRASH_TRACKS:
        fname = f"crash-{name}.track"
        files[fname] = text
        probes.append(_track_job(f"crash-{name}", "{work}/" + fname, False,
                                 {"file": fname, "malformed": True}))
    return jobs, files, probes


BUILDERS = {"penner_sweep": penner_sweep, "matrix_files": matrix_files, "track_files": track_files}
WORKLOADS = tuple(BUILDERS)


def build(workload: str, seed: int) -> Corpus:
    """The corpus of `workload` for `seed`; the pass order is shuffled too."""
    rng = random.Random(f"{workload}:{seed}")
    jobs, files, probes = BUILDERS[workload](rng)
    rng.shuffle(jobs)
    return Corpus(workload, seed, jobs, files, probes)
