"""Independent output checker.

`check(job, rc, out, err, root, work)` returns None when a job's exit status and output
agree with what this module computes on its own, else a one-line reason.
Nothing here imports `curvebounds`: bound rows come from the closed forms,
matrix verdicts from bitmask reachability on the parsed file, recurrence
from a strongly-connected-component pass over the dart graph, and the
boundary cycles of a track from its own ribbon traversal.

Text reports are checked by the values they state, not byte for byte, so a
report may gain lines without failing the check.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from pathlib import Path

FLM_NUMERATOR = 4.0 * math.log(2.0 + math.sqrt(3.0))


def frac(p: int, q: int) -> str:
    x = Fraction(p, q)
    return f"{x.numerator}/{x.denominator}"


# --- bounds and penner ------------------------------------------------------


def certified_k(genus: int) -> int:
    """Largest certified iterate of the support trace.

    The rotation-chain argument certifies (g-1) + floor((g-1)/2) (g+1); for
    even genus the trace certifies one iterate more (pinned from the library
    as of commit 4f32c0b, g = 2..150)."""
    k = (genus - 1) + ((genus - 1) // 2) * (genus + 1)
    return k + (genus % 2 == 0)


def bound_row(genus: int, punctures: int) -> dict:
    if 3 * genus - 3 + punctures < 2:
        return {"genus": genus, "punctures": punctures, "error": "sporadic"}
    chi = 2 - 2 * genus - punctures
    coeff = 162 if punctures == 0 else 18
    row = {"genus": genus, "punctures": punctures,
           "lower": frac(1, coeff * chi * chi + 6 * abs(chi))}
    if punctures == 0:
        k = certified_k(genus)
        row["upper_closed"] = frac(4, genus * genus + genus - 4)
        row["flm_upper_float64"] = FLM_NUMERATOR / (genus * math.log(genus - 0.5))
        row["penner_k"] = k
        row["penner_upper"] = frac(2, k)
    if genus == 2 and punctures >= 5:
        row["genus2_upper"] = frac(20, punctures - 4)
    return row


def _same_row(got: dict, want: dict) -> bool:
    for key, value in want.items():
        if key == "flm_upper_float64":
            if not isinstance(got.get(key), float) or abs(got[key] - value) > 1e-12 * value:
                return False
        elif got.get(key) != value:
            return False
    return True


TEXT_KEYS = {"lower": "lower", "upper": "upper_closed", "flm": "flm_upper_float64",
             "penner_k": "penner_k", "penner": "penner_upper", "genus2_punctured": "genus2_upper"}


def check_bounds(job, rc, out, err, root: Path, work: Path) -> str | None:
    e = job.expect
    rows = [bound_row(g, e["punctures"]) for g in range(e["lo"], e["hi"] + 1)]
    want_rc = 1 if any("error" in r for r in rows) else 0
    if rc != want_rc:
        return f"exit {rc}, expected {want_rc}"
    if e["json"]:
        got = json.loads(out)["rows"]
        if len(got) != len(rows):
            return "row count"
        for g, w in zip(got, rows):
            if not _same_row(g, w):
                return f"row g={w['genus']} differs"
        return None
    lines = out.decode().splitlines()
    if len(lines) != len(rows):
        return "row count"
    for line, w in zip(lines, rows):
        if not line.startswith(f"g={w['genus']} n={w['punctures']} "):
            return f"row label {line!r}"
        if "error" in w:
            if f"error: {w['error']}" not in line:
                return f"row g={w['genus']} error marker"
            continue
        cells = dict(c.split("=", 1) for c in line.split() if "=" in c)
        got = {TEXT_KEYS[k]: v for k, v in cells.items() if k in TEXT_KEYS}
        for key, value in w.items():
            if key in ("genus", "punctures"):
                continue
            if key == "flm_upper_float64":
                ok = abs(float(got.get(key, "nan")) - value) < 1e-9
            else:
                ok = got.get(key) == str(value)
            if not ok:
                return f"row g={w['genus']} {key}"
    return None


def check_penner(job, rc, out, err, root: Path, work: Path) -> str | None:
    g = job.expect["genus"]
    k = certified_k(g)
    full = {f"{f}{i}" for f in "abc" for i in range(1, g + 1)}
    if rc != 0:
        return f"exit {rc}, expected 0"
    if job.expect["json"]:
        doc = json.loads(out)
        supports = [set(s) for s in doc["supports"]]
        checks = (
            doc["genus"] == g and doc["cap"] == 3 * g * g,
            doc["best_k"] == k and doc["bound"] == frac(2, k),
            doc["upper_closed"] == frac(4, g * g + g - 4) and doc["pass"] is True,
            max(c[0] for c in doc["certificates"]) == k,
        )
        if not all(checks):
            return "best_k, bound or verdict"
    else:
        lines = out.decode().splitlines()
        if lines[0] != f"penner trace, genus {g}, cap {3 * g * g}":
            return "header"
        supports = [set(m.group(1).split()) for m in
                    (re.match(r"S_\d+ = \{(.*)\}$", line) for line in lines) if m]
        if f"best_k={k} bound={frac(2, k)}" not in lines or not lines[-1].endswith("PASS"):
            return "best_k, bound or verdict"
    if len(supports) <= k or supports[0] != {f"a{g}"}:
        return "support count or S_0"
    if g >= 3 and (supports[g - 1] != {"a1"} or supports[g] != {f"a{g}", f"b{g}", f"c{g}"}):
        return "support checkpoints"
    if supports[-1] != full or supports[-2] != full:
        return "trace does not end saturated"
    return None


def check_usage(job, rc, out, err, root: Path, work: Path) -> str | None:
    if rc != 2 or out or "error:" not in err:
        return f"exit {rc}, expected 2 with an error message"
    return None


# --- matrices ---------------------------------------------------------------


def parse_matrix(text: str):
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("#")]
    n = int(lines[0].split()[0])
    entries = [[int(x) for x in ln.split()] for ln in lines[1:n + 1]]
    real = surface = None
    for ln in lines[n + 1:]:
        key, _, rest = ln.partition(":")
        if key == "real":
            real = [int(x) for x in rest.split()]
        elif key == "surface":
            surface = tuple(int(x) for x in rest.split())
    return entries, real, surface


def _masks(entries, idx=None) -> list[int]:
    idx = list(range(len(entries))) if idx is None else list(idx)
    return [sum(1 << a for a, j in enumerate(idx) if entries[i][j]) for i in idx]


def _reach(adj: list[int], start_mask: int) -> int:
    seen = start_mask
    frontier = start_mask
    while frontier:
        frontier = _step(frontier, adj) & ~seen
        seen |= frontier
    return seen


def irreducible(adj: list[int]) -> bool:
    n = len(adj)
    if n == 1:
        return adj[0] == 1
    full = (1 << n) - 1
    radj = [sum(1 << i for i in range(n) if adj[i] >> j & 1) for j in range(n)]
    return _reach(adj, adj[0] | 1) == full and _reach(radj, radj[0] | 1) == full


def girth(adj: list[int]) -> int:
    """Length of the shortest directed cycle (BFS from every node)."""
    best = len(adj) + 1
    for s in range(len(adj)):
        frontier, seen, d = adj[s], 0, 1
        while frontier and d < best:
            if frontier >> s & 1:
                best = d
                break
            seen |= frontier
            frontier = _step(frontier, adj) & ~seen
            d += 1
    return best


def period(adj: list[int]) -> int:
    """gcd of level[u] + 1 - level[v] over edges u -> v of a strongly
    connected digraph, with BFS levels from node 0."""
    level = {0: 0}
    order = [0]
    for u in order:
        for v in range(len(adj)):
            if adj[u] >> v & 1 and v not in level:
                level[v] = level[u] + 1
                order.append(v)
    p = 0
    for u in range(len(adj)):
        for v in range(len(adj)):
            if adj[u] >> v & 1:
                p = math.gcd(p, level[u] + 1 - level[v])
    return p


def brute_exponent(adj: list[int]) -> int | None:
    """First s <= n^2 - 2n + 2 with every entry of A^s positive, by
    stepwise boolean products (reach sets grow one step at a time)."""
    n = len(adj)
    full = (1 << n) - 1
    rows = list(adj)
    for s in range(1, n * n - 2 * n + 3):
        if all(r == full for r in rows):
            return s
        rows = [_step(r, adj) for r in rows]
    return None


def _step(row: int, adj: list[int]) -> int:
    """Successors of the node set `row`."""
    out = 0
    for i in range(len(adj)):
        if row >> i & 1:
            out |= adj[i]
    return out


def cover_depth(adj: list[int], real: list[int]) -> int:
    n = len(adj)
    covered = sum(1 << i for i in real)
    depth = 0
    while covered != (1 << n) - 1:
        grown = covered | sum(1 << b for b in range(n) if adj[b] & covered)
        if grown == covered:
            raise ValueError("a branch is never covered by the real set")
        covered = grown
        depth += 1
    return depth


def expected_pf(expect: dict, text: str) -> dict:
    entries, real, surface = parse_matrix(text)
    adj = _masks(entries)
    irr = irreducible(adj)
    family = expect["family"]
    if family == "wielandt":
        exponent = expect["exponent"]
    elif family in ("imprimitive", "block"):
        if irr and period(adj) == 1:
            raise ValueError("generated family is primitive")
        exponent = None
    else:
        exponent = brute_exponent(adj)
    want = {"dim": len(entries), "irreducible": irr, "q": girth(adj) if irr else None,
            "primitivity_exponent": exponent}
    if real is not None:
        r = len(real)
        rq = girth(_masks(entries, sorted(real)))
        k = 2 * r * rq + cover_depth(adj, real)
        if k != expect["k"]:
            raise ValueError(f"generated block has k={k}, family says {expect['k']}")
        chi = 2 - 2 * surface[0] - surface[1]
        k_bound = (162 if surface[1] == 0 else 18) * chi * chi
        want["block"] = {"r": r, "q": rq, "cover_time": k - 2 * r * rq, "k": k,
                         "k_bound": k_bound, "k_ok": k < k_bound}
    return want


def check_pf(job, rc, out, err, root: Path, work: Path) -> str | None:
    e = job.expect
    if e["family"] == "malformed":
        return check_malformed(rc, out, err)
    want = expected_pf(e, (work / e["file"]).read_text())
    want_rc = 0 if want.get("block", {}).get("k_ok", True) else 1
    if rc != want_rc:
        return f"exit {rc}, expected {want_rc}"
    if e["json"]:
        got = json.loads(out)
        for key, value in want.items():
            if key == "block":
                if any(got["block"].get(k) != v for k, v in value.items()):
                    return "block analysis"
            elif got.get(key) != value:
                return f"{key}: got {got.get(key)}, expected {value}"
        return None
    text = out.decode()
    exp = want["primitivity_exponent"]
    stated = {
        "irreducible": f"irreducible: {'yes' if want['irreducible'] else 'no'}",
        "q": f"q (least power with a positive diagonal entry): {want['q']}",
        "primitivity_exponent": "primitivity exponent: "
        + (str(exp) if exp is not None else "not primitive"),
    }
    if "block" in want:
        b = want["block"]
        stated["r"] = f"real branches r={b['r']}, restriction q={b['q']}"
        stated["cover_time"] = f"cover time i={b['cover_time']}"
        stated["k"] = f"k = 2rq+i = {b['k']} < "
    for key, line in stated.items():
        if line not in text:
            return f"{key} line missing"
    return None


def check_malformed(rc, out, err) -> str | None:
    if rc != 2 or out or not err.startswith("error:"):
        return f"exit {rc}, expected 2 with a one-line error"
    return None


# --- tracks -----------------------------------------------------------------


def parse_track(text: str):
    surface = None
    switches: list[str] = []
    branches = []
    attach = []
    section = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "surface":
            surface = (int(parts[1]), int(parts[2]))
        elif parts[0] in ("switches", "branches", "attach"):
            section = parts[0]
            if section == "switches":
                switches += parts[1:]
        elif section == "switches":
            switches += parts
        elif section == "branches":
            ends = [tuple(int(x) if i else x for i, x in enumerate(p.split(":")))
                    for p in parts[1:3]]
            branches.append((parts[0], ends[0], ends[1], parts[3]))
        else:
            attach.append((int(parts[1]), int(parts[2])))
    return surface, switches, branches, attach


def ribbon_faces(branches) -> list[int]:
    """Boundary cycles of the ribbon neighbourhood, as cusp counts.

    Each branch end carries a top (0) and bottom (1) sheet.  Along a branch,
    sheets join straight when the two ends sit on opposite switch sides and
    cross over when they sit on the same side.  At a switch, the top sheets
    of the two slot-0 ends join, the bottom sheets of the two last ends
    join, and within one side the bottom of slot i joins the top of slot
    i+1 at a cusp.  Cycles are listed by their least point, where point
    (branch, end, sheet) is numbered (branch * 2 + end) * 2 + sheet.
    """
    side_slots: dict[tuple[str, int], dict[int, tuple[int, int]]] = {}
    for b, (_, e0, e1, _) in enumerate(branches):
        for e, (sw, side, slot) in enumerate((e0, e1)):
            side_slots.setdefault((sw, side), {})[slot] = (b, e)

    def point(b: int, e: int, sheet: int) -> int:
        return (b * 2 + e) * 2 + sheet

    along = {}
    for b, (_, e0, e1, _) in enumerate(branches):
        flip = 0 if e0[1] != e1[1] else 1
        for sheet in (0, 1):
            along[point(b, 0, sheet)] = point(b, 1, sheet ^ flip)
            along[point(b, 1, sheet ^ flip)] = point(b, 0, sheet)
    across = {}
    cusp = set()
    for sw in {sw for sw, _ in side_slots}:
        s0 = [side_slots[(sw, 0)][i] for i in sorted(side_slots[(sw, 0)])]
        s1 = [side_slots[(sw, 1)][i] for i in sorted(side_slots[(sw, 1)])]
        pairs = [(point(*s0[0], 0), point(*s1[0], 0)), (point(*s0[-1], 1), point(*s1[-1], 1))]
        for ends in (s0, s1):
            for i in range(len(ends) - 1):
                pair = (point(*ends[i], 1), point(*ends[i + 1], 0))
                pairs.append(pair)
                cusp.add(pair)
                cusp.add(pair[::-1])
        for a, b in pairs:
            across[a] = b
            across[b] = a
    seen = set()
    faces = []
    for start in sorted(along):
        if start in seen:
            continue
        cusps = 0
        cur = start
        while True:
            nxt = across[cur]
            seen.update((cur, nxt))
            cusps += (cur, nxt) in cusp
            cur = along[nxt]
            if cur == start:
                break
        faces.append(cusps)
    return faces


def scc_recurrent(branches) -> bool:
    """Every branch lies on a closed smooth route, i.e. one of its two
    darts lies in a strongly connected component with a cycle.

    Dart 2b + e travels branch b and arrives at end e; from there a route
    continues into any end on the opposite side of that switch and arrives
    at that branch's other end.  Iterative Tarjan."""
    at: dict[tuple[str, int], list[tuple[int, int]]] = {}
    for b, (_, e0, e1, _) in enumerate(branches):
        at.setdefault((e0[0], e0[1]), []).append((b, 0))
        at.setdefault((e1[0], e1[1]), []).append((b, 1))
    ends = [(e0, e1) for _, e0, e1, _ in branches]
    succ = []
    for b in range(len(branches)):
        for e in (0, 1):
            sw, side, _ = ends[b][e]
            succ.append([2 * b2 + (1 - e2) for b2, e2 in at.get((sw, 1 - side), [])])
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    cyclic = [False] * n
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        work = [(root, 0)]
        while work:
            v, i = work.pop()
            if i == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            if i < len(succ[v]):
                work.append((v, i + 1))
                w = succ[v][i]
                if index[w] < 0:
                    work.append((w, 0))
                elif on_stack[w]:
                    low[v] = min(low[v], index[w])
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                if len(comp) > 1 or v in succ[v]:
                    for w in comp:
                        cyclic[w] = True
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return all(cyclic[2 * b] or cyclic[2 * b + 1] for b in range(len(branches)))


def balanced(branches, weights: dict[str, Fraction]) -> bool:
    net: dict[str, Fraction] = {}
    for name, e0, e1, _ in branches:
        for sw, side, _ in (e0, e1):
            net[sw] = net.get(sw, 0) + (weights[name] if side == 0 else -weights[name])
    return all(v == 0 for v in net.values())


def _label(cusps: int, genus: int, punctures: int) -> str:
    if genus == 0 and punctures == 0:
        return f"polygon({cusps})"
    if genus == 0 and punctures == 1:
        return f"punctured_polygon({cusps})"
    return f"other(genus={genus}, punctures={punctures})"


def expected_track(text: str) -> dict:
    surface, switches, branches, attach = parse_track(text)
    faces = ribbon_faces(branches)
    chi = 2 - 2 * surface[0] - surface[1]
    euler = len(faces) == len(attach) and (
        len(switches) - len(branches) + sum(1 - 2 * g - p for g, p in attach) == chi)
    valence: dict[str, int] = {}
    for _, e0, e1, _ in branches:
        for sw in (e0[0], e1[0]):
            valence[sw] = valence.get(sw, 0) + 1
    real = sum(1 for b in branches if b[3] == "real")
    want = {
        "checks": {
            "structure": True,
            "euler": euler,
            "recurrent": scc_recurrent(branches),
            "branch_total": len(branches) <= 9 * abs(chi) - 3 * surface[1],
            "real_count": real < 3 * abs(chi) - 3,
            "cusp_count": sum(v - 2 for v in valence.values()) <= 6 * abs(chi),
        },
        "branches": branches,
    }
    if euler:
        want["regions"] = [_label(c, g, p) for c, (g, p) in zip(faces, attach)]
        want["large"] = all(g == 0 and p <= 1 for g, p in attach)
        want["maximal"] = want["large"] and all(
            (p == 0 and c == 3) or (p == 1 and c == 1) for c, (_, p) in zip(faces, attach))
    return want


def check_track(job, rc, out, err, root: Path, work: Path) -> str | None:
    e = job.expect
    if e.get("malformed"):
        return check_malformed(rc, out, err)
    if e.get("broken"):
        if rc != 1:
            return f"exit {rc}, expected 1"
        if e["json"]:
            return None if json.loads(out)["checks"] == {"structure": False} else "checks"
        return None if "structure (valences, sides, slots): FAIL" in out.decode() else "verdict"
    path = root / e["shipped"] if e.get("shipped") else work / e["file"]
    want = expected_track(path.read_text())
    checks = want["checks"]
    want_rc = 0 if all(checks.values()) else 1
    if rc != want_rc:
        return f"exit {rc}, expected {want_rc}"
    if not e["json"]:
        text = out.decode()
        verdict = "PASS" if checks["recurrent"] else "FAIL"
        if f"recurrence: {verdict}" not in text:
            return "recurrence verdict"
        if f"euler consistency: {'PASS' if checks['euler'] else 'FAIL'}" not in text:
            return "euler verdict"
        return None
    got = json.loads(out)
    if got["checks"] != checks:
        return f"checks {got['checks']} != {checks}"
    for key in ("regions", "large", "maximal"):
        if key in want and got.get(key) != want[key]:
            return key
    witness = got["witness"]
    if checks["recurrent"]:
        names = {b[0] for b in want["branches"]}
        weights = {k: Fraction(v) for k, v in witness.items()}
        if set(weights) != names or min(weights.values()) < 1:
            return "witness keys or positivity"
        if not balanced(want["branches"], weights):
            return "witness not balanced"
    elif witness is not None:
        return "witness for a non-recurrent track"
    return None


def check_extensions(job, rc, out, err, root: Path, work: Path) -> str | None:
    if rc != 0:
        return f"exit {rc}, expected 0"
    got = json.loads(out)
    count = job.expect["count"]
    if got["extensions"] != count or got["distinct"] != count:
        return f"{got['extensions']} extensions ({got['distinct']} distinct), expected {count}"
    return None


def check(job, rc: int, out: bytes, err: str, root: Path, work: Path) -> str | None:
    """None when the job's result is right, else the reason it is not.
    Never raises: a checker error is reported as a failed job."""
    if "Traceback" in err:
        return "traceback: " + err.strip().splitlines()[-1][:120]
    checker = {"bounds": check_bounds, "penner": check_penner, "usage": check_usage,
               "pf": check_pf, "track": check_track, "extensions": check_extensions}
    try:
        return checker[job.expect["kind"]](job, rc, out, err, root, work)
    except Exception as exc:  # a malformed report must count, not crash the run
        return f"check error ({type(exc).__name__}: {exc})"
