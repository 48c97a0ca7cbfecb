"""curvebounds benchmark: CLI job mixes run as a closed loop with one client.

    python3 perfbench/run.py --workload penner_sweep --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  The run builds the seeded corpus of the
workload, then runs passes over the workload's job list, one
`python -m curvebounds.cli` subprocess at a time, until the next pass would
end after `--seconds`.  Spawns of `python -c "import curvebounds.cli"`
before the first pass and after each pass give `setup_s`.  Every job's exit
status and output are checked by `oracle.py`.

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics; with `--trace 1` passes alternate between untraced and
traced (`traced_child.py`), and the JSON holds the per-layer metrics
computed from the traced passes.  Human-readable lines come before it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import oracle  # noqa: E402

SETUP_SPAWNS = 5  # before the first pass and after each pass
JOB_TIMEOUT_S = 60.0
MIN_TAIL_SAMPLES = 10

END_TO_END = {
    "batch_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "output_mb": "MB",
    "setup_s": "s",
}

# Per-layer metrics: span name -> metric (self time summed over one pass).
SPAN_METRICS = {
    "cli.main": "cli.main.self_ms",
    "fileio.load_matrix": "fileio.load_matrix.ms",
    "fileio.load_track": "fileio.load_track.ms",
    "fileio.track_to_json": "fileio.track_to_json.ms",
    "penner.trace": "penner.trace.ms",
    "penner.supports": "penner.supports.ms",
    "pfmatrix.primitivity_exponent": "pfmatrix.primitivity_exponent.ms",
    "pfmatrix.is_irreducible": "pfmatrix.is_irreducible.ms",
    "pfmatrix.min_positive_diagonal_power": "pfmatrix.min_positive_diagonal_power.ms",
    "pfmatrix.BlockTransition": "pfmatrix.BlockTransition.ms",
    "pfmatrix.cover_time": "pfmatrix.cover_time.ms",
    "pfmatrix.full_spread_power": "pfmatrix.full_spread_power.ms",
    "traintrack.TrainTrack": "traintrack.TrainTrack.ms",
    "traintrack.is_recurrent": "traintrack.is_recurrent.ms",
    "traintrack.boundary_cycles": "traintrack.boundary_cycles.ms",
    "traintrack.classify_regions": "traintrack.classify_regions.ms",
    "traintrack.add_diagonals": "traintrack.add_diagonals.ms",
    "traintrack.enumerate_diagonal_extensions": "traintrack.enumerate_diagonal_extensions.ms",
}

PER_LAYER = {
    "import.numpy_ms": "ms",
    "import.curvebounds_ms": "ms",
    "import.total_ms": "ms",
    "cli.stdout_bytes": "B",
    "cli.tracebacks": "count",
    "fileio.input_bytes": "B",
    "fileio.errors": "count",
    "surfaces.ms": "ms",
    "penner.trace.calls": "count",
    "penner.trace.iterations": "count",
    "pfmatrix.primitivity_exponent.bool_products": "count",
    "pfmatrix.is_irreducible.calls": "count",
    "pfmatrix.full_spread_power.k_sum": "count",
    "pfmatrix.errors": "count",
    "traintrack.is_recurrent.calls": "count",
    "traintrack.is_recurrent.branches": "count",
    "traintrack.enumerate_diagonal_extensions.tried": "count",
    "traintrack.enumerate_diagonal_extensions.accepted": "count",
    "trace.accounted_share": "share",
    "trace.overhead_share": "share",
    "trace.jobs": "count",
    **{m: "ms" for m in SPAN_METRICS.values()},
}


@dataclass
class Result:
    job: corpus.Job
    wall_s: float
    rss_kb: int
    rc: int
    out_path: Path
    out_bytes: int
    err: str
    spans_path: Path | None = None
    failure: str | None = None


class Runner:
    """Spawns jobs one at a time and keeps their results."""

    def __init__(self, root: Path, work: Path) -> None:
        self.root = root
        self.work = work
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        self.verdicts: dict[tuple, str | None] = {}

    def argv(self, job: corpus.Job) -> list[str]:
        return [a.replace("{work}", str(self.work)).replace("{bench}", str(BENCH)) for a in job.argv]

    def spawn(self, argv: list[str], out_path: Path, err_path: Path) -> tuple[float, int, int]:
        """(wall seconds from spawn to exit, ru_maxrss in KiB, exit code)."""
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err, env=self.env, cwd=self.root)
            timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss, proc.returncode

    def run(self, job: corpus.Job, traced: bool, slot: str) -> Result:
        out_path = self.work / f"{slot}.out"
        err_path = self.work / f"{slot}.err"
        argv = self.argv(job)
        spans = None
        if traced:
            spans = self.work / f"{slot}.spans.json"
            argv = ["-X", "importtime", str(BENCH / "traced_child.py"), str(spans), job.name] + argv
        wall, rss, rc = self.spawn(argv, out_path, err_path)
        err = err_path.read_text(errors="replace")
        return Result(job, wall, rss, rc, out_path, out_path.stat().st_size, err, spans)

    def check(self, res: Result) -> None:
        err = "".join(line + "\n" for line in res.err.splitlines()
                      if not line.startswith("import time:"))
        out = res.out_path.read_bytes()
        key = (res.job.name, res.rc, hashlib.sha256(out).hexdigest(), err)
        if key not in self.verdicts:
            self.verdicts[key] = oracle.check(res.job, res.rc, out, err, self.root, self.work)
        res.failure = self.verdicts[key]


def setup_spawns(runner: Runner, count: int) -> list[float]:
    """Wall times of `count` spawns of `python -c "import curvebounds.cli"`."""
    argv = ["-c", "import curvebounds.cli"]
    out, err = runner.work / "setup.out", runner.work / "setup.err"
    times = []
    for _ in range(count):
        wall, _, rc = runner.spawn(argv, out, err)
        if rc != 0:
            raise RuntimeError("cannot import curvebounds.cli: " + err.read_text()[-300:])
        times.append(wall)
    return times


def run_pass(runner: Runner, jobs, traced: bool, number: int) -> tuple[float, list[Result]]:
    results = []
    start = time.perf_counter()
    for i, job in enumerate(jobs):
        results.append(runner.run(job, traced, f"p{number}-{i}"))
    wall = time.perf_counter() - start
    for res in results:
        runner.check(res)
    return wall, results


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# --- per-layer metrics from spans -------------------------------------------


@lru_cache(maxsize=None)
def dissections(m: int) -> int:
    """Number of sets of pairwise non-crossing diagonals of an m-gon."""
    diagonals = [(i, j) for i in range(m) for j in range(i + 2, m) if (i, j) != (0, m - 1)]

    def count(start: int, chosen: list) -> int:
        total = 1
        for t in range(start, len(diagonals)):
            i, j = diagonals[t]
            if all(not (i < p < j < q or p < i < q < j) for p, q in chosen):
                total += count(t + 1, chosen + [diagonals[t]])
        return total

    return count(0, [])


def region_sizes(cusps: int, chords) -> list[int]:
    """Cusp counts of the regions a k-gon is cut into by non-crossing chords
    between its cusp positions."""
    regions = [list(range(cusps))]
    for i, j in chords:
        for r, poly in enumerate(regions):
            if i in poly and j in poly:
                a, b = poly.index(i), poly.index(j)
                a, b = min(a, b), max(a, b)
                regions[r:r + 1] = [poly[a:b + 1], poly[b:] + poly[:a + 1]]
                break
    return [len(p) for p in regions]


def import_times(err: str) -> dict[str, float]:
    """Top-level cumulative import times (ms) from -X importtime output."""
    top: dict[str, float] = {}
    for line in err.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if name.startswith("  "):
            nested = name.strip()
            if nested == "numpy":
                top["numpy"] = int(cumulative) / 1000
            continue
        top[name.strip()] = top.get(name.strip(), 0) + int(cumulative) / 1000
    return top


def layer_metrics(results: list[Result]) -> tuple[dict[str, float], float]:
    """Per-layer totals of one traced pass (import times per job) and the
    milliseconds accounted for by imports and span self times."""
    totals = {m: 0.0 for m in PER_LAYER}
    accounted = 0.0
    for res in results:
        imports = import_times(res.err)
        numpy_ms = imports.pop("numpy", 0.0)
        own = sum(v for k, v in imports.items() if k.startswith("curvebounds"))
        totals["import.numpy_ms"] += numpy_ms
        totals["import.curvebounds_ms"] += own - numpy_ms
        total_import = sum(imports.values())
        totals["import.total_ms"] += total_import
        accounted += total_import
        totals["cli.stdout_bytes"] += res.out_bytes
        if res.job.expect["kind"] == "extensions":
            sizes = region_sizes(4 * res.job.expect["genus"] - 2, res.job.expect["chords"])
            totals["traintrack.enumerate_diagonal_extensions.tried"] += math.prod(
                dissections(s) for s in sizes)
        try:
            data = json.loads(res.spans_path.read_text())
        except (OSError, ValueError):
            continue
        spans = data["spans"]
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for idx, (name, start, end, parent, raised) in enumerate(spans):
            self_ms = (end - start - child_ns[idx]) / 1e6
            accounted += self_ms
            layer = name.split(".")[0]
            metric = "surfaces.ms" if layer == "surfaces" else SPAN_METRICS[name]
            totals[metric] += self_ms
            if raised and (parent < 0 or spans[parent][0].split(".")[0] != layer):
                if f"{layer}.errors" in totals:
                    totals[f"{layer}.errors"] += 1
        for key, value in data["counts"].items():
            totals[key] += value
    jobs = len(results)
    for key in ("import.numpy_ms", "import.curvebounds_ms", "import.total_ms"):
        totals[key] /= jobs
    totals["trace.jobs"] = jobs
    return totals, accounted


# --- the run ----------------------------------------------------------------


def measure(runner: Runner, jobs, seconds: float, trace: bool):
    """Closed loop over the job list.  Returns (untraced passes, traced
    passes, set-up times); a pass is (wall seconds, results).  Set-up spawns
    are spread over the run so that one slow moment does not decide
    `setup_s`."""
    setup_spawns(runner, 1)  # may compile bytecode; not counted
    setup = setup_spawns(runner, SETUP_SPAWNS)
    plain, traced = [], []
    start = time.perf_counter()
    number = 0
    while True:
        use_trace = trace and len(traced) < len(plain)
        passes = traced if use_trace else plain
        passes.append(run_pass(runner, jobs, use_trace, number))
        number += 1
        for path in runner.work.glob("p*.out"):
            path.unlink()
        setup += setup_spawns(runner, SETUP_SPAWNS)
        elapsed = time.perf_counter() - start
        if trace and not traced:
            continue
        if elapsed + passes[-1][0] > seconds:
            return plain, traced, setup


def report(bundle: corpus.Corpus, setup_s: float, plain, traced, probes) -> dict:
    results = [r for _, res in plain + traced for r in res]
    failures = [r for r in results if r.failure]
    walls = [r.wall_s * 1000 for _, res in plain for r in res]
    samples = len(walls)
    tail = samples - math.ceil(0.9 * samples)
    print(f"workload {bundle.workload}, seed {bundle.seed}, corpus sha256 {bundle.digest()}")
    print(f"{len(bundle.jobs)} jobs per pass; {len(plain)} untraced and {len(traced)} traced passes; "
          f"{samples} untraced job samples, {tail} beyond p90"
          + ("" if tail >= MIN_TAIL_SAMPLES else " (too few for a stable p90)"))
    print(f"failed_ratio {len(failures)}/{len(results)} = {len(failures) / max(1, len(results)):.4f}")
    for r in failures[:10]:
        print(f"  FAILED {r.job.name}: {r.failure}")
    by_job: dict[str, list[float]] = {}
    for _, res in plain:
        for r in res:
            by_job.setdefault(r.job.name, []).append(r.wall_s * 1000)
    slowest = sorted(((statistics.median(v), k) for k, v in by_job.items()), reverse=True)[:8]
    print("slowest jobs (median ms): " + ", ".join(f"{k} {v:.0f}" for v, k in slowest))
    for r in probes:
        state = "fixed" if r.failure is None else f"still failing ({r.failure})"
        print(f"known-defect probe {r.job.name}: {state}")
    e2e = {
        "batch_s": statistics.median(w for w, _ in plain),
        "job_p50_ms": percentile(walls, 0.5),
        "job_p90_ms": percentile(walls, 0.9),
        "peak_rss_mb": max(r.rss_kb for _, res in plain for r in res) / 1024,
        "output_mb": statistics.median(sum(r.out_bytes for r in res) for _, res in plain) / 1e6,
        "setup_s": setup_s,
    }
    if not traced:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    else:
        per_pass = []
        for wall, res in traced:
            totals, accounted = layer_metrics(res)
            job_ms = sum(r.wall_s for r in res) * 1000
            totals["trace.accounted_share"] = accounted / job_ms
            totals["cli.tracebacks"] = sum("Traceback" in r.err for r in res + probes)
            per_pass.append(totals)
        layer = {k: statistics.median(p[k] for p in per_pass) for k in PER_LAYER}
        traced_batch = statistics.median(w for w, _ in traced)
        layer["trace.overhead_share"] = traced_batch / e2e["batch_s"] - 1
        print(f"traced batch {traced_batch:.3f} s vs untraced {e2e['batch_s']:.3f} s: "
              f"tracing overhead {layer['trace.overhead_share']:+.1%}; imports plus span self "
              f"times account for {layer['trace.accounted_share']:.1%} of traced job wall time")
        metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in layer.items()}
    for key, m in e2e.items():
        print(f"  {key:<12} {m:12.4f} {END_TO_END[key]}")
    return {"correct": not failures, "attempted": len(results), "failed": len(failures),
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "curvebounds" / "cli.py").is_file():
        print("error: run from the root of a curvebounds checkout (src/curvebounds missing)",
              file=sys.stderr)
        return 2
    bundle = corpus.build(args.workload, args.seed)
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        for name, data in bundle.files.items():
            (work / name).write_bytes(data)
        runner = Runner(root, work)
        plain, traced, setup = measure(runner, bundle.jobs, args.seconds, bool(args.trace))
        probes = [runner.run(job, bool(args.trace), f"probe-{i}") for i, job in enumerate(bundle.probes)]
        for res in probes:
            runner.check(res)
        result = report(bundle, statistics.median(setup), plain, traced, probes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
