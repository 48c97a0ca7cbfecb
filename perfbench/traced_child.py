"""Run one job with spans around the public functions of each layer.

    python -X importtime perfbench/traced_child.py <spans.json> <job id> -m curvebounds.cli <args>
    python -X importtime perfbench/traced_child.py <spans.json> <job id> <libjob.py> <args>

Each wrapped function is replaced in every `curvebounds` module that holds
it, so calls between modules are seen too.  A span is (name, start ns, end
ns, parent span, raised); counts are kept beside them.  Both stay in memory
and are written to <spans.json>, under the job id, when the job ends,
however it ends.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter

# (module, attribute) pairs traced as spans.  Methods are given as
# "Class.method"; BlockTransition and TrainTrack are timed by their
# validating __post_init__.
TRACED = {
    "cli": ("main",),
    "fileio": ("load_matrix", "load_track", "track_to_json"),
    "surfaces": ("translation_length_lower_bound", "translation_length_upper_bound",
                 "flm_upper_bound", "punctured_genus2_upper_bound", "BoundReport.validate"),
    "penner": ("trace",),
    "pfmatrix": ("is_irreducible", "min_positive_diagonal_power", "primitivity_exponent",
                 "BlockTransition.__post_init__", "cover_time", "full_spread_power"),
    "traintrack": ("TrainTrack.__post_init__", "is_recurrent", "boundary_cycles",
                   "classify_regions", "add_diagonals", "enumerate_diagonal_extensions"),
}


class Tracer:
    def __init__(self, job: str) -> None:
        self.job = job
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn, count=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter_ns(), 0, stack[-1] if stack else -1, 0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx][4] = 1
                raise
            finally:
                spans[idx][2] = time.perf_counter_ns()
                stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"job": self.job, "spans": self.spans, "counts": self.counts}, fh)


def _bool_products(counts, args, result) -> None:
    n = args[0].rows
    counts["pfmatrix.primitivity_exponent.bool_products"] += (
        result - 1 if result is not None else n * n - 2 * n + 2)


def _input_bytes(counts, args, result) -> None:
    counts["fileio.input_bytes"] += os.path.getsize(args[0])


COUNTERS = {
    "fileio.load_matrix": _input_bytes,
    "fileio.load_track": _input_bytes,
    "penner.trace": lambda c, a, r: c.update({"penner.trace.calls": 1,
                                              "penner.trace.iterations": len(r.masks) - 1}),
    "pfmatrix.primitivity_exponent": _bool_products,
    "pfmatrix.is_irreducible": lambda c, a, r: c.update({"pfmatrix.is_irreducible.calls": 1}),
    "pfmatrix.full_spread_power": lambda c, a, r: c.update({"pfmatrix.full_spread_power.k_sum": r}),
    "traintrack.is_recurrent": lambda c, a, r: c.update(
        {"traintrack.is_recurrent.calls": 1, "traintrack.is_recurrent.branches": len(a[0].branches)}),
    "traintrack.enumerate_diagonal_extensions": lambda c, a, r: c.update(
        {"traintrack.enumerate_diagonal_extensions.accepted": len(r)}),
}


def install(tracer: Tracer) -> None:
    import curvebounds.cli
    from curvebounds import penner

    modules = [m for name, m in sys.modules.items()
               if name == "curvebounds" or name.startswith("curvebounds.")]
    for layer, attrs in TRACED.items():
        module = sys.modules[f"curvebounds.{layer}"]
        for attr in attrs:
            owner_name, _, method = attr.rpartition(".")
            span = f"{layer}.{owner_name or method}"
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, method)
            wrapped = tracer.wrap(span, original, COUNTERS.get(span))
            if owner_name:
                setattr(owner, method, wrapped)
                continue
            for m in modules:
                for key, value in vars(m).items():
                    if value is original:
                        setattr(m, key, wrapped)
    supports = penner.TraceResult.supports
    traced = functools.cached_property(tracer.wrap("penner.supports", supports.func))
    traced.__set_name__(penner.TraceResult, "supports")
    penner.TraceResult.supports = traced


def main() -> int:
    out_path, job, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer(job)
    install(tracer)
    try:
        if argv[0] == "-m":
            from curvebounds import cli

            return cli.main(argv[2:])
        sys.path.insert(0, os.path.dirname(os.path.abspath(argv[0])))
        import libjob

        return libjob.main(argv[1:])
    finally:
        sys.stdout.flush()
        tracer.dump(out_path)


if __name__ == "__main__":
    sys.exit(main())
