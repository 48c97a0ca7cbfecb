"""Tests of the benchmark itself: corpus determinism, checker sensitivity and
the recurrence oracle.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import corpus
import oracle
from run import dissections, region_sizes

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_same_digest_other_seed_other_corpus(workload):
    a, b, c = (corpus.build(workload, s) for s in (11, 11, 12))
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


def _block_job(tmp_path):
    rng = random.Random(5)
    entries, real = corpus.block_family(rng, 5, 3, 12)
    (tmp_path / "b.matrix").write_bytes(corpus._format_matrix(entries, real, (3, 0)))
    job = corpus._pf_job("b", "b.matrix", True, {"family": "block", "k": 2 * 5 * 4 + 3})
    return job, oracle.expected_pf(job.expect, (tmp_path / "b.matrix").read_text())


def test_checker_accepts_the_right_block_report_and_flags_a_changed_k(tmp_path):
    job, want = _block_job(tmp_path)
    assert want["block"]["k"] == 43 and want["block"]["cover_time"] == 3
    good = json.dumps(want).encode()
    assert oracle.check(job, 0, good, "", ROOT, tmp_path) is None
    want["block"]["k"] += 1
    assert oracle.check(job, 0, json.dumps(want).encode(), "", ROOT, tmp_path) == "block analysis"


def test_checker_flags_wrong_exit_code_and_tracebacks(tmp_path):
    job, want = _block_job(tmp_path)
    good = json.dumps(want).encode()
    assert oracle.check(job, 1, good, "", ROOT, tmp_path) == "exit 1, expected 0"
    crash = "Traceback (most recent call last):\nValueError: boom\n"
    assert oracle.check(job, 1, b"", crash, ROOT, tmp_path).startswith("traceback")


def test_checker_flags_a_changed_bound_row():
    job = corpus._bounds_job("t", 2, 4, 0, True)
    rows = [oracle.bound_row(g, 0) for g in range(2, 5)]
    assert oracle.check(job, 0, json.dumps({"rows": rows}).encode(), "", ROOT, ROOT) is None
    rows[1]["penner_k"] += 1
    assert oracle.check(job, 0, json.dumps({"rows": rows}).encode(), "", ROOT, ROOT) == "row g=3 differs"


def test_certified_k_matches_closed_form_bound():
    for g in range(2, 60):
        k = oracle.certified_k(g)
        assert Fraction(2, k) <= Fraction(4, g * g + g - 4)
    assert oracle.certified_k(2) == 2 and oracle.certified_k(3) == 6


def _shipped(genus):
    return oracle.parse_track((ROOT / f"src/curvebounds/data/genus{genus}_maximal.track").read_text())


@pytest.mark.parametrize("genus", (2, 3))
def test_scc_oracle_and_faces_on_shipped_maximal_tracks(genus):
    surface, switches, branches, attach = _shipped(genus)
    assert oracle.scc_recurrent(branches)
    assert oracle.ribbon_faces(branches) == [3] * (4 * genus - 4)
    want = oracle.expected_track((ROOT / f"src/curvebounds/data/genus{genus}_maximal.track").read_text())
    assert all(want["checks"].values()) and want["maximal"]


@pytest.mark.parametrize("genus", (2, 10, 40))
def test_scc_oracle_on_fan_spines(genus):
    count = 4 * genus - 2
    _, zero = corpus.fan_spine(genus, (0,) * count)
    _, alternating = corpus.fan_spine(genus, tuple(t % 2 for t in range(count)))
    assert not oracle.scc_recurrent(zero)
    assert oracle.scc_recurrent(alternating)
    assert oracle.ribbon_faces(zero) == [count]


def test_checker_flags_an_unbalanced_witness(tmp_path):
    switches, branches = corpus.fan_spine(2, (0, 1, 0, 1, 0, 1))
    (tmp_path / "s.track").write_bytes(corpus.format_track((2, 0), switches, branches, [(0, 0)]))
    job = corpus._track_job("s", "{work}/s.track", True, {"file": "s.track"})
    want = oracle.expected_track((tmp_path / "s.track").read_text())
    # weight 1 everywhere is not balanced: every switch is trivalent with
    # two ends on side 0 and one on side 1
    report = {"checks": want["checks"], "regions": want["regions"], "large": want["large"],
              "maximal": want["maximal"], "witness": {b[0]: "1/1" for b in branches}}
    assert want["checks"]["recurrent"]
    assert oracle.check(job, 0, json.dumps(report).encode(), "", ROOT, tmp_path) == "witness not balanced"
    report["witness"] = None
    assert oracle.check(job, 0, json.dumps(report).encode(), "", ROOT, tmp_path) is not None


def test_extension_counts_are_products_of_dissections():
    assert [dissections(m) for m in range(3, 9)] == [1, 3, 11, 45, 197, 903]
    assert sorted(region_sizes(10, [(0, 5), (0, 2)])) == [3, 5, 6]
    for genus, _, chords, count in corpus.EXTENSIONS:
        sizes = region_sizes(4 * genus - 2, chords)
        product = 1
        for s in sizes:
            product *= dissections(s)
        assert product == count
