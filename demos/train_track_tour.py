"""Train tracks: boundary traversal, recurrence, diagonal extensions.

Run as:  python3 demos/train_track_tour.py
"""

from curvebounds import (
    FoldSchedule,
    RegionAttachment,
    SurfaceSig,
    add_diagonals,
    boundary_cycles,
    branch_count_report,
    classify_regions,
    enumerate_diagonal_extensions,
    is_recurrent,
    max_fold_time,
    reference_attachment,
    reference_spine,
    reference_track,
    spine_attachment,
    total_cusps,
)

print("maximal reference track, genus 2")
track = reference_track(2)
report = classify_regions(track, reference_attachment(2))
print(f"  switches {track.num_switches}, branches {track.num_branches}")
print("  regions:", ", ".join(r.label for r in report.regions))
print(f"  large: {report.is_large}  maximal: {report.is_maximal}")
print(f"  cusps: {total_cusps(track)} (budget 6|chi| = 12)")
ok, witness = is_recurrent(track)
print(f"  recurrent: {ok}, witness weights all >= 1: {all(w >= 1 for w in witness.values())}")
counts = branch_count_report(track, SurfaceSig(2, 0))
print(f"  branch count {counts.total} <= {counts.total_bound}: {counts.total_ok}")
print()

# The bare spine has a single 6-cusp polygon region.  Cutting it with one
# diagonal leaves a pentagon; the extension enumerator then reproduces all
# non-crossing diagonal families that stay recurrent.
print("spine of the one-vertex triangulation, genus 2")
spine = reference_spine(2)
cycles = boundary_cycles(spine)
print(f"  boundary cycles: {len(cycles)}, cusps: {cycles[0].cusp_count}")
hex_exts = enumerate_diagonal_extensions(spine, spine_attachment(2))
print(f"  recurrent diagonal extensions of the hexagon region: {len(hex_exts)}")

pentagon = add_diagonals(spine, cycles, [(0, (0, 2))])
att = RegionAttachment(SurfaceSig(2, 0), ((0, 0), (0, 0)))
labels = [r.label for r in classify_regions(pentagon, att).regions]
print(f"  after one diagonal: regions {labels}")
pent_exts = enumerate_diagonal_extensions(pentagon, att)
print(f"  recurrent extensions: {len(pent_exts)}")
print()

print("fold schedule on the cusps of a splitting sequence")
schedule = FoldSchedule(
    cusps=("c0", "c1", "c2", "c3"),
    cusp_map={"c0": "c1", "c1": "c2", "c2": "c2", "c3": "c2"},
    folded=frozenset({"c2"}),
)
t = max_fold_time(schedule, SurfaceSig(2, 0))
print(f"  every cusp folds within {t} splits (cusp count {len(schedule.cusps)})")
