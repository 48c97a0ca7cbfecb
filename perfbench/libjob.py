"""Library job: diagonal extensions of a spine track.

    python perfbench/libjob.py <track file> <genus> '<chords as JSON>'

Loads the spine, cuts its polygon region with the given chords (positions on
the single boundary cycle), then enumerates every recurrent diagonal
extension of the result.  Prints one JSON line with the number of
extensions and the number of distinct ones.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    from curvebounds.fileio import load_track
    from curvebounds.surfaces import SurfaceSig
    from curvebounds.traintrack import (
        RegionAttachment,
        add_diagonals,
        boundary_cycles,
        enumerate_diagonal_extensions,
    )

    path, genus, chords = argv[0], int(argv[1]), json.loads(argv[2])
    track, _ = load_track(path).build()
    if chords:
        track = add_diagonals(track, boundary_cycles(track), [(0, tuple(c)) for c in chords])
    attachment = RegionAttachment(SurfaceSig(genus, 0), ((0, 0),) * (len(chords) + 1))
    exts = enumerate_diagonal_extensions(track, attachment)
    keys = {frozenset((b.ends, b.tag) for b in e.branches) for e in exts}
    print(json.dumps({"extensions": len(exts), "distinct": len(keys)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
