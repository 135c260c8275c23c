"""Wider sweep of the hyperline/chirotope agreement test: check_hyperline
accepts a sequence exactly when its chirotope passes check_chirotope and
rebuilds to it.  Sequences: those of every valid sign map at (5, 4) and of
300 seeded valid ones at (5, 3), and every sequence one move away.

    PYTHONPATH=src python tests/route_sweep.py

Prints each sequence on which the two routes disagree, as .hls, and exits
1 if there is one; prints the counts and exits 0 otherwise.
"""

import collections
import itertools
import random
import sys

from helpers import route_disagreements, valid_signmaps
from omkit import SignMap, check_chirotope
from omkit.formats import serialize_hls


def main():
    every = (SignMap(4, 5, list(s)) for s in itertools.product((-1, 0, 1), repeat=5))
    maps = {4: [m for m in every if check_chirotope(m).ok],
            3: valid_signmaps(random.Random(20261019), 5, 3, 300)}
    seen = collections.Counter()
    bad = [v for ms in maps.values() for v in route_disagreements(ms, seen)]
    for v in bad:
        print(serialize_hls(v), end="")
    print(f"{len(maps[4])} maps at (5, 4), {len(maps[3])} at (5, 3); "
          f"{sum(seen.values())} sequences checked, by (rank, verdict): {dict(seen)}; "
          f"{len(bad)} disagreements")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
