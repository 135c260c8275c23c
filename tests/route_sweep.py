"""Wider sweep of the hyperline/chirotope agreement test: check_hyperline
accepts a sequence exactly when its chirotope passes check_chirotope and
rebuilds to it.  Sequences: those of every valid sign map at (5, 4), of
300 seeded valid ones at (5, 3) and of the non-realizable rank 3
non-Pappus maps, and every sequence one move away; and the sequences of
the rank 6 duals of non-Pappus, with a seeded sample of 40 of each one's
2,520 neighbours (all of them take minutes per map).

    PYTHONPATH=src python tests/route_sweep.py

Prints each sequence on which the two routes disagree, as .hls, and exits
1 if there is one; prints the counts and exits 0 otherwise.
"""

import collections
import itertools
import random
import sys

from helpers import dual_signmap, non_pappus, route_disagreements, valid_signmaps
from omkit import SignMap, check_chirotope
from omkit.formats import serialize_hls


def sweep(name, maps, sample=None):
    """Print the disagreements on maps and the counts; return how many."""
    seen = collections.Counter()
    bad = route_disagreements(maps, seen, sample)
    for v in bad:
        print(serialize_hls(v), end="")
    print(f"{name}: {sum(seen.values())} sequences checked, "
          f"by (rank, verdict): {dict(seen)}; {len(bad)} disagreements")
    return len(bad)


def main():
    every = (SignMap(4, 5, list(s)) for s in itertools.product((-1, 0, 1), repeat=5))
    at54 = [m for m in every if check_chirotope(m).ok]
    bad = sweep(f"{len(at54)} maps at (5, 4)", at54)
    at53 = valid_signmaps(random.Random(20261019), 5, 3, 300)
    bad += sweep(f"{len(at53)} maps at (5, 3)", at53)
    rng = random.Random(20261020)
    for sign in (1, -1):
        bad += sweep(f"non-Pappus ({sign:+d})", [non_pappus(sign)])
        bad += sweep(f"its dual ({sign:+d})", [dual_signmap(non_pappus(sign))], (rng, 40))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
