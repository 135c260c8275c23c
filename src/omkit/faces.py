"""Cell structure of the sphere arrangement a chirotope describes.

Cocircuits are the signatures of the 0-cells, covectors of all cells, and
in rank 3 the census (vertices, edges, facets) must satisfy Euler's
relation V - E + F = 2 on the 2-sphere.  Cells start from chirotope's
cocircuit scan and are built from vertex stars, recursing on the cocircuits'
zero sets.  All of it is exact sign bookkeeping; the only geometry is the
optional Fourier-Motzkin feasibility cross-check for realized configurations.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from math import gcd

from .chirotope import MAX_CHECK_N, SignMap, VectorConfig, cocircuit_masks
from .errors import ArrangementError, SizeGuardError


def canonical_arrangement(d: int, sign: int) -> SignMap:
    """The two arrangements of d+1 hemispheres in general position on S^d,
    one per orientation class."""
    if d < 0:
        raise ValueError("dimension must be at least 0")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    r = d + 1
    return SignMap(r, r, {tuple(range(1, r + 1)): sign})


# ------------------------------------------------- rank <= 2 representations

class ArrangementR1(namedtuple("ArrangementR1", "sides")):
    """Points on S^0: sides[i] is the side (+1 or -1) of element i+1."""

    __slots__ = ()

    def __new__(cls, sides):
        if not sides or any(s not in (1, -1) for s in sides):
            raise ValueError("sides must be a nonempty tuple of +-1")
        return super().__new__(cls, sides)


class ArrangementR2(namedtuple("ArrangementR2", "period positions")):
    """Signed points on S^1 at 2k antipodally paired angular positions:
    positions maps each signed element to its slot in range(period)."""

    __slots__ = ()

    def __new__(cls, period, positions):
        if period < 2 or period % 2:
            raise ValueError("period must be even and at least 2")
        k = period // 2
        for s, a in positions.items():
            if not 0 <= a < period:
                raise ValueError(f"slot {a} out of range")
            if positions.get(-s) != (a + k) % period:
                raise ValueError(f"{s} and {-s} are not antipodal")
        return super().__new__(cls, period, positions)


def represent_rank1(x) -> ArrangementR1:
    n = len(x.ground)
    if sorted(x.ground) != list(range(1, n + 1)):
        raise ArrangementError("rank 1 representation needs ground 1..n")
    side = {}
    for s in x.chosen:
        side[abs(s)] = 1 if s > 0 else -1
    return ArrangementR1(tuple(side[e] for e in range(1, n + 1)))


def read_rank1(arr: ArrangementR1):
    from .hyperline import HLRank1

    return HLRank1({(e + 1) * s for e, s in enumerate(arr.sides)})


def represent_rank2(x) -> ArrangementR2:
    if x.pos is None:
        raise ArrangementError("a signed element sits in two atoms")
    try:
        return ArrangementR2(x.period, dict(x.pos))
    except ValueError as e:  # odd period, or an element without its negation
        raise ArrangementError(str(e)) from None


def read_rank2(arr: ArrangementR2):
    from .hyperline import HLRank2

    atoms = [set() for _ in range(arr.period)]
    for s, a in arr.positions.items():
        atoms[a].add(s)
    if any(not a for a in atoms):
        raise ArrangementError("every angular position must carry a point")
    return HLRank2(atoms)


# ----------------------------------------------------------------- covectors
#
# Every cell lies in the star of a vertex: the covectors of M|w, w a flat,
# are 0 and D o Y, with D a cocircuit of M|w and Y a covector of M|z, z the
# zero set of D in w.  The cocircuits of M|z are the nonzero restrictions of
# those of M|w with minimal support, and on an independent flat every sign
# pattern is a covector.  Sign vectors are (plus, minus) bit masks, bit i
# standing for element i + 1.


def _cocircuit_masks(m):
    """Both signs of each cocircuit, as (plus, minus) masks."""
    return {c for p, q in cocircuit_masks(m).values() for c in ((p, q), (q, p))}


def _vector(plus: int, minus: int, n: int) -> tuple:
    return tuple([1 if plus >> i & 1 else -1 if minus >> i & 1 else 0 for i in range(n)])


def cocircuits(m: SignMap) -> set:
    """Sign vectors of the 0-cells, with both signs."""
    return {_vector(p, q, m.n) for p, q in _cocircuit_masks(m)}


def _subsets(w):
    s = w
    while s:
        yield s
        s = (s - 1) & w
    yield 0


def _patterns(z, codims):
    """Every sign pattern on an independent flat z, in sets by the number
    of zeros, the first `codims` of them."""
    return [{(p, s & ~p) for s in _subsets(z) if (z ^ s).bit_count() == c
             for p in _subsets(s)} for c in range(codims)]


def _restrict(parts, z):
    """Cocircuits of M|z from those of a flat above it: the nonzero
    restrictions whose supports are minimal."""
    cut = {(p & z, q & z) for p, q in parts} - {(0, 0)}
    supports = {p | q for p, q in cut}
    return [(p, q) for p, q in cut
            if not any(s | p | q == p | q != s for s in supports)]


def _cells(m, allow_large, codims):
    """Cells of m as masks in sets by the rank of their zero sets, from 0
    (the topes) to r (the zero vector), the first `codims` of them.  Each
    flat is expanded once; D o Y has the zero set of Y in M|z."""
    if m.n > MAX_CHECK_N and not allow_large:
        raise SizeGuardError(f"cells of {m.n} elements; pass allow_large to force")
    memo = {}

    def star(w, rank, parts):
        out = ([set() for _ in range(rank)] + [{(0, 0)}])[:codims]
        for dp, dq in parts:
            z = w & ~(dp | dq)
            if z not in memo:  # z has rank - 1 elements when independent
                memo[z] = (star(z, rank - 1, _restrict(parts, z)) if z.bit_count() >= rank
                           else _patterns(z, min(codims, rank)))
            for cells, below in zip(out, memo[z]):
                cells.update([(dp | p, dq | q) for p, q in below])
        return out

    return star((1 << m.n) - 1, m.rank, _cocircuit_masks(m))


def covectors(m: SignMap, allow_large=False) -> set:
    """Every cell's sign vector, zero included."""
    return {_vector(p, q, m.n) for cells in _cells(m, allow_large, m.rank + 1)
            for p, q in cells}


def topes(m: SignMap, allow_large=False) -> set:
    """Sign vectors of the full-dimensional cells."""
    return {_vector(p, q, m.n) for p, q in _cells(m, allow_large, 1)[0]}


class FaceCensus(namedtuple("FaceCensus", "vertices edges facets")):
    __slots__ = ()

    @property
    def euler(self):
        return self.vertices - self.edges + self.facets


def face_census(m: SignMap, allow_large=False) -> FaceCensus:
    """Count cells by dimension for a rank 3 chirotope and verify Euler's
    relation.  A failure of the relation on a map that passed validation
    would be a bug, hence RuntimeError."""
    if m.rank != 3:
        raise ValueError("face census is defined for rank 3")
    facets, edges, vertices = map(len, _cells(m, allow_large, 3))
    census = FaceCensus(vertices, edges, facets)
    if census.euler != 2:
        raise RuntimeError(f"Euler relation fails: {vertices} - {edges} + {facets} != 2")
    return census


# ------------------------------------------------------ feasibility check

def _normalize_row(row):
    g = gcd(*row)
    if g > 1:
        row = tuple(v // g for v in row)
    return row


def _strictly_feasible(rows) -> bool:
    """Is there x with row . x > 0 for every row?  Exact Fourier-Motzkin;
    rows are integer tuples."""
    rows = {_normalize_row(r) for r in rows}
    width = len(next(iter(rows)))
    for _ in range(width - 1):
        pos, neg, rest = [], [], []
        for r in rows:
            if r[0] > 0:
                pos.append(r)
            elif r[0] < 0:
                neg.append(r)
            else:
                rest.append(r[1:])
        nxt = set(rest)
        for p in pos:
            for q in neg:
                comb = tuple(
                    p[0] * qv - q[0] * pv
                    for pv, qv in zip(p[1:], q[1:])
                )
                if not any(comb):
                    return False
                nxt.add(_normalize_row(comb))
        if not nxt:
            return True  # no constraints left; anything works
        rows = nxt
    lo = any(r[0] > 0 for r in rows)
    hi = any(r[0] < 0 for r in rows)
    return not (lo and hi) and not any(r == (0,) for r in rows)


def fm_realizable_topes(vectors: VectorConfig, allow_large=False) -> set:
    """Topes of a vector configuration straight from linear programming:
    a sign pattern t is a tope iff some direction x has sign(v_i . x) = t_i
    for all i.  Independent of the chirotope pipeline, so the two can be
    compared."""
    if (vectors.r > 4 or vectors.n > 8) and not allow_large:
        raise SizeGuardError(
            f"feasibility scan over {2 ** vectors.n} sign patterns; "
            "pass allow_large to force"
        )
    rows = vectors.cleared_rows()
    out = set()
    for signs in itertools.product((1, -1), repeat=vectors.n):
        oriented = [
            tuple(s * v for v in row) for s, row in zip(signs, rows)
        ]
        if _strictly_feasible(oriented):
            out.add(signs)
    return out
