"""Cell structure of the sphere arrangement a chirotope describes.

Cocircuits are the signatures of the 0-cells, covectors of all cells, and
in rank 3 the census (vertices, edges, facets) must satisfy Euler's
relation V - E + F = 2 on the 2-sphere.  Everything here is exact sign
bookkeeping on top of SignMap.evaluate; the only geometry is the optional
Fourier-Motzkin feasibility cross-check for realized configurations.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from math import gcd

from .chirotope import MAX_CHECK_N, SignMap, VectorConfig
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

def cocircuits(m: SignMap) -> set:
    """Sign vectors of the 0-cells: each (r-1)-subset evaluated against
    every element, normalized and returned with both signs."""
    out = set()
    elems = range(1, m.n + 1)
    for b in itertools.combinations(elems, m.rank - 1):
        vec = tuple(m.evaluate(b + (e,)) for e in elems)
        first = next((v for v in vec if v), 0)
        if first == 0:
            continue
        if first < 0:
            vec = tuple(-v for v in vec)
        out.add(vec)
        out.add(tuple(-v for v in vec))
    return out


# The closure and the census work on sign vectors stored as (plus, minus)
# bit masks, bit i standing for element i + 1.


def _mask(v: tuple) -> tuple:
    plus = minus = 0
    for i, s in enumerate(v):
        if s > 0:
            plus |= 1 << i
        elif s < 0:
            minus |= 1 << i
    return plus, minus


def _vector(plus: int, minus: int, n: int) -> tuple:
    return tuple((plus >> i & 1) - (minus >> i & 1) for i in range(n))


def covectors(m: SignMap, allow_large=False) -> set:
    """Closure of the cocircuits under composition, plus zero.

    Composing u with a cocircuit c changes u only on its zero set z, so u
    is composed only with the distinct nonzero restrictions of the
    cocircuits to z, computed once per zero set."""
    if m.n > MAX_CHECK_N and not allow_large:
        raise SizeGuardError(
            f"covector closure on {m.n} elements; pass allow_large to force"
        )
    ccs = {_mask(c) for c in cocircuits(m)}
    full = (1 << m.n) - 1
    restrictions = {}
    out = {(0, 0)} | ccs
    frontier = list(ccs)
    while frontier:
        p, q = frontier.pop()
        z = full & ~(p | q)
        parts = restrictions.get(z)
        if parts is None:
            parts = {(cp & z, cq & z) for cp, cq in ccs} - {(0, 0)}
            restrictions[z] = parts
        for cp, cq in parts:
            w = (p | cp, q | cq)
            if w not in out:
                out.add(w)
                frontier.append(w)
    return {_vector(p, q, m.n) for p, q in out}


def topes(m: SignMap, allow_large=False) -> set:
    return {v for v in covectors(m, allow_large) if all(v)}


class FaceCensus(namedtuple("FaceCensus", "vertices edges facets")):
    __slots__ = ()

    @property
    def euler(self):
        return self.vertices - self.edges + self.facets


def face_census(m: SignMap, allow_large=False) -> FaceCensus:
    """Count cells by dimension for a rank 3 chirotope and verify Euler's
    relation.  A failure of the relation (or of the height structure) on a
    map that passed validation would be a bug, hence RuntimeError."""
    if m.rank != 3:
        raise ValueError("face census is defined for rank 3")
    cells = {_mask(v) for v in covectors(m, allow_large)}
    cells.discard((0, 0))
    ccs = {_mask(c) for c in cocircuits(m)}
    full = (1 << m.n) - 1

    # u <= w iff u's signs are a subset of w's.  Cells are visited by
    # growing support, so every cell below w already has its height.
    height = {}
    for wp, wq in sorted(cells, key=lambda c: (c[0] | c[1]).bit_count()):
        hs = [h for (up, uq), h in height.items()
              if not up & ~wp and not uq & ~wq]
        height[wp, wq] = (max(hs) + 1) if hs else 0
    v = sum(1 for h in height.values() if h == 0)
    e = sum(1 for h in height.values() if h == 1)
    f = sum(1 for h in height.values() if h == 2)
    if v + e + f != len(cells):
        raise RuntimeError("cell of height > 2 in a rank 3 arrangement")
    if {w for w, h in height.items() if h == 0} != ccs:
        raise RuntimeError("minimal cells are not exactly the cocircuits")
    if any(h == 2 and w[0] | w[1] != full for w, h in height.items()):
        raise RuntimeError("a facet has a zero coordinate")
    census = FaceCensus(v, e, f)
    if census.euler != 2:
        raise RuntimeError(f"Euler relation fails: {v} - {e} + {f} != 2")
    return census


# ------------------------------------------------------ feasibility check

def _normalize_row(row):
    g = 0
    for v in row:
        g = gcd(g, abs(v))
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
