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

from .chirotope import SignMap, VectorConfig, cocircuit_masks
from .errors import SizeGuardError


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


def _cells(m, codims):
    """Cells of m as masks in sets by the rank of their zero sets, from 0
    (the topes) to r (the zero vector), the first `codims` of them.  Each
    flat is expanded once; D o Y has the zero set of Y in M|z."""
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


def covectors(m: SignMap) -> set:
    """Every cell's sign vector, zero included."""
    return {_vector(p, q, m.n) for cells in _cells(m, m.rank + 1) for p, q in cells}


def topes(m: SignMap) -> set:
    """Sign vectors of the full-dimensional cells."""
    return {_vector(p, q, m.n) for p, q in _cells(m, 1)[0]}


class FaceCensus(namedtuple("FaceCensus", "vertices edges facets")):
    __slots__ = ()

    @property
    def euler(self):
        return self.vertices - self.edges + self.facets


def face_census(m: SignMap) -> FaceCensus:
    """Count cells by dimension for a rank 3 chirotope and verify Euler's
    relation.  A failure of the relation on a map that passed validation
    would be a bug, hence RuntimeError."""
    if m.rank != 3:
        raise ValueError("face census is defined for rank 3")
    facets, edges, vertices = map(len, _cells(m, 3))
    census = FaceCensus(vertices, edges, facets)
    if census.euler != 2:
        raise RuntimeError(f"Euler relation fails: {vertices} - {edges} + {facets} != 2")
    return census


# ------------------------------------------------------ feasibility check

def _primitive_row(row):
    g = gcd(*row)
    return tuple(v // g for v in row) if g > 1 else row


def _strictly_feasible(rows) -> bool:
    """Is there x with row . x > 0 for every row?  Exact Fourier-Motzkin;
    rows are integer tuples."""
    rows = {_primitive_row(r) for r in rows}
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
                comb = tuple(p[0] * qv - q[0] * pv for pv, qv in zip(p[1:], q[1:]))
                if not any(comb):
                    return False
                nxt.add(_primitive_row(comb))
        if not nxt:
            return True  # no constraints left; anything works
        rows = nxt
    lo = any(r[0] > 0 for r in rows)
    hi = any(r[0] < 0 for r in rows)
    return not (lo and hi) and not any(r == (0,) for r in rows)


def fm_realizable_topes(vectors: VectorConfig) -> set:
    """Topes of a vector configuration straight from linear programming:
    a sign pattern t is a tope iff some direction x has sign(v_i . x) = t_i
    for all i.  Independent of the chirotope pipeline, so the two can be
    compared.  Refused past n = 8 or rank 4."""
    if vectors.r > 4 or vectors.n > 8:
        raise SizeGuardError(f"feasibility scan over {2 ** vectors.n} sign patterns is guarded "
                             f"at n <= 8, rank <= 4 (got n={vectors.n}, rank={vectors.r})")
    rows = vectors.cleared_rows()
    out = set()
    for signs in itertools.product((1, -1), repeat=vectors.n):
        if _strictly_feasible([tuple(s * v for v in row) for s, row in zip(signs, rows)]):
            out.add(signs)
    return out
