"""Chirotopes as total sign maps on ascending rank-subsets.

A SignMap stores its signs as one flat list in lexicographic subset order,
which is the order of a .chi body, so parsing, serializing, realization,
minors and enumeration all build or read that list directly.  Other
modules read it through nonzero_supports, cocircuit_masks and pair_table/gather.

check_chirotope verifies the alternating-map axioms directly: C1 (every
element in a nonzero basis), C3 (basis exchange), and C4 (three-term sign
consistency).  C2 never needs checking because evaluation routes every
tuple through the canonical simplex form, which builds the alternation in.

The C4 scan quantifies over all signed (r+2)-tuples.  Since the three
products compared share their first r-2 entries, the scan iterates over
ascending unsigned prefixes only (any other prefix gives the same products
up to a squared sign).  For each prefix, pair_table reads the values on
prefix + (a, b) into an int table, and each 4-subset a < b < c < d of the
remaining elements is tested once: it violates the three-term
Grassmann-Pluecker condition when [ab][cd], -[ac][bd] and [ad][bc] have
one sign wherever nonzero and are not all zero.  Signs of the four slots
only scale all three products by their product, so the signed witness is
recovered from the unsigned one.

enumerate_bodies counts, by brute force, the sign maps that pass the check.
"""

from __future__ import annotations

import functools
import itertools
import os
from math import comb, gcd

from .core import normalize
from .errors import (
    ContractionError,
    DeletionError,
    NoDeletableElement,
    RealizationError,
    SizeGuardError,
    ValidationReport,
)

MAX_CHECK_N = 9
MAX_CHECK_RANK = 5
MAX_ENUM_MAPS = 3**10  # sign maps one enumeration may scan
MAX_SIGNS = 10**6  # a SignMap of more signs is refused before allocation


class SignMap:
    """Total assignment of {-1, 0, +1} to the ascending r-subsets of 1..n.

    The signs are stored as one flat list in lexicographic subset order,
    the order of a .chi body; `values` is either that list (taken over,
    not copied) or a {subset: sign} mapping, where absent subsets are 0.
    Storage always uses compacted ids 1..n; `labels` remembers the original
    ids so minors stay traceable in reports.  Instances are treated as
    immutable.  Equality compares rank, n, and values (labels are metadata).
    """

    __slots__ = ("rank", "n", "_signs", "labels")

    def __init__(self, rank, n, values=None, labels=None):
        if rank < 1:
            raise ValueError("rank must be at least 1")
        if n < 1:
            raise ValueError("ground set needs at least one element")
        self.rank = int(rank)
        self.n = int(n)
        subsets, position = _layout(self.n, self.rank)
        if not isinstance(values, list):
            signs = [0] * len(subsets)
            for key, v in (values or {}).items():
                key = tuple(int(e) for e in key)
                if key not in position:
                    raise ValueError(f"not an ascending {rank}-subset of 1..{n}: {key}")
                signs[position[key]] = v
            values = signs
        if len(values) != len(subsets):
            raise ValueError(f"expected {len(subsets)} signs, one per "
                             f"{rank}-subset of 1..{n}, got {len(values)}")
        bad = next((v for v in values if v not in (-1, 0, 1)), None)
        if bad is not None:
            raise ValueError(f"sign value out of range: {bad}")
        self._signs = values
        self.labels = tuple(labels) if labels is not None else tuple(range(1, n + 1))
        if len(self.labels) != n:
            raise ValueError("labels must name every element")

    def nonzero_supports(self):
        return [s for s, v in zip(_layout(self.n, self.rank)[0], self._signs) if v]

    def items(self):
        """(support, sign) pairs in lexicographic support order."""
        return list(zip(_layout(self.n, self.rank)[0], self._signs))

    def evaluate(self, simplex):
        """Sign of an arbitrary signed r-tuple; degenerate tuples give 0."""
        simplex = tuple(simplex)
        if len(simplex) != self.rank:
            raise ValueError(f"expected {self.rank} entries, got {len(simplex)}")
        nb = normalize(simplex)
        if nb is None:
            return 0
        try:
            i = _layout(self.n, self.rank)[1][nb.support]
        except KeyError:
            raise ValueError(f"element out of range in {simplex}") from None
        return nb.sign * self._signs[i]

    def negate(self):
        return SignMap(self.rank, self.n, [-v for v in self._signs], self.labels)

    def label_of(self, e):
        return self.labels[e - 1]

    def ids(self, labels):
        """Internal ids of a sequence of labels, in the order given."""
        index = {lab: i for i, lab in enumerate(self.labels, 1)}
        missing = [e for e in labels if e not in index]
        if missing:
            raise ValueError(f"elements not in the ground set: {missing}")
        return [index[e] for e in labels]

    def __eq__(self, other):
        if not isinstance(other, SignMap):
            return NotImplemented
        return (
            self.rank == other.rank
            and self.n == other.n
            and self._signs == other._signs
        )

    def __repr__(self):
        nz = len(self.nonzero_supports())
        return f"SignMap(rank={self.rank}, n={self.n}, nonzero={nz})"


@functools.lru_cache(maxsize=64)
def _layout(n, r):
    """The ascending r-subsets of 1..n in lexicographic order, and the
    position of each in that order.  Refuses more than MAX_SIGNS subsets
    before building any; the cache holds every (n, r) with r <= 5 and
    n <= 9, all that one from_chirotope at the size guard can touch."""
    if comb(n, r) > MAX_SIGNS:
        raise ValueError(f"C({n}, {r}) = {comb(n, r)} signs is past the "
                         f"limit of {MAX_SIGNS}")
    subsets = tuple(itertools.combinations(range(1, n + 1), r))
    return subsets, {s: i for i, s in enumerate(subsets)}


# ---------------------------------------------------------------- checking

def guard_check_size(n, rank, allow_large):
    """Refuse an axiom check past the default size guard."""
    if not allow_large and (n > MAX_CHECK_N or rank > MAX_CHECK_RANK):
        raise SizeGuardError(
            f"axiom check guarded at n <= {MAX_CHECK_N}, rank <= {MAX_CHECK_RANK} "
            f"(got n={n}, rank={rank}); lift explicitly to proceed"
        )


def check_chirotope(m: SignMap, allow_large=False) -> ValidationReport:
    """Check C1, C3, and C4; report one witness per violated axiom."""
    guard_check_size(m.n, m.rank, allow_large)
    report = ValidationReport()
    missing = uncovered(m)
    if missing:
        e = missing[0]
        report.add("C1", (m.label_of(e),),
                   f"element {m.label_of(e)} lies in no nonzero basis")
    w = _c3_violation(m)
    if w:
        s, x, t = w
        ls = tuple(m.label_of(e) for e in s)
        lt = tuple(m.label_of(e) for e in t)
        report.add("C3", (ls, m.label_of(x), lt),
                   f"bases {ls} and {lt} admit no exchange replacing {m.label_of(x)}")
    w = _c4_violation(m)
    if w:
        lw = tuple((1 if x > 0 else -1) * m.label_of(abs(x)) for x in w)
        report.add("C4", lw,
                   f"three-term sign consistency fails on tuple {lw} "
                   "(last two entries are the replacement pair)")
    return report


def uncovered(m):
    """Elements in no nonzero basis, ascending: C1 fails on each."""
    covered = set()
    for s in m.nonzero_supports():
        covered.update(s)
    return [e for e in range(1, m.n + 1) if e not in covered]


def cocircuit_masks(m):
    """{mask of an (r-1)-subset B: [plus, minus]} for each B in a nonzero
    basis, bit e-1 standing for element e: the signs of B + (e,), read
    straight from the stored values.  A nonzero basis s gives the cocircuit
    of s - {e} its sign at e, the value of s - {e} followed by e."""
    masks = {}
    for s, v in m.items():
        if v:
            whole = sum(1 << e - 1 for e in s)
            for e in reversed(s):
                masks.setdefault(whole ^ 1 << e - 1, [0, 0])[v < 0] |= 1 << e - 1
                v = -v
    return masks


def _c3_violation(m):
    # One exchange candidate per dropped element suffices: the condition
    # only sees the unsigned support of each tuple, the support of the
    # cocircuit of s - {x}; first_miss gives, per distinct support, the
    # index of the first t it misses.
    nz = m.nonzero_supports()
    bits = [sum(1 << u - 1 for u in t) for t in nz]
    support = {rest: p | q for rest, (p, q) in cocircuit_masks(m).items()}
    first_miss = {mask: next((j for j, b in enumerate(bits) if not mask & b), len(nz))
                  for mask in set(support.values())}
    for s, whole in zip(nz, bits):
        j, x = min((first_miss[support[whole ^ 1 << x - 1]], x) for x in s)
        if j < len(nz):
            return (s, x, nz[j])
    return None


def pair_table(m, prefix):
    """g[a][b] = m.evaluate(prefix + (a, b)) for elements a, b of 1..n,
    read straight from the stored values.  prefix is ascending; a signed
    pair has value sign(a) * sign(b) * g[|a|][|b|]."""
    n, signs, position = m.n, m._signs, _layout(m.n, m.rank)[1]
    above = [sum(p > e for p in prefix) for e in range(n + 1)]
    free = [e for e in range(1, n + 1) if e not in prefix]
    g = [[0] * (n + 1) for _ in range(n + 1)]
    for i, a in enumerate(free):
        for b in free[i + 1:]:
            v = signs[position[tuple(sorted(prefix + (a, b)))]]
            if (above[a] + above[b]) & 1:
                v = -v
            g[a][b] = v
            g[b][a] = -v
    return g


def gather(m, head, subsets):
    """Value of head + s for each ascending subset s, read straight from
    the stored values; head is a signed tuple disjoint from every s."""
    signs, position = m._signs, _layout(m.n, m.rank)[1]
    lead, sign = normalize(head)
    out = []
    for s in subsets:
        v = sign * signs[position[tuple(sorted(lead + s))]]
        out.append(-v if sum(h > e for h in lead for e in s) & 1 else v)
    return out


def extendable_prefixes(m):
    """The (r-2)-subsets of nonzero bases, sorted: the prefixes C4 is
    checked at and the hyperlines of the sequence lie on."""
    out = set()
    for s in m.nonzero_supports():
        out.update(itertools.combinations(s, m.rank - 2))
    return sorted(out)


def _c4_violation(m):
    if m.rank < 2:
        return None
    for prefix in extendable_prefixes(m):
        g = pair_table(m, prefix)
        free = [e for e in range(1, m.n + 1) if e not in prefix]
        for a, b, c, d in itertools.combinations(free, 4):
            t1 = g[a][b] * g[c][d]
            t2 = -g[a][c] * g[b][d]
            t3 = g[a][d] * g[b][c]
            # one sign wherever nonzero, and not all zero
            if 0 < abs(t1 + t2 + t3) == abs(t1) + abs(t2) + abs(t3):
                return _first_c4_witness(g, prefix, free)
    return None


def _first_c4_witness(g, prefix, free):
    """First violating signed tuple prefix + (a, b, c, d), slots ordered
    1 < -1 < 2 < -2 ...: a signed tuple violates when f(a,b) f(c,d) < 0
    while f(c,b) f(a,d) >= 0 and f(d,b) f(a,-c) >= 0.  The slot signs scale
    all three by their product, so the first witness has a, b and c
    positive, the first ordered quadruple with [ab][cd] nonzero and
    neither -[ac][bd] nor [ad][bc] of the opposite sign, and d signed to
    make f(a,b) f(c,d) < 0.  Called only once some a < b < c < d violates,
    so some ordered quadruple of those four qualifies."""
    return next(prefix + (a, b, c, -t1 * d)
                for a, b, c, d in itertools.permutations(free, 4)
                if (t1 := g[a][b] * g[c][d])
                and t1 * g[a][c] * g[b][d] <= 0 and t1 * g[a][d] * g[b][c] >= 0)


# ------------------------------------------------------------- realization

class VectorConfig:
    """Configuration of nonzero rational row vectors, all of width r.  Int
    entries stay int, so integer rows never import the slow fractions."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        out = []
        for i, row in enumerate(rows, 1):
            coerced = []
            for x in row:
                if isinstance(x, float):
                    raise TypeError(
                        f"row {i}: floats are not exact; use int or Fraction"
                    )
                if not isinstance(x, int):
                    from fractions import Fraction

                    x = Fraction(x)
                coerced.append(x)
            out.append(tuple(coerced))
        if not out:
            raise ValueError("need at least one row")
        width = len(out[0])
        if width < 1:
            raise ValueError("rows must have at least one column")
        for i, row in enumerate(out, 1):
            if len(row) != width:
                raise ValueError(f"row {i} has width {len(row)}, expected {width}")
            if all(x == 0 for x in row):
                raise RealizationError(f"row {i} is zero")
        self.rows = tuple(out)

    @property
    def n(self):
        return len(self.rows)

    @property
    def r(self):
        return len(self.rows[0])

    def cleared_rows(self):
        """Integer rows after multiplying each row by a positive scalar."""
        out = []
        for row in self.rows:
            mult = 1
            for x in row:
                mult = mult * x.denominator // gcd(mult, x.denominator)
            out.append(tuple(int(x * mult) for x in row))
        return out


def det_sign(matrix) -> int:
    """Sign of the determinant of an integer matrix, by fraction-free
    (Bareiss) elimination with exact integer division."""
    m = [list(row) for row in matrix]
    size = len(m)
    sign = 1
    prev = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            for i in range(k + 1, size):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    last = m[size - 1][size - 1]
    return sign * (1 if last > 0 else -1 if last < 0 else 0)


def from_vectors(vectors) -> SignMap:
    """Chirotope of a rational vector configuration: the value on each
    ascending r-subset is the exact determinant sign of those rows."""
    cfg = vectors if isinstance(vectors, VectorConfig) else VectorConfig(vectors)
    rows = cfg.cleared_rows()
    r, n = cfg.r, cfg.n
    signs = [det_sign([rows[e - 1] for e in sup]) for sup in _layout(n, r)[0]]
    # the rows span rank r exactly when some r of them are independent
    if not any(signs):
        raise RealizationError(f"rows do not span rank {r}")
    return SignMap(r, n, signs)


# ------------------------------------------------------------------ minors

def delete(m: SignMap, drop, allow_large=False):
    """Restrict to the complement of `drop`.  Returns (SignMap, report):
    a deletion is not a chirotope in general, so the result is always
    validated and the report handed back with it."""
    drop = {int(e) for e in drop}
    bad = [e for e in drop if not 1 <= e <= m.n]
    if bad:
        raise ValueError(f"elements not in the ground set: {sorted(bad)}")
    keep = [e for e in range(1, m.n + 1) if e not in drop]
    if len(keep) < m.rank:
        raise DeletionError(
            f"deleting {sorted(drop)} leaves {len(keep)} elements, fewer than rank {m.rank}"
        )
    signs = gather(m, (), itertools.combinations(keep, m.rank))
    sub = SignMap(m.rank, len(keep), signs, tuple(m.label_of(e) for e in keep))
    return sub, check_chirotope(sub, allow_large)


def find_deletable(m: SignMap, allow_large=False) -> tuple:
    """(e, deletion) for the smallest element e whose deletion validates
    as a rank-preserving chirotope.  On a chirotope with n > r, any element
    that some nonzero basis avoids can be deleted; on any other sign map a
    candidate may fail, so each is validated before it is returned."""
    if m.n <= m.rank:
        raise NoDeletableElement(f"n = rank = {m.rank}: nothing can be deleted")
    for e in range(1, m.n + 1):
        sub, report = delete(m, {e}, allow_large)
        if report.ok:
            return e, sub
    raise NoDeletableElement("no single element deletes to a valid chirotope")


def contract(m: SignMap, fixed) -> SignMap:
    """Contract an independent ascending tuple: keep the elements that
    complete it to a nonzero basis and prepend it when reading values."""
    fixed = tuple(sorted(int(e) for e in fixed))
    if len(set(fixed)) != len(fixed):
        raise ValueError(f"repeated elements in {fixed}")
    bad = [e for e in fixed if not 1 <= e <= m.n]
    if bad:
        raise ValueError(f"elements not in the ground set: {sorted(bad)}")
    if len(fixed) >= m.rank:
        raise ContractionError(
            f"contracting {len(fixed)} elements from rank {m.rank} leaves nothing"
        )
    fset = set(fixed)
    ground = set()
    for s in m.nonzero_supports():
        if fset <= set(s):
            ground.update(set(s) - fset)
    if not ground:
        raise ContractionError(f"no nonzero basis contains {fixed}")
    keep = sorted(ground)
    k = len(fixed)
    signs = gather(m, fixed, itertools.combinations(keep, m.rank - k))
    return SignMap(m.rank - k, len(keep), signs, tuple(m.label_of(e) for e in keep))


# -------------------------------------------------------------- enumerate

def _enum_chunk(task):
    n, r, uniform, lo, hi, want_bodies = task
    values = (-1, 1) if uniform else (-1, 0, 1)
    count = 0
    bodies = []
    for signs in itertools.islice(itertools.product(values, repeat=comb(n, r)), lo, hi):
        if check_chirotope(SignMap(r, n, list(signs)), allow_large=True).ok:
            count += 1
            if want_bodies:
                bodies.append("".join("-0+"[v + 1] for v in signs))
    return count, bodies


def enumerate_bodies(n, r, uniform=False, jobs=1, want_bodies=False,
                     allow_large=False):
    """Scan every sign assignment on the r-subsets of 1..n (uniform: no
    zeros) in '-' < '0' < '+' order and count the ones that validate.
    At most os.cpu_count() worker processes split the scan.
    Returns (valid_count, total, bodies)."""
    if n < 1 or r < 1 or n < r:
        raise ValueError(f"need n >= r >= 1, got n={n}, r={r}")
    width = comb(n, r)
    base = 2 if uniform else 3
    # 2**width passes the limit once width reaches the limit's bit length,
    # so a huge width is refused before its power is built
    if not allow_large and (width >= MAX_ENUM_MAPS.bit_length()
                            or base**width > MAX_ENUM_MAPS):
        raise SizeGuardError(
            f"enumeration over {base}^{width} sign maps is guarded "
            f"(limit {MAX_ENUM_MAPS}); lift explicitly to proceed"
        )
    total = base**width
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    jobs = min(jobs, total, os.cpu_count() or 1)
    tasks = []
    for j in range(jobs):
        lo = total * j // jobs
        hi = total * (j + 1) // jobs
        tasks.append((n, r, uniform, lo, hi, want_bodies))
    if jobs == 1:
        results = [_enum_chunk(tasks[0])]
    else:
        import multiprocessing

        with multiprocessing.Pool(processes=jobs) as pool:
            results = pool.map(_enum_chunk, tasks)
    count = sum(c for c, _ in results)
    bodies = [b for _, bs in results for b in bs]
    return count, total, bodies
