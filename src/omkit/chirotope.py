"""Chirotopes as total sign maps on ascending rank-subsets.

A SignMap stores its signs as one flat list in lexicographic subset order,
which is the order of a .chi body, so parsing, serializing, realization,
minors and enumeration all build or read that list directly.  Other
modules read it through nonzero_supports, cocircuit_masks and pair_table/gather.

check_chirotope verifies the alternating-map axioms directly: C1 (every
element in a nonzero basis), C3 (basis exchange), and C4 (three-term sign
consistency).  C2 never needs checking because evaluation applies the
oriented-simplex rule of _sorted_sign, which builds the alternation in.
It is the only validation here: from_vectors, delete and contract assume
a chirotope, refuse only what they cannot build, and build a minor of an
unchecked map all the same.

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

enumerate_bodies counts the sign maps that pass the check by a pruned scan.
"""

from __future__ import annotations

import functools
import itertools
from math import gcd

from .errors import (
    ContractionError,
    DeletionError,
    RealizationError,
    SizeGuardError,
    ValidationReport,
)

MAX_SIGNS = 10**6  # more subsets than this are refused before any is listed
MAX_COUNT = 2**64  # a larger subset count is named C(n, r), never computed


class SignMap:
    """Total assignment of {-1, 0, +1} to the ascending r-subsets of 1..n.

    The signs are stored as one flat list in lexicographic subset order,
    the order of a .chi body; `values` is either that list (taken over,
    not copied: its length and values are checked, and nothing beyond it
    is allocated) or a {subset: sign} mapping, where absent subsets are 0.
    Storage always uses compacted ids 1..n; `labels` names element i as
    labels[i - 1], and minors take labels and keep the ones they keep.  The
    readers of stored signs (evaluate, items, nonzero_supports, pair_table
    and gather) work in ids.  Instances are treated as immutable.  Equality
    compares rank, n, and values (labels are metadata).
    """

    __slots__ = ("rank", "n", "_signs", "labels")

    def __init__(self, rank, n, values=None, labels=None):
        if rank < 1:
            raise ValueError("rank must be at least 1")
        if n < 1:
            raise ValueError("ground set needs at least one element")
        self.rank = int(rank)
        self.n = int(n)
        if isinstance(values, list):
            count = subset_count(self.n, self.rank)
            if len(values) != count:
                raise ValueError(f"expected {f'C({n}, {rank})' if count is None else count} "
                                 f"signs, one per {rank}-subset of 1..{n}, got {len(values)}")
        else:
            subsets, position = _layout(self.n, self.rank)
            signs = [0] * len(subsets)
            for key, v in (values or {}).items():
                key = tuple(int(e) for e in key)
                if key not in position:
                    raise ValueError(f"not an ascending {rank}-subset of 1..{n}: {key}")
                signs[position[key]] = v
            values = signs
        bad = next((v for v in values if v not in (-1, 0, 1)), None)
        if bad is not None:
            raise ValueError(f"sign value out of range: {bad}")
        self._signs = values
        self.labels = tuple(labels) if labels is not None else tuple(range(1, n + 1))
        if len(set(self.labels)) != n or len(self.labels) != n:
            raise ValueError("labels must name every element once")

    def nonzero_supports(self):
        """Id supports of the nonzero signs, in lexicographic order."""
        return [s for s, v in zip(_layout(self.n, self.rank)[0], self._signs) if v]

    def items(self):
        """(id support, sign) pairs in lexicographic support order."""
        return list(zip(_layout(self.n, self.rank)[0], self._signs))

    def evaluate(self, simplex):
        """Sign of a signed r-tuple of ids; degenerate tuples give 0."""
        simplex = tuple(simplex)
        if len(simplex) != self.rank:
            raise ValueError(f"expected {self.rank} entries, got {len(simplex)}")
        canon = _sorted_sign(simplex)
        if canon is None:
            return 0
        try:
            i = _layout(self.n, self.rank)[1][canon[0]]
        except KeyError:
            raise ValueError(f"element out of range in {simplex}") from None
        return canon[1] * self._signs[i]

    def negate(self):
        return SignMap(self.rank, self.n, [-v for v in self._signs], self.labels)

    def label_of(self, e):
        return self.labels[e - 1]

    def ids(self, labels):
        """Internal ids of distinct labels, in the order given: the one map
        from the names a caller uses to storage ids.  Refuses an unknown
        label, then a repeated one."""
        index = {lab: i for i, lab in enumerate(self.labels, 1)}
        missing = [e for e in labels if e not in index]
        if missing:
            raise ValueError(f"elements not in the ground set: {missing}")
        ids = [index[e] for e in labels]
        if len(set(ids)) != len(ids):
            raise ValueError(f"repeated elements in {tuple(map(self.label_of, sorted(ids)))}")
        return ids

    def __eq__(self, other):
        if not isinstance(other, SignMap):
            return NotImplemented
        return (
            self.rank == other.rank
            and self.n == other.n
            and self._signs == other._signs
        )

    def __repr__(self):
        nz = sum(map(bool, self._signs))  # reads no subset, so never refused
        return f"SignMap(rank={self.rank}, n={self.n}, nonzero={nz})"


def _sorted_sign(entries):
    """(ascending support, sign) of a signed tuple, or None when an
    element repeats: the oriented-simplex rule negates the sign once per
    barred entry and once per inversion of the tuple's elements."""
    if 0 in entries:
        raise ValueError("0 is not a signed element")
    elems = [abs(x) for x in entries]
    if len(set(elems)) < len(elems):
        return None
    flips = sum(x < 0 for x in entries) + sum(
        a > b for i, a in enumerate(elems) for b in elems[i + 1:])
    return tuple(sorted(elems)), -1 if flips & 1 else 1


def subset_count(n, r):
    """C(n, r), or None once it passes MAX_COUNT.  C(n, j) grows with j up
    to min(r, n - r) and is at least 2^j there, so the running product
    stops within about 64 steps whatever the size of n and r."""
    if not 0 <= r <= n:
        return 0
    count = 1
    for j in range(min(r, n - r)):
        count = count * (n - j) // (j + 1)
        if count > MAX_COUNT:
            return None
    return count


@functools.lru_cache(maxsize=64)
def _layout(n, r):
    """The ascending r-subsets of 1..n in lexicographic order, and the
    position of each in that order.  Refuses more than MAX_SIGNS subsets
    before building any; the cache holds every (n, r) with r <= 5 and
    n <= 9, all that one from_chirotope at the size guard can touch."""
    count = subset_count(n, r)
    if count is None or count > MAX_SIGNS:
        raise SizeGuardError(f"C({n}, {r}){f' = {count}' if count else ''} signs is "
                             f"past the limit of {MAX_SIGNS}")
    subsets = tuple(itertools.combinations(range(1, n + 1), r))
    return subsets, {s: i for i, s in enumerate(subsets)}


# ---------------------------------------------------------------- checking

def check_chirotope(m: SignMap) -> ValidationReport:
    """Check C1, C3, and C4; report one witness per violated axiom."""
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
    """g[a][b] = m.evaluate(prefix + (a, b)) for ids a, b of 1..n,
    read through gather.  prefix is ascending; a signed pair has value
    sign(a) * sign(b) * g[|a|][|b|]."""
    pairs = list(itertools.combinations([e for e in range(1, m.n + 1) if e not in prefix], 2))
    g = [[0] * (m.n + 1) for _ in range(m.n + 1)]
    for (a, b), v in zip(pairs, gather(m, prefix, pairs)):
        g[a][b] = v
        g[b][a] = -v
    return g


def gather(m, head, subsets):
    """Value of head + s for each ascending id subset s, read straight from
    the stored values; head is a signed id tuple disjoint from every s.  The
    sign flips once per pair of a head element above an element of s."""
    signs, position = m._signs, _layout(m.n, m.rank)[1]
    lead, sign = _sorted_sign(head)
    above = [sum(h > e for h in lead) for e in range(m.n + 1)]
    out = []
    for s in subsets:
        v = sign * signs[position[tuple(sorted(lead + s))]]
        out.append(-v if sum(map(above.__getitem__, s)) & 1 else v)
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

def delete(m: SignMap, drop) -> SignMap:
    """Restrict to the elements outside the labels `drop`.  Refuses a set
    that no nonzero basis avoids, as the restriction would drop the rank;
    every other deletion of a chirotope is one (Bjorner et al., ch. 3)."""
    drop = sorted(m.ids(drop))
    keep = [e for e in range(1, m.n + 1) if e not in drop]
    signs = gather(m, (), itertools.combinations(keep, m.rank))
    if not any(signs):
        raise DeletionError(f"deleting {list(map(m.label_of, drop))} drops the rank: "
                            "no nonzero basis avoids them")
    return SignMap(m.rank, len(keep), signs, tuple(m.label_of(e) for e in keep))


def find_deletable(m: SignMap) -> tuple:
    """(label, delete(m, [label])) for the first element that some
    nonzero basis avoids; refuses with DeletionError when there is none."""
    nz = m.nonzero_supports()
    e = next((e for e in range(1, m.n + 1) if any(e not in s for s in nz)), None)
    if e is None:
        raise DeletionError("no nonzero basis avoids any single element")
    return m.label_of(e), delete(m, [m.label_of(e)])


def contract(m: SignMap, fixed) -> SignMap:
    """Contract an independent tuple of labels: keep the elements that
    complete it to a nonzero basis and prepend it, in id order, when
    reading values.  Refuses a tuple that no nonzero basis contains."""
    fixed = sorted(m.ids(fixed))
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
        raise ContractionError(f"no nonzero basis contains {tuple(map(m.label_of, fixed))}")
    keep = sorted(ground)
    k = len(fixed)
    signs = gather(m, fixed, itertools.combinations(keep, m.rank - k))
    return SignMap(m.rank - k, len(keep), signs, tuple(m.label_of(e) for e in keep))


# -------------------------------------------------------------- enumerate

def enumerate_bodies(n, r, uniform=False, want_bodies=False):
    """Count the sign maps on the r-subsets of 1..n (uniform: no zeros) that
    validate, in '-' < '0' < '+' order, by one pruned scan in this process.
    Returns (valid_count, total, bodies), total counting every map."""
    if n < 1 or r < 1 or n < r:
        raise ValueError(f"need n >= r >= 1, got n={n}, r={r}")
    values = (-1, 1) if uniform else (-1, 0, 1)
    total = len(values) ** len(_layout(n, r)[0])
    count, bodies = _pruned_scan(n, r, values, want_bodies)
    return count, total, bodies


def _pruned_scan(n, r, values, want_bodies):
    """(count, bodies), depth first without recursion: signs are set in subset
    order, each trying `values` in turn, and a branch is cut once a C4
    instance whose six values are set fails.  A full map is checked for C1, C3."""
    @functools.cache
    def c1_c3_hold(zeros):  # C1 and C3 read only where the zeros are
        m = SignMap(r, n, list(zeros))
        return not uncovered(m) and not _c3_violation(m)

    subsets, position = _layout(n, r)
    signs, tried = [0] * len(subsets), [0] * len(subsets)
    checks, count, bodies, i = [], 0, [], 0  # checks[i]: built on reaching subset i
    while i >= 0:
        if tried[i] == len(values):
            tried[i], i = 0, i - 1
            continue
        signs[i], tried[i] = values[tried[i]], tried[i] + 1
        if i == len(checks):
            checks.append(_c4_instances(n, subsets, position, i))
        for ab, cd, ac, bd, ad, bc in checks[i]:
            t1, t2, t3 = signs[ab] * signs[cd], -signs[ac] * signs[bd], signs[ad] * signs[bc]
            if 0 < abs(t1 + t2 + t3) == abs(t1) + abs(t2) + abs(t3):
                break
        else:
            if i + 1 < len(subsets):
                i += 1
            elif c1_c3_hold(bytes(map(abs, signs))):
                count += 1
                if want_bodies:
                    bodies.append("".join("-0+"[v + 1] for v in signs))
    return count, bodies


def _c4_instances(n, subsets, position, i):
    """Positions of P + ab, P + cd, P + ac, P + bd, P + ad, P + bc for each
    prefix P and a < b < c < d outside it whose last subset is i.  Stored values
    stand in for a pair table, whose merge signs scale all three products alike."""
    s, out = subsets[i], []
    rest = [e for e in range(1, n + 1) if e not in s]
    for pair in itertools.combinations(s, 2):
        prefix = tuple(e for e in s if e not in pair)
        for other in itertools.combinations(rest, 2):
            a, b, c, d = sorted(pair + other)
            six = tuple(position[tuple(sorted(prefix + q))]
                        for q in ((a, b), (c, d), (a, c), (b, d), (a, d), (b, c)))
            if max(six) == i:
                out.append(six)
    return out
