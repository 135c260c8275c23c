"""Chirotopes as total sign maps on ascending rank-subsets.

check_chirotope verifies the alternating-map axioms directly: C1 (every
element in a nonzero basis), C3 (basis exchange), and C4 (three-term sign
consistency).  C2 never needs checking because evaluation routes every
tuple through the canonical simplex form, which builds the alternation in.

The C4 scan quantifies over all signed (r+2)-tuples.  Since the three
products compared share their first r-2 entries, the scan iterates over
ascending unsigned prefixes only (any other prefix gives the same products
up to a squared sign) and handles the remaining four slots with an exact
int8 table, so no float ever enters a sign decision.

enumerate_bodies counts, by brute force, the sign maps that pass the check.
"""

from __future__ import annotations

import itertools
import os
from enum import Enum
from fractions import Fraction
from math import comb, gcd

import numpy as np

from .core import normalize, signed_elements
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
MAX_ENUM_SUPPORTS = 20


class OrientationClass(Enum):
    PLUS = 1
    MINUS = -1


class SignMap:
    """Total assignment of {-1, 0, +1} to the ascending r-subsets of 1..n.

    Storage always uses compacted ids 1..n; `labels` remembers the original
    ids so minors stay traceable in reports.  Instances are treated as
    immutable.  Equality compares rank, n, and values (labels are metadata).
    """

    __slots__ = ("rank", "n", "_values", "labels")

    def __init__(self, rank, n, values=None, labels=None):
        if rank < 1:
            raise ValueError("rank must be at least 1")
        if n < 1:
            raise ValueError("ground set needs at least one element")
        self.rank = int(rank)
        self.n = int(n)
        full = {s: 0 for s in itertools.combinations(range(1, n + 1), rank)}
        if values:
            for key, v in values.items():
                key = tuple(int(e) for e in key)
                if key not in full:
                    raise ValueError(f"not an ascending {rank}-subset of 1..{n}: {key}")
                if v not in (-1, 0, 1):
                    raise ValueError(f"sign value out of range at {key}: {v}")
                full[key] = int(v)
        self._values = full
        self.labels = tuple(labels) if labels is not None else tuple(range(1, n + 1))
        if len(self.labels) != n:
            raise ValueError("labels must name every element")

    def supports(self):
        return iter(self._values)

    def nonzero_supports(self):
        return [s for s, v in self._values.items() if v]

    def items(self):
        return self._values.items()

    def value(self, support):
        """Raw stored value on an ascending support tuple."""
        return self._values[tuple(support)]

    def evaluate(self, simplex):
        """Sign of an arbitrary signed r-tuple; degenerate tuples give 0."""
        simplex = tuple(simplex)
        if len(simplex) != self.rank:
            raise ValueError(f"expected {self.rank} entries, got {len(simplex)}")
        nb = normalize(simplex)
        if nb is None:
            return 0
        try:
            v = self._values[nb.support]
        except KeyError:
            raise ValueError(f"element out of range in {simplex}") from None
        return nb.sign * v

    def negate(self):
        vals = {s: -v for s, v in self._values.items() if v}
        return SignMap(self.rank, self.n, vals, self.labels)

    def label_of(self, e):
        return self.labels[e - 1]

    def __eq__(self, other):
        if not isinstance(other, SignMap):
            return NotImplemented
        return (
            self.rank == other.rank
            and self.n == other.n
            and self._values == other._values
        )

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __repr__(self):
        nz = len(self.nonzero_supports())
        return f"SignMap(rank={self.rank}, n={self.n}, nonzero={nz})"


def evaluate(m: SignMap, simplex):
    return m.evaluate(simplex)


def negate(m: SignMap) -> SignMap:
    return m.negate()


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
    missing = _c1_missing(m)
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


def _c1_missing(m):
    covered = set()
    for s in m.nonzero_supports():
        covered.update(s)
    return [e for e in range(1, m.n + 1) if e not in covered]


def _c3_violation(m):
    # One exchange candidate per dropped element suffices: the condition
    # only sees the unsigned support of each tuple.
    nz = sorted(m.nonzero_supports())
    vals = m._values
    for s in nz:
        sset = set(s)
        for t in nz:
            for x in s:
                rest = sset - {x}
                found = False
                for u in t:
                    if u in rest:
                        continue
                    if vals[tuple(sorted(rest | {u}))]:
                        found = True
                        break
                if not found:
                    return (s, x, t)
    return None


def _c4_violation(m):
    r, n = m.rank, m.n
    if r < 2:
        return None
    se = signed_elements(n)
    n2 = 2 * n
    bar = np.arange(n2) ^ 1

    extendable = set()
    for s in m.nonzero_supports():
        extendable.update(itertools.combinations(s, r - 2))
    for prefix in sorted(extendable):
        f = np.zeros((n2, n2), dtype=np.int8)
        for i, a in enumerate(se):
            for j, b in enumerate(se):
                f[i, j] = m.evaluate(prefix + (a, b))
        # slots (a, b, c, d) = (x_{r-1}, x_r, y_1, y_2)
        p1 = f.T[None, :, :, None] * f[:, None, None, :]        # f(c,b) * f(a,d)
        p2 = f.T[None, :, None, :] * f[:, bar][:, None, :, None]  # f(d,b) * f(a,~c)
        cc = f[:, :, None, None] * f[None, None, :, :]          # f(a,b) * f(c,d)
        viol = (p1 >= 0) & (p2 >= 0) & (cc < 0)
        if viol.any():
            a, b, c, d = np.unravel_index(int(np.argmax(viol)), viol.shape)
            return prefix + (se[a], se[b], se[c], se[d])
    return None


# ------------------------------------------------------------- realization

class VectorConfig:
    """Configuration of nonzero rational row vectors, all of width r."""

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
                coerced.append(x if isinstance(x, Fraction) else Fraction(x))
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


def _exact_rank(rows):
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return 0
    cols = len(mat[0])
    rank = 0
    for c in range(cols):
        pivot = None
        for i in range(rank, len(mat)):
            if mat[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][c]
        for i in range(rank + 1, len(mat)):
            if mat[i][c] != 0:
                f = mat[i][c] / pv
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
        if rank == cols:
            break
    return rank


def from_vectors(vectors, labels=None) -> SignMap:
    """Chirotope of a rational vector configuration: the value on each
    ascending r-subset is the exact determinant sign of those rows."""
    cfg = vectors if isinstance(vectors, VectorConfig) else VectorConfig(vectors)
    rows = cfg.cleared_rows()
    r, n = cfg.r, cfg.n
    if n < r or _exact_rank(rows) < r:
        raise RealizationError(f"rows do not span rank {r}")
    values = {}
    for sup in itertools.combinations(range(1, n + 1), r):
        values[sup] = det_sign([rows[e - 1] for e in sup])
    return SignMap(r, n, values, labels)


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
    old_of_new = {i + 1: e for i, e in enumerate(keep)}
    values = {}
    for sup in itertools.combinations(range(1, len(keep) + 1), m.rank):
        values[sup] = m.value(tuple(old_of_new[i] for i in sup))
    sub = SignMap(m.rank, len(keep), values, tuple(m.label_of(e) for e in keep))
    return sub, check_chirotope(sub, allow_large)


def find_deletable(m: SignMap, allow_large=False) -> int:
    """Smallest element whose deletion validates as a rank-preserving
    chirotope.  Existence is guaranteed whenever n > r, but only elements
    outside a nonzero basis are promised to work, so each candidate is
    verified before being returned."""
    if m.n <= m.rank:
        raise NoDeletableElement(f"n = rank = {m.rank}: nothing can be deleted")
    for e in range(1, m.n + 1):
        sub, report = delete(m, {e}, allow_large)
        if report.ok:
            return e
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
    old_of_new = {i + 1: e for i, e in enumerate(keep)}
    k = len(fixed)
    values = {}
    for sup in itertools.combinations(range(1, len(keep) + 1), m.rank - k):
        orig = tuple(old_of_new[i] for i in sup)
        values[sup] = m.evaluate(fixed + orig)
    return SignMap(m.rank - k, len(keep), values, tuple(m.label_of(e) for e in keep))


def classify_full(m: SignMap) -> OrientationClass:
    """Which of the two chirotopes on n = r elements this is."""
    if m.n != m.rank:
        raise ValueError(f"defined only for n = rank (got n={m.n}, rank={m.rank})")
    v = m.value(tuple(range(1, m.rank + 1)))
    if v == 0:
        raise ValueError("not a chirotope: the only possible basis has value 0")
    return OrientationClass.PLUS if v > 0 else OrientationClass.MINUS


# -------------------------------------------------------------- enumerate

def _body_at(index, width, alphabet):
    base = len(alphabet)
    chars = []
    for p in range(width - 1, -1, -1):
        chars.append(alphabet[(index // base**p) % base])
    return "".join(chars)


def _enum_chunk(task):
    n, r, uniform, lo, hi, want_bodies = task
    alphabet = "-+" if uniform else "-0+"
    signs = {"-": -1, "0": 0, "+": 1}
    supports = list(itertools.combinations(range(1, n + 1), r))
    width = len(supports)
    count = 0
    bodies = []
    for i in range(lo, hi):
        body = _body_at(i, width, alphabet)
        values = dict(zip(supports, (signs[c] for c in body)))
        m = SignMap(r, n, values)
        if check_chirotope(m, allow_large=True).ok:
            count += 1
            if want_bodies:
                bodies.append(body)
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
    if width > MAX_ENUM_SUPPORTS and not allow_large:
        raise SizeGuardError(
            f"enumeration over {width} supports is guarded "
            f"(limit {MAX_ENUM_SUPPORTS}); lift explicitly to proceed"
        )
    base = 2 if uniform else 3
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
