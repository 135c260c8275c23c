"""Independent oracles for the test suite.

Everything here recomputes a result by a different route than the library
(cofactor determinants instead of elimination, brute-force quantification
instead of the reduced scans, exact angle sorting instead of the pivot
construction), so agreement is meaningful.
"""

import functools
import itertools
from fractions import Fraction

from omkit import SignMap, normalize


def det_laplace(matrix):
    """Determinant by cofactor expansion along the first row."""
    size = len(matrix)
    if size == 1:
        return matrix[0][0]
    total = 0
    for j in range(size):
        if matrix[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        term = matrix[0][j] * det_laplace(minor)
        total += -term if j % 2 else term
    return total


# ------------------------------------------------- literal axiom checking

def _signed(n):
    out = []
    for e in range(1, n + 1):
        out.extend((e, -e))
    return out


def literal_c1(m):
    for e in range(1, m.n + 1):
        if not any(e in s for s in m.nonzero_supports()):
            return False
    return True


def literal_c3(m):
    """Exchange, quantified over every pair of nonzero supports and every
    dropped element, trying every element of the other support."""
    nz = m.nonzero_supports()
    for s in nz:
        for t in nz:
            for x in s:
                rest = tuple(e for e in s if e != x)
                if not any(m.evaluate(rest + (u,)) for u in t):
                    return False
    return True


def literal_c4(m):
    """Three-term sign condition, quantified over every signed tuple with
    no reduction: all signed (r-2)-prefixes, all signed slots a, b, c, d."""
    se = _signed(m.n)
    r = m.rank
    for prefix in itertools.product(se, repeat=r - 2):
        for a, b, c, d in itertools.product(se, repeat=4):
            t1 = m.evaluate(prefix + (c, b)) * m.evaluate(prefix + (a, d))
            t2 = m.evaluate(prefix + (d, b)) * m.evaluate(prefix + (a, -c))
            t3 = m.evaluate(prefix + (a, b)) * m.evaluate(prefix + (c, d))
            if t1 >= 0 and t2 >= 0 and t3 < 0:
                return False
    return True


def literal_axiom_check(m):
    return literal_c1(m) and literal_c3(m) and literal_c4(m)


def literal_c3_witness(m):
    """First exchange failure (s, x, t): s and t over the sorted nonzero
    supports, x over s, reading values only through m.evaluate."""
    nz = sorted(m.nonzero_supports())
    for s in nz:
        for t in nz:
            for x in s:
                rest = tuple(e for e in s if e != x)
                if not any(m.evaluate(rest + (u,)) for u in t):
                    return (s, x, t)
    return None


def literal_c4_witness(m):
    """First three-term failure prefix + (a, b, c, d): prefixes are the
    sorted (r-2)-subsets of nonzero supports, the slots run over signed
    elements in the order 1 < -1 < 2 < -2 < ...  Values are read only
    through m.evaluate."""
    r = m.rank
    if r < 2:
        return None
    se = _signed(m.n)
    prefixes = sorted({p for s in m.nonzero_supports()
                       for p in itertools.combinations(s, r - 2)})
    for prefix in prefixes:
        f = {a: {b: m.evaluate(prefix + (a, b)) for b in se} for a in se}
        for a, b in itertools.product(se, repeat=2):
            if not f[a][b]:
                continue  # f(a,b) f(c,d) < 0 fails for every c, d
            for c, d in itertools.product(se, repeat=2):
                if (f[a][b] * f[c][d] < 0 and f[c][b] * f[a][d] >= 0
                        and f[d][b] * f[a][-c] >= 0):
                    return prefix + (a, b, c, d)
    return None


# ----------------------------------------------- literal hyperline axioms
#
# These read a sequence only through its data (.rank, .chosen, .atoms,
# .hyperlines, .y, .z, .ground) and call nothing in omkit.hyperline.  The
# H2/H3/H4 scans are the original quadratic ones.


def _signed_key(e):
    return (abs(e), e < 0)


def literal_positive_tuples(x):
    """Every positively oriented signed tuple, rebuilt from .chosen and
    .atoms: rank 2 pairs by atom position, higher ranks as Y tuple plus
    a Z pair on disjoint elements."""
    if x.rank == 1:
        return {(e,) for e in x.chosen}
    if x.rank == 2:
        p = len(x.atoms)
        k = p // 2
        pos = {s: i for i, a in enumerate(x.atoms) for s in a}
        return {(a, b) for a in pos for b in pos
                if abs(a) != abs(b) and 0 < (pos[b] - pos[a]) % p < k}
    out = set()
    for h in x.hyperlines:
        zp = literal_positive_tuples(h.z)
        for yt in literal_positive_tuples(h.y):
            used = {abs(v) for v in yt}
            out.update(yt + pair for pair in zp
                       if abs(pair[0]) not in used and abs(pair[1]) not in used)
    return out


def _oriented_bases(x):
    """(support, sign) read off the positive tuples: the sign of the
    permutation sorting a tuple times the signs of its entries."""
    out = set()
    for t in literal_positive_tuples(x):
        sign = 1
        for i, v in enumerate(t):
            if v < 0:
                sign = -sign
            sign *= (-1) ** sum(abs(v) > abs(w) for w in t[i + 1:])
        out.add((tuple(sorted(abs(v) for v in t)), sign))
    return out


def _canon(x, negated=False, rename=None):
    """Key equal for equal sequences (rank 2 up to rotation), of x or of
    its negation: rank 1 negates every element, rank 2 reverses the
    cyclic order, higher ranks negate every Z.  With rename, element e is
    read as rename[e] (and its bar as the bar of rename[e])."""
    def name(s):
        if rename is None:
            return s
        return rename[s] if s > 0 else -rename[-s]

    if x.rank == 1:
        return (1, frozenset(-name(e) if negated else name(e)
                             for e in x.chosen))
    if x.rank == 2:
        p = len(x.atoms)
        atoms = [x.atoms[(-a) % p] if negated else x.atoms[a] for a in range(p)]
        enc = [tuple(sorted(map(name, a), key=_signed_key)) for a in atoms]
        return (2, min(tuple(enc[s:] + enc[:s]) for s in range(p)))
    return (x.rank, frozenset((_canon(h.y, False, rename),
                               _canon(h.z, negated, rename))
                              for h in x.hyperlines))


def literal_key(x, rename=None):
    """A key equal exactly for equal sequences.  With rename it is the key
    of x with every element e renamed rename[e], read off x's data: a
    literal relabel."""
    return _canon(x, rename=rename)


def literal_negation(x):
    """The key of x's negation, read off x's data: rank 1 negates every
    element, rank 2 reverses the cyclic order, higher ranks negate every
    Z.  Compare it with literal_key of a computed negation."""
    return _canon(x, negated=True)


def _encoding(x):
    if x.rank == 1:
        return (1, tuple(sorted(x.chosen, key=_signed_key)))
    if x.rank == 2:
        return (2, tuple(tuple(sorted(a, key=_signed_key)) for a in x.atoms))
    return (x.rank, tuple(sorted((_encoding(h.y), _encoding(h.z))
                                 for h in x.hyperlines)))


def literal_display_order(x):
    """Hyperlines grouped by Y ground, the orientation whose smallest Y
    base is positive first, then by encoding."""
    def key(h):
        yb = _oriented_bases(h.y)
        flag = 2
        if yb:
            flag = 0 if min(yb)[1] > 0 else 1
        return (tuple(sorted(h.y.ground)), flag, _encoding(h.y), _encoding(h.z))

    return sorted(x.hyperlines, key=key)


def literal_h2_h3_h4(x):
    """(axiom, witness, message) of the first H2, H3 and H4 violation of a
    rank >= 3 sequence whose structure, H1 and flat coverage hold, by the
    quadratic scans: every ordered pair of hyperlines, every prefix
    against every base support, every positive tuple in order."""
    out = []
    ordered = literal_display_order(x)
    for i, h1 in enumerate(ordered):
        sups1 = {frozenset(s) for s, _ in _oriented_bases(h1.y)}
        for j, h2 in enumerate(ordered):
            if i == j or not any(s <= h2.y.ground for s in sups1):
                continue
            k1 = (_canon(h1.y), _canon(h1.z))
            if k1 != (_canon(h2.y), _canon(h2.z)) and \
                    k1 != (_canon(h2.y, True), _canon(h2.z, True)):
                out.append(("H2", (i, j),
                            f"hyperlines [{i}] and [{j}] share a base of Y "
                            "but are not equal or opposite"))
                break
        else:
            continue
        break

    tuples = literal_positive_tuples(x)
    supports = {tuple(sorted(abs(v) for v in t)) for t in tuples}
    for pref in sorted({t[:-1] for t in tuples}):
        for tsup in sorted(supports):
            if not any(pref + (u,) in tuples or pref + (-u,) in tuples
                       for u in tsup):
                out.append(("H3", (pref, tsup),
                            f"no exchange: prefix {pref} admits no "
                            f"completion from base {tsup}"))
                break
        else:
            continue
        break

    r = x.rank
    for t in sorted(tuples):
        moved = t[: r - 3] + (-t[r - 2], t[r - 3]) + t[r - 1:]
        if moved not in tuples:
            out.append(("H4", (t,),
                        f"base {t} survives no swap across the hyperline "
                        f"boundary (image {moved} is not positive)"))
            break
    return out


# ------------------------------------------------------ literal covectors
#
# Read off the rows alone: cocircuits by cofactor determinants, then the
# plain tuple closure and the height poset.  Calls nothing in omkit.faces.


def _sign(x):
    return (x > 0) - (x < 0)


def _compose(u, v):
    return tuple(a if a else b for a, b in zip(u, v))


def literal_cocircuits(rows):
    """Both signs of (sign det(rows[B] + rows[e]))_e for every
    (r-1)-subset B that gives a nonzero vector."""
    n, r = len(rows), len(rows[0])
    out = set()
    for b in itertools.combinations(range(n), r - 1):
        vec = tuple(
            _sign(det_laplace([list(rows[i]) for i in b] + [list(rows[e])]))
            for e in range(n)
        )
        if any(vec):
            out.add(vec)
            out.add(tuple(-v for v in vec))
    return out


def literal_covectors(rows):
    ccs = literal_cocircuits(rows)
    out = {(0,) * len(rows)} | ccs
    frontier = list(ccs)
    while frontier:
        u = frontier.pop()
        for c in ccs:
            w = _compose(u, c)
            if w not in out:
                out.add(w)
                frontier.append(w)
    return out


def literal_census(rows):
    """(vertices, edges, facets) of a rank 3 configuration: the height of
    each nonzero covector in the composition order, counted per height."""
    cells = literal_covectors(rows) - {(0,) * len(rows)}
    height = {}
    for w in sorted(cells, key=lambda v: sum(1 for s in v if s)):
        hs = [h for u, h in height.items() if _compose(u, w) == w]
        height[w] = max(hs) + 1 if hs else 0
    return tuple(sum(1 for h in height.values() if h == d) for d in (0, 1, 2))


# ------------------------------------------------------ rank 2 by angles

def angular_atoms(rows):
    """Atoms of a planar configuration by exact angle sorting: the 2n
    signed vectors grouped by direction, in counterclockwise order.
    Returns a tuple of frozensets, rotation unspecified."""
    rows = [tuple(Fraction(x) for x in row) for row in rows]

    def half(v):
        # 0 for angles in [0, pi), 1 for [pi, 2pi)
        return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1

    def cross(u, v):
        return u[0] * v[1] - u[1] * v[0]

    signed = []
    for i, row in enumerate(rows, start=1):
        signed.append((i, row))
        signed.append((-i, tuple(-x for x in row)))

    def cmp(a, b):
        ha, hb = half(a[1]), half(b[1])
        if ha != hb:
            return -1 if ha < hb else 1
        c = cross(a[1], b[1])
        return 0 if c == 0 else (-1 if c > 0 else 1)

    ordered = sorted(signed, key=functools.cmp_to_key(cmp))
    atoms = []
    for s, v in ordered:
        if atoms and cross(atoms[-1][1], v) == 0 and (
            atoms[-1][1][0] * v[0] >= 0 and atoms[-1][1][1] * v[1] >= 0
        ):
            atoms[-1][0].add(s)
        else:
            atoms.append(({s}, v))
    return tuple(frozenset(a) for a, _ in atoms)


def rotations_equal(atoms1, atoms2):
    a1, a2 = tuple(atoms1), tuple(atoms2)
    if len(a1) != len(a2):
        return False
    p = len(a1)
    return any(tuple(a1[(s + i) % p] for i in range(p)) == a2 for s in range(p))


# ----------------------------------------------------------- permutations

def relabel_signmap(m, perm):
    """SignMap with element e renamed to perm[e]; values follow by
    evaluating the preimage tuple, so alternation is handled exactly."""
    inv = {v: k for k, v in perm.items()}
    values = {}
    for s in m.supports():
        values[s] = m.evaluate(tuple(inv[e] for e in s))
    return SignMap(m.rank, m.n, values)


# --------------------------------------------------------------- sampling

def random_fullrank_rows(rng, n, r, bound=5):
    """Random integer configuration of n nonzero rows spanning rank r."""
    from omkit import from_vectors

    while True:
        rows = []
        while len(rows) < n:
            row = tuple(rng.randint(-bound, bound) for _ in range(r))
            if any(row):
                rows.append(row)
        try:
            from_vectors(rows)
        except Exception:
            continue
        return rows


def random_signmap(rng, n, r):
    values = {}
    for s in itertools.combinations(range(1, n + 1), r):
        values[s] = rng.choice((-1, 0, 1))
    return SignMap(r, n, values)


# ---------------------------------------------------- quotient projection

def _rank_fraction(rows):
    mat = [list(row) for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(rank + 1, len(mat)):
            if mat[i][c] != 0:
                f = mat[i][c] / mat[rank][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def _solve(columns, v):
    """x with sum x_i * columns_i = v, by Gaussian elimination."""
    size = len(v)
    aug = [[columns[j][i] for j in range(size)] + [v[i]] for i in range(size)]
    for c in range(size):
        piv = next(i for i in range(c, size) if aug[i][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        pv = aug[c][c]
        aug[c] = [a / pv for a in aug[c]]
        for i in range(size):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    return [aug[i][size] for i in range(size)]


def quotient_coords(rows, fixed):
    """Images of the non-fixed rows in the quotient by the span of the
    fixed ones: completes the fixed rows to a basis with standard unit
    vectors, reads off the trailing coordinates.  Returns (kept original
    ids, coordinate rows, sign of the basis-change determinant)."""
    rows = [tuple(Fraction(x) for x in row) for row in rows]
    r = len(rows[0])
    k = len(fixed)
    ext = [rows[i - 1] for i in fixed]
    for j in range(r):
        if len(ext) == r:
            break
        unit = tuple(Fraction(int(i == j)) for i in range(r))
        if _rank_fraction(ext + [unit]) == len(ext) + 1:
            ext.append(unit)
    assert len(ext) == r, "fixed rows are dependent"
    corr = det_laplace([list(row) for row in ext])
    corr = 1 if corr > 0 else -1
    kept, coords = [], []
    for i, row in enumerate(rows, start=1):
        if i in fixed:
            continue
        x = _solve(ext, row)
        tail = tuple(x[k:])
        if any(tail):
            kept.append(i)
            coords.append(tail)
    return kept, coords, corr


# ------------------------------------------------------- canonical orbits

def orbit_by_moves(entries):
    """All tuples reachable by swapping an adjacent pair and barring one
    of the two entries.  This is the move set that leaves the oriented
    simplex unchanged."""
    start = tuple(entries)
    seen = {start}
    frontier = [start]
    while frontier:
        t = frontier.pop()
        for i in range(len(t) - 1):
            a, b = t[i], t[i + 1]
            for moved in (
                t[:i] + (-b, a) + t[i + 2:],
                t[:i] + (b, -a) + t[i + 2:],
            ):
                if moved not in seen:
                    seen.add(moved)
                    frontier.append(moved)
    return seen


def equivalence_class(entries):
    """All signed rearrangements with the same canonical form, brute force."""
    target = normalize(entries)
    out = set()
    for perm in itertools.permutations(entries):
        for signs in itertools.product((1, -1), repeat=len(entries)):
            t = tuple(s * x for s, x in zip(signs, perm))
            if normalize(t) == target:
                out.add(t)
    return out
