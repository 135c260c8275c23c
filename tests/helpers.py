"""Independent oracles for the test suite.

Everything here recomputes a result by a different route than the library
(cofactor determinants instead of elimination, brute-force quantification
instead of the reduced scans, exact angle sorting instead of the pivot
construction), so agreement is meaningful.
"""

import functools
import itertools
import math
from fractions import Fraction

from omkit import HLHigher, HLRank2, Hyperline, SignMap, normalize


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

def parity_evaluator(m):
    """m's value on a signed r-tuple, read off dict(m.items()): 0 when an
    element repeats, else the sorted support's value, negated once per
    barred entry and once per inversion of the tuple's elements.  The
    literal scans ask for the same tuples many times, so it remembers."""
    values = dict(m.items())

    @functools.cache
    def value(t):
        elems = [abs(e) for e in t]
        if len(set(elems)) < len(elems):
            return 0
        flips = sum(e < 0 for e in t) + sum(
            a > b for i, a in enumerate(elems) for b in elems[i + 1:])
        sign = values[tuple(sorted(elems))]
        return -sign if flips & 1 else sign

    return value


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
    value = parity_evaluator(m)
    nz = m.nonzero_supports()
    for s in nz:
        for t in nz:
            for x in s:
                rest = tuple(e for e in s if e != x)
                if not any(value(rest + (u,)) for u in t):
                    return False
    return True


def literal_c4(m):
    """Three-term sign condition, quantified over every signed tuple with
    no reduction: all signed (r-2)-prefixes, all signed slots a, b, c, d."""
    value = parity_evaluator(m)
    se = _signed(m.n)
    r = m.rank
    for prefix in itertools.product(se, repeat=r - 2):
        for a, b, c, d in itertools.product(se, repeat=4):
            t1 = value(prefix + (c, b)) * value(prefix + (a, d))
            t2 = value(prefix + (d, b)) * value(prefix + (a, -c))
            t3 = value(prefix + (a, b)) * value(prefix + (c, d))
            if t1 >= 0 and t2 >= 0 and t3 < 0:
                return False
    return True


def literal_axiom_check(m):
    return literal_c1(m) and literal_c3(m) and literal_c4(m)


def literal_c3_witness(m):
    """First exchange failure (s, x, t): s and t over the sorted nonzero
    supports, x over s, reading values only through parity_evaluator."""
    value = parity_evaluator(m)
    nz = sorted(m.nonzero_supports())
    for s in nz:
        for t in nz:
            for x in s:
                rest = tuple(e for e in s if e != x)
                if not any(value(rest + (u,)) for u in t):
                    return (s, x, t)
    return None


def literal_c4_witness(m):
    """First three-term failure prefix + (a, b, c, d): prefixes are the
    sorted (r-2)-subsets of nonzero supports, the slots run over signed
    elements in the order 1 < -1 < 2 < -2 < ...  Values are read only
    through parity_evaluator."""
    r = m.rank
    if r < 2:
        return None
    value = parity_evaluator(m)
    se = _signed(m.n)
    prefixes = sorted({p for s in m.nonzero_supports()
                       for p in itertools.combinations(s, r - 2)})
    for prefix in prefixes:
        f = {a: {b: value(prefix + (a, b)) for b in se} for a in se}
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


def literal_period2_paths(x, path=""):
    """Paths, in the check's notation, of the rank 2 components of x
    with two atoms, read off .atoms and .hyperlines in stored order."""
    if x.rank < 3:
        return [path] if x.rank == 2 and len(x.atoms) == 2 else []
    pre = path + "." if path else ""
    return [p for i, h in enumerate(x.hyperlines) for part, c in (("Y", h.y), ("Z", h.z))
            for p in literal_period2_paths(c, f"{pre}hyperline[{i}].{part}")]


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
# Read off the rows alone, or the sign map through parity_evaluator:
# cocircuits by determinants or evaluated tuples, then the plain tuple
# closure and the height poset.  Calls nothing in omkit.faces.


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


def signmap_cocircuits(m):
    """Both signs of (m's value on B + (e,))_e for every (r-1)-subset B
    that gives a nonzero vector."""
    value = parity_evaluator(m)
    out = set()
    for b in itertools.combinations(range(1, m.n + 1), m.rank - 1):
        vec = tuple(value(b + (e,)) for e in range(1, m.n + 1))
        if any(vec):
            out.add(vec)
            out.add(tuple(-v for v in vec))
    return out


def literal_closure(ccs, n):
    """The sign vectors ccs closed under composition, plus zero."""
    out = {(0,) * n} | ccs
    frontier = list(ccs)
    while frontier:
        u = frontier.pop()
        for c in ccs:
            w = _compose(u, c)
            if w not in out:
                out.add(w)
                frontier.append(w)
    return out


def literal_covectors(rows):
    return literal_closure(literal_cocircuits(rows), len(rows))


def census_by_height(covectors):
    """(vertices, edges, facets) of a rank 3 covector set: the height of
    each nonzero covector in the composition order, counted per height."""
    cells = set(covectors) - {(0,) * len(next(iter(covectors)))}
    height = {}
    for w in sorted(cells, key=lambda v: sum(1 for s in v if s)):
        hs = [h for u, h in height.items() if _compose(u, w) == w]
        height[w] = max(hs) + 1 if hs else 0
    return tuple(sum(1 for h in height.values() if h == d) for d in (0, 1, 2))


def literal_census(rows):
    return census_by_height(literal_covectors(rows))


def zaslavsky_tope_count(rows):
    """Tope count of a vector configuration by Zaslavsky's theorem: the
    sum over subsets S of the rows of (-1)^(|S| - rank S)."""
    rows = [tuple(Fraction(x) for x in row) for row in rows]
    total = 0
    for k in range(len(rows) + 1):
        for sub in itertools.combinations(rows, k):
            total += -1 if (k - _rank_fraction(sub)) % 2 else 1
    return total


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
    value = parity_evaluator(m)
    values = {}
    for s, _ in m.items():
        values[s] = value(tuple(inv[e] for e in s))
    return SignMap(m.rank, m.n, values)


def reorient_signmap(m, e):
    """SignMap with element e reoriented: every basis containing e
    changes sign."""
    return SignMap(m.rank, m.n, {s: -v if e in s else v for s, v in m.items()})


# ---------------------------------------------------- neighbourhood moves
#
# Single local moves on a hyperline sequence, built from .atoms and
# .hyperlines.  Each yields a candidate, valid or not, for the check to
# judge against the chirotope route.


def rank2_moves(atoms):
    """Atom lists one move away from an antipodal cyclic sequence of
    period at least 4: two adjacent atoms swapped or merged, or an atom
    split, each together with the antipodes; or one signed element moved
    alone into the atom of its negation, dropping an atom that it empties
    (no sequence holds an empty atom)."""
    atoms = [frozenset(a) for a in atoms]
    k = len(atoms) // 2
    out = []
    for i in range(k):
        a, b, *rest = (atoms[i:] + atoms[:i])[:k]
        halves = [[b, a] + rest, [a | b] + rest]
        halves += [[frozenset(part), a.difference(part), b] + rest
                   for size in range(1, len(a)) for part in itertools.combinations(a, size)]
        out += [h + [frozenset(-e for e in c) for c in h] for h in halves]
    for s in (s for atom in atoms for s in atom):
        moved = [(c - {s}) | ({s} if -s in c else set()) for c in atoms]
        out.append([c for c in moved if c])
    return out


def neighbours(x):
    """Sequences one move away from x: at rank 2 a move on x; above it a
    move on one hyperline's Z or, at rank 3, that hyperline's Y negated,
    applied to the hyperline and its negation together."""
    if x.rank == 2:
        return [HLRank2(atoms) for atoms in rank2_moves(x.atoms)]
    out = []
    for h in x.hyperlines:
        kept = set(x.hyperlines) - {h, Hyperline(h.y.negation, h.z.negation)}
        pairs = [(h.y, HLRank2(atoms)) for atoms in rank2_moves(h.z.atoms)]
        pairs += [(h.y.negation, h.z)] if x.rank == 3 else []
        out += [HLHigher(x.rank, kept | {Hyperline(y, z), Hyperline(y.negation, z.negation)})
                for y, z in pairs]
    return out


def triangle_flip(x, a, b, c):
    """The uniform rank 3 sequence x with the triangle a, b, c flipped, the
    mutation of Bjorner et al., Oriented Matroids, ch. 7: on both
    hyperlines of each flat {a}, {b} and {c}, the adjacent atoms holding
    the other two elements swapped, together with their antipodes.  None
    when some pair is not adjacent."""
    out = []
    for h in x.hyperlines:
        (e,) = h.y.ground
        if e not in (a, b, c):
            out.append(h)
            continue
        pair = {a, b, c} - {e}
        atoms = list(h.z.atoms)
        p = len(atoms)
        at = [i for i in range(p) if {abs(s) for s in atoms[i] | atoms[(i + 1) % p]} == pair]
        if not at:
            return None
        for i in at:  # the pair and its antipodes
            atoms[i], atoms[(i + 1) % p] = atoms[(i + 1) % p], atoms[i]
        out.append(Hyperline(h.y, HLRank2(atoms)))
    return HLHigher(x.rank, out)


def route_disagreements(maps, seen):
    """The sequences of the valid sign maps `maps`, and every sequence one
    move away from them, on which check_hyperline disagrees with the
    chirotope route: a sequence passes that route when its chirotope
    passes check_chirotope and rebuilds to it (a ConstructionError is a
    rejection).  seen counts the sequences checked by (rank, verdict)."""
    from omkit import (ConstructionError, check_chirotope, check_hyperline,
                       from_chirotope, to_chirotope)

    starts = {from_chirotope(m) for m in maps}
    bad = []
    for v in starts.union(*map(neighbours, starts)):
        try:
            m = to_chirotope(v)
            ok = check_chirotope(m).ok and from_chirotope(m) == v
        except ConstructionError:
            ok = False
        if check_hyperline(v).ok != ok:
            bad.append(v)
        seen[v.rank, ok] += 1
    return bad


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


def rows_with_extra(rng, n, r, kind):
    """n seeded rows spanning rank r, one of them the sum of two others
    (kind "dependent") or a multiple of one, possibly negative
    ("parallel")."""
    rows = random_fullrank_rows(rng, n - 1, r, bound=3)
    i, j = rng.sample(range(n - 1), 2)
    if kind == "dependent":
        extra = tuple(a + b for a, b in zip(rows[i], rows[j]))
        if not any(extra):
            extra = tuple(a - b for a, b in zip(rows[i], rows[j]))
    else:
        k = rng.choice((-2, -1, 2, 3))
        extra = tuple(k * a for a in rows[i])
    rows.insert(rng.randrange(n), extra)
    return rows


def uniform_rows(rng, n, r):
    """n rows in general position in rank r: points on the moment curve at
    distinct integers, each row with a random sign."""
    return [tuple(s * t ** k for k in range(r))
            for t, s in zip(rng.sample(range(-6, 7), n), rng.choices((1, -1), k=n))]


def random_signmap(rng, n, r):
    values = {}
    for s in itertools.combinations(range(1, n + 1), r):
        values[s] = rng.choice((-1, 0, 1))
    return SignMap(r, n, values)


def valid_signmaps(rng, n, r, count):
    """count distinct valid sign maps at (n, r), drawn uniformly from the
    valid ones by rejecting random sign maps that fail check_chirotope."""
    from omkit import check_chirotope

    out = {}
    while len(out) < count:
        signs = tuple(rng.choice((-1, 0, 1)) for _ in range(math.comb(n, r)))
        if signs not in out and check_chirotope(m := SignMap(r, n, list(signs))).ok:
            out[signs] = m
    return list(out.values())


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
