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

from omkit import HLHigher, HLRank1, HLRank2, Hyperline, SignMap


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

def canonical_form(t):
    """(sorted support, sign) of a signed tuple, None when an element
    repeats: the sign is negated once per barred entry and once per
    inversion of the tuple's elements."""
    elems = [abs(e) for e in t]
    if len(set(elems)) < len(elems):
        return None
    flips = sum(e < 0 for e in t) + sum(
        a > b for i, a in enumerate(elems) for b in elems[i + 1:])
    return tuple(sorted(elems)), -1 if flips & 1 else 1


def parity_evaluator(m):
    """m's value on a signed r-tuple, read off dict(m.items()): 0 when an
    element repeats, else the sorted support's value times the sign of
    canonical_form.  The literal scans ask for the same tuples many
    times, so it remembers."""
    values = dict(m.items())

    @functools.cache
    def value(t):
        canon = canonical_form(t)
        return 0 if canon is None else canon[1] * values[canon[0]]

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
# These read a sequence only through its data (.rank, .enc, .hyperlines,
# .y, .z, .ground) and call nothing in omkit.hyperline.  The H2/H3/H4
# scans are the original quadratic ones.


def _signed_key(e):
    return (abs(e), e < 0)


def literal_positive_tuples(x):
    """Every positively oriented signed tuple, rebuilt from .enc: rank 1
    its elements, rank 2 pairs by atom position, higher ranks as Y tuple
    plus a Z pair on disjoint elements."""
    if x.rank == 1:
        return {(e,) for e in x.enc}
    if x.rank == 2:
        p = len(x.enc)
        k = p // 2
        pos = {s: i for i, a in enumerate(x.enc) for s in a}
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
                             for e in x.enc))
    if x.rank == 2:
        p = len(x.enc)
        atoms = [x.enc[(-a) % p] if negated else x.enc[a] for a in range(p)]
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
        return (1, tuple(sorted(x.enc, key=_signed_key)))
    if x.rank == 2:
        return (2, tuple(tuple(sorted(a, key=_signed_key)) for a in x.enc))
    return (x.rank, tuple(sorted((_encoding(h.y), _encoding(h.z))
                                 for h in x.hyperlines)))


def literal_period2_paths(x, path=""):
    """Paths, in the check's notation, of the rank 2 components of x
    with two atoms, read off .enc and .hyperlines in stored order."""
    if x.rank < 3:
        return [path] if x.rank == 2 and len(x.enc) == 2 else []
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


def f_vector(m, covectors):
    """(f_0, ..., f_{r-1}) of the sphere's cells: a nonzero covector has
    dimension r - 1 - rank of its zero set, and that rank is the largest
    meet of the zero set with a nonzero basis, read off m.items() alone."""
    bases = [sum(1 << e for e in s) for s, v in m.items() if v]
    f = [0] * m.rank
    rank_of = {}
    for u in covectors:
        if any(u):
            z = sum(1 << e for e, x in enumerate(u, start=1) if not x)
            if z not in rank_of:
                rank_of[z] = max(bin(b & z).count("1") for b in bases)
            f[m.rank - 1 - rank_of[z]] += 1
    return tuple(f)


def zaslavsky_tope_count(rows):
    """Tope count of a vector configuration by Zaslavsky's theorem: the
    sum over subsets S of the rows of (-1)^(|S| - rank S)."""
    rows = [tuple(Fraction(x) for x in row) for row in rows]
    total = 0
    for k in range(len(rows) + 1):
        for sub in itertools.combinations(rows, k):
            total += -1 if (k - _rank_fraction(sub)) % 2 else 1
    return total


def flat_f_vector(rows):
    """(f_0, ..., f_{r-1}) of a vector configuration, counted by flats:
    the cells whose zero set spans the flat F are the topes of the
    quotient by F, so f_k is the sum, over the flats F of rank r - 1 - k,
    of the Zaslavsky tope count of the rows left in that quotient."""
    rows = [tuple(Fraction(x) for x in row) for row in rows]
    r, ids = len(rows[0]), range(1, len(rows) + 1)
    f = [0] * r
    for rank in range(r):
        seen = set()
        for basis in itertools.combinations(ids, rank):
            sub = [rows[i - 1] for i in basis]
            if _rank_fraction(sub) < rank:
                continue
            flat = frozenset(i for i in ids if _rank_fraction(sub + [rows[i - 1]]) == rank)
            if flat not in seen:
                seen.add(flat)
                f[r - 1 - rank] += zaslavsky_tope_count(quotient_coords(rows, basis)[1])
    return tuple(f)


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


def rename_sequence(x, name):
    """The sequence x with each signed element s read as name(s), rebuilt
    through the constructors from .enc and .hyperlines: a relabeling when
    name renames elements, a reorientation of e when it bars e and its
    bar alone."""
    if x.rank == 1:
        return HLRank1({name(s) for s in x.enc})
    if x.rank == 2:
        return HLRank2([{name(s) for s in a} for a in x.enc])
    return HLHigher(x.rank, [Hyperline(rename_sequence(h.y, name), rename_sequence(h.z, name))
                             for h in x.hyperlines])


# ----------------------------------------------------------------- duality

def dual_signmap(m):
    """The dual of a rank r map on n > r elements, on the same labels:
    chi*(E - S) = chi(S) times the sign of the permutation (S, E - S), both
    parts ascending (Bjorner et al., Oriented Matroids, ch. 3).  Read off
    m.items() alone."""
    values = {}
    for s, v in m.items():
        rest = tuple(e for e in range(1, m.n + 1) if e not in s)
        values[rest] = -v if sum(a > b for a in s for b in rest) & 1 else v
    return SignMap(m.n - m.rank, m.n, values, m.labels)


def orthogonal(u, v):
    """Sign vectors u and v are orthogonal: their supports are disjoint,
    or the products u_e v_e take both signs (Bjorner et al., ch. 3)."""
    products = {a * b for a, b in zip(u, v)} - {0}
    return len(products) != 1


def coloops(m):
    """Ids of the elements in every nonzero basis, ascending."""
    nz = [s for s, v in m.items() if v]
    return [e for e in range(1, m.n + 1) if all(e in s for s in nz)]


# ---------------------------------------------------- neighbourhood moves
#
# Single local moves on a hyperline sequence, built from .enc and
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
        return [HLRank2(atoms) for atoms in rank2_moves(x.enc)]
    out = []
    for h in x.hyperlines:
        kept = set(x.hyperlines) - {h, Hyperline(h.y.negation, h.z.negation)}
        pairs = [(h.y, HLRank2(atoms)) for atoms in rank2_moves(h.z.enc)]
        pairs += [(h.y.negation, h.z)] if x.rank == 3 else []
        out += [HLHigher(x.rank, kept | {Hyperline(y, z), Hyperline(y.negation, z.negation)})
                for y, z in pairs]
    return out


def triangle_flip(x, a, b, c, flats=None):
    """The uniform rank 3 sequence x with the triangle a, b, c flipped, the
    mutation of Bjorner et al., Oriented Matroids, ch. 7: on both
    hyperlines of each flat {a}, {b} and {c}, the adjacent atoms holding
    the other two elements swapped, together with their antipodes.  None
    when some pair is not adjacent.  With `flats`, a subset of a, b, c,
    only the hyperlines of those flats are swapped."""
    out = []
    for h in x.hyperlines:
        (e,) = h.y.ground
        if e not in (flats or (a, b, c)):
            out.append(h)
            continue
        pair = {a, b, c} - {e}
        atoms = list(h.z.enc)
        p = len(atoms)
        at = [i for i in range(p) if {abs(s) for s in atoms[i] + atoms[(i + 1) % p]} == pair]
        if not at:
            return None
        for i in at:  # the pair and its antipodes
            atoms[i], atoms[(i + 1) % p] = atoms[(i + 1) % p], atoms[i]
        out.append(Hyperline(h.y, HLRank2(atoms)))
    return HLHigher(x.rank, out)


def route_disagreements(maps, seen, sample=None):
    """The sequences of the valid sign maps `maps`, and every sequence one
    move away from them, on which check_hyperline disagrees with
    passes_chirotope_route.  seen counts the sequences checked by (rank,
    verdict).  With sample, a pair (rng, k), each map's sequence brings k
    of its distinct neighbours, drawn by rng, instead of all of them."""
    from omkit import check_hyperline, from_chirotope

    starts = [from_chirotope(m) for m in maps]
    moved = [neighbours(x) for x in starts]
    if sample:
        rng, k = sample
        moved = [rng.sample(list(dict.fromkeys(vs)), k) for vs in moved]
    bad = []
    for v in set(starts).union(*moved):
        ok = passes_chirotope_route(v)
        if check_hyperline(v).ok != ok:
            bad.append(v)
        seen[v.rank, ok] += 1
    return bad


def passes_chirotope_route(v):
    """Whether the chirotope of the sequence v passes check_chirotope and
    rebuilds to v; a ConstructionError is a rejection."""
    from omkit import ConstructionError, check_chirotope, from_chirotope, to_chirotope

    try:
        m = to_chirotope(v)
        return check_chirotope(m).ok and from_chirotope(m) == v
    except ConstructionError:
        return False


# --------------------------------------------------------------- sampling

def random_fullrank_rows(rng, n, r, bound=5):
    """Random integer configuration of n nonzero rows spanning rank r."""
    while True:
        rows = []
        while len(rows) < n:
            row = tuple(rng.randint(-bound, bound) for _ in range(r))
            if any(row):
                rows.append(row)
        if _rank_fraction([[Fraction(v) for v in row] for row in rows]) == r:
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


def literal_restriction(m, drop):
    """m on the elements outside drop, renumbered 1..k in order, each value
    read through m.evaluate; None when fewer than rank elements remain."""
    keep = [e for e in range(1, m.n + 1) if e not in drop]
    if len(keep) < m.rank:
        return None
    return SignMap(m.rank, len(keep), {
        s: m.evaluate([keep[i - 1] for i in s])
        for s in itertools.combinations(range(1, len(keep) + 1), m.rank)})


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


# ---------------------------------------------------------- known answers

def _meet(p, q, r, s):
    """The point where line pq meets line rs, in exact fractions."""
    (x1, y1), (x2, y2), (x3, y3), (x4, y4) = p, q, r, s
    d = (x1 - x2) * (y3 - y4) - (y1 - y2) * (x3 - x4)
    u, v = x1 * y2 - y1 * x2, x3 * y4 - y3 * x4
    return (Fraction(u * (x3 - x4) - (x1 - x2) * v, d),
            Fraction(u * (y3 - y4) - (y1 - y2) * v, d))


def pappus_rows():
    """The Pappus configuration as rows (x, y, 1): a1, a2, a3 on y = 0, b1,
    b2, b3 on y = 1, then X, Y and Z, the meets of a1b2.a2b1, a1b3.a3b1 and
    a2b3.a3b2, which lie on one line by Pappus's theorem."""
    a = [(0, 0), (1, 0), (3, 0)]
    b = [(0, 1), (2, 1), (5, 1)]
    meets = [_meet(a[i], b[j], a[j], b[i]) for i, j in ((0, 1), (0, 2), (1, 2))]
    return [(x, y, 1) for x, y in a + b + meets]


def non_pappus(sign):
    """The chirotope of pappus_rows, signs by det_laplace, with the triple
    (7, 8, 9) of X, Y and Z set to sign: a rank 3 chirotope on 9 elements
    that no vectors realize (Bjorner et al., Oriented Matroids, ch. 8)."""
    rows = pappus_rows()
    values = {}
    for s in itertools.combinations(range(1, 10), 3):
        d = det_laplace([rows[e - 1] for e in s])
        values[s] = (d > 0) - (d < 0)
    values[(7, 8, 9)] = sign
    return SignMap(3, 9, values)


# ------------------------------------------------------------- enumeration

def brute_force_bodies(n, r, uniform):
    """(count, total, bodies) of every sign map on the r-subsets of 1..n
    (uniform: no zeros) in '-' < '0' < '+' order, each built as a SignMap
    and passed through check_chirotope: the scan enumerate_bodies prunes."""
    from omkit import check_chirotope

    values = (-1, 1) if uniform else (-1, 0, 1)
    width = math.comb(n, r)
    bodies = ["".join("-0+"[v + 1] for v in signs)
              for signs in itertools.product(values, repeat=width)
              if check_chirotope(SignMap(r, n, list(signs))).ok]
    return len(bodies), len(values) ** width, bodies


def rank2_count(n):
    """Rank 2 chirotopes on n elements: every one is realized by vectors in
    the plane, read off k >= 2 lines of parallel elements (S(n, k) ways),
    the lines' cyclic order around the origin ((k - 1)! ways) and a
    direction per element, up to turning all of them at once (2^(n - 1))."""
    stirling = [1] + [0] * n  # S(m, k) for the current m, by k
    for m in range(1, n + 1):
        stirling = [0] + [k * stirling[k] + stirling[k - 1] for k in range(1, n + 1)]
    return 2 ** (n - 1) * sum(math.factorial(k - 1) * stirling[k] for k in range(2, n + 1))


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


def signed_rearrangements(entries):
    """Every permutation of entries with every choice of entry signs."""
    return {tuple(s * x for s, x in zip(signs, perm))
            for perm in itertools.permutations(entries)
            for signs in itertools.product((1, -1), repeat=len(entries))}


def equivalence_class(entries):
    """All signed rearrangements with the same canonical form, brute force."""
    target = canonical_form(entries)
    return {t for t in signed_rearrangements(entries) if canonical_form(t) == target}
