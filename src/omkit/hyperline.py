"""Hyperline sequences: the recursive arrangement-side encoding.

Rank 1 is a signed choice per element.  Rank 2 is a cyclic sequence of
atoms (sets of signed elements) with antipodal symmetry: atom a+k is the
negation of atom a.  Rank r > 2 is a set of hyperlines (Y|Z): Y a rank r-2
sequence on the elements lying on the hyperline, Z a rank 2 sequence on
the rest, describing the rotation around it.  Sequences are closed under
hyperline negation: (Y|Z) and (-Y|-Z) are both stored.

Every sequence stores its canonical form, built once in its constructor:
rank 2 equality is up to cyclic shift, so HLRank2 stores its canonical
rotation plus the slot map from signed elements to atom indices, and
HLHigher stores its distinct hyperlines in display order.  Everything
downstream (equality, hashing, bases, checking, serialization) reads that
form and never re-derives it.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from . import chirotope
from .chirotope import (
    SignMap,
    extendable_prefixes,
    guard_check_size,
    pair_table,
    uncovered,
)
from .core import signed_elements, signed_sort_key
from .errors import ConstructionError, DeletionError, ValidationReport


def _canonical_rotation(atoms):
    enc = [tuple(sorted(a, key=signed_sort_key)) for a in atoms]
    best = min(range(len(atoms)), key=lambda s: enc[s:] + enc[:s])
    return tuple(atoms[best:] + atoms[:best])


class HLRank1:
    """Rank 1 sequence: one signed copy chosen per element."""

    __slots__ = ("chosen", "ground")
    rank = 1

    def __init__(self, chosen):
        ch = frozenset(int(x) for x in chosen)
        if any(x == 0 for x in ch):
            raise ValueError("0 is not a signed element")
        self.chosen = ch
        self.ground = frozenset(abs(x) for x in ch)

    def __eq__(self, other):
        return isinstance(other, HLRank1) and self.chosen == other.chosen

    def __hash__(self):
        return hash((HLRank1, self.chosen))

    def __repr__(self):
        return f"HLRank1({sorted(self.chosen, key=signed_sort_key)})"


class HLRank2:
    """Rank 2 sequence: cyclic atom sequence, stored in canonical rotation.
    `pos` maps each signed element to its atom index; it is None when a
    signed element sits in two atoms."""

    __slots__ = ("atoms", "ground", "pos")
    rank = 2

    def __init__(self, atoms):
        ats = tuple(frozenset(int(x) for x in a) for a in atoms)
        if not ats:
            raise ValueError("need at least one atom")
        if any(x == 0 for a in ats for x in a):
            raise ValueError("0 is not a signed element")
        self.atoms = _canonical_rotation(ats)
        self.ground = frozenset(abs(x) for a in ats for x in a)
        pos = {s: i for i, a in enumerate(self.atoms) for s in a}
        self.pos = pos if len(pos) == sum(map(len, ats)) else None

    @property
    def period(self):
        return len(self.atoms)

    def __eq__(self, other):
        return isinstance(other, HLRank2) and self.atoms == other.atoms

    def __hash__(self):
        return hash((HLRank2, self.atoms))

    def __repr__(self):
        shown = [sorted(a, key=signed_sort_key) for a in self.atoms]
        return f"HLRank2({shown})"


class Hyperline(NamedTuple):
    y: object  # rank r-2 sequence on the hyperline
    z: object  # rank 2 sequence around it


class HLHigher:
    """Rank r > 2 sequence: a tuple of distinct hyperlines in display
    order, grouped by Y ground, the orientation whose lexicographically
    smallest Y base is positive first, then by encoding."""

    __slots__ = ("rank", "hyperlines", "ground")

    def __init__(self, rank, hyperlines):
        if rank < 3:
            raise ValueError("HLHigher is for rank 3 and above")
        self.rank = int(rank)
        self.hyperlines = tuple(sorted(set(hyperlines), key=_display_key))
        g = set()
        for h in self.hyperlines:
            g |= h.y.ground | h.z.ground
        self.ground = frozenset(g)

    def __eq__(self, other):
        return (
            isinstance(other, HLHigher)
            and self.rank == other.rank
            and self.hyperlines == other.hyperlines
        )

    def __hash__(self):
        return hash((HLHigher, self.rank, self.hyperlines))

    def __repr__(self):
        return f"HLHigher(rank={self.rank}, hyperlines={len(self.hyperlines)})"


def negate_hls(x):
    if isinstance(x, HLRank1):
        return HLRank1({-e for e in x.chosen})
    if isinstance(x, HLRank2):
        p = x.period
        return HLRank2(tuple(x.atoms[(-a) % p] for a in range(p)))
    return HLHigher(
        x.rank,
        (Hyperline(h.y, negate_hls(h.z)) for h in x.hyperlines),
    )


def _negate_hyperline(h):
    return Hyperline(negate_hls(h.y), negate_hls(h.z))


def encoding(x):
    """Deterministic nested-tuple encoding, used for stable ordering."""
    if isinstance(x, HLRank1):
        return (1, tuple(sorted(x.chosen, key=signed_sort_key)))
    if isinstance(x, HLRank2):
        return (2, tuple(tuple(sorted(a, key=signed_sort_key)) for a in x.atoms))
    return (x.rank, tuple(sorted((encoding(h.y), encoding(h.z)) for h in x.hyperlines)))


def _display_key(h):
    yb = bases(h.y)
    flag = (0 if min(yb)[1] > 0 else 1) if yb else 2
    return (tuple(sorted(h.y.ground)), flag, encoding(h.y), encoding(h.z))


# ------------------------------------------------------------------- bases

def _merge_sign(a, b):
    inv = sum(1 for y in b for v in a if v > y)
    return -1 if inv & 1 else 1


def bases(x) -> set:
    """All (support, sign) canonical bases the sequence defines.  On a
    malformed candidate the set may contain both signs for one support;
    conversion refuses that, validation explains it."""
    if isinstance(x, HLRank1):
        return {((abs(e),), 1 if e > 0 else -1) for e in x.chosen}
    if isinstance(x, HLRank2):
        out = set()
        p, pos = x.period, x.pos
        if p < 2 or p % 2 or pos is None:
            return out
        k = p // 2
        for u, v in itertools.combinations(sorted(x.ground), 2):
            if u not in pos or v not in pos:
                continue
            d = (pos[v] - pos[u]) % p
            if 0 < d < k:
                out.add(((u, v), 1))
            elif k < d < p:
                out.add(((u, v), -1))
        return out
    return _join_bases((bases(h.y), bases(h.z)) for h in x.hyperlines)


def _join_bases(pairs) -> set:
    """Bases of a rank r > 2 sequence from its hyperlines' (Y bases,
    Z bases) pairs."""
    out = set()
    for yb, zb in pairs:
        for sup_y, sign_y in yb:
            for sup_z, sign_z in zb:
                if set(sup_y) & set(sup_z):
                    continue
                support = tuple(sorted(sup_y + sup_z))
                sign = sign_y * sign_z * _merge_sign(sup_y, sup_z)
                out.add((support, sign))
    return out


def _positive_tuples(x) -> set:
    """Every signed tuple that is a positively oriented base, as defined
    hyperline by hyperline.  This is the raw domain of H3 and H4."""
    if isinstance(x, HLRank1):
        return {(e,) for e in x.chosen}
    if isinstance(x, HLRank2):
        out = set()
        p, pos = x.period, x.pos
        if p < 2 or p % 2 or pos is None:
            return out
        k = p // 2
        for a in pos:
            for b in pos:
                if abs(a) == abs(b):
                    continue
                if 0 < (pos[b] - pos[a]) % p < k:
                    out.add((a, b))
        return out
    out = set()
    for h in x.hyperlines:
        zp = _positive_tuples(h.z)
        for yt in _positive_tuples(h.y):
            yu = {abs(v) for v in yt}
            for pair in zp:
                if abs(pair[0]) in yu or abs(pair[1]) in yu:
                    continue
                out.add(yt + pair)
    return out


# -------------------------------------------------------------- validation

def check_hyperline(x, allow_large=False) -> ValidationReport:
    """Check structure and H1..H4 on the sequence itself, never through
    its chirotope; report one witness per violated axiom."""
    guard_check_size(len(x.ground), x.rank, allow_large)
    report = ValidationReport()
    _check(x, report, "")
    return report


def _check(x, report, path):
    at = (path + ": ") if path else ""
    if isinstance(x, HLRank1):
        if not x.chosen:
            report.add("structure", (path,), f"{at}rank 1 sequence is empty")
        if len(x.chosen) != len(x.ground):
            report.add("structure", (path,),
                       f"{at}an element appears with both signs")
        return
    if isinstance(x, HLRank2):
        _check_rank2(x, report, path)
        return
    _check_higher(x, report, path)


def _check_rank2(x, report, path):
    at = (path + ": ") if path else ""
    ok = True
    if any(not a for a in x.atoms):
        report.add("structure", (path,), f"{at}empty atom")
        ok = False
    if x.period % 2:
        report.add("structure", (path,), f"{at}odd period {x.period}")
        ok = False
    pos = x.pos
    if pos is None:
        report.add("structure", (path,),
                   f"{at}a signed element appears in two atoms")
        ok = False
    elif len(pos) != 2 * len(x.ground):
        missing = sorted(s for s in signed_elements(x.ground)
                         if s not in pos)[:4]
        report.add("structure", (path,),
                   f"{at}atoms do not cover both signed copies "
                   f"of every element (missing {missing})")
        ok = False
    if ok:
        k = x.period // 2
        for a in range(k):
            if x.atoms[a + k] != frozenset(-s for s in x.atoms[a]):
                report.add("antipodality", (path, a),
                           f"{at}atom {a + k} is not the negation of atom {a}")
                break
        if k == 1:
            report.warn(f"{at}degenerate period (k=1): "
                        "all elements mutually parallel")


def _check_higher(x, report, path):
    at = (path + ": ") if path else ""
    hls = x.hyperlines
    if not hls:
        report.add("structure", (path,), f"{at}no hyperlines")
        return
    structural_ok = True
    for i, h in enumerate(hls):
        sub = f"{path}hyperline[{i}]" if not path else f"{path}.hyperline[{i}]"
        if getattr(h.y, "rank", None) != x.rank - 2:
            report.add("structure", (sub,),
                       f"{sub}: Y has rank {getattr(h.y, 'rank', '?')}, "
                       f"expected {x.rank - 2}")
            structural_ok = False
            continue
        if not isinstance(h.z, HLRank2):
            report.add("structure", (sub,), f"{sub}: Z is not a rank 2 sequence")
            structural_ok = False
            continue
        before = len(report.violations)
        _check(h.y, report, sub + ".Y")
        _check(h.z, report, sub + ".Z")
        if len(report.violations) != before:
            structural_ok = False
        if h.y.ground & h.z.ground:
            report.add("H1", (sub,),
                       f"{sub}: Y and Z grounds overlap "
                       f"({sorted(h.y.ground & h.z.ground)})")
            structural_ok = False
        elif (h.y.ground | h.z.ground) != x.ground:
            report.add("H1", (sub,),
                       f"{sub}: Y and Z grounds do not cover the ground set")
            structural_ok = False
    index = {h: i for i, h in enumerate(hls)}
    opposite = []  # index of each hyperline's negation
    for i, h in enumerate(hls):
        j = index.get(_negate_hyperline(h))
        if j is None:
            report.add("structure", (f"hyperline[{i}]",),
                       f"hyperline[{i}]: negated orientation is missing "
                       "(sequences store both)")
            structural_ok = False
            break
        opposite.append(j)
    if not structural_ok:
        return

    # hyperlines grouped by Y ground, in display order within a group
    on_ground = {}
    for i, h in enumerate(hls):
        on_ground.setdefault(h.y.ground, []).append(i)

    # one hyperline per flat: every way of dropping two elements from a
    # base must land on some hyperline
    ybases = [bases(h.y) for h in hls]
    all_bases = _join_bases(zip(ybases, (bases(h.z) for h in hls)))
    covered = set()
    for sup, _ in sorted(all_bases):
        for p in itertools.combinations(sup, x.rank - 2):
            if p in covered:
                continue
            if not any(g.issuperset(p) for g in on_ground):
                report.add("structure", (p,),
                           f"no hyperline contains {p}")
                return
            covered.add(p)

    # H2: a positive base of one Y lying inside another Y's ground forces
    # the two hyperlines to agree up to simultaneous negation.
    holding = {}  # Y base support -> hyperlines whose Y ground contains it
    for i, yb in enumerate(ybases):
        near = set()
        for sup, _ in yb:
            if sup not in holding:
                holding[sup] = [j for g, js in on_ground.items()
                                if g.issuperset(sup) for j in js]
            near.update(holding[sup])
        j = next((j for j in sorted(near) if j != i and opposite[j] != i),
                 None)
        if j is not None:
            report.add("H2", (i, j),
                       f"hyperlines [{i}] and [{j}] share a base of Y "
                       "but are not equal or opposite")
            break

    # H3 and H4 range over the positive tuples yt + (a, b) of x: yt a
    # positive tuple of some Y, (a, b) one of the same hyperline's Z.
    # They are indexed rather than listed: each yt maps to one completion
    # table {a: {b}}, merged over the hyperlines whose Y has yt.
    completions = {}
    for h in hls:
        table = {}
        for a, b in _positive_tuples(h.z):
            table.setdefault(a, set()).add(b)
        if not table:
            continue
        for yt in _positive_tuples(h.y):
            prev = completions.get(yt)
            completions[yt] = table if prev is None else {
                a: prev.get(a, set()) | table.get(a, set())
                for a in prev.keys() | table.keys()
            }
    if not completions:
        report.add("structure", ((),), "no positively oriented bases")
        return
    _h3_h4(x, completions, {sup for sup, _ in all_bases}, report)


def _h3_h4(x, completions, supports, report):
    """First H3 and first H4 witness, visiting prefixes yt + (a,) and
    then tuples in lexicographic order.

    H3: a base with no element completing the prefix lies inside the
    elements that complete nothing; on a uniform sequence those are
    fewer than r.  Their r-subsets come in lexicographic order, so the
    first base among them is the smallest.  (Once every component has
    passed its own checks, the supports of the positive tuples are those
    of the bases.)
    H4: the image of yt + (a, b) is yt[:-1] + (-a,) + (yt[-1], b)."""
    r, ground = x.rank, x.ground
    spanless = set()  # element sets already known to hold no base
    h3 = h4 = None
    for yt in sorted(completions):
        table = completions[yt]
        for a in sorted(table):
            done = table[a]
            if h3 is None:
                free = ground.difference(map(abs, done))
                if len(free) >= r and free not in spanless:
                    tsup = next((c for c in
                                 itertools.combinations(sorted(free), r)
                                 if c in supports), None)
                    if tsup is None:
                        spanless.add(free)
                    else:
                        h3 = (yt + (a,), tsup)
            if h4 is None:
                lost = done.difference(
                    completions.get(yt[:-1] + (-a,), {}).get(yt[-1], ()))
                if lost:
                    h4 = yt + (a, min(lost))
            if h3 and h4:
                break
        else:
            continue
        break
    if h3:
        pref, tsup = h3
        report.add("H3", h3,
                   f"no exchange: prefix {pref} admits no completion "
                   f"from base {tsup}")
    if h4:
        moved = h4[: r - 3] + (-h4[r - 2], h4[r - 3]) + h4[r - 1:]
        report.add("H4", (h4,),
                   f"base {h4} survives no swap across the hyperline "
                   f"boundary (image {moved} is not positive)")


# -------------------------------------------------------------- conversion

def to_chirotope(x) -> SignMap:
    """SignMap with the sequence's bases as nonzero values.  Elements are
    compacted to 1..n with the original ids kept as labels."""
    elems = sorted(x.ground)
    if not elems:
        raise ValueError("empty ground set")
    index = {e: i + 1 for i, e in enumerate(elems)}
    values = {}
    for sup, sign in bases(x):
        key = tuple(index[e] for e in sup)
        if values.get(key, sign) != sign:
            raise ConstructionError(
                f"hyperlines disagree on the orientation of {sup}"
            )
        values[key] = sign
    return SignMap(x.rank, len(elems), values, elems)


def from_chirotope(m: SignMap):
    """Build the hyperline sequence of a chirotope, on its labels.

    Assumes a valid input; on arbitrary sign maps it either raises
    ConstructionError or returns a structure that fails check_hyperline.
    The construction runs on internal ids; rank 1 and rank 2 write labels
    into their output, and each Y and Z is built from a sub-map carrying
    the labels of its elements, so every component is built once.
    """
    r, lab = m.rank, m.labels
    missing = uncovered(m)
    if missing:
        raise ConstructionError(
            f"element {missing[0]} lies in no nonzero basis; "
            "the sequence has nowhere to place it"
        )
    if r == 1:
        return HLRank1(lab[e - 1] * v for (e,), v in m.items())
    if r == 2:
        return HLRank2([lab[s - 1] if s > 0 else -lab[-s - 1] for s in a]
                       for a in _rank2_atoms(m))

    hyperlines = set()
    full = set(range(1, m.n + 1))
    for prefix in extendable_prefixes(m):
        g = pair_table(m, prefix)
        # the elements off the hyperline: those completing prefix to a basis
        on_z = {a for a in full if any(g[a])}
        ec = sorted(on_z)
        cvals = [g[a][b] for a, b in itertools.combinations(ec, 2)]
        z = from_chirotope(SignMap(2, len(ec), cvals,
                                   [lab[e - 1] for e in ec]))

        z0 = _first_positive_pair(g, prefix, ec)
        eb = sorted(full - on_z)
        bvals = [m.evaluate(sup + z0)
                 for sup in itertools.combinations(eb, r - 2)]
        y = from_chirotope(SignMap(r - 2, len(eb), bvals,
                                   [lab[e - 1] for e in eb]))

        h = Hyperline(y, z)
        hyperlines.add(h)
        hyperlines.add(_negate_hyperline(h))
    return HLHigher(r, hyperlines)


def _signed_value(g, a, b):
    """Value of a signed pair from a pair_table."""
    v = g[abs(a)][abs(b)]
    return v if (a > 0) == (b > 0) else -v


def _first_positive_pair(g, prefix, candidates):
    signed = signed_elements(candidates)
    for a in signed:
        for b in signed:
            if _signed_value(g, a, b) == 1:
                return (a, b)
    raise ConstructionError(f"prefix {prefix} has no positive completion")


def _rank2_atoms(m):
    signed = signed_elements(m.n)
    g = pair_table(m, ())
    tab = {}
    for a in range(1, m.n + 1):
        for b in range(1, m.n + 1):
            tab[(a, b)] = tab[(-a, -b)] = g[a][b]
            tab[(a, -b)] = tab[(-a, b)] = -g[a][b]

    def atom(pivot):
        plus = [y for y in signed if tab[(pivot, y)] == 1]
        return frozenset(
            v for v in plus if all(tab[(v, y)] >= 0 for y in plus)
        )

    e = 1
    atoms = []
    cur = atom(e)
    while True:
        if not cur:
            raise ConstructionError("rank 2 construction produced an empty atom")
        atoms.append(cur)
        if e in cur:
            break
        if len(atoms) > 4 * m.n + 4:
            raise ConstructionError("rank 2 construction does not close up")
        cur = atom(min(cur, key=signed_sort_key))
    return atoms


# ------------------------------------------------------------------ minors

def minor_hls(x, delete=(), contract=()):
    """Minor through the associated chirotope: delete first (validated;
    a non-chirotope deletion is an error), then contract, then rebuild."""
    m = to_chirotope(x)
    if delete:
        m, report = chirotope.delete(m, m.ids(delete))
        if not report.ok:
            raise DeletionError(
                "deletion does not leave a chirotope:\n" + str(report)
            )
    if contract:
        m = chirotope.contract(m, m.ids(contract))
    return from_chirotope(m)
