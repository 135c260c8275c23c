"""Hyperline sequences: the recursive arrangement-side encoding.

Rank 1 is a signed choice per element.  Rank 2 is a cyclic sequence of
atoms (sets of signed elements) with antipodal symmetry: atom a+k is the
negation of atom a.  Rank r > 2 is a set of hyperlines (Y|Z): Y a rank r-2
sequence on the elements lying on the hyperline, Z a rank 2 sequence on
the rest, describing the rotation around it.  Sequences are closed under
hyperline negation: (Y|Z) and (-Y|-Z) are both stored.  The constructors
refuse, with ValueError, what is no sequence at all: an empty choice or
atom, a higher sequence without hyperlines, a Y or Z of the wrong rank.

Every sequence stores one canonical form, built once in its constructor:
HLRank1 its signed elements sorted, HLRank2 the rotation whose atom
encodings come first, each atom sorted, and HLHigher the sorted (Y, Z)
encoding pairs of its hyperlines, which it also keeps in display order.
That form, `enc`, is the identity: two sequences of one class are equal
exactly when their `enc` are.  What is derived from it (slot map,
negation, bases, positive tuples) is computed on first use and kept on
the object.  parse_hls returns one object per distinct component, and
from_chirotope one per distinct Y or Z it builds.  A negation is built
once and kept on its own object, but never matched with an equal
component built elsewhere: a parsed -Y and Y.negation are two objects.
from_chirotope reads a rank 2 sequence, and each Z, off a pair table by
counting.  check_hyperline checks each distinct component value once up
to negation.  Negation reindexes the stored rotation.
"""

from __future__ import annotations

import itertools
from bisect import bisect
from collections import namedtuple
from functools import cached_property

from .chirotope import SignMap, extendable_prefixes, gather, pair_table, uncovered
from .errors import ConstructionError, ValidationReport


def _signed_sorted(elems):
    """Signed elements in the order 1 < -1 < 2 < -2 < ..., as a tuple."""
    return tuple(sorted(sorted(elems, reverse=True), key=abs) if len(elems) > 1 else elems)


class _Sequence:
    """Equality on the stored form `enc`, hashed once; values derived
    from it are computed on first use and kept.  `bases` is
    the frozenset of (support, sign) canonical bases the sequence defines.
    On a malformed candidate it may hold both signs for one support;
    conversion refuses that, validation explains it."""

    def __eq__(self, other):
        return type(other) is type(self) and self.enc == other.enc

    def __hash__(self):
        return self._hash

    @cached_property
    def _head(self):
        """Y's part of a hyperline's display key: ground, base flag, stored form."""
        yb = self.bases
        flag = (0 if min(yb)[1] > 0 else 1) if yb else 2
        return (tuple(sorted(self.ground)), flag, self.enc)


class HLRank1(_Sequence):
    """Rank 1 sequence: one signed copy chosen per element."""

    rank = 1

    def __init__(self, chosen):
        ch = set(map(int, chosen))
        if not ch or 0 in ch:
            raise ValueError("0 is not a signed element" if ch else "rank 1 sequence is empty")
        self.enc = _signed_sorted(ch)
        self._hash = hash(self.enc)
        self.ground = frozenset(map(abs, ch))

    @cached_property
    def negation(self):
        return HLRank1(-e for e in self.enc)

    @cached_property
    def bases(self):
        return frozenset(((abs(e),), 1 if e > 0 else -1) for e in self.enc)

    @cached_property
    def _tuples(self):
        return {(e,) for e in self.enc}

    def __repr__(self):
        return f"HLRank1({list(self.enc)})"


class HLRank2(_Sequence):
    """Rank 2 sequence: cyclic atom sequence, stored as its atom
    encodings in canonical rotation (the one whose encodings come first).
    `pos` maps each signed element to its atom index; it is None when a
    signed element sits in two atoms."""

    rank = 2

    def __init__(self, atoms):
        enc = [_signed_sorted(set(map(int, a))) for a in atoms]
        ground = frozenset(map(abs, itertools.chain.from_iterable(enc)))
        if not enc or not all(enc) or 0 in ground:
            raise ValueError("need at least one atom" if not enc else "empty atom"
                             if not all(enc) else "0 is not a signed element")
        self._store(enc, ground)

    def _store(self, enc, ground):
        first = min(enc)  # the smallest rotation starts at a smallest atom
        s = min((s for s, a in enumerate(enc) if a == first),
                key=lambda s: enc[s:] + enc[:s])
        self.enc = tuple(enc[s:] + enc[:s])
        self._hash = hash(self.enc)
        self.ground = ground

    @property
    def period(self):
        return len(self.enc)

    @cached_property
    def pos(self):
        pos = {e: i for i, a in enumerate(self.enc) for e in a}
        return pos if len(pos) == sum(map(len, self.enc)) else None

    @cached_property
    def negation(self):
        """The reversed cyclic order: the stored encodings, reindexed."""
        p = self.period
        neg = HLRank2.__new__(HLRank2)
        neg._store([self.enc[-a % p] for a in range(p)], self.ground)
        return neg

    @cached_property
    def bases(self):
        """(u, v) is a base when v lies less than half a turn (k slots)
        after u (+) or more than half a turn after it (-)."""
        p = self.period
        pos = None if p % 2 else self.pos
        els = sorted(e for e in self.ground if e in (pos or ()))
        return frozenset(((u, v), 1 if d < p // 2 else -1)
                         for i, u in enumerate(els) for v in els[i + 1:]
                         if (d := (pos[v] - pos[u]) % p) % (p // 2))

    @cached_property
    def _table(self):
        """{a: {b}} over the positively oriented pairs (a, b): b lies in
        one of the k - 1 atoms after a's and is not a copy of a.  Read only
        once the sequence checked clean: the period is even and `pos` set."""
        p = self.period
        ring = self.enc * 2
        after = [frozenset().union(*ring[i + 1:i + p // 2]) for i in range(p)]
        return {a: bs for a, i in self.pos.items() if (bs := after[i] if after[i]
                .isdisjoint((a, -a)) else after[i].difference((a, -a)))}

    @cached_property
    def _tuples(self):
        return {(a, b) for a, bs in self._table.items() for b in bs}

    def __repr__(self):
        return f"HLRank2({[list(a) for a in self.enc]})"


Hyperline = namedtuple("Hyperline", "y z")


class HLHigher(_Sequence):
    """Rank r > 2 sequence: a tuple of distinct hyperlines in display
    order, grouped by Y ground, the orientation whose lexicographically
    smallest Y base is positive first, then by encoding."""

    def __init__(self, rank, hyperlines):
        if rank < 3:
            raise ValueError("HLHigher is for rank 3 and above")
        self.rank = rank = int(rank)
        hls = set(hyperlines)
        if not hls:
            raise ValueError("no hyperlines")
        for h in hls:  # before the sort: _display_key reads each Y's bases
            if getattr(h.y, "rank", None) != rank - 2:
                raise ValueError(f"Y has rank {getattr(h.y, 'rank', '?')}, expected {rank - 2}")
            if not isinstance(h.z, HLRank2):
                raise ValueError("Z is not a rank 2 sequence")
        self.hyperlines = tuple(sorted(hls, key=_display_key))
        self.ground = frozenset().union(*(h.y.ground for h in self.hyperlines),
                                        *(h.z.ground for h in self.hyperlines))
        self.enc = tuple(sorted((h.y.enc, h.z.enc) for h in self.hyperlines))
        self._hash = hash(self.enc)

    @cached_property
    def negation(self):
        """Every Z negated; each Z keeps its own negation."""
        return HLHigher(self.rank, [Hyperline(h.y, h.z.negation) for h in self.hyperlines])

    @cached_property
    def _cells(self):
        """(support, sign, Y support, Y sign) for each base of a Y joined
        with each disjoint base of its Z.  The sign of the merge counts,
        per Z element, the Y elements above it."""
        out = []
        for h in self.hyperlines:
            for sup_y, sign_y in h.y.bases:
                ys = set(sup_y)
                above = {e: len(sup_y) - bisect(sup_y, e) for e in h.z.ground}
                out += [(tuple(sorted(sup_y + sup_z)),
                         sign_y * sign_z * (1 - 2 * (sum(map(above.get, sup_z)) & 1)),
                         sup_y, sign_y)
                        for sup_z, sign_z in h.z.bases if ys.isdisjoint(sup_z)]
        return out

    @cached_property
    def bases(self):
        return frozenset(cell[:2] for cell in self._cells)

    @cached_property
    def _tuples(self):
        """Read only once H1 holds: Y and Z grounds are disjoint."""
        return {yt + pair for h in self.hyperlines
                for yt in h.y._tuples for pair in h.z._tuples}

    def __repr__(self):
        return f"HLHigher(rank={self.rank}, hyperlines={len(self.hyperlines)})"


def _display_key(h):
    return (h.y._head, h.z.enc)


# -------------------------------------------------------------- validation

def check_hyperline(x) -> ValidationReport:
    """Check structure and H1..H4 on the sequence itself, never through
    its chirotope; report one witness per violated axiom."""
    report = ValidationReport()
    _check(x, report, "", set())
    return report


def _check(x, report, path, clean):
    """Check x at path.  A nested component that reports nothing goes in
    `clean` with its negation (same verdict), and no equal value is
    checked again.  One that reports anything is checked at each path,
    because its messages name the path."""
    if x in clean:
        return
    before = len(report.violations)
    at = (path + ": ") if path else ""
    if isinstance(x, HLRank1):
        if len(x.enc) != len(x.ground):
            report.add("structure", (path,), f"{at}an element appears with both signs")
    elif isinstance(x, HLRank2):
        _check_rank2(x, report, path)
    else:
        _check_higher(x, report, path, clean)
    if path and len(report.violations) == before:
        clean.update((x, x.negation))


def _check_rank2(x, report, path):
    at = (path + ": ") if path else ""
    ok = True
    if x.period % 2:
        report.add("structure", (path,), f"{at}odd period {x.period}")
        ok = False
    pos = x.pos
    if pos is None:
        report.add("structure", (path,), f"{at}a signed element appears in two atoms")
        ok = False
    elif len(pos) != 2 * len(x.ground):
        missing = sorted(s for e in x.ground for s in (e, -e) if s not in pos)[:4]
        report.add("structure", (path,),
                   f"{at}atoms do not cover both signed copies "
                   f"of every element (missing {missing})")
        ok = False
    if ok:
        k = x.period // 2
        for a in range(k):
            if x.enc[a + k] != _signed_sorted([-s for s in x.enc[a]]):
                report.add("antipodality", (path, a),
                           f"{at}atom {a + k} is not the negation of atom {a}")
                break
        if k == 1:  # a rank 2 sequence needs two non-parallel elements
            report.add("structure", (path,), f"{at}degenerate period (k=1): "
                       "all elements mutually parallel")


def _check_higher(x, report, path, clean):
    at, pre = (path + ": ", path + ".") if path else ("", "")
    hls = x.hyperlines
    before = len(report.violations)
    for i, h in enumerate(hls):
        sub = f"{pre}hyperline[{i}]"
        _check(h.y, report, sub + ".Y", clean)
        _check(h.z, report, sub + ".Z", clean)
        if not h.y.ground.isdisjoint(h.z.ground):
            report.add("H1", (sub,),
                       f"{sub}: Y and Z grounds overlap "
                       f"({sorted(h.y.ground & h.z.ground)})")
        elif len(h.y.ground) + len(h.z.ground) != len(x.ground):
            report.add("H1", (sub,), f"{sub}: Y and Z grounds do not cover the ground set")
    index = {h: i for i, h in enumerate(hls)}
    # index of each hyperline's negation
    opposite = [index.get(Hyperline(h.y.negation, h.z.negation)) for h in hls]
    if None in opposite:
        i = opposite.index(None)
        report.add("structure", (f"{pre}hyperline[{i}]",),
                   f"{pre}hyperline[{i}]: negated orientation is missing "
                   "(sequences store both)")
    if len(report.violations) != before:
        return

    # hyperlines grouped by Y ground, in display order within a group
    on_ground = {}
    for i, h in enumerate(hls):
        on_ground.setdefault(h.y.ground, []).append(i)

    # one hyperline per flat: every way of dropping two elements from a
    # base must land on some hyperline
    for sup, _ in sorted(x.bases):
        for p in itertools.combinations(sup, x.rank - 2):
            if frozenset(p) not in on_ground and \
                    not any(g.issuperset(p) for g in on_ground):
                report.add("structure", (p,), f"{at}no hyperline contains {p}")
                return

    # H2: a positive base of one Y lying inside another Y's ground forces
    # the two hyperlines to agree up to simultaneous negation.
    for i, h in enumerate(hls):
        near = {j for sup, _ in h.y.bases for g, js in on_ground.items()
                if g.issuperset(sup) for j in js}
        j = next((j for j in sorted(near) if j != i and opposite[j] != i), None)
        if j is not None:
            report.add("H2", (i, j),
                       f"{at}hyperlines [{i}] and [{j}] share a base of Y "
                       "but are not equal or opposite")
            break

    # H3 and H4 range over the positive tuples yt + (a, b) of x: yt a
    # positive tuple of some Y, (a, b) one of the same hyperline's Z.  Each
    # yt maps to the Z's completion table {a: {b}}, merged over the
    # hyperlines whose Y has yt, filed as completions[yt[:-1]][yt[-1]].
    # Every component is clean, so every Y has a positive tuple and every
    # Z (period at least 4) a nonempty table.
    completions = {}
    for h in hls:
        table = h.z._table
        for yt in h.y._tuples:
            row = completions.setdefault(yt[:-1], {})
            prev = row.get(yt[-1])
            row[yt[-1]] = table if prev is None else {
                a: prev.get(a, set()) | table.get(a, set())
                for a in prev.keys() | table.keys()}
    _h3_h4(x, completions, report, at)


def _h3_h4(x, completions, report, at):
    """First H3 and first H4 witness, visiting prefixes yt + (a,) and then
    tuples in lexicographic order; each axiom is decided first, and its
    witness searched for only when it fails.  Every component is clean.
    H3: a base with no element completing the prefix lies inside the
    elements that complete nothing; the first base among their r-subsets
    is the smallest.  A prefix matters only through its completion set,
    which a hyperline shares among all its yt.
    H4: the image of yt + (a, b) is yt[:-1] + (-a,) + (yt[-1], b).  Each
    hyperline's positive tuples are closed under the swaps that keep an
    oriented simplex on either side of the boundary, so H4 holds exactly
    when each base (support, sign) is reached from all r (r - 1) of its
    cells (Y support, Y sign), the most any base can have."""
    r, ground = x.rank, x.ground
    supports = {sup for sup, _ in x.bases}
    first_base = {}  # elements completing nothing -> first base among them
    h3_base = {}     # id of a completion set -> first_base of what it misses
    tables = {id(t): t for row in completions.values() for t in row.values()}
    for done in (done for t in tables.values() for done in t.values()):
        free = ground.difference(map(abs, done))
        if len(free) >= r and free not in first_base:
            first_base[free] = next((c for c in itertools.combinations(
                sorted(free), r) if c in supports), None)
        h3_base[id(done)] = first_base.get(free)

    def first(fails):
        return next((head, y, a) for head in sorted(completions)
                    for y in sorted(completions[head])
                    for a in sorted(completions[head][y]) if fails(head, y, a))

    def lost(head, y, a):
        row = completions[head]
        return row[y][a].difference(row.get(-a, {}).get(y, ()))

    if any(h3_base.values()):
        head, y, a = first(lambda h, y, a: h3_base[id(completions[h][y][a])])
        pref, tsup = head + (y, a), h3_base[id(completions[head][y][a])]
        report.add("H3", (pref, tsup), f"{at}no exchange: prefix {pref} admits "
                   f"no completion from base {tsup}")
    if len(set(x._cells)) != r * (r - 1) * len(x.bases):
        head, y, a = first(lost)
        h4 = head + (y, a, min(lost(head, y, a)))
        moved = h4[: r - 3] + (-h4[r - 2], h4[r - 3]) + h4[r - 1:]
        report.add("H4", (h4,), f"{at}base {h4} survives no swap across the "
                   f"hyperline boundary (image {moved} is not positive)")


# -------------------------------------------------------------- conversion

def to_chirotope(x) -> SignMap:
    """SignMap with the sequence's bases as nonzero values.  Elements are
    compacted to 1..n with the original ids kept as labels."""
    elems = sorted(x.ground)
    index = {e: i + 1 for i, e in enumerate(elems)}
    values = {}
    for sup, sign in x.bases:
        key = tuple(index[e] for e in sup)
        if values.get(key, sign) != sign:
            raise ConstructionError(f"hyperlines disagree on the orientation of {sup}")
        values[key] = sign
    return SignMap(x.rank, len(elems), values, elems)


def from_chirotope(m: SignMap):
    """Build the hyperline sequence of a chirotope, on its labels.

    Assumes a valid input.  On an arbitrary sign map it raises
    ConstructionError or returns a sequence that fails check_hyperline
    or whose chirotope is not m.  Each Y is built once per distinct
    sub-map, which carries its elements' labels; each Z is read off its
    hyperline's pair table and kept once per distinct value; each
    hyperline's opposite is its components' negations."""
    return _from_chirotope(m, {})


def _from_chirotope(m, memo):
    key = (m.rank, m.labels, tuple(m._signs))
    if key in memo:
        return memo[key]
    r, lab = m.rank, m.labels
    missing = uncovered(m)
    if missing:
        raise ConstructionError(f"element {missing[0]} lies in no nonzero basis; "
                                "the sequence has nowhere to place it")
    if r == 1:
        x = HLRank1(lab[e - 1] * v for (e,), v in m.items())
    elif r == 2:
        x = memo.setdefault(x := _rank2(pair_table(m, ()), range(1, m.n + 1), lab), x)
    else:
        hyperlines = []
        full = set(range(1, m.n + 1))
        for prefix in extendable_prefixes(m):
            g = pair_table(m, prefix)
            # the elements off the hyperline: those completing prefix to a basis
            ec = [a for a in sorted(full) if any(g[a])]
            z = memo.setdefault(z := _rank2(g, ec, lab), z)
            eb = sorted(full.difference(ec))
            # Y reads its values after the first positive pair of Z
            e = ec[0]
            bvals = gather(m, next((e, g[e][a] * a) for a in ec if g[e][a]),
                           itertools.combinations(eb, r - 2))
            y = _from_chirotope(SignMap(r - 2, len(eb), bvals,
                                        [lab[e - 1] for e in eb]), memo)
            hyperlines += [Hyperline(y, z), Hyperline(y.negation, z.negation)]
        x = HLHigher(r, hyperlines)
    memo[key] = x
    return x


def _rank2(g, elems, labels):
    """Rank 2 sequence on the signed copies of `elems`, read off the pair
    table g by counting.  The signed elements v with value(e, v) > 0, e
    the first element, are the half turn after e; each is placed by how
    many of them come before it, those with value(u, v) > 0, so parallel
    elements share a count.  The first atom holds the elements parallel to
    e on e's side of the first of them."""
    e = elems[0]
    half = [g[e][a] * a for a in elems if g[e][a]]
    after = {}  # how many half-turn elements come before -> the atom there
    for v in half:
        after.setdefault(sum(g[abs(u)][abs(v)] * u * v > 0 for u in half), []).append(v)
    atoms = [after[k] for k in sorted(after)]
    w = atoms[0][0]
    atoms.insert(0, [s * a for a in elems if not g[e][a]
                     for s in (1, -1) if s * g[a][abs(w)] * w > 0])
    return HLRank2([labels[v - 1] if v > 0 else -labels[-v - 1] for v in a]
                   for a in atoms + [[-v for v in a] for a in atoms])
