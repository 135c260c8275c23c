"""Exact oracles for the benchmark, independent of the program under test.

Nothing here imports omkit.  Every expected output is recomputed from the
generating vectors or sign tables by a different route than the program:
cofactor determinants instead of Bareiss elimination, Zaslavsky's subset
formula instead of the covector closure, exact angle sorting instead of
the rank 2 pivot construction, and literal axiom quantification instead
of the reduced scans.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
from fractions import Fraction
from math import comb, factorial

_SIGN_CHAR = {1: "+", 0: "0", -1: "-"}


def sign(x) -> int:
    return (x > 0) - (x < 0)


def det(matrix) -> int:
    """Determinant by cofactor expansion along the first row."""
    size = len(matrix)
    if size == 1:
        return matrix[0][0]
    total = 0
    for j, a in enumerate(matrix[0]):
        if a:
            minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
            term = a * det(minor)
            total += -term if j % 2 else term
    return total


def rank(rows) -> int:
    """Rank of a list of rational rows by exact Gaussian elimination."""
    mat = [[Fraction(x) for x in row] for row in rows]
    r = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(r + 1, len(mat)):
            if mat[i][c]:
                f = mat[i][c] / mat[r][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


# ------------------------------------------------------------- generation

def random_rows(rng, n, r, bound, uniform=False):
    """n nonzero integer rows of width r spanning rank r; with `uniform`
    every r-subset is a basis."""
    while True:
        rows = [tuple(rng.randint(-bound, bound) for _ in range(r)) for _ in range(n)]
        if not all(any(row) for row in rows):
            continue
        if uniform:
            if all(det([rows[i] for i in s]) for s in itertools.combinations(range(n), r)):
                return rows
        elif rank(rows) == r:
            return rows


def with_dependent_row(rng, rows):
    """Append the sum of two distinct rows (as in acceptance criterion 5)."""
    while True:
        i, j = rng.sample(range(len(rows)), 2)
        extra = tuple(a + b for a, b in zip(rows[i], rows[j]))
        if any(extra):
            return rows + [extra]


def vec_text(rows) -> str:
    return "".join(",".join(str(x) for x in row) + "\n" for row in rows)


def chi_text(rows) -> str:
    """Canonical .chi text of the chirotope of integer rows."""
    n, r = len(rows), len(rows[0])
    body = "".join(
        _SIGN_CHAR[sign(det([rows[i] for i in s]))]
        for s in itertools.combinations(range(n), r)
    )
    return f"{r} {n}\n{body}\n"


def table_text(rank_, n, values) -> str:
    body = "".join(_SIGN_CHAR[values[s]] for s in itertools.combinations(range(1, n + 1), rank_))
    return f"{rank_} {n}\n{body}\n"


# ----------------------------------------------------------------- minors

def deletion_auto(rows):
    """.chi text for `minor --delete auto`: drop the smallest element whose
    removal keeps full rank, which is exactly when the restriction is again
    a chirotope of a configuration without loops."""
    r = len(rows[0])
    for e in range(len(rows)):
        rest = rows[:e] + rows[e + 1:]
        if len(rest) >= r and rank(rest) == r:
            return chi_text(rest)
    return None


def contraction(rows, e) -> str:
    """.chi text for `minor --contract e` (1-based): elements not parallel
    to e, valued by the determinant with row e placed first."""
    ve = rows[e - 1]
    keep = [f for f in range(len(rows)) if f != e - 1 and rank([ve, rows[f]]) == 2]
    r = len(ve)
    body = "".join(
        _SIGN_CHAR[sign(det([ve] + [rows[f] for f in s]))]
        for s in itertools.combinations(keep, r - 1)
    )
    return f"{r - 1} {len(keep)}\n{body}\n"


# ------------------------------------------------------------------ cells

def tope_count(rows) -> int:
    """Regions of the central arrangement v_i . x = 0 (Zaslavsky):
    the sum over all subsets S of (-1)^(|S| - rank S)."""
    total = 0
    n = len(rows)
    for k in range(n + 1):
        for s in itertools.combinations(range(n), k):
            total += -1 if (k - rank([rows[i] for i in s])) % 2 else 1
    return total


def uniform_tope_count(n, r) -> int:
    return 2 * sum(comb(n - 1, i) for i in range(r))


def census(rows):
    """(V, E, F) of a rank 3 arrangement on the 2-sphere from its flats:
    each line through the origin is two vertices, each great circle is cut
    into two arcs per line it contains, and F is the tope count."""
    n = len(rows)
    hyperplanes = {frozenset(j for j in range(n) if rank([rows[i], rows[j]]) == 1)
                   for i in range(n)}
    lines = set()
    for i, j in itertools.combinations(range(n), 2):
        if rank([rows[i], rows[j]]) == 2:
            lines.add(frozenset(k for k in range(n)
                                if rank([rows[i], rows[j], rows[k]]) == 2))
    v = 2 * len(lines)
    e = sum(2 * sum(1 for line in lines if h <= line) for h in hyperplanes)
    return v, e, tope_count(rows)


def census_line(v, e, f) -> str:
    return f"V={v} E={e} F={f} euler={v - e + f}\n"


def parse_tope_list(out):
    """Tope tuples from `om faces` output on rank != 3, or None when the
    output is not the canonical listing (sorted, distinct, counted)."""
    lines = out.splitlines()
    if not lines or not re.fullmatch(r"topes=\d+", lines[-1]):
        return None
    body = lines[:-1]
    if int(lines[-1][6:]) != len(body):
        return None
    topes = []
    for line in body:
        if not re.fullmatch(r"[+-]+", line):
            return None
        topes.append(tuple(1 if c == "+" else -1 for c in line))
    if topes != sorted(set(topes)):
        return None
    return topes


def topes_ok(out, rows, uniform):
    """Listed topes: canonical, closed under negation, as many as the
    subset formula (and the closed form on uniform inputs) says."""
    topes = parse_tope_list(out)
    if topes is None:
        return False
    n, r = len(rows), len(rows[0])
    if any(len(t) != n for t in topes):
        return False
    if set(topes) != {tuple(-x for x in t) for t in topes}:
        return False
    want = uniform_tope_count(n, r) if uniform else tope_count(rows)
    return len(topes) == want


# ---------------------------------------------------------------- rank 2

def angular_atoms(rows):
    """Atoms of a planar configuration by exact angle sorting: the 2n
    signed vectors grouped by direction, counterclockwise."""
    def half(v):
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

    atoms = []
    for s, v in sorted(signed, key=functools.cmp_to_key(cmp)):
        if atoms and cross(atoms[-1][1], v) == 0 and atoms[-1][1][0] * v[0] >= 0 \
                and atoms[-1][1][1] * v[1] >= 0:
            atoms[-1][0].add(s)
        else:
            atoms.append(({s}, v))
    return tuple(frozenset(a) for a, _ in atoms)


def svg_ok(out, rows) -> bool:
    """The rank 2 SVG shows one tick per atom and the atoms' labels in
    counterclockwise order, up to rotation."""
    if not (out.startswith("<svg") and out.endswith("</svg>\n")):
        return False
    texts = re.findall(r"<text [^>]*>(.*?)</text>", out)
    if len(re.findall(r"<line ", out)) != len(texts):
        return False
    shown = []
    for t in texts:
        atom = set()
        for over, num in re.findall(r'<tspan( text-decoration="overline")?>(\d+)</tspan>', t):
            atom.add(-int(num) if over else int(num))
        shown.append(frozenset(atom))
    return _same_cycle(shown, angular_atoms(rows))


def _same_cycle(seq, want):
    p = len(want)
    return len(seq) == p and any(
        tuple(seq[(s + i) % p] for i in range(p)) == tuple(want) for s in range(p)
    )


def _element(tok):
    return -int(tok[1:]) if tok.startswith("~") else int(tok)


def _ground(obj):
    if obj["rank"] == 1:
        return {abs(_element(t)) for t in obj["elements"]}
    if obj["rank"] == 2:
        return {abs(_element(t)) for a in obj["atoms"] for t in a}
    return set().union(*(_ground(h["Y"]) | _ground(h["Z"]) for h in obj["hyperlines"]))


def hls_ok(text, rows) -> bool:
    """Canonical .hls (compact JSON, sorted keys, one trailing newline) with
    the shape a uniform configuration forces: in rank 2 the atoms in angle
    order up to rotation; in rank r > 2, 2 C(n, r-2) hyperlines, each with
    r-2 elements on Y and the other n-r+2 on Z."""
    try:
        obj = json.loads(text)
    except ValueError:
        return False
    if text != json.dumps(obj, separators=(",", ":"), sort_keys=True) + "\n":
        return False
    n, r = len(rows), len(rows[0])
    if obj.get("rank") != r:
        return False
    if r == 2:
        atoms = [frozenset(_element(t) for t in a) for a in obj["atoms"]]
        return _same_cycle(atoms, angular_atoms(rows))
    ground = set(range(1, n + 1))
    hyperlines = obj["hyperlines"]
    return len(hyperlines) == 2 * comb(n, r - 2) and all(
        len(_ground(h["Y"])) == r - 2 and _ground(h["Y"]) | _ground(h["Z"]) == ground
        and not _ground(h["Y"]) & _ground(h["Z"])
        for h in hyperlines
    )


# ---------------------------------------------------------- sign tables

def _evaluate(values, simplex):
    elems = [abs(x) for x in simplex]
    if len(set(elems)) != len(elems):
        return 0
    s = 1
    for x in simplex:
        if x < 0:
            s = -s
    for i, j in itertools.combinations(range(len(elems)), 2):
        if elems[i] > elems[j]:
            s = -s
    return s * values[tuple(sorted(elems))]


def literal_verdict(rank_, n, values, with_c4=True) -> bool:
    """Literal C1, C3 and (optionally) C4 over every signed tuple."""
    nz = [s for s, v in values.items() if v]
    if any(not any(e in s for s in nz) for e in range(1, n + 1)):
        return False
    for s in nz:
        for t in nz:
            for x in s:
                rest = tuple(e for e in s if e != x)
                if not any(_evaluate(values, rest + (u,)) for u in t):
                    return False
    if not with_c4:
        return True
    se = [x for e in range(1, n + 1) for x in (e, -e)]
    ev = functools.partial(_evaluate, values)
    for prefix in itertools.product(se, repeat=rank_ - 2):
        for a, b, c, d in itertools.product(se, repeat=4):
            if (ev(prefix + (c, b)) * ev(prefix + (a, d)) >= 0
                    and ev(prefix + (d, b)) * ev(prefix + (a, -c)) >= 0
                    and ev(prefix + (a, b)) * ev(prefix + (c, d)) < 0):
                return False
    return True


def random_non_chirotope(rng, rank_, n):
    """A random sign table the literal oracle rejects.  In rank 3 only
    tables that already fail C1 or C3 are kept, which bounds set-up cost."""
    supports = list(itertools.combinations(range(1, n + 1), rank_))
    while True:
        values = {s: rng.choice((-1, 0, 1)) for s in supports}
        if not literal_verdict(rank_, n, values, with_c4=rank_ == 2):
            return values


# ------------------------------------------------------------ enumeration

def stirling2(n, k) -> int:
    return sum((-1) ** i * comb(k, i) * (k - i) ** n for i in range(k + 1)) // factorial(k)


def rank2_chirotopes(n) -> int:
    """Rank 2 chirotopes on n elements: 2^(n-1) * sum_{k>=2} (k-1)! S(n, k)."""
    return 2 ** (n - 1) * sum(factorial(k - 1) * stirling2(n, k) for k in range(2, n + 1))
