"""Signed elements and oriented simplices.

Signed elements are plain ints: +e is the element itself, -e its negated
(barred) copy.  The fixed total order on signed elements is
1 < -1 < 2 < -2 < ... (each element immediately followed by its bar).

An oriented simplex is a tuple of signed elements.  Two simplices are
equivalent when one arises from the other by repeatedly swapping adjacent
entries while negating the entry that moves left.  normalize() maps a tuple
to its canonical form: ascending support plus a single sign.
"""

from __future__ import annotations

from collections import namedtuple


def underlying(x: int) -> int:
    """Forget the sign: the element id carried by a signed element."""
    if x == 0:
        raise ValueError("0 is not a signed element")
    return -x if x < 0 else x


def signed_sort_key(x: int):
    """Sort key realizing the fixed order 1 < -1 < 2 < -2 < ..."""
    return (underlying(x), x < 0)


def signed_elements(elems) -> list[int]:
    """Both signed copies of each element, each followed by its bar; an
    int n stands for 1..n.  Ascending elements give the fixed order."""
    if isinstance(elems, int):
        elems = range(1, elems + 1)
    return [x for e in elems for x in (e, -e)]


class CanonicalBasis(namedtuple("CanonicalBasis", "support sign")):
    """Canonical form of a non-degenerate oriented simplex."""

    __slots__ = ()

    def negate(self):
        return CanonicalBasis(self.support, -self.sign)


def normalize(entries):
    """Canonical form of an oriented simplex, or None when degenerate.

    The sign is the parity of the permutation sorting the underlying
    elements, times the product of the entry signs.  A repeated underlying
    element makes the simplex degenerate.
    """
    elems = []
    sign = 1
    for x in entries:
        if x == 0:
            raise ValueError("0 is not a signed element")
        if x < 0:
            sign = -sign
            elems.append(-x)
        else:
            elems.append(x)
    if len(set(elems)) != len(elems):
        return None
    inv = 0
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            if elems[i] > elems[j]:
                inv += 1
    if inv & 1:
        sign = -sign
    return CanonicalBasis(tuple(sorted(elems)), sign)
