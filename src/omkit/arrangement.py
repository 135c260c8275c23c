"""The rank <= 2 picture: point arrangements on S^0 and S^1, read off
rank 1 and rank 2 hyperline sequences and back, and the two arrangements
of d+1 hemispheres in general position on S^d, one per orientation class.
No om command runs this code, so it lives apart from the cell layer.
"""

from __future__ import annotations

from collections import namedtuple

from .chirotope import SignMap
from .errors import ArrangementError
from .hyperline import HLRank1, HLRank2


def canonical_arrangement(d: int, sign: int) -> SignMap:
    """The two arrangements of d+1 hemispheres in general position on S^d,
    one per orientation class."""
    if d < 0:
        raise ValueError("dimension must be at least 0")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    r = d + 1
    return SignMap(r, r, {tuple(range(1, r + 1)): sign})


class ArrangementR1(namedtuple("ArrangementR1", "sides")):
    """Points on S^0: sides[i] is the side (+1 or -1) of element i+1."""

    __slots__ = ()

    def __new__(cls, sides):
        if not sides or any(s not in (1, -1) for s in sides):
            raise ValueError("sides must be a nonempty tuple of +-1")
        return super().__new__(cls, sides)


class ArrangementR2(namedtuple("ArrangementR2", "period positions")):
    """Signed points on S^1 at 2k antipodally paired angular positions:
    positions maps each signed element to its slot in range(period)."""

    __slots__ = ()

    def __new__(cls, period, positions):
        if period < 2 or period % 2:
            raise ValueError("period must be even and at least 2")
        k = period // 2
        for s, a in positions.items():
            if not 0 <= a < period:
                raise ValueError(f"slot {a} out of range")
            if positions.get(-s) != (a + k) % period:
                raise ValueError(f"{s} and {-s} are not antipodal")
        return super().__new__(cls, period, positions)


def represent_rank1(x) -> ArrangementR1:
    n = len(x.ground)
    if sorted(x.ground) != list(range(1, n + 1)):
        raise ArrangementError("rank 1 representation needs ground 1..n")
    if len(x.enc) != n:
        raise ArrangementError("an element appears with both signs")
    side = {abs(s): 1 if s > 0 else -1 for s in x.enc}
    return ArrangementR1(tuple(side[e] for e in range(1, n + 1)))


def read_rank1(arr: ArrangementR1):
    return HLRank1({(e + 1) * s for e, s in enumerate(arr.sides)})


def represent_rank2(x) -> ArrangementR2:
    if x.pos is None:
        raise ArrangementError("a signed element sits in two atoms")
    try:
        return ArrangementR2(x.period, dict(x.pos))
    except ValueError as e:  # odd period, or an element without its negation
        raise ArrangementError(str(e)) from None


def read_rank2(arr: ArrangementR2):
    atoms = [set() for _ in range(arr.period)]
    for s, a in arr.positions.items():
        atoms[a].add(s)
    if any(not a for a in atoms):
        raise ArrangementError("every angular position must carry a point")
    return HLRank2(atoms)
