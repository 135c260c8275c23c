import pytest

from helpers import equivalence_class, orbit_by_moves
from omkit import (
    CanonicalBasis,
    normalize,
    signed_elements,
    signed_sort_key,
    underlying,
)


def test_underlying():
    assert underlying(5) == 5
    assert underlying(-5) == 5
    with pytest.raises(ValueError):
        underlying(0)


def test_signed_order():
    # 1 < ~1 < 2 < ~2 < ...
    ordered = sorted([2, -1, 1, -2, 3], key=signed_sort_key)
    assert ordered == [1, -1, 2, -2, 3]
    assert signed_elements(2) == [1, -1, 2, -2]


class TestNormalize:
    def test_ascending_positive(self):
        assert normalize((1, 2, 3)) == CanonicalBasis((1, 2, 3), 1)

    def test_swap_flips(self):
        assert normalize((2, 1, 3)) == CanonicalBasis((1, 2, 3), -1)

    def test_bar_flips(self):
        assert normalize((1, -2, 3)) == CanonicalBasis((1, 2, 3), -1)
        assert normalize((-1, -2, 3)) == CanonicalBasis((1, 2, 3), 1)

    def test_degenerate(self):
        assert normalize((1, 2, 1)) is None
        assert normalize((1, -1)) is None

    def test_zero_entry_rejected(self):
        with pytest.raises(ValueError):
            normalize((1, 0, 2))

    def test_negate(self):
        nb = normalize((1, 2, 3))
        assert nb.negate() == CanonicalBasis((1, 2, 3), -1)
        assert nb.negate().negate() == nb

    def test_single(self):
        assert normalize((4,)) == CanonicalBasis((4,), 1)
        assert normalize((-4,)) == CanonicalBasis((4,), -1)

    @pytest.mark.parametrize("entries", [(1, 2), (-2, 1), (1, 2, 3), (3, -1, 2)])
    def test_constant_on_move_orbit(self, entries):
        # swapping an adjacent pair and barring one entry is exactly the
        # move that preserves the oriented simplex
        orbit = orbit_by_moves(entries)
        target = normalize(entries)
        assert all(normalize(t) == target for t in orbit)

    @pytest.mark.parametrize("entries", [(1, 2), (1, 2, 3), (3, -1, 2)])
    def test_orbit_is_whole_class(self, entries):
        # ... and the moves reach every signed rearrangement with the same
        # canonical form, so normalize separates exactly the right tuples
        assert orbit_by_moves(entries) == equivalence_class(entries)

    def test_class_sizes(self):
        # r! * 2^(r-1) tuples share each canonical form
        assert len(equivalence_class((1, 2, 3))) == 24

