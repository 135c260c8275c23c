"""The oriented-simplex rule at the core of every sign evaluation:
chirotope._sorted_sign gives a signed tuple's ascending support and the
sign that its barred entries and inversions put on that support's value."""

import math

import pytest

from helpers import equivalence_class, orbit_by_moves, signed_rearrangements
from omkit import SignMap
from omkit.chirotope import _sorted_sign


class TestNormalize:
    def test_ascending_positive(self):
        assert _sorted_sign((1, 2, 3)) == ((1, 2, 3), 1)

    def test_swap_flips(self):
        assert _sorted_sign((2, 1, 3)) == ((1, 2, 3), -1)

    def test_bar_flips(self):
        assert _sorted_sign((1, -2, 3)) == ((1, 2, 3), -1)
        assert _sorted_sign((-1, -2, 3)) == ((1, 2, 3), 1)

    def test_degenerate(self):
        assert _sorted_sign((1, 2, 1)) is None
        assert _sorted_sign((1, -1)) is None

    def test_zero_entry_rejected(self):
        with pytest.raises(ValueError, match="^0 is not a signed element$"):
            _sorted_sign((1, 0, 2))

    def test_single(self):
        assert _sorted_sign((4,)) == ((4,), 1)
        assert _sorted_sign((-4,)) == ((4,), -1)

    @pytest.mark.parametrize("entries", [(1, 2), (-2, 1), (1, 2, 3), (3, -1, 2)])
    def test_constant_on_move_orbit(self, entries):
        # swapping an adjacent pair and barring one entry is exactly the
        # move that preserves the oriented simplex, and SignMap.evaluate
        # reads the same value everywhere on the orbit
        orbit = orbit_by_moves(entries)
        target = _sorted_sign(entries)
        assert all(_sorted_sign(t) == target for t in orbit)
        r = len(entries)
        m = SignMap(r, 3, [1] * math.comb(3, r))
        assert {m.evaluate(t) for t in orbit} == {target[1]}

    @pytest.mark.parametrize("entries", [(1, 2), (1, 2, 3), (3, -1, 2)])
    def test_orbit_is_whole_class(self, entries):
        # ... and the moves reach every signed rearrangement with the same
        # canonical form, so the rule separates exactly the right tuples
        target = _sorted_sign(entries)
        same = {t for t in signed_rearrangements(entries) if _sorted_sign(t) == target}
        assert orbit_by_moves(entries) == same == equivalence_class(entries)

    def test_class_sizes(self):
        # r! * 2^(r-1) tuples share each canonical form
        for r in range(1, 5):
            entries = tuple(range(1, r + 1))
            same = {t for t in signed_rearrangements(entries)
                    if _sorted_sign(t) == (entries, 1)}
            assert len(same) == math.factorial(r) * 2 ** (r - 1)
            assert same == equivalence_class(entries)
