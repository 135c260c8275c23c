import collections
import itertools
import math
import random

import pytest

from helpers import (
    angular_atoms,
    literal_display_order,
    literal_h2_h3_h4,
    literal_key,
    literal_negation,
    literal_period2_paths,
    neighbours,
    passes_chirotope_route,
    random_fullrank_rows,
    rename_sequence,
    rotations_equal,
    route_disagreements,
    triangle_flip,
    uniform_rows,
    valid_signmaps,
)
from omkit import (
    ConstructionError,
    HLHigher,
    HLRank1,
    HLRank2,
    Hyperline,
    SignMap,
    check_chirotope,
    check_hyperline,
    contract,
    delete,
    from_chirotope,
    from_vectors,
    serialize_hls,
    to_chirotope,
)

HEXA = [{1}, {2}, {3}, {-1}, {-2}, {-3}]
DEGENERATE = "degenerate period (k=1): all elements mutually parallel"


def hl(y_chosen, z_atoms):
    return Hyperline(HLRank1(y_chosen), HLRank2(z_atoms))


def closed(rank, *hls):
    out = []
    for h in hls:
        out.append(h)
        out.append(Hyperline(h.y.negation, h.z.negation))
    return HLHigher(rank, out)


class TestStructures:
    def test_rank1(self):
        x = HLRank1({1, -2, 3})
        assert x.rank == 1 and x.ground == {1, 2, 3}
        assert x == HLRank1([3, 1, -2])
        with pytest.raises(ValueError):
            HLRank1({0, 1})

    def test_rank2_shift_equality(self):
        a = HLRank2(HEXA)
        b = HLRank2(HEXA[2:] + HEXA[:2])
        assert a == b
        assert a == b and hash(a) == hash(b)

    def test_rank2_reflection_differs(self):
        a = HLRank2([{1}, {2}, {-1}, {-2}])
        b = HLRank2([{2}, {1}, {-2}, {-1}])
        assert a != b

    def test_rank_mismatch_is_false(self):
        assert HLRank1({1}) != HLRank2([{1}, {-1}])

    def test_higher_needs_rank3(self):
        with pytest.raises(ValueError):
            HLHigher(2, [])

    @pytest.mark.parametrize("make, message", [
        (lambda: HLRank1(set()), "rank 1 sequence is empty"),
        (lambda: HLRank2([set(), {1}, set(), {-1}]), "empty atom"),
        (lambda: HLRank2([]), "need at least one atom"),
        (lambda: HLRank2([{1}, {0}]), "0 is not a signed element"),
        (lambda: HLHigher(3, []), "no hyperlines"),
        (lambda: closed(4, hl({1}, [{2}, {3}, {-2}, {-3}])), "Y has rank 1, expected 2"),
        (lambda: HLHigher(3, [Hyperline(3, HLRank2(HEXA))]), "Y has rank ?, expected 1"),
        (lambda: HLHigher(3, [Hyperline(HLRank1({1}), HLRank1({2}))]),
         "Z is not a rank 2 sequence"),
    ], ids=["rank1-empty", "empty-atom", "no-atoms", "element-0", "no-hyperlines",
            "y-rank", "y-not-a-sequence", "z-rank"])
    def test_constructors_refuse_malformed_shapes(self, make, message):
        # what no .hls file can hold is no sequence: it never reaches the check
        with pytest.raises(ValueError) as e:
            make()
        assert str(e.value) == message


class TestNegation:
    def test_rank1(self):
        assert HLRank1({1, -2}).negation == HLRank1({-1, 2})

    def test_rank2_example(self):
        x = HLRank2([{1}, {2}, {-1}, {-2}])
        assert x.negation == HLRank2([{1}, {-2}, {-1}, {2}])

    def test_involution(self):
        x = HLRank2(HEXA)
        assert x.negation.negation == x

    @pytest.mark.parametrize("x", [
        HLRank1({1, -2, 3}),
        HLRank2(HEXA),
        HLRank2([{1, 2}, {3}, {-1, -2}, {-3}]),
        HLRank2([{1}, {2}, {-1}]),  # odd period
        HLRank2([{1, 2}, {2}, {-1, -2}, {-2}]),  # an element in two atoms
        HLRank2([{1}, {2}, {-2}, {3}]),  # 1 and 3 miss their antipodes
        closed(3, hl({1}, [{2}, {3}, {-2}, {-3}]), hl({2}, [{3}, {1}, {-3}])),
        HLHigher(3, [hl({1}, [{2}, {3}, {-2}, {-3}])]),  # no opposite
    ], ids=["rank1", "hexagon", "parallel", "odd-period", "two-atoms",
            "no-antipode", "rank3-odd-z", "rank3-one-sided"])
    def test_matches_literal_negation(self, x):
        assert literal_key(x.negation) == literal_negation(x)
        assert x.negation.negation == x

    def test_matches_literal_negation_rank5(self):
        x = from_chirotope(from_vectors(random_fullrank_rows(random.Random(3), 7, 5)))
        assert literal_key(x.negation) == literal_negation(x)
        assert x.negation.negation == x

    def test_matches_chirotope_negation(self):
        m = from_vectors([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
        x = from_chirotope(m)
        assert to_chirotope(x.negation) == m.negate()
        assert x.negation == from_chirotope(m.negate())


class TestCheck:
    def test_valid_hexagon(self):
        assert check_hyperline(HLRank2(HEXA)).ok

    def test_antipodality_violation(self):
        x = HLRank2([{1}, {2}, {-2}, {-1}])
        report = check_hyperline(x)
        assert any(v.axiom == "antipodality" for v in report.violations)

    def test_odd_period(self):
        report = check_hyperline(HLRank2([{1}, {2}, {-1}]))
        assert not report.ok

    def test_element_in_two_atoms(self):
        report = check_hyperline(HLRank2([{1, 2}, {2}, {-1, -2}, {-2}]))
        assert not report.ok

    def test_missing_coverage(self):
        # the ground is just {1}: covered, but one element spans no base
        assert not check_hyperline(HLRank2([{1}, {-1}])).ok
        # -2 never appears: atoms must cover every signed copy
        report = check_hyperline(HLRank2([{1, 2}, {-1}]))
        assert not report.ok

    def test_degenerate_period_violates(self):
        # a rank 2 sequence needs two non-parallel elements, so period 4
        report = check_hyperline(HLRank2([{1, 2}, {-1, -2}]))
        assert [(v.axiom, v.witness, v.message) for v in report.violations] == [
            ("structure", ("",), DEGENERATE)]
        assert str(report) == "structure violated: " + DEGENERATE

    def test_rank1_both_signs(self):
        report = check_hyperline(HLRank1({1, -1}))
        assert not report.ok

    def test_valid_rank3(self):
        m = from_vectors([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
        assert check_hyperline(from_chirotope(m)).ok

    def test_h1_overlap(self):
        x = closed(
            3,
            hl({1}, [{1, 2}, {3}, {-1, -2}, {-3}]),  # 1 on both sides
            hl({2}, [{1}, {3}, {-1}, {-3}]),
            hl({3}, [{1}, {2}, {-1}, {-2}]),
        )
        report = check_hyperline(x)
        assert any(v.axiom == "H1" for v in report.violations)

    def test_h1_not_covering(self):
        x = closed(
            3,
            hl({1}, [{2}, {-2}]),  # 3 missing from this hyperline
            hl({2}, [{1}, {3}, {-1}, {-3}]),
            hl({3}, [{1}, {2}, {-1}, {-2}]),
        )
        report = check_hyperline(x)
        assert any(v.axiom == "H1" for v in report.violations)

    def test_missing_negation(self):
        h = hl({1}, [{2}, {3}, {-2}, {-3}])
        report = check_hyperline(HLHigher(3, [h]))
        assert any("negated orientation" in v.message for v in report.violations)

    def test_missing_flat(self):
        x = closed(
            3,
            hl({1}, [{2}, {3}, {-2}, {-3}]),
            hl({2}, [{3}, {1}, {-3}, {-1}]),
        )
        report = check_hyperline(x)
        assert any("no hyperline contains (3,)" in v.message
                   for v in report.violations)

    def test_h2_same_flat_disagreement(self):
        za = [{2}, {3}, {-2}, {-3}]
        zb = [{3}, {2}, {-3}, {-2}]
        x = closed(
            3,
            hl({1}, za),
            hl({1}, zb),
            hl({2}, [{3}, {1}, {-3}, {-1}]),
            hl({3}, [{1}, {2}, {-1}, {-2}]),
        )
        report = check_hyperline(x)
        assert any(v.axiom == "H2" for v in report.violations)

    def test_h4_reversed_hyperline(self):
        # reversing one hyperline's rotation (in both orientations, so
        # closure still holds) breaks the swap law between hyperlines even
        # though each hyperline alone looks fine
        good = from_chirotope(from_vectors([(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
        assert check_hyperline(good).ok
        tampered = set()
        for h in good.hyperlines:
            if h.y.ground == {1}:
                tampered.add(Hyperline(h.y, h.z.negation))
            else:
                tampered.add(h)
        bad = HLHigher(3, tampered)
        report = check_hyperline(bad)
        assert not report.ok
        assert any(v.axiom == "H4" for v in report.violations)

    def test_h3_no_exchange(self):
        # 2 and 3 share an atom around {1}, so {1, 2, 3} is a flat, yet
        # hyperlines {2} and {3} rotate through it as if 1, 2, 3 spanned
        # the space: the prefix (-1, -3) completes with neither 1, 2 nor 3
        x = closed(
            3,
            hl({1}, [{2, 3}, {4}, {-2, -3}, {-4}]),
            hl({2}, [{1}, {3}, {4}, {-1}, {-3}, {-4}]),
            hl({3}, [{1}, {2}, {4}, {-1}, {-2}, {-4}]),
            hl({4}, [{1}, {2}, {3}, {-1}, {-2}, {-3}]),
        )
        report = check_hyperline(x)
        h3 = [v for v in report.violations if v.axiom == "H3"]
        assert len(h3) == 1
        assert h3[0].witness == ((-1, -3), (1, 2, 3))
        assert str(h3[0]) == (
            "H3 violated: no exchange: prefix (-1, -3) admits no completion "
            "from base (1, 2, 3)"
        )

    def test_size_guard(self):
        # the size guard is the CLI's (test_cli.TestSizeGuard): the check
        # itself runs past n = 9
        assert check_hyperline(from_chirotope(from_vectors([(1, k) for k in range(10)]))).ok

    @pytest.mark.parametrize("x, messages", [
        # every Z has period 2, so no pair in it is positively oriented
        (closed(3, hl({1}, [{2, 3}, {-2, -3}])),
         [f"hyperline[{i}].Z: {DEGENERATE}" for i in (0, 1)]),
    ], ids=["no-positive-bases"])
    def test_structure_branches(self, x, messages):
        report = check_hyperline(x)
        assert [(v.axiom, v.message) for v in report.violations] == \
            [("structure", msg) for msg in messages]

    def test_rank2_component_errors_have_paths(self):
        x = closed(
            3,
            hl({1}, [{2}, {3}, {-2}, {-3}]),
            hl({2}, [{3}, {1}, {-3}]),  # odd period inside
            hl({3}, [{1}, {2}, {-1}, {-2}]),
        )
        report = check_hyperline(x)
        assert any(".Z" in v.message for v in report.violations)


class TestBases:
    def test_rank1(self):
        assert HLRank1({1, -2}).bases == {((1,), 1), ((2,), -1)}

    def test_rank2_hexagon(self):
        assert HLRank2(HEXA).bases == {
            ((1, 2), 1), ((1, 3), 1), ((2, 3), 1),
        }

    def test_rank2_parallel_pair(self):
        # elements sharing an atom span nothing
        x = HLRank2([{1, 2}, {3}, {-1, -2}, {-3}])
        assert x.bases == {((1, 3), 1), ((2, 3), 1)}

    def test_rank2_antipodal_pair(self):
        # 3 shares an atom with ~1: the pair (1, 3) spans nothing
        y = HLRank2([{1, -3}, {2}, {-1, 3}, {-2}])
        assert y.bases == {((1, 2), 1), ((2, 3), 1)}

    def test_rank3(self):
        m = from_vectors([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
        x = from_chirotope(m)
        assert x.bases == {(s, v) for s, v in m.items() if v}
        # a cached attribute that no caller can change
        h = x.hyperlines[0]
        assert all(type(c.bases) is frozenset for c in (x, h.y, h.z))

    def test_degenerate_period_has_no_bases(self):
        assert HLRank2([{1, 2}, {-1, -2}]).bases == set()


class TestConversion:
    def test_rank1_roundtrip(self):
        m = SignMap(1, 3, {(1,): 1, (2,): -1, (3,): 1})
        x = from_chirotope(m)
        assert x == HLRank1({1, -2, 3})
        assert to_chirotope(x) == m

    def test_rank1_zero_raises(self):
        with pytest.raises(ConstructionError):
            from_chirotope(SignMap(1, 2, {(1,): 1}))

    def test_rank2_triangle(self):
        m = from_vectors([(1, 0), (0, 1), (-1, 1)])
        x = from_chirotope(m)
        assert x == HLRank2(HEXA)
        assert to_chirotope(x) == m

    def test_rank2_matches_angular_oracle(self):
        rng = random.Random(5)
        for _ in range(60):
            rows = random_fullrank_rows(rng, rng.randint(2, 6), 2)
            x = from_chirotope(from_vectors(rows))
            assert rotations_equal(map(frozenset, x.enc), angular_atoms(rows))

    def test_roundtrip_corpus(self, corpus):
        for n, r, rows in corpus[:80]:
            m = from_vectors(rows)
            x = from_chirotope(m)
            assert check_hyperline(x).ok
            assert to_chirotope(x) == m

    def test_rank5_smoke(self):
        rng = random.Random(17)
        for n in (5, 6):
            rows = random_fullrank_rows(rng, n, 5)
            m = from_vectors(rows)
            x = from_chirotope(m)
            assert x.rank == 5
            assert to_chirotope(x) == m
            assert check_hyperline(x).ok

    def test_invalid_map_does_not_roundtrip_clean(self):
        # C4-violating rank 2 map: construction may fail outright or
        # produce a sequence that fails validation / changes the bases
        m = SignMap(
            2, 4,
            {(1, 2): 1, (1, 3): 1, (1, 4): 1, (2, 3): 1, (2, 4): -1, (3, 4): 1},
        )
        assert not check_chirotope(m).ok
        try:
            x = from_chirotope(m)
        except ConstructionError:
            return
        assert not check_hyperline(x).ok or to_chirotope(x) != m

    def test_conflicting_orientations_raise(self):
        x = closed(
            3,
            hl({1}, [{2}, {3}, {-2}, {-3}]),
            hl({-1}, [{2}, {3}, {-2}, {-3}]),
        )
        with pytest.raises(ConstructionError):
            to_chirotope(x)

    def test_odd_labels(self):
        x = HLRank2([{2}, {5}, {9}, {-2}, {-5}, {-9}])
        m = to_chirotope(x)
        assert m.labels == (2, 5, 9)
        assert m.n == 3
        back = from_chirotope(m)
        assert back.ground == {2, 5, 9}
        assert back == x

    def test_labels_written_at_the_leaves(self):
        # labels that are neither 1..n nor ascending: the sequence built
        # on them is the one built on 1..n, renamed element by element
        rng = random.Random(11)
        for r in (1, 2, 3, 4, 5):
            for _ in range(4):
                n = rng.randint(r, min(r + 3, 7))
                m = from_vectors(random_fullrank_rows(rng, n, r))
                labels = rng.sample(range(2, 40), n)
                x = from_chirotope(
                    SignMap(r, n, [v for _, v in m.items()], labels))
                assert x.ground == set(labels)
                assert literal_key(x) == literal_key(
                    from_chirotope(m), dict(zip(range(1, n + 1), labels)))
                if r > 2:
                    assert x.hyperlines == tuple(literal_display_order(x))


class TestMinorHls:
    """`om minor` on a .hls file answers with the sequence of the chirotope
    route's minor, serialize_hls(from_chirotope(contract(delete(...)))),
    the deletion applied before the contraction."""

    FRAME4 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]

    @staticmethod
    def minor(tmp_path, capsys, x, *argv):
        from omkit import cli

        p = tmp_path / "x.hls"
        p.write_text(serialize_hls(x))
        return cli.main(["minor", str(p), *argv]), *capsys.readouterr()

    def test_delete(self, tmp_path, capsys):
        m = from_vectors(self.FRAME4)
        sub = delete(m, {4})
        assert self.minor(tmp_path, capsys, from_chirotope(m), "--delete", "4") == (
            0, serialize_hls(from_chirotope(sub)), "")

    def test_contract(self, tmp_path, capsys):
        m = from_vectors(self.FRAME4)
        assert self.minor(tmp_path, capsys, from_chirotope(m), "--contract", "4") == (
            0, serialize_hls(from_chirotope(contract(m, [4]))), "")

    def test_delete_then_contract(self, tmp_path, capsys):
        m = from_vectors(self.FRAME4 + [(1, 2, 0)])
        sub = delete(m, {5})
        assert self.minor(tmp_path, capsys, from_chirotope(m),
                          "--delete", "5", "--contract", "1") == (
            0, serialize_hls(from_chirotope(contract(sub, [1]))), "")

    def test_invalid_delete_raises(self, tmp_path, capsys):
        # removing one of the two spanning directions of the plane leaves
        # three parallel elements
        x = from_chirotope(from_vectors([(1, 0), (0, 1), (0, 2), (0, 3)]))
        assert self.minor(tmp_path, capsys, x, "--delete", "1") == (
            1, "", "error: deleting [1] drops the rank: no nonzero basis avoids them\n")

    def test_unknown_ids(self, tmp_path, capsys):
        for flag in ("--delete", "--contract"):
            assert self.minor(tmp_path, capsys, HLRank2(HEXA), flag, "9") == (
                2, "", "error: elements not in the ground set: [9]\n")

    def test_minor_with_odd_labels(self, tmp_path, capsys):
        x = HLRank2([{2}, {5}, {9}, {-2}, {-5}, {-9}])
        m = to_chirotope(x)
        sub = delete(m, [5])
        assert sub.labels == (2, 9)
        assert self.minor(tmp_path, capsys, x, "--delete", "5") == (
            0, serialize_hls(from_chirotope(sub)), "")


def _mutated_z(rng, z):
    """An antipodal rank 2 sequence from z: rotate, then either apply a
    random signed permutation to one half or merge two adjacent atoms."""
    atoms = [frozenset(a) for a in z.enc]
    s = rng.randrange(len(atoms))
    atoms = atoms[s:] + atoms[:s]
    half = atoms[: len(atoms) // 2]
    if len(half) >= 2 and rng.random() < 0.5:
        half[:2] = [half[0] | half[1]]
    else:
        rng.shuffle(half)
        half = [a if rng.random() < 0.5 else frozenset(-e for e in a)
                for a in half]
    return HLRank2(half + [frozenset(-e for e in a) for a in half])


def _mutated(rng, x):
    """x with one hyperline's Z permuted or merged, in both orientations;
    the new pair replaces the old one or joins it."""
    h = rng.choice(sorted(x.hyperlines, key=repr))
    new = Hyperline(h.y, _mutated_z(rng, h.z))
    pair = {new, Hyperline(new.y.negation, new.z.negation)}
    kept = set(x.hyperlines)
    if rng.random() < 0.7:
        kept -= {h, Hyperline(h.y.negation, h.z.negation)}
    return HLHigher(x.rank, kept | pair)


def _mutated_corpus():
    """150 seeded rank 3 and 4 sequences, n <= 6, each with up to two
    hyperlines' Z permuted or merged."""
    rng = random.Random(20261017)
    for _ in range(150):
        r = rng.choice((3, 4))
        n = rng.randint(r + 1, 6)
        rows = random_fullrank_rows(rng, n, r, bound=rng.choice((1, 2, 5)))
        x = from_chirotope(from_vectors(rows))
        for _ in range(rng.randint(0, 2)):
            x = _mutated(rng, x)
        yield x


def _expected(x, path=""):
    """The findings of x checked at path: one structure violation per
    period-2 component if it has any, else the literal H2/H3/H4 ones."""
    degenerate = literal_period2_paths(x, path)
    if degenerate:
        return [("structure", (p,), f"{p}: {DEGENERATE}") for p in degenerate]
    return [(a, w, (path and path + ": ") + m) for a, w, m in literal_h2_h3_h4(x)]


def test_matches_literal_scans():
    # The indexed H2/H3/H4 scans report the same violations, witnesses
    # and order as the quadratic scans in the literal oracle; a merge
    # down to period 2 stops the check at that component.
    seen = collections.Counter()
    for x in _mutated_corpus():
        assert x.hyperlines == tuple(literal_display_order(x))
        got = [(v.axiom, v.witness, v.message)
               for v in check_hyperline(x).violations]
        assert got == _expected(x)
        seen.update(axiom for axiom, _, _ in got)
        seen["ok"] += not got
    assert all(seen[k] for k in ("H2", "H3", "H4", "ok", "structure")), seen


def test_nested_reports_carry_the_path():
    # a corpus sequence checked as the Y of a larger one reports the same
    # findings as alone, each message under the Y's path; the outer
    # sequence's own finding (its missing negation) is left out
    z = HLRank2([{98}, {99}, {-98}, {-99}])
    seen = collections.Counter()
    for x in _mutated_corpus():
        outer = HLHigher(x.rank + 2, [Hyperline(x, z)])
        got = [(v.axiom, v.witness, v.message) for v in check_hyperline(outer).violations
               if v.message.startswith("hyperline[0].Y")]
        assert got == _expected(x, "hyperline[0].Y")
        seen.update(axiom for axiom, _, _ in got)
    assert seen["H2"] and seen["H3"] and seen["H4"], seen


def test_negation_keeps_the_verdict():
    # check_hyperline reuses a clean verdict for a component's negation;
    # negating a sequence keeps its verdict and the axioms it violates
    seen = collections.Counter()
    for x in _mutated_corpus():
        got, neg = check_hyperline(x), check_hyperline(x.negation)
        assert got.ok == neg.ok
        assert collections.Counter(v.axiom for v in got.violations) == \
            collections.Counter(v.axiom for v in neg.violations)
        seen.update(v.axiom for v in got.violations)
    assert seen["H2"] and seen["H3"] and seen["H4"], seen


def test_verdicts_follow_relabeling_and_reorientation():
    # the set of violated axioms is the same on a sequence, on one image
    # relabeled onto other labels and on one with an element reoriented,
    # both rebuilt through the constructors.  Sequences: seeded ones at
    # rank 2..4 and up to 40 neighbours of each, mostly invalid
    rng = random.Random(20261020)
    seen = collections.Counter()
    invalid = 0
    for r in (2, 3, 4):
        for n in range(r + 1, min(r + 5, 8)):
            x = from_chirotope(from_vectors(random_fullrank_rows(rng, n, r)))
            moves = neighbours(x)
            for v in [x, *rng.sample(moves, min(40, len(moves)))]:
                axioms = {w.axiom for w in check_hyperline(v).violations}
                invalid += bool(axioms)
                seen.update(axioms)
                ground = sorted(v.ground)
                perm = dict(zip(ground, rng.sample(range(1, 2 * n + 1), len(ground))))
                e = rng.choice(ground)
                for name in (lambda s: perm[s] if s > 0 else -perm[-s],
                             lambda s: -s if abs(s) == e else s):
                    image = rename_sequence(v, name)
                    assert {w.axiom for w in check_hyperline(image).violations} == axioms, v
    assert invalid > 300 and seen["structure"] and seen["H3"] and seen["H4"], (invalid, seen)


def test_check_agrees_with_the_chirotope_route():
    # check_hyperline accepts a sequence exactly when its chirotope passes
    # check_chirotope and rebuilds to it.  Sequences: every valid one of
    # rank 2 at n <= 4 and of rank 3 at n = 4, and every one a single move
    # away (swaps keep a rank 2 sequence valid, merges reach period 2)
    seen = collections.Counter()
    for n, r in ((2, 2), (3, 2), (4, 2), (4, 3)):
        maps = (SignMap(r, n, list(s))
                for s in itertools.product((-1, 0, 1), repeat=math.comb(n, r)))
        assert route_disagreements([m for m in maps if check_chirotope(m).ok], seen) == []
    assert all(seen[r, ok] for r in (2, 3) for ok in (True, False)), seen


def test_check_agrees_with_the_chirotope_route_at_five_elements():
    # the same agreement on seeded valid maps at (5, 3) and (5, 4), each
    # with every sequence one move away; tests/route_sweep.py runs it on
    # many more
    rng = random.Random(20261019)
    seen = collections.Counter()
    for r, count in ((3, 15), (4, 10)):
        assert route_disagreements(valid_signmaps(rng, 5, r, count), seen) == []
    assert all(seen[r, ok] for r in (3, 4) for ok in (True, False)), seen


def test_triangle_flips_agree_with_the_chirotope_route():
    # the accept side of the agreement: negating one basis sign of a
    # uniform rank 3 map gives a chirotope exactly when the triangle's
    # flip on the sequence alone passes check_hyperline, and then the two
    # are the same sequence.  The reject side: a near-flip, the swaps on
    # one or two of a flippable triangle's three flats only, fails both
    # check_hyperline and the chirotope route; one near-flip per triangle,
    # taking the six kinds in turn, keeps the test under a second
    rng = random.Random(20261019)
    accepted = rejected = near = 0
    for n in (5, 6, 7):
        for _ in range(8):
            m = from_vectors(uniform_rows(rng, n, 3))
            x = from_chirotope(m)
            for t in itertools.combinations(range(1, n + 1), 3):
                flipped = SignMap(3, n, {s: -v if s == t else v for s, v in m.items()})
                y = triangle_flip(x, *t)
                ok = check_chirotope(flipped).ok
                assert ok == (y is not None and check_hyperline(y).ok), (m, t)
                if ok:
                    assert y == from_chirotope(flipped)
                accepted += ok
                rejected += not ok
                if y is not None:
                    flats = [f for k in (1, 2) for f in itertools.combinations(t, k)]
                    v = triangle_flip(x, *t, flats=flats[near % len(flats)])
                    assert not check_hyperline(v).ok and not passes_chirotope_route(v), (m, t)
                    near += 1
    assert accepted and rejected and near


class TestSharedComponents:
    """One malformed component object under two hyperlines is reported at
    both paths, with the messages of the unshared check."""

    def test_rank4_shared_z(self):
        x = from_chirotope(from_vectors(
            [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1)]))
        h = x.hyperlines[0]
        bad = HLRank2(h.z.enc[:-1])  # odd period
        rest = [g for g in x.hyperlines if g.y.ground != h.y.ground]
        x = HLHigher(4, rest + [Hyperline(h.y, bad), Hyperline(h.y.negation, bad)])
        odd = [("structure", f"hyperline[{i}].Z: {msg}") for i in (0, 1) for msg in (
            "odd period 5",
            "atoms do not cover both signed copies of every element (missing [-3])")]
        assert [(v.axiom, v.message) for v in check_hyperline(x).violations] == odd + [
            ("structure", "hyperline[0]: negated orientation is missing "
                          "(sequences store both)")]

    def test_rank5_shared_y(self):
        x = from_chirotope(from_vectors([(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
                                         (0, 0, 0, 1, 0), (0, 0, 0, 0, 1), (1, 1, 1, 1, 1)]))
        h = x.hyperlines[0]
        inner = h.y.hyperlines[0]
        bad_y = HLHigher(3, [g for g in h.y.hyperlines if g != inner]
                         + [Hyperline(inner.y, HLRank2(inner.z.enc[:-1]))])
        rest = [g for g in x.hyperlines if g.y.ground != h.y.ground]
        x = HLHigher(5, rest + [Hyperline(bad_y, h.z), Hyperline(bad_y, h.z.negation)])
        # each nested report names the path of the component it is about
        missing = [("structure", (f"{at}hyperline[0]",),
                    f"{at}hyperline[0]: negated orientation is missing "
                    "(sequences store both)")
                   for at in ("hyperline[0].Y.", "hyperline[1].Y.", "")]
        odd = [[("structure", (f"hyperline[{i}].Y.hyperline[0].Z",),
                 f"hyperline[{i}].Y.hyperline[0].Z: {msg}") for msg in (
            "odd period 3",
            "atoms do not cover both signed copies of every element (missing [-2])")]
            for i in (0, 1)]
        assert [(v.axiom, v.witness, v.message) for v in check_hyperline(x).violations] == \
            odd[0] + missing[:1] + odd[1] + missing[1:]

    def test_malformed_y_after_clean_ones(self):
        # clean Ys of one shape come first; a malformed Y on the same number
        # of elements later in display order is still checked and reported
        x = from_chirotope(from_vectors(random_fullrank_rows(random.Random(8), 6, 5)))
        h = x.hyperlines[-1]
        inner = h.y.hyperlines[0]
        bad_y = HLHigher(3, [g for g in h.y.hyperlines if g != inner]
                         + [Hyperline(inner.y, HLRank2(inner.z.enc[:-1]))])
        x = HLHigher(5, [g for g in x.hyperlines if g != h] + [Hyperline(bad_y, h.z)])
        at = [i for i, g in enumerate(x.hyperlines) if g.y is bad_y]
        assert at and at[0] > 0
        report = check_hyperline(x)
        assert any(v.message.startswith(f"hyperline[{at[0]}].Y.hyperline[")
                   for v in report.violations)
