import itertools
import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from helpers import (
    brute_force_bodies,
    coloops,
    det_laplace,
    dual_signmap,
    literal_axiom_check,
    literal_c1,
    literal_c3,
    literal_c3_witness,
    literal_c4,
    literal_c4_witness,
    literal_key,
    literal_restriction,
    parity_evaluator,
    quotient_coords,
    random_fullrank_rows,
    random_signmap,
    rank2_count,
    relabel_signmap,
    reorient_signmap,
    rows_with_extra,
    signmap_cocircuits,
    uniform_rows,
    valid_signmaps,
)
from omkit import (
    ContractionError,
    DeletionError,
    RealizationError,
    SignMap,
    SizeGuardError,
    VectorConfig,
    check_chirotope,
    check_hyperline,
    contract,
    delete,
    det_sign,
    enumerate_bodies,
    find_deletable,
    from_chirotope,
    from_vectors,
    parse_chi,
    serialize_chi,
    to_chirotope,
)
from omkit import chirotope

TRIANGLE = [(1, 0), (0, 1), (-1, 1)]
FRAME4 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]


class TestSignMap:
    def test_total_storage(self):
        m = SignMap(2, 3, {(1, 2): 1})
        assert m.evaluate((1, 3)) == 0
        assert [s for s, _ in m.items()] == [(1, 2), (1, 3), (2, 3)]

    def test_bad_key(self):
        with pytest.raises(ValueError):
            SignMap(2, 3, {(2, 1): 1})
        with pytest.raises(ValueError):
            SignMap(2, 3, {(1, 4): 1})

    def test_bad_value(self):
        with pytest.raises(ValueError):
            SignMap(2, 3, {(1, 2): 2})

    def test_evaluate_alternates(self):
        m = SignMap(2, 3, {(1, 2): 1})
        assert m.evaluate((1, 2)) == 1
        assert m.evaluate((2, 1)) == -1
        assert m.evaluate((-1, 2)) == -1
        assert m.evaluate((-1, -2)) == 1

    def test_evaluate_degenerate(self):
        m = SignMap(2, 3, {(1, 2): 1})
        assert m.evaluate((1, 1)) == 0
        assert m.evaluate((2, -2)) == 0

    def test_evaluate_matches_parity(self):
        # every signed r-tuple, repeated elements included, against the
        # oracles' own inversion count
        rng = random.Random(2026)
        for i in range(50):
            r = 1 + i % 4
            m = random_signmap(rng, rng.randint(r, 6), r)
            value = parity_evaluator(m)
            signed = [s for e in range(1, m.n + 1) for s in (e, -e)]
            for t in itertools.product(signed, repeat=r):
                assert m.evaluate(t) == value(t), t

    def test_evaluate_errors(self):
        m = SignMap(2, 3, {(1, 2): 1})
        with pytest.raises(ValueError):
            m.evaluate((1, 2, 3))
        with pytest.raises(ValueError):
            m.evaluate((1, 4))
        with pytest.raises(ValueError, match="^0 is not a signed element$"):
            m.evaluate((1, 0))

    def test_negate(self):
        m = SignMap(2, 3, {(1, 2): 1, (1, 3): -1})
        nm = m.negate()
        assert nm.evaluate((1, 2)) == -1 and nm.evaluate((1, 3)) == 1
        assert nm.evaluate((2, 3)) == 0
        assert nm.negate() == m

    def test_labels(self):
        m = SignMap(2, 2, {(1, 2): 1}, labels=(3, 7))
        assert m.label_of(2) == 7
        # equality is value for value; labels are bookkeeping
        assert m == SignMap(2, 2, {(1, 2): 1})
        with pytest.raises(ValueError):
            SignMap(2, 2, {(1, 2): 1}, labels=(3,))


class TestStorage:
    def test_list_equals_dict(self):
        signs = [1, 0, -1, 1, 1, 0]
        m = SignMap(2, 4, signs)
        supports = itertools.combinations(range(1, 5), 2)
        assert m == SignMap(2, 4, dict(zip(supports, signs)))
        assert m.evaluate((1, 4)) == -1 and m.evaluate((4, 1)) == 1

    def test_bad_list(self):
        with pytest.raises(ValueError, match="expected 6 signs"):
            SignMap(2, 4, [1, 0, -1, 1, 1])
        with pytest.raises(ValueError, match="out of range: 2"):
            SignMap(2, 4, [1, 0, -1, 1, 2, 0])
        with pytest.raises(ValueError, match="^rank must be at least 1$"):
            SignMap(0, 3)
        with pytest.raises(ValueError, match="^ground set needs at least one element$"):
            SignMap(1, 0)

    def test_items_in_chi_order(self):
        body = "+0-+-0-+0+"
        m = parse_chi(f"3 5\n{body}\n")
        assert [s for s, _ in m.items()] == list(itertools.combinations(range(1, 6), 3))
        assert "".join("-0+"[v + 1] for _, v in m.items()) == body

    def test_ids_refuse_unknown_then_repeated_labels(self):
        # the repeat message lists every given label, in id order
        m = SignMap(2, 3, {(1, 2): 1}, labels=(4, 7, 2))
        with pytest.raises(ValueError, match=r"^repeated elements in \(4, 2, 2\)$"):
            m.ids([2, 4, 2])
        with pytest.raises(ValueError, match=r"^elements not in the ground set: \[9\]$"):
            m.ids([2, 2, 9])
        with pytest.raises(ValueError, match="not in the ground set"):
            m.ids(["4"])

    def test_labels_are_distinct(self):
        # SignMap.ids names each element by its label, so no two may share one
        with pytest.raises(ValueError, match="^labels must name every element once$"):
            SignMap(2, 3, [1, 1, 1], labels=(5, 5, 6))

    def test_ids_keep_order(self):
        m = SignMap(2, 3, {(1, 2): 1}, labels=(4, 7, 2))
        assert m.ids([2, 4, 7]) == [3, 1, 2]
        with pytest.raises(ValueError, match=r"^elements not in the ground set: \[9, 8\]$"):
            m.ids([7, 9, 8])


class TestSizeLimits:
    def test_absurd_size_refused_before_allocation(self):
        # C(60, 30) is about 1.2e17: refused from the count alone
        with pytest.raises(SizeGuardError, match=r"C\(60, 30\)"):
            SignMap(30, 60)
        with pytest.raises(SizeGuardError, match="past the limit"):
            from_vectors([(1, k, k * k) for k in range(200)])

    def test_absurd_count_refused_at_once(self):
        # past 2^64 the count is named, never computed: C(10^6, 5 * 10^5)
        # alone takes seconds and has more digits than str() may print
        res = subprocess.run([sys.executable, "-c", "import omkit; omkit.SignMap(500000, 10**6)"],
                             capture_output=True, text=True, timeout=10)
        assert res.returncode == 1
        assert res.stderr.endswith("omkit.errors.SizeGuardError: C(1000000, 500000) signs "
                                   "is past the limit of 1000000\n")

    def test_list_past_the_bound_is_refused_at_the_first_read(self):
        # a list is taken over with its length checked against C(200, 3)
        # alone; the subsets are listed, and refused, when a sign is read
        m = SignMap(3, 200, [1] * 1313400)
        assert repr(m) == "SignMap(rank=3, n=200, nonzero=1313400)"
        with pytest.raises(SizeGuardError, match=r"^C\(200, 3\) = 1313400 signs is past"):
            check_chirotope(m)

    def test_layout_cache_is_bounded(self):
        cache = chirotope._layout.cache_info()
        # every (n, r) with r <= 5 and n <= 9 that from_chirotope can touch
        assert cache.maxsize >= sum(10 - r for r in range(1, 6))
        for n in range(1, 13):
            for r in range(1, n + 1):
                SignMap(r, n)
        assert chirotope._layout.cache_info().currsize <= cache.maxsize


class TestCheck:
    def test_valid_triangle(self):
        assert check_chirotope(from_vectors(TRIANGLE)).ok

    def test_c1(self):
        m = SignMap(2, 3, {(1, 2): 1})
        report = check_chirotope(m)
        assert any(v.axiom == "C1" and v.witness == (3,) for v in report.violations)

    def test_c3_disjoint_bases(self):
        # two disjoint nonzero supports, nothing to exchange through
        m = SignMap(2, 4, {(1, 2): 1, (3, 4): 1})
        report = check_chirotope(m)
        assert any(v.axiom == "C3" for v in report.violations)
        assert not literal_c3(m)

    def test_c4_witness(self):
        # all pairs positive except (2,4) negative: a three-term violation
        m = SignMap(
            2, 4,
            {(1, 2): 1, (1, 3): 1, (1, 4): 1, (2, 3): 1, (2, 4): -1, (3, 4): 1},
        )
        report = check_chirotope(m)
        assert any(v.axiom == "C4" for v in report.violations)
        assert not literal_c4(m)
        # the witness is a genuine violation: recompute its three terms
        w = next(v for v in report.violations if v.axiom == "C4")
        prefix, (a, b, c, d) = w.witness[:-4], w.witness[-4:]
        t1 = m.evaluate(prefix + (c, b)) * m.evaluate(prefix + (a, d))
        t2 = m.evaluate(prefix + (d, b)) * m.evaluate(prefix + (a, -c))
        t3 = m.evaluate(prefix + (a, b)) * m.evaluate(prefix + (c, d))
        assert t1 >= 0 and t2 >= 0 and t3 < 0

    def test_rank3_c4_witness_recheck(self):
        m = SignMap(
            3, 5,
            {s: 1 for s in itertools.combinations(range(1, 6), 3)}
            | {(2, 4, 5): -1},
        )
        report = check_chirotope(m)
        cw = [v for v in report.violations if v.axiom == "C4"]
        assert cw
        prefix, (a, b, c, d) = cw[0].witness[:-4], cw[0].witness[-4:]
        t1 = m.evaluate(prefix + (c, b)) * m.evaluate(prefix + (a, d))
        t2 = m.evaluate(prefix + (d, b)) * m.evaluate(prefix + (a, -c))
        t3 = m.evaluate(prefix + (a, b)) * m.evaluate(prefix + (c, d))
        assert t1 >= 0 and t2 >= 0 and t3 < 0

    def test_zero_map_fails_c1(self):
        report = check_chirotope(SignMap(2, 3))
        assert not report.ok

    def test_size_guard(self):
        # the size guard is the CLI's (test_cli.TestSizeGuard): the check
        # itself runs past n = 9 and rank 5
        assert [v.axiom for v in check_chirotope(SignMap(2, 10)).violations] == ["C1"]
        assert check_chirotope(SignMap(6, 6, [1])).ok

    def test_agrees_with_literal_oracle(self):
        rng = random.Random(7)
        disagreements = []
        for _ in range(100):
            m = random_signmap(rng, 4, 2)
            if check_chirotope(m).ok != literal_axiom_check(m):
                disagreements.append(m)
        assert not disagreements

    def test_agrees_with_literal_oracle_rank3(self):
        rng = random.Random(11)
        for _ in range(40):
            m = random_signmap(rng, 4, 3)
            assert check_chirotope(m).ok == literal_axiom_check(m)

    def test_witnesses_match_literal_scans(self):
        # realizable maps, realizable maps with 1-3 values changed, and
        # random maps; the check must report the literal scans' first
        # C3 and C4 witnesses
        rng = random.Random(4242)
        seen = {"C3": 0, "C4": 0}
        for i in range(300):
            r = rng.randint(2, 5)
            n = rng.randint(r, 7)
            if i % 3 == 2:
                m = random_signmap(rng, n, r)
            else:
                bound = rng.choice((1, 2, 5))
                m = from_vectors(random_fullrank_rows(rng, n, r, bound))
                if i % 3 == 1:
                    vals = dict(m.items())
                    for s in rng.sample(sorted(vals), rng.randint(1, min(3, len(vals)))):
                        vals[s] = rng.choice([v for v in (-1, 0, 1) if v != vals[s]])
                    m = SignMap(r, n, vals)
            found = {v.axiom: v.witness for v in check_chirotope(m).violations}
            assert found.get("C3") == literal_c3_witness(m), dict(m.items())
            assert found.get("C4") == literal_c4_witness(m), dict(m.items())
            for axiom in seen:
                seen[axiom] += axiom in found
        assert min(seen.values()) >= 20, seen

    def test_cocircuit_scan_matches_evaluated_tuples(self):
        # C3 and the cell layer read chirotope.cocircuit_masks, also on maps
        # that fail the axioms: each key is the mask of an (r-1)-subset B,
        # its value the signs of (m.evaluate(B + (e,)))_e, bit e-1 for e
        rng = random.Random(5150)
        seen = {"C1": 0, "C3": 0}
        for i in range(300):
            r = rng.randint(1, 5)
            n = rng.randint(r, 8)
            if i % 3 == 2:
                m = random_signmap(rng, n, r)
            else:
                m = from_vectors(random_fullrank_rows(rng, n, r, rng.choice((1, 2, 5))))
                if i % 3 == 1:
                    vals = dict(m.items())
                    for s in rng.sample(sorted(vals), rng.randint(1, min(3, len(vals)))):
                        vals[s] = rng.choice([v for v in (-1, 0, 1) if v != vals[s]])
                    m = SignMap(r, n, vals)
            masks = chirotope.cocircuit_masks(m)
            vectors = {}
            for b, (p, q) in masks.items():
                vectors[b] = tuple(1 if p >> k & 1 else -1 if q >> k & 1 else 0
                                   for k in range(n))
            both = set(vectors.values()) | {tuple(-v for v in c) for c in vectors.values()}
            assert both == signmap_cocircuits(m), dict(m.items())
            for b, c in vectors.items():
                rest = tuple(e for e in range(1, n + 1) if b >> e - 1 & 1)
                assert len(rest) == r - 1
                assert c == tuple(m.evaluate(rest + (e,)) for e in range(1, n + 1))
            seen["C1"] += not literal_c1(m)
            seen["C3"] += not literal_c3(m)
        assert min(seen.values()) >= 20, seen

    def test_single_basis_maps(self):
        # n = r: the only requirement is a nonzero value
        for r in (1, 2, 3, 4):
            sup = tuple(range(1, r + 1))
            assert check_chirotope(SignMap(r, r, {sup: 1})).ok
            assert check_chirotope(SignMap(r, r, {sup: -1})).ok
            assert not check_chirotope(SignMap(r, r)).ok

    def test_accepted_set_closed_under_negation_and_relabel(self):
        rng = random.Random(13)
        perms = [dict(zip(range(1, 5), p))
                 for p in itertools.permutations(range(1, 5))]
        seen = 0
        for _ in range(400):
            m = random_signmap(rng, 4, 2)
            if not check_chirotope(m).ok:
                continue
            seen += 1
            assert check_chirotope(m.negate()).ok
            perm = rng.choice(perms)
            assert check_chirotope(relabel_signmap(m, perm)).ok
        assert seen >= 40  # the sample actually exercised the property


class TestRelabelReorient:
    """check_chirotope's verdict, and the sequence from_chirotope builds,
    follow relabeling and reorientation, on valid and invalid maps at the
    size guard: n = 9, rank 3..5."""

    @staticmethod
    def inputs(rng, r):
        """A uniform and a dependent-row map; two one-sign flips and two
        one-basis zeroings of each (most break C4 only, some stay valid);
        the uniform map with every basis on element 9 zeroed (C1); and a
        random map (C3 and C4)."""
        realized = [from_vectors(uniform_rows(rng, 9, r)),
                    from_vectors(rows_with_extra(rng, 9, r, "dependent"))]
        out = list(realized)
        for m in realized:
            signs = [v for _, v in m.items()]
            nonzero = [i for i, v in enumerate(signs) if v]
            a, b, c, d = rng.sample(nonzero, 4)
            for i, v in ((a, -signs[a]), (b, -signs[b]), (c, 0), (d, 0)):
                out.append(SignMap(r, 9, signs[:i] + [v] + signs[i + 1:]))
        out.append(SignMap(r, 9, {s: 0 if 9 in s else v for s, v in realized[0].items()}))
        out.append(random_signmap(rng, 9, r))
        return out

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_verdicts_and_sequences_follow_the_action(self, r):
        rng = random.Random(r)
        broken = set()
        for m in self.inputs(rng, r):
            axioms = {v.axiom for v in check_chirotope(m).violations}
            broken |= axioms
            perm = dict(zip(range(1, 10), rng.sample(range(1, 10), 9)))
            images = [relabel_signmap(m, perm),
                      *(reorient_signmap(m, e) for e in rng.sample(range(1, 10), 2))]
            for image in images:
                assert {v.axiom for v in check_chirotope(image).violations} == axioms
            if axioms:
                continue
            assert literal_key(from_chirotope(images[0])) == literal_key(
                from_chirotope(m), rename=perm)
            for image in images:
                x = from_chirotope(image)
                assert check_hyperline(x).ok and to_chirotope(x) == image
        assert broken == {"C1", "C3", "C4"}  # the inputs reach every axiom


class TestRealization:
    def test_triangle_values(self):
        m = from_vectors(TRIANGLE)
        assert dict(m.items()) == {(1, 2): 1, (1, 3): 1, (2, 3): 1}

    def test_frame4_values(self):
        m = from_vectors(FRAME4)
        assert dict(m.items()) == {
            (1, 2, 3): 1, (1, 2, 4): 1, (1, 3, 4): -1, (2, 3, 4): 1,
        }

    def test_fractions(self):
        m = from_vectors([(Fraction(1, 2), 0), (0, Fraction(1, 3))])
        assert m.evaluate((1, 2)) == 1

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            VectorConfig([(1.0, 0.0), (0.0, 1.0)])

    def test_zero_row_rejected(self):
        with pytest.raises(RealizationError):
            VectorConfig([(1, 0), (0, 0)])

    def test_rank_deficient(self):
        # every 2x2 determinant is zero: the rows lie on one line
        with pytest.raises(RealizationError, match=r"^rows do not span rank 2$"):
            from_vectors([(1, 0), (2, 0), (-1, 0)])
        # fewer rows than columns
        with pytest.raises(RealizationError, match=r"^rows do not span rank 3$"):
            from_vectors([(1, 0, 0), (0, 1, 0)])

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            VectorConfig([(1, 0), (0, 1, 1)])
        with pytest.raises(ValueError, match="^need at least one row$"):
            VectorConfig([])
        with pytest.raises(ValueError, match="^rows must have at least one column$"):
            VectorConfig([()])

    def test_realized_maps_validate(self, corpus):
        for n, r, rows in corpus[:40]:
            assert check_chirotope(from_vectors(rows)).ok

    def test_repeated_directions_validate(self):
        # the CLI does not check realized input again, relying on this:
        # rows repeated with a positive (parallel) or negative
        # (antiparallel) factor, or summing two others, still realize a
        # chirotope with nothing to report
        rng = random.Random(515)
        for r in (2, 3, 4, 5):
            for _ in range(10):
                base = random_fullrank_rows(rng, rng.randint(r, 7), r, bound=3)
                i, j = rng.sample(range(len(base)), 2)
                extras = [tuple(k * a for a in base[i]) for k in (-2, -1, 2, 3)]
                extras.append(tuple(a + b for a, b in zip(base[i], base[j])))
                for extra in extras:
                    if any(extra):
                        rows = list(base)
                        rows.insert(rng.randrange(len(rows) + 1), extra)
                        report = check_chirotope(from_vectors(rows))
                        assert not report.violations, rows

    def test_det_sign_matches_laplace(self):
        rng = random.Random(3)
        for _ in range(200):
            size = rng.randint(1, 5)
            mat = [[rng.randint(-6, 6) for _ in range(size)] for _ in range(size)]
            d = det_laplace(mat)
            assert det_sign(mat) == (1 if d > 0 else -1 if d < 0 else 0)

    def test_cleared_rows_preserve_signs(self):
        v = VectorConfig([(Fraction(1, 2), Fraction(-2, 3)), (3, 4)])
        assert v.cleared_rows() == [(3, -4), (3, 4)]


class TestMinors:
    def test_delete_reports(self):
        m = from_vectors(FRAME4)
        sub = delete(m, {4})
        assert dict(sub.items()) == {(1, 2, 3): 1}
        assert sub.labels == (1, 2, 3)

    def test_delete_relabels(self):
        m = from_vectors(FRAME4)
        sub = delete(m, {1})
        assert sub.labels == (2, 3, 4)
        assert sub.evaluate((1, 2, 3)) == m.evaluate((2, 3, 4))

    def test_delete_can_invalidate(self):
        # dropping both elements off the y axis leaves two parallel ones:
        # the rank drops, so the deletion is refused, naming the labels
        m = from_vectors([(1, 0), (0, 1), (0, 2), (1, 1)])
        with pytest.raises(DeletionError, match=r"^deleting \[1, 4\] drops the rank"):
            delete(m, {1, 4})
        with pytest.raises(ValueError, match=r"^repeated elements in \(2, 2\)"):
            delete(m, [2, 2])

    def test_delete_too_many(self):
        m = from_vectors(TRIANGLE)
        with pytest.raises(DeletionError):
            delete(m, {1, 2})

    def test_delete_out_of_range(self):
        with pytest.raises(ValueError):
            delete(from_vectors(TRIANGLE), {5})

    def test_find_deletable_smallest(self):
        m = from_vectors(FRAME4)
        assert find_deletable(m) == (1, delete(m, {1}))

    def test_find_deletable_skips_essential(self):
        # element 1 spans the x axis alone: deleting it drops the rank,
        # so the scan moves past it
        m = from_vectors([(1, 0), (0, 1), (0, 2), (0, 3)])
        assert find_deletable(m) == (2, delete(m, {2}))
        with pytest.raises(DeletionError):
            delete(m, {1})

    def test_find_deletable_exhausted(self):
        with pytest.raises(DeletionError):
            find_deletable(from_vectors(TRIANGLE[:2]))
        # n > r, but the all-zero map has no nonzero basis to avoid anything
        with pytest.raises(DeletionError, match="^no nonzero basis avoids any"):
            find_deletable(SignMap(2, 3))

    def test_delete_accepts_exactly_the_chirotope_restrictions(self):
        # delete refuses only a rank drop, so on a chirotope it must accept
        # exactly the deletions whose restriction, read independently of
        # delete and gather, passes the check; find_deletable picks the
        # smallest single element that does
        rng = random.Random(20261019)
        maps = []
        for r in range(2, 6):
            for n in range(max(4, r + 1), 10):
                maps.append(from_vectors(uniform_rows(rng, n, r)))
                maps += [from_vectors(rows_with_extra(rng, n, r, kind))
                         for kind in ("dependent", "parallel")]
        # (6, 2) would take over a second to sample
        for n, r, count in ((4, 2, 30), (4, 3, 20), (5, 2, 30), (5, 3, 30), (5, 4, 30),
                            (6, 5, 30)):
            maps += valid_signmaps(rng, n, r, count)
        refused = 0
        for m in maps:
            deletable = []
            for k in (1, 2):
                for drop in itertools.combinations(range(1, m.n + 1), k):
                    want = literal_restriction(m, drop)
                    ok = want is not None and check_chirotope(want).ok
                    try:
                        sub = delete(m, drop)
                    except DeletionError:
                        assert not ok, (m, drop)
                        refused += 1
                        continue
                    assert ok and sub == want, (m, drop)
                    assert sub.labels == tuple(e for e in m.labels if e not in drop)
                    if k == 1:
                        deletable.append(drop[0])
            # n > r, so some element is no coloop
            assert find_deletable(m) == (deletable[0], delete(m, deletable[:1]))
        assert len(maps) == 233 and refused > 1000, (len(maps), refused)

    def test_contract_example(self):
        m = from_vectors(FRAME4)
        c = contract(m, [4])
        assert dict(c.items()) == {(1, 2): 1, (1, 3): -1, (2, 3): 1}
        assert c.labels == (1, 2, 3)

    def test_contract_drops_parallel(self):
        # contracting 4 = e1 + e2 collapses nothing here, but contracting
        # an element with a parallel partner removes the partner
        m = from_vectors([(1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1)])
        c = contract(m, [1])
        assert c.labels == (3, 4)

    def test_contract_errors(self):
        m = from_vectors(TRIANGLE)
        with pytest.raises(ContractionError):
            contract(m, [1, 2])
        with pytest.raises(ValueError):
            contract(m, [1, 1])
        with pytest.raises(ValueError):
            contract(m, [9])
        # contracting an element that lies in no nonzero basis
        bad = SignMap(2, 3, {(2, 3): 1})
        with pytest.raises(ContractionError):
            contract(bad, [1])

    def test_contract_matches_projection(self, corpus):
        # quotient coordinates computed independently with Fractions
        checked = 0
        for n, r, rows in corpus:
            if r < 2:
                continue
            m = from_vectors(rows)
            for e in range(1, n + 1):
                try:
                    c = contract(m, [e])
                except ContractionError:
                    continue
                kept, coords, corr = quotient_coords(rows, [e])
                assert c.labels == tuple(kept)
                q = from_vectors(coords)
                assert c == (q if corr > 0 else q.negate())
                checked += 1
                break  # one element per configuration keeps this fast
        assert checked >= 100

    def test_contract_two_elements(self):
        m = from_vectors(FRAME4)
        c = contract(m, [3, 4])
        kept, coords, corr = quotient_coords(FRAME4, [3, 4])
        assert c.labels == tuple(kept)
        q = from_vectors(coords)
        assert c == (q if corr > 0 else q.negate())

    def test_contracted_maps_validate(self, corpus):
        for n, r, rows in corpus[:60]:
            if r < 2:
                continue
            m = from_vectors(rows)
            c = contract(m, [1])
            assert check_chirotope(c).ok


class TestDuality:
    """helpers.dual_signmap, read off the stored signs alone, as an oracle
    for the check and the minors.  C1 does not dualise, since a loop
    dualises to a coloop, so validity is compared as "ok and no coloop".
    That comparison cannot see the permutation sign of the dual: dropping
    it only reorients elements, and a reorientation keeps the verdict.
    The minors can, so a dual without that sign must fail them."""

    @pytest.mark.parametrize("n, r, values", [(4, 2, (-1, 0, 1)), (5, 3, (-1, 1)),
                                              (5, 2, (-1, 1))])
    def test_validity_agrees_with_the_dual(self, n, r, values):
        # every map at (4, 2), every uniform one at (5, 3) and (5, 2)
        def ok(m):
            return check_chirotope(m).ok and not coloops(m)

        passed = 0
        for signs in itertools.product(values, repeat=math.comb(n, r)):
            m = SignMap(r, n, list(signs))
            assert ok(m) == ok(dual_signmap(m)), m
            passed += ok(m)
        assert 0 < passed < len(values) ** math.comb(n, r)

    @staticmethod
    def contractions():
        """(m, e, contract(m, [e])) for each e whose contraction keeps the
        n - 1 other elements, on seeded uniform, dependent-row and
        parallel-row maps with 4 <= n <= 8 and 2 <= r <= 5, n > r."""
        rng = random.Random(20261020)
        out = []
        for r in range(2, 6):
            for n in range(max(4, r + 1), 9):
                for _ in range(3):
                    for rows in (uniform_rows(rng, n, r),
                                 *(rows_with_extra(rng, n, r, kind)
                                   for kind in ("dependent", "parallel"))):
                        m = from_vectors(rows)
                        out += [(m, e, c) for e in range(1, n + 1)
                                if (c := contract(m, [e])).n == n - 1]
        return out

    @staticmethod
    def mismatches(contractions, dual):
        """The contractions whose dual is not delete(dual(m), [e]) up to a
        global sign."""
        bad = []
        for m, e, c in contractions:
            got, want = dual(c), delete(dual(m), [e])
            assert got.labels == want.labels
            if got not in (want, want.negate()):
                bad.append((m, e))
        return bad

    def test_contraction_dualises_to_deletion(self):
        contractions = self.contractions()
        assert len(contractions) > 800
        assert self.mismatches(contractions, dual_signmap) == []

    def test_a_dual_without_the_permutation_sign_fails_the_minors(self):
        def unsigned(m):
            return SignMap(m.n - m.rank, m.n, {
                tuple(e for e in range(1, m.n + 1) if e not in s): v for s, v in m.items()},
                m.labels)

        assert len(self.mismatches(self.contractions(), unsigned)) > 300


class TestEnumerate:
    @pytest.mark.parametrize("n, r, size", [(4, 2, 48), (5, 3, 384)])
    def test_uniform_bodies_form_one_orbit(self, n, r, size):
        # a known count: there is one simple arrangement of 4 points on a
        # line, and of 5 pseudolines (OEIS A006248), up to relabeling and
        # reorientation, so the n! * 2^n images of one valid uniform body
        # are every body the scan finds
        count, _, bodies = enumerate_bodies(n, r, uniform=True, want_bodies=True)
        elements = range(1, n + 1)
        m = SignMap(r, n, ["-0+".index(c) - 1 for c in bodies[0]])
        orbit = set()
        for perm in itertools.permutations(elements):
            images = [relabel_signmap(m, dict(zip(elements, perm)))]
            for e in elements:
                images += [reorient_signmap(x, e) for x in images]
            orbit.update("".join(serialize_chi(x).splitlines()[1:]) for x in images)
        assert count == len(bodies) == len(orbit) == size
        assert orbit == set(bodies)

    # every (n, r, uniform) with at most 3^6 maps and n <= 11: 48 cells,
    # where past n = 9 only the one-support cells (n, n) remain
    SMALL = [(n, r, uniform) for uniform in (False, True) for n in range(1, 12)
             for r in range(1, n + 1) if (2 if uniform else 3) ** math.comb(n, r) <= 3**6]

    def test_scan_equals_brute_force(self):
        assert len(self.SMALL) == 48
        for n, r, uniform in self.SMALL:
            want = brute_force_bodies(n, r, uniform)
            assert enumerate_bodies(n, r, uniform, want_bodies=True) == want, (n, r, uniform)

    def test_brute_force_sees_a_scan_without_c4(self, monkeypatch):
        # with no C4 instance to prune on, the scan lets through maps that
        # only C4 rejects, and the oracle tells
        monkeypatch.setattr(chirotope, "_c4_instances", lambda *args: [])
        assert enumerate_bodies(4, 2, want_bodies=True) != brute_force_bodies(4, 2, False)

    @pytest.mark.parametrize("n", [3, 4])
    def test_bodies_are_the_maps_passing_the_literal_axioms(self, n):
        _, _, bodies = enumerate_bodies(n, 2, want_bodies=True)
        literal = ["".join("-0+"[v + 1] for v in signs)
                   for signs in itertools.product((-1, 0, 1), repeat=math.comb(n, 2))
                   if literal_axiom_check(SignMap(2, n, list(signs)))]
        assert bodies == literal

    def test_rank2_counts_past_the_guard(self):
        # the CLI refuses 6 2 (3^15 maps); the library scans it
        counts = [2, 20, 200, 2384, 34592]
        assert [rank2_count(n) for n in range(2, 7)] == counts
        assert [enumerate_bodies(n, 2)[0] for n in range(2, 7)] == counts
