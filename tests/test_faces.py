import random
from math import comb

import pytest

from helpers import (
    _compose,
    literal_census,
    literal_covectors,
    random_fullrank_rows,
)
from omkit import (
    ArrangementError,
    ArrangementR1,
    ArrangementR2,
    HLRank1,
    HLRank2,
    OrientationClass,
    SignMap,
    SizeGuardError,
    VectorConfig,
    canonical_arrangement,
    classify_full,
    cocircuits,
    contract,
    covectors,
    delete,
    face_census,
    fm_realizable_topes,
    from_vectors,
    read_rank1,
    read_rank2,
    represent_rank1,
    represent_rank2,
    topes,
)

FRAME4 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
AXES3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def moment_curve(n):
    return [(1, t, t * t) for t in range(1, n + 1)]


class TestCocircuits:
    def test_frame4(self):
        expected = set()
        for v in [(0, 0, 1, 1), (0, 1, 0, 1), (0, -1, 1, 0),
                  (1, 0, 0, 1), (1, 0, -1, 0), (-1, 1, 0, 0)]:
            expected.add(v)
            expected.add(tuple(-a for a in v))
        assert cocircuits(from_vectors(FRAME4)) == expected

    def test_axes(self):
        cc = cocircuits(from_vectors(AXES3))
        assert len(cc) == 6
        for v in cc:
            assert sum(1 for s in v if s == 0) == 2

    def test_antipodal(self):
        for v in cocircuits(from_vectors(FRAME4)):
            assert tuple(-a for a in v) in cocircuits(from_vectors(FRAME4))

    def test_uniform_zero_count(self):
        # general position: cocircuits vanish on exactly r-1 elements
        m = from_vectors(moment_curve(5))
        for v in cocircuits(m):
            assert sum(1 for s in v if s == 0) == 2


class TestCovectors:
    def test_frame4_count(self):
        assert len(covectors(from_vectors(FRAME4))) == 51

    def test_axes_count(self):
        assert len(covectors(from_vectors(AXES3))) == 27

    def test_closure_properties(self):
        cvs = covectors(from_vectors(FRAME4))
        assert (0, 0, 0, 0) in cvs
        assert cocircuits(from_vectors(FRAME4)) <= cvs
        sample = sorted(cvs)[::5]
        for u in sample:
            for v in sample:
                assert _compose(u, v) in cvs

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            covectors(SignMap(2, 10))


class TestTopes:
    def test_frame4(self):
        ts = topes(from_vectors(FRAME4))
        assert len(ts) == 14
        assert all(all(v) for v in ts)
        assert (1, 1, 1, 1) in ts

    def test_missing_topes(self):
        # positive on all three axes forces a positive sum, so the pattern
        # (+,+,+,-) and its negation are the two missing ones
        ts = topes(from_vectors(FRAME4))
        assert (1, 1, 1, -1) not in ts
        assert (-1, -1, -1, 1) not in ts
        assert len(ts) == 14


class TestCensus:
    def test_frame4(self):
        c = face_census(from_vectors(FRAME4))
        assert (c.vertices, c.edges, c.facets) == (12, 24, 14)
        assert c.euler == 2

    def test_axes_both_orientations(self):
        for sign in (1, -1):
            base = from_vectors(AXES3)
            m = base if sign > 0 else base.negate()
            c = face_census(m)
            assert (c.vertices, c.edges, c.facets) == (6, 12, 8)

    def test_nonuniform_example(self):
        c = face_census(from_vectors([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)]))
        assert (c.vertices, c.edges, c.facets) == (8, 18, 12)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_uniform_formulas(self, n):
        # n lines in general position on the sphere
        c = face_census(from_vectors(moment_curve(n)))
        assert c.vertices == n * (n - 1)
        assert c.edges == 2 * n * (n - 1)
        assert c.facets == n * (n - 1) + 2

    def test_rank_restriction(self):
        with pytest.raises(ValueError):
            face_census(from_vectors([(1, 0), (0, 1)]))
        with pytest.raises(ValueError):
            face_census(from_vectors(random_fullrank_rows(random.Random(1), 5, 4)))

    def test_engineered_dependency(self):
        # v5 = v1 + v2 forces a 4-point vertex; Euler still holds
        rows = moment_curve(4)
        rows.append(tuple(a + b for a, b in zip(rows[0], rows[1])))
        c = face_census(from_vectors(rows))
        assert c.euler == 2


def _closure_configs(rng):
    """Seeded rows at rank 2..5, n <= 8: random ones with small entries,
    and ones with an extra row dependent on two others or parallel (or
    antiparallel) to one."""
    for r in (2, 3, 4, 5):
        for kind in ("random", "random", "dependent", "parallel"):
            n = rng.randint(r + 1, 8)
            if kind == "random":
                yield kind, random_fullrank_rows(rng, n, r, bound=rng.choice((1, 3)))
                continue
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
            yield kind, rows


class TestLiteralClosure:
    def test_matches_literal_closure(self):
        seen = set()
        for kind, rows in _closure_configs(random.Random(20261018)):
            m = from_vectors(rows)
            expected = literal_covectors(rows)
            assert covectors(m) == expected, rows
            assert topes(m) == {v for v in expected if all(v)}, rows
            if m.rank == 3:
                c = face_census(m)
                assert (c.vertices, c.edges, c.facets) == literal_census(rows), rows
            seen.add((m.rank, kind))
        assert len(seen) == 12

    def test_uniform_rank5_tope_count(self):
        # n hyperplanes in general position in rank r cut 2 * sum_{i<r}
        # C(n-1, i) topes
        rows = [tuple(t ** k for k in range(5)) for t in range(1, 10)]
        count = len(topes(from_vectors(rows)))
        assert count == 2 * sum(comb(8, i) for i in range(5)) == 326


class TestFeasibility:
    def test_frame4(self):
        v = VectorConfig(FRAME4)
        assert fm_realizable_topes(v) == topes(from_vectors(v))

    def test_rank2(self):
        v = VectorConfig([(1, 0), (0, 1), (-1, 1)])
        ts = fm_realizable_topes(v)
        assert ts == topes(from_vectors(v))
        assert len(ts) == 6

    def test_single_vector(self):
        v = VectorConfig([(1, 0), (0, 1)])
        assert fm_realizable_topes(v) == {(1, 1), (1, -1), (-1, 1), (-1, -1)}

    def test_corpus_agreement(self, corpus):
        done = 0
        for n, r, rows in corpus:
            if r not in (2, 3) or n > 6:
                continue
            v = VectorConfig(rows)
            assert fm_realizable_topes(v) == topes(from_vectors(v))
            done += 1
            if done >= 30:
                break
        assert done >= 30

    def test_size_guard(self):
        rng = random.Random(2)
        with pytest.raises(SizeGuardError):
            fm_realizable_topes(VectorConfig(random_fullrank_rows(rng, 9, 3)))
        with pytest.raises(SizeGuardError):
            fm_realizable_topes(VectorConfig(random_fullrank_rows(rng, 6, 5)))


class TestMinorCompatibility:
    def test_deletion_restricts_covectors(self):
        m = from_vectors(FRAME4)
        full = covectors(m)
        for e in range(1, 5):
            sub, report = delete(m, {e})
            assert report.ok
            restricted = {v[:e - 1] + v[e:] for v in full}
            assert covectors(sub) == restricted

    def test_contraction_slices_covectors(self):
        m = from_vectors(FRAME4)
        c = contract(m, [4])
        sliced = {v[:3] for v in covectors(m) if v[3] == 0}
        assert covectors(c) == sliced

    def test_contraction_slices_with_dropped_elements(self):
        # element 2 is parallel to 1: contracting 1 drops it, and the
        # sliced covectors are zero there anyway
        rows = [(1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1)]
        m = from_vectors(rows)
        c = contract(m, [1])
        assert c.labels == (3, 4)
        sliced = set()
        for v in covectors(m):
            if v[0] == 0:
                assert v[1] == 0
                sliced.add((v[2], v[3]))
        assert covectors(c) == sliced


class TestRepresentations:
    def test_rank1_roundtrip(self):
        x = HLRank1({1, -2, 3})
        arr = represent_rank1(x)
        assert arr == ArrangementR1((1, -1, 1))
        assert read_rank1(arr) == x

    def test_rank1_needs_contiguous_ground(self):
        with pytest.raises(ArrangementError):
            represent_rank1(HLRank1({1, 3}))

    def test_rank1_validation(self):
        with pytest.raises(ValueError):
            ArrangementR1((1, 0))
        with pytest.raises(ValueError):
            ArrangementR1(())

    def test_rank2_roundtrip(self):
        x = HLRank2([{1}, {2, 3}, {-1}, {-2, -3}])
        arr = represent_rank2(x)
        assert arr.period == 4
        assert read_rank2(arr) == x

    def test_rank2_positions_antipodal(self):
        with pytest.raises(ValueError):
            ArrangementR2(4, {1: 0, -1: 1})
        with pytest.raises(ValueError):
            ArrangementR2(3, {1: 0, -1: 1})

    def test_rank2_empty_slot(self):
        with pytest.raises(ArrangementError):
            read_rank2(ArrangementR2(4, {1: 0, -1: 2}))
        # a signed element in two atoms has no single slot
        with pytest.raises(ArrangementError):
            represent_rank2(HLRank2([{1}, {1, 2}, {-1}, {-1, -2}]))

    def test_rank2_odd_period(self):
        with pytest.raises(ArrangementError, match="period must be even"):
            represent_rank2(HLRank2([{1}, {2}, {-1}]))

    def test_rank2_missing_negation(self):
        with pytest.raises(ArrangementError, match="not antipodal"):
            represent_rank2(HLRank2([{1}, {2}]))

    def test_exhaustive_small_roundtrips(self):
        # every sequence on {1, 2} up to period 4
        import itertools
        seqs = []
        for p1 in range(4):
            for p2 in range(4):
                pos = {1: p1, -1: (p1 + 2) % 4, 2: p2, -2: (p2 + 2) % 4}
                atoms = [set() for _ in range(4)]
                for s, a in pos.items():
                    atoms[a].add(s)
                if any(not a for a in atoms):
                    continue
                seqs.append(HLRank2(atoms))
        assert seqs
        for x in seqs:
            assert read_rank2(represent_rank2(x)) == x


class TestCanonical:
    def test_classify(self):
        for d in (0, 1, 2, 3):
            plus = canonical_arrangement(d, 1)
            minus = canonical_arrangement(d, -1)
            assert classify_full(plus) is OrientationClass.PLUS
            assert classify_full(minus) is OrientationClass.MINUS
            assert plus.rank == d + 1 and plus.n == d + 1

    def test_census(self):
        c = face_census(canonical_arrangement(2, 1))
        assert (c.vertices, c.edges, c.facets) == (6, 12, 8)
        assert face_census(canonical_arrangement(2, -1)) == c

    def test_errors(self):
        with pytest.raises(ValueError):
            canonical_arrangement(-1, 1)
        with pytest.raises(ValueError):
            canonical_arrangement(2, 0)
