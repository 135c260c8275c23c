import random
from math import comb

import pytest

from helpers import (
    _compose,
    census_by_height,
    dual_signmap,
    f_vector,
    flat_f_vector,
    literal_census,
    literal_closure,
    literal_covectors,
    non_pappus,
    orthogonal,
    pappus_rows,
    random_fullrank_rows,
    relabel_signmap,
    reorient_signmap,
    rows_with_extra,
    signmap_cocircuits,
    uniform_rows,
    zaslavsky_tope_count,
)
from omkit import (
    ArrangementError,
    ArrangementR1,
    ArrangementR2,
    HLRank1,
    HLRank2,
    SignMap,
    SizeGuardError,
    VectorConfig,
    canonical_arrangement,
    check_chirotope,
    check_hyperline,
    cocircuits,
    contract,
    covectors,
    delete,
    enumerate_bodies,
    face_census,
    fm_realizable_topes,
    from_chirotope,
    from_vectors,
    read_rank1,
    read_rank2,
    represent_rank1,
    represent_rank2,
    serialize_chi,
    serialize_hls,
    to_chirotope,
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
        # the size guard is the CLI's (test_cli.TestSizeGuard): the cells
        # of 10 lines in the plane are 20 topes, 20 rays and the origin
        cvs = covectors(from_vectors([(1, k) for k in range(10)]))
        assert sorted(sum(map(abs, v)) for v in cvs) == [0] + [9] * 20 + [10] * 20


class TestTopes:
    def test_frame4(self):
        ts = topes(from_vectors(FRAME4))
        assert len(ts) == 14
        assert all(all(v) for v in ts)
        assert (1, 1, 1, 1) in ts

    def test_size_guard_before_work(self, tmp_path, monkeypatch, capsys):
        # om faces refuses 10 elements before it reads a cocircuit; with
        # the guard lifted the same command reaches them
        import omkit.faces
        from omkit import cli

        def refuse(m):
            raise AssertionError("cocircuits read before the size guard")

        monkeypatch.setattr(omkit.faces, "_cocircuit_masks", refuse)
        big = tmp_path / "big.chi"
        big.write_text(serialize_chi(from_vectors(moment_curve(10))))
        monkeypatch.delenv("OM_SIZE_OVERRIDE", raising=False)
        assert cli.main(["faces", str(big)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "guarded" in err
        monkeypatch.setenv("OM_SIZE_OVERRIDE", "1")
        with pytest.raises(AssertionError, match="before the size guard"):
            cli.main(["faces", str(big)])

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
            else:
                yield kind, rows_with_extra(rng, n, r, kind)


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


class TestSignMapOracles:
    # every chirotope at these sizes, against the closure of the cocircuits
    # that SignMap.evaluate gives, so the stored-value reads are checked
    @pytest.mark.parametrize("n, r, count", [(4, 2, 200), (4, 3, 72), (5, 4, 232)])
    def test_every_small_chirotope(self, n, r, count):
        _, _, bodies = enumerate_bodies(n, r, want_bodies=True)
        assert len(bodies) == count
        for body in bodies:
            m = SignMap(r, n, ["-0+".index(c) - 1 for c in body])
            expected = literal_closure(signmap_cocircuits(m), n)
            assert cocircuits(m) == signmap_cocircuits(m), body
            assert covectors(m) == expected, body
            assert topes(m) == {v for v in expected if all(v)}, body
            if r == 3:
                assert tuple(face_census(m)) == census_by_height(expected), body


class TestEquivariance:
    # relabeling and reorientation act on the sign vectors the same way
    # they act on the map; face_census exists at rank 3 only
    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_relabel_and_reorient(self, r):
        rng = random.Random(9000 + r)
        m = from_vectors(rows_with_extra(rng, 9, r, "dependent"))
        cells, tope_set = covectors(m), topes(m)
        census = face_census(m) if r == 3 else None
        perm = dict(zip(range(1, 10), rng.sample(range(1, 10), 9)))
        inv = {f: e for e, f in perm.items()}
        images = [(relabel_signmap(m, perm),
                   lambda v: tuple(v[inv[f] - 1] for f in range(1, 10)))]
        for e in rng.sample(range(1, 10), 3):
            images.append((reorient_signmap(m, e),
                           lambda v, e=e: v[:e - 1] + (-v[e - 1],) + v[e:]))
        for image, act in images:
            assert covectors(image) == {act(v) for v in cells}
            assert topes(image) == {act(v) for v in tope_set}
            if r == 3:
                assert face_census(image) == census


class TestZaslavsky:
    # the tope count depends on the underlying matroid alone; this oracle
    # reaches rank 5, past the Fourier-Motzkin guard
    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_tope_count(self, r):
        rng = random.Random(7000 + r)
        for kind in ("uniform", "dependent", "parallel"):
            for n in (r + 2, 9):
                if kind == "uniform":
                    rows = uniform_rows(rng, n, r)
                else:
                    rows = rows_with_extra(rng, n, r, kind)
                assert len(topes(from_vectors(rows))) == zaslavsky_tope_count(rows), rows


def _rows(rng, n, r, kind):
    return uniform_rows(rng, n, r) if kind == "uniform" else rows_with_extra(rng, n, r, kind)


def _euler(f):
    return sum((-1) ** i * x for i, x in enumerate(f))


class TestEuler:
    # the cells form a regular cell decomposition of the (r-1)-sphere, so
    # the alternating sum of the f-vector is its Euler characteristic,
    # 1 + (-1)^(r-1), in every rank; helpers.f_vector reads dimensions off
    # the bases, not off faces
    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_every_rank(self, r):
        rng = random.Random(8000 + r)
        for kind in ("uniform", "dependent", "parallel"):
            for n in (r + 1, r + 3, 9):
                m = from_vectors(_rows(rng, n, r, kind))
                assert _euler(f_vector(m, covectors(m))) == 1 + (-1) ** (r - 1), (kind, n)

    def test_uniform_9_5(self):
        m = from_vectors(uniform_rows(random.Random(1), 9, 5))
        assert f_vector(m, covectors(m)) == (252, 1008, 1584, 1152, 326)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_non_pappus_and_its_dual(self, sign):
        m = non_pappus(sign)
        assert f_vector(m, covectors(m)) == (40, 96, 58)
        d = dual_signmap(m)
        assert f_vector(d, covectors(d)) == (172, 1020, 2368, 2784, 1686, 422)

    def test_a_missing_cell_is_caught(self):
        # sensitivity: any one cell dropped moves the sum off 0, the rank 4 value
        m = from_vectors(uniform_rows(random.Random(2), 7, 4))
        cells = sorted(covectors(m))
        for u in cells[1::37]:
            assert _euler(f_vector(m, set(cells) - {u})) != 0, u


class TestFlatCount:
    # a second count of the same cells that reads no covector: f_k sums,
    # over the flats F of rank r-1-k, the Zaslavsky tope count of the
    # quotient by F
    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_agrees_with_the_covectors(self, r):
        rng = random.Random(9000 + r)
        for kind in ("uniform", "dependent"):
            for n in (r + 1, 8):
                rows = _rows(rng, n, r, kind)
                m = from_vectors(rows)
                assert f_vector(m, covectors(m)) == flat_f_vector(rows), (kind, rows)

    def test_a_missing_cell_is_caught(self):
        rows = _rows(random.Random(9100), 6, 3, "dependent")
        m = from_vectors(rows)
        cells = covectors(m)
        expected = flat_f_vector(rows)
        for u in sorted(u for u in cells if any(u))[::11]:
            assert f_vector(m, cells - {u}) != expected, u


class TestOrthogonality:
    # every covector of m is orthogonal to every covector of its dual
    # (Bjorner et al., ch. 3): a check of the cell layer at ranks 4 and 5,
    # where Fourier-Motzkin cannot reach
    SIZES = [(5, 2), (6, 3), (6, 4), (7, 3), (7, 4)]

    @staticmethod
    def maps():
        rng = random.Random(31)
        return [from_vectors(_rows(rng, n, r, kind))
                for n, r in TestOrthogonality.SIZES for kind in ("uniform", "dependent")]

    def test_covectors_of_the_dual(self):
        for m in self.maps():
            dual = covectors(dual_signmap(m))
            assert all(orthogonal(u, v) for u in covectors(m) for v in dual), m

    def test_a_dual_without_its_sign_is_caught(self):
        # sensitivity: chi*(E - S) = chi(S), the permutation sign dropped
        for m in self.maps():
            wrong = SignMap(m.n - m.rank, m.n, {
                tuple(e for e in range(1, m.n + 1) if e not in s): v for s, v in m.items()})
            dual = covectors(wrong)
            assert not all(orthogonal(u, v) for u in covectors(m) for v in dual), m


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
        with pytest.raises(SizeGuardError, match=r"^feasibility scan over 512 sign patterns "
                           r"is guarded at n <= 8, rank <= 4 \(got n=9, rank=3\)$"):
            fm_realizable_topes(VectorConfig(random_fullrank_rows(rng, 9, 3)))
        with pytest.raises(SizeGuardError, match=r"\(got n=6, rank=5\)$"):
            fm_realizable_topes(VectorConfig(random_fullrank_rows(rng, 6, 5)))


class TestMinorCompatibility:
    def test_deletion_restricts_covectors(self):
        m = from_vectors(FRAME4)
        full = covectors(m)
        for e in range(1, 5):
            sub = delete(m, {e})
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
        with pytest.raises(ValueError, match="^slot 4 out of range$"):
            ArrangementR2(4, {1: 4, -1: 2})

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
            # the orientation class of an n = r map is its one basis's sign
            assert plus.evaluate(range(1, d + 2)) == 1
            assert minus.evaluate(range(1, d + 2)) == -1
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


class TestNonPappus:
    # a known answer from outside omkit (Bjorner et al., ch. 8): the
    # Pappus configuration with its Pappus line X Y Z broken either way is
    # a chirotope no vectors realize, so no realization in the suite
    # produces it
    def test_pappus_realization(self):
        m = from_vectors(pappus_rows())
        assert [s for s, v in m.items() if not v] == [
            (1, 2, 3), (1, 5, 7), (1, 6, 8), (2, 4, 7), (2, 6, 9),
            (3, 4, 8), (3, 5, 9), (4, 5, 6), (7, 8, 9)]
        for sign in (1, -1):
            broken = dict(m.items())
            broken[(7, 8, 9)] = sign
            assert non_pappus(sign) == SignMap(3, 9, broken)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_known_answers(self, sign):
        m = non_pappus(sign)
        x = from_chirotope(m)
        assert check_chirotope(m).ok and check_hyperline(x).ok
        assert to_chirotope(x) == m
        assert tuple(face_census(m)) == (40, 96, 58)
        assert len(topes(m)) == 58
        assert len(covectors(m)) == 195

    @pytest.mark.parametrize("sign", [1, -1])
    def test_rank6_dual(self, sign):
        # duality preserves realizability, so the dual is a non-realizable
        # rank 6 chirotope on 9 elements, past the CLI's default limits
        m = dual_signmap(non_pappus(sign))
        x = from_chirotope(m)
        assert check_chirotope(m).ok and check_hyperline(x).ok
        assert to_chirotope(x) == m
        assert len(covectors(m)) == 8453

    @pytest.mark.parametrize("sign", [1, -1])
    def test_rank6_dual_at_the_guard(self, sign, tmp_path, monkeypatch, capsys):
        from omkit import cli

        path = tmp_path / "np-dual.chi"
        path.write_text(serialize_chi(dual_signmap(non_pappus(sign))))
        monkeypatch.delenv("OM_SIZE_OVERRIDE", raising=False)
        assert cli.main(["check", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: axiom check guarded at n <= 9, rank <= 5 (got n=9, rank=6); "
            "lift explicitly to proceed\n")
        monkeypatch.setenv("OM_SIZE_OVERRIDE", "1")
        assert cli.main(["check", str(path)]) == 0
        assert capsys.readouterr().out == "ok\n"

    @pytest.mark.parametrize("sign", [1, -1])
    def test_cli_accepts_it(self, sign, tmp_path, capsys):
        from omkit import cli

        m = non_pappus(sign)
        hls = serialize_hls(from_chirotope(m))
        for kind, text in (("chi", serialize_chi(m)), ("hls", hls)):
            path = tmp_path / f"np.{kind}"
            path.write_text(text)
            assert cli.main(["check", str(path)]) == 0
            assert capsys.readouterr().out == "ok\n"
            assert cli.main(["convert", str(path), "--to", "hls"]) == 0
            assert capsys.readouterr().out == hls
            assert cli.main(["faces", str(path)]) == 0
            assert capsys.readouterr().out == "V=40 E=96 F=58 euler=2\n"
