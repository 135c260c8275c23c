"""Acceptance suite: one test per criterion, named test_criterion_N, so a
verbose run prints one pass/fail line for each.  All comparisons are exact
integer equality; the only tolerances anywhere are the pinned wall-clock
bounds asserted below.
"""

import itertools
import random
import subprocess
import sys
import time

import pytest

from helpers import random_fullrank_rows
from omkit import (
    ConstructionError,
    ContractionError,
    DeletionError,
    HLRank1,
    HLRank2,
    SignMap,
    VectorConfig,
    canonical_arrangement,
    check_chirotope,
    check_hyperline,
    contract,
    delete,
    face_census,
    find_deletable,
    fm_realizable_topes,
    from_chirotope,
    from_vectors,
    read_rank1,
    read_rank2,
    represent_rank1,
    represent_rank2,
    serialize_chi,
    to_chirotope,
    topes,
)


def om(*args):
    return subprocess.run(
        [sys.executable, "-m", "omkit", *args],
        capture_output=True,
        text=True,
    )


def test_criterion_1_encodings_agree_exhaustively():
    # Every sign assignment on the r-subsets of n elements, for (n, r) =
    # (4, 2), (4, 3) and (5, 4): the axiom check accepts exactly the maps
    # whose hyperline sequence builds, validates, and reproduces the same
    # oriented bases.  Bound: 10 seconds for all three.
    start = time.monotonic()
    for n, r, expected in ((4, 2, 200), (4, 3, 72), (5, 4, 232)):
        supports = list(itertools.combinations(range(1, n + 1), r))
        valid = 0
        for signs in itertools.product((-1, 0, 1), repeat=len(supports)):
            m = SignMap(r, n, dict(zip(supports, signs)))
            direct = check_chirotope(m).ok
            try:
                x = from_chirotope(m)
            except ConstructionError:
                dual = False
            else:
                dual = (
                    check_hyperline(x).ok
                    and x.bases == {(s, v) for s, v in m.items() if v}
                )
            assert direct == dual, (
                f"encodings disagree on {dict(zip(supports, signs))}"
            )
            valid += direct
        # the count both routes agree on
        assert valid == expected, (n, r, valid)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"exhaustive agreement took {elapsed:.1f}s"


def test_criterion_2_roundtrip_corpus(corpus):
    # Chirotope -> hyperline sequence -> chirotope is the identity on a
    # seeded realizable corpus of 200+ configurations.  Bound: 60 seconds.
    start = time.monotonic()
    assert len(corpus) >= 200
    for n, r, rows in corpus:
        m = from_vectors(rows)
        x = from_chirotope(m)
        assert to_chirotope(x) == m, f"roundtrip changed the map for {rows}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"roundtrips took {elapsed:.1f}s"


def test_criterion_3_realizations_validate():
    # 500 random full-rank rational configurations produce sign maps that
    # pass every axiom with nothing to report.
    rng = random.Random(99)
    cells = [(3, 1), (4, 2), (5, 2), (4, 3), (5, 3), (6, 3), (7, 3),
             (5, 4), (6, 4), (7, 4)]
    for i in range(500):
        n, r = cells[i % len(cells)]
        m = from_vectors(random_fullrank_rows(rng, n, r))
        report = check_chirotope(m)
        assert not report.violations


def test_criterion_4_two_orientation_classes():
    # With n = r the enumeration finds exactly the two orientation
    # classes, through the command line path.
    for r in (1, 2, 3, 4):
        res = om("enumerate", str(r), str(r))
        assert res.returncode == 0
        assert res.stdout == "valid=2 total=3\n"


def test_criterion_5_census_and_euler():
    # Sphere censuses: both canonical arrangements, uniform counts at
    # n = 4, 5, 6, and 50 engineered dependent configurations, each
    # cross-checked against linear feasibility.  Bound: 60 seconds.
    start = time.monotonic()
    for sign in (1, -1):
        c = face_census(canonical_arrangement(2, sign))
        assert (c.vertices, c.edges, c.facets, c.euler) == (6, 12, 8, 2)
    for n in (4, 5, 6):
        rows = [(1, t, t * t) for t in range(1, n + 1)]
        c = face_census(from_vectors(rows))
        assert c.vertices == n * (n - 1)
        assert c.edges == 2 * n * (n - 1)
        assert c.facets == n * (n - 1) + 2
        assert c.euler == 2
    rng = random.Random(4242)
    built = 0
    while built < 50:
        base = random_fullrank_rows(rng, rng.randint(4, 6), 3)
        i, j = rng.sample(range(len(base)), 2)
        extra = tuple(a + b for a, b in zip(base[i], base[j]))
        if not any(extra):
            continue
        rows = base + [extra]
        v = VectorConfig(rows)
        m = from_vectors(v)
        c = face_census(m)
        assert c.euler == 2, f"Euler fails on {rows}"
        ts = topes(m)
        assert len(ts) == c.facets
        assert fm_realizable_topes(v) == ts, f"feasibility disagrees on {rows}"
        built += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"census checks took {elapsed:.1f}s"


def test_criterion_6_topes_match_feasibility():
    # Tope sets from the covector closure equal tope sets from exact
    # linear feasibility: 100 rank 3 and 20 rank 2 configurations.
    rng = random.Random(31337)
    for _ in range(100):
        n = rng.randint(4, 6)
        v = VectorConfig(random_fullrank_rows(rng, n, 3))
        assert topes(from_vectors(v)) == fm_realizable_topes(v)
    for _ in range(20):
        n = rng.randint(3, 6)
        v = VectorConfig(random_fullrank_rows(rng, n, 2))
        assert topes(from_vectors(v)) == fm_realizable_topes(v)


def test_criterion_7_minors_cohere(corpus):
    # On the roundtrip corpus: the scan for a deletable element succeeds
    # whenever n > r and its deletion validates, and every admissible single-element
    # contraction is again a valid chirotope.  Precondition failures raise
    # the documented errors.
    contractions = 0
    for n, r, rows in corpus:
        m = from_vectors(rows)
        if n > r:
            e, sub = find_deletable(m)
            assert check_chirotope(sub).ok
            assert sub == delete(m, {e})
        if r == 1:
            with pytest.raises(ContractionError):
                contract(m, [1])
            continue
        for e in range(1, n + 1):
            try:
                c = contract(m, [e])
            except ContractionError:
                continue
            assert check_chirotope(c).ok, f"contraction by {e} fails on {rows}"
            contractions += 1
    assert contractions >= 200
    for d in (1, 2, 3):
        with pytest.raises(DeletionError):
            find_deletable(canonical_arrangement(d, 1))


def test_criterion_8_representation_roundtrips():
    # Rank 1: every signed choice on up to 4 elements.  Rank 2: every
    # covering placement of up to 5 elements on up to 10 antipodal slots,
    # degenerate single-pair periods included: they round-trip, but a
    # rank 2 sequence needs two non-parallel elements, so the check
    # rejects them with one structure violation.
    count1 = 0
    for n in (1, 2, 3, 4):
        for signs in itertools.product((1, -1), repeat=n):
            x = HLRank1({s * e for e, s in zip(range(1, n + 1), signs)})
            assert read_rank1(represent_rank1(x)) == x
            count1 += 1
    assert count1 == 30

    count2 = 0
    for n in (1, 2, 3, 4, 5):
        for k in range(1, n + 1):
            period = 2 * k
            for slots in itertools.product(range(period), repeat=n):
                covered = set()
                for p in slots:
                    covered.add(p)
                    covered.add((p + k) % period)
                if len(covered) != period:
                    continue
                atoms = [set() for _ in range(period)]
                for e, p in enumerate(slots, start=1):
                    atoms[p].add(e)
                    atoms[(p + k) % period].add(-e)
                x = HLRank2(atoms)
                assert read_rank2(represent_rank2(x)) == x
                report = check_hyperline(x)
                assert report.ok == (k > 1)
                if k == 1:
                    assert [(v.axiom, v.message) for v in report.violations] == [
                        ("structure", "degenerate period (k=1): "
                                      "all elements mutually parallel")]
                count2 += 1
    # surjective class assignments times sign choices, summed over n and k
    assert count2 == 18630


def test_criterion_9_byte_determinism(tmp_path):
    # Repeated conversions and enumerations, serial or parallel, emit
    # byte-identical output.
    rows = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    src = tmp_path / "a.chi"
    src.write_text(serialize_chi(from_vectors(rows)))
    first = om("convert", str(src), "--to", "hls")
    second = om("convert", str(src), "--to", "hls")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout

    serial = om("enumerate", "4", "2", "--bodies")
    again = om("enumerate", "4", "2", "--bodies")
    parallel = om("enumerate", "4", "2", "--bodies", "--jobs", "2")
    assert serial.returncode == again.returncode == parallel.returncode == 0
    assert serial.stdout == again.stdout == parallel.stdout
