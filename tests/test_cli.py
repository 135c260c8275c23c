import multiprocessing
import os
import subprocess
import sys

import pytest

from omkit import (
    enumerate_bodies,
    from_chirotope,
    from_vectors,
    serialize_chi,
    serialize_hls,
)

FRAME4_CHI = serialize_chi(
    from_vectors([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
)
TRIANGLE_CHI = serialize_chi(from_vectors([(1, 0), (0, 1), (-1, 1)]))
BAD_CHI = "2 4\n++++-+\n"  # fails the three-term condition


def run_om(*args, stdin=None, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "omkit.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.fixture()
def frame4(tmp_path):
    p = tmp_path / "frame4.chi"
    p.write_text(FRAME4_CHI)
    return str(p)


class TestCheck:
    def test_valid(self, frame4):
        res = run_om("check", frame4)
        assert res.returncode == 0
        assert res.stdout.strip() == "ok"

    def test_invalid(self, tmp_path):
        p = tmp_path / "bad.chi"
        p.write_text(BAD_CHI)
        res = run_om("check", str(p))
        assert res.returncode == 1
        assert "violated" in res.stdout

    def test_stdin(self):
        res = run_om("check", "-", stdin=FRAME4_CHI)
        assert res.returncode == 0

    def test_hls_sniffed(self, frame4):
        text = run_om("convert", frame4, "--to", "hls").stdout
        res = run_om("check", "-", stdin=text)
        assert res.returncode == 0
        assert res.stdout.strip() == "ok"

    def test_parse_error(self):
        res = run_om("check", "-", stdin="not a file\n")
        assert res.returncode == 2
        assert "error:" in res.stderr

    def test_missing_file(self):
        res = run_om("check", "/nonexistent/path.chi")
        assert res.returncode == 2

    def test_degenerate_period_warning(self):
        res = run_om("check", "-", "--format", "hls",
                     stdin='{"rank":2,"atoms":[["1","2"],["~1","~2"]]}\n')
        assert res.returncode == 0
        assert "degenerate period" in res.stdout

    def test_vec_input(self):
        res = run_om("check", "-", "--format", "vec", stdin="1,0\n0,1\n")
        assert res.returncode == 0

    def test_size_guard_and_override(self):
        big = serialize_chi(from_vectors([(1, k) for k in range(10)]))
        res = run_om("check", "-", stdin=big)
        assert res.returncode == 1
        assert "guard" in res.stderr
        res = run_om("check", "-", stdin=big, env_extra={"OM_SIZE_OVERRIDE": "1"})
        assert res.returncode == 0

    def test_hls_size_guard(self, tmp_path):
        p = tmp_path / "big.hls"
        p.write_text(serialize_hls(from_chirotope(
            from_vectors([(1, k) for k in range(10)]))))
        res = run_om("check", str(p))
        assert res.returncode == 1
        assert "guarded" in res.stderr
        res = run_om("check", str(p), env_extra={"OM_SIZE_OVERRIDE": "1"})
        assert res.returncode == 0

    def test_deep_nesting(self, tmp_path):
        # rank 801 through 400 nested hyperlines, written as text in a loop
        depth = 400
        z = '{"rank":2,"atoms":[["999"],["~999"]]}'
        head = "".join(
            f'{{"rank":{801 - 2 * i},"hyperlines":[{{"Z":{z},"Y":'
            for i in range(depth)
        )
        p = tmp_path / "deep.hls"
        p.write_text(head + '{"rank":1,"elements":["1"]}' + "}]}" * depth)
        res = run_om("check", str(p))
        assert res.returncode == 2
        assert res.stderr.startswith("error: sequence is nested too deeply")
        assert "Traceback" not in res.stderr

    def test_huge_header(self, tmp_path):
        p = tmp_path / "huge.chi"
        p.write_text("2 100000\n+\n")
        res = run_om("check", str(p))
        assert res.returncode == 2
        assert res.stderr.startswith("error:")
        assert "expected 4999950000" in res.stderr


class TestConvert:
    def test_chi_hls_chi_identity(self, frame4):
        hls = run_om("convert", frame4, "--to", "hls")
        assert hls.returncode == 0
        back = run_om("convert", "-", "--to", "chi", stdin=hls.stdout)
        assert back.returncode == 0
        assert back.stdout == FRAME4_CHI

    def test_deterministic(self, frame4):
        a = run_om("convert", frame4, "--to", "hls").stdout
        b = run_om("convert", frame4, "--to", "hls").stdout
        assert a == b

    def test_output_file(self, frame4, tmp_path):
        out = tmp_path / "out.hls"
        res = run_om("convert", frame4, "--to", "hls", "-o", str(out))
        assert res.returncode == 0
        assert out.read_text() == run_om("convert", frame4, "--to", "hls").stdout

    def test_invalid_refused(self, tmp_path):
        p = tmp_path / "bad.chi"
        p.write_text(BAD_CHI)
        res = run_om("convert", str(p), "--to", "hls")
        assert res.returncode == 1
        assert "violated" in res.stderr

    def test_vec_to_chi(self):
        res = run_om("convert", "-", "--to", "chi", stdin="1,0\n0,1\n-1,1\n")
        assert res.returncode == 0
        assert res.stdout == TRIANGLE_CHI

    def test_missing_to(self, frame4):
        res = run_om("convert", frame4)
        assert res.returncode == 2


class TestMinor:
    def test_delete(self, frame4):
        res = run_om("minor", frame4, "--delete", "4")
        assert res.returncode == 0
        assert res.stdout == "3 3\n+\n"

    def test_delete_auto(self, frame4):
        res = run_om("minor", frame4, "--delete", "auto")
        assert res.returncode == 0
        assert "deleting element 1" in res.stderr
        assert "ids: 1=2 2=3 3=4" in res.stderr

    def test_contract(self, frame4):
        res = run_om("minor", frame4, "--contract", "4")
        assert res.returncode == 0
        assert res.stdout == "2 3\n+-+\n"

    def test_delete_then_contract(self, frame4):
        res = run_om("minor", frame4, "--delete", "1", "--contract", "4")
        assert res.returncode == 0
        assert res.stdout.startswith("2 2\n")

    def test_invalid_deletion(self, tmp_path):
        rows = [(1, 0), (0, 1), (0, 2), (0, 3)]
        p = tmp_path / "cfg.chi"
        p.write_text(serialize_chi(from_vectors(rows)))
        res = run_om("minor", str(p), "--delete", "1")
        assert res.returncode == 1
        assert "violated" in res.stderr

    def test_no_flags(self, frame4):
        res = run_om("minor", frame4)
        assert res.returncode == 2

    def test_unknown_id(self, frame4):
        res = run_om("minor", frame4, "--delete", "9")
        assert res.returncode == 2

    def test_hls_in_hls_out(self, frame4):
        hls = run_om("convert", frame4, "--to", "hls").stdout
        res = run_om("minor", "-", "--delete", "4", stdin=hls)
        assert res.returncode == 0
        expected = serialize_hls(
            from_chirotope(from_vectors([(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
        )
        assert res.stdout == expected


class TestFaces:
    def test_census_line(self, frame4):
        res = run_om("faces", frame4)
        assert res.returncode == 0
        assert res.stdout == "V=12 E=24 F=14 euler=2\n"

    def test_rank2_topes(self):
        res = run_om("faces", "-", stdin=TRIANGLE_CHI)
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert lines[-1] == "topes=6"
        assert len(lines) == 7
        assert "rank 3 only" in res.stderr

    def test_invalid_refused(self, tmp_path):
        p = tmp_path / "bad.chi"
        p.write_text(BAD_CHI)
        res = run_om("faces", str(p))
        assert res.returncode == 1


class TestEnumerate:
    def test_single_support(self):
        res = run_om("enumerate", "2", "2", "--bodies")
        assert res.returncode == 0
        assert res.stdout == "-\n+\nvalid=2 total=3\n"

    def test_pair(self):
        res = run_om("enumerate", "3", "2")
        assert res.returncode == 0
        assert res.stdout == "valid=20 total=27\n"

    def test_uniform(self):
        res = run_om("enumerate", "3", "2", "--uniform")
        assert res.stdout == "valid=8 total=8\n"

    def test_jobs_deterministic(self):
        serial = run_om("enumerate", "4", "2", "--bodies")
        parallel = run_om("enumerate", "4", "2", "--bodies", "--jobs", "3")
        assert serial.returncode == parallel.returncode == 0
        assert serial.stdout == parallel.stdout

    def test_jobs_capped_at_cpu_count(self, monkeypatch):
        # a fake pool records the size asked for and maps serially, so no
        # worker process is started
        asked = []

        class FakePool:
            def __init__(self, processes):
                asked.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return [fn(t) for t in tasks]

        monkeypatch.setattr(multiprocessing, "Pool", FakePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        serial = enumerate_bodies(3, 2, want_bodies=True)
        assert enumerate_bodies(3, 2, jobs=100000, want_bodies=True) == serial
        assert asked == [3]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert enumerate_bodies(3, 2, jobs=100000, want_bodies=True) == serial
        assert asked == [3]

    def test_import_leaves_cli_unloaded(self):
        code = "import sys, omkit; print('omkit.cli' in sys.modules)"
        res = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True)
        assert res.stdout == "False\n"

    def test_bad_sizes(self):
        assert run_om("enumerate", "2", "3").returncode == 2
        assert run_om("enumerate", "0", "0").returncode == 2

    def test_guard(self):
        res = run_om("enumerate", "7", "3")
        assert res.returncode == 1
        assert "guard" in res.stderr


class TestRender:
    def test_svg(self, tmp_path):
        out = tmp_path / "d.svg"
        res = run_om("render", "-", "-o", str(out), stdin=TRIANGLE_CHI)
        assert res.returncode == 0
        svg = out.read_text()
        assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")

    def test_rank3_refused(self, frame4):
        res = run_om("render", frame4)
        assert res.returncode == 2

    def test_hls_input(self):
        hls = '{"rank":2,"atoms":[["1"],["2"],["~1"],["~2"]]}\n'
        res = run_om("render", "-", stdin=hls)
        assert res.returncode == 0
        assert 'text-decoration="overline"' in res.stdout


class TestUsage:
    def test_no_command(self):
        assert run_om().returncode == 2

    def test_unknown_command(self):
        assert run_om("frobnicate").returncode == 2
