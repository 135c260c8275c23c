import errno
import importlib
import os
import subprocess
import sys
from math import comb

import pytest

import omkit
from omkit import (
    SignMap,
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


def run_om(*args, stdin=None, env_extra=None, timeout=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "omkit", *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
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

    def test_degenerate_period_rejected(self):
        res = run_om("check", "-", "--format", "hls",
                     stdin='{"rank":2,"atoms":[["1","2"],["~1","~2"]]}\n')
        assert res.returncode == 1
        assert "structure violated: degenerate period" in res.stdout

    @pytest.mark.parametrize("argv", [["convert", "--to", "chi"], ["faces"], ["render"]],
                             ids=["convert", "faces", "render"])
    def test_degenerate_period_refused(self, argv, tmp_path, capsys):
        # every command that validates its input stops at the finding
        from omkit import cli

        path = tmp_path / "x.hls"
        path.write_text('{"rank":2,"atoms":[["1","2"],["~1","~2"]]}\n')
        assert cli.main([argv[0], str(path), *argv[1:]]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == (
            "structure violated: degenerate period (k=1): all elements mutually parallel\n")

    def test_vec_input(self):
        res = run_om("check", "-", "--format", "vec", stdin="1,0\n0,1\n")
        assert res.returncode == 0

    def test_one_column_vec_sniffed(self, tmp_path, capsys):
        # a .chi header has two fields, so a first line of one is a .vec
        # row; a one-field header is then refused by the .vec parser
        from omkit import cli

        line = tmp_path / "line.vec"
        line.write_text("1\n2\n-3\n")
        assert cli.main(["check", str(line)]) == 0
        assert capsys.readouterr().out == "ok\n"
        bad = tmp_path / "bad.chi"
        bad.write_text("3\n++0-\n")
        assert cli.main(["check", str(bad)]) == 2
        assert capsys.readouterr().err == "error: bad entry '++0-' (line 2, column 1)\n"

    def test_rank_deficient_vec(self):
        res = run_om("check", "-", "--format", "vec", stdin="1,0\n2,0\n-1,0\n")
        assert res.returncode == 1
        assert res.stderr == "error: rows do not span rank 2\n"

    def test_size_guard_and_override(self):
        big = serialize_chi(from_vectors([(1, k) for k in range(10)]))
        res = run_om("check", "-", stdin=big)
        assert res.returncode == 1
        assert "guard" in res.stderr
        res = run_om("check", "-", stdin=big, env_extra={"OM_SIZE_OVERRIDE": "1"})
        assert res.returncode == 0

    def test_vec_guarded_before_realization(self, tmp_path, monkeypatch, capsys):
        from omkit import cli

        p = tmp_path / "big.vec"
        p.write_text("".join(f"1,{k},{k * k}\n" for k in range(12)))
        realize = cli.from_vectors

        def refuse(cfg):
            raise AssertionError("realized before the size guard")

        monkeypatch.setattr(cli, "from_vectors", refuse)
        monkeypatch.delenv("OM_SIZE_OVERRIDE", raising=False)
        assert cli.main(["check", str(p)]) == 1
        assert "guarded" in capsys.readouterr().err
        monkeypatch.setattr(cli, "from_vectors", realize)
        monkeypatch.setenv("OM_SIZE_OVERRIDE", "1")
        assert cli.main(["check", str(p)]) == 0
        assert capsys.readouterr().out == "ok\n"

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


class TestSizeGuard:
    # one guard, n <= 9 and rank <= 5, on every loaded input whatever the
    # command and the input's kind; OM_SIZE_OVERRIDE=1 lifts it
    ARGS = {"check": [], "convert": ["--to", "hls"], "minor": ["--contract", "1"],
            "faces": [], "render": []}

    @staticmethod
    def texts(rows):
        m = from_vectors(rows)
        return {"chi": serialize_chi(m), "hls": serialize_hls(from_chirotope(m)),
                "vec": "".join(",".join(map(str, row)) + "\n" for row in rows)}

    @pytest.mark.parametrize("kind", ["chi", "vec", "hls"])
    @pytest.mark.parametrize("command", list(ARGS))
    def test_every_command_and_kind(self, command, kind, tmp_path, monkeypatch, capsys):
        from omkit import cli

        path = tmp_path / f"big.{kind}"
        path.write_text(self.texts([(1, k, k * k) for k in range(10)])[kind])
        argv = [command, str(path), *self.ARGS[command]]
        monkeypatch.delenv("OM_SIZE_OVERRIDE", raising=False)
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == ("error: axiom check guarded at n <= 9, rank <= 5 "
                                     "(got n=10, rank=3); lift explicitly to proceed\n")
        monkeypatch.setenv("OM_SIZE_OVERRIDE", "1")
        code = cli.main(argv)
        out, err = capsys.readouterr()
        if command == "render":
            assert (code, out, err) == (2, "", "error: render needs rank 2, got rank 3\n")
        else:
            assert code == 0 and out

    def test_sign_bound_exits_1(self, tmp_path, monkeypatch, capsys):
        # past the guard, a SignMap of more than 10^6 signs is refused
        # before allocation, as a size refusal: exit 1
        from omkit import cli

        path = tmp_path / "big.vec"
        path.write_text("".join(f"1,{i},{i * i}\n" for i in range(200)))
        monkeypatch.setenv("OM_SIZE_OVERRIDE", "1")
        assert cli.main(["check", str(path)]) == 1
        assert capsys.readouterr() == (
            "", "error: C(200, 3) = 1313400 signs is past the limit of 1000000\n")

    @pytest.mark.parametrize("n", [30, 200])
    def test_chi_refused_before_its_subsets_are_listed(self, n, tmp_path, monkeypatch,
                                                       capsys):
        # a SignMap built from a list checks its length against the count
        # alone, so a .chi past the guard, even past the 10^6-sign bound,
        # gets the guard message without its subsets ever being listed
        from omkit import chirotope, cli

        layout, listed = chirotope._layout, []
        monkeypatch.setattr(chirotope, "_layout",
                            lambda n, r: listed.append((n, r)) or layout(n, r))
        path = tmp_path / "big.chi"
        path.write_text(f"3 {n}\n{'+' * comb(n, 3)}\n")
        monkeypatch.delenv("OM_SIZE_OVERRIDE", raising=False)
        assert cli.main(["check", str(path)]) == 1
        assert (n, 3) not in listed
        assert capsys.readouterr() == (
            "", "error: axiom check guarded at n <= 9, rank <= 5 "
                f"(got n={n}, rank=3); lift explicitly to proceed\n")

    @pytest.mark.parametrize("args, stdin, code, err", [
        (["check", "-"], "500000 1000000\n+\n", 2,
         "body has 1 signs, expected C(1000000, 500000) (one per 500000-subset of 1..1000000)"),
        (["check", "-"], "5000000 10000000\n+\n", 2,
         "body has 1 signs, expected C(10000000, 5000000) "
         "(one per 5000000-subset of 1..10000000)"),
        (["enumerate", "1000000", "500000"], None, 1,
         "enumeration over 3^C(1000000, 500000) sign maps is guarded (limit 59049); "
         "lift explicitly to proceed"),
        (["enumerate", "10000000", "5000000"], None, 1,
         "enumeration over 3^C(10000000, 5000000) sign maps is guarded (limit 59049); "
         "lift explicitly to proceed"),
    ], ids=["chi", "chi-larger", "enumerate", "enumerate-larger"])
    def test_absurd_sizes_refused_at_once(self, args, stdin, code, err):
        # a count past 2^64 is named, not computed: computing C(10^6, 5 * 10^5)
        # takes seconds and gives more digits than str() may print
        res = run_om(*args, stdin=stdin, env_extra={"OM_SIZE_OVERRIDE": "0"}, timeout=10)
        assert (res.returncode, res.stdout, res.stderr) == (code, "", f"error: {err}\n")

    @pytest.mark.parametrize("kind", ["chi", "vec", "hls"])
    def test_rank_past_five(self, kind, tmp_path, monkeypatch, capsys):
        from omkit import cli

        path = tmp_path / f"big.{kind}"
        path.write_text(self.texts([[int(i == j) for j in range(6)] for i in range(6)])[kind])
        monkeypatch.delenv("OM_SIZE_OVERRIDE", raising=False)
        assert cli.main(["check", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "(got n=6, rank=6)" in err
        monkeypatch.setenv("OM_SIZE_OVERRIDE", "1")
        assert cli.main(["check", str(path)]) == 0
        assert capsys.readouterr().out == "ok\n"


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

    def test_delete_auto_checks_the_deletion_once(self, tmp_path, monkeypatch, capsys):
        # the minor of a checked chirotope is one, so the command checks
        # the input once and the 4-element deletion not at all
        import collections

        from omkit import chirotope, cli

        p = tmp_path / "five.chi"
        p.write_text(serialize_chi(from_vectors(
            [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3)])))
        checked = collections.Counter()
        check = chirotope.check_chirotope

        def counted(m):
            checked[m.n] += 1
            return check(m)

        monkeypatch.setattr(chirotope, "check_chirotope", counted)
        monkeypatch.setattr(cli, "check_chirotope", counted)
        assert cli.main(["minor", str(p), "--delete", "auto"]) == 0
        assert checked == {5: 1}
        assert capsys.readouterr().out == "3 4\n++-+\n"

    def test_contract(self, frame4):
        res = run_om("minor", frame4, "--contract", "4")
        assert res.returncode == 0
        assert res.stdout == "2 3\n+-+\n"

    def test_delete_then_contract(self, frame4):
        res = run_om("minor", frame4, "--delete", "1", "--contract", "4")
        assert res.returncode == 0
        assert res.stdout.startswith("2 2\n")

    def test_minors_compose_by_label(self, tmp_path, capsys):
        # after deleting 2, label 4 holds id 3: the library and om minor
        # both contract the element labelled 4
        from omkit import cli, contract, delete

        m = from_vectors([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (2, -1, 1)])
        p = tmp_path / "six.chi"
        p.write_text(serialize_chi(m))
        sub = contract(delete(m, [2]), [4])
        assert sub.labels == (1, 3, 5, 6)
        assert cli.main(["minor", str(p), "--delete", "2", "--contract", "4"]) == 0
        assert capsys.readouterr() == (serialize_chi(sub), "ids: 1=1 2=3 3=5 4=6\n")

    def test_invalid_deletion(self, tmp_path):
        rows = [(1, 0), (0, 1), (0, 2), (0, 3)]
        p = tmp_path / "cfg.chi"
        p.write_text(serialize_chi(from_vectors(rows)))
        res = run_om("minor", str(p), "--delete", "1")
        assert res.returncode == 1
        assert res.stderr == "error: deleting [1] drops the rank: no nonzero basis avoids them\n"

    def test_no_flags(self, frame4):
        res = run_om("minor", frame4)
        assert res.returncode == 2

    def test_unknown_id(self, frame4):
        res = run_om("minor", frame4, "--delete", "9")
        assert res.returncode == 2

    @pytest.mark.parametrize("flag, raw", [("--contract", ",,"), ("--delete", ",,"),
                                           ("--delete", "x"), ("--contract", "1,,y"),
                                           ("--delete", ""), ("--contract", "")])
    def test_bad_element_list(self, frame4, flag, raw, capsys):
        # each list is paired with a good one for the other flag, so an
        # empty list cannot pass for "nothing to do"
        from omkit import cli

        other = {"--delete": "--contract", "--contract": "--delete"}[flag]
        assert cli.main(["minor", frame4, flag, raw, other, "1"]) == 2
        assert capsys.readouterr() == ("", f"error: bad element list {raw!r}\n")

    @pytest.mark.parametrize("flag, raw", [("--delete", ",,"), ("--contract", "x")])
    def test_bad_element_list_on_an_invalid_file(self, tmp_path, flag, raw, capsys):
        # the list is read before the file, so the exit code does not
        # depend on whether the file passes the check
        from omkit import cli

        p = tmp_path / "bad.chi"
        p.write_text("2 4\n+-++++\n")
        assert cli.main(["minor", str(p), flag, raw]) == 2
        assert capsys.readouterr() == ("", f"error: bad element list {raw!r}\n")

    @pytest.mark.parametrize("flag", ["--delete", "--contract"])
    def test_repeated_contraction_names_labels(self, flag, tmp_path, capsys):
        # the elements labelled 2, 4, 6, 8 hold ids 1, 2, 3, 4
        from omkit import cli

        p = tmp_path / "f.hls"
        p.write_text(serialize_hls(from_chirotope(SignMap(3, 4, [1] * 4, (2, 4, 6, 8)))))
        assert cli.main(["minor", str(p), flag, "4,4"]) == 2
        assert capsys.readouterr() == ("", "error: repeated elements in (4, 4)\n")

    def test_short_deletion_names_labels(self, tmp_path, capsys):
        from omkit import HLRank2, cli

        p = tmp_path / "odd.hls"
        p.write_text(serialize_hls(HLRank2([{2}, {5}, {9}, {-2}, {-5}, {-9}])))
        assert cli.main(["minor", str(p), "--delete", "5,9"]) == 1
        assert capsys.readouterr() == (
            "", "error: deleting [5, 9] drops the rank: no nonzero basis avoids them\n")

    def test_unknown_ids_in_given_order(self, frame4):
        for flag in ("--delete", "--contract"):
            res = run_om("minor", frame4, flag, "9,1,8")
            assert res.returncode == 2
            assert res.stderr == "error: elements not in the ground set: [9, 8]\n"

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


class TestRealizedInput:
    # a .vec file realizes to a chirotope by construction, so only `check`
    # runs the axiom check on it; every other command answers as on the
    # .chi file of the same rows
    COMMANDS = (["faces"], ["convert", "--to", "chi"], ["convert", "--to", "hls"],
                ["minor", "--delete", "auto"], ["minor", "--contract", "1"],
                ["minor", "--delete", "2", "--contract", "1"])

    def test_vec_answers_as_chi(self, tmp_path, monkeypatch, capsys):
        import random

        from helpers import rows_with_extra
        from omkit import cli

        checked = []
        check = cli.check_chirotope
        monkeypatch.setattr(cli, "check_chirotope",
                            lambda m: checked.append(m) or check(m))
        rng = random.Random(404)
        for r in (2, 3, 4, 5):
            for kind in ("dependent", "parallel"):
                rows = rows_with_extra(rng, rng.randint(r + 1, 8), r, kind)
                vec, chi = tmp_path / "x.vec", tmp_path / "x.chi"
                vec.write_text("".join(",".join(map(str, row)) + "\n" for row in rows))
                chi.write_text(serialize_chi(from_vectors(rows)))
                for argv in self.COMMANDS:
                    answers = []
                    for path in (chi, vec):
                        checked.clear()
                        code = cli.main([argv[0], str(path), *argv[1:]])
                        answers.append((code, capsys.readouterr(), len(checked)))
                    assert answers[0][:2] == answers[1][:2], (argv, rows)
                    assert (answers[0][2], answers[1][2]) == (1, 0)
                assert cli.main(["check", str(vec)]) == 0
                assert capsys.readouterr().out == "ok\n" and len(checked) == 1


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
        # --jobs is checked but starts no process
        serial = run_om("enumerate", "4", "2", "--bodies")
        parallel = run_om("enumerate", "4", "2", "--bodies", "--jobs", "3")
        assert serial.returncode == parallel.returncode == 0
        assert serial.stdout == parallel.stdout

    def test_import_leaves_cli_unloaded(self):
        code = "import sys, omkit; print('omkit.cli' in sys.modules)"
        res = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True)
        assert res.stdout == "False\n"

    def test_bad_sizes(self, capsys):
        assert run_om("enumerate", "2", "3").returncode == 2
        assert run_om("enumerate", "0", "0").returncode == 2
        from omkit import cli

        assert cli.main(["enumerate", "3", "2", "--jobs", "0"]) == 2
        assert "jobs must be at least 1" in capsys.readouterr().err
        # a bad N or R is named before a bad --jobs
        assert cli.main(["enumerate", "2", "3", "--jobs", "0"]) == 2
        assert capsys.readouterr().err == "error: need n >= r >= 1, got n=2, r=3\n"

    def test_jobs_checked_before_the_guard(self, capsys):
        # a bad --jobs is a usage error at every N and R, guarded or not
        from omkit import cli

        assert cli.main(["enumerate", "6", "2", "--jobs", "0"]) == 2
        assert capsys.readouterr().err == "error: jobs must be at least 1\n"

    def test_guard(self):
        res = run_om("enumerate", "7", "3")
        assert res.returncode == 1
        assert "guard" in res.stderr

    @pytest.mark.parametrize("argv", [["enumerate", "6", "2"], ["enumerate", "6", "3"]])
    def test_guard_counts_sign_maps(self, argv, monkeypatch, capsys):
        # 15 and 20 supports, 3^15 and 3^20 maps: refused before any scan
        from omkit import chirotope, cli

        def scan(*args):
            raise AssertionError("scanned past the guard")

        monkeypatch.setattr(chirotope, "_pruned_scan", scan)
        monkeypatch.delenv("OM_SIZE_OVERRIDE", raising=False)
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and "guard" in err

    def test_guard_keeps_desk_scale(self, monkeypatch):
        # 3^10 maps at (5, 2) and (5, 3), 2^15 at (6, 2) uniform: the
        # limit itself passes; the library sets no limit, so 3^15 does too
        from omkit import chirotope

        monkeypatch.setattr(chirotope, "_pruned_scan", lambda *args: (0, []))
        assert enumerate_bodies(5, 2) == (0, 3**10, [])
        assert enumerate_bodies(5, 3) == (0, 3**10, [])
        assert enumerate_bodies(6, 2, uniform=True) == (0, 2**15, [])
        assert enumerate_bodies(6, 2) == (0, 3**15, [])

    def test_lifted_guard_keeps_the_sign_bound(self):
        # with no limit of its own, the scan's maps must still fit the
        # 10^6-sign bound, and a count past 2^64 is refused before it is
        # computed
        from omkit import SizeGuardError

        with pytest.raises(SizeGuardError, match=r"^C\(1000000, 500000\) signs is past the "
                                                 r"limit of 1000000$"):
            enumerate_bodies(10**6, 5 * 10**5)


def loaded_by(*argv):
    """stdout, exit code and the set of loaded modules of `python -m omkit
    ARGV`, run through runpy in a fresh interpreter so that the module
    table can be read after the command: os._exit, which would end the
    process there, raises SystemExit instead."""
    code = (
        "import os, runpy, sys\n"
        "os._exit = sys.exit\n"
        "try:\n"
        "    runpy.run_module('omkit', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as e:\n"
        "    print(e.code, *sorted(sys.modules))\n"
    )
    res = subprocess.run([sys.executable, "-c", code, *argv],
                         capture_output=True, text=True)
    *out, last = res.stdout.splitlines(keepends=True)
    exit_code, *modules = last.split()
    return "".join(out), int(exit_code), set(modules)


class TestImports:
    def test_import_leaves_numpy_unloaded(self):
        code = "import sys, omkit; print('numpy' in sys.modules)"
        res = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True)
        assert res.stdout == "False\n"

    def test_check_leaves_numpy_unloaded(self, frame4):
        out, code, modules = loaded_by("check", frame4)
        assert (out, code, "numpy" in modules) == ("ok\n", 0, False)

    def test_import_loads_no_submodule(self):
        code = "import sys, omkit; print([m for m in sys.modules if m.startswith('omkit.')])"
        res = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True)
        assert res.stdout == "[]\n"

    def test_library_leaves_typing_unloaded(self):
        # -S: site's .pth files may import typing themselves, so the path
        # to omkit is passed explicitly
        code = ("import sys, omkit.cli, omkit.hyperline, omkit.faces; "
                "print('typing' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(omkit.__file__)))
        res = subprocess.run([sys.executable, "-S", "-c", code],
                             capture_output=True, text=True, env=env)
        assert res.stdout == "False\n"

    @pytest.mark.parametrize("command, ext, unloaded", [
        ("check", "chi", {"omkit.hyperline", "omkit.faces", "dataclasses", "json", "fractions",
                          "argparse", "gettext", "locale", "omkit.arrangement"}),
        ("check", "hls", {"omkit.faces"}),
        ("faces", "chi", {"omkit.hyperline"}),
        ("faces", "vec", {"fractions", "omkit.arrangement"}),
    ])
    def test_command_loads_only_what_it_runs(self, tmp_path, command, ext, unloaded):
        m = from_vectors([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
        path = tmp_path / f"frame4.{ext}"
        path.write_text({"chi": serialize_chi(m), "hls": serialize_hls(from_chirotope(m)),
                         "vec": "1,0,0\n0,1,0\n0,0,1\n1,1,1\n"}[ext])
        _, code, modules = loaded_by(command, str(path))
        assert code == 0 and "omkit.cli" in modules
        assert not modules & unloaded
        # exactly the omkit modules the command runs; omkit/__main__.py
        # runs as __main__, so no omkit.__main__ is loaded
        expected = {"omkit", "omkit.cli", "omkit.chirotope", "omkit.errors",
                    "omkit.formats"}
        expected |= {"omkit.hyperline"} if ext == "hls" else set()
        expected |= {"omkit.faces"} if command == "faces" else set()
        assert {m for m in modules if m.split(".")[0] == "omkit"} == expected

    def test_fraction_entry_loads_fractions(self, tmp_path):
        path = tmp_path / "frame4.vec"
        path.write_text("1/2,0,0\n0,1,0\n0,0,1\n1,1,1\n")
        out, code, modules = loaded_by("faces", str(path))
        assert (out, code) == ("V=12 E=24 F=14 euler=2\n", 0)
        assert "fractions" in modules


# Every name `from omkit import *` bound while the package imported its
# submodules eagerly, by the submodule defining it, less those removed
# since: minor_hls, NoDeletableElement, the orientation-class classifier and
# its Enum (SignMap.evaluate gives that sign), the module core with its
# CanonicalBasis, normalize, signed_elements, signed_sort_key and underlying,
# serialize_vec (.vec is an input format only), and MAX_CHECK_N and
# MAX_CHECK_RANK (the CLI's default limits, defined in omkit.cli).
EXPORTS = {
    "arrangement": "ArrangementR1 ArrangementR2 canonical_arrangement read_rank1 "
                   "read_rank2 represent_rank1 represent_rank2",
    "chirotope": "SignMap VectorConfig check_chirotope contract delete det_sign "
                 "enumerate_bodies find_deletable from_vectors",
    "errors": "ArrangementError ConstructionError ContractionError DeletionError "
              "OmError ParseError RealizationError SizeGuardError ValidationReport Violation",
    "faces": "FaceCensus cocircuits covectors face_census fm_realizable_topes topes",
    "formats": "parse_chi parse_hls parse_vec render_rank2_svg serialize_chi "
               "serialize_hls",
    "hyperline": "HLHigher HLRank1 HLRank2 Hyperline check_hyperline from_chirotope "
                 "to_chirotope",
}


class TestExports:
    def test_every_export_resolves_to_its_submodule(self):
        star = {}
        exec("from omkit import *", star)
        del star["__builtins__"]
        expected = {}
        for home, names in EXPORTS.items():
            module = importlib.import_module(f"omkit.{home}")
            expected[home] = module
            expected.update((name, getattr(module, name)) for name in names.split())
        assert star == expected
        assert {name: getattr(omkit, name) for name in expected} == expected
        assert set(expected) <= set(dir(omkit))

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            omkit.no_such_name
        with pytest.raises(ImportError):
            exec("from omkit import no_such_name", {})

    def test_export_follows_its_home_module(self, monkeypatch):
        # perfbench/spans.py wraps a function where it is defined; the
        # package must hand out the wrapper, not a copy bound at import
        def marker():
            pass

        monkeypatch.setattr(importlib.import_module("omkit.faces"), "topes", marker)
        assert omkit.topes is marker


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

    @pytest.mark.parametrize("chi, axioms", [
        ("2 7\n-+-++--+-0-++-+-0--++\n", ["C3", "C4"]),
        ("2 4\n+-++++\n", ["C4"]),
    ])
    def test_invalid_input_refused(self, chi, axioms):
        res = run_om("render", "-", stdin=chi)
        assert res.returncode == 1
        assert res.stdout == ""
        assert [line.split()[0] for line in res.stderr.splitlines()] == axioms
        assert res.stderr == run_om("check", "-", stdin=chi).stdout


class TestUsage:
    def test_no_command(self):
        assert run_om().returncode == 2

    def test_unknown_command(self):
        assert run_om("frobnicate").returncode == 2

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["check", "-h"],
                                      ["convert", "x.chi", "--help"]])
    def test_help(self, argv, capsys):
        from omkit import cli

        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert out == cli.USAGE and err == "" and out.startswith("usage: om check FILE")

    def test_spellings_agree(self, frame4, capsys):
        from omkit import cli

        def run(*argv):
            code = cli.main(list(argv))
            return code, *capsys.readouterr()

        want = run("convert", frame4, "--to", "hls", "--format", "chi")
        assert want[0] == 0 and want[1].startswith("{")
        for argv in (["convert", "--to=hls", frame4, "--format=chi"],
                     ["convert", "--format", "chi", "--to", "hls", "--", frame4],
                     ["convert", frame4, "--to", "hls", "-o", "-", "--format", "chi"],
                     ["convert", frame4, "--to", "chi", "--to", "hls", "-o=-"]):
            assert run(*argv) == want

    @pytest.mark.parametrize("argv", [
        ["convert", "x.chi"],                   # --to is required
        ["convert", "x.chi", "--to"],           # missing value
        ["convert", "x.chi", "--to", "vec"],    # not a choice
        ["minor", "x.chi", "--del", "1"],       # no abbreviations
        ["check", "x.chi", "--uniform"],        # another command's option
        ["enumerate", "3", "2", "--uniform=yes"],
        ["enumerate", "3", "two"],
        ["enumerate", "3"],
        ["check", "x.chi", "y.chi"],
        ["check", "x.chi", "--", "--format"],   # after --, a second file
    ])
    def test_usage_error(self, argv, capsys):
        from omkit import cli

        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: om") and "\nom: error: " in err

    def test_seeded_argv_fuzz(self, tmp_path, monkeypatch, capsys):
        """Command lines drawn from valid, misspelled, abbreviated and
        valueless options, real and missing files, stdin and junk: every
        one ends in exit 0, 1 or 2, and a usage error writes no stdout."""
        import io
        import random

        from omkit import cli

        m = from_vectors([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
        files = {"frame4.chi": serialize_chi(m), "frame4.hls": serialize_hls(from_chirotope(m)),
                 "frame4.vec": "1,0,0\n0,1,0\n0,0,1\n1,1,1\n", "line.chi": TRIANGLE_CHI,
                 "bad.chi": BAD_CHI, "junk.vec": "1,x\n"}
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        paths = [str(tmp_path / name) for name in files] + [str(tmp_path / "missing.chi"), "-"]
        out_path = str(tmp_path / "out.txt")
        pools = [
            ["check", "convert", "minor", "faces", "enumerate", "render", "frob", "chek", ""],
            ["--format", "--to", "--delete", "--contract", "--output", "-o", "--uniform",
             "--bodies", "--jobs", "--fromat", "--too", "--del", "--con", "--out", "--uni",
             "-x", "--format=chi", "--format=vec", "--to=hls", "--to=chi", "--to=xml",
             "--jobs=2", "--uniform=1", "--delete=auto", "--contract=1", "-o=" + out_path,
             "--", "-", "-h"],
            paths,
            ["0", "1", "2", "3", "-1", "99", "1,2", "auto", "chi", "hls", "vec", "x", "2.5",
             "", "١", out_path],
        ]
        rng = random.Random(20261018)

        def well_formed():
            cmd = rng.choice(pools[0][:6])
            if cmd == "enumerate":
                flags = rng.sample(["--uniform", "--bodies", "--jobs=2"], rng.randrange(4))
                return [cmd, rng.choice("123"), rng.choice("123"), *flags]
            extra = {"convert": ["--to", rng.choice(("chi", "hls"))],
                     "minor": ["--delete", rng.choice(("auto", "1"))]}
            return [cmd, rng.choice(paths), *extra.get(cmd, [])]

        codes = []
        for _ in range(2500):
            # half well-formed lines with at most one edit, half drawn freely
            argv = well_formed() if rng.random() < 0.5 else [rng.choice(pools[0])]
            for _ in range(rng.randrange(2 if len(argv) > 1 else 6)):
                at = rng.randrange(len(argv) + 1)
                if rng.random() < 0.3 and at < len(argv):
                    del argv[at]
                else:
                    argv.insert(at, rng.choice(pools[rng.choice((1, 1, 2, 3))]))
            monkeypatch.setattr(sys, "stdin", io.StringIO(""))
            code = cli.main(argv)
            out, err = capsys.readouterr()
            assert code in (0, 1, 2), argv
            assert code != 2 or out == "", argv
            codes.append(code)
        assert {0, 1, 2} <= set(codes)

    def test_mutated_files_slice(self, monkeypatch):
        """A 300-input slice of tests/fuzz_sweep.py, which CI runs at 20,000:
        byte- and tree-mutated files under every file-taking command."""
        import fuzz_sweep

        monkeypatch.delenv("OM_SIZE_OVERRIDE", raising=False)
        codes, found = fuzz_sweep.sweep(seed=1, count=300)
        assert found == []
        assert codes[0] and codes[1] and codes[2], codes


# A 9-element rank 5 chirotope (points on the moment curve): `om faces`
# lists its 326 topes in about 3 kB, which buffered stdout holds until the
# process flushes it.
RANK5 = from_vectors([(1, t, t * t, t**3, t**4) for t in range(1, 10)])
RANK5_CHI = serialize_chi(RANK5)


@pytest.fixture(params=["1", None], ids=["unbuffered", "buffered"])
def om_env(request):
    """The environment of an `om` child, with PYTHONUNBUFFERED set or
    unset: stdout writes through at each write, or waits in a buffer that
    the process flushes before it ends."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if request.param:
        env["PYTHONUNBUFFERED"] = request.param
    return env


def spawn_om(env, *args, python=(), **kwargs):
    """`python [PYTHON] -m omkit ARGS` with stdout and stderr as bytes."""
    return subprocess.run([sys.executable, *python, "-m", "omkit", *args], env=env,
                          capture_output=True, **kwargs)


class TestProcessExit:
    """`python -m omkit` ends with os._exit once its output is flushed;
    what it prints and how it exits stay those of cli.main in process."""

    @pytest.fixture()
    def files(self, tmp_path):
        texts = {"bad.chi": BAD_CHI, "broken.chi": "2 4\n+-+\n", "rank5.chi": RANK5_CHI}
        for name, text in texts.items():
            (tmp_path / name).write_text(text)
        return {name: str(tmp_path / name) for name in texts}

    @pytest.mark.parametrize("argv, code", [
        (["-h"], 0),
        (["check"], 2),                  # usage error
        (["check", "broken.chi"], 2),    # parse error
        (["check", "bad.chi"], 1),       # C4 report
        (["faces", "rank5.chi"], 0),     # tope list
    ])
    def test_same_as_in_process(self, om_env, files, argv, code, capsys):
        from omkit import cli

        argv = [files.get(a, a) for a in argv]
        assert cli.main(argv) == code
        out, err = capsys.readouterr()
        res = spawn_om(om_env, *argv)
        assert (res.returncode, res.stdout, res.stderr) == (code, out.encode(), err.encode())

    def test_output_files_are_complete(self, om_env, files, tmp_path):
        hls, chi = tmp_path / "out.hls", tmp_path / "out.chi"
        assert spawn_om(om_env, "convert", files["rank5.chi"], "--to", "hls",
                        "-o", str(hls)).returncode == 0
        assert hls.read_text() == serialize_hls(from_chirotope(RANK5))
        assert spawn_om(om_env, "convert", str(hls), "--to", "chi",
                        "-o", str(chi)).returncode == 0
        assert chi.read_text() == RANK5_CHI

    @pytest.mark.parametrize("argv, err", [
        (["faces", "rank5.chi"], "face census applies to rank 3 only (rank 5); listing topes\n"),
        (["-h"], ""),
    ], ids=["faces", "help"])
    def test_closed_stdout_exits_2(self, om_env, files, argv, err):
        # the read end is closed before the child starts, so every write
        # to the pipe fails, at the write or at the final flush
        r, w = os.pipe()
        os.close(r)
        try:
            res = subprocess.run([sys.executable, "-m", "omkit", *(files.get(a, a) for a in argv)],
                                 env=om_env, stdout=w, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(w)
        assert (res.returncode, res.stderr) == (
            2, f"{err}error: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n")

    def test_jobs_leave_no_process(self, om_env, capsys):
        from omkit import cli

        argv = ["enumerate", "5", "3", "--uniform", "--bodies"]
        assert cli.main([*argv, "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        proc = subprocess.Popen([sys.executable, "-m", "omkit", *argv, "--jobs", "2"],
                                env=om_env, stdout=subprocess.PIPE, text=True,
                                start_new_session=True)
        out, _ = proc.communicate(timeout=60)
        assert (proc.returncode, out) == (0, serial)
        # the child led its own session; no process is left in it
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)

    def test_no_warning_in_dev_mode(self, om_env, files, tmp_path):
        out = str(tmp_path / "out")
        for argv, code in ((["check", files["rank5.chi"]], 0),
                           (["convert", files["rank5.chi"], "--to", "hls", "-o", out + ".hls"], 0),
                           (["minor", out + ".hls", "--delete", "auto", "--contract", "2"], 0),
                           (["faces", files["bad.chi"]], 1),
                           (["enumerate", "4", "2", "--bodies", "--jobs", "2"], 0),
                           (["render", "-", "-o", out + ".svg"], 0)):
            res = spawn_om(om_env, *argv, python=("-X", "dev", "-W", "error"),
                           input=TRIANGLE_CHI.encode())
            assert res.returncode == code, argv
            assert b"Warning" not in res.stderr and b"Exception ignored" not in res.stderr, argv
