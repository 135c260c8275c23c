"""The four workloads: seeded inputs, one round of `om` commands each, and
the expected outcome of every command from the oracles in oracle.py.

A workload's `build(rng, d)` writes its input files under `d` and returns
a Plan.  Files the program itself must produce (.hls) are listed in
`produce`; the harness makes them with `om convert` during set-up.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from math import comb
from pathlib import Path
from typing import Callable, Optional

import oracle


@dataclass
class Op:
    argv: list
    code: int
    want: Optional[str] = None             # exact stdout
    want_file: Optional[Path] = None       # stdout equals this file's bytes
    check: Optional[Callable[[str], bool]] = None  # stdout predicate
    err_has: Optional[str] = None          # substring stderr must contain
    weight: int = 1                        # ops this command counts for
    timeout: float = 60.0

    def failure(self, code, out, err, timed_out=False):
        """Why a command's outcome is wrong, or None when it is right."""
        if timed_out:
            return "timeout"
        if "Traceback" in err:
            return "traceback"
        if code != self.code:
            return f"exit {code}, expected {self.code}"
        if self.err_has is not None and self.err_has not in err:
            return f"stderr lacks {self.err_has!r}"
        if self.want is not None and out != self.want:
            return "stdout differs from the oracle"
        if self.want_file is not None and out != self.want_file.read_text(encoding="utf-8"):
            return f"stdout differs from {self.want_file.name}"
        if self.check is not None and not self.check(out):
            return "stdout fails the oracle check"
        return None


@dataclass
class Plan:
    ops: list                                   # one round
    warmup: Optional[Op]
    produce: list = field(default_factory=list)  # (chi path, hls path)


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable
    min_rounds: int


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def fm_topes(rows):
    """Tope set from Fourier-Motzkin feasibility, the program's own
    chirotope-free route.  Imported lazily, so the timed phase never waits
    for it; used only where it is cheap (dependent inputs, n <= 8, r <= 4)."""
    from omkit import VectorConfig, fm_realizable_topes

    return fm_realizable_topes(VectorConfig(rows))


def faces_check(rows, uniform):
    """Oracle for `om faces`: closed forms on uniform inputs, flats and
    Zaslavsky's formula otherwise, and FM agreement where it applies."""
    n, r = len(rows), len(rows[0])
    use_fm = not uniform and n <= 8 and r <= 4

    def check(out):
        if r == 3:
            v, e, f = ((n * (n - 1), 2 * n * (n - 1), n * (n - 1) + 2) if uniform
                       else oracle.census(rows))
            return out == oracle.census_line(v, e, f) and (not use_fm or len(fm_topes(rows)) == f)
        if not oracle.topes_ok(out, rows, uniform):
            return False
        return not use_fm or set(oracle.parse_tope_list(out)) == fm_topes(rows)

    return check


# ---------------------------------------------------------------- small-files

def _malformed_chi(rng):
    return rng.choice([
        "3 5\n++0-+x-0+-\n",
        "3 5\n++0-+-0+-\n",
        "3\n++0-\n",
        "a b\n+\n",
        "4 3\n+\n",
    ])


def _malformed_hls(rng):
    return rng.choice([
        '{"rank":3,"hyperlines":[{"Y":{"rank":1',
        '{"rank":3}\n',
        '{"rank":1,"elements":["0"]}\n',
        '{"rank":2,"atoms":[[]]}\n',
    ])


def _malformed_vec(rng):
    return rng.choice(["1,2\n1.5,2\n", "1,2\n3/0,1\n", "1,2,3\n4,5\n"])


def build_small_files(rng, d: Path) -> Plan:
    ops, produce = [], []
    for i, r in enumerate((2, 2, 3, 3, 4, 4)):
        n = rng.randint(max(4, r + 1), 7)
        dependent = i % 2 == 1
        if dependent:
            rows = oracle.with_dependent_row(rng, oracle.random_rows(rng, n - 1, r, 4))
        else:
            rows = oracle.random_rows(rng, n, r, 4, uniform=True)
        chi_text = oracle.chi_text(rows)
        vec = _write(d / f"c{i}.vec", oracle.vec_text(rows))
        chi = _write(d / f"c{i}.chi", chi_text)
        deleted = oracle.deletion_auto(rows)
        e = rng.randint(1, n)
        ops += [
            Op(["check", chi], 0, want="ok\n"),
            Op(["convert", vec, "--to", "chi"], 0, want=chi_text),
            Op(["faces", chi if i % 3 else vec], 0, check=faces_check(rows, not dependent)),
            Op(["minor", chi, "--delete", "auto"], 0, want=deleted),
            Op(["minor", vec, "--contract", str(e)], 0, want=oracle.contraction(rows, e)),
        ]
        if not dependent:
            hls = d / f"c{i}.hls"
            produce.append((chi, str(hls)))
            ops += [
                Op(["convert", chi, "--to", "hls"], 0, want_file=hls,
                   check=lambda out, rows=rows: oracle.hls_ok(out, rows)),
                Op(["check", str(hls)], 0, want="ok\n"),
                Op(["convert", str(hls), "--to", "chi"], 0, want=chi_text),
            ]
        if r == 2:
            ops.append(Op(["render", vec if dependent else chi], 0,
                          check=lambda out, rows=rows: oracle.svg_ok(out, rows)))

    # About a quarter of the commands are refusals.
    for k, (r, n) in enumerate(((2, rng.randint(4, 5)), (3, 5))):
        bad = _write(d / f"bad{k}.chi", oracle.table_text(r, n, oracle.random_non_chirotope(rng, r, n)))
        ops += [
            Op(["check", bad], 1, check=lambda out: "violated" in out),
            Op(["convert", bad, "--to", "hls"], 1, want=""),
        ]
        if k:
            ops.append(Op(["faces", bad], 1, want=""))
    m_chi = _write(d / "m.chi", _malformed_chi(rng))
    m_hls = _write(d / "m.hls", _malformed_hls(rng))
    m_vec = _write(d / "m.vec", _malformed_vec(rng))
    for argv in (["check", m_chi], ["check", m_hls], ["check", m_vec],
                 ["convert", m_chi, "--to", "hls"], ["faces", m_vec]):
        ops.append(Op(argv, 2, want="", err_has="error:"))
    # Size-guard refusals at n = 10.  The header stays small: a .chi whose
    # header names a huge n would exhaust memory in parse_chi today.
    g_chi = _write(d / "g.chi", f"3 10\n{''.join(rng.choice('+-0') for _ in range(comb(10, 3)))}\n")
    g_vec = _write(d / "g.vec", oracle.vec_text(oracle.random_rows(rng, 10, 2, 4)))
    for argv in (["check", g_chi], ["faces", g_chi], ["check", g_vec],
                 ["convert", g_vec, "--to", "chi"]):
        ops.append(Op(argv, 1, want="", err_has="guarded"))

    warm = Op(["check", str(d / "c0.chi")], 0, want="ok\n")
    return Plan(ops, warm, produce)


# ----------------------------------------------------------------- encodings

def build_encodings(rng, d: Path) -> Plan:
    ops, produce = [], []
    for n, r in ((9, 3), (9, 4), (8, 5)):
        rows = oracle.random_rows(rng, n, r, 9, uniform=True)
        chi_text = oracle.chi_text(rows)
        chi = _write(d / f"x{n}{r}.chi", chi_text)
        hls = d / f"x{n}{r}.hls"
        produce.append((chi, str(hls)))
        e = rng.randint(1, n)
        ops += [
            Op(["check", chi], 0, want="ok\n"),
            Op(["convert", chi, "--to", "hls"], 0, want_file=hls,
               check=lambda out, rows=rows: oracle.hls_ok(out, rows)),
            Op(["check", str(hls)], 0, want="ok\n"),
            Op(["convert", str(hls), "--to", "chi"], 0, want=chi_text),
            Op(["minor", chi, "--contract", str(e)], 0, want=oracle.contraction(rows, e)),
        ]
    return Plan(ops, Op(["check", str(d / "x93.chi")], 0, want="ok\n"), produce)


# --------------------------------------------------------------------- cells

def build_cells(rng, d: Path) -> Plan:
    ops = []
    for k, (r, dependent) in enumerate(itertools.product((3, 4, 5), (False, True))):
        if dependent:
            rows = oracle.with_dependent_row(rng, oracle.random_rows(rng, 8, r, 9, uniform=True))
        else:
            rows = oracle.random_rows(rng, 9, r, 9, uniform=True)
        chi = _write(d / f"f{r}{'d' if dependent else 'u'}.chi", oracle.chi_text(rows))
        vec = _write(d / f"f{r}{'d' if dependent else 'u'}.vec", oracle.vec_text(rows))
        ops.append(Op(["faces", vec if k % 2 == r % 2 else chi], 0,
                      check=faces_check(rows, not dependent)))
    return Plan(ops, Op(["check", str(d / "f3u.chi")], 0, want="ok\n"))


# ----------------------------------------------------------------- enumerate

ENUM_N = 5


def build_enumerate(rng, d: Path) -> Plan:
    # The input has no random part: the seed changes nothing here.
    total = 3 ** comb(ENUM_N, 2)
    op = Op(["enumerate", str(ENUM_N), "2", "--jobs", "1"], 0,
            want=f"valid={oracle.rank2_chirotopes(ENUM_N)} total={total}\n",
            weight=total, timeout=120.0)
    warm = Op(["enumerate", "3", "2", "--jobs", "1"], 0,
              want=f"valid={oracle.rank2_chirotopes(3)} total={3 ** 3}\n")
    return Plan([op], warm)


# --------------------------------------------------------------------- probe

def build_probe(rng, d: Path):
    """Tiny in-process commands that reach every layer once, so each layer
    metric of a traced run is defined on every workload.  Returns the
    plan (its .hls is produced in process) and rows for one FM call."""
    rows = oracle.random_rows(rng, 5, 3, 4, uniform=True)
    rows4 = oracle.random_rows(rng, 5, 4, 4, uniform=True)
    chi_text = oracle.chi_text(rows)
    chi = _write(d / "p.chi", chi_text)
    vec = _write(d / "p.vec", oracle.vec_text(rows))
    vec4 = _write(d / "p4.vec", oracle.vec_text(rows4))
    hls = d / "p.hls"
    bad = _write(d / "pbad.chi", oracle.table_text(2, 4, oracle.random_non_chirotope(rng, 2, 4)))
    deleted = oracle.deletion_auto(rows)
    ops = [
        Op(["check", vec], 0, want="ok\n"),
        Op(["convert", chi, "--to", "hls"], 0, want_file=hls,
           check=lambda out: oracle.hls_ok(out, rows)),
        Op(["convert", str(hls), "--to", "chi"], 0, want=chi_text),
        Op(["minor", chi, "--delete", "auto"], 0, want=deleted),
        Op(["minor", chi, "--contract", "1"], 0, want=oracle.contraction(rows, 1)),
        Op(["faces", chi], 0, check=faces_check(rows, True)),
        Op(["faces", vec4], 0, check=faces_check(rows4, True)),
        Op(["check", bad], 1, check=lambda out: "violated" in out),
        Op(["enumerate", "3", "2", "--jobs", "1"], 0,
           want=f"valid={oracle.rank2_chirotopes(3)} total={3 ** 3}\n"),
    ]
    fm_rows = oracle.with_dependent_row(rng, oracle.random_rows(rng, 5, 3, 4))
    return Plan(ops, None, [(chi, str(hls))]), fm_rows


# The "why" of each workload is in BENCHMARK.json.  small-files runs its
# 55-command round at least twice, for 100 or more commands per run.
# enumerate is one 25 s command, so its timings follow the host's speed in
# that one stretch; it runs by hand and is not listed in BENCHMARK.json.
WORKLOADS = {
    "small-files": Workload("small-files", build_small_files, min_rounds=2),
    "encodings": Workload("encodings", build_encodings, min_rounds=1),
    "cells": Workload("cells", build_cells, min_rounds=1),
    "enumerate": Workload("enumerate", build_enumerate, min_rounds=1),
}


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")
