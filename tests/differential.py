"""Differential run of every `om` command family over a seeded corpus, one
process per source tree.

    python tests/differential.py --seed 1 --src src
    python tests/differential.py --seed 1 --src OLD/src --src src

The corpus comes from the generators in tests/helpers.py, run with the
omkit of the first --src: realizable configurations at rank 2..5 and
n <= 7 (random, uniform, with a dependent row, with a parallel row) as
.chi, .vec and .hls, each .hls also on labels other than 1..n; sign maps
and sequences one move away from them, mostly not valid; malformed
files; and the non-realizable rank 3 non-Pappus maps on 9 elements, as
.chi and .hls.  An enumerate family adds every (n, r) with n <= 8 and r <= 5
under each flag, and an absurd size.  Each tree runs every command
through omkit.cli.main in one process, its stdout and stderr captured,
without OM_SIZE_OVERRIDE, so past-limit scans are refused.  Prints, per
family, the commands run, the exit codes counted and a digest of every
(command, exit code, stdout, stderr).  With two trees it also prints
each command whose answer differs.  Exits 1 when an answer differs or a
command raised out of cli.main, else 0.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))

MALFORMED = {
    "empty.chi": "",
    "short.chi": "2 3\n++\n",
    "badsign.chi": "2 3\n++x\n",
    "header.chi": "x y\n",
    "rank-over-n.chi": "3 2\n\n",
    "zero.chi": "2 3\n000\n",
    "open.hls": '{"rank":2',
    "odd-period.hls": '{"rank":2,"atoms":[["1"],["2"],["~1"]]}\n',
    "period-2.hls": '{"rank":2,"atoms":[["1","2"],["~1","~2"]]}\n',
    "no-lines.hls": '{"rank":3,"hyperlines":[]}\n',
    "ragged.vec": "1,0\n0\n",
    "token.vec": "1,0\n0,x\n",
    "flat.vec": "1,0\n2,0\n-1,0\n",
    "float.vec": "1.5,0\n0,1\n",
}


def corpus(rng, tmp):
    """Write the corpus into tmp; yield (file name, labels, rank)."""
    from helpers import (neighbours, non_pappus, random_fullrank_rows, random_signmap,
                         rows_with_extra, uniform_rows)
    from omkit import SignMap, from_chirotope, from_vectors, serialize_chi, serialize_hls

    def write(name, text):
        with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
            fh.write(text)

    for r in range(2, 6):
        for n in range(r, 8):
            ids = list(range(1, n + 1))
            configs = {"random": random_fullrank_rows(rng, n, r),
                       "uniform": uniform_rows(rng, n, r)}
            if n > r:
                configs.update((kind, rows_with_extra(rng, n, r, kind))
                               for kind in ("dependent", "parallel"))
            for kind, rows in configs.items():
                stem = f"r{r}n{n}-{kind}"
                m = from_vectors(rows)
                labels = rng.sample(range(2, 40), n)
                write(f"{stem}.vec", "".join(",".join(map(str, row)) + "\n" for row in rows))
                write(f"{stem}.chi", serialize_chi(m))
                write(f"{stem}.hls", serialize_hls(from_chirotope(m)))
                write(f"{stem}-labels.hls", serialize_hls(from_chirotope(
                    SignMap(r, n, [v for _, v in m.items()], labels))))
                # one sign negated or zeroed: mostly no chirotope
                signs = [v for _, v in m.items()]
                i = rng.choice([i for i, v in enumerate(signs) if v])
                signs[i] = rng.choice((-signs[i], 0))
                write(f"{stem}-changed.chi", serialize_chi(SignMap(r, n, signs)))
                yield from ((f"{stem}{tail}", ids, r) for tail in
                            (".vec", ".chi", ".hls", "-changed.chi"))
                yield f"{stem}-labels.hls", labels, r
            write(f"r{r}n{n}-signs.chi", serialize_chi(random_signmap(rng, n, r)))
            yield f"r{r}n{n}-signs.chi", ids, r
            if r < 5:  # rank 5 has too many neighbours to build quickly
                x = from_chirotope(from_vectors(configs["random"]))
                for j, v in enumerate(rng.sample(neighbours(x), 2)):
                    write(f"r{r}n{n}-move{j}.hls", serialize_hls(v))
                    yield f"r{r}n{n}-move{j}.hls", ids, r
    for name, text in MALFORMED.items():
        write(name, text)
        yield name, [1, 2, 3], 2
    for sign in (1, -1):
        m, stem = non_pappus(sign), f"non-pappus{sign:+d}"
        write(f"{stem}.chi", serialize_chi(m))
        write(f"{stem}.hls", serialize_hls(from_chirotope(m)))
        yield from ((stem + tail, list(range(1, 10)), 3) for tail in (".chi", ".hls"))


def commands(rng, name, labels, rank):
    """(family, argv) of every command run on one file."""
    a, b = rng.sample(labels, 2)
    bad = rng.choice((",,", "x", "1,,y"))
    too_many = ",".join(map(str, labels[:len(labels) - rank + 1]))
    minors = [["--delete", "auto"], ["--delete", str(a)], ["--contract", str(a)],
              ["--delete", str(a), "--contract", str(b)], ["--contract", f"{a},{b}"],
              ["--delete", too_many], ["--contract", f"{a},{a}"], ["--delete", f"{a},{a}"],
              ["--delete", "", "--contract", str(b)], ["--delete", "99"],
              [rng.choice(("--delete", "--contract")), bad], []]
    yield "check", ["check", name]
    yield "convert-chi", ["convert", name, "--to", "chi"]
    yield "convert-hls", ["convert", name, "--to", "hls"]
    yield from (("minor", ["minor", name, *flags]) for flags in minors)
    yield "faces", ["faces", name]
    yield "render", ["render", name]


def enumerate_commands():
    """(family, argv) of the enumerate family: each (n, r) with n <= 8 and
    r <= 5, with and without --uniform and --bodies, under the default
    --jobs, --jobs 0 and --jobs 2, plus an absurd size.  A scan the
    default limit of 3^10 maps admits is left out past 3^8 maps, since it
    takes seconds."""
    flags = itertools.product(([], ["--uniform"]), ([], ["--bodies"]),
                              ([], ["--jobs", "0"], ["--jobs", "2"]))
    for (uniform, bodies, jobs), n, r in itertools.product(flags, range(9), range(6)):
        maps = (2 if uniform else 3) ** math.comb(n, r)
        if 3**8 < maps <= 3**10 and jobs != ["--jobs", "0"]:
            continue
        yield "enumerate", ["enumerate", str(n), str(r), *uniform, *bodies, *jobs]
    yield "enumerate", ["enumerate", "1000000", "500000"]


def worker():
    """Run the argv list read from stdin through cli.main in this process;
    print omkit's path and one [exit code, stdout, stderr] per command."""
    import omkit.cli

    os.chdir(sys.argv[2])
    answers = []
    for argv in json.load(sys.stdin):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = omkit.cli.main(argv)
            except Exception as e:  # a traceback from om: recorded, not fatal here
                code = f"raised {type(e).__name__}: {e}"
        answers.append([code, out.getvalue(), err.getvalue()])
    json.dump({"omkit": omkit.__file__, "answers": answers}, sys.stdout)


def run_tree(src, argvs, tmp):
    env = {k: v for k, v in os.environ.items() if k != "OM_SIZE_OVERRIDE"}
    env["PYTHONPATH"] = os.path.abspath(src)
    res = subprocess.run([sys.executable, __file__, "--worker", tmp], input=json.dumps(argvs),
                         capture_output=True, text=True, env=env)
    if res.returncode:
        sys.exit(f"--src {src}: the worker exited {res.returncode}:\n{res.stderr}")
    got = json.loads(res.stdout)
    if not got["omkit"].startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"--src {src} ran the omkit at {got['omkit']}")
    return got["answers"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--src", action="append", required=True, help="a source tree; at most two")
    args = ap.parse_args()
    if len(args.src) > 2:
        ap.error("at most two --src")
    sys.path[:0] = [os.path.abspath(args.src[0]), HERE]
    rng = random.Random(args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        runs = [cmd for f in list(corpus(rng, tmp)) for cmd in commands(rng, *f)]
        runs += enumerate_commands()
        argvs = [argv for _, argv in runs]
        trees = [run_tree(src, argvs, tmp) for src in args.src]
    status = 0
    for src, answers in zip(args.src, trees):
        print(f"--src {src}: {len(answers)} commands")
        families = defaultdict(list)
        for (family, argv), ans in zip(runs, answers):
            families[family].append([argv, ans])
        for family, group in families.items():
            codes = Counter(str(ans[0]) for _, ans in group)
            raised = sum(n for code, n in codes.items() if code.startswith("raised"))
            digest = hashlib.sha256(json.dumps(group).encode()).hexdigest()[:16]
            exits = " ".join(f"exit{c}={codes[c]}" for c in ("0", "1", "2"))
            print(f"  {family:12} {len(group):5} commands  {exits}  raised={raised}  {digest}")
            status |= raised > 0
    if len(trees) == 2:
        differ = [(argv, old, new) for argv, old, new in zip(argvs, *trees) if old != new]
        for argv, old, new in differ:
            print("om " + " ".join(argv))
            for what, i in (("exit", 0), ("stdout", 1), ("stderr", 2)):
                if old[i] != new[i]:
                    print(f"  {what}: {str(old[i])[:300]!r} -> {str(new[i])[:300]!r}")
        print(f"{len(differ)} of {len(argvs)} commands answer differently")
        status |= bool(differ)
    return int(status)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker()
    else:
        sys.exit(main())
