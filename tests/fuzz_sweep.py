"""Fuzz sweep of every file-taking `om` command, in one process.

    PYTHONPATH=src python tests/fuzz_sweep.py --seed 1 --count 20000

Seed files are .chi, .vec and .hls texts of small configurations (rank 1
to 4, n <= 6), valid or one sign away, some .hls on labels other than
1..n.  Each input is a seed mutated one to three times, byte-wise (any
file) or on its decoded JSON tree (.hls), and one command run on it
through omkit.cli.main: check, convert to either format, minor with
element lists good or malformed, faces or render, sometimes with a
forced --format.  Every input must meet these rules:

  - the exit code is 0, 1 or 2, and cli.main raised nothing
  - stderr holds a message when the exit code is not 0; only check
    exiting 1 may leave it empty, as it prints its report on stdout
  - stdout is empty on exit 2
  - a malformed --delete or --contract list exits 2, whatever the file
    holds

Prints each input that breaks a rule and the counts; exits 1 when one
does, else 0.  Uses the standard library and omkit only.
"""

import argparse
import contextlib
import copy
import io
import json
import os
import random
import sys
import tempfile
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))

MALFORMED_LISTS = (",,", "x", "1,,y", "", "1.5", "2,-")
# bytes a mutation writes: mostly ones that keep a file of the kind
# parseable, then any byte
KEEP = {"chi": b"+-0+-0 \n123", "vec": b"-0123456789,/", "hls": b"~0123456789"}
ALPHABET = b'+-0123456789~,/ \n\t#{}[]":x\xff\xc3'


def seeds(rng):
    """(kind, text) of every seed file."""
    from helpers import random_fullrank_rows
    from omkit import SignMap, from_chirotope, from_vectors, serialize_chi, serialize_hls

    out = [("chi", "1 3\n+-+\n"), ("vec", "1\n-2\n3/4\n")]
    for r in range(2, 5):
        for n in range(r, 7):
            rows = random_fullrank_rows(rng, n, r, bound=3)
            m = from_vectors(rows)
            signs = [v for _, v in m.items()]
            i = rng.randrange(len(signs))
            signs[i] = rng.choice([v for v in (-1, 0, 1) if v != signs[i]])
            labelled = SignMap(r, n, [v for _, v in m.items()], rng.sample(range(2, 20), n))
            out += [("vec", "".join(",".join(map(str, row)) + "\n" for row in rows)),
                    ("chi", serialize_chi(m)),
                    ("chi", serialize_chi(SignMap(r, n, signs))),
                    ("hls", serialize_hls(from_chirotope(m))),
                    ("hls", serialize_hls(from_chirotope(labelled)))]
    return out


def mutate_bytes(rng, kind, data):
    """data with one byte replaced or two swapped, which keep a .chi body
    its length, or a span deleted, bytes inserted or a span duplicated."""
    def some():
        pick = rng.random()
        alphabet = KEEP[kind] if pick < 0.7 else ALPHABET if pick < 0.95 else range(256)
        return bytes(rng.choices(alphabet, k=rng.randint(1, 2)))

    if not data:
        return some()
    i = rng.randrange(len(data))
    j = min(len(data), i + rng.randint(1, 4))
    op = rng.randrange(8)
    if op < 3:
        return data[:i] + some()[:1] + data[i + 1:]
    if op == 3:
        return data[:i] + data[j:]
    if op == 4:
        return data[:i] + some() + data[i:]
    if op == 5:
        return data[:j] + data[i:j] + data[j:]
    k = rng.randrange(len(data))
    b = bytearray(data)
    b[i], b[k] = b[k], b[i]
    return bytes(b)


def _slots(node):
    """(container, key) of every value inside a decoded JSON tree."""
    out = []
    stack = [node]
    while stack:
        c = stack.pop()
        keys = range(len(c)) if isinstance(c, list) else list(c) if isinstance(c, dict) else ()
        for k in keys:
            out.append((c, k))
            stack.append(c[k])
    return out


def mutate_tree(rng, tree):
    """tree with one value replaced by an element token, a rank, another
    value of the tree or an empty container; or one value dropped,
    duplicated or wrapped in a list."""
    slots = _slots(tree)
    if not slots:
        return rng.choice(([], {}, {"rank": 2}, "1"))
    c, k = rng.choice(slots)
    op = rng.randrange(7)
    if op == 0:
        c[k] = rng.choice(("1", "~1", "0", "~0", "", "x", "07", str(rng.randint(1, 12)),
                           "~" + str(rng.randint(1, 12)), 3, None, True))
    elif op == 1:
        c[k] = rng.choice((-1, 0, 1, 2, 3, 4, 5, 7, "3", True, 2.0))
    elif op == 2:
        other, key = rng.choice(slots)
        c[k] = copy.deepcopy(other[key])
    elif op == 3:
        c[k] = rng.choice(([], {}, [[]], {"rank": 1}))
    elif op == 4:
        del c[k]
    elif op == 5 and isinstance(c, list):
        c.insert(k, copy.deepcopy(c[k]))
    else:
        c[k] = [c[k]]
    return tree


def mutated(rng, kind, text):
    """Bytes of text mutated one to three times, once in most inputs."""
    times = rng.choice((1, 1, 1, 2, 3))
    if kind == "hls" and rng.random() < 0.5:
        tree = json.loads(text)
        for _ in range(times):
            tree = mutate_tree(rng, tree)
        return json.dumps(tree, separators=(",", ":")).encode()
    data = text.encode()
    for _ in range(times):
        data = mutate_bytes(rng, kind, data)
    return data


def command(rng, path):
    """(argv, whether an element list in it is malformed) of one command."""
    def ids():
        if rng.random() < 0.15:
            return rng.choice(MALFORMED_LISTS), True
        return ",".join(str(rng.randint(1, 10)) for _ in range(rng.randint(1, 3))), False

    malformed = False
    family = rng.choice(("check", "convert", "minor", "faces", "render"))
    argv = [family, path]
    if family == "convert":
        argv += ["--to", rng.choice(("chi", "hls"))]
    elif family == "minor":
        for flag in rng.choice((["--delete"], ["--contract"], ["--delete", "--contract"])):
            raw, bad = ("auto", False) if flag == "--delete" and rng.random() < 0.3 else ids()
            argv += [flag, raw]
            malformed |= bad
    if rng.random() < 0.2:
        argv += ["--format", rng.choice(("chi", "hls", "vec"))]
    return argv, malformed


def faults_of(argv, malformed, code, out, err):
    """The rules one answer breaks."""
    if not isinstance(code, int) or code not in (0, 1, 2):
        return [f"exit code {code!r}"]
    faults = []
    if code and not err and not (argv[0] == "check" and code == 1):
        faults.append("no message on stderr")
    if code == 2 and out:
        faults.append("stdout on exit 2")
    if malformed and code != 2:
        faults.append("a malformed element list did not exit 2")
    return faults


def sweep(seed, count):
    """(Counter of exit codes, list of (argv, input bytes, faults, answer))
    for count seeded inputs."""
    from omkit import cli

    rng = random.Random(seed)
    pool = seeds(rng)
    codes = Counter()
    found = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        for _ in range(count):
            kind, text = rng.choice(pool)
            data = mutated(rng, kind, text)
            with open(path, "wb") as fh:
                fh.write(data)
            argv, malformed = command(rng, path)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except Exception as e:  # a traceback from om: a fault
                    code = f"raised {type(e).__name__}: {e}"
            codes[code if isinstance(code, int) else "raised"] += 1
            answer = (code, out.getvalue(), err.getvalue())
            faults = faults_of(argv, malformed, *answer)
            if faults:
                found.append((["FILE" if a == path else a for a in argv], data, faults, answer))
    return codes, found


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--count", type=int, required=True)
    args = ap.parse_args()
    sys.path.insert(0, HERE)
    os.environ.pop("OM_SIZE_OVERRIDE", None)
    codes, found = sweep(args.seed, args.count)
    for argv, data, faults, (code, out, err) in found:
        print(f"om {' '.join(argv)}: {'; '.join(faults)}")
        print(f"  FILE: {data[:300]!r}")
        print(f"  exit {code!r}, stdout {out[:200]!r}, stderr {err[:200]!r}")
    print(f"{args.count} inputs, seed {args.seed}: "
          + " ".join(f"exit{c}={codes[c]}" for c in (0, 1, 2))
          + f" raised={codes['raised']}; {len(found)} break a rule")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
