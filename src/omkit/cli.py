"""Command line front end.

Exit codes: 0 success (input valid where validity is the question),
1 invalid input or a domain refusal (size guard, impossible minor),
2 usage or parse errors.  OM_SIZE_OVERRIDE=1 lifts the size limits set here.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from .chirotope import (check_chirotope, contract, delete, enumerate_bodies, find_deletable,
                        from_vectors, subset_count)
from .errors import OmError, ParseError, SizeGuardError
from .formats import (parse_chi, parse_hls, parse_vec, render_rank2_svg, serialize_chi,
                      serialize_hls)

# hyperline and faces are imported by the commands that run them, so a
# command loads only what it executes


MAX_CHECK_N = 9  # every loaded input
MAX_CHECK_RANK = 5
MAX_ENUM_MAPS = 3**10  # sign maps one enumeration may scan


def _guard(within, what):
    """Refuse work past a default limit unless OM_SIZE_OVERRIDE=1."""
    if not within and os.environ.get("OM_SIZE_OVERRIDE") != "1":
        raise SizeGuardError(f"{what}; lift explicitly to proceed")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write_text(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _sniff(text: str) -> str:
    for line in text.splitlines():
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        if s.startswith("{"):
            return "hls"
        # a .chi header has two fields, a one-column .vec row one
        if "," in s or len(s.split()) == 1:
            return "vec"
        return "chi"
    return "chi"


def _load(args):
    """Parse args.file into ('chi'|'hls'|'vec', object), refused past the
    size guard before a .vec is realized to a SignMap."""
    text = _read_text(args.file)
    fmt = args.format or _sniff(text)
    if fmt == "hls":
        obj = parse_hls(text)
        n, rank = len(obj.ground), obj.rank
    elif fmt == "vec":
        obj = parse_vec(text)
        n, rank = obj.n, obj.r
    else:
        obj = parse_chi(text)
        n, rank = obj.n, obj.rank
    _guard(n <= MAX_CHECK_N and rank <= MAX_CHECK_RANK,
           f"axiom check guarded at n <= {MAX_CHECK_N}, rank <= {MAX_CHECK_RANK} "
           f"(got n={n}, rank={rank})")
    if fmt == "vec":
        obj = from_vectors(obj)
    return fmt, obj


def _report(kind, obj):
    if kind != "hls":
        return check_chirotope(obj)
    from .hyperline import check_hyperline

    return check_hyperline(obj)


def _valid(kind, obj, to):
    """The input as a SignMap (to "chi") or a sequence (to "hls"), or None
    once the report of its violations is printed.  A realized .vec is a
    chirotope by construction, so it goes unchecked."""
    if kind != "vec" and not (report := _report(kind, obj)).ok:
        print(report, file=sys.stderr)
        return None
    if (kind == "hls") == (to == "hls"):
        return obj
    from . import hyperline

    return hyperline.from_chirotope(obj) if to == "hls" else hyperline.to_chirotope(obj)


def _write(path, x, to):
    """Write x as .hls, or as .chi with an `ids:` line on stderr naming
    the labels when they are not 1..n."""
    if to == "hls":
        _write_text(path, serialize_hls(x))
        return
    if x.labels != tuple(range(1, x.n + 1)):
        pairs = " ".join(f"{i + 1}={lab}" for i, lab in enumerate(x.labels))
        print(f"ids: {pairs}", file=sys.stderr)
    _write_text(path, serialize_chi(x))


# ------------------------------------------------------------- subcommands

def _cmd_check(args):
    report = _report(*_load(args))
    print(report)
    return 0 if report.ok else 1


def _cmd_convert(args):
    x = _valid(*_load(args), args.to)
    if x is None:
        return 1
    _write(args.output, x, args.to)
    return 0


def _parse_id_list(raw):
    try:
        ids = [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ParseError(f"bad element list {raw!r}") from None
    if not ids:
        raise ParseError(f"bad element list {raw!r}")
    return ids


def _cmd_minor(args):
    if args.delete is None and args.contract is None:
        raise ParseError("nothing to do: pass --delete and/or --contract")
    # read before the file: a malformed list exits 2 whatever the file holds
    dels = None if args.delete in (None, "auto") else _parse_id_list(args.delete)
    cons = None if args.contract is None else _parse_id_list(args.contract)
    kind, obj = _load(args)
    m = _valid(kind, obj, "chi")
    if m is None:
        return 1

    if args.delete == "auto":
        e, m = find_deletable(m)
        print(f"deleting element {e}", file=sys.stderr)
    elif dels is not None:
        m = delete(m, dels)

    if cons is not None:
        m = contract(m, cons)

    # the minor of a chirotope is one, so it goes unchecked like a .vec
    to = "hls" if kind == "hls" else "chi"
    _write(args.output, _valid("vec", m, to), to)
    return 0


def _cmd_faces(args):
    from .faces import face_census, topes

    m = _valid(*_load(args), "chi")
    if m is None:
        return 1
    if m.rank == 3:
        c = face_census(m)
        print(f"V={c.vertices} E={c.edges} F={c.facets} euler={c.euler}")
        return 0
    print(f"face census applies to rank 3 only (rank {m.rank}); listing topes",
          file=sys.stderr)
    ts = sorted(topes(m))
    # one write: with unbuffered stdout each print is a system call
    sys.stdout.write("".join("".join("+" if v > 0 else "-" for v in t) + "\n" for t in ts)
                     + f"topes={len(ts)}\n")
    return 0


def _cmd_render(args):
    kind, obj = _load(args)
    if obj.rank != 2:
        raise ParseError(f"render needs rank 2, got rank {obj.rank}")
    x = _valid(kind, obj, "hls")
    if x is None:
        return 1
    _write_text(args.output, render_rank2_svg(x))
    return 0


# -------------------------------------------------------------- enumerate

def _cmd_enumerate(args):
    n, r = args.n, args.r
    width, base = subset_count(n, r), 2 if args.uniform else 3
    # --jobs starts no process; a bad one is named after a bad N or R
    if args.jobs is not None and args.jobs < 1 and n >= r >= 1:
        raise ValueError("jobs must be at least 1")
    # the power is capped, so that a huge width is refused at once
    _guard(width is not None and base ** min(width, 64) <= MAX_ENUM_MAPS,
           f"enumeration over {base}^{width or f'C({n}, {r})'} sign maps is guarded "
           f"(limit {MAX_ENUM_MAPS})")
    count, total, bodies = enumerate_bodies(n, r, args.uniform, args.bodies)
    sys.stdout.write("".join(b + "\n" for b in bodies) + f"valid={count} total={total}\n")
    return 0


# ------------------------------------------------------------------- main

_IN = {"--format": ("chi", "hls", "vec")}
_OUT = {**_IN, "--output": str}
# command: handler, positionals, options.  A value must be one of its
# choices or convert by its type; None marks a flag.  "-o" spells
# "--output", and convert's "--to" is required.
_COMMANDS = {
    "check": (_cmd_check, {"file": str}, _IN),
    "convert": (_cmd_convert, {"file": str}, {**_OUT, "--to": ("chi", "hls")}),
    "minor": (_cmd_minor, {"file": str}, {**_OUT, "--delete": str, "--contract": str}),
    "faces": (_cmd_faces, {"file": str}, _IN),
    "enumerate": (_cmd_enumerate, {"n": int, "r": int},
                  {"--uniform": None, "--bodies": None, "--jobs": int}),
    "render": (_cmd_render, {"file": str}, _OUT),
}
USAGE = """\
usage: om check FILE [--format chi|hls|vec]
       om convert FILE --to chi|hls [--format chi|hls|vec] [-o PATH]
       om minor FILE [--delete IDS|auto] [--contract IDS] [--format chi|hls|vec] [-o PATH]
       om faces FILE [--format chi|hls|vec]
       om enumerate N R [--uniform] [--bodies] [--jobs N]
       om render FILE [--format chi|hls|vec] [-o PATH]
FILE - reads stdin; IDS are comma separated element ids, auto the smallest deletable.
"""


class _UsageError(Exception):
    pass


def _value(name, kind, raw):
    try:
        if not isinstance(kind, tuple):
            return kind(raw)
        if raw in kind:
            return raw
    except ValueError:
        pass
    raise _UsageError(f"invalid {name} {raw!r}")


def _scan(argv):
    """Handler and arguments of a command line, read against _COMMANDS."""
    if not argv or argv[0] not in _COMMANDS:
        raise _UsageError(f"unknown command {argv[0]!r}" if argv else "no command")
    fn, positionals, options = _COMMANDS[argv[0]]
    args = {opt[2:]: None if kind else False for opt, kind in options.items()}
    words, rest = [], iter(argv[1:])
    for tok in rest:
        opt, eq, raw = tok.partition("=")
        opt = "--output" if opt == "-o" else opt
        kind = options.get(opt, ())
        if tok == "--":
            words.extend(rest)
        elif tok == "-" or not tok.startswith("-"):
            words.append(tok)
        elif kind is None and not eq:
            args[opt[2:]] = True
        elif kind and (eq or (raw := next(rest, None)) is not None):
            args[opt[2:]] = _value(opt, kind, raw)
        else:
            raise _UsageError(f"unknown option, or no value, in {tok!r}")
    if len(words) != len(positionals):
        raise _UsageError(f"{argv[0]} takes {' '.join(positionals).upper()}, got {words}")
    args.update((k, _value(k, kind, w)) for (k, kind), w in zip(positionals.items(), words))
    if "--to" in options and args["to"] is None:
        raise _UsageError("convert needs --to")
    return fn, SimpleNamespace(**args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # -h or --help anywhere before "--" prints the usage
        if {"-h", "--help"} & set(argv[:argv.index("--") if "--" in argv else None]):
            sys.stdout.write(USAGE)
            return 0
        fn, args = _scan(argv)
        return fn(args)
    except _UsageError as e:
        sys.stderr.write(f"{USAGE}om: error: {e}\n")
        return 2
    except (ParseError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OmError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def run():
    """The `om` process: main, then os._exit once the output is flushed."""
    code = main()
    try:
        sys.stdout.flush()
    except OSError as e:  # a closed pipe exits 2, as it does unbuffered
        print(f"error: {e}", file=sys.stderr)
        code = 2
    sys.stderr.flush()
    os._exit(code)
