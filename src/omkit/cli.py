"""Command line front end.

Exit codes: 0 success (input valid where validity is the question),
1 invalid input or a domain refusal (size guard, impossible minor),
2 usage or parse errors.  Set OM_SIZE_OVERRIDE=1 to lift the size guards.
"""

from __future__ import annotations

import argparse
import os
import sys

from .chirotope import (
    SignMap,
    check_chirotope,
    contract,
    delete,
    enumerate_bodies,
    find_deletable,
    from_vectors,
    guard_check_size,
)
from .errors import OmError, ParseError
from .formats import (
    parse_chi,
    parse_hls,
    parse_vec,
    render_rank2_svg,
    serialize_chi,
    serialize_hls,
)

# hyperline and faces are imported by the commands that run them, so a
# command loads only what it executes


def _env_large() -> bool:
    return os.environ.get("OM_SIZE_OVERRIDE") == "1"


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
        if "," in s:
            return "vec"
        return "chi"
    return "chi"


def _load(text, fmt):
    """Parse input into ('chi'|'hls'|'vec', object).  Vector input is size
    guarded, then realized to a SignMap."""
    fmt = fmt or _sniff(text)
    if fmt == "hls":
        return "hls", parse_hls(text)
    if fmt == "vec":
        cfg = parse_vec(text)
        guard_check_size(cfg.n, cfg.r, _env_large())
        return "vec", from_vectors(cfg)
    return "chi", parse_chi(text)


def _as_chirotope(kind, obj):
    if kind != "hls":
        return obj
    from .hyperline import to_chirotope

    return to_chirotope(obj)


def _as_sequence(kind, obj):
    if kind == "hls":
        return obj
    from .hyperline import from_chirotope

    return from_chirotope(obj)


def _emit_id_map(m: SignMap):
    if m.labels != tuple(range(1, m.n + 1)):
        pairs = " ".join(f"{i + 1}={lab}" for i, lab in enumerate(m.labels))
        print(f"ids: {pairs}", file=sys.stderr)


def _report(kind, obj):
    if kind != "hls":
        return check_chirotope(obj, _env_large())
    from .hyperline import check_hyperline

    return check_hyperline(obj, _env_large())


def _validated(kind, obj):
    """Check the object; on violations print the report and return None."""
    if kind == "vec":  # a realized configuration is a chirotope by construction
        return obj
    report = _report(kind, obj)
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if not report.ok:
        for v in report.violations:
            print(str(v), file=sys.stderr)
        return None
    return obj


# ------------------------------------------------------------- subcommands

def _cmd_check(args):
    report = _report(*_load(_read_text(args.file), args.format))
    print(report)
    return 0 if report.ok else 1


def _cmd_convert(args):
    kind, obj = _load(_read_text(args.file), args.format)
    if _validated(kind, obj) is None:
        return 1
    if args.to == "chi":
        m = _as_chirotope(kind, obj)
        _emit_id_map(m)
        _write_text(args.output, serialize_chi(m))
    else:
        _write_text(args.output, serialize_hls(_as_sequence(kind, obj)))
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
    if not args.delete and not args.contract:
        raise ParseError("nothing to do: pass --delete and/or --contract")
    kind, obj = _load(_read_text(args.file), args.format)
    if _validated(kind, obj) is None:
        return 1
    m = _as_chirotope(kind, obj)
    allow = _env_large()

    if args.delete:
        if args.delete == "auto":
            e = find_deletable(m, allow)
            print(f"deleting element {m.label_of(e)}", file=sys.stderr)
            internal = [e]
        else:
            internal = m.ids(_parse_id_list(args.delete))
        m, report = delete(m, internal, allow)
        if not report.ok:
            print("deletion does not leave a chirotope:", file=sys.stderr)
            for line in report.lines():
                print(line, file=sys.stderr)
            return 1

    if args.contract:
        m = contract(m, m.ids(_parse_id_list(args.contract)))

    if kind == "hls":
        _write_text(args.output, serialize_hls(_as_sequence("chi", m)))
    else:
        _emit_id_map(m)
        _write_text(args.output, serialize_chi(m))
    return 0


def _cmd_faces(args):
    from .faces import face_census, topes

    kind, obj = _load(_read_text(args.file), args.format)
    if _validated(kind, obj) is None:
        return 1
    m = _as_chirotope(kind, obj)
    if m.rank == 3:
        c = face_census(m, _env_large())
        print(f"V={c.vertices} E={c.edges} F={c.facets} euler={c.euler}")
        return 0
    print(
        f"face census applies to rank 3 only (rank {m.rank}); listing topes",
        file=sys.stderr,
    )
    ts = sorted(topes(m, _env_large()))
    for t in ts:
        print("".join("+" if v > 0 else "-" for v in t))
    print(f"topes={len(ts)}")
    return 0


def _cmd_render(args):
    kind, obj = _load(_read_text(args.file), args.format)
    if obj.rank != 2:
        raise ParseError(f"render needs rank 2, got rank {obj.rank}")
    if _validated(kind, obj) is None:
        return 1
    _write_text(args.output, render_rank2_svg(_as_sequence(kind, obj)))
    return 0


# -------------------------------------------------------------- enumerate

def _cmd_enumerate(args):
    count, total, bodies = enumerate_bodies(
        args.n,
        args.r,
        uniform=args.uniform,
        jobs=args.jobs,
        want_bodies=args.bodies,
        allow_large=_env_large(),
    )
    for b in bodies:
        print(b)
    print(f"valid={count} total={total}")
    return 0


# ------------------------------------------------------------------- main

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="om",
        description="Exact tools for oriented matroids: validate, convert, "
        "take minors, count faces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("file", help="input path, or - for stdin")
        p.add_argument(
            "--format",
            choices=("chi", "hls", "vec"),
            help="input format (default: sniff)",
        )

    p = sub.add_parser("check", help="validate against the axioms")
    add_input(p)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("convert", help="convert between representations")
    add_input(p)
    p.add_argument("--to", choices=("chi", "hls"), required=True)
    p.add_argument("-o", "--output", help="output path (default: stdout)")
    p.set_defaults(fn=_cmd_convert)

    p = sub.add_parser("minor", help="delete and/or contract elements")
    add_input(p)
    p.add_argument(
        "--delete",
        metavar="IDS|auto",
        help="comma separated element ids, or 'auto' for the smallest "
        "element whose deletion validates",
    )
    p.add_argument("--contract", metavar="IDS", help="comma separated element ids")
    p.add_argument("-o", "--output", help="output path (default: stdout)")
    p.set_defaults(fn=_cmd_minor)

    p = sub.add_parser("faces", help="face census (rank 3) or tope list")
    add_input(p)
    p.set_defaults(fn=_cmd_faces)

    p = sub.add_parser("enumerate", help="count valid sign assignments")
    p.add_argument("n", type=int)
    p.add_argument("r", type=int)
    p.add_argument("--uniform", action="store_true", help="no zero values")
    p.add_argument("--bodies", action="store_true", help="print each valid body")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("render", help="SVG diagram of a rank 2 sequence")
    add_input(p)
    p.add_argument("-o", "--output", help="output path (default: stdout)")
    p.set_defaults(fn=_cmd_render)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OmError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
