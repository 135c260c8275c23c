"""Text formats: .chi sign-map files, .hls JSON files, .vec CSV files,
and an SVG rendering of rank 2 sequences.

Serializers emit one canonical byte string per object (fixed ordering,
fixed separators, trailing newline), so equal objects serialize equal and
convert runs are reproducible byte for byte.
"""

from __future__ import annotations

import math

from .chirotope import SignMap, VectorConfig, subset_count
from .errors import ParseError

_SIGN_CHAR = {1: "+", 0: "0", -1: "-"}
_CHAR_SIGN = {"+": 1, "0": 0, "-": -1}


def _content_lines(text):
    """(line_number, line) pairs with blank and # comment lines dropped."""
    out = []
    for i, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        out.append((i, line))
    return out


# -------------------------------------------------------------------- .chi

def parse_chi(text: str) -> SignMap:
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty input")
    header_no, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise ParseError("header must be 'rank n'", line=header_no)
    rank, n = map(_parse_int, parts)
    if rank is None or n is None:
        raise ParseError("header must be two integers", line=header_no)
    if rank < 1 or n < 1:
        raise ParseError("rank and n must be positive", line=header_no)
    if n < rank:
        raise ParseError(f"n={n} is smaller than rank={rank}", line=header_no)

    body = []
    for line_no, line in lines[1:]:
        for col, ch in enumerate(line.strip(), start=1):
            if ch not in _CHAR_SIGN:
                raise ParseError(
                    f"unexpected character {ch!r}", line=line_no, column=col
                )
            body.append(_CHAR_SIGN[ch])
    # the header, unlike the body, is not bounded by the input's length
    expected = subset_count(n, rank)
    if len(body) != expected:
        raise ParseError(
            f"body has {len(body)} signs, expected {expected or f'C({n}, {rank})'} "
            f"(one per {rank}-subset of 1..{n})"
        )
    return SignMap(rank, n, body)


def serialize_chi(m: SignMap) -> str:
    body = "".join(_SIGN_CHAR[v] for _, v in m.items())
    return f"{m.rank} {m.n}\n{body}\n"


# -------------------------------------------------------------------- .hls

def _digits(s):
    """Is s one or more ASCII digits?  str.isdigit alone also takes '²'."""
    return s.isascii() and s.isdigit()


def _element_json(s: int) -> str:
    return f'"{s}"' if s > 0 else f'"~{-s}"'


def _parse_element(tok, path, *index):
    digits = tok[1:] if isinstance(tok, str) and tok[:1] == "~" else tok
    if not isinstance(tok, str) or not _digits(digits) or digits[0] == "0":
        where = path + "".join(f"[{i}]" for i in index)
        raise ParseError(f"{where}: bad element {tok!r} (want '5' or '~5')")
    return -int(tok[1:]) if tok.startswith("~") else int(tok)


def _hls_json(x, memo):
    """JSON text of a sequence with sorted keys and no spaces, built once
    per shared component from its stored encodings."""
    text = memo.get(x)
    if text is None:
        if x.rank == 1:
            body = '"elements":[' + ",".join(map(_element_json, x.enc))
        elif x.rank == 2:
            body = '"atoms":[' + ",".join(
                "[" + ",".join(map(_element_json, a)) + "]" for a in x.enc)
        else:
            body = '"hyperlines":[' + ",".join(
                f'{{"Y":{_hls_json(h.y, memo)},"Z":{_hls_json(h.z, memo)}}}'
                for h in x.hyperlines)
        text = memo[x] = f'{{{body}],"rank":{x.rank}}}'
    return text


def serialize_hls(x) -> str:
    return _hls_json(x, {}) + "\n"


def parse_hls(text: str):
    import json

    from .hyperline import HLHigher, HLRank1, HLRank2, Hyperline

    memo = {}

    def sequence(obj, path):
        """Sequence of a decoded .hls object.  memo holds one object per
        distinct component, and each rank 1 or 2 one also under the repr
        of its JSON."""
        if not isinstance(obj, dict):
            raise ParseError(f"{path}: expected an object")
        rank = obj.get("rank")
        if type(rank) is not int or rank < 1:  # JSON true is no rank
            raise ParseError(f"{path}: 'rank' must be a positive integer")
        if rank <= 2:
            raw = (rank, repr(obj.get("elements" if rank == 1 else "atoms")))
            x = memo.get(raw)
            if x is None:
                x = leaf(obj, rank, path)
                x = memo[raw] = memo.setdefault(x, x)
            return x
        hls = obj.get("hyperlines")
        if not isinstance(hls, list) or not hls:
            raise ParseError(f"{path}: rank {rank} needs a nonempty 'hyperlines' list")
        parsed = []
        for i, h in enumerate(hls):
            at = f"{path}.hyperlines[{i}]"
            if not isinstance(h, dict) or "Y" not in h or "Z" not in h:
                raise ParseError(f"{at}: expected an object with 'Y' and 'Z'")
            y = sequence(h["Y"], at + ".Y")
            z = sequence(h["Z"], at + ".Z")
            if y.rank != rank - 2:
                raise ParseError(f"{at}.Y: rank {y.rank}, expected {rank - 2}")
            if z.rank != 2:
                raise ParseError(f"{at}.Z: rank {z.rank}, expected 2")
            parsed.append(Hyperline(y, z))
        x = HLHigher(rank, parsed)
        return memo.setdefault(x, x)

    def leaf(obj, rank, path):
        name = "elements" if rank == 1 else "atoms"
        items = obj.get(name)
        if not isinstance(items, list) or not items:
            raise ParseError(f"{path}: rank {rank} needs a nonempty '{name}' list")
        if rank == 1:
            return HLRank1({_parse_element(t, f"{path}.elements", i)
                            for i, t in enumerate(items)})
        parsed = []
        for i, atom in enumerate(items):
            if not isinstance(atom, list) or not atom:
                raise ParseError(f"{path}.atoms[{i}]: atom must be a nonempty list")
            parsed.append({_parse_element(t, f"{path}.atoms", i, j)
                           for j, t in enumerate(atom)})
        return HLRank2(parsed)

    try:
        return sequence(json.loads(text), "$")
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, line=e.lineno, column=e.colno) from None
    except RecursionError:
        raise ParseError("sequence is nested too deeply") from None


# -------------------------------------------------------------------- .vec

def _parse_int(tok):
    """The value of an optionally signed run of ASCII digits, else None."""
    return int(tok) if _digits(tok[1:] if tok[:1] in ("+", "-") else tok) else None


def _parse_cell(tok, line_no, col):
    """An int for an integer token, a Fraction for p/q."""
    tok = tok.strip()
    num = _parse_int(tok)
    if num is not None:
        return num
    head, slash, den = tok.partition("/")
    num = _parse_int(head)
    if slash and num is not None and _digits(den):
        if int(den) == 0:
            raise ParseError("zero denominator", line=line_no, column=col)
        from fractions import Fraction

        return Fraction(num, int(den))
    hint = ""
    if any(c in tok for c in ".eE"):
        hint = " (floats are not exact; use p/q)"
    raise ParseError(f"bad entry {tok!r}{hint}", line=line_no, column=col)


def parse_vec(text: str) -> VectorConfig:
    rows = []
    for line_no, line in _content_lines(text):
        row = []
        col = 1
        for tok in line.split(","):
            row.append(_parse_cell(tok, line_no, col))
            col += len(tok) + 1
        rows.append(row)
    if not rows:
        raise ParseError("empty input")
    return VectorConfig(rows)


# --------------------------------------------------------------------- svg

def render_rank2_svg(x: HLRank2) -> str:
    """Circle diagram of a rank 2 sequence: one tick per atom, placed
    counterclockwise, antipodal atoms opposite.  Output is deterministic."""
    cx = cy = 180.0
    radius = 130.0
    p = x.period
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="360" height="360" '
        'viewBox="0 0 360 360">',
        f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{radius:.2f}" '
        'fill="none" stroke="black"/>',
    ]
    for a, atom in enumerate(x.enc):
        theta = 2.0 * math.pi * a / p
        ux, uy = math.cos(theta), -math.sin(theta)
        x1, y1 = cx + (radius - 7) * ux, cy + (radius - 7) * uy
        x2, y2 = cx + (radius + 7) * ux, cy + (radius + 7) * uy
        parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            'stroke="black"/>'
        )
        tx, ty = cx + (radius + 26) * ux, cy + (radius + 26) * uy
        spans = [f"<tspan>{s}</tspan>" if s > 0 else
                 f'<tspan text-decoration="overline">{-s}</tspan>' for s in atom]
        parts.append(
            f'<text x="{tx:.2f}" y="{ty:.2f}" font-size="14" '
            'text-anchor="middle" dominant-baseline="middle">'
            + "&#160;".join(spans)
            + "</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
