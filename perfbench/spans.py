"""Spans and counters recorded from outside the program.

`instrument` swaps each public function of the omkit layers for a wrapper
in every omkit module namespace that binds it, so calls between modules
(cli -> formats, faces -> chirotope, ...) and within one module are both
seen.  A span is (id, parent, name, start, end, op, outcome, outer); spans
are held in memory and written out when the run ends.  `outer` marks a
call with no enclosing call of the same function (of the same family for
the minors), so inclusive times do not count recursion twice.
"""

from __future__ import annotations

import importlib
import itertools
import json
from collections import Counter, defaultdict
from math import comb
from time import perf_counter

LAYERS = {
    "formats": ("parse_chi", "parse_hls", "parse_vec", "serialize_chi", "serialize_hls",
                "render_rank2_svg"),
    "chirotope": ("from_vectors", "check_chirotope", "delete", "contract", "find_deletable"),
    "hyperline": ("from_chirotope", "check_hyperline", "to_chirotope"),
    "faces": ("cocircuits", "covectors", "topes", "face_census", "fm_realizable_topes"),
    "cli": ("main", "enumerate_bodies"),
}
_MINORS = {"chirotope.delete", "chirotope.contract", "chirotope.find_deletable"}
_CHECKS = {"chirotope.check_chirotope", "hyperline.check_hyperline"}


def _hyperlines(x):
    return len(getattr(x, "hyperlines", ()))


# Work counters, kept at the same boundaries as the spans.  Each takes
# (args, result) of an outermost call.
COUNTERS = {
    "formats.parse_chi": lambda a, r: {"formats.bytes_read": len(a[0])},
    "formats.parse_hls": lambda a, r: {"formats.bytes_read": len(a[0])},
    "formats.parse_vec": lambda a, r: {"formats.bytes_read": len(a[0])},
    "chirotope.from_vectors": lambda a, r: {"chirotope.determinants": comb(r.n, r.rank)},
    "chirotope.check_chirotope": lambda a, r: {"chirotope.supports_checked": comb(a[0].n, a[0].rank)},
    "chirotope.delete": lambda a, r: {"chirotope.deletion_candidates": 1},
    "hyperline.from_chirotope": lambda a, r: {"hyperline.hyperlines": _hyperlines(r),
                                              "hyperline.bases": len(a[0].nonzero_supports())},
    "hyperline.check_hyperline": lambda a, r: {"hyperline.hyperlines": _hyperlines(a[0])},
    "hyperline.to_chirotope": lambda a, r: {"hyperline.bases": len(r.nonzero_supports())},
    "faces.cocircuits": lambda a, r: {"faces.cocircuits": len(r)},
    "faces.covectors": lambda a, r: {"faces.covectors": len(r)},
    "faces.topes": lambda a, r: {"faces.topes": len(r)},
    "faces.face_census": lambda a, r: {"faces.topes": r.facets},
    "cli.enumerate_bodies": lambda a, r: {"cli.maps_valid": r[0], "cli.maps_scanned": r[1]},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = defaultdict(Counter)  # is_probe(op) -> counter
        self.op = None
        self._ids = itertools.count()
        self._stack = []
        self._depth = Counter()

    def wrap(self, name, fn):
        group = "chirotope.minor" if name in _MINORS else name
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            sid = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            outer = self._depth[group] == 0
            self._stack.append(sid)
            self._depth[group] += 1
            self._depth[name] += group != name
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(sid, parent, name, group, t0, "raised", outer)
                raise
            outcome = ("valid" if result.ok else "reject") if name in _CHECKS else "ok"
            self._close(sid, parent, name, group, t0, outcome, outer)
            if count and self._depth[name] == 0:
                self.counters[is_probe(self.op)].update(count(args, result))
            return result

        return traced

    def _close(self, sid, parent, name, group, t0, outcome, outer):
        t1 = perf_counter()
        self._stack.pop()
        self._depth[group] -= 1
        self._depth[name] -= group != name
        self.spans.append((sid, parent, name, t0, t1, self.op, outcome, outer))

    def write(self, path):
        keys = ("id", "parent", "name", "start", "end", "op", "outcome", "outer")
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")


def is_probe(op):
    """Spans and counters of the fixed probe are kept apart from the
    workload's, which are reported per round."""
    return str(op).startswith("probe")


def instrument(tracer):
    """Wrap every function in LAYERS wherever an omkit module binds it.
    Returns a callable that restores the originals."""
    import omkit

    mods = [omkit] + [importlib.import_module(f"omkit.{m}")
                      for m in ("chirotope", "hyperline", "faces", "formats", "cli")]
    patches = []
    for layer, names in LAYERS.items():
        home = importlib.import_module(f"omkit.{layer}")
        for fname in names:
            fn = getattr(home, fname)
            wrapped = tracer.wrap(f"{layer}.{fname}", fn)
            for mod in mods:
                for attr in [a for a, v in vars(mod).items() if v is fn]:
                    patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapped)

    def restore():
        for mod, attr, fn in patches:
            setattr(mod, attr, fn)

    return restore


# ---------------------------------------------------------------- metrics

_INCLUSIVE = {
    "formats.parse_chi_s": "formats.parse_chi",
    "formats.parse_hls_s": "formats.parse_hls",
    "formats.parse_vec_s": "formats.parse_vec",
    "formats.serialize_chi_s": "formats.serialize_chi",
    "formats.serialize_hls_s": "formats.serialize_hls",
    "chirotope.from_vectors_s": "chirotope.from_vectors",
    "hyperline.from_chirotope_s": "hyperline.from_chirotope",
    "hyperline.check_s": "hyperline.check_hyperline",
    "hyperline.to_chirotope_s": "hyperline.to_chirotope",
    "faces.cocircuits_s": "faces.cocircuits",
    "faces.covectors_s": "faces.covectors",
    "faces.face_census_s": "faces.face_census",
    "faces.fm_topes_s": "faces.fm_realizable_topes",
    "cli.main_s": "cli.main",
    "cli.enumerate_s": "cli.enumerate_bodies",
}
COUNT_NAMES = (
    "formats.bytes_read", "chirotope.determinants", "chirotope.supports_checked",
    "chirotope.deletion_candidates", "hyperline.hyperlines", "hyperline.bases",
    "faces.cocircuits", "faces.covectors", "faces.topes", "cli.maps_scanned", "cli.maps_valid",
)


def span_metrics(spans, counters):
    """Inclusive time per public function, check time split by verdict,
    self time per layer, and the work counters."""
    out = {k: 0.0 for k in _INCLUSIVE}
    out.update({"chirotope.check_valid_s": 0.0, "chirotope.check_reject_s": 0.0,
                "chirotope.minor_s": 0.0})
    by_name = {v: k for k, v in _INCLUSIVE.items()}
    child_time = defaultdict(float)
    for sid, parent, name, t0, t1, op, outcome, outer in spans:
        if parent is not None:
            child_time[parent] += t1 - t0
    self_time = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for sid, parent, name, t0, t1, op, outcome, outer in spans:
        dur = t1 - t0
        self_time[name.split(".")[0] + ".self_s"] += dur - child_time[sid]
        if not outer:
            continue
        if name in by_name:
            out[by_name[name]] += dur
        if name == "chirotope.check_chirotope":
            out["chirotope.check_valid_s" if outcome == "valid" else "chirotope.check_reject_s"] += dur
        if name in _MINORS:
            out["chirotope.minor_s"] += dur
    out.update(self_time)
    out.update({k: counters.get(k, 0) for k in COUNT_NAMES})
    return out
