"""Exact-arithmetic toolkit for oriented matroids.

Two interchangeable encodings with verified conversion between them:
sign maps on ascending rank-subsets (chirotopes) and recursive hyperline
sequences.  Plus realization from rational vectors, minors, and the cell
census of the sphere arrangement.

Exports are lazy: `import omkit` loads no submodule, and `omkit.<name>`
imports the submodule that defines the name and looks it up there on
every access, so a command loads only the layers it runs.
"""

import importlib

# the names each submodule exports
_EXPORTS = {
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
# name -> the submodule defining it; a submodule's own name maps to itself
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in [module, *names.split()]}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    return module if name == home else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})
