"""Exact-arithmetic toolkit for oriented matroids.

Two interchangeable encodings with verified conversion between them:
sign maps on ascending rank-subsets (chirotopes) and recursive hyperline
sequences.  Plus realization from rational vectors, minors, and the cell
census of the sphere arrangement.
"""

from .chirotope import (
    MAX_CHECK_N,
    MAX_CHECK_RANK,
    OrientationClass,
    SignMap,
    VectorConfig,
    check_chirotope,
    classify_full,
    contract,
    delete,
    det_sign,
    enumerate_bodies,
    evaluate,
    find_deletable,
    from_vectors,
    negate,
)
from .core import (
    CanonicalBasis,
    GroundSet,
    enumerate_simplices,
    involute,
    normalize,
    signed_elements,
    signed_sort_key,
    underlying,
)
from .errors import (
    ArrangementError,
    ConstructionError,
    ContractionError,
    DeletionError,
    NoDeletableElement,
    OmError,
    ParseError,
    RealizationError,
    SizeGuardError,
    ValidationReport,
    Violation,
)
from .faces import (
    ArrangementR1,
    ArrangementR2,
    FaceCensus,
    canonical_arrangement,
    cocircuits,
    compose,
    covectors,
    face_census,
    fm_realizable_topes,
    read_rank1,
    read_rank2,
    represent_rank1,
    represent_rank2,
    topes,
)
from .formats import (
    parse_chi,
    parse_hls,
    parse_vec,
    render_rank2_svg,
    serialize_chi,
    serialize_hls,
    serialize_vec,
)
from .hyperline import (
    HLHigher,
    HLRank1,
    HLRank2,
    Hyperline,
    bases,
    check_hyperline,
    from_chirotope,
    hls_equal,
    minor_hls,
    negate_hls,
    relabel_hls,
    to_chirotope,
)

__version__ = "0.1.0"
