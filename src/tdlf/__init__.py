"""Exact arithmetic for the locally convex structure of two-dimensional
local fields: series over truncated p-adics, admissible seminorms,
submodule classification, min-plus product bounds, and the polar calculus.
"""

from .errors import (
    IncompatiblePrimes,
    KindMismatch,
    NonAdmissibleSequence,
    NonConvergentValues,
    NonRepresentableTail,
    NotBounded,
    NotCompactoid,
    ParseError,
    PrecisionExhausted,
    TdlfError,
    UndefinedInfiniteSum,
    UnknownName,
    WindowInsufficient,
    ZeroElement,
)
from .seqspec import (
    MINUS_INF,
    PLUS_INF,
    AffineTail,
    ConstTail,
    ExtInt,
    SeqSpec,
    forall_ge,
    minplus_convolve,
    pointwise_max,
    pointwise_min,
    reflect_affine,
    shift_add,
    sup_diff,
)
from .padic import DEFAULT_RELATIVE_PRECISION, ExponentResult, PAdic
from .series import (
    EqualCharSeries,
    LeftValBound,
    MixedSeries,
    RightValBound,
    ValuationResult,
    ZeroTail,
    add,
    mul,
    partial_sum,
    rank2_equal,
    rank2_mixed,
    series_from_json,
    tail_remainder,
    vF_exponent,
)
from .seminorm import (
    BallResult,
    SeminormSpec,
    closed_ball_test,
    eval_exponent,
    is_admissible_seq,
    validate,
)
from .submodule import (
    Classification,
    Membership,
    SubmoduleSpec,
    classify,
    is_bounded,
    is_compactoid,
    is_open_lattice,
    membership,
    module_intersect,
    module_sum,
    named,
    named_module_names,
    literature_classification,
    product_bound,
    scale,
    seminorm_bound_on,
    unbounded_witness,
)
from .duality import (
    dual_seminorm,
    functional_from_values,
    pairing,
    polar,
    pseudo_polar,
)
from .oracle import (
    SampleConfig,
    SplitMix64,
    brute_minplus,
    brute_seminorm,
    sample_elements,
)
from .parser import parse_series, render_series

__version__ = "0.1.0"
