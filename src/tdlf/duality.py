"""The multiplicative pairing, pseudo-polars and the dual seminorm.

Continuous functionals on either series field are represented by the series
inducing them through ``x -> (y -> coefficient of t^0 in x*y)``; the pairing
below is that coefficient, ``sum over i of x_i y_{-i}``.  Pseudo-polar and
polar of a coefficientwise module are again coefficientwise, given by the
reflections ``k_i -> 1 - k_{-i}`` and ``k_i -> -k_{-i}``; the dual seminorm
of a module carries weight sequence ``n_i = -k_{-i}``.
"""

from __future__ import annotations

from typing import Mapping

from .errors import (
    NonConvergentValues,
    NotBounded,
    NotCompactoid,
    ParseError,
    PrecisionExhausted,
)
from .padic import PAdic
from .seminorm import EQUAL, MIXED, SeminormSpec
from .seqspec import PLUS_INF, reflect_affine
from .series import (
    EqualCharSeries,
    LeftValBound,
    MixedSeries,
    RightValBound,
    Series,
    ZeroTail,
    product_coeff,
)
from .submodule import SubmoduleSpec, is_bounded, is_compactoid

__all__ = [
    "pairing",
    "functional_from_values",
    "pseudo_polar",
    "polar",
    "dual_seminorm",
]


def pairing(x: Series, y: Series, target_precision: int | None = None) -> PAdic:
    """``sum over i of x_i y_{-i}``, the t^0 coefficient of the product.

    Only that coefficient is computed; the product is never built.  For
    Laurent series the sum is finite and exact within coefficient
    precision; for doubly infinite series the tail guarantees certify the
    result modulo a computable power of p.  A target below the certified
    precision raises :class:`PrecisionExhausted`.
    """
    c = product_coeff(x, y, 0)
    if target_precision is not None and c.precision < target_precision:
        raise PrecisionExhausted(
            f"pairing certified only modulo p^{c.precision}"
        )
    return c


def functional_from_values(
    kind: str,
    prime: int,
    values: Mapping[int, PAdic],
    left=None,
    right=None,
    trunc=None,
) -> Series:
    """Assemble the series representing a functional from its values on
    the monomials: position ``i`` holds the value at ``t^(-i)``.

    The input must satisfy the convergence constraints of its field:
    eventually-zero below for Laurent series, bounded values with decay
    towards ``-inf`` for the doubly infinite field.  Violations, and a tail
    or truncation the field cannot carry, raise
    :class:`NonConvergentValues`; an unknown ``kind`` raises
    :class:`ParseError`.
    """
    if kind not in (EQUAL, MIXED):
        raise ParseError(f"field {kind!r} is not 'equal' or 'mixed'")
    if kind == EQUAL:
        if left is not None or right is not None:
            raise NonConvergentValues("Laurent functionals carry no tails")
        return EqualCharSeries.from_coeffs(
            prime, values, trunc=PLUS_INF if trunc is None else trunc
        )
    if trunc is not None:
        raise NonConvergentValues("doubly infinite functionals carry no truncation")
    left = ZeroTail() if left is None else left
    right = ZeroTail() if right is None else right
    if not isinstance(left, (ZeroTail, LeftValBound)):
        raise NonConvergentValues("left tail must certify decay")
    if not isinstance(right, (ZeroTail, RightValBound)):
        raise NonConvergentValues("right tail must certify a floor")
    try:
        return MixedSeries.from_coeffs(prime, values, left=left, right=right)
    except ValueError as exc:
        raise NonConvergentValues(str(exc)) from exc


def pseudo_polar(m: SubmoduleSpec) -> SubmoduleSpec:
    """Series pairing into the maximal ideal against all of ``m``.

    Coefficientwise this is ``sum p^(1 - k_{-i}) t^i``.
    """
    return SubmoduleSpec(reflect_affine(m.seq, 1), m.field_kind)


def polar(m: SubmoduleSpec) -> SubmoduleSpec:
    """Series pairing into the ring of integers: ``sum p^(-k_{-i}) t^i``."""
    return SubmoduleSpec(reflect_affine(m.seq, 0), m.field_kind)


def dual_seminorm(b: SubmoduleSpec) -> SeminormSpec:
    """The admissible seminorm computing ``sup over y in b`` of the pairing.

    Defined by the weight sequence ``n_i = -k_{-i}``; admissibility is
    exactly boundedness of ``b`` in the Laurent case and compactoidness in
    the mixed case, which the function enforces, so the seminorm it returns
    passes ``validate``.
    """
    if b.field_kind == EQUAL:
        if not is_bounded(b):
            raise NotBounded("dual seminorm needs a bounded module")
    elif not is_compactoid(b):
        raise NotCompactoid("dual seminorm needs a compactoid module")
    return SeminormSpec(reflect_affine(b.seq, 0), b.field_kind)
