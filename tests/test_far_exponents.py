"""Exponents too large for a float and witnesses far from index 0.

``sup_diff``, ``forall_ge`` and ``membership`` decide an open tail end
before they add offsets, so an offset past the float range gives an answer,
not ``OverflowError``.  ``unbounded_witness`` builds its staircase at a cost
per point, not per index up to the staircase, and finds its last point in
closed form, so a staircase longer than ``MAX_INDEX`` is refused at once.
Against a fully open coordinate it gives one monomial whatever the target,
and a Laurent weight window longer than ``MAX_INDEX`` is refused at once.
"""

import time
import tracemalloc

import pytest

from tdlf import (
    EqualCharSeries,
    ExtInt,
    Membership,
    MixedSeries,
    ParseError,
    PAdic,
    PLUS_INF,
    RightValBound,
    SeminormSpec,
    SeqSpec,
    SubmoduleSpec,
    eval_exponent,
    forall_ge,
    membership,
    sup_diff,
    unbounded_witness,
)
from tdlf.seqspec import MINUS_INF, AffineTail, ConstTail
from tdlf.submodule import _monomial, named

HUGE = 10**400  # past the largest float


def test_an_offset_past_the_float_range_gives_an_answer():
    seq = SeqSpec.from_window({0: 0}, ConstTail(PLUS_INF), AffineTail(1, HUGE))
    x = MixedSeries.from_coeffs(5, {0: PAdic.one(5)}, right=RightValBound(0))
    # x's right floor 0 never clears exponents that grow without bound
    assert membership(SubmoduleSpec(seq, "mixed"), x) == Membership.UNKNOWN
    assert forall_ge(x.g, seq) is False
    assert sup_diff(seq, x.g) == PLUS_INF
    assert sup_diff(SeqSpec.from_window({0: 0}, AffineTail(-1, -HUGE), ConstTail(ExtInt(0))),
                    SeqSpec.delta(0, 0, 0)) == PLUS_INF


def _right_falling(d: int) -> SubmoduleSpec:
    """A mixed module whose exponents fall without bound right of ``d``."""
    return SubmoduleSpec(
        SeqSpec.from_window({d: 0}, ConstTail(ExtInt(0)), AffineTail(-1, d)), "mixed"
    )


def test_a_far_right_witness_costs_its_points_not_its_distance():
    tracemalloc.start()
    try:
        spec, elems = unbounded_witness(_right_falling(10**5), 5, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert len(spec.seq.pieces) == 5 and len(elems) == 10
    # the staircase, written index by index up to it at a short distance
    d = 1000
    spec, _ = unbounded_witness(_right_falling(d), 5, 5)
    window = {i: (d - i) // 2 for i in range(d + 1, d + 11)}
    window.update(dict.fromkeys(range(d + 1), window[d + 1]))
    assert spec == SeminormSpec(
        SeqSpec.from_window(window, ConstTail(MINUS_INF), AffineTail(-1, d + 5)), "mixed"
    )


def test_a_far_left_witness_is_one_monomial():
    """Exponents falling leftwards from an offset of 10^6: one monomial at
    the first index whose exponent reaches the target, in closed form."""
    d = 10**6
    m = SubmoduleSpec(SeqSpec.from_window({0: 0}, AffineTail(1, d), ConstTail(ExtInt(0))), "mixed")
    tracemalloc.start()
    try:
        start = time.perf_counter()
        spec, elems = unbounded_witness(m, 5, 5)
        took = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert took < 0.1 and peak < 2**20
    assert [x.stored[0][0] for x in elems] == [-d - 5]
    assert [x.stored[0][1].val for x in elems] == [ExtInt(-5)]
    assert membership(m, elems[0]) == Membership.IN
    # the walk it replaces: the first index from min(lo - 1, 0) down at or below -target
    for d, target in ((-3, 5), (0, 1), (7, 3), (-20, 2)):
        seq = SeqSpec.from_window({2: 0}, AffineTail(2, d), ConstTail(ExtInt(0)))
        _, (x,) = unbounded_witness(SubmoduleSpec(seq, "mixed"), target, 5)
        walk = next(i for i in range(0, -10**3, -1) if -seq.value_at(i).n >= target)
        assert x.stored[0][0] == walk


def _loop_staircase(m: SubmoduleSpec, target: int, prime: int):
    """The right staircase, one index at a time until ``n_i - k_i`` reaches
    the target: the loop the closed form replaced."""
    seq, points, elems = m.seq, [], []
    i = max(seq.window_hi + 1, 0)
    while True:
        k_i = seq.value_at(i).n
        points.append((i, k_i // 2))
        elems.append(_monomial(m, i, k_i, prime))
        if k_i // 2 - k_i >= target:
            break
        i += 1
    right = AffineTail(seq.right.slope, points[-1][1] - seq.right.slope * i)
    spec = SeqSpec.from_points(0, i, points, points[0][1], ConstTail(MINUS_INF), right)
    return SeminormSpec(spec, "mixed"), elems


def test_a_far_right_staircase_is_refused_at_once():
    """Exponents falling rightwards from an offset written in the tail: the
    staircase's last index is found in closed form, and one longer than
    ``MAX_INDEX`` is refused before any point is built."""
    def module(window, slope, offset):
        seq = SeqSpec.from_window(window, ConstTail(ExtInt(0)), AffineTail(slope, offset))
        return SubmoduleSpec(seq, "mixed")

    far = module({0: 0}, -1, 10**6)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(ParseError, match="witness length"):
            unbounded_witness(far, 5, 5)
        took = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert took < 0.1 and peak < 2**20
    assert unbounded_witness(module({0: 0}, -1, 1000), 5, 5) == _loop_staircase(
        module({0: 0}, -1, 1000), 5, 5)
    checked = 0
    for window in ({0: 0}, {-7: 2}, {3: 1, 4: 0}):
        for slope in (-1, -2, -3):
            for offset in (-20, -5, 0, 3, 8, 41):
                for target in (-3, 0, 1, 2, 5, 9):
                    m = module(window, slope, offset)
                    assert unbounded_witness(m, target, 5) == _loop_staircase(m, target, 5)
                    checked += 1
    assert checked == 324


def _time_and_peak(call):
    """``call()``, and the seconds and peak traced bytes it took."""
    tracemalloc.start()
    try:
        start = time.perf_counter()
        out = call()
        took = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, took, peak


def test_a_far_target_costs_nothing_against_an_open_coordinate():
    """``K[[t]]`` is fully open at every index: one monomial ``p^-target``
    scores the target, however far it is."""
    target = 10**6
    m = named("K[[t]]")
    (spec, elems), took, peak = _time_and_peak(lambda: unbounded_witness(m, target, 5))
    assert took < 0.1 and peak < 2**20
    assert len(elems) == 1
    assert membership(m, elems[0]) == Membership.IN
    assert eval_exponent(spec, elems[0]).exponent == target


def test_a_long_laurent_witness_is_refused_at_once():
    """Finite exponents at every negative index of a Laurent module: the
    weight window reaches index ``-target``, and one longer than
    ``MAX_INDEX`` is refused before any point is built."""
    zero = ConstTail(ExtInt(0))
    m = SubmoduleSpec(SeqSpec.from_window({0: 0}, zero, zero), "equal")
    start = time.perf_counter()
    with pytest.raises(ParseError, match="witness length"):
        unbounded_witness(m, 10**6, 5)
    assert time.perf_counter() - start < 0.1
    spec, elems = unbounded_witness(m, 50, 5)
    assert len(elems) == 50  # indices -50 .. -1
    assert all(isinstance(x, EqualCharSeries) for x in elems)
    assert max(eval_exponent(spec, x).exponent for x in elems) >= 50
