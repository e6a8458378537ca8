"""Seeded workloads: the generated inputs, the op each drives, and its check.

An *op* is one generated workload item.  ``run(call)`` performs it, routing
every library call through ``call(name, fn, *args)`` so that a traced run can
wrap it in a span; ``check(output)`` compares the output with an
independent computation (brute force, ``tdlf.oracle`` or a direct ``PAdic``
sum) and returns ``None`` or the reason it is wrong.  Checks never run
inside the timed region.

All randomness comes from ``tdlf.SplitMix64`` seeded by ``--seed``.  Each
item draws from its own stream, so the first item, which the set-up
measurement runs in a fresh interpreter, is generated without the rest.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from tdlf import (
    PLUS_INF,
    AffineTail,
    Classification,
    ConstTail,
    EqualCharSeries,
    ExtInt,
    LeftValBound,
    Membership,
    MixedSeries,
    PAdic,
    RightValBound,
    SampleConfig,
    SeminormSpec,
    SeqSpec,
    SplitMix64,
    SubmoduleSpec,
    ZeroTail,
    add,
    brute_minplus,
    brute_seminorm,
    classify,
    dual_seminorm,
    eval_exponent,
    literature_classification,
    membership,
    module_intersect,
    module_sum,
    mul,
    named,
    pairing,
    parse_series,
    partial_sum,
    polar,
    product_bound,
    pseudo_polar,
    rank2_equal,
    rank2_mixed,
    sample_elements,
    seminorm_bound_on,
    vF_exponent,
)
from tdlf import cli

@dataclass(frozen=True)
class Raised:
    """Output of an op that raised a typed ``TdlfError``."""

    name: str


@dataclass(frozen=True)
class Crashed:
    """Output of an op that raised anything else, ``SystemExit`` included."""

    reason: str


@dataclass
class Op:
    kind: str
    run: Callable[[Callable], Any]
    check: Callable[[Any], str | None]
    tags: tuple[str, ...] = ()
    props: dict | None = None
    expect: str | None = None  # typed error the input was generated to raise


def build(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    """Every op of one round of the workload, in generation order."""
    return list(_GENERATORS[workload](seed, tiny))


def first_op(workload: str, seed: int, tiny: bool = False) -> Op:
    return next(_GENERATORS[workload](seed, tiny))


def input_properties(ops: list[Op]) -> dict:
    """The input properties of a round, recorded next to the metrics."""
    kinds: dict[str, int] = {}
    for op in ops:
        kinds[op.kind] = kinds.get(op.kind, 0) + 1
    out: dict[str, Any] = {"ops_per_round": len(ops), "op_kinds": kinds}
    props = [op.props for op in ops if op.props]
    for key in ("window", "precision", "shape", "prime", "command"):
        values = sorted({p[key] for p in props if key in p}, key=str)
        if values:
            out[key + "s"] = values
    distances = [p["distance"] for p in props if "distance" in p]
    if distances:
        out["distances"] = {"min": min(distances), "max": max(distances), "count": len(distances)}
        out["distance_buckets"] = {
            tag: sum(1 for op in ops if tag in op.tags)
            for tag in ("far.d1e1", "far.d1e2", "far.d1e3", "far.d1e4")
        }
    heavy = [p["max_p_exponent"] for p in props if p.get("max_p_exponent")]
    if heavy:
        out["max_p_exponent"] = max(heavy)
    return out


def _streams(seed: int, salt: int) -> Iterator[SplitMix64]:
    master = SplitMix64(seed ^ salt)
    while True:
        yield SplitMix64(master.next_u64())


def _unit(rng: SplitMix64, p: int, digits: int) -> int:
    """A p-adic unit with ``digits`` random base-p digits.

    ``SplitMix64.below`` only handles bounds up to 2^64, so wide units are
    assembled from whole 64-bit words.
    """
    words = (digits * p.bit_length() + 8 + 63) // 64
    n = 0
    for _ in range(words):
        n = (n << 64) | rng.next_u64()
    n %= p**digits
    if n % p == 0:
        n += 1 + rng.below(p - 1)
    return n


def _coeff(rng: SplitMix64, p: int, val: int, digits: int) -> PAdic:
    return PAdic.make(p, val, _unit(rng, p, digits), val + digits)


def _congruent(got: PAdic, want: PAdic) -> bool:
    """Whether ``got`` agrees with ``want`` to the precision ``got`` claims."""
    if got.precision > want.precision:
        return False
    diff = got - want
    return diff.is_exact_zero or diff.unit == 0


def _same(got: PAdic, want: PAdic, tails: bool) -> bool:
    return _congruent(got, want) if tails else got == want


def _dot(xs: list[PAdic], ys: list[PAdic], prime: int) -> PAdic:
    acc = PAdic.zero(prime)
    for a, b in zip(xs, ys):
        acc = acc + a * b
    return acc


# ---------------------------------------------------------------------------
# dense_products: products, pairings, sums, valuations and PAdic dot
# products of dense series.  padic and series do almost all the work.

DENSE_PRIME = 5
DENSE_WINDOWS = (21, 41, 81)
DENSE_PRECISIONS = (32, 256, 2048)
DENSE_SHAPES = ("mixed", "mixed_tails", "laurent")
TOO_PRECISE = 10**6  # a product target no input can certify


def _dense(seed: int, tiny: bool) -> Iterator[Op]:
    windows = (5, 9) if tiny else DENSE_WINDOWS
    precisions = (8, 16) if tiny else DENSE_PRECISIONS
    streams = _streams(seed, 0xD3)
    for shape in DENSE_SHAPES:
        for w in windows:
            for prec in precisions:
                rng = next(streams)
                x = _dense_series(rng, shape, w, prec)
                y = _dense_series(rng, shape, w, prec)
                yield from _dense_ops(x, y, shape, w, prec)


def _dense_series(rng: SplitMix64, shape: str, w: int, prec: int):
    p = DENSE_PRIME
    h = w // 2
    coeffs = {i: _coeff(rng, p, rng.below(4), prec) for i in range(-h, h + 1)}
    if shape == "laurent":
        return EqualCharSeries.from_coeffs(p, coeffs, order=-h, trunc=h + 1)
    if shape == "mixed":
        return MixedSeries.from_coeffs(p, coeffs)
    left = LeftValBound(1 + rng.below(3), rng.below(4))
    return MixedSeries.from_coeffs(p, coeffs, left=left, right=RightValBound(rng.below(4)))


def _dense_ops(x, y, shape: str, w: int, prec: int) -> Iterator[Op]:
    p = x.prime
    tails = shape == "mixed_tails"
    ymap = dict(y.coeffs)
    pairs = [(c, ymap[-i]) for i, c in x.coeffs if -i in ymap]
    xs, ys = [a for a, _ in pairs], [b for _, b in pairs]
    tags = (f"win{w}", f"prec{prec}")
    props = {"shape": shape, "window": w, "precision": prec, "prime": p}

    def op(kind, run, check, expect=None):
        return Op(kind, run, check, tags, props, expect)

    yield op("mul", lambda call: call("series.mul", mul, x, y), lambda z: _check_mul(x, y, z, tails))
    yield op(
        "pair",
        lambda call: call("duality.pairing", pairing, x, y),
        lambda c: None if _same(c, _dot(xs, ys, p), tails) else "pairing differs from the direct sum",
    )
    yield op("add", lambda call: call("series.add", add, x, y), lambda z: _check_add(x, y, z))
    yield op(
        "dot",
        lambda call: call("padic.dot", _dot, xs, ys, p),
        lambda c: None if _same(pairing(x, y), c, tails) else "dot product differs from pairing",
    )
    if shape != "laurent":
        yield op("vf", lambda call: call("series.vF_exponent", vF_exponent, x), lambda r: _check_vf(x, r))
    if tails:
        yield op(
            "mul_target",
            lambda call: call("series.mul", mul, x, y, TOO_PRECISE),
            lambda out: None,  # the expected PrecisionExhausted is checked by the harness
            expect="PrecisionExhausted",
        )


def _direct_coeff(x, y, k: int) -> PAdic:
    ymap = dict(y.coeffs)
    acc = PAdic.zero(x.prime)
    for i, c in x.coeffs:
        if k - i in ymap:
            acc = acc + c * ymap[k - i]
    return acc


def _check_mul(x, y, z, tails: bool) -> str | None:
    if isinstance(x, EqualCharSeries):
        lo, hi = x.order + y.order, z.trunc.n - 1
    else:
        lo, hi = x.lo + y.lo, x.hi + y.hi
    for k in sorted({lo, lo + 1, (lo + hi) // 2, 0, hi}):
        if not lo <= k <= hi:
            continue
        if not _same(z.coeff(k), _direct_coeff(x, y, k), tails):
            return f"product coefficient {k} differs from the direct sum"
    return None


def _check_add(x, y, z) -> str | None:
    if isinstance(x, EqualCharSeries):
        indices = sorted({i for i, _ in x.coeffs} | {i for i, _ in y.coeffs})
    else:
        indices = range(z.lo, z.hi + 1)
    for i in indices:
        if z.coeff(i) != x.coeff(i) + y.coeff(i):
            return f"sum coefficient {i} differs from the coefficient sum"
    return None


def _check_vf(x: MixedSeries, r) -> str | None:
    # enumerate past both window edges: the tail bounds are monotone there
    exact_min = bound_min = PLUS_INF
    for i in range(x.lo - 3, x.hi + 4):
        c = x.coeff(i)
        if c.valuation_exact:
            exact_min = min(exact_min, c.val)
        else:
            bound_min = min(bound_min, c.val)
    if exact_min < bound_min or bound_min == PLUS_INF:
        want = (exact_min, True)
    else:
        want = (min(exact_min, bound_min), False)
    return None if (r.value, r.exact) == want else f"vF_exponent {r} != {want}"


# ---------------------------------------------------------------------------
# far_sparse: few stored pieces spread far apart.  Cost follows the index
# distance, not the stored size; padic sits nearly idle.

FAR_PRIME = 5
FAR_ITEMS = 24  # per item kind and round
FAR_TOP = 4  # distances run from 10^1 to 10^FAR_TOP


def _far(seed: int, tiny: bool) -> Iterator[Op]:
    n, top = (4, 2) if tiny else (FAR_ITEMS, FAR_TOP)
    streams = _streams(seed, 0xFA)
    # a log-uniform grid of distances: the midpoints of n equal slots of
    # log10(d).  The seed draws everything else; drawing d itself moved a
    # round's cost by a third from seed to seed.
    for kind in ("spec", "series"):
        for j in range(n):
            rng = next(streams)
            d = round(10 ** (1 + (top - 1) * (j + 0.5) / n))
            tag = f"far.d1e{round(math.log10(d))}"
            props = {"distance": d, "prime": FAR_PRIME}
            if kind == "spec":
                yield _spec_op(rng, d, tag, props)
            else:
                yield _sparse_series_op(rng, d, j % 2 == 1, tag, props)


def _small_window(rng: SplitMix64) -> dict[int, int]:
    # a fixed length: the number of window points sets the number of rays
    # min-plus convolution sweeps, and so a spec chain's cost
    lo = rng.randint(-3, 1)
    return {lo + t: rng.randint(0, 6) for t in range(3)}


def _spec_op(rng: SplitMix64, d: int, tag: str, props: dict) -> Op:
    """Two compactoid modules whose left tails cross at -d, right at +d."""
    c1, c2 = rng.randint(0, 3), rng.randint(0, 3)
    a = SubmoduleSpec(
        SeqSpec.from_window(_small_window(rng), AffineTail(-1, c1), AffineTail(1, c2)), "mixed"
    )
    b = SubmoduleSpec(
        SeqSpec.from_window(
            _small_window(rng), AffineTail(-2, c1 - d), ConstTail(ExtInt(c2 + d))
        ),
        "mixed",
    )
    spec = SeminormSpec(
        SeqSpec.from_window(
            {0: rng.randint(0, 3)},
            ConstTail(ExtInt(rng.randint(-2, 2))),
            AffineTail(-1, rng.randint(0, 3)),
        ),
        "mixed",
    )
    rng_k = rng.randint(-2 * d, 2 * d)

    def run(call):
        s = call("submodule.module_sum", module_sum, a, b)
        t = call("submodule.module_intersect", module_intersect, a, b)
        pb = call("submodule.product_bound", product_bound, a, b)
        cs = call("seqspec.canonical", s.seq.canonical)
        cp = call("seqspec.canonical", pb.seq.canonical)
        cl = call("submodule.classify", classify, s)
        po = call("duality.polar", polar, s)
        pp = call("duality.pseudo_polar", pseudo_polar, s)
        du = call("duality.dual_seminorm", dual_seminorm, s)
        bd = call("submodule.seminorm_bound_on", seminorm_bound_on, spec, s)
        return s, t, pb, cs, cp, cl, po, pp, du, bd

    def check(out) -> str | None:
        s, t, pb, cs, cp, cl, po, pp, du, bd = out
        # an index range covering both windows and both crossings; beyond
        # it every sequence is in pure tail mode
        lo = min(a.seq.window_lo, b.seq.window_lo, -d) - 4
        hi = max(a.seq.window_hi, b.seq.window_hi, d) + 4
        for i in range(lo, hi + 1):
            ai, bi = a.seq.value_at(i), b.seq.value_at(i)
            si = s.seq.value_at(i)
            if si != min(ai, bi):
                return f"module_sum at {i}: {si} != min({ai}, {bi})"
            if t.seq.value_at(i) != max(ai, bi):
                return f"module_intersect at {i} is not the pointwise max"
            if cs.value_at(i) != si:
                return f"canonical(module_sum) changes the value at {i}"
            if po.seq.value_at(-i) != -si or pp.seq.value_at(-i) != 1 - si:
                return f"polar or pseudo-polar at {-i} is not the reflection"
            if du.seq.value_at(-i) != -si:
                return f"dual seminorm weight at {-i} is not -k_(-i)"
        for seq in (cs, cp):
            if seq.canonical() != seq:
                return "canonical form is not idempotent"
        plo, phi = pb.seq.window_lo - 3, pb.seq.window_hi + 3
        if any(cp.value_at(i) != pb.seq.value_at(i) for i in range(plo, phi + 1)):
            return "canonical(product_bound) changes a value"
        for k in sorted({-2 * d, -d, -1, 0, 1, d, 2 * d, rng_k}):
            wlo = min(a.seq.window_lo, k - b.seq.window_hi) - 1
            whi = max(a.seq.window_hi, k - b.seq.window_lo) + 1
            want = brute_minplus(a.seq, b.seq, k, (wlo, whi))
            if pb.seq.value_at(k) != want:
                return f"product_bound at {k}: {pb.seq.value_at(k)} != brute {want}"
        if cl != Classification(open_lattice=False, bounded=True, compactoid=True):
            return f"classify gave {cl}"
        slo = min(lo, spec.seq.window_lo) - 2
        shi = max(hi, spec.seq.window_hi) + 2
        want = max(spec.seq.value_at(i) - s.seq.value_at(i) for i in range(slo, shi + 1))
        if bd != want:
            return f"seminorm_bound_on {bd} != enumerated sup {want}"
        return None

    return Op("spec", run, check, (tag,), props)


def _monomials(rng: SplitMix64, far: int, m: SeqSpec) -> dict[int, PAdic]:
    """Coefficients at -far, +far and two indices near 0.  The far-left one
    sits within a few units of the module exponent there, so that
    membership comes out IN, OUT or UNKNOWN."""
    near = max(m.value_at(-far).n, 0)
    vals = {
        -far: near + rng.randint(-1, 3),
        far: rng.below(5),
        rng.randint(-3, -1): rng.below(5),
        rng.randint(0, 3): rng.below(5),
    }
    return {i: _coeff(rng, FAR_PRIME, v, 32) for i, v in vals.items()}


def _sparse_series_op(rng: SplitMix64, d: int, tails: bool, tag: str, props: dict) -> Op:
    p = FAR_PRIME
    m = SubmoduleSpec(
        SeqSpec.from_window(
            {0: rng.randint(0, 2)},
            AffineTail(-1, rng.randint(0, 2)),
            ConstTail(ExtInt(rng.randint(0, 2))),
        ),
        "mixed",
    )
    spec = SeminormSpec(
        SeqSpec.from_window(
            {0: rng.randint(0, 3), 1: rng.randint(0, 3)},
            ConstTail(ExtInt(rng.randint(-2, 2))),
            AffineTail(-1, rng.randint(0, 3)),
        ),
        "mixed",
    )
    left = LeftValBound(1 + rng.below(2), rng.below(4)) if tails else ZeroTail()
    right = RightValBound(rng.below(4)) if tails else ZeroTail()
    x = MixedSeries.from_coeffs(p, _monomials(rng, d, m.seq), left=left, right=right)
    y = MixedSeries.from_coeffs(p, _monomials(rng, d // 2 + 1, m.seq))
    cut = rng.randint(-(d // 8), d // 8)
    sample_seed = rng.next_u64()
    props = dict(props, tails=tails)

    def run(call):
        s = call("series.add", add, x, y)
        ps = call("series.partial_sum", partial_sum, s, cut)
        e = call("seminorm.eval_exponent", eval_exponent, spec, s)
        mem = call("submodule.membership", membership, m, s)
        return s, ps, e, mem

    def check(out) -> str | None:
        s, ps, e, mem = out
        for i in range(s.lo, s.hi + 1):
            if s.coeff(i) != x.coeff(i) + y.coeff(i):
                return f"sum coefficient {i} differs from the coefficient sum"
        for i in range(ps.lo, cut + 1):
            if ps.coeff(i) != s.coeff(i):
                return f"partial sum changes coefficient {i}"
        if not ps.coeff(cut + 1).is_exact_zero:
            return "partial sum keeps a term above the cut"
        brute = brute_seminorm(spec, s, (s.lo, s.hi))
        if e.exact and e.exponent != brute:
            return f"exact eval_exponent {e.exponent} != brute_seminorm {brute}"
        if e.exponent < brute:
            return f"eval_exponent {e.exponent} is below brute_seminorm {brute}"
        reason = _check_membership(m, s, mem)
        if reason:
            return reason
        cfg = SampleConfig(seed=sample_seed, count=4)
        for el in sample_elements(m, cfg, p):
            if membership(m, el) != Membership.IN:
                return "a sampled element of the module is not a member"
        return None

    return Op("series", run, check, (tag,), props)


def _check_membership(m: SubmoduleSpec, s: MixedSeries, got: str) -> str | None:
    # past s's window its tail bounds are monotone and m is in pure tail mode
    clears, violated = True, False
    for i in range(min(s.lo, m.seq.window_lo) - 3, max(s.hi, m.seq.window_hi) + 4):
        c, k = s.coeff(i), m.seq.value_at(i)
        if c.val < k:
            clears = False
            violated = violated or c.valuation_exact
    if got == Membership.IN and not clears:
        return "membership IN, but a coefficient bound is below the exponent"
    if got == Membership.OUT and not violated:
        return "membership OUT without an exactly known violating coefficient"
    if got == Membership.UNKNOWN and violated:
        return "membership UNKNOWN despite an exactly known violation"
    exact_tails = isinstance(s.left, ZeroTail) and isinstance(s.right, ZeroTail)
    if got != Membership.IN and clears and exact_tails:
        return "a series with exact tails clears every exponent but is not IN"
    return None


# ---------------------------------------------------------------------------
# cli_requests: desk-scale requests through cli.main in process, covering
# all ten commands, plus direct parse_series calls on the same literals.

CLI_PRIMES = (2, 3, 5, 7, 11)
CLI_REQUESTS = 40  # per round; a quarter as many direct parses
NAMED_EQUAL = ("K[[t]]", "tK[[t]]", "O+tK[[t]]")
NAMED_MIXED = ("O{{t}}", "p{{t}}", "rank2_mixed")


@dataclass
class _Literal:
    text: str
    series: Any  # the series the literal denotes, built without the parser
    max_k: int


def _literal(rng: SplitMix64, p: int, prec: int, kind: str, heavy: bool,
             indices: list[int] | None = None, tails: bool = False) -> _Literal:
    """A literal ``c*p^k*t^i + ...`` and its series.

    ``kind`` is ``mixed`` or ``laurent``; a heavy literal carries one
    ``p^k`` with ``k`` between 1000 and 2000.
    """
    if indices is None:
        pool = list(range(-6, 7))
        indices = []
        for _ in range(rng.randint(2, 5)):
            indices.append(pool.pop(rng.below(len(pool))))
    coeffs, parts, max_k = {}, [], 0
    for n, i in enumerate(indices):
        k = rng.randint(1000, 2000) if heavy and n == 0 else rng.below(4)
        c = rng.randint(1, p * p)
        if c % p == 0:
            c += 1
        coeffs[i] = PAdic.make(p, k, c, k + prec)
        parts.append(f"{c}*p^{k}*t^{i}")
        max_k = max(max_k, k)
    text = " + ".join(parts)
    if kind == "laurent":
        trunc = max(indices) + 1 + rng.below(3)
        series = EqualCharSeries.from_coeffs(p, coeffs, order=min(indices), trunc=trunc)
        return _Literal(f"{text} + O(t^{trunc})", series, max_k)
    if tails:
        floor, slope, base = rng.below(4), 1 + rng.below(2), rng.below(4)
        series = MixedSeries.from_coeffs(
            p, coeffs, left=LeftValBound(slope, base), right=RightValBound(floor)
        )
        return _Literal(f"{text} + tail(v>={floor}, left: {slope}, {base})", series, max_k)
    return _Literal(text, MixedSeries.from_coeffs(p, coeffs), max_k)


def _compactoid_json(rng: SplitMix64) -> SubmoduleSpec:
    return SubmoduleSpec(
        SeqSpec.from_window(
            {i: rng.randint(-2, 4) for i in range(-1, 2)},
            AffineTail(-1 - rng.below(2), rng.randint(0, 3)),
            ConstTail(ExtInt(rng.randint(-1, 2))),
        ),
        "mixed",
    )


def _bounded_equal_json(rng: SplitMix64) -> SubmoduleSpec:
    return SubmoduleSpec(
        SeqSpec.from_window(
            {i: rng.randint(-2, 4) for i in range(0, 3)},
            ConstTail(PLUS_INF),
            ConstTail(ExtInt(rng.randint(-1, 2))),
        ),
        "equal",
    )


def _admissible_json(rng: SplitMix64) -> SeminormSpec:
    return SeminormSpec(
        SeqSpec.from_window(
            {0: rng.randint(-2, 3), 1: rng.randint(-2, 3)},
            ConstTail(ExtInt(rng.randint(-2, 2))),
            AffineTail(-1, rng.randint(0, 3)),
        ),
        "mixed",
    )


def _module_arg(rng: SplitMix64, kind: str) -> tuple[str, SubmoduleSpec]:
    """A named module or a JSON spec of the given field kind."""
    if rng.below(2) == 0:
        names = NAMED_EQUAL if kind == "equal" else NAMED_MIXED
        name = names[rng.below(len(names))]
        return name, named(name)
    m = _bounded_equal_json(rng) if kind == "equal" else _compactoid_json(rng)
    return json.dumps(m.to_json()), m


def _req_eval_plus(rng, p, prec, heavy):
    kind = "laurent" if rng.below(3) == 0 else "mixed"
    tails = kind == "mixed" and rng.below(2) == 0
    x = _literal(rng, p, prec, kind, heavy, tails=tails)
    y = _literal(rng, p, prec, kind, False, tails=tails)
    return ["eval", "--series", x.text, "--plus", y.text], lambda: add(x.series, y.series).to_json(), x


def _req_eval_times(rng, p, prec, heavy):
    kind = "laurent" if rng.below(3) == 0 else "mixed"
    x = _literal(rng, p, prec, kind, heavy)
    y = _literal(rng, p, prec, kind, False)
    return ["eval", "--series", x.text, "--times", y.text], lambda: mul(x.series, y.series).to_json(), x


def _req_eval_partial(rng, p, prec, heavy):
    x = _literal(rng, p, prec, "mixed", heavy, tails=rng.below(2) == 0)
    n = rng.randint(-3, 3)
    argv = ["eval", "--series", x.text, "--partial-sum", str(n)]
    return argv, lambda: partial_sum(x.series, n).to_json(), x


def _req_norm(rng, p, prec, heavy):
    spec = _admissible_json(rng)
    x = _literal(rng, p, prec, "mixed", heavy)
    argv = ["norm", "--series", x.text, "--seminorm", json.dumps(spec.to_json())]
    return argv, lambda: eval_exponent(spec, x.series).to_json(), x


def _req_classify(rng, p, prec, heavy):
    kind = ("equal", "mixed")[rng.below(2)]
    text, m = _module_arg(rng, kind)
    if text in NAMED_EQUAL + NAMED_MIXED and rng.below(2) == 0:
        return ["classify", "--module", text, "--literature"], lambda: literature_classification(text).to_json(), None
    return ["classify", "--module", text], lambda: classify(m).to_json(), None


def _req_polar(rng, p, prec, heavy):
    text, m = _module_arg(rng, ("equal", "mixed")[rng.below(2)])
    return ["polar", "--module", text], lambda: polar(m).canonical().to_json(), None


def _req_pseudo_polar(rng, p, prec, heavy):
    text, m = _module_arg(rng, ("equal", "mixed")[rng.below(2)])
    return ["pseudo-polar", "--module", text], lambda: pseudo_polar(m).canonical().to_json(), None


def _req_pair(rng, p, prec, heavy):
    if rng.below(3) == 0:
        # Laurent factors on [-3, 3] truncated at 4 or more: t^0 is certified
        x = _literal(rng, p, prec, "laurent", heavy, indices=[-3, -1, 0, 2])
        y = _literal(rng, p, prec, "laurent", False, indices=[-2, 0, 1, 3])
    else:
        x = _literal(rng, p, prec, "mixed", heavy)
        y = _literal(rng, p, prec, "mixed", False)
    return ["pair", "--x", x.text, "--y", y.text], lambda: pairing(x.series, y.series).to_json(), x


def _req_product_bound(rng, p, prec, heavy):
    kind = ("equal", "mixed")[rng.below(2)]
    ta, a = _module_arg(rng, kind)
    tb, b = _module_arg(rng, kind)
    return ["product-bound", "--a", ta, "--b", tb], lambda: product_bound(a, b).canonical().to_json(), None


def _req_dual_norm(rng, p, prec, heavy):
    m = _bounded_equal_json(rng) if rng.below(2) == 0 else _compactoid_json(rng)
    return ["dual-norm", "--module", json.dumps(m.to_json())], lambda: dual_seminorm(m).to_json(), None


def _req_valuation(rng, p, prec, heavy):
    if rng.below(3) == 0:
        x = _literal(rng, p, prec, "laurent", heavy)
        return ["valuation", "--series", x.text], lambda: {"value": rank2_equal(x.series)[0].to_json(), "exact": True}, x
    x = _literal(rng, p, prec, "mixed", heavy)
    if rng.below(2) == 0:
        def rank2():
            v1, v2 = rank2_mixed(x.series)
            return {"v1": v1.to_json(), "v2": v2.to_json()}
        return ["valuation", "--series", x.text, "--rank2"], rank2, x
    return ["valuation", "--series", x.text], lambda: vF_exponent(x.series).to_json(), x


def _req_oracle_sample(rng, p, prec, heavy):
    text, m = _module_arg(rng, ("equal", "mixed")[rng.below(2)])
    seed, count = rng.below(1000), rng.randint(2, 5)
    cfg = SampleConfig(seed=seed, count=count, window=(-20, 20), precision=prec)
    # --seed is a global flag and must come before the subcommand
    argv = ["--seed", str(seed), "oracle", "sample", "--module", text, "--count", str(count)]
    return argv, lambda: {"elements": [e.to_json() for e in sample_elements(m, cfg, p)]}, None


def _req_oracle_minplus(rng, p, prec, heavy):
    kind = ("equal", "mixed")[rng.below(2)]
    ta, a = _module_arg(rng, kind)
    tb, b = _module_arg(rng, kind)
    k = rng.randint(-4, 4)
    # "--window -30:30" would read as an unknown option; "=" keeps it a value
    argv = ["--window=-30:30", "oracle", "minplus", "--a", ta, "--b", tb, "--k", str(k)]
    return argv, lambda: {"k": k, "value": brute_minplus(a.seq, b.seq, k, (-30, 30)).to_json()}, None


def _req_oracle_seminorm(rng, p, prec, heavy):
    spec = _admissible_json(rng)
    x = _literal(rng, p, prec, "mixed", heavy)
    argv = ["oracle", "seminorm", "--spec", json.dumps(spec.to_json()), "--series", x.text]
    return argv, lambda: {"exponent": brute_seminorm(spec, x.series, (-20, 20)).to_json()}, x


_REQUESTS = (
    ("eval", _req_eval_plus),
    ("eval", _req_eval_times),
    ("eval", _req_eval_partial),
    ("norm", _req_norm),
    ("classify", _req_classify),
    ("polar", _req_polar),
    ("pseudo-polar", _req_pseudo_polar),
    ("pair", _req_pair),
    ("product-bound", _req_product_bound),
    ("dual-norm", _req_dual_norm),
    ("valuation", _req_valuation),
    ("oracle", _req_oracle_sample),
    ("oracle", _req_oracle_minplus),
    ("oracle", _req_oracle_seminorm),
)

# requests generated to fail with a documented exit code
_ERROR_REQUESTS = (
    ("classify", lambda rng: ["classify", "--module", "no_such_module"], 5),
    ("dual-norm", lambda rng: ["dual-norm", "--module", "O{{t}}"], 4),
    ("pair", lambda rng: ["pair", "--x", f"t^-1 + {1 + rng.below(4)}", "--y", "t + 1",
                          "--target", str(TOO_PRECISE)], 3),
)


def _cli(seed: int, tiny: bool) -> Iterator[Op]:
    n = 10 if tiny else CLI_REQUESTS
    streams = _streams(seed, 0xC1)
    literals = []
    for j in range(n):
        rng = next(streams)
        p = CLI_PRIMES[rng.below(len(CLI_PRIMES))]
        prec = (16, 32, 64)[rng.below(3)]
        head = ["--prime", str(p), "--precision", str(prec)]
        if j % 10 == 9:
            command, make, code = _ERROR_REQUESTS[(j // 10) % len(_ERROR_REQUESTS)]
            yield _cli_op(head + make(rng), command, code, None, {"prime": p, "command": command})
            continue
        command, make = _REQUESTS[j % len(_REQUESTS)]
        heavy = j % 4 == 3
        argv, expected, lit = make(rng, p, prec, heavy)
        props = {"prime": p, "command": command, "max_p_exponent": lit.max_k if lit else 0}
        yield _cli_op(head + argv, command, 0, expected, props)
        if lit is not None:
            literals.append((lit, p, prec))
    # direct library parses of a quarter as many literals, heavy ones included
    for lit, p, prec in literals[: n // 4]:
        yield _parse_op(lit, p, prec)


def _cli_op(argv: list[str], command: str, code: int, expected, props: dict) -> Op:
    def run(call):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = call("cli.main", cli.main, argv)
        return rc, out.getvalue()

    def check(result) -> str | None:
        rc, stdout = result
        if rc != code:
            return f"exit code {rc}, expected {code}: {argv}"
        if code != 0:
            return None if stdout == "" else "an error exit printed a result"
        if json.loads(stdout) != json.loads(json.dumps(expected())):
            return f"output differs from the library result: {argv}"
        return None

    return Op("cli", run, check, (), props)


def _parse_op(lit: _Literal, p: int, prec: int) -> Op:
    def run(call):
        return call("parser.parse_series", parse_series, lit.text, p, None, prec)

    def check(x) -> str | None:
        return None if x == lit.series else f"parse_series({lit.text!r}) differs from its terms"

    return Op("parse", run, check, (), {"prime": p, "max_p_exponent": lit.max_k})


_GENERATORS = {
    "dense_products": _dense,
    "far_sparse": _far,
    "cli_requests": _cli,
}


# ---------------------------------------------------------------------------
# canonical JSON of outputs, for the per-seed digest


def canon(obj) -> Any:
    """A JSON-ready form of an op output.

    ``PAdic`` units are written in hex rather than as base-p digits, which
    carries the same information at a fraction of the cost.
    """
    if isinstance(obj, PAdic):
        return [obj.prime, obj.val.to_json(), format(obj.unit, "x"), obj.precision.to_json()]
    if isinstance(obj, MixedSeries):
        return {
            "kind": "mixed", "lo": obj.lo, "hi": obj.hi,
            "coeffs": [[i, canon(c)] for i, c in obj.coeffs],
            "left": obj.left.to_json(), "right": obj.right.to_json(),
        }
    if isinstance(obj, EqualCharSeries):
        return {
            "kind": "equal", "order": obj.order, "trunc": obj.trunc.to_json(),
            "coeffs": [[i, canon(c)] for i, c in obj.coeffs],
        }
    if isinstance(obj, (tuple, list)):
        return [canon(v) for v in obj]
    if isinstance(obj, Raised):
        return {"raised": obj.name}
    if isinstance(obj, Crashed):
        return {"crashed": obj.reason}
    if hasattr(obj, "to_json"):
        return obj.to_json()
    return obj
