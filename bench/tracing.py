"""Spans around the benchmark's calls into the modules of ``tdlf``.

Every call the benchmark makes into a library module goes through a
``call(name, fn, *args)`` function.  Untraced runs use :func:`direct`, which
only forwards the call.  Traced runs use a :class:`Tracer`, which keeps one
span per call in memory (name, start, end, parent op span, op id, typed
error) plus a few output counters, and writes the spans out at the end.
Nothing inside ``src/tdlf`` is instrumented.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter_ns

from tdlf import (
    EqualCharSeries,
    ExponentResult,
    Membership,
    MixedSeries,
    PAdic,
    PrecisionExhausted,
    SeqSpec,
    TdlfError,
)

LAYERS = ("padic", "seqspec", "series", "seminorm", "submodule", "duality", "parser", "cli")
# sweep buckets of op tags, each reported as <tag>.op_p50_ms
GROUP_TAGS = (
    "prec32", "prec256", "prec2048",
    "win21", "win41", "win81",
    "far.d1e1", "far.d1e2", "far.d1e3", "far.d1e4",
)


def direct(name, fn, *args, **kwargs):
    """The untraced ``call``: forwards to the library and records nothing."""
    return fn(*args, **kwargs)


class Tracer:
    """In-memory span recorder with per-call output counters.

    A span is ``(name, start_ns, end_ns, parent, op_id, error)``; ``parent``
    is the index of the enclosing op span (``None`` for op spans) and
    ``error`` the class name of a typed error the call raised.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts = {
            "series.coeff_pairs": 0,
            "series.coeffs_out": 0,
            "series.calls": 0,
            "series.exhausted": 0,
            "seqspec.values_out": 0,
            "seminorm.evals": 0,
            "seminorm.exact": 0,
            "submodule.memberships": 0,
            "submodule.decided": 0,
            "padic.max_unit_bits": 0,
        }
        self._op_span: int | None = None
        self._op_id: int | None = None

    def begin_op(self, op_id: int, kind: str) -> None:
        self._op_id = op_id
        self._op_span = len(self.spans)
        self.spans.append([f"op.{kind}", perf_counter_ns(), None, None, op_id, None])

    def end_op(self) -> None:
        self.spans[self._op_span][2] = perf_counter_ns()
        self._op_span = self._op_id = None

    def call(self, name, fn, *args, **kwargs):
        error = None
        start = perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
            if name == "cli.main" and out != 0:
                error = f"exit {out}"  # the CLI reports typed errors as exit codes
        except TdlfError as exc:
            error = type(exc).__name__
            raise
        finally:
            end = perf_counter_ns()
            self.spans.append((name, start, end, self._op_span, self._op_id, error))
            self._tally(name, args, out if error is None else None, error)
        return out

    def _tally(self, name: str, args: tuple, out, error: str | None) -> None:
        c = self.counts
        layer = name.split(".", 1)[0]
        if layer == "series":
            c["series.calls"] += 1
            if error == PrecisionExhausted.__name__:
                c["series.exhausted"] += 1
            if name == "series.mul":
                c["series.coeff_pairs"] += len(args[0].coeffs) * len(args[1].coeffs)
        if error is not None:
            return
        if isinstance(out, (MixedSeries, EqualCharSeries)):
            if layer == "series":
                c["series.coeffs_out"] += len(out.coeffs)
            bits = max((x.unit.bit_length() for _, x in out.coeffs), default=0)
            c["padic.max_unit_bits"] = max(c["padic.max_unit_bits"], bits)
        elif isinstance(out, PAdic):
            c["padic.max_unit_bits"] = max(c["padic.max_unit_bits"], out.unit.bit_length())
        seq = out if isinstance(out, SeqSpec) else getattr(out, "seq", None)
        if isinstance(seq, SeqSpec):
            c["seqspec.values_out"] += len(seq.values)
        if name == "seminorm.eval_exponent" and isinstance(out, ExponentResult):
            c["seminorm.evals"] += 1
            c["seminorm.exact"] += out.exact
        if name == "submodule.membership":
            c["submodule.memberships"] += 1
            c["submodule.decided"] += out != Membership.UNKNOWN

    def write(self, path) -> None:
        """Write the spans as JSON lines, one span per line."""
        keys = ("name", "start_ns", "end_ns", "parent", "op", "error")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _p(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics; 0 for an
    empty sample."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(
    tracer: Tracer,
    rounds: int,
    op_tags: list[tuple[str, ...]],
    untraced_s: float,
) -> dict[str, float]:
    """Per-layer metrics from the spans of ``rounds`` whole traced rounds.

    Counts and busy times are per round, so they repeat exactly for a seed.
    ``op_tags[op_id]`` names the sweep groups (``win81``, ``prec2048``,
    ``far.d1e3`` ...) whose ``op_p50_ms`` the op contributes to.
    """
    calls = {layer: 0 for layer in LAYERS}
    busy_ns = {layer: 0 for layer in LAYERS}
    errors = {layer: 0 for layer in LAYERS}
    per_fn: dict[str, list[float]] = {}
    per_group: dict[str, list[float]] = {}
    traced_ns = 0
    for name, start, end, parent, op_id, error in tracer.spans:
        dur = end - start
        if parent is None:
            traced_ns += dur
            for tag in op_tags[op_id]:
                per_group.setdefault(tag, []).append(dur / 1e6)
            continue
        layer = name.split(".", 1)[0]
        calls[layer] += 1
        busy_ns[layer] += dur
        if error is not None:
            errors[layer] += 1
        else:
            per_fn.setdefault(name, []).append(dur)

    def fn_p(name: str, q: int, scale: float) -> float:
        return _p(per_fn.get(name, []), q) / scale

    c = tracer.counts
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer] / rounds
        out[f"{layer}.busy_s"] = busy_ns[layer] / 1e9 / rounds
        out[f"{layer}.share"] = busy_ns[layer] / traced_ns if traced_ns else 0.0
        out[f"{layer}.errors"] = errors[layer] / rounds
    out["padic.dot.p50_us"] = fn_p("padic.dot", 50, 1e3)
    out["series.mul.p50_ms"] = fn_p("series.mul", 50, 1e6)
    out["series.mul.p90_ms"] = fn_p("series.mul", 90, 1e6)
    out["series.add.p50_ms"] = fn_p("series.add", 50, 1e6)
    out["duality.pairing.p50_ms"] = fn_p("duality.pairing", 50, 1e6)
    out["seqspec.canonical.p50_ms"] = fn_p("seqspec.canonical", 50, 1e6)
    out["submodule.module_sum.p50_ms"] = fn_p("submodule.module_sum", 50, 1e6)
    out["submodule.product_bound.p50_ms"] = fn_p("submodule.product_bound", 50, 1e6)
    out["submodule.membership.p50_ms"] = fn_p("submodule.membership", 50, 1e6)
    out["seminorm.eval_exponent.p50_ms"] = fn_p("seminorm.eval_exponent", 50, 1e6)
    out["parser.parse_series.p50_ms"] = fn_p("parser.parse_series", 50, 1e6)
    out["cli.main.p50_ms"] = fn_p("cli.main", 50, 1e6)
    for tag in GROUP_TAGS:
        out[f"{tag}.op_p50_ms"] = _p(per_group.get(tag, []), 50)
    out["series.coeff_pairs"] = c["series.coeff_pairs"] / rounds
    out["series.coeffs_out"] = c["series.coeffs_out"] / rounds
    out["seqspec.values_out"] = c["seqspec.values_out"] / rounds
    out["seminorm.exact_ratio"] = _ratio(c["seminorm.exact"], c["seminorm.evals"])
    out["submodule.decided_ratio"] = _ratio(c["submodule.decided"], c["submodule.memberships"])
    out["series.exhausted_ratio"] = _ratio(c["series.exhausted"], c["series.calls"])
    out["padic.max_unit_bits"] = c["padic.max_unit_bits"]
    out["trace_overhead_ratio"] = traced_ns / 1e9 / untraced_s - 1.0
    return out


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, read off its name."""
    for suffix, unit in _UNITS:
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


_UNITS = (
    (".busy_s", "s"),
    ("_ms", "ms"),
    ("_us", "us"),
    ("_bits", "bits"),
    ("ratio", "ratio"),
    (".share", "ratio"),
    (".calls", "count"),
    (".errors", "count"),
    ("_pairs", "count"),
    ("_out", "count"),
)


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
