"""The closed loop, the output ledger and the set-up probe.

``run.py`` puts ``src/`` on the path before importing this module.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tdlf import TdlfError
from tracing import Tracer, direct
from workloads import Crashed, Raised, canon

BENCH = Path(__file__).resolve().parent
MIN_OPS = 100  # so that ten samples lie beyond op_p90_ms
SETUP_REPS = 7
REF_ITERATIONS = 20_000
REF_NOMINAL_S = 1e-3  # reference-loop time of the nominal host
REF_INTERVAL_S = 0.05


def run_op(op, call):
    """Run one op; returns its output and its duration in seconds."""
    start = perf_counter()
    try:
        out = op.run(call)
    except TdlfError as exc:
        out = Raised(type(exc).__name__)
    except SystemExit as exc:  # argparse exits instead of returning 2
        out = Crashed(f"SystemExit({exc.code})")
    except Exception as exc:
        out = Crashed(f"{type(exc).__name__}: {exc}")
    return out, perf_counter() - start


class Ledger:
    """Reference output per op, and the executions that failed.

    An execution fails when it crashed, raised a typed error its input was
    not generated to raise (or missed one it was), or differs from the
    op's first output.  The first outputs are checked after the loop.
    """

    def __init__(self, ops):
        self.ops = ops
        self.refs: list = [None] * len(ops)
        self.runs = [0] * len(ops)
        self.bad = [0] * len(ops)
        self.reasons: list[str] = []

    def record(self, j: int, out) -> None:
        self.runs[j] += 1
        op = self.ops[j]
        if self.runs[j] == 1:
            self.refs[j] = out
        reason = None
        if isinstance(out, Crashed):
            reason = out.reason
        elif isinstance(out, Raised) and out.name != op.expect:
            reason = f"unexpected {out.name}"
        elif op.expect and not isinstance(out, Raised):
            reason = f"expected {op.expect}, got a result"
        elif self.runs[j] > 1 and out != self.refs[j]:
            reason = "output differs from the first run of the same input"
        if reason:
            self.bad[j] += 1
            self.reasons.append(f"{op.kind}[{j}]: {reason}")

    def check_refs(self) -> int:
        """Run every op's output check; returns the number that failed."""
        failed = 0
        for j, (op, ref) in enumerate(zip(self.ops, self.refs)):
            if isinstance(ref, (Crashed, Raised)) or ref is None:
                continue  # already counted, or an expected error
            reason = op.check(ref)
            if reason:
                failed += 1
                self.bad[j] = self.runs[j]
                self.reasons.append(f"{op.kind}[{j}] check: {reason}")
        return failed

    def digest(self) -> str:
        text = json.dumps([canon(r) for r in self.refs], sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


def reference_loop() -> float:
    """Seconds for a fixed pure-Python integer loop that runs no tdlf code.

    The shared host's CPU speed drifts by a quarter within seconds and
    between runs; timing this loop between ops measures that drift.
    """
    start = perf_counter()
    s = 0
    for i in range(REF_ITERATIONS):
        s += i * i
    return perf_counter() - start


def timed_loop(ops, order, ledger: Ledger, seconds: float) -> tuple[list[float], float]:
    """Untraced closed loop over whole rounds, until ``seconds`` have passed
    and ``MIN_OPS`` ops are done, so every run has the round's op mix.

    Returns the op latencies and the median time of the reference loop,
    which runs between two ops at most every ``REF_INTERVAL_S``.
    """
    latencies: list[float] = []
    references: list[float] = []
    next_reference = 0.0
    deadline = perf_counter() + seconds
    while len(latencies) < MIN_OPS or perf_counter() < deadline:
        for j in order:
            out, dt = run_op(ops[j], direct)
            latencies.append(dt)
            ledger.record(j, out)
            if perf_counter() >= next_reference:
                references.append(reference_loop())
                next_reference = perf_counter() + REF_INTERVAL_S
    return latencies, statistics.median(references)


def traced_loop(ops, order, ledger: Ledger, seconds: float):
    """Runs each op untraced, then traced, in whole rounds until
    ``seconds`` have passed.  Returns the tracer, the round count and the
    untraced time."""
    tracer = Tracer()
    untraced = 0.0
    rounds = 0
    deadline = perf_counter() + seconds
    while not rounds or perf_counter() < deadline:
        for j in order:
            out, dt = run_op(ops[j], direct)
            untraced += dt
            ledger.record(j, out)
            tracer.begin_op(j, ops[j].kind)
            try:
                out, _ = run_op(ops[j], tracer.call)
            finally:
                tracer.end_op()
            ledger.record(j, out)
        rounds += 1
    return tracer, rounds, untraced


def setup_seconds(workload: str, seed: int, tiny: bool) -> tuple[float, float]:
    """Wall time for a fresh interpreter to import tdlf and finish the
    workload's first op, less the time spent generating that op.

    Returns the median over the repetitions, unscaled and scaled to the
    nominal host by the reference loop timed just before each one.
    """
    cmd = [sys.executable, "-I", str(BENCH / "firstop.py"), workload, str(seed)]
    if tiny:
        cmd.append("--tiny")
    samples, scaled = [], []
    for rep in range(SETUP_REPS + 1):
        reference = statistics.median(reference_loop() for _ in range(3))
        start = perf_counter()
        proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True, timeout=120)
        wall = perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"first-op process failed: {proc.stderr.strip()}")
        if rep:  # the first one also compiles bytecode; users start warm
            sample = wall - float(proc.stdout.split()[-1])
            samples.append(sample)
            scaled.append(sample * REF_NOMINAL_S / reference)
    return statistics.median(samples), statistics.median(scaled)
