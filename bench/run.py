"""The tdlf benchmark: one workload, one seed, one closed-loop caller.

    python3 bench/run.py --workload dense_products --seed 1 --seconds 12 --trace 0

A single thread drives the library in process; the next op starts when the
previous one returns.  With ``--trace 0`` it times every op and prints the
end-to-end metrics; with ``--trace 1`` it runs each op untraced and then
traced, and prints the per-layer metrics derived from the spans.  Every
output is checked, outside the timed region.  The last line of standard
output is the JSON result; the line before it records the inputs, the
sample count and a sha256 digest of the outputs.  ``--workload all`` runs
every workload in turn and prints one table.

Run it from the root of a checkout: it imports ``tdlf`` from ``src/`` next
to this directory and exits 2 if that is missing.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("dense_products", "far_sparse", "cli_requests")
E2E_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _import_tdlf() -> None:
    """Import tdlf from this checkout's sources; exit 2 without them."""
    if not (SRC / "tdlf" / "__init__.py").is_file():
        print(f"error: no tdlf sources at {SRC}; run from the root of a checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import tdlf

    if Path(tdlf.__file__).resolve().parent != (SRC / "tdlf").resolve():
        print(f"error: imported tdlf from {tdlf.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(args) -> int:
    _import_tdlf()
    sys.path.insert(0, str(BENCH))
    import tracing
    import workloads
    from harness import REF_NOMINAL_S, Ledger, setup_seconds, timed_loop, traced_loop
    from tdlf import SplitMix64

    ops = workloads.build(args.workload, args.seed, args.tiny)
    order = list(range(len(ops)))
    rng = SplitMix64(args.seed)
    for i in range(len(order) - 1, 0, -1):  # seeded Fisher-Yates
        k = rng.below(i + 1)
        order[i], order[k] = order[k], order[i]
    ledger = Ledger(ops)

    info: dict = {"workload": args.workload, "seed": args.seed, "closed_loop_callers": 1}
    info["inputs"] = workloads.input_properties(ops)
    if args.trace:
        tracer, rounds, untraced = traced_loop(ops, order, ledger, args.seconds)
        values = tracing.layer_metrics(tracer, rounds, [op.tags for op in ops], untraced)
        metrics = {name: _metric(v, tracing.unit_of(name)) for name, v in values.items()}
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}.jsonl"
        tracer.write(spans_path)
        info.update(rounds=rounds, spans=len(tracer.spans), spans_file=str(spans_path.relative_to(ROOT)))
    else:
        latencies, reference_s = timed_loop(ops, order, ledger, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # latencies are scaled to a host whose reference loop takes 1 ms
        scale = REF_NOMINAL_S / reference_s
        raw = {
            "ops_per_s": len(latencies) / sum(latencies),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3,
        }
        raw["setup_s"], setup_s = setup_seconds(args.workload, args.seed, args.tiny)
        metrics = {
            "ops_per_s": raw["ops_per_s"] / scale,
            "op_p50_ms": raw["op_p50_ms"] * scale,
            "op_p90_ms": raw["op_p90_ms"] * scale,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
        metrics = {k: _metric(v, E2E_UNITS[k]) for k, v in metrics.items()}
        info.update(samples=len(latencies), reference_loop_ms=reference_s * 1e3, unscaled=raw)
    checks_failed = ledger.check_refs()
    attempted = sum(ledger.runs)
    failed = sum(ledger.bad)
    info.update(
        attempted=attempted,
        fail_ratio=failed / attempted,
        checks={"run": len(ops), "failed": checks_failed},
        digest=ledger.digest(),
        failures=ledger.reasons[:10],
    )
    print(json.dumps(info, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Runs every workload in its own process and prints one table."""
    flags = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        flags.append("--tiny")
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, *flags]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        info_line, result_line = proc.stdout.strip().splitlines()[-2:]
        info, result = json.loads(info_line), json.loads(result_line)
        print(f"{workload}  samples={info.get('samples', info.get('rounds'))}"
              f"  fail_ratio={info['fail_ratio']:.4f}  digest={info['digest'][:16]}")
        for name, m in result["metrics"].items():
            print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
            total["metrics"][f"{workload}.{name}"] = m
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
