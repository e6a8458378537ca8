"""The outputs of the benchmark's three workloads, pinned by their digests.

One round of each workload at seed 1 runs through ``workloads.build``,
``harness.run_op`` and ``harness.Ledger``, as ``bench/run.py`` runs it: every
output check passes, and the sha256 over the outputs is the one recorded
here.  A change to any output of the benchmark then fails in the test suite,
not only in a benchmark run.  The ``dense_products`` round runs again with
the GMP kernel off, whose pure-Python layers give the same outputs.  Nothing
under ``bench/`` is written: no bytecode is cached there.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"

DIGESTS = {
    "dense_products": "59793e4e60d45d0b998e926476990ca3620e3ee6f1513a6c480bf7448da7f7f8",
    "far_sparse": "cf09fe87cc2cebb46e408b0ccb114b47b0bb939ac8bf3ceb6de628534ec1d598",
    "cli_requests": "ad176d7c2dbd6b3eca9988eef52523fa0889d476d92dff827f8423b2f7952931",
}


def digest(name: str, monkeypatch) -> str:
    """The digest of one round of workload ``name`` at seed 1, after every
    output check has passed."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import harness
    import tracing
    import workloads

    ops = workloads.build(name, 1)
    ledger = harness.Ledger(ops)
    for j, op in enumerate(ops):
        out, _ = harness.run_op(op, tracing.direct)
        ledger.record(j, out)
    assert ledger.check_refs() == 0, ledger.reasons[:5]
    assert not any(ledger.bad), ledger.reasons[:5]
    return ledger.digest()


@pytest.mark.parametrize("name", list(DIGESTS))
def test_seed_one_digests(name, monkeypatch):
    assert digest(name, monkeypatch) == DIGESTS[name]


def test_dense_products_with_the_kernel_off(monkeypatch, gmp_off):
    assert digest("dense_products", monkeypatch) == DIGESTS["dense_products"]
