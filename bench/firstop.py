"""Set-up probe: import tdlf in a fresh interpreter and run one op.

    python3 -I bench/firstop.py <workload> <seed> [--tiny]

``run.py`` times this process from start to exit.  The last line printed is
the time spent importing the benchmark's own modules and generating the op,
which ``run.py`` subtracts: what remains is interpreter start, ``import
tdlf`` and the workload's first op.
"""

import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import tdlf  # noqa: E402,F401

if sys.argv[1] == "cli_requests":
    import tdlf.cli  # noqa: E402,F401  (the tdlf command imports it)

start = perf_counter()
sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402
import workloads  # noqa: E402

op = workloads.first_op(sys.argv[1], int(sys.argv[2]), "--tiny" in sys.argv)
generated = perf_counter() - start
op.run(tracing.direct)
print(generated)
