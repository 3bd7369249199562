"""Set-up probe, run in a fresh process by ``run.py``.

Measures the CPU seconds from before NumPy and qworkstats are imported until
every scenario of one pass of a workload is built and validated, and prints
one JSON line.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR
"""

import time

_START = time.process_time()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_PRELOADED = sorted(name for name in ("numpy", "qworkstats") if name in sys.modules)
_HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(_HERE.parent / "src"), str(_HERE)]

import workloads  # noqa: E402  (imports numpy and qworkstats)


def main() -> None:
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    ops = workloads.build_ops(workload, seed, 0, workdir)
    cpu_s = time.process_time() - _START
    print(json.dumps({"cpu_s": cpu_s, "pid": os.getpid(), "preloaded": _PRELOADED, "ops": len(ops)}))


if __name__ == "__main__":
    main()
