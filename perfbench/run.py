"""qworkstats benchmark: run one workload at one seed and check every output.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the ops run untraced and the end-to-end metrics of
``BENCHMARK.json`` are reported; with ``--trace 1`` the per-layer metrics come
from traced passes (see ``tracing.py``). The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Workloads, metrics and the reasons behind them are described in
``perfbench/NOTES.md``.
"""

import os

# One BLAS thread: extra BLAS threads add CPU time to these small dense ops
# without shortening them. Must be set before NumPy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Fresh-process set-up probes per run. A probe is about 0.2 s of CPU, so one
# that meets a busy moment of the host moves a median of 15 little.
SETUP_PROBES = 15
PROBE_TIMEOUT_S = 60


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_library():
    """Import qworkstats from this checkout's ``src`` and the benchmark modules."""
    package = SRC / "qworkstats"
    if not (package / "__init__.py").is_file():
        _fail(f"no qworkstats sources under {package}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import qworkstats

    if Path(qworkstats.__file__).resolve().parent != package.resolve():
        _fail(f"imported qworkstats from {qworkstats.__file__}, not from {package}")
    import tracing
    import workloads

    return tracing, workloads


# ---------------------------------------------------------------------------
# machine facts and host probe


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_facts() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_text = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_text,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": _git_commit(),
    }


def host_probe() -> dict:
    """A fixed reference kernel, timed to show host drift beside the metrics.

    Never used to scale a metric.
    """
    import numpy as np

    a = np.random.default_rng(0).normal(size=(96, 96))
    h = a + a.T
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for _ in range(40):
        np.linalg.eigh(h)
    total = 0
    for i in range(300_000):
        total += i * i
    return {"cpu_s": time.process_time() - cpu0, "wall_s": time.perf_counter() - wall0}


# ---------------------------------------------------------------------------
# measurement


def setup_probe(workload: str, seed: int, workdir: Path) -> dict:
    """CPU seconds of a fresh process until one pass's scenarios are built."""
    workdir.mkdir()
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(workdir)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=False,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({done.returncode}): {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_pass(workloads, name: str, seed: int, pass_index: int, workdir: Path, tracer=None) -> list:
    """Build one pass's ops (untimed), time each op, then gate it (untimed).

    Returns ``(op name, cpu seconds, wall seconds, failures)`` per op.
    """
    pass_dir = Path(tempfile.mkdtemp(prefix=f"pass{pass_index}-", dir=workdir))
    try:
        ops = workloads.build_ops(name, seed, pass_index, pass_dir)
        rows = []
        for op in ops:
            gc.collect()
            if tracer is not None:
                tracer.begin_op()
                tracer.active = True
            cpu0, wall0 = time.process_time(), time.perf_counter()
            try:
                result, failures = op.run(), []
            except Exception as exc:  # an op that raises counts as failed; the run goes on
                result, failures = None, [f"raised {type(exc).__name__}: {exc}"]
            cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
            if tracer is not None:
                tracer.active = False
            if not failures:
                try:
                    failures = op.check(result)
                except Exception as exc:  # a malformed output fails its gate
                    failures = [f"gate raised {type(exc).__name__}: {exc}"]
            rows.append((op.name, cpu, wall, failures))
        return rows
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)


def _wall_summary(samples: list) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    text = f"wall median {statistics.median(ordered):.4f} s"
    if n > 10:
        rank = n - 10
        text += f", p{100.0 * rank / n:.0f} {ordered[rank - 1]:.4f} s"
    return text + f" (n={n})"


def _report_ops(rows: list) -> tuple[dict, int, int]:
    """Print per-op lines; return per-op CPU medians, attempted and failed."""
    by_op: dict[str, list] = {}
    failed = 0
    for name, cpu, wall, failures in rows:
        by_op.setdefault(name, []).append((cpu, wall))
        if failures:
            failed += 1
            for failure in failures:
                print(f"FAIL {name}: {failure}")
    medians = {}
    for name, samples in by_op.items():
        medians[name] = statistics.median(c for c, _ in samples)
        print(f"op {name}: cpu median {medians[name]:.4f} s, {_wall_summary([w for _, w in samples])}")
    return medians, len(rows), failed


class Budget:
    """Starts another pass only if one as long as the longest so far ends
    within the budget, so a run of long passes does not overrun it."""

    def __init__(self, seconds: float):
        self.deadline = time.perf_counter() + seconds
        self.longest = 0.0

    def another(self) -> bool:
        return time.perf_counter() + self.longest <= self.deadline

    @contextlib.contextmanager
    def timed(self):
        start = time.perf_counter()
        yield
        self.longest = max(self.longest, time.perf_counter() - start)


def measure(workloads, name: str, seed: int, seconds: float, workdir: Path) -> tuple[dict, int, int]:
    probes = [setup_probe(name, seed, workdir / f"probe{n}") for n in range(SETUP_PROBES)]
    if any(p["preloaded"] or p["pid"] == os.getpid() for p in probes):
        raise RuntimeError("set-up probe did not run in a fresh process")
    rows = []
    budget = Budget(seconds)
    pass_index = 0
    while not rows or budget.another():
        with budget.timed():
            rows += run_pass(workloads, name, seed, pass_index, workdir)
        pass_index += 1
    medians, attempted, failed = _report_ops(rows)
    print(f"passes: {pass_index}")
    metrics = {
        "cpu_s": sum(medians.values()),
        "setup_s": statistics.median(p["cpu_s"] for p in probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, attempted, failed


def measure_traced(tracing, workloads, name: str, seed: int, seconds: float, workdir: Path):
    """Alternate untraced and traced passes over the same pass-0 inputs.

    Identical inputs make every count comparable between traced passes: the
    counts must repeat exactly, or state carried between passes changed the
    work done.
    """
    tracer = tracing.Tracer()
    untraced_cpu, traced_cpu, traced = [], [], []
    rows = []
    budget = Budget(seconds)
    while len(traced) < 2 or budget.another():
        with budget.timed():
            plain = run_pass(workloads, name, seed, 0, workdir)
            tracer.install()
            tracer.reset()
            try:
                passed = run_pass(workloads, name, seed, 0, workdir, tracer)
            finally:
                tracer.uninstall()
        untraced_cpu.append(sum(r[1] for r in plain))
        traced_cpu.append(sum(r[1] for r in passed))
        traced.append(tracer.metrics())
        rows += plain + passed
    _, attempted, failed = _report_ops(rows)
    counts = [{k: v for k, v in m.items() if not k.endswith(".self_s")} for m in traced]
    repeat = all(c == counts[0] for c in counts)
    if not repeat:
        diff = sorted(k for k in counts[0] if any(c[k] != counts[0][k] for c in counts))
        print(f"FAIL counts differ between traced passes: {', '.join(diff)}")
    metrics = dict(counts[0])
    for key in traced[0]:
        if key.endswith(".self_s"):
            metrics[key] = statistics.median(m[key] for m in traced)
    metrics["trace.cpu_s"] = statistics.median(traced_cpu)
    metrics["trace.overhead_s"] = statistics.median(traced_cpu) - statistics.median(untraced_cpu)
    for layer in tracing.LAYERS:
        print(f"layer {layer}: self {metrics[layer + '.self_s']:.4f} s, calls {metrics[layer + '.calls']}")
    print(f"traced passes: {len(traced)}, counts repeat exactly: {repeat}")
    return metrics, attempted, failed, repeat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that set-up probes are reaped and the work
    # directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        _fail(f"cannot read BENCHMARK.json: {exc}")
    tracing, workloads = _import_library()
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")

    print(f"machine: {json.dumps(machine_facts())}")
    print(f"host probe at start: {json.dumps(host_probe())}")
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.trace:
            values, attempted, failed, repeat = measure_traced(
                tracing, workloads, args.workload, args.seed, args.seconds, workdir
            )
            wanted = spec["per_layer"]
        else:
            values, attempted, failed = measure(workloads, args.workload, args.seed, args.seconds, workdir)
            repeat = True
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"host probe at end: {json.dumps(host_probe())}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": failed == 0 and repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
