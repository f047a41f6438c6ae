"""atomtrap benchmark: closed-loop workloads with end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload storage --seed 1 --seconds 30 --trace 0

One process, one caller, no threads: each op starts after the previous one
ends. An op runs at a master seed from a fixed cycle 0..L-1 rotated by
--seed, and a run measures whole cycles, so every run does the same work.
With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run. Run it from the
root of the repository; see perfbench/README.md.
"""

import os

# Pin BLAS/OpenMP pools before numpy is imported: the fitters' linear algebra
# is tiny and extra threads only contend on a small machine.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("ATOMTRAP_OUTPUT_DIR", None)  # it would redirect the exports

import argparse
import gc
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 5
TAIL_BEYOND = 10


def metric_units(section: str) -> dict[str, str]:
    """Metric name -> unit for one metric list of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def environment(workload, seed) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_pins": {v: os.environ[v] for v in THREAD_VARS},
        "workload_seed": seed,
        "cycle_length": workload.cycle_length,
    }


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest nearest-rank percentile with >= TAIL_BEYOND samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, 1)
    return ordered[rank - 1], 100.0 * rank / n, n


class Bench:
    """Runs ops of one workload, checks them and records digests."""

    def __init__(self, workload, seed, cases, truth, work_dir):
        self.workload = workload
        self.seed = seed
        self.order = workload.cycle(seed)
        self.cases = cases
        self.truth = truth
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[int, dict[str, str]] = {}
        self.first_blobs = None

    def op(self, master_seed, call=None):
        """One op; returns (wall seconds, runs consumed) or None when it failed."""
        self.attempted += 1
        op = self.workload.op
        args = (self.cases[master_seed], self.truth, str(self.work_dir))
        t0 = time.perf_counter()
        try:
            res = call("bench.op", op, *args) if call else op(*args)
        except Exception as exc:  # any raise is a failed op, counted and reported
            return self._fail(master_seed, f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - t0
        blobs = {os.path.basename(p): Path(p).read_bytes() for p in res.paths}
        digest = {name: hashlib.sha256(b).hexdigest() for name, b in sorted(blobs.items())}
        problems = list(res.problems)
        if master_seed == self.order[0]:
            if self.first_blobs is None:
                self.first_blobs = blobs
            elif blobs != self.first_blobs:
                problems.append("re-run of the first op is not byte-identical")
        if self.digests.setdefault(master_seed, digest) != digest:
            problems.append("exports differ from an earlier op at the same master seed")
        if problems:
            return self._fail(master_seed, "; ".join(problems))
        return elapsed, res.runs

    def _fail(self, master_seed, message):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"master_seed {master_seed}: {message}")
        return None

    def cycles(self, budget_s, call=None):
        """Whole cycles while one more is expected to fit in budget_s (at least one)."""
        times, runs, n_cycles = [], 0, 0
        gc.collect()
        start = time.perf_counter()
        while True:
            for master_seed in self.order:
                out = self.op(master_seed, call)
                if out is not None:
                    times.append(out[0])
                    runs += out[1]
            n_cycles += 1
            elapsed = time.perf_counter() - start
            if elapsed * (n_cycles + 1) / n_cycles > budget_s:
                return times, runs


def setup_probe_seconds(workload_name, seed) -> list[float]:
    """Interpreter start to atomtrap imported and configs parsed, in fresh processes."""
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic_ns()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload_name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=True)
        out.append((int(proc.stdout.split()[-1]) - t0) / 1e9)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    if not (ROOT / "src" / "atomtrap" / "__init__.py").is_file():
        print(f"error: no atomtrap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    cases = workload.parse(args.seed)
    if args.setup_probe:
        print(time.monotonic_ns())
        return 0
    truth = workload.truth(next(iter(cases.values())))

    OUT_DIR.mkdir(exist_ok=True)
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    bench = Bench(workload, args.seed, cases, truth, work_dir)
    try:
        report = {"environment": environment(workload, args.seed), "workload": workload.name,
                  "seconds": args.seconds, "trace": args.trace, "cycle": bench.order}
        if args.trace:
            metrics = traced_run(bench, args.seconds, report)
        else:
            metrics = untraced_run(bench, args.seconds, report)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    report.update(attempted=bench.attempted, failed=bench.failed,
                  failed_ratio=bench.failed / bench.attempted, failures=bench.failures,
                  export_sha256={str(k): v for k, v in sorted(bench.digests.items())},
                  metrics=metrics)
    result_path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    env = report["environment"]
    print(f"# workload={workload.name} seed={args.seed} trace={args.trace} "
          f"cycle_length={workload.cycle_length} nproc={env['nproc']} cpu={env['cpu_model']!r} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']}")
    for key in ("ops", "op_tail_percentile", "op_tail_samples"):
        if key in report:
            print(f"# {key} = {report[key]}")
    print(f"# failed_ratio = {report['failed_ratio']} ({bench.failed}/{bench.attempted})")
    for failure in bench.failures:
        print(f"# FAILED {failure}")
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    print(f"# details: {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


def _nothing_measured(bench) -> SystemExit:
    return SystemExit("error: every op failed; nothing to measure\n" + "\n".join(bench.failures))


def _metric(value, unit):
    return {"value": value, "unit": unit}


def untraced_run(bench, seconds, report) -> dict:
    """End-to-end metrics: set-up probes, a warm-up op, then whole cycles for `seconds`."""
    setup = setup_probe_seconds(bench.workload.name, bench.seed)
    bench.op(bench.order[0])  # untimed warm-up; the first timed op re-runs it
    times, runs = bench.cycles(seconds)
    if not times:
        raise _nothing_measured(bench)
    tail_s, pct, n = tail(times)
    report.update(ops=len(times), op_times_s=times, setup_probes_s=setup,
                  op_tail_percentile=pct, op_tail_samples=n)
    values = {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_s,
        "runs_per_s": runs / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: _metric(values[name], unit) for name, unit in metric_units("end_to_end").items()}


def traced_run(bench, seconds, report) -> dict:
    """Per-layer metrics: whole cycles untraced, then traced, each for half of `seconds`."""
    from tracing import Tracer

    bench.op(bench.order[0])  # untimed warm-up
    plain_times, plain_runs = bench.cycles(seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.call("bench.setup", bench.workload.parse, bench.seed)
        traced_times, traced_runs = bench.cycles(seconds / 2, tracer.call)
    finally:
        tracer.uninstall()
    if not plain_times or not traced_times:
        raise _nothing_measured(bench)

    n_ops = len(traced_times)
    per_op = {k: v / n_ops for k, v in tracer.totals.items()}
    # parse_config runs in set-up only, so it is reported per set-up
    per_op["runner.parse_config.self_s"] = tracer.totals["runner.parse_config.self_s"]
    bins_per_op = per_op.get("signals.synthesize_counts.bins", 0.0) + per_op.get(
        "signals.synthesize_detection_burst.bins", 0.0)
    plain_op_s = sum(plain_times) / len(plain_times)
    traced_op_s = sum(traced_times) / n_ops
    per_op.update({
        "bins_per_s": bins_per_op / plain_op_s,
        "tracing.untraced_op_s": plain_op_s,
        "tracing.traced_op_s": traced_op_s,
        "tracing.runs_per_s_delta": traced_runs / sum(traced_times) - plain_runs / sum(plain_times),
        "tracing.bins_per_s_delta": bins_per_op / traced_op_s - bins_per_op / plain_op_s,
    })
    report.update(ops=len(plain_times) + n_ops, trace_totals=dict(tracer.totals))
    return {name: _metric(float(per_op.get(name, 0.0)), unit)
            for name, unit in metric_units("per_layer").items()}


if __name__ == "__main__":
    sys.exit(main())
