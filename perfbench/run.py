"""intmr benchmark: one workload, closed loop, for a fixed number of seconds.

    python3 perfbench/run.py --workload cv-wide --seed 0 --seconds 55 --trace 0

One client in this process runs the next op as soon as the last one returns.
Every op's outputs are checked; a failed check counts as a failed op.  With
--trace 0 the last stdout line carries the end-to-end metrics.  With
--trace 1 the run first measures half the time untraced, then half with
spans recorded around calls into each intmr module, and the last line
carries the per-layer metrics; op 0 is then run once more and its exact
work counts must repeat.  --smoke shrinks every workload so the whole
benchmark runs in seconds (see test_smoke.py).
"""

import os

# One BLAS thread for this process and its set-up probes: on two cores a
# second OpenBLAS thread made small fits bimodal (~50 ms or ~250 ms).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_s.p50", "s"),
    ("op_s.tail", "s"),
    ("peak_rss_mb", "MiB"),
)
SETUP_PROBES = 5
REPEAT_OP = -2  # op id of the second run of op 0 in a traced run


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("cv-wide", "study"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, one set-up probe")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def machine_facts():
    import numpy
    import scipy

    def blas(mod):
        try:
            info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return "%s %s" % (info["name"], info["version"])
        except (KeyError, TypeError):
            return "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas_threads": BLAS_THREADS,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def tail(times):
    """p90, or the highest percentile with ten samples beyond it if higher.

    Returns (value, percentile, samples beyond).  With fewer than 100 ops
    fewer than ten samples lie beyond p90; the caller prints how many.
    """
    s = sorted(times)
    n = len(s)
    rank = max(math.ceil(0.9 * n), n - 10)
    return s[rank - 1], 100.0 * rank / n, n - rank


class Loop:
    def __init__(self):
        self.times = []
        self.attempted = 0
        self.problems = []

    @property
    def failed(self):
        return len({i for i, _ in self.problems})


def run_op(wl, st, i, loop, tracer=None, op_id=None):
    root = None
    if tracer is not None:
        tracer.op_id = i if op_id is None else op_id
        root = tracer.open(tracer.name_id("op"))
    t0 = perf_counter()
    try:
        result = wl.op(st, i)
        issues = None
    except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
        issues = [traceback.format_exc(limit=3).strip().splitlines()[-1]]
    dt = perf_counter() - t0
    if root is not None:
        tracer.close(root)
    if issues is None:
        try:
            issues = wl.check(st, i, result)
        except Exception:  # noqa: BLE001 - a broken output is a failed check
            issues = ["output check raised: %s" % traceback.format_exc(limit=1).strip().splitlines()[-1]]
    loop.attempted += 1
    loop.times.append(dt)
    loop.problems.extend((i, p) for p in issues)


def closed_loop(wl, st, seconds, tracer=None):
    loop = Loop()
    deadline = perf_counter() + seconds
    i = 0
    while True:
        run_op(wl, st, i, loop, tracer)
        i += 1
        if perf_counter() >= deadline:
            return loop


def measure_setup(args, n):
    """Median wall time from spawning a fresh interpreter to its inputs
    being staged, over n set-ups."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "1"] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(n):
        t0 = perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline().strip()
            t1 = perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or line != "ready":
            raise RuntimeError("set-up probe failed with exit code %d" % code)
        times.append(t1 - t0)
    return statistics.median(times)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "intmr" / "__init__.py").is_file():
        sys.exit("perfbench: %s not found; run from the root of an intmr checkout" % SRC)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import intmr
    from workloads import WORKLOADS

    if not Path(intmr.__file__).resolve().is_relative_to(SRC):
        sys.exit("perfbench: imported intmr from %s, not %s" % (intmr.__file__, SRC))
    wl = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / (args.workload + ("-smoke" if args.smoke else ""))
    workdir.mkdir(parents=True, exist_ok=True)
    if args.setup_probe:
        wl.stage(workdir / "probe", args.seed, args.smoke)
        print("ready", flush=True)
        return 0

    if args.trace:
        st = wl.stage(workdir / "run", args.seed, args.smoke)
        loops, metrics = traced_run(wl, st, args, workdir)
    else:
        setup_s = measure_setup(args, 1 if args.smoke else SETUP_PROBES)
        st = wl.stage(workdir / "run", args.seed, args.smoke)
        loop = closed_loop(wl, st, args.seconds)
        loops = [loop]
        value, pct, beyond = tail(loop.times)
        values = {
            "setup_s": setup_s,
            "ops_per_s": len(loop.times) / sum(loop.times),
            "op_s.p50": statistics.median(loop.times),
            "op_s.tail": value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    attempted = sum(l.attempted for l in loops)
    failed = sum(l.failed for l in loops)
    problems = [p for l in loops for p in l.problems]
    print("perfbench %s seed=%d trace=%d%s: %d ops, %d failed"
          % (args.workload, args.seed, args.trace, " smoke" if args.smoke else "",
             attempted, failed))
    for name, m in metrics.items():
        print("  %-36s %14.6g %s" % (name, m["value"], m["unit"]))
    if not args.trace:
        print("  %-36s %14.6g ratio" % ("fail_frac", failed / attempted))
        print("  op_s.tail is p%.1f of %d ops, %d samples beyond it" % (pct, len(loop.times), beyond))
        print("  op_s: " + " ".join("%.4g" % t for t in loop.times))
    print("  machine: " + json.dumps(machine_facts(), sort_keys=True))
    for i, p in problems[:20]:
        print("perfbench: op %d: %s" % (i, p), file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def traced_run(wl, st, args, workdir):
    from tracer import LAYER_METRICS, Tracer

    plain = closed_loop(wl, st, args.seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = closed_loop(wl, st, args.seconds / 2, tracer)
        repeat = Loop()
        run_op(wl, st, 0, repeat, tracer, op_id=REPEAT_OP)
    finally:
        tracer.uninstall()
    tracer.write(workdir / "spans.npz")
    counts = tracer.exact_counts(0)
    again = tracer.exact_counts(REPEAT_OP)
    if counts != again:
        diff = {k: (counts[k], again[k]) for k in counts if counts[k] != again[k]}
        sys.exit("perfbench: exact counts of op 0 differ between two runs with seed %d: %s"
                 % (args.seed, diff))
    loops = [plain, traced, repeat]
    values = tracer.layer_times(len(traced.times))
    values.update(counts)
    values["trace.ops"] = len(traced.times)
    values["trace.overhead"] = statistics.median(traced.times) / statistics.median(plain.times)
    values["ops.fail_frac"] = sum(l.failed for l in loops) / sum(l.attempted for l in loops)
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit, _ in LAYER_METRICS}
    return loops, metrics


if __name__ == "__main__":
    sys.exit(main())
