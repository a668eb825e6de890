"""Print where one benchmark op spends its time, part by part.

Run from the repository root, with the package to measure importable:

    PYTHONPATH=src python3 tools/phase_times.py [--workload study] [--ops 10] [--seed 3]

For each workload of perfbench/workloads.py it runs one warm-up op and then
--ops ops, and prints each part's share of the op time, its count per op
and its cost per call:

* sweeps: the loop's sweeps;
* narrowings: building a working set, at a run's start and after each
  narrowing (the count is the number of working sets built);
* held-out scoring: the scorer of the CV grid's stop events, and its pass
  after the run where it has one;
* stop events: the rest of the loop's work after a sweep where fits
  stopped;
* ridge factorizations: admm.ridge_factors;
* other loop work: the rest of admm.run_chains;
* outside run_chains: the rest of the op.

The parts are timed by wrapping the functions named in PARTS; a name that a
source tree lacks is skipped, so the same script measures the trees before
and after a change to the loop.  Wall time on a shared machine moves from
run to run: compare two trees by alternating runs, not from one run each.
CI runs one op of each workload to check that the script still runs, and
discards its output.
"""

import argparse
import collections
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from intmr import admm, model, selection  # noqa: E402

# (module, dotted name) per part; each is timed where no other part encloses it
PARTS = {
    "narrowings": [(admm, "_sweeper"), (admm, "_take_columns"), (model, "PaddedBlock.narrow"),
                   (admm, "_WorkingSet.__init__"), (admm, "_WorkingSet.narrow"),
                   (admm, "_WorkingSet.sweeper")],
    "held-out scoring": [(selection, "_held_out_losses")],
    "ridge factorizations": [(admm, "ridge_factors")],
}
# the functions that build a sweep: they return it, or a tuple led by it
SWEEP_FACTORIES = [(admm, "_sweeper"), (admm, "_WorkingSet.sweeper")]
ROWS = ("sweeps", "narrowings", "held-out scoring", "stop events", "ridge factorizations",
        "other loop work", "outside run_chains")


class Recorder:
    """Times and counts per part; the gap between two sweeps goes to stop
    events when the loop called on_stop in it, to other loop work when not."""

    def __init__(self):
        self.time, self.count = collections.Counter(), collections.Counter()
        self.depth = 0
        self.gap_start = self.gap_parts = 0.0
        self.gap_event = False

    def part(self, name, call, count=True):
        def timed(*args, **kwargs):
            if self.depth:
                return call(*args, **kwargs)
            self.depth += 1
            start = time.perf_counter()
            try:
                return call(*args, **kwargs)
            finally:
                spent = time.perf_counter() - start
                self.depth -= 1
                self.time[name] += spent
                self.count[name] += count
                self.gap_parts += spent
        return timed

    def close_gap(self):
        now = time.perf_counter()
        self.time["stop events" if self.gap_event else "other loop work"] += (
            now - self.gap_start - self.gap_parts)
        self.gap_start, self.gap_parts, self.gap_event = now, 0.0, False

    def sweep(self, call):
        def timed():
            self.close_gap()
            start = time.perf_counter()
            out = call()
            self.gap_start = time.perf_counter()
            self.time["sweeps"] += self.gap_start - start
            self.count["sweeps"] += 1
            return out
        return timed

    def factory(self, call):
        def built(*args, **kwargs):
            out = call(*args, **kwargs)
            self.count["narrowings"] += 1
            if isinstance(out, tuple):
                return (self.sweep(out[0]),) + out[1:]
            return self.sweep(out)
        return built

    def run_chains(self, call):
        def run(block, lambdas, gammas, opts=None, state=None, on_stop=None):
            scorer = on_stop

            def stop(*args):
                self.gap_event = True
                self.count["stop events"] += 1
                if scorer is not None:
                    scorer(*args)

            scored = self.time["held-out scoring"]
            start = self.gap_start = time.perf_counter()
            self.gap_parts, self.gap_event = 0.0, False
            try:
                return call(block, lambdas, gammas, opts, state=state,
                            on_stop=self.part("held-out scoring", stop, scorer is not None))
            finally:
                self.close_gap()
                self.time["run_chains"] += time.perf_counter() - start
                self.time["scoring in runs"] += self.time["held-out scoring"] - scored
        return run


def _lookup(module, dotted):
    owner, *path = [module] + dotted.split(".")
    for name in path[:-1]:
        owner = getattr(owner, name, None)
    return owner, path[-1]


def install(rec):
    """Wrap every named function present; returns the undo list."""
    saved = []

    def wrap(module, dotted, make):
        owner, name = _lookup(module, dotted)
        if owner is not None and hasattr(owner, name):
            saved.append((owner, name, getattr(owner, name)))
            setattr(owner, name, make(getattr(owner, name)))

    for module, dotted in SWEEP_FACTORIES:
        wrap(module, dotted, rec.factory)
    for part, targets in PARTS.items():
        for module, dotted in targets:
            wrap(module, dotted, lambda call, part=part: rec.part(part, call, part != "narrowings"))
    for module in (admm, selection):
        wrap(module, "run_chains", rec.run_chains)
    return saved


def measure(workload, ops, seed):
    with tempfile.TemporaryDirectory() as tmp:
        state = workload.stage(Path(tmp), seed, False)
        workload.op(state, 0)
        rec = Recorder()
        saved = install(rec)
        try:
            op_times = []
            for i in range(1, ops + 1):
                start = time.perf_counter()
                workload.op(state, i)
                op_times.append(time.perf_counter() - start)
        finally:
            for owner, name, call in reversed(saved):
                setattr(owner, name, call)
    total = sum(op_times)
    # the scorer's pass after the run lies outside run_chains
    after = rec.time["held-out scoring"] - rec.time["scoring in runs"]
    rec.time["outside run_chains"] = total - rec.time["run_chains"] - after
    print("%s: %d ops, op median %.4f s, mean %.4f s (wall time)"
          % (workload.name, ops, statistics.median(op_times), total / ops))
    print("| part of a %s op | share | count per op | cost each |" % workload.name)
    print("|---|---:|---:|---:|")
    for row in ROWS:
        count = rec.count[row] / ops
        each = "%.1f us" % (1e6 * rec.time[row] / rec.count[row]) if rec.count[row] else ""
        print("| %s | %.1f%% | %s | %s |" % (row, 100 * rec.time[row] / total,
                                             "%.1f" % count if rec.count[row] else "", each))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), nargs="*",
                        default=["study", "cv-wide"])
    parser.add_argument("--ops", type=int, default=10)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)
    for name in args.workload:
        measure(workloads.WORKLOADS[name], args.ops, args.seed)


if __name__ == "__main__":
    main()
