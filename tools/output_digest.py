"""Print SHA-256 digests of the outputs that a solver change must keep.

Run from the repository root, with the package to check importable:

    PYTHONPATH=src python3 tools/output_digest.py [--cv-seeds S ...] [--study-seeds S ...]

Three sets of outputs are digested (standard library and numpy only):

* cv:    every file that ``intmr cv --grid 3x2 --k 5`` followed by
         ``intmr report`` writes on tests/data/highdim, one run per fold seed;
* study: the records of ``sim.run_study`` with all four methods on scenario
         M2_n75_s5_rx01_ry01 (replicate 0, 10x8 grid, K=5, tol 1e-6,
         max_iter 4000, n_test 1000), one run per simulation seed: each
         record's method, MSE bytes, FPR and FNR, and the failures;
* simulate: boxplot.csv and study.json as ``intmr simulate`` writes them for
         scenario M2_n15_s5_rx01_ry01 with all four methods (2 replicates,
         3x2 grid, K=3, n_test 40, tol 1e-5, max_iter 1500, seed 5: the
         arguments of acceptance criterion 8), one run.

The cv and study defaults are the benchmark's inputs.  Each line is
"<set> seed <s> <output> <digest>", so two trees compare with diff: point
PYTHONPATH at the other tree's src to digest its outputs against the same
inputs.

After the digests come the lines that rounding cannot move, so that equal
lines show a solver change kept the iterates when it moves every digest in
the last bits:

* "cv seed <s> iterates <grid iterations> <refit iterations> <cell>" per cv
  run: the sum of CvResult.iterations over the grid, the refit's iteration
  count and the selected (lambda, gamma) index pair;
* "cv15 seed 0 iterates ..." likewise for ``intmr cv --grid 15x15 --k 5
  --seed 0`` on tests/data/highdim;
* "study seed <s> iterates <method> <grid iterations> <refit iterations>"
  per study seed and method: the sum of CvResult.iterations over every
  selection the method ran and the refit iteration counts, comma-joined;
* "cv seed <s> loop <sweeps> <stop events> <working-set changes>" per cv
  run, "cv15 seed 0 loop ..." likewise, and "study seed <s> loop <method>
  ..." per study seed and method: what the CV grid's loops did, summed over
  the method's selections.  They are counted through run_chains's public
  contract alone, so that they read the same on any tree that keeps it:
  sweeps as the state's iteration at the run's last stop event, stop
  events as on_stop calls, and working-set changes as the times on_stop
  got a new cell array.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import tempfile

from intmr import admm, cli, selection, sim

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
HIGHDIM = os.path.join(ROOT, "tests", "data", "highdim")
SCENARIO = "M2_n75_s5_rx01_ry01"
METHODS = ("mr", "ur", "mlasso", "lasso")


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.cli(argv)
    if code != 0:
        raise SystemExit("intmr %s exited %d: %s" % (argv[0], code, out.getvalue().strip()))


def _file_digests(directory):
    digests = []
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            digests.append((name, _sha(fh.read())))
    return digests


@contextlib.contextmanager
def _selections(*targets):
    """The results of every call made in the block to the functions
    (module, name) in targets, in call order, each with the loop counts
    (sweeps, stop events, working-set changes) of the grid runs it made."""
    results, saved = [], [(module, name, getattr(module, name)) for module, name in targets]
    counts = [0, 0, 0]
    run_chains = selection.run_chains

    def counted(block, lambdas, gammas, opts=None, state=None, on_stop=None):
        last = {}

        def stop(state, stopped, cell, position):
            counts[1] += 1
            counts[2] += "cell" in last and last["cell"] is not cell
            last.update(cell=cell, sweeps=state.iteration)
            if on_stop is not None:
                on_stop(state, stopped, cell, position)

        out = run_chains(block, lambdas, gammas, opts, state=state, on_stop=stop)
        counts[0] += last.get("sweeps", 0)
        return out

    def recorder(call):
        def record(*args, **kwargs):
            result = call(*args, **kwargs)
            results.append((result, tuple(counts)))
            counts[:] = [0, 0, 0]
            return result
        return record

    for module, name, call in saved:
        setattr(module, name, recorder(call))
    selection.run_chains = counted
    try:
        yield results
    finally:
        selection.run_chains = run_chains
        for module, name, call in saved:
            setattr(module, name, call)


def cv_digests(seed, grid="3x2"):
    """(file name, digest) of every file that cv and report write, and the
    iterates and loop lines of the cv run."""
    with tempfile.TemporaryDirectory() as tmp, _selections((selection, "select")) as results:
        config = os.path.join(tmp, "config.json")
        blocks = {part: os.path.join(HIGHDIM, part + ".csv") for part in ("y", "x", "z")}
        with open(config, "w") as fh:
            json.dump({"blocks": [blocks]}, fh)
        out = os.path.join(tmp, "out")
        os.mkdir(out)
        _run(["cv", "--config", config, "--grid", grid, "--k", "5", "--seed", str(seed),
              "--out", out])
        _run(["report", "--model", os.path.join(out, "model.json"), "--config", config,
              "--out", out])
        digests = _file_digests(out)
    ((res, loop),) = results
    cell = res.grid.lambdas.index(res.best_lambda), res.grid.gammas.index(res.best_gamma)
    return digests, "%d %d %d,%d" % ((int(res.iterations.sum()), res.refit.iterations) + cell), \
        "%d %d %d" % loop


def simulate_digests(seed):
    """(file name, digest) of every file that intmr simulate writes with
    acceptance criterion 8's arguments and all four methods."""
    with tempfile.TemporaryDirectory() as tmp:
        _run(["simulate", "--scenario", "M2_n15_s5_rx01_ry01", "--replicates", "2",
              "--methods", ",".join(METHODS), "--grid", "3x2", "--k", "3", "--n-test", "40",
              "--tol", "1e-5", "--max-iter", "1500", "--seed", str(seed), "--out", tmp])
        return _file_digests(tmp)


def study_digests(seed):
    """(method, digest) of every record of one replicate and of its
    failures, and the iterates and loop lines of each method."""
    config = sim.parse_scenario(SCENARIO, seed=seed, n_test=1000)
    # sim imports select and select_many by name; each method makes one call
    with _selections((sim, "select"), (sim, "select_many")) as results:
        metrics = sim.run_study([config], methods=METHODS, replicates=1, K=5,
                                opts=admm.SolverOptions(tol=1e-6, max_iter=4000),
                                grid_size=(10, 8))
    digests = [
        (r.method, _sha(r.method.encode() + r.mse.tobytes() + repr((r.fpr, r.fnr)).encode()))
        for r in metrics.records
    ]
    iterates, loops = [], []
    for method, (res, loop) in zip(METHODS, results):
        res = res if isinstance(res, tuple) else (res,)
        iterates.append("%s %d %s" % (method, sum(int(r.iterations.sum()) for r in res),
                                      ",".join(str(r.refit.iterations) for r in res)))
        loops.append("%s %d %d %d" % ((method,) + loop))
    if len(results) != len(METHODS):
        iterates.append("selections %d, expected %d" % (len(results), len(METHODS)))
    return digests + [("failures", _sha(repr(metrics.failures).encode()))], iterates, loops


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cv-seeds", type=int, nargs="*", default=[0, 1, 4, 5, 6, 7, 8, 9])
    parser.add_argument("--study-seeds", type=int, nargs="*", default=[1, 2, 3, 7919])
    args = parser.parse_args(argv)
    iterates = []
    for seed in args.cv_seeds:
        digests, line, loop = cv_digests(seed)
        iterates += ["cv seed %d iterates %s" % (seed, line), "cv seed %d loop %s" % (seed, loop)]
        for name, digest in digests:
            print("cv seed %d %s %s" % (seed, name, digest))
    _, line, loop = cv_digests(0, "15x15")
    iterates += ["cv15 seed 0 iterates %s" % line, "cv15 seed 0 loop %s" % loop]
    for seed in args.study_seeds:
        digests, lines, loops = study_digests(seed)
        iterates += ["study seed %d iterates %s" % (seed, line) for line in lines]
        iterates += ["study seed %d loop %s" % (seed, line) for line in loops]
        for name, digest in digests:
            print("study seed %d %s %s" % (seed, name, digest))
    for name, digest in simulate_digests(5):
        print("simulate seed 5 %s %s" % (name, digest))
    print("\n".join(iterates))


if __name__ == "__main__":
    main()
