"""Print SHA-256 digests of the outputs that a solver change must keep.

Run from the repository root, with the package to check importable:

    PYTHONPATH=src python3 tools/output_digest.py [--cv-seeds S ...] [--study-seeds S ...]

Two sets of outputs are digested (standard library and numpy only):

* cv:    every file that ``intmr cv --grid 3x2 --k 5`` followed by
         ``intmr report`` writes on tests/data/highdim, one run per fold seed;
* study: the records of ``sim.run_study`` with all four methods on scenario
         M2_n75_s5_rx01_ry01 (replicate 0, 10x8 grid, K=5, tol 1e-6,
         max_iter 4000, n_test 1000), one run per simulation seed: each
         record's method, MSE bytes, FPR and FNR, and the failures.

The defaults are the benchmark's inputs.  Each line is "<set> seed <s>
<output> <digest>", so two trees compare with diff: point PYTHONPATH at the
other tree's src to digest its outputs against the same inputs.

After the digests comes one line per cv run that rounding cannot move:
"cv seed <s> iterates <grid iterations> <refit iterations> <cell>", the sum
of CvResult.iterations over the grid, the refit's iteration count and the
selected (lambda, gamma) index pair.  When a solver change moves every
digest in the last bits, equal lines show that it kept the iterates.
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


@contextlib.contextmanager
def _selections():
    """The CvResult of every selection.select call made in the block."""
    results, select = [], selection.select

    def record(*args, **kwargs):
        results.append(select(*args, **kwargs))
        return results[-1]

    selection.select = record
    try:
        yield results
    finally:
        selection.select = select


def cv_digests(seed):
    """(file name, digest) of every file that cv and report write, and the
    iterates line of the cv run."""
    with tempfile.TemporaryDirectory() as tmp, _selections() as results:
        config = os.path.join(tmp, "config.json")
        blocks = {part: os.path.join(HIGHDIM, part + ".csv") for part in ("y", "x", "z")}
        with open(config, "w") as fh:
            json.dump({"blocks": [blocks]}, fh)
        out = os.path.join(tmp, "out")
        os.mkdir(out)
        _run(["cv", "--config", config, "--grid", "3x2", "--k", "5", "--seed", str(seed),
              "--out", out])
        _run(["report", "--model", os.path.join(out, "model.json"), "--config", config,
              "--out", out])
        digests = []
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                digests.append((name, _sha(fh.read())))
    (res,) = results
    cell = res.grid.lambdas.index(res.best_lambda), res.grid.gammas.index(res.best_gamma)
    return digests, "%d %d %d,%d" % ((int(res.iterations.sum()), res.refit.iterations) + cell)


def study_digests(seed):
    """(method, digest) of every record of one replicate, and of its failures."""
    config = sim.parse_scenario(SCENARIO, seed=seed, n_test=1000)
    metrics = sim.run_study([config], methods=METHODS, replicates=1, K=5,
                            opts=admm.SolverOptions(tol=1e-6, max_iter=4000),
                            grid_size=(10, 8))
    digests = [
        (r.method, _sha(r.method.encode() + r.mse.tobytes() + repr((r.fpr, r.fnr)).encode()))
        for r in metrics.records
    ]
    return digests + [("failures", _sha(repr(metrics.failures).encode()))]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cv-seeds", type=int, nargs="*", default=[0, 1, 4, 5, 6, 7, 8, 9])
    parser.add_argument("--study-seeds", type=int, nargs="*", default=[1, 2, 3, 7919])
    args = parser.parse_args(argv)
    iterates = []
    for seed in args.cv_seeds:
        digests, line = cv_digests(seed)
        iterates.append("cv seed %d iterates %s" % (seed, line))
        for name, digest in digests:
            print("cv seed %d %s %s" % (seed, name, digest))
    for seed in args.study_seeds:
        for name, digest in study_digests(seed):
            print("study seed %d %s %s" % (seed, name, digest))
    print("\n".join(iterates))


if __name__ == "__main__":
    main()
