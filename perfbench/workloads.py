"""The benchmark workloads: how each stages its inputs from the seed,
what one op is, and how each op's outputs are checked.

Every op drives intmr's public API or ``intmr.cli.cli`` in this process.
Attributes are looked up on the intmr modules at call time, so the tracer's
swapped functions are the ones that run in a traced phase.
"""

import contextlib
import io as _io
import json
import shutil
from pathlib import Path

import numpy as np

import intmr.admm
import intmr.cli
import intmr.sim

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HIGHDIM = ROOT / "tests" / "data" / "highdim"
REFERENCE = HERE / "reference.json"


def _seed_stream(seed, *key):
    return np.random.default_rng(np.random.SeedSequence((int(seed),) + key))


def _cli(argv):
    """Run the CLI with its stdout and stderr captured; returns (code, stderr)."""
    out, err = _io.StringIO(), _io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = intmr.cli.cli(argv)
    return code, err.getvalue().strip()


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# cv-wide


class CvWide:
    """``intmr cv`` on the committed wide set (n=22, p=200, r=150, q=2), K=5,
    then ``intmr report`` on the refit model against the same data.

    The fold seeds come from a recorded pool so every op's selection can be
    compared with values recorded for that fold seed; the run's seed picks
    the order in which the pool is walked.
    """

    name = "cv-wide"
    K = 5
    GRID = {False: "3x2", True: "1x2"}
    # Relative tolerance between an op's CV scores and the recorded ones.
    # The recorded scores are those of the default stopping rule (absolute
    # tol=1e-7), which leaves the smallest-penalty cells up to ~36% away from
    # a tol=1e-11 solve; a solver change that moves them by more than this
    # must re-record reference.json in a change of its own.
    RTOL = 1e-3

    def stage(self, workdir, seed, smoke):
        inputs = workdir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        blocks = {}
        for part in ("y", "x", "z"):
            dest = inputs / ("%s.csv" % part)
            shutil.copyfile(HIGHDIM / dest.name, dest)
            blocks[part] = str(dest)
        config = workdir / "config.json"
        config.write_text(json.dumps({"blocks": [blocks]}))
        grid = self.GRID[smoke]
        with open(REFERENCE) as fh:
            reference = json.load(fh)["cv-wide"][grid]
        pool = sorted(int(s) for s in reference)
        order = [pool[j] for j in _seed_stream(seed, 0xC7).permutation(len(pool))]
        return {
            "config": str(config),
            "out": workdir / "out",
            "grid": grid,
            "reference": reference,
            "order": order,
        }

    def op(self, st, i):
        fold_seed = st["order"][i % len(st["order"])]
        argv = ["cv", "--config", st["config"], "--grid", st["grid"],
                "--k", str(self.K), "--seed", str(fold_seed), "--out", str(st["out"])]
        code, err = _cli(argv)
        if code == 0:
            code, err = _cli(["report", "--model", str(st["out"] / "model.json"),
                              "--config", st["config"], "--out", str(st["out"])])
        return code, err, fold_seed

    def check(self, st, i, result):
        code, err, fold_seed = result
        if code != 0:
            return ["cv or report exited %d: %s" % (code, err)]
        out = st["out"]
        problems = []
        with open(out / "summary.json") as fh:
            summary = json.load(fh)
        with open(out / "selection.json") as fh:
            sel = json.load(fh)
        lines = (out / "cv_matrix.csv").read_text().splitlines()
        cv = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
        with open(out / "model.json") as fh:
            meta = json.load(fh)["meta"]
        ref = st["reference"][str(fold_seed)]
        if not sel["cv_min"] < cv[0, 0]:
            problems.append("cv_min %r not below the corner %r" % (sel["cv_min"], cv[0, 0]))
        if meta["converged"] is not True:
            problems.append("refit did not converge")
        if _rel(summary["kkt_residual_recomputed"], meta["kkt_residual"]) > self.RTOL:
            problems.append("report: kkt_residual %r, refit %r"
                            % (summary["kkt_residual_recomputed"], meta["kkt_residual"]))
        if not np.isfinite(summary["objective_recomputed"]):
            problems.append("report: non-finite objective")
        for key in ("lambdas", "gammas"):
            if len(sel[key]) != len(ref[key]) or any(
                _rel(a, b) > 1e-12 for a, b in zip(sel[key], ref[key])
            ):
                problems.append("%s differ from the recorded grid" % key)
        ref_cv = np.asarray(ref["cv_matrix"])
        if cv.shape != ref_cv.shape or (np.abs(cv - ref_cv) > self.RTOL * ref_cv).any():
            problems.append("cv_matrix differs from the recorded one by more than %g" % self.RTOL)
        if _rel(sel["cv_min"], ref["cv_min"]) > self.RTOL:
            problems.append("cv_min %r, recorded %r" % (sel["cv_min"], ref["cv_min"]))
        # the chosen cell must be a recorded minimum up to the tolerance, so a
        # near-tie may flip without failing the check
        if not problems:
            i_best = sel["lambdas"].index(sel["best_lambda"])
            j_best = sel["gammas"].index(sel["best_gamma"])
            if _rel(ref_cv[i_best, j_best], ref["cv_min"]) > self.RTOL:
                problems.append("selected cell is not a recorded minimum")
        return ["fold seed %d: %s" % (fold_seed, p) for p in problems]


# ---------------------------------------------------------------------------
# study


class Study:
    """One replicate of the criterion-7 scenario through ``sim.run_study``.

    Op i runs replicate 0 of the scenario with ``SimConfig.seed`` drawn from
    (seed, i), so each op sees fresh data through the public entry point.
    """

    name = "study"
    SCENARIO = "M2_n75_s5_rx01_ry01"
    METHODS = ("mr", "mlasso", "lasso")
    SIZE = {
        False: {"grid_size": (10, 8), "K": 5, "n_test": 1000},
        True: {"grid_size": (3, 2), "K": 3, "n_test": 200},
    }

    def stage(self, workdir, seed, smoke):
        return {"seed": seed, "size": self.SIZE[smoke],
                "opts": intmr.admm.SolverOptions(tol=1e-6, max_iter=4000)}

    def op(self, st, i):
        size = st["size"]
        config = intmr.sim.parse_scenario(
            self.SCENARIO,
            seed=int(_seed_stream(st["seed"], 0x57, i).integers(2**31)),
            n_test=size["n_test"],
        )
        return intmr.sim.run_study(
            [config],
            methods=self.METHODS,
            replicates=1,
            K=size["K"],
            opts=st["opts"],
            grid_size=size["grid_size"],
        )

    def check(self, st, i, metrics):
        problems = ["failure: %s" % (f,) for f in metrics.failures]
        methods = sorted(r.method for r in metrics.records)
        if methods != sorted(self.METHODS):
            problems.append("records per method: %s" % methods)
        for r in metrics.records:
            if not np.isfinite(r.mse).all():
                problems.append("%s: non-finite MSE" % r.method)
        return problems


WORKLOADS = {w.name: w for w in (CvWide(), Study())}
