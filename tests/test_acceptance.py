"""End-to-end acceptance checks.

One test per numbered criterion, in order; each prints a single pass line
(visible with -s or -rA) and enforces its stated tolerance and runtime
budget.  Criteria 4 and 5 reuse the twenty fits produced for criterion 3.
"""

import json
import os
import time
from itertools import islice

import numpy as np
import pytest

from intmr.model import HyperParams, objective, stack
from intmr.prox import soft_threshold, group_soft_threshold
from intmr.admm import (
    SolverOptions,
    fit,
    kkt_residual,
    augmented_lagrangian,
    zero_state,
)
from intmr.sim import SimConfig, run_study
from intmr.cli import cli
from helpers import (
    make_data,
    prox_gradient_reference,
    reference_sweep,
    run_cli_process,
    scalar_prox_oracle,
    vector_prox_oracle,
)

DATA = os.path.join(os.path.dirname(__file__), "data")


def announce(num, text):
    print("PASS criterion %d: %s" % (num, text))


# -- shared instances for criteria 3-5 --------------------------------------

N_INSTANCES = 20
OPT_TOL = 1e-9
OPT_OPTS = SolverOptions(tol=OPT_TOL, max_iter=50000)


@pytest.fixture(scope="module")
def optimality_runs():
    """Twenty seeded penalized problems with their converged fits."""
    runs = []
    t0 = time.perf_counter()
    for i in range(N_INSTANCES):
        rng = np.random.default_rng(100 + i)
        data = make_data(rng, M=2, n=30, p=4, q=2, r=2)
        hp = HyperParams(lam=0.3, gamma=0.3)
        runs.append((data, hp, fit(data, hp, OPT_OPTS)))
    elapsed = time.perf_counter() - t0
    return runs, elapsed


def test_criterion_1_prox_operators_match_characterization_oracle():
    t0 = time.perf_counter()
    assert soft_threshold(3.0, 1.0) == 2.0
    assert soft_threshold(-0.5, 1.0) == 0.0
    assert np.array_equal(group_soft_threshold(np.array([3.0, 4.0]), 2.5), [1.5, 2.0])
    rng = np.random.default_rng(1001)
    for _ in range(1000):
        a = rng.uniform(-5, 5) * 10.0 ** rng.integers(-2, 3)
        b = rng.uniform(0, 5)
        x = soft_threshold(a, b)
        achieved = 0.5 * (x - a) ** 2 + b * abs(x)
        assert achieved <= scalar_prox_oracle(a, b) + 1e-8
    for _ in range(1000):
        c = rng.standard_normal(rng.integers(1, 6)) * 10.0 ** rng.integers(-2, 3)
        d = rng.uniform(0, 5)
        v = group_soft_threshold(c, d)
        achieved = 0.5 * ((v - c) ** 2).sum() + d * np.linalg.norm(v)
        assert achieved <= vector_prox_oracle(c, d) + 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, "prox checks took %.1f s" % elapsed
    announce(1, "2x1000 prox characterizations within 1e-8 (%.1f s)" % elapsed)


def test_criterion_2_unpenalized_fit_matches_normal_equations():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(20):
        rng = np.random.default_rng(2000 + i)
        data = make_data(rng, M=2, n=50, p=5, q=2, r=3)
        rep = fit(
            data,
            HyperParams(lam=0.0, gamma=0.0),
            SolverOptions(tol=1e-13, max_iter=30000),
        )
        for m, block in enumerate(data):
            W = np.hstack([np.ones((block.n, 1)), block.X, block.Z])
            theta = np.linalg.lstsq(W, block.Y, rcond=None)[0]
            got = np.vstack(
                [rep.fit.alpha[m][None, :], rep.fit.B[m], rep.fit.C[m]]
            )
            worst = max(worst, float(np.abs(got - theta).max()))
    assert worst <= 1e-6, "max abs coefficient error %.3g" % worst
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, "unpenalized fits took %.1f s" % elapsed
    announce(2, "20 instances, max abs error %.2e vs least squares (%.1f s)" % (worst, elapsed))


def test_criterion_3_objective_matches_proximal_gradient_reference(optimality_runs):
    runs, fit_time = optimality_runs
    t0 = time.perf_counter()
    worst_rel = 0.0
    worst_kkt = 0.0
    for data, hp, rep in runs:
        _, _, _, f_ref = prox_gradient_reference(data, hp.lam, hp.gamma)
        f_admm = objective(data, rep.fit, hp)
        rel = abs(f_admm - f_ref) / abs(f_ref)
        worst_rel = max(worst_rel, rel)
        worst_kkt = max(worst_kkt, kkt_residual(data, rep.fit, hp))
    assert worst_rel <= 1e-6, "relative objective gap %.3g" % worst_rel
    assert worst_kkt <= 1e-4, "KKT residual %.3g" % worst_kkt
    elapsed = fit_time + time.perf_counter() - t0
    assert elapsed < 60.0, "optimality checks took %.1f s" % elapsed
    announce(
        3,
        "20 instances, rel gap %.2e, KKT %.2e (%.1f s)" % (worst_rel, worst_kkt, elapsed),
    )


def test_criterion_4_consensus_and_homogeneity_at_convergence(optimality_runs):
    runs, _ = optimality_runs
    worst_gap = 0.0
    for data, hp, rep in runs:
        assert rep.converged
        worst_gap = max(worst_gap, rep.consensus_gap)
        assert rep.fit.support_is_homogeneous()
    assert worst_gap <= 100 * OPT_TOL, "consensus gap %.3g" % worst_gap
    announce(
        4,
        "gap %.2e <= 100*tol=%.0e; shared support homogeneous in 20/20 fits"
        % (worst_gap, 100 * OPT_TOL),
    )


def test_criterion_5_huge_penalties_give_intercept_only_fit(optimality_runs):
    runs, _ = optimality_runs
    worst = 0.0
    hp = HyperParams(lam=1e6, gamma=1e6)
    for data, _, _ in runs:
        rep = fit(data, hp, SolverOptions(tol=1e-12, max_iter=20000))
        for m, block in enumerate(data):
            assert not rep.fit.B[m].any()
            assert not rep.fit.C[m].any()
            worst = max(
                worst, float(np.abs(rep.fit.alpha[m] - block.Y.mean(axis=0)).max())
            )
    assert worst <= 1e-8, "intercept error %.3g" % worst
    announce(5, "B=C=0 and max |alpha - colmean(Y)| = %.2e over 20 fits" % worst)


def test_criterion_6_primal_steps_never_increase_merit_function():
    rng = np.random.default_rng(6001)
    hp = HyperParams(lam=0.4, gamma=0.3)
    rho = SolverOptions().rho
    checked = 0
    for _ in range(1000):
        data = make_data(rng, M=2, n=8, p=3, q=2, r=2)
        block = stack(data)
        st = zero_state(block)
        st.alpha = rng.standard_normal(st.alpha.shape)
        st.B = rng.standard_normal(st.B.shape)
        st.B_bar = rng.standard_normal(st.B.shape)
        st.B_dual = rng.standard_normal(st.B.shape)
        st.C = rng.standard_normal(st.C.shape)
        st.C_bar = rng.standard_normal(st.C.shape)
        st.C_dual = rng.standard_normal(st.C.shape)
        L = augmented_lagrangian(block, st, hp, rho)
        # the five steps before the dual ascent
        for step in islice(reference_sweep(data, st, hp, rho), 5):
            after = augmented_lagrangian(block, st, hp, rho)
            assert after <= L + 1e-10, step
            L = after
        checked += 1
    announce(6, "5 update steps non-increasing on %d random states (tol 1e-10)" % checked)


def test_criterion_7_study_reproduces_qualitative_findings():
    t0 = time.perf_counter()
    cfg = SimConfig(
        M=2, n=75, s=5, rho_x=0.1, rho_y=0.1, replicates=20, n_test=1000, seed=0
    )
    metrics = run_study(
        [cfg],
        methods=("mr", "mlasso", "lasso"),
        K=5,
        opts=SolverOptions(tol=1e-6, max_iter=4000),
        grid_size=(10, 8),
    )
    assert not metrics.failures, metrics.failures
    by = lambda name: [r for r in metrics.records if r.method == name]
    fnr_mr = float(np.median([r.fnr for r in by("mr")]))
    fnr_lasso = float(np.median([r.fnr for r in by("lasso")]))
    assert fnr_mr <= fnr_lasso, (fnr_mr, fnr_lasso)
    mse_mr = np.median(np.stack([r.mse for r in by("mr")]), axis=0)
    mse_ml = np.median(np.stack([r.mse for r in by("mlasso")]), axis=0)
    ratio = mse_mr / mse_ml
    assert (ratio <= 1.1).all(), ratio
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, "study took %.1f s" % elapsed
    announce(
        7,
        "median FNR %.3f (joint) <= %.3f (lasso); MSE ratio max %.3f <= 1.1 (%.0f s)"
        % (fnr_mr, fnr_lasso, float(ratio.max()), elapsed),
    )


# -- criteria 8 and 9 drive the installed command line -----------------------


def _write_config(path, blocks, out):
    with open(path, "w") as fh:
        json.dump({"blocks": blocks, "out": str(out)}, fh)
    return str(path)


def _toy_blocks():
    toy = os.path.join(DATA, "toy")
    return [
        {
            "y": os.path.join(toy, "y0.csv"),
            "x": os.path.join(toy, "x0.csv"),
            "z": os.path.join(toy, "z0.csv"),
        },
        {"y": os.path.join(toy, "y1.csv"), "x": os.path.join(toy, "x1.csv")},
    ]


def test_criterion_8_cli_outputs_are_deterministic(tmp_path):
    # each run is its own process: two reruns with one BLAS thread, and one
    # with two threads
    cv_files = ("cv_matrix.csv", "cv_diagnostics.csv", "selection.json", "model.json")
    snapshots = []
    for name, threads in (("a", 1), ("b", 1), ("c", 2)):
        out = tmp_path / ("cv_" + name)
        out.mkdir()
        cfg = _write_config(out / "config.json", _toy_blocks(), out)
        run_cli_process(["cv", "--config", cfg, "--grid", "0.6,0.12;0.4,0.08", "--k", "3",
                         "--seed", "7", "--tol", "1e-9"], threads)
        snapshots.append({f: (out / f).read_bytes() for f in cv_files})
    assert snapshots[0] == snapshots[1] == snapshots[2]

    sim_files = ("boxplot.csv", "study.json")
    snapshots = []
    for name, threads in (("a", 1), ("b", 1), ("c", 2)):
        out = tmp_path / ("sim_" + name)
        run_cli_process(
            ["simulate", "--scenario", "M2_n15_s5_rx01_ry01", "--replicates", "2",
             "--methods", "mr,lasso", "--grid", "3x2", "--k", "3", "--n-test", "40",
             "--tol", "1e-5", "--max-iter", "1500", "--seed", "5", "--out", str(out)],
            threads,
        )
        snapshots.append({f: (out / f).read_bytes() for f in sim_files})
    assert snapshots[0] == snapshots[1] == snapshots[2]
    announce(8, "cv and simulate byte-identical across reruns and BLAS thread counts")


def test_criterion_9_cv_pipeline_on_bundled_wide_dataset(tmp_path, capsys):
    # the study this models publishes no data, so a bundled synthetic set
    # with matching shape (22 rows, 200 shared + 150 specific columns)
    # stands in; the pipeline must beat the intercept-only grid corner
    hd = os.path.join(DATA, "highdim")
    blocks = [
        {
            "y": os.path.join(hd, "y.csv"),
            "x": os.path.join(hd, "x.csv"),
            "z": os.path.join(hd, "z.csv"),
        }
    ]
    cfg = _write_config(tmp_path / "config.json", blocks, tmp_path)
    t0 = time.perf_counter()
    code = cli(["cv", "--config", cfg, "--grid", "15x15", "--k", "5", "--seed", "0"])
    elapsed = time.perf_counter() - t0
    assert code == 0, capsys.readouterr().err
    assert elapsed < 300.0, "cv took %.1f s" % elapsed
    with open(tmp_path / "selection.json") as fh:
        sel = json.load(fh)
    lines = (tmp_path / "cv_matrix.csv").read_text().splitlines()
    corner = float(lines[1].split(",")[1])
    assert sel["cv_min"] < corner, (sel["cv_min"], corner)
    announce(
        9,
        "225-cell cv on 22x(200+150) data in %.0f s; cv_min %.3f < corner %.3f"
        % (elapsed, sel["cv_min"], corner),
    )
