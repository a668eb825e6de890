import numpy as np
import pytest

from intmr.model import DatasetBlock, IntegratedDataset, HyperParams, ModelFit
from intmr.admm import SolverOptions, fit
from intmr.selection import default_grid, select
from intmr.sim import (
    SimConfig,
    TruthSet,
    truth,
    gen_ar1_rows,
    generate,
    mse,
    fpr_fnr,
    run_study,
    scenario_name,
    parse_scenario,
    _fit_method,
)
from helpers import objective_reference


class TestTruth:
    def test_shared_pattern_values(self):
        t = truth(2, 5)
        assert t.B_star.shape == (15, 2)
        assert t.B_star[0, 0] == 1.0 and t.B_star[0, 1] == 0.0
        assert t.B_star[5, 1] == 0.5 and t.B_star[5, 0] == 0.0
        assert (t.B_star[10:] == 0).all()
        assert (t.B_star[:5, 0] == 1).all() and (t.B_star[5:10, 1] == 0.5).all()

    def test_second_dataset_swaps_responses(self):
        t = truth(2, 5)
        assert t.C_star[0][0, 0] == 1.0
        assert t.C_star[1][0, 1] == 1.0
        assert t.C_star[1][0, 0] == 0.0
        assert t.C_star[1][5, 0] == 0.5

    def test_third_dataset_pattern(self):
        t = truth(3, 5)
        third = t.C_star[2]
        assert third[3, 0] == 1.0
        assert third[0, 1] == 1.0
        assert third[7, 0] == 0.5
        assert third[9, 1] == 0.0
        assert (third[10:] == 0).all()

    def test_padding_scales_with_s(self):
        t = truth(2, 50)
        assert t.B_star.shape == (60, 2)
        assert (t.B_star[10:] == 0).all()

    def test_m_out_of_range(self):
        with pytest.raises(ValueError):
            truth(4, 5)
        with pytest.raises(ValueError):
            truth(1, 5)


class TestAr1Rows:
    def test_independent_case_moments(self):
        rng = np.random.default_rng(0)
        X = gen_ar1_rows(100000, 4, 0.0, rng)
        S = np.corrcoef(X.T)
        assert np.abs(X.mean(axis=0)).max() < 0.02
        assert np.abs(X.std(axis=0) - 1).max() < 0.02
        off = S[~np.eye(4, dtype=bool)]
        assert np.abs(off).max() < 0.02

    def test_correlated_case_moments(self):
        rng = np.random.default_rng(1)
        X = gen_ar1_rows(100000, 3, 0.9, rng)
        S = np.corrcoef(X.T)
        assert abs(S[0, 1] - 0.9) < 0.01
        assert abs(S[1, 2] - 0.9) < 0.01
        assert abs(S[0, 2] - 0.81) < 0.01

    def test_single_column_and_bounds(self):
        rng = np.random.default_rng(2)
        assert gen_ar1_rows(10, 1, 0.5, rng).shape == (10, 1)
        assert gen_ar1_rows(10, 0, 0.5, rng).shape == (10, 0)
        with pytest.raises(ValueError):
            gen_ar1_rows(10, 2, 1.0, rng)
        with pytest.raises(ValueError):
            gen_ar1_rows(10, 2, -0.1, rng)


class TestGenerate:
    def test_shapes(self):
        cfg = SimConfig(M=3, n=17, s=5, rho_x=0.3, rho_y=0.5, n_test=29)
        data, tset, test = generate(cfg, replicate=2)
        assert data.M == 3 and test.M == 3
        for b in data:
            assert b.Y.shape == (17, 2)
            assert b.X.shape == (17, 15) and b.Z.shape == (17, 15)
        for b in test:
            assert b.n == 29
        assert tset.B_star.shape == (15, 2)

    def test_deterministic_per_replicate(self):
        cfg = SimConfig(M=2, n=9, s=5, seed=42)
        d1, _, t1 = generate(cfg, replicate=3)
        d2, _, t2 = generate(cfg, replicate=3)
        d3, _, _ = generate(cfg, replicate=4)
        for a, b in zip(d1, d2):
            assert np.array_equal(a.Y, b.Y) and np.array_equal(a.X, b.X)
        for a, b in zip(t1, t2):
            assert np.array_equal(a.Y, b.Y)
        assert not np.array_equal(d1[0].Y, d3[0].Y)

    def test_data_follows_claimed_model(self):
        # with plenty of rows, least squares on the generated data recovers
        # the generating coefficients
        cfg = SimConfig(M=2, n=5000, s=5, rho_x=0.1, rho_y=0.1)
        data, tset, _ = generate(cfg, replicate=0)
        for m, b in enumerate(data):
            W = np.hstack([np.ones((b.n, 1)), b.X, b.Z])
            theta = np.linalg.lstsq(W, b.Y, rcond=None)[0]
            assert np.abs(theta[0]).max() < 0.05
            assert np.abs(theta[1:16] - tset.B_star).max() < 0.05
            assert np.abs(theta[16:] - tset.C_star[m]).max() < 0.05


class TestMse:
    def test_oracle_fit_scores_noise_floor(self):
        cfg = SimConfig(M=2, n=10, s=5, rho_x=0.1, rho_y=0.0, n_test=1000)
        _, tset, test = generate(cfg, replicate=1)
        oracle = ModelFit(
            alpha=(np.zeros(2), np.zeros(2)),
            B=(tset.B_star, tset.B_star),
            C=tset.C_star,
        )
        out = mse(oracle, test)
        assert out.shape == (2, 2)
        assert np.abs(out - 1.0).max() < 0.1

    def test_exact_fit_scores_zero(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((8, 2))
        B = rng.standard_normal((2, 2))
        test = IntegratedDataset((DatasetBlock(Y=X @ B, X=X),))
        exact = ModelFit(alpha=(np.zeros(2),), B=(B,), C=(np.zeros((0, 2)),))
        assert np.abs(mse(exact, test)).max() < 1e-25

    def test_constant_offset_squares(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((50, 2))
        B = rng.standard_normal((2, 2))
        test = IntegratedDataset((DatasetBlock(Y=X @ B + 3.0, X=X),))
        off = ModelFit(alpha=(np.zeros(2),), B=(B,), C=(np.zeros((0, 2)),))
        assert np.allclose(mse(off, test), 9.0, atol=1e-10)


def fit_with_support(tset, b_mask, c_masks):
    """Truth-shaped fit whose support is given by the masks."""
    M = len(c_masks)
    return ModelFit(
        alpha=tuple(np.zeros(2) for _ in range(M)),
        B=tuple(np.where(b_mask, 1.0, 0.0) for _ in range(M)),
        C=tuple(np.where(c_masks[m], 1.0, 0.0) for m in range(M)),
    )


class TestSelectionRates:
    def test_perfect_support_is_zero_zero(self):
        t = truth(2, 5)
        perfect = ModelFit(
            alpha=(np.zeros(2), np.zeros(2)),
            B=(t.B_star, t.B_star),
            C=t.C_star,
        )
        for mode in ("paper", "conventional"):
            assert fpr_fnr(perfect, t, mode=mode) == (0.0, 0.0)

    def test_all_nonzero_estimate_frozen_rates(self):
        # truth(2, 5) stacks 120 coefficients: 40 nonzero, 80 zero
        t = truth(2, 5)
        full = fit_with_support(
            t, np.ones((15, 2), bool), [np.ones((15, 2), bool)] * 2
        )
        assert fpr_fnr(full, t, mode="paper") == (2.0, 0.0)
        assert fpr_fnr(full, t, mode="conventional") == (1.0, 0.0)

    def test_all_zero_estimate_frozen_rates(self):
        t = truth(2, 5)
        empty = fit_with_support(
            t, np.zeros((15, 2), bool), [np.zeros((15, 2), bool)] * 2
        )
        assert fpr_fnr(empty, t, mode="paper") == (0.0, 0.5)
        assert fpr_fnr(empty, t, mode="conventional") == (0.0, 1.0)

    def test_conventional_rates_bounded_by_one(self):
        rng = np.random.default_rng(5)
        t = truth(3, 5)
        for _ in range(50):
            f = fit_with_support(
                t,
                rng.random((15, 2)) < 0.5,
                [rng.random((15, 2)) < 0.5 for _ in range(3)],
            )
            fpr, fnr = fpr_fnr(f, t, mode="conventional")
            assert 0.0 <= fpr <= 1.0 and 0.0 <= fnr <= 1.0

    def test_degenerate_truth_rejected(self):
        t = TruthSet(B_star=np.ones((3, 2)), C_star=(np.ones((2, 2)),))
        f = ModelFit(
            alpha=(np.zeros(2),), B=(np.ones((3, 2)),), C=(np.ones((2, 2)),)
        )
        with pytest.raises(ValueError):
            fpr_fnr(f, t)

    def test_bad_mode_rejected(self):
        t = truth(2, 5)
        f = fit_with_support(t, np.zeros((15, 2), bool), [np.zeros((15, 2), bool)] * 2)
        with pytest.raises(ValueError):
            fpr_fnr(f, t, mode="liberal")

    def test_dimension_mismatch_rejected(self):
        t = truth(2, 5)
        f = fit_with_support(t, np.zeros((15, 2), bool), [np.zeros((15, 2), bool)] * 3)
        with pytest.raises(ValueError):
            fpr_fnr(f, t)


class TestBaselines:
    def test_ur_equals_joint_fit_when_single_response(self):
        rng = np.random.default_rng(6)
        blocks = []
        for m in range(2):
            X = rng.standard_normal((25, 3))
            Z = rng.standard_normal((25, 2))
            Y = X[:, :1] * 1.5 + 0.3 * rng.standard_normal((25, 1))
            blocks.append(DatasetBlock(Y=Y, X=X, Z=Z))
        data = IntegratedDataset(tuple(blocks))
        opts = SolverOptions(tol=1e-10)
        direct = select(data, default_grid(data, 2, 2), K=5, seed=3, opts=opts).refit.fit
        ur = _fit_method("ur", data, 5, 3, opts, (2, 2))
        for m in range(2):
            assert np.array_equal(ur.alpha[m], direct.alpha[m])
            assert np.array_equal(ur.B[m], direct.B[m])
            assert np.array_equal(ur.C[m], direct.C[m])

    def test_batched_baselines_equal_per_problem_selects(self):
        # each baseline runs its selections through one select_many; every
        # fit must equal the one from a select call per problem
        data, _, _ = generate(SimConfig(M=2, n=40, s=0, seed=11))
        opts = SolverOptions(tol=1e-6, max_iter=4000)

        def one(problem, n_lambdas):
            grid = default_grid(problem, n_lambdas, 2)
            return select(problem, grid, K=3, seed=4, opts=opts).refit.fit

        def sliced(d, k):
            return IntegratedDataset(tuple(DatasetBlock(Y=b.Y[:, [k]], X=b.X, Z=b.Z) for b in d))

        def routed(b):
            return IntegratedDataset((DatasetBlock(
                Y=b.Y, X=np.zeros((b.n, 0)), Z=np.hstack([b.X, b.Z])),))

        ur = [one(sliced(data, k), 3) for k in range(data.q)]
        mlasso = [one(routed(b), 1) for b in data]
        lasso = [[one(sliced(routed(b), k), 1) for k in range(data.q)] for b in data]
        want = {
            "ur": [(np.concatenate([f.alpha[m] for f in ur]), np.hstack([f.B[m] for f in ur]),
                    np.hstack([f.C[m] for f in ur])) for m in range(data.M)],
            "mlasso": [(f.alpha[0], f.C[0][: b.p], f.C[0][b.p :]) for f, b in zip(mlasso, data)],
            "lasso": [(np.concatenate([f.alpha[0] for f in fs]),
                       np.hstack([f.C[0][: b.p] for f in fs]),
                       np.hstack([f.C[0][b.p :] for f in fs])) for fs, b in zip(lasso, data)],
        }
        for method, parts in want.items():
            got = _fit_method(method, data, 3, 4, opts, (3, 2))
            for m, (alpha, B, C) in enumerate(parts):
                assert np.array_equal(got.alpha[m], alpha), method
                assert np.array_equal(got.B[m], B), method
                assert np.array_equal(got.C[m], C), method

    def test_ur_stacks_to_joint_dimensions(self):
        cfg = SimConfig(M=2, n=30, s=0)
        data, _, _ = generate(cfg, replicate=0)
        ur = _fit_method("ur", data, 3, 0, None, (4, 3))
        assert ur.p == 10 and ur.q == 2 and ur.M == 2
        for m, b in enumerate(data):
            assert ur.C[m].shape == (b.r, 2)

    def test_mlasso_routing_matches_direct_l1(self):
        # all covariates through the grouped path with M = 1 and all through
        # the entrywise path solve the same problem
        rng = np.random.default_rng(7)
        n = 30
        W = rng.standard_normal((n, 6))
        Y = W[:, :2] @ np.array([[1.0, -0.5], [0.4, 0.8]]) + 0.3 * rng.standard_normal(
            (n, 2)
        )
        t = 0.08
        opts = SolverOptions(tol=1e-11)
        via_shared = fit(
            IntegratedDataset((DatasetBlock(Y=Y, X=W),)),
            HyperParams(lam=t, gamma=123.0),
            opts,
        )
        via_specific = fit(
            IntegratedDataset((DatasetBlock(Y=Y, X=np.zeros((n, 0)), Z=W),)),
            HyperParams(lam=123.0, gamma=t),
            opts,
        )
        f1 = objective_reference(
            IntegratedDataset((DatasetBlock(Y=Y, X=W),)),
            [via_shared.fit.alpha[0]],
            [via_shared.fit.B[0]],
            [np.zeros((0, 2))],
            t,
            0.0,
        )
        f2 = objective_reference(
            IntegratedDataset((DatasetBlock(Y=Y, X=np.zeros((n, 0)), Z=W),)),
            [via_specific.fit.alpha[0]],
            [np.zeros((0, 2))],
            [via_specific.fit.C[0]],
            0.0,
            t,
        )
        assert f1 == pytest.approx(f2, abs=1e-8)
        assert np.abs(via_shared.fit.B[0] - via_specific.fit.C[0]).max() < 1e-5

    def test_mlasso_partitions_back_to_blocks(self):
        cfg = SimConfig(M=2, n=40, s=0)
        data, _, _ = generate(cfg, replicate=5)
        res = _fit_method("mlasso", data, 4, 1, None, (15, 5))
        assert res.M == 2
        for m in range(2):
            assert res.B[m].shape == (10, 2)
            assert res.C[m].shape == (10, 2)
            assert res.alpha[m].shape == (2,)


class TestScenarioNames:
    def test_round_trip(self):
        cfg = SimConfig(M=2, n=15, s=5, rho_x=0.1, rho_y=0.9)
        name = scenario_name(cfg)
        assert name == "M2_n15_s5_rx01_ry09"
        back = parse_scenario(name)
        assert back.M == 2 and back.n == 15 and back.s == 5
        assert back.rho_x == pytest.approx(0.1) and back.rho_y == pytest.approx(0.9)

    def test_zero_correlations(self):
        cfg = SimConfig(M=3, n=50, s=50, rho_x=0.0, rho_y=0.0)
        back = parse_scenario(scenario_name(cfg))
        assert back.rho_x == 0.0 and back.rho_y == 0.0 and back.M == 3

    def test_bad_name_rejected(self):
        with pytest.raises(ValueError):
            parse_scenario("M2-n15")


class TestRunStudy:
    def test_records_shape_and_determinism(self):
        cfg = SimConfig(M=2, n=25, s=0, replicates=2, n_test=50, seed=11)
        kw = dict(
            methods=("mr",),
            K=3,
            opts=SolverOptions(tol=1e-6, max_iter=2000),
            grid_size=(4, 3),
        )
        m1 = run_study([cfg], **kw)
        m2 = run_study([cfg], **kw)
        assert len(m1.records) == 2 and not m1.failures
        for a, b in zip(m1.records, m2.records):
            assert a.scenario == b.scenario and a.replicate == b.replicate
            assert np.array_equal(a.mse, b.mse)
            assert a.fpr == b.fpr and a.fnr == b.fnr

    def test_more_covariates_than_rows_runs(self):
        cfg = SimConfig(M=2, n=15, s=50, replicates=1, n_test=30, seed=13)
        metrics = run_study(
            [cfg],
            methods=("mr",),
            K=3,
            opts=SolverOptions(tol=1e-5, max_iter=1500),
            grid_size=(3, 2),
        )
        assert len(metrics.records) == 1 and not metrics.failures

    def test_scenario_strings_accepted(self):
        metrics = run_study(
            ["M2_n20_s0_rx01_ry01"],
            methods=("mr",),
            replicates=1,
            K=3,
            opts=SolverOptions(tol=1e-5, max_iter=1500),
            grid_size=(3, 2),
        )
        assert metrics.records[0].scenario == "M2_n20_s0_rx01_ry01"

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            run_study([SimConfig()], methods=("boost",), replicates=1)

    def test_summary_structure(self):
        cfg = SimConfig(M=2, n=25, s=0, replicates=2, n_test=40, seed=14)
        metrics = run_study(
            [cfg],
            methods=("mr",),
            K=3,
            opts=SolverOptions(tol=1e-5, max_iter=1500),
            grid_size=(3, 2),
        )
        summ = metrics.summary()
        assert len(summ["mse"]) == 4  # 2 datasets x 2 responses
        assert summ["rates"][0]["method"] == "mr"
        assert summ["mse"][0]["q1"] <= summ["mse"][0]["median"] <= summ["mse"][0]["q3"]
