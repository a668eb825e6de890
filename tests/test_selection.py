import numpy as np
import pytest

from intmr.model import DatasetBlock, IntegratedDataset, HyperParams, residual_matrix, stack
from intmr.admm import (
    AdmmSolver, SolverOptions, fit, run_chains,
)
from intmr import selection
from intmr.selection import (
    FoldAssignment,
    CvGrid,
    make_folds,
    default_grid,
    penalty_ceiling,
    select,
    select_many,
    _split,
)
from intmr.sim import generate, SimConfig, mse
from helpers import make_data, two_fold_stack


def held_out_score(fit, held):
    """Held-out loss of a fit, (1 / 2n) ||Y - fitted||_F^2 summed over
    datasets."""
    total = 0.0
    for m, block in enumerate(held):
        R = residual_matrix(block, fit.alpha[m], fit.B[m], fit.C[m])
        total += 0.5 * (R * R).sum() / block.n
    return total


def cv_score(data, folds, hp, opts=None):
    """CV criterion at one (lam, gamma) from cold-start fits, over the same
    fold split that select uses."""
    scores = []
    for k in range(1, folds.K + 1):
        train, held = _split(data, folds, k)
        rep = AdmmSolver(train).fit(hp, opts=opts)
        scores.append(held_out_score(rep.fit, held))
    return float(np.mean(scores))


class TestFolds:
    def test_balanced_even_split(self):
        rng = np.random.default_rng(0)
        data = make_data(rng, M=2, n=10, p=2, q=1, r=0)
        folds = make_folds(data, 5, seed=3)
        for lab in folds.labels:
            counts = np.bincount(lab, minlength=6)[1:]
            assert (counts == 2).all()

    def test_balanced_uneven_split(self):
        rng = np.random.default_rng(1)
        data = make_data(rng, M=1, n=11, p=2, q=1, r=0)
        folds = make_folds(data, 5, seed=3)
        counts = sorted(np.bincount(folds.labels[0], minlength=6)[1:])
        assert counts == [2, 2, 2, 2, 3]

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(2)
        data = make_data(rng, M=2, n=13, p=2, q=1, r=1)
        f1 = make_folds(data, 4, seed=9)
        f2 = make_folds(data, 4, seed=9)
        f3 = make_folds(data, 4, seed=10)
        for a, b in zip(f1.labels, f2.labels):
            assert np.array_equal(a, b)
        assert any(
            not np.array_equal(a, b) for a, b in zip(f1.labels, f3.labels)
        )

    def test_k_bounds(self):
        rng = np.random.default_rng(3)
        data = make_data(rng, M=2, n=6, p=2, q=1, r=0)
        with pytest.raises(ValueError):
            make_folds(data, 1, seed=0)
        with pytest.raises(ValueError):
            make_folds(data, 7, seed=0)
        make_folds(data, 6, seed=0)

    def test_labels_validated(self):
        with pytest.raises(ValueError):
            FoldAssignment(labels=(np.array([0, 1, 2]),), K=2, seed=0)


class TestGrid:
    def test_descending_positive_enforced(self):
        CvGrid(lambdas=(1.0, 0.5), gammas=(2.0,))
        with pytest.raises(ValueError):
            CvGrid(lambdas=(0.5, 1.0), gammas=(1.0,))
        with pytest.raises(ValueError):
            CvGrid(lambdas=(1.0, 0.0), gammas=(1.0,))
        with pytest.raises(ValueError):
            CvGrid(lambdas=(), gammas=(1.0,))

    def test_default_grid_shape_and_range(self):
        rng = np.random.default_rng(4)
        data = make_data(rng, M=2, n=30, p=4, q=2, r=2)
        grid = default_grid(data)
        assert len(grid.lambdas) == 15 and len(grid.gammas) == 15
        assert grid.lambdas[0] / grid.lambdas[-1] == pytest.approx(1e3, rel=1e-9)
        assert grid.gammas[0] / grid.gammas[-1] == pytest.approx(1e3, rel=1e-9)

    def test_ceiling_fit_is_intercept_only(self):
        rng = np.random.default_rng(5)
        data = make_data(rng, M=2, n=25, p=4, q=2, r=3)
        lam_ref, gamma_ref = penalty_ceiling(data)
        rep = fit(data, HyperParams(lam_ref, gamma_ref), SolverOptions(tol=1e-10))
        assert not rep.fit.support_B.any()
        assert not any(s.any() for s in rep.fit.support_C)
        # just inside the ceiling something must enter
        rep2 = fit(
            data,
            HyperParams(lam_ref * 0.5, gamma_ref * 0.5),
            SolverOptions(tol=1e-10),
        )
        assert rep2.fit.support_B.any() or any(s.any() for s in rep2.fit.support_C)

    def test_no_specific_covariates_gets_placeholder_gammas(self):
        rng = np.random.default_rng(6)
        data = make_data(rng, M=2, n=20, p=3, q=2, r=0)
        grid = default_grid(data)
        assert grid.gammas == (1.0,)
        assert len(grid.lambdas) == 15


def intercept_only_cv_oracle(data, folds):
    """Closed form for huge penalties: predictions are training-fold column
    means."""
    total = 0.0
    for k in range(1, folds.K + 1):
        for m, block in enumerate(data):
            mask = folds.labels[m] == k
            if not mask.any():
                continue
            mu = block.Y[~mask].mean(axis=0)
            R = block.Y[mask] - mu[None, :]
            total += (R * R).sum() / (2.0 * mask.sum())
    return total / folds.K


class TestCvScore:
    def test_huge_penalties_match_column_mean_oracle(self):
        rng = np.random.default_rng(7)
        data = make_data(rng, M=2, n=20, p=3, q=2, r=2)
        folds = make_folds(data, 4, seed=1)
        score = cv_score(
            data, folds, HyperParams(1e7, 1e7), SolverOptions(tol=1e-12, max_iter=30000)
        )
        assert score == pytest.approx(intercept_only_cv_oracle(data, folds), rel=1e-8)

    def test_duplicated_data_recovers_in_sample_loss(self):
        # each fold holds one copy of the same rows, so CV at lam=gamma=0
        # equals the in-sample least squares loss
        rng = np.random.default_rng(8)
        base = make_data(rng, M=2, n=12, p=3, q=2, r=2)
        doubled = []
        labels = []
        for b in base:
            doubled.append(
                DatasetBlock(
                    Y=np.vstack([b.Y, b.Y]),
                    X=np.vstack([b.X, b.X]),
                    Z=np.vstack([b.Z, b.Z]),
                )
            )
            labels.append(np.array([1] * b.n + [2] * b.n))
        data2 = IntegratedDataset(tuple(doubled))
        folds = FoldAssignment(labels=tuple(labels), K=2, seed=0)
        score = cv_score(
            data2, folds, HyperParams(0.0, 0.0), SolverOptions(tol=1e-13, max_iter=30000)
        )
        in_sample = 0.0
        for b in base:
            W = np.hstack([np.ones((b.n, 1)), b.X, b.Z])
            theta = np.linalg.lstsq(W, b.Y, rcond=None)[0]
            R = b.Y - W @ theta
            in_sample += (R * R).sum() / (2.0 * b.n)
        assert score == pytest.approx(in_sample, rel=1e-6, abs=1e-9)

    def test_empty_training_fold_rejected(self):
        rng = np.random.default_rng(9)
        data = make_data(rng, M=1, n=4, p=1, q=1, r=0)
        folds = FoldAssignment(labels=(np.array([1, 1, 1, 1]),), K=2, seed=0)
        with pytest.raises(ValueError):
            cv_score(data, folds, HyperParams(0.1, 0.1))

    def test_fold_relabeling_invariance(self):
        rng = np.random.default_rng(10)
        data = make_data(rng, M=2, n=16, p=3, q=2, r=1)
        folds = make_folds(data, 4, seed=2)
        hp = HyperParams(0.2, 0.2)
        opts = SolverOptions(tol=1e-10)
        base = cv_score(data, folds, hp, opts)
        swap = {1: 3, 2: 4, 3: 1, 4: 2}
        relabeled = FoldAssignment(
            labels=tuple(
                np.vectorize(swap.get)(lab) for lab in folds.labels
            ),
            K=4,
            seed=0,
        )
        assert cv_score(data, relabeled, hp, opts) == pytest.approx(base, rel=1e-12)

    def test_dataset_permutation_with_its_folds(self):
        # datasets of unequal n_m and r_m reordered, each keeping its own fold
        # labels: the CV matrix over one grid moves only by rounding, and
        # every fit stops at the same iteration.  make_folds draws the
        # shuffles in dataset order, so the reordered data draw other folds
        rng = np.random.default_rng(52)
        data = make_data(rng, M=3, n=[16, 21, 13], p=3, q=2, r=[2, 0, 1])
        folds = make_folds(data, 4, seed=5)
        grid = default_grid(data, 3, 3)
        perm = [2, 0, 1]
        moved = IntegratedDataset(tuple(data[m] for m in perm))
        moved_folds = FoldAssignment(tuple(folds.labels[m] for m in perm), K=4, seed=5)
        (base, it, conv), = selection._cv_matrices([data], [grid], [folds], None)
        (got, it_p, conv_p), = selection._cv_matrices([moved], [grid], [moved_folds], None)
        assert np.array_equal(it_p, it) and np.array_equal(conv_p, conv)
        assert np.abs(got - base).max() <= 1e-12 * np.abs(base).max()
        drawn = make_folds(moved, 4, seed=5).labels
        assert any(not np.array_equal(a, b) for a, b in zip(drawn, moved_folds.labels))

    def test_informative_penalties_beat_corner_on_clean_signal(self):
        rng = np.random.default_rng(11)
        data = make_data(rng, M=2, n=40, p=4, q=2, r=2, noise=0.05)
        folds = make_folds(data, 5, seed=4)
        lam_ref, gamma_ref = penalty_ceiling(data)
        good = cv_score(data, folds, HyperParams(lam_ref * 1e-3, gamma_ref * 1e-3))
        corner = cv_score(data, folds, HyperParams(lam_ref, gamma_ref))
        assert good < corner


class TestSelect:
    def test_single_cell_grid(self):
        rng = np.random.default_rng(12)
        data = make_data(rng, M=2, n=20, p=3, q=2, r=1)
        grid = CvGrid(lambdas=(0.3,), gammas=(0.2,))
        res = select(data, grid, K=4, seed=1)
        assert res.best_lambda == 0.3 and res.best_gamma == 0.2
        assert res.cv_matrix.shape == (1, 1)
        assert np.isfinite(res.cv_matrix).all() and (res.cv_matrix >= 0).all()

    def test_matrix_matches_cv_score_cellwise(self):
        rng = np.random.default_rng(13)
        data = make_data(rng, M=2, n=18, p=3, q=2, r=2)
        grid = CvGrid(lambdas=(0.5, 0.1), gammas=(0.4, 0.08))
        opts = SolverOptions(tol=1e-12, max_iter=30000)
        res = select(data, grid, K=3, seed=5, opts=opts)
        for i, lam in enumerate(grid.lambdas):
            for j, gam in enumerate(grid.gammas):
                direct = cv_score(data, res.folds, HyperParams(lam, gam), opts)
                assert res.cv_matrix[i, j] == pytest.approx(direct, rel=1e-6, abs=1e-10)

    def test_duplicate_grid_entries_do_not_change_selection(self):
        rng = np.random.default_rng(14)
        data = make_data(rng, M=2, n=18, p=3, q=2, r=1)
        opts = SolverOptions(tol=1e-10)
        res1 = select(
            data, CvGrid(lambdas=(0.4, 0.1), gammas=(0.3,)), K=3, seed=2, opts=opts
        )
        res2 = select(
            data,
            CvGrid(lambdas=(0.4, 0.4, 0.1), gammas=(0.3, 0.3)),
            K=3,
            seed=2,
            opts=opts,
        )
        assert res1.best_lambda == res2.best_lambda
        assert res1.best_gamma == res2.best_gamma

    def test_tie_breaks_prefer_larger_penalties(self):
        # two identical penalty values tie exactly; the larger-lambda,
        # larger-gamma corner must win
        rng = np.random.default_rng(15)
        data = make_data(rng, M=2, n=16, p=3, q=2, r=1)
        grid = CvGrid(lambdas=(1e4, 9e3), gammas=(1e4, 9e3))
        res = select(data, grid, K=4, seed=0, opts=SolverOptions(tol=1e-10))
        assert res.best_lambda == 1e4
        assert res.best_gamma == 1e4

    @pytest.mark.parametrize("gap, want", [(5e-13, (0, 1)), (1e-9, (1, 0))])
    def test_tie_rule_spans_rows_and_columns(self, monkeypatch, gap, want):
        # the minimum sits at (1, 0); (0, 1) wins only when within 1e-12 of
        # it relative to it, since the larger lambda comes before the larger
        # gamma.  The 5e-13 gap is that bound exactly at a minimum of 0.5
        cv_matrix = np.array([[2.0, 0.5 + gap], [0.5, 3.0]])

        def crafted(problems, grids, folds, opts):
            return [(cv_matrix, None, None) for _ in problems]

        monkeypatch.setattr(selection, "_cv_matrices", crafted)
        rng = np.random.default_rng(16)
        data = make_data(rng, M=2, n=16, p=3, q=2, r=1)
        grid = CvGrid(lambdas=(0.4, 0.1), gammas=(0.3, 0.06))
        res = select(data, grid, K=4, seed=0)
        assert (res.best_lambda, res.best_gamma) == (grid.lambdas[want[0]], grid.gammas[want[1]])

    def test_tie_rule_is_relative_to_the_minimum(self, monkeypatch):
        # scores in small response units: a clear minimum at (1, 1), every
        # cell scaled by 1e-14, must still be the one selected rather than
        # tie with the larger-penalty cells
        cv_matrix = 1e-14 * np.array([[2.0, 1.5], [1.2, 1.0]])

        def crafted(problems, grids, folds, opts):
            return [(cv_matrix, None, None) for _ in problems]

        monkeypatch.setattr(selection, "_cv_matrices", crafted)
        data = make_data(np.random.default_rng(17), M=2, n=16, p=3, q=2, r=1)
        grid = CvGrid(lambdas=(0.4, 0.1), gammas=(0.3, 0.06))
        res = select(data, grid, K=4, seed=0)
        assert (res.best_lambda, res.best_gamma) == (0.1, 0.06)

    def test_selection_beats_corner_on_test_mse(self):
        # the corner of the default grid is the intercept-only model; with
        # real signal present the selected model should predict better on
        # fresh data in the vast majority of replicates
        wins = 0
        opts = SolverOptions(tol=1e-6, max_iter=4000)
        for rep in range(20):
            cfg = SimConfig(M=2, n=75, s=5, rho_x=0.1, rho_y=0.1, seed=200 + rep)
            data, _, test = generate(cfg)
            grid = default_grid(data, n_lambdas=8, n_gammas=6)
            res = select(data, grid, K=5, seed=rep, opts=opts)
            corner = fit(
                data, HyperParams(grid.lambdas[0], grid.gammas[0]), opts
            )
            sel_mse = mse(res.refit.fit, test).mean()
            corner_mse = mse(corner.fit, test).mean()
            if sel_mse <= corner_mse:
                wins += 1
        assert wins >= 16


class TestSelectMany:
    def test_matches_separate_selects(self):
        # three problems with their own default grids share one run; a
        # fourth, whose grid has another size, runs on its own
        rng = np.random.default_rng(16)
        problems = [make_data(rng, M=2, n=[18, 22], p=3, q=2, r=[2, 1]) for _ in range(4)]
        grids = [default_grid(d, 3, 2) for d in problems[:3]] + [default_grid(problems[3], 2, 3)]
        assert len(set(g.lambdas for g in grids)) == 4
        many = select_many(problems, grids, K=4, seed=3)
        for data, grid, got in zip(problems, grids, many):
            want = select(data, grid, K=4, seed=3)
            assert got.grid == grid
            assert np.abs(got.cv_matrix - want.cv_matrix).max() <= 1e-12 * want.cv_matrix.max()
            assert np.array_equal(got.iterations, want.iterations)
            assert np.array_equal(got.converged, want.converged)
            assert (got.best_lambda, got.best_gamma) == (want.best_lambda, want.best_gamma)
            assert got.refit.iterations == want.refit.iterations
            for a, b in zip((got.refit.fit.alpha, got.refit.fit.B, got.refit.fit.C),
                            (want.refit.fit.alpha, want.refit.fit.B, want.refit.fit.C)):
                assert all(np.array_equal(x, y) for x, y in zip(a, b))
            assert all(np.array_equal(x, y) for x, y in zip(got.folds.labels, want.folds.labels))

    def test_unequal_row_counts_match_sequential_chains(self):
        # problems of unequal row counts pad each other's folds in one run,
        # on both sides: the training rows are raw (at most 1 + p + r_m + q,
        # 11 and 10 here) or compressed, and the held-out rows number 4 to 8.
        # Each problem's scores still match its own unstacked chains
        rng = np.random.default_rng(18)
        problems = [make_data(rng, M=2, n=n, p=6, q=2, r=[2, 1])
                    for n in ([12, 15], [20, 24], [14, 13])]
        grids = [default_grid(d, 3, 2) for d in problems]
        for data, grid, got in zip(problems, grids, select_many(problems, grids, K=3, seed=2)):
            scores, iters, conv = sequential_chains(data, grid, got.folds)
            ref = scores.mean(axis=0)
            assert np.abs(got.cv_matrix - ref).max() <= 1e-9 * np.abs(ref).max()
            assert np.array_equal(got.iterations, iters)
            assert np.array_equal(got.converged, conv)

    @pytest.mark.parametrize("other", [
        dict(M=3, p=3, q=2, r=1), dict(M=2, p=4, q=2, r=1), dict(M=2, p=3, q=1, r=1),
        dict(M=2, p=3, q=2, r=2),
    ])
    def test_problems_of_other_shapes_rejected(self, other):
        rng = np.random.default_rng(17)
        problems = [make_data(rng, M=2, n=15, p=3, q=2, r=1), make_data(rng, n=15, **other)]
        grid = CvGrid(lambdas=(0.3,), gammas=(0.2,))
        with pytest.raises(ValueError):
            select_many(problems, [grid, grid], K=3, seed=0)


def sequential_chains(data, grid, folds, opts=None):
    """Per-fold scores, iteration counts and convergence flags from one
    warm-started AdmmSolver.fit chain per (fold, gamma): the unstacked
    reference for select."""
    shape = (folds.K, len(grid.lambdas), len(grid.gammas))
    scores, iters, conv = np.zeros(shape), np.zeros(shape, int), np.zeros(shape, bool)
    for k in range(folds.K):
        train, held = _split(data, folds, k + 1)
        solver = AdmmSolver(train)
        for j, gam in enumerate(grid.gammas):
            init = None
            for i, lam in enumerate(grid.lambdas):
                rep = solver.fit(HyperParams(lam, gam), opts=opts, init=init)
                init = rep.state
                scores[k, i, j] = held_out_score(rep.fit, held)
                iters[k, i, j] = rep.iterations
                conv[k, i, j] = rep.converged
    return scores, iters, conv


@pytest.fixture
def working_shapes(monkeypatch):
    """(folds, columns) of the working state at every stop event of the
    grid loop of select."""
    shapes = []

    def spy(block, lambdas, gammas, opts=None, on_stop=None):
        def record(state, *rest):
            shapes.append(state.alpha.shape[1:])
            on_stop(state, *rest)

        return run_chains(block, lambdas, gammas, opts, on_stop=record)

    monkeypatch.setattr(selection, "run_chains", spy)
    return shapes


def assert_matches_sequential(data, grid, K, seed, opts=None, shapes=None):
    """select against sequential chains; with the working_shapes of the
    run, also that the grid narrowed before a later fit stopped."""
    res = select(data, grid, K=K, seed=seed, opts=opts)
    scores, iters, conv = sequential_chains(data, grid, res.folds, opts)
    ref = scores.mean(axis=0)
    assert np.abs(res.cv_matrix - ref).max() <= 1e-9 * np.abs(ref).max()
    assert np.array_equal(res.iterations, iters)
    assert np.array_equal(res.converged, conv)
    if shapes is not None:
        assert shapes[0] == (K, len(grid.gammas) * data.q)
        assert len(set(shapes)) > 1, "the grid never narrowed before a stop"
    return res


class TestStackedGrid:
    def test_uneven_folds(self, working_shapes):
        # uneven folds within a dataset and unequal n_m across datasets
        rng = np.random.default_rng(40)
        data = make_data(rng, M=2, n=[19, 26], p=3, q=2, r=2)
        res = assert_matches_sequential(data, default_grid(data, 3, 2), K=4, seed=3,
                                        shapes=working_shapes)
        for labels in res.folds.labels:
            sizes = np.bincount(labels)[1:]
            assert sizes.min() < sizes.max()
        assert res.iterations.shape == (4, 3, 2) and res.converged.all()

    def test_dataset_without_specific_covariates(self, working_shapes):
        rng = np.random.default_rng(41)
        data = make_data(rng, M=3, n=[16, 13, 21], p=3, q=2, r=[2, 0, 1])
        assert_matches_sequential(data, default_grid(data, 3, 3), K=4, seed=0,
                                  shapes=working_shapes)

    def test_no_shared_covariates_route(self, working_shapes):
        # the one-dataset p = 0 problem that the mlasso baseline routes through
        # select; its width-0 B is narrowed with the rest of the state
        rng = np.random.default_rng(42)
        block = make_data(rng, M=1, n=20, p=4, q=2, r=3)[0]
        routed = IntegratedDataset(
            (DatasetBlock(Y=block.Y, X=np.zeros((20, 0)), Z=np.hstack([block.X, block.Z])),)
        )
        grid = default_grid(routed, n_lambdas=1, n_gammas=4)
        assert_matches_sequential(routed, grid, K=5, seed=1, shapes=working_shapes)

    def test_single_response(self, working_shapes):
        rng = np.random.default_rng(47)
        data = make_data(rng, M=2, n=[18, 23], p=3, q=1, r=[1, 2])
        assert_matches_sequential(data, default_grid(data, 3, 3), K=3, seed=5,
                                  shapes=working_shapes)

    def test_one_cell_grid(self, working_shapes):
        rng = np.random.default_rng(43)
        data = make_data(rng, M=2, n=15, p=3, q=2, r=1)
        grid = CvGrid(lambdas=(0.2,), gammas=(0.1,))
        assert_matches_sequential(data, grid, K=3, seed=2, shapes=working_shapes)

    def test_each_fit_restarts_its_stopping_test(self, working_shapes):
        # a repeated lambda starts its fit at the previous fit's solution;
        # the new fit must still run to its own second check
        rng = np.random.default_rng(48)
        data = make_data(rng, M=2, n=15, p=3, q=2, r=1)
        grid = CvGrid(lambdas=(0.2, 0.2), gammas=(0.1, 0.05))
        res = assert_matches_sequential(data, grid, K=3, seed=0, shapes=working_shapes)
        assert (res.iterations[:, 1] == 2).all()

    def test_capped_chain_does_not_stop_the_others(self, working_shapes):
        rng = np.random.default_rng(44)
        data = make_data(rng, M=2, n=18, p=3, q=2, r=2)
        grid = default_grid(data, 3, 3)
        free = select(data, grid, K=3, seed=4)
        cap = int(np.median(free.iterations))
        working_shapes.clear()
        res = assert_matches_sequential(
            data, grid, K=3, seed=4, opts=SolverOptions(max_iter=cap), shapes=working_shapes
        )
        assert res.converged.any() and not res.converged.all()
        assert (res.iterations[~res.converged] == cap).all()

    def test_scores_after_the_run_match_sequential_chains(self, monkeypatch):
        # the held-out losses are taken after the run from each fit's stored
        # consensus copies; they must match the unstacked reference in a run
        # where chains of different folds stop on one sweep, fits stop at
        # max_iter, and a whole fold leaves the working set
        events = []

        def spy(block, lambdas, gammas, opts=None, on_stop=None):
            def record(state, stopped, cell, position):
                events.append((stopped.any(axis=-1).sum(), cell.shape[0]))
                on_stop(state, stopped, cell, position)

            return run_chains(block, lambdas, gammas, opts, on_stop=record)

        monkeypatch.setattr(selection, "run_chains", spy)
        rng = np.random.default_rng(61)
        data = make_data(rng, M=2, n=[19, 26], p=3, q=2, r=2)
        grid = default_grid(data, 3, 2)
        cap = int(np.percentile(select(data, grid, K=4, seed=1).iterations, 80))
        events.clear()
        res = assert_matches_sequential(data, grid, K=4, seed=1, opts=SolverOptions(max_iter=cap))
        assert not res.converged.all() and (res.iterations[~res.converged] == cap).all()
        assert any(folds >= 2 for folds, _ in events)
        assert any(b < a for (_, a), (_, b) in zip(events, events[1:]))

    def test_tiny_max_iter_marks_capped_cells(self):
        rng = np.random.default_rng(45)
        data = make_data(rng, M=2, n=16, p=3, q=2, r=1)
        res = select(data, default_grid(data, 2, 2), K=4, seed=0,
                     opts=SolverOptions(max_iter=2))
        assert res.iterations.shape == res.converged.shape == (4, 2, 2)
        assert (res.iterations == 2).all() and not res.converged.any()
        assert np.isfinite(res.cv_matrix).all()

    def test_non_finite_iterate_raises(self):
        rng = np.random.default_rng(46)
        data = make_data(rng, M=2, n=12, p=3, q=2, r=1)
        # one huge row: its square overflows in the ridge factor of every
        # fold that trains on it
        X = data[0].X.copy()
        X[0] = 1e160
        blocks = (DatasetBlock(Y=data[0].Y, X=X, Z=data[0].Z), data[1])
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError):
            select(IntegratedDataset(blocks), CvGrid((0.1,), (0.1,)), K=3, seed=0)

    def test_finished_chain_neither_stops_nor_raises(self):
        # two folds of three chains: when the fastest of the six ends its
        # path, the other fold still runs three, so the finished chain stays
        # in the working set as padding
        block = two_fold_stack(np.random.default_rng(48), chains=3)
        lambdas, gammas = (0.3, 0.02), np.array([0.5, 0.05, 0.005])

        def run(on_stop=None):
            return run_chains(block, lambdas, gammas, on_stop=on_stop)

        iters, _ = run()
        totals = iters.sum(axis=-1).ravel()
        first = int(np.argmin(totals))
        assert totals[first] < np.sort(totals)[1]
        swept = []

        def poison(state, stopped, cell, position):
            # once the fastest chain ends its path, its dual turns NaN, and so
            # does every B it computes from then on (B itself is an output of
            # its step: the loop reads it only through the product X B)
            mine = cell == first
            if mine.any() and np.isnan(state.B).any():
                swept.append(True)
            if (stopped & mine).any() and position[mine] == len(lambdas) - 1:
                k, j = np.argwhere(mine)[0]
                state.B_dual[:, k, :, 2 * j : 2 * j + 2] = np.nan

        with np.errstate(all="ignore"):
            poisoned, conv = run(poison)
        assert swept and np.array_equal(poisoned, iters) and conv.all()

    def test_running_chain_still_raises_after_narrowing(self):
        block = two_fold_stack(np.random.default_rng(49), chains=3)
        lambdas, gammas = (0.3, 0.02), np.array([0.5, 0.05, 0.005])
        seen = []

        def poison(state, stopped, cell, position):
            # after the first narrowing, a chain that keeps running gets a NaN
            # dual, so its next C turns NaN
            seen.append(state.alpha.shape)
            if seen[-1] != seen[0]:
                k, j = np.argwhere(~stopped & (position < len(lambdas)))[0]
                state.C_dual[:, k, :, 2 * j] = np.nan

        with np.errstate(all="ignore"), pytest.raises(FloatingPointError):
            run_chains(block, lambdas, gammas, on_stop=poison)
        assert seen[-1] != seen[0]

    @pytest.mark.parametrize("p, r, name", [(3, 0, "B_dual"), (0, 2, "C_dual")])
    def test_running_chain_raises_without_z_or_x_columns(self, p, r, name):
        # the finiteness check reads the chain's stopping value, whose pieces
        # differ when a block has no Z (r_max = 0) or no X (p = 0) columns:
        # a NaN dual given to a chain that keeps running must still raise
        rng = np.random.default_rng(51)
        folds = [make_data(rng, M=2, n=n, p=p, q=2, r=r) for n in (20, 26)]
        block = stack([[f[m] for f in folds] for m in range(2)], chains=3)
        lambdas, gammas = (0.3, 0.02), np.array([0.5, 0.05, 0.005])
        poisoned = []

        def poison(state, stopped, cell, position):
            if not poisoned:
                k, j = np.argwhere(~stopped & (position < len(lambdas)))[0]
                getattr(state, name)[:, k, :, 2 * j] = np.nan
                poisoned.append(cell[k, j])

        with np.errstate(all="ignore"), pytest.raises(FloatingPointError):
            run_chains(block, lambdas, gammas, on_stop=poison)
        assert poisoned

    def test_state_narrows_to_the_running_chains(self):
        block = two_fold_stack(np.random.default_rng(50), chains=3, n=(20, 60))
        lambdas, gammas = (0.3, 0.1, 0.02), np.array([0.5, 0.05, 0.005])
        seen = []

        def record(state, stopped, cell, position):
            # the working state holds the running chains, padded per fold
            # with finished ones to the largest running count
            running = position < len(lambdas)
            assert running.any(axis=-1).all()
            assert running.sum(axis=-1).max() == cell.shape[-1]
            assert state.B.shape[1:] == (cell.shape[0], 3, 2 * cell.shape[1])
            seen.append(cell.shape)

        run_chains(block, lambdas, gammas, on_stop=record)
        assert seen[0] == (2, 3) and seen[-1] == (1, 1)
        assert all(a >= b for prev, now in zip(seen, seen[1:]) for a, b in zip(prev, now))
