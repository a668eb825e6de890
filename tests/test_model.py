import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from intmr.model import (
    DatasetBlock,
    IntegratedDataset,
    HyperParams,
    ModelFit,
    _evaluate,
    objective,
    residual_matrix,
    group_norms,
    predict,
    stack,
)
from intmr.admm import (
    AdmmSolver, SolverOptions, fit, kkt_residual, run_chains, zero_state,
)
from intmr.selection import default_grid, penalty_ceiling
from helpers import (
    draw_blocks, make_data, padded_stack, random_fit, objective_reference, run_sweeps,
)


def kkt_reference(data, mf, hp):
    """Largest stationarity violation, per dataset and per coefficient from
    the conditions' definitions."""
    worst = 0.0
    GB = []
    for m, block in enumerate(data):
        R = block.Y - mf.alpha[m] - block.X @ mf.B[m] - block.Z @ mf.C[m]
        worst = max(worst, np.abs(R.sum(axis=0) / block.n).max())
        GB.append(-block.X.T @ R / block.n)
        GC = -block.Z.T @ R / block.n
        for (j, k), c in np.ndenumerate(mf.C[m]):
            viol = abs(GC[j, k] + hp.gamma * np.sign(c)) if c else abs(GC[j, k]) - hp.gamma
            worst = max(worst, viol)
    for j in range(data.p):
        for k in range(data.q):
            beta = np.array([b[j, k] for b in mf.B])
            grad = np.array([g[j, k] for g in GB])
            norm = np.linalg.norm(beta)
            if norm:
                worst = max(worst, np.linalg.norm(grad + hp.lam * beta / norm))
            else:
                worst = max(worst, np.linalg.norm(grad) - hp.lam)
    return float(worst)


def ceiling_reference(data):
    """Loss gradients at the intercept-only fit, per dataset: the largest
    group norm over X and the largest entry over Z, each bumped by 1e-6
    relative."""
    GB, gamma_ref = [], 0.0
    for block in data:
        R = block.Y - block.Y.mean(axis=0)
        GB.append(block.X.T @ R / block.n)
        if block.r:
            gamma_ref = max(gamma_ref, np.abs(block.Z.T @ R / block.n).max())
    lam_ref = np.sqrt((np.array(GB) ** 2).sum(axis=0)).max() if data.p else 0.0
    return lam_ref * (1 + 1e-6), gamma_ref * (1 + 1e-6)


def one_block_scalar():
    # n=1, p=q=1, no specific covariates
    return IntegratedDataset(
        (DatasetBlock(Y=np.array([[2.0]]), X=np.array([[1.0]]), Z=None),)
    )


class TestContainers:
    def test_block_shapes_and_missing_z(self):
        b = DatasetBlock(Y=np.ones((4, 2)), X=np.ones((4, 3)))
        assert (b.n, b.p, b.q, b.r) == (4, 3, 2, 0)
        assert b.Z.shape == (4, 0)

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DatasetBlock(Y=np.ones((4, 2)), X=np.ones((5, 3)))

    def test_non_finite_rejected(self):
        Y = np.ones((3, 2))
        Y[0, 0] = np.nan
        with pytest.raises(ValueError):
            DatasetBlock(Y=Y, X=np.ones((3, 1)))

    def test_blocks_are_read_only(self):
        b = DatasetBlock(Y=np.ones((3, 2)), X=np.ones((3, 1)))
        with pytest.raises(ValueError):
            b.Y[0, 0] = 5.0

    def test_dimension_agreement_across_blocks(self):
        b1 = DatasetBlock(Y=np.ones((3, 2)), X=np.ones((3, 2)))
        b2 = DatasetBlock(Y=np.ones((5, 2)), X=np.ones((5, 3)))
        with pytest.raises(ValueError):
            IntegratedDataset((b1, b2))

    def test_varying_specific_widths_allowed(self):
        b1 = DatasetBlock(Y=np.ones((3, 2)), X=np.ones((3, 2)), Z=np.ones((3, 4)))
        b2 = DatasetBlock(Y=np.ones((5, 2)), X=np.ones((5, 2)))
        data = IntegratedDataset((b1, b2))
        assert data.M == 2 and data.p == 2 and data.q == 2
        assert [b.r for b in data] == [4, 0]

    def test_hyperparams_validation(self):
        HyperParams(0.0, 0.0)
        with pytest.raises(ValueError):
            HyperParams(-1.0, 0.0)
        with pytest.raises(ValueError):
            HyperParams(0.0, -0.5)

    def test_fit_supports_reflect_exact_zeros(self):
        B1 = np.array([[1.0, 0.0], [0.0, 0.0]])
        B2 = np.array([[0.5, 0.0], [0.0, 0.0]])
        fit = ModelFit(
            alpha=(np.zeros(2), np.zeros(2)),
            B=(B1, B2),
            C=(np.array([[0.0, 2.0]]), np.zeros((0, 2))),
        )
        assert np.array_equal(fit.support_B, [[True, False], [False, False]])
        assert np.array_equal(fit.support_C[0], [[False, True]])
        assert fit.support_is_homogeneous()


class TestResiduals:
    def test_perfect_fit_gives_zero(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((6, 3))
        Z = rng.standard_normal((6, 2))
        B = rng.standard_normal((3, 2))
        C = rng.standard_normal((2, 2))
        a = rng.standard_normal(2)
        block = DatasetBlock(Y=a + X @ B + Z @ C, X=X, Z=Z)
        R = residual_matrix(block, a, B, C)
        assert np.abs(R).max() < 1e-12

    def test_matches_direct_arithmetic(self):
        rng = np.random.default_rng(1)
        data = make_data(rng, M=1, n=8, p=3, q=2, r=2)
        block = data[0]
        a = rng.standard_normal(2)
        B = rng.standard_normal((3, 2))
        C = rng.standard_normal((2, 2))
        R = residual_matrix(block, a, B, C)
        direct = block.Y - (np.ones((8, 1)) @ a[None, :] + block.X @ B + block.Z @ C)
        assert np.allclose(R, direct, atol=1e-14)

    def test_shape_mismatch_rejected(self):
        block = DatasetBlock(Y=np.ones((4, 2)), X=np.ones((4, 3)))
        with pytest.raises(ValueError):
            residual_matrix(block, np.zeros(2), np.zeros((2, 2)), np.zeros((0, 2)))

    def test_predict_inverts_residual(self):
        rng = np.random.default_rng(2)
        data = make_data(rng, M=1, n=5, p=2, q=2, r=1)
        block = data[0]
        fit = random_fit(rng, data)
        total = predict(block, fit.alpha[0], fit.B[0], fit.C[0]) + residual_matrix(
            block, fit.alpha[0], fit.B[0], fit.C[0]
        )
        assert np.allclose(total, block.Y, atol=1e-14)


class TestGroupNorms:
    def test_known_values(self):
        B1 = np.array([[3.0, 0.0]])
        B2 = np.array([[4.0, 0.0]])
        gn = group_norms([B1, B2])
        assert np.allclose(gn, [[5.0, 0.0]])

    def test_single_dataset_is_absolute_value(self):
        B = np.array([[-2.0, 0.5]])
        assert np.allclose(group_norms([B]), np.abs(B))


class TestObjective:
    def test_scalar_case_frozen(self):
        # loss 0.5*(2-1)^2 plus group penalty 1*|1|
        data = one_block_scalar()
        fit = ModelFit(alpha=(np.zeros(1),), B=(np.array([[1.0]]),), C=(np.zeros((0, 1)),))
        val = objective(data, fit, HyperParams(lam=1.0, gamma=0.0))
        assert val == pytest.approx(1.5, abs=1e-15)

    def test_zero_fit_is_pure_response_energy(self):
        rng = np.random.default_rng(3)
        data = make_data(rng, M=2, n=6, p=2, q=2, r=1)
        fit = ModelFit(
            alpha=tuple(np.zeros(2) for _ in range(2)),
            B=tuple(np.zeros((2, 2)) for _ in range(2)),
            C=tuple(np.zeros((b.r, 2)) for b in data),
        )
        val = objective(data, fit, HyperParams(5.0, 5.0))
        expect = sum(0.5 / b.n * (b.Y**2).sum() for b in data)
        assert val == pytest.approx(expect, rel=1e-14)

    def test_matches_independent_recomputation(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            data = make_data(
                rng,
                M=int(rng.integers(1, 4)),
                n=int(rng.integers(4, 12)),
                p=int(rng.integers(0, 4)),
                q=int(rng.integers(1, 3)),
                r=int(rng.integers(0, 3)),
            )
            fit = random_fit(rng, data)
            lam, gamma = rng.uniform(0, 2, size=2)
            hp = HyperParams(lam=lam, gamma=gamma)
            mine = objective(data, fit, hp)
            ref = objective_reference(
                data, list(fit.alpha), list(fit.B), list(fit.C), lam, gamma
            )
            assert mine == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_dataset_permutation_invariance(self):
        rng = np.random.default_rng(5)
        data = make_data(rng, M=3, n=7, p=3, q=2, r=[1, 2, 0])
        fit = random_fit(rng, data)
        hp = HyperParams(0.4, 0.7)
        base = objective(data, fit, hp)
        perm = [2, 0, 1]
        data_p = IntegratedDataset(tuple(data[i] for i in perm))
        fit_p = ModelFit(
            alpha=tuple(fit.alpha[i] for i in perm),
            B=tuple(fit.B[i] for i in perm),
            C=tuple(fit.C[i] for i in perm),
        )
        assert objective(data_p, fit_p, hp) == pytest.approx(base, rel=1e-14)
        assert kkt_residual(data_p, fit_p, hp) == pytest.approx(
            kkt_residual(data, fit, hp), rel=1e-14
        )
        assert penalty_ceiling(data_p) == pytest.approx(penalty_ceiling(data), rel=1e-14)

    def test_zero_penalties_reduce_to_loss(self):
        rng = np.random.default_rng(6)
        data = make_data(rng, M=2, n=6, p=2, q=2, r=2)
        fit = random_fit(rng, data)
        val = objective(data, fit, HyperParams(0.0, 0.0))
        loss = sum(
            0.5
            / b.n
            * (residual_matrix(b, fit.alpha[m], fit.B[m], fit.C[m]) ** 2).sum()
            for m, b in enumerate(data)
        )
        assert val == pytest.approx(loss, rel=1e-14)

    def test_growing_a_coefficient_off_perfect_fit_increases(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((10, 2))
        B = np.array([[1.0, 0.0], [0.0, 2.0]])
        data = IntegratedDataset((DatasetBlock(Y=X @ B, X=X),))
        hp = HyperParams(0.3, 0.3)
        exact = ModelFit(alpha=(np.zeros(2),), B=(B,), C=(np.zeros((0, 2)),))
        bumped = B.copy()
        bumped[0, 1] += 0.5
        worse = ModelFit(alpha=(np.zeros(2),), B=(bumped,), C=(np.zeros((0, 2)),))
        assert objective(data, worse, hp) > objective(data, exact, hp)

    def test_convexity_along_segments(self):
        rng = np.random.default_rng(8)
        data = make_data(rng, M=2, n=8, p=3, q=2, r=2)
        hp = HyperParams(0.8, 0.6)
        for _ in range(50):
            f1 = random_fit(rng, data)
            f2 = random_fit(rng, data)
            t = float(rng.uniform())
            mix = ModelFit(
                alpha=tuple(t * a1 + (1 - t) * a2 for a1, a2 in zip(f1.alpha, f2.alpha)),
                B=tuple(t * b1 + (1 - t) * b2 for b1, b2 in zip(f1.B, f2.B)),
                C=tuple(t * c1 + (1 - t) * c2 for c1, c2 in zip(f1.C, f2.C)),
            )
            bound = t * objective(data, f1, hp) + (1 - t) * objective(data, f2, hp)
            assert objective(data, mix, hp) <= bound + 1e-12

    def test_fit_data_mismatch_rejected(self):
        rng = np.random.default_rng(9)
        data = make_data(rng, M=2, n=6, p=3, q=2, r=2)
        other = make_data(rng, M=2, n=6, p=4, q=2, r=2)
        fit = random_fit(rng, other)
        with pytest.raises(ValueError):
            objective(data, fit, HyperParams(0.1, 0.1))


class TestStackedEvaluation:
    """objective, kkt_residual and penalty_ceiling run on the zero-padded
    stack; with unequal n_m, an r_m of 0 and nonzero intercepts, a padded
    row that leaked into a sum would change them."""

    def data(self):
        rng = np.random.default_rng(10)
        return rng, make_data(rng, M=3, n=[9, 16, 12], p=3, q=2, r=[2, 0, 1])

    def test_random_fits_match_per_dataset_references(self):
        rng, data = self.data()
        assert penalty_ceiling(data) == pytest.approx(ceiling_reference(data), rel=1e-12)
        for _ in range(10):
            mf = random_fit(rng, data)
            hp = HyperParams(*rng.uniform(0.05, 1.0, 2))
            ref = objective_reference(
                data, list(mf.alpha), list(mf.B), list(mf.C), hp.lam, hp.gamma
            )
            assert objective(data, mf, hp) == pytest.approx(ref, rel=1e-12)
            assert kkt_residual(data, mf, hp) == pytest.approx(
                kkt_reference(data, mf, hp), rel=1e-12
            )

    def test_solved_fit_matches_per_dataset_reference(self):
        # at a solution every KKT term is near 0, so none can hide a padded
        # row's share of the intercept gradient
        _, data = self.data()
        hp = HyperParams(0.05, 0.05)
        rep = fit(data, hp, SolverOptions(tol=1e-13, max_iter=50000))
        assert all(np.abs(a).max() > 0.1 for a in rep.fit.alpha)
        ref = kkt_reference(data, rep.fit, hp)
        assert ref < 1e-6
        assert kkt_residual(data, rep.fit, hp) == pytest.approx(ref, abs=1e-12)


class TestCompress:
    """stack replaces each block with more rows than its own
    k = 1 + p + r_m + q by the R of a QR of [1 X Z Y], before it pads; on
    two datasets of 40 and 4,000 rows (p = 20, r_m = 5 and 30, q = 2) that
    is 28 and 53 rows, padded to 53."""

    def tall(self):
        rng = np.random.default_rng(60)
        return make_data(rng, M=2, n=[40, 4000], p=20, q=2, r=[5, 30])

    def test_short_block_returned_as_is(self):
        # k is 8 and 7 here: a block of at most k rows is only padded
        rng = np.random.default_rng(61)
        for n in ([8, 6], [8, 7], [3, 7]):
            data = make_data(rng, M=2, n=n, p=3, q=2, r=[2, 1])
            block, ref = stack(data, chains=3), padded_stack(data, chains=3)
            for name in ("Y", "X", "Z", "n", "u"):
                assert np.array_equal(getattr(block, name), getattr(ref, name)), name
            assert block.r == ref.r and block.q == ref.q

    def test_compressed_rows_keep_every_inner_product(self):
        data = self.tall()
        block, ref = stack(data, chains=3), padded_stack(data, chains=3)
        assert block.Y.shape[-2] == 53 and block.X.shape[-2] == 53
        assert AdmmSolver(data).block.Y.shape[-2] == 53
        assert (block.Y == np.tile(block.Y[..., :2], 3)).all()
        A, S = (np.concatenate([b.u, b.X, b.Z, b.Y[..., :2]], axis=-1) for b in (ref, block))
        # dataset m keeps min(n_m, k_m) nonzero rows: 28 and 53
        assert (S[0, 28:] == 0).all() and (np.abs(S[:, :28]).sum(axis=-1) > 0).all()
        assert (np.abs(S[1]).sum(axis=-1) > 0).all()
        gram = np.swapaxes(A, -1, -2) @ A
        assert np.abs(np.swapaxes(S, -1, -2) @ S - gram).max() <= 1e-12 * np.abs(gram).max()
        assert (block.n == ref.n).all() and block.r == ref.r

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_random_stacks_keep_every_inner_product(self, data):
        blocks, k = draw_blocks(data)
        chains = data.draw(st.sampled_from([1, 3]))
        block, ref = stack(blocks, chains=chains), padded_stack(blocks, chains=chains)
        q = block.q
        kept = np.minimum(ref.n, k)
        rows = int(kept.max())
        assert {a.shape[-2] for a in (block.u, block.X, block.Z, block.Y)} == {rows}
        assert (block.n == ref.n).all() and block.r == ref.r
        assert (block.Y == np.tile(block.Y[..., :q], chains)).all()
        A, S = (np.concatenate([b.u, b.X, b.Z, b.Y[..., :q]], axis=-1) for b in (ref, block))
        # a block keeps min(n, k) rows: its own rows when it has at most k
        nonzero = (S != 0).any(axis=-1)
        assert not (nonzero & (np.arange(rows) >= kept[..., 0])).any()
        raw = (ref.n <= k)[..., 0, 0]
        assert np.array_equal(S[raw], A[raw][..., :rows, :])
        gram = np.swapaxes(A, -1, -2) @ A
        assert np.abs(np.swapaxes(S, -1, -2) @ S - gram).max() <= 1e-12 * np.abs(gram).max()

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_fits_match_uncompressed_runs(self, data):
        # exactly 30 sweeps of run_chains on each side (helpers.run_sweeps),
        # so that the two cannot stop at different iterations; the
        # compressed run agrees with the padded one to 1e-12 of each array's
        # largest entry, or of 1 (at most 7.2e-15 over 800 seeded draws)
        blocks, _ = draw_blocks(data)
        chains = data.draw(st.sampled_from([1, 2]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        lam, gammas = rng.uniform(0.02, 0.3), np.sort(rng.uniform(0.02, 0.3, chains))
        got, want = (run_sweeps(block, 1.3, lam, gammas, 30)
                     for block in (stack(blocks, chains), padded_stack(blocks, chains)))
        assert got.iteration == want.iteration == 30
        for name in ("alpha", "B", "C", "B_bar", "C_bar", "B_dual", "C_dual"):
            a, b = getattr(got, name), getattr(want, name)
            assert np.abs(a - b).max(initial=0) <= 1e-12 * max(np.abs(b).max(initial=0), 1), name

    def test_tall_fit_matches_uncompressed_run(self):
        # a fixed 20 iterations on each side, so that the two runs cannot
        # stop at different checks, and the KKT residual (about 8e-3) is
        # still far above the rounding in its gradient terms
        data = self.tall()
        hp = HyperParams(0.02, 0.02)
        opts = SolverOptions(tol=1e-300, max_iter=20)
        solver = AdmmSolver(data)
        assert solver.block.Y.shape[-2] == 53
        rep = solver.fit(hp, opts)
        block = padded_stack(data)
        state = zero_state(block)
        run_chains(block, [hp.lam], [hp.gamma], opts, state=state)
        got = rep.state
        assert rep.iterations == state.iteration == 20
        for name in ("alpha", "B", "C", "B_bar", "C_bar"):
            want = getattr(state, name)
            assert np.abs(getattr(got, name) - want).max() <= 1e-10 * np.abs(want).max(), name
        assert rep.fit.support_B.any() and rep.fit.support_C[1].any()
        value, kkt = _evaluate(block, state.alpha, state.B_bar, state.C_bar, hp)
        assert rep.objective == pytest.approx(value, rel=1e-10, abs=0)
        assert rep.kkt_residual == pytest.approx(kkt, rel=1e-10, abs=0)
        assert rep.objective == objective(data, rep.fit, hp)
        assert rep.kkt_residual == kkt_residual(data, rep.fit, hp)

    def test_default_grid_uses_the_uncompressed_rows(self):
        # the ceiling is summed in row order, like the per-dataset
        # reference, to the last bit; on compressed rows it would round
        # differently
        data = self.tall()
        lam_ref, gamma_ref = ceiling_reference(data)
        grid = default_grid(data, n_lambdas=6, n_gammas=4)
        assert np.array_equal(grid.lambdas, np.geomspace(lam_ref, lam_ref * 1e-3, 6))
        assert np.array_equal(grid.gammas, np.geomspace(gamma_ref, gamma_ref * 1e-3, 4))
