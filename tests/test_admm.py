import sys
import weakref
from dataclasses import fields
from itertools import islice
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from intmr.model import (
    DatasetBlock,
    IntegratedDataset,
    HyperParams,
    ModelFit,
    objective,
    stack,
)
from intmr import admm
from intmr.admm import (
    SolverOptions,
    AdmmSolver,
    fit,
    zero_state,
    update_intercept,
    ridge_step,
    augmented_lagrangian,
    ridge_factor,
    ridge_factors,
    run_chains,
    kkt_residual,
)
from intmr.prox import _group_shrink, _shrink, group_soft_threshold
from helpers import (
    draw_blocks,
    make_data,
    prox_gradient_reference,
    reference_sweep,
    two_fold_stack,
    vector_prox_oracle,
)


def random_state(rng, block):
    """Random iterate for a stacked block; C rows past each r_m stay zero."""
    st = zero_state(block)
    live = np.arange(st.C.shape[-2])[:, None] < np.reshape(block.r, (-1,) + (1,) * (st.C.ndim - 1))
    st.alpha = rng.standard_normal(st.alpha.shape)
    st.B = rng.standard_normal(st.B.shape)
    st.B_bar = rng.standard_normal(st.B.shape)
    st.B_dual = rng.standard_normal(st.B.shape)
    st.C = np.where(live, rng.standard_normal(st.C.shape), 0.0)
    st.C_bar = np.where(live, rng.standard_normal(st.C.shape), 0.0)
    st.C_dual = np.where(live, rng.standard_normal(st.C.shape), 0.0)
    return st


def lagrangian_reference(data, st, hp, rho):
    """Literal recomputation of the merit function, kept independent of the
    implementation."""
    total = 0.0
    for m, block in enumerate(data):
        C, C_bar, C_dual = (a[m, : block.r] for a in (st.C, st.C_bar, st.C_dual))
        R = block.Y - st.alpha[m] - block.X @ st.B[m] - block.Z @ C
        total += (R * R).sum() / (2 * block.n)
        diff = C - C_bar + C_dual
        total += rho / 2 * (diff * diff).sum()
        total += hp.gamma * np.abs(C_bar).sum()
    stacked = st.B_bar
    total += hp.lam * np.sqrt((stacked**2).sum(axis=0)).sum()
    diff = st.B - st.B_bar + st.B_dual
    total += rho / 2 * (diff * diff).sum()
    return float(total)


class TestLagrangian:
    def test_matches_literal_recomputation(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            data = make_data(rng, M=2, n=6, p=3, q=2, r=[2, 1])
            block = stack(data)
            st = random_state(rng, block)
            hp = HyperParams(*rng.uniform(0.1, 1.0, 2))
            assert augmented_lagrangian(block, st, hp, 1.0) == pytest.approx(
                lagrangian_reference(data, st, hp, 1.0), rel=1e-12
            )

    def test_consensus_state_reduces_to_objective(self):
        # with B_bar = B, C_bar = C and zero duals the quadratic terms vanish
        rng = np.random.default_rng(1)
        data = make_data(rng, M=2, n=6, p=3, q=2, r=2)
        block = stack(data)
        st = random_state(rng, block)
        st.B_bar = st.B.copy()
        st.C_bar = st.C.copy()
        st.B_dual = np.zeros_like(st.B)
        st.C_dual = np.zeros_like(st.C)
        hp = HyperParams(0.7, 0.3)
        mf = ModelFit(
            alpha=tuple(st.alpha),
            B=tuple(st.B),
            C=tuple(st.C),
        )
        assert augmented_lagrangian(block, st, hp, 1.0) == pytest.approx(
            objective(data, mf, hp), rel=1e-12
        )

    def test_one_value_per_chain_of_a_column_stack(self):
        # two folds with unequal rows and r = [2, 1], three chains per fold
        # side by side in the columns, each with its own lam and gamma
        rng = np.random.default_rng(36)
        folds = [make_data(rng, M=2, n=n, p=3, q=2, r=[2, 1]) for n in ([6, 8], [7, 5])]
        block = stack([[f[m] for f in folds] for m in range(2)], chains=3)
        st = random_state(rng, block)
        lam, gamma = rng.uniform(0.1, 1.0, (2, 2, 3))
        per_column = SimpleNamespace(
            lam=np.repeat(lam, 2, axis=-1)[:, None, :],
            gamma=np.repeat(gamma, 2, axis=-1)[:, None, :],
        )
        got = augmented_lagrangian(block, st, per_column, 1.3)
        assert got.shape == (2, 3)
        for k, data in enumerate(folds):
            for j in range(3):
                c = slice(2 * j, 2 * j + 2)
                chain = zero_state(stack(data))
                for name in ("alpha", "B", "C", "B_bar", "B_dual", "C_bar", "C_dual"):
                    setattr(chain, name, getattr(st, name)[:, k, ..., c])
                hp = HyperParams(lam[k, j], gamma[k, j])
                assert got[k, j] == pytest.approx(lagrangian_reference(data, chain, hp, 1.3),
                                                  rel=1e-12)

    def test_zero_state_zero_data(self):
        data = IntegratedDataset(
            (DatasetBlock(Y=np.zeros((3, 2)), X=np.zeros((3, 2))),)
        )
        block = stack(data)
        assert augmented_lagrangian(block, zero_state(block), HyperParams(1, 1), 1.0) == 0.0


class TestSteps:
    def test_intercept_of_zero_coefficients_is_column_mean(self):
        rng = np.random.default_rng(2)
        data = make_data(rng, M=1, n=9, p=2, q=2, r=1)
        b = data[0]
        alpha = rng.standard_normal(2)
        a = update_intercept(b.u.T / b.n, alpha[None].copy(), b.Y - alpha)
        assert np.allclose(a, b.Y.mean(axis=0), atol=1e-14)

    def test_intercept_zeroes_loss_gradient(self):
        rng = np.random.default_rng(3)
        data = make_data(rng, M=1, n=9, p=2, q=2, r=1)
        b = data[0]
        B = rng.standard_normal((2, 2))
        C = rng.standard_normal((1, 2))
        alpha = rng.standard_normal(2)
        a = update_intercept(b.u.T / b.n, alpha[None].copy(),
                             b.Y - alpha - b.X @ B - b.Z @ C)[0]

        def loss(alpha):
            R = b.Y - alpha - b.X @ B - b.Z @ C
            return (R * R).sum() / (2 * b.n)

        # loss is quadratic, so the central difference is exact up to roundoff
        eps = 1e-4
        for k in range(2):
            e = np.zeros(2)
            e[k] = eps
            grad = (loss(a + e) - loss(a - e)) / (2 * eps)
            assert abs(grad) < 1e-10

    def test_shared_update_scalar_case_frozen(self):
        # (X'X + n rho I)^{-1} X'Y with X=[[1]], Y=[[2]], n=1, rho=1 gives 1
        b = DatasetBlock(Y=np.array([[2.0]]), X=np.array([[1.0]]))
        out, XB = ridge_step(ridge_factor(b.X, b.n, 1.0), b.Y, np.zeros((1, 1)))
        assert out == pytest.approx(np.array([[1.0]]), abs=1e-14)
        assert XB == pytest.approx(np.array([[1.0]]), abs=1e-14)

    def test_shared_update_solves_its_normal_equations(self):
        rng = np.random.default_rng(4)
        data = make_data(rng, M=1, n=12, p=4, q=2, r=2)
        b = data[0]
        alpha = rng.standard_normal(2)
        C = rng.standard_normal((2, 2))
        B_bar = rng.standard_normal((4, 2))
        B_dual = rng.standard_normal((4, 2))
        rho = 1.3
        E, T = b.Y - alpha - b.Z @ C, B_bar + B_dual
        B, _ = ridge_step(ridge_factor(b.X, b.n, rho), E, T)
        lhs = (b.X.T @ b.X + b.n * rho * np.eye(4)) @ B
        rhs = b.X.T @ E + b.n * rho * T
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_shared_update_heavily_weighted_toward_target(self):
        rng = np.random.default_rng(5)
        data = make_data(rng, M=1, n=6, p=3, q=2, r=0)
        b = data[0]
        B_bar = rng.standard_normal((3, 2))
        B_dual = rng.standard_normal((3, 2))
        B, _ = ridge_step(ridge_factor(b.X, b.n, 1e8), b.Y, B_bar + B_dual)
        assert np.abs(B - (B_bar + B_dual)).max() < 1e-5

    def test_specific_update_scalar_case_frozen(self):
        b = DatasetBlock(
            Y=np.array([[4.0]]), X=np.zeros((1, 0)), Z=np.array([[1.0]])
        )
        out, ZC = ridge_step(ridge_factor(b.Z, b.n, 1.0), b.Y, np.zeros((1, 1)))
        assert out == pytest.approx(np.array([[2.0]]), abs=1e-14)
        assert ZC == pytest.approx(np.array([[2.0]]), abs=1e-14)

    def test_specific_update_solves_its_normal_equations(self):
        rng = np.random.default_rng(6)
        data = make_data(rng, M=1, n=10, p=3, q=2, r=4)
        b = data[0]
        alpha = rng.standard_normal(2)
        B = rng.standard_normal((3, 2))
        C_bar = rng.standard_normal((4, 2))
        C_dual = rng.standard_normal((4, 2))
        rho = 0.7
        E, T = b.Y - alpha - b.X @ B, C_bar - C_dual
        C, _ = ridge_step(ridge_factor(b.Z, b.n, rho), E, T)
        lhs = (b.Z.T @ b.Z + b.n * rho * np.eye(4)) @ C
        rhs = b.Z.T @ E + b.n * rho * T
        assert np.abs(lhs - rhs).max() < 1e-10

    @pytest.mark.parametrize("n, p, rho", [(6, 15, 1.0), (40, 5, 0.3), (6, 15, 1e8), (40, 5, 1e8)])
    def test_svd_solve_meets_its_normal_equations(self, n, p, rho):
        rng = np.random.default_rng(33)
        b = make_data(rng, M=1, n=n, p=p, q=2, r=3)[0]
        alpha = rng.standard_normal(2)
        C = rng.standard_normal((3, 2))
        B_bar = rng.standard_normal((p, 2))
        B_dual = rng.standard_normal((p, 2))
        E, T = b.Y - alpha - b.Z @ C, B_bar + B_dual
        B, _ = ridge_step(ridge_factor(b.X, n, rho), E, T)
        lhs = (b.X.T @ b.X + n * rho * np.eye(p)) @ B
        rhs = b.X.T @ E + n * rho * T
        assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_svd_coordinate_steps_meet_their_normal_equations(self, data):
        # both ridge steps on random stacks: n < p and n > p, zero-padded
        # rows, r_m = 0 beside r_max > 0, compressed (dataset, fold) blocks,
        # and rho from 1e-3 to 1e8.  Per (dataset, fold), the coefficients
        # meet (A'A + n rho I) x = A'E + n rho T to 1e-12 of the largest of
        # its three terms, the returned product is A x to 1e-12 of |A| |x|,
        # and C's rows past r_m stay zero (at most 2.2e-13 and 1.1e-14 of
        # those scales over 3,000 draws)
        blocks, _ = draw_blocks(data, max_p=8)
        chains = data.draw(st.integers(1, 2))
        rho = 10.0 ** data.draw(st.floats(-3, 8))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        block = stack(blocks, chains)
        s = random_state(rng, block)
        XB, ZC = block.X @ s.B, block.Z @ s.C
        YU = block.Y - block.u * s.alpha[..., None, :]
        steps = [(A, E, T, ridge_step(ridge_factor(A, block.n, rho), E, T)) for A, E, T in
                 ((block.X, YU - ZC, s.B_bar - s.B_dual), (block.Z, YU - XB, s.C_bar - s.C_dual))]
        worst = lambda a: np.abs(a).max(axis=(-2, -1), initial=0)
        for A, E, T, (x, Ax) in steps:
            At, c = np.swapaxes(A, -1, -2), block.n * rho
            terms = At @ (A @ x), c * x, At @ E + c * T
            residual = terms[0] + terms[1] - terms[2]
            assert (worst(residual) <= 1e-12 * np.max([worst(t) for t in terms], axis=0)).all()
            assert (worst(Ax - A @ x) <= 1e-12 * worst(np.abs(A) @ np.abs(x))).all()
        padded = np.arange(block.Z.shape[-1])[:, None] >= np.reshape(
            block.r, (-1,) + (1,) * (s.C.ndim - 1))
        assert (np.where(padded, steps[1][3][0], 0) == 0).all()

    def test_steps_over_padded_chain_stack_match_per_chain_steps(self):
        # two folds of unequal row counts, zero-padded and stacked as
        # (dataset, fold, rows, .), against three chains per fold side by
        # side in the columns
        rng = np.random.default_rng(34)
        blocks = [make_data(rng, M=1, n=n, p=4, q=2, r=3)[0] for n in (7, 5)]
        stacked = stack([blocks], chains=3)
        alpha = rng.standard_normal((1, 2, 6))
        B, B_bar, B_dual = (rng.standard_normal((1, 2, 4, 6)) for _ in range(3))
        C, C_bar, C_dual = (rng.standard_normal((1, 2, 3, 6)) for _ in range(3))
        rho = 0.8
        XB, ZC = stacked.X @ B, stacked.Z @ C
        YU = stacked.Y - stacked.u * alpha[..., None, :]
        got = {"alpha": update_intercept(np.swapaxes(stacked.u, -1, -2) / stacked.n,
                                         alpha[..., None, :].copy(), YU - XB - ZC)[..., 0, :]}
        got["B"], got["XB"] = ridge_step(ridge_factor(stacked.X, stacked.n, rho),
                                         YU - ZC, B_bar - B_dual)
        got["C"], got["ZC"] = ridge_step(ridge_factor(stacked.Z, stacked.n, rho),
                                         YU - XB, C_bar - C_dual)
        for k, b in enumerate(blocks):
            for j in range(3):
                c = slice(2 * j, 2 * j + 2)
                XB, ZC = b.X @ B[0, k, :, c], b.Z @ C[0, k, :, c]
                YU = b.Y - alpha[0, k, c]
                want = {"alpha": update_intercept(b.u.T / b.n, alpha[0, k, None, c].copy(),
                                                  YU - XB - ZC)[0]}
                want["B"], want["XB"] = ridge_step(ridge_factor(b.X, b.n, rho), YU - ZC,
                                                   B_bar[0, k, :, c] - B_dual[0, k, :, c])
                want["C"], want["ZC"] = ridge_step(ridge_factor(b.Z, b.n, rho), YU - XB,
                                                   C_bar[0, k, :, c] - C_dual[0, k, :, c])
                for name, w in want.items():
                    g = got[name][0, k, ..., c]
                    if name in ("XB", "ZC"):
                        # the products keep the stack's zero-padded rows
                        g = g[: b.n]
                    assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max(), name

    def test_shared_threshold_zero_lambda(self):
        rng = np.random.default_rng(9)
        B = rng.standard_normal((2, 3, 2))
        U = rng.standard_normal((2, 3, 2))
        assert np.allclose(group_soft_threshold(B - U, 0.0), B - U, atol=1e-15)

    def test_shared_threshold_is_groupwise_prox(self):
        rng = np.random.default_rng(10)
        B = rng.standard_normal((3, 4, 2))
        U = rng.standard_normal((3, 4, 2))
        thresh = 0.9
        out = group_soft_threshold(B - U, thresh)
        target = B - U
        for j in range(4):
            for k in range(2):
                x = out[:, j, k]
                c = target[:, j, k]
                val = 0.5 * ((x - c) ** 2).sum() + thresh * np.linalg.norm(x)
                assert val <= vector_prox_oracle(c, thresh) + 1e-8
                # the stacked threshold is the vector prox, group by group
                assert np.array_equal(x, group_soft_threshold(c, thresh))

    @pytest.mark.parametrize("M", [1, 3])
    def test_consensus_step_parts_and_fixed_point(self, M):
        # the loop's consensus step in Moreau's form: for the threshold
        # input a = x + u the new dual u is the projection of a,
        # clip(a, -t, t) on C and a min(1, t / ||a||) on each group of B,
        # and z = a - u
        rng = np.random.default_rng(11)
        data = make_data(rng, M=M, n=5, p=4, q=2, r=3)
        st = random_state(rng, stack(data))

        def step():
            """The step on both blocks: each block's a, z, u and a few ulps
            of each entry of a, or of its group's norm for B."""
            parts = []
            for body, t, x, z, u in ((_shrink, 0.7, st.C, st.C_bar, st.C_dual),
                                     (_group_shrink, 1.5, st.B, st.B_bar, st.B_dual)):
                a = x + u
                body(a, -t, t, z, u)
                scale = np.sqrt((a * a).sum(axis=0)) if body is _group_shrink else np.abs(a)
                parts.append((a, z, u, 4 * np.spacing(scale)))
            return parts

        for a, z, u, ulps in step():
            assert (np.abs(z + u - a) <= ulps).all()
        # an ADMM fixed point, x = z = prox(x + u): the step leaves z and u
        # as they were, up to rounding, and a zero z exactly
        st.C[...], st.B[...] = st.C_bar, st.B_bar
        assert (st.B_bar == 0).any() and (st.B_bar != 0).any()
        kept = [(z.copy(), u.copy()) for z, u in ((st.C_bar, st.C_dual), (st.B_bar, st.B_dual))]
        for (a, z, u, ulps), (z0, u0) in zip(step(), kept):
            assert (np.abs(z - z0) <= ulps).all() and (np.abs(u - u0) <= ulps).all()
            assert (z[z0 == 0] == 0).all()


class TestFit:
    def test_unpenalized_matches_normal_equations(self):
        rng = np.random.default_rng(12)
        data = make_data(rng, M=2, n=50, p=5, q=2, r=3)
        rep = fit(data, HyperParams(0.0, 0.0), SolverOptions(tol=1e-13, max_iter=30000))
        for m, b in enumerate(data):
            W = np.hstack([np.ones((b.n, 1)), b.X, b.Z])
            theta = np.linalg.lstsq(W, b.Y, rcond=None)[0]
            assert np.abs(rep.fit.alpha[m] - theta[0]).max() < 1e-6
            assert np.abs(rep.fit.B[m] - theta[1 : 1 + b.p]).max() < 1e-6
            assert np.abs(rep.fit.C[m] - theta[1 + b.p :]).max() < 1e-6

    def test_huge_penalties_give_intercept_only(self):
        rng = np.random.default_rng(13)
        data = make_data(rng, M=2, n=20, p=3, q=2, r=2)
        rep = fit(data, HyperParams(1e6, 1e6), SolverOptions(tol=1e-12, max_iter=30000))
        assert not rep.fit.support_B.any()
        for m, b in enumerate(data):
            assert not rep.fit.support_C[m].any()
            assert np.abs(rep.fit.alpha[m] - b.Y.mean(axis=0)).max() < 1e-8

    def test_matches_proximal_gradient_reference(self):
        rng = np.random.default_rng(14)
        data = make_data(rng, M=2, n=30, p=4, q=2, r=2)
        hp = HyperParams(0.3, 0.3)
        rep = fit(data, hp, SolverOptions(tol=1e-9, max_iter=50000))
        _, _, _, f_ref = prox_gradient_reference(data, 0.3, 0.3)
        f_admm = rep.objective
        assert abs(f_admm - f_ref) <= 1e-6 * max(abs(f_admm), abs(f_ref))
        assert rep.kkt_residual <= 1e-4

    def test_support_homogeneous_and_zeros_exact(self):
        rng = np.random.default_rng(15)
        for s in range(5):
            data = make_data(rng, M=3, n=25, p=5, q=2, r=[2, 0, 3])
            rep = fit(data, HyperParams(0.2, 0.15))
            assert rep.fit.support_is_homogeneous()
            # consensus coefficients carry exact zeros
            for m in range(3):
                off = ~rep.fit.support_B
                assert (rep.fit.B[m][off] == 0).all()

    def test_converged_flag_matches_trace(self):
        # a fit stops at the first sweep k whose Lagrangian changed by less
        # than tol; the states after k - 2 and k - 1 sweeps are the same fit
        # capped there.  Here the last two changes are -1.46e-8 and -6.56e-9
        rng = np.random.default_rng(16)
        data = make_data(rng, M=2, n=15, p=3, q=2, r=1)
        hp = HyperParams(0.1, 0.1)
        opts = SolverOptions(tol=1e-8, max_iter=10000)
        rep = fit(data, hp, opts)
        assert rep.converged
        k = rep.iterations
        states = [fit(data, hp, SolverOptions(tol=opts.tol, max_iter=j)).state
                  for j in (k - 2, k - 1)] + [rep.state]
        L = [augmented_lagrangian(stack(data), s, hp, opts.rho).item() for s in states]
        assert abs(L[2] - L[1]) < opts.tol <= abs(L[1] - L[0])

    def test_warm_start_leaves_init_unchanged(self):
        # the loop writes its state in place; a warm start must not write
        # the state it starts from
        rng = np.random.default_rng(41)
        data = make_data(rng, M=2, n=20, p=3, q=2, r=[2, 1])
        hp = HyperParams(0.1, 0.1)
        rep = fit(data, hp, SolverOptions(tol=1e-6))
        before = rep.state.copy()
        fit(data, HyperParams(0.05, 0.1), SolverOptions(tol=1e-10), init=rep.state)
        for f in fields(before):
            got, want = getattr(rep.state, f.name), getattr(before, f.name)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), f.name

    def test_fits_share_no_memory(self):
        # two fits of one solver, the second warm-started from the first:
        # no array of one fit's ModelFit or state shares memory with any of
        # the other's
        rng = np.random.default_rng(42)
        data = make_data(rng, M=2, n=20, p=3, q=2, r=[2, 1])
        solver = AdmmSolver(data)
        first = solver.fit(HyperParams(0.1, 0.1))
        second = solver.fit(HyperParams(0.05, 0.1), init=first.state)

        def arrays(rep):
            fitted = [a for name in ("alpha", "B", "C") for a in getattr(rep.fit, name)]
            return fitted + [getattr(rep.state, f.name) for f in fields(rep.state)
                             if f.name != "iteration"]

        for a in arrays(first):
            for b in arrays(second):
                assert not np.shares_memory(a, b)

    def test_max_iter_cap_reported_as_not_converged(self):
        rng = np.random.default_rng(17)
        data = make_data(rng, M=2, n=15, p=3, q=2, r=1)
        rep = fit(data, HyperParams(0.1, 0.1), SolverOptions(tol=1e-12, max_iter=3))
        assert not rep.converged
        assert rep.iterations == 3

    def test_warm_start_reaches_same_answer_faster(self):
        rng = np.random.default_rng(18)
        data = make_data(rng, M=2, n=30, p=4, q=2, r=2)
        solver = AdmmSolver(data)
        opts = SolverOptions(tol=1e-10)
        cold = solver.fit(HyperParams(0.25, 0.2), opts)
        warm = solver.fit(HyperParams(0.25, 0.2), opts, init=cold.state)
        assert warm.iterations <= cold.iterations
        for m in range(2):
            assert np.abs(warm.fit.B[m] - cold.fit.B[m]).max() < 1e-6

    def test_solution_insensitive_to_rho(self):
        rng = np.random.default_rng(19)
        data = make_data(rng, M=2, n=30, p=4, q=2, r=2)
        hp = HyperParams(0.3, 0.3)
        rep1, rep2 = (fit(data, hp, SolverOptions(tol=1e-12, max_iter=50000, rho=rho))
                      for rho in (1.0, 2.5))
        assert rep1.objective == pytest.approx(rep2.objective, rel=1e-7)

    def test_dataset_permutation_equivariance(self):
        rng = np.random.default_rng(20)
        data = make_data(rng, M=3, n=20, p=4, q=2, r=[2, 1, 3])
        opts = SolverOptions(tol=1e-11)
        hp = HyperParams(0.2, 0.2)
        rep = fit(data, hp, opts)
        perm = [1, 2, 0]
        rep_p = fit(IntegratedDataset(tuple(data[i] for i in perm)), hp, opts)
        for new_pos, old_pos in enumerate(perm):
            assert np.abs(rep_p.fit.B[new_pos] - rep.fit.B[old_pos]).max() < 1e-7
            assert np.abs(rep_p.fit.C[new_pos] - rep.fit.C[old_pos]).max() < 1e-7

    def test_no_shared_covariates_route(self):
        rng = np.random.default_rng(21)
        n = 40
        Z = rng.standard_normal((n, 6))
        C = np.zeros((6, 2))
        C[0] = [1.0, -0.5]
        Y = Z @ C + 0.3 * rng.standard_normal((n, 2))
        data = IntegratedDataset((DatasetBlock(Y=Y, X=np.zeros((n, 0)), Z=Z),))
        rep = fit(data, HyperParams(0.0, 0.1))
        assert rep.converged
        assert rep.fit.B[0].shape == (0, 2)
        assert rep.fit.support_C[0][0].all()

    def test_no_specific_covariates_route(self):
        rng = np.random.default_rng(22)
        data = make_data(rng, M=2, n=20, p=4, q=2, r=0)
        rep = fit(data, HyperParams(0.05, 1.0))
        assert rep.converged
        assert all(c.shape == (0, 2) for c in rep.fit.C)

    def test_mismatched_warm_start_rejected(self):
        rng = np.random.default_rng(23)
        data = make_data(rng, M=2, n=10, p=3, q=2, r=1)
        other = make_data(rng, M=2, n=10, p=4, q=2, r=1)
        st = zero_state(stack(other))
        with pytest.raises(ValueError):
            fit(data, HyperParams(0.1, 0.1), init=st)

    def test_nonzero_padded_warm_start_rejected(self):
        # dataset 1 has r = 1 of r_max = 2 rows of C; its second row must
        # stay zero in every C-side variable
        rng = np.random.default_rng(35)
        data = make_data(rng, M=2, n=10, p=3, q=2, r=[2, 1])
        solver = AdmmSolver(data)
        solver.fit(HyperParams(0.1, 0.1), init=zero_state(solver.block))
        for name in ("C", "C_bar", "C_dual"):
            st = zero_state(solver.block)
            getattr(st, name)[1, 1, 0] = 1e-3
            with pytest.raises(ValueError):
                solver.fit(HyperParams(0.1, 0.1), init=st)

    @pytest.mark.parametrize("rho", [0.0, -1.0, np.nan, np.inf])
    def test_ridge_factors_reject_bad_rho(self, rho):
        data = make_data(np.random.default_rng(36), M=2, n=10, p=2, q=1, r=1)
        with pytest.raises(ValueError):
            ridge_factors(stack(data), rho)

    def test_one_iteration_is_one_sweep_of_the_step_functions(self):
        # the reference steps each unpadded DatasetBlock on its own.  With
        # equal n_m, no partly padded C and no dataset of more rows than its
        # own 1 + p + r_m + q (6 for dataset 1), so that the stack compresses
        # none, it must match exactly, with one dataset, whose consensus step
        # clips the whole buffer in one pass, and with more.  With
        # more rows the solver steps the
        # R of a QR of the data (see model.stack), and with unequal n_m and
        # r_m the stack also routes a dataset's products through other BLAS
        # kernel shapes, so there it agrees to rounding: at most 40 units of
        # eps times each array's largest entry over 400 random draws
        for n, r, rel in ((6, [2, 0], 0.0), (6, [2], 0.0), (12, [2, 0], 1e-14),
                          (12, [2], 1e-14), ([12, 15, 10], [2, 0, 1], 1e-14)):
            rng = np.random.default_rng(31)
            data = make_data(rng, M=len(r), n=n, p=3, q=2, r=r)
            hp, opts = HyperParams(0.3, 0.2), SolverOptions(max_iter=1, rho=1.7)
            solver = AdmmSolver(data)
            start = random_state(rng, solver.block)
            rep = solver.fit(hp, opts, init=start)
            st = start.copy()
            for _ in reference_sweep(data, st, hp, opts.rho):
                pass
            got = rep.state
            assert rep.iterations == 1 and got.iteration == start.iteration + 1
            for name in ("alpha", "B", "C", "B_bar", "B_dual", "C_bar", "C_dual"):
                want = getattr(st, name)
                gap = np.abs(getattr(got, name) - want).max()
                assert gap <= rel * np.abs(want).max(), (name, r)
            padded = np.arange(max(r)) >= np.array(r)[:, None]
            for name in ("C", "C_bar", "C_dual"):
                assert (getattr(got, name)[padded] == 0).all(), (name, r)

    def test_reported_objective_is_model_objective_at_fit(self):
        rng = np.random.default_rng(32)
        data = make_data(rng, M=2, n=20, p=3, q=2, r=[1, 2])
        hp = HyperParams(0.15, 0.1)
        rep = fit(data, hp, SolverOptions(tol=1e-9))
        assert rep.objective == objective(data, rep.fit, hp)

    def test_reported_kkt_residual_is_kkt_residual_at_fit(self):
        rng = np.random.default_rng(32)
        data = make_data(rng, M=3, n=[20, 14, 17], p=3, q=2, r=[1, 0, 2])
        hp = HyperParams(0.15, 0.1)
        rep = fit(data, hp, SolverOptions(tol=1e-9))
        assert rep.kkt_residual == kkt_residual(data, rep.fit, hp)


def run_recording(block, lambdas, gammas):
    """run_chains from zero, plus each chain's final alpha, B_bar and C_bar
    by cell, and the working (folds, chains) shape at every stop."""
    finals, shapes = {}, []
    q, last = block.q, np.shape(lambdas)[-1] - 1

    def record(state, stopped, cell, position):
        shapes.append(cell.shape)
        for k, j in np.argwhere(stopped & (position == last)):
            cols = slice(j * q, (j + 1) * q)
            # the loop writes the state in place, so keep copies
            finals[cell[k, j]] = tuple(a[:, k, ..., cols].copy()
                                       for a in (state.alpha, state.B_bar, state.C_bar))

    out = run_chains(block, lambdas, gammas, on_stop=record)
    return out, finals, shapes


class TestRunChains:
    def test_per_fold_paths_match_one_fold_runs(self):
        # two folds of one stack, each with its own lambda and gamma path,
        # against each fold run alone with its paths; the chains end at
        # different times, so the grid narrows and the carried products
        # are recomputed on the narrowed arrays.  The two runs narrow to
        # different widths, and OpenBLAS rounds a column of a product
        # differently for different column counts, so the final states agree
        # to rounding rather than bit for bit
        rng = np.random.default_rng(38)
        folds = [make_data(rng, M=2, n=18, p=3, q=2, r=2) for _ in range(2)]
        lambdas = np.array([[0.4, 0.1, 0.02], [0.3, 0.05, 0.01]])
        gammas = np.array([[0.5, 0.05, 0.005], [0.2, 0.02, 0.002]])
        both = stack([[f[m] for f in folds] for m in range(2)], chains=3)
        (iters, conv), finals, shapes = run_recording(both, lambdas, gammas)
        assert len(set(shapes)) > 2, "the grid never narrowed"
        assert len(np.unique(iters.sum(axis=-1))) > 1
        for k, f in enumerate(folds):
            one = stack([[f[m]] for m in range(2)], chains=3)
            (it_k, conv_k), finals_k, _ = run_recording(one, lambdas[k:k + 1], gammas[k:k + 1])
            assert np.array_equal(iters[k], it_k[0]) and np.array_equal(conv[k], conv_k[0])
            for j in range(3):
                for got, want in zip(finals[3 * k + j], finals_k[j]):
                    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("n, p, r", [(18, 20, 10), (40, 5, 3)])
    def test_one_fold_runs_bit_for_bit_as_in_a_two_fold_stack(self, n, p, r):
        # alone, a fold of one dataset is a stack of one matrix; twice in one
        # stack, its steps run through np.matmul over both folds.  Both reach
        # the same dgemm per matrix, so every fit stops at the same sweep in the same state, whether the
        # stack keeps the fold's rows (the first case, n < 1 + p + r + q) or
        # compresses them to the R of a QR, whose intercept column is nonzero
        # in its first row only
        fold = make_data(np.random.default_rng(43), M=1, n=n, p=p, q=2, r=r)[0]
        lambdas, gammas = [0.3, 0.05, 0.01], [0.2, 0.02]
        (it1, conv1), finals1, _ = run_recording(stack([[fold]], chains=2), lambdas, gammas)
        (it2, conv2), finals2, _ = run_recording(stack([[fold, fold]], chains=2), lambdas, gammas)
        for k in range(2):
            assert np.array_equal(it2[k], it1[0]) and np.array_equal(conv2[k], conv1[0])
            for j in range(2):
                for got, want in zip(finals2[2 * k + j], finals1[j]):
                    assert got.tobytes() == want.tobytes()

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_each_checked_value_is_the_lagrangian_of_its_state(self, data):
        # the loop builds its stopping value from the sweep's pieces; it must
        # be augmented_lagrangian of the state it checked.  A check records
        # copies of the value the loop's _lagrangian returns (a buffer the
        # loop writes again) and of the state;
        # checks taken after the working set narrowed
        # (a chain that stopped at an exact fixed point) are skipped
        blocks, _ = draw_blocks(data)
        chains = data.draw(st.integers(1, 3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        block = stack(blocks, chains)
        grid, q = block.n.shape[1:-2] + (chains,), block.q
        lambdas = rng.uniform(0.02, 0.3, grid[:-1] + (1,))
        gammas = rng.uniform(0.02, 0.3, grid)
        rho = float(rng.uniform(0.5, 2.0))
        state, seen = zero_state(block), []
        value_of = admm._lagrangian

        def checked(*args):
            value = value_of(*args)
            seen.append((value.copy(), state.copy()))
            return value

        with mock.patch.object(admm, "_lagrangian", checked):
            run_chains(block, lambdas, gammas, SolverOptions(tol=1e-300, max_iter=25, rho=rho),
                       state=state)
        per_column = SimpleNamespace(
            lam=np.repeat(np.broadcast_to(lambdas, grid), q, axis=-1)[..., None, :],
            gamma=np.repeat(gammas, q, axis=-1)[..., None, :],
        )
        full = [(value, checked) for value, checked in seen if value.shape == grid]
        assert full
        for value, checked in full:
            want = augmented_lagrangian(block, checked, per_column, rho)
            assert (np.abs(value - want) <= 1e-13 * np.maximum(np.abs(want), 1)).all()

    def test_narrowing_frees_the_previous_working_set(self):
        # each narrowing builds a new working set once the old one is freed:
        # the buffer that the state's B viewed at a shape's first stop event
        # is gone at every later shape's events, through narrowings of the
        # chains alone and of whole folds
        block = two_fold_stack(np.random.default_rng(50), chains=3, n=(20, 60))
        lambdas, gammas = (0.3, 0.1, 0.02), np.array([0.5, 0.05, 0.005])
        buffers, shapes = {}, []

        def record(state, stopped, cell, position):
            shapes.append(cell.shape)
            buffers.setdefault(cell.shape, weakref.ref(state.B.base))
            assert all(ref() is None for shape, ref in buffers.items() if shape != cell.shape)

        run_chains(block, lambdas, gammas, on_stop=record)
        assert len(buffers) > 2
        # both kinds of narrowing happened: a fold left, and a fold kept
        # fewer chains
        steps = list(zip(shapes, shapes[1:]))
        assert any(b[0] < a[0] for a, b in steps)
        assert any(b[0] == a[0] and b[1] < a[1] for a, b in steps)

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="before 3.11 a call holds its arguments until it returns")
    def test_first_fold_to_leave_frees_the_full_size_data(self):
        # a caller that hands run_chains its only reference to the block, as
        # selection does with list.pop(), gets the full-size X and Y freed
        # once a fold leaves.  X is a view, so the arrays that own the
        # memory are the ones watched
        blocks = [two_fold_stack(np.random.default_rng(50), chains=3, n=(20, 60))]
        owners = [weakref.ref(a if a.base is None else a.base) for a in (blocks[0].X, blocks[0].Y)]
        folds, freed = [], []

        def record(state, stopped, cell, position):
            if folds and cell.shape[0] < folds[-1] and not freed:
                freed.append([ref() is None for ref in owners])
            folds.append(cell.shape[0])

        run_chains(blocks.pop(), (0.3, 0.1, 0.02), np.array([0.5, 0.05, 0.005]), on_stop=record)
        assert freed == [[True, True]]

    @pytest.mark.parametrize("lambdas, gammas", [
        ([0.1, -0.1], [0.1]), ([0.1], [np.nan]), ([np.inf], [0.1]),
    ])
    def test_bad_paths_rejected_before_the_first_iteration(self, lambdas, gammas):
        block = stack(make_data(np.random.default_rng(39), M=2, n=10, p=2, q=1, r=1))
        state = zero_state(block)
        with pytest.raises(ValueError):
            run_chains(block, lambdas, gammas, state=state)
        assert state.iteration == 0


class TestSolverOptions:
    @pytest.mark.parametrize(
        "kw",
        [{"tol": 0.0}, {"tol": -1.0}, {"tol": np.inf}, {"tol": np.nan},
         {"max_iter": 0}, {"rho": 0.0}, {"rho": -1.0}, {"rho": np.nan}, {"rho": np.inf},
         {"max_iter": 2.5}, {"max_iter": 3.0}, {"max_iter": True}, {"max_iter": False},
         {"max_iter": "3"}],
    )
    def test_bad_values_rejected(self, kw):
        with pytest.raises(ValueError):
            SolverOptions(**kw)

    def test_integer_max_iter_stored_as_int(self):
        # max_iter=2.5 used to run 3 sweeps and True 1
        opts = SolverOptions(max_iter=np.int64(3))
        assert type(opts.max_iter) is int and opts.max_iter == 3
        data = make_data(np.random.default_rng(37), M=2, n=12, p=3, q=2, r=1)
        rep = fit(data, HyperParams(0.1, 0.1), SolverOptions(tol=1e-300, max_iter=np.int64(3)))
        assert rep.iterations == 3 and not rep.converged


class TestDiagnostics:
    def test_kkt_zero_at_least_squares(self):
        rng = np.random.default_rng(25)
        data = make_data(rng, M=2, n=40, p=3, q=2, r=2)
        hp = HyperParams(0.0, 0.0)
        alpha, B, C = [], [], []
        for b in data:
            W = np.hstack([np.ones((b.n, 1)), b.X, b.Z])
            theta = np.linalg.lstsq(W, b.Y, rcond=None)[0]
            alpha.append(theta[0])
            B.append(theta[1 : 1 + b.p])
            C.append(theta[1 + b.p :])
        mf = ModelFit(alpha=tuple(alpha), B=tuple(B), C=tuple(C))
        assert kkt_residual(data, mf, hp) < 1e-8

    def test_kkt_zero_at_intercept_only_under_huge_penalties(self):
        rng = np.random.default_rng(26)
        data = make_data(rng, M=2, n=20, p=3, q=2, r=2)
        mf = ModelFit(
            alpha=tuple(b.Y.mean(axis=0) for b in data),
            B=tuple(np.zeros((3, 2)) for _ in range(2)),
            C=tuple(np.zeros((b.r, 2)) for b in data),
        )
        assert kkt_residual(data, mf, HyperParams(1e6, 1e6)) < 1e-8

    def test_kkt_flags_perturbed_solution(self):
        rng = np.random.default_rng(27)
        data = make_data(rng, M=2, n=30, p=4, q=2, r=2)
        hp = HyperParams(0.3, 0.3)
        rep = fit(data, hp, SolverOptions(tol=1e-10))
        assert rep.kkt_residual < 1e-4
        B = [b.copy() for b in rep.fit.B]
        B[0][0, 0] += 0.05
        bad = ModelFit(alpha=rep.fit.alpha, B=tuple(B), C=rep.fit.C)
        assert kkt_residual(data, bad, hp) > 1e-3

    def test_consensus_gap_small_at_convergence(self):
        rng = np.random.default_rng(28)
        data = make_data(rng, M=2, n=30, p=4, q=2, r=2)
        opts = SolverOptions(tol=1e-9)
        rep = fit(data, HyperParams(0.3, 0.3), opts)
        assert rep.consensus_gap <= 100 * opts.tol


class TestBlockwiseDescent:
    def test_each_primal_step_never_increases_lagrangian(self):
        # criterion 6 at rho = 1.7 and 0.3: the ridge steps solve at rho and
        # the thresholds are lam / rho and gamma / rho
        rng = np.random.default_rng(29)
        hp = HyperParams(0.4, 0.3)
        for rho in (0.3, 1.7):
            for _ in range(300):
                data = make_data(rng, M=2, n=8, p=3, q=2, r=2)
                block = stack(data)
                st = random_state(rng, block)
                L = augmented_lagrangian(block, st, hp, rho)
                # every step before the dual ascent
                for step in islice(reference_sweep(data, st, hp, rho), 5):
                    after = augmented_lagrangian(block, st, hp, rho)
                    assert after <= L + 1e-10, (rho, step, after - L)
                    L = after


class TestBlockwiseMinimum:
    @pytest.mark.parametrize("M, r", [(1, [2]), (3, [2, 0, 1])])
    @pytest.mark.parametrize("rho", [0.3, 1.7])
    def test_each_primal_step_minimizes_lagrangian_over_its_block(self, rho, M, r):
        # after each primal step the block it updated minimizes the
        # augmented Lagrangian over that block, so no small perturbation of
        # the block lowers it.  Unlike descent, this pins each step's
        # scaling: thresholds at lam and gamma in place of lam / rho and
        # gamma / rho, or a dual entering a target with the wrong sign, fail
        rng = np.random.default_rng(40)
        hp = HyperParams(0.4, 0.3)
        updated = {"intercept": "alpha", "B": "B", "C": "C", "C_bar": "C_bar", "B_bar": "B_bar"}
        # C's rows past r_m are padding, not part of the block
        live = np.arange(max(r))[:, None] < np.array(r)[:, None, None]
        for _ in range(30):
            data = make_data(rng, M=M, n=8, p=3, q=2, r=r)
            block = stack(data)
            st = random_state(rng, block)
            for step in islice(reference_sweep(data, st, hp, rho), 5):
                a = getattr(st, updated[step])
                kept, L = a.copy(), augmented_lagrangian(block, st, hp, rho).item()
                mask = live if step.startswith("C") else 1.0
                for _ in range(10):
                    a += 1e-4 * rng.standard_normal(a.shape) * mask
                    after = augmented_lagrangian(block, st, hp, rho).item()
                    a[...] = kept
                    assert after >= L - 1e-12 * abs(L), (step, after - L)


class TestSparsityPath:
    def test_group_support_shrinks_as_lambda_grows(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            data = make_data(rng, M=2, n=30, p=5, q=2, r=2)
            sizes = []
            for lam in (0.01, 0.05, 0.2, 0.8, 3.0):
                rep = fit(data, HyperParams(lam, 0.05))
                sizes.append(int(rep.fit.support_B.sum()))
            assert all(a >= b for a, b in zip(sizes, sizes[1:]))
