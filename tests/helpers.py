"""Shared fixtures and independent oracles used across the test suite.

The reference solver here is deliberately written from the objective
definition alone (accelerated proximal gradient on the stacked variables),
sharing no code with the production ADMM path, so the two can check each
other.
"""

import os
import subprocess
import sys

import numpy as np
from hypothesis import strategies as st

import intmr
from intmr.admm import (
    SolverOptions,
    ridge_factor,
    ridge_step,
    run_chains,
    update_intercept,
    zero_state,
)
from intmr.model import DatasetBlock, IntegratedDataset, ModelFit, PaddedBlock, _pad, stack
from intmr.prox import _group_shrink, group_soft_threshold, soft_threshold


def make_data(
    rng,
    M=2,
    n=30,
    p=4,
    q=2,
    r=2,
    noise=0.5,
    sparse_truth=True,
    intercept=None,
):
    """Random well-conditioned instance with a sparse shared-support truth.

    n and r may be one count for every dataset or a list of per-dataset
    counts."""
    if np.isscalar(n):
        n = [n] * M
    if np.isscalar(r):
        r = [r] * M
    B_true = np.zeros((p, q))
    if sparse_truth and p:
        k = max(1, p // 2)
        B_true[:k] = rng.standard_normal((k, q))
    elif p:
        B_true = rng.standard_normal((p, q))
    blocks = []
    C_true = []
    for m in range(M):
        X = rng.standard_normal((n[m], p))
        Z = rng.standard_normal((n[m], r[m]))
        Cm = np.zeros((r[m], q))
        if r[m]:
            Cm[0] = rng.standard_normal(q)
        C_true.append(Cm)
        a = rng.standard_normal(q) if intercept is None else np.full(q, intercept)
        scale = rng.uniform(0.5, 1.5)
        Y = a + X @ (B_true * scale) + Z @ Cm + noise * rng.standard_normal((n[m], q))
        blocks.append(DatasetBlock(Y=Y, X=X, Z=Z))
    return IntegratedDataset(tuple(blocks))


def two_fold_stack(rng, chains, n=(20, 26)):
    """One dataset pair per fold, stacked (dataset, fold) with `chains`
    chains per fold."""
    folds = [make_data(rng, M=2, n=nk, p=3, q=2, r=2) for nk in n]
    return stack([[f[m] for f in folds] for m in range(2)], chains=chains)


def random_fit(rng, data, density=0.7):
    """Random coefficients shaped for `data` (no homogeneity structure)."""
    alpha, B, C = [], [], []
    for block in data:
        alpha.append(rng.standard_normal(data.q))
        b = rng.standard_normal((data.p, data.q))
        b[rng.random((data.p, data.q)) > density] = 0.0
        B.append(b)
        c = rng.standard_normal((block.r, data.q))
        if block.r:
            c[rng.random((block.r, data.q)) > density] = 0.0
        C.append(c)
    return ModelFit(alpha=tuple(alpha), B=tuple(B), C=tuple(C))


def run_sweeps(block, rho, lam, gammas, sweeps):
    """The state after exactly `sweeps` ADMM sweeps of run_chains from zero,
    whatever the stopping rule would say: a lambda path of `sweeps` copies
    of lam, each fit stopped after its one sweep by max_iter=1, at step
    parameter rho."""
    state = zero_state(block)
    run_chains(block, np.full(sweeps, lam), gammas, SolverOptions(max_iter=1, rho=rho),
               state=state)
    return state


def reference_sweep(data, state, hp, rho):
    """One ADMM sweep of the step functions, run on each unstacked
    DatasetBlock of `data` in turn and in the order run_chains runs them;
    updates the stacked `state` in place.  Yields each step's name after
    the step: "intercept", "B", "C", "C_bar", "B_bar" and "duals".

    Each dataset's residual is taken from the state once, and the ridge
    steps hand on the products X B and Z C they return, as the loop does.
    Both duals are scaled the same way, so every target is z - u and every
    threshold input a = x + u.  The thresholds are the checked prox
    operators at t = gamma / rho and lam / rho, and the dual step takes, as
    the loop does, Moreau's form: the new dual is the projection of a onto
    the dual-norm ball of radius t, clip(a, -t, t) for C and
    a min(1, t / ||a||) for each group of B, with which the loop's z is a
    minus it.  A dataset without specific covariates skips the C step."""
    C = [tuple(a[m, : b.r] for a in (state.C, state.C_bar, state.C_dual))
         for m, b in enumerate(data)]
    XB = [b.X @ state.B[m] for m, b in enumerate(data)]
    ZC = [b.Z @ c for b, (c, _, _) in zip(data, C)]
    for m, b in enumerate(data):
        R = b.Y - b.u * state.alpha[m] - XB[m]
        R -= ZC[m]
        update_intercept(b.u.T / b.n, state.alpha[m, None], R)
    yield "intercept"
    for m, b in enumerate(data):
        state.B[m], XB[m] = ridge_step(ridge_factor(b.X, b.n, rho),
                                       b.Y - b.u * state.alpha[m] - ZC[m],
                                       state.B_bar[m] - state.B_dual[m])
    yield "B"
    for m, b in enumerate(data):
        if b.r:
            c, c_bar, c_dual = C[m]
            c[...], ZC[m] = ridge_step(ridge_factor(b.Z, b.n, rho),
                                       b.Y - b.u * state.alpha[m] - XB[m], c_bar - c_dual)
    yield "C"
    for c, c_bar, c_dual in C:
        c_bar[...] = soft_threshold(c + c_dual, hp.gamma / rho)
    yield "C_bar"
    state.B_bar = group_soft_threshold(state.B + state.B_dual, hp.lam / rho)
    yield "B_bar"
    t = hp.gamma / rho
    for c, _, c_dual in C:
        c_dual[...] = np.clip(c + c_dual, -t, t)
    t = hp.lam / rho
    _group_shrink(state.B + state.B_dual, -t, t, projected=state.B_dual)
    yield "duals"


def padded_stack(blocks, chains=1):
    """model.stack without its QR row compression: every block's own rows,
    zero-padded to the largest n, with u 1 on true rows and 0 on padded
    ones.  The uncompressed reference that stack and the solver are checked
    against."""
    cells = np.array(blocks, dtype=object)
    flat = cells.ravel()
    rows = max(b.n for b in flat)

    def pad(name, width):
        arrays = [getattr(b, name) for b in flat]
        return _pad(arrays, (rows, width)).reshape(cells.shape + (rows, width))

    n = np.array([b.n for b in flat], dtype=float).reshape(cells.shape + (1, 1))
    return PaddedBlock(
        Y=np.tile(pad("Y", flat[0].q), chains),
        X=pad("X", flat[0].p),
        Z=pad("Z", max(b.r for b in flat)),
        n=n,
        u=(np.arange(rows)[:, None] < n).astype(float),
        r=tuple(b.r for b in cells.reshape(len(cells), -1)[:, 0]),
        q=flat[0].q,
    )


# ---------------------------------------------------------------------------
# objective, written out independently of the package implementation


def objective_reference(data, alpha, B, C, lam, gamma):
    total = 0.0
    for m, block in enumerate(data):
        R = block.Y - alpha[m][None, :] - block.X @ B[m] - block.Z @ C[m]
        total += (R * R).sum() / (2.0 * block.n)
    if data.p:
        stacked = np.stack(B, axis=0)
        total += lam * np.sqrt((stacked**2).sum(axis=0)).sum()
    total += gamma * sum(np.abs(c).sum() for c in C)
    return float(total)


# ---------------------------------------------------------------------------
# accelerated proximal gradient reference solver


def _grad(data, alpha, B, C):
    ga = np.zeros_like(alpha)
    gB = np.zeros_like(B)
    gC = [np.zeros_like(c) for c in C]
    for m, block in enumerate(data):
        R = block.Y - alpha[m][None, :] - block.X @ B[m] - block.Z @ C[m]
        ga[m] = -R.sum(axis=0) / block.n
        gB[m] = -(block.X.T @ R) / block.n
        if block.r:
            gC[m] = -(block.Z.T @ R) / block.n
    return ga, gB, gC


def _prox(B, C, t_lam, t_gam):
    if B.size:
        norms = np.sqrt((B**2).sum(axis=0))
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(norms > 0, np.maximum(1.0 - t_lam / norms, 0.0), 0.0)
        B = scale[None] * B
    C = [np.sign(c) * np.maximum(np.abs(c) - t_gam, 0.0) for c in C]
    return B, C


def prox_gradient_reference(data, lam, gamma, max_iter=200000, ftol=1e-14):
    """FISTA with function-value restart on the stacked objective."""
    M, p, q = data.M, data.p, data.q
    L = 0.0
    for block in data:
        W = np.hstack([np.ones((block.n, 1)), block.X, block.Z])
        s = np.linalg.norm(W, 2)
        L = max(L, s * s / block.n)
    t = 1.0 / L

    alpha = np.zeros((M, q))
    B = np.zeros((M, p, q))
    C = [np.zeros((block.r, q)) for block in data]
    ya, yB, yC = alpha.copy(), B.copy(), [c.copy() for c in C]
    tk = 1.0
    f_prev = objective_reference(data, alpha, B, C, lam, gamma)
    stall = 0
    for _ in range(max_iter):
        ga, gB, gC = _grad(data, ya, yB, yC)
        a_new = ya - t * ga
        B_new, C_new = _prox(
            yB - t * gB, [yc - t * gc for yc, gc in zip(yC, gC)], t * lam, t * gamma
        )
        f_new = objective_reference(data, a_new, B_new, C_new, lam, gamma)
        if f_new > f_prev:  # restart momentum
            ya, yB, yC = alpha.copy(), B.copy(), [c.copy() for c in C]
            tk = 1.0
            ga, gB, gC = _grad(data, ya, yB, yC)
            a_new = ya - t * ga
            B_new, C_new = _prox(
                yB - t * gB, [yc - t * gc for yc, gc in zip(yC, gC)], t * lam, t * gamma
            )
            f_new = objective_reference(data, a_new, B_new, C_new, lam, gamma)
        tk_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tk * tk))
        w = (tk - 1.0) / tk_new
        ya = a_new + w * (a_new - alpha)
        yB = B_new + w * (B_new - B)
        yC = [cn + w * (cn - c) for cn, c in zip(C_new, C)]
        alpha, B, C, tk = a_new, B_new, C_new, tk_new
        if abs(f_new - f_prev) < ftol * max(1.0, abs(f_new)):
            stall += 1
            if stall >= 50:
                break
        else:
            stall = 0
        f_prev = f_new
    return alpha, B, C, objective_reference(data, alpha, B, C, lam, gamma)


# ---------------------------------------------------------------------------
# prox-characterization oracles


def scalar_prox_oracle(a, b, grids=4001):
    """Minimize 0.5 (x - a)^2 + b |x| by dense grid + local refinement."""
    lo, hi = -abs(a) - b - 1.0, abs(a) + b + 1.0
    for _ in range(4):
        xs = np.linspace(lo, hi, grids)
        vals = 0.5 * (xs - a) ** 2 + b * np.abs(xs)
        i = int(np.argmin(vals))
        lo, hi = xs[max(0, i - 1)], xs[min(grids - 1, i + 1)]
    return 0.5 * (xs[i] - a) ** 2 + b * abs(xs[i])


def vector_prox_oracle(c, d, grids=4001):
    """Minimize 0.5 ||x - c||^2 + d ||x|| over scalings of c (the minimizer
    is always a nonnegative scaling of c), by grid + refinement on the
    scale."""
    nc = float(np.linalg.norm(c))
    lo, hi = 0.0, nc + d + 1.0
    for _ in range(4):
        ts = np.linspace(lo, hi, grids)
        vals = 0.5 * (ts - nc) ** 2 + d * ts
        i = int(np.argmin(vals))
        lo, hi = ts[max(0, i - 1)], ts[min(grids - 1, i + 1)]
    return 0.5 * (ts[i] - nc) ** 2 + d * ts[i]


def draw_blocks(data, max_p=3):
    """(dataset) or (dataset, fold) blocks of unequal n_m on both sides
    of each dataset's k = 1 + p + r_m + q, with p = 0 (p at most max_p) and
    r_m = 0 among the cases, and that k per block, shaped like
    PaddedBlock.n."""
    M, p, q = (data.draw(st.integers(lo, hi)) for lo, hi in ((1, 3), (0, max_p), (1, 2)))
    folds = data.draw(st.sampled_from([None, 2, 3]))
    r = data.draw(st.lists(st.integers(0, 3), min_size=M, max_size=M))
    k = 1 + p + np.array(r) + q
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

    def draw_data():
        n = [data.draw(st.integers(1, 2 * km)) for km in k]
        return make_data(rng, M=M, n=n, p=p, q=q, r=r)

    if folds is None:
        return draw_data(), k[:, None, None]
    parts = [draw_data() for _ in range(folds)]
    return [[f[m] for f in parts] for m in range(M)], k[:, None, None, None]


def run_cli_process(argv, blas_threads):
    """`python -m intmr ARGV` in a process of its own whose OpenBLAS runs
    `blas_threads` threads; PYTHONPATH leads with the imported package's
    directory, so the child runs the same source as the tests."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    src = os.path.dirname(os.path.dirname(os.path.abspath(intmr.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "intmr"] + list(argv), env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
