"""Consensus ADMM solver for the group-penalized integrative regression
objective.

The objective couples the shared-covariate coefficients B^m across datasets
through a group penalty on the vectors (B^1[j,k], ..., B^M[j,k]).  The
solver splits both penalties off with consensus copies: B_bar carries the
group-thresholded copy of B, C_bar the entrywise-thresholded copy of C, and
scaled dual variables tie each pair together.  One iteration sweeps:

  (a) intercepts from residual column means,
  (b) ridge update of B toward B_bar + B_dual,
  (c) ridge update of C toward C_bar - C_dual,
  (d) entrywise soft threshold of C + C_dual onto C_bar,
  (e) groupwise soft threshold of B - B_dual onto B_bar,
  (f/g) dual ascent on both consensus residuals.

Each step is one public function below.  Data and iterates are stacked
with the dataset on the leading axis, then the chain axes (stack builds the
data side, zero_state the iterate), so every step runs once per iteration
on all datasets and chains.  run_chains advances a stack of warm-start
chains (a cross-validation grid) through those functions in one loop;
AdmmSolver.fit is its one-chain case.  The ridge steps use a thin SVD of X
and of Z, one batched SVD each, computed once per stack (rho stays fixed).
A fit stops when its augmented Lagrangian changes by less than tol between
checks.  Reported coefficients are the consensus
copies, so zeros are exact and the nonzero pattern of B is identical across
datasets; the penalized objective is evaluated once, at the returned fit.
"""

from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from .model import (
    IntegratedDataset,
    HyperParams,
    ModelFit,
    objective,
    residual_matrix,
)
from .prox import group_soft_threshold, soft_threshold

__all__ = [
    "SolverOptions",
    "AdmmState",
    "FitReport",
    "AdmmSolver",
    "PaddedBlock",
    "RidgeFactor",
    "fit",
    "stack",
    "run_chains",
    "zero_state",
    "block_loss",
    "ridge_factor",
    "ridge_factors",
    "update_intercept",
    "update_shared_coef",
    "update_specific_coef",
    "threshold_specific",
    "threshold_shared",
    "update_duals",
    "augmented_lagrangian",
    "consensus_gap",
    "kkt_residual",
]


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-7
    max_iter: int = 10000
    check_every: int = 1

    def __post_init__(self):
        if not (self.tol > 0 and np.isfinite(self.tol)):
            raise ValueError("tol must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.check_every < 1:
            raise ValueError("check_every must be at least 1")


@dataclass(frozen=True)
class PaddedBlock:
    """Every dataset's rows, stacked with the dataset on the leading axis.

    Y (M, ..., rows, q), X (M, ..., rows, p) and Z (M, ..., rows, r_max)
    carry leading axes that broadcast against the chain axes.  Rows are
    zero-padded to a common count and Z's columns to the largest r_m; n
    holds the true row counts, shaped (M, ..., 1, 1), mask (M, ..., rows, 1)
    is 1 on true rows, and r holds the true r_m.  A zero row or column drops
    out of every step on its own; only the loss needs the mask.
    """

    Y: np.ndarray
    X: np.ndarray
    Z: np.ndarray
    n: np.ndarray
    mask: np.ndarray
    r: tuple

    @property
    def M(self):
        return len(self.r)

    @property
    def q(self):
        return self.Y.shape[-1]

    @property
    def p(self):
        return self.X.shape[-1]


def stack(blocks):
    """Zero-pad DatasetBlocks and stack them into one PaddedBlock.

    blocks is a nested sequence of DatasetBlocks whose outer level is the
    dataset: an IntegratedDataset gives the (M,) stack of a single fit, and
    blocks[m][k][0], fold k's training rows of dataset m, the (M, K, 1) stack
    of a CV grid, whose singleton axis broadcasts over gammas.  All blocks
    of one dataset must have the same r.
    """
    cells = np.array(blocks, dtype=object)
    flat = cells.ravel()
    rows = max(b.n for b in flat)

    def pad(name, width):
        out = np.zeros((flat.size, rows, width))
        for i, b in enumerate(flat):
            a = getattr(b, name)
            out[i, : a.shape[0], : a.shape[1]] = a
        return out.reshape(cells.shape + (rows, width))

    n = np.array([b.n for b in flat], dtype=float).reshape(cells.shape + (1, 1))
    return PaddedBlock(
        Y=pad("Y", flat[0].q),
        X=pad("X", flat[0].p),
        Z=pad("Z", max(b.r for b in flat)),
        n=n,
        mask=(np.arange(rows)[:, None] < n).astype(float),
        r=tuple(b.r for b in cells.reshape(len(cells), -1)[:, 0]),
    )


def block_loss(block, R):
    """(1 / 2n) ||R||_F^2 of a residual block, per dataset and chain, with
    trailing (1, 1) axes; padded rows count for nothing."""
    R = R * block.mask
    return 0.5 * (R * R).sum(axis=(-2, -1), keepdims=True) / block.n


@dataclass
class AdmmState:
    """Mutable iterate: primal, consensus and scaled dual variables.

    Every variable is stacked with the dataset on the leading axis, then the
    chain axes: alpha (M, *chains, q), B, B_bar and B_dual
    (M, *chains, p, q), and C, C_bar and C_dual (M, *chains, r_max, q),
    whose rows past dataset m's r_m stay zero.  A single fit has no chain
    axes.
    """

    alpha: np.ndarray
    B: np.ndarray
    C: np.ndarray
    B_bar: np.ndarray
    B_dual: np.ndarray
    C_bar: np.ndarray
    C_dual: np.ndarray
    iteration: int = 0

    def copy(self):
        return replace(self, **{f.name: getattr(self, f.name).copy()
                                for f in fields(self) if f.name != "iteration"})


def zero_state(block, chains=()):
    """All-zero starting point shaped for a stacked block, with chain axes."""
    L = (block.M,) + tuple(chains)
    B, C = (np.zeros(L + (w, block.q)) for w in (block.p, block.Z.shape[-1]))
    return AdmmState(
        alpha=np.zeros(L + (block.q,)), B=B, C=C,
        B_bar=B.copy(), B_dual=B.copy(), C_bar=C.copy(), C_dual=C.copy(),
    )


def _check_state_matches(block, state):
    want = zero_state(block)
    for f in fields(state):
        got, expected = np.shape(getattr(state, f.name)), np.shape(getattr(want, f.name))
        if got != expected:
            raise ValueError("state %s has shape %s, expected %s" % (f.name, got, expected))
    padded = np.arange(block.Z.shape[-1]) >= np.array(block.r)[:, None]
    for name in ("C", "C_bar", "C_dual"):
        if getattr(state, name)[padded].any():
            raise ValueError("state %s has nonzero rows past r_m" % name)


# ---------------------------------------------------------------------------
# single update steps
#
# Every step takes leading axes: coefficient blocks (..., rows, q) and
# intercepts (..., q), against data whose arrays broadcast over those axes,
# whether one dataset's DatasetBlock or a stacked PaddedBlock.


def update_intercept(block, B_m, C_m):
    """Column means of Y - X B - Z C."""
    R = block.Y - block.X @ B_m - block.Z @ C_m
    return (R.sum(axis=-2, keepdims=True) / block.n)[..., 0, :]


class RidgeFactor(NamedTuple):
    """(A'A + c I)^{-1} v = v / c + V (w * V'v), from the thin SVD of A."""

    V: np.ndarray
    Vt: np.ndarray
    w: np.ndarray
    c: object


def ridge_factor(A, n, rho):
    """Thin-SVD factor of A'A + n rho I for a design A with any leading axes.

    w = -s^2 / (c (s^2 + c)) with c = n rho equals 1 / (s^2 + c) - 1 / c
    without its cancellation at large c.  Zero-padded rows add zero singular
    values, whose w is 0.
    """
    _, s, Vt = np.linalg.svd(A, full_matrices=False)
    c = n * rho
    s2 = (s * s)[..., None]
    V = np.ascontiguousarray(np.swapaxes(Vt, -1, -2))
    return RidgeFactor(V=V, Vt=Vt, w=-s2 / (c * (s2 + c)), c=c)


def ridge_factors(block, rho):
    """(X factor, Z factor) of a stacked block, each from one batched SVD;
    None for a block without columns."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    return tuple(
        ridge_factor(A, block.n, rho) if A.shape[-1] else None for A in (block.X, block.Z)
    )


def _ridge_solve(factor, rhs):
    return rhs / factor.c + factor.V @ (factor.w * (factor.Vt @ rhs))


def update_shared_coef(block, alpha_m, C_m, B_bar_m, B_dual_m, rho, factor=None):
    """Solve (X'X + n rho I) B = X'(Y - 1 alpha' - Z C) + n rho (B_bar + B_dual)."""
    if factor is None:
        factor = ridge_factor(block.X, block.n, rho)
    rhs = np.swapaxes(block.X, -1, -2) @ (block.Y - alpha_m[..., None, :] - block.Z @ C_m)
    rhs += factor.c * (B_bar_m + B_dual_m)
    return _ridge_solve(factor, rhs)


def update_specific_coef(block, alpha_m, B_m, C_bar_m, C_dual_m, rho, factor=None):
    """Solve (Z'Z + n rho I) C = Z'(Y - 1 alpha' - X B) + n rho (C_bar - C_dual)."""
    if factor is None:
        factor = ridge_factor(block.Z, block.n, rho)
    rhs = np.swapaxes(block.Z, -1, -2) @ (block.Y - alpha_m[..., None, :] - block.X @ B_m)
    rhs += factor.c * (C_bar_m - C_dual_m)
    return _ridge_solve(factor, rhs)


def threshold_specific(C_m, C_dual_m, thresh):
    """Entrywise soft threshold of C + C_dual."""
    return soft_threshold(C_m + C_dual_m, thresh)


def threshold_shared(B, B_dual, thresh):
    """Groupwise soft threshold of B - B_dual, groups running across datasets.

    B and B_dual are stacked (M, *chains, p, q); group (j, k) of a chain is
    the length-M vector at [:, ..., j, k].
    """
    return group_soft_threshold(B - B_dual, thresh)


def update_duals(state):
    """Dual ascent: B_dual += B_bar - B, C_dual += C - C_bar.  In place."""
    state.B_dual += state.B_bar - state.B
    state.C_dual += state.C - state.C_bar
    return state


# ---------------------------------------------------------------------------
# merit functions


def _sumsq(A):
    return (A * A).sum(axis=(-2, -1), keepdims=True)


def augmented_lagrangian(block, state, hp):
    """Scaled augmented Lagrangian of the consensus splitting on a stacked
    block.

    Loss at the primal variables, penalties at the consensus copies, plus
    (rho/2) ||B_bar - B + B_dual||_F^2 and (rho/2) ||C - C_bar + C_dual||_F^2
    summed over datasets.  One value per chain; hp.lam and hp.gamma may be
    per-chain arrays shaped (*chains, 1, 1).
    """
    R = block.Y - state.alpha[..., None, :] - block.X @ state.B - block.Z @ state.C
    G = state.C - state.C_bar + state.C_dual
    per_dataset = block_loss(block, R) + 0.5 * hp.rho * _sumsq(G)
    per_dataset = per_dataset + hp.gamma * np.abs(state.C_bar).sum(axis=(-2, -1), keepdims=True)
    Gb = state.B_bar - state.B + state.B_dual
    norms = np.sqrt((state.B_bar * state.B_bar).sum(axis=0))
    total = per_dataset.sum(axis=0) + 0.5 * hp.rho * _sumsq(Gb).sum(axis=0)
    total = total + hp.lam * norms.sum(axis=(-2, -1), keepdims=True)
    return total[..., 0, 0][()]


def consensus_gap(state):
    """Largest consensus violation: max group norm of B_bar - B and max
    Frobenius norm of C - C_bar."""
    gap = 0.0
    if state.B.size:
        diff = state.B_bar - state.B
        gap = float(np.sqrt((diff * diff).sum(axis=0)).max())
    if state.C.size:
        d = state.C - state.C_bar
        gap = max(gap, float(np.sqrt((d * d).sum(axis=(-2, -1))).max()))
    return gap


def kkt_residual(data, fit, hp):
    """Largest violation of the stationarity conditions at `fit`.

    Checks the zero intercept gradient, the groupwise condition on B (active
    groups must match the penalty gradient exactly, zero groups must have
    loss gradient norm at most lam) and the entrywise analogue on C with
    gamma.
    """
    worst = 0.0
    GB = np.zeros((data.M, data.p, data.q)) if data.p else None
    for m, block in enumerate(data):
        R = residual_matrix(block, fit.alpha[m], fit.B[m], fit.C[m])
        worst = max(worst, float(np.abs(R.mean(axis=0)).max()))
        if data.p:
            GB[m] = -(block.X.T @ R) / block.n
        if block.r:
            GC = -(block.Z.T @ R) / block.n
            C = fit.C[m]
            nz = C != 0
            if nz.any():
                worst = max(worst, float(np.abs(GC[nz] + hp.gamma * np.sign(C[nz])).max()))
            if (~nz).any():
                worst = max(worst, max(0.0, float(np.abs(GC[~nz]).max()) - hp.gamma))
    if data.p:
        Bst = np.stack(fit.B, axis=0)
        norms = np.sqrt((Bst * Bst).sum(axis=0))
        active = norms > 0
        if active.any():
            # gradient of lam * ||beta_jk|| is lam * beta / ||beta||
            direction = Bst[:, active] / norms[active][None, :]
            viol = GB[:, active] + hp.lam * direction
            worst = max(worst, float(np.sqrt((viol * viol).sum(axis=0)).max()))
        if (~active).any():
            gn = np.sqrt((GB[:, ~active] ** 2).sum(axis=0))
            worst = max(worst, max(0.0, float(gn.max()) - hp.lam))
    return worst


# ---------------------------------------------------------------------------
# driver


@dataclass
class FitReport:
    fit: ModelFit
    iterations: int
    converged: bool
    objective: float
    lagrangian_trace: np.ndarray
    kkt_residual: float
    consensus_gap: float
    state: AdmmState = field(repr=False, default=None)


class _ChainParams(NamedTuple):
    lam: np.ndarray
    gamma: np.ndarray
    rho: float


def run_chains(block, factors, state, rho, lambdas, gammas, opts=None,
               on_stop=None, trace=None):
    """Advance a stack of warm-start chains through one ADMM loop.

    The chains sit on the leading axes of `state` (after its dataset axis)
    and of `gammas`, each chain's gamma; the arrays of the stacked `block`
    broadcast against them, and `factors` holds its ridge factors (see
    ridge_factors).

    Every chain fits lambdas[0], lambdas[1], ... in turn at its own gamma,
    each fit warm-started from the state the previous one stopped in.  A fit
    stops when its augmented Lagrangian changes by less than opts.tol
    between two of its checks, or after opts.max_iter iterations.  When fits
    stop, on_stop(state, stopped, position) gets the mask of the chains that
    stopped and every chain's index into `lambdas`.  A chain at the end of
    its path is still swept along but can no longer stop the loop or raise
    FloatingPointError.  Each check appends the Lagrangian of every chain to
    `trace` when one is given.

    Returns the iteration count and convergence flag of every fit, shaped
    gammas.shape + (len(lambdas),).
    """
    opts = opts or SolverOptions()
    lambdas = np.asarray(lambdas, dtype=float)
    gammas = np.asarray(gammas, dtype=float)
    shape, n_fits = gammas.shape, len(lambdas)
    position = np.zeros(shape, dtype=int)
    it = np.zeros(shape, dtype=int)
    prev = np.full(shape, np.nan)
    active = np.ones(shape, dtype=bool)
    iterations = np.zeros(shape + (n_fits,), dtype=int)
    converged = np.zeros(shape + (n_fits,), dtype=bool)
    hp = _ChainParams(lambdas[position][..., None, None], gammas[..., None, None], rho)
    thresh_c = hp.gamma / rho
    fx, fz = factors
    while active.any():
        state.alpha = update_intercept(block, state.B, state.C)
        if fx is not None:
            state.B = update_shared_coef(
                block, state.alpha, state.C, state.B_bar, state.B_dual, rho, factor=fx
            )
        if fz is not None:
            state.C = update_specific_coef(
                block, state.alpha, state.B, state.C_bar, state.C_dual, rho, factor=fz
            )
            state.C_bar = threshold_specific(state.C, state.C_dual, thresh_c)
        if fx is not None:
            state.B_bar = threshold_shared(state.B, state.B_dual, hp.lam / rho)
        update_duals(state)
        state.iteration += 1
        it += 1
        finite = np.isfinite(state.alpha).all(axis=(0, -1))
        finite &= np.isfinite(state.B).all(axis=(0, -2, -1))
        finite &= np.isfinite(state.C).all(axis=(0, -2, -1))
        diverged = active & ~finite
        if diverged.any():
            raise FloatingPointError(
                "solver diverged: non-finite iterate at iteration %d" % it[diverged].min()
            )
        check = it % opts.check_every == 0
        met = np.zeros(shape, dtype=bool)
        if check.any():
            L = augmented_lagrangian(block, state, hp)
            if trace is not None:
                trace.append(L)
            met = check & (np.abs(L - prev) < opts.tol)
            prev = np.where(check, L, prev)
        stopped = active & (met | (it >= opts.max_iter))
        if not stopped.any():
            continue
        this_fit = stopped[..., None] & (np.arange(n_fits) == position[..., None])
        np.copyto(iterations, it[..., None], where=this_fit)
        np.copyto(converged, met[..., None], where=this_fit)
        if on_stop is not None:
            on_stop(state, stopped, position)
        position = position + stopped
        active = position < n_fits
        np.copyto(it, 0, where=stopped)
        np.copyto(prev, np.nan, where=stopped)
        hp = hp._replace(lam=lambdas[np.minimum(position, n_fits - 1)][..., None, None])
    return iterations, converged


class AdmmSolver:
    """Caches the stacked data and its ridge factors for repeated fits on
    one dataset collection with a fixed rho (warm starts, refits)."""

    def __init__(self, data, rho=1.0):
        if not isinstance(data, IntegratedDataset):
            data = IntegratedDataset(tuple(data))
        self.block = stack(data)
        self._factors = ridge_factors(self.block, rho)
        self.data = data
        self.rho = float(rho)

    def fit(self, hp, opts=None, init=None):
        if not isinstance(hp, HyperParams):
            raise TypeError("hp must be HyperParams")
        if hp.rho != self.rho:
            raise ValueError("hp.rho=%g does not match solver rho=%g" % (hp.rho, self.rho))
        data, block = self.data, self.block
        if init is None:
            state = zero_state(block)
        else:
            _check_state_matches(block, init)
            state = init.copy()
        trace = []
        iterations, converged = run_chains(
            block, self._factors, state, self.rho, [hp.lam], hp.gamma, opts, trace=trace
        )
        result = ModelFit(
            alpha=tuple(state.alpha.copy()),
            B=tuple(state.B_bar.copy()),
            C=tuple(c[:r] for c, r in zip(state.C_bar.copy(), block.r)),
        )
        return FitReport(
            fit=result,
            iterations=int(iterations[0]),
            converged=bool(converged[0]),
            objective=objective(data, result, hp),
            lagrangian_trace=np.asarray(trace),
            kkt_residual=kkt_residual(data, result, hp),
            consensus_gap=consensus_gap(state),
            state=state,
        )


def fit(data, hp, opts=None, init=None):
    """Fit the penalized model by consensus ADMM.

    Parameters
    ----------
    data : IntegratedDataset
    hp : HyperParams
    opts : SolverOptions, optional
    init : AdmmState, optional
        Warm start; must match the data dimensions.  The default is the
        all-zero state.

    Returns
    -------
    FitReport
        Coefficients taken from the consensus copies (exact zeros), the
        penalized objective at those coefficients, the augmented Lagrangian
        at every convergence check, the stationarity residual, the final
        consensus gap and the final state.
    """
    if not isinstance(data, IntegratedDataset):
        data = IntegratedDataset(tuple(data))
    return AdmmSolver(data, rho=hp.rho).fit(hp, opts=opts, init=init)
