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

Each step is one public function below; AdmmSolver.fit runs exactly those
functions, passing the Cholesky factorizations of X'X + n rho I and
Z'Z + n rho I that it computes once per dataset (rho stays fixed).
Convergence is declared when the augmented Lagrangian changes by less than
tol between checks.  Reported coefficients are the consensus copies, so
zeros are exact and the nonzero pattern of B is identical across datasets;
the penalized objective is evaluated once, at the returned fit.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .model import (
    IntegratedDataset,
    HyperParams,
    ModelFit,
    group_norms,
    objective,
    residual_matrix,
)
from .prox import group_soft_threshold, soft_threshold

__all__ = [
    "SolverOptions",
    "AdmmState",
    "FitReport",
    "AdmmSolver",
    "fit",
    "zero_state",
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


@dataclass
class AdmmState:
    """Mutable iterate: primal, consensus and scaled dual variables.

    B-side variables are stacked (M, p, q); C-side variables are lists of
    (r_m, q) arrays since r_m varies by dataset.
    """

    alpha: np.ndarray
    B: np.ndarray
    C: list
    B_bar: np.ndarray
    B_dual: np.ndarray
    C_bar: list
    C_dual: list
    iteration: int = 0

    def copy(self):
        return AdmmState(
            alpha=self.alpha.copy(),
            B=self.B.copy(),
            C=[c.copy() for c in self.C],
            B_bar=self.B_bar.copy(),
            B_dual=self.B_dual.copy(),
            C_bar=[c.copy() for c in self.C_bar],
            C_dual=[c.copy() for c in self.C_dual],
            iteration=self.iteration,
        )


def zero_state(data):
    """All-zero starting point shaped for `data`."""
    M, p, q = data.M, data.p, data.q
    return AdmmState(
        alpha=np.zeros((M, q)),
        B=np.zeros((M, p, q)),
        C=[np.zeros((b.r, q)) for b in data],
        B_bar=np.zeros((M, p, q)),
        B_dual=np.zeros((M, p, q)),
        C_bar=[np.zeros((b.r, q)) for b in data],
        C_dual=[np.zeros((b.r, q)) for b in data],
    )


def _check_state_matches(data, state):
    M, p, q = data.M, data.p, data.q
    if state.B.shape != (M, p, q):
        raise ValueError(
            "state B has shape %s, expected %s" % (state.B.shape, (M, p, q))
        )
    if state.alpha.shape != (M, q):
        raise ValueError("state alpha has shape %s" % (state.alpha.shape,))
    for m, block in enumerate(data):
        if state.C[m].shape != (block.r, q):
            raise ValueError(
                "state C[%d] has shape %s, expected %s"
                % (m, state.C[m].shape, (block.r, q))
            )


# ---------------------------------------------------------------------------
# single update steps


def update_intercept(block, B_m, C_m):
    """Column means of Y - X B - Z C."""
    return np.asarray((block.Y - block.X @ B_m - block.Z @ C_m).mean(axis=0))


def _ridge_factor(G, n, rho):
    A = G + n * rho * np.eye(G.shape[0])
    return cho_factor(A)


def update_shared_coef(block, alpha_m, C_m, B_bar_m, B_dual_m, rho, factor=None):
    """Solve (X'X + n rho I) B = X'(Y - 1 alpha' - Z C) + n rho (B_bar + B_dual)."""
    if factor is None:
        factor = _ridge_factor(block.X.T @ block.X, block.n, rho)
    rhs = block.X.T @ (block.Y - alpha_m[None, :] - block.Z @ C_m)
    rhs += block.n * rho * (B_bar_m + B_dual_m)
    return cho_solve(factor, rhs)


def update_specific_coef(block, alpha_m, B_m, C_bar_m, C_dual_m, rho, factor=None):
    """Solve (Z'Z + n rho I) C = Z'(Y - 1 alpha' - X B) + n rho (C_bar - C_dual)."""
    if factor is None:
        factor = _ridge_factor(block.Z.T @ block.Z, block.n, rho)
    rhs = block.Z.T @ (block.Y - alpha_m[None, :] - block.X @ B_m)
    rhs += block.n * rho * (C_bar_m - C_dual_m)
    return cho_solve(factor, rhs)


def threshold_specific(C_m, C_dual_m, thresh):
    """Entrywise soft threshold of C + C_dual."""
    return soft_threshold(C_m + C_dual_m, thresh)


def threshold_shared(B, B_dual, thresh):
    """Groupwise soft threshold of B - B_dual, groups running across datasets.

    B and B_dual are stacked (M, p, q); group (j, k) is the length-M vector
    at [:, j, k].
    """
    return group_soft_threshold(B - B_dual, thresh)


def update_duals(state):
    """Dual ascent: B_dual += B_bar - B, C_dual += C - C_bar.  In place."""
    state.B_dual += state.B_bar - state.B
    for m in range(len(state.C)):
        state.C_dual[m] += state.C[m] - state.C_bar[m]
    return state


# ---------------------------------------------------------------------------
# merit functions


def augmented_lagrangian(data, state, hp):
    """Scaled augmented Lagrangian of the consensus splitting.

    Loss at the primal variables, penalties at the consensus copies, plus
    (rho/2) ||B_bar - B + B_dual||_F^2 and (rho/2) ||C - C_bar + C_dual||_F^2
    summed over datasets.
    """
    loss = 0.0
    quad = 0.0
    for m, block in enumerate(data):
        R = block.Y - state.alpha[m][None, :] - block.X @ state.B[m] - block.Z @ state.C[m]
        loss += 0.5 / block.n * float((R * R).sum())
        if block.r:
            G = state.C[m] - state.C_bar[m] + state.C_dual[m]
            quad += 0.5 * hp.rho * float((G * G).sum())
    if data.p:
        Gb = state.B_bar - state.B + state.B_dual
        quad += 0.5 * hp.rho * float((Gb * Gb).sum())
        pen_b = hp.lam * float(group_norms(state.B_bar).sum())
    else:
        pen_b = 0.0
    pen_c = hp.gamma * sum(float(np.abs(c).sum()) for c in state.C_bar)
    return loss + pen_b + pen_c + quad


def consensus_gap(state):
    """Largest consensus violation: max group norm of B_bar - B and max
    Frobenius norm of C - C_bar."""
    gap = 0.0
    if state.B.size:
        diff = state.B_bar - state.B
        gap = float(np.sqrt((diff * diff).sum(axis=0)).max())
    for m in range(len(state.C)):
        if state.C[m].size:
            d = state.C[m] - state.C_bar[m]
            gap = max(gap, float(np.sqrt((d * d).sum())))
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


class AdmmSolver:
    """Caches per-dataset ridge factorizations for repeated fits on one
    dataset collection with a fixed rho (grids, warm starts)."""

    def __init__(self, data, rho=1.0):
        if not isinstance(data, IntegratedDataset):
            data = IntegratedDataset(tuple(data))
        if rho <= 0:
            raise ValueError("rho must be positive")
        self.data = data
        self.rho = float(rho)
        self._fx = []
        self._fz = []
        for block in data:
            self._fx.append(
                _ridge_factor(block.X.T @ block.X, block.n, rho) if block.p else None
            )
            self._fz.append(
                _ridge_factor(block.Z.T @ block.Z, block.n, rho) if block.r else None
            )

    def fit(self, hp, opts=None, init=None):
        if not isinstance(hp, HyperParams):
            raise TypeError("hp must be HyperParams")
        if hp.rho != self.rho:
            raise ValueError("hp.rho=%g does not match solver rho=%g" % (hp.rho, self.rho))
        opts = opts or SolverOptions()
        data = self.data
        if init is None:
            state = zero_state(data)
        else:
            _check_state_matches(data, init)
            state = init.copy()
        rho = self.rho
        thresh_c = hp.gamma / rho
        thresh_b = hp.lam / rho

        lagrangian_trace = []
        converged = False
        prev = None
        iterations = 0
        for it in range(1, opts.max_iter + 1):
            for m, block in enumerate(data):
                state.alpha[m] = update_intercept(block, state.B[m], state.C[m])
                if block.p:
                    state.B[m] = update_shared_coef(
                        block, state.alpha[m], state.C[m], state.B_bar[m],
                        state.B_dual[m], rho, factor=self._fx[m],
                    )
                if block.r:
                    state.C[m] = update_specific_coef(
                        block, state.alpha[m], state.B[m], state.C_bar[m],
                        state.C_dual[m], rho, factor=self._fz[m],
                    )
                    state.C_bar[m] = threshold_specific(state.C[m], state.C_dual[m], thresh_c)
            if data.p:
                state.B_bar = threshold_shared(state.B, state.B_dual, thresh_b)
            update_duals(state)
            state.iteration += 1
            iterations = it
            if not (
                np.isfinite(state.alpha).all()
                and np.isfinite(state.B).all()
                and all(np.isfinite(c).all() for c in state.C)
            ):
                raise FloatingPointError(
                    "solver diverged: non-finite iterate at iteration %d" % it
                )
            if it % opts.check_every == 0:
                L = augmented_lagrangian(data, state, hp)
                lagrangian_trace.append(L)
                if prev is not None and abs(L - prev) < opts.tol:
                    converged = True
                    break
                prev = L

        result = ModelFit(
            alpha=tuple(state.alpha[m].copy() for m in range(data.M)),
            B=tuple(state.B_bar[m].copy() for m in range(data.M)),
            C=tuple(c.copy() for c in state.C_bar),
        )
        return FitReport(
            fit=result,
            iterations=iterations,
            converged=converged,
            objective=objective(data, result, hp),
            lagrangian_trace=np.asarray(lagrangian_trace),
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
