"""Consensus ADMM solver for the group-penalized integrative regression
objective.

The objective couples the shared-covariate coefficients B^m across datasets
through a group penalty on the vectors (B^1[j,k], ..., B^M[j,k]).  The
solver splits both penalties off with consensus copies: B_bar carries the
group-thresholded copy of B, C_bar the entrywise-thresholded copy of C, and
scaled dual variables tie each pair together.  Both duals take the one
scaled sign (Boyd et al. 2011, sec. 3.1.1): for a primal x, its consensus
copy z and its scaled dual u, the ridge target is z - u and the threshold
input a = x + u.  One iteration sweeps:

  (a) intercepts from the residual, alpha + (u'/n) R,
  (b) ridge update of B toward B_bar - B_dual,
  (c) ridge update of C toward C_bar - C_dual,
  (d) the consensus step, in Moreau's form (Boyd et al. 2011, sec. 6;
      Parikh & Boyd, Proximal Algorithms, 2014, secs. 2.5 and 6.5): the new
      dual is the projection of a onto the dual-norm ball of radius t,
      clip(a, -t, t) on C at t = gamma/rho and a min(1, t/||a||) on each
      group of B at t = lambda/rho, and the consensus copy is a minus it,
      the soft threshold of a.  The new dual equals the dual ascent
      u + x - z up to rounding, so there is no separate dual step.

Each step is one function, the one the loop calls, separable by response
column: update_intercept for (a), ridge_step for (b) and (c), and for (d)
prox._consensus_shrink, which runs prox._shrink on C and prox._group_shrink
on B and writes the projection and the remainder both.  With one dataset
every group of B is one entry, and it clips the flat [C | B] buffer in one
pass.  _shrink and _group_shrink are the bodies of prox.soft_threshold and
prox.group_soft_threshold without their checks, since run_chains checks its
penalty paths once per run.  Data and iterates are stacked with the dataset
on the leading axis, then a fold axis for a cross-validation grid, and a
fold's warm-start chains, one per gamma, sit side by side as groups of q
columns (model.stack builds the data side, zero_state the iterate).  A fold
need not come from the same problem as the next: each fold may carry its own
lambda and gamma paths.  run_chains advances such a grid through the steps
in one loop, narrowed to the chains still running; AdmmSolver.fit is its
one-chain case.  The ridge steps run in the thin-SVD coordinates
A = U diag(s) V' of X and of Z, one batched SVD each, computed once per run
(opts.rho stays fixed): with c = n rho, a = s / (s^2 + c) and
w = -s^2 / (s^2 + c), the step from residual E toward target T is T + V g
with g = (U diag(a))'E + w * V'T, and A times it is U diag(s) (V'T + g), so
the loop never multiplies by X or Z.  The intercept enters as u alpha', with
u the block's intercept column (see model.PaddedBlock) and u'u = n; a
dataset with more rows than 1 + p + r_m + q enters the stack as the R of a
thin QR of its rows (model.stack), which leaves every step unchanged up to
rounding.

Within run_chains each ADMM variable is one flat, contiguous buffer laid
out [C | B]: one for the primal x, one for the consensus z and one for the
scaled dual u, and the state's C, B, C_bar, B_bar, C_dual and B_dual are
contiguous views into them.  The target, the threshold input and the
increment x - z + u each run once over both blocks, and the thresholds are
held as flat [gamma / rho | lambda / rho] arrays of t and -t shaped like one
dataset's [C | B], with which one dataset's buffer is clipped at once.  The
buffers, the views and every workspace are built afresh for each working
set (_sweeper), at the start of a run and after each narrowing, once the
old working set is freed, so a sweep writes with out= and allocates no
array.  The intercept row u'/n is built there too, cut to the leading rows
where some u is nonzero (row 0 alone for a compressed dataset), and the
intercept step and Y - u alpha' run over those rows only.

The loop keeps what the steps share: Y - u alpha' once per sweep, X B and
Z C as the ridge steps return them, the residual R = Y - u alpha' - X B - Z C
as the C step's residual minus Z C, |C_bar| and the group norms of B_bar
from the thresholds, and G = x - z + u, that is C - C_bar + C_dual and
B - B_bar + B_dual, built after the consensus step.  R gives the next
sweep's intercept step.  The sweep writes
R^2, the squares of the last two and the thresholds' magnitudes into one
buffer (_merit_buffers), and the augmented Lagrangian is its weighted column
sum, the body that augmented_lagrangian runs too; it is taken at every
iteration, and a fit stops when it changes by less than tol between two
iterations.  Reported coefficients are the consensus copies, so zeros are
exact and the nonzero pattern of B is identical across datasets; the
penalized objective is evaluated once, at the returned fit.
"""

import math
import numbers
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from .model import (
    IntegratedDataset,
    HyperParams,
    ModelFit,
    _evaluate,
    _ones_row,
    group_norms,
    stack,
    stack_fit,
)
from .prox import _consensus_shrink

__all__ = [
    "SolverOptions",
    "AdmmState",
    "FitReport",
    "AdmmSolver",
    "RidgeFactor",
    "fit",
    "run_chains",
    "zero_state",
    "chain_sums",
    "ridge_factor",
    "ridge_factors",
    "update_intercept",
    "ridge_step",
    "augmented_lagrangian",
    "consensus_gap",
    "kkt_residual",
]


@dataclass(frozen=True)
class SolverOptions:
    """A fit stops when its augmented Lagrangian changes by less than tol
    between two iterations, or after max_iter iterations, an integer that is
    not a bool.  rho is the ADMM step parameter, the one every solver entry
    point reads: it moves the iterates, not the solution."""

    tol: float = 1e-7
    max_iter: int = 10000
    rho: float = 1.0

    def __post_init__(self):
        if not (self.tol > 0 and np.isfinite(self.tol)):
            raise ValueError("tol must be positive and finite")
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, numbers.Integral):
            raise ValueError("max_iter must be an integer, got %r" % (self.max_iter,))
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        object.__setattr__(self, "max_iter", int(self.max_iter))
        rho = float(self.rho)
        if not (rho > 0 and np.isfinite(rho)):
            raise ValueError("rho must be positive and finite")
        object.__setattr__(self, "rho", rho)


def chain_sums(a, q):
    """Sums of the last axis of `a` over each chain's group of q columns."""
    return a.reshape(a.shape[:-1] + (-1, q)).sum(axis=-1)


@dataclass
class AdmmState:
    """Mutable iterate: primal, consensus and scaled dual variables.

    Every variable is stacked like the data: alpha (M, *folds, G q), B,
    B_bar and B_dual (M, *folds, p, G q), and C, C_bar and C_dual
    (M, *folds, r_max, G q), whose rows past dataset m's r_m stay zero.  A
    single fit has no fold axis and one chain, G = 1.  Both duals are
    scaled with one sign, the sums of their consensus residuals B - B_bar
    and C - C_bar, which the loop takes as projections (see the module
    docstring).
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


def zero_state(block):
    """All-zero starting point shaped for a stacked block and its chains."""
    L, cols = block.n.shape[:-2], block.Y.shape[-1]
    B, C = (np.zeros(L + (w, cols)) for w in (block.p, block.Z.shape[-1]))
    return AdmmState(
        alpha=np.zeros(L + (cols,)), B=B, C=C,
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
# Every step takes leading axes: coefficient blocks (..., rows, q),
# intercept rows (..., 1, q), residuals and the products XB = X B and
# ZC = Z C (..., n, q), against data whose arrays broadcast over those axes,
# whether one dataset's DatasetBlock or a stacked PaddedBlock.  Given
# buffers, a step writes into them and allocates nothing.


def update_intercept(ut, alpha, R, work=None):
    """alpha += ut R in place, given ut = u'/n (the transposed intercept
    column over the row count) and the residual R = Y - u alpha' - X B - Z C:
    the column means of Y - X B - Z C, since u'u = n.  alpha is a row
    (..., 1, q); work is a buffer shaped like it.  ut and R may be cut to
    the leading rows where u is nonzero.  Returns alpha."""
    alpha += np.matmul(ut, R, out=work)
    return alpha


class RidgeFactor(NamedTuple):
    """A design A = U diag(s) V' in the coordinates of its thin SVD, with
    a = s / (s^2 + c), w = -s^2 / (s^2 + c) and c = n rho (see
    ridge_step): V', its transpose V, w (..., k, 1) or widened to the
    columns it multiplies, (U diag(a))' and U diag(s)."""

    Vt: np.ndarray
    V: np.ndarray
    w: np.ndarray
    Ua_t: np.ndarray
    Us: np.ndarray


def ridge_factor(A, n, rho):
    """Thin-SVD factor of A'A + n rho I for a design A with any leading axes.

    Zero-padded rows and columns add zero singular values, whose a and w
    are 0.
    """
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    s = s[..., None, :]
    d = s * s + n * rho
    return RidgeFactor(Vt=Vt, V=np.swapaxes(Vt, -1, -2), w=np.swapaxes(-(s * s) / d, -1, -2),
                       Ua_t=np.swapaxes(U * (s / d), -1, -2), Us=U * s)


def ridge_factors(block, rho):
    """(X factor, Z factor) of a stacked block, each from one batched SVD;
    None for a block without columns."""
    if not (rho > 0 and np.isfinite(rho)):
        raise ValueError("rho must be positive and finite")
    return tuple(
        ridge_factor(A, block.n, rho) if A.shape[-1] else None for A in (block.X, block.Z)
    )


def ridge_step(factor, E, T, out=None):
    """The solution of (A'A + c I) x = A'E + c T and its product A x, in the
    SVD coordinates of A: x = T + V g with g = (U diag(a))'E + w * V'T, and
    A x = U diag(s) (V'T + g).  ridge_factor and run_chains take V as the
    transposed view of V', which OpenBLAS multiplies faster at these sizes
    than a contiguous V.  out, if
    given, is (x, A x, t, g, h): the two results and three workspaces
    shaped (..., k, q)."""
    x, Ax, t, g, h = (None,) * 5 if out is None else out
    t = np.matmul(factor.Vt, T, out=t)
    g = np.multiply(factor.w, t, out=g)
    g += np.matmul(factor.Ua_t, E, out=h)
    t += g
    x = np.matmul(factor.V, g, out=x)
    x += T
    return x, np.matmul(factor.Us, t, out=Ax)


# ---------------------------------------------------------------------------
# merit functions


class _Merit(NamedTuple):
    """The stopping value's buffers (see _merit_buffers)."""

    pieces: np.ndarray
    weights: np.ndarray
    views: tuple
    lam_weights: np.ndarray
    sums: np.ndarray
    chains: np.ndarray


def _merit_buffers(block, rho, gamma, lam):
    """A zeroed buffer for the pieces of the augmented Lagrangian, its
    per-entry weights and the buffer of their column sums.

    Each dataset has the rows [R^2 | G_C^2 | G_B^2 | |C_bar|], with
    G_C = C - C_bar + C_dual and G_B = B - B_bar + B_dual, weighted
    [1/(2n) | rho/2 | rho/2 | gamma]; after every dataset's rows come the
    group norms of B_bar, weighted lambda.  gamma broadcasts against one
    dataset's C and lam against the group norms.  Holds the buffer
    (*folds, M k + p, G q), the weights, views of the five pieces shaped
    like R, C, B, C and the group norms, the view of the lambda weights, the
    column sums (*folds, 1, G q) and their view per chain (*folds, G, q).
    """
    M, rows, r, p = len(block.Y), block.Y.shape[-2], block.Z.shape[-1], block.p
    folds, cols = block.Y.shape[1:-2], block.Y.shape[-1]
    k = rows + 2 * r + p
    pieces = np.zeros(folds + (M * k + p, cols))
    weights = np.empty_like(pieces)

    axes = (len(folds),) + tuple(range(len(folds))) + (len(folds) + 1, len(folds) + 2)

    def views(a):
        per = a[..., : M * k, :].reshape(folds + (M, k, cols)).transpose(axes)
        cuts = (0, rows, rows + r, k - r, k)
        return tuple(per[..., i:j, :] for i, j in zip(cuts, cuts[1:])) + (a[..., M * k:, :],)

    w = views(weights)
    w[0][...] = 0.5 / block.n
    w[1][...] = w[2][...] = 0.5 * rho
    w[3][...] = gamma
    w[4][...] = lam
    sums = np.empty(folds + (1, cols))
    chains, pieces_of = sums.reshape(folds + (-1, block.q)), views(pieces)
    return _Merit(pieces, weights, pieces_of, w[4], sums, chains)


def _lagrangian(merit, out=None):
    """Per-chain augmented Lagrangian from a filled pieces buffer (see
    _merit_buffers): one weighted column sum, written to `out` when given.
    Overwrites the pieces and the column sums."""
    pieces = merit.pieces
    pieces *= merit.weights
    np.matmul(_ones_row(pieces.shape[-2]), pieces, out=merit.sums)
    return np.add.reduce(merit.chains, axis=-1, out=out)


def augmented_lagrangian(block, state, hp, rho):
    """Scaled augmented Lagrangian of the consensus splitting on a stacked
    block at step parameter rho.

    Loss at the primal variables, penalties at the consensus copies, plus
    (rho/2) ||B - B_bar + B_dual||_F^2 and (rho/2) ||C - C_bar + C_dual||_F^2
    summed over datasets: one value per chain, the sum over its q columns,
    shaped (*folds, G).  hp.lam and hp.gamma may be per-column arrays shaped
    (*folds, 1, G q).  The state fills the buffer of _merit_buffers and
    _lagrangian sums it, the body that run_chains runs on the pieces its
    sweep already holds.
    """
    R = block.Y - block.u * state.alpha[..., None, :] - block.X @ state.B
    R -= block.Z @ state.C
    merit = _merit_buffers(block, rho, hp.gamma, hp.lam)
    views = merit.views
    Gc = state.C - state.C_bar + state.C_dual
    Gb = state.B - state.B_bar + state.B_dual
    for a, out in zip((R, Gc, Gb), views):
        np.multiply(a, a, out=out)
    np.abs(state.C_bar, out=views[3])
    group_norms(state.B_bar, out=views[4])
    return _lagrangian(merit)


def consensus_gap(state):
    """Largest consensus violation: max group norm of B_bar - B and max
    Frobenius norm of C - C_bar."""
    gap = 0.0
    if state.B.size:
        gap = float(group_norms(state.B_bar - state.B).max())
    if state.C.size:
        d = state.C - state.C_bar
        gap = max(gap, float(np.sqrt((d * d).sum(axis=(-2, -1))).max()))
    return gap


def kkt_residual(data, fit, hp):
    """Largest violation of the stationarity conditions at `fit`.

    Checks the zero intercept gradient, the groupwise condition on B (active
    groups must match the penalty gradient exactly, zero groups must have
    loss gradient norm at most lam) and the entrywise analogue on C with
    gamma, which padded entries of C meet with their zero gradients.
    """
    return _evaluate(*stack_fit(data, fit), hp)[1]


# ---------------------------------------------------------------------------
# driver


@dataclass
class FitReport:
    fit: ModelFit
    iterations: int
    converged: bool
    objective: float
    kkt_residual: float
    consensus_gap: float
    state: AdmmState = field(repr=False, default=None)


def _refill(a, v, q):
    """Set a (..., rows, G q) to the per-chain values v (..., G) in place;
    returns a."""
    np.copyto(a.reshape(a.shape[:-1] + (v.shape[-1], q)), v[..., None, :, None])
    return a


def _check_paths(lambdas, gammas):
    for name, path in (("lambdas", lambdas), ("gammas", gammas)):
        if not (np.isfinite(path).all() and (path >= 0).all()):
            raise ValueError("%s must be finite and nonnegative" % name)


def _split(flat, shapes):
    """Contiguous views of the flat buffer, one per shape, in order."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[start:start + size].reshape(shape))
        start += size
    return views


def _take_columns(a, folds, cols):
    """a[:, *folds] with its last axis taken per fold at cols: one np.take
    at each row's flat offset plus its fold's columns, which costs less
    than np.take_along_axis's index over every axis."""
    a = a[(slice(None),) + folds]
    cols = cols.reshape(cols.shape[:-1] + (1,) * (a.ndim - cols.ndim - 1) + cols.shape[-1:])
    rows = np.arange(0, a.size, a.shape[-1]).reshape(a.shape[:-1] + (1,))
    return np.take(a, rows + cols)


def _own(state, names):
    """Copy the state's arrays `names` into one new flat buffer, in that
    order, and point those fields at contiguous views of it; returns the
    buffer.  The arrays the fields held are not written."""
    arrays = [getattr(state, name) for name in names]
    flat = np.empty(sum(a.size for a in arrays))
    for name, a, view in zip(names, arrays, _split(flat, [a.shape for a in arrays])):
        view[...] = a
        setattr(state, name, view)
    return flat


def _sweeper(block, factors, state, rho, tol, gamma, lam, prev):
    """One working set's sweep, and the setter of its chains' lambdas.

    Copies the state into new buffers of the working set and points its
    fields at views of them (alpha as rows (..., 1, G q), and x, z and u as
    flat [C | B] buffers; see the module docstring), and builds every
    product, residual, threshold, transposed factor, widened ridge weight
    and workspace, so that a sweep writes with out= into them and builds no
    array or view.  gamma, lam and prev are each working chain's gamma,
    lambda and last stopping value (*folds, G); prev becomes the working
    set's own.

    sweep() returns the sweep's stopping values and the mask of the chains
    whose value changed by less than tol.  The values are what the next
    sweep compares against, so a NaN entry restarts that chain's test, and
    the sweep after next overwrites them.  set_lambda(k, j, lam) sets the
    lambda weights and thresholds of chain j of working fold k.
    """
    q = block.q
    Y, ucol = block.Y, block.u
    alpha = _own(state, ("alpha",)).reshape(state.alpha.shape[:-1] + (1, -1))
    x, z, u = (_own(state, names) for names in
               (("C", "B"), ("C_bar", "B_bar"), ("C_dual", "B_dual")))
    C, B, C_bar, B_bar = state.C, state.B, state.C_bar, state.B_bar
    # the per-entry thresholds t and -t, each shaped like one dataset's [C | B]:
    # C's keep the dataset axis, B's are one per group
    neg, thr = np.empty((2, x.size // len(Y)))
    (gam_lo, lam_lo), (gam_t, lam_t) = (_split(a, (C[:1].shape, B.shape[1:])) for a in (neg, thr))
    _refill(gam_t, gamma / rho, q)
    np.negative(gam_t, out=gam_lo)
    # one workspace holds in turn the target z - u, the threshold input
    # a = x + u and the increment x - z + u
    work = np.empty(x.size)
    wC, wB = _split(work, (C.shape, B.shape))
    XB, ZC = block.X @ B, block.Z @ C
    R = Y - ucol * alpha - XB
    R -= ZC
    # u' / n over the leading rows h where some u is nonzero (a compressed
    # dataset's u is nonzero in its first row only): below them the
    # intercept step adds nothing and Y - u alpha' is Y
    h = np.flatnonzero(ucol.reshape(-1, ucol.shape[-2]).any(axis=0))[-1] + 1
    ut = np.swapaxes(ucol[..., :h, :], -1, -2) / block.n
    YU, E, step = Y.copy(), np.empty_like(R), np.empty_like(alpha)
    # each factor with V as the transposed view of V' and w widened to the
    # columns
    fx, fz = (None if f is None else
              f._replace(V=np.swapaxes(f.Vt, -1, -2),
                         w=np.broadcast_to(f.w, f.w.shape[:-1] + R.shape[-1:]).copy())
              for f in factors)
    merit = _merit_buffers(block, rho, _refill(np.empty(gamma.shape[:-1] + (1, Y.shape[-1])),
                                               gamma, q), 0.0)
    sq = merit.views
    # the consensus step's (a, -t, t, z, u), whole and for each block, and
    # its magnitudes |C_bar| and group norms, shaped like C and like B[:1]
    whole, parts_c, parts_b = ((work, neg, thr, z, u), (wC, gam_lo, gam_t, C_bar, state.C_dual),
                               (wB, lam_lo, lam_t, B_bar, state.B_dual))
    magnitudes = sq[3], sq[4][None]
    # the group threshold's workspaces; one dataset's groups are clipped
    # entrywise and need none
    norms, squares = (np.empty(B.shape[1:]), np.empty(B.shape)) if len(Y) > 1 else (None, None)
    Yh, uh, YUh, Rh = (a[..., :h, :] for a in (Y, ucol, YU, R))
    # each ridge step's outputs and workspaces
    out_b, out_c = (None if f is None else (a, Aa) + tuple(np.empty_like(f.w) for _ in range(3))
                    for f, a, Aa in ((fx, B, XB), (fz, C, ZC)))
    cur, change, met = np.empty_like(prev), np.empty_like(prev), np.empty(prev.shape, dtype=bool)

    _refill(merit.lam_weights, lam, q)
    _refill(lam_t, lam / rho, q)
    np.negative(lam_t, out=lam_lo)
    # the lambda weights and thresholds by (working fold, chain)
    by_chain = tuple(a.reshape((math.prod(lam.shape[:-1]), B.shape[-2], lam.shape[-1], q))
                     for a in (merit.lam_weights, lam_t, lam_lo))

    def set_lambda(k, j, lam):
        t = lam / rho
        for a, v in zip(by_chain, (lam, t, -t)):
            a[k, :, j] = v

    def sweep():
        nonlocal prev, cur
        update_intercept(ut, alpha, Rh, step)
        np.subtract(Yh, np.multiply(uh, alpha, out=YUh), out=YUh)
        np.subtract(z, u, out=work)
        if fx is not None:
            ridge_step(fx, np.subtract(YU, ZC, out=E), wB, out_b)
        np.subtract(YU, XB, out=R)
        if fz is not None:
            ridge_step(fz, R, wC, out_c)
            np.subtract(R, ZC, out=R)
        np.add(x, u, out=work)
        # the consensus step: the new dual is the projection of a, and z is
        # a minus it
        _consensus_shrink(whole, parts_c, parts_b, magnitudes, norms, squares)
        np.subtract(x, z, out=work)
        np.add(work, u, out=work)
        # the squares go to the stopping value's buffer block by block: its
        # per-fold row order fixes the order of its sums
        np.multiply(R, R, out=sq[0])
        np.multiply(wC, wC, out=sq[1])
        np.multiply(wB, wB, out=sq[2])
        L = _lagrangian(merit, cur)
        np.less(np.abs(np.subtract(L, prev, out=change), out=change), tol, out=met)
        prev, cur = L, prev
        return L, met

    return sweep, set_lambda


def run_chains(block, lambdas, gammas, opts=None, state=None, on_stop=None):
    """Advance a grid of warm-start chains through one ADMM loop.

    Chain g of a fold is the g-th group of q columns of block.Y and of the
    state (see stack); the grid's cells are (*folds, G).  The run starts
    from `state`, or from zero_state(block) when none is given, and computes
    the block's ridge factors itself.  The penalty paths, lambdas (L,) and
    gammas (G,), are shared by every fold, or given per fold as (*folds, L) and
    (*folds, G), so that folds of independent problems can share one run.
    They are checked once, before the first iteration.  The step parameter
    is opts.rho, read once per run.

    Every chain fits its fold's lambdas[0], lambdas[1], ... in turn at its
    own gamma, each fit warm-started from the state the previous one
    stopped in.  A fit stops when its augmented Lagrangian changes by less
    than opts.tol between two iterations, or after opts.max_iter
    iterations.  One sweep computes Y - u alpha' once and takes X B, Z C and
    the residual R = Y - u alpha' - X B - Z C from the ridge steps (see the
    module docstring); B and C enter the next sweep only through these
    products, and alpha through R.  The stopping value is built from the
    sweep's own pieces at every iteration (see _merit_buffers), and a
    running chain whose value is not finite raises FloatingPointError:
    every term of it is nonnegative, so a non-finite alpha, B or C of the
    chain makes it, and the sum of all values, non-finite.  A fit's
    iteration count is the sweeps since its chain's last stop, and stopped
    chains are looked for only when some chain met the rule or the earliest
    running fit may have reached max_iter.  The thresholds are held per
    entry, shaped like B_bar's group norms and like one dataset's C, so that
    no step broadcasts them along rows; when a fit stops, its chain's lambda
    thresholds and weights are set to its next lambda.

    When a chain ends its path, the working set narrows to the folds with a
    running chain and, per fold, its running chains, padded with its
    finished ones to the largest running count.  The old working set is
    freed first; then block, factors and state are taken at the running
    folds and chains, and a new working set is built on them (see
    _sweeper).  A padded chain is swept along but can no longer stop the
    loop or raise FloatingPointError.  When fits stop, on_stop(state,
    stopped, cell, position) may read the working state and gets the mask
    of the working chains that stopped, every working chain's cell (its
    flat index into the grid, a new array exactly when the working set
    changed) and its index into its lambda path, which the loop updates in
    place after the call.  The caller need keep no reference to block: the
    first fold to leave then frees the full-size data (on Python 3.10 the
    call itself holds block until it returns).

    The iterate lives in buffers of the working set: a given `state` has
    its arrays copied into them, which leaves those arrays as they were,
    and its fields pointed at views of them, which every sweep writes in
    place.  So the state is updated in place and ends holding the last
    working set, and on_stop reads live views: it must copy whatever it
    keeps.

    Returns the iteration count and convergence flag of every fit, shaped
    (*folds, G, L).
    """
    opts = opts or SolverOptions()
    rho = opts.rho
    lambdas = np.asarray(lambdas, dtype=float)
    gammas = np.asarray(gammas, dtype=float)
    _check_paths(lambdas, gammas)
    q, n_fits = block.q, lambdas.shape[-1]
    grid = block.n.shape[1:-2] + gammas.shape[-1:]
    # each cell's gamma and lambda path, by flat cell
    cell_gamma = np.broadcast_to(gammas, grid).ravel()
    cell_lambdas = np.broadcast_to(lambdas[..., None, :], grid + (n_fits,)).reshape(-1, n_fits)
    cell = np.arange(cell_gamma.size).reshape(grid)
    position = np.zeros(grid, dtype=int)
    active = np.ones(grid, dtype=bool)
    iterations = np.zeros(grid + (n_fits,), dtype=int)
    converged = np.zeros(grid + (n_fits,), dtype=bool)
    # every fit's iteration count and flag by flat cell and path index
    fits = iterations.reshape(-1, n_fits), converged.reshape(-1, n_fits)

    def current_lambdas():
        """Every working chain's lambda."""
        return cell_lambdas[cell, np.minimum(position, n_fits - 1)]

    factors = ridge_factors(block, rho)
    if state is None:
        state = zero_state(block)
    # state.iteration counts sweeps; a chain's current fit began after sweep
    # `first`, and no running fit reaches max_iter before sweep `cap`
    first = np.full(grid, state.iteration)
    cap = state.iteration + opts.max_iter
    run_sweep, set_lambda = _sweeper(block, factors, state, rho, opts.tol, cell_gamma[cell],
                                     current_lambdas(), np.full(grid, np.nan))
    while True:
        L, met = run_sweep()
        state.iteration += 1
        sweep = state.iteration
        # every term is nonnegative, so a non-finite alpha, B or C of a
        # chain makes its value, and so the sum, non-finite
        if not math.isfinite(L.sum()):
            diverged = active & ~np.isfinite(L)
            if diverged.any():
                raise FloatingPointError(
                    "solver diverged: non-finite iterate at iteration %d"
                    % (sweep - first[diverged]).min()
                )
        if sweep < cap and not met.any():
            continue
        stopped = active & met
        capped = sweep >= cap
        if capped:
            stopped |= active & (sweep - first >= opts.max_iter)
        if stopped.any():
            if on_stop is not None:
                on_stop(state, stopped, cell, position)
            # each stopped chain by itself: they are few, and scalar steps
            # cost less than passes over the whole working set
            ended = False
            for i in np.flatnonzero(stopped):
                c, k = cell.flat[i], position.flat[i]
                fits[0][c, k], fits[1][c, k] = sweep - first.flat[i], met.flat[i]
                position.flat[i], first.flat[i] = k + 1, sweep
                # its next fit compares its first value with nothing
                L.flat[i] = np.nan
                if k + 1 < n_fits:
                    set_lambda(*divmod(i, cell.shape[-1]), cell_lambdas[c, k + 1])
                else:
                    active.flat[i], ended = False, True
            narrowing = None
            if ended:
                if not active.any():
                    return iterations, converged
                narrowing = _narrowing(active)
            if narrowing is not None:
                folds, order = narrowing
                at = () if folds is None else (folds,)
                # the old sweep holds the old working set: free it first
                run_sweep = set_lambda = None
                cols = (order[..., None] * q + np.arange(q)).reshape(order.shape[:-1] + (-1,))
                block = block.narrow(at, order.shape[-1])
                # V is not narrowed: each working set takes it afresh from V'
                factors = tuple(None if f is None else RidgeFactor(
                    *(None if a is f.V else a[(slice(None),) + at] for a in f))
                    for f in factors)
                for f in fields(state):
                    if f.name != "iteration":
                        setattr(state, f.name, _take_columns(getattr(state, f.name), at, cols))
                cell, position, first, prev, active = (
                    np.take_along_axis(a[at], order, axis=-1)
                    for a in (cell, position, first, L, active))
                run_sweep, set_lambda = _sweeper(block, factors, state, rho, opts.tol,
                                                 cell_gamma[cell], current_lambdas(), prev)
        if capped:
            cap = first[active].min() + opts.max_iter


def _narrowing(active):
    """(folds, order) of the working set for the running chains `active`,
    or None when it is the working set itself: the indices of the folds
    with a running chain, None when every fold has one, and per such fold
    the order of its chains to keep, running chains first, padded with
    finished ones to the largest running count."""
    keep, width = active.any(axis=-1), active.sum(axis=-1).max()
    if keep.all() and width == active.shape[-1]:
        return None
    folds = None if keep.all() else np.flatnonzero(keep)
    order = np.argsort(~active[() if folds is None else (folds,)], axis=-1, kind="stable")
    return folds, order[..., :width]


class AdmmSolver:
    """Caches the stacked data for repeated fits on one dataset collection
    (warm starts, refits); each fit takes rho from its opts."""

    def __init__(self, data):
        if not isinstance(data, IntegratedDataset):
            data = IntegratedDataset(tuple(data))
        self.block = stack(data)

    def fit(self, hp, opts=None, init=None):
        if not isinstance(hp, HyperParams):
            raise TypeError("hp must be HyperParams")
        block = self.block
        if init is None:
            state = zero_state(block)
        else:
            _check_state_matches(block, init)
            # run_chains copies the arrays into buffers of its own, so a
            # shallow copy leaves init as it was
            state = replace(init)
        iterations, converged = run_chains(block, [hp.lam], [hp.gamma], opts, state=state)
        result = ModelFit(
            alpha=tuple(state.alpha.copy()),
            B=tuple(state.B_bar.copy()),
            C=tuple(c[:r] for c, r in zip(state.C_bar.copy(), block.r)),
        )
        value, kkt = _evaluate(block, state.alpha, state.B_bar, state.C_bar, hp)
        return FitReport(
            fit=result,
            iterations=int(iterations[0, 0]),
            converged=bool(converged[0, 0]),
            objective=value,
            kkt_residual=kkt,
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
        Stopping rule and the step parameter rho.
    init : AdmmState, optional
        Warm start; must match the data dimensions.  The default is the
        all-zero state.

    Returns
    -------
    FitReport
        Coefficients taken from the consensus copies (exact zeros), the
        penalized objective at those coefficients, the stationarity
        residual, the final consensus gap and the final state.
    """
    return AdmmSolver(data).fit(hp, opts=opts, init=init)
