"""Hyperparameter selection by K-fold cross-validation.

Folds are drawn within each dataset so every fold sees a balanced share of
every dataset.  The score of a grid cell is the prediction criterion

    (1/K) sum_k sum_m (1 / 2 n_m(k)) || Y_held - fitted on the rest ||_F^2

i.e. the same scaled squared-error loss the objective uses, without the
penalty terms.  Lambda paths are swept from the largest value down with warm
starts, one chain per (fold, gamma) pair, so the expensive small-penalty
fits start near a solution.  All chains run as one stacked ADMM (see
admm.run_chains): fold data is stacked once as (dataset, fold), with the
responses repeated once per gamma so that a fold's chains are side-by-side
column groups of one iterate, and the grid narrows to the chains still
running as chains end their paths.  Both sides of a fold go through
model.stack, whose row compression leaves a held-out loss unchanged.
select_many stacks the folds of several independent problems on the same
fold axis, each fold with its own problem's lambda and gamma paths, so one
loop serves, say, every response or every dataset of a per-response or
per-dataset baseline.  When fits stop, the loop only copies each one's
consensus fit (alpha, B_bar, C_bar) into a store by (fold, lambda, gamma);
after the run, every held-out loss is computed in one pass over the whole
held-out block.
"""

from dataclasses import dataclass, replace

import numpy as np

from .model import (
    DatasetBlock, IntegratedDataset, HyperParams, block_loss, group_norms, loss_gradient,
    predict, stack,
)
from .admm import AdmmSolver, chain_sums, run_chains

__all__ = [
    "FoldAssignment",
    "CvGrid",
    "CvResult",
    "make_folds",
    "default_grid",
    "select",
    "select_many",
]


@dataclass(frozen=True)
class FoldAssignment:
    """Per-dataset fold labels in 1..K."""

    labels: tuple
    K: int
    seed: int

    def __post_init__(self):
        labels = tuple(np.asarray(l, dtype=int) for l in self.labels)
        for l in labels:
            if l.size and (l.min() < 1 or l.max() > self.K):
                raise ValueError("fold labels must lie in 1..K")
        object.__setattr__(self, "labels", labels)


def make_folds(data, K, seed):
    """Assign each row of each dataset to one of K balanced folds.

    Shuffles rows within every dataset with a generator seeded by `seed`,
    then deals them out so fold sizes within a dataset differ by at most
    one.  Requires 2 <= K <= min_m n_m.  The shuffles are drawn from that
    one generator in dataset order, so reordering the datasets changes
    their folds, and with them what select scores; the CV matrix is
    unchanged when each dataset keeps its own labels.
    """
    K = int(K)
    n_min = min(b.n for b in data)
    if K < 2 or K > n_min:
        raise ValueError("K must satisfy 2 <= K <= %d, got %d" % (n_min, K))
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0xF01D)))
    labels = []
    for block in data:
        lab = np.zeros(block.n, dtype=int)
        order = rng.permutation(block.n)
        for i, row in enumerate(order):
            lab[row] = i % K + 1
        labels.append(lab)
    return FoldAssignment(labels=tuple(labels), K=K, seed=int(seed))


@dataclass(frozen=True)
class CvGrid:
    """Descending, strictly positive lambda and gamma paths."""

    lambdas: tuple
    gammas: tuple

    def __post_init__(self):
        for name in ("lambdas", "gammas"):
            vals = tuple(float(v) for v in getattr(self, name))
            if not vals:
                raise ValueError("%s must be nonempty" % name)
            if any(v <= 0 or not np.isfinite(v) for v in vals):
                raise ValueError("%s must be finite and strictly positive" % name)
            if any(a < b for a, b in zip(vals, vals[1:])):
                raise ValueError("%s must be sorted descending" % name)
            object.__setattr__(self, name, vals)


def penalty_ceiling(data):
    """Smallest (lam, gamma) at which the intercept-only fit is stationary.

    Gradients of the loss at the intercept-only fit, whose intercepts are
    the column means of Y (glmnet's lambda_max): lam_ref is the largest
    cross-dataset group norm over the shared covariates, gamma_ref the
    largest absolute entry over the specific covariates.
    """
    # each dataset's own rows, summed in row order by Y.mean: a stack's QR
    # rows or _colsum round differently, moving about 1 ceiling in 7 by an ulp
    grads = [loss_gradient(b, b.Y - b.Y.mean(axis=0)) for b in data]
    lam_ref = float(group_norms([g_B for _, g_B, _ in grads]).max(initial=0.0))
    gamma_ref = max(float(np.abs(g_C).max(initial=0.0)) for _, _, g_C in grads)
    # tiny relative bump keeps the ceiling strictly inside the all-zero
    # region, so the grid corner is intercept-only despite roundoff
    return lam_ref * (1 + 1e-6), gamma_ref * (1 + 1e-6)


def default_grid(data, n_lambdas=15, n_gammas=15, min_ratio=1e-3):
    """Log-spaced grid from the data-driven penalty ceiling downward.

    Covariate blocks that are absent (p = 0, or no dataset has specific
    covariates) get a single placeholder value since the corresponding
    penalty has no effect.
    """
    lam_ref, gamma_ref = penalty_ceiling(data)
    if lam_ref > 0:
        lambdas = tuple(np.geomspace(lam_ref, lam_ref * min_ratio, int(n_lambdas)))
    else:
        lambdas = (1.0,)
    if gamma_ref > 0:
        gammas = tuple(np.geomspace(gamma_ref, gamma_ref * min_ratio, int(n_gammas)))
    else:
        gammas = (1.0,)
    return CvGrid(lambdas=lambdas, gammas=gammas)


def _split(data, folds, k):
    """Training and held-out datasets for fold k."""
    train_blocks, held_blocks = [], []
    for m, block in enumerate(data):
        mask = folds.labels[m] == k
        if mask.all():
            raise ValueError("fold %d leaves dataset %d with no training rows" % (k, m))
        train_blocks.append(DatasetBlock(Y=block.Y[~mask], X=block.X[~mask], Z=block.Z[~mask]))
        held_blocks.append(DatasetBlock(Y=block.Y[mask], X=block.X[mask], Z=block.Z[mask]))
    return IntegratedDataset(tuple(train_blocks)), IntegratedDataset(tuple(held_blocks))


@dataclass(frozen=True)
class CvResult:
    """iterations and converged hold, per (fold, lambda, gamma) cell, the
    iteration count of the fit scored there and whether it met the
    stopping rule rather than the iteration cap."""

    grid: CvGrid
    cv_matrix: np.ndarray
    best_lambda: float
    best_gamma: float
    refit: object
    folds: FoldAssignment
    iterations: np.ndarray = None
    converged: np.ndarray = None


def select(data, grid, K=5, seed=0, opts=None):
    """Evaluate the CV criterion over the grid and refit at the winner.

    Ties within 1e-12 of the minimum, relative to it, resolve to the
    largest lambda, then the largest gamma.  Each (fold, gamma) pair forms
    an independent warm-start chain.  The grid fits and the refit all run
    at opts, whose rho is their step parameter.  The one-problem case of
    select_many.
    """
    return select_many((data,), (grid,), K=K, seed=seed, opts=opts)[0]


def select_many(problems, grids, K=5, seed=0, opts=None):
    """select for each problem at its own grid, the grids' chains run as one
    stacked ADMM; returns one CvResult per problem.

    The problems must share M, p, q and every r_m.  Each problem draws its
    folds with make_folds(problem, K, seed), as select does, and its K folds
    become K entries of the run's fold axis, with its own lambda and gamma
    paths.  Grids of one size share a run.  A problem's result equals its
    select result, up to the last bit where problems of unequal row counts
    pad each other's folds; each refit is its own AdmmSolver fit.
    """
    problems = tuple(d if isinstance(d, IntegratedDataset) else IntegratedDataset(tuple(d))
                     for d in problems)
    grids = tuple(grids)
    if not problems or len(grids) != len(problems):
        raise ValueError("need one grid per problem and at least one problem")
    if not all(isinstance(g, CvGrid) for g in grids):
        raise TypeError("grid must be a CvGrid")
    shape = lambda d: (d.M, d.p, d.q, tuple(b.r for b in d))
    if any(shape(d) != shape(problems[0]) for d in problems):
        raise ValueError("problems must share M, p, q and r_m, got %s"
                         % sorted(set(map(shape, problems))))
    folds = [make_folds(d, K, seed) for d in problems]
    results = [None] * len(problems)
    runs = {}
    for i, g in enumerate(grids):
        runs.setdefault((len(g.lambdas), len(g.gammas)), []).append(i)
    for run in runs.values():
        cv = _cv_matrices([problems[i] for i in run], [grids[i] for i in run],
                          [folds[i] for i in run], opts)
        for i, (cv_matrix, iterations, converged) in zip(run, cv):
            results[i] = _result(problems[i], grids[i], folds[i], cv_matrix,
                                 iterations, converged, opts)
    return tuple(results)


def _cv_matrices(problems, grids, folds, opts):
    """(cv_matrix, iterations, converged) of each problem, from one
    run_chains over the stacked folds of all of them; the grids share one
    size."""
    K, L, G = folds[0].K, len(grids[0].lambdas), len(grids[0].gammas)
    splits = (_split(d, f, k) for d, f in zip(problems, folds) for k in range(1, K + 1))
    # each side's (fold, dataset) blocks stack as (dataset, fold); the
    # unstacked copies are freed once both are built.  The training side is
    # popped into run_chains, its one holder, so the first fold to leave the
    # working set frees it
    sides = [stack(np.array(side, dtype=object).T, G) for side in zip(*splits)]
    held = sides.pop()
    q = held.q
    # each fit's consensus copies alpha, B_bar and C_bar, by (dataset, fold,
    # lambda, ..., gamma, response)
    fits = [np.empty(held.n.shape[:2] + (L,) + rows + (G, q))
            for rows in ((), (held.p,), (held.Z.shape[-1],))]

    def copy_fits(state, stopped, cell, position):
        chains = [a.reshape(a.shape[:-1] + (a.shape[-1] // q, q))
                  for a in (state.alpha, state.B_bar, state.C_bar)]
        for k, j in zip(*np.nonzero(stopped)):
            fold, gamma = divmod(int(cell[k, j]), G)
            for store, a in zip(fits, chains):
                store[:, fold, position[k, j], ..., gamma, :] = a[:, k, ..., j, :]

    iterations, converged = run_chains(
        sides.pop(), np.repeat([g.lambdas for g in grids], K, axis=0),
        np.repeat([g.gammas for g in grids], K, axis=0), opts, on_stop=copy_fits,
    )
    per_fold = _held_out_losses(held, *fits)
    return [
        (per_fold[i * K:(i + 1) * K].mean(axis=0),
         iterations[i * K:(i + 1) * K].transpose(0, 2, 1),
         converged[i * K:(i + 1) * K].transpose(0, 2, 1))
        for i in range(len(problems))
    ]


def _held_out_losses(held, alpha, B, C):
    """The held-out loss of every fit, (fold, lambda, gamma), in one pass
    over the held-out block: alpha, B and C hold each fit's consensus
    copies, shaped (dataset, fold, lambda, ..., gamma, response)."""
    lifted = replace(held, **{name: getattr(held, name)[:, :, None]
                              for name in ("Y", "X", "Z", "u", "n")})
    alpha, B, C = (a.reshape(a.shape[:-2] + (a.shape[-2] * a.shape[-1],)) for a in (alpha, B, C))
    R = lifted.Y - predict(lifted, alpha, B, C)
    return chain_sums(block_loss(lifted, R).sum(axis=0)[..., 0, :], held.q)


def _result(data, grid, folds, cv_matrix, iterations, converged, opts):
    """The CvResult of one problem: its best cell and the refit there."""
    # a cell ties when within 1e-12 of the minimum, relative to it, so that
    # the rule holds in any response units.  Paths are descending, so the
    # first qualifying cell in row-major order carries the largest lambda,
    # then the largest gamma
    lo = cv_matrix.min()
    best_i, best_j = np.argwhere(cv_matrix <= lo + 1e-12 * abs(lo))[0]
    best_lambda = grid.lambdas[best_i]
    best_gamma = grid.gammas[best_j]
    refit = AdmmSolver(data).fit(HyperParams(lam=best_lambda, gamma=best_gamma), opts=opts)
    return CvResult(
        grid=grid,
        cv_matrix=cv_matrix,
        best_lambda=best_lambda,
        best_gamma=best_gamma,
        refit=refit,
        folds=folds,
        iterations=iterations,
        converged=converged,
    )
