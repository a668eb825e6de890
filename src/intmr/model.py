"""Data containers and the penalized objective for integrative multivariate
regression.

Several datasets are modeled jointly.  Dataset m carries a response matrix
Y (n_m x q), a block of covariates X (n_m x p) shared by every dataset, and
an optional block of dataset-specific covariates Z (n_m x r_m).  The fitted
model is

    Y^m ~ 1 alpha_m' + X^m B^m + Z^m C^m

where the shared-covariate coefficients B^m are tied across datasets through
a group penalty on the vectors (B^1[j,k], ..., B^M[j,k]), so a shared
covariate is selected for a response in all datasets or in none, and the
specific coefficients C^m carry an entrywise l1 penalty.

Fits are evaluated on the solver's layout, the PaddedBlock that stack
builds: the loss, its gradient, the group norms and the objective are each
one expression over every dataset at once.  The intercept enters as u alpha'
through a column u with u'u = n.  Every term of the loss, its gradient and
the ridge steps is an inner product of the columns of A = [u X Z Y], so
stack replaces each tall dataset's rows by the R of a thin QR of its own A,
1 + p + r_m + q rows, before it pads, and every such term is unchanged.
"""

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

__all__ = [
    "DatasetBlock",
    "IntegratedDataset",
    "HyperParams",
    "ModelFit",
    "PaddedBlock",
    "stack",
    "stack_fit",
    "residual_matrix",
    "predict",
    "block_loss",
    "loss_gradient",
    "group_norms",
    "objective",
]


def _as_readonly_matrix(a, name, n_rows=None):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError("%s must be a 2-d array, got shape %s" % (name, (a.shape,)))
    if not np.all(np.isfinite(a)):
        raise ValueError("%s contains non-finite entries" % name)
    if n_rows is not None and a.shape[0] != n_rows:
        raise ValueError(
            "%s has %d rows, expected %d" % (name, a.shape[0], n_rows)
        )
    view = a.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class DatasetBlock:
    """One dataset: responses plus shared and specific covariate blocks.

    Parameters
    ----------
    Y : array, shape (n, q)
        Responses.
    X : array, shape (n, p)
        Covariates shared across datasets.  p may be zero.
    Z : array, shape (n, r), optional
        Dataset-specific covariates.  Omitted or r = 0 means the dataset
        contributes no specific block.
    """

    Y: np.ndarray
    X: np.ndarray
    Z: np.ndarray = None

    def __post_init__(self):
        Y = _as_readonly_matrix(self.Y, "Y")
        n = Y.shape[0]
        if n < 1 or Y.shape[1] < 1:
            raise ValueError("Y must have at least one row and one column")
        X = _as_readonly_matrix(self.X, "X", n_rows=n)
        Z = self.Z
        if Z is None:
            Z = np.zeros((n, 0))
        Z = _as_readonly_matrix(Z, "Z", n_rows=n)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Z", Z)

    @property
    def n(self):
        return self.Y.shape[0]

    @property
    def q(self):
        return self.Y.shape[1]

    @property
    def p(self):
        return self.X.shape[1]

    @property
    def r(self):
        return self.Z.shape[1]

    @property
    def u(self):
        """The intercept column, all ones."""
        return np.ones((self.n, 1))


@dataclass(frozen=True)
class IntegratedDataset:
    """An ordered collection of datasets sharing p covariates and q responses."""

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(self.blocks)
        if len(blocks) < 1:
            raise ValueError("need at least one dataset")
        for b in blocks:
            if not isinstance(b, DatasetBlock):
                raise TypeError("blocks must be DatasetBlock instances")
        p, q = blocks[0].p, blocks[0].q
        for i, b in enumerate(blocks):
            if b.p != p:
                raise ValueError(
                    "dataset %d has %d shared covariates, expected %d" % (i, b.p, p)
                )
            if b.q != q:
                raise ValueError(
                    "dataset %d has %d responses, expected %d" % (i, b.q, q)
                )
        object.__setattr__(self, "blocks", blocks)

    @property
    def M(self):
        return len(self.blocks)

    @property
    def p(self):
        return self.blocks[0].p

    @property
    def q(self):
        return self.blocks[0].q

    def __iter__(self):
        return iter(self.blocks)

    def __len__(self):
        return len(self.blocks)

    def __getitem__(self, m):
        return self.blocks[m]


@dataclass(frozen=True)
class HyperParams:
    """Penalty levels, which define the estimator: lam on shared-coefficient
    groups, gamma on specific coefficients.  The solver's step parameter is
    not one of them; it is admm.SolverOptions.rho."""

    lam: float
    gamma: float

    def __post_init__(self):
        for name in ("lam", "gamma"):
            v = float(getattr(self, name))
            if not np.isfinite(v):
                raise ValueError("%s must be finite" % name)
            object.__setattr__(self, name, v)
        if self.lam < 0 or self.gamma < 0:
            raise ValueError("penalties must be nonnegative")


def _as_coef(a, name, shape):
    a = np.asarray(a, dtype=float)
    if a.shape != shape:
        raise ValueError("%s has shape %s, expected %s" % (name, a.shape, shape))
    view = a.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class ModelFit:
    """Fitted coefficients for every dataset.

    alpha[m] is the intercept vector (q,), B[m] the shared-covariate
    coefficients (p x q) and C[m] the specific-covariate coefficients
    (r_m x q).  support_B marks the entries of B that are nonzero; for fits
    produced by the consensus solver the nonzero pattern of B is identical
    across datasets, so a single p x q matrix describes all of them.
    """

    alpha: tuple
    B: tuple
    C: tuple
    support_B: np.ndarray = field(init=False)
    support_C: tuple = field(init=False)

    def __post_init__(self):
        alpha = tuple(np.asarray(a, dtype=float).reshape(-1) for a in self.alpha)
        M = len(alpha)
        if M < 1 or len(self.B) != M or len(self.C) != M:
            raise ValueError("alpha, B and C must have one entry per dataset")
        q = alpha[0].shape[0]
        p = np.asarray(self.B[0]).shape[0]
        B = tuple(_as_coef(b, "B[%d]" % m, (p, q)) for m, b in enumerate(self.B))
        C = tuple(
            _as_coef(c, "C[%d]" % m, (np.asarray(c).shape[0], q))
            for m, c in enumerate(self.C)
        )
        for m, a in enumerate(alpha):
            if a.shape[0] != q:
                raise ValueError("alpha[%d] has length %d, expected %d" % (m, len(a), q))
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        if p:
            support = np.zeros((p, q), dtype=bool)
            for b in B:
                support |= b != 0
        else:
            support = np.zeros((0, q), dtype=bool)
        support.flags.writeable = False
        object.__setattr__(self, "support_B", support)
        supports_c = []
        for c in C:
            s = c != 0
            s.flags.writeable = False
            supports_c.append(s)
        object.__setattr__(self, "support_C", tuple(supports_c))

    @property
    def M(self):
        return len(self.alpha)

    @property
    def q(self):
        return self.alpha[0].shape[0]

    @property
    def p(self):
        return self.B[0].shape[0]

    def support_is_homogeneous(self):
        """True when every dataset shares one nonzero pattern in B."""
        base = self.B[0] != 0
        return all(np.array_equal(b != 0, base) for b in self.B[1:])


def _check_fit_matches(data, fit):
    if fit.M != data.M:
        raise ValueError("fit has %d datasets, data has %d" % (fit.M, data.M))
    if fit.p != data.p or fit.q != data.q:
        raise ValueError(
            "fit dimensions (p=%d, q=%d) do not match data (p=%d, q=%d)"
            % (fit.p, fit.q, data.p, data.q)
        )
    for m, block in enumerate(data):
        if fit.C[m].shape[0] != block.r:
            raise ValueError(
                "fit C[%d] has %d rows, dataset has r=%d"
                % (m, fit.C[m].shape[0], block.r)
            )


@dataclass(frozen=True)
class PaddedBlock:
    """Every dataset's rows, stacked with the dataset on the leading axis.

    Y (M, *folds, rows, G q) holds the q responses once per chain, X
    (M, *folds, rows, p) and Z (M, *folds, rows, r_max) the covariates; a CV
    grid has one fold axis.  Each (dataset, fold) holds its own rows, or the
    R of a thin QR of them (see stack), zero-padded to a common count, and
    Z's columns are zero-padded to the largest r_m; n holds the true row
    counts, shaped (M, *folds, 1, 1), u (M, *folds, rows, 1) is the
    intercept column, with u'u = n, and r holds the true r_m.  A zero row or
    column drops out of every product on its own, so a residual is exactly
    zero on padded rows.
    """

    Y: np.ndarray
    X: np.ndarray
    Z: np.ndarray
    n: np.ndarray
    u: np.ndarray
    r: tuple
    q: int

    @property
    def p(self):
        return self.X.shape[-1]

    def narrow(self, folds, chains):
        """The folds at index tuple `folds`, Y cut to its first `chains`."""
        pick = lambda a: a[(slice(None),) + folds]
        return replace(self, Y=pick(self.Y)[..., : chains * self.q], X=pick(self.X),
                       Z=pick(self.Z), n=pick(self.n), u=pick(self.u))


def _pad(arrays, shape):
    """Zero-pad 2-d arrays to `shape` and stack them on a new leading axis."""
    out = np.zeros((len(arrays),) + shape)
    for i, a in enumerate(arrays):
        out[i, : a.shape[0], : a.shape[1]] = a
    return out


def stack(blocks, chains=1):
    """Stack DatasetBlocks into one PaddedBlock of chains.

    blocks is a nested sequence of DatasetBlocks whose outer level is the
    dataset: an IntegratedDataset gives the (M,) stack of a single fit, and
    blocks[m][k], fold k's training rows of dataset m, the (M, K) stack of a
    CV grid.  All blocks of one dataset must have the same r.

    A block with more rows than the 1 + p + r + q columns of A = [1 X Z Y]
    enters as the R of a thin QR of A, u as R's first column, before rows
    are padded.  A = QR, so every inner product of A's columns is the same
    one of R's and every residual lies in the range of Q: the loss, its
    gradient and the ridge steps are unchanged up to rounding.
    """
    cells = np.array(blocks, dtype=object)
    flat = cells.ravel()
    p, q = flat[0].p, flat[0].q
    parts = []
    for b in flat:
        A = (b.u, b.X, b.Z, b.Y)
        if b.n > 1 + p + b.r + q:
            R = np.linalg.qr(np.concatenate(A, axis=1), mode="r")
            A = np.split(R, [1, 1 + p, 1 + p + b.r], axis=1)
        parts.append(A)
    rows = max(A[0].shape[0] for A in parts)

    def pad(i, width):
        return _pad([A[i] for A in parts], (rows, width)).reshape(cells.shape + (rows, width))

    return PaddedBlock(
        Y=np.tile(pad(3, q), chains),
        X=pad(1, p),
        Z=pad(2, max(b.r for b in flat)),
        n=np.array([b.n for b in flat], dtype=float).reshape(cells.shape + (1, 1)),
        u=pad(0, 1),
        r=tuple(b.r for b in cells.reshape(len(cells), -1)[:, 0]),
        q=q,
    )


def stack_fit(data, fit):
    """`data` stacked as AdmmSolver holds it, and `fit` stacked like it:
    alpha (M, q), B (M, p, q) and C (M, r_max, q), with C's rows past r_m
    zero."""
    _check_fit_matches(data, fit)
    block = stack(data)
    C = _pad(fit.C, (block.Z.shape[-1], fit.q))
    return block, np.array(fit.alpha), np.array(fit.B), C


def predict(block, alpha, B, C):
    """Fitted values u alpha' + X B + Z C for one dataset or a stacked
    block; alpha, B and C may carry leading axes that broadcast against the
    block's."""
    return block.u * alpha[..., None, :] + block.X @ B + block.Z @ C


def residual_matrix(block, alpha, B, C):
    """Residuals Y - 1 alpha' - X B - Z C for one dataset."""
    alpha = np.asarray(alpha, dtype=float).reshape(-1)
    if alpha.shape[0] != block.q:
        raise ValueError("alpha has length %d, expected %d" % (alpha.shape[0], block.q))
    B = np.asarray(B, dtype=float)
    C = np.asarray(C, dtype=float)
    if B.shape != (block.p, block.q):
        raise ValueError("B has shape %s, expected %s" % (B.shape, (block.p, block.q)))
    if C.shape != (block.r, block.q):
        raise ValueError("C has shape %s, expected %s" % (C.shape, (block.r, block.q)))
    return block.Y - predict(block, alpha, B, C)


@lru_cache(maxsize=64)
def _ones_row(rows):
    ones = np.ones((1, rows))
    ones.flags.writeable = False
    return ones


def _colsum(A):
    """Sums over the row axis, kept; a ones-row product is several times
    faster than numpy's reduction over a non-last axis of few columns."""
    return _ones_row(A.shape[-2]) @ A


def block_loss(block, R):
    """(1 / 2n) times the column sums of squares of a residual block, per
    dataset, with a trailing row axis of 1."""
    return 0.5 * _colsum(R * R) / block.n


def loss_gradient(block, R):
    """Gradients of the loss at residual R with respect to the intercept
    (..., 1, q), B (..., p, q) and C (..., r_max, q), per dataset."""
    uR, XtR, ZtR = (np.swapaxes(A, -1, -2) @ R for A in (block.u, block.X, block.Z))
    return -uR / block.n, -XtR / block.n, -ZtR / block.n


def group_norms(B, out=None, squares=None):
    """l2 norms of the cross-dataset coefficient groups.

    B holds one coefficient array per dataset, stacked on its leading axis
    or given as a sequence; entry [j, k] of the result is
    || (B^1[j,k], ..., B^M[j,k]) ||_2.  The squares are summed over the
    leading axis in one reduction, which adds them in dataset order.  The
    norms are written to `out` and the squares to `squares` when given.
    """
    B = np.asarray(B, dtype=float)
    total = np.add.reduce(np.multiply(B, B, out=squares), axis=0, out=out)
    return np.sqrt(total, out=out)


def objective(data, fit, hp):
    """Penalized objective.

    Sum over datasets of the scaled squared-error loss
    (1 / 2 n_m) ||Y - 1 alpha' - X B - Z C||_F^2, plus lam times the sum of
    cross-dataset group norms of B, plus gamma times the entrywise l1 norm
    of every C.
    """
    return _evaluate(*stack_fit(data, fit), hp)[0]


def _evaluate(block, alpha, B, C, hp):
    """(objective, KKT residual) of a fit stacked like `block`, from one
    residual: the shared body of objective and admm.kkt_residual, which
    AdmmSolver.fit runs on its own block and final state."""
    R = block.Y - predict(block, alpha, B, C)
    norms = group_norms(B)
    value = (float(block_loss(block, R).sum()) + hp.lam * float(norms.sum())
             + hp.gamma * float(np.abs(C).sum()))
    g_alpha, GB, GC = loss_gradient(block, R)
    # gradient of lam * ||beta_jk|| is lam * beta / ||beta||
    direction = np.divide(B, norms, out=np.zeros_like(B), where=norms > 0)
    viol_B = np.where(norms > 0, group_norms(GB + hp.lam * direction), group_norms(GB) - hp.lam)
    viol_C = np.where(C != 0, np.abs(GC + hp.gamma * np.sign(C)), np.abs(GC) - hp.gamma)
    return value, float(max(v.max(initial=0.0) for v in (np.abs(g_alpha), viol_B, viol_C)))
