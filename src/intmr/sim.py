"""Monte Carlo study harness.

Generates collections of datasets from a sparse two-response truth, fits the
joint estimator and single-dataset baselines with cross-validated penalties,
and scores prediction error and support recovery over replicates.  The
methods are reached through run_study, and _fit_method is the one path from
a method name to its fit: mr is the joint selection (select), and each
baseline is that selection under a split, run by _select_split.  ur splits
Y by response column, mlasso routes each dataset on its own as a p = 0
problem with specific covariates [X Z], and lasso does both.  A baseline's
problems run as one select_many, each refits on its own, and the refits of
a split are joined column-wise.

Random streams are derived from numpy SeedSequence keys
(seed, replicate, dataset, purpose) with purpose 0 for training data and 1
for test data, so every replicate and dataset draws from its own documented
stream and results are reproducible regardless of evaluation order.
"""

import re
from dataclasses import dataclass, replace

import numpy as np

from .model import DatasetBlock, IntegratedDataset, ModelFit, predict
from .selection import default_grid, select, select_many

__all__ = [
    "SimConfig",
    "TruthSet",
    "StudyMetrics",
    "truth",
    "gen_ar1_rows",
    "generate",
    "mse",
    "fpr_fnr",
    "run_study",
    "METHODS",
    "scenario_name",
    "parse_scenario",
]


@dataclass(frozen=True)
class SimConfig:
    """One simulation scenario.

    M datasets of n rows each; covariate blocks hold 10 informative columns
    with AR(1)(rho_x) correlation plus s independent noise columns; error
    rows are AR(1)(rho_y) across the two responses.
    """

    M: int = 2
    n: int = 50
    s: int = 5
    rho_x: float = 0.1
    rho_y: float = 0.1
    replicates: int = 100
    n_test: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.M not in (2, 3):
            raise ValueError("M must be 2 or 3")
        if self.n < 1 or self.n_test < 1 or self.replicates < 1:
            raise ValueError("n, n_test and replicates must be positive")
        if self.s < 0:
            raise ValueError("s must be nonnegative")
        for name in ("rho_x", "rho_y"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError("%s must lie in [0, 1)" % name)


@dataclass(frozen=True)
class TruthSet:
    """True coefficients: B_star shared by every dataset, C_star per dataset.
    Intercepts are zero."""

    B_star: np.ndarray
    C_star: tuple


def truth(M, s):
    """Sparse two-response truth with 10 informative covariates per block.

    The informative shared block loads the first five covariates on response
    one and the last five on response two; dataset-specific blocks permute
    that pattern per dataset.  s additional all-zero rows pad each matrix.
    """
    if M not in (2, 3):
        raise ValueError("M must be 2 or 3")
    if s < 0:
        raise ValueError("s must be nonnegative")
    base = np.zeros((10, 2))
    base[:5, 0] = 1.0
    base[5:, 1] = 0.5
    swapped = np.zeros((10, 2))
    swapped[:5, 1] = 1.0
    swapped[5:, 0] = 0.5
    third = np.zeros((10, 2))
    third[:, 0] = [0, 0, 0, 1, 1, 1, 1, 0.5, 0.5, 0.5]
    third[:, 1] = [1, 1, 1, 0.5, 0.5, 0.5, 0.5, 0, 0, 0]
    pad = np.zeros((s, 2))
    B_star = np.vstack([base, pad])
    patterns = [base, swapped, third][:M]
    C_star = tuple(np.vstack([pat, pad]) for pat in patterns)
    return TruthSet(B_star=B_star, C_star=C_star)


def gen_ar1_rows(n, dim, rho, rng):
    """n independent rows from N(0, Sigma) with Sigma[i,j] = rho^|i-j|."""
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")
    raw = rng.standard_normal((n, dim))
    if dim == 0 or rho == 0.0:
        return raw
    idx = np.arange(dim)
    cov = rho ** np.abs(idx[:, None] - idx[None, :])
    return raw @ np.linalg.cholesky(cov).T


def _stream(*key):
    return np.random.default_rng(np.random.SeedSequence(tuple(int(k) for k in key)))


def _design(config, n, rng):
    X = np.hstack(
        [gen_ar1_rows(n, 10, config.rho_x, rng), rng.standard_normal((n, config.s))]
    )
    Z = np.hstack(
        [gen_ar1_rows(n, 10, config.rho_x, rng), rng.standard_normal((n, config.s))]
    )
    return X, Z


def generate(config, replicate=0):
    """Draw one replicate: training datasets, the truth, and test datasets.

    Pure function of (config, replicate).  Training data for dataset m comes
    from stream (seed, replicate, m, 0) and test data from
    (seed, replicate, m, 1).
    """
    tset = truth(config.M, config.s)
    train, test = [], []
    for m in range(config.M):
        rng = _stream(config.seed, replicate, m, 0)
        X, Z = _design(config, config.n, rng)
        E = gen_ar1_rows(config.n, 2, config.rho_y, rng)
        train.append(DatasetBlock(Y=X @ tset.B_star + Z @ tset.C_star[m] + E, X=X, Z=Z))
        rng_t = _stream(config.seed, replicate, m, 1)
        Xt, Zt = _design(config, config.n_test, rng_t)
        Et = gen_ar1_rows(config.n_test, 2, config.rho_y, rng_t)
        test.append(
            DatasetBlock(Y=Xt @ tset.B_star + Zt @ tset.C_star[m] + Et, X=Xt, Z=Zt)
        )
    return IntegratedDataset(tuple(train)), tset, IntegratedDataset(tuple(test))


def mse(fit, test_data):
    """Mean squared prediction error per (dataset, response); an M x q matrix."""
    out = np.zeros((test_data.M, test_data.q))
    for m, block in enumerate(test_data):
        R = block.Y - predict(block, fit.alpha[m], fit.B[m], fit.C[m])
        out[m] = (R * R).mean(axis=0)
    return out


def fpr_fnr(fit, tset, mode="paper"):
    """False positive and false negative selection rates over the stacked
    coefficient vector (all B^m, then all C^m).

    mode "paper" divides false positives by the true-nonzero count and false
    negatives by the true-zero count; mode "conventional" uses the usual
    denominators (true zeros for FPR, true nonzeros for FNR).
    """
    if mode not in ("paper", "conventional"):
        raise ValueError("mode must be 'paper' or 'conventional'")
    M = fit.M
    if len(tset.C_star) != M:
        raise ValueError("fit and truth dimensions do not match")
    est = np.concatenate(
        [fit.B[m].ravel() for m in range(M)] + [fit.C[m].ravel() for m in range(M)]
    )
    true = np.concatenate(
        [tset.B_star.ravel()] * M + [tset.C_star[m].ravel() for m in range(M)]
    )
    if est.shape != true.shape:
        raise ValueError("fit and truth dimensions do not match")
    est_nz = est != 0
    true_nz = true != 0
    fp = int((est_nz & ~true_nz).sum())
    fn = int((~est_nz & true_nz).sum())
    n_nz = int(true_nz.sum())
    n_z = int((~true_nz).sum())
    if n_nz == 0 or n_z == 0:
        raise ValueError("rates undefined: truth has %d nonzeros, %d zeros" % (n_nz, n_z))
    if mode == "paper":
        return fp / n_nz, fn / n_z
    return fp / n_z, fn / n_nz


# ---------------------------------------------------------------------------
# baselines


def _route(block):
    """One dataset as a one-dataset problem with p = 0 whose specific
    covariates are [X Z], so that only the entrywise penalty applies."""
    return IntegratedDataset(
        (DatasetBlock(Y=block.Y, X=np.zeros((block.n, 0)), Z=np.hstack([block.X, block.Z])),)
    )


def _unroute(fit, block):
    """The (alpha, B, C) of block from the fit of its _route problem."""
    return fit.alpha[0], fit.C[0][: block.p], fit.C[0][block.p :]


def _select_split(data, per_response, routed, K, seed, opts, grid_size):
    """The fit of one baseline: data split into problems that run as one
    select_many.

    data is one problem, or one per dataset when routed (see _route), and
    each of these is split into one per response column when per_response
    is set.  A routed problem has p = 0, so its grid has the one placeholder
    lambda whatever grid_size asks.  Each problem refits on its own; the
    refits of a problem's parts are joined column-wise, and routed
    coefficients map back to (B, C).
    """
    datas = [_route(b) for b in data] if routed else [data]
    split = [[IntegratedDataset(tuple(DatasetBlock(Y=b.Y[:, [k]], X=b.X, Z=b.Z) for b in d))
              for k in range(d.q)] if per_response else [d] for d in datas]
    problems = [p for parts in split for p in parts]
    grids = [default_grid(p, *grid_size) for p in problems]
    fits = (r.refit.fit for r in select_many(problems, grids, K=K, seed=seed, opts=opts))
    joined = []
    for parts in split:
        part_fits = [next(fits) for _ in parts]
        # each dataset's alpha, B and C, the parts side by side
        joined.append(ModelFit(*(tuple(map(np.hstack, zip(*(getattr(f, name) for f in part_fits))))
                                 for name in ("alpha", "B", "C"))))
    if not routed:
        return joined[0]
    return ModelFit(*zip(*(_unroute(f, b) for f, b in zip(joined, data))))


# ---------------------------------------------------------------------------
# study driver


METHODS = ("mr", "ur", "mlasso", "lasso")
# each baseline's split: (by response column, each dataset routed on its own)
_SPLITS = {"ur": (True, False), "mlasso": (False, True), "lasso": (True, True)}


@dataclass(frozen=True)
class ReplicateRecord:
    scenario: str
    method: str
    replicate: int
    mse: np.ndarray
    fpr: float
    fnr: float


@dataclass(frozen=True)
class StudyMetrics:
    """Per-replicate metrics plus any replicate failures (scenario, method,
    replicate, message)."""

    records: tuple
    failures: tuple
    metric_mode: str

    def summary(self):
        """Median and quartiles of MSE per (scenario, method, dataset,
        response) and of the selection rates per (scenario, method)."""
        cells = {}
        rates = {}
        for rec in self.records:
            M, q = rec.mse.shape
            for m in range(M):
                for k in range(q):
                    cells.setdefault((rec.scenario, rec.method, m, k), []).append(
                        rec.mse[m, k]
                    )
            rates.setdefault((rec.scenario, rec.method), []).append((rec.fpr, rec.fnr))
        out = {"mse": [], "rates": [], "metric_mode": self.metric_mode}
        for (scen, meth, m, k), vals in sorted(cells.items()):
            q1, med, q3 = np.percentile(vals, [25, 50, 75])
            out["mse"].append(
                {
                    "scenario": scen,
                    "method": meth,
                    "dataset": m + 1,
                    "response": k + 1,
                    "q1": float(q1),
                    "median": float(med),
                    "q3": float(q3),
                }
            )
        for (scen, meth), vals in sorted(rates.items()):
            arr = np.asarray(vals)
            out["rates"].append(
                {
                    "scenario": scen,
                    "method": meth,
                    "median_fpr": float(np.median(arr[:, 0])),
                    "median_fnr": float(np.median(arr[:, 1])),
                }
            )
        return out


def scenario_name(config):
    fmt = lambda v: ("%g" % v).replace(".", "")
    return "M%d_n%d_s%d_rx%s_ry%s" % (
        config.M,
        config.n,
        config.s,
        fmt(config.rho_x),
        fmt(config.rho_y),
    )


def parse_scenario(name, **overrides):
    """Parse names like M2_n15_s5_rx01_ry09 (rx01 means rho_x = 0.1)."""
    m = re.fullmatch(r"M(\d+)_n(\d+)_s(\d+)_rx(\d+)_ry(\d+)", name)
    if m is None:
        raise ValueError("cannot parse scenario name %r" % name)
    decode = lambda tok: int(tok) / 10 ** (len(tok) - 1)
    return SimConfig(
        M=int(m.group(1)),
        n=int(m.group(2)),
        s=int(m.group(3)),
        rho_x=decode(m.group(4)),
        rho_y=decode(m.group(5)),
        **overrides,
    )


def _fit_method(method, data, K, seed, opts, grid_size):
    """The study's fit of one method: mr through select, a baseline
    through _select_split."""
    if method == "mr":
        return select(data, default_grid(data, *grid_size), K=K, seed=seed, opts=opts).refit.fit
    if method not in _SPLITS:
        raise ValueError("unknown method %r (choose from %s)" % (method, ", ".join(METHODS)))
    return _select_split(data, *_SPLITS[method], K, seed, opts, grid_size)


def _run_replicate(config, name, rep, methods, K, opts, grid_size, metric_mode):
    data, tset, test = generate(config, rep)
    records, failures = [], []
    for method in methods:
        try:
            fit = _fit_method(method, data, K, rep, opts, grid_size)
            err = mse(fit, test)
            fpr, fnr = fpr_fnr(fit, tset, mode=metric_mode)
            records.append(
                ReplicateRecord(
                    scenario=name,
                    method=method,
                    replicate=rep,
                    mse=err,
                    fpr=fpr,
                    fnr=fnr,
                )
            )
        except Exception as exc:  # noqa: BLE001 - one bad replicate must not sink the study
            failures.append((name, method, rep, "%s: %s" % (type(exc).__name__, exc)))
    return records, failures


def run_study(
    scenarios,
    methods=METHODS,
    replicates=None,
    K=5,
    opts=None,
    grid_size=(15, 15),
    metric_mode="paper",
):
    """Run every method on every scenario for the configured replicates.

    scenarios may be SimConfig objects or scenario-name strings.  Replicate
    r of a scenario uses generate(config, r) and fold seed r, so reruns are
    reproducible.
    """
    methods = tuple(m.lower() for m in methods)
    for m in methods:
        if m not in METHODS:
            raise ValueError("unknown method %r (choose from %s)" % (m, ", ".join(METHODS)))
    configs = []
    for sc in scenarios:
        cfg = parse_scenario(sc) if isinstance(sc, str) else sc
        if replicates is not None:
            cfg = replace(cfg, replicates=int(replicates))
        configs.append((scenario_name(cfg), cfg))

    records, failures = [], []
    for name, cfg in configs:
        for rep in range(cfg.replicates):
            recs, fails = _run_replicate(
                cfg, name, rep, methods, K, opts, grid_size, metric_mode
            )
            records.extend(recs)
            failures.extend(fails)
    return StudyMetrics(
        records=tuple(records), failures=tuple(failures), metric_mode=metric_mode
    )
