"""File input and output: CSV dataset loading, covariate standardization,
model serialization and study-result files.

All writers go through an atomic write-temp-then-rename so a crash never
leaves a half-written file, and all emitted files are deterministic
functions of their inputs (no timestamps, sorted keys, shortest
round-tripping float representation).  Every CSV table goes through one
writer, _write_csv.
"""

import csv
import json
import os
import tempfile
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .model import DatasetBlock, IntegratedDataset, ModelFit

__all__ = [
    "DataFormatError",
    "RaggedRowsError",
    "NonNumericCellError",
    "HeaderMismatchError",
    "RowCountMismatchError",
    "ZeroVarianceError",
    "read_table",
    "load_dataset",
    "ScalingRecord",
    "standardize",
    "fit_to_dict",
    "fit_from_dict",
    "save_fit",
    "load_fit",
    "atomic_write_text",
    "write_boxplot_csv",
    "write_cv_matrix_csv",
    "write_cv_diagnostics_csv",
    "write_coefficient_csv",
]


class DataFormatError(ValueError):
    """Base class for malformed input tables."""


class RaggedRowsError(DataFormatError):
    """A row has a different number of cells than the header."""


class NonNumericCellError(DataFormatError):
    """A data cell does not parse as a finite number."""


class HeaderMismatchError(DataFormatError):
    """Shared-covariate headers differ across datasets."""


class RowCountMismatchError(DataFormatError):
    """Tables within one dataset have different row counts."""


class ZeroVarianceError(DataFormatError):
    """A covariate column is constant and cannot be scaled."""


def read_table(path):
    """Read a headed numeric CSV; returns (header tuple, float matrix).

    Cells are parsed by float(), one row at a time; a cell that does not
    parse, or parses to nan or an infinity, is reported by line and column.
    Rows are checked for their cell count and parsed first, then the cells
    for being finite."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise DataFormatError("%s: empty file" % path)
    header = tuple(h.strip() for h in rows[0])
    width = len(header)
    values = []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise RaggedRowsError(
                "%s: line %d has %d cells, header has %d" % (path, i, len(row), width)
            )
        try:
            values.append(list(map(float, row)))
        except ValueError:
            for j, cell in enumerate(row):
                try:
                    float(cell)
                except ValueError:
                    raise NonNumericCellError(
                        "%s: line %d, column %r: %r is not numeric"
                        % (path, i, header[j], cell)
                    ) from None
    data = np.array(values, dtype=float).reshape(len(values), width)
    bad = np.argwhere(~np.isfinite(data))
    if len(bad):
        i, j = bad[0]
        raise NonNumericCellError(
            "%s: line %d, column %r: %r is not a finite number"
            % (path, i + 2, header[j], rows[i + 1][j])
        )
    return header, data


@dataclass(frozen=True)
class LoadedData:
    data: IntegratedDataset
    x_header: tuple
    z_headers: tuple


def load_dataset(block_paths):
    """Load datasets from CSV files.

    block_paths is a list of dicts with keys "y", "x" and optionally "z",
    each naming a headed CSV.  Row counts must agree within a dataset and
    the x header must be identical (same names, same order) across datasets.
    """
    if not block_paths:
        raise DataFormatError("no datasets given")
    blocks = []
    x_header = None
    z_headers = []
    for i, paths in enumerate(block_paths):
        _, Y = read_table(paths["y"])
        xh, X = read_table(paths["x"])
        if X.shape[0] != Y.shape[0]:
            raise RowCountMismatchError(
                "dataset %d: x has %d rows, y has %d" % (i, X.shape[0], Y.shape[0])
            )
        if x_header is None:
            x_header = xh
        elif xh != x_header:
            raise HeaderMismatchError(
                "dataset %d: x header %s does not match dataset 0 header %s"
                % (i, list(xh), list(x_header))
            )
        if paths.get("z"):
            zh, Z = read_table(paths["z"])
            if Z.shape[0] != Y.shape[0]:
                raise RowCountMismatchError(
                    "dataset %d: z has %d rows, y has %d" % (i, Z.shape[0], Y.shape[0])
                )
        else:
            zh, Z = (), np.zeros((Y.shape[0], 0))
        blocks.append(DatasetBlock(Y=Y, X=X, Z=Z))
        z_headers.append(zh)
    return LoadedData(
        data=IntegratedDataset(tuple(blocks)),
        x_header=x_header,
        z_headers=tuple(z_headers),
    )


# ---------------------------------------------------------------------------
# standardization


@dataclass(frozen=True)
class ScalingRecord:
    """Per-dataset centering and scaling applied to the covariate blocks."""

    x_mean: tuple
    x_scale: tuple
    z_mean: tuple
    z_scale: tuple

    def unscale_fit(self, fit):
        """Map coefficients fitted on standardized covariates back to the
        original scale; predictions are unchanged and zeros stay exact."""
        B = tuple(fit.B[m] / self.x_scale[m][:, None] for m in range(fit.M))
        C = tuple(fit.C[m] / self.z_scale[m][:, None] for m in range(fit.M))
        alpha = tuple(
            fit.alpha[m] - B[m].T @ self.x_mean[m] - C[m].T @ self.z_mean[m]
            for m in range(fit.M)
        )
        return ModelFit(alpha=alpha, B=B, C=C)


def _column_stats(A, names, what):
    mean = A.mean(axis=0) if A.size else np.zeros(A.shape[1])
    if A.shape[0] > 1:
        sd = A.std(axis=0, ddof=1)
    else:
        sd = np.zeros(A.shape[1])
    bad = np.flatnonzero(sd == 0)
    if bad.size and A.shape[1]:
        label = [names[j] if names and j < len(names) else str(j) for j in bad]
        raise ZeroVarianceError("%s column(s) %s have zero variance" % (what, label))
    return mean, sd


def standardize(data, x_header=None, z_headers=None):
    """Center covariate columns and scale them to unit standard deviation
    (denominator n_m - 1), per dataset.  Responses are left alone.

    Returns (standardized data, ScalingRecord).  Raises ZeroVarianceError
    naming any constant column.
    """
    blocks = []
    xm, xs, zm, zs = [], [], [], []
    for m, block in enumerate(data):
        names_x = x_header
        names_z = z_headers[m] if z_headers else None
        mx, sx = _column_stats(block.X, names_x, "dataset %d: x" % m)
        mz, sz = _column_stats(block.Z, names_z, "dataset %d: z" % m)
        X = (block.X - mx[None, :]) / sx[None, :] if block.p else block.X
        Z = (block.Z - mz[None, :]) / sz[None, :] if block.r else block.Z
        blocks.append(DatasetBlock(Y=block.Y, X=X, Z=Z))
        xm.append(mx)
        xs.append(sx if block.p else np.ones(0))
        zm.append(mz)
        zs.append(sz if block.r else np.ones(0))
    return IntegratedDataset(tuple(blocks)), ScalingRecord(
        x_mean=tuple(xm), x_scale=tuple(xs), z_mean=tuple(zm), z_scale=tuple(zs)
    )


# ---------------------------------------------------------------------------
# model serialization


def fit_to_dict(fit, meta=None):
    doc = {
        "alpha": [a.tolist() for a in fit.alpha],
        "B": [b.tolist() for b in fit.B],
        "C": [c.tolist() for c in fit.C],
        "support_B": fit.support_B.tolist(),
        "support_C": [s.tolist() for s in fit.support_C],
    }
    if meta is not None:
        doc["meta"] = meta
    return doc


def fit_from_dict(doc):
    q = len(doc["alpha"][0])
    return ModelFit(
        alpha=tuple(np.asarray(a, dtype=float) for a in doc["alpha"]),
        B=tuple(np.asarray(b, dtype=float).reshape(-1, q) for b in doc["B"]),
        C=tuple(np.asarray(c, dtype=float).reshape(-1, q) for c in doc["C"]),
    )


def atomic_write_text(path, text):
    """Write text to path via a temp file and rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def dump_json(doc, path):
    atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def save_fit(fit, path, meta=None):
    dump_json(fit_to_dict(fit, meta=meta), path)


def load_fit(path):
    with open(path) as fh:
        doc = json.load(fh)
    return fit_from_dict(doc), doc.get("meta")


# ---------------------------------------------------------------------------
# study and report files


def _fmt(v):
    return repr(float(v))


def _write_csv(path, header, rows):
    """Write a headed table: comma-separated, one "\n" per row, float cells
    by _fmt and other cells by str, and a cell quoted only where it holds a
    comma, a double quote or a line break, so that csv.reader reads every
    cell back."""
    lines = []
    # csv.writer quotes a cell that holds a character of its terminator, so
    # "\r\n" quotes a lone "\r" too; it writes each row once, terminator last
    writer = csv.writer(SimpleNamespace(write=lambda row: lines.append(row[:-2])),
                        lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows([_fmt(c) if isinstance(c, float) else c for c in row] for row in rows)
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_boxplot_csv(metrics, path):
    """Long-format per-replicate table: one row per (scenario, method,
    dataset, response, replicate) with that cell's MSE and the replicate's
    selection rates."""
    records = sorted(metrics.records, key=lambda r: (r.scenario, r.method, r.replicate))
    _write_csv(path, "scenario,method,dataset,response,replicate,mse,fpr,fnr".split(","),
               ((rec.scenario, rec.method, m + 1, k + 1, rec.replicate, rec.mse[m, k], rec.fpr,
                 rec.fnr)
                for rec in records for m, k in np.ndindex(rec.mse.shape)))


def write_cv_matrix_csv(result, path):
    """CV score per grid cell; rows follow the lambda path, columns the
    gamma path (both descending)."""
    _write_csv(path, ("lambda",) + result.grid.gammas,
               ((lam, *row) for lam, row in zip(result.grid.lambdas, result.cv_matrix)))


def write_cv_diagnostics_csv(result, path):
    """How each fit scored by the CV grid stopped: one row per (fold,
    lambda index, gamma index), folds numbered 1..K and indices from 0 along
    the paths, with the cell's lambda and gamma, the fit's iteration count
    and whether it met the stopping rule (1) or hit the cap (0)."""
    lambdas, gammas = result.grid.lambdas, result.grid.gammas
    _write_csv(path, "fold,lambda_index,gamma_index,lambda,gamma,iterations,converged".split(","),
               ((k + 1, i, j, lambdas[i], gammas[j], int(its), int(result.converged[k, i, j]))
                for (k, i, j), its in np.ndenumerate(result.iterations)))


def write_coefficient_csv(fit, path, x_header=None, z_headers=None):
    """Tidy coefficient table: dataset, block, covariate, response, estimate,
    selected flag.  Covariates take the names in x_header and z_headers[m],
    else x1, x2, ... and z1, z2, ..."""
    rows = []
    for m in range(fit.M):
        names_z = z_headers[m] if z_headers and m < len(z_headers) else None
        for block, coef, names, prefix in (("shared", fit.B[m], x_header, "x"),
                                           ("specific", fit.C[m], names_z, "z")):
            names = names or ["%s%d" % (prefix, j + 1) for j in range(coef.shape[0])]
            rows += [(m + 1, block, names[j], k, v, int(v != 0))
                     for j, row in enumerate(coef.tolist()) for k, v in enumerate(row, 1)]
    _write_csv(path, "dataset,block,covariate,response,estimate,selected".split(","), rows)
