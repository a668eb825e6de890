import csv
import json
import os

import numpy as np
import pytest

from intmr.model import DatasetBlock, IntegratedDataset, HyperParams, objective, predict
from intmr.admm import fit, SolverOptions
from intmr.selection import CvGrid, CvResult
from intmr.sim import ReplicateRecord, StudyMetrics
from intmr.io import (
    DataFormatError,
    RaggedRowsError,
    NonNumericCellError,
    HeaderMismatchError,
    RowCountMismatchError,
    ZeroVarianceError,
    read_table,
    load_dataset,
    standardize,
    fit_to_dict,
    fit_from_dict,
    save_fit,
    load_fit,
    atomic_write_text,
    write_boxplot_csv,
    write_cv_matrix_csv,
    write_cv_diagnostics_csv,
    write_coefficient_csv,
)
from helpers import make_data, random_fit

HIGHDIM = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "highdim")


def write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


class TestReadTable:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["a", "b"], [[1.5, -2], [0, 3e4]])
        header, mat = read_table(p)
        assert header == ("a", "b")
        assert np.array_equal(mat, [[1.5, -2.0], [0.0, 30000.0]])

    def test_header_whitespace_stripped(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a , b\n1,2\n")
        header, _ = read_table(p)
        assert header == ("a", "b")

    def test_ragged_row_reports_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n3\n")
        with pytest.raises(RaggedRowsError, match="line 3"):
            read_table(p)

    def test_non_numeric_reports_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,x\n")
        with pytest.raises(NonNumericCellError, match="'b'"):
            read_table(p)

    @pytest.mark.parametrize("cell", ["nan", "inf", "1e400"])
    def test_non_finite_reports_line_and_column(self, tmp_path, cell):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n3,%s\n" % cell)
        with pytest.raises(NonNumericCellError) as err:
            read_table(p)
        assert str(err.value) == "%s: line 3, column 'b': %r is not a finite number" % (p, cell)

    def test_parses_each_cell_as_float_does(self):
        # bit for bit, on every file of the bundled wide dataset
        for name in ("y", "x", "z"):
            path = os.path.join(HIGHDIM, name + ".csv")
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            header, mat = read_table(path)
            assert header == tuple(rows[0]) and mat.shape == (len(rows) - 1, len(header))
            for i, row in enumerate(rows[1:]):
                for j, cell in enumerate(row):
                    assert mat[i, j].tobytes() == np.float64(float(cell)).tobytes()

    def test_empty_file(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("")
        with pytest.raises(DataFormatError, match="empty"):
            read_table(p)

    def test_header_only_gives_zero_rows(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n")
        header, mat = read_table(p)
        assert mat.shape == (0, 2)


class TestLoadDataset:
    def make_files(self, tmp_path, with_z=(True, True), n=(4, 5)):
        paths = []
        rng = np.random.default_rng(0)
        for m in range(2):
            d = {}
            for name, cols in (("y", ["y1", "y2"]), ("x", ["x1", "x2", "x3"])):
                p = tmp_path / ("%s%d.csv" % (name, m))
                write_csv(p, cols, rng.standard_normal((n[m], len(cols))).tolist())
                d[name] = str(p)
            if with_z[m]:
                p = tmp_path / ("z%d.csv" % m)
                write_csv(p, ["w1"], rng.standard_normal((n[m], 1)).tolist())
                d["z"] = str(p)
            paths.append(d)
        return paths

    def test_happy_path(self, tmp_path):
        loaded = load_dataset(self.make_files(tmp_path))
        assert loaded.data.M == 2 and loaded.data.p == 3 and loaded.data.q == 2
        assert loaded.data[0].n == 4 and loaded.data[1].n == 5
        assert loaded.x_header == ("x1", "x2", "x3")
        assert loaded.z_headers == (("w1",), ("w1",))

    def test_missing_z_gives_empty_block(self, tmp_path):
        loaded = load_dataset(self.make_files(tmp_path, with_z=(True, False)))
        assert loaded.data[1].r == 0
        assert loaded.z_headers[1] == ()

    def test_row_count_mismatch(self, tmp_path):
        paths = self.make_files(tmp_path)
        write_csv(tmp_path / "bad.csv", ["x1", "x2", "x3"], [[1, 2, 3]])
        paths[0]["x"] = str(tmp_path / "bad.csv")
        with pytest.raises(RowCountMismatchError, match="dataset 0"):
            load_dataset(paths)

    def test_x_header_mismatch(self, tmp_path):
        paths = self.make_files(tmp_path)
        write_csv(
            tmp_path / "bad.csv",
            ["x1", "xTWO", "x3"],
            np.zeros((5, 3)).tolist(),
        )
        paths[1]["x"] = str(tmp_path / "bad.csv")
        with pytest.raises(HeaderMismatchError, match="dataset 1"):
            load_dataset(paths)

    def test_empty_spec_rejected(self):
        with pytest.raises(DataFormatError):
            load_dataset([])


class TestStandardize:
    def test_columns_centered_and_unit_scale(self):
        rng = np.random.default_rng(1)
        data = make_data(rng, M=2, n=20, p=3, q=2, r=2)
        std, rec = standardize(data)
        for m, b in enumerate(std):
            assert np.abs(b.X.mean(axis=0)).max() < 1e-12
            assert np.abs(b.X.std(axis=0, ddof=1) - 1).max() < 1e-12
            assert np.abs(b.Z.std(axis=0, ddof=1) - 1).max() < 1e-12
            assert np.array_equal(b.Y, data[m].Y)

    def test_constant_column_named(self):
        rng = np.random.default_rng(2)
        data = make_data(rng, M=1, n=10, p=2, q=1, r=1)
        X = data[0].X.copy()
        X[:, 1] = 7.0
        bad = IntegratedDataset((DatasetBlock(Y=data[0].Y, X=X, Z=data[0].Z),))
        with pytest.raises(ZeroVarianceError, match="age"):
            standardize(bad, x_header=("height", "age"))

    def test_r_zero_block_passes_through(self):
        rng = np.random.default_rng(3)
        data = make_data(rng, M=2, n=12, p=2, q=1, r=[2, 0])
        std, rec = standardize(data)
        assert std[1].r == 0
        assert rec.z_scale[1].shape == (0,)

    def test_unscale_preserves_predictions_and_zeros(self):
        rng = np.random.default_rng(4)
        data = make_data(rng, M=2, n=25, p=4, q=2, r=3)
        std, rec = standardize(data)
        report = fit(std, HyperParams(lam=0.15, gamma=0.1), SolverOptions(tol=1e-10))
        back = rec.unscale_fit(report.fit)
        for m, b in enumerate(data):
            yhat_std = predict(std[m], *[getattr(report.fit, f)[m] for f in ("alpha", "B", "C")])
            yhat_raw = predict(b, back.alpha[m], back.B[m], back.C[m])
            assert np.abs(yhat_std - yhat_raw).max() < 1e-10
            assert np.array_equal(report.fit.B[m] == 0, back.B[m] == 0)
            assert np.array_equal(report.fit.C[m] == 0, back.C[m] == 0)


class TestFitSerialization:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        data = make_data(rng, M=2, n=15, p=3, q=2, r=[2, 0])
        f = random_fit(rng, data)
        path = tmp_path / "model.json"
        save_fit(f, path, meta={"lambda": 0.5})
        loaded, meta = load_fit(path)
        assert meta == {"lambda": 0.5}
        for m in range(2):
            assert np.array_equal(loaded.alpha[m], f.alpha[m])
            assert np.array_equal(loaded.B[m], f.B[m])
            assert np.array_equal(loaded.C[m], f.C[m])
        assert loaded.C[1].shape == (0, 2)

    def test_objective_preserved(self, tmp_path):
        rng = np.random.default_rng(6)
        data = make_data(rng, M=2, n=15, p=3, q=2, r=2)
        hp = HyperParams(lam=0.2, gamma=0.1)
        f = fit(data, hp, SolverOptions(tol=1e-9)).fit
        path = tmp_path / "model.json"
        save_fit(f, path)
        loaded, _ = load_fit(path)
        assert objective(data, loaded, hp) == pytest.approx(
            objective(data, f, hp), rel=1e-12
        )

    def test_dict_support_fields(self):
        rng = np.random.default_rng(7)
        data = make_data(rng, M=2, n=10, p=2, q=2, r=1)
        f = random_fit(rng, data, density=0.5)
        doc = fit_to_dict(f)
        assert doc["support_B"] == f.support_B.tolist()
        assert fit_from_dict(doc).M == 2

    def test_json_is_sorted_and_stable(self, tmp_path):
        rng = np.random.default_rng(8)
        data = make_data(rng, M=1, n=8, p=2, q=1, r=1)
        f = random_fit(rng, data)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_fit(f, p1, meta={"b": 1, "a": 2})
        save_fit(f, p2, meta={"a": 2, "b": 1})
        assert p1.read_bytes() == p2.read_bytes()
        keys = list(json.loads(p1.read_text()))
        assert keys == sorted(keys)


class TestAtomicWrite:
    def test_writes_and_overwrites(self, tmp_path):
        p = tmp_path / "sub" / "f.txt"
        atomic_write_text(p, "one")
        assert p.read_text() == "one"
        atomic_write_text(p, "two")
        assert p.read_text() == "two"

    def test_no_temp_files_left(self, tmp_path):
        p = tmp_path / "f.txt"
        atomic_write_text(p, "x")
        assert os.listdir(tmp_path) == ["f.txt"]


def toy_metrics():
    records = (
        ReplicateRecord(
            scenario="M2_n10_s0_rx01_ry01",
            method="mr",
            replicate=1,
            mse=np.array([[1.0, 2.0], [3.0, 4.0]]),
            fpr=0.25,
            fnr=0.0,
        ),
        ReplicateRecord(
            scenario="M2_n10_s0_rx01_ry01",
            method="mr",
            replicate=0,
            mse=np.array([[5.0, 6.0], [7.0, 8.0]]),
            fpr=0.5,
            fnr=0.125,
        ),
    )
    return StudyMetrics(records=records, failures=(), metric_mode="paper")


class TestStudyFiles:
    def test_boxplot_rows_and_order(self, tmp_path):
        p = tmp_path / "box.csv"
        write_boxplot_csv(toy_metrics(), p)
        lines = p.read_text().splitlines()
        assert lines[0] == "scenario,method,dataset,response,replicate,mse,fpr,fnr"
        assert len(lines) == 1 + 2 * 4
        # records are ordered by replicate, cells by (dataset, response)
        assert lines[1].split(",")[4] == "0"
        assert lines[1].split(",")[5] == "5.0"
        assert lines[5].split(",")[4] == "1"
        first = lines[1].split(",")
        assert (first[2], first[3]) == ("1", "1")

    def test_cv_matrix_layout(self, tmp_path):
        grid = CvGrid(lambdas=(1.0, 0.1), gammas=(2.0, 0.2, 0.02))
        res = CvResult(
            grid=grid,
            cv_matrix=np.arange(6.0).reshape(2, 3),
            best_lambda=1.0,
            best_gamma=2.0,
            refit=None,
            folds=None,
        )
        p = tmp_path / "cv.csv"
        write_cv_matrix_csv(res, p)
        lines = p.read_text().splitlines()
        assert lines[0] == "lambda,2.0,0.2,0.02"
        assert lines[1] == "1.0,0.0,1.0,2.0"
        assert lines[2] == "0.1,3.0,4.0,5.0"

    def test_cv_diagnostics_layout(self, tmp_path):
        grid = CvGrid(lambdas=(1.0, 0.1), gammas=(2.0, 0.2))
        res = CvResult(
            grid=grid,
            cv_matrix=np.zeros((2, 2)),
            best_lambda=1.0,
            best_gamma=2.0,
            refit=None,
            folds=None,
            iterations=np.array([[[3, 40], [5, 4000]], [[7, 8], [9, 4000]]]),
            converged=np.array([[[True, True], [True, False]], [[True, True], [True, False]]]),
        )
        p = tmp_path / "diag.csv"
        write_cv_diagnostics_csv(res, p)
        assert p.read_text() == (
            "fold,lambda_index,gamma_index,lambda,gamma,iterations,converged\n"
            "1,0,0,1.0,2.0,3,1\n"
            "1,0,1,1.0,0.2,40,1\n"
            "1,1,0,0.1,2.0,5,1\n"
            "1,1,1,0.1,0.2,4000,0\n"
            "2,0,0,1.0,2.0,7,1\n"
            "2,0,1,1.0,0.2,8,1\n"
            "2,1,0,0.1,2.0,9,1\n"
            "2,1,1,0.1,0.2,4000,0\n"
        )

    def test_coefficient_table(self, tmp_path):
        rng = np.random.default_rng(9)
        data = make_data(rng, M=2, n=10, p=2, q=2, r=[1, 0])
        f = random_fit(rng, data, density=0.5)
        p = tmp_path / "coef.csv"
        write_coefficient_csv(f, p, x_header=("snp1", "snp2"), z_headers=(("cn1",), ()))
        lines = p.read_text().splitlines()
        assert lines[0] == "dataset,block,covariate,response,estimate,selected"
        # 2 datasets x 2 shared x 2 responses, plus 1 specific x 2 responses
        assert len(lines) == 1 + 8 + 2
        assert lines[1].startswith("1,shared,snp1,1,")
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[5] == ("0" if float(cells[4]) == 0 else "1")

    def test_coefficient_default_names(self, tmp_path):
        rng = np.random.default_rng(10)
        data = make_data(rng, M=1, n=8, p=2, q=1, r=1)
        f = random_fit(rng, data)
        p = tmp_path / "coef.csv"
        write_coefficient_csv(f, p)
        body = p.read_text()
        assert "x1" in body and "z1" in body
