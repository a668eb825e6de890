import csv
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import intmr
from intmr import selection
from intmr.cli import cli
from helpers import run_cli_process

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(os.path.dirname(__file__), "data")


def toy_blocks():
    toy = os.path.join(DATA, "toy")
    return [
        {
            "y": os.path.join(toy, "y0.csv"),
            "x": os.path.join(toy, "x0.csv"),
            "z": os.path.join(toy, "z0.csv"),
        },
        {"y": os.path.join(toy, "y1.csv"), "x": os.path.join(toy, "x1.csv")},
    ]


def write_config(tmp_path, name="config.json", **kw):
    kw.setdefault("blocks", toy_blocks())
    path = tmp_path / name
    path.write_text(json.dumps(kw))
    return str(path)


def run(capsys, *args):
    code = cli(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestUsageErrors:
    def check(self, capsys, *args):
        code, out, err = run(capsys, *args)
        assert code == 2
        doc = json.loads(err)
        assert doc["error"] == "UsageError" and doc["message"]
        return doc

    def test_missing_subcommand(self, capsys):
        self.check(capsys)

    def test_unknown_flag(self, capsys):
        self.check(capsys, "fit", "--bogus", "1")

    def test_missing_config_file(self, capsys):
        doc = self.check(capsys, "fit", "--config", "/nope/none.json")
        assert "does not exist" in doc["message"]

    def test_malformed_config(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        self.check(capsys, "fit", "--config", str(p))

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, lamda=0.1)
        doc = self.check(capsys, "fit", "--config", cfg)
        assert "lamda" in doc["message"]

    def test_fit_without_blocks(self, capsys):
        self.check(capsys, "fit")

    def test_simulate_without_scenario(self, capsys):
        self.check(capsys, "simulate")

    def test_bad_scenario_name(self, tmp_path, capsys):
        self.check(capsys, "simulate", "--scenario", "M9!bad", "--out", str(tmp_path))

    @pytest.mark.parametrize(
        "flag, value",
        [("--tol", "inf"), ("--tol", "nan"), ("--tol", "0"), ("--tol", "-1"),
         ("--max-iter", "0")],
    )
    def test_bad_solver_setting(self, tmp_path, capsys, flag, value):
        cfg = write_config(tmp_path)
        doc = self.check(capsys, "fit", "--config", cfg, "%s=%s" % (flag, value))
        assert flag in doc["message"]

    # each of these used to exit 1 with a TypeError or run with a silently
    # truncated or coerced value
    @pytest.mark.parametrize(
        "key, value",
        [("tol", "1e-6"), ("n_test", "4"), ("max_iter", 3.5), ("k", 2.5),
         ("max_iter", True), ("seed", True), ("standardize", "yes"),
         ("metric_mode", "bogus")],
    )
    def test_wrongly_typed_config_value(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, out=str(tmp_path), **{key: value})
        doc = self.check(capsys, "cv", "--config", cfg, "--grid", "2x2")
        assert repr(key) in doc["message"]

    # each of these used to exit 1 with a KeyError or a TypeError.  The
    # non-string path is 3.5 or a list, never an int or a bool: at the
    # parent open() took one as a file descriptor and closed it
    @pytest.mark.parametrize(
        "blocks, index",
        [([{"y": "y.csv", "x": "x.csv"}, {"x": "x1.csv"}], 1), (["y.csv"], 0),
         ([{"y": 3.5, "x": "x.csv"}], 0), ([{"y": "y.csv", "x": ["x.csv"]}], 0),
         ([{"y": "y.csv", "x": "x.csv", "z": 3.5}], 0)],
    )
    def test_malformed_blocks_entry(self, tmp_path, capsys, blocks, index):
        cfg = write_config(tmp_path, blocks=blocks)
        doc = self.check(capsys, "fit", "--config", cfg)
        assert "blocks[%d]" % index in doc["message"]

    # a non-string scenario used to exit 1 with a TypeError from the name's
    # regular expression
    @pytest.mark.parametrize("scenarios, index", [([1], 0), (["M2_n15_s5_rx01_ry01", None], 1),
                                                  ([["M2_n15_s5_rx01_ry01"]], 0)])
    def test_malformed_scenario_entry(self, tmp_path, capsys, scenarios, index):
        cfg = write_config(tmp_path, scenario=scenarios)
        doc = self.check(capsys, "simulate", "--config", cfg, "--out", str(tmp_path))
        assert "scenario[%d]" % index in doc["message"]

    def test_bad_grid_spec(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        self.check(capsys, "cv", "--config", cfg, "--grid", "banana")

    def test_k_too_small(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        doc = self.check(capsys, "cv", "--config", cfg, "--k", "1")
        assert "--k" in doc["message"]

    # each subcommand takes only the flags it reads; these flags were
    # accepted and changed nothing
    @pytest.mark.parametrize(
        "args",
        [["fit", "--seed", "1"], ["cv", "--metric-mode", "paper"],
         ["simulate", "--standardize", "true"], ["report", "--tol", "1e-6"]],
        ids=["fit-seed", "cv-metric-mode", "simulate-standardize", "report-tol"],
    )
    def test_flag_the_subcommand_does_not_read(self, capsys, args):
        doc = self.check(capsys, *args)
        assert "unrecognized arguments: " + args[1] in doc["message"]

    def test_negative_penalty(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        self.check(capsys, "fit", "--config", cfg, "--lambda", "-1")

    # each of these used to exit 1, or run the solver until it raised
    # FloatingPointError
    @pytest.mark.parametrize(
        "command, flags, config, needle",
        [("fit", ["--lambda", "nan"], {}, "--lambda"),
         ("fit", ["--lambda", "inf"], {}, "--lambda"),
         ("fit", ["--gamma", "nan"], {}, "--gamma"),
         ("fit", [], {"lam": float("nan")}, "--lambda"),
         ("fit", [], {"rho": 0}, "rho"),
         ("fit", [], {"rho": -1}, "rho"),
         ("cv", [], {"rho": float("nan")}, "rho"),
         ("cv", [], {"rho": float("inf")}, "rho")],
        ids=["lambda-nan", "lambda-inf", "gamma-nan", "config-lam-nan", "config-rho-0",
             "config-rho-negative", "config-rho-nan", "config-rho-inf"],
    )
    def test_non_finite_penalty_or_rho(self, tmp_path, capsys, monkeypatch, command, flags,
                                       config, needle):
        def no_fit(*args, **kwargs):
            raise AssertionError("a fit started")

        monkeypatch.setattr(intmr.admm, "fit", no_fit)
        monkeypatch.setattr(intmr.selection, "select", no_fit)
        cfg = write_config(tmp_path, out=str(tmp_path), **config)
        doc = self.check(capsys, command, "--config", cfg, *flags)
        assert needle in doc["message"]

    def test_report_without_model(self, capsys):
        self.check(capsys, "report")

    # each of these used to exit 1, or exit 0 with every replicate failed,
    # after fits had started
    @pytest.mark.parametrize(
        "args, needle",
        [(["cv", "--grid", "0x3"], "grid"),
         (["cv", "--seed", "-1"], "--seed"),
         (["cv", "--k", "20"], "--k"),
         (["simulate", "--grid", "0x2"], "grid"),
         (["simulate", "--replicates", "0"], "--replicates"),
         (["simulate", "--methods", "mr,foo"], "--methods"),
         (["simulate", "--seed", "-1"], "--seed"),
         (["simulate", "--scenario", "M2_n4_s5_rx01_ry01", "--k", "5"], "--k")],
        ids=["cv-grid-0x3", "cv-seed-negative", "cv-k-above-n", "simulate-grid-0x2",
             "simulate-replicates-0", "simulate-unknown-method", "simulate-seed-negative",
             "simulate-k-above-n"],
    )
    def test_rejected_before_any_fit(self, tmp_path, capsys, monkeypatch, args, needle):
        def no_fit(*args, **kwargs):
            raise AssertionError("a fit started")

        monkeypatch.setattr(intmr.selection, "select", no_fit)
        monkeypatch.setattr(intmr.sim, "run_study", no_fit)
        if args[0] == "cv":
            args = args + ["--config", write_config(tmp_path)]
        elif "--scenario" not in args:
            args = args + ["--scenario", "M2_n15_s5_rx01_ry01"]
        doc = self.check(capsys, *args, "--out", str(tmp_path))
        assert needle in doc["message"]


def test_config_values_of_the_right_type_are_accepted(tmp_path, capsys):
    cfg = write_config(
        tmp_path, out=str(tmp_path), tol=1, max_iter=200, seed=3, k=3,
        standardize=False, replicates=None, lam=0, gamma=0.1,
    )
    code, _, err = run(capsys, "fit", "--config", cfg)
    assert code == 0, err


class TestRuntimeErrors:
    def test_missing_data_file(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, blocks=[{"y": "/nope/y.csv", "x": "/nope/x.csv"}]
        )
        code, out, err = run(capsys, "fit", "--config", cfg)
        assert code == 1
        doc = json.loads(err)
        assert doc["error"] == "FileNotFoundError"

    def test_malformed_csv(self, tmp_path, capsys):
        bad = tmp_path / "y.csv"
        bad.write_text("a,b\n1,2\n3\n")
        x = tmp_path / "x.csv"
        x.write_text("x1\n1.0\n2.0\n")
        cfg = write_config(tmp_path, blocks=[{"y": str(bad), "x": str(x)}])
        code, out, err = run(capsys, "fit", "--config", cfg)
        assert code == 1
        assert json.loads(err)["error"] == "RaggedRowsError"

    def test_non_finite_cell_names_its_file(self, tmp_path, capsys):
        # it used to reach the solver's check as "ValueError: Y contains
        # non-finite entries", which named no file
        y = tmp_path / "y.csv"
        y.write_text("a,b\n1,2\n3,1e400\n")
        x = tmp_path / "x.csv"
        x.write_text("x1\n1.0\n2.0\n")
        cfg = write_config(tmp_path, blocks=[{"y": str(y), "x": str(x)}])
        code, out, err = run(capsys, "fit", "--config", cfg)
        assert code == 1
        doc = json.loads(err)
        assert doc["error"] == "NonNumericCellError"
        assert doc["message"] == "%s: line 3, column 'b': '1e400' is not a finite number" % y


class TestFit:
    def test_unpenalized_matches_committed_solution(self, tmp_path, capsys):
        cfg = write_config(tmp_path, out=str(tmp_path))
        code, out, err = run(
            capsys, "fit", "--config", cfg, "--tol", "1e-13", "--max-iter", "30000"
        )
        assert code == 0, err
        summary = json.loads(out)
        assert summary["converged"] is True
        model = read_json(tmp_path / "model.json")
        expected = read_json(os.path.join(DATA, "toy", "expected.json"))
        for field in ("alpha", "B", "C"):
            for got, want in zip(model[field], expected[field]):
                err_max = np.abs(np.asarray(got) - np.asarray(want)).max(initial=0.0)
                assert err_max <= 1e-6, (field, err_max)

    def test_meta_block(self, tmp_path, capsys):
        cfg = write_config(tmp_path, out=str(tmp_path))
        code, _, _ = run(capsys, "fit", "--config", cfg, "--lambda", "0.3", "--gamma", "0.2")
        assert code == 0
        meta = read_json(tmp_path / "model.json")["meta"]
        assert meta["lambda"] == 0.3 and meta["gamma"] == 0.2
        assert meta["iterations"] >= 1 and "kkt_residual" in meta
        assert meta["standardized_fit"] is False

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, out=str(tmp_path), lam=0.3)
        code, _, _ = run(capsys, "fit", "--config", cfg, "--lambda", "0.9")
        assert code == 0
        assert read_json(tmp_path / "model.json")["meta"]["lambda"] == 0.9

    def test_standardize_reports_original_scale(self, tmp_path, capsys):
        out_raw = tmp_path / "raw"
        out_std = tmp_path / "std"
        cfg = write_config(tmp_path)
        for out, extra in (
            (out_raw, ["--standardize", "true"]),
            (out_std, ["--standardize", "true", "--keep-standardized"]),
        ):
            code, _, _ = run(
                capsys,
                "fit",
                "--config",
                cfg,
                "--out",
                str(out),
                "--lambda",
                "0.1",
                "--gamma",
                "0.1",
                *extra,
            )
            assert code == 0
        raw = read_json(out_raw / "model.json")
        std = read_json(out_std / "model.json")
        assert raw["meta"]["standardized_fit"] is True
        assert not np.allclose(raw["B"][0], std["B"][0])
        # zero patterns agree between the two scales
        assert (np.asarray(raw["B"][0]) == 0).tolist() == (
            np.asarray(std["B"][0]) == 0
        ).tolist()


class TestCv:
    GRID = "0.6,0.12;0.4,0.08"

    def args(self, out):
        out.mkdir(exist_ok=True)
        cfg = write_config(out, out=str(out))
        return ["cv", "--config", cfg, "--grid", self.GRID, "--k", "3", "--seed", "7",
                "--tol", "1e-9"]

    def run_cv(self, capsys, out):
        code, stdout, err = run(capsys, *self.args(out))
        assert code == 0, err
        return json.loads(stdout)

    def files(self, out):
        return {
            name: (out / name).read_bytes()
            for name in ("cv_matrix.csv", "cv_diagnostics.csv", "selection.json", "model.json")
        }

    def test_outputs_exist_and_selection_is_consistent(self, tmp_path, capsys):
        summary = self.run_cv(capsys, tmp_path)
        sel = read_json(tmp_path / "selection.json")
        assert sel["best_lambda"] == summary["best_lambda"]
        assert sel["best_lambda"] in sel["lambdas"]
        matrix_text = (tmp_path / "cv_matrix.csv").read_text().splitlines()
        assert len(matrix_text) == 1 + 2
        assert read_json(tmp_path / "model.json")["meta"]["lambda"] == sel["best_lambda"]

    def test_diagnostics_are_the_runs_cv_result(self, tmp_path, capsys, monkeypatch):
        # one row per (fold, lambda, gamma) cell of the run's CvResult
        results, select = [], selection.select
        monkeypatch.setattr(selection, "select",
                            lambda *a, **kw: results.append(select(*a, **kw)) or results[-1])
        self.run_cv(capsys, tmp_path)
        (res,) = results
        lines = (tmp_path / "cv_diagnostics.csv").read_text().splitlines()
        assert lines[0] == "fold,lambda_index,gamma_index,lambda,gamma,iterations,converged"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == res.iterations.size
        assert sum(int(row[5]) for row in rows) == res.iterations.sum()
        for row in rows:
            k, i, j = (int(v) for v in row[:3])
            assert float(row[3]) == res.grid.lambdas[i] and float(row[4]) == res.grid.gammas[j]
            assert int(row[5]) == res.iterations[k - 1, i, j]
            assert bool(int(row[6])) == res.converged[k - 1, i, j]

    def test_byte_identical_across_runs_and_threads(self, tmp_path):
        # each run is its own process: two reruns with one BLAS thread, and
        # one with two threads
        outs = [tmp_path / name for name in "abc"]
        for out, threads in zip(outs, (1, 1, 2)):
            run_cli_process(self.args(out), threads)
        fa, fb, fc = (self.files(out) for out in outs)
        assert fa == fb
        assert fa == fc


class TestRho:
    """The rho config key reaches the solver as SolverOptions.rho."""

    def expected(self, lam, gamma, tol):
        data = intmr.io.load_dataset(toy_blocks()).data
        return intmr.admm.fit(data, intmr.HyperParams(lam, gamma),
                              intmr.SolverOptions(tol=tol, rho=2.0))

    def assert_model_is(self, model, rep):
        # an integer in the config is written as the float the solver ran at
        assert type(model["meta"]["rho"]) is float and model["meta"]["rho"] == 2.0
        assert model["meta"]["iterations"] == rep.iterations
        for field in ("alpha", "B", "C"):
            for got, want in zip(model[field], getattr(rep.fit, field)):
                assert np.array_equal(np.asarray(got, dtype=float).reshape(want.shape), want)

    def test_fit(self, tmp_path, capsys):
        cfg = write_config(tmp_path, out=str(tmp_path), rho=2, lam=0.3, gamma=0.2)
        code, _, err = run(capsys, "fit", "--config", cfg, "--tol", "1e-9")
        assert code == 0, err
        self.assert_model_is(read_json(tmp_path / "model.json"), self.expected(0.3, 0.2, 1e-9))

    def test_cv(self, tmp_path, capsys):
        cfg = write_config(tmp_path, out=str(tmp_path), rho=2)
        code, out, err = run(capsys, "cv", "--config", cfg, "--grid", TestCv.GRID, "--k", "3",
                             "--tol", "1e-9")
        assert code == 0, err
        best = json.loads(out)
        self.assert_model_is(read_json(tmp_path / "model.json"),
                             self.expected(best["best_lambda"], best["best_gamma"], 1e-9))


class TestSimulate:
    ARGS = (
        "--scenario",
        "M2_n15_s5_rx01_ry01",
        "--replicates",
        "2",
        "--methods",
        "mr,lasso",
        "--grid",
        "3x2",
        "--k",
        "3",
        "--n-test",
        "40",
        "--tol",
        "1e-5",
        "--max-iter",
        "1500",
    )

    def run_sim(self, capsys, out):
        code, stdout, err = run(
            capsys, "simulate", *self.ARGS, "--out", str(out), "--seed", "5"
        )
        assert code == 0, err
        return json.loads(stdout)

    def test_row_counts(self, tmp_path, capsys):
        summary = self.run_sim(capsys, tmp_path)
        assert summary["records"] == 4 and summary["failures"] == 0
        lines = (tmp_path / "boxplot.csv").read_text().splitlines()
        # 2 methods x 2 replicates x 2 datasets x 2 responses
        assert len(lines) == 1 + 16
        cells = {}
        for line in lines[1:]:
            scenario, method, dataset, response, replicate, *_ = line.split(",")
            cells.setdefault((method, dataset, response), []).append(replicate)
        assert all(sorted(v) == ["0", "1"] for v in cells.values())
        study = read_json(tmp_path / "study.json")
        assert len(study["records"]) == 4
        assert study["summary"]["rates"]

    def test_byte_identical_rerun(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        self.run_sim(capsys, a)
        self.run_sim(capsys, b)
        for name in ("boxplot.csv", "study.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestReport:
    def test_tables_from_saved_model(self, tmp_path, capsys):
        cfg = write_config(tmp_path, out=str(tmp_path))
        code, _, _ = run(capsys, "fit", "--config", cfg, "--lambda", "0.2", "--gamma", "0.1")
        assert code == 0
        code, stdout, err = run(
            capsys,
            "report",
            "--model",
            str(tmp_path / "model.json"),
            "--config",
            cfg,
        )
        assert code == 0, err
        lines = (tmp_path / "coefficients.csv").read_text().splitlines()
        assert lines[0] == "dataset,block,covariate,response,estimate,selected"
        # dataset 1: 3 shared + 2 specific covariates; dataset 2: 3 shared
        assert len(lines) == 1 + (3 + 2) * 2 + 3 * 2
        assert any(line.startswith("1,shared,x1,1,") for line in lines)
        summary = read_json(tmp_path / "summary.json")
        assert summary["datasets"] == 2 and summary["shared_covariates"] == 3
        assert "kkt_residual_recomputed" in summary
        assert summary["objective_recomputed"] == pytest.approx(
            summary["meta"]["objective"], rel=1e-9
        )

    def test_report_does_not_standardize(self, tmp_path, capsys):
        # a constant covariate column cannot be standardized; report reads
        # the data only for its headers and the recomputed diagnostics, so
        # the config's standardize setting must not stop it
        rng = np.random.default_rng(3)
        tables = {"x": ("x1,x2", np.column_stack([np.ones(12), rng.standard_normal(12)])),
                  "y": ("resp1", rng.standard_normal((12, 1)))}
        for name, (header, table) in tables.items():
            np.savetxt(tmp_path / (name + ".csv"), table, delimiter=",", header=header,
                       comments="")
        blocks = [{"y": str(tmp_path / "y.csv"), "x": str(tmp_path / "x.csv")}]
        cfg = write_config(tmp_path, blocks=blocks, out=str(tmp_path), standardize="true")
        code, _, err = run(capsys, "fit", "--config", cfg, "--standardize", "false",
                           "--lambda", "0.1")
        assert code == 0, err
        code, _, err = run(capsys, "report", "--model", str(tmp_path / "model.json"),
                           "--config", cfg)
        assert code == 0, err
        assert "kkt_residual_recomputed" in read_json(tmp_path / "summary.json")

    def test_report_rejects_data_that_do_not_match_the_model(self, tmp_path, capsys):
        # a standardized fit skips the recomputed diagnostics, so report must
        # check the data's dimensions against the model on its own
        rng = np.random.default_rng(6)
        tables = {"y": ("resp1", 1), "x2": ("a,b", 2), "x3": ("a,b,c", 3)}
        for name, (header, cols) in tables.items():
            np.savetxt(tmp_path / (name + ".csv"), rng.standard_normal((12, cols)),
                       delimiter=",", header=header, comments="")
        y = str(tmp_path / "y.csv")
        cfg = write_config(tmp_path, "fit.json", blocks=[{"y": y, "x": str(tmp_path / "x2.csv")}],
                           out=str(tmp_path))
        code, _, err = run(capsys, "fit", "--config", cfg, "--standardize", "true",
                           "--lambda", "0.1")
        assert code == 0, err
        cfg = write_config(tmp_path, "report.json",
                           blocks=[{"y": y, "x": str(tmp_path / "x3.csv")}])
        out = tmp_path / "rep"
        code, _, err = run(capsys, "report", "--model", str(tmp_path / "model.json"),
                           "--config", cfg, "--out", str(out))
        assert code == 1
        assert json.loads(err)["message"] == (
            "fit dimensions (p=2, q=1) do not match data (p=3, q=1)")
        assert os.listdir(out) == []

    def test_covariate_names_round_trip(self, tmp_path, capsys):
        # covariate names are the x and z headers; one holding a comma, a
        # double quote or a line break must keep the other cells of its row
        # in their columns
        rng = np.random.default_rng(5)
        headers = {"y": "r1,r2", "x": '"Nitrospira, sp.",plain',
                   "z": '"say ""hi""","two\nlines","carriage\rreturn"'}
        for name, header in headers.items():
            cols = len(next(csv.reader([header])))
            np.savetxt(tmp_path / (name + ".csv"), rng.standard_normal((15, cols)),
                       delimiter=",", header=header, comments="")
        blocks = [{name: str(tmp_path / (name + ".csv")) for name in headers}]
        cfg = write_config(tmp_path, blocks=blocks, out=str(tmp_path))
        code, _, err = run(capsys, "fit", "--config", cfg, "--lambda", "0.05", "--gamma", "0.05")
        assert code == 0, err
        code, _, err = run(capsys, "report", "--model", str(tmp_path / "model.json"),
                           "--config", cfg)
        assert code == 0, err
        with open(tmp_path / "coefficients.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert all(len(row) == 6 for row in rows)
        names = ["Nitrospira, sp.", "plain", 'say "hi"', "two\nlines", "carriage\rreturn"]
        # each covariate has one row per response
        assert [row[2] for row in rows[1:]] == [name for name in names for _ in range(2)]

    def test_report_without_data(self, tmp_path, capsys):
        cfg = write_config(tmp_path, out=str(tmp_path))
        run(capsys, "fit", "--config", cfg, "--lambda", "0.2")
        out2 = tmp_path / "rep"
        code, _, err = run(
            capsys, "report", "--model", str(tmp_path / "model.json"), "--out", str(out2)
        )
        assert code == 0, err
        summary = read_json(out2 / "summary.json")
        assert "kkt_residual_recomputed" not in summary
        assert (out2 / "coefficients.csv").exists()


def declared_scripts():
    """The `[project.scripts]` table of pyproject.toml, read as plain text
    so that the check also runs on Python 3.10, which has no tomllib."""
    with open(os.path.join(ROOT, "pyproject.toml")) as fh:
        text = fh.read()
    table = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert table, "pyproject.toml has no [project.scripts] table"
    return dict(re.findall(r'^(\S+)\s*=\s*"([^"]*)"', table.group(1), re.M))


class TestEntryPoint:
    def test_console_script_round_trip(self, tmp_path):
        assert declared_scripts().get("intmr") == "intmr.cli:main"
        # The installed script if there is one, else `python -m intmr`: both
        # run intmr.cli:main in a process of its own.
        exe = shutil.which("intmr")
        cmd = [exe] if exe else [sys.executable, "-m", "intmr"]
        # Lead PYTHONPATH with the imported package's directory, so the child
        # runs the same source as the in-process tests.
        src = os.path.dirname(os.path.dirname(intmr.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        cfg = write_config(tmp_path, out=str(tmp_path))
        proc = subprocess.run(
            [*cmd, "fit", "--config", cfg, "--lambda", "0.5", "--gamma", "0.5"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["converged"] is True
        proc = subprocess.run(
            [*cmd, "fit", "--bad-flag"], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["error"] == "UsageError"
