"""Command line interface.

Subcommands: fit (single penalty pair), cv (grid search + refit), simulate
(Monte Carlo study), report (coefficient tables from a saved model).  Each
subcommand takes only the flags it reads, while a JSON config file can carry
any flag's value plus the dataset file paths, so one file serves fit, cv and
report; explicit flags win over config values.  Exit codes: 0 success, 2
usage or config problems, 1 runtime failures; errors are emitted as a JSON
object on stderr.
"""

import argparse
import json
import math
import os
import re
import sys

from . import admm, io, selection, sim
from .admm import SolverOptions
from .model import HyperParams, _check_fit_matches, objective

__all__ = ["main", "cli", "UsageError"]


_STANDARDIZE = ("true", "false")
_METRIC_MODES = ("paper", "conventional")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# The flags shared by several subcommands; each subcommand takes the ones
# it reads (see build_parser), while the config keys stay shared.
_FLAGS = {
    "config": dict(help="JSON config file; flags override its values"),
    "out": dict(help="output directory (default: current directory)"),
    "seed": dict(type=int, help="fold and simulation seed (default 0)"),
    "k": dict(type=int, help="number of CV folds (default 5)"),
    "tol": dict(type=float, help="solver convergence tolerance (default %g)" % SolverOptions.tol),
    "max-iter": dict(type=int, help="solver iteration cap (default %d)" % SolverOptions.max_iter),
    "standardize": dict(choices=_STANDARDIZE, help="center and scale covariate columns "
                        "before fitting (default false)"),
    "keep-standardized": dict(action="store_true", default=None, help="report coefficients "
                              "on the standardized scale instead of the original"),
    "metric-mode": dict(choices=_METRIC_MODES,
                        help="selection-rate denominator convention (default paper)"),
}


def _add_flags(p, names):
    for name in ("config", "out") + names:
        p.add_argument("--" + name, **_FLAGS[name])


def build_parser():
    parser = _Parser(prog="intmr", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")
    data_flags = ("tol", "max-iter", "standardize", "keep-standardized")
    p_fit = sub.add_parser("fit", help="fit at one (lambda, gamma)")
    p_fit.add_argument("--lambda", dest="lam", type=float, help="group penalty (default 0)")
    p_fit.add_argument("--gamma", type=float, help="entrywise penalty (default 0)")
    _add_flags(p_fit, data_flags)
    p_cv = sub.add_parser("cv", help="cross-validated grid search and refit")
    p_cv.add_argument(
        "--grid",
        help="grid spec: NxM for a data-driven grid with N lambdas and M gammas, "
        "or explicit 'l1,l2,...;g1,g2,...' (default 15x15)",
    )
    _add_flags(p_cv, ("seed", "k") + data_flags)
    p_sim = sub.add_parser("simulate", help="run the Monte Carlo study")
    p_sim.add_argument(
        "--scenario",
        action="append",
        help="scenario name like M2_n50_s5_rx01_ry01; repeatable",
    )
    p_sim.add_argument("--replicates", type=int, help="replicates per scenario")
    p_sim.add_argument("--methods", help="comma list from mr,ur,mlasso,lasso")
    p_sim.add_argument("--grid", help="grid spec NxM for the study fits (default 15x15)")
    p_sim.add_argument("--n-test", type=int, help="test rows per dataset (default 1000)")
    _add_flags(p_sim, ("seed", "k", "tol", "max-iter", "metric-mode"))
    p_rep = sub.add_parser("report", help="coefficient tables from a saved model")
    p_rep.add_argument("--model", help="model JSON written by fit or cv")
    _add_flags(p_rep, ())
    return parser


_DEFAULTS = {
    "out": ".",
    "seed": 0,
    "k": 5,
    "tol": SolverOptions.tol,
    "max_iter": SolverOptions.max_iter,
    "standardize": "false",
    "keep_standardized": False,
    "metric_mode": "paper",
    "lam": 0.0,
    "gamma": 0.0,
    "grid": "15x15",
    "replicates": None,
    "methods": "mr,ur,mlasso,lasso",
    "n_test": 1000,
    "scenario": None,
    "model": None,
    "blocks": None,
    "rho": SolverOptions.rho,
}

# Types a config value may take where its default does not tell.
_CONFIG_TYPES = {
    "standardize": (bool, str),
    "replicates": (int,),
    "scenario": (str, list),
    "model": (str,),
    "blocks": (list,),
}
_CONFIG_CHOICES = {
    "standardize": (True, False) + _STANDARDIZE,
    "metric_mode": _METRIC_MODES,
}


def _check_config_value(config, key, val):
    """Reject a config value of the wrong JSON type, or outside the choices
    its flag allows.  A number refuses true/false, an integer refuses 3.5,
    and a key whose default is None also takes null."""
    default = _DEFAULTS[key]
    if val is None and default is None:
        return
    if key in _CONFIG_TYPES:
        want = _CONFIG_TYPES[key]
    else:
        want = (int, float) if isinstance(default, float) else (type(default),)
    if key in _CONFIG_CHOICES and val not in _CONFIG_CHOICES[key]:
        raise UsageError(
            "config file %s: %r must be one of %s, got %s"
            % (config, key, ", ".join(map(json.dumps, _CONFIG_CHOICES[key])), json.dumps(val))
        )
    if isinstance(val, want) and (bool in want or not isinstance(val, bool)):
        if key == "blocks":
            _check_blocks(config, val)
        if key == "scenario" and isinstance(val, list):
            _check_scenarios(config, val)
        return
    raise UsageError(
        "config file %s: %r must be %s, got %s"
        % (config, key, " or ".join(t.__name__ for t in want), json.dumps(val))
    )


def _check_blocks(config, blocks):
    """Each entry names its y and x files, and its z file or none: no other
    value may reach open(), which takes an int as a file descriptor."""
    for i, b in enumerate(blocks):
        if not (isinstance(b, dict) and isinstance(b.get("y"), str)
                and isinstance(b.get("x"), str) and isinstance(b.get("z"), (str, type(None)))):
            raise UsageError('config file %s: blocks[%d] must be {"y": path, "x": path[, "z": '
                             'path]}, got %s' % (config, i, json.dumps(b)))


def _check_scenarios(config, scenarios):
    """Each entry of a scenario list is a scenario name."""
    for i, s in enumerate(scenarios):
        if not isinstance(s, str):
            raise UsageError("config file %s: scenario[%d] must be a scenario name, got %s"
                             % (config, i, json.dumps(s)))


def _settings(args):
    """Defaults, overlaid by the config file, overlaid by explicit flags."""
    merged = dict(_DEFAULTS)
    config = getattr(args, "config", None)
    if config:
        if not os.path.exists(config):
            raise UsageError("config file %s does not exist" % config)
        try:
            with open(config) as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError("config file %s is not valid JSON: %s" % (config, exc))
        if not isinstance(doc, dict):
            raise UsageError("config file %s must hold a JSON object" % config)
        for key, val in doc.items():
            norm = key.replace("-", "_")
            if norm not in merged:
                raise UsageError("config file %s: unknown key %r" % (config, key))
            _check_config_value(config, norm, val)
            merged[norm] = val
    for key, val in vars(args).items():
        if key in ("command", "config"):
            continue
        if val is not None:
            merged[key] = val
    if isinstance(merged["standardize"], str):
        merged["standardize"] = merged["standardize"] == "true"
    if merged["k"] < 2:
        raise UsageError("--k must be at least 2")
    if merged["seed"] < 0:
        raise UsageError("--seed must be nonnegative")
    if merged["replicates"] is not None and merged["replicates"] < 1:
        raise UsageError("--replicates must be at least 1")
    if not (merged["tol"] > 0 and math.isfinite(merged["tol"])):
        raise UsageError("--tol must be positive and finite")
    if merged["max_iter"] < 1:
        raise UsageError("--max-iter must be at least 1")
    if not (0 <= merged["lam"] < math.inf and 0 <= merged["gamma"] < math.inf):
        raise UsageError("--lambda and --gamma must be nonnegative and finite")
    if not 0 < merged["rho"] < math.inf:
        raise UsageError("rho must be positive and finite")
    return merged


def _grid_size(spec):
    """(N, M) of an NxM grid spec, None for any other spec."""
    m = re.fullmatch(r"(\d+)x(\d+)", spec)
    if m is None:
        return None
    size = int(m.group(1)), int(m.group(2))
    if min(size) < 1:
        raise UsageError("grid %r needs at least one lambda and one gamma" % spec)
    return size


def _parse_grid_spec(spec, data):
    spec = str(spec)
    size = _grid_size(spec)
    if size:
        return selection.default_grid(data, *size)
    if ";" in spec:
        try:
            lam_part, gam_part = spec.split(";")
            lambdas = [float(v) for v in lam_part.split(",") if v]
            gammas = [float(v) for v in gam_part.split(",") if v]
            return selection.CvGrid(lambdas=tuple(lambdas), gammas=tuple(gammas))
        except ValueError as exc:
            raise UsageError("bad grid spec %r: %s" % (spec, exc))
    raise UsageError("bad grid spec %r (want NxM or 'l1,l2;g1,g2')" % spec)


def _load_blocks(cfg):
    blocks = cfg.get("blocks")
    if not blocks:
        raise UsageError("no datasets: config must list blocks [{y, x[, z]}, ...]")
    loaded = io.load_dataset(blocks)
    if cfg["standardize"]:
        data, record = io.standardize(loaded.data, loaded.x_header, loaded.z_headers)
    else:
        data, record = loaded.data, None
    return loaded, data, record


def _options(cfg):
    return SolverOptions(tol=cfg["tol"], max_iter=cfg["max_iter"], rho=cfg["rho"])


def _meta(hp, opts, rep, standardized):
    return {
        "lambda": hp.lam,
        "gamma": hp.gamma,
        "rho": opts.rho,
        "iterations": rep.iterations,
        "converged": rep.converged,
        "kkt_residual": rep.kkt_residual,
        "consensus_gap": rep.consensus_gap,
        "objective": rep.objective,
        "standardized_fit": standardized,
    }


def _final_fit(rep, record, keep_standardized):
    if record is not None and not keep_standardized:
        return record.unscale_fit(rep.fit)
    return rep.fit


def _cmd_fit(cfg):
    loaded, data, record = _load_blocks(cfg)
    hp = HyperParams(lam=cfg["lam"], gamma=cfg["gamma"])
    opts = _options(cfg)
    rep = admm.fit(data, hp, opts=opts)
    out_fit = _final_fit(rep, record, cfg["keep_standardized"])
    path = os.path.join(cfg["out"], "model.json")
    io.save_fit(out_fit, path, meta=_meta(hp, opts, rep, record is not None))
    return {"model": path, "iterations": rep.iterations, "converged": rep.converged}


def _cmd_cv(cfg):
    loaded, data, record = _load_blocks(cfg)
    n_min = min(b.n for b in data)
    if cfg["k"] > n_min:
        raise UsageError("--k %d exceeds the %d rows of the smallest dataset" % (cfg["k"], n_min))
    grid = _parse_grid_spec(cfg["grid"], data)
    opts = _options(cfg)
    result = selection.select(data, grid, K=cfg["k"], seed=cfg["seed"], opts=opts)
    out = cfg["out"]
    io.write_cv_matrix_csv(result, os.path.join(out, "cv_matrix.csv"))
    io.write_cv_diagnostics_csv(result, os.path.join(out, "cv_diagnostics.csv"))
    hp = HyperParams(lam=result.best_lambda, gamma=result.best_gamma)
    io.dump_json(
        {
            "best_lambda": result.best_lambda,
            "best_gamma": result.best_gamma,
            "cv_min": float(result.cv_matrix.min()),
            "lambdas": list(result.grid.lambdas),
            "gammas": list(result.grid.gammas),
            "k": cfg["k"],
            "seed": cfg["seed"],
        },
        os.path.join(out, "selection.json"),
    )
    out_fit = _final_fit(result.refit, record, cfg["keep_standardized"])
    io.save_fit(
        out_fit,
        os.path.join(out, "model.json"),
        meta=_meta(hp, opts, result.refit, record is not None),
    )
    return {
        "best_lambda": result.best_lambda,
        "best_gamma": result.best_gamma,
        "model": os.path.join(out, "model.json"),
    }


def _cmd_simulate(cfg):
    scenarios = cfg.get("scenario")
    if not scenarios:
        raise UsageError("simulate needs at least one --scenario")
    if isinstance(scenarios, str):
        scenarios = [scenarios]
    methods = [m.strip() for m in str(cfg["methods"]).split(",") if m.strip()]
    if not methods or any(m.lower() not in sim.METHODS for m in methods):
        raise UsageError(
            "--methods must list one or more of %s, got %r"
            % (",".join(sim.METHODS), cfg["methods"])
        )
    grid_size = _grid_size(str(cfg["grid"]))
    if grid_size is None:
        raise UsageError("simulate --grid must be NxM, got %r" % cfg["grid"])
    try:
        configs = [
            sim.parse_scenario(s, seed=cfg["seed"], n_test=cfg["n_test"])
            for s in scenarios
        ]
    except ValueError as exc:
        raise UsageError(str(exc))
    for config in configs:
        if cfg["k"] > config.n:
            raise UsageError(
                "--k %d exceeds the %d rows per dataset of scenario %s"
                % (cfg["k"], config.n, sim.scenario_name(config))
            )
    opts = _options(cfg)
    metrics = sim.run_study(
        configs,
        methods=methods,
        replicates=cfg["replicates"],
        K=cfg["k"],
        opts=opts,
        grid_size=grid_size,
        metric_mode=cfg["metric_mode"],
    )
    out = cfg["out"]
    io.write_boxplot_csv(metrics, os.path.join(out, "boxplot.csv"))
    doc = {
        "records": [
            {
                "scenario": r.scenario,
                "method": r.method,
                "replicate": r.replicate,
                "mse": r.mse.tolist(),
                "fpr": r.fpr,
                "fnr": r.fnr,
            }
            for r in sorted(
                metrics.records, key=lambda r: (r.scenario, r.method, r.replicate)
            )
        ],
        "failures": [list(f) for f in metrics.failures],
        "summary": metrics.summary(),
    }
    io.dump_json(doc, os.path.join(out, "study.json"))
    return {
        "records": len(metrics.records),
        "failures": len(metrics.failures),
        "study": os.path.join(out, "study.json"),
    }


def _cmd_report(cfg):
    path = cfg.get("model")
    if not path:
        raise UsageError("report needs --model")
    fit, meta = io.load_fit(path)
    meta = meta or {}
    out = cfg["out"]
    x_header = z_headers = None
    recomputed = {}
    if cfg.get("blocks"):
        # report reads only the raw data and headers, so it never standardizes;
        # data that do not match the model stop it before it writes a file
        loaded = io.load_dataset(cfg["blocks"])
        _check_fit_matches(loaded.data, fit)
        x_header, z_headers = loaded.x_header, loaded.z_headers
        if "lambda" in meta and not meta.get("standardized_fit"):
            # neither value depends on the solver's step parameter rho
            hp = HyperParams(lam=meta["lambda"], gamma=meta["gamma"])
            recomputed = {
                "kkt_residual_recomputed": admm.kkt_residual(loaded.data, fit, hp),
                "objective_recomputed": objective(loaded.data, fit, hp),
            }
    io.write_coefficient_csv(
        fit, os.path.join(out, "coefficients.csv"), x_header, z_headers
    )
    summary = {
        "datasets": fit.M,
        "shared_covariates": fit.p,
        "responses": fit.q,
        "selected_shared": int(fit.support_B.any(axis=1).sum()),
        "selected_specific": [int(s.any(axis=1).sum()) for s in fit.support_C],
        "meta": meta,
    }
    summary.update(recomputed)
    io.dump_json(summary, os.path.join(out, "summary.json"))
    return {"coefficients": os.path.join(out, "coefficients.csv")}


def cli(argv=None):
    """Run the CLI; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("missing subcommand (fit, cv, simulate, report)")
        cfg = _settings(args)
        os.makedirs(cfg["out"], exist_ok=True)
        handler = {
            "fit": _cmd_fit,
            "cv": _cmd_cv,
            "simulate": _cmd_simulate,
            "report": _cmd_report,
        }[args.command]
        summary = handler(cfg)
        print(json.dumps(summary, sort_keys=True))
        return 0
    except UsageError as exc:
        sys.stderr.write(
            json.dumps({"error": "UsageError", "message": str(exc)}) + "\n"
        )
        return 2
    except Exception as exc:  # noqa: BLE001 - boundary: report, do not crash
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 1


def main(argv=None):
    sys.exit(cli(argv))


if __name__ == "__main__":
    main()
