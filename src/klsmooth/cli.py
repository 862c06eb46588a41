"""Experiment runner: config parsing, the full pipeline, and canned experiments.

Configs are flat ``key = value`` text with dotted section prefixes::

    problem.kind = power_law
    problem.n = 10000
    problem.eta = 2
    problem.beta = 2
    noise.rel_level = 0.01
    landweber.max_iters = 2000
    output.trace_path = trace.csv
    output.report_path = report.json

Every key has a documented default and the effective configuration is echoed
verbatim into the report, so a run is reproducible from its own output.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import re
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import estimator, operators, problems, validation
from .estimator import estimate_track, detect_discretization_saturation
from .landweber import LandweberConfig, landweber_run, write_trace_csv
from .operators import ConvergenceError, LinearOperator, svd
from .problems import ProblemSpec, add_noise
from .validation import (DEFAULT_MU_GRID, bound_curves, max_mu_spectral, rate_experiment,
                         verify_smoothness)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

# The canned replication experiments: each one's settings that differ from
# ExperimentConfig's defaults.
FIGURES = {
    "diag1": dict(problem_kind="power_law", problem_n=10000, problem_eta=1.0,
                  problem_beta=2.5),
    "diag2": dict(problem_kind="power_law", problem_n=10000, problem_eta=2.0,
                  problem_beta=2.0),
    # under-resolved on purpose: at 2000 iterations the well-posed regime
    # of the n^2-scaled saturation point is only reachable for n ~ 30
    "diag3": dict(problem_kind="power_law", problem_n=30, problem_eta=2.0,
                  problem_beta=1.0),
    "diag4": dict(problem_kind="power_law", problem_n=10000, problem_eta=3.0,
                  problem_beta=1.5),
    "expon": dict(problem_kind="exp_solution", problem_n=10000, problem_beta=1.5),
    "expon_op": dict(problem_kind="exp_operator", problem_n=400, problem_eta=2.0),
    "noise1": dict(problem_kind="power_law", problem_n=10000, problem_eta=2.0,
                   problem_beta=2.0, noise_rel_level=0.01, noise_seed=101),
    "noise2": dict(problem_kind="power_law", problem_n=10000, problem_eta=2.0,
                   problem_beta=2.0, noise_rel_level=0.001, noise_seed=102),
    "deriv2": dict(problem_kind="deriv2", problem_n=256),
    "gravity": dict(problem_kind="gravity", problem_n=256),
}
FIGURE_NAMES = tuple(FIGURES)

TABLE_MISFIT_THRESHOLD = 0.1


class ConfigError(ValueError):
    """Raised for unusable configuration files or values."""


@dataclass
class ExperimentConfig:
    """Defaulted, validated run configuration."""

    problem_kind: str = "power_law"
    problem_n: int = 10000
    problem_eta: float = 2.0
    problem_beta: float = 2.0
    problem_depth: float = problems.DEFAULT_GRAVITY_DEPTH
    problem_matrix_path: Optional[str] = None
    problem_y_path: Optional[str] = None
    problem_x_true_path: Optional[str] = None
    noise_rel_level: float = 0.0
    noise_seed: int = 0
    landweber_max_iters: int = LandweberConfig.max_iters
    estimator_k_min: int = estimator.DEFAULT_K_MIN
    estimator_w_min: int = estimator.DEFAULT_W_MIN
    estimator_eps_mu: float = estimator.DEFAULT_EPS_MU
    estimator_eps_c_rel: float = estimator.DEFAULT_EPS_C_REL
    validation_run_tikhonov: bool = False
    validation_levels: tuple = validation.DEFAULT_LEVELS
    validation_seeds: tuple = validation.DEFAULT_SEEDS
    validation_run_svd_check: bool = False
    output_trace_path: str = "trace.csv"
    output_report_path: str = "report.json"

    def effective_dict(self) -> dict:
        """The full configuration as dotted keys, defaults included."""
        out = {}
        for f in fields(self):
            section, _, rest = f.name.partition("_")
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            out[f"{section}.{rest}"] = value
        return out


_BOOL_VALUES = {"true": True, "yes": True, "1": True,
                "false": False, "no": False, "0": False}
_EXPECTED = {bool: "a boolean", int: "an integer", float: "a number"}
# a comment starts at a "#" that begins the line or follows whitespace, so
# that a value such as run#1_trace.csv keeps its "#"
_COMMENT = re.compile(r"(?:^|\s)#")


def _coerce(key: str, raw: str, template) -> object:
    """``raw`` as the type of the field's default ``template``: a list as one
    of its default's element type, and an empty list as the default."""
    if template is None or isinstance(template, str):
        return raw
    listed = isinstance(template, tuple)
    if listed and not raw.strip():
        return template
    kind = type(template[0] if listed else template)
    parse = (lambda v: _BOOL_VALUES[v.lower()]) if kind is bool else kind
    try:
        return tuple(parse(p.strip()) for p in raw.split(",")) if listed else parse(raw)
    except (KeyError, ValueError):
        expected = "a comma-separated list" if listed else _EXPECTED[kind]
        raise ConfigError(f"{key}: expected {expected}, got {raw!r}") from None


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse ``key = value`` lines into a validated ExperimentConfig."""
    defaults = ExperimentConfig()
    known = dict(zip(defaults.effective_dict(), (f.name for f in fields(defaults))))
    cfg = ExperimentConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = _COMMENT.split(line, 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        attr = known[key]
        setattr(cfg, attr, _coerce(key, raw, getattr(defaults, attr)))
    _validate(cfg)
    return cfg


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError:
        raise ConfigError(str(operators.not_utf8(path))) from None
    return parse_config_text(text)


def _validate(cfg: ExperimentConfig) -> None:
    for key, value in cfg.effective_dict().items():
        items = value if isinstance(value, list) else [value]
        if any(isinstance(v, float) and not math.isfinite(v) for v in items):
            raise ConfigError(f"{key} must be finite, got {value!r}")
    if cfg.problem_kind not in BUILDERS:
        raise ConfigError(f"problem.kind must be one of {tuple(BUILDERS)}")
    if cfg.problem_kind == "external" and not (cfg.problem_matrix_path and cfg.problem_y_path):
        raise ConfigError("external problems need problem.matrix_path and problem.y_path")
    if os.path.abspath(cfg.output_trace_path) == os.path.abspath(cfg.output_report_path):
        raise ConfigError("output.trace_path and output.report_path name the same file")
    if cfg.noise_rel_level < 0:
        raise ConfigError("noise.rel_level must be non-negative")
    if cfg.noise_seed < 0 or any(seed < 0 for seed in cfg.validation_seeds):
        raise ConfigError("noise.seed and validation.seeds must be non-negative")
    if cfg.landweber_max_iters < 1:
        raise ConfigError("landweber.max_iters must be >= 1")
    if cfg.estimator_k_min < 2:
        raise ConfigError("estimator.k_min must be >= 2")
    if cfg.landweber_max_iters < cfg.estimator_k_min:
        raise ConfigError(f"landweber.max_iters = {cfg.landweber_max_iters} is below "
                          f"estimator.k_min = {cfg.estimator_k_min}")
    if cfg.estimator_w_min < 2:
        raise ConfigError("estimator.w_min must be >= 2")
    if cfg.estimator_eps_mu < 0:
        raise ConfigError("estimator.eps_mu must be non-negative")
    if cfg.estimator_eps_c_rel < 0:
        raise ConfigError("estimator.eps_c_rel must be non-negative")
    if cfg.validation_run_tikhonov:
        try:
            validation.rate_inputs(cfg.validation_levels, cfg.validation_seeds)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


# problem.kind -> the generator call that builds that kind from a config
BUILDERS: dict[str, Callable[[ExperimentConfig], ProblemSpec]] = {
    "power_law": lambda cfg: problems.make_power_law(cfg.problem_n, cfg.problem_eta,
                                                     cfg.problem_beta),
    "exp_solution": lambda cfg: problems.make_exp_solution(cfg.problem_n, cfg.problem_beta),
    "exp_operator": lambda cfg: problems.make_exp_operator(cfg.problem_n, cfg.problem_eta),
    "deriv2": lambda cfg: problems.make_deriv2(cfg.problem_n),
    "gravity": lambda cfg: problems.make_gravity(cfg.problem_n, cfg.problem_depth),
    "external": lambda cfg: problems.load_external(cfg.problem_matrix_path, cfg.problem_y_path,
                                                   cfg.problem_x_true_path),
}


def build_problem(cfg: ExperimentConfig) -> ProblemSpec:
    return BUILDERS[cfg.problem_kind](cfg)


def run_pipeline(cfg: ExperimentConfig) -> dict:
    """Problem -> (noise) -> Landweber -> estimates -> diagnostics -> validation.

    Returns a result dict holding the trace, the estimate track, optional
    bound curves, and the JSON-ready report. :func:`_with_svd` attaches the
    operator's SVD to it, and Landweber, the Tikhonov rate experiment and the
    SVD check read that singular system in closed form; it is dropped when
    the run ends. Over the size limit, where the randomized block refuses
    the matrix, or if the SVD fails, the first two fall back to the matvec
    loop and CG, and the SVD check, if on, reports why.
    """
    p = build_problem(cfg)
    op, svd_note = _with_svd(p.operator)
    p = replace(p, operator=op)
    noisy = None
    data = p.y_clean
    if cfg.noise_rel_level > 0:
        noisy = add_noise(p, cfg.noise_rel_level, cfg.noise_seed)
        data = noisy.y_delta
    trace = landweber_run(p, data, LandweberConfig(max_iters=cfg.landweber_max_iters))
    track = estimate_track(trace, k_min=cfg.estimator_k_min, w_min=cfg.estimator_w_min,
                           eps_mu=cfg.estimator_eps_mu, eps_c_rel=cfg.estimator_eps_c_rel)

    upper = None
    if p.source_w is not None and p.mu_exact is not None and p.mu_exact > 0:
        upper = bound_curves(trace, p.mu_exact, float(np.linalg.norm(p.source_w)))[1]

    report = _report(
        p, cfg,
        noise=None if noisy is None else {"rel_level": noisy.rel_level,
                                          "delta_abs": noisy.delta_abs,
                                          "seed": noisy.seed},
        landweber={"step_beta": trace.step_beta, "iterations": len(trace),
                   "path": trace.path},
        estimate={
            "mu_hat": track.mu_hat,
            "c_hat": track.c_hat,
            "window": None if track.stable_window is None else list(track.stable_window),
            "verdict": track.verdict,
            "noise_takeover_k": track.noise_takeover_k,
            "saturation_k": detect_discretization_saturation(trace),
            "skipped_k": list(track.skipped_k),
        })

    if cfg.validation_run_tikhonov:
        report["tikhonov_rate"] = _tikhonov_section(p, track, cfg.validation_levels,
                                                    cfg.validation_seeds)
    if cfg.validation_run_svd_check:
        report["svd_check"] = _svd_section(p, svd_note)

    return {"trace": trace, "track": track, "upper": upper, "report": report}


def _report(p: ProblemSpec, cfg: ExperimentConfig, **sections) -> dict:
    """A report: the problem, the given sections, and the config echo."""
    return {"problem": {"label": p.label, "mu_exact": p.mu_exact},
            **sections, "config": cfg.effective_dict()}


def _tikhonov_section(p: ProblemSpec, track, levels, seeds) -> dict:
    if p.x_true is None:
        return {"note": "skipped: exact solution unknown"}
    if track.mu_hat is None or track.mu_hat <= 0:
        return {"note": "skipped: no stable-window estimate to test"}
    try:
        res = rate_experiment(p, track.mu_hat, levels, seeds)
    except ConvergenceError as exc:
        return {"note": f"failed: {exc}"}
    # vars, not asdict: asdict's list copies raised crosscheck's peak RSS by up to 8 MiB
    return {"mu_tested": track.mu_hat, **vars(res)}


def _with_svd(op: LinearOperator) -> tuple[LinearOperator, str]:
    """op with svd(op) attached as its singular system, for every run and
    every command; else op as it is and the note the SVD check reports: an
    operator over the size limit that the block refuses, or no convergence.
    A known singular system, or the block's, is attached at any size.
    """
    try:
        return replace(op, singular_system=svd(op)), ""
    except ConvergenceError as exc:
        return op, f"failed: {exc}"
    except ValueError as exc:   # svd() refuses a full factorization over SVD_SIZE_LIMIT
        return op, f"skipped: {exc}"


def _svd_section(p: ProblemSpec, note: str) -> dict:
    sd = p.operator.singular_system
    if sd is None:
        return {"note": note}
    try:
        verdict = verify_smoothness(sd, p.y_clean, DEFAULT_MU_GRID)
    except ValueError as exc:  # too few modes, or data on none of them
        return {"note": f"skipped: {exc}"}
    return {**vars(verdict), "mu_max_refined": max_mu_spectral(sd, p.y_clean),
            "retained_singular_values": int(sd.sigmas.size), "decomposition": sd.method}


def _finite_or_none(value):
    """``value`` with every non-finite float, however deeply nested, as None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_none(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_none(v) for v in value]
    return value


def _write_report(path, report: dict) -> None:
    """Write a report as strict JSON: non-finite numbers become null."""
    text = json.dumps(_finite_or_none(report), indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n")


def _write_outputs(result: dict, cfg: ExperimentConfig) -> None:
    write_trace_csv(cfg.output_trace_path, result["trace"], result["track"],
                    upper_bounds=result["upper"])
    _write_report(cfg.output_report_path, result["report"])


def _classify(exc: Exception) -> tuple[int, str, str]:
    """(exit status, kind, detail) of a failure; re-raises what is no failure.

    Invalid input gives 2, as do sizes too large to allocate; a numerical
    breakdown gives 3, and a file that cannot be read or written 4. This is
    the only place that turns an exception into an exit status.
    """
    # LinAlgError is a ValueError, so the numerical failures go first
    if isinstance(exc, (RuntimeError, ArithmeticError, np.linalg.LinAlgError)):
        return EXIT_NUMERIC, "numerical failure", str(exc)
    if isinstance(exc, ValueError):
        return EXIT_CONFIG, "config error", str(exc)
    if isinstance(exc, MemoryError):
        return EXIT_CONFIG, "config error", f"sizes too large to allocate: {exc}"
    if isinstance(exc, OSError):
        return EXIT_IO, "i/o failure", str(exc)
    raise exc


def _estimate(cfg: ExperimentConfig) -> None:
    _write_outputs(run_pipeline(cfg), cfg)


def figure_config(name: str) -> ExperimentConfig:
    """Canonical configuration of each replication experiment."""
    if name not in FIGURES:
        raise ConfigError(f"unknown figure {name!r}; available: {', '.join(FIGURE_NAMES)}")
    return replace(ExperimentConfig(), **FIGURES[name])


def _figure_config_in(name: str, out_dir) -> ExperimentConfig:
    """figure_config(name), writing <name>_trace.csv and <name>_report.json in out_dir."""
    out = Path(out_dir)
    cfg = replace(figure_config(name), output_trace_path=str(out / f"{name}_trace.csv"),
                  output_report_path=str(out / f"{name}_report.json"))
    out.mkdir(parents=True, exist_ok=True)
    return cfg


def _tikhonov_table(config_paths, out_path) -> None:
    """Predicted vs. observed convergence-rate table over several problems.

    One row per config, under its problem's label: a config that fails fills
    its own row, under its path when it does not parse. When no config's
    input files can be read, the first such failure ends the command, as it
    does for ``estimate``.
    """
    rows, unreadable = [], []
    for path in config_paths:
        label = str(path)
        try:
            cfg = replace(load_config(path), validation_run_tikhonov=True)
            label = _label(cfg)
            _validate(cfg)
            report = run_pipeline(cfg)["report"]
        except Exception as exc:
            rows.append((label, "", "", "", "", f"failed: {_classify(exc)[2]}"))
            if isinstance(exc, OSError):
                unreadable.append(exc)
            continue
        rate = report["tikhonov_rate"]
        if "note" in rate:
            # a row that tested nothing failed, whatever the section calls it
            rows.append((label, "", "", "", "", "failed: " + rate["note"].partition(": ")[2]))
            continue
        misfit = abs(rate["observed_exponent"] - rate["predicted_exponent"]) > TABLE_MISFIT_THRESHOLD
        rows.append((label, f"{rate['mu_tested']:.6g}", f"{rate['predicted_exponent']:.6g}",
                     f"{rate['observed_exponent']:.6g}", "yes" if misfit else "no", ""))
    if unreadable and len(unreadable) == len(rows):
        raise unreadable[0]
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("problem", "mu_hat", "predicted_rate_exponent",
                         "observed_rate_exponent", "misfit", "note"))
        writer.writerows(rows)


def _label(cfg: ExperimentConfig) -> str:
    """The label the config's problem carries once built; an unknown kind is
    its own label."""
    template = problems.LABELS.get(cfg.problem_kind)
    if template is None:
        return cfg.problem_kind
    return template.format(n=cfg.problem_n, eta=cfg.problem_eta, beta=cfg.problem_beta,
                           depth=cfg.problem_depth, matrix_path=cfg.problem_matrix_path)


def _svd_check(cfg: ExperimentConfig) -> None:
    """Spectral summability check only; writes the report."""
    p = build_problem(cfg)
    op, note = _with_svd(p.operator)
    p = replace(p, operator=op)
    _write_report(cfg.output_report_path, _report(p, cfg, svd_check=_svd_section(p, note)))


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    if args.seed is not None:
        cfg.noise_seed = args.seed
    if args.iters is not None:
        cfg.landweber_max_iters = args.iters
    if args.noise is not None:
        cfg.noise_rel_level = args.noise
    _validate(cfg)
    return cfg


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parsing leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="klsmooth",
        description="Estimate the source-condition smoothness exponent of a "
                    "linear ill-posed problem from Landweber iteration logs.")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="run one configured experiment")
    est.add_argument("config")
    fig = sub.add_parser("figures", help="run a canned replication experiment")
    fig.add_argument("name", choices=FIGURE_NAMES)
    fig.add_argument("out_dir")
    tab = sub.add_parser("tikhonov-table", help="rate cross-check table over configs")
    tab.add_argument("configs", nargs="+")
    tab.add_argument("--out", default="tikhonov_table.csv")
    chk = sub.add_parser("svd-check", help="spectral summability check only")
    chk.add_argument("config")
    est.add_argument("--seed", type=int, default=None, help="override noise.seed")
    est.add_argument("--iters", type=int, default=None, help="override landweber.max_iters")
    est.add_argument("--noise", type=float, default=None, help="override noise.rel_level")
    return parser


def main(argv=None) -> int:
    """Run one command; returns its exit status, printing any failure's message.

    This is the one runner: the scripts and the benchmark call it too.
    """
    args = _parser().parse_args(argv)
    commands = {
        "estimate": lambda: _estimate(_apply_overrides(load_config(args.config), args)),
        "figures": lambda: _estimate(_figure_config_in(args.name, args.out_dir)),
        "tikhonov-table": lambda: _tikhonov_table(args.configs, args.out),
        "svd-check": lambda: _svd_check(load_config(args.config)),
    }
    try:
        commands[args.command]()
    except Exception as exc:
        status, kind, detail = _classify(exc)
        print(f"{kind}: {detail}", file=sys.stderr)
        return status
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
