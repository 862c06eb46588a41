"""The benchmark's workloads: inputs made from a seed, experiments, checks.

Each workload is a closed loop run by one client: its experiments run one
after another in this process. ``setup()`` makes every input the program
receives: config files, MatrixMarket and vector files under the work
directory, or, for the library-call workload, the problem itself. The
experiments then only read those inputs. Each experiment's
check raises ``CheckFailed`` on a wrong output and returns
``|mu_hat - mu_exact|`` for experiments whose exponent has a closed form.

The expected values are instance attributes so the self-test can plant a
wrong one and see the failure counted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from klsmooth import cli, estimator, landweber, operators, problems
from klsmooth.cli import ExperimentConfig
from klsmooth.estimator import (SATURATION_BAND, VERDICT_NOISE, VERDICT_STABLE,
                                VERDICT_UNSTABLE)
from klsmooth.landweber import LandweberConfig

MU_TOL = 0.05                   # |mu_hat - mu_exact| allowed for closed-form problems
MISFIT_THRESHOLD = cli.TABLE_MISFIT_THRESHOLD


class CheckFailed(AssertionError):
    """An experiment produced a wrong or unreadable output."""


@dataclass
class Experiment:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[float]]
    outputs: tuple = ()          # files removed before each run


def derived_seeds(seed: int, salt: int, count: int) -> list[int]:
    """``count`` reproducible seeds for one use of the workload seed."""
    return np.random.default_rng([seed, salt]).integers(0, 2 ** 31, count).tolist()


def mu_closed_form(eta: float, beta: float) -> float:
    return (2.0 * eta - 1.0) / (4.0 * beta)


def write_config(path: Path, cfg: ExperimentConfig) -> None:
    """Write ``cfg`` as a ``key = value`` config file, the way a user would."""
    lines = []
    for key, value in cfg.effective_dict().items():
        if value is None or value == []:
            continue
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, list):
            value = ", ".join(repr(v) for v in value)
        lines.append(f"{key} = {value}")
    path.write_text("\n".join(lines) + "\n")


def _reject_constant(token: str):
    raise CheckFailed(f"report.json holds the non-JSON constant {token}")


def read_report(path: Path) -> dict:
    """Parse a report as strict JSON: NaN and Infinity are rejected."""
    try:
        return json.loads(Path(path).read_text(), parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"unreadable report {path}: {exc}") from exc


def check_cli_run(code, cfg: ExperimentConfig) -> dict:
    """Exit code 0, a strict-JSON report, and one trace row per iteration."""
    if code != cli.EXIT_OK:
        raise CheckFailed(f"exit code {code}")
    report = read_report(Path(cfg.output_report_path))
    with open(cfg.output_trace_path) as fh:
        rows = sum(1 for _ in fh) - 1
    if rows != report["landweber"]["iterations"]:
        raise CheckFailed(f"trace has {rows} rows, report says "
                          f"{report['landweber']['iterations']} iterations")
    return report


def _misfit(report: dict) -> float:
    rate = report.get("tikhonov_rate", {})
    if "observed_exponent" not in rate:
        raise CheckFailed(f"no Tikhonov rate result: {rate.get('note')}")
    return abs(rate["observed_exponent"] - rate["predicted_exponent"])


def _estimate_run(cfg_path: Path) -> Callable[[], int]:
    # cli.main is looked up at call time so a traced run sees its wrapper
    return lambda: cli.main(["estimate", str(cfg_path)])


class Workload:
    name = ""
    reference = ""          # kernel in reference.py that shares the workload's bottleneck

    def __init__(self, work_dir: Path, seed: int):
        self.work_dir = Path(work_dir)
        self.seed = seed

    def setup(self) -> None:
        """Make the inputs the experiments read."""

    def warm_up(self) -> None:
        """Run the workload's code paths once at toy size, unchecked."""
        cfg = ExperimentConfig(problem_kind="deriv2", problem_n=32, landweber_max_iters=100,
                               noise_rel_level=0.01, validation_run_tikhonov=True,
                               validation_run_svd_check=True,
                               output_trace_path=str(self.work_dir / "warm_trace.csv"),
                               output_report_path=str(self.work_dir / "warm_report.json"))
        path = self.work_dir / "warm.cfg"
        write_config(path, cfg)
        if cli.main(["estimate", str(path)]) != cli.EXIT_OK:
            raise RuntimeError("warm-up run failed")

    def experiments(self) -> list[Experiment]:
        raise NotImplementedError

    def _cli_experiment(self, name: str, cfg: ExperimentConfig, check) -> Experiment:
        cfg = replace(cfg, output_trace_path=str(self.work_dir / f"{name}_trace.csv"),
                      output_report_path=str(self.work_dir / f"{name}_report.json"))
        path = self.work_dir / f"{name}.cfg"
        write_config(path, cfg)
        return Experiment(name=name, run=_estimate_run(path),
                          check=lambda code: check(check_cli_run(code, cfg)),
                          outputs=(Path(cfg.output_trace_path), Path(cfg.output_report_path)))


class Figures(Workload):
    """The ten canned replication configs, run as ``klsmooth estimate``.

    The canned runs are already short (K = 2000), so ``tiny`` changes nothing.
    """

    name = "figures"
    reference = "interpreter"

    def __init__(self, work_dir, seed, tiny=False):
        super().__init__(work_dir, seed)
        self.verdicts = {
            "diag1": VERDICT_STABLE, "diag2": VERDICT_STABLE,
            "diag3": VERDICT_UNSTABLE, "diag4": VERDICT_STABLE,
            "expon": VERDICT_UNSTABLE, "expon_op": VERDICT_UNSTABLE,
            "noise1": VERDICT_NOISE, "noise2": VERDICT_NOISE,
            "deriv2": VERDICT_STABLE, "gravity": VERDICT_STABLE,
        }
        self.closed_form = ("diag1", "diag2", "diag4")
        self.saturating = ("diag3",)
        self._experiments: list[Experiment] = []

    def setup(self) -> None:
        noise_seeds = iter(derived_seeds(self.seed, 1, 2))
        self._experiments = []
        for name in cli.FIGURE_NAMES:
            cfg = cli.figure_config(name)
            if cfg.noise_rel_level > 0:
                cfg.noise_seed = next(noise_seeds)
            self._experiments.append(self._cli_experiment(
                name, cfg, lambda report, name=name, cfg=cfg: self._check(name, cfg, report)))

    def _check(self, name: str, cfg: ExperimentConfig, report: dict) -> Optional[float]:
        est = report["estimate"]
        if est["verdict"] != self.verdicts[name]:
            raise CheckFailed(f"verdict {est['verdict']!r}, expected {self.verdicts[name]!r}")
        if name in self.saturating and est["saturation_k"] is None:
            raise CheckFailed("no saturation onset reported")
        if name not in self.closed_form:
            return None
        if est["mu_hat"] is None:
            raise CheckFailed("no mu_hat")
        err = abs(est["mu_hat"] - mu_closed_form(cfg.problem_eta, cfg.problem_beta))
        if err > MU_TOL:
            raise CheckFailed(f"|mu_hat - mu_exact| = {err:.4g} > {MU_TOL}")
        return err

    def experiments(self) -> list[Experiment]:
        return self._experiments


class Crosscheck(Workload):
    """Validation-heavy ``klsmooth estimate`` runs with Tikhonov and SVD checks on.

    The diagonal problem runs as ``estimate`` with the SVD check on rather
    than as ``svd-check``: ``mu_max_refined`` matches its closed form to
    rounding (~1e-15), which no relative bound can guard, while the
    Landweber ``mu_hat`` of the same run gives ``mu_abs_err`` a real size.
    """

    name = "crosscheck"
    reference = "dense"
    DIAG_ETA, DIAG_BETA = 2.0, 2.0

    def __init__(self, work_dir, seed, tiny=False):
        super().__init__(work_dir, seed)
        self.dense_n, self.external_n, self.diag_n = (256, 64, 300) if tiny else (1024, 256, 3000)
        self.misfit = {"deriv2": False, "gravity": True}
        self.mu_exact = mu_closed_form(self.DIAG_ETA, self.DIAG_BETA)
        self.refined_tol = 1e-6
        self.external_mu = None
        self._experiments: list[Experiment] = []

    def setup(self) -> None:
        check_on = dict(validation_run_tikhonov=True, validation_run_svd_check=True,
                        validation_seeds=tuple(derived_seeds(self.seed, 2, 5)))
        self._experiments = []
        for kind in ("deriv2", "gravity"):
            cfg = ExperimentConfig(problem_kind=kind, problem_n=self.dense_n, **check_on)
            self._experiments.append(self._cli_experiment(
                f"{kind}-n{self.dense_n}", cfg,
                lambda report, kind=kind: self._check_misfit(kind, report)))

        p = problems.make_gravity(self.external_n)
        paths = {k: self.work_dir / f"external_{k}" for k in ("a.mtx", "y.txt", "x.txt")}
        operators.write_matrix_market(paths["a.mtx"], p.operator.matrix)
        operators.write_vector(paths["y.txt"], p.y_clean)
        operators.write_vector(paths["x.txt"], p.x_true)
        reference = cli.run_pipeline(ExperimentConfig(problem_kind="gravity",
                                                      problem_n=self.external_n))
        self.external_mu = reference["track"].mu_hat
        cfg = ExperimentConfig(problem_kind="external", problem_matrix_path=str(paths["a.mtx"]),
                               problem_y_path=str(paths["y.txt"]),
                               problem_x_true_path=str(paths["x.txt"]), **check_on)
        self._experiments.append(self._cli_experiment(
            f"external-gravity-n{self.external_n}", cfg, self._check_external))

        cfg = ExperimentConfig(problem_kind="power_law", problem_n=self.diag_n,
                               problem_eta=self.DIAG_ETA, problem_beta=self.DIAG_BETA, **check_on)
        self._experiments.append(self._cli_experiment(
            f"power-law-n{self.diag_n}", cfg, self._check_diagonal))

    def _check_misfit(self, kind: str, report: dict) -> None:
        flagged = _misfit(report) > MISFIT_THRESHOLD
        if flagged != self.misfit[kind]:
            raise CheckFailed(f"misfit {_misfit(report):.4f}: flagged={flagged}, "
                              f"expected {self.misfit[kind]}")
        if "mu_max_refined" not in report.get("svd_check", {}):
            raise CheckFailed("no spectral check in the report")

    def _check_external(self, report: dict) -> None:
        est = report["estimate"]
        if est["verdict"] != VERDICT_STABLE:
            raise CheckFailed(f"verdict {est['verdict']!r}, expected {VERDICT_STABLE!r}")
        if est["mu_hat"] is None or not math.isclose(est["mu_hat"], self.external_mu,
                                                     rel_tol=0, abs_tol=1e-9):
            raise CheckFailed(f"ingested gravity gives mu_hat {est['mu_hat']}, "
                              f"built-in gives {self.external_mu}")
        _misfit(report)

    def _check_diagonal(self, report: dict) -> float:
        refined = report["svd_check"]["mu_max_refined"]
        if refined is None or abs(refined - self.mu_exact) > self.refined_tol:
            raise CheckFailed(f"mu_max_refined {refined}, expected {self.mu_exact} "
                              f"within {self.refined_tol}")
        mu_hat = report["estimate"]["mu_hat"]
        if mu_hat is None:
            raise CheckFailed("no mu_hat")
        err = max(abs(mu_hat - self.mu_exact), abs(refined - self.mu_exact))
        if err > MU_TOL:
            raise CheckFailed(f"|mu_hat - mu_exact| = {err:.4g} > {MU_TOL}")
        return err

    def experiments(self) -> list[Experiment]:
        return self._experiments


class Saturation(Workload):
    """Criterion 09's under-resolved power-law problem, run as library calls.

    ``landweber_run``, ``estimate_track`` and
    ``detect_discretization_saturation`` are called directly and nothing is
    written to disk, so the Landweber loop and the stable-window search carry
    the time. With sigma_i = 1/i the well-posed regime starts near k = n^2,
    so K = 1.75 n^2 keeps the onset inside the run. The problem is
    noise-free, so its inputs do not depend on the seed.
    """

    name = "saturation"
    reference = "diagonal"
    ETA, BETA = 2.0, 1.0

    def __init__(self, work_dir, seed, tiny=False):
        super().__init__(work_dir, seed)
        self.n = 60 if tiny else 200
        self.iters = int(1.75 * self.n ** 2)
        self.mu_exact = mu_closed_form(self.ETA, self.BETA)
        self.slope_band = SATURATION_BAND
        self._problem = None

    def setup(self) -> None:
        self._problem = problems.make_power_law(self.n, self.ETA, self.BETA)

    def warm_up(self) -> None:
        p = problems.make_power_law(20, self.ETA, self.BETA)
        trace = landweber.landweber_run(p, p.y_clean, LandweberConfig(max_iters=800))
        estimator.estimate_track(trace)
        estimator.detect_discretization_saturation(trace)

    def _run(self):
        # looked up at call time so a traced run sees the wrappers
        p = self._problem
        trace = landweber.landweber_run(p, p.y_clean, LandweberConfig(max_iters=self.iters))
        return (trace, estimator.estimate_track(trace),
                estimator.detect_discretization_saturation(trace))

    def _check(self, out) -> float:
        trace, track, onset = out
        if len(trace) != self.iters:
            raise CheckFailed(f"{len(trace)} iterations, expected {self.iters}")
        if onset is None:
            raise CheckFailed("no saturation onset detected")
        sel = slice(onset, len(trace))
        slope = float(np.polyfit(np.log(trace.residuals[sel]),
                                 np.log(trace.lower_bounds[sel]), 1)[0])
        if not self.slope_band[0] <= slope <= self.slope_band[1]:
            raise CheckFailed(f"post-onset slope {slope:.3f} outside {self.slope_band}")
        if track.mu_hat is None:
            raise CheckFailed("no mu_hat")
        err = abs(track.mu_hat - self.mu_exact)
        if err > MU_TOL:
            raise CheckFailed(f"|mu_hat - mu_exact| = {err:.4g} > {MU_TOL}")
        return err

    def experiments(self) -> list[Experiment]:
        return [Experiment(name=f"saturation-n{self.n}", run=self._run, check=self._check)]


WORKLOADS = {w.name: w for w in (Figures, Saturation, Crosscheck)}
