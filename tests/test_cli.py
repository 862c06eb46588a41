import csv
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from klsmooth.cli import (EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK,
                          ConfigError, ExperimentConfig, figure_config,
                          main, parse_config_text, run_pipeline)
from klsmooth import cli, operators, validation
from klsmooth.operators import write_matrix_market, write_vector
from klsmooth.problems import make_deriv2, make_gravity
from klsmooth.validation import DEFAULT_LEVELS, DEFAULT_SEEDS, rate_exponent

from _oracles import dense_deriv2, known_svd_problem, known_symmetric_problem

SMALL_DIAG = """
problem.kind = power_law
problem.n = 300
problem.eta = 2
problem.beta = 2
landweber.max_iters = 400
"""


def write_cfg(tmp_path, text, name="run.cfg", **outputs):
    trace = tmp_path / outputs.get("trace", "trace.csv")
    report = tmp_path / outputs.get("report", "report.json")
    body = text + f"\noutput.trace_path = {trace}\noutput.report_path = {report}\n"
    path = tmp_path / name
    path.write_text(body)
    return path, trace, report


def config_text(echo):
    """A report's config echo as config text, as a user would write it: None
    and empty lists left out, lists joined by the repr of their items."""
    lines = []
    for key, value in echo.items():
        if value is None or value == []:
            continue
        if isinstance(value, bool):
            value = str(value).lower()
        elif isinstance(value, list):
            value = ", ".join(map(repr, value))
        lines.append(f"{key} = {value}\n")
    return "".join(lines)


def test_parse_defaults():
    cfg = parse_config_text("")
    assert cfg.problem_kind == "power_law"
    assert cfg.landweber_max_iters == 2000
    assert cfg.estimator_w_min == 50


def test_parse_values_and_comments():
    cfg = parse_config_text(
        "problem.kind = deriv2  # kernel benchmark\n"
        "problem.n = 64\n"
        "\n"
        "# full-line comment\n"
        "noise.rel_level = 0.01\n"
        "validation.run_tikhonov = true\n"
        "validation.seeds = 3, 4, 5\n")
    assert cfg.problem_kind == "deriv2"
    assert cfg.problem_n == 64
    assert cfg.noise_rel_level == 0.01
    assert cfg.validation_run_tikhonov is True
    assert cfg.validation_seeds == (3, 4, 5)


def test_hash_inside_a_value_is_no_comment(tmp_path):
    # "#" starts a comment at the start of a line or after whitespace only
    path, trace, report = write_cfg(tmp_path, "problem.n = 64  # modes\n#\n",
                                    trace="run#1_trace.csv", report="run#1_report.json")
    cfg = cli.load_config(path)
    assert (cfg.problem_n, cfg.output_trace_path) == (64, str(trace))
    assert main(["estimate", str(path)]) == EXIT_OK
    assert trace.read_text().startswith("k,") and json.loads(report.read_text())


def test_equal_output_paths_exit_with_config_error(tmp_path, capsys):
    path, trace, _ = write_cfg(tmp_path, "problem.n = 64", report="out/../trace.csv")
    assert main(["estimate", str(path)]) == EXIT_CONFIG
    assert "name the same file" in capsys.readouterr().err
    assert not trace.exists()


@pytest.mark.parametrize("text", [
    "problem.kind = mystery\n",
    "problem.wat = 3\n",
    "problem.n = few\n",
    "no equals sign here\n",
    "validation.run_tikhonov = maybe\n",
    "noise.rel_level = -0.5\n",
    "problem.kind = external\n",  # missing paths
    "noise.rel_level = nan\n",
    "problem.eta = inf\n",
    "landweber.step_beta = auto\n",   # the step is always 1/||A||^2
    "validation.levels = 0.1, nan, 0.01\n",
    "estimator.eps_mu = -1\n",
    "estimator.eps_c_rel = -1\n",
    "estimator.w_min = 1\n",
    "estimator.k_min = 1\n",
])
def test_parse_errors(text):
    with pytest.raises(ConfigError):
        parse_config_text(text)


def test_effective_dict_covers_every_key():
    cfg = ExperimentConfig()
    eff = cfg.effective_dict()
    assert eff["problem.kind"] == "power_law"
    assert eff["estimator.eps_mu"] == 0.05
    assert eff["output.report_path"] == "report.json"
    assert len(eff) == 21


def test_run_estimate_end_to_end(tmp_path):
    path, trace_path, report_path = write_cfg(tmp_path, SMALL_DIAG)
    assert main(["estimate", str(path)]) == EXIT_OK
    assert trace_path.exists() and report_path.exists()
    report = json.loads(report_path.read_text())
    assert set(report["estimate"]) >= {"mu_hat", "c_hat", "window", "verdict",
                                       "noise_takeover_k", "saturation_k"}
    # the effective config is echoed in full, defaults included
    assert report["config"]["landweber.max_iters"] == 400
    assert report["config"]["estimator.k_min"] == 5
    assert len(report["config"]) == 21
    header = trace_path.read_text().splitlines()[0]
    assert header.startswith("k,residual,gradient_norm,lower_bound,error,mu_k,c_k")


def test_run_estimate_deterministic(tmp_path):
    text = SMALL_DIAG + "noise.rel_level = 0.01\nnoise.seed = 11\n"
    path1, trace1, report1 = write_cfg(tmp_path, text, name="a.cfg",
                                       trace="t1.csv", report="r1.json")
    path2, trace2, report2 = write_cfg(tmp_path, text, name="b.cfg",
                                       trace="t2.csv", report="r2.json")
    assert main(["estimate", str(path1)]) == EXIT_OK
    assert main(["estimate", str(path2)]) == EXIT_OK
    assert trace1.read_bytes() == trace2.read_bytes()
    r1 = json.loads(report1.read_text())
    r2 = json.loads(report2.read_text())
    del r1["config"]["output.trace_path"], r2["config"]["output.trace_path"]
    del r1["config"]["output.report_path"], r2["config"]["output.report_path"]
    assert r1 == r2


@pytest.mark.parametrize("text", [
    SMALL_DIAG,
    # the rate check on with the default levels, echoed in full
    SMALL_DIAG + "validation.run_tikhonov = true\nvalidation.run_svd_check = yes\n",
    SMALL_DIAG + "validation.levels = 0.1, 0.03\nvalidation.seeds = 7\n"
                 "noise.rel_level = 0.001\n",
], ids=["defaults", "default-levels", "lists-set"])
def test_config_echo_parses_back(tmp_path, text):
    path, _, report_path = write_cfg(tmp_path, text)
    assert main(["estimate", str(path)]) == EXIT_OK
    echo = json.loads(report_path.read_text())["config"]
    assert parse_config_text(config_text(echo)) == parse_config_text(path.read_text())


def test_estimate_and_svd_check_share_the_problem_section(tmp_path):
    text = SMALL_DIAG + "validation.run_svd_check = true\n"
    path, _, report_path = write_cfg(tmp_path, text)
    reports = []
    for command in ("estimate", "svd-check"):
        assert main([command, str(path)]) == EXIT_OK
        reports.append(json.loads(report_path.read_text()))
    estimated, checked = reports
    assert set(checked) == {"problem", "svd_check", "config"}
    assert estimated["problem"]["mu_exact"] == pytest.approx(0.375)
    for key in checked:
        assert checked[key] == estimated[key]


@pytest.mark.parametrize("text, flags", [
    ("estimator.eps_c_rel = -1\n", []),
    ("estimator.eps_mu = -1\n", []),
    ("", ["--noise", "nan"]),
])
def test_invalid_values_exit_with_config_error(tmp_path, text, flags):
    path, trace_path, _ = write_cfg(tmp_path, SMALL_DIAG + text)
    assert main(["estimate", str(path), *flags]) == EXIT_CONFIG
    assert not trace_path.exists()


@pytest.mark.parametrize("command, text, flags", [
    ("estimate", "landweber.max_iters = 3\n", []),
    ("estimate", "", ["--iters", "3"]),
    ("tikhonov-table", "landweber.max_iters = 3\n", ["--out"]),
], ids=["config", "flag", "table-row"])
def test_max_iters_below_k_min_is_refused_before_the_build(tmp_path, capsys, monkeypatch,
                                                           command, text, flags):
    built = []
    monkeypatch.setattr(cli, "build_problem", built.append)
    path, trace_path, report_path = write_cfg(tmp_path, SMALL_DIAG + text)
    message = "landweber.max_iters = 3 is below estimator.k_min = 5"
    if command == "tikhonov-table":
        table_path = tmp_path / "table.csv"
        assert main([command, str(path), *flags, str(table_path)]) == EXIT_OK
        assert table_path.read_text().splitlines()[1].endswith(f",failed: {message}")
    else:
        assert main([command, str(path), *flags]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
    assert built == []
    assert not trace_path.exists() and not report_path.exists()


def test_malformed_config_exit_code(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("problem.kind = nope\n")
    assert main(["estimate", str(path)]) == EXIT_CONFIG
    assert not (tmp_path / "trace.csv").exists()


def test_numerical_failure_exit_code(tmp_path):
    write_matrix_market(tmp_path / "a.mtx", np.array([[1e200]]))
    write_vector(tmp_path / "y.txt", np.array([1e200]))
    text = (f"problem.kind = external\nproblem.matrix_path = {tmp_path / 'a.mtx'}\n"
            f"problem.y_path = {tmp_path / 'y.txt'}\nlandweber.max_iters = 10\n")
    path, _, _ = write_cfg(tmp_path, text)
    assert main(["estimate", str(path)]) == EXIT_NUMERIC


@pytest.mark.parametrize("scale", [1e200, 1e-200])      # ||A||^2 overflows / underflows
@pytest.mark.parametrize("checked, limit", [
    (True, operators.SVD_SIZE_LIMIT),    # the SVD check's decomposition
    (False, operators.SVD_SIZE_LIMIT),   # an unchecked run's decomposition
    (False, 2),                          # over the limit: power iteration
])
def test_operator_norm_out_of_range_exits_numeric(tmp_path, capsys, monkeypatch,
                                                   scale, checked, limit):
    monkeypatch.setattr(operators, "SVD_SIZE_LIMIT", limit)
    a = scale * np.diag([1.0, 0.5, 0.25, 0.125])
    write_matrix_market(tmp_path / "a.mtx", a)
    write_vector(tmp_path / "y.txt", a.sum(axis=1))
    text = (f"problem.kind = external\nproblem.matrix_path = {tmp_path / 'a.mtx'}\n"
            f"problem.y_path = {tmp_path / 'y.txt'}\n"
            f"validation.run_svd_check = {str(checked).lower()}\n")
    path, trace_path, _ = write_cfg(tmp_path, text)
    assert main(["estimate", str(path)]) == EXIT_NUMERIC
    assert "numerical failure: " in capsys.readouterr().err
    assert not trace_path.exists()


@pytest.mark.parametrize("checked", [True, False])
def test_zero_matrix_exits_numeric(tmp_path, capsys, checked):
    # both runs decompose the matrix, and its system has no mode: sigma_1 is 0
    (tmp_path / "a.mtx").write_text("%%MatrixMarket matrix coordinate real general\n4 4 0\n")
    write_vector(tmp_path / "y.txt", np.ones(4))
    text = (f"problem.kind = external\nproblem.matrix_path = {tmp_path / 'a.mtx'}\n"
            f"problem.y_path = {tmp_path / 'y.txt'}\n"
            f"validation.run_svd_check = {str(checked).lower()}\n")
    path, trace_path, report_path = write_cfg(tmp_path, text)
    assert main(["estimate", str(path)]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: operator norm 0 is out of range")
    assert err.count("\n") == 1
    assert not trace_path.exists() and not report_path.exists()


@pytest.mark.parametrize("command", ["estimate", "svd-check", "tikhonov-table"])
@pytest.mark.parametrize("sizes", ["array real general\n3 0", "coordinate real general\n3 0 0"],
                         ids=["array", "coordinate"])
def test_matrix_with_no_column_is_a_config_error(tmp_path, capsys, sizes, command):
    (tmp_path / "a.mtx").write_text(f"%%MatrixMarket matrix {sizes}\n")
    write_vector(tmp_path / "y.txt", np.ones(3))
    text = (f"problem.kind = external\nproblem.matrix_path = {tmp_path / 'a.mtx'}\n"
            f"problem.y_path = {tmp_path / 'y.txt'}\n")
    path, trace_path, report_path = write_cfg(tmp_path, text)
    message = "matrix is 3x0: it has no entries"
    if command == "tikhonov-table":
        table_path = tmp_path / "table.csv"
        assert main([command, str(path), "--out", str(table_path)]) == EXIT_OK
        assert table_path.read_text().splitlines()[1].endswith(f",failed: {message}")
    else:
        assert main([command, str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
    assert not trace_path.exists() and not report_path.exists()


def test_close_top_singular_values_take_the_norm_from_the_svd(tmp_path, monkeypatch):
    # sigma_2 / sigma_1 = 0.99998: power iteration gives up after 10^4 steps
    # at n = 36, and at n = 256 stops 3.8e-5 off sigma_1^-2; every run within
    # the size limit takes the SVD, which has sigma_1. At n = 600 and rank 42,
    # over a limit of 512, power iteration gives up too, and the block holds
    # sigma_1
    monkeypatch.setattr(operators, "SVD_SIZE_LIMIT", 512)
    for n, rank, iters in ((36, 36, 2000), (256, 256, 100), (600, 42, 100)):
        rng = np.random.default_rng(1)
        u = np.linalg.qr(rng.standard_normal((n, n)))[0]
        v = np.linalg.qr(rng.standard_normal((n, n)))[0]
        sigmas = np.concatenate(([1.0, 0.99998], np.geomspace(0.5, 0.01, rank - 2)))
        a = (u[:, :rank] * sigmas) @ v[:, :rank].T
        write_matrix_market(tmp_path / "a.mtx", a)
        write_vector(tmp_path / "y.txt", a @ v[:, 5])
        write_vector(tmp_path / "x.txt", v[:, 5])
        text = (f"problem.kind = external\nproblem.matrix_path = {tmp_path / 'a.mtx'}\n"
                f"problem.y_path = {tmp_path / 'y.txt'}\n"
                f"problem.x_true_path = {tmp_path / 'x.txt'}\nlandweber.max_iters = {iters}\n")
        path, _, report_path = write_cfg(tmp_path, text)
        assert main(["estimate", str(path)]) == EXIT_OK
        landweber = json.loads(report_path.read_text())["landweber"]
        assert landweber["path"] == "closed-form"
        sigma_1 = np.linalg.svd(a, compute_uv=False)[0]   # the file holds a bit for bit
        assert landweber["step_beta"] == pytest.approx(1.0 / sigma_1 ** 2, rel=1e-12)


def test_io_failure_exit_code(tmp_path, capsys):
    path, _, _ = write_cfg(tmp_path, SMALL_DIAG, trace="missing_dir/trace.csv")
    assert main(["estimate", str(path)]) == EXIT_IO
    assert "i/o failure:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["estimate", "svd-check", "tikhonov-table"])
def test_missing_input_file_exit_code(tmp_path, capsys, command):
    write_vector(tmp_path / "y.txt", np.ones(8))
    text = (f"problem.kind = external\nproblem.matrix_path = {tmp_path / 'absent.mtx'}\n"
            f"problem.y_path = {tmp_path / 'y.txt'}\n")
    path, trace_path, report_path = write_cfg(tmp_path, text)
    table_path = tmp_path / "table.csv"
    extra = ["--out", str(table_path)] if command == "tikhonov-table" else []
    assert main([command, str(path), *extra]) == EXIT_IO
    assert "i/o failure:" in capsys.readouterr().err
    assert not trace_path.exists() and not report_path.exists() and not table_path.exists()


@pytest.mark.parametrize("text", [
    "problem.n = 1000000000000000\n",
    "problem.n = 10\nlandweber.max_iters = 1000000000000000\n",
])
def test_oversized_sizes_exit_with_config_error(tmp_path, capsys, text):
    # 10^15 float64 values are 8 PB, past the address space, so the
    # allocation fails at once and touches no memory
    path, trace_path, _ = write_cfg(tmp_path, text)
    assert main(["estimate", str(path)]) == EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err
    assert not trace_path.exists()


def test_repeated_noise_levels_exit_with_config_error(tmp_path, capsys):
    text = SMALL_DIAG + "validation.run_tikhonov = true\nvalidation.levels = 0.01, 0.01, 0.01\n"
    path, trace_path, _ = write_cfg(tmp_path, text)
    assert main(["estimate", str(path)]) == EXIT_CONFIG
    assert "noise levels must be distinct" in capsys.readouterr().err
    assert not trace_path.exists()
    table = tmp_path / "table.csv"
    assert main(["tikhonov-table", str(path), "--out", str(table)]) == EXIT_OK
    assert table.read_text().splitlines()[1].endswith(",failed: noise levels must be distinct")


def test_bad_levels_exit_before_the_run(tmp_path, capsys):
    # this run finds no stable window, so the rate experiment never runs; the
    # levels are checked when the config is, whenever the rate check is on
    text = ("problem.kind = deriv2\nproblem.n = 64\nnoise.rel_level = 0.05\n"
            "validation.levels = 0.5, 2\n")
    path, trace_path, _ = write_cfg(tmp_path, text + "validation.run_tikhonov = true\n")
    assert main(["estimate", str(path)]) == EXIT_CONFIG
    assert "need at least 3 noise levels" in capsys.readouterr().err
    assert not trace_path.exists()
    # tikhonov-table turns the check on, then checks the levels
    path, trace_path, _ = write_cfg(tmp_path, text)
    table = tmp_path / "table.csv"
    assert main(["tikhonov-table", str(path), "--out", str(table)]) == EXIT_OK
    assert table.read_text().splitlines()[1] == (
        "deriv2(n=64),,,,,failed: need at least 3 noise levels")
    assert not trace_path.exists()


def test_tikhonov_table_labels_a_failed_row_as_a_run_one(tmp_path):
    # a config that fails before its problem is built and one that runs
    # read alike when they describe the same problem
    ok = tmp_path / "ok.cfg"
    ok.write_text("problem.kind = deriv2\nproblem.n = 64\n")
    bad = tmp_path / "bad.cfg"
    bad.write_text("problem.kind = deriv2\nproblem.n = 64\nvalidation.levels = 0.5, 2\n")
    table = tmp_path / "t.csv"
    assert main(["tikhonov-table", str(ok), str(bad), "--out", str(table)]) == EXIT_OK
    with open(table, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][0] == rows[2][0] == "deriv2(n=64)"
    assert rows[1][4:] == ["no", ""]
    assert rows[2][1:] == ["", "", "", "", "failed: need at least 3 noise levels"]


def test_list_defaults_live_in_the_config(tmp_path):
    # an empty list means the default; the levels are plain floats, so a
    # config written from their repr parses back, and the report echoes them
    cfg = parse_config_text("validation.levels =\nvalidation.seeds =\n")
    assert cfg == ExperimentConfig()
    assert cfg.validation_levels == DEFAULT_LEVELS and len(DEFAULT_LEVELS) == 10
    assert all(type(level) is float for level in cfg.validation_levels)
    assert cfg.validation_seeds == DEFAULT_SEEDS
    with pytest.raises(ConfigError, match="validation.seeds"):
        parse_config_text("validation.seeds = 0, 1.5\n")
    path, _, report_path = write_cfg(tmp_path, SMALL_DIAG + "validation.run_tikhonov = true\n")
    assert main(["estimate", str(path)]) == EXIT_OK
    report = json.loads(report_path.read_text())
    assert report["config"]["validation.levels"] == list(DEFAULT_LEVELS)
    assert report["tikhonov_rate"]["noise_levels"] == list(DEFAULT_LEVELS)


def test_tikhonov_table_row_for_oversized_config(tmp_path):
    # one config too large to allocate fails its own row, not the table
    ok = tmp_path / "ok.cfg"
    ok.write_text("problem.kind = deriv2\nproblem.n = 64\n")
    big = tmp_path / "big.cfg"
    big.write_text("problem.kind = power_law\nproblem.n = 1000000000000000\n")
    table = tmp_path / "t.csv"
    assert main(["tikhonov-table", str(ok), str(big), "--out", str(table)]) == EXIT_OK
    rows = table.read_text().splitlines()
    assert len(rows) == 3
    assert rows[1].startswith("deriv2(n=64),") and rows[1].endswith(",no,")
    assert rows[2].startswith('"power-law(eta=2, beta=2, n=1000000000000000)",,,,,'
                              '"failed: sizes too large to allocate: ')


@pytest.mark.parametrize("command", ["estimate", "tikhonov-table"])
def test_overflowing_gravity_depth_is_a_numerical_failure(tmp_path, capsys, command):
    # depth ** 2 of a Python float raises OverflowError, an ArithmeticError
    # like FloatingPointError: one line on stderr, or one failed row
    path, trace_path, report_path = write_cfg(
        tmp_path, "problem.kind = gravity\nproblem.n = 64\nproblem.depth = 1e200\n")
    if command == "tikhonov-table":
        table = tmp_path / "t.csv"
        assert main([command, str(path), "--out", str(table)]) == EXIT_OK
        with open(table, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2 and rows[1][5].startswith("failed: ")
        message = rows[1][5]
    else:
        assert main([command, str(path)]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
        message = err
    assert "depth = 1e+200 is out of range: depth^2 overflows" in message
    assert not trace_path.exists() and not report_path.exists()


@pytest.mark.parametrize("text, status, message", [
    ("problem.eta = 1e308\n", EXIT_CONFIG,
     "config error: eta = 1e+308 and beta = 2 are out of range"),
    ("problem.kind = gravity\nproblem.depth = 1e-200\n", EXIT_CONFIG,
     "config error: depth = 1e-200 is out of range"),
    ("noise.rel_level = 1e308\n", EXIT_NUMERIC,
     "numerical failure: non-finite residual/gradient at iteration 1"),
    ("landweber.step_beta = auto\n", EXIT_CONFIG,
     "config error: line 2: unknown key 'landweber.step_beta'"),
], ids=["eta", "depth", "noise", "step"])
def test_refused_config_prints_one_line(tmp_path, text, status, message):
    # a fresh interpreter, whose stderr would show a numpy warning and its
    # source line ahead of the message
    path, trace_path, report_path = write_cfg(tmp_path, "problem.n = 64\n" + text)
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run([sys.executable, "-m", "klsmooth.cli", "estimate", str(path)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == status
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith(message)
    assert not trace_path.exists() and not report_path.exists()


def test_tikhonov_table_row_for_missing_matrix(tmp_path):
    # a config whose matrix file is missing fails its own row, not the table
    ok = tmp_path / "ok.cfg"
    ok.write_text("problem.kind = deriv2\nproblem.n = 64\n")
    write_vector(tmp_path / "y.txt", np.ones(8))
    absent = tmp_path / "absent.cfg"
    absent.write_text(f"problem.kind = external\nproblem.matrix_path = {tmp_path / 'absent.mtx'}\n"
                      f"problem.y_path = {tmp_path / 'y.txt'}\n")
    table = tmp_path / "t.csv"
    assert main(["tikhonov-table", str(ok), str(absent), "--out", str(table)]) == EXIT_OK
    with open(table, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3
    assert rows[1][0] == "deriv2(n=64)" and rows[1][4:] == ["no", ""]
    assert rows[2][:5] == [f"external({tmp_path / 'absent.mtx'})", "", "", "", ""]
    assert rows[2][5].startswith("failed: ") and "No such file" in rows[2][5]


def test_tikhonov_table_row_for_unparseable_config(tmp_path):
    # a config whose value does not parse fails its own row, under its path
    ok = tmp_path / "ok.cfg"
    ok.write_text("problem.kind = deriv2\nproblem.n = 64\n")
    bad = tmp_path / "bad.cfg"
    bad.write_text("problem.kind = deriv2\nproblem.n = abc\n")
    table = tmp_path / "t.csv"
    assert main(["tikhonov-table", str(ok), str(bad), "--out", str(table)]) == EXIT_OK
    with open(table, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3
    assert rows[1][0] == "deriv2(n=64)" and rows[1][4:] == ["no", ""]
    assert rows[2] == [str(bad), "", "", "", "",
                       "failed: problem.n: expected an integer, got 'abc'"]


def test_tikhonov_table_row_for_missing_config(tmp_path):
    # a config file that cannot be read fails its own row, under its path
    ok = tmp_path / "ok.cfg"
    ok.write_text("problem.kind = deriv2\nproblem.n = 64\n")
    absent = tmp_path / "absent.cfg"
    table = tmp_path / "t.csv"
    assert main(["tikhonov-table", str(ok), str(absent), "--out", str(table)]) == EXIT_OK
    with open(table, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3
    assert rows[1][0] == "deriv2(n=64)" and rows[1][4:] == ["no", ""]
    assert rows[2][:5] == [str(absent), "", "", "", ""]
    assert rows[2][5].startswith(f"failed: cannot read config {absent}: ")


def test_tikhonov_table_quotes_cells_per_rfc4180(tmp_path):
    # the failure note holds a comma and a quote; both must read back intact
    write_matrix_market(tmp_path / "a.mtx", np.eye(2))
    (tmp_path / "y.txt").write_text('1,"2\n')
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"problem.kind = external\nproblem.matrix_path = {tmp_path / 'a.mtx'}\n"
                   f"problem.y_path = {tmp_path / 'y.txt'}\n")
    table = tmp_path / "t.csv"
    assert main(["tikhonov-table", str(cfg), "--out", str(table)]) == EXIT_OK
    with open(table, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1] == [f"external({tmp_path / 'a.mtx'})", "", "", "", "",
                       f"failed: {tmp_path / 'y.txt'}: line 1: bad value '1,\"2'"]


@pytest.mark.parametrize("key, name, bad", [("x_true_path", "x.txt", "nan"),
                                            ("y_path", "y.txt", "inf"),
                                            # two values on an array line
                                            ("matrix_path", "a.mtx", "1 7"),
                                            ("matrix_path", "a.mtx", "nan")])
def test_non_finite_vector_file_exits_with_config_error(tmp_path, capsys, key, name, bad):
    p = make_gravity(8)
    write_matrix_market(tmp_path / "a.mtx", p.operator.matrix)
    write_vector(tmp_path / "y.txt", p.y_clean)
    write_vector(tmp_path / "x.txt", p.x_true)
    lines = (tmp_path / name).read_text().splitlines()
    lines[2] = bad
    (tmp_path / name).write_text("\n".join(lines) + "\n")
    text = (f"problem.kind = external\nproblem.matrix_path = {tmp_path / 'a.mtx'}\n"
            f"problem.y_path = {tmp_path / 'y.txt'}\n"
            f"problem.x_true_path = {tmp_path / 'x.txt'}\nlandweber.max_iters = 50\n")
    path, trace_path, _ = write_cfg(tmp_path, text)
    assert main(["estimate", str(path)]) == EXIT_CONFIG
    assert f"{name}: line 3: bad value '{bad}'" in capsys.readouterr().err
    assert not trace_path.exists()


@pytest.mark.parametrize("name", ["a.mtx", "y.txt", "x.txt", "run.cfg"])
def test_file_that_is_not_utf8_exits_with_config_error(tmp_path, capsys, name):
    # the third line of each file holds a byte that starts no UTF-8 sequence
    p = make_gravity(8)
    write_matrix_market(tmp_path / "a.mtx", p.operator.matrix)
    write_vector(tmp_path / "y.txt", p.y_clean)
    write_vector(tmp_path / "x.txt", p.x_true)
    text = (f"problem.kind = external\nproblem.matrix_path = {tmp_path / 'a.mtx'}\n"
            f"# comment\nproblem.y_path = {tmp_path / 'y.txt'}\n"
            f"problem.x_true_path = {tmp_path / 'x.txt'}\nlandweber.max_iters = 50\n")
    path, trace_path, _ = write_cfg(tmp_path, text)
    target = tmp_path / name if name != "run.cfg" else path
    lines = target.read_bytes().split(b"\n")
    lines[2] += b" \xff"
    target.write_bytes(b"\n".join(lines))
    assert main(["estimate", str(path)]) == EXIT_CONFIG
    assert f"{target}: line 3: not UTF-8 text (byte 0xff)" in capsys.readouterr().err
    assert not trace_path.exists()


def test_readme_config_block_shows_every_default():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    assert parse_config_text(block) == ExperimentConfig()
    shown = {line.split("=", 1)[0].strip() for line in block.splitlines() if line.strip()}
    inputs = {"problem.matrix_path", "problem.y_path", "problem.x_true_path"}
    assert shown == set(ExperimentConfig().effective_dict()) - inputs


def test_readme_library_use_block_runs(tmp_path):
    # the block as a reader would run it: a fresh interpreter with src on the path
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text()
    block = readme.split("## Library use\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", block],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.splitlines()) == 2


def _reject_constant(token):
    raise ValueError(f"non-JSON constant {token}")


@pytest.mark.parametrize("command", ["estimate", "svd-check"])
def test_report_is_strict_json(tmp_path, command):
    # sigma_i = e^-i makes the summability partial sums overflow
    text = "problem.kind = exp_operator\nproblem.n = 400\nvalidation.run_svd_check = true\n"
    path, _, report_path = write_cfg(tmp_path, text)
    assert main([command, str(path)]) == EXIT_OK
    report = json.loads(report_path.read_text(), parse_constant=_reject_constant)
    assert report["svd_check"]["partial_sum_growth"][-1] is None


def test_tikhonov_section_skips_without_window():
    cfg = replace(figure_config("noise1"), validation_run_tikhonov=True)
    report = run_pipeline(cfg)["report"]
    assert report["estimate"]["mu_hat"] is None
    assert report["tikhonov_rate"] == {"note": "skipped: no stable-window estimate to test"}


def ingested_deriv2(tmp_path, n):
    """Config text for deriv2 on n cells read from MatrixMarket and vector
    files: the matrix the built-in problem stands for (dense_deriv2), its data
    and x_true bit for bit, but no known singular system, so it decomposes,
    prices and iterates as any dense matrix does."""
    p = dense_deriv2(n)
    a, y, x = (tmp_path / f"deriv2_{n}_{name}" for name in ("a.mtx", "y.txt", "x.txt"))
    write_matrix_market(a, p.operator.matrix)
    write_vector(y, p.y_clean)
    write_vector(x, p.x_true)
    return (f"problem.kind = external\nproblem.matrix_path = {a}\n"
            f"problem.y_path = {y}\nproblem.x_true_path = {x}\n")


def dense_checked(tmp_path):
    return (ingested_deriv2(tmp_path, 32)
            + "validation.run_tikhonov = true\nvalidation.run_svd_check = true\n")


def _counting_svd(monkeypatch):
    """Patch cli.svd to record the shape of each operator it decomposes."""
    calls = []

    def counted(op):
        calls.append(op.shape)
        return operators.svd(op)
    # cli is the only module that calls svd on a pipeline run
    monkeypatch.setattr(cli, "svd", counted)
    return calls


# deriv2 with the rate check; w_min = 20 gives a K=100 run a stable window,
# so its rate check runs
RATE_CHECKED = "estimator.w_min = 20\nvalidation.run_tikhonov = true\n"


def test_report_names_the_paths_taken(tmp_path, monkeypatch):
    # ingested deriv2 at n = 500, not a 2^k grid, so svd() takes the full
    # eigh: one decomposition per run, whatever K
    calls = _counting_svd(monkeypatch)
    dense = ingested_deriv2(tmp_path, 500) + RATE_CHECKED
    for iters, svd_calls in ((100, 1), (2000, 2)):
        cfg = parse_config_text(dense + f"landweber.max_iters = {iters}\n"
                                        "validation.seeds = 0\n")
        report = run_pipeline(cfg)["report"]
        assert report["landweber"]["path"] == "closed-form"
        assert report["tikhonov_rate"]["solver"] == "filter-factors"
        assert len(calls) == svd_calls
    checked = run_pipeline(parse_config_text(dense_checked(tmp_path)))["report"]
    assert checked["landweber"]["path"] == "closed-form"
    assert checked["tikhonov_rate"]["solver"] == "filter-factors"
    # the built-in deriv2 and a diagonal operator know their singular
    # systems: the closed form and the filter factors at any K
    for known in ("problem.kind = deriv2\nproblem.n = 500\nlandweber.max_iters = 100\n"
                  + RATE_CHECKED, SMALL_DIAG + "validation.run_tikhonov = true\n"):
        report = run_pipeline(parse_config_text(known))["report"]
        assert report["landweber"]["path"] == "closed-form"
        assert report["tikhonov_rate"]["solver"] == "filter-factors"


# any window counts as stable, so a K = 5 run has an estimate to rate
ANY_WINDOW = {"estimator_k_min": 2, "estimator_w_min": 2, "estimator_eps_mu": 1e9,
              "estimator_eps_c_rel": 1e9}


@pytest.mark.parametrize("iters", [5, 2000])
@pytest.mark.parametrize("make, method", [
    (lambda: known_svd_problem(1, 256, 256, 40)[0], "svd"),
    (lambda: known_symmetric_problem(1, 256, 40)[0], "eigh"),
    (lambda: known_symmetric_problem(1, 256, 40, centro=True)[0], "centro"),
    (lambda: make_gravity(512), "block"),
], ids=["general", "symmetric", "centrosymmetric", "block"])
def test_every_dense_run_within_the_limit_decomposes(monkeypatch, make, method, iters):
    # an unchecked run with the rate check on, however short: one svd()
    # call, and Landweber and the Tikhonov solves both read its system
    calls = _counting_svd(monkeypatch)
    p = make()
    monkeypatch.setattr(cli, "build_problem", lambda cfg: p)
    cfg = replace(ExperimentConfig(), landweber_max_iters=iters, validation_run_tikhonov=True,
                  validation_levels=DEFAULT_LEVELS[-3:], validation_seeds=(0,), **ANY_WINDOW)
    report = run_pipeline(cfg)["report"]
    assert calls == [p.operator.shape]
    assert report["landweber"]["path"] == "closed-form"
    assert report["tikhonov_rate"]["solver"] == "filter-factors"
    assert operators.svd(p.operator).method == method


@pytest.mark.parametrize("n", [1024, 2048])
def test_checked_deriv2_run_peaks_under_two_mib(n):
    # deriv2 is its singular system alone, its sine basis applied by FFT: a
    # checked run holds vectors, and peaked at 0.89 and 0.98 MiB at n = 1024
    # and 2048, where one n x n matrix is 8 and 32 MiB
    cfg = ExperimentConfig(problem_kind="deriv2", problem_n=n,
                           validation_run_tikhonov=True, validation_run_svd_check=True)
    run_pipeline(replace(cfg, problem_n=32))   # imports and tables built on first use
    tracemalloc.start()
    try:
        report = run_pipeline(cfg)["report"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["svd_check"]["decomposition"] == "dst"
    assert peak < 2 * 1024 ** 2


def test_checked_deriv2_runs_matrix_free_at_65536(tmp_path):
    """estimate with both checks on deriv2 at n = 65,536, whose matrix would
    be 32 GiB, in a process whose address space is capped at 1 GiB: the cap
    turns any n x n allocation into a MemoryError (exit 2) rather than an
    out-of-memory kill. The run takes the closed form on the sine basis."""
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS"):
        pytest.skip("RLIMIT_AS is unavailable")
    path, _, report_path = write_cfg(tmp_path, "problem.kind = deriv2\nproblem.n = 65536\n"
                                     "validation.run_tikhonov = true\n"
                                     "validation.run_svd_check = true\n")
    capped = ("import resource, sys\n"
              "resource.setrlimit(resource.RLIMIT_AS, (1024 ** 3, 1024 ** 3))\n"
              "from klsmooth.cli import main\n"
              f"sys.exit(main(['estimate', {str(path)!r}]))\n")
    # one BLAS thread, so that no thread's buffers count against the cap
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
           "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", capped], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(report_path.read_text())
    assert report["landweber"]["path"] == "closed-form"
    assert report["svd_check"]["decomposition"] == "dst"
    assert report["estimate"]["verdict"] == "stable"


def test_operator_over_the_svd_limit_takes_the_loop_and_cg(tmp_path, monkeypatch):
    monkeypatch.setattr(operators, "SVD_SIZE_LIMIT", 16)
    path, _, report_path = write_cfg(tmp_path, dense_checked(tmp_path))
    assert main(["estimate", str(path)]) == EXIT_OK
    report = json.loads(report_path.read_text())
    assert report["landweber"]["path"] == "matvec"
    assert report["tikhonov_rate"]["solver"] == "cg"
    assert report["svd_check"] == {"note": "skipped: operator exceeds the dense SVD limit 16"}


def test_checked_dense_run_computes_one_svd(tmp_path, monkeypatch):
    calls = _counting_svd(monkeypatch)
    result = run_pipeline(parse_config_text(dense_checked(tmp_path)))
    assert calls == [(32, 32)]
    assert result["report"]["landweber"]["path"] == "closed-form"
    assert "mu_max_refined" in result["report"]["svd_check"]
    assert "observed_exponent" in result["report"]["tikhonov_rate"]


@pytest.mark.parametrize("command", ["estimate", "svd-check"])
def test_svd_failure_falls_back_to_the_loop_and_cg(tmp_path, monkeypatch, command):
    # both commands report the failure as a note and exit 0
    def failing(op):
        raise operators.ConvergenceError("SVD failed to converge: planted")
    monkeypatch.setattr(cli, "svd", failing)
    path, _, report_path = write_cfg(tmp_path, dense_checked(tmp_path))
    assert main([command, str(path)]) == EXIT_OK
    report = json.loads(report_path.read_text())
    assert report["svd_check"] == {"note": "failed: SVD failed to converge: planted"}
    if command == "estimate":
        assert report["landweber"]["path"] == "matvec"
        assert report["tikhonov_rate"]["solver"] == "cg"


def test_svd_failure_on_an_unchecked_run_falls_back_to_the_loop_and_cg(tmp_path, monkeypatch):
    def failing(op):
        raise operators.ConvergenceError("SVD failed to converge: planted")
    monkeypatch.setattr(cli, "svd", failing)
    path, _, report_path = write_cfg(tmp_path, ingested_deriv2(tmp_path, 256) + RATE_CHECKED
                                     + "landweber.max_iters = 2000\n")
    assert main(["estimate", str(path)]) == EXIT_OK
    report = json.loads(report_path.read_text())
    assert report["landweber"]["path"] == "matvec"
    assert report["tikhonov_rate"]["solver"] == "cg"
    assert "svd_check" not in report


def test_rate_table_script_output_is_pinned(tmp_path, monkeypatch):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_rate_table.py"
    spec = importlib.util.spec_from_file_location("run_rate_table", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr("sys.argv", [str(script), str(tmp_path)])
    assert module.main() == EXIT_OK
    assert (tmp_path / "tikhonov_table.csv").read_text() == (
        "problem,mu_hat,predicted_rate_exponent,observed_rate_exponent,misfit,note\n"
        '"power-law(eta=2, beta=2, n=10000)",0.397697,0.443019,0.417591,no,\n'
        "deriv2(n=256),0.137733,0.215973,0.200027,no,\n"
        '"gravity(n=256, depth=0.25), severely ill-posed candidate",'
        "0.328515,0.396511,0.510931,yes,\n")


def test_cli_overrides(tmp_path):
    path, trace_path, report_path = write_cfg(tmp_path, SMALL_DIAG)
    assert main(["estimate", str(path), "--noise", "0.02", "--seed", "9",
                 "--iters", "200"]) == EXIT_OK
    report = json.loads(report_path.read_text())
    assert report["noise"]["rel_level"] == 0.02
    assert report["noise"]["seed"] == 9
    assert report["landweber"]["iterations"] == 200


def test_parser_built_once_keeps_no_state_between_calls(tmp_path, capsys):
    # the parser is cached: an override given to one call must not reach the
    # next, whatever command that runs, and a bad command still exits 2
    assert cli._parser() is cli._parser()
    path, _, report_path = write_cfg(tmp_path, SMALL_DIAG)
    assert main(["estimate", str(path), "--noise", "0.02", "--seed", "9",
                 "--iters", "200"]) == EXIT_OK
    assert json.loads(report_path.read_text())["landweber"]["iterations"] == 200
    check, _, check_report = write_cfg(tmp_path, SMALL_DIAG, name="check.cfg",
                                       report="check.json")
    assert main(["svd-check", str(check)]) == EXIT_OK
    assert json.loads(check_report.read_text())["config"]["landweber.max_iters"] == 400
    assert main(["estimate", str(path)]) == EXIT_OK
    report = json.loads(report_path.read_text())
    assert report["noise"] is None and report["landweber"]["iterations"] == 400
    with pytest.raises(SystemExit) as exc:
        main(["figures", "no-such-figure", str(tmp_path)])
    assert exc.value.code == 2 and "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--iters", "5"], ["--seed", "3"], ["--noise", "0.01"]],
                         ids=["iters", "seed", "noise"])
def test_svd_check_takes_no_overrides(tmp_path, capsys, flags):
    # svd-check runs neither noise nor Landweber, so the overrides are
    # estimate's alone: argparse refuses them before anything runs
    path, _, report_path = write_cfg(tmp_path, SMALL_DIAG)
    with pytest.raises(SystemExit) as exc:
        main(["svd-check", str(path), *flags])
    assert exc.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err
    assert not report_path.exists()


@pytest.mark.parametrize("change, calls", [({}, 1), ({"source_w": None}, 0),
                                           ({"mu_exact": None}, 0), ({"mu_exact": 0.0}, 0)],
                         ids=["source", "no-source", "no-mu", "mu-zero"])
def test_upper_curve_comes_from_bound_curves(monkeypatch, change, calls):
    """run_pipeline takes the upper curve from validation.bound_curves, once,
    when the problem has a source element and mu_exact > 0, and has none
    otherwise."""
    seen = []

    def spy(trace, mu, w_norm=None):
        seen.append((mu, w_norm))
        return validation.bound_curves(trace, mu, w_norm)
    build = cli.BUILDERS["power_law"]
    monkeypatch.setitem(cli.BUILDERS, "power_law", lambda cfg: replace(build(cfg), **change))
    monkeypatch.setattr(cli, "bound_curves", spy)
    cfg = parse_config_text(SMALL_DIAG)
    result = run_pipeline(cfg)
    assert len(seen) == calls
    if calls:
        p = build(cfg)
        assert seen == [(p.mu_exact, float(np.linalg.norm(p.source_w)))]
        assert result["upper"] is not None
    else:
        assert result["upper"] is None


def test_run_pipeline_report_sections(tmp_path):
    cfg = parse_config_text(SMALL_DIAG + "validation.run_tikhonov = true\n"
                                         "validation.run_svd_check = true\n"
                                         "validation.levels = 0.1, 0.05, 0.02, 0.01\n"
                                         "validation.seeds = 0, 1\n")
    result = run_pipeline(cfg)
    report = result["report"]
    assert "tikhonov_rate" in report and "svd_check" in report
    assert report["svd_check"]["mu_max_estimate"] is not None
    assert report["tikhonov_rate"]["observed_exponent"] == pytest.approx(
        report["tikhonov_rate"]["predicted_exponent"], abs=0.2)
    # the predicted rate is validation.rate_exponent's, bit for bit
    rate = report["tikhonov_rate"]
    assert rate["predicted_exponent"] == rate_exponent(rate["mu_tested"])


def test_figure_unknown_name(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["figures", "diag9", str(tmp_path)])
    assert exc.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "diag1" in err and "gravity" in err


def test_figure_config_table():
    cfg = figure_config("noise2")
    assert cfg.noise_rel_level == 0.001
    assert cfg.problem_kind == "power_law"
    with pytest.raises(ConfigError):
        figure_config("nope")


def run_figure(name, out_dir):
    """Run ``klsmooth figures``; returns its trace CSV's columns by header."""
    assert main(["figures", name, str(out_dir)]) == EXIT_OK
    with open(Path(out_dir) / f"{name}_trace.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    return dict(zip(rows[0], zip(*rows[1:])))


def _defined(columns, key):
    """(k, value) of every non-empty cell of one trace column."""
    return [(int(k), float(v)) for k, v in zip(columns["k"], columns[key]) if v]


def test_figure_suite_diag3_two_slope(tmp_path):
    columns = run_figure("diag3", tmp_path)
    assert list(columns) == ["k", "residual", "gradient_norm", "lower_bound", "error",
                             "mu_k", "c_k", "upper_bound"]
    resid = np.array(columns["residual"], dtype=float)
    lower = np.array(columns["lower_bound"], dtype=float)
    report = json.loads((tmp_path / "diag3_report.json").read_text())
    onset = report["estimate"]["saturation_k"]
    assert onset is not None
    early = slice(49, onset // 2)
    late = slice(onset, len(resid))
    slope_early = np.polyfit(np.log(resid[early]), np.log(lower[early]), 1)[0]
    slope_late = np.polyfit(np.log(resid[late]), np.log(lower[late]), 1)[0]
    assert slope_late - slope_early > 0.2          # two distinct slopes
    assert 0.85 <= slope_late <= 1.15              # well-posed regime
    assert abs(slope_early - 0.6) <= 0.1           # rate regime for mu = 0.75


def test_figure_suite_noise1_collapse(tmp_path):
    columns = run_figure("noise1", tmp_path)
    report = json.loads((tmp_path / "noise1_report.json").read_text())
    assert report["estimate"]["verdict"] == "noise-truncated"
    assert report["estimate"]["noise_takeover_k"] is not None
    assert _defined(columns, "mu_k")[-1][1] < 0.0  # late collapse below zero


def test_figure_suite_diag1_burn_in(tmp_path):
    columns = run_figure("diag1", tmp_path)
    mu = dict(_defined(columns, "mu_k"))
    # early estimates are burn-in; past it the series settles around 0.1
    assert mu[50] > 0.15
    assert all(0.05 <= mu[k] <= 0.15 for k in range(750, 2001, 50))
    report = json.loads((tmp_path / "diag1_report.json").read_text())
    assert report["estimate"]["mu_hat"] == pytest.approx(0.1, abs=0.05)
    assert len(columns["residual"]) == 2000


def test_tikhonov_table(tmp_path):
    text = ("problem.kind = power_law\nproblem.n = 10000\nproblem.eta = 2\n"
            "problem.beta = 2\nlandweber.max_iters = 2000\n"
            "validation.seeds = 0, 1, 2\n")
    cfg_path = tmp_path / "diag.cfg"
    cfg_path.write_text(text)
    blind = tmp_path / "blind.cfg"
    blind.write_text(text + "problem.eta = 0.7\nlandweber.max_iters = 50\n")
    out = tmp_path / "table.csv"
    assert main(["tikhonov-table", str(cfg_path), str(blind), "--out", str(out)]) == EXIT_OK
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["problem", "mu_hat", "predicted_rate_exponent",
                       "observed_rate_exponent", "misfit", "note"]
    assert len(rows) == 3
    assert abs(float(rows[1][2]) - float(rows[1][3])) <= 0.05
    assert rows[1][4] == "no"
    # the second problem has no stable window at this horizon: row notes failure
    assert "failed" in rows[2][5]


def test_tikhonov_table_kernel_problems(tmp_path):
    # cross-check table over the two kernel benchmarks: the second-derivative
    # problem validates its estimate, the gravity analog is flagged as a misfit
    base = "landweber.max_iters = 2000\nvalidation.seeds = 0, 1, 2\n"
    d_cfg = tmp_path / "deriv2.cfg"
    d_cfg.write_text("problem.kind = deriv2\nproblem.n = 256\n" + base)
    g_cfg = tmp_path / "gravity.cfg"
    g_cfg.write_text("problem.kind = gravity\nproblem.n = 256\n" + base)
    out = tmp_path / "table.csv"
    assert main(["tikhonov-table", str(d_cfg), str(g_cfg), "--out", str(out)]) == EXIT_OK
    with open(out) as fh:
        rows = {r[0].split("(")[0]: r for r in list(csv.reader(fh))[1:]}
    assert rows["deriv2"][4] == "no"
    assert 0.1 <= float(rows["deriv2"][1]) <= 0.25
    assert rows["gravity"][4] == "yes"
    assert abs(float(rows["gravity"][3]) - float(rows["gravity"][2])) > 0.1


def test_figure_suite_expon_op_unstable(tmp_path):
    run_figure("expon_op", tmp_path / "out")
    report = json.loads((tmp_path / "out" / "expon_op_report.json").read_text())
    assert report["estimate"]["verdict"] == "unstable-suspect-violation"
    # figures writes what estimate writes for the same config, and nothing else
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "expon_op_report.json", "expon_op_trace.csv"]
    cfg = replace(figure_config("expon_op"), output_trace_path=str(tmp_path / "trace.csv"),
                  output_report_path=str(tmp_path / "report.json"))
    path = tmp_path / "expon_op.cfg"
    path.write_text(config_text(cfg.effective_dict()))
    assert main(["estimate", str(path)]) == EXIT_OK
    assert (tmp_path / "trace.csv").read_bytes() == (
        tmp_path / "out" / "expon_op_trace.csv").read_bytes()
    estimated = json.loads((tmp_path / "report.json").read_text())
    for key in ("output.trace_path", "output.report_path"):
        del estimated["config"][key], report["config"][key]
    assert estimated == report


def test_figure_suite_diag2_stable_estimate(tmp_path):
    columns = run_figure("diag2", tmp_path)
    report = json.loads((tmp_path / "diag2_report.json").read_text())
    assert report["estimate"]["verdict"] == "stable"
    assert abs(report["estimate"]["mu_hat"] - 0.375) <= 0.05
    assert report["problem"]["mu_exact"] == pytest.approx(0.375)
    # the source element is known here, so the trace carries all four bound series
    assert all(columns[key][0] for key in ("residual", "error", "lower_bound", "upper_bound"))


def test_svd_check_subcommand(tmp_path):
    text = ("problem.kind = power_law\nproblem.n = 2000\nproblem.eta = 2\nproblem.beta = 2\n")
    path, _, report_path = write_cfg(tmp_path, text)
    assert main(["svd-check", str(path)]) == EXIT_OK
    report = json.loads(report_path.read_text())
    assert report["svd_check"]["mu_max_refined"] == pytest.approx(0.375, abs=0.05)
    assert len(report["svd_check"]["mu_tested"]) == len(report["svd_check"]["admissible"])
    assert report["svd_check"]["decomposition"] == "canonical"


@pytest.mark.parametrize("problem, decomposition", [
    (lambda tmp: "problem.kind = gravity\nproblem.n = 512\n", "block"),
    (lambda tmp: "problem.kind = gravity\nproblem.n = 256\n", "centro"),
    (lambda tmp: "problem.kind = deriv2\nproblem.n = 512\n", "dst"),
    (lambda tmp: ingested_deriv2(tmp, 512), "centro"),
    (lambda tmp: ingested_deriv2(tmp, 1000), "eigh"),
], ids=[
    "gravity-512-block",     # 49 modes above the floor, from 64 columns
    "gravity-256-centro",    # under 8 blocks, and its own mirror on 2^k cells
    "deriv2-512-dst",        # the built-in problem's own sine basis
    "deriv2-512-centro",     # its matrix ingested: every mode above the floor, no block
    "deriv2-1000-eigh",      # its matrix ingested, 1 ulp from its mirror: the full eigh
])
def test_svd_check_reports_its_decomposition(tmp_path, problem, decomposition):
    text = problem(tmp_path)
    path, _, report_path = write_cfg(tmp_path, text)
    assert main(["svd-check", str(path)]) == EXIT_OK
    section = json.loads(report_path.read_text())["svd_check"]
    assert section["decomposition"] == decomposition
    if "gravity" in text:
        assert section["retained_singular_values"] == 49


@pytest.mark.parametrize("command", ["estimate", "svd-check"])
@pytest.mark.parametrize("rows, note", [
    (3, "skipped: spectral decomposition too small for the summability test"),
    (6, "skipped: the data have no part on any retained singular vector"),
])
def test_svd_check_that_cannot_run_is_skipped(tmp_path, command, rows, note):
    # 3x3: too few modes. 6x4 with y = e_5: the clean data lie outside the
    # range of A, and only the noise gives the iteration something to fit.
    a = np.zeros((rows, min(rows, 4)))
    np.fill_diagonal(a, [1.0, 0.5, 0.25, 0.125][:a.shape[1]])
    y = a.sum(axis=1) if rows == 3 else np.eye(rows)[4]
    write_matrix_market(tmp_path / "a.mtx", a)
    write_vector(tmp_path / "y.txt", y)
    text = (f"problem.kind = external\nproblem.matrix_path = {tmp_path / 'a.mtx'}\n"
            f"problem.y_path = {tmp_path / 'y.txt'}\nnoise.rel_level = 0.01\n"
            "validation.run_svd_check = true\nlandweber.max_iters = 200\n")
    path, trace_path, report_path = write_cfg(tmp_path, text)
    assert main([command, str(path)]) == EXIT_OK
    assert json.loads(report_path.read_text())["svd_check"] == {"note": note}
    assert trace_path.exists() == (command == "estimate")


@pytest.mark.parametrize("command", ["estimate", "svd-check"])
def test_svd_check_skips_data_off_the_range_up_to_rounding(tmp_path, command):
    # A = Q[:, :8] diag(1/i) and y = Q[:, 10]: the coefficients <y, u_i> are
    # rounding (at most a few 1e-16 against ||y|| = 1), not data to grade
    q = np.linalg.qr(np.random.default_rng(0).standard_normal((12, 12)))[0]
    a = q[:, :8] / np.arange(1.0, 9.0)
    assert np.abs(q[:, :8].T @ q[:, 10]).max() < 1e-15
    write_matrix_market(tmp_path / "a.mtx", a)
    write_vector(tmp_path / "y.txt", q[:, 10])
    text = (f"problem.kind = external\nproblem.matrix_path = {tmp_path / 'a.mtx'}\n"
            f"problem.y_path = {tmp_path / 'y.txt'}\nnoise.rel_level = 0.01\n"
            "validation.run_svd_check = true\nlandweber.max_iters = 200\n")
    path, _, report_path = write_cfg(tmp_path, text)
    assert main([command, str(path)]) == EXIT_OK
    assert json.loads(report_path.read_text())["svd_check"] == {
        "note": "skipped: the data have no part on any retained singular vector"}


# Config-text fuzz: every line is a known key with a valid, garbage,
# negative, non-finite or empty value, an unknown key, or a line without
# '='. No drawn value raises problem.n above 64 or landweber.max_iters above
# 300, so no run is expensive. Input paths are drawn as placeholders that
# name a file of a small external problem, or one that does not exist.
_GARBAGE = st.sampled_from(["", "abc", "-1", "-0.5", "0", "nan", "inf", "-inf",
                            "1e400", "1, 2", "true"])
_NUMBERS = st.floats(-1.0, 5.0).map(repr)
_INPUTS = ("a.mtx", "y.txt", "x.txt", "absent.mtx")
_FUZZ_VALUES = {
    "problem.kind": st.sampled_from(["power_law", "exp_solution", "exp_operator",
                                     "deriv2", "gravity", "external", "mystery"]),
    "problem.n": st.integers(-2, 64).map(str),
    "problem.eta": _NUMBERS,
    "problem.beta": _NUMBERS,
    "problem.depth": _NUMBERS,
    "problem.matrix_path": st.sampled_from([f"<{f}>" for f in _INPUTS]),
    "problem.y_path": st.sampled_from([f"<{f}>" for f in _INPUTS]),
    "problem.x_true_path": st.sampled_from([f"<{f}>" for f in _INPUTS]),
    "noise.rel_level": st.floats(-0.1, 0.5).map(repr),
    "noise.seed": st.integers(-2, 100).map(str),
    "landweber.max_iters": st.integers(-2, 300).map(str),
    "estimator.k_min": st.integers(-1, 320).map(str),
    "estimator.w_min": st.integers(-1, 320).map(str),
    "estimator.eps_mu": _NUMBERS,
    "estimator.eps_c_rel": _NUMBERS,
    "validation.run_tikhonov": st.sampled_from(["true", "false", "yes", "0"]),
    "validation.run_svd_check": st.sampled_from(["true", "false", "yes", "0"]),
    "validation.levels": st.lists(st.floats(-0.1, 1.1), max_size=5).map(
        lambda v: ", ".join(map(repr, v))),
    "validation.seeds": st.lists(st.integers(-2, 9), max_size=4).map(
        lambda v: ", ".join(map(str, v))),
}
_VALID_LINE = st.sampled_from(sorted(_FUZZ_VALUES)).flatmap(
    lambda key: _FUZZ_VALUES[key].map(f"{key} = {{}}".format))
_BAD_LINE = st.one_of(
    st.builds("{} = {}".format, st.sampled_from(sorted(_FUZZ_VALUES)), _GARBAGE),
    st.sampled_from(["problem.size = 3", "noise.wat = 1", "problem.n", "just words"]))
# mostly valid lines, so that most configs get past the parser
_FUZZ_LINE = st.one_of(_VALID_LINE, _VALID_LINE, _VALID_LINE, _VALID_LINE, _BAD_LINE)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lines=st.lists(_FUZZ_LINE, max_size=8))
def test_fuzzed_config_exits_cleanly(lines):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        p = make_gravity(8)
        write_matrix_market(out / "a.mtx", p.operator.matrix)
        write_vector(out / "y.txt", p.y_clean)
        write_vector(out / "x.txt", p.x_true)
        text = "\n".join(["problem.n = 64", "landweber.max_iters = 300", *lines,
                          f"output.trace_path = {out / 'trace.csv'}",
                          f"output.report_path = {out / 'report.json'}"])
        for name in _INPUTS:
            text = text.replace(f"<{name}>", str(out / name))
        (out / "run.cfg").write_text(text + "\n")
        code = main(["estimate", str(out / "run.cfg")])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_IO)
        if (out / "report.json").exists():
            json.loads((out / "report.json").read_text(), parse_constant=_reject_constant)
