"""CLI contract tests: commands, exit codes, CSV/JSON shape, round-tripping,
and byte-level determinism."""
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from qfrac.cli import main
from qfrac.gronwall import sart_bound
from qfrac.qcore import FracOrder, make_grid

from oracles import ref_Eq_product, ref_ml, ref_ml_from_zero


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


# -------------------------------------------------------------------- eval

def test_eval_gamma(runner):
    res = invoke(runner, "eval", "gamma", "--q", "0.5", "--alpha", "3")
    assert res.exit_code == 0
    lines = res.output.strip().split("\n")
    assert lines[0] == "input,value,terms_used"
    assert lines[1].split(",")[1] == "1.5"


def test_eval_ml_trivial(runner):
    res = invoke(
        runner, "eval", "ml", "--alpha", "0.5", "--beta", "1",
        "--lambda", "0", "--q", "0.5", "--t", "1",
    )
    assert res.exit_code == 0
    assert res.output.strip().split("\n")[1].split(",")[1] == "1"


def test_eval_Eq_matches_reference(runner):
    res = invoke(runner, "eval", "Eq", "--q", "0.5", "--t", "0.5")
    assert res.exit_code == 0
    value = float(res.output.strip().split("\n")[1].split(",")[1])
    assert value == pytest.approx(float(ref_Eq_product(0.5, 0.5)), rel=1e-12)


def test_eval_eq_negative_t_does_not_cancel(runner):
    # e_q(-19) at q = 0.95 through E_q(-0.95); 50-digit value 1.5340944953883362e-07
    res = invoke(runner, "eval", "eq", "--t", "-19", "--q", "0.95")
    assert res.exit_code == 0
    value = float(res.output.strip().split("\n")[1].split(",")[1])
    assert value == pytest.approx(1.5340944953883362e-07, rel=1e-13, abs=0.0)


def test_eval_eq_near_q_one(runner):
    # the E_q product would need ~36,000 factors here; the series takes over
    res = invoke(runner, "eval", "eq", "--t", "1", "--q", "0.999")
    assert res.exit_code == 0
    value = float(res.output.strip().split("\n")[1].split(",")[1])
    assert value == pytest.approx(2.718962126489267, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("t, want", [
    # 50-digit references: the series at t > 0, the product at t < 0
    ("0.5", 7.7258448945048501070663571703603492815311469378499e252),
    ("-0.5", 1.8429551710145262939631080958843248883380743916267e-195),
])
def test_eval_Eq_near_q_one(runner, t, want):
    # the product needs 36,026 factors, past max_terms: the series takes over
    res = invoke(runner, "eval", "Eq", "--t", t, "--q", "0.999")
    assert res.exit_code == 0, res.output
    value = float(res.output.strip().split("\n")[1].split(",")[1])
    assert value == pytest.approx(want, rel=1e-12, abs=0.0)


def test_eval_json_format(runner):
    res = invoke(runner, "eval", "eq", "--q", "0.5", "--t", "1", "--format", "json")
    payload = json.loads(res.output)
    assert payload["kind"] == "eq"
    assert payload["rows"][0]["value"] == pytest.approx(3.4627466194550636, rel=1e-11)


def test_eval_missing_parameter_is_input_error(runner):
    res = runner.invoke(main, ["eval", "gamma", "--q", "0.5"])
    assert res.exit_code == 3


def test_eval_domain_error_exit_code(runner):
    res = runner.invoke(main, ["eval", "gamma", "--q", "0.5", "--alpha", "-1"])
    assert res.exit_code == 2


@pytest.mark.parametrize("args", [
    ["eval", "gamma", "--alpha", "1100", "--q", "0.5"],
])
def test_eval_gamma_overflow_is_range_error(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 1
    assert json.loads(res.stderr)["error"] == "RangeError"
    assert res.stdout == ""


ML_PAST_GAMMA_OVERFLOW = ["eval", "ml", "--alpha", "0.5", "--beta", "1", "--q", "0.5", "--t", "1"]


def test_eval_ml_past_gamma_q_overflow_matches_reference(runner):
    # term ratio 0.99: Gamma_q(0.5 k + 1) leaves the float range at k = 2052,
    # before the series converges; the value itself is about 335
    res = runner.invoke(main, ML_PAST_GAMMA_OVERFLOW + ["--lambda", "1.4"])
    assert res.exit_code == 0, res.stderr
    _, value, terms = res.stdout.strip().split("\n")[1].rsplit(",", 2)
    assert int(terms) > 2052
    want = float(ref_ml_from_zero(0.5, 1.0, 1.4, 1.0, 0.5, terms=8000))
    assert float(value) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_eval_ml_past_gamma_q_overflow_refuses_a_partial_sum(runner):
    # term ratio 0.9991 needs ~40,000 terms, more than max_terms
    res = runner.invoke(main, ML_PAST_GAMMA_OVERFLOW + ["--lambda", "1.413"])
    assert res.exit_code == 1
    assert json.loads(res.stderr)["error"] == "NonConvergenceError"
    assert res.stdout == ""


def test_eval_gamma_near_one_refuses_truncated_product(runner):
    res = runner.invoke(main, ["eval", "gamma", "--alpha", "0.5", "--q", "0.999"])
    assert res.exit_code == 1
    assert json.loads(res.stderr)["error"] == "NonConvergenceError"


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("args", [
    ["eval", "Eq", "--q", "0.5", "--t", "{}"],
    ["eval", "gamma", "--q", "{}", "--alpha", "2"],
    ["solve", "--problem", "linear", "--lambda", "{}", "--steps", "6"],
    ["solve", "--y0", "{}", "--steps", "6"],
    ["demo", "--L", "{}"],
])
def test_nonfinite_flag_exit_3(runner, args, bad):
    res = runner.invoke(main, [a.format(bad) for a in args])
    assert res.exit_code == 3
    assert json.loads(res.stderr)["error"] == "InputFormatError"


@pytest.mark.parametrize("line", ["lambda=nan", "y0=inf", "alpha=-inf", "tol=nan"])
def test_nonfinite_config_value_exit_3(runner, tmp_path, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    res = runner.invoke(main, ["solve", "--steps", "6", "--config", str(cfg)])
    assert res.exit_code == 3
    assert json.loads(res.stderr)["error"] == "InputFormatError"


# -------------------------------------------------------------------- solve

def test_solve_constant_problem(runner):
    res = invoke(
        runner, "solve", "--problem", "linear", "--lambda", "0", "--y0", "2",
        "--q", "0.5", "--alpha", "0.5", "--steps", "6",
    )
    assert res.exit_code == 0
    lines = res.output.strip().split("\n")
    assert lines[0] == "t,y_closed,y_iter,y_march,defect"
    for line in lines[1:]:
        assert line.split(",")[1] == "2"


def test_solve_methods_agree(runner):
    res = invoke(
        runner, "solve", "--problem", "linear", "--alpha", "0.5", "--lambda", "0.4",
        "--q", "0.5", "--steps", "12",
    )
    lines = res.output.strip().split("\n")
    for line in lines[1:]:
        cells = [float(c) for c in line.split(",")]
        assert abs(cells[1] - cells[2]) <= 1e-8  # closed vs iterative
        assert abs(cells[1] - cells[3]) <= 1e-8  # closed vs marching


def test_solve_nonlinear_defect_column(runner):
    res = invoke(
        runner, "solve", "--problem", "sin", "--lambda", "0.5", "--q", "0.5",
        "--alpha", "0.5", "--steps", "12",
    )
    lines = res.output.strip().split("\n")
    assert lines[0] == "t,y_march,defect"
    for line in lines[1:]:
        assert float(line.split(",")[-1]) <= 1e-8


def test_solve_rows_increase_in_t(runner):
    res = invoke(runner, "solve", "--steps", "8")
    ts = [float(line.split(",")[0]) for line in res.output.strip().split("\n")[1:]]
    assert ts == sorted(ts)


def test_solve_divergent_window_fails_without_output(runner):
    res = runner.invoke(
        main,
        ["solve", "--problem", "linear", "--alpha", "0.5", "--lambda", "0.9",
         "--q", "0.5", "--steps", "8", "--n-start", "0"],  # window up to t = 128
    )
    assert res.exit_code == 1
    assert "t," not in res.output  # no partial table


# -------------------------------------------------------------------- bound

def test_bound_constant_mu_matches_eval_ml(runner, tmp_path):
    solve_csv = invoke(
        runner, "solve", "--problem", "linear", "--lambda", "0", "--y0", "1",
        "--q", "0.5", "--alpha", "0.5", "--steps", "8", "--methods", "march",
    ).output
    path = tmp_path / "table.csv"
    path.write_text(solve_csv, encoding="utf-8")
    res = invoke(runner, "bound", str(path), "--q", "0.5", "--alpha", "0.5", "--mu", "0.4")
    assert res.exit_code == 0
    lines = [ln for ln in res.output.strip().split("\n") if not ln.startswith("#")]
    assert lines[0] == "t,v,bound,satisfied"
    a = float(lines[1].split(",")[0])
    for line in lines[1:]:
        t, v, bound, flag = line.split(",")
        want = float(ref_ml(0.5, 1, 0.4, float(t), a, 0.5))
        assert float(bound) == pytest.approx(want, rel=1e-10)
        assert flag == "true"
        # cross-command consistency: the same value through `eval ml`
        ml = invoke(
            runner, "eval", "ml", "--alpha", "0.5", "--lambda", "0.4",
            "--q", "0.5", "--t", t, "--t0", str(a),
        )
        ml_value = float(ml.output.strip().split("\n")[1].split(",")[1])
        assert float(bound) == pytest.approx(ml_value, rel=1e-10)
    assert res.output.strip().split("\n")[-1].startswith("# max_violation=")


def test_bound_overflow_is_one_json_error_on_stderr(tmp_path):
    # v(a) * series overflows; the process must not print a numpy warning
    # ahead of the JSON error (run as a process, with default warning filters)
    path = tmp_path / "v.csv"
    path.write_text("t,v\n0.5,1e308\n1,1e308\n")
    proc = subprocess.run(
        [sys.executable, "-m", "qfrac", "bound", str(path), "--q", "0.5", "--alpha", "0.5",
         "--mu", "1.0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert json.loads(proc.stderr)["error"] == "DivergenceError"


def test_bound_zero_mu_column(runner, tmp_path):
    rows = ["t,v,mu"]
    ts = [0.5 ** (3 - k) for k in range(4)]
    for t in ts:
        rows.append(f"{t},1.0,0.0")
    path = tmp_path / "table.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    res = invoke(runner, "bound", str(path), "--q", "0.5", "--alpha", "0.5")
    lines = [ln for ln in res.output.strip().split("\n") if not ln.startswith("#")]
    for line in lines[1:]:
        assert line.split(",")[2] == "1"  # bound column constant v(a)


def test_bound_malformed_t_column_exit_3(runner, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,v\n0.7,1\n1.3,1\n", encoding="utf-8")
    res = runner.invoke(main, ["bound", str(path), "--q", "0.5", "--alpha", "0.5", "--mu", "0.1"])
    assert res.exit_code == 3


@pytest.mark.parametrize("q", ["1", "0", "-0.5", "1.5"])
def test_bound_base_outside_the_unit_interval_exit_2(runner, tmp_path, q):
    # the t column's anchor is read through log(q), which 1, 0 and -0.5 broke
    path = tmp_path / "v.csv"
    path.write_text("t,v\n0.5,1\n1,1\n", encoding="utf-8")
    res = runner.invoke(main, ["bound", str(path), "--q", q, "--alpha", "0.5", "--mu", "0.1"])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.count("\n") == 1
    assert json.loads(res.stderr) == {
        "error": "DomainError", "message": f"base q must lie in (0, 1), got {float(q)!r}"
    }


def test_bound_sart_violation_exit_2(runner, tmp_path):
    path = tmp_path / "sart.csv"
    path.write_text("t,v,mu\n0.5,1,9\n1,1,9\n", encoding="utf-8")
    res = runner.invoke(main, ["bound", str(path), "--q", "0.5", "--alpha", "0.5"])
    assert res.exit_code == 2


def test_bound_computed_diagonal_not_positive_exit_2(runner, tmp_path):
    # mu one ulp below the analytic ceiling at index 1, where the computed
    # factor 1 - W_ii mu_i is not positive: refused, not a negative bound
    grid = make_grid(0.9, 6, 8)
    ceiling = sart_bound(grid, FracOrder(0.9))
    mu = 0.5 * ceiling
    mu[1] = np.nextafter(ceiling[1], 0.0)
    rows = ["t,v,mu"] + [f"{t!r},1.0,{m!r}" for t, m in zip(grid.points, mu.tolist())]
    path = tmp_path / "edge.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    res = runner.invoke(main, ["bound", str(path), "--q", "0.9", "--alpha", "0.9"])
    assert res.exit_code == 2
    assert res.stdout == ""
    error = json.loads(res.stderr)
    assert error["error"] == "PreconditionError"
    assert error["indices"] == [1]


def test_bound_max_terms_is_deprecated_and_ignored(runner, tmp_path):
    # the deprecation has run its course: the flag is gone, so click rejects
    # it, and the config key is ignored like any key a command does not read
    path = tmp_path / "table.csv"
    path.write_text(invoke(runner, "solve", "--problem", "sin", "--lambda", "0.5",
                           "--steps", "12", "--methods", "march").stdout, encoding="utf-8")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max_terms=64\n", encoding="utf-8")
    args = ["bound", str(path), "--q", "0.5", "--alpha", "0.5", "--mu", "0.4"]
    plain = runner.invoke(main, args)
    assert plain.exit_code == 0
    assert plain.stderr == ""
    flag = runner.invoke(main, args + ["--max-terms", "64"])
    assert flag.exit_code == 2
    assert "No such option" in flag.stderr and "--max-terms" in flag.stderr
    res = runner.invoke(main, args + ["--config", str(cfg)])
    assert res.exit_code == 0
    assert res.stdout == plain.stdout
    assert res.stderr == ""


def test_bound_missing_mu_exit_3(runner, tmp_path):
    path = tmp_path / "nomu.csv"
    path.write_text("t,v\n0.5,1\n1,1\n", encoding="utf-8")
    res = runner.invoke(main, ["bound", str(path), "--q", "0.5", "--alpha", "0.5"])
    assert res.exit_code == 3


def test_bound_nan_cell_exit_3(runner, tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("t,v\n0.5,1\n1,nan\n", encoding="utf-8")
    res = runner.invoke(main, ["bound", str(path), "--q", "0.5", "--alpha", "0.5", "--mu", "0.1"])
    assert res.exit_code == 3
    assert json.loads(res.output)["error"] == "InputFormatError"


# ------------------------------------------------------------------- verify

def test_verify_suite_clean(runner):
    res = invoke(runner, "verify", "lemma1", "--seed", "7")
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert report["suite"] == "lemma1"
    assert report["seed"] == 7
    assert report["failures"] == []
    assert report["cases"] > 0


def test_verify_gronwall_with_case_override(runner):
    res = invoke(runner, "verify", "gronwall", "--seed", "7", "--cases", "20")
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert report["failures"] == []
    assert report["cases"] == 80  # 20 per parameter combination


def test_verify_unknown_suite_exit_3(runner):
    res = runner.invoke(main, ["verify", "nonsense"])
    assert res.exit_code == 3


@pytest.mark.parametrize("args", [
    ["gronwall", "--seed", "-1"],
    ["gronwall", "--cases", "0"],
    ["gronwall", "--cases", "-5"],
    ["gronwall", "--seed", "7", "--cases", "-2"],
    ["gamma", "--cases", "3"],  # a fixed-table suite takes no case count
])
def test_verify_bad_seed_or_case_count_exit_2(runner, args):
    res = runner.invoke(main, ["verify", *args])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.count("\n") == 1
    assert json.loads(res.stderr)["error"] == "DomainError"


def test_verify_all_stdout_is_the_golden_report(runner):
    golden = json.loads(
        (Path(__file__).parent / "data" / "verify_reports_scheme2.json").read_text()
    )
    entry = next(e for e in golden if (e["suite"], e["seed"], e["cases"]) == ("all", 7, None))
    res = invoke(runner, "verify", "all", "--seed", "7")
    assert res.exit_code == 0
    assert res.stdout == json.dumps(json.loads(entry["report"]), sort_keys=True, indent=2) + "\n"


def test_verify_all_deterministic(runner):
    first = invoke(runner, "verify", "all", "--seed", "7", "--cases", "10")
    second = invoke(runner, "verify", "all", "--seed", "7", "--cases", "10")
    assert first.exit_code == 0
    assert first.output == second.output


# --------------------------------------------------------------------- demo

def test_demo_bound_columns(runner):
    res = invoke(
        runner, "demo", "--L", "0.5", "--alpha", "0.5", "--q", "0.5",
        "--gamma", "1", "--beta", "0.9", "--steps", "8",
    )
    assert res.exit_code == 0
    lines = res.output.strip().split("\n")
    assert lines[0] == "t,phi,psi,abs_diff,bound,satisfied"
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[-1] == "true"
        assert abs(float(cells[1]) - float(cells[2])) == pytest.approx(
            float(cells[3]), rel=1e-12, abs=1e-15
        )


def test_demo_equal_initial_values(runner):
    res = invoke(runner, "demo", "--gamma", "1", "--beta", "1", "--steps", "6")
    for line in res.output.strip().split("\n")[1:]:
        assert float(line.split(",")[3]) == 0.0


def test_demo_rejects_bad_lipschitz(runner):
    res = runner.invoke(main, ["demo", "--L", "1.0"])
    assert res.exit_code == 2


# ------------------------------------------------------------------- config

def test_config_file_with_flag_override(runner, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("q=0.5\nalpha=3\n# comment line\n", encoding="utf-8")
    res = invoke(runner, "eval", "gamma", "--config", str(cfg))
    assert res.output.strip().split("\n")[1].split(",")[1] == "1.5"
    res = invoke(runner, "eval", "gamma", "--config", str(cfg), "--alpha", "2")
    assert res.output.strip().split("\n")[1].split(",")[1] == "1"


def test_config_rejects_garbage(runner, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("not a config line\n", encoding="utf-8")
    res = runner.invoke(main, ["eval", "gamma", "--alpha", "1", "--config", str(cfg)])
    assert res.exit_code == 3


# --------------------------------------------------------------- run config

def test_run_config_defaults_and_grid():
    from qfrac.cli import RunConfig, _run_config

    rc = RunConfig()
    grid = rc.grid()
    assert grid.points[-1] == 1.0  # window ends at t = 1 by default
    assert grid.count == 12
    rc = _run_config({"q": "0.3", "steps": "6"}, alpha=0.9)
    assert rc.q == 0.3
    assert rc.alpha == 0.9  # flag wins over default
    assert rc.grid().count == 6


# ------------------------------------------------------------ process-level

def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "qfrac", "eval", "gamma", "--q", "0.5", "--alpha", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().split("\n")[1].split(",")[1] == "1.5"


def test_process_level_determinism():
    cmd = [sys.executable, "-m", "qfrac", "verify", "ratio", "--seed", "7"]
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    assert a.returncode == 0
    assert a.stdout == b.stdout


def test_import_leaves_scipy_out():
    # scipy.linalg alone takes ~0.6 s to import, more than a whole CLI call
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, qfrac; print('scipy' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _modules_after(*argv):
    """Top-level modules a fresh interpreter imported running ``python argv``,
    read from ``-X importtime``, which names every module on stderr."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, {
        line.rsplit("|", 1)[1].strip().split(".")[0]
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


def test_import_leaves_numpy_out():
    # numpy takes ~0.1-0.16 s to import; the package imports its modules lazily
    _, modules = _modules_after("-c", "import qfrac")
    assert "qfrac" in modules
    assert "numpy" not in modules


EVAL_ARGS = {
    "gamma": ["--alpha", "0.5", "--q", "0.5"],
    "gamma-long": ["--alpha", "0.5", "--q", "0.9"],  # a 343-factor product
    "qfac": ["--t", "1", "--s", "0.5", "--nu", "0.5", "--q", "0.9"],
    "ml": ["--alpha", "0.5", "--lambda", "0.4", "--t", "1", "--q", "0.9"],
    "eq": ["--t", "0.8", "--q", "0.9"],
    "Eq": ["--t", "0.5", "--q", "0.9"],
}


@pytest.mark.parametrize("label", sorted(EVAL_ARGS))
def test_eval_process_leaves_numpy_out(label):
    kind = label.split("-")[0]
    out, modules = _modules_after("-m", "qfrac", "eval", kind, *EVAL_ARGS[label])
    assert out.startswith("input,value,terms_used\n")
    assert "numpy" not in modules


def test_verify_import_loads_the_traced_modules():
    # perfbench/tracing.py imports qfrac.verify, then rebinds names in these
    # five modules through sys.modules; verify must keep loading them all
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, qfrac.verify; "
         "print(all(f'qfrac.{m}' in sys.modules "
         "for m in ('qcore', 'operators', 'special', 'solver', 'gronwall')))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


@pytest.mark.parametrize("q", ["0.8", "0.9", "0.95"])
@pytest.mark.parametrize(
    "args",
    [["eval", "gamma", "--alpha", "0.7"], ["eval", "qfac", "--t", "1.3", "--s", "0.4", "--nu", "-0.6"]],
    ids=["gamma", "qfac"],
)
def test_eval_process_matches_numpy_pass(runner, args, q):
    # the process multiplies factor by factor without numpy; in this process
    # numpy is loaded, so the same row comes from the one-pass product
    from qfrac.qcore import NUMPY_PRODUCT_MIN_FACTORS, product_truncation_index

    assert "numpy" in sys.modules
    assert product_truncation_index(float(q)) >= NUMPY_PRODUCT_MIN_FACTORS
    proc = subprocess.run(
        [sys.executable, "-m", "qfrac", *args, "--q", q], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == invoke(runner, *args, "--q", q).output
