"""The lazy package namespace: every public name resolves on first access."""
import importlib

import pytest

import qfrac

#: the names ``qfrac/__init__.py`` exported when it still imported eagerly
PUBLIC = {
    "errors": [
        "BoundaryError", "DivergenceError", "DomainError", "GridMismatchError",
        "InputFormatError", "NonConvergenceError", "PoleError", "PreconditionError",
        "QFracError", "RangeError", "StepError",
    ],
    "gronwall": [
        "BoundResult", "ComparisonInput", "ComparisonReport", "DependenceReport",
        "GronwallInput", "check_sart", "dependence_experiment", "gronwall_bound",
        "march_integral_equation", "q_gronwall_classical", "sart_bound",
        "verify_comparison",
    ],
    "operators": [
        "OmegaOp", "OperatorKernel", "build_kernel", "caputo_derivative",
        "caputo_inverse_identity_check", "fractional_integral", "nabla_derivative",
        "nabla_integral", "omega_apply", "omega_power_one_closed",
    ],
    "qcore": [
        "DEFAULT_TOL", "FracOrder", "GridFn", "QGrid", "Tolerance", "gamma_q",
        "make_grid", "product_truncation_index", "q_bracket", "q_factorial_power",
        "q_pochhammer",
    ],
    "solver": [
        "LinearIVP", "NonlinearIVP", "SolveReport", "linear_defect",
        "linear_picard_step", "nonlinear_defect", "solve_linear_closed",
        "solve_linear_iterative", "solve_marching",
    ],
    "special": [
        "MLResult", "MLSpec", "convergence_ratio_estimate", "mittag_leffler",
        "mittag_leffler_modified", "q_exp_big", "q_exp_small",
    ],
    "verify": ["available_suites", "run_suite"],
}
CASES = [(module, name) for module, names in PUBLIC.items() for name in names]


@pytest.mark.parametrize("module, name", CASES, ids=[name for _, name in CASES])
def test_public_name_resolves_to_its_home(module, name):
    ns: dict = {}
    exec(f"from qfrac import {name}", ns)
    home = importlib.import_module(f"qfrac.{module}")
    assert ns[name] is getattr(home, name)
    assert getattr(qfrac, name) is ns[name]
    assert name in dir(qfrac)


def test_all_lists_the_public_names_and_version():
    assert sorted(qfrac.__all__) == sorted(name for _, name in CASES)
    assert qfrac.__version__ == "0.1.0"


def test_submodules_resolve_as_attributes():
    for module in [*PUBLIC, "cli"]:
        assert getattr(qfrac, module) is importlib.import_module(f"qfrac.{module}")
        assert module in dir(qfrac)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qfrac.no_such_name
    with pytest.raises(ImportError):
        exec("from qfrac import no_such_name", {})
