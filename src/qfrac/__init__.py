"""Numerical toolkit for q-fractional calculus on geometric time scales.

Grids, q-factorial powers and the q-Gamma function (:mod:`qfrac.qcore`);
nabla q-derivative/integral, fractional integral kernels and the Caputo
derivative (:mod:`qfrac.operators`); q-Mittag-Leffler functions and
q-exponentials (:mod:`qfrac.special`); initial value problem solvers
(:mod:`qfrac.solver`); comparison and Gronwall-type bound verifiers
(:mod:`qfrac.gronwall`); seeded verification suites (:mod:`qfrac.verify`).

The package imports lazily: each public name below, and each submodule,
is imported on first access (PEP 562) and then cached here.  So
``import qfrac`` costs next to nothing, and a scalar evaluation such as
``qfrac.gamma_q`` never loads numpy.
"""
import importlib

_EXPORTS = {
    "errors": (
        "BoundaryError",
        "DivergenceError",
        "DomainError",
        "GridMismatchError",
        "InputFormatError",
        "NonConvergenceError",
        "PoleError",
        "PreconditionError",
        "QFracError",
        "RangeError",
        "StepError",
    ),
    "gronwall": (
        "BoundResult",
        "ComparisonInput",
        "ComparisonReport",
        "DependenceReport",
        "GronwallInput",
        "check_sart",
        "dependence_experiment",
        "gronwall_bound",
        "march_integral_equation",
        "q_gronwall_classical",
        "sart_bound",
        "verify_comparison",
    ),
    "operators": (
        "OmegaOp",
        "OperatorKernel",
        "build_kernel",
        "caputo_derivative",
        "caputo_inverse_identity_check",
        "fractional_integral",
        "nabla_derivative",
        "nabla_integral",
        "omega_apply",
        "omega_power_one_closed",
    ),
    "qcore": (
        "DEFAULT_TOL",
        "FracOrder",
        "GridFn",
        "QGrid",
        "Tolerance",
        "gamma_q",
        "make_grid",
        "product_truncation_index",
        "q_bracket",
        "q_factorial_power",
        "q_pochhammer",
    ),
    "solver": (
        "LinearIVP",
        "NonlinearIVP",
        "SolveReport",
        "linear_defect",
        "linear_picard_step",
        "nonlinear_defect",
        "solve_linear_closed",
        "solve_linear_iterative",
        "solve_marching",
    ),
    "special": (
        "MLResult",
        "MLSpec",
        "convergence_ratio_estimate",
        "mittag_leffler",
        "mittag_leffler_modified",
        "q_exp_big",
        "q_exp_small",
    ),
    "verify": ("available_suites", "run_suite"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("cli", *_EXPORTS)

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_SUBMODULES})
