"""The argument rules of the README's numerical policy, one table per rule.

An integer (a grid index, a count or a seed) is a Python or numpy int, not a
bool or a float; a grid index lies in [0, N); a scalar parameter is finite.
Each public function that takes such an argument is listed once per rule:
a float or bool integer, or a non-finite scalar, raises DomainError; an
out-of-range grid index raises the class of its module (DomainError in
gronwall and solver, BoundaryError in operators); a numpy int gives the
result of the Python int it equals.
"""
import dataclasses
import json
import math

import numpy as np
import pytest

from qfrac.errors import BoundaryError, DomainError
from qfrac.gronwall import (
    ComparisonInput,
    GronwallInput,
    dependence_experiment,
    gronwall_bound,
    march_integral_equation,
    q_gronwall_classical,
    verify_comparison,
)
from qfrac.operators import (
    build_kernel,
    caputo_derivative,
    caputo_inverse_identity_check,
    nabla_derivative,
    nabla_integral,
    omega_power_one_closed,
)
from qfrac.qcore import (
    FracOrder,
    GridFn,
    QGrid,
    Tolerance,
    gamma_q,
    make_grid,
    product_truncation_index,
    q_bracket,
    q_factorial_power,
    q_pochhammer,
)
from qfrac.solver import (
    LinearIVP,
    NonlinearIVP,
    solve_linear_closed,
    solve_linear_iterative,
    solve_marching,
)
from qfrac.special import (
    MLSpec,
    convergence_ratio_estimate,
    mittag_leffler,
    mittag_leffler_modified,
    q_exp_big,
    q_exp_small,
)
from qfrac.verify import run_suite

GRID = make_grid(0.5, 11, 12)
F = GridFn(GRID, GRID.t)
ORDER = FracOrder(0.5)
MU = GridFn.constant(GRID, 0.3)
ZERO = GridFn.constant(GRID, 0.0)


def _linear(a_index=0, lam=0.3, y0=1.0):
    return LinearIVP(alpha=ORDER, lam=lam, a_index=a_index, y0=y0, forcing=F)


def _nonlinear(a_index=0, y0=1.0, lipschitz=0.3):
    return NonlinearIVP(grid=GRID, alpha=ORDER, a_index=a_index, y0=y0,
                        rhs=lambda t, y: 0.3 * y + t, lipschitz=lipschitz)


def _dependence(a_index=0, gamma=1.0, beta=0.5, lipschitz=0.5):
    return dependence_experiment(GRID, a_index, ORDER, gamma, beta,
                                 lambda t, y: lipschitz * math.sin(y), lipschitz)


def _bytes(result):
    """A comparable form of any result of the calls below."""
    if isinstance(result, GridFn):
        return result.values.tobytes()
    if dataclasses.is_dataclass(result):
        return tuple(_bytes(getattr(result, f.name)) for f in dataclasses.fields(result))
    if isinstance(result, np.ndarray):
        return result.tobytes()
    if isinstance(result, (tuple, list)):
        return tuple(map(_bytes, result))
    return repr(result)


#: (name, call with the grid index, class an out-of-range index raises)
INDEX_CALLS = [
    ("gronwall_bound", lambda i: gronwall_bound(GronwallInput(F, MU, ORDER, i)), DomainError),
    ("verify_comparison",
     lambda i: verify_comparison(ComparisonInput(F, F, ZERO, ORDER, i)), DomainError),
    ("q_gronwall_classical", lambda i: q_gronwall_classical(F, MU, i), DomainError),
    ("dependence_experiment", lambda i: _dependence(a_index=i), DomainError),
    ("solve_linear_closed", lambda i: solve_linear_closed(_linear(i)), DomainError),
    ("solve_linear_iterative", lambda i: solve_linear_iterative(_linear(i)), DomainError),
    ("solve_marching", lambda i: solve_marching(_nonlinear(i)), DomainError),
    ("build_kernel", lambda i: build_kernel(GRID, i, ORDER), BoundaryError),
    ("nabla_derivative", lambda i: nabla_derivative(F, i), BoundaryError),
    ("nabla_integral to", lambda i: nabla_integral(F, 0, i), BoundaryError),
    ("nabla_integral from", lambda i: nabla_integral(F, i, GRID.count - 1), BoundaryError),
    ("caputo_derivative", lambda i: caputo_derivative(F, i, ORDER), BoundaryError),
    ("caputo_derivative integer order",
     lambda i: caputo_derivative(F, i, FracOrder(1.0)), BoundaryError),
    ("caputo_inverse_identity_check",
     lambda i: caputo_inverse_identity_check(F, i, ORDER), BoundaryError),
    ("omega_power_one_closed",
     lambda i: omega_power_one_closed(0.3, 2, ORDER, GRID, i), BoundaryError),
]
INDEX_IDS = [name for name, _, _ in INDEX_CALLS]


@pytest.mark.parametrize("bad", [1.5, 2.0, True, np.float64(2.0)], ids=repr)
@pytest.mark.parametrize("name,call,_", INDEX_CALLS, ids=INDEX_IDS)
def test_index_that_is_not_an_integer_is_a_domain_error(name, call, _, bad):
    with pytest.raises(DomainError, match="must be an integer"):
        call(bad)


@pytest.mark.parametrize("bad", [-1, GRID.count, GRID.count + 8])
@pytest.mark.parametrize("name,call,error", INDEX_CALLS, ids=INDEX_IDS)
def test_index_outside_the_grid_raises_the_class_of_its_module(name, call, error, bad):
    with pytest.raises(error) as exc:
        call(bad)
    assert type(exc.value) is error


@pytest.mark.parametrize("name,call,_", INDEX_CALLS, ids=INDEX_IDS)
def test_index_as_numpy_int_gives_the_python_int_result(name, call, _):
    assert _bytes(call(np.int64(2))) == _bytes(call(2))


def test_out_of_range_index_message_names_the_grid_size():
    with pytest.raises(DomainError, match="a_index 20 outside grid of 12 points"):
        _linear(20)
    with pytest.raises(BoundaryError, match="at_index 20 outside grid of 12 points"):
        nabla_derivative(F, 20)


#: (name, call with the integer argument, a valid value of it)
COUNT_CALLS = [
    ("make_grid n_start", lambda n: make_grid(0.5, n, 3).points, 2),
    ("make_grid count", lambda n: make_grid(0.5, 2, n).points, 3),
    ("QGrid n_start", lambda n: QGrid(0.5, n, (0.25, 0.5)).points, 2),
    ("Tolerance max_terms", lambda n: gamma_q(0.37, 0.5, Tolerance(max_terms=n)), 200),
    ("q_pochhammer n", lambda n: q_pochhammer(0.5, n), 3),
    ("product_truncation_index max_terms", lambda n: product_truncation_index(0.5, n), 20),
    ("omega_power_one_closed n", lambda n: omega_power_one_closed(0.3, n, ORDER, GRID, 0), 3),
    ("solve_linear_iterative max_iter", lambda n: solve_linear_iterative(_linear(), n), 200),
    ("solve_marching max_inner", lambda n: solve_marching(_nonlinear(), max_inner=n), 100),
    ("run_suite seed", lambda n: json.dumps(run_suite("gamma", seed=n), sort_keys=True), 7),
    ("run_suite cases",
     lambda n: json.dumps(run_suite("lemma22", seed=7, cases=n), sort_keys=True), 3),
]
COUNT_IDS = [name for name, _, _ in COUNT_CALLS]


@pytest.mark.parametrize("bad", [2.5, 2.0, True], ids=repr)
@pytest.mark.parametrize("name,call,_", COUNT_CALLS, ids=COUNT_IDS)
def test_integer_argument_that_is_not_an_integer_is_a_domain_error(name, call, _, bad):
    with pytest.raises(DomainError, match="must be an integer"):
        call(bad)


@pytest.mark.parametrize("name,call,good", COUNT_CALLS, ids=COUNT_IDS)
def test_integer_argument_as_numpy_int_gives_the_python_int_result(name, call, good):
    assert _bytes(call(np.int64(good))) == _bytes(call(good))


def test_run_suite_with_numpy_seed_and_cases_prints_the_same_bytes():
    want = json.dumps(run_suite("all", seed=7, cases=2), sort_keys=True)
    assert json.dumps(run_suite("all", seed=np.int64(7), cases=np.int32(2)), sort_keys=True) == want


SPEC = dict(alpha=0.5, beta=1.0, lam=0.3, t0=0.0)
ESTIMATE = dict(alpha=0.5, q=0.5, t=1.0, a=0.1, lam=0.3)
FACTORIAL_POWER = dict(t=1.0, s=0.1, nu=0.5, q=0.5)

#: (name, call with the scalar parameter)
SCALAR_CALLS = [
    ("Tolerance rel_tol", lambda x: Tolerance(rel_tol=x)),
    ("Tolerance abs_tol", lambda x: Tolerance(abs_tol=x)),
    ("FracOrder alpha", lambda x: FracOrder(x)),
    *((f"MLSpec {k}", lambda x, k=k: MLSpec(**{**SPEC, k: x})) for k in SPEC),
    ("make_grid q", lambda x: make_grid(x, 2, 3)),
    ("q_bracket r", lambda x: q_bracket(x, 0.5)),
    ("gamma_q alpha", lambda x: gamma_q(x, 0.5)),
    ("mittag_leffler t", lambda x: mittag_leffler(MLSpec(**SPEC), x, 0.5)),
    ("mittag_leffler_modified t", lambda x: mittag_leffler_modified(MLSpec(**SPEC), x, 0.5)),
    ("q_exp_small t", lambda x: q_exp_small(x, 0.5)),
    ("q_exp_big t", lambda x: q_exp_big(x, 0.5)),
    *((f"convergence_ratio_estimate {k}",
       lambda x, k=k: convergence_ratio_estimate(**{**ESTIMATE, k: x}))
      for k in ("alpha", "t", "a", "lam")),
    *((f"q_factorial_power {k}", lambda x, k=k: q_factorial_power(**{**FACTORIAL_POWER, k: x}))
      for k in ("t", "s", "nu")),
    ("omega_power_one_closed lam", lambda x: omega_power_one_closed(x, 2, ORDER, GRID, 0)),
    ("LinearIVP lam", lambda x: _linear(lam=x)),
    ("LinearIVP y0", lambda x: _linear(y0=x)),
    ("NonlinearIVP y0", lambda x: _nonlinear(y0=x)),
    ("NonlinearIVP lipschitz", lambda x: _nonlinear(lipschitz=x)),
    ("march_integral_equation y_a",
     lambda x: march_integral_equation(build_kernel(GRID, 0, ORDER), MU, x)),
    ("verify_comparison tol",
     lambda x: verify_comparison(ComparisonInput(F, F, ZERO, ORDER, 0), x)),
    ("dependence_experiment gamma", lambda x: _dependence(gamma=x)),
    ("dependence_experiment beta", lambda x: _dependence(beta=x)),
    ("dependence_experiment lipschitz", lambda x: _dependence(lipschitz=x)),
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("name,call", SCALAR_CALLS, ids=[name for name, _ in SCALAR_CALLS])
def test_scalar_that_is_not_finite_is_a_domain_error(name, call, bad):
    with pytest.raises(DomainError):
        call(bad)
