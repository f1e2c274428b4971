"""Tests for the three initial value problem solvers and their agreement."""
import math

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from qfrac.errors import (
    DivergenceError,
    DomainError,
    NonConvergenceError,
    PreconditionError,
    StepError,
)
from qfrac.operators import build_kernel, caputo_derivative, fractional_integral
from qfrac.qcore import FracOrder, GridFn, Tolerance, gamma_q, make_grid, q_factorial_power
from qfrac.solver import (
    LinearIVP,
    NonlinearIVP,
    linear_defect,
    linear_picard_step,
    solve_linear_closed,
    solve_linear_iterative,
    solve_marching,
)

Q = 0.5
GRID = make_grid(Q, 11, 12)  # window ending at t = 1


def linear_ivp(alpha=0.5, lam=0.4, y0=1.0, forcing=None, grid=GRID):
    if forcing is None:
        forcing = GridFn.constant(grid, 0.0)
    return LinearIVP(alpha=FracOrder(alpha), lam=lam, a_index=0, y0=y0, forcing=forcing)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["lam", "y0"])
def test_linear_ivp_rejects_nonfinite(field, bad):
    with pytest.raises(DomainError):
        linear_ivp(**{field: bad})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["y0", "lipschitz"])
def test_nonlinear_ivp_rejects_nonfinite(field, bad):
    args = dict(grid=GRID, alpha=FracOrder(0.5), a_index=0, y0=1.0,
                rhs=lambda t, y: 0.5 * y, lipschitz=0.5)
    args[field] = bad
    with pytest.raises(DomainError):
        NonlinearIVP(**args)


# ------------------------------------------------------------- closed form

def test_closed_trivial_constant():
    rep = solve_linear_closed(linear_ivp(lam=0.0, y0=2.0))
    assert np.allclose(rep.solution.values, 2.0, atol=1e-14)
    assert rep.residual <= 1e-13
    assert rep.method == "closed"


def test_closed_pure_forcing():
    # lam = 0: y = y0 + fractional integral of the forcing
    forcing = GridFn.from_callable(GRID, lambda t: t)
    p = linear_ivp(lam=0.0, y0=0.5, forcing=forcing)
    rep = solve_linear_closed(p)
    k = build_kernel(GRID, 0, FracOrder(0.5))
    want = 0.5 + fractional_integral(forcing, k).values
    assert np.allclose(rep.solution.values, want, rtol=1e-12, atol=1e-14)


def test_closed_order_one_matches_exponential_series():
    # alpha = 1, lam = 1, no forcing: growth follows the q-exponential series
    p = linear_ivp(alpha=1.0, lam=1.0, y0=1.0)
    rep = solve_linear_closed(p)
    a = GRID.points[0]
    for i in range(GRID.count):
        want = math.fsum(
            q_factorial_power(GRID.points[i], a, float(k), Q) / gamma_q(k + 1.0, Q)
            for k in range(60)
        )
        assert rep.solution.values[i] == pytest.approx(want, rel=1e-11)


def test_closed_rejects_divergent_window():
    big = make_grid(Q, 3, 8)  # extends to t = 16, the series diverges there
    p = linear_ivp(lam=0.4, forcing=GridFn.constant(big, 0.0), grid=big)
    with pytest.raises(DivergenceError):
        solve_linear_closed(p)


def test_closed_two_representations_agree():
    forcing = GridFn.from_callable(GRID, lambda t: t)
    p = linear_ivp(lam=0.4, forcing=forcing)
    standard = solve_linear_closed(p)
    modified = solve_linear_closed(p, via_modified_ml=True)
    assert np.allclose(
        standard.solution.values, modified.solution.values, rtol=1e-10, atol=1e-13
    )
    assert modified.method == "closed-modified"


# ------------------------------------------------- successive approximation

def test_picard_first_step_formula():
    forcing = GridFn.from_callable(GRID, lambda t: t)
    p = linear_ivp(lam=0.4, y0=1.5, forcing=forcing)
    k = build_kernel(GRID, 0, FracOrder(0.5))
    y1 = linear_picard_step(p, k, GridFn.constant(GRID, p.y0))
    a = GRID.points[0]
    integ_f = fractional_integral(forcing, k).values
    for i in range(GRID.count):
        poly = 1.0 + 0.4 * q_factorial_power(GRID.points[i], a, 0.5, Q) / gamma_q(1.5, Q)
        assert y1.values[i] == pytest.approx(1.5 * poly + integ_f[i], rel=1e-12)


def test_iterative_zero_lambda_converges_in_one_iteration():
    rep = solve_linear_iterative(linear_ivp(lam=0.0, y0=2.0))
    assert rep.iterations == 1
    assert np.allclose(rep.solution.values, 2.0)


def test_iterative_matches_closed():
    p = linear_ivp(alpha=0.5, lam=0.4)
    it = solve_linear_iterative(p)
    cl = solve_linear_closed(p)
    assert np.max(np.abs(it.solution.values - cl.solution.values)) <= 1e-8
    assert it.iterations > 1


def test_iterative_nonconvergence_error():
    p = linear_ivp(lam=0.4)
    with pytest.raises(NonConvergenceError) as exc:
        solve_linear_iterative(p, max_iter=2)
    assert exc.value.last_delta is not None


# ------------------------------------------------------------------ marching

def test_marching_no_rhs_is_constant():
    ivp = NonlinearIVP(
        grid=GRID, alpha=FracOrder(0.5), a_index=0, y0=3.0,
        rhs=lambda t, y: 0.0, lipschitz=0.0,
    )
    rep = solve_marching(ivp)
    assert np.all(rep.solution.values == 3.0)
    assert rep.residual == 0.0


def test_marching_linear_matches_closed():
    p = linear_ivp(alpha=0.5, lam=0.4)
    cl = solve_linear_closed(p)
    ivp = NonlinearIVP(
        grid=GRID, alpha=FracOrder(0.5), a_index=0, y0=1.0,
        rhs=lambda t, y: 0.4 * y, lipschitz=0.4,
    )
    rep = solve_marching(ivp)
    assert np.max(np.abs(rep.solution.values - cl.solution.values)) <= 1e-8


def test_marching_bounded_nonlinearity():
    ivp = NonlinearIVP(
        grid=GRID, alpha=FracOrder(0.5), a_index=0, y0=1.0,
        rhs=lambda t, y: 0.5 * math.sin(y), lipschitz=0.5,
    )
    rep = solve_marching(ivp)
    assert rep.residual <= 1e-10
    assert rep.method == "marching"


def test_marching_diagonal_precondition():
    # L (1-q)^alpha t^alpha >= 1 somewhere: reject up front
    big = make_grid(Q, 3, 8)
    ivp = NonlinearIVP(
        grid=big, alpha=FracOrder(0.5), a_index=0, y0=1.0,
        rhs=lambda t, y: 2.0 * y, lipschitz=2.0,
    )
    with pytest.raises(PreconditionError) as exc:
        solve_marching(ivp)
    assert exc.value.indices


def test_marching_step_error_carries_index():
    # rhs violates its declared Lipschitz constant: inner iteration expands
    ivp = NonlinearIVP(
        grid=GRID, alpha=FracOrder(0.5), a_index=0, y0=1.0,
        rhs=lambda t, y: 1e4 * y - 40.0, lipschitz=0.0,
    )
    with pytest.raises(StepError) as exc:
        solve_marching(ivp, max_inner=20)
    assert 0 < exc.value.index < GRID.count


# ----------------------------------------------------- cross-method checks

AGREEMENT_CASES = [
    (q, al, lam) for q in (0.3, 0.5) for al in (0.5, 0.9) for lam in (0.2, 0.4)
]


@pytest.mark.parametrize("q,alpha,lam", AGREEMENT_CASES)
def test_method_agreement_parameter_grid(q, alpha, lam):
    grid = make_grid(q, 11, 12)
    forcing = GridFn(grid, grid.t)
    p = LinearIVP(alpha=FracOrder(alpha), lam=lam, a_index=0, y0=1.0, forcing=forcing)
    cl = solve_linear_closed(p).solution.values
    it = solve_linear_iterative(p).solution.values
    ivp = NonlinearIVP(
        grid=grid, alpha=FracOrder(alpha), a_index=0, y0=1.0,
        rhs=lambda t, y: lam * y + t, lipschitz=lam,
    )
    ma = solve_marching(ivp).solution.values
    assert np.max(np.abs(cl - it)) <= 1e-7
    assert np.max(np.abs(cl - ma)) <= 1e-7
    assert np.max(np.abs(it - ma)) <= 1e-7


def test_negative_lambda_agreement():
    forcing = GridFn(GRID, GRID.t)
    p = linear_ivp(alpha=0.5, lam=-0.4, forcing=forcing)
    cl = solve_linear_closed(p).solution.values
    it = solve_linear_iterative(p).solution.values
    ivp = NonlinearIVP(
        grid=GRID, alpha=FracOrder(0.5), a_index=0, y0=1.0,
        rhs=lambda t, y: -0.4 * y + t, lipschitz=0.4,
    )
    ma = solve_marching(ivp).solution.values
    assert np.max(np.abs(cl - it)) <= 1e-9
    assert np.max(np.abs(cl - ma)) <= 1e-9


def test_defect_identity_for_all_methods():
    tol = Tolerance(rel_tol=1e-10, abs_tol=1e-13)
    forcing = GridFn.from_callable(GRID, lambda t: t)
    p = linear_ivp(alpha=0.5, lam=0.4, forcing=forcing)
    for rep in (
        solve_linear_closed(p, tol),
        solve_linear_iterative(p, tol=tol),
    ):
        assert rep.residual <= 10 * tol.rel_tol
    ivp = NonlinearIVP(
        grid=GRID, alpha=FracOrder(0.5), a_index=0, y0=1.0,
        rhs=lambda t, y: 0.4 * y + t, lipschitz=0.4,
    )
    assert solve_marching(ivp, tol).residual <= 10 * tol.rel_tol


def test_caputo_of_solution_recovers_rhs():
    # apply the Caputo derivative to a marching solution of the linear
    # problem: it must reproduce lam y + f at interior points
    forcing = GridFn.from_callable(GRID, lambda t: t)
    ivp = NonlinearIVP(
        grid=GRID, alpha=FracOrder(0.5), a_index=0, y0=1.0,
        rhs=lambda t, y: 0.4 * y + t, lipschitz=0.4,
    )
    y = solve_marching(ivp).solution
    cap = caputo_derivative(y, 0, FracOrder(0.5))
    for i in range(1, GRID.count):
        want = 0.4 * y.values[i] + GRID.points[i]
        assert cap.values[i] == pytest.approx(want, abs=1e-6)


@hypothesis.given(
    q=st.floats(min_value=0.2, max_value=0.7),
    alpha=st.floats(min_value=0.3, max_value=1.0),
    lam=st.floats(min_value=0.0, max_value=0.5),
    y0=st.floats(min_value=-2.0, max_value=2.0),
)
@hypothesis.settings(max_examples=40)
def test_marching_defect_property(q, alpha, lam, y0):
    # for any admissible parameters the marched solution satisfies its own
    # integral equation to solver tolerance
    grid = make_grid(q, 9, 10)
    ivp = NonlinearIVP(
        grid=grid, alpha=FracOrder(alpha), a_index=0, y0=y0,
        rhs=lambda t, y: lam * y + t, lipschitz=lam,
    )
    rep = solve_marching(ivp)
    assert rep.residual <= 1e-11


def test_linear_defect_array_shape_and_zero_below_a():
    g = make_grid(Q, 6, 8)
    forcing = GridFn.constant(g, 0.0)
    p = LinearIVP(alpha=FracOrder(0.5), lam=0.2, a_index=2, y0=1.0, forcing=forcing)
    rep = solve_linear_closed(p)
    d = linear_defect(p, rep.solution)
    assert d.shape == (g.count,)
    assert np.all(d[:2] == 0.0)
    assert rep.residual <= 1e-12
