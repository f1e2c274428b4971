"""The closed-form solve shares q-products and Gamma_q values across its
Mittag-Leffler series; the results must be the floats of the per-term loop.

``oracles.loop_solve_linear_closed`` evaluates every term's product and
Gamma_q afresh.  The package keys each product by the exact float s/t within
one call, so any difference, however small, shows up as a failed
``np.array_equal``.
"""
import itertools

import numpy as np
import pytest

from qfrac.errors import NonConvergenceError, PoleError
from qfrac.gronwall import _ml_bound_factor
from qfrac.qcore import DEFAULT_TOL, FracOrder, GridFn, Tolerance, make_grid
from qfrac.solver import LinearIVP, solve_linear_closed
from qfrac.special import MLSpec, mittag_leffler_modified

from oracles import loop_ml_series, loop_solve_linear_closed


def linear_ivp(q, alpha, lam, n, forcing, a_index=0):
    grid = make_grid(q, n - 1, n)
    values = grid.t if forcing == "identity" else np.sin(np.arange(n, dtype=float))
    return LinearIVP(FracOrder(alpha), lam, a_index, 1.0, GridFn(grid, values))


@pytest.mark.parametrize("q,alpha", itertools.product([0.3, 0.5, 0.8, 0.9], [0.3, 0.5, 0.9, 1.0]))
def test_closed_form_equals_per_term_loop_bit_for_bit(q, alpha):
    series = {}  # the two forcings share every oracle series
    for lam, n, modified, forcing in itertools.product(
        [0.1, 0.4], [12, 24], [False, True], ["identity", "sine"]
    ):
        p = linear_ivp(q, alpha, lam, n, forcing)
        want, want_residual = loop_solve_linear_closed(p, via_modified_ml=modified, series=series)
        got = solve_linear_closed(p, via_modified_ml=modified)
        case = (lam, n, forcing, modified)
        assert np.array_equal(got.solution.values, want), case
        assert got.residual == want_residual, case


def test_no_state_survives_a_call():
    problems = [
        (linear_ivp(q, alpha, 0.3, 16, forcing, a_index), modified)
        for q, alpha, forcing, a_index, modified in [
            (0.5, 0.5, "identity", 0, False),
            (0.5, 0.5, "identity", 0, True),
            (0.8, 0.3, "sine", 2, False),
            (0.8, 0.3, "sine", 2, True),
            (0.3, 0.9, "sine", 0, False),
        ]
    ]
    forward = [solve_linear_closed(p, via_modified_ml=m) for p, m in problems]
    backward = [solve_linear_closed(p, via_modified_ml=m) for p, m in reversed(problems)]
    for a, b in zip(forward, reversed(backward)):
        assert np.array_equal(a.solution.values, b.solution.values)
        assert a.residual == b.residual
    grids = [make_grid(q, 11, 12) for q in (0.5, 0.8)]
    factors = [_ml_bound_factor(g, 0, FracOrder(0.5), 0.4, DEFAULT_TOL) for g in grids]
    again = [_ml_bound_factor(g, 0, FracOrder(0.5), 0.4, DEFAULT_TOL) for g in reversed(grids)]
    for a, b in zip(factors, reversed(again)):
        assert np.array_equal(a, b)


def test_bound_factor_equals_per_term_series():
    grid = make_grid(0.8, 13, 14)
    got = _ml_bound_factor(grid, 2, FracOrder(0.4), 0.3, DEFAULT_TOL)
    spec = MLSpec(0.4, 1.0, 0.3, grid.points[2])
    want = [loop_ml_series(spec, t, 0.8, 0.0, "q-Mittag-Leffler") for t in grid.points[2:]]
    assert got[2:].tolist() == want


def test_pole_error_keeps_its_message():
    # beta = 0.5 at t0/t = q**0.5: the first factor of (t - t0)_q^(-1/2) is a pole
    spec = MLSpec(0.5, 0.5, 0.3, t0=0.5)
    with pytest.raises(PoleError) as want:
        loop_ml_series(spec, 1.0, 0.25, -0.5, "modified q-Mittag-Leffler")
    with pytest.raises(PoleError) as got:
        mittag_leffler_modified(spec, 1.0, 0.25)
    assert str(got.value) == str(want.value) == "(t-s)_q^-0.5 has a pole at s/t = 0.5"


@pytest.mark.parametrize("modified", [False, True])
def test_capped_product_keeps_its_message(modified):
    p = linear_ivp(0.999, 0.5, 0.3, 6, "identity")
    tol = Tolerance(max_terms=200)
    with pytest.raises(NonConvergenceError) as want:
        loop_solve_linear_closed(p, tol, via_modified_ml=modified)
    for _ in range(2):  # an error leaves nothing behind for the next call
        with pytest.raises(NonConvergenceError) as got:
            solve_linear_closed(p, tol, via_modified_ml=modified)
        assert str(got.value) == str(want.value)
    assert str(want.value) == "q-product at q=0.999 needs 36026 factors, more than max_terms=200"

