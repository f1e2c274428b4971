"""Tests for the admissibility check, the Gronwall-type bound, the comparison
verifier, the order-1 corollary, and the dependence experiment."""
import math
import warnings

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from oracles import comparison_series, ref_grid, ref_order_one_factor
from qfrac.errors import DivergenceError, DomainError, PreconditionError
from qfrac.gronwall import (
    ComparisonInput,
    GronwallInput,
    _worst_excess,
    check_sart,
    dependence_experiment,
    gronwall_bound,
    march_integral_equation,
    q_gronwall_classical,
    sart_bound,
    verify_comparison,
)
from qfrac.operators import OmegaOp, build_kernel, omega_apply, omega_power_one_closed
from qfrac.qcore import FracOrder, GridFn, make_grid
from qfrac.special import MLSpec, mittag_leffler

Q = 0.5
GRID = make_grid(Q, 11, 12)
ALPHA = FracOrder(0.5)
KERNEL = build_kernel(GRID, 0, ALPHA)


# -------------------------------------------------------------- admissibility

def test_sart_zero_passes():
    x = GridFn.constant(GRID, 0.0)
    assert check_sart(x, ALPHA, strict=False).all()
    assert check_sart(x, ALPHA, strict=True).all()


def test_sart_boundary_case():
    x = GridFn(GRID, sart_bound(GRID, ALPHA))
    assert check_sart(x, ALPHA, strict=False).all()
    assert not check_sart(x, ALPHA, strict=True).any()


def test_sart_constant_below_uniform_ceiling():
    # on windows with t <= 1, any constant below 1/(1-q)^alpha passes strict
    mu = GridFn.constant(GRID, 0.99 / (1 - Q) ** ALPHA.alpha)
    assert check_sart(mu, ALPHA, strict=True).all()


def test_sart_negative_fails():
    x = GridFn.constant(GRID, -0.1)
    assert not check_sart(x, ALPHA, strict=False).any()


# ------------------------------------------------------------- gronwall bound

def test_bound_zero_coefficient():
    v = GridFn.from_callable(GRID, lambda t: 1.0 - t / 2)
    res = gronwall_bound(GronwallInput(v=v, mu=GridFn.constant(GRID, 0.0), alpha=ALPHA, a_index=0))
    assert np.allclose(res.bound.values, v.values[0])
    assert res.terms_used >= 1
    # v decreasing from v(a): dominated everywhere
    assert res.satisfied.all()
    assert res.max_violation == 0.0


def test_bound_zero_coefficient_detects_growth():
    v = GridFn.from_callable(GRID, lambda t: 1.0 + t)
    res = gronwall_bound(GronwallInput(v=v, mu=GridFn.constant(GRID, 0.0), alpha=ALPHA, a_index=0))
    assert not res.satisfied[1:].any()
    # worst point is t = 1: v(1) - v(a) = 1 - q**11
    assert res.max_violation == pytest.approx(1.0 - Q ** 11, rel=1e-12)


def test_bound_constant_coefficient_matches_ml_termwise():
    lam = 0.4
    mu = GridFn.constant(GRID, lam)
    # series terms equal the closed-form powers, term by term
    term = GridFn.constant(GRID, 1.0)
    op = OmegaOp(kernel=KERNEL, x=mu)
    for n in range(1, 7):
        term = omega_apply(op, term)
        closed = omega_power_one_closed(lam, n, ALPHA, GRID, 0)
        assert np.allclose(term.values, closed.values, rtol=1e-10, atol=1e-16), n
    # and the summed bound matches the Mittag-Leffler value
    v = GridFn.constant(GRID, 1.0)
    res = gronwall_bound(GronwallInput(v=v, mu=mu, alpha=ALPHA, a_index=0))
    a = GRID.points[0]
    for i in range(GRID.count):
        want = mittag_leffler(MLSpec(ALPHA.alpha, 1.0, lam, a), GRID.points[i], Q).value
        assert res.bound.values[i] == pytest.approx(want, rel=1e-10)


def test_bound_slack_constructed_instance():
    rng = np.random.default_rng(21)
    mu = GridFn(GRID, rng.uniform(0.0, 0.9, GRID.count) * sart_bound(GRID, ALPHA))
    slack = GridFn(GRID, rng.uniform(0.0, 0.2, GRID.count))
    v = march_integral_equation(KERNEL, mu, 1.0, slack)
    res = gronwall_bound(GronwallInput(v=v, mu=mu, alpha=ALPHA, a_index=0))
    assert res.satisfied.all()
    assert res.max_violation <= 1e-12


@hypothesis.given(
    seed=st.integers(min_value=0, max_value=2**31),
    q=st.floats(min_value=0.2, max_value=0.7),
    alpha=st.floats(min_value=0.3, max_value=1.0),
)
@hypothesis.settings(max_examples=30)
def test_bound_soundness_property(seed, q, alpha):
    # any slack-constructed instance with admissible coefficient is dominated
    rng = np.random.default_rng(seed)
    grid = make_grid(q, 9, 10)
    order = FracOrder(alpha)
    kernel = build_kernel(grid, 0, order)
    mu = GridFn(grid, rng.uniform(0.0, 0.95, grid.count) * sart_bound(grid, order))
    v_a = float(rng.uniform(0.0, 2.0))
    slack = GridFn(grid, rng.uniform(0.0, min(1.0, v_a + 0.1), grid.count))
    v = march_integral_equation(kernel, mu, v_a, slack)
    res = gronwall_bound(GronwallInput(v=v, mu=mu, alpha=order, a_index=0))
    assert res.max_violation <= 1e-12


def test_bound_with_shifted_lower_limit():
    # lower limit in the interior: bound is v(a) below it, domination above
    g = make_grid(Q, 8, 10)
    alpha = FracOrder(0.5)
    kernel = build_kernel(g, 2, alpha)
    rng = np.random.default_rng(5)
    mu = GridFn(g, rng.uniform(0.0, 0.9, g.count) * sart_bound(g, alpha))
    v = march_integral_equation(kernel, mu, 1.0, GridFn(g, rng.uniform(0.0, 0.3, g.count)))
    res = gronwall_bound(GronwallInput(v=v, mu=mu, alpha=alpha, a_index=2))
    assert res.max_violation == 0.0
    assert res.satisfied.all()
    assert np.allclose(res.bound.values[:2], v.values[2])


def test_bound_precondition_error_lists_indices():
    mu_vals = np.zeros(GRID.count)
    mu_vals[4] = sart_bound(GRID, ALPHA)[4]  # exactly at the ceiling: strict fails
    with pytest.raises(PreconditionError) as exc:
        gronwall_bound(GronwallInput(v=GridFn.constant(GRID, 1.0),
                                     mu=GridFn(GRID, mu_vals), alpha=ALPHA, a_index=0))
    assert exc.value.indices == (4,)


def test_bound_rejects_negative_mu():
    with pytest.raises(DomainError):
        GronwallInput(v=GridFn.constant(GRID, 1.0), mu=GridFn.constant(GRID, -0.1),
                      alpha=ALPHA, a_index=0)


def test_bound_finite_beyond_unit_window():
    # admissible mu on a window past t = 1: the series needs ~40,000 terms
    # there, but it converges, and the bound is its exact sum
    big = make_grid(Q, 3, 10)  # up to t = 64
    alpha = FracOrder(0.5)
    ceiling = sart_bound(big, alpha)
    mu = GridFn(big, 0.999 * ceiling)
    v = GridFn.constant(big, 1.0)
    res = gronwall_bound(GronwallInput(v=v, mu=mu, alpha=alpha, a_index=0))
    u = res.bound.values
    assert np.isfinite(u).all()
    w = build_kernel(big, 0, alpha).weights
    partial = comparison_series(w, mu.values, max_terms=64)[-1]
    assert np.all(u >= partial)
    residual = u - (1.0 + w @ (mu.values * u))
    assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(u))


def test_bound_diverges_on_long_window():
    # the same coefficient out to t = 2**36: the exact bound passes 1e100
    long = make_grid(Q, 3, 40)
    alpha = FracOrder(0.5)
    mu = GridFn(long, 0.999 * sart_bound(long, alpha))
    with pytest.raises(DivergenceError):
        gronwall_bound(GronwallInput(v=GridFn.constant(long, 1.0), mu=mu, alpha=alpha, a_index=0))


@pytest.mark.parametrize("v_a", [1e308, -1e308])
def test_bound_overflow_raises_without_a_warning(v_a):
    # v(a) * series leaves the float range: DivergenceError, and no numpy
    # RuntimeWarning first (which warnings-as-errors would turn into the error)
    grid = make_grid(Q, 1, 2)
    inp = GronwallInput(v=GridFn.constant(grid, v_a), mu=GridFn.constant(grid, 1.0),
                        alpha=ALPHA, a_index=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError, match="overflows"):
            gronwall_bound(inp)


@pytest.mark.parametrize("q", [0.3, 0.5, 0.7, 0.9])
def test_bound_at_the_ceiling_is_never_below_v_a(q):
    # mu one ulp below the analytic ceiling at index i: the computed diagonal
    # factor 1 - W[i,i] mu[i] may round to 0 or below, which must raise
    # PreconditionError naming i instead of returning a negative bound
    grid = make_grid(q, 6, 8)
    rng = np.random.default_rng([23, int(q * 10)])
    refused = 0
    for al in (0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 1.0):
        order = FracOrder(al)
        ceiling = sart_bound(grid, order)
        for i in range(grid.count):
            mu = 0.5 * ceiling
            mu[i] = np.nextafter(ceiling[i], 0.0)
            v = GridFn(grid, rng.uniform(0.5, 2.0, grid.count))
            try:
                res = gronwall_bound(GronwallInput(v=v, mu=GridFn(grid, mu), alpha=order,
                                                   a_index=0))
            except PreconditionError as exc:
                assert i in exc.indices, (al, i)
                refused += 1
                continue
            assert np.all(res.bound.values >= v.values[0]), (al, i)
    assert 0 < refused < 7 * grid.count


def _nan_at_3(scale=1.0):
    """A grid function with NaN at index 3.  The public constructor refuses
    NaN, so it is built on the internal path, which the package keeps for
    its own markers; the checks below must still catch it."""
    vals = np.full(GRID.count, scale)
    vals[3] = np.nan
    return GridFn._owned(GRID, vals)


def test_bound_rejects_nonfinite_input():
    with pytest.raises(DomainError, match="v and mu must be finite"):
        GronwallInput(v=_nan_at_3(), mu=GridFn.constant(GRID, 0.1),
                      alpha=ALPHA, a_index=0)
    with pytest.raises(DomainError, match="v and mu must be finite"):
        GronwallInput(v=GridFn.constant(GRID, 1.0), mu=_nan_at_3(0.1),
                      alpha=ALPHA, a_index=0)


def test_integral_equation_rejects_nonfinite_input():
    x = GridFn.constant(GRID, 0.1)
    message = "coefficient, slack and y_a must be finite"
    with pytest.raises(DomainError, match=message):
        march_integral_equation(KERNEL, _nan_at_3(0.1), 1.0)
    with pytest.raises(DomainError, match=message):
        march_integral_equation(KERNEL, x, 1.0, _nan_at_3(0.1))
    with pytest.raises(DomainError, match=message):
        march_integral_equation(KERNEL, x, math.nan)


@pytest.mark.parametrize("field", ["w", "v", "x"])
def test_comparison_rejects_nonfinite_input(field):
    x = GridFn.constant(GRID, 0.1)
    w = march_integral_equation(KERNEL, x, 1.0)
    bad = w.values.copy()
    bad[3] = np.nan
    fields = dict(w=w, v=w, x=x)
    fields[field] = GridFn._owned(GRID, bad)  # see _nan_at_3
    with pytest.raises(DomainError, match="w, v and x must be finite"):
        ComparisonInput(alpha=ALPHA, a_index=0, **fields)


def test_worst_excess_propagates_nan():
    assert _worst_excess(np.array([-1.0, -2.0])) == 0.0
    assert _worst_excess(np.array([-1.0, 0.5])) == 0.5
    assert math.isnan(_worst_excess(np.array([np.nan, 1.0])))


@hypothesis.given(
    seed=st.integers(min_value=0, max_value=2**31),
    q=st.floats(min_value=0.2, max_value=0.9),
    alpha=st.floats(min_value=0.1, max_value=1.0),
    count=st.integers(min_value=2, max_value=14),
)
@hypothesis.settings(max_examples=30)
def test_bound_is_the_converged_series_property(seed, q, alpha, count):
    # the solve dominates every partial sum and equals the converged series;
    # partial sums carry a few ulps of their own rounding, hence the 1e-13
    rng = np.random.default_rng(seed)
    grid = make_grid(q, count - 1, count)
    order = FracOrder(alpha)
    mu = rng.uniform(0.0, 0.98, count) * sart_bound(grid, order)
    u = gronwall_bound(GronwallInput(v=GridFn.constant(grid, 1.0), mu=GridFn(grid, mu),
                                     alpha=order, a_index=0)).bound.values
    sums = comparison_series(build_kernel(grid, 0, order).weights, mu, 10_000, rel_tol=1e-17)
    for partial in sums:
        assert np.all(partial <= u * (1.0 + 1e-13))
    assert np.allclose(sums[-1], u, rtol=1e-12, atol=0.0)


def test_order_one_bound_matches_exact_product():
    # order 1: u_i = u_{i-1} / (1 - (1-q) t_i delta_i), so the bound is a
    # finite product; delta stays at or below 0.9 of the ceiling 1/(1-q),
    # where rounding of the inputs moves the product by at most ~10 ulps
    rng = np.random.default_rng(3)
    for q in (0.3, 0.5):
        grid = make_grid(q, 11, 12)
        deltas = [np.full(grid.count, f / (1.0 - q)) for f in (0.15, 0.45, 0.9)]
        deltas.append(rng.uniform(0.0, 0.9 / (1.0 - q), grid.count))
        for delta in deltas:
            for a_index in (0, 4):
                res = gronwall_bound(GronwallInput(
                    v=GridFn.constant(grid, 1.0), mu=GridFn(grid, delta),
                    alpha=FracOrder(1.0), a_index=a_index))
                want = ref_order_one_factor(ref_grid(q, 11, 12), a_index, delta, q)
                for got, ref in zip(res.bound.values, want):
                    assert abs(got - float(ref)) <= 1e-14 * float(ref), (q, a_index)


# ---------------------------------------------------------------- comparison

def test_comparison_equality_case():
    x = GridFn(GRID, 0.5 * sart_bound(GRID, ALPHA))
    w = march_integral_equation(KERNEL, x, 1.0)
    rep = verify_comparison(ComparisonInput(w=w, v=w, x=x, alpha=ALPHA, a_index=0))
    assert rep.all_hypotheses
    assert rep.conclusion_checked and rep.conclusion_holds
    assert rep.max_violation <= 1e-15


def test_comparison_slack_construction():
    rng = np.random.default_rng(5)
    x = GridFn(GRID, rng.uniform(0.0, 0.95, GRID.count) * sart_bound(GRID, ALPHA))
    w = march_integral_equation(KERNEL, x, 1.2, GridFn(GRID, -rng.uniform(0.0, 0.4, GRID.count)))
    v = march_integral_equation(KERNEL, x, 1.0, GridFn(GRID, rng.uniform(0.0, 0.4, GRID.count)))
    rep = verify_comparison(ComparisonInput(w=w, v=v, x=x, alpha=ALPHA, a_index=0))
    assert rep.all_hypotheses
    assert rep.conclusion_holds
    assert np.all(w.values >= v.values - 1e-12)


def test_comparison_initial_hypothesis_filter():
    # v(a) > w(a): hypothesis reported failed, conclusion not asserted
    x = GridFn.constant(GRID, 0.1)
    w = march_integral_equation(KERNEL, x, 1.0)
    v = march_integral_equation(KERNEL, x, 2.0)
    rep = verify_comparison(ComparisonInput(w=w, v=v, x=x, alpha=ALPHA, a_index=0))
    assert not rep.holds_initial
    assert not rep.conclusion_checked
    assert math.isnan(rep.max_violation)


def test_comparison_sub_hypothesis_filter():
    # v strictly above its own integral inequality: sub hypothesis fails
    x = GridFn.constant(GRID, 0.1)
    w = march_integral_equation(KERNEL, x, 1.0)
    v_vals = march_integral_equation(KERNEL, x, 0.5).values + np.linspace(0.0, 1.0, GRID.count)
    rep = verify_comparison(
        ComparisonInput(w=w, v=GridFn(GRID, v_vals), x=x, alpha=ALPHA, a_index=0)
    )
    assert not rep.holds_sub
    assert not rep.conclusion_checked


def test_march_integral_equation_requires_solvable_diagonal():
    x = GridFn(GRID, 1.5 * sart_bound(GRID, ALPHA))
    with pytest.raises(PreconditionError):
        march_integral_equation(KERNEL, x, 1.0)


@pytest.mark.parametrize("slack_grid", [make_grid(0.3, 11, 12), make_grid(Q, 11, 8)],
                         ids=["other-q", "shorter"])
def test_march_integral_equation_rejects_slack_on_another_grid(slack_grid):
    x = GridFn.constant(GRID, 0.1)
    with pytest.raises(DomainError, match="slack and kernel live on different grids"):
        march_integral_equation(KERNEL, x, 1.0, GridFn.constant(slack_grid, 0.1))


# ------------------------------------------------------------------ corollary

def test_classical_zero_delta():
    v = GridFn.from_callable(GRID, lambda t: 1.0 - t / 3)
    res = q_gronwall_classical(v, GridFn.constant(GRID, 0.0), 0)
    assert np.allclose(res.bound.values, v.values[0])


def test_classical_constant_delta_matches_ml():
    lam = 1.2  # below 1/(1-q) = 2
    k1 = build_kernel(GRID, 0, FracOrder(1.0))
    delta = GridFn.constant(GRID, lam)
    v = march_integral_equation(k1, delta, 1.0, GridFn.constant(GRID, 0.1))
    res = q_gronwall_classical(v, delta, 0)
    a = GRID.points[0]
    for i in range(GRID.count):
        want = mittag_leffler(MLSpec(1.0, 1.0, lam, a), GRID.points[i], Q).value
        assert res.bound.values[i] == pytest.approx(want, rel=1e-10)
    assert res.satisfied.all()


def test_classical_random_delta_dominates():
    rng = np.random.default_rng(17)
    k1 = build_kernel(GRID, 0, FracOrder(1.0))
    for case in range(10):
        delta = GridFn(GRID, rng.uniform(0.0, 0.98 / (1 - Q), GRID.count))
        v = march_integral_equation(k1, delta, float(rng.uniform(0.1, 2.0)),
                                    GridFn(GRID, rng.uniform(0.0, 0.3, GRID.count)))
        res = q_gronwall_classical(v, delta, 0)
        assert res.max_violation <= 1e-12, case


def test_classical_rejects_large_delta():
    with pytest.raises(PreconditionError) as exc:
        q_gronwall_classical(
            GridFn.constant(GRID, 1.0), GridFn.constant(GRID, 2.0), 0
        )  # 2.0 == 1/(1-q): not admissible
    assert len(exc.value.indices) == GRID.count


# ----------------------------------------------------------------- dependence

def test_dependence_equal_initial_values():
    rep = dependence_experiment(
        GRID, 0, ALPHA, gamma=1.0, beta=1.0,
        rhs=lambda t, y: 0.5 * math.sin(y), lipschitz=0.5,
    )
    assert np.all(rep.abs_diff == 0.0)
    assert rep.bound_holds


def test_dependence_linear_rhs_bound_is_tight():
    rep = dependence_experiment(
        GRID, 0, ALPHA, gamma=1.0, beta=0.0,
        rhs=lambda t, y: 0.5 * y, lipschitz=0.5,
    )
    assert rep.bound_holds
    for i in range(GRID.count):
        assert rep.abs_diff[i] == pytest.approx(rep.bound[i], rel=1e-8)


def test_dependence_nonlinear_rhs_bound_holds():
    rep = dependence_experiment(
        GRID, 0, ALPHA, gamma=1.0, beta=0.9,
        rhs=lambda t, y: 0.5 * math.sin(y), lipschitz=0.5,
    )
    assert rep.bound_holds
    assert rep.max_excess == 0.0
    assert rep.sequence_monotone
    assert rep.sequence_within_bound
    assert len(rep.sequence_sup_diffs) == 6
    # perturbations shrink tenfold; the sups should track that
    assert rep.sequence_sup_diffs[-1] < rep.sequence_sup_diffs[0] * 1e-4


def test_dependence_rejects_bad_lipschitz():
    with pytest.raises(DomainError):
        dependence_experiment(
            GRID, 0, ALPHA, gamma=1.0, beta=0.5, rhs=lambda t, y: y, lipschitz=1.0
        )


@pytest.mark.parametrize("a_index", [-1, GRID.count])
def test_dependence_rejects_bad_lower_limit(a_index):
    with pytest.raises(DomainError, match="a_index"):
        dependence_experiment(
            GRID, a_index, ALPHA, gamma=1.0, beta=0.5, rhs=lambda t, y: y, lipschitz=0.5
        )


def test_diagonal_weight_identity():
    # the verifier's implicit step weight equals (1-q)^alpha t^alpha x(t)
    x = GridFn(GRID, np.linspace(0.1, 0.9, GRID.count))
    for i in range(1, GRID.count):
        want = (1 - Q) ** ALPHA.alpha * GRID.points[i] ** ALPHA.alpha * x.values[i]
        got = KERNEL.weights[i, i] * x.values[i]
        assert got == pytest.approx(want, rel=1e-12)


def test_series_term_ratio_within_proof_limit():
    # mu = 1 on a window up to t = 1: sup-norm term ratios settle at or
    # below (1-q)^alpha within a 1e-2 margin
    for q, al in [(0.3, 0.5), (0.5, 0.5), (0.5, 0.9)]:
        grid = make_grid(q, 11, 12)
        alpha = FracOrder(al)
        kernel = build_kernel(grid, 0, alpha)
        op = OmegaOp(kernel=kernel, x=GridFn.constant(grid, 1.0))
        term = GridFn.constant(grid, 1.0)
        sups = []
        for _ in range(40):
            term = omega_apply(op, term)
            sups.append(float(np.max(np.abs(term.values))))
        ratios = [s2 / s1 for s1, s2 in zip(sups[25:], sups[26:])]
        assert max(ratios) <= (1 - q) ** al + 1e-2, (q, al)
