"""Tests for the nabla derivative/integral, fractional integral kernel,
Caputo derivative, and the coefficient-weighted summation operator."""
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from qfrac import operators
from qfrac.errors import BoundaryError, DomainError, GridMismatchError, RangeError
from qfrac.operators import (
    KERNEL_CACHE_BYTES,
    OmegaOp,
    build_kernel,
    caputo_derivative,
    caputo_inverse_identity_check,
    fractional_integral,
    nabla_derivative,
    nabla_integral,
    omega_apply,
    omega_power_one_closed,
)
from qfrac.qcore import (
    DEFAULT_TOL,
    FracOrder,
    GridFn,
    _BoundedLRU,
    gamma_q,
    make_grid,
    q_bracket,
    q_factorial_power,
)

from oracles import ref_frac_int, ref_jackson_integral

Q = 0.5
GRID = make_grid(Q, 7, 10)


def gridfn(fn, grid=GRID):
    return GridFn.from_callable(grid, fn)


# --------------------------------------------------------- nabla derivative

def test_nabla_derivative_of_identity_is_one():
    f = gridfn(lambda t: t)
    for i in range(1, GRID.count):
        assert nabla_derivative(f, i) == pytest.approx(1.0, rel=1e-14)


def test_nabla_derivative_of_constant_is_zero():
    f = GridFn.constant(GRID, 3.7)
    for i in range(1, GRID.count):
        assert nabla_derivative(f, i) == 0.0


def test_nabla_derivative_of_square():
    # (t^2 - (qt)^2) / ((1-q) t) = (1+q) t, so 1.5 at t = 1, q = 0.5
    g = make_grid(0.5, 3, 4)
    f = GridFn.from_callable(g, lambda t: t * t)
    assert nabla_derivative(f, 3) == pytest.approx(1.5, rel=1e-14)


def test_nabla_derivative_needs_predecessor():
    f = gridfn(lambda t: t)
    with pytest.raises(BoundaryError):
        nabla_derivative(f, 0)


# ----------------------------------------------------------- nabla integral

def test_nabla_integral_of_one_telescopes():
    f = GridFn.constant(GRID, 1.0)
    for i in range(GRID.count):
        for j in range(i, GRID.count):
            want = GRID.points[j] - GRID.points[i]
            assert nabla_integral(f, i, j) == pytest.approx(want, rel=1e-14, abs=1e-16)


def test_nabla_integral_single_point():
    # q = 0.5, a = 0.5, t = 1: only s = 1 contributes, (1-q) * 1 * f(1)
    g = make_grid(0.5, 1, 2)
    f = GridFn.from_callable(g, lambda t: t)
    assert nabla_integral(f, 0, 1) == pytest.approx(0.5, rel=1e-15)


def test_nabla_integral_matches_jackson_truncation():
    # the finite sum must equal the difference of two 64-term Jackson sums
    for fn in (lambda t: t, lambda t: t * t, lambda t: math.sqrt(t)):
        f = gridfn(fn)
        for i, j in [(0, 4), (2, 7), (5, 9)]:
            got = nabla_integral(f, i, j)
            want = float(
                ref_jackson_integral(lambda s: fn(float(s)), GRID.points[j], Q)
                - ref_jackson_integral(lambda s: fn(float(s)), GRID.points[i], Q)
            )
            assert got == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_nabla_integral_atomicity():
    # single backward step: integral over (qt, t] is (t - qt) f(t)
    f = gridfn(lambda t: math.sin(t) + 2.0)
    for i in range(1, GRID.count):
        t = GRID.points[i]
        want = (t - Q * t) * f.values[i]
        assert nabla_integral(f, i - 1, i) == pytest.approx(want, rel=1e-15)


def test_nabla_integral_argument_errors():
    f = GridFn.constant(GRID, 1.0)
    with pytest.raises(DomainError):
        nabla_integral(f, 3, 2)
    with pytest.raises(BoundaryError):
        nabla_integral(f, 0, GRID.count)


# ------------------------------------------------------------------ kernels

def test_kernel_alpha_one_is_plain_integral():
    k = build_kernel(GRID, 0, FracOrder(1.0))
    for i in range(1, GRID.count):
        for j in range(1, i + 1):
            assert k.weights[i, j] == pytest.approx((1 - Q) * GRID.points[j], rel=1e-14)


def test_kernel_lower_triangular_and_nonnegative():
    k = build_kernel(GRID, 2, FracOrder(0.5))
    for i in range(GRID.count):
        for j in range(GRID.count):
            if j > i or j <= 2:
                assert k.weights[i, j] == 0.0
            else:
                assert k.weights[i, j] >= 0.0


def test_kernel_cache_reuses_read_only_kernels_and_evicts():
    k = build_kernel(GRID, 0, FracOrder(0.5))
    assert build_kernel(make_grid(Q, 7, 10), 0, FracOrder(0.5)) is k  # equal grid
    assert not k.weights.flags.writeable
    # kernels on other windows until their bytes alone exceed the budget
    cache = operators._KERNEL_CACHE
    filled, n = 0, 1
    while filled <= KERNEL_CACHE_BYTES:
        filled += operators._kernel_bytes(build_kernel(make_grid(Q, 40, n), 0, FracOrder(0.5)))
        n += 1
    assert cache.total() <= KERNEL_CACHE_BYTES
    assert cache.total() == sum(map(operators._kernel_bytes, cache._items.values()))
    rebuilt = build_kernel(GRID, 0, FracOrder(0.5))
    assert rebuilt is not k
    assert np.array_equal(rebuilt.weights, k.weights)


def test_kernel_bytes_track_the_memory_of_the_row_views():
    n = 64
    k = operators._build_kernel(make_grid(Q, 70, n), 0, 0.5, DEFAULT_TOL)  # rows not built
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        k.rows
        row_bytes = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert 0.5 * n * operators._ROW_BYTES <= row_bytes <= 2 * n * operators._ROW_BYTES
    assert operators._kernel_bytes(k) == k.weights.nbytes + n * operators._ROW_BYTES


def test_kernel_cache_keeps_the_newest_kernel_past_its_budget(monkeypatch):
    monkeypatch.setattr(operators, "_KERNEL_CACHE", _BoundedLRU(1, operators._kernel_bytes))
    k = build_kernel(GRID, 0, FracOrder(0.5))
    assert build_kernel(GRID, 0, FracOrder(0.5)) is k
    other = build_kernel(GRID, 0, FracOrder(0.25))
    assert len(operators._KERNEL_CACHE._items) == 1
    assert operators._KERNEL_CACHE.total() == operators._kernel_bytes(other)
    assert build_kernel(GRID, 0, FracOrder(0.25)) is other
    assert build_kernel(GRID, 0, FracOrder(0.5)) is not k


def test_kernel_cache_under_concurrent_callers(monkeypatch):
    # a budget of about two kernels, so that threads evict each other's kernels
    keys = [(make_grid(Q, 7 + m, 10), al) for m in range(3) for al in (0.3, 0.6)]
    want = {key: operators._build_kernel(key[0], 0, key[1], DEFAULT_TOL).weights for key in keys}
    budget = 2 * operators._kernel_bytes(build_kernel(GRID, 0, FracOrder(0.5)))
    cache = _BoundedLRU(budget, operators._kernel_bytes)
    monkeypatch.setattr(operators, "_KERNEL_CACHE", cache)
    wrong: list[tuple] = []

    def worker(offset: int) -> None:
        for r in range(40):
            key = keys[(r + offset) % len(keys)]
            if not np.array_equal(build_kernel(key[0], 0, FracOrder(key[1])).weights, want[key]):
                wrong.append(key)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert cache.total() == sum(map(operators._kernel_bytes, cache._items.values()))
    assert cache.total() <= budget


def test_kernel_diagonal_identity():
    for alpha in (0.25, 0.5, 0.9, 1.0):
        k = build_kernel(GRID, 0, FracOrder(alpha))
        for i in range(1, GRID.count):
            want = (1 - Q) ** alpha * GRID.points[i] ** alpha
            assert k.weights[i, i] == pytest.approx(want, rel=1e-12)


def test_kernel_applied_to_one_gives_power_over_gamma():
    alpha = 0.5
    k = build_kernel(GRID, 0, FracOrder(alpha))
    r = fractional_integral(GridFn.constant(GRID, 1.0), k)
    a = GRID.points[0]
    for i in range(GRID.count):
        want = q_factorial_power(GRID.points[i], a, alpha, Q) / gamma_q(alpha + 1.0, Q)
        assert r.values[i] == pytest.approx(want, rel=1e-12, abs=1e-15)


# ------------------------------------------------------- fractional integral

def test_fractional_integral_of_zero():
    k = build_kernel(GRID, 0, FracOrder(0.5))
    r = fractional_integral(GridFn.constant(GRID, 0.0), k)
    assert np.all(r.values == 0.0)
    assert r.values[0] == 0.0  # value at the lower limit


def test_fractional_integral_power_rule_example():
    # order 0.5 integral of (x - a)^0.5 gives ratio of Gammas times (x - a)^1
    mu, alpha = 0.5, 0.5
    a = GRID.points[0]
    k = build_kernel(GRID, 0, FracOrder(alpha))
    f = GridFn(GRID, np.array([q_factorial_power(t, a, mu, Q) for t in GRID.points]))
    got = fractional_integral(f, k)
    coeff = gamma_q(mu + 1.0, Q) / gamma_q(alpha + mu + 1.0, Q)
    for i in range(1, GRID.count):
        want = coeff * q_factorial_power(GRID.points[i], a, mu + alpha, Q)
        assert got.values[i] == pytest.approx(want, rel=1e-10)


def test_fractional_integral_random_against_straight_loop():
    rng = np.random.default_rng(99)
    g = make_grid(0.5, 7, 8)
    k = build_kernel(g, 0, FracOrder(0.5))
    f = GridFn(g, rng.uniform(-1.0, 1.0, g.count))
    got = fractional_integral(f, k)
    for i in range(g.count):
        want = float(ref_frac_int(list(g.points), 0, 0.5, [float(v) for v in f.values], i, 0.5))
        assert got.values[i] == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_fractional_integral_grid_mismatch():
    other = make_grid(0.5, 3, 4)
    k = build_kernel(GRID, 0, FracOrder(0.5))
    with pytest.raises(GridMismatchError):
        fractional_integral(GridFn.constant(other, 1.0), k)


def test_power_rule_full_parameter_grid():
    a = GRID.points[0]
    for mu in (0.0, 0.5, 1.0, 2.3):
        for alpha in (0.25, 0.5, 0.9):
            k = build_kernel(GRID, 0, FracOrder(alpha))
            f = GridFn(GRID, np.array([q_factorial_power(t, a, mu, Q) for t in GRID.points]))
            got = fractional_integral(f, k)
            coeff = gamma_q(mu + 1.0, Q) / gamma_q(alpha + mu + 1.0, Q)
            for i in range(1, GRID.count):
                want = coeff * q_factorial_power(GRID.points[i], a, mu + alpha, Q)
                assert got.values[i] == pytest.approx(want, rel=1e-8), (mu, alpha, i)


def test_kernel_composition_semigroup_on_one():
    one = GridFn.constant(GRID, 1.0)
    for a1, a2 in [(0.25, 0.5), (0.5, 0.9), (0.9, 0.25)]:
        k1 = build_kernel(GRID, 0, FracOrder(a1))
        k2 = build_kernel(GRID, 0, FracOrder(a2))
        k12 = build_kernel(GRID, 0, FracOrder(a1 + a2))
        lhs = fractional_integral(fractional_integral(one, k1), k2)
        rhs = fractional_integral(one, k12)
        assert np.allclose(lhs.values, rhs.values, rtol=1e-8, atol=1e-14), (a1, a2)


# --------------------------------------------------------------- derivative
# (grid derivative of the factorial power, in each argument)

def test_factorial_power_derivative_in_t():
    for alpha in (0.25, 0.5, 1.3):
        s = GRID.points[1]
        for i in range(3, GRID.count):
            t = GRID.points[i]
            lhs = (
                q_factorial_power(t, s, alpha, Q) - q_factorial_power(Q * t, s, alpha, Q)
            ) / ((1 - Q) * t)
            rhs = q_bracket(alpha, Q) * q_factorial_power(t, s, alpha - 1.0, Q)
            assert lhs == pytest.approx(rhs, rel=1e-10), (alpha, i)


def test_factorial_power_derivative_in_s():
    for alpha in (0.25, 0.5, 1.3):
        t = GRID.points[7]
        for j in range(0, 5):
            s = GRID.points[j]
            lhs = (
                q_factorial_power(t, s, alpha, Q) - q_factorial_power(t, Q * s, alpha, Q)
            ) / ((1 - Q) * s)
            rhs = -q_bracket(alpha, Q) * q_factorial_power(t, Q * s, alpha - 1.0, Q)
            assert lhs == pytest.approx(rhs, rel=1e-10), (alpha, j)


# ----------------------------------------------------------------- Caputo

def test_caputo_of_constant_is_zero():
    f = GridFn.constant(GRID, 4.2)
    got = caputo_derivative(f, 0, FracOrder(0.5))
    assert np.allclose(got.values, 0.0, atol=1e-15)


def test_caputo_integer_order_is_nabla():
    f = gridfn(lambda t: t * t + 1.0)
    got = caputo_derivative(f, 0, FracOrder(1.0))
    assert math.isnan(got.values[0])
    for i in range(1, GRID.count):
        assert got.values[i] == pytest.approx(nabla_derivative(f, i), rel=1e-14)


def test_caputo_of_linear_factorial_power():
    # f = (t - a)^1 has unit nabla derivative, so the order-0.5 Caputo
    # derivative is (t - a)^{0.5} / Gamma_q(1.5)
    a = GRID.points[0]
    f = gridfn(lambda t: t - a)
    got = caputo_derivative(f, 0, FracOrder(0.5))
    for i in range(1, GRID.count):
        want = q_factorial_power(GRID.points[i], a, 0.5, Q) / gamma_q(1.5, Q)
        assert got.values[i] == pytest.approx(want, rel=1e-10)


def test_caputo_order_above_one_closed_form():
    # second difference of t^2 is the constant 1+q, so the order-1.5
    # derivative is its order-0.5 integral: (1+q)(t-a)^{0.5}/Gamma_q(1.5)
    g = make_grid(0.5, 9, 10)
    f = GridFn.from_callable(g, lambda t: t * t)
    got = caputo_derivative(f, 1, FracOrder(1.5))
    a = g.points[1]
    for i in range(2, g.count):
        want = (1 + Q) * q_factorial_power(g.points[i], a, 0.5, Q) / gamma_q(1.5, Q)
        assert got.values[i] == pytest.approx(want, rel=1e-11), i


def test_caputo_boundary_errors():
    f = gridfn(lambda t: t)
    with pytest.raises(BoundaryError):
        caputo_derivative(f, 0, FracOrder(1.5))  # needs a_index >= 1
    short = make_grid(0.5, 1, 2)
    with pytest.raises(BoundaryError):
        caputo_derivative(GridFn.constant(short, 1.0), 1, FracOrder(1.5))


def test_caputo_inverse_identity_constant():
    f = GridFn.constant(GRID, 2.0)
    assert caputo_inverse_identity_check(f, 0, FracOrder(0.5)) == pytest.approx(0.0, abs=1e-15)


def test_caputo_inverse_identity_linear():
    g = make_grid(0.5, 9, 10)
    f = GridFn.from_callable(g, lambda t: t)
    assert caputo_inverse_identity_check(f, 0, FracOrder(0.5)) <= 1e-10


def test_caputo_inverse_identity_random():
    rng = np.random.default_rng(3)
    for alpha in (0.5, 0.8):
        f = GridFn(GRID, rng.uniform(-1.0, 1.0, GRID.count))
        assert caputo_inverse_identity_check(f, 0, FracOrder(alpha)) <= 1e-8


def test_caputo_inverse_identity_integer_order():
    # order 1: the plain integral of the nabla derivative telescopes exactly
    f = gridfn(lambda t: t * t - t)
    assert caputo_inverse_identity_check(f, 0, FracOrder(1.0)) <= 1e-13


def test_caputo_inverse_identity_order_above_one():
    # general form with the two-term q-Taylor part
    f = gridfn(lambda t: t * t)
    resid = caputo_inverse_identity_check(f, 1, FracOrder(1.5))
    assert resid <= 1e-8


@pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 1.5, 2.0])
def test_block_identity_columns_are_the_one_case_residuals(q, alpha):
    # each column of a block is checked as that case alone, bit for bit
    grid = make_grid(q, 8, 9)
    order = FracOrder(alpha)
    rng = np.random.default_rng([11, round(10 * q), round(10 * alpha)])
    cols = rng.uniform(-1.0, 1.0, (grid.count, 5))
    for a_index in range(order.n - 1, 3):
        block = operators._inverse_identity_residual(grid, cols, a_index, order, DEFAULT_TOL)
        assert block.shape == (5,)
        for c in range(5):
            one = caputo_inverse_identity_check(GridFn(grid, cols[:, c]), a_index, order)
            assert block[c].tobytes() == np.float64(one).tobytes(), (a_index, c)


# ------------------------------------------------------------------- omega

def test_omega_constant_coefficient_on_one():
    lam, alpha = 0.7, 0.5
    k = build_kernel(GRID, 0, FracOrder(alpha))
    op = OmegaOp(kernel=k, x=GridFn.constant(GRID, lam))
    got = omega_apply(op, GridFn.constant(GRID, 1.0))
    a = GRID.points[0]
    for i in range(GRID.count):
        want = lam * q_factorial_power(GRID.points[i], a, alpha, Q) / gamma_q(alpha + 1.0, Q)
        assert got.values[i] == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_omega_zero_coefficient():
    k = build_kernel(GRID, 0, FracOrder(0.5))
    op = OmegaOp(kernel=k, x=GridFn.constant(GRID, 0.0))
    got = omega_apply(op, GridFn.constant(GRID, 1.0))
    assert np.all(got.values == 0.0)


def test_omega_nested_matches_closed_form():
    lam, alpha = 0.7, 0.5
    k = build_kernel(GRID, 0, FracOrder(alpha))
    op = OmegaOp(kernel=k, x=GridFn.constant(GRID, lam))
    second = omega_apply(op, omega_apply(op, GridFn.constant(GRID, 1.0)))
    want = omega_power_one_closed(lam, 2, FracOrder(alpha), GRID, 0)
    assert np.allclose(second.values, want.values, rtol=1e-10, atol=1e-15)


def test_omega_power_one_closed_basics():
    assert np.all(omega_power_one_closed(0.3, 0, FracOrder(0.5), GRID, 0).values == 1.0)
    a = GRID.points[0]
    got = omega_power_one_closed(1.0, 1, FracOrder(1.0), GRID, 0)
    for i in range(GRID.count):
        assert got.values[i] == pytest.approx(GRID.points[i] - a, rel=1e-13, abs=1e-16)
    # lam**n past the float range, the product with the factorial power past
    # it, and a NaN lam that used to come back as NaN values
    with pytest.raises(RangeError, match="overflows the float range"):
        omega_power_one_closed(10.0, 2000, FracOrder(0.5), GRID, 0)
    with pytest.raises(RangeError, match="overflows the float range"):
        omega_power_one_closed(1e308, 1, FracOrder(0.5), make_grid(0.5, -5, 4), 0)
    with pytest.raises(DomainError, match="lam must be finite"):
        omega_power_one_closed(math.nan, 2, FracOrder(0.5), GRID, 0)


def test_omega_power_three_matches_iterated_application():
    lam, alpha = 0.4, 0.5
    k = build_kernel(GRID, 0, FracOrder(alpha))
    op = OmegaOp(kernel=k, x=GridFn.constant(GRID, lam))
    iterated = GridFn.constant(GRID, 1.0)
    for _ in range(3):
        iterated = omega_apply(op, iterated)
    closed = omega_power_one_closed(lam, 3, FracOrder(alpha), GRID, 0)
    assert np.allclose(iterated.values, closed.values, rtol=1e-9, atol=1e-16)


def test_omega_constant_absolute_bound():
    # |Omega_lam 1| <= Omega_|lam| 1 pointwise, lam < 0
    lam, alpha = -0.6, 0.5
    k = build_kernel(GRID, 0, FracOrder(alpha))
    neg = omega_apply(OmegaOp(kernel=k, x=GridFn.constant(GRID, lam)), GridFn.constant(GRID, 1.0))
    pos = omega_apply(
        OmegaOp(kernel=k, x=GridFn.constant(GRID, abs(lam))), GridFn.constant(GRID, 1.0)
    )
    assert np.all(np.abs(neg.values) <= pos.values + 1e-15)


def test_omega_bounded_coefficient_power_bound():
    # |Omega_y^n 1| <= Omega_lam^n 1 for |y| <= lam, n <= 5
    rng = np.random.default_rng(11)
    lam, alpha = 0.8, 0.5
    k = build_kernel(GRID, 0, FracOrder(alpha))
    y = GridFn(GRID, rng.uniform(-lam, lam, GRID.count))
    op_y = OmegaOp(kernel=k, x=y)
    op_l = OmegaOp(kernel=k, x=GridFn.constant(GRID, lam))
    fy = fl = GridFn.constant(GRID, 1.0)
    for n in range(1, 6):
        fy = omega_apply(op_y, fy)
        fl = omega_apply(op_l, fl)
        assert np.all(np.abs(fy.values) <= fl.values + 1e-15), n
