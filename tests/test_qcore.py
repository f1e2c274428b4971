"""Tests for grids, q-arithmetic, factorial powers and the q-Gamma function."""
import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from qfrac.errors import DomainError, GridMismatchError, RangeError
from qfrac.qcore import (
    GAMMA_CACHE_SIZE,
    FracOrder,
    GridFn,
    Tolerance,
    gamma_q,
    make_grid,
    q_bracket,
    q_factorial_power,
    q_pochhammer,
    _gamma_q_cached,
)

from oracles import ref_gamma_q, ref_qfp

q_strat = st.floats(min_value=0.05, max_value=0.95)


# ---------------------------------------------------------------- q_bracket

def test_q_bracket_values():
    assert q_bracket(0.0, 0.5) == 0.0
    assert q_bracket(1.0, 0.5) == pytest.approx(1.0, rel=1e-15)
    assert q_bracket(2.0, 0.5) == pytest.approx(1.5, rel=1e-15)


def test_q_bracket_rejects_bad_base():
    with pytest.raises(DomainError):
        q_bracket(1.0, 1.0)
    with pytest.raises(DomainError):
        q_bracket(1.0, -0.1)


@hypothesis.given(q=q_strat, r=st.floats(min_value=-5, max_value=5))
def test_q_bracket_shift_identity(q, r):
    # [r+1]_q = 1 + q [r]_q
    assert q_bracket(r + 1.0, q) == pytest.approx(1.0 + q * q_bracket(r, q), rel=1e-12, abs=1e-12)


# ------------------------------------------------------------ q_pochhammer

def test_q_pochhammer_values():
    assert q_pochhammer(0.5, 0) == 1.0
    assert q_pochhammer(0.5, 1) == 0.5
    assert q_pochhammer(0.5, 2) == 0.375


@hypothesis.given(q=q_strat, n=st.integers(min_value=0, max_value=30))
def test_q_pochhammer_recurrence(q, n):
    assert q_pochhammer(q, n + 1) == pytest.approx(
        q_pochhammer(q, n) * (1.0 - q ** (n + 1)), rel=1e-12
    )


# -------------------------------------------------------- q_factorial_power

def test_qfp_zero_s_is_plain_power():
    assert q_factorial_power(2.0, 0.0, 0.7, 0.5) == pytest.approx(2.0 ** 0.7, rel=1e-15)


def test_qfp_integer_exponent():
    assert q_factorial_power(1.0, 0.5, 2.0, 0.5) == pytest.approx(0.375, rel=1e-15)
    assert q_factorial_power(1.0, 0.5, 0.0, 0.5) == 1.0
    # integer branch admits any s, including s > t
    assert q_factorial_power(1.0, 2.0, 2.0, 0.5) == pytest.approx((1 - 2) * (1 - 1), abs=1e-15)


def test_qfp_frozen_oracle_value():
    # 200-factor product at 50 digits: (1 - 0.5)_q^{0.5} at q = 0.5
    assert q_factorial_power(1.0, 0.5, 0.5, 0.5) == pytest.approx(
        0.6511572755150400929, rel=1e-13
    )


def test_qfp_exponent_addition_cross_check():
    # beta = gamma = 0.25 splitting of the 0.5 exponent
    t, s, q = 1.0, 0.5, 0.5
    left = q_factorial_power(t, s, 0.5, q)
    right = q_factorial_power(t, s, 0.25, q) * q_factorial_power(t, q ** 0.25 * s, 0.25, q)
    assert left == pytest.approx(right, rel=1e-12)


def test_qfp_equal_arguments():
    assert q_factorial_power(1.0, 1.0, 0.5, 0.5) == 0.0
    with pytest.raises(DomainError):
        q_factorial_power(1.0, 1.0, -0.5, 0.5)


def test_qfp_domain_errors():
    with pytest.raises(DomainError):
        q_factorial_power(1.0, 2.0, 0.5, 0.5)  # s/t > 1, non-integer exponent
    with pytest.raises(DomainError):
        q_factorial_power(-1.0, 0.5, 0.5, 0.5)
    with pytest.raises(DomainError):
        q_factorial_power(1.0, -0.5, 0.5, 0.5)


@hypothesis.given(
    q=q_strat,
    ratio=st.floats(min_value=0.0, max_value=0.9),
    n=st.integers(min_value=0, max_value=6),
)
def test_qfp_integer_matches_general_branch(q, ratio, n):
    # nudge the exponent off the integer to force the product branch
    t, s = 2.0, 2.0 * ratio
    finite = q_factorial_power(t, s, float(n), q)
    general = q_factorial_power(t, s, n + 1e-12, q)
    assert general == pytest.approx(finite, rel=1e-9, abs=1e-9)


@hypothesis.given(
    q=q_strat,
    ratio=st.floats(min_value=0.0, max_value=0.9),
    beta=st.floats(min_value=0.1, max_value=2.0),
    gam=st.floats(min_value=0.1, max_value=2.0),
)
@hypothesis.settings(max_examples=60)
def test_qfp_exponent_addition_property(q, ratio, beta, gam):
    t, s = 1.5, 1.5 * ratio
    lhs = q_factorial_power(t, s, beta + gam, q)
    rhs = q_factorial_power(t, s, beta, q) * q_factorial_power(t, q ** beta * s, gam, q)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


@hypothesis.given(
    q=q_strat,
    ratio=st.floats(min_value=0.0, max_value=0.9),
    beta=st.floats(min_value=0.1, max_value=2.0),
    scale=st.floats(min_value=0.1, max_value=4.0),
)
@hypothesis.settings(max_examples=60)
def test_qfp_scaling_property(q, ratio, beta, scale):
    t, s = 1.5, 1.5 * ratio
    lhs = q_factorial_power(scale * t, scale * s, beta, q)
    rhs = scale ** beta * q_factorial_power(t, s, beta, q)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_qfp_matches_reference_on_sampled_arguments():
    for q in (0.3, 0.5, 0.9):
        for ratio in (0.0, 0.3, 0.6, 0.89):
            for nu in (-0.5, 0.25, 0.5, 1.3, 2.7):
                got = q_factorial_power(2.0, 2.0 * ratio, nu, q)
                want = float(ref_qfp(2.0, 2.0 * ratio, nu, q, factors=None))
                assert got == pytest.approx(want, rel=1e-12), (q, ratio, nu)


# ------------------------------------------------------------------ gamma_q

def test_gamma_q_known_values():
    assert gamma_q(1.0, 0.5) == 1.0
    assert gamma_q(2.0, 0.5) == 1.0
    assert gamma_q(3.0, 0.5) == pytest.approx(1.5, rel=1e-15)


def test_gamma_q_frozen_oracle_value():
    assert gamma_q(0.5, 0.5) == pytest.approx(1.5720327257863239, rel=1e-13)
    assert gamma_q(1.5, 0.5) == pytest.approx(0.9208754502712838, rel=1e-13)


def test_gamma_q_cache_is_bounded():
    for k in range(GAMMA_CACHE_SIZE + 10):
        gamma_q(1.0 + k / 4096.0, 0.5)
    assert _gamma_q_cached.cache_info().currsize == GAMMA_CACHE_SIZE


def test_gamma_q_recurrence():
    for q in (0.3, 0.5, 0.9):
        for alpha in (0.3, 0.5, 1.7):
            lhs = gamma_q(alpha + 1.0, q)
            rhs = q_bracket(alpha, q) * gamma_q(alpha, q)
            assert lhs == pytest.approx(rhs, rel=1e-10), (q, alpha)


def test_gamma_q_integer_factorial():
    for q in (0.3, 0.5, 0.9):
        fact = 1.0
        for n in range(11):
            assert gamma_q(n + 1.0, q) == pytest.approx(fact, rel=1e-12), (q, n)
            fact *= q_bracket(n + 1.0, q)


def test_gamma_q_matches_reference():
    for q in (0.3, 0.5, 0.9):
        for alpha in (0.17, 0.5, 1.31, 2.4, 5.5):
            assert gamma_q(alpha, q) == pytest.approx(
                float(ref_gamma_q(alpha, q)), rel=1e-12
            ), (q, alpha)


def test_base_close_to_one_stays_accurate():
    # ~3600 product factors at q = 0.99: compensated accumulation keeps
    # identities well under the 1e-10 budget
    q = 0.99
    for nu in (0.25, 1.3, -0.5):
        got = q_factorial_power(1.5, 0.9, nu, q)
        want = float(ref_qfp(1.5, 0.9, nu, q))
        assert got == pytest.approx(want, rel=1e-12), nu
    for alpha in (0.3, 1.7):
        assert gamma_q(alpha + 1.0, q) == pytest.approx(
            q_bracket(alpha, q) * gamma_q(alpha, q), rel=1e-12
        )


def test_gamma_q_rejects_nonpositive():
    with pytest.raises(DomainError):
        gamma_q(0.0, 0.5)
    with pytest.raises(DomainError):
        gamma_q(-0.5, 0.5)


@pytest.mark.parametrize("alpha", [1027.0, 1100.0])
def test_gamma_q_overflow_is_range_error(alpha):
    # Gamma_q(alpha) ~ 0.29 * 2**(alpha-1) at q = 0.5 exceeds the float range;
    # at alpha = 1100, (1-q)**(alpha-1) also underflows to 0
    with pytest.raises(RangeError):
        gamma_q(alpha, 0.5)


def test_gamma_q_finite_past_denominator_underflow():
    # (1-q)**(alpha-1) = 1e-338 underflows to 0, Gamma_q(170) ~ 3.7e276 does not
    assert gamma_q(170.0, 0.99) == pytest.approx(float(ref_gamma_q(170.0, 0.99)), rel=1e-13)


# ---------------------------------------------------------------- make_grid

def test_make_grid_examples():
    assert make_grid(0.5, 3, 4).points == (0.125, 0.25, 0.5, 1.0)
    assert make_grid(0.5, 0, 3).points == (1.0, 2.0, 4.0)
    g = make_grid(0.9, 10, 1)
    assert g.points == (0.9 ** 10,)


def test_make_grid_ratio_is_exact():
    g = make_grid(0.7, 5, 20)
    for k in range(g.count - 1):
        assert g.points[k + 1] == g.points[k] / 0.7  # bit-exact by construction
    assert all(p > 0 for p in g.points)
    assert list(g.points) == sorted(g.points)


def test_make_grid_range_errors():
    with pytest.raises(RangeError):
        make_grid(0.5, 0, 2000)  # overflow at 2**1999
    with pytest.raises(RangeError):
        make_grid(0.5, 5000, 3)  # anchor underflows to 0
    with pytest.raises(DomainError):
        make_grid(0.5, 0, 0)


@hypothesis.given(q=q_strat, n_start=st.integers(-20, 60), count=st.integers(1, 64))
@hypothesis.settings(max_examples=60)
def test_make_grid_never_contains_zero(q, n_start, count):
    g = make_grid(q, n_start, count)
    assert all(p > 0 for p in g.points)
    assert g.count == count


# ------------------------------------------------------- GridFn / FracOrder

def test_gridfn_validation():
    g = make_grid(0.5, 3, 4)
    with pytest.raises(GridMismatchError):
        GridFn(g, np.ones(3))
    with pytest.raises(DomainError):
        GridFn(g, np.array([1.0, np.inf, 0.0, 0.0]))
    f = GridFn(g, np.arange(4.0))
    with pytest.raises(ValueError):
        f.values[0] = 5.0  # read-only


def test_gridfn_constructors():
    g = make_grid(0.5, 3, 4)
    assert GridFn.constant(g, 2.0).values.tolist() == [2.0] * 4
    assert GridFn.from_callable(g, lambda t: t * 2).values.tolist() == [2 * p for p in g.points]


def test_frac_order():
    assert FracOrder(0.5).n == 1
    assert FracOrder(1.0).n == 1
    assert FracOrder(1.2).n == 2
    assert FracOrder(2.0).n == 2
    assert FracOrder(2.0).is_integer
    assert not FracOrder(0.5).is_integer
    with pytest.raises(DomainError):
        FracOrder(0.0)
    with pytest.raises(DomainError):
        FracOrder(-1.0)


def test_tolerance_validation():
    with pytest.raises(DomainError):
        Tolerance(rel_tol=0.0)
    with pytest.raises(DomainError):
        Tolerance(abs_tol=-1.0)
    with pytest.raises(DomainError):
        Tolerance(max_terms=0)


def test_gamma_q_cache_is_consistent_across_threads():
    import concurrent.futures

    args = [(0.3 + 0.01 * k, 0.5) for k in range(40)]
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda a: gamma_q(*a), args))
    assert results == [gamma_q(a, q) for a, q in args]
