"""Tests for grids, q-arithmetic, factorial powers, the q-Gamma function and
the bounded LRU cache."""
import math
import random
import threading

import hypothesis
import mpmath as mp
import numpy as np
import pytest
from hypothesis import strategies as st

from qfrac.errors import DomainError, GridMismatchError, NonConvergenceError, RangeError
from qfrac.qcore import (
    GAMMA_CACHE_SIZE,
    FracOrder,
    GridFn,
    QGrid,
    Tolerance,
    gamma_q,
    make_grid,
    q_bracket,
    q_factorial_power,
    q_pochhammer,
    _BoundedLRU,
    SMALL_GAMMA_ALPHA,
    _gamma_q_cached,
    _log_gamma_q,
    _q_factorial_power,
)

from oracles import loop_q_factorial_power, ref_gamma_q, ref_qfp

q_strat = st.floats(min_value=0.05, max_value=0.95)


# ---------------------------------------------------------------- q_bracket

def test_q_bracket_values():
    assert q_bracket(0.0, 0.5) == 0.0
    assert q_bracket(1.0, 0.5) == pytest.approx(1.0, rel=1e-15)
    assert q_bracket(2.0, 0.5) == pytest.approx(1.5, rel=1e-15)
    # past the float range: q**r overflows in expm1, or [r]_q in the division
    for r in (-1e308, -1100.0, -1023.5):
        with pytest.raises(RangeError, match="overflows the float range"):
            q_bracket(r, 0.5)


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
    assert q_pochhammer(0.5, np.int64(2)) == 0.375
    for n in (2.5, 2.0, math.nan, math.inf, True):
        with pytest.raises(DomainError):
            q_pochhammer(0.5, n)


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


@pytest.mark.parametrize("q", [0.5, 0.9])  # 52 and 343 factors
def test_qfp_nan_argument_propagates(q):
    # the public entry rejects a NaN argument; past that check, NaN factors
    # are kept in the product, not dropped as if they were 1
    with pytest.raises(DomainError, match="s must be finite"):
        q_factorial_power(1.0, np.nan, 0.5, q)
    assert np.isnan(_q_factorial_power(1.0, np.nan, 0.5, q, 10_000, None))


def test_qfp_domain_errors():
    with pytest.raises(DomainError):
        q_factorial_power(1.0, 2.0, 0.5, 0.5)  # s/t > 1, non-integer exponent
    with pytest.raises(DomainError):
        q_factorial_power(-1.0, 0.5, 0.5, 0.5)
    with pytest.raises(DomainError):
        q_factorial_power(1.0, -0.5, 0.5, 0.5)


def test_qfp_integer_orders_up_to_max_terms_are_the_loop_bit_for_bit():
    rng = random.Random(20261019)
    for _ in range(400):
        q = rng.uniform(0.2, 0.99)
        t = 1.0 if rng.random() < 0.25 else 10.0 ** rng.uniform(-2.0, 2.0)
        s = t * rng.choice([rng.random(), 1.0, rng.uniform(1.0, 3.0)])  # s >= t too
        nu = float(rng.randrange(400))
        max_terms = max(1, rng.choice([int(nu), int(nu) + 1, 10_000]))
        got = _q_factorial_power(t, s, nu, q, max_terms, None)
        want = loop_q_factorial_power(t, s, nu, q)
        assert repr(got) == repr(want), (t, s, nu, q, max_terms)  # -0.0, inf, nan too


@pytest.mark.parametrize("t, s, q", [
    (1.0, 0.5, 0.5), (1.0, 0.9, 0.9),  # the factors become exactly 1.0
    (0.25, 0.1, 0.7), (0.25, 1.5, 0.5),  # underflow to 0.0 and to -0.0
    (4.0, 10.0, 0.5), (4.0, 20.0, 0.5),  # overflow to inf and to -inf
    (1.0, math.nan, 0.5),  # NaN stays NaN
])
def test_qfp_integer_orders_past_max_terms_stop_once_the_product_is_final(t, s, q):
    got = _q_factorial_power(t, s, 5000.0, q, 1_000, None)
    assert repr(got) == repr(loop_q_factorial_power(t, s, 5000.0, q))


@pytest.mark.parametrize("t, s", [
    (1.0000001, 0.0), (0.9, 0.1),  # finite, still growing or shrinking
    (1.0, 1e305),  # -inf, but the factors are still negative and flip its sign
])
def test_qfp_integer_orders_still_changing_at_max_terms_raise(t, s):
    with pytest.raises(NonConvergenceError, match="after max_terms=1000 factors"):
        _q_factorial_power(t, s, 5000.0, 0.5, 1_000, None)


def test_qfp_integer_order_factor_of_one_is_final_only_at_t_one():
    # the factor after the cap rounds to exactly 1.0, but later ones are t > 1
    t, s = 1.0 + 2.0 ** -52, 2.0 ** -51
    assert loop_q_factorial_power(t, s, 50.0, 0.5) != loop_q_factorial_power(t, s, 1.0, 0.5)
    with pytest.raises(NonConvergenceError):
        _q_factorial_power(t, s, 50.0, 0.5, 1, None)


def test_qfp_huge_integer_orders_stop_at_max_terms():
    # far past max_terms: the products are final at the cap
    assert q_factorial_power(1.5, 1.0, 1e12, 0.5) == math.inf
    assert q_factorial_power(1.0, 0.5, 1e308, 0.5) == loop_q_factorial_power(1.0, 0.5, 60.0, 0.5)
    with pytest.raises(RangeError):
        gamma_q(1e308, 0.5)


@pytest.mark.parametrize("t, s, nu", [
    (1.5, 1.0, 2000.5), (1e300, 1.0, 1.5), (1e-300, 0.0, -2.5), (1.5, 1.0, -2000.5),
])
def test_qfp_overflow_off_the_integer_branch_is_range_error(t, s, nu):
    with pytest.raises(RangeError, match="overflows the float range"):
        q_factorial_power(t, s, nu, 0.5)
    assert q_factorial_power(1.5, 1.0, 2000.0, 0.5) == math.inf  # the integer branch


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


@pytest.mark.parametrize("q", [0.2, 0.5, 0.9, 0.95])
def test_gamma_q_small_alpha_matches_reference(q):
    # below SMALL_GAMMA_ALPHA, Gamma_q(1 + alpha) / [alpha]_q keeps the bits
    # of alpha that alpha - 1.0 drops (at the parent: 1.05 relative error at
    # alpha = 1e-17, q = 0.3, and a PoleError at q = 0.5)
    with mp.workdps(70):
        qm = mp.mpf(q)
        factors = math.ceil(70 * math.log(10) / -math.log(q)) + 10
        q_q = mp.fprod(1 - qm ** (i + 1) for i in range(factors))
        for alpha in (1e-20, 1e-17, 3e-15, 1e-10, 1e-6, 1e-3, 0.005, SMALL_GAMMA_ALPHA * 0.999):
            am = mp.mpf(alpha)
            ref = q_q / mp.fprod(1 - qm ** (am + i) for i in range(factors)) * (1 - qm) ** (1 - am)
            assert abs(gamma_q(alpha, q) - ref) <= 1e-14 * ref, alpha
            assert abs(_log_gamma_q(alpha, q, 10_000) - mp.log(ref)) <= 1e-14 * abs(mp.log(ref)), alpha
    assert gamma_q(1e-17, 0.5) > 0.0  # a PoleError at the parent


def test_gamma_q_rejects_nonpositive():
    with pytest.raises(DomainError):
        gamma_q(0.0, 0.5)
    with pytest.raises(DomainError):
        gamma_q(-0.5, 0.5)


@pytest.mark.parametrize("alpha", [1027.0, 1100.0, 2200.0])
def test_gamma_q_overflow_is_range_error(alpha):
    # Gamma_q(alpha) ~ 0.29 * 2**(alpha-1) at q = 0.5 exceeds the float range;
    # at alpha = 1100, (1-q)**(alpha-1) also underflows to 0, and at 2200 so
    # does its square root
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
    for n_start in (-2000, np.int64(-2000)):  # q**n_start overflows
        with pytest.raises(RangeError, match="not representable"):
            make_grid(0.5, n_start, 3)
    with pytest.raises(DomainError):
        make_grid(0.5, 0, 0)
    # grid indices are integers: q**2.5 is off the time scale {q**n}
    for n_start, count in ((2.5, 3), (2.0, 3), (True, 3), (2, 2.5), (2, 3.0), (2, True)):
        with pytest.raises(DomainError, match="must be an integer"):
            make_grid(0.5, n_start, count)
    for bad in (2.5, 2.0, True, None):
        with pytest.raises(DomainError, match="n_start must be an integer"):
            QGrid(0.5, bad, (0.25, 0.5))
    g = make_grid(0.5, np.int64(2), np.int64(3))
    assert g == make_grid(0.5, 2, 3) and type(g.n_start) is int
    assert QGrid(0.5, np.int64(2), (0.25, 0.5)).points == (0.25, 0.5)


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


@pytest.mark.parametrize("make", [
    lambda g: GridFn(g, np.array([1.0, np.nan, 0.0, 0.0])),
    lambda g: GridFn(g, [1.0, 2.0, 3.0, -np.inf]),
    lambda g: GridFn.constant(g, np.nan),
    lambda g: GridFn.from_callable(g, lambda t: np.nan if t == 1.0 else t),
])
def test_gridfn_rejects_nonfinite_user_data(make):
    # user data may hold neither NaN nor infinities; only the package's own
    # arrays (GridFn._owned) may carry the integer-order Caputo marker
    with pytest.raises(DomainError, match="must be finite"):
        make(make_grid(0.5, 3, 4))


def test_gridfn_constructor_copies():
    g = make_grid(0.5, 3, 4)
    data = np.arange(4.0)
    f = GridFn(g, data)
    assert not np.shares_memory(f.values, data)
    data[0] = 7.0
    assert f.values[0] == 0.0
    assert data.flags.writeable  # the caller's array is left as it was


def test_gridfn_owned_keeps_the_array():
    # the internal path for arrays the package has just computed: no copy,
    # read-only, NaN admitted (integer-order Caputo marker), shape and
    # infinities still checked
    g = make_grid(0.5, 3, 4)
    data = np.array([np.nan, 1.0, 2.0, 3.0])
    f = GridFn._owned(g, data)
    assert f.values is data and not data.flags.writeable
    with pytest.raises(GridMismatchError):
        GridFn._owned(g, np.ones(3))
    with pytest.raises(DomainError, match="must be finite"):
        GridFn._owned(g, np.array([0.0, np.inf, 0.0, 0.0]))


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
    for alpha in (math.inf, math.nan):
        with pytest.raises(DomainError):
            FracOrder(alpha)


def test_tolerance_validation():
    with pytest.raises(DomainError):
        Tolerance(rel_tol=0.0)
    with pytest.raises(DomainError):
        Tolerance(abs_tol=-1.0)
    with pytest.raises(DomainError):
        Tolerance(max_terms=0)
    for kwargs in ({"abs_tol": math.nan}, {"abs_tol": math.inf}, {"rel_tol": math.inf},
                   {"max_terms": 2.5}, {"max_terms": 10.0}, {"max_terms": True}):
        with pytest.raises(DomainError):
            Tolerance(**kwargs)
    assert Tolerance(max_terms=np.int64(20)).max_terms == 20


def test_gamma_q_cache_is_consistent_across_threads():
    import concurrent.futures

    args = [(0.3 + 0.01 * k, 0.5) for k in range(40)]
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda a: gamma_q(*a), args))
    assert results == [gamma_q(a, q) for a, q in args]


# -------------------------------------------------------------- _BoundedLRU

def _never():
    raise AssertionError("a hit must not build")


def test_bounded_lru_contract():
    cache = _BoundedLRU(3, len)
    a, b, c = (cache.get(key, lambda: [0]) for key in "abc")
    assert cache.get("a", _never) is a  # a hit makes "a" the newest
    cache.get("d", lambda: [0])  # evicts "b", the least recently used
    assert list(cache._items) == ["c", "a", "d"] and cache.total() == 3
    # a value grows after it was handed out: the next trim counts the growth
    a.extend([0, 0])
    assert cache.total() == 5
    cache.trim()  # drops "c", then "a", the oldest first
    assert list(cache._items) == ["d"]
    # an insert keeps the newest value, even when it alone exceeds the budget
    big = cache.get("e", lambda: [0] * 5)
    assert list(cache._items) == ["e"] and cache.get("e", _never) is big
    # trim() enforces the budget fully, even if that empties the cache
    cache.trim()
    assert cache.total() == 0 and not cache._items

    # callers that miss the same key at once all get the value stored first
    workers = 4
    built: list[list[int]] = []
    got: list = [None] * workers
    all_missed = threading.Barrier(workers, timeout=30)

    def make():
        value = [len(built)]
        built.append(value)
        all_missed.wait()  # no caller stores before every caller has built
        return value

    def run(slot):
        got[slot] = cache.get("k", make)

    threads = [threading.Thread(target=run, args=(slot,)) for slot in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert len(built) == workers
    assert all(value is got[0] for value in got) and any(v is got[0] for v in built)
    assert cache.get("k", _never) is got[0]
