"""Tests for the q-Mittag-Leffler functions and q-exponentials."""
import math
from itertools import count

import pytest
from mpmath import mpf

from qfrac.errors import (
    DivergenceError,
    DomainError,
    NonConvergenceError,
    PoleError,
    QFracError,
    RangeError,
)
from qfrac.qcore import DEFAULT_TOL, Tolerance, gamma_q, make_grid
from qfrac.special import (
    MLSpec,
    _q_exp_big_with_terms,
    _q_exp_small_with_terms,
    _sum_until_small,
    convergence_ratio_estimate,
    mittag_leffler,
    mittag_leffler_modified,
    q_exp_big,
    q_exp_small,
)

from oracles import (
    ref_Eq_product,
    ref_Eq_series,
    ref_eq_small,
    ref_ml,
    ref_ml_from_zero,
    ref_ml_modified,
)

Q = 0.5


# ------------------------------------------------------------ mittag_leffler

def test_ml_zero_coefficient():
    res = mittag_leffler(MLSpec(0.5, 1.0, 0.0), 1.0, Q)
    assert res.value == pytest.approx(1.0, rel=1e-15)
    assert res.converged
    res = mittag_leffler(MLSpec(0.5, 2.0, 0.0), 1.0, Q)
    assert res.value == pytest.approx(1.0 / gamma_q(2.0, Q), rel=1e-14)


def test_ml_at_lower_point():
    # every term beyond the first vanishes at t = t0
    res = mittag_leffler(MLSpec(0.7, 1.0, 0.9, t0=0.25), 0.25, Q)
    assert res.value == 1.0
    assert res.converged


def test_ml_reduces_to_small_q_exponential():
    got = mittag_leffler(MLSpec(1.0, 1.0, 1.0), 1.0, Q)
    assert got.value == pytest.approx(q_exp_small(1.0, Q), rel=1e-10)


def test_ml_frozen_oracle_value():
    # 50-term reference at 50 digits
    res = mittag_leffler(MLSpec(0.5, 1.0, 0.4), 1.0, Q)
    assert res.value == pytest.approx(1.6726201754818281, rel=1e-12)
    assert res.converged
    assert res.last_term_ratio < 1.0


def test_ml_matches_reference_at_shifted_lower_point():
    a = 0.25
    got = mittag_leffler(MLSpec(0.5, 0.5, 0.3, t0=a), 1.0, Q)
    want = float(ref_ml(0.5, 0.5, 0.3, 1.0, a, Q))
    assert got.value == pytest.approx(want, rel=1e-12)


def test_ml_converged_invariant():
    spec = MLSpec(0.5, 1.0, 0.4)
    res = mittag_leffler(spec, 1.0, Q)
    assert res.converged
    # the invariant: the last recorded term is below tolerance
    terms = [
        0.4 ** k
        * 1.0 ** (0.5 * k)
        / gamma_q(0.5 * k + 1.0, Q)
        for k in range(res.terms_used)
    ]
    assert abs(terms[-1]) <= spec.tol.abs_tol + spec.tol.rel_tol * abs(res.value)


def test_ml_divergence_error_carries_ratio():
    with pytest.raises(DivergenceError) as exc:
        mittag_leffler(MLSpec(0.5, 1.0, 1.0), 4.0, Q)
    assert exc.value.ratio == pytest.approx(4.0 ** 0.5 * 0.5 ** 0.5, rel=1e-12)


def test_ml_monotone_in_t_for_positive_lambda():
    grid = make_grid(Q, 7, 8)
    a = grid.points[0]
    vals = [mittag_leffler(MLSpec(0.5, 1.0, 0.4, t0=a), t, Q).value for t in grid.points]
    assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))


def test_ml_spec_validation():
    with pytest.raises(DomainError):
        MLSpec(0.0, 1.0, 0.1)
    with pytest.raises(DomainError):
        MLSpec(0.5, 0.0, 0.1)
    with pytest.raises(DomainError):
        MLSpec(0.5, 1.0, 0.1, t0=-1.0)
    with pytest.raises(DomainError):
        mittag_leffler(MLSpec(0.5, 1.0, 0.1, t0=0.5), 0.25, Q)  # t < t0
    # non-finite parameters are rejected before any term is summed
    for kwargs in ({"t0": math.nan}, {"t0": math.inf}):
        with pytest.raises(DomainError, match="t0 must be finite"):
            MLSpec(0.5, 1.0, 0.3, **kwargs)
    with pytest.raises(DomainError, match="alpha must be finite"):
        MLSpec(math.inf, 1.0, 0.1)
    with pytest.raises(DomainError, match="beta must be finite"):
        MLSpec(0.5, math.inf, 0.1)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_ml_spec_rejects_nonfinite_lambda(lam):
    with pytest.raises(DomainError):
        MLSpec(0.5, 1.0, lam)


def test_ml_series_continues_past_gamma_q_overflow():
    # term ratio 0.99: the series needs more than 2052 terms, and
    # Gamma_q(0.5 k + 1) leaves the float range at k = 2052
    res = mittag_leffler(MLSpec(0.5, 1.0, 1.4), 1.0, Q)
    assert res.converged and res.terms_used > 2052
    want = ref_ml_from_zero(0.5, 1.0, 1.4, 1.0, Q, terms=8000)
    assert res.value == pytest.approx(float(want), rel=1e-12, abs=0.0)


def test_ml_series_past_gamma_q_overflow_still_refuses_a_partial_sum():
    # term ratio 0.9991 needs ~40,000 terms, more than max_terms
    with pytest.raises(NonConvergenceError, match="within 10000 terms"):
        mittag_leffler(MLSpec(0.5, 1.0, 1.413), 1.0, Q)


@pytest.mark.parametrize("lam", [1e200, -1e200])
def test_ml_series_continues_past_lambda_power_overflow(lam):
    # lam**2 overflows and t**2 underflows at the same step, while each
    # term lam**k t**k / [k]_q! of e_q(lam t) stays moderate
    t = 1e-200
    res = mittag_leffler(MLSpec(1.0, 1.0, lam), t, Q)
    assert res.converged
    assert res.value == pytest.approx(q_exp_small(lam * t, Q), rel=1e-12)


@pytest.mark.parametrize("lam", [1.0, 1.3, 1.38])
def test_ml_series_meets_tolerance_with_ratio_near_one(lam):
    # term ratio 0.71-0.98 while the terms are finite floats: the omitted
    # tail, about term * r / (1 - r), must stay within rel_tol as well
    res = mittag_leffler(MLSpec(0.5, 1.0, lam), 1.0, Q)
    want = ref_ml_from_zero(0.5, 1.0, lam, 1.0, Q, terms=2500)
    assert res.value == pytest.approx(float(want), rel=1e-12, abs=0.0)


# ------------------------------------------------------------- stopping rule

def test_stopping_rule_sums_a_slow_geometric_series():
    # ratio 0.9: a bar of thr alone would stop ~9 thr short of the sum
    terms, ratio = _sum_until_small((0.9 ** k for k in count()), DEFAULT_TOL, "geometric")
    assert math.fsum(terms) == pytest.approx(10.0, rel=1e-12, abs=0.0)
    assert ratio == pytest.approx(0.9)


def test_stopping_rule_refuses_growing_terms():
    with pytest.raises(DivergenceError, match="geometric terms grew"):
        _sum_until_small((2.0 ** k for k in count()), Tolerance(max_terms=50), "geometric")


def test_stopping_rule_refuses_an_overflowing_sum():
    with pytest.raises(RangeError, match="big sum leaves the float range"):
        _sum_until_small((1e308 * 0.5 ** k for k in count()), DEFAULT_TOL, "big")


def test_stopping_rule_refuses_a_slow_tail():
    # harmonic terms shrink but never meet the bar: no partial sum
    with pytest.raises(NonConvergenceError, match="harmonic did not meet tolerance within 500"):
        _sum_until_small((1.0 / (k + 1) for k in count()), Tolerance(max_terms=500), "harmonic")


# --------------------------------------------------- mittag_leffler_modified

def test_ml_modified_equals_plain_at_beta_one():
    plain = mittag_leffler(MLSpec(0.5, 1.0, 0.4), 1.0, Q)
    modified = mittag_leffler_modified(MLSpec(0.5, 1.0, 0.4), 1.0, Q)
    assert modified.value == pytest.approx(plain.value, rel=1e-13)


def test_ml_modified_single_term():
    # lam = 0, beta = alpha: only (t - t0)^{alpha-1} / Gamma_q(alpha) remains
    from qfrac.qcore import q_factorial_power

    res = mittag_leffler_modified(MLSpec(0.5, 0.5, 0.0, t0=0.25), 1.0, Q)
    want = q_factorial_power(1.0, 0.25, -0.5, Q) / gamma_q(0.5, Q)
    assert res.value == pytest.approx(want, rel=1e-13)


def test_ml_modified_frozen_oracle_value():
    res = mittag_leffler_modified(MLSpec(0.5, 0.5, 0.3), 1.0, Q)
    assert res.value == pytest.approx(1.0697541514680608, rel=1e-12)


def test_ml_modified_matches_reference():
    got = mittag_leffler_modified(MLSpec(0.5, 0.5, 0.3, t0=0.125), 0.5, Q)
    want = float(ref_ml_modified(0.5, 0.5, 0.3, 0.5, 0.125, Q))
    assert got.value == pytest.approx(want, rel=1e-12)


def test_ml_modified_with_lower_point_near_t():
    # beta < 1 pushes early exponents negative; the evaluation must survive
    # t0 close to t, where the shifted-point update leaves its domain
    got = mittag_leffler_modified(MLSpec(0.3, 0.5, 0.3, t0=0.45), 0.5, Q)
    want = float(ref_ml_modified(0.3, 0.5, 0.3, 0.5, 0.45, Q))
    assert got.value == pytest.approx(want, rel=1e-11)


# -------------------------------------------------------------- exponentials

def test_q_exp_small_values():
    assert q_exp_small(0.0, Q) == 1.0
    assert q_exp_small(1.0, Q) == pytest.approx(3.4627466194550636, rel=1e-12)
    assert q_exp_small(1.0, Q) == pytest.approx(float(ref_eq_small(1.0, Q)), rel=1e-12)


@pytest.mark.parametrize(
    "t, q", [(1.0, 0.5), (1.9, 0.5), (-19.0, 0.95), (-12.0, 0.95), (1.0, 0.95), (1.9, 0.95)]
)
def test_q_exp_small_matches_product_reference(t, q):
    # e_q(t) = E_q((1-q) t); for t < 0 the series sum t**k / [k]_q! cancels
    # (at t = -19, q = 0.95 its float sum is 309 times too large)
    want = ref_Eq_product((1 - mpf(q)) * mpf(t), q, factors=1500)
    assert q_exp_small(t, q) == pytest.approx(float(want), rel=1e-13, abs=0.0)


def test_q_exp_small_divergence():
    for t in (2.0, -19.0, -12.0):
        with pytest.raises(DivergenceError):
            q_exp_small(t, Q)  # |t| (1-q) >= 1
    for t in (math.nan, math.inf, -math.inf):  # NaN slipped through as a NaN value
        with pytest.raises(DomainError, match="t must be finite"):
            q_exp_small(t, Q)


def test_q_exp_identity():
    # e_q(t) = E_q((1-q) t): the product evaluation against the 50-digit
    # series sum_k t**k / Gamma_q(k + 1), and against q_exp_big itself
    for t in (0.2, 1.0, 1.9, -1.0, -1.9):
        want = float(ref_ml_from_zero(1, 1, 1, t, Q, terms=800))
        assert q_exp_small(t, Q) == pytest.approx(want, rel=1e-13, abs=0.0)
        assert q_exp_small(t, Q) == pytest.approx(q_exp_big((1 - Q) * t, Q), rel=1e-11)


@pytest.mark.parametrize("t", [1.0, -1.0, 30.0, -30.0])
def test_q_exp_small_near_q_one_sums_the_series(t):
    # at q = 0.999 the product needs ~36,000 factors, past max_terms; the
    # series of positive terms (for t < 0, of 1 / e_q(t)) takes over
    want = float(ref_ml_from_zero(1, 1, 1, t, 0.999, terms=250))
    value, terms = _q_exp_small_with_terms(t, 0.999, DEFAULT_TOL)
    assert value == pytest.approx(want, rel=1e-13, abs=0.0)
    assert terms < 100


def test_q_exp_small_past_float_range():
    # e_q(900) at q = 0.999 is about 5e564, and e_q(-900) about 2e-327
    for t in (900.0, -900.0):
        with pytest.raises(RangeError, match="e_q series sum leaves the float range"):
            q_exp_small(t, 0.999)


@pytest.mark.parametrize("t", [0.5, -0.5])
def test_q_exp_big_near_q_one_sums_the_series(t):
    # at q = 0.999 the product needs 36,026 factors, past max_terms; for
    # |t| < 1 the series (for t < 0, of 1 / E_q(t), positive terms) takes
    # over.  The 50-digit reference for t > 0 is the series, exact in mpmath;
    # for t < 0 that series cancels ~450 digits, so it is the product, whose
    # omitted tail after 50,000 factors is below 1e-18 relative.
    if t > 0:
        want = ref_Eq_series(t, 0.999, terms=9000)
    else:
        want = ref_Eq_product(t, 0.999, factors=50_000)
    value, terms = _q_exp_big_with_terms(t, 0.999, DEFAULT_TOL)
    assert value == pytest.approx(float(want), rel=1e-12, abs=0.0)
    assert terms < 1000


@pytest.mark.parametrize("t", [-1.0, 1.5, -1.5])
def test_q_exp_big_near_q_one_refuses_past_the_series(t):
    # |t| >= 1: no series fallback, the capped product still raises
    with pytest.raises(NonConvergenceError, match="more than max_terms"):
        q_exp_big(t, 0.999)


def test_q_exp_big_values():
    assert q_exp_big(0.0, Q) == 1.0
    for t in (math.nan, math.inf, -math.inf):  # a NaN value, a bare OverflowError
        with pytest.raises(DomainError, match="t must be finite"):
            q_exp_big(t, Q)
    assert q_exp_big(0.5, Q) == pytest.approx(3.4627466194550636, rel=1e-13)
    assert q_exp_big(0.5, Q) == pytest.approx(float(ref_Eq_product(0.5, Q)), rel=1e-13)


def test_q_exp_big_series_product_agreement():
    for t in (-0.9, -0.4, 0.1, 0.5, 0.9):
        prod = q_exp_big(t, Q)
        series = float(ref_Eq_series(t, Q, terms=400))
        assert prod == pytest.approx(series, rel=1e-12), t


@pytest.mark.parametrize(
    "t, q", [(-0.7749447277059471, 0.960941213186356), (-0.4, 0.95)]
)
def test_q_exp_big_survives_series_cancellation(t, q):
    # the alternating series cancels to ~1e-6 absolute here, far from the
    # product; its terms' sum of moduli bounds that rounding, so no error
    want = float(ref_Eq_product(t, q, factors=2000))
    assert q_exp_big(t, q) == pytest.approx(want, rel=1e-13)


def test_q_exp_big_wrong_product_still_raises(monkeypatch):
    import qfrac.special as special

    true_product = special._q_product

    def off_by_1e9(*args):
        sign, log_abs, used = true_product(*args)
        return sign, log_abs + 1e-9, used

    monkeypatch.setattr(special, "_q_product", off_by_1e9)
    for t in (-0.4, 0.5):
        with pytest.raises(QFracError, match="disagreement"):
            q_exp_big(t, Q)


def test_q_exp_big_poles():
    with pytest.raises(PoleError):
        q_exp_big(1.0, Q)  # n = 0 factor vanishes
    with pytest.raises(PoleError):
        q_exp_big(2.0, Q)  # q * 2 = 1
    # just off the pole is fine (huge but finite)
    assert math.isfinite(q_exp_big(0.999, Q))


def test_q_exp_big_beyond_unit_disc():
    # product continues past the series domain; reference product agrees
    got = q_exp_big(3.0, Q)
    want = float(ref_Eq_product(3.0, Q))
    assert got == pytest.approx(want, rel=1e-12)


# -------------------------------------------------- convergence diagnostics

def test_ratio_estimate_values():
    assert convergence_ratio_estimate(0.5, Q, 1.0, 0.0, 1.0) == pytest.approx(
        (1 - Q) ** 0.5, rel=1e-15
    )
    assert convergence_ratio_estimate(0.5, Q, 1.0, 0.0, 0.0) == 0.0
    assert convergence_ratio_estimate(0.5, Q, 1.0, 0.0, 1.0) == pytest.approx(
        0.7071067811865476, rel=1e-12
    )
    with pytest.raises(DomainError):
        convergence_ratio_estimate(0.5, Q, 0.1, 0.5, 1.0)  # t < a


def test_measured_term_ratio_approaches_estimate():
    # consecutive terms of sum t^{k alpha}/Gamma_q(k alpha + 1) at t = 1
    alpha = 0.5
    a40 = 1.0 / gamma_q(40 * alpha + 1.0, Q)
    a39 = 1.0 / gamma_q(39 * alpha + 1.0, Q)
    est = convergence_ratio_estimate(alpha, Q, 1.0, 0.0, 1.0)
    assert abs(a40 / a39 - est) <= 1e-3


def test_term_ratio_law_tracks_lambda_and_t():
    # measured ratio tends to lam * t^alpha * (1-q)^alpha
    alpha, lam, t = 0.5, 0.6, 0.8
    terms = [
        lam ** k * t ** (alpha * k) / gamma_q(alpha * k + 1.0, Q) for k in range(45)
    ]
    measured = terms[40] / terms[39]
    assert measured == pytest.approx(
        convergence_ratio_estimate(alpha, Q, t, 0.0, lam), abs=1e-3
    )
