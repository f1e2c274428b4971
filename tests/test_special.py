"""Tests for the q-Mittag-Leffler functions and q-exponentials."""
import math

import pytest

from qfrac.errors import DivergenceError, DomainError, PoleError, RangeError
from qfrac.qcore import gamma_q, make_grid
from qfrac.special import (
    MLSpec,
    convergence_ratio_estimate,
    mittag_leffler,
    mittag_leffler_modified,
    q_exp_big,
    q_exp_small,
)

from oracles import ref_Eq_product, ref_Eq_series, ref_eq_small, ref_ml, ref_ml_modified

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


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_ml_spec_rejects_nonfinite_lambda(lam):
    with pytest.raises(DomainError):
        MLSpec(0.5, 1.0, lam)


@pytest.mark.parametrize("lam", [1.4, 1.413])
def test_ml_series_stops_where_gamma_q_overflows(lam):
    # the series needs more than 2052 terms here, and Gamma_q(0.5 k + 1)
    # leaves the float range before that: no term may silently become 0
    with pytest.raises(RangeError):
        mittag_leffler(MLSpec(0.5, 1.0, lam), 1.0, Q)


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


def test_q_exp_small_divergence():
    with pytest.raises(DivergenceError):
        q_exp_small(2.0, Q)  # |t| (1-q) = 1


def test_q_exp_identity():
    # e_q(t) = E_q((1-q) t)
    for t in (0.2, 1.0, 1.9):
        assert q_exp_small(t, Q) == pytest.approx(q_exp_big((1 - Q) * t, Q), rel=1e-11)


def test_q_exp_big_values():
    assert q_exp_big(0.0, Q) == 1.0
    assert q_exp_big(0.5, Q) == pytest.approx(3.4627466194550636, rel=1e-13)
    assert q_exp_big(0.5, Q) == pytest.approx(float(ref_Eq_product(0.5, Q)), rel=1e-13)


def test_q_exp_big_series_product_agreement():
    for t in (-0.9, -0.4, 0.1, 0.5, 0.9):
        prod = q_exp_big(t, Q)
        series = float(ref_Eq_series(t, Q, terms=400))
        assert prod == pytest.approx(series, rel=1e-12), t


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
