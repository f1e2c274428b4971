"""The q-product routine against the scalar loops it replaced.

``q_factorial_power`` and ``q_exp_big`` evaluate long products in one numpy
pass and short ones in a loop.  Both must return exactly the floats of the
factor-by-factor loops kept in ``oracles`` and raise the same exception
types, on both sides of the factor-count threshold.  Warnings are errors
here, so a numpy pass that leaks a RuntimeWarning fails.
"""
import math
import random

import numpy as np
import pytest

from qfrac.errors import NonConvergenceError, PoleError
from qfrac.qcore import (
    DEFAULT_TOL,
    NUMPY_PRODUCT_MIN_FACTORS,
    Tolerance,
    gamma_q,
    product_truncation_index,
    q_factorial_power,
)
from qfrac.special import _q_exp_big_with_terms

from oracles import loop_q_exp_big, loop_q_factorial_power

#: base ranges whose full factor counts fall below / at or above the threshold
Q_RANGES = {"loop": (0.2, 0.7), "numpy": (0.8, 0.97)}
R_BELOW_ONE = float(np.nextafter(1.0, 0.0))


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as exc:  # the exception type is part of the contract
        return "raises", type(exc)


def _same(got, want) -> bool:
    if got[0] == want[0] == "value":
        a, b = np.atleast_1d(got[1]), np.atleast_1d(want[1])
        return a.shape == b.shape and bool(np.all((a == b) | (np.isnan(a) & np.isnan(b))))
    return got == want


def _qfp_cases(rng: random.Random, q: float):
    """(t, s, nu) covering every branch of the factorial power at base q."""
    t = 10.0 ** rng.uniform(-2.0, 2.0)
    yield t, t * rng.random(), rng.uniform(-3.0, 3.0)
    yield t, t * rng.random() ** 4, rng.uniform(-40.0, -1.0)  # negative factors
    yield t, t * (1.0 - 10.0 ** rng.uniform(-16.0, -2.0)), rng.uniform(-3.0, 3.0)  # s/t near 1
    yield 1.0, R_BELOW_ONE, rng.uniform(-40.0, -0.01)  # a factor rounds to exactly 0
    nu = rng.uniform(-3.0, -0.01)
    pole = 1.0 / (math.exp(nu * math.log(q)) * q ** rng.randrange(3))
    for s in (pole, float(np.nextafter(pole, 0.0)), float(np.nextafter(pole, 2.0))):
        yield 1.0, s, nu  # the denominator can round to exactly 0
    yield t, t * rng.uniform(0.0, 2.0), float(rng.randint(-3, 6))  # integer nu
    yield t, 0.0, rng.uniform(-3.0, 3.0)  # s/t == 0
    yield t, t, rng.uniform(-3.0, 3.0)  # s/t == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("side", sorted(Q_RANGES))
def test_q_factorial_power_matches_loop(side):
    rng = random.Random(20240917 + len(side))
    seen = {"zero": 0, "pole": 0, "negative": 0, "cases": 0}
    for _ in range(150):
        q = rng.uniform(*Q_RANGES[side])
        assert (product_truncation_index(q) >= NUMPY_PRODUCT_MIN_FACTORS) == (side == "numpy")
        for t, s, nu in _qfp_cases(rng, q):
            got = _outcome(q_factorial_power, t, s, nu, q)
            want = _outcome(loop_q_factorial_power, t, s, nu, q)
            assert _same(got, want), (t, s, nu, q, got, want)
            seen["cases"] += 1
            seen["pole"] += got == ("raises", PoleError)
            if got[0] == "value" and 0.0 < s < t:
                seen["zero"] += got[1] == 0.0
                seen["negative"] += got[1] < 0.0
    assert min(seen.values()) > 0, seen


def _eq_arguments(rng: random.Random, q: float):
    yield rng.uniform(-1.0, 1.0)
    yield rng.uniform(-60.0, 60.0)  # negative factors for t > 1
    pole = q ** -rng.randrange(8)
    yield from (pole, float(np.nextafter(pole, 0.0)), float(np.nextafter(pole, 99.0)))
    yield 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("side", sorted(Q_RANGES))
def test_q_exp_big_matches_loop(side):
    rng = random.Random(7 + len(side))
    poles = 0
    for _ in range(150):
        q = rng.uniform(*Q_RANGES[side])
        for t in _eq_arguments(rng, q):
            got = _outcome(_q_exp_big_with_terms, t, q, DEFAULT_TOL)
            want = _outcome(loop_q_exp_big, t, q, DEFAULT_TOL)
            assert _same(got, want), (t, q, got, want)
            poles += got == ("raises", PoleError)
    assert poles > 0


def test_capped_product_raises_instead_of_truncating():
    # q = 0.999 needs 36026 factors, more than the default max_terms
    assert product_truncation_index(0.999) == DEFAULT_TOL.max_terms
    with pytest.raises(NonConvergenceError):
        gamma_q(0.5, 0.999)
    with pytest.raises(NonConvergenceError):
        q_factorial_power(1.0, 0.5, 0.5, 0.999)
    # E_q sums its series where |t| < 1 (test_special), so it is capped at |t| >= 1
    for t in (1.5, -1.5):
        with pytest.raises(NonConvergenceError):
            _q_exp_big_with_terms(t, 0.999, DEFAULT_TOL)
    # a product whose factors reach eps/8 within the cap is not truncated
    small = 0.999 ** 30000
    assert q_factorial_power(1.0, small, 0.5, 0.999) == loop_q_factorial_power(
        1.0, small, 0.5, 0.999
    )
    # a short max_terms caps a base that would need more factors
    with pytest.raises(NonConvergenceError):
        q_factorial_power(1.0, 0.5, 0.5, 0.5, Tolerance(max_terms=20))
