"""Extended-precision reference implementations (mpmath, 50 digits).

These are deliberately independent of the package under test: plain product
and series formulas, straight loops, no kernel matrices, no incremental
updates.  Tests freeze values produced here or call them directly for
randomized cross-checks.  The ``loop_*`` functions at the end are the
double-precision scalar loops that the package's q-product routine must
reproduce bit for bit.
"""
import math

import numpy as np
from mpmath import mp, mpf, power

from qfrac.errors import DomainError, PoleError, QFracError
from qfrac.special import _q_exp_big_series

mp.dps = 50

PRODUCT_FACTORS = 200


def _enough_factors(q, floor=PRODUCT_FACTORS):
    # tail of the log-product is ~ q**N, so push it below 1e-30
    return max(floor, math.ceil(-30.0 * math.log(10.0) / math.log(float(q))))


def ref_qfp(t, s, nu, q, factors=None):
    """(t - s)_q^nu via the defining products."""
    if factors is None:
        factors = _enough_factors(q)
    t, s, nu, q = mpf(t), mpf(s), mpf(nu), mpf(q)
    if nu == int(nu) and nu >= 0:
        prod = mpf(1)
        for i in range(int(nu)):
            prod *= t - q**i * s
        return prod
    if s == 0:
        return power(t, nu)
    r = s / t
    if r == 1 and nu > 0:
        return mpf(0)
    assert r < 1
    prod = mpf(1)
    for i in range(factors):
        prod *= (1 - r * q**i) / (1 - r * q**(i + nu))
    return power(t, nu) * prod


def ref_gamma_q(alpha, q):
    q = mpf(q)
    return ref_qfp(1, q, mpf(alpha) - 1, q) / power(1 - q, mpf(alpha) - 1)


def ref_grid(q, n_start, count):
    q = mpf(q)
    pts = [power(q, n_start)]
    for _ in range(count - 1):
        pts.append(pts[-1] / q)
    return pts


def ref_frac_int(pts, a_idx, alpha, fvals, i, q):
    """Straight-loop fractional integral at pts[i]: no kernel matrix."""
    q = mpf(q)
    alpha = mpf(alpha)
    tot = mpf(0)
    for j in range(a_idx + 1, i + 1):
        tot += pts[j] * ref_qfp(pts[i], q * pts[j], alpha - 1, q) * fvals[j]
    return (1 - q) * tot / ref_gamma_q(alpha, q)


def ref_ml(alpha, beta, lam, t, t0, q, terms=50):
    tot = mpf(0)
    for k in range(terms):
        tot += (
            mpf(lam) ** k
            * ref_qfp(t, t0, mpf(alpha) * k, q)
            / ref_gamma_q(mpf(alpha) * k + mpf(beta), q)
        )
    return tot


def ref_ml_modified(alpha, beta, lam, t, t0, q, terms=50):
    tot = mpf(0)
    for k in range(terms):
        tot += (
            mpf(lam) ** k
            * ref_qfp(t, t0, mpf(alpha) * k + mpf(beta) - 1, q)
            / ref_gamma_q(mpf(alpha) * k + mpf(beta), q)
        )
    return tot


def ref_eq_small(t, q, terms=60):
    return ref_ml(1, 1, 1, t, 0, q, terms)


def ref_Eq_product(t, q, factors=300):
    prod = mpf(1)
    for n in range(factors):
        prod /= 1 - mpf(q) ** n * mpf(t)
    return prod


def ref_Eq_series(t, q, terms=200):
    tot = mpf(0)
    qp = mpf(1)
    for n in range(terms):
        tot += mpf(t) ** n / qp
        qp *= 1 - mpf(q) ** (n + 1)
    return tot


def ref_jackson_integral(f, t, q, terms=64):
    """Truncation of the Jackson sum (1-q) t sum_i q^i f(t q^i) from 0 to t."""
    q = mpf(q)
    t = mpf(t)
    tot = mpf(0)
    for i in range(terms):
        tot += q**i * f(t * q**i)
    return (1 - q) * t * tot


def comparison_series(weights, mu, max_terms, rel_tol=0.0):
    """Partial sums S_0, S_1, ... of sum_k (W diag mu)^k 1 by repeated
    mat-vecs in double precision: the series the Gronwall-type bound is
    defined by.  Stops after max_terms terms, or once the newest term's sup
    norm is at most rel_tol times the sum's.  The kernel comes in as a plain
    array, so this checks the summation, not the kernel."""
    term = np.ones(len(mu))
    sums = [term.copy()]
    for _ in range(max_terms):
        term = weights @ (mu * term)
        sums.append(sums[-1] + term)
        if np.max(np.abs(term)) <= rel_tol * np.max(np.abs(sums[-1])):
            break
    return sums


def ref_order_one_factor(pts, a_idx, delta, q):
    """Order-1 comparison series in closed form: at pts[i] it is
    prod_{a < j <= i} 1 / (1 - (1-q) t_j delta_j), and 1 at and below a."""
    q = mpf(q)
    out = [mpf(1)] * (a_idx + 1)
    for j in range(a_idx + 1, len(pts)):
        out.append(out[-1] / (1 - (1 - q) * pts[j] * mpf(delta[j])))
    return out


# ------------------------------------------------ scalar q-product loops

LOOP_EPS = 2.0 ** -52


def _loop_factor_count(q, max_terms):
    return max(1, min(int(max_terms), math.ceil(math.log(LOOP_EPS) / math.log(q))))


def loop_q_factorial_power(t, s, nu, q, max_terms=10_000):
    """(t - s)_q^nu by the factor-by-factor loop: log1p of each factor,
    fsum of the logs, stop after the first factor within eps/8 of 1."""
    if not 0.0 < q < 1.0:
        raise DomainError(f"base q must lie in (0, 1), got {q!r}")
    if not t > 0:
        raise DomainError(f"q_factorial_power needs t > 0, got {t!r}")
    if s < 0:
        raise DomainError(f"q_factorial_power needs s >= 0, got {s!r}")
    if float(nu).is_integer() and nu >= 0:
        prod = 1.0
        qi = 1.0
        for _ in range(int(nu)):
            prod *= t - qi * s
            qi *= q
        return prod
    r = s / t
    if r == 1.0 and nu > 0:
        return 0.0
    if r >= 1.0:
        raise DomainError(f"product branch of (t-s)_q^nu needs s/t < 1, got s/t = {r!r}")
    if r == 0.0:
        return t ** nu
    log_q = math.log(q)
    q_nu = math.exp(nu * log_q)
    q_nu_m1 = math.expm1(nu * log_q)
    logs = []
    sign = 1.0
    rqi = r
    for _ in range(_loop_factor_count(q, max_terms)):
        den = 1.0 - rqi * q_nu
        if den == 0.0:
            raise PoleError(f"(t-s)_q^{nu} has a pole at s/t = {r!r}")
        delta = rqi * q_nu_m1 / den
        factor = 1.0 + delta
        if factor == 0.0:
            return 0.0
        if factor < 0.0:
            sign = -sign
            logs.append(math.log(-factor))
        else:
            logs.append(math.log1p(delta))
        if abs(delta) < LOOP_EPS / 8.0:
            break
        rqi *= q
    return sign * t ** nu * math.exp(math.fsum(logs))


def loop_q_exp_big(t, q, tol):
    """(E_q(t), factors used) by the loop over the factors 1 - q**n t of
    1 / E_q(t).  For |t| <= 0.9 the product is checked against the package's
    power series, as ``qfrac.special`` does; only the product is reproduced
    here, the series check is the package's own."""
    if not 0.0 < q < 1.0:
        raise DomainError(f"base q must lie in (0, 1), got {q!r}")
    if t == 0.0:
        return 1.0, 0
    n_cut = _loop_factor_count(q, tol.max_terms)
    if abs(t) > 1.0:
        n_cut += math.ceil(math.log(abs(t)) / math.log(1.0 / q))
    logs = []
    sign = 1.0
    qn_t = float(t)
    for n in range(n_cut):
        factor = 1.0 - qn_t
        if factor == 0.0:
            raise PoleError(f"E_q pole: q**{n} * t == 1")
        if factor < 0.0:
            sign = -sign
            logs.append(math.log(-factor))
        else:
            logs.append(math.log1p(-qn_t))
        if abs(qn_t) < LOOP_EPS / 8.0:
            break
        qn_t *= q
    product = sign * math.exp(-math.fsum(logs))
    if abs(t) <= 0.9:
        series = _q_exp_big_series(t, q, tol)
        if abs(series - product) > 100.0 * (tol.abs_tol + tol.rel_tol * abs(product)):
            raise QFracError(f"E_q product/series disagreement at t={t!r}")
    return product, len(logs)
