"""Extended-precision reference implementations (mpmath, 50 digits).

These are deliberately independent of the package under test: plain product
and series formulas, straight loops, no kernel matrices, no incremental
updates.  Tests freeze values produced here or call them directly for
randomized cross-checks.
"""
import math

import numpy as np
from mpmath import mp, mpf, power

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
