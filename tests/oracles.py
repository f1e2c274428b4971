"""Extended-precision reference implementations (mpmath, 50 digits).

These are deliberately independent of the package under test: plain product
and series formulas, straight loops, no kernel matrices, no incremental
updates.  Tests freeze values produced here or call them directly for
randomized cross-checks.  The ``loop_*`` functions at the end are the
double-precision scalar loops that the package's q-product routine must
reproduce bit for bit, and the ``numpy_*`` functions are the row engine of
forward substitution on numpy scalars, which the package's Python-float rows
must reproduce bit for bit.  ``loop_solve_linear_closed`` is the closed-form
solve with every series term's q-product and Gamma_q evaluated afresh, which
the package's shared-product solve must reproduce bit for bit.
"""
import math

import numpy as np
from mpmath import mp, mpf, power

from qfrac.errors import (
    DivergenceError,
    DomainError,
    NonConvergenceError,
    PoleError,
    PreconditionError,
    StepError,
)
from qfrac.qcore import DEFAULT_TOL, GridFn, gamma_q, q_factorial_power
from qfrac.solver import linear_defect
from qfrac.special import MLSpec, _check_q_exp_big_series, convergence_ratio_estimate

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


def ref_ml_from_zero(alpha, beta, lam, t, q, terms):
    """sum_k lam**k t**(alpha k) / Gamma_q(alpha k + beta), lower point 0.

    Gamma_q(x) climbs from Gamma_q(x - n), n = floor(alpha k), through
    Gamma_q(y + 1) = [y]_q Gamma_q(y), so a long series costs O(1) per term
    once each starting point beta + frac(alpha k) is known; values far past
    the float range stay exact here.
    """
    q, alpha, beta, lam, t = mpf(q), mpf(alpha), mpf(beta), mpf(lam), mpf(t)
    chains = {}  # start y -> [Gamma_q(y), Gamma_q(y + 1), ...]
    tot = mpf(0)
    for k in range(terms):
        n = int(mp.floor(alpha * k))
        start = beta + alpha * k - n
        if start not in chains:
            chains[start] = [ref_gamma_q(start, q)]
        chain = chains[start]
        while len(chain) <= n:
            y = start + len(chain) - 1
            chain.append(chain[-1] * (1 - q**y) / (1 - q))
        tot += lam**k * power(t, alpha * k) / chain[n]
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


def ref_linear_system(weights, mu, a_idx):
    """The exact solution u of (I - W diag mu) u = 1 for float data W and mu,
    solved row by row in 50 digits: 1 at and below a_idx."""
    w = [[mpf(x) for x in row] for row in np.asarray(weights).tolist()]
    m = [mpf(x) for x in np.asarray(mu).tolist()]
    u = [mpf(1)] * len(m)
    for i in range(a_idx + 1, len(m)):
        known = 1 + mp.fsum(w[i][j] * m[j] * u[j] for j in range(a_idx + 1, i))
        u[i] = known / (1 - w[i][i] * m[i])
    return u


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
        _check_q_exp_big_series(t, q, tol, product)
    return product, len(logs)


# ------------------------------------------- row engine on numpy scalars


def numpy_forward_substitution(kernel, base, row):
    """y = base + W g row by row, with y and g in numpy arrays and the
    diagonal handed to the hook as a numpy scalar."""
    a_index = kernel.a_index
    w = kernel.weights
    diag = kernel.diagonal
    y = np.empty(kernel.grid.count)
    y[: a_index + 1] = base
    g = np.zeros(kernel.grid.count)
    for i in range(a_index + 1, kernel.grid.count):
        known = base + float(w[i, :i] @ g[:i])
        y[i], g[i] = row(i, known, diag[i])
    return y


def numpy_scalar_fixed_point(g, y_start, tol, max_inner):
    """Damped fixed-point solve of y = g(y); halves the step on stall."""
    y = float(y_start)
    theta = 1.0
    prev = math.inf
    for it in range(1, max_inner + 1):
        gy = g(y)
        delta = gy - y
        if abs(delta) <= tol.abs_tol + tol.rel_tol * max(1.0, abs(gy)):
            return gy, it
        if abs(delta) >= prev:
            theta = max(0.5 * theta, 2.0 ** -6)
        y += theta * delta
        prev = abs(delta)
    raise NonConvergenceError(
        f"inner fixed-point iteration missed tolerance after {max_inner} steps",
        last_delta=prev,
    )


def numpy_solve_marching(p, tol, max_inner=100):
    """(solution values, inner iterations, residual) of the marching solver,
    one nested fixed-point call per grid point, with the rhs seeing numpy
    scalars; the kernel is the package's."""
    from qfrac.operators import build_kernel, fractional_integral
    from qfrac.qcore import GridFn

    kernel = build_kernel(p.grid, p.a_index, p.alpha, tol)
    diag = kernel.diagonal
    bad = [i for i in range(p.a_index + 1, p.grid.count) if p.lipschitz * diag[i] >= 1.0]
    if bad:
        raise PreconditionError("diagonal step not solvable", indices=tuple(bad))
    y_prev = p.y0
    inner_total = 0

    def step(i, known, d):
        nonlocal y_prev, inner_total
        ti = p.grid.points[i]
        try:
            yi, used = numpy_scalar_fixed_point(
                lambda v: known + d * p.rhs(ti, v), y_prev, tol, max_inner
            )
        except NonConvergenceError as exc:
            raise StepError(
                f"marching stalled at grid index {i} (t={ti!r})", index=i,
                last_delta=exc.last_delta,
            ) from exc
        y_prev = yi
        inner_total += used
        return yi, p.rhs(ti, yi)

    values = numpy_forward_substitution(kernel, p.y0, step)
    fvals = np.array([p.rhs(t, v) for t, v in zip(p.grid.points, values)])
    defect = values - (p.y0 + fractional_integral(GridFn(p.grid, fvals), kernel).values)
    defect[: p.a_index] = 0.0
    return values, inner_total, float(np.max(np.abs(defect)))


def numpy_comparison_factor(kernel, mu):
    """u with (I - W diag mu) u = 1 on numpy scalars (no divergence check)."""

    def row(i, known, d):
        u_i = known / (1.0 - d * mu[i])
        return u_i, mu[i] * u_i

    with np.errstate(divide="ignore"):
        return numpy_forward_substitution(kernel, 1.0, row)


def numpy_march_integral_equation(kernel, coeff, y_a, slack):
    """y = y_a + I^alpha(coeff y) - slack on numpy scalars."""
    denom = 1.0 - kernel.diagonal * coeff

    def row(i, known, d):
        y_i = (known - slack[i]) / denom[i]
        return y_i, coeff[i] * y_i

    return numpy_forward_substitution(kernel, y_a, row)


# ------------------------------------ closed form, one q-product per term

def loop_ml_series(spec, t, q, offset, label):
    """The Mittag-Leffler series term by term: each term calls
    ``q_factorial_power`` for the factorial-power step and ``gamma_q`` for
    its Gamma_q, with nothing shared between terms or series."""
    if t < spec.t0:
        raise DomainError(f"{label} needs t >= t0, got t={t!r}, t0={spec.t0!r}")
    tol = spec.tol
    est = convergence_ratio_estimate(spec.alpha, q, t, spec.t0, spec.lam)
    if est >= 1.0:
        raise DivergenceError(
            f"{label} series diverges at t={t!r}: term-ratio estimate {est:.6g} >= 1",
            ratio=est,
        )
    power = q_factorial_power(t, spec.t0, offset, q, tol)
    exponent = offset
    lam_pow = 1.0
    terms = []
    running = 0.0
    prev_term = None
    last_ratio = 0.0
    small_run = 0
    growth_run = 0
    for k in range(tol.max_terms):
        term = lam_pow * power / gamma_q(spec.alpha * k + spec.beta, q, tol)
        terms.append(term)
        running += term
        if prev_term is not None:
            if prev_term == 0.0:
                last_ratio = 0.0 if term == 0.0 else math.inf
            else:
                last_ratio = abs(term) / abs(prev_term)
        threshold = tol.abs_tol + tol.rel_tol * abs(running)
        if abs(term) <= threshold:
            small_run += 1
        else:
            small_run = 0
        if prev_term is not None and abs(term) >= abs(prev_term) and abs(term) > threshold:
            growth_run += 1
        else:
            growth_run = 0
        if small_run >= 3 and last_ratio < 1.0:
            return math.fsum(terms)
        prev_term = term
        lam_pow *= spec.lam
        if power != 0.0:
            shifted = spec.t0 * q ** exponent
            if shifted < t:
                power *= q_factorial_power(t, shifted, spec.alpha, q, tol)
            else:
                power = q_factorial_power(t, spec.t0, exponent + spec.alpha, q, tol)
        exponent += spec.alpha
    if growth_run >= 3:
        raise DivergenceError(
            f"{label} terms grew for {growth_run} consecutive steps", ratio=last_ratio
        )
    raise NonConvergenceError(
        f"{label} did not meet tolerance within {tol.max_terms} terms",
        last_delta=terms[-1],
    )


def loop_solve_linear_closed(p, tol=DEFAULT_TOL, via_modified_ml=False, series=None):
    """(solution values, residual) of the closed-form solve: one series per
    grid pair (i, j), each through :func:`loop_ml_series`.

    ``series``, when given, is a dict that keeps each series' value under its
    full argument tuple, so that solves differing only in the forcing
    evaluate each series once; the values do not depend on it."""
    grid, q, al = p.grid, p.grid.q, p.alpha.alpha
    a = grid.points[p.a_index]
    label = "modified q-Mittag-Leffler" if via_modified_ml else "q-Mittag-Leffler"
    series = {} if series is None else series

    def ml(spec, t, offset):
        key = (spec, t, q, offset, label)
        if key not in series:
            series[key] = loop_ml_series(spec, t, q, offset, label)
        return series[key]

    y = np.empty(grid.count)
    y[: p.a_index] = p.y0
    forcing = p.forcing.values
    for i in range(p.a_index, grid.count):
        ti = grid.points[i]
        hom = ml(MLSpec(al, 1.0, p.lam, a, tol), ti, 0.0)
        parts = []
        for j in range(p.a_index + 1, i + 1):
            tj = grid.points[j]
            if forcing[j] == 0.0:
                continue
            if via_modified_ml:
                parts.append(tj * ml(MLSpec(al, al, p.lam, q * tj, tol), ti, al - 1.0) * forcing[j])
            else:
                m = ml(MLSpec(al, al, p.lam, q ** al * tj, tol), ti, 0.0)
                kern = q_factorial_power(ti, q * tj, al - 1.0, q, tol)
                parts.append(tj * kern * m * forcing[j])
        y[i] = p.y0 * hom + (1.0 - q) * math.fsum(parts)
    sol = GridFn(grid, y)
    return sol.values, float(np.max(linear_defect(p, sol, tol)))
