"""q-Mittag-Leffler functions, their modified variants, and the two
q-exponentials.

Series are truncated once three consecutive terms fall below the combined
absolute/relative tolerance while the measured consecutive-term ratio is
below 1; a single small term is not taken as proof that the tail decays.
Evaluations outside the convergence region (term-ratio estimate >= 1) raise
a structured divergence error instead of returning a partial sum.  That
criterion, |lam| t**alpha (1-q)**alpha < 1, is artifact policy extrapolated
from the measurable asymptotic term ratio.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    DivergenceError,
    DomainError,
    NonConvergenceError,
    PoleError,
    QFracError,
    RangeError,
)
from .qcore import (
    DEFAULT_TOL,
    Tolerance,
    _check_q,
    _log_gamma_q,
    _q_factorial_power,
    _q_product,
    gamma_q,
    q_bracket,
)


@dataclass(frozen=True)
class MLSpec:
    """Parameters of a q-Mittag-Leffler evaluation."""

    alpha: float
    beta: float
    lam: float
    t0: float = 0.0
    tol: Tolerance = DEFAULT_TOL

    def __post_init__(self) -> None:
        if not self.alpha > 0:
            raise DomainError("alpha must be positive")
        if not self.beta > 0:
            raise DomainError("beta must be positive")
        if self.t0 < 0:
            raise DomainError("t0 must be nonnegative")
        if not math.isfinite(self.lam):
            raise DomainError(f"lam must be finite, got {self.lam!r}")


@dataclass(frozen=True)
class MLResult:
    value: float
    terms_used: int
    last_term_ratio: float
    converged: bool


def convergence_ratio_estimate(alpha: float, q: float, t: float, a: float, lam: float) -> float:
    """Asymptotic consecutive-term ratio |lam| t**alpha (1 - q)**alpha of the
    Mittag-Leffler series; values below 1 predict convergence.

    The lower limit a does not enter: the shifted factorial powers in the
    terms approach plain powers of t as the term index grows.
    """
    _check_q(q)
    if t < a:
        raise DomainError("t must not precede the lower limit a")
    return abs(lam) * t ** alpha * (1.0 - q) ** alpha


class _SeriesMemo:
    """What the Mittag-Leffler series of one computation share, for one base q
    and one tolerance: q-products and the Gamma_q(alpha k + beta) sequences.

    A product depends on t and s only through r = s/t, since
    (t - s)_q^nu = t**nu (r; q)_inf / (q**nu r; q)_inf (Gasper & Rahman,
    Basic Hypergeometric Series, 1.10).  On the window t_i = t_0 q**-i the
    ratios of a closed-form solve, the kernel's q t_j / t_i and the series'
    q**(alpha k) t0 / t_i, depend in exact arithmetic only on i - j and k,
    and most of them repeat as exact floats too.  Each product factor is
    therefore evaluated once per exact float (nu, r), and a hit takes the
    same float operations as a fresh evaluation, so results do not depend on
    what the memo holds.  A memo lives for one call of the function that
    makes it and is never kept beyond it.
    """

    def __init__(self, q: float, tol: Tolerance) -> None:
        self.q = q
        self.max_terms = tol.max_terms
        self._products: dict[float, dict[float, float]] = {}
        self._gammas: dict[tuple[float, float], list[float]] = {}
        self._log_gammas: dict[float, float] = {}

    def power(self, t: float, s: float, nu: float) -> float:
        """(t - s)_q^nu, as :func:`q_factorial_power` gives it."""
        products = self._products.get(nu)
        if products is None:
            products = self._products[nu] = {}
        return _q_factorial_power(t, s, nu, self.q, self.max_terms, products)

    def gammas(self, alpha: float, beta: float) -> list[float]:
        """Gamma_q(alpha k + beta) for k = 0, 1, ... as far as a series has
        extended the list, which ends at the first value past the float
        range, stored as inf."""
        return self._gammas.setdefault((alpha, beta), [])

    def log_gamma(self, x: float) -> float:
        """log Gamma_q(x), for terms whose Gamma_q is past the float range."""
        value = self._log_gammas.get(x)
        if value is None:
            value = self._log_gammas[x] = _log_gamma_q(x, self.q, self.max_terms)
        return value


def _gamma_or_inf(x: float, q: float, tol: Tolerance) -> float:
    try:
        return gamma_q(x, q, tol)
    except RangeError:
        return math.inf


def _log_abs(x: float) -> float:
    return math.log(abs(x)) if x else -math.inf


def _log_form(x: float, y: float) -> list[float]:
    """[sign, log|x * y|] of a product carried past the float range."""
    return [math.copysign(1.0, x) * math.copysign(1.0, y), _log_abs(x) + _log_abs(y)]


def _ml_series(
    spec: MLSpec, t: float, q: float, modified: bool = False, memo: _SeriesMemo | None = None
) -> MLResult:
    """sum_k lam**k (t - t0)_q^(alpha k + offset) / Gamma_q(alpha k + beta),
    with offset beta - 1 for the modified function and 0 otherwise.

    ``memo``, built for this q and spec.tol, shares products and Gamma_q
    values with the other series of the caller's computation (see
    :class:`_SeriesMemo`); without it the series uses a memo of its own.
    Either way the result is the same float.

    A term is lam_pow * power / Gamma_q in floats.  From the first term
    where lam**k or Gamma_q leaves the float range, lam**k * power is
    carried as a sign and a log and the term is exp(log - log Gamma_q), so
    a long convergent series is summed instead of stopping on overflow.
    """
    label = "modified q-Mittag-Leffler" if modified else "q-Mittag-Leffler"
    _check_q(q)
    if t < spec.t0:
        raise DomainError(f"{label} needs t >= t0, got t={t!r}, t0={spec.t0!r}")
    tol = spec.tol
    if memo is None:
        memo = _SeriesMemo(q, tol)
    alpha, beta, lam, t0 = spec.alpha, spec.beta, spec.lam, spec.t0
    est = convergence_ratio_estimate(alpha, q, t, t0, lam)
    if est >= 1.0:
        raise DivergenceError(
            f"{label} series diverges at t={t!r}: term-ratio estimate {est:.6g} >= 1",
            ratio=est,
        )
    gammas = memo.gammas(alpha, beta)
    # factorial power advanced term-by-term through the exponent-addition
    # identity: power(e + alpha) = power(e) * (t - q**e t0)_q^alpha
    exponent = beta - 1.0 if modified else 0.0
    power = memo.power(t, t0, exponent)
    lam_pow = 1.0
    scale: list[float] | None = None  # _log_form(lam**k, power) past the float range
    terms: list[float] = []
    running = 0.0
    prev_term: float | None = None
    last_ratio = 0.0
    small_run = 0
    growth_run = 0
    for k in range(tol.max_terms):
        if scale is None:
            if k == len(gammas):
                gammas.append(_gamma_or_inf(alpha * k + beta, q, tol))
            if gammas[k] == math.inf:
                scale = _log_form(lam_pow, power)
        if scale is None:
            term = lam_pow * power / gammas[k]
        else:
            term = scale[0] * math.exp(scale[1] - memo.log_gamma(alpha * k + beta))
        terms.append(term)
        running += term
        if prev_term is not None:
            if prev_term == 0.0:
                last_ratio = 0.0 if term == 0.0 else math.inf
            else:
                last_ratio = abs(term) / abs(prev_term)
        threshold = tol.abs_tol + tol.rel_tol * abs(running)
        # a series that leaves the float range has a term ratio near 1, and
        # its omitted tail is about term * ratio / (1 - ratio): cut by that
        cut = threshold if scale is None else threshold * max(0.0, 1.0 - last_ratio)
        if abs(term) <= cut:
            small_run += 1
        else:
            small_run = 0
        if prev_term is not None and abs(term) >= abs(prev_term) and abs(term) > threshold:
            growth_run += 1
        else:
            growth_run = 0
        if small_run >= 3 and last_ratio < 1.0:
            return MLResult(math.fsum(terms), len(terms), last_ratio, True)
        prev_term = term
        if scale is None and abs(lam_pow * lam) == math.inf:
            scale = _log_form(lam_pow, power)
        live = power != 0.0 if scale is None else scale[1] > -math.inf
        if scale is None:
            lam_pow *= lam
        elif live:
            scale[0] *= math.copysign(1.0, lam)
            scale[1] += _log_abs(lam)
        if live:
            shifted = t0 * q ** exponent
            if shifted < t:
                step = memo.power(t, shifted, alpha)
                if scale is None:
                    power *= step
                else:
                    scale[0] *= math.copysign(1.0, step)
                    scale[1] += _log_abs(step)
            else:
                # negative exponents can push the shifted point past t;
                # fall back to evaluating the next power from scratch
                power = memo.power(t, t0, exponent + alpha)
                if scale is not None:
                    scale = [math.copysign(1.0, lam) ** (k + 1) * math.copysign(1.0, power),
                             (k + 1) * _log_abs(lam) + _log_abs(power)]
        exponent += alpha
    if growth_run >= 3:
        raise DivergenceError(
            f"{label} terms grew for {growth_run} consecutive steps", ratio=last_ratio
        )
    raise NonConvergenceError(
        f"{label} did not meet tolerance within {tol.max_terms} terms",
        last_delta=terms[-1],
    )


def mittag_leffler(spec: MLSpec, t: float, q: float) -> MLResult:
    """sum_k lam**k (t - t0)_q^(alpha k) / Gamma_q(alpha k + beta)."""
    return _ml_series(spec, t, q)


def mittag_leffler_modified(spec: MLSpec, t: float, q: float) -> MLResult:
    """Variant with the shifted exponent alpha k + beta - 1 in the factorial power.

    Coincides with :func:`mittag_leffler` at beta = 1; for beta < 1 the k = 0
    exponent is negative, so t must exceed t0 strictly.
    """
    return _ml_series(spec, t, q, modified=True)


def q_exp_small(t: float, q: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """e_q(t) = sum_k t**k / [k]_q!, convergent for |t| (1 - q) < 1.

    Satisfies e_q(t) = E_q((1 - q) t) on the shared domain.
    """
    value, _ = _q_exp_small_with_terms(t, q, tol)
    return value


def _q_exp_small_with_terms(t: float, q: float, tol: Tolerance) -> tuple[float, int]:
    _check_q(q)
    ratio_limit = abs(t) * (1.0 - q)
    if ratio_limit >= 1.0:
        raise DivergenceError(
            f"e_q series needs |t|(1-q) < 1, got {ratio_limit:.6g}", ratio=ratio_limit
        )
    terms = [1.0]
    term = 1.0
    running = 1.0
    small_run = 0
    # geometric tail ~ term * r/(1-r): scale the cutoff so the omitted part
    # stays inside tolerance even close to the convergence edge
    tail_scale = 1.0 - ratio_limit
    for k in range(1, tol.max_terms):
        term *= t / q_bracket(float(k), q)
        terms.append(term)
        running += term
        if abs(term) <= (tol.abs_tol + tol.rel_tol * abs(running)) * tail_scale:
            small_run += 1
            if small_run >= 3:
                return math.fsum(terms), len(terms)
        else:
            small_run = 0
    raise NonConvergenceError(
        f"e_q series did not meet tolerance within {tol.max_terms} terms",
        last_delta=term,
    )


def q_exp_big(t: float, q: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """E_q(t) = prod_n (1 - q**n t)^(-1), with poles at t = q**(-n).

    The product is the primary evaluation; for |t| < 1 the power series
    sum_n t**n / (q)_n is summed as well and the two must agree.
    """
    value, _ = _q_exp_big_with_terms(t, q, tol)
    return value


def _q_exp_big_with_terms(t: float, q: float, tol: Tolerance) -> tuple[float, int]:
    _check_q(q)
    if t == 0.0:
        return 1.0, 0
    extra = math.ceil(math.log(abs(t)) / math.log(1.0 / q)) if abs(t) > 1.0 else 0
    # factor n is 1 - q**n t, i.e. delta_n = -q**n t
    sign, log_abs, used = _q_product(float(t), q, -1.0, 0.0, tol.max_terms, extra)
    if sign == 0.0:
        raise PoleError(f"E_q pole: q**{used - 1} * t == 1")
    product = sign * math.exp(-log_abs)
    # the series needs O(1/(1-|t|)) terms, so the agreement check stops at
    # |t| = 0.9; past that only the product representation stands
    if abs(t) <= 0.9:
        _check_q_exp_big_series(t, q, tol, product)
    return product, used


def _check_q_exp_big_series(t: float, q: float, tol: Tolerance, product: float) -> None:
    """Raise QFracError unless the power series agrees with the product.

    The tolerance scales with the sum of |terms|, the series' own rounding
    bound: for t < 0 the terms alternate and cancel, so the series can lose
    every digit of a small E_q(t) that the product still gets right.
    """
    series, abs_sum = _q_exp_big_series(t, q, tol)
    if abs(series - product) > 100.0 * (tol.abs_tol + tol.rel_tol * abs_sum):
        raise QFracError(
            f"E_q product/series disagreement at t={t!r}: {product!r} vs {series!r}"
        )


def _q_exp_big_series(t: float, q: float, tol: Tolerance) -> tuple[float, float]:
    """(sum, sum of |terms|) of sum_n t**n / (q)_n for |t| < 1; tail-aware stopping."""
    terms = [1.0]
    tn = 1.0
    qn = 1.0
    pochhammer = 1.0
    running = 1.0
    tail_scale = (1.0 - abs(t)) if abs(t) < 1.0 else 1.0
    for _ in range(1, tol.max_terms):
        tn *= t
        qn *= q
        pochhammer *= 1.0 - qn
        term = tn / pochhammer
        terms.append(term)
        running += term
        if abs(term) <= (tol.abs_tol + tol.rel_tol * abs(running)) * tail_scale:
            return math.fsum(terms), math.fsum(map(abs, terms))
    raise NonConvergenceError(
        f"E_q series did not meet tolerance within {tol.max_terms} terms",
        last_delta=terms[-1],
    )
