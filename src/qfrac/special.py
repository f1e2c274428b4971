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

from .errors import DivergenceError, DomainError, NonConvergenceError, PoleError, QFracError
from .qcore import (
    DEFAULT_TOL,
    Tolerance,
    _check_q,
    _q_product,
    gamma_q,
    q_bracket,
    q_factorial_power,
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


def _ml_series(spec: MLSpec, t: float, q: float, offset: float, label: str) -> MLResult:
    _check_q(q)
    if t < spec.t0:
        raise DomainError(f"{label} needs t >= t0, got t={t!r}, t0={spec.t0!r}")
    tol = spec.tol
    est = convergence_ratio_estimate(spec.alpha, q, t, spec.t0, spec.lam)
    if est >= 1.0:
        raise DivergenceError(
            f"{label} series diverges at t={t!r}: term-ratio estimate {est:.6g} >= 1",
            ratio=est,
        )
    # factorial power advanced term-by-term through the exponent-addition
    # identity: power(e + alpha) = power(e) * (t - q**e t0)_q^alpha
    power = q_factorial_power(t, spec.t0, offset, q, tol)
    exponent = offset
    lam_pow = 1.0
    terms: list[float] = []
    running = 0.0
    prev_term: float | None = None
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
            return MLResult(math.fsum(terms), len(terms), last_ratio, True)
        prev_term = term
        lam_pow *= spec.lam
        if power != 0.0:
            shifted = spec.t0 * q ** exponent
            if shifted < t:
                power *= q_factorial_power(t, shifted, spec.alpha, q, tol)
            else:
                # negative exponents can push the shifted point past t;
                # fall back to evaluating the next power from scratch
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


def mittag_leffler(spec: MLSpec, t: float, q: float) -> MLResult:
    """sum_k lam**k (t - t0)_q^(alpha k) / Gamma_q(alpha k + beta)."""
    return _ml_series(spec, t, q, 0.0, "q-Mittag-Leffler")


def mittag_leffler_modified(spec: MLSpec, t: float, q: float) -> MLResult:
    """Variant with the shifted exponent alpha k + beta - 1 in the factorial power.

    Coincides with :func:`mittag_leffler` at beta = 1; for beta < 1 the k = 0
    exponent is negative, so t must exceed t0 strictly.
    """
    return _ml_series(spec, t, q, spec.beta - 1.0, "modified q-Mittag-Leffler")


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
        series = _q_exp_big_series(t, q, tol)
        if abs(series - product) > 100.0 * (tol.abs_tol + tol.rel_tol * abs(product)):
            raise QFracError(
                f"E_q product/series disagreement at t={t!r}: {product!r} vs {series!r}"
            )
    return product, used


def _q_exp_big_series(t: float, q: float, tol: Tolerance) -> float:
    """sum_n t**n / (q)_n for |t| < 1; tail-aware stopping."""
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
            return math.fsum(terms)
    raise NonConvergenceError(
        f"E_q series did not meet tolerance within {tol.max_terms} terms",
        last_delta=terms[-1],
    )
