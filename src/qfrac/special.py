"""q-Mittag-Leffler functions, their modified variants, and the two
q-exponentials.

Every series here stops by one rule, :func:`_sum_until_small`, which
keeps the omitted tail within tolerance and never returns a partial sum.
Evaluations outside the convergence region (term-ratio estimate >= 1) raise
a structured divergence error up front.  That criterion,
|lam| t**alpha (1-q)**alpha < 1, is artifact policy extrapolated from the
measurable asymptotic term ratio.  E_q(t) is a product, and e_q(t) is
evaluated as E_q((1 - q) t); where that product is too long, both are
summed as a series of positive terms instead, so neither cancels for t < 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count, islice
from typing import Iterator

from .errors import (
    DivergenceError, DomainError, NonConvergenceError, PoleError, QFracError, RangeError
)
from .qcore import (
    DEFAULT_TOL,
    Tolerance,
    _BoundedLRU,
    _check_finite,
    _check_q,
    _log_abs,
    _log_gamma_q,
    _q_factorial_power,
    _q_product,
    gamma_q,
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
        _check_finite(alpha=self.alpha, beta=self.beta, t0=self.t0, lam=self.lam)


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
    terms approach plain powers of t as the term index grows.  Every
    argument must be finite.
    """
    _check_finite(alpha=alpha, t=t, a=a, lam=lam)
    return _convergence_ratio_estimate(alpha, q, t, a, lam)


def _convergence_ratio_estimate(alpha: float, q: float, t: float, a: float, lam: float) -> float:
    """:func:`convergence_ratio_estimate` for callers whose arguments are finite."""
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
    what the memo holds.

    A memo lives for one call of the function that makes it.  Its product
    tables are those of :data:`_PRODUCT_STORE`, a process-wide
    least-recently-used cache bounded by entries, so the product factors of
    one call serve the next; the memo trims the store to its budget as it
    is made.  The Gamma_q lists stay with the memo.
    """

    def __init__(self, q: float, tol: Tolerance) -> None:
        self.q = q
        self.max_terms = tol.max_terms
        self._products: dict[float, dict[float, float]] = {}
        self._gammas: dict[tuple[float, float], list[float]] = {}
        self._log_gammas: dict[float, float] = {}
        _PRODUCT_STORE.trim()

    def products(self, nu: float) -> dict[float, float]:
        """The product factors of (t - s)_q^nu, keyed by s/t: the store's
        table, held for the memo's life even if the store evicts it."""
        products = self._products.get(nu)
        if products is None:
            products = self._products[nu] = _PRODUCT_STORE.get((self.q, self.max_terms, nu), dict)
        return products

    def power(self, t: float, s: float, nu: float) -> float:
        """(t - s)_q^nu, as :func:`q_factorial_power` gives it."""
        return _q_factorial_power(t, s, nu, self.q, self.max_terms, self.products(nu))

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


#: product factors the store keeps, counted in (s/t, factor) entries of
#: about 90 B each (tracemalloc, CPython 3.11): one `verify all` call at any
#: seed needs about 1,800, and 200 seeds with case counts 1, 3 and 50 need
#: 1,842 between them, so 4,096 entries (about 370 KB) hold them all.
PRODUCT_STORE_ENTRIES = 4096


#: product tables {s/t: factor}, one per (q, max_terms, nu), shared by every
#: :class:`_SeriesMemo` and bounded by their entries.  A factor depends only
#: on its key and s/t, and a hit returns the float a fresh evaluation gives,
#: so results do not depend on what the store holds.  Tables grow after they
#: are handed out, so the budget holds after
#: :meth:`~qfrac.qcore._BoundedLRU.trim`, which each new memo runs.  Two
#: threads filling one table at once at worst evaluate a factor twice and
#: store the same float.
_PRODUCT_STORE = _BoundedLRU(PRODUCT_STORE_ENTRIES, len)


def _sum_until_small(terms: Iterator[float], tol: Tolerance, label: str) -> tuple[list[float], float]:
    """(terms taken, last measured term ratio) of a series, by the one
    stopping rule of this module.

    With thr = abs_tol + rel_tol |running sum| and r the ratio of the last
    two term magnitudes, a term is small when |term| <= thr, or, once
    r > 1/2, when |term| <= thr (1 - r): the omitted tail is then about
    |term| r / (1 - r), which that bar keeps below thr.  The series stops
    after three consecutive small terms while r < 1.  When ``max_terms``
    run out it raises DivergenceError if the last three terms grew above
    thr, and NonConvergenceError otherwise; a partial sum is never returned.
    A sum that leaves the float range raises RangeError.
    """
    abs_tol, rel_tol = tol.abs_tol, tol.rel_tol
    taken: list[float] = []
    running = 0.0
    prev = math.inf  # |previous term|; inf before the first, so that r = 0 there
    small_run = growth_run = 0
    for term in islice(terms, tol.max_terms):
        taken.append(term)
        running += term
        size = abs(term)
        ratio = size / prev if prev else (math.inf if size else 0.0)
        threshold = abs_tol + rel_tol * abs(running)
        bar = threshold * (1.0 - ratio) if ratio > 0.5 else threshold
        small_run = small_run + 1 if size <= bar else 0
        growth_run = growth_run + 1 if size >= prev and size > threshold else 0
        if small_run >= 3 and ratio < 1.0:
            break
        prev = size
    else:
        if growth_run >= 3:
            raise DivergenceError(f"{label} terms grew for {growth_run} consecutive steps", ratio=ratio)
        if abs(running) != math.inf:
            raise NonConvergenceError(
                f"{label} did not meet tolerance within {tol.max_terms} terms", last_delta=taken[-1]
            )
    if abs(running) == math.inf:
        raise RangeError(f"{label} sum leaves the float range")
    return taken, ratio


def _ml_series(
    spec: MLSpec, t: float, q: float, modified: bool = False, memo: _SeriesMemo | None = None
) -> MLResult:
    """sum_k lam**k (t - t0)_q^(alpha k + offset) / Gamma_q(alpha k + beta),
    with offset beta - 1 for the modified function and 0 otherwise.

    ``memo``, built for this q and spec.tol, shares products and Gamma_q
    values with the other series of the caller's computation (see
    :class:`_SeriesMemo`); without it the series makes one of its own.
    Either way the result is the same float.
    """
    label = "modified q-Mittag-Leffler" if modified else "q-Mittag-Leffler"
    _check_q(q)
    if not spec.t0 <= t < math.inf:
        raise DomainError(f"{label} needs a finite t >= t0, got t={t!r}, t0={spec.t0!r}")
    if memo is None:
        memo = _SeriesMemo(q, spec.tol)
    est = _convergence_ratio_estimate(spec.alpha, q, t, spec.t0, spec.lam)
    if est >= 1.0:
        raise DivergenceError(
            f"{label} series diverges at t={t!r}: term-ratio estimate {est:.6g} >= 1",
            ratio=est,
        )
    terms, ratio = _sum_until_small(_ml_terms(spec, t, q, modified, memo), spec.tol, label)
    return MLResult(math.fsum(terms), len(terms), ratio, True)


def _ml_terms(
    spec: MLSpec, t: float, q: float, modified: bool, memo: _SeriesMemo
) -> Iterator[float]:
    """The terms of :func:`_ml_series`, without end.

    A term is lam_pow * power / Gamma_q in floats.  From the first term
    where lam**k or Gamma_q leaves the float range, lam**k * power is
    carried as a sign and a log and the term is exp(log - log Gamma_q), so
    a long convergent series is summed instead of stopping on overflow.
    """
    alpha, beta, lam, t0 = spec.alpha, spec.beta, spec.lam, spec.t0
    gammas = memo.gammas(alpha, beta)
    # factorial power advanced term-by-term through the exponent-addition
    # identity: power(e + alpha) = power(e) * (t - q**e t0)_q^alpha
    exponent = beta - 1.0 if modified else 0.0
    power = memo.power(t, t0, exponent)
    steps = memo.products(alpha)  # read on every term, so fetched once
    lam_pow = 1.0
    for k in count():  # while lam**k and Gamma_q are finite floats
        if k == len(gammas):
            try:
                gammas.append(gamma_q(alpha * k + beta, q, spec.tol))
            except RangeError:
                gammas.append(math.inf)
        if gammas[k] == math.inf:
            break
        yield lam_pow * power / gammas[k]
        if abs(lam_pow * lam) == math.inf:
            break
        lam_pow *= lam
        if power != 0.0:
            shifted = t0 * q ** exponent
            if shifted < t:
                power *= _q_factorial_power(t, shifted, alpha, q, memo.max_terms, steps)
            else:
                # negative exponents can push the shifted point past t;
                # fall back to evaluating the next power from scratch
                power = memo.power(t, t0, exponent + alpha)
        exponent += alpha
    # past the float range: scale is [sign, log|lam**k power|]; term k is
    # still due after a Gamma_q overflow, not after a lam**(k + 1) overflow
    scale = [math.copysign(1.0, lam_pow) * math.copysign(1.0, power),
             _log_abs(lam_pow) + _log_abs(power)]
    due = gammas[k] == math.inf
    while True:
        if due:
            yield scale[0] * math.exp(scale[1] - memo.log_gamma(alpha * k + beta))
        due = True
        if scale[1] > -math.inf:
            scale[0] *= math.copysign(1.0, lam)
            scale[1] += _log_abs(lam)
            shifted = t0 * q ** exponent
            if shifted < t:
                step = _q_factorial_power(t, shifted, alpha, q, memo.max_terms, steps)
                scale[0] *= math.copysign(1.0, step)
                scale[1] += _log_abs(step)
            else:
                power = memo.power(t, t0, exponent + alpha)
                scale = [math.copysign(1.0, lam) ** (k + 1) * math.copysign(1.0, power),
                         (k + 1) * _log_abs(lam) + _log_abs(power)]
        exponent += alpha
        k += 1


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

    Evaluated as E_q((1 - q) t) (Gasper & Rahman, Basic Hypergeometric
    Series, 1.3), whose product has only positive factors for t < 0, where
    the series above cancels.  Where that product is too long, the series
    is summed instead, as :func:`q_exp_big` describes.  A t that is not
    finite raises DomainError.
    """
    return _q_exp_small_with_terms(t, q, tol)[0]


def _q_exp_small_with_terms(t: float, q: float, tol: Tolerance) -> tuple[float, int]:
    """(e_q(t), factors of the E_q product used, or series terms summed)."""
    _check_q(q)
    _check_finite(t=t)
    ratio_limit = abs(t) * (1.0 - q)
    if ratio_limit >= 1.0:
        raise DivergenceError(
            f"e_q series needs |t|(1-q) < 1, got {ratio_limit:.6g}", ratio=ratio_limit
        )
    return _q_exp_with_terms((1.0 - q) * t, t, q, tol, "e_q series")


def _q_exp_small_terms(t: float, q: float, damped: bool) -> Iterator[float]:
    """t**k / [k]_q! for k = 0, 1, ..., times q**(k(k-1)/2) when damped."""
    term = damp = 1.0
    log_q = math.log(q)
    for k in count(1):
        yield term
        term *= t * damp / (-math.expm1(k * log_q) / (1.0 - q))  # [k]_q as q_bracket gives it
        if damped:
            damp *= q


def q_exp_big(t: float, q: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """E_q(t) = prod_n (1 - q**n t)^(-1), with poles at t = q**(-n).

    The product is the primary evaluation; for |t| < 1 the power series
    sum_n t**n / (q)_n is summed as well and the two must agree.  Where the
    product needs more than tol.max_terms factors (q above about 0.9964 by
    default) and |t| < 1, the series is summed instead, for t < 0 as
    1 / sum_n q**(n(n-1)/2) |t|**n / (q)_n (Gasper & Rahman (1.3.15)), whose
    terms are positive too.  For |t| >= 1 the NonConvergenceError stands.
    A t that is not finite raises DomainError.
    """
    return _q_exp_big_with_terms(t, q, tol)[0]


def _q_exp_big_with_terms(t: float, q: float, tol: Tolerance) -> tuple[float, int]:
    """(E_q(t), factors of its product used, or series terms summed)."""
    _check_q(q)
    _check_finite(t=t)
    return _q_exp_with_terms(t, t / (1.0 - q), q, tol, "E_q series")


def _q_exp_with_terms(
    x: float, t: float, q: float, tol: Tolerance, label: str
) -> tuple[float, int]:
    """(E_q(x) = e_q(t), factors used or terms summed) for x = (1 - q) t.

    The product in x; or, where it or its cross-check series would need
    more than tol.max_terms terms and |x| < 1, the series in t:
    sum_k t**k / [k]_q! for t > 0, and the reciprocal of the positive-term
    sum_k q**(k(k-1)/2) |t|**k / [k]_q! for t < 0.  Callers pass both
    variables, the one they were given unrounded; ``label`` names the
    series in its errors.
    """
    try:
        return _q_exp_product(x, q, tol)
    except NonConvergenceError:  # the product or its check is past max_terms
        if abs(x) >= 1.0:
            raise
    terms, _ = _sum_until_small(_q_exp_small_terms(abs(t), q, t < 0.0), tol, label)
    total = math.fsum(terms)
    return (1.0 / total if t < 0.0 else total), len(terms)


def _q_exp_product(t: float, q: float, tol: Tolerance) -> tuple[float, int]:
    """(E_q(t) from its product, factors used), cross-checked against the
    series for |t| <= 0.9."""
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
    """Raise QFracError unless the power series sum_n t**n / (q)_n, summed
    by :func:`_sum_until_small`, agrees with the product.

    The tolerance scales with the sum of |terms|, the series' own rounding
    bound: for t < 0 the terms alternate and cancel, so the series can lose
    every digit of a small E_q(t) that the product still gets right.
    """
    # t**n / (q)_n = (t / (1 - q))**n / [n]_q!
    terms, _ = _sum_until_small(_q_exp_small_terms(t / (1.0 - q), q, False), tol, "E_q series")
    series = math.fsum(terms)
    if abs(series - product) > 100.0 * (tol.abs_tol + tol.rel_tol * math.fsum(map(abs, terms))):
        raise QFracError(
            f"E_q product/series disagreement at t={t!r}: {product!r} vs {series!r}"
        )

