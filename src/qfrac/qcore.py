"""Geometric time-scale grids and q-arithmetic primitives.

Everything downstream works on the time scale {q**n : n integer} for a fixed
base 0 < q < 1.  A finite increasing window of it (:class:`QGrid`) is the
computational domain, and all operators act on functions sampled on such a
window (:class:`GridFn`).

The two workhorses are the q-factorial power ``(t - s)_q^nu`` (a finite
product for integer ``nu``, an infinite product otherwise) and the q-Gamma
function derived from it.  Infinite products are truncated after
``ceil(ln(eps)/ln(q))`` factors, where every omitted factor differs from 1 by
less than machine epsilon, and are accumulated through ``log1p``/``fsum`` so
the identities tested at 1e-10 survive bases close to 1.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DomainError, GridMismatchError, NonConvergenceError, PoleError, RangeError

MACHINE_EPS = 2.0 ** -52


def _check_q(q: float) -> None:
    if not 0.0 < q < 1.0:
        raise DomainError(f"base q must lie in (0, 1), got {q!r}")


@dataclass(frozen=True)
class Tolerance:
    """Truncation control for series and infinite products."""

    rel_tol: float = 1e-12
    abs_tol: float = 1e-15
    max_terms: int = 10_000

    def __post_init__(self) -> None:
        if not self.rel_tol > 0:
            raise DomainError("rel_tol must be positive")
        if self.abs_tol < 0:
            raise DomainError("abs_tol must be nonnegative")
        if self.max_terms < 1:
            raise DomainError("max_terms must be at least 1")


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True)
class QGrid:
    """A finite window t_k = q**(n_start - k), k = 0..count-1, of the time scale.

    Points are strictly increasing, never 0, and satisfy the exact ratio
    relation points[k+1] == points[k] / q (use :func:`make_grid`, which builds
    them by successive division).
    """

    q: float
    n_start: int
    points: tuple[float, ...]

    def __post_init__(self) -> None:
        _check_q(self.q)
        if not self.points:
            raise DomainError("grid needs at least one point")
        if self.points[0] <= 0.0:
            raise DomainError("grid anchor must be positive (the window excludes t = 0)")
        for k in range(len(self.points) - 1):
            nxt = self.points[k] / self.q
            if abs(self.points[k + 1] - nxt) > 4.0 * MACHINE_EPS * nxt:
                raise DomainError(f"points[{k + 1}] breaks the ratio relation t_k/q")

    @property
    def count(self) -> int:
        return len(self.points)

    @cached_property
    def t(self) -> np.ndarray:
        arr = np.array(self.points, dtype=float)
        arr.setflags(write=False)
        return arr


def make_grid(q: float, n_start: int, count: int) -> QGrid:
    """Materialize the window q**n_start, q**(n_start-1), ... (count points)."""
    _check_q(q)
    if count < 1:
        raise DomainError("count must be at least 1")
    start = float(q) ** n_start
    if start == 0.0 or not math.isfinite(start):
        raise RangeError(f"anchor q**{n_start} is not representable")
    pts = [start]
    for _ in range(count - 1):
        nxt = pts[-1] / q
        if not math.isfinite(nxt):
            raise RangeError(f"grid point q**{n_start - len(pts)} overflows")
        pts.append(nxt)
    return QGrid(q=float(q), n_start=int(n_start), points=tuple(pts))


@dataclass(frozen=True, eq=False)
class GridFn:
    """A real-valued function sampled on a :class:`QGrid`.

    Values are stored as a read-only float array and must be free of
    infinities.  NaN is reserved as the marker for boundary points where an
    integer-order difference has no predecessor chain; ordinary data should
    be fully finite.
    """

    grid: QGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float)
        if vals.shape != (self.grid.count,):
            raise GridMismatchError(
                f"expected {self.grid.count} values, got shape {vals.shape}"
            )
        if np.isinf(vals).any():
            raise DomainError("grid function values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_callable(cls, grid: QGrid, fn) -> "GridFn":
        return cls(grid, np.array([fn(t) for t in grid.points], dtype=float))

    @classmethod
    def constant(cls, grid: QGrid, value: float) -> "GridFn":
        return cls(grid, np.full(grid.count, float(value)))


@dataclass(frozen=True)
class FracOrder:
    """A fractional order alpha > 0 together with its difference depth n.

    n equals alpha for integer orders and floor(alpha) + 1 otherwise.
    """

    alpha: float

    def __post_init__(self) -> None:
        if not self.alpha > 0:
            raise DomainError(f"order alpha must be positive, got {self.alpha!r}")

    @property
    def is_integer(self) -> bool:
        return float(self.alpha).is_integer()

    @property
    def n(self) -> int:
        a = float(self.alpha)
        return int(a) if a.is_integer() else math.floor(a) + 1


def q_bracket(r: float, q: float) -> float:
    """[r]_q = (1 - q**r) / (1 - q), the q-analogue of the number r."""
    _check_q(q)
    return -math.expm1(r * math.log(q)) / (1.0 - q)


def q_pochhammer(q: float, n: int) -> float:
    """(q)_n = (1 - q)(1 - q**2)...(1 - q**n); the empty product for n = 0."""
    _check_q(q)
    if n < 0:
        raise DomainError("q_pochhammer needs n >= 0")
    prod = 1.0
    qi = q
    for _ in range(int(n)):
        prod *= 1.0 - qi
        qi *= q
    return prod


def _full_truncation_index(q: float) -> int:
    return math.ceil(math.log(MACHINE_EPS) / math.log(q))


def product_truncation_index(q: float, max_terms: int = DEFAULT_TOL.max_terms) -> int:
    """Number of factors after which every omitted q-product factor is within
    machine epsilon of 1 (geometric tail), capped by max_terms."""
    _check_q(q)
    return max(1, min(int(max_terms), _full_truncation_index(q)))


#: Factor count from which :func:`_q_product` evaluates all factors in one
#: numpy pass instead of a Python loop.  Below it numpy's per-call overhead
#: outweighs the saving: on CPython 3.11 / numpy 2.4 (2.1 GHz Xeon) the two
#: break even near 105 factors for Gamma_q-shaped products, where every factor
#: is used, and near 125 for the kernel entries of a 48-point window, whose
#: products stop earlier.
NUMPY_PRODUCT_MIN_FACTORS = 128


def _q_product(
    x0: float, q: float, num: float, den: float, max_terms: int, extra: int = 0
) -> tuple[float, float, int]:
    """prod_i (1 + delta_i), delta_i = x_i num / (1 - x_i den), x_i = x0 q**i.

    Evaluates ``min(ceil(ln eps / ln q), max_terms) + extra`` factors at most
    and stops after the first one with |delta_i| < eps/8 (the deltas shrink
    geometrically, so the omitted tail stays below one ulp).  Returns
    ``(sign, log_abs, factors_used)``: the product is ``sign * exp(log_abs)``,
    with ``log_abs`` the fsum of the factors' log1p values.  A factor that is
    exactly zero ends the product with sign 0.0, counted in factors_used; a
    zero denominator raises PoleError.  When max_terms caps the factor count
    and the cut-off is not reached, NonConvergenceError is raised instead of
    returning a truncated product.

    Long products take one numpy pass that repeats the loop's floating-point
    operations exactly: the geometric sequence by repeated multiplication,
    the same delta expression, and libm log1p on each factor (np.log1p can
    differ in the last bit).  It returns only in the common case, every factor
    positive and finite and the product not cut short by max_terms; anything
    else runs the loop.
    """
    full = _full_truncation_index(q)
    count = max(1, min(int(max_terms), full)) + extra
    if count >= NUMPY_PRODUCT_MIN_FACTORS:
        seq = np.full(count, q)
        seq[0] = x0
        with np.errstate(all="ignore"):
            x = np.multiply.accumulate(seq)
            delta = x * num / (1.0 - x * den)
            done = np.flatnonzero(np.abs(delta) < MACHINE_EPS / 8.0)
            used = int(done[0]) + 1 if done.size else count
            delta = delta[:used]
            factor = 1.0 + delta
        if (done.size or max_terms >= full) and 0.0 < factor.min() and factor.max() < math.inf:
            return 1.0, math.fsum(map(math.log1p, delta.tolist())), used
    sign = 1.0
    logs: list[float] = []
    x = x0
    for i in range(count):
        d = 1.0 - x * den
        if d == 0.0:
            raise PoleError(f"q-product denominator vanishes at factor {i}")
        delta = x * num / d
        factor = 1.0 + delta
        if factor == 0.0:
            return 0.0, 0.0, i + 1
        if factor < 0.0:
            sign = -sign
            logs.append(math.log(-factor))
        else:
            logs.append(math.log1p(delta))
        if abs(delta) < MACHINE_EPS / 8.0:
            break
        x *= q
    else:
        if max_terms < full:
            raise NonConvergenceError(
                f"q-product at q={q!r} needs {full} factors, more than max_terms={max_terms}"
            )
    return sign, math.fsum(logs), len(logs)


def q_factorial_power(
    t: float, s: float, nu: float, q: float, tol: Tolerance = DEFAULT_TOL
) -> float:
    """The q-factorial power (t - s)_q^nu.

    Integer nu >= 0 uses the finite product prod_{i<nu}(t - q**i s), valid for
    any s.  Every other nu uses the infinite product
    t**nu * prod_i (1 - (s/t) q**i) / (1 - (s/t) q**(i+nu)), which needs
    s/t < 1; s == t is admitted for nu > 0, where the i = 0 factor forces 0.
    (t - s)_q^0 is 1 for all admissible arguments.  An infinite product that
    would need more than tol.max_terms factors raises NonConvergenceError.
    """
    _check_q(q)
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
    # factor i is 1 + delta_i, delta_i = r q^i (q^nu - 1) / (1 - r q^(i+nu))
    log_q = math.log(q)
    try:
        sign, log_abs, _ = _q_product(
            r, q, math.expm1(nu * log_q), math.exp(nu * log_q), tol.max_terms
        )
    except PoleError:
        # reachable only for nu < 0 with s/t = q**(-(i+nu))
        raise PoleError(f"(t-s)_q^{nu} has a pole at s/t = {r!r}") from None
    if sign == 0.0:
        return 0.0
    return sign * t ** nu * math.exp(log_abs)


#: gamma_q values kept; covers the working set of one closed-form solve.
GAMMA_CACHE_SIZE = 1024


@lru_cache(maxsize=GAMMA_CACHE_SIZE)
def _gamma_q_cached(
    alpha: float, q: float, rel_tol: float, abs_tol: float, max_terms: int
) -> float:
    tol = Tolerance(rel_tol, abs_tol, max_terms)
    num = q_factorial_power(1.0, q, alpha - 1.0, q, tol)
    den = (1.0 - q) ** (alpha - 1.0)
    if den >= sys.float_info.min:
        value = num / den
    else:
        # den lost precision to underflow: divide by its square root twice
        half = (1.0 - q) ** (0.5 * (alpha - 1.0))
        value = num / half / half
    if not math.isfinite(value):
        raise RangeError(f"Gamma_q({alpha!r}) at q={q!r} overflows the float range")
    return value


def gamma_q(alpha: float, q: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """Gamma_q(alpha) from the product representation (1-q)_q^(alpha-1) / (1-q)^(alpha-1).

    Satisfies Gamma_q(alpha + 1) = [alpha]_q Gamma_q(alpha), Gamma_q(1) = 1,
    and Gamma_q(n + 1) = [n]_q!.  The last GAMMA_CACHE_SIZE values are cached
    per (alpha, q, tolerance); entries are pure function values, so
    concurrent reads and duplicate inserts are harmless.
    """
    _check_q(q)
    if not alpha > 0:
        raise DomainError(f"gamma_q needs alpha > 0, got {alpha!r}")
    return _gamma_q_cached(
        float(alpha), float(q), tol.rel_tol, tol.abs_tol, int(tol.max_terms)
    )
