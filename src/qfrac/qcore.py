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

:class:`_BoundedLRU` is the one least-recently-used cache class of the
package, for the long-lived caches of :mod:`qfrac.operators` and
:mod:`qfrac.special`.

numpy is imported only where arrays are needed (:attr:`QGrid.t`,
:class:`GridFn`, and the long-product pass of :func:`_q_product` once numpy
is loaded anyway), so scalar evaluations run without it.
"""
from __future__ import annotations

import math
import numbers
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Any, Callable, Hashable

from .errors import DomainError, GridMismatchError, NonConvergenceError, PoleError, RangeError

if TYPE_CHECKING:
    import numpy as np

MACHINE_EPS = 2.0 ** -52


def _check_q(q: float) -> None:
    if not 0.0 < q < 1.0:
        raise DomainError(f"base q must lie in (0, 1), got {q!r}")


def _check_finite(**values: float) -> None:
    """Raise DomainError unless every value is a finite number."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value!r}")


def _check_integer(at_least: int | None = None, **values: Any) -> None:
    """Raise DomainError unless every value is an int, not a bool, and at least ``at_least``."""
    for name, value in values.items():
        if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
                or at_least is not None and value < at_least):
            bound = "" if at_least is None else f" of at least {at_least}"
            raise DomainError(f"{name} must be an integer{bound}, got {value!r}")


def _check_index(grid: QGrid, error: type[Exception] = DomainError, **indices: Any) -> None:
    """Raise DomainError unless every index is an int, and ``error`` unless it is in [0, N)."""
    _check_integer(**indices)
    for name, index in indices.items():
        if not 0 <= index < grid.count:
            raise error(f"{name} {index} outside grid of {grid.count} points")


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
        _check_finite(rel_tol=self.rel_tol, abs_tol=self.abs_tol)
        _check_integer(at_least=1, max_terms=self.max_terms)


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
        _check_integer(n_start=self.n_start)
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
        import numpy as np

        arr = np.array(self.points, dtype=float)
        arr.setflags(write=False)
        return arr


class _BoundedLRU:
    """Least-recently-used values whose sizes, as ``size(value)`` gives
    them, sum to at most ``budget``.

    :meth:`get` looks a key up under a lock and builds a missing value
    outside it; when two callers build one key at once, both get the value
    stored first.  Each insert trims the oldest values but keeps the newest,
    even when it alone exceeds the budget; :meth:`trim` enforces the budget
    fully, even if that empties the cache.  Values may grow after they are
    handed out, so every trim sums the sizes afresh.
    """

    def __init__(self, budget: int, size: Callable[[Any], int]) -> None:
        self.budget = budget
        self._size = size
        self._items: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable, make: Callable[[], Any]) -> Any:
        with self._lock:
            value = self._items.get(key)
            if value is not None:
                self._items.move_to_end(key)
                return value
        built = make()
        with self._lock:
            value = self._items.setdefault(key, built)
            self._items.move_to_end(key)
            self._trim(keep=1)
        return value

    def trim(self) -> None:
        """Evict least recently used values until the sizes fit the budget."""
        with self._lock:
            self._trim(keep=0)

    def _trim(self, keep: int) -> None:
        total = sum(map(self._size, self._items.values()))
        while total > self.budget and len(self._items) > keep:
            total -= self._size(self._items.popitem(last=False)[1])

    def total(self) -> int:
        """The sum of the sizes of the values held."""
        with self._lock:
            return sum(map(self._size, self._items.values()))


def make_grid(q: float, n_start: int, count: int) -> QGrid:
    """Materialize the window q**n_start, q**(n_start-1), ... (count points);
    n_start and count must be integers (Python or numpy ints, not bools)."""
    _check_q(q)
    _check_integer(n_start=n_start)
    _check_integer(at_least=1, count=count)
    try:
        start = float(q) ** int(n_start)
    except OverflowError:
        start = math.inf
    if not 0.0 < start < math.inf:
        raise RangeError(f"anchor q**{n_start} is not representable")
    pts = [start]
    for _ in range(count - 1):
        nxt = pts[-1] / q
        if not math.isfinite(nxt):
            raise RangeError(f"grid point q**{n_start - len(pts)} overflows")
        pts.append(nxt)
    return QGrid(q=float(q), n_start=int(n_start), points=tuple(pts))


def _seal(grid: QGrid, vals: np.ndarray, nan_ok: bool) -> np.ndarray:
    """vals, made read-only, once it has one entry per grid point and no
    infinity, nor NaN unless ``nan_ok``."""
    import numpy as np

    if vals.shape != (grid.count,):
        raise GridMismatchError(f"expected {grid.count} values, got shape {vals.shape}")
    # count_nonzero is one C call, where ndarray.all/any go through Python
    if np.count_nonzero(np.isfinite(vals)) != vals.size and (
        not nan_ok or np.count_nonzero(np.isinf(vals))
    ):
        raise DomainError("grid function values must be finite")
    vals.setflags(write=False)
    return vals


@dataclass(frozen=True, eq=False)
class GridFn:
    """A real-valued function sampled on a :class:`QGrid`.

    Values are stored as a read-only float array.  The constructor copies
    them and rejects NaN and infinities.  Arrays the package has just
    computed enter through :meth:`_owned` instead, which keeps the array
    and admits NaN, the marker for boundary points where an integer-order
    difference has no predecessor chain.
    """

    grid: QGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np

        vals = np.array(self.values, dtype=float)
        object.__setattr__(self, "values", _seal(self.grid, vals, nan_ok=False))

    @classmethod
    def _owned(cls, grid: QGrid, values: np.ndarray) -> "GridFn":
        """Wrap a float array that the caller has just made and hands over.

        The shape and infinity checks of the constructor apply, but the
        array is not copied: it becomes read-only and is the result's own,
        so the caller must not keep writing to it.  NaN passes.
        """
        fn = object.__new__(cls)
        object.__setattr__(fn, "grid", grid)
        object.__setattr__(fn, "values", _seal(grid, values, nan_ok=True))
        return fn

    @classmethod
    def from_callable(cls, grid: QGrid, fn) -> "GridFn":
        return cls(grid, [fn(t) for t in grid.points])

    @classmethod
    def constant(cls, grid: QGrid, value: float) -> "GridFn":
        return cls(grid, [float(value)] * grid.count)


@dataclass(frozen=True)
class FracOrder:
    """A fractional order alpha > 0 together with its difference depth n.

    n equals alpha for integer orders and floor(alpha) + 1 otherwise.
    """

    alpha: float

    def __post_init__(self) -> None:
        if not self.alpha > 0:
            raise DomainError(f"order alpha must be positive, got {self.alpha!r}")
        _check_finite(alpha=self.alpha)

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
    _check_finite(r=r)
    try:
        value = -math.expm1(r * math.log(q)) / (1.0 - q)
    except OverflowError:
        value = -math.inf
    if value == -math.inf:
        raise RangeError(f"[{r!r}]_q at q={q!r} overflows the float range")
    return value


def q_pochhammer(q: float, n: int) -> float:
    """(q)_n = (1 - q)(1 - q**2)...(1 - q**n); the empty product for n = 0."""
    _check_q(q)
    _check_integer(at_least=0, n=n)
    prod = 1.0
    qi = q
    for _ in range(n):
        prod *= 1.0 - qi
        qi *= q
    return prod


def _full_truncation_index(q: float) -> int:
    return math.ceil(math.log(MACHINE_EPS) / math.log(q))


def product_truncation_index(q: float, max_terms: int = DEFAULT_TOL.max_terms) -> int:
    """Number of factors after which every omitted q-product factor is within
    machine epsilon of 1 (geometric tail), capped by max_terms."""
    _check_q(q)
    _check_integer(at_least=1, max_terms=max_terms)
    return min(int(max_terms), _full_truncation_index(q))


#: Factor count from which :func:`_q_product` evaluates all factors in one
#: numpy pass instead of a Python loop.  Below it numpy's per-call overhead
#: outweighs the saving: on CPython 3.11 / numpy 2.4 (2.1 GHz Xeon) the two
#: break even near 105 factors for Gamma_q-shaped products, where every factor
#: is used, and near 125 for the kernel entries of a 48-point window, whose
#: products stop earlier.
NUMPY_PRODUCT_MIN_FACTORS = 128

#: a q-product stops after its first factor within this distance of 1.
_PRODUCT_CUT = MACHINE_EPS / 8.0


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
    else runs the loop.  The pass runs only when numpy is already imported:
    loading it (~100 ms) costs far more than the pass saves (~50 us), and
    both give the same floats.
    """
    full = _full_truncation_index(q)
    count = max(1, min(int(max_terms), full)) + extra
    np = sys.modules.get("numpy")
    if np is not None and count >= NUMPY_PRODUCT_MIN_FACTORS:
        seq = np.full(count, q)
        seq[0] = x0
        with np.errstate(all="ignore"):
            x = np.multiply.accumulate(seq)
            delta = x * num / (1.0 - x * den)
            done = np.flatnonzero(np.abs(delta) < _PRODUCT_CUT)
            used = int(done[0]) + 1 if done.size else count
            delta = delta[:used]
            factor = 1.0 + delta
        if (done.size or max_terms >= full) and 0.0 < factor.min() and factor.max() < math.inf:
            return 1.0, math.fsum(map(math.log1p, delta.tolist())), used
    sign = 1.0
    logs: list[float] = []
    append, log1p, cut = logs.append, math.log1p, _PRODUCT_CUT
    x = x0
    for i in range(count):
        d = 1.0 - x * den
        if d == 0.0:
            raise PoleError(f"q-product denominator vanishes at factor {i}")
        delta = x * num / d
        if delta > -1.0:  # factor 1 + delta > 0, the usual case
            append(log1p(delta))
            if -cut < delta < cut:
                break
        else:  # factor <= 0, or NaN
            factor = 1.0 + delta
            if factor == 0.0:
                return 0.0, 0.0, i + 1
            if factor < 0.0:
                sign = -sign
                append(math.log(-factor))
            else:
                append(log1p(delta))
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
    would need more than tol.max_terms factors raises NonConvergenceError, and
    so does a finite one of more than tol.max_terms factors unless the factors
    past that count cannot change it (the product is 0 or infinite and they
    are positive, or they are exactly t == 1.0).  An integer order returns
    the product's inf when it overflows; any other order raises RangeError.
    t, s and nu must be finite.
    """
    _check_q(q)
    _check_finite(t=t, s=s, nu=nu)
    return _q_factorial_power(t, s, nu, q, tol.max_terms, None)


def _q_factorial_power(
    t: float, s: float, nu: float, q: float, max_terms: int, products: dict[float, float] | None
) -> float:
    """:func:`q_factorial_power` for a checked q.

    The infinite product depends on t and s only through r = s/t, since
    (t - s)_q^nu = t**nu (r; q)_inf / (q**nu r; q)_inf.  ``products``, when
    given, maps r to the signed product factor for this one nu, q and
    max_terms: a factor found there is not evaluated again, and the result
    ``t**nu * factor`` takes the same float operations either way.
    """
    if not t > 0:
        raise DomainError(f"q_factorial_power needs t > 0, got {t!r}")
    if s < 0:
        raise DomainError(f"q_factorial_power needs s >= 0, got {s!r}")
    if float(nu).is_integer() and nu >= 0:
        n = int(nu)
        capped = n > max_terms
        prod = 1.0
        qi = 1.0
        for _ in range(max_terms if capped else n):  # not min(): a hot path
            prod *= t - qi * s
            qi *= q
        if capped and not _product_is_final(prod, t, t - qi * s):
            raise NonConvergenceError(
                f"(t-s)_q^{nu} still changes after max_terms={max_terms} factors"
            )
        return prod
    r = s / t
    if r == 1.0 and nu > 0:
        return 0.0
    if r >= 1.0:
        raise DomainError(f"product branch of (t-s)_q^nu needs s/t < 1, got s/t = {r!r}")
    try:
        if r == 0.0:
            return t ** nu
        factor = None if products is None else products.get(r)
        if factor is None:
            factor = _product_factor(r, nu, q, max_terms)
            if products is not None:
                products[r] = factor
        if factor == 0.0:
            return 0.0
        return t ** nu * factor
    except OverflowError:
        raise RangeError(f"(t-s)_q^{nu} at t={t!r}, s={s!r} overflows the float range") from None


def _q_factorial_power_with_terms(
    t: float, s: float, nu: float, q: float, tol: Tolerance
) -> tuple[float, int]:
    """((t - s)_q^nu, the number of factors its evaluation used): n for an
    integer order n >= 0 (max_terms when capped), 0 where the infinite
    product is skipped (s = 0 or s = t), else the factors of the infinite
    product.  The count takes a second pass over that product, which keeps
    :func:`q_factorial_power` as it is."""
    value = q_factorial_power(t, s, nu, q, tol)
    if float(nu).is_integer() and nu >= 0:
        return value, min(int(nu), tol.max_terms)  # the finite loop's count
    r = s / t
    if r == 0.0 or r == 1.0:
        return value, 0
    return value, _product_terms(r, nu, q, tol.max_terms)[2]


def _product_is_final(prod: float, t: float, factor: float) -> bool:
    """Whether the factors from ``factor`` on leave the finite product
    prod_i (t - q**i s) as it is.  The factors only grow towards t: once one
    is positive all later ones are, and they keep a 0 or an infinite product;
    once one is exactly t == 1.0 all later ones are 1.0.  NaN stays NaN."""
    if factor > 0.0 and (prod == 0.0 or abs(prod) == math.inf):
        return True
    return prod != prod or (t == 1.0 and factor == 1.0)


def _product_terms(r: float, nu: float, q: float, max_terms: int) -> tuple[float, float, int]:
    """:func:`_q_product` of prod_i (1 - r q**i) / (1 - r q**(i+nu)) for
    0 < r < 1: ``(sign, log_abs, factors_used)``."""
    # factor i is 1 + delta_i, delta_i = r q^i (q^nu - 1) / (1 - r q^(i+nu))
    log_q = math.log(q)
    try:
        return _q_product(r, q, math.expm1(nu * log_q), math.exp(nu * log_q), max_terms)
    except PoleError:
        # reachable only for nu < 0 with s/t = q**(-(i+nu))
        raise PoleError(f"(t-s)_q^{nu} has a pole at s/t = {r!r}") from None


def _product_factor(r: float, nu: float, q: float, max_terms: int) -> float:
    """prod_i (1 - r q**i) / (1 - r q**(i+nu)) for 0 < r < 1, with its sign."""
    sign, log_abs, _ = _product_terms(r, nu, q, max_terms)
    if sign == 0.0:
        return 0.0
    return sign * math.exp(log_abs)


#: gamma_q values kept; covers the working set of one closed-form solve.
GAMMA_CACHE_SIZE = 1024

#: below this alpha, Gamma_q(alpha) is Gamma_q(1 + alpha) / [alpha]_q: alpha - 1.0 drops bits
SMALL_GAMMA_ALPHA = 2.0 ** -7


@lru_cache(maxsize=GAMMA_CACHE_SIZE)
def _gamma_q_cached(
    alpha: float, q: float, rel_tol: float, abs_tol: float, max_terms: int
) -> float:
    if alpha < SMALL_GAMMA_ALPHA:
        bracket = q_bracket(alpha, q)  # 0.0 only for a subnormal alpha
        one_up = _gamma_q_cached(1.0 + alpha, q, rel_tol, abs_tol, max_terms)
        value = one_up / bracket if bracket else math.inf
    else:
        num = _q_factorial_power(1.0, q, alpha - 1.0, q, max_terms, None)
        den = (1.0 - q) ** (alpha - 1.0)
        if den >= sys.float_info.min:
            value = num / den
        else:
            # den lost precision to underflow: divide by its square root twice
            half = (1.0 - q) ** (0.5 * (alpha - 1.0))
            value = num / half / half if half else math.inf
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
    if not 0 < alpha < math.inf:
        raise DomainError(f"gamma_q needs a finite alpha > 0, got {alpha!r}")
    return _gamma_q_cached(
        float(alpha), float(q), tol.rel_tol, tol.abs_tol, int(tol.max_terms)
    )


def _log_abs(x: float) -> float:
    return math.log(abs(x)) if x else -math.inf


def _log_gamma_q(alpha: float, q: float, max_terms: int) -> float:
    """log Gamma_q(alpha) for a checked q and alpha > 0, from
    log (1-q)_q^(alpha-1) - (alpha-1) log(1-q) (small alphas as in gamma_q):
    finite also where Gamma_q itself leaves the float range."""
    if alpha < SMALL_GAMMA_ALPHA:
        return _log_gamma_q(1.0 + alpha, q, max_terms) - _log_abs(q_bracket(alpha, q))
    nu = alpha - 1.0
    return _product_terms(q, nu, q, max_terms)[1] - nu * math.log1p(-q)
