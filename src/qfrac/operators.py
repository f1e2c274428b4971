"""Finite-sum operators on grid windows: nabla q-derivative and q-integral,
the left q-fractional integral, the Caputo q-fractional derivative, and the
coefficient-weighted summation operator used by the comparison series.

On a grid window the q-integral from the lower limit a to any point is an
exact finite sum over the points in (a, t], so the fractional integral is
materialized once per (grid, a, order) as a lower-triangular weight matrix;
every later application is a triangular mat-vec.  The matrices are
read-only, so the most recently used kernels are shared from one
:class:`qfrac.qcore._BoundedLRU` bounded by the bytes they hold.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import math

import numpy as np

from .errors import BoundaryError, DomainError, GridMismatchError, RangeError
from .qcore import (
    DEFAULT_TOL,
    FracOrder,
    GridFn,
    QGrid,
    Tolerance,
    _BoundedLRU,
    _check_finite,
    _check_index,
    _check_integer,
    _q_factorial_power,
    gamma_q,
)


def nabla_derivative(f: GridFn, at_index: int) -> float:
    """(f(t) - f(qt)) / ((1 - q) t) at t = points[at_index]."""
    _check_index(f.grid, BoundaryError, at_index=at_index)
    if at_index < 1:
        raise BoundaryError("nabla derivative needs a predecessor (index >= 1)")
    grid = f.grid
    t = grid.points[at_index]
    return float(f.values[at_index] - f.values[at_index - 1]) / ((1.0 - grid.q) * t)


def _nabla_values(grid: QGrid, values: np.ndarray) -> np.ndarray:
    """Backward difference quotient at every point; NaN where no predecessor
    exists.  ``values`` is (N,), or (N, K) for K grid functions, one column
    each."""
    out = np.empty_like(values)
    out[0] = np.nan
    step = (1.0 - grid.q) * grid.t[1:]
    out[1:] = (values[1:] - values[:-1]) / (step if values.ndim == 1 else step[:, None])
    return out


def nabla_integral(f: GridFn, from_index: int, to_index: int) -> float:
    """The q-integral of f over (points[from_index], points[to_index]].

    Equals (1 - q) * sum of s f(s) over grid points in the half-open range:
    the infinite Jackson tails below the lower limit cancel, leaving this
    exact finite sum.
    """
    _check_index(f.grid, BoundaryError, from_index=from_index, to_index=to_index)
    if from_index > to_index:
        raise DomainError("from_index must not exceed to_index")
    sl = slice(from_index + 1, to_index + 1)
    terms = f.grid.t[sl] * f.values[sl]
    return (1.0 - f.grid.q) * math.fsum(terms.tolist())


@dataclass(frozen=True, eq=False)
class OperatorKernel:
    """Lower-triangular weights realizing the order-alpha fractional integral.

    weights[i, j] multiplies f(points[j]) in the value at points[i]; rows at
    and below the lower limit are zero, and the diagonal above it equals
    (1 - q)**alpha * t**alpha.
    """

    grid: QGrid
    a_index: int
    alpha: FracOrder
    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=float)
        if w.shape != (self.grid.count, self.grid.count):
            raise GridMismatchError("kernel matrix shape must match the grid")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def diagonal(self) -> np.ndarray:
        return np.diagonal(self.weights)

    @cached_property
    def rows(self) -> tuple[tuple[np.ndarray, ...], tuple[float, ...]]:
        """(history, diag): history[i] is the view weights[i, :i] and diag[i]
        the Python float weights[i, i].  Built once per kernel, for the row
        loop of :func:`qfrac.solver.forward_substitution`."""
        w = self.weights
        return tuple(w[i, :i] for i in range(len(w))), tuple(self.diagonal.tolist())


#: bytes of kernels kept by :func:`build_kernel`, counted by :func:`_kernel_bytes`.
#: It holds the 16 kernels that one ``run_suite("all")`` uses (41 KiB), and
#: about as many 12-32-point kernels as the 8-entry LRU it replaced (traced
#: memory of a closed-form solve series equal; 128 KiB held 47 KB more).
KERNEL_CACHE_BYTES = 64 * 1024

#: bytes one row of :attr:`OperatorKernel.rows` holds: the view object and its
#: diagonal float (tracemalloc, CPython 3.11 / numpy 2.4: 140 to 150 per row
#: from 32 to 128 points).
_ROW_BYTES = 144


def _kernel_bytes(kernel: OperatorKernel) -> int:
    """Bytes charged to a cached kernel: its weights plus its row views,
    whether or not they are built yet."""
    return kernel.weights.nbytes + len(kernel.weights) * _ROW_BYTES


#: the kernels :func:`build_kernel` keeps, least recently used first out
_KERNEL_CACHE = _BoundedLRU(KERNEL_CACHE_BYTES, _kernel_bytes)


def build_kernel(
    grid: QGrid, a_index: int, alpha: FracOrder, tol: Tolerance = DEFAULT_TOL
) -> OperatorKernel:
    """Materialize the left fractional integral of order alpha from points[a_index].

    Kernels of repeated (grid, a_index, alpha, tol) are reused from a cache
    of the most recently used ones, bounded by KERNEL_CACHE_BYTES; a
    kernel's weights are read-only, so sharing one between callers is safe.
    """
    _check_index(grid, BoundaryError, a_index=a_index)
    return _cached_kernel(grid, a_index, alpha, tol, None)


def _cached_kernel(
    grid: QGrid, a_index: int, alpha: FracOrder, tol: Tolerance,
    products: dict[float, float] | None,
) -> OperatorKernel:
    """:func:`build_kernel` for a checked a_index, whose build, if the cache
    misses, reads the product table ``products`` (see :func:`_build_kernel`)."""
    key = (grid, int(a_index), float(alpha.alpha), tol)
    return _KERNEL_CACHE.get(key, lambda: _build_kernel(*key, products))


def _build_kernel(
    grid: QGrid, a_index: int, al: float, tol: Tolerance,
    products: dict[float, float] | None = None,
) -> OperatorKernel:
    """The kernel's weights (1 - q) t_j (t_i - q t_j)_q^(al-1) / Gamma_q(al).

    ``products``, a product table of a :class:`qfrac.special._SeriesMemo`
    for nu = al - 1, supplies each factor it holds and keeps each one it
    lacks; a hit takes the float operations of a fresh evaluation, so the
    weights are the same floats with or without it.
    """
    q = grid.q
    nu = al - 1.0
    g = gamma_q(al, q, tol)
    w = np.zeros((grid.count, grid.count))
    for i in range(a_index + 1, grid.count):
        ti = grid.points[i]
        for j in range(a_index + 1, i + 1):
            tj = grid.points[j]
            power = _q_factorial_power(ti, q * tj, nu, q, tol.max_terms, products)
            w[i, j] = (1.0 - q) * tj * power / g
    return OperatorKernel(grid=grid, a_index=a_index, alpha=FracOrder(al), weights=w)


def _integrate(weights: np.ndarray, values: np.ndarray, a_index: int) -> np.ndarray:
    """The fractional integral with kernel weights ``weights`` of (N,) values,
    or of each column of (N, K) values; values at and below the lower limit
    are zero-weight and set to 0 first, which keeps NaN markers inert.

    A block takes one matrix-vector product per column, as a single case
    does: a matrix product's sums would round differently."""
    vals = np.array(values)
    vals[: a_index + 1] = 0.0
    if vals.ndim == 1:
        return weights @ vals
    return np.stack([weights @ col for col in np.ascontiguousarray(vals.T)], axis=1)


def fractional_integral(f: GridFn, kernel: OperatorKernel) -> GridFn:
    """Apply the kernel; the result vanishes at and below the lower limit."""
    if f.grid != kernel.grid:
        raise GridMismatchError("function and kernel live on different grids")
    return GridFn._owned(f.grid, _integrate(kernel.weights, f.values, kernel.a_index))


def _caputo_of_differences(
    grid: QGrid, top: np.ndarray, a_index: int, alpha: FracOrder, tol: Tolerance
) -> np.ndarray:
    """The Caputo derivative of order alpha from its n-th nabla differences
    ``top`` ((N,) or (N, K)), n = alpha.n: ``top`` itself for an integer
    order, else its order-(n - alpha) fractional integral from a."""
    _check_index(grid, BoundaryError, a_index=a_index)
    n = alpha.n
    if alpha.is_integer:
        return top
    if grid.count <= n:
        raise BoundaryError(f"grid too short for {n} difference levels")
    if a_index < n - 1:
        raise BoundaryError(
            f"order-{n} differences start at index {n}; lower limit {a_index} is too early"
        )
    # the undefined head lies at or below a_index, so _integrate zeroes it
    kernel = build_kernel(grid, a_index, FracOrder(n - alpha.alpha), tol)
    return _integrate(kernel.weights, top, a_index)


def caputo_derivative(
    f: GridFn, a_index: int, alpha: FracOrder, tol: Tolerance = DEFAULT_TOL
) -> GridFn:
    """Caputo derivative: order-(n - alpha) fractional integral of the n-th
    nabla derivative, n = alpha.n.

    Integer orders reduce to the n-fold nabla derivative; its first n points
    have no predecessor chain and come back as NaN rather than extrapolated.
    """
    vals = f.values
    for _ in range(alpha.n):
        vals = _nabla_values(f.grid, vals)
    return GridFn._owned(f.grid, _caputo_of_differences(f.grid, vals, a_index, alpha, tol))


def _inverse_identity_residual(
    grid: QGrid, values: np.ndarray, a_index: int, alpha: FracOrder, tol: Tolerance
) -> float | np.ndarray:
    """:func:`caputo_inverse_identity_check` of the (N,) values of one case,
    or, for (N, K) values, the (K,) residuals of K cases, one per column.

    The nabla differences and the q-Taylor part are formed for all columns
    at once, and each column's kernel products are those of a single case,
    so a column's residual is the float of that case checked alone."""
    n = alpha.n
    if a_index < n - 1:
        raise BoundaryError(
            f"identity needs the order-{n} derivative on (a, t]; raise a_index"
        )
    # levels[k] is the k-th nabla difference: the Taylor part reads levels
    # 0..n-1 at a, the Caputo derivative starts from level n
    levels = [values]
    for _ in range(n):
        levels.append(_nabla_values(grid, levels[-1]))
    cap = _caputo_of_differences(grid, levels[n], a_index, alpha, tol)
    kernel = build_kernel(grid, a_index, FracOrder(alpha.alpha), tol)
    recon = _integrate(kernel.weights, cap, a_index)
    a = grid.points[a_index]
    taylor = np.zeros(values.shape)
    for k in range(n):
        coeff = levels[k][a_index] / gamma_q(k + 1.0, grid.q, tol)
        powers = np.array(
            [_q_factorial_power(t, a, float(k), grid.q, tol.max_terms, None)
             for t in grid.points[a_index:]]
        )
        taylor[a_index:] += (powers if values.ndim == 1 else powers[:, None]) * coeff
    resid = np.max(np.abs(recon - (values - taylor))[a_index:], axis=0)
    return float(resid) if values.ndim == 1 else resid


def caputo_inverse_identity_check(
    f: GridFn, a_index: int, alpha: FracOrder, tol: Tolerance = DEFAULT_TOL
) -> float:
    """Max absolute residual, over t >= a, of composing the fractional integral
    with the Caputo derivative against f minus its degree-(n-1) q-Taylor part.

    For 0 < alpha <= 1 the subtracted part is just f(a), so this measures the
    defect of the inversion identity on the grid.
    """
    return _inverse_identity_residual(f.grid, f.values, a_index, alpha, tol)


@dataclass(frozen=True, eq=False)
class OmegaOp:
    """phi -> fractional integral of x * phi, the comparison-series building block."""

    kernel: OperatorKernel
    x: GridFn

    def __post_init__(self) -> None:
        if self.x.grid != self.kernel.grid:
            raise GridMismatchError("coefficient and kernel live on different grids")


def omega_apply(op: OmegaOp, phi: GridFn) -> GridFn:
    """The fractional integral of x * phi: the floats of
    ``fractional_integral(GridFn._owned(grid, x * phi), kernel)``, and its
    DomainError when x * phi overflows, without the intermediate GridFn."""
    if phi.grid != op.kernel.grid:
        raise GridMismatchError("phi and kernel live on different grids")
    with np.errstate(over="ignore"):  # an overflow is the DomainError below
        vals = op.x.values * phi.values
    if np.count_nonzero(np.isinf(vals)):
        raise DomainError("grid function values must be finite")
    vals[: op.kernel.a_index + 1] = 0.0
    return GridFn._owned(phi.grid, op.kernel.weights @ vals)


def omega_power_one_closed(
    lam: float,
    n: int,
    alpha: FracOrder,
    grid: QGrid,
    a_index: int,
    tol: Tolerance = DEFAULT_TOL,
) -> GridFn:
    """Closed form lam**n (t - a)_q^(n alpha) / Gamma_q(n alpha + 1) for n
    applications of the constant-coefficient operator to the constant 1.
    A value past the float range raises RangeError."""
    _check_finite(lam=lam)
    _check_integer(at_least=0, n=n)
    _check_index(grid, BoundaryError, a_index=a_index)
    if n == 0:
        return GridFn._owned(grid, np.ones(grid.count))
    try:
        scale = float(lam) ** int(n)
    except OverflowError:
        raise RangeError(f"lam**n = {lam!r}**{n} overflows the float range") from None
    a = grid.points[a_index]
    g = gamma_q(n * alpha.alpha + 1.0, grid.q, tol)
    vals = np.zeros(grid.count)
    for i in range(a_index, grid.count):
        vals[i] = scale * _q_factorial_power(
            grid.points[i], a, n * alpha.alpha, grid.q, tol.max_terms, None) / g
    if not np.isfinite(vals).all():
        raise RangeError(
            f"lam**n (t - a)_q^(n alpha) at lam={lam!r}, n={n} overflows the float range")
    return GridFn._owned(grid, vals)
