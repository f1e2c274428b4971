"""Caputo q-fractional initial value problem solvers on a grid window.

Three routes for y' = f(t, y) in the Caputo sense with y(a) = y0, all based
on the equivalent integral equation y = y0 + I^alpha f(t, y):

* closed form via q-Mittag-Leffler functions (linear right-hand sides),
* successive approximation on whole grid functions (linear),
* grid marching with a scalar fixed-point solve per point (general f).

Marching exploits the triangular kernel: at each grid point the only
implicit contribution carries the diagonal weight (1-q)**alpha t**alpha, so
one scalar damped fixed-point iteration per point suffices.
:func:`forward_substitution` is that row loop; the linear integral equations
of :mod:`qfrac.gronwall` and :mod:`qfrac.verify` run through it too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DivergenceError, DomainError, NonConvergenceError, PreconditionError, StepError
from .operators import OperatorKernel, _cached_kernel, build_kernel, fractional_integral
from .qcore import (
    DEFAULT_TOL, FracOrder, GridFn, QGrid, Tolerance, _check_finite, _check_index, _check_integer
)
from .special import MLSpec, _SeriesMemo, _convergence_ratio_estimate, _ml_series


@dataclass(frozen=True, eq=False)
class LinearIVP:
    """y' = lam * y + forcing(t) (Caputo sense, order in (0, 1]), y(a) = y0."""

    alpha: FracOrder
    lam: float
    a_index: int
    y0: float
    forcing: GridFn

    def __post_init__(self) -> None:
        if self.alpha.alpha > 1.0:
            raise DomainError("linear solver is restricted to orders in (0, 1]")
        _check_index(self.forcing.grid, a_index=self.a_index)
        _check_finite(lam=self.lam, y0=self.y0)
        if not np.isfinite(self.forcing.values).all():
            raise DomainError("forcing values must be finite")

    @property
    def grid(self) -> QGrid:
        return self.forcing.grid


@dataclass(frozen=True, eq=False)
class NonlinearIVP:
    """y' = rhs(t, y) (Caputo sense, order in (0, 1]) with a declared Lipschitz constant."""

    grid: QGrid
    alpha: FracOrder
    a_index: int
    y0: float
    rhs: Callable[[float, float], float]
    lipschitz: float

    def __post_init__(self) -> None:
        if self.alpha.alpha > 1.0:
            raise DomainError("marching solver is restricted to orders in (0, 1]")
        _check_index(self.grid, a_index=self.a_index)
        if self.lipschitz < 0:
            raise DomainError("Lipschitz constant must be nonnegative")
        _check_finite(y0=self.y0, lipschitz=self.lipschitz)


@dataclass(frozen=True, eq=False)
class SolveReport:
    solution: GridFn
    iterations: int
    residual: float
    method: str


def linear_defect(p: LinearIVP, y: GridFn, tol: Tolerance = DEFAULT_TOL,
                  kernel: OperatorKernel | None = None) -> np.ndarray:
    """Per-point absolute defect of y = y0 + lam I^alpha y + I^alpha forcing."""
    if kernel is None:
        kernel = build_kernel(p.grid, p.a_index, p.alpha, tol)
    return _linear_defect(p, y, kernel, fractional_integral(p.forcing, kernel).values)


def _linear_defect(p: LinearIVP, y: GridFn, kernel: OperatorKernel,
                   forced: np.ndarray) -> np.ndarray:
    """:func:`linear_defect`, given ``forced`` = I^alpha forcing."""
    d = y.values - (p.y0 + p.lam * fractional_integral(y, kernel).values + forced)
    d[: p.a_index] = 0.0
    return np.abs(d)


def nonlinear_defect(p: NonlinearIVP, y: GridFn, tol: Tolerance = DEFAULT_TOL,
                     kernel: OperatorKernel | None = None) -> np.ndarray:
    """Per-point absolute defect of y = y0 + I^alpha rhs(t, y)."""
    if kernel is None:
        kernel = build_kernel(p.grid, p.a_index, p.alpha, tol)
    fvals = np.array([p.rhs(t, v) for t, v in zip(p.grid.points, y.values.tolist())])
    integ = fractional_integral(GridFn(p.grid, fvals), kernel).values
    d = y.values - (p.y0 + integ)
    d[: p.a_index] = 0.0
    return np.abs(d)


def _check_convergence_domain(p: LinearIVP) -> None:
    t_max = p.grid.points[-1]
    a = p.grid.points[p.a_index]
    est = _convergence_ratio_estimate(p.alpha.alpha, p.grid.q, t_max, a, p.lam)
    if est >= 1.0:
        raise DivergenceError(
            f"Mittag-Leffler representation diverges at t={t_max!r}: estimate {est:.6g} >= 1",
            ratio=est,
        )


def solve_linear_closed(
    p: LinearIVP, tol: Tolerance = DEFAULT_TOL, *, via_modified_ml: bool = False
) -> SolveReport:
    """Closed form y(t) = y0 E_alpha(lam, t - a) plus the forcing convolution.

    The forcing integral pairs the kernel (t - qs)_q^(alpha-1) with the
    double-index Mittag-Leffler evaluated at the q**alpha-shifted point;
    with ``via_modified_ml`` the equivalent representation through the
    modified Mittag-Leffler function (kernel absorbed into the series) is
    used instead.  The two agree and are cross-checked in the test suite.

    The call evaluates one series per grid pair (i, j), and each term of a
    series is a q-product (t_i - s)_q^nu, which depends only on s/t_i (see
    :class:`qfrac.special._SeriesMemo`).  On the grid these ratios repeat
    across pairs, so all series of the call share one memo: each
    Gamma_q(alpha k + beta) is evaluated once per call, and each distinct
    product factor once while the memo's process-wide store holds it, so a
    repeated solve reads its factors from the store.  The memo is dropped
    when the call returns.  The result is the same float for float as with
    every product evaluated afresh.

    The residual's kernel weights carry the products (t_i - q t_j)_q^(alpha-1)
    that the forcing terms already evaluated, so a kernel not yet in
    :func:`qfrac.operators.build_kernel`'s cache is built from the memo's
    table for nu = alpha - 1 (both representations fill it) and cached
    under build_kernel's key; only the factors of zero-forcing columns are
    evaluated there.
    """
    _check_convergence_domain(p)
    grid, q, al = p.grid, p.grid.q, p.alpha.alpha
    a = grid.points[p.a_index]
    memo = _SeriesMemo(q, tol)
    y = np.empty(grid.count)
    y[: p.a_index] = p.y0
    forcing = p.forcing.values.tolist()
    hom_spec = MLSpec(al, 1.0, p.lam, a, tol)
    # one spec per forcing point, shared by every t_i at or above it
    forced = [
        (j, grid.points[j], forcing[j],
         MLSpec(al, al, p.lam, (q if via_modified_ml else q ** al) * grid.points[j], tol))
        for j in range(p.a_index + 1, grid.count)
        if forcing[j] != 0.0
    ]
    for i in range(p.a_index, grid.count):
        ti = grid.points[i]
        hom = _ml_series(hom_spec, ti, q, via_modified_ml, memo).value
        acc = 0.0
        if forced:
            parts = []
            for j, tj, fj, spec in forced:
                if j > i:
                    break
                ml = _ml_series(spec, ti, q, via_modified_ml, memo).value
                if via_modified_ml:
                    parts.append(tj * ml * fj)
                else:
                    kern = memo.power(ti, q * tj, al - 1.0)
                    parts.append(tj * kern * ml * fj)
            acc = (1.0 - q) * math.fsum(parts)
        y[i] = p.y0 * hom + acc
    sol = GridFn._owned(grid, y)
    kernel = _cached_kernel(grid, p.a_index, p.alpha, tol, memo.products(al - 1.0))
    residual = float(linear_defect(p, sol, tol, kernel).max())
    method = "closed-modified" if via_modified_ml else "closed"
    return SolveReport(sol, iterations=0, residual=residual, method=method)


def linear_picard_step(p: LinearIVP, kernel: OperatorKernel, y: GridFn) -> GridFn:
    """One successive-approximation update y -> y0 + lam I^alpha y + I^alpha forcing."""
    return _picard_step(p, kernel, y, fractional_integral(p.forcing, kernel).values)


def _picard_step(
    p: LinearIVP, kernel: OperatorKernel, y: GridFn, forced: np.ndarray
) -> GridFn:
    """:func:`linear_picard_step`, given ``forced`` = I^alpha forcing, which
    does not change from one iteration to the next."""
    out = p.y0 + p.lam * fractional_integral(y, kernel).values + forced
    out[: p.a_index] = p.y0
    return GridFn._owned(p.grid, out)


def solve_linear_iterative(
    p: LinearIVP, max_iter: int = 200, tol: Tolerance = DEFAULT_TOL
) -> SolveReport:
    """Successive approximation from the constant y0, iterating whole grid
    functions until the sup-norm update falls below tolerance.  The forcing
    is integrated once per solve, for every iteration and the residual."""
    _check_integer(at_least=1, max_iter=max_iter)
    _check_convergence_domain(p)
    kernel = build_kernel(p.grid, p.a_index, p.alpha, tol)
    forced = fractional_integral(p.forcing, kernel).values
    y = GridFn.constant(p.grid, p.y0)
    last_delta = math.inf
    for m in range(1, max_iter + 1):
        y_next = _picard_step(p, kernel, y, forced)
        last_delta = float(np.abs(y_next.values - y.values).max())
        y = y_next
        scale = float(np.abs(y.values).max())
        if last_delta <= tol.abs_tol + tol.rel_tol * scale:
            residual = float(_linear_defect(p, y, kernel, forced).max())
            return SolveReport(y, iterations=m, residual=residual, method="iterative")
    raise NonConvergenceError(
        f"successive approximation missed tolerance after {max_iter} iterations",
        last_delta=last_delta,
    )


def forward_substitution(
    kernel: OperatorKernel,
    base: float | np.ndarray,
    row: Callable[[int, float, float], tuple[float, float]],
) -> np.ndarray:
    """Solve y = base + W g row by row, in increasing t, where g_i depends on y_i.

    Rows at and below the lower limit are ``base`` and their history entries
    are zero.  Above it, ``row(i, known, W[i, i])`` returns y_i and its history
    entry g_i, where known = base + sum_{j<i} W[i, j] g_j is the explicit
    part.  The hook decides how the implicit diagonal term is solved (a
    division for linear equations, a scalar fixed point otherwise) and may
    raise to stop the march.

    ``known`` and ``W[i, i]`` reach the hook as Python floats, so a hook that
    stays on Python floats pays no numpy-scalar overhead; only the history
    dot product runs in numpy, on the row views the kernel built once
    (:attr:`OperatorKernel.rows`).

    A (K,) array ``base`` solves K right-hand sides on the same kernel at
    once: ``known`` and the hook's y_i and g_i are (K,) vectors, one entry
    per right-hand side, the history is (N, K) and so is the result.  The
    history sum of a row is a running sum (``cumsum``) in increasing j,
    which adds in that order for any K, so a column's floats do not depend
    on K or on the other columns (a matrix product's blocking would make
    them).  Those sums may round differently from the scalar rows' dot
    products.
    """
    a_index = kernel.a_index
    history, diag = kernel.rows
    if isinstance(base, np.ndarray) and base.ndim:
        n = kernel.grid.count
        y = np.empty((n, base.size))
        g = np.zeros((n, base.size))
        y[: a_index + 1] = base
        for i in range(a_index + 1, n):
            # from column a_index on, whose history entry is 0, so never empty
            terms = history[i][a_index:, None] * g[a_index:i]
            y[i], g[i] = row(i, base + terms.cumsum(axis=0)[-1], diag[i])
        return y
    base = float(base)
    y = [base] * (a_index + 1)
    g = np.zeros(kernel.grid.count)
    for i in range(a_index + 1, kernel.grid.count):
        known = base + float(history[i].dot(g[:i]))
        y_i, g[i] = row(i, known, diag[i])
        y.append(y_i)
    return np.array(y, dtype=float)


def solve_marching(
    p: NonlinearIVP, tol: Tolerance = DEFAULT_TOL, max_inner: int = 100
) -> SolveReport:
    """March the grid in increasing t, solving one scalar fixed-point equation
    per point; the implicit part carries only the diagonal kernel weight.

    At each point y = known + W[i, i] rhs(t_i, y) is iterated from the
    previous point's value with a damped update: the step factor halves
    (down to 2**-6) whenever |delta| fails to shrink.  ``rhs`` is called
    with Python floats (as long as it returns them), so an ``rhs`` written
    with Python arithmetic raises OverflowError or ZeroDivisionError where
    numpy scalars would have given inf; the error propagates.
    """
    _check_integer(at_least=1, max_inner=max_inner)
    kernel = build_kernel(p.grid, p.a_index, p.alpha, tol)
    _, diag = kernel.rows
    bad = [
        i
        for i in range(p.a_index + 1, p.grid.count)
        if p.lipschitz * diag[i] >= 1.0
    ]
    if bad:
        raise PreconditionError(
            "diagonal step not solvable: L * (1-q)**alpha * t**alpha >= 1 at "
            f"indices {bad}",
            indices=tuple(bad),
        )
    rhs = p.rhs
    points = p.grid.points
    abs_tol, rel_tol = tol.abs_tol, tol.rel_tol
    theta_floor = 2.0 ** -6
    y_prev = p.y0
    inner_total = 0

    def step(i: int, known: float, d: float) -> tuple[float, float]:
        nonlocal y_prev, inner_total
        ti = points[i]
        y = float(y_prev)
        theta = 1.0
        prev = math.inf
        for it in range(1, max_inner + 1):
            gy = known + d * rhs(ti, y)
            delta = gy - y
            size = abs(delta)
            scale = abs(gy)
            if size <= abs_tol + rel_tol * (scale if scale > 1.0 else 1.0):
                y_prev = gy
                inner_total += it
                return gy, rhs(ti, gy)
            if size >= prev:
                theta = max(0.5 * theta, theta_floor)
            y += theta * delta
            prev = size
        raise StepError(
            f"marching stalled at grid index {i} (t={ti!r})", index=i, last_delta=prev
        ) from NonConvergenceError(
            f"inner fixed-point iteration missed tolerance after {max_inner} steps",
            last_delta=prev,
        )

    sol = GridFn._owned(p.grid, forward_substitution(kernel, p.y0, step))
    residual = float(nonlinear_defect(p, sol, tol, kernel).max())
    return SolveReport(sol, iterations=inner_total, residual=residual, method="marching")
