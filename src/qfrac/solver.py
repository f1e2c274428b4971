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
from .operators import OperatorKernel, build_kernel, fractional_integral
from .qcore import DEFAULT_TOL, FracOrder, GridFn, QGrid, Tolerance, q_factorial_power
from .special import MLSpec, convergence_ratio_estimate, mittag_leffler, mittag_leffler_modified


def _check_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value!r}")


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
        if not 0 <= self.a_index < self.forcing.grid.count:
            raise DomainError(f"a_index {self.a_index} outside grid")
        _check_finite(lam=self.lam, y0=self.y0)

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
        if not 0 <= self.a_index < self.grid.count:
            raise DomainError(f"a_index {self.a_index} outside grid")
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
    iy = fractional_integral(y, kernel).values
    iff = fractional_integral(p.forcing, kernel).values
    d = y.values - (p.y0 + p.lam * iy + iff)
    d[: p.a_index] = 0.0
    return np.abs(d)


def nonlinear_defect(p: NonlinearIVP, y: GridFn, tol: Tolerance = DEFAULT_TOL,
                     kernel: OperatorKernel | None = None) -> np.ndarray:
    """Per-point absolute defect of y = y0 + I^alpha rhs(t, y)."""
    if kernel is None:
        kernel = build_kernel(p.grid, p.a_index, p.alpha, tol)
    fvals = np.array([p.rhs(t, v) for t, v in zip(p.grid.points, y.values)])
    integ = fractional_integral(GridFn(p.grid, fvals), kernel).values
    d = y.values - (p.y0 + integ)
    d[: p.a_index] = 0.0
    return np.abs(d)


def _check_convergence_domain(p: LinearIVP) -> None:
    t_max = p.grid.points[-1]
    a = p.grid.points[p.a_index]
    est = convergence_ratio_estimate(p.alpha.alpha, p.grid.q, t_max, a, p.lam)
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
    """
    _check_convergence_domain(p)
    grid, q, al = p.grid, p.grid.q, p.alpha.alpha
    a = grid.points[p.a_index]
    y = np.empty(grid.count)
    y[: p.a_index] = p.y0
    forcing = p.forcing.values
    any_forcing = bool(np.any(forcing[p.a_index + 1 :] != 0.0))
    for i in range(p.a_index, grid.count):
        ti = grid.points[i]
        if via_modified_ml:
            hom = mittag_leffler_modified(MLSpec(al, 1.0, p.lam, a, tol), ti, q).value
        else:
            hom = mittag_leffler(MLSpec(al, 1.0, p.lam, a, tol), ti, q).value
        acc = 0.0
        if any_forcing:
            parts = []
            for j in range(p.a_index + 1, i + 1):
                tj = grid.points[j]
                if forcing[j] == 0.0:
                    continue
                if via_modified_ml:
                    ml = mittag_leffler_modified(MLSpec(al, al, p.lam, q * tj, tol), ti, q).value
                    parts.append(tj * ml * forcing[j])
                else:
                    ml = mittag_leffler(MLSpec(al, al, p.lam, q ** al * tj, tol), ti, q).value
                    kern = q_factorial_power(ti, q * tj, al - 1.0, q, tol)
                    parts.append(tj * kern * ml * forcing[j])
            acc = (1.0 - q) * math.fsum(parts)
        y[i] = p.y0 * hom + acc
    sol = GridFn(grid, y)
    residual = float(np.max(linear_defect(p, sol, tol)))
    method = "closed-modified" if via_modified_ml else "closed"
    return SolveReport(sol, iterations=0, residual=residual, method=method)


def linear_picard_step(p: LinearIVP, kernel: OperatorKernel, y: GridFn) -> GridFn:
    """One successive-approximation update y -> y0 + lam I^alpha y + I^alpha forcing."""
    out = p.y0 + p.lam * fractional_integral(y, kernel).values \
        + fractional_integral(p.forcing, kernel).values
    out[: p.a_index] = p.y0
    return GridFn(p.grid, out)


def solve_linear_iterative(
    p: LinearIVP, max_iter: int = 200, tol: Tolerance = DEFAULT_TOL
) -> SolveReport:
    """Successive approximation from the constant y0, iterating whole grid
    functions until the sup-norm update falls below tolerance."""
    _check_convergence_domain(p)
    kernel = build_kernel(p.grid, p.a_index, p.alpha, tol)
    y = GridFn.constant(p.grid, p.y0)
    last_delta = math.inf
    for m in range(1, max_iter + 1):
        y_next = linear_picard_step(p, kernel, y)
        last_delta = float(np.max(np.abs(y_next.values - y.values)))
        y = y_next
        scale = float(np.max(np.abs(y.values)))
        if last_delta <= tol.abs_tol + tol.rel_tol * scale:
            residual = float(np.max(linear_defect(p, y, tol, kernel)))
            return SolveReport(y, iterations=m, residual=residual, method="iterative")
    raise NonConvergenceError(
        f"successive approximation missed tolerance after {max_iter} iterations",
        last_delta=last_delta,
    )


def _scalar_fixed_point(
    g: Callable[[float], float], y_start: float, tol: Tolerance, max_inner: int
) -> tuple[float, int]:
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


def forward_substitution(
    kernel: OperatorKernel,
    base: float,
    row: Callable[[int, float, float], tuple[float, float]],
) -> np.ndarray:
    """Solve y = base + W g row by row, in increasing t, where g_i depends on y_i.

    Rows at and below the lower limit are ``base`` and their history entries
    are zero.  Above it, ``row(i, known, W[i, i])`` returns y_i and its history
    entry g_i, where known = base + sum_{j<i} W[i, j] g_j is the explicit
    part.  The hook decides how the implicit diagonal term is solved (a
    division for linear equations, a scalar fixed point otherwise) and may
    raise to stop the march.
    """
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


def solve_marching(
    p: NonlinearIVP, tol: Tolerance = DEFAULT_TOL, max_inner: int = 100
) -> SolveReport:
    """March the grid in increasing t, solving one scalar fixed-point equation
    per point; the implicit part carries only the diagonal kernel weight."""
    kernel = build_kernel(p.grid, p.a_index, p.alpha, tol)
    diag = kernel.diagonal
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
    y_prev = p.y0
    inner_total = 0

    def step(i: int, known: float, d: float) -> tuple[float, float]:
        nonlocal y_prev, inner_total
        ti = p.grid.points[i]
        try:
            yi, used = _scalar_fixed_point(
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

    sol = GridFn(p.grid, forward_substitution(kernel, p.y0, step))
    residual = float(np.max(nonlinear_defect(p, sol, tol, kernel)))
    return SolveReport(sol, iterations=inner_total, residual=residual, method="marching")
