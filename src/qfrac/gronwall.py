"""Executable checks for the comparison theorem, the Gronwall-type bound,
its order-1 corollary, and the continuous-dependence experiment.

The central object is the comparison series sum_k (Omega_mu^k 1): under the
admissibility ceiling 0 <= mu(t) < 1/(t**alpha (1-q)**alpha) the diagonal
step of the integral inequality stays solvable and any v with
v <= v(a) + I^alpha(mu v) is dominated by v(a) times that series.  The
series is the Neumann series of the lower-triangular system
(I - W diag mu) u = 1, so it is computed as that system's forward
substitution rather than summed.  All hypotheses are verified numerically,
never assumed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DivergenceError, DomainError, PreconditionError, QFracError
from .operators import OmegaOp, OperatorKernel, build_kernel, omega_apply
from .qcore import DEFAULT_TOL, FracOrder, GridFn, QGrid, Tolerance
from .solver import NonlinearIVP, forward_substitution, solve_marching
from .special import MLSpec, _ml_series, _series_memo, convergence_ratio_estimate

#: absolute slack used when checking integral-inequality hypotheses, so that
#: equality-case instances (zero slack) do not fail on rounding.
HYPOTHESIS_TOL = 1e-12

#: largest comparison-series value reported; beyond it the bound is useless
#: and a DivergenceError is raised instead.
DIVERGENCE_LIMIT = 1e100

#: largest distance, in units in the last place, allowed between a column of
#: a block solve and the same case solved alone by the public function.  The
#: two differ by the public rows' rounding of the diagonal factor (see
#: :func:`_diagonal_factors`): with mu up to 0.98 of the ceiling, at most 31
#: ulps were measured on 12-point windows and 76 on 64-point windows.
BLOCK_ULPS = 128

#: absolute slack of the continuous-dependence checks (the linear case is tight)
DEPENDENCE_SLACK = 1e-12

#: the n of the perturbed initial values gamma + 10**-n of that experiment
DEPENDENCE_EXPONENTS = (1, 2, 3, 4, 5, 6)


def _ulp_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Largest |a - b| in units in the last place of the larger magnitude;
    NaN when either side has a NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float((np.abs(a - b) / np.spacing(np.maximum(np.abs(a), np.abs(b)))).max())


def _worst_excess(excess: np.ndarray) -> float:
    """Largest positive entry, 0 when there is none; NaN propagates."""
    worst = float(excess.max())
    return 0.0 if worst <= 0.0 else worst


def sart_bound(grid: QGrid, alpha: FracOrder) -> np.ndarray:
    """Admissibility ceiling 1 / (t**alpha (1-q)**alpha) at every grid point,
    as a fresh array."""
    return 1.0 / (grid.t ** alpha.alpha * (1.0 - grid.q) ** alpha.alpha)


def check_sart(x: GridFn, alpha: FracOrder, strict: bool = False) -> np.ndarray:
    """Per-point flags for 0 <= x(t) <= ceiling (non-strict) or < ceiling (strict).

    The strict form is what keeps the diagonal factor
    1 - x(t) (1-q)**alpha t**alpha positive; the non-strict form is enough
    for the comparison argument.
    """
    bound = sart_bound(x.grid, alpha)
    if strict:
        return (x.values >= 0.0) & (x.values < bound)
    return (x.values >= 0.0) & (x.values <= bound)


@dataclass(frozen=True, eq=False)
class GronwallInput:
    """A candidate function v and nonnegative coefficient mu on a shared grid."""

    v: GridFn
    mu: GridFn
    alpha: FracOrder
    a_index: int

    def __post_init__(self) -> None:
        if self.v.grid != self.mu.grid:
            raise DomainError("v and mu must live on the same grid")
        if self.alpha.alpha > 1.0:
            raise DomainError("the bound is stated for orders in (0, 1]")
        if not 0 <= self.a_index < self.v.grid.count:
            raise DomainError(f"a_index {self.a_index} outside grid")
        finite = np.count_nonzero(np.isfinite(self.v.values))
        finite += np.count_nonzero(np.isfinite(self.mu.values))
        if finite != 2 * self.v.grid.count:
            raise DomainError("v and mu must be finite")
        if np.count_nonzero(self.mu.values < 0.0):
            raise DomainError("coefficient mu must be nonnegative")


@dataclass(frozen=True, eq=False)
class BoundResult:
    bound: GridFn
    terms_used: int  # grid rows solved above the lower limit
    satisfied: np.ndarray
    max_violation: float


def _first_case(flags: np.ndarray) -> int:
    """Column index of the first case of an (N, K) or (K,) flag array that has
    a True entry, -1 when none has."""
    hit = np.flatnonzero(flags.any(axis=0) if flags.ndim == 2 else flags)
    return int(hit[0]) if hit.size else -1


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split a = hi + lo, each half with at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _diagonal_factors(kernel: OperatorKernel, coeff: np.ndarray) -> np.ndarray:
    """The factors 1 - W[i,i] coeff[i, k] of an (N, K) block of coefficients.

    The scalar rows round twice, once in the product and once in the
    difference, and near the ceiling, where the factor is small, the first
    rounding dominates the error of the solve.  Here the product's rounding
    error is recovered exactly (Dekker's two-product) and taken off, so the
    factor is rounded once.  A case whose factor, computed as the scalar rows
    compute it, is not positive raises the scalar rows' PreconditionError,
    with the first such case named.
    """
    d = kernel.diagonal[:, None]
    p = d * coeff
    rounded = 1.0 - p
    k = _first_case(rounded[kernel.a_index + 1 :] <= 0.0)
    if k >= 0:
        bad = [int(i) for i in np.flatnonzero(rounded[:, k] <= 0.0)]
        raise PreconditionError(
            f"case {k}: diagonal factor 1 - W_ii coeff_i not positive at indices {bad}",
            indices=tuple(bad),
        )
    # splitting overflows past ~1e300; those entries keep the rounded factor
    with np.errstate(over="ignore", invalid="ignore"):
        (d_hi, d_lo), (c_hi, c_lo) = _split(d), _split(coeff)
        err = ((d_hi * c_hi - p) + d_hi * c_lo + d_lo * c_hi) + d_lo * c_lo
        return np.where(np.isfinite(err), rounded - err, rounded)


def _linear_rows(
    kernel: OperatorKernel,
    coeff: np.ndarray,
    y_a: float,
    slack: np.ndarray | None = None,
    clamp: bool = False,
) -> np.ndarray:
    """Solve y = y_a + W diag(coeff) y - slack above the lower limit, row by row.

    Each row divides by the diagonal factor 1 - W[i,i] coeff[i].  The strict
    admissibility ceiling keeps it positive in exact arithmetic, but with the
    computed diagonal it can round to 0 or below for a coefficient within
    ulps of the ceiling; then PreconditionError names every index whose
    factor is not positive.  Below the lower limit y is filled with y_a.
    With ``clamp`` each row's slack is capped at its known part,
    min(slack_i, known_i), so that y stays nonnegative where y_a and coeff
    are: the sub-solutions the verify suites construct.
    """
    c = coeff.tolist()
    s = [0.0] * len(c) if slack is None else slack.tolist()

    def row(i: int, known: float, d: float) -> tuple[float, float]:
        den = 1.0 - d * c[i]
        if den <= 0.0:
            _, diag = kernel.rows
            bad = [j for j in range(i, len(c)) if 1.0 - diag[j] * c[j] <= 0.0]
            raise PreconditionError(
                f"diagonal factor 1 - W_ii coeff_i not positive at indices {bad}",
                indices=tuple(bad),
            )
        y_i = (known - (min(s[i], known) if clamp else s[i])) / den
        return y_i, c[i] * y_i

    return forward_substitution(kernel, y_a, row)


def _block_rows(
    kernel: OperatorKernel,
    coeff: np.ndarray,
    y_a: np.ndarray,
    slack: np.ndarray | None = None,
    clamp: bool = False,
) -> np.ndarray:
    """:func:`_linear_rows` for K systems on one kernel, solved as one block.

    ``coeff`` and ``slack`` are (N, K) and ``y_a`` is (K,), one column per
    case; the result is (N, K).  The diagonal factors are those of
    :func:`_diagonal_factors`, so every case is checked before the first
    row; ``clamp`` caps each row's slack as it does there.
    """
    den = _diagonal_factors(kernel, coeff)

    def row(i: int, known: np.ndarray, d: float) -> tuple[np.ndarray, np.ndarray]:
        if slack is not None:
            known = known - (np.minimum(slack[i], known) if clamp else slack[i])
        y_i = known / den[i]
        return y_i, coeff[i] * y_i

    return forward_substitution(kernel, np.asarray(y_a, dtype=float), row)


def gronwall_bound(
    inp: GronwallInput, tol: Tolerance = DEFAULT_TOL, max_terms: int = 2048
) -> BoundResult:
    """v(a) times the comparison series, with per-point domination flags.

    Under the strict admissibility ceiling, I - W diag(mu) is lower
    triangular with a positive diagonal and W diag(mu) has spectral radius
    below 1, so the series sum_k (Omega_mu^k 1) converges on every window
    and equals the solution u of (I - W diag mu) u = 1.  The bound is
    v(a) * u from one forward substitution: exact up to rounding, where any
    truncated partial sum would lie below it.  ``tol`` sets the kernel's
    product truncation; ``terms_used`` counts the rows solved above the
    lower limit.  A computed diagonal factor 1 - W[i,i] mu[i] <= 0 raises
    PreconditionError; a series value above 1e100, or a non-finite bound,
    raises DivergenceError instead of returning a useless bound.
    ``max_terms`` is deprecated and ignored; it is still accepted so that
    callers passing it keep working.
    """
    flags = check_sart(inp.mu, inp.alpha, strict=True)
    if np.count_nonzero(flags) != flags.size:
        bad = tuple(int(i) for i in np.flatnonzero(~flags))
        raise PreconditionError(
            f"mu violates the strict admissibility ceiling at indices {list(bad)}",
            indices=bad,
        )
    grid = inp.v.grid
    kernel = build_kernel(grid, inp.a_index, inp.alpha, tol)
    v_a = float(inp.v.values[inp.a_index])
    u = _linear_rows(kernel, inp.mu.values, 1.0)
    u_max = float(u.max())
    if not u_max <= DIVERGENCE_LIMIT:
        i = int(np.argmin(u <= DIVERGENCE_LIMIT))
        raise DivergenceError(
            f"comparison series reaches {float(u[i]):.6g} at grid index {i}, "
            f"beyond {DIVERGENCE_LIMIT:g}"
        )
    # u >= 1, so v(a) * u overflows exactly where |v(a)| * max(u) does; test
    # that on floats first, so that numpy never warns about the overflow
    if abs(v_a) * u_max == math.inf:
        raise DivergenceError(f"bound v(a) * series overflows with v(a) = {v_a!r}")
    bound_vals = v_a * u
    satisfied = inp.v.values <= bound_vals
    satisfied[: inp.a_index] = True
    excess = inp.v.values[inp.a_index :] - bound_vals[inp.a_index :]
    return BoundResult(
        bound=GridFn._owned(grid, bound_vals),
        terms_used=grid.count - inp.a_index - 1,
        satisfied=satisfied,
        max_violation=_worst_excess(excess),
    )


def _gronwall_bound_block(
    grid: QGrid,
    v: np.ndarray,
    mu: np.ndarray,
    alpha: FracOrder,
    a_index: int,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`gronwall_bound` for K instances on one window, solved as one block.

    ``v`` and ``mu`` are (N, K), one column per case.  Every case passes the
    checks of :class:`GronwallInput` and :func:`gronwall_bound` and raises
    their error classes, with the first failing case named in the message.
    Returns the (N, K) bounds and the (K,) maximum violations.  With mu up
    to 0.98 of the ceiling a column agrees with the public function within
    :data:`BLOCK_ULPS`.
    """
    if alpha.alpha > 1.0:
        raise DomainError("the bound is stated for orders in (0, 1]")
    if not 0 <= a_index < grid.count:
        raise DomainError(f"a_index {a_index} outside grid")
    k = _first_case(~(np.isfinite(v) & np.isfinite(mu)))
    if k >= 0:
        raise DomainError(f"case {k}: v and mu must be finite")
    k = _first_case(mu < 0.0)
    if k >= 0:
        raise DomainError(f"case {k}: coefficient mu must be nonnegative")
    above = mu >= sart_bound(grid, alpha)[:, None]
    k = _first_case(above)
    if k >= 0:
        bad = tuple(int(i) for i in np.flatnonzero(above[:, k]))
        raise PreconditionError(
            f"case {k}: mu violates the strict admissibility ceiling at indices {list(bad)}",
            indices=bad,
        )
    kernel = build_kernel(grid, a_index, alpha)
    u = _block_rows(kernel, mu, np.ones(mu.shape[1]))
    u_max = u.max(axis=0)
    k = _first_case(~(u_max <= DIVERGENCE_LIMIT))
    if k >= 0:
        i = int(np.argmin(u[:, k] <= DIVERGENCE_LIMIT))
        raise DivergenceError(
            f"case {k}: comparison series reaches {float(u[i, k]):.6g} at grid index {i}, "
            f"beyond {DIVERGENCE_LIMIT:g}"
        )
    v_a = v[a_index]
    with np.errstate(over="ignore"):
        k = _first_case(np.abs(v_a) * u_max == math.inf)
    if k >= 0:
        raise DivergenceError(
            f"case {k}: bound v(a) * series overflows with v(a) = {float(v_a[k])!r}"
        )
    bound = v_a * u
    worst = (v[a_index:] - bound[a_index:]).max(axis=0)
    return bound, np.where(worst <= 0.0, 0.0, worst)


@dataclass(frozen=True, eq=False)
class ComparisonInput:
    """Candidate pair (w, v) with coefficient x for the comparison check."""

    w: GridFn
    v: GridFn
    x: GridFn
    alpha: FracOrder
    a_index: int

    def __post_init__(self) -> None:
        if not (self.w.grid == self.v.grid == self.x.grid):
            raise DomainError("w, v and x must live on the same grid")
        if self.alpha.alpha > 1.0:
            raise DomainError("the comparison check is stated for orders in (0, 1]")
        if not 0 <= self.a_index < self.w.grid.count:
            raise DomainError(f"a_index {self.a_index} outside grid")
        if not np.isfinite(np.concatenate((self.w.values, self.v.values, self.x.values))).all():
            raise DomainError("w, v and x must be finite")


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Outcome of :func:`verify_comparison`; in a block check each field is a
    (K,) array over the cases instead."""

    holds_super: bool      # w >= w(a) + I^alpha(x w)
    holds_sub: bool        # v <= v(a) + I^alpha(x v)
    holds_admissible: bool  # 0 <= x <= ceiling (non-strict)
    holds_initial: bool    # w(a) >= v(a)
    conclusion_checked: bool
    conclusion_holds: bool
    max_violation: float

    @property
    def all_hypotheses(self) -> bool:
        return self.holds_super & self.holds_sub & self.holds_admissible & self.holds_initial


def verify_comparison(
    inp: ComparisonInput, tol: float = 1e-12, *, work_tol: Tolerance = DEFAULT_TOL
) -> ComparisonReport:
    """Check the four comparison hypotheses; when all hold, assert w >= v - tol.

    Hypothesis inequalities absorb rounding with a fixed 1e-12 slack so that
    equality-case constructions do not report spurious failures; the
    conclusion uses the caller's tol.  The report carries every outcome, and
    the conclusion is never asserted when a hypothesis fails.
    """
    grid = inp.w.grid
    kernel = build_kernel(grid, inp.a_index, inp.alpha, work_tol)
    op = OmegaOp(kernel=kernel, x=inp.x)
    sl = slice(inp.a_index, grid.count)
    w_a = float(inp.w.values[inp.a_index])
    v_a = float(inp.v.values[inp.a_index])
    omega_w = omega_apply(op, inp.w).values
    omega_v = omega_apply(op, inp.v).values
    holds_super = bool((inp.w.values[sl] >= w_a + omega_w[sl] - HYPOTHESIS_TOL).all())
    holds_sub = bool((inp.v.values[sl] <= v_a + omega_v[sl] + HYPOTHESIS_TOL).all())
    holds_admissible = bool(check_sart(inp.x, inp.alpha, strict=False).all())
    holds_initial = bool(w_a >= v_a)
    checked = holds_super and holds_sub and holds_admissible and holds_initial
    if checked:
        max_violation = _worst_excess(inp.v.values[sl] - inp.w.values[sl])
        conclusion_holds = bool(max_violation <= tol)
    else:
        max_violation = math.nan
        conclusion_holds = False
    return ComparisonReport(
        holds_super=holds_super,
        holds_sub=holds_sub,
        holds_admissible=holds_admissible,
        holds_initial=holds_initial,
        conclusion_checked=checked,
        conclusion_holds=conclusion_holds,
        max_violation=max_violation,
    )


def _verify_comparison_block(
    grid: QGrid,
    w: np.ndarray,
    v: np.ndarray,
    x: np.ndarray,
    alpha: FracOrder,
    a_index: int,
) -> ComparisonReport:
    """:func:`verify_comparison` for K pairs on one window, checked as one block.

    ``w``, ``v`` and ``x`` are (N, K), one column per case.  Every case passes
    the checks of :class:`ComparisonInput` and raises their error classes,
    with the first failing case named in the message.  Each field of the
    returned report is a (K,) array with the per-case outcome of the same
    name.  Each case's fractional integrals are the matrix-vector products
    of :func:`omega_apply`, so every outcome is the public function's, bit
    for bit; the conclusion is checked at its default ``tol``, 1e-12.
    """
    if alpha.alpha > 1.0:
        raise DomainError("the comparison check is stated for orders in (0, 1]")
    if not 0 <= a_index < grid.count:
        raise DomainError(f"a_index {a_index} outside grid")
    k = _first_case(~(np.isfinite(w) & np.isfinite(v) & np.isfinite(x)))
    if k >= 0:
        raise DomainError(f"case {k}: w, v and x must be finite")
    weights = build_kernel(grid, a_index, alpha).weights
    omega = []
    for phi in (w, v):
        vals = x * phi
        k = _first_case(np.isinf(vals))
        if k >= 0:
            raise DomainError(f"case {k}: grid function values must be finite")
        vals[: a_index + 1] = 0.0
        # one product per case: a matrix product's sums would round differently
        omega.append(np.stack([weights @ col for col in np.ascontiguousarray(vals.T)], axis=1))
    sl = slice(a_index, grid.count)
    w_a, v_a = w[a_index], v[a_index]
    holds_super = (w[sl] >= w_a + omega[0][sl] - HYPOTHESIS_TOL).all(axis=0)
    holds_sub = (v[sl] <= v_a + omega[1][sl] + HYPOTHESIS_TOL).all(axis=0)
    holds_admissible = ((x >= 0.0) & (x <= sart_bound(grid, alpha)[:, None])).all(axis=0)
    holds_initial = w_a >= v_a
    checked = holds_super & holds_sub & holds_admissible & holds_initial
    worst = (v[sl] - w[sl]).max(axis=0)
    max_violation = np.where(checked, np.where(worst <= 0.0, 0.0, worst), math.nan)
    return ComparisonReport(
        holds_super=holds_super,
        holds_sub=holds_sub,
        holds_admissible=holds_admissible,
        holds_initial=holds_initial,
        conclusion_checked=checked,
        conclusion_holds=checked & (max_violation <= 1e-12),
        max_violation=max_violation,
    )


def march_integral_equation(
    kernel: OperatorKernel, coeff: GridFn, y_a: float, slack: GridFn | None = None
) -> GridFn:
    """Solve y(t) = y_a + I^alpha(coeff * y)(t) - slack(t) above the lower limit.

    Forward substitution on the triangular kernel; each step divides by the
    diagonal factor 1 - W[i,i] coeff[i], and a factor that is not positive
    raises PreconditionError.  Below the lower limit y is filled with y_a.
    Nonnegative slack produces sub-solutions, nonpositive slack
    super-solutions, zero slack the equality solution.  Non-finite data
    raises DomainError.
    """
    for name, fn in (("coefficient", coeff), ("slack", slack)):
        if fn is not None and fn.grid != kernel.grid:
            raise DomainError(f"{name} and kernel live on different grids")
    slack_values = None if slack is None else slack.values
    finite = math.isfinite(y_a) and np.isfinite(coeff.values).all()
    if not (finite and (slack_values is None or np.isfinite(slack_values).all())):
        raise DomainError("coefficient, slack and y_a must be finite")
    return GridFn._owned(kernel.grid, _linear_rows(kernel, coeff.values, y_a, slack_values))


def _delta_range_error(grid: QGrid, delta: np.ndarray, case: str = "") -> None:
    """Raise PreconditionError unless 0 <= delta < 1/(1-q) everywhere."""
    bad = [i for i, d in enumerate(delta.tolist()) if not 0.0 <= d < 1.0 / (1.0 - grid.q)]
    if bad:
        raise PreconditionError(
            f"{case}delta must satisfy 0 <= delta < 1/(1-q); offending indices {bad}",
            indices=tuple(bad),
        )


def q_gronwall_classical(
    v: GridFn,
    delta: GridFn,
    a_index: int,
    tol: Tolerance = DEFAULT_TOL,
) -> BoundResult:
    """Order-1 specialization: bound v(a) * sum_k (Omega_delta^k 1) under
    0 <= delta(t) < 1/(1-q).

    For constant delta the series bound is cross-checked against the
    order-1 Mittag-Leffler closed form; a disagreement raises.
    """
    grid = v.grid
    _delta_range_error(grid, delta.values)
    inp = GronwallInput(v=v, mu=delta, alpha=FracOrder(1.0), a_index=a_index)
    result = gronwall_bound(inp, tol)
    lam = float(delta.values[0])
    if (delta.values == lam).all():
        v_a = float(v.values[a_index])
        ml = _ml_per_point(grid, a_index, 1.0, lam, tol)
        for i in range(a_index, grid.count):
            closed = v_a * ml[i]
            got = float(result.bound.values[i])
            if abs(got - closed) > 100.0 * (tol.abs_tol + tol.rel_tol * abs(closed)):
                raise QFracError(
                    f"series/closed-form mismatch at t={grid.points[i]!r}: "
                    f"{got!r} vs {closed!r}"
                )
    return result


def _q_gronwall_classical_block(
    grid: QGrid, v: np.ndarray, delta: np.ndarray, a_index: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`q_gronwall_classical` for K instances on one window, solved as
    one block by :func:`_gronwall_bound_block`; ``v`` and ``delta`` are
    (N, K), and an error names the first failing case.  It runs no
    closed-form cross-check for constant delta: the verify suite's constant
    cases go through the public function."""
    k = _first_case(~((delta >= 0.0) & (delta < 1.0 / (1.0 - grid.q))))
    if k >= 0:
        _delta_range_error(grid, delta[:, k], f"case {k}: ")
    return _gronwall_bound_block(grid, v, delta, FracOrder(1.0), a_index)


@dataclass(frozen=True, eq=False)
class DependenceReport:
    """Outcome of the continuous-dependence experiment."""

    phi: GridFn
    psi: GridFn
    abs_diff: np.ndarray
    bound: np.ndarray
    bound_holds: bool
    max_excess: float
    sequence_gammas: tuple[float, ...]
    sequence_sup_diffs: tuple[float, ...]
    sequence_bounds: tuple[float, ...]
    sequence_monotone: bool
    sequence_within_bound: bool


def _ml_per_point(
    grid: QGrid, a_index: int, alpha: float, lam: float, tol: Tolerance
) -> list[float]:
    """E_alpha(lam, t - a) at each grid point from the lower limit a on, 1
    below it; one memo serves the N series of this call, or of the
    enclosing ``run_suite`` call, which sums a repeated series once."""
    spec = MLSpec(alpha, 1.0, lam, grid.points[a_index], tol)
    memo = _series_memo(grid.q, tol)
    ml = [_ml_series(spec, t, grid.q, memo=memo).value for t in grid.points[a_index:]]
    return [1.0] * a_index + ml


def _ml_bound_factor(
    grid: QGrid, a_index: int, alpha: FracOrder, lam: float, tol: Tolerance
) -> np.ndarray:
    """E_alpha(lam, t - a) per grid point, cross-checked against the
    comparison series sum_k (Omega_lam^k 1), which it must equal.  The
    series values come from :func:`_ml_per_point`, so inside a ``run_suite``
    call a repeated factor is summed once; the cross-check runs on every
    call."""
    out = np.array(_ml_per_point(grid, a_index, alpha.alpha, lam, tol))
    kernel = build_kernel(grid, a_index, alpha, tol)
    series = _linear_rows(kernel, np.full(grid.count, lam), 1.0)
    mismatch = np.abs(series[a_index:] - out[a_index:]).max()
    if mismatch > 1000.0 * (tol.abs_tol + tol.rel_tol * float(np.abs(out).max())):
        raise QFracError(
            f"operator series and Mittag-Leffler bound factor disagree by {mismatch!r}"
        )
    return out


def dependence_experiment(
    grid: QGrid,
    a_index: int,
    alpha: FracOrder,
    gamma: float,
    beta: float,
    rhs: Callable[[float, float], float],
    lipschitz: float,
    tol: Tolerance = DEFAULT_TOL,
) -> DependenceReport:
    """Solve the same problem from initial values gamma and beta and verify
    |phi - psi| <= |gamma - beta| * E_alpha(L, t - a) at every grid point.

    Also runs the perturbed-initial-value sequence gamma_n = gamma + 10**-n
    for n in :data:`DEPENDENCE_EXPONENTS` and reports whether sup|phi - phi_n|
    decreases monotonically and stays below |gamma - gamma_n| times the bound
    factor at the last grid point.
    """
    if not 0.0 <= lipschitz < 1.0:
        raise DomainError("Lipschitz constant must satisfy 0 <= L < 1")
    # the lower limit does not enter the estimate; NonlinearIVP checks a_index
    ratio = convergence_ratio_estimate(
        alpha.alpha, grid.q, grid.points[-1], grid.points[0], lipschitz
    )
    if ratio >= 1.0:
        raise DivergenceError(
            f"bound factor diverges on this grid: estimate {ratio:.6g} >= 1", ratio=ratio
        )

    def solve(y0: float) -> GridFn:
        ivp = NonlinearIVP(
            grid=grid, alpha=alpha, a_index=a_index, y0=y0, rhs=rhs, lipschitz=lipschitz
        )
        return solve_marching(ivp, tol).solution

    phi = solve(gamma)
    psi = solve(beta)
    factor = _ml_bound_factor(grid, a_index, alpha, lipschitz, tol)
    abs_diff = np.abs(phi.values - psi.values)
    bound = abs(gamma - beta) * factor
    sl = slice(a_index, grid.count)
    excess = abs_diff[sl] - bound[sl]
    max_excess = _worst_excess(excess)
    bound_holds = bool(max_excess <= DEPENDENCE_SLACK)
    gammas: list[float] = []
    sups: list[float] = []
    bounds: list[float] = []
    factor_last = float(factor[-1])
    for n in DEPENDENCE_EXPONENTS:
        g_n = gamma + 10.0 ** (-n)
        phi_n = solve(g_n)
        gammas.append(g_n)
        sups.append(float(np.abs(phi.values[sl] - phi_n.values[sl]).max()))
        bounds.append(abs(gamma - g_n) * factor_last)
    monotone = all(sups[i + 1] <= sups[i] for i in range(len(sups) - 1))
    within = all(s <= b + DEPENDENCE_SLACK for s, b in zip(sups, bounds))
    return DependenceReport(
        phi=phi,
        psi=psi,
        abs_diff=abs_diff,
        bound=bound,
        bound_holds=bound_holds,
        max_excess=max_excess,
        sequence_gammas=tuple(gammas),
        sequence_sup_diffs=tuple(sups),
        sequence_bounds=tuple(bounds),
        sequence_monotone=monotone,
        sequence_within_bound=within,
    )
