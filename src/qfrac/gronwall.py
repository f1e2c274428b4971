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

Each check has one implementation for one case and for a block of cases:
its input checks (``_check_*``, which the input dataclasses run) and its
routine (``_bound_cases``, ``_comparison_cases``) take (N,) arrays for one
case or (N, K) arrays for K cases, one column each, as the verify suites
pass them.  The shape picks the rows, scalar for (N,) and block for
(N, K), and a block's errors name the first failing case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DivergenceError, DomainError, PreconditionError, QFracError
from .operators import OperatorKernel, _integrate, build_kernel
from .qcore import DEFAULT_TOL, FracOrder, GridFn, QGrid, Tolerance, _check_finite, _check_index
from .solver import NonlinearIVP, forward_substitution, solve_marching
from .special import MLSpec, _SeriesMemo, _convergence_ratio_estimate, _ml_series

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


def _worst_excess(excess: np.ndarray) -> np.ndarray:
    """Largest positive entry of an (N,) array, or of each column of an
    (N, K) array, 0 when there is none; NaN propagates."""
    # maximum(0, x) is where(0 >= x, 0, x), so a worst of -0.0 gives 0.0;
    # the ufunc reduce is excess.max(axis=0) without the method's overhead
    return np.maximum(0.0, np.maximum.reduce(excess))


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
        _check_bound_input(self.v.grid, self.v.values, self.mu.values, self.alpha, self.a_index)


@dataclass(frozen=True, eq=False)
class BoundResult:
    bound: GridFn
    terms_used: int  # grid rows solved above the lower limit
    satisfied: np.ndarray
    max_violation: float


def _require(
    ok: np.ndarray,
    block: bool,
    error: type[QFracError],
    message: str | Callable[[object, list[int]], str],
) -> None:
    """Raise ``error`` unless every entry of ``ok`` is True.

    ``ok`` holds one case's flags, per point (N,) or for the whole case (a
    scalar), or for a block the same with a trailing axis of K cases; the
    clean path is one C-level test.  On failure the index ``at`` picks
    the first failing case, ``...`` for one case and ``(..., k)`` for case k
    of a block, whose message then starts with "case k: ".  ``message`` is
    the text, or a function of ``at`` and the list ``bad`` of the case's
    failing points; a PreconditionError carries ``bad`` as its indices.
    """
    clean = bool(ok) if ok.ndim == 0 else np.count_nonzero(ok) == ok.size
    if clean:
        return
    prefix, at = "", ...
    if block:
        k = int(np.flatnonzero(np.logical_or.reduce(~ok) if ok.ndim == 2 else ~ok)[0])
        prefix, at = f"case {k}: ", (..., k)
    bad = np.flatnonzero(~ok[at]).tolist()
    text = prefix + (message if isinstance(message, str) else message(at, bad))
    raise error(text, indices=tuple(bad)) if error is PreconditionError else error(text)


def _check_bound_input(
    grid: QGrid, v: np.ndarray, mu: np.ndarray, alpha: FracOrder, a_index: int
) -> None:
    """The checks of :class:`GronwallInput` on the (N,) arrays of one case or
    the (N, K) arrays of K cases, one column each."""
    if alpha.alpha > 1.0:
        raise DomainError("the bound is stated for orders in (0, 1]")
    _check_index(grid, a_index=a_index)
    block = mu.ndim == 2
    _require(np.isfinite(v) & np.isfinite(mu), block, DomainError, "v and mu must be finite")
    _require(mu >= 0.0, block, DomainError, "coefficient mu must be nonnegative")


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
    _require(
        ~(rounded <= 0.0), True, PreconditionError,
        lambda at, bad: f"diagonal factor 1 - W_ii coeff_i not positive at indices {bad}",
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


def _bound_cases(
    grid: QGrid,
    v: np.ndarray,
    mu: np.ndarray,
    alpha: FracOrder,
    a_index: int,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[np.ndarray, np.ndarray]:
    """v(a) times the comparison series, and the worst excess of v over it
    from the lower limit on, for inputs that passed :func:`_check_bound_input`.

    ``v`` and ``mu`` are (N,) for one case, solved by the scalar rows, or
    (N, K) for K cases, one column each, solved as one block by the block
    rows whatever K is; the excess is then (K,) and each error names the
    first failing case.  The checks and errors are those of
    :func:`gronwall_bound`.  With mu up to 0.98 of the ceiling a block column
    agrees with the one-case result within :data:`BLOCK_ULPS`.
    """
    block = mu.ndim == 2
    ceiling = sart_bound(grid, alpha)
    _require(
        mu < (ceiling[:, None] if block else ceiling), block, PreconditionError,
        lambda at, bad: f"mu violates the strict admissibility ceiling at indices {bad}",
    )
    kernel = build_kernel(grid, a_index, alpha, tol)
    u = _block_rows(kernel, mu, np.ones(mu.shape[1])) if block else _linear_rows(kernel, mu, 1.0)
    u_max = np.maximum.reduce(u)

    def diverges(at, bad) -> str:
        i = int(np.argmin(u[at] <= DIVERGENCE_LIMIT))
        return (f"comparison series reaches {float(u[at][i]):.6g} at grid index {i}, "
                f"beyond {DIVERGENCE_LIMIT:g}")

    _require(u_max <= DIVERGENCE_LIMIT, block, DivergenceError, diverges)
    # u >= 1, so v(a) * u overflows exactly where |v(a)| * max(u) does; test
    # that first, on floats for one case, so that numpy never warns about it
    v_a = v[a_index]
    if block:
        with np.errstate(over="ignore"):
            fits = np.abs(v_a) * u_max < math.inf
    else:
        fits = np.bool_(abs(float(v_a)) * float(u_max) < math.inf)
    _require(
        fits, block, DivergenceError,
        lambda at, bad: f"bound v(a) * series overflows with v(a) = {float(v_a[at])!r}",
    )
    bound = v_a * u
    return bound, _worst_excess(v[a_index:] - bound[a_index:])


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
    lower limit.  A mu on or above the strict ceiling, or a computed
    diagonal factor 1 - W[i,i] mu[i] <= 0, raises PreconditionError; a
    series value above 1e100, or a non-finite bound, raises DivergenceError
    instead of returning a useless bound.  ``max_terms`` is deprecated and
    ignored; it is still accepted so that callers passing it keep working.
    """
    grid = inp.v.grid
    bound, worst = _bound_cases(grid, inp.v.values, inp.mu.values, inp.alpha, inp.a_index, tol)
    satisfied = inp.v.values <= bound
    satisfied[: inp.a_index] = True
    return BoundResult(
        bound=GridFn._owned(grid, bound),
        terms_used=grid.count - int(inp.a_index) - 1,
        satisfied=satisfied,
        max_violation=float(worst),
    )


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
        _check_comparison_input(
            self.w.grid, self.w.values, self.v.values, self.x.values, self.alpha, self.a_index
        )


def _check_comparison_input(
    grid: QGrid, w: np.ndarray, v: np.ndarray, x: np.ndarray, alpha: FracOrder, a_index: int
) -> None:
    """The checks of :class:`ComparisonInput` on the (N,) arrays of one case
    or the (N, K) arrays of K cases, one column each."""
    if alpha.alpha > 1.0:
        raise DomainError("the comparison check is stated for orders in (0, 1]")
    _check_index(grid, a_index=a_index)
    finite = np.isfinite(w) & np.isfinite(v) & np.isfinite(x)
    _require(finite, w.ndim == 2, DomainError, "w, v and x must be finite")


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


def _comparison_cases(
    grid: QGrid,
    w: np.ndarray,
    v: np.ndarray,
    x: np.ndarray,
    alpha: FracOrder,
    a_index: int,
    tol: float = 1e-12,
    work_tol: Tolerance = DEFAULT_TOL,
) -> ComparisonReport:
    """The outcomes of :func:`verify_comparison` for inputs that passed
    :func:`_check_comparison_input`.

    ``w``, ``v`` and ``x`` are (N,) for one case, or (N, K) for K cases, one
    column each; then each field of the report is a (K,) array of the cases'
    outcomes, and an error names the first failing case.  Each case's
    fractional integrals are one matrix-vector product, so a case's outcomes
    do not depend on the block it is in.
    """
    block = w.ndim == 2
    weights = build_kernel(grid, a_index, alpha, work_tol).weights
    omega = []
    with np.errstate(over="ignore"):  # an overflow is the DomainError below
        products = (x * w, x * v)
    for vals in products:
        _require(np.isfinite(vals), block, DomainError, "grid function values must be finite")
        omega.append(_integrate(weights, vals, a_index))
    sl = slice(a_index, grid.count)
    w_a, v_a = w[a_index], v[a_index]
    ceiling = sart_bound(grid, alpha)
    every = np.logical_and.reduce  # all(axis=0), one C call
    holds_super = every(w[sl] >= w_a + omega[0][sl] - HYPOTHESIS_TOL)
    holds_sub = every(v[sl] <= v_a + omega[1][sl] + HYPOTHESIS_TOL)
    holds_admissible = every((x >= 0.0) & (x <= (ceiling[:, None] if block else ceiling)))
    holds_initial = w_a >= v_a
    checked = holds_super & holds_sub & holds_admissible & holds_initial
    max_violation = np.where(checked, _worst_excess(v[sl] - w[sl]), math.nan)
    outcomes = (holds_super, holds_sub, holds_admissible, holds_initial,
                checked, checked & (max_violation <= tol), max_violation)
    return ComparisonReport(*(outcomes if block else (o.item() for o in outcomes)))


def verify_comparison(
    inp: ComparisonInput, tol: float = 1e-12, *, work_tol: Tolerance = DEFAULT_TOL
) -> ComparisonReport:
    """Check the four comparison hypotheses; when all hold, assert w >= v - tol.

    Hypothesis inequalities absorb rounding with a fixed 1e-12 slack so that
    equality-case constructions do not report spurious failures; the
    conclusion uses the caller's tol.  The report carries every outcome, and
    the conclusion is never asserted when a hypothesis fails.  A product
    x * w or x * v that overflows raises DomainError.
    """
    _check_finite(tol=tol)
    return _comparison_cases(inp.w.grid, inp.w.values, inp.v.values, inp.x.values,
                             inp.alpha, inp.a_index, tol, work_tol)


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


def _check_delta(grid: QGrid, delta: np.ndarray) -> None:
    """Raise PreconditionError unless 0 <= delta < 1/(1-q) everywhere, for
    the (N,) array of one case or the (N, K) array of K cases."""
    _require(
        (delta >= 0.0) & (delta < 1.0 / (1.0 - grid.q)), delta.ndim == 2, PreconditionError,
        lambda at, bad: f"delta must satisfy 0 <= delta < 1/(1-q); offending indices {bad}",
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
    return _q_gronwall_classical(v, delta, a_index, tol)[0]


def _q_gronwall_classical(
    v: GridFn, delta: GridFn, a_index: int, tol: Tolerance
) -> tuple[BoundResult, list[float] | None]:
    """:func:`q_gronwall_classical`'s result, with the values E_1(lam, t - a)
    per grid point (:func:`_ml_per_point`) it checked a constant
    delta = lam against, or None for a delta that is not constant."""
    grid = v.grid
    _check_delta(grid, delta.values)
    inp = GronwallInput(v=v, mu=delta, alpha=FracOrder(1.0), a_index=a_index)
    result = gronwall_bound(inp, tol)
    lam = float(delta.values[0])
    if not (delta.values == lam).all():
        return result, None
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
    return result, ml


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
    below it; one memo serves the N series of this call."""
    spec = MLSpec(alpha, 1.0, lam, grid.points[a_index], tol)
    memo = _SeriesMemo(grid.q, tol)
    ml = [_ml_series(spec, t, grid.q, memo=memo).value for t in grid.points[a_index:]]
    return [1.0] * a_index + ml


def _ml_bound_factor(
    grid: QGrid, a_index: int, alpha: FracOrder, lam: float, tol: Tolerance
) -> np.ndarray:
    """E_alpha(lam, t - a) per grid point, cross-checked against the
    comparison series sum_k (Omega_lam^k 1), which it must equal."""
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
    ratio = _convergence_ratio_estimate(
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
    max_excess = float(_worst_excess(excess))
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
