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
from typing import Callable, Sequence

import numpy as np

from .errors import DivergenceError, DomainError, PreconditionError, QFracError
from .operators import OmegaOp, OperatorKernel, build_kernel, omega_apply
from .qcore import DEFAULT_TOL, FracOrder, GridFn, QGrid, Tolerance
from .solver import NonlinearIVP, forward_substitution, solve_marching
from .special import MLSpec, mittag_leffler

#: absolute slack used when checking integral-inequality hypotheses, so that
#: equality-case instances (zero slack) do not fail on rounding.
HYPOTHESIS_TOL = 1e-12

#: largest comparison-series value reported; beyond it the bound is useless
#: and a DivergenceError is raised instead.
DIVERGENCE_LIMIT = 1e100


def _worst_excess(excess: np.ndarray) -> float:
    """Largest positive entry, 0 when there is none; NaN propagates."""
    worst = float(np.max(excess))
    return 0.0 if worst <= 0.0 else worst


def sart_bound(grid: QGrid, alpha: FracOrder) -> np.ndarray:
    """Admissibility ceiling 1 / (t**alpha (1-q)**alpha) at every grid point."""
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
        if not (np.isfinite(self.v.values).all() and np.isfinite(self.mu.values).all()):
            raise DomainError("v and mu must be finite")
        if np.any(self.mu.values < 0.0):
            raise DomainError("coefficient mu must be nonnegative")


@dataclass(frozen=True, eq=False)
class BoundResult:
    bound: GridFn
    terms_used: int  # grid rows solved above the lower limit
    satisfied: np.ndarray
    max_violation: float


def _linear_rows(
    kernel: OperatorKernel, coeff: np.ndarray, y_a: float, slack: np.ndarray | None = None
) -> np.ndarray:
    """Solve y = y_a + W diag(coeff) y - slack above the lower limit, row by row.

    Each row divides by the diagonal factor 1 - W[i,i] coeff[i].  The strict
    admissibility ceiling keeps it positive in exact arithmetic, but with the
    computed diagonal it can round to 0 or below for a coefficient within
    ulps of the ceiling; then PreconditionError names every index whose
    factor is not positive.  Below the lower limit y is filled with y_a.
    """
    c = coeff.tolist()
    s = [0.0] * len(c) if slack is None else slack.tolist()

    def row(i: int, known: float, d: float) -> tuple[float, float]:
        den = 1.0 - d * c[i]
        if den <= 0.0:
            diag = kernel.diagonal.tolist()
            bad = [j for j in range(i, len(c)) if 1.0 - diag[j] * c[j] <= 0.0]
            raise PreconditionError(
                f"diagonal factor 1 - W_ii coeff_i not positive at indices {bad}",
                indices=tuple(bad),
            )
        y_i = (known - s[i]) / den
        return y_i, c[i] * y_i

    return forward_substitution(kernel, y_a, row)


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
    if not bool(flags.all()):
        bad = tuple(int(i) for i in np.flatnonzero(~flags))
        raise PreconditionError(
            f"mu violates the strict admissibility ceiling at indices {list(bad)}",
            indices=bad,
        )
    grid = inp.v.grid
    kernel = build_kernel(grid, inp.a_index, inp.alpha, tol)
    v_a = float(inp.v.values[inp.a_index])
    u = _linear_rows(kernel, inp.mu.values, 1.0)
    if not u.max() <= DIVERGENCE_LIMIT:
        i = int(np.argmin(u <= DIVERGENCE_LIMIT))
        raise DivergenceError(
            f"comparison series reaches {float(u[i]):.6g} at grid index {i}, "
            f"beyond {DIVERGENCE_LIMIT:g}"
        )
    bound_vals = v_a * u
    if not np.isfinite(bound_vals).all():
        raise DivergenceError(f"bound v(a) * series overflows with v(a) = {v_a!r}")
    satisfied = np.ones(grid.count, dtype=bool)
    satisfied[inp.a_index :] = inp.v.values[inp.a_index :] <= bound_vals[inp.a_index :]
    excess = inp.v.values[inp.a_index :] - bound_vals[inp.a_index :]
    return BoundResult(
        bound=GridFn(grid, bound_vals),
        terms_used=grid.count - inp.a_index - 1,
        satisfied=satisfied,
        max_violation=_worst_excess(excess),
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
        if self.alpha.alpha > 1.0:
            raise DomainError("the comparison check is stated for orders in (0, 1]")
        if not 0 <= self.a_index < self.w.grid.count:
            raise DomainError(f"a_index {self.a_index} outside grid")


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    holds_super: bool      # w >= w(a) + I^alpha(x w)
    holds_sub: bool        # v <= v(a) + I^alpha(x v)
    holds_admissible: bool  # 0 <= x <= ceiling (non-strict)
    holds_initial: bool    # w(a) >= v(a)
    conclusion_checked: bool
    conclusion_holds: bool
    max_violation: float

    @property
    def all_hypotheses(self) -> bool:
        return (
            self.holds_super
            and self.holds_sub
            and self.holds_admissible
            and self.holds_initial
        )


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
    holds_super = bool(
        np.all(inp.w.values[sl] >= w_a + omega_w[sl] - HYPOTHESIS_TOL)
    )
    holds_sub = bool(np.all(inp.v.values[sl] <= v_a + omega_v[sl] + HYPOTHESIS_TOL))
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


def march_integral_equation(
    kernel: OperatorKernel, coeff: GridFn, y_a: float, slack: GridFn | None = None
) -> GridFn:
    """Solve y(t) = y_a + I^alpha(coeff * y)(t) - slack(t) above the lower limit.

    Forward substitution on the triangular kernel; each step divides by the
    diagonal factor 1 - W[i,i] coeff[i], and a factor that is not positive
    raises PreconditionError.  Below the lower limit y is filled with y_a.
    Nonnegative slack produces sub-solutions, nonpositive slack
    super-solutions, zero slack the equality solution.
    """
    for name, fn in (("coefficient", coeff), ("slack", slack)):
        if fn is not None and fn.grid != kernel.grid:
            raise DomainError(f"{name} and kernel live on different grids")
    slack_values = None if slack is None else slack.values
    return GridFn(kernel.grid, _linear_rows(kernel, coeff.values, y_a, slack_values))


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
    q = grid.q
    bad = [
        int(i)
        for i in range(grid.count)
        if not (0.0 <= delta.values[i] < 1.0 / (1.0 - q))
    ]
    if bad:
        raise PreconditionError(
            f"delta must satisfy 0 <= delta < 1/(1-q); offending indices {bad}",
            indices=tuple(bad),
        )
    inp = GronwallInput(v=v, mu=delta, alpha=FracOrder(1.0), a_index=a_index)
    result = gronwall_bound(inp, tol)
    lam = float(delta.values[0])
    if np.all(delta.values == lam):
        a = grid.points[a_index]
        v_a = float(v.values[a_index])
        for i in range(a_index, grid.count):
            ml = mittag_leffler(MLSpec(1.0, 1.0, lam, a, tol), grid.points[i], q).value
            closed = v_a * ml
            got = float(result.bound.values[i])
            if abs(got - closed) > 100.0 * (tol.abs_tol + tol.rel_tol * abs(closed)):
                raise QFracError(
                    f"series/closed-form mismatch at t={grid.points[i]!r}: "
                    f"{got!r} vs {closed!r}"
                )
    return result


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


def _ml_bound_factor(
    grid: QGrid, a_index: int, alpha: FracOrder, lam: float, tol: Tolerance
) -> np.ndarray:
    """E_alpha(lam, t - a) per grid point, cross-checked against the
    comparison series sum_k (Omega_lam^k 1), which it must equal."""
    a = grid.points[a_index]
    q = grid.q
    out = np.ones(grid.count)
    for i in range(a_index, grid.count):
        out[i] = mittag_leffler(MLSpec(alpha.alpha, 1.0, lam, a, tol), grid.points[i], q).value
    kernel = build_kernel(grid, a_index, alpha, tol)
    series = _linear_rows(kernel, np.full(grid.count, lam), 1.0)
    mismatch = np.max(np.abs(series[a_index:] - out[a_index:]))
    if mismatch > 1000.0 * (tol.abs_tol + tol.rel_tol * float(np.max(np.abs(out)))):
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
    bound_slack: float = 1e-12,
    seq_exponents: Sequence[int] = (1, 2, 3, 4, 5, 6),
) -> DependenceReport:
    """Solve the same problem from initial values gamma and beta and verify
    |phi - psi| <= |gamma - beta| * E_alpha(L, t - a) at every grid point.

    Also runs the perturbed-initial-value sequence gamma_n = gamma + 10**-n
    and reports whether sup|phi - phi_n| decreases monotonically and stays
    below |gamma - gamma_n| times the bound factor at the last grid point.
    """
    if not 0.0 <= lipschitz < 1.0:
        raise DomainError("Lipschitz constant must satisfy 0 <= L < 1")
    ratio = lipschitz * grid.points[-1] ** alpha.alpha * (1.0 - grid.q) ** alpha.alpha
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
    bound_holds = bool(max_excess <= bound_slack)
    gammas: list[float] = []
    sups: list[float] = []
    bounds: list[float] = []
    factor_last = float(factor[-1])
    for n in seq_exponents:
        g_n = gamma + 10.0 ** (-n)
        phi_n = solve(g_n)
        gammas.append(g_n)
        sups.append(float(np.max(np.abs(phi.values[sl] - phi_n.values[sl]))))
        bounds.append(abs(gamma - g_n) * factor_last)
    monotone = all(sups[i + 1] <= sups[i] for i in range(len(sups) - 1))
    within = all(s <= b + bound_slack for s, b in zip(sups, bounds))
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
