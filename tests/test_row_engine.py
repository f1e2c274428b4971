"""The row engine of forward substitution runs on Python floats.

Each row hook (marching's damped fixed point, the linear rows of the
comparison factor and of the integral equations) must reproduce, bit for
bit, the numpy-scalar rows kept in ``oracles``: the same solutions, inner
iteration counts, residuals and bounds, and the same StepError when a
march stalls.  The per-call q-factorial-power cache of the verify suites
must leave their reports unchanged.
"""
import math

import numpy as np
import pytest

import qfrac.verify as verify
from qfrac.errors import DivergenceError, NonConvergenceError, PreconditionError, StepError
from qfrac.gronwall import (
    GronwallInput,
    _linear_rows,
    gronwall_bound,
    march_integral_equation,
    sart_bound,
)
from qfrac.operators import build_kernel
from qfrac.qcore import DEFAULT_TOL, FracOrder, GridFn, make_grid
from qfrac.solver import NonlinearIVP, solve_marching

from oracles import (
    numpy_comparison_factor,
    numpy_forward_substitution,
    numpy_march_integral_equation,
    numpy_solve_marching,
)

RHS_KINDS = ("linear", "sin", "damped", "stalled")


def _bits(x):
    return np.float64(x).tobytes()


def _window(q, n):
    return make_grid(q, n - 1, n)  # t from q**(n-1) to 1


def _ivp(grid, alpha, a_index, kind, lam):
    """An IVP whose inner iteration converges plainly (linear, sin), only
    after the step factor halves (damped), or not at all (stalled).  The
    last two declare Lipschitz constant 0, below their true one, so that the
    march is attempted."""
    d_max = (1.0 - grid.q) ** alpha * grid.points[-1] ** alpha
    if kind == "linear":
        rhs, lip = (lambda t, y: lam * y + t), lam
    elif kind == "sin":
        rhs, lip = (lambda t, y: lam * math.sin(y) + t), lam
    elif kind == "damped":
        k = 3.0 / d_max  # W[i,i] * k reaches 3: plain iteration diverges
        rhs, lip = (lambda t, y: 1.0 - k * y), 0.0
    else:
        k = 300.0 / d_max  # beyond what a 2**-6 step factor can damp
        rhs, lip = (lambda t, y: 1.0 - k * y), 0.0
    return NonlinearIVP(grid=grid, alpha=FracOrder(alpha), a_index=a_index, y0=1.0,
                        rhs=rhs, lipschitz=lip)


def _sweep():
    rng = np.random.default_rng(20261018)
    cases = [(2, 0.5, 0.5, 0), (128, 0.3, 0.7, 0), (128, 0.95, 0.35, 100), (3, 0.9, 1.0, 1)]
    for _ in range(16):
        n = int(rng.integers(2, 129))
        q = float(rng.uniform(0.3, 0.95))
        if n > 64:
            q = min(q, 0.8)  # keeps the kernel builds of the sweep cheap
        cases.append((n, q, float(rng.uniform(0.1, 1.0)),
                      int(rng.integers(1, n)) if rng.random() < 0.5 else 0))
    for c, (n, q, alpha, a_index) in enumerate(cases):
        yield n, q, alpha, a_index, RHS_KINDS[c % len(RHS_KINDS)], 0.1 + 0.4 * (c % 5) / 4


SWEEP = list(_sweep())


def _march_both(p):
    """(package outcome, numpy-row outcome), each a result or a StepError."""
    outcomes = []
    for solve in (solve_marching, numpy_solve_marching):
        try:
            outcomes.append(solve(p, DEFAULT_TOL))
        except StepError as exc:
            outcomes.append(exc)
    return outcomes


@pytest.mark.parametrize("n,q,alpha,a_index,kind,lam", SWEEP)
def test_marching_is_bit_identical_to_numpy_rows(n, q, alpha, a_index, kind, lam):
    p = _ivp(_window(q, n), alpha, a_index, kind, lam)
    got, want = _march_both(p)
    if isinstance(want, StepError):
        assert isinstance(got, StepError), got
        assert got.index == want.index
        assert _bits(got.last_delta) == _bits(want.last_delta)
        assert str(got) == str(want)
        cause, want_cause = got.__cause__, want.__cause__
        assert type(cause) is NonConvergenceError
        assert str(cause) == str(want_cause)
        assert _bits(cause.last_delta) == _bits(want_cause.last_delta)
        return
    values, iterations, residual = want
    assert got.solution.values.tobytes() == values.tobytes()
    assert got.iterations == iterations
    assert _bits(got.residual) == _bits(residual)


def test_sweep_covers_every_outcome():
    sizes = {n for n, *_ in SWEEP}
    assert min(sizes) == 2 and max(sizes) == 128
    assert {a > 0 for *_, a, _, _ in SWEEP} == {True, False}
    outcomes = set()
    for n, q, alpha, a_index, kind, lam in SWEEP:
        if kind in ("damped", "stalled") and n - a_index >= 2:
            # at the last point W[i,i] k is 3 or 300, so plain iteration
            # diverges there: converging needs the halved step factor
            got, _ = _march_both(_ivp(_window(q, n), alpha, a_index, kind, lam))
            outcomes.add((kind, isinstance(got, StepError)))
    assert ("damped", False) in outcomes and ("stalled", True) in outcomes


def test_rhs_receives_python_floats():
    grid = _window(0.5, 12)
    seen = set()

    def rhs(t, y):
        seen.add(type(y))
        return 0.4 * math.sin(y) + t

    solve_marching(NonlinearIVP(grid=grid, alpha=FracOrder(0.5), a_index=0,
                                y0=np.float64(1.0), rhs=rhs, lipschitz=0.4))
    assert seen == {float}


def test_rhs_overflow_propagates():
    # On Python floats y**3 raises OverflowError; the numpy-scalar iterates
    # turned it into inf, then NaN, and a StepError after max_inner steps.
    grid = _window(0.5, 8)
    p = NonlinearIVP(grid=grid, alpha=FracOrder(0.5), a_index=0, y0=1e60,
                     rhs=lambda t, y: y ** 3, lipschitz=0.0)
    with pytest.raises(OverflowError):
        solve_marching(p)
    with np.errstate(all="ignore"), pytest.raises(StepError):
        numpy_solve_marching(p, DEFAULT_TOL)


@pytest.mark.parametrize("q,alpha,a_index", [(0.3, 0.25, 0), (0.5, 0.75, 2), (0.9, 1.0, 0),
                                             (0.95, 0.4, 5)])
def test_linear_rows_are_bit_identical_to_numpy_rows(q, alpha, a_index):
    grid = _window(q, 40)
    kernel = build_kernel(grid, a_index, FracOrder(alpha))
    rng = np.random.default_rng([7, a_index])
    mu = rng.uniform(0.0, 0.98, grid.count) * sart_bound(grid, FracOrder(alpha))
    slack = rng.uniform(-0.5, 0.5, grid.count)
    assert (_linear_rows(kernel, mu, 1.0).tobytes()
            == numpy_comparison_factor(kernel, mu).tobytes())
    got = march_integral_equation(kernel, GridFn(grid, mu), 1.5, GridFn(grid, slack))
    want = numpy_march_integral_equation(kernel, mu, 1.5, slack)
    assert got.values.tobytes() == want.tobytes()

    raw_slack = rng.uniform(0.0, 3.0, grid.count)  # often above the history

    def clamped(i, known, d):  # verify._march_nonneg's row on numpy scalars
        y_i = (known - min(raw_slack[i], known)) / (1.0 - d * mu[i])
        return y_i, mu[i] * y_i

    got = verify._march_nonneg(kernel, GridFn(grid, mu), 1.5, raw_slack).values
    assert got.tobytes() == numpy_forward_substitution(kernel, 1.5, clamped).tobytes()
    assert np.any(got == 0.0)  # the clamp was active


def test_zero_diagonal_factor_is_a_precondition_error():
    # mu just below the strict ceiling can still round 1 - W[i,i] mu[i] to
    # exactly 0; the numpy rows divided to inf, the float rows refuse the row
    grid = _window(0.5, 8)
    order = FracOrder(0.75)
    kernel = build_kernel(grid, 0, order)
    ceiling = sart_bound(grid, order)
    hit = None
    for i in range(1, grid.count):
        m = ceiling[i]
        for _ in range(3):
            m = np.nextafter(m, 0.0)
            if 1.0 - kernel.diagonal[i] * m == 0.0:
                hit = (i, m)
    assert hit is not None
    i, m = hit
    mu = np.full(grid.count, 0.5)
    mu[i] = m
    assert math.isinf(numpy_comparison_factor(kernel, mu)[i])
    with pytest.raises(PreconditionError, match="not positive") as exc:
        gronwall_bound(GronwallInput(v=GridFn.constant(grid, 1.0), mu=GridFn(grid, mu),
                                     alpha=order, a_index=0))
    assert exc.value.indices == (i,)


def test_divergence_is_reported_at_the_first_row_past_the_limit():
    # the limit is tested once on the solved u: the same first index and
    # value as a test inside each row
    grid = make_grid(0.5, 3, 44)
    order = FracOrder(0.5)
    mu = 0.999 * sart_bound(grid, order)
    with np.errstate(all="ignore"):
        u = numpy_comparison_factor(build_kernel(grid, 0, order), mu)
    i = int(np.argmax(u > 1e100))
    assert np.all(u[:i] <= 1e100) and np.all(u[i:] > 1e100) and i < grid.count - 1
    with pytest.raises(DivergenceError) as exc:
        gronwall_bound(GronwallInput(v=GridFn.constant(grid, 1.0), mu=GridFn(grid, mu),
                                     alpha=order, a_index=0))
    assert str(exc.value) == (
        f"comparison series reaches {float(u[i]):.6g} at grid index {i}, beyond 1e+100"
    )


@pytest.mark.parametrize("name", ["lemma1", "powerrule"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_suite_cache_leaves_reports_unchanged(monkeypatch, name, seed):
    cached = verify.run_suite(name, seed)
    # without the per-call cache the suite is the uncached original
    monkeypatch.setattr(verify, "lru_cache", lambda maxsize=None: (lambda fn: fn))
    assert verify.run_suite(name, seed) == cached


def test_suite_cache_is_per_call(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    real = verify.q_factorial_power
    monkeypatch.setattr(verify, "q_factorial_power", counted)
    verify.run_suite("powerrule", 1)
    first = len(calls)
    assert first > 0
    assert first == len(set(calls))  # each distinct power evaluated once
    verify.run_suite("powerrule", 1)
    assert len(calls) == 2 * first  # nothing carried over between calls
