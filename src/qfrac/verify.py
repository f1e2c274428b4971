"""Seeded verification suites.

Each suite checks one family of identities or bounds at its published
tolerance and returns a JSON-ready report::

    {"suite": ..., "seed": ..., "scheme": 2, "cases": ..., "failures": [...],
     "max_errors_by_property": {...}}

Five suites are randomized: lemma1, lemma22, gronwall, comparison and
corollary.  Each of their parameter combinations draws its cases, in order,
from one generator ``np.random.default_rng([seed, suite_id])``, so reports are
byte-stable for a fixed seed and the cases of a run with ``cases=k`` are the
first k of any larger run.  ``cases`` counts random cases per parameter
combination; the other five suites run fixed tables and reject it.

Suites gronwall and comparison, and corollary's random cases, run the cases
of each parameter combination as one block: one forward substitution over
(N, K) right-hand sides, through the input checks and the routine that the
public function of :mod:`qfrac.gronwall` runs on one case, and
cross-checked on the first case against that function.  Suite lemma22 checks
each parameter combination's cases as one (N, K) block through the routine
of :func:`qfrac.operators.caputo_inverse_identity_check`.

Two process-wide caches outlive a suite, each a
:class:`qfrac.qcore._BoundedLRU`: the q-product factors, in
:data:`qfrac.special._PRODUCT_STORE`, bounded by entries, and the kernels,
in :data:`qfrac.operators._KERNEL_CACHE`, bounded by bytes.  So each factor
and kernel is evaluated once per process while its cache holds it.  Every
other series value lives for one computation, in its
:class:`qfrac.special._SeriesMemo`.  A value read from a memo or a cache is
the float a fresh evaluation gives, so reports do not depend on what the
caches hold.
"""
from __future__ import annotations

import math
from dataclasses import fields
from itertools import product
from typing import Callable

import numpy as np

from .errors import DomainError
from .gronwall import (
    BLOCK_ULPS,
    ComparisonInput,
    GronwallInput,
    _block_rows,
    _bound_cases,
    _check_bound_input,
    _check_comparison_input,
    _check_delta,
    _comparison_cases,
    _linear_rows,
    _q_gronwall_classical,
    _ulp_distance,
    dependence_experiment,
    gronwall_bound,
    q_gronwall_classical,
    sart_bound,
    verify_comparison,
)
from .operators import _inverse_identity_residual, build_kernel, fractional_integral
from .qcore import (
    DEFAULT_TOL,
    FracOrder,
    GridFn,
    _check_integer,
    gamma_q,
    make_grid,
    q_bracket,
)
from .solver import (
    LinearIVP,
    NonlinearIVP,
    solve_linear_closed,
    solve_linear_iterative,
    solve_marching,
)
from .special import _SeriesMemo

_TINY = 1e-300

#: version of the way randomized suites draw their cases, named in every
#: report, since any change to it changes their reports
SCHEME = 2


def _rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), _TINY)


def _record(errors: dict[str, float], key: str, err: float) -> float:
    errors[key] = max(errors.get(key, 0.0), float(err))
    return err


def suite_lemma1(seed: int, cases: int | None = None):
    """Factorial-power identities: exponent addition, scaling, and the two
    one-sided derivative rules, each at 1e-10 relative error.

    The powers of one q share a :class:`qfrac.special._SeriesMemo`, whose
    product factors the process-wide store keeps: each distinct factor is
    evaluated once while the store holds it, and the values are the floats
    of :func:`qfrac.qcore.q_factorial_power`."""
    pair_count = cases or 20
    exps = (0.25, 0.5, 1.3)
    failures: list[str] = []
    errors: dict[str, float] = {}
    n_cases = 0
    for qi, q in enumerate((0.3, 0.5, 0.9)):
        qfp = _SeriesMemo(q, DEFAULT_TOL).power
        grid = make_grid(q, 6, 8)
        pts = grid.points
        rng = np.random.default_rng([seed, 10 + qi])
        for _ in range(pair_count):
            i = int(rng.integers(2, grid.count))
            j = int(rng.integers(0, i - 1))
            t, s = pts[i], pts[j]
            n_cases += 1
            for beta, gam in product(exps, exps):
                lhs = qfp(t, s, beta + gam)
                rhs = qfp(t, s, beta) * qfp(t, q ** beta * s, gam)
                err = _record(errors, "I", _rel_err(lhs, rhs))
                if err > 1e-10:
                    failures.append(
                        f"lemma1/I q={q} t={t!r} s={s!r} beta={beta} gamma={gam}: {err:.3e}"
                    )
            for a_scale in (q, 1.0 / q, 2.0):
                for beta in exps:
                    lhs = qfp(a_scale * t, a_scale * s, beta)
                    rhs = a_scale ** beta * qfp(t, s, beta)
                    err = _record(errors, "II", _rel_err(lhs, rhs))
                    if err > 1e-10:
                        failures.append(
                            f"lemma1/II q={q} a={a_scale!r} beta={beta}: {err:.3e}"
                        )
            for al in exps:
                # derivative in t: needs s below the predecessor point
                lhs = (qfp(t, s, al) - qfp(q * t, s, al)) / ((1.0 - q) * t)
                rhs = q_bracket(al, q) * qfp(t, s, al - 1.0)
                err = _record(errors, "III", _rel_err(lhs, rhs))
                if err > 1e-10:
                    failures.append(f"lemma1/III q={q} alpha={al}: {err:.3e}")
                # derivative in s
                lhs = (qfp(t, s, al) - qfp(t, q * s, al)) / ((1.0 - q) * s)
                rhs = -q_bracket(al, q) * qfp(t, q * s, al - 1.0)
                err = _record(errors, "IV", _rel_err(lhs, rhs))
                if err > 1e-10:
                    failures.append(f"lemma1/IV q={q} alpha={al}: {err:.3e}")
    return n_cases, failures, errors


def suite_gamma(seed: int, cases: int | None = None):
    """q-Gamma recurrence at 1e-10 and integer factorial values at 1e-12."""
    failures: list[str] = []
    errors: dict[str, float] = {}
    n_cases = 0
    for q in (0.3, 0.5, 0.9):
        for al in (0.3, 0.5, 1.7, 2.4):
            n_cases += 1
            err = _record(
                errors,
                "recurrence",
                _rel_err(gamma_q(al + 1.0, q), q_bracket(al, q) * gamma_q(al, q)),
            )
            if err > 1e-10:
                failures.append(f"gamma/recurrence q={q} alpha={al}: {err:.3e}")
        for n in range(11):
            n_cases += 1
            fact = 1.0
            for k in range(1, n + 1):
                fact *= q_bracket(float(k), q)
            err = _record(errors, "factorial", _rel_err(gamma_q(n + 1.0, q), fact))
            if err > 1e-12:
                failures.append(f"gamma/factorial q={q} n={n}: {err:.3e}")
    return n_cases, failures, errors


def suite_powerrule(seed: int, cases: int | None = None):
    """Fractional integral of (x - a)_q^mu against its closed form, 1e-8;
    the powers share one product memo per q, as in :func:`suite_lemma1`."""
    failures: list[str] = []
    errors: dict[str, float] = {}
    n_cases = 0
    for q in (0.3, 0.5, 0.9):
        qfp = _SeriesMemo(q, DEFAULT_TOL).power
        grid = make_grid(q, 11, 12)
        a = grid.points[0]
        for mu, al in product((0.0, 0.5, 1.0, 2.3), (0.25, 0.5, 0.9)):
            n_cases += 1
            kernel = build_kernel(grid, 0, FracOrder(al))
            fvals = np.zeros(grid.count)
            for i in range(grid.count):
                fvals[i] = qfp(grid.points[i], a, mu)
            got = fractional_integral(GridFn(grid, fvals), kernel).values
            coeff = gamma_q(mu + 1.0, q) / gamma_q(al + mu + 1.0, q)
            worst = 0.0
            for i in range(1, grid.count):
                want = coeff * qfp(grid.points[i], a, mu + al)
                worst = max(worst, _rel_err(got[i], want))
            _record(errors, "powerrule", worst)
            if worst > 1e-8:
                failures.append(f"powerrule q={q} mu={mu} alpha={al}: {worst:.3e}")
    return n_cases, failures, errors


def suite_lemma22(seed: int, cases: int | None = None):
    """Inversion identity residual for random grid functions, 1e-8.

    Each (q, alpha) pair checks its cases as one block, one column per case,
    through the routine of :func:`caputo_inverse_identity_check`; a column's
    residual is the float that function gives for that case alone."""
    per_pair = cases or 20
    failures: list[str] = []
    errors: dict[str, float] = {}
    n_cases = 0
    for pi, (q, al) in enumerate(product((0.3, 0.5), (0.5, 0.8))):
        grid = make_grid(q, 9, 10)
        rng = np.random.default_rng([seed, 40 + pi])
        # row c holds the floats of case c's rng.uniform(-1, 1, N) draw
        values = rng.uniform(-1.0, 1.0, (per_pair, grid.count)).T
        resids = _inverse_identity_residual(grid, values, 0, FracOrder(al), DEFAULT_TOL)
        for c, resid in enumerate(resids.tolist()):
            n_cases += 1
            _record(errors, "residual", resid)
            if resid > 1e-8:
                failures.append(f"lemma22 q={q} alpha={al} case={c}: {resid:.3e}")
    return n_cases, failures, errors


def suite_solver(seed: int, cases: int | None = None):
    """Closed form vs successive approximation vs marching, sup-norm 1e-7."""
    failures: list[str] = []
    errors: dict[str, float] = {}
    n_cases = 0
    for q, al, lam in product((0.3, 0.5), (0.5, 0.9), (0.2, 0.4)):
        n_cases += 1
        grid = make_grid(q, 11, 12)
        forcing = GridFn(grid, grid.t)
        p = LinearIVP(alpha=FracOrder(al), lam=lam, a_index=0, y0=1.0, forcing=forcing)
        closed = solve_linear_closed(p).solution.values
        iterative = solve_linear_iterative(p).solution.values
        ivp = NonlinearIVP(
            grid=grid,
            alpha=FracOrder(al),
            a_index=0,
            y0=1.0,
            rhs=lambda t, y, lam=lam: lam * y + t,
            lipschitz=lam,
        )
        marched = solve_marching(ivp).solution.values
        worst = max(
            float(np.max(np.abs(closed - iterative))),
            float(np.max(np.abs(closed - marched))),
            float(np.max(np.abs(iterative - marched))),
        )
        _record(errors, "pairwise_sup", worst)
        if worst > 1e-7:
            failures.append(f"solver q={q} alpha={al} lam={lam}: {worst:.3e}")
    return n_cases, failures, errors


def suite_ratio(seed: int, cases: int | None = None):
    """Measured consecutive-term ratio at term 40 against (1-q)**alpha, 1e-3."""
    failures: list[str] = []
    errors: dict[str, float] = {}
    n_cases = 0
    for q, al in product((0.3, 0.5), (0.5, 0.9)):
        n_cases += 1
        a40 = 1.0 / gamma_q(40 * al + 1.0, q)
        a39 = 1.0 / gamma_q(39 * al + 1.0, q)
        measured = a40 / a39
        limit = (1.0 - q) ** al
        err = _record(errors, "ratio", abs(measured - limit))
        if err > 1e-3:
            failures.append(f"ratio q={q} alpha={al}: {err:.3e}")
    return n_cases, failures, errors


def _draws(seed: int, suite_id: int, cases: int, width: int) -> np.ndarray:
    """The first ``cases`` cases of a parameter combination's stream, one
    column per case and ``width`` uniform [0, 1) draws per case.

    A case's draws come in the order a case-by-case loop of
    ``rng.uniform(lo, hi, size)`` calls takes them, and ``uniform`` is
    ``lo + (hi - lo) * random()``, so ``lo + (hi - lo) * row`` reproduces
    those floats exactly."""
    return np.random.default_rng([seed, suite_id]).random((cases, width)).T


def _block_mismatch(tag: str, public: np.ndarray, block: np.ndarray, name: str) -> list[str]:
    """A failure when the public function's result on a combination's first
    case leaves the block's column by more than BLOCK_ULPS."""
    ulps = _ulp_distance(public, block)
    if ulps <= BLOCK_ULPS:
        return []
    return [f"{tag} case=0: block differs from {name} by {ulps:.3g} ulps"]


def suite_gronwall(seed: int, cases: int | None = None):
    """Slack-constructed instances must never exceed the series bound (1e-12).

    Each parameter combination runs its cases as one block; its first case
    also runs through the public :func:`gronwall_bound`, which must agree
    with the block within BLOCK_ULPS."""
    per_combo = cases or 200
    failures: list[str] = []
    errors: dict[str, float] = {}
    n_cases = 0
    for ci, (q, al) in enumerate(product((0.3, 0.5), (0.5, 0.9))):
        grid = make_grid(q, 11, 12)
        n = grid.count
        alpha = FracOrder(al)
        kernel = build_kernel(grid, 0, alpha)
        ceiling = sart_bound(grid, alpha)
        # per case: v(a) ~ U(0, 2), mu ~ U(0, 0.98) * ceiling, slack ~ U(0, 1)
        r = _draws(seed, 70 + ci, per_combo, 1 + 2 * n)
        mu = 0.98 * r[1 : n + 1] * ceiling[:, None]
        v = _block_rows(kernel, mu, 2.0 * r[0], r[n + 1 :], clamp=True)
        _check_bound_input(grid, v, mu, alpha, 0)
        bound, violation = _bound_cases(grid, v, mu, alpha, 0)
        n_cases += per_combo
        _record(errors, "max_violation", max(violation.tolist()))
        tag = f"gronwall q={q} alpha={al}"
        for c in np.flatnonzero(violation > 1e-12).tolist():
            failures.append(f"{tag} case={c}: violation {violation[c]:.3e}")
        first = gronwall_bound(
            GronwallInput(v=GridFn(grid, v[:, 0]), mu=GridFn(grid, mu[:, 0]), alpha=alpha, a_index=0)
        )
        failures += _block_mismatch(tag, first.bound.values, bound[:, 0], "gronwall_bound")
    return n_cases, failures, errors


def suite_comparison(seed: int, cases: int | None = None):
    """Slack-constructed super/sub pairs must stay ordered (1e-12).

    Each parameter combination runs its cases as one block; its first case
    also runs through the public :func:`verify_comparison`, whose outcomes
    must equal the block's."""
    per_combo = cases or 50
    failures: list[str] = []
    errors: dict[str, float] = {}
    n_cases = 0
    for ci, (q, al) in enumerate(product((0.3, 0.5), (0.5, 0.9))):
        grid = make_grid(q, 11, 12)
        n = grid.count
        alpha = FracOrder(al)
        kernel = build_kernel(grid, 0, alpha)
        ceiling = sart_bound(grid, alpha)
        # per case: x ~ U(0, 0.98) * ceiling, w(a) ~ U(0.5, 2), v(a) = w(a) - U(0, 1),
        # slack of w ~ -U(0, 0.5), slack of v ~ U(0, 0.5)
        r = _draws(seed, 80 + ci, per_combo, 3 * n + 2)
        x = 0.98 * r[:n] * ceiling[:, None]
        w_a = 0.5 + 1.5 * r[n]
        w = _block_rows(kernel, x, w_a, -(0.5 * r[n + 2 : 2 * n + 2]))
        v = _block_rows(kernel, x, w_a - r[n + 1], 0.5 * r[2 * n + 2 :])
        _check_comparison_input(grid, w, v, x, alpha, 0)
        report = _comparison_cases(grid, w, v, x, alpha, 0)
        n_cases += per_combo
        held = report.all_hypotheses
        if held.any():
            _record(errors, "max_violation", max(report.max_violation[held].tolist()))
        tag = f"comparison q={q} alpha={al}"
        for c in np.flatnonzero(~held | ~report.conclusion_holds).tolist():
            if not held[c]:
                failures.append(f"{tag} case={c}: hypothesis dropout")
            else:
                failures.append(f"{tag} case={c}: violation {report.max_violation[c]:.3e}")
        first = verify_comparison(
            ComparisonInput(w=GridFn(grid, w[:, 0]), v=GridFn(grid, v[:, 0]),
                            x=GridFn(grid, x[:, 0]), alpha=alpha, a_index=0),
            tol=1e-12,
        )
        for field in fields(first):
            want, got = getattr(first, field.name), getattr(report, field.name)[0]
            if not (want == got or math.isnan(want) and math.isnan(got)):
                failures.append(
                    f"{tag} case=0: block {field.name} {got} differs from verify_comparison's {want}"
                )
    return n_cases, failures, errors


def suite_corollary(seed: int, cases: int | None = None):
    """Order-1 bound: series equals the Mittag-Leffler closed form (1e-10)
    and dominates slack-constructed instances.

    The random instances run as one block; the first also runs through the
    public :func:`q_gronwall_classical`, which must agree within BLOCK_ULPS."""
    instance_count = cases or 50
    failures: list[str] = []
    errors: dict[str, float] = {}
    n_cases = 0
    q = 0.5
    grid = make_grid(q, 11, 12)
    n = grid.count
    alpha = FracOrder(1.0)
    kernel = build_kernel(grid, 0, alpha)
    rng = np.random.default_rng([seed, 90])
    for lam in (0.3, 0.9, 1.8):
        n_cases += 1
        delta = GridFn.constant(grid, lam)
        v_a = float(rng.uniform(0.5, 2.0))
        slack = rng.uniform(0.0, 1.0, n)
        v = GridFn._owned(grid, _linear_rows(kernel, delta.values, v_a, slack, clamp=True))
        result, ml = _q_gronwall_classical(v, delta, 0, DEFAULT_TOL)
        bound = result.bound.values.tolist()
        worst = max([0.0] + [_rel_err(b, v_a * m) for b, m in zip(bound, ml)])
        _record(errors, "closed_form", worst)
        if worst > 1e-10:
            failures.append(f"corollary lam={lam}: closed-form mismatch {worst:.3e}")
        if result.max_violation > 1e-12:
            failures.append(f"corollary lam={lam}: violation {result.max_violation:.3e}")
    # per case: delta ~ U(0, 0.98 / (1 - q)), v(a) ~ U(0, 2), slack ~ U(0, 1)
    r = _draws(seed, 91, instance_count, 2 * n + 1)
    delta = (0.98 / (1.0 - q)) * r[:n]
    v = _block_rows(kernel, delta, 2.0 * r[n], r[n + 1 :], clamp=True)
    _check_delta(grid, delta)
    _check_bound_input(grid, v, delta, alpha, 0)
    bound, violation = _bound_cases(grid, v, delta, alpha, 0)
    n_cases += instance_count
    _record(errors, "max_violation", max(violation.tolist()))
    for c in np.flatnonzero(violation > 1e-12).tolist():
        failures.append(f"corollary case={c}: violation {violation[c]:.3e}")
    first = q_gronwall_classical(GridFn(grid, v[:, 0]), GridFn(grid, delta[:, 0]), 0)
    failures += _block_mismatch("corollary", first.bound.values, bound[:, 0], "q_gronwall_classical")
    return n_cases, failures, errors


def suite_dependence(seed: int, cases: int | None = None):
    """Initial-value sensitivity: tight bound for linear right-hand sides,
    dominance for the bounded nonlinear one, vanishing perturbations."""
    failures: list[str] = []
    errors: dict[str, float] = {}
    q, al, lip = 0.5, 0.5, 0.5
    grid = make_grid(q, 11, 12)
    alpha = FracOrder(al)
    n_cases = 3
    linear = dependence_experiment(
        grid, 0, alpha, gamma=1.0, beta=0.0, rhs=lambda t, y: lip * y, lipschitz=lip
    )
    worst = 0.0
    for i in range(grid.count):
        worst = max(worst, _rel_err(float(linear.abs_diff[i]), float(linear.bound[i])))
    _record(errors, "linear_tightness", worst)
    if worst > 1e-8:
        failures.append(f"dependence/linear: bound not attained, rel err {worst:.3e}")
    bounded = dependence_experiment(
        grid, 0, alpha, gamma=1.0, beta=0.9,
        rhs=lambda t, y: lip * math.sin(y), lipschitz=lip,
    )
    _record(errors, "nonlinear_excess", bounded.max_excess)
    if not bounded.bound_holds:
        failures.append(f"dependence/nonlinear: bound exceeded by {bounded.max_excess:.3e}")
    if not bounded.sequence_monotone:
        failures.append("dependence/sequence: sup differences not monotone")
    if not bounded.sequence_within_bound:
        failures.append("dependence/sequence: bound exceeded")
    seq_excess = max(
        max(0.0, s - b)
        for s, b in zip(bounded.sequence_sup_diffs, bounded.sequence_bounds)
    )
    _record(errors, "sequence_excess", seq_excess)
    return n_cases, failures, errors


_SUITES: dict[str, Callable] = {
    "lemma1": suite_lemma1,
    "gamma": suite_gamma,
    "powerrule": suite_powerrule,
    "lemma22": suite_lemma22,
    "solver": suite_solver,
    "ratio": suite_ratio,
    "gronwall": suite_gronwall,
    "comparison": suite_comparison,
    "corollary": suite_corollary,
    "dependence": suite_dependence,
}

#: the suites that draw random cases, the only ones ``cases`` applies to
_RANDOMIZED = frozenset({"lemma1", "lemma22", "gronwall", "comparison", "corollary"})


def available_suites() -> tuple[str, ...]:
    return tuple(_SUITES) + ("all",)


def run_suite(name: str, seed: int = 7, cases: int | None = None) -> dict:
    """Run one suite (or ``all``) and return its JSON-ready report.

    ``seed`` must be a nonnegative integer.  ``cases``, when given, is the
    number of random cases per parameter combination: an integer of at least
    1, for a randomized suite or ``all``, which passes it to its randomized
    suites only.  Anything else raises DomainError before a suite runs.

    The suites share only the process-wide caches of the module docstring."""
    _check_integer(at_least=0, seed=seed)
    if cases is not None:
        _check_integer(at_least=1, cases=cases)
        cases = int(cases)
    seed = int(seed)
    if name != "all" and name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {available_suites()}")
    if cases is not None and name != "all" and name not in _RANDOMIZED:
        raise DomainError(f"suite {name!r} runs a fixed table and takes no cases")
    total = 0
    failures: list[str] = []
    errors: dict[str, float] = {}
    for sub in _SUITES if name == "all" else (name,):
        n, fail, errs = _SUITES[sub](seed, cases if sub in _RANDOMIZED else None)
        total += n
        failures.extend(fail)
        for k, v in errs.items():
            errors[f"{sub}.{k}" if name == "all" else k] = v
    return {
        "suite": name,
        "seed": seed,
        "scheme": SCHEME,
        "cases": total,
        "failures": failures,
        "max_errors_by_property": errors,
    }
