"""Command-line front end.

Subcommands: ``eval`` (primitives), ``solve`` (initial value problems),
``bound`` (Gronwall-type bound over a CSV of samples), ``verify`` (seeded
property suites, JSON report), ``demo`` (continuous-dependence experiment).

Exit codes: 0 success, 1 generic error, 2 hypothesis/precondition violation,
3 input-format error.  Errors are emitted as one JSON object on stderr.
CSV output uses UTF-8, comma separators, ``\\n`` line endings, a header row,
and 17-significant-digit floats so files are diffable and round-trip safe.
Identical flags and seed produce byte-identical output.

Each command imports what it needs when it runs: ``eval`` uses only the
scalar modules and never loads numpy; ``solve``, ``bound``, ``verify`` and
``demo`` import the grid solvers, and numpy with them.
"""
from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import click

from .errors import (
    DivergenceError,
    DomainError,
    GridMismatchError,
    InputFormatError,
    PreconditionError,
    QFracError,
)
from .qcore import (
    FracOrder,
    GridFn,
    QGrid,
    Tolerance,
    _check_q,
    gamma_q,
    make_grid,
    product_truncation_index,
    q_factorial_power,
)
from .special import (
    MLSpec,
    _q_exp_big_with_terms,
    _q_exp_small_with_terms,
    mittag_leffler,
)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _tolerance(rel: float) -> Tolerance:
    return Tolerance(rel_tol=rel, abs_tol=rel * 1e-3, max_terms=10_000)


@dataclass(frozen=True)
class RunConfig:
    """Resolved execution parameters shared by the commands.

    Flags override ``--config`` file values, which override these defaults.
    A missing n_start defaults to steps - 1 so the window ends at t = 1.
    """

    q: float = 0.5
    alpha: float = 0.5
    n_start: int | None = None
    steps: int = 12
    rel_tol: float = 1e-12
    seed: int = 7
    fmt: str = "csv"

    @property
    def tolerance(self) -> Tolerance:
        return _tolerance(self.rel_tol)

    def grid(self) -> QGrid:
        n0 = self.steps - 1 if self.n_start is None else self.n_start
        return make_grid(self.q, n0, self.steps)


def _emit_error(exc: Exception) -> None:
    payload: dict = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, PreconditionError) and exc.indices:
        payload["indices"] = list(exc.indices)
    if isinstance(exc, DivergenceError) and exc.ratio is not None:
        payload["ratio"] = exc.ratio
    click.echo(json.dumps(payload, sort_keys=True), err=True)


def _cli_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (InputFormatError, GridMismatchError) as exc:
            _emit_error(exc)
            sys.exit(3)
        except (PreconditionError, DomainError) as exc:
            _emit_error(exc)
            sys.exit(2)
        except QFracError as exc:
            _emit_error(exc)
            sys.exit(1)

    return wrapper


def load_config(path: str | Path) -> dict[str, str]:
    """Flat key=value config; '#' starts a comment, flags override file values."""
    cfg: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputFormatError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        cfg[key.strip().replace("-", "_")] = value.strip()
    return cfg


def _resolve(flag, cfg: dict[str, str], key: str, cast, default):
    """Flag value, else the config value, else the default; numbers must be finite."""
    if flag is not None:
        value = flag
    elif key in cfg:
        try:
            value = cast(cfg[key])
        except ValueError as exc:
            raise InputFormatError(f"config key {key!r}: {exc}") from exc
    else:
        return default
    if isinstance(value, float) and not math.isfinite(value):
        raise InputFormatError(f"{key} must be finite, got {value!r}")
    return value


def _run_config(cfg: dict[str, str], **flags) -> RunConfig:
    base = RunConfig()
    spec = (
        ("q", "q", float),
        ("alpha", "alpha", float),
        ("n_start", "n_start", int),
        ("steps", "steps", int),
        ("rel_tol", "tol", float),
        ("seed", "seed", int),
        ("fmt", "format", str),
    )
    values = {
        name: _resolve(flags.get(name), cfg, key, cast, getattr(base, name))
        for name, key, cast in spec
    }
    return RunConfig(**values)


def _print_csv(header: list[str], rows: list[list[str]], trailer: str | None = None) -> None:
    out = [",".join(header)]
    out.extend(",".join(row) for row in rows)
    if trailer is not None:
        out.append(trailer)
    click.echo("\n".join(out))


@click.group()
def main() -> None:
    """Numerical toolkit for q-fractional calculus on geometric time scales."""


@main.command("eval")
@click.argument("kind", type=click.Choice(["gamma", "qfac", "ml", "eq", "Eq"]))
@click.option("--q", type=float, default=None, help="Base in (0, 1); default 0.5.")
@click.option("--alpha", type=float, default=None, help="Order parameter.")
@click.option("--beta", type=float, default=None, help="Second Mittag-Leffler index; default 1.")
@click.option("--lambda", "lam", type=float, default=None, help="Series coefficient; default 0.")
@click.option("--t", type=float, default=None, help="Evaluation point.")
@click.option("--t0", type=float, default=None, help="Series lower point; default 0.")
@click.option("--s", type=float, default=None, help="Second factorial-power argument.")
@click.option("--nu", type=float, default=None, help="Factorial-power exponent.")
@click.option("--tol", type=float, default=None, help="Relative tolerance; default 1e-12.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default=None)
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
@_cli_errors
def cmd_eval(kind, q, alpha, beta, lam, t, t0, s, nu, tol, fmt, config_path):
    """Evaluate one primitive and print an (input, value, terms_used) row."""
    cfg = load_config(config_path) if config_path else {}
    rc = _run_config(cfg, q=q, rel_tol=tol, fmt=fmt)
    q, tolerance = rc.q, rc.tolerance

    def need(name, value):
        if value is None:
            raise InputFormatError(f"eval {kind} needs --{name}")
        return value

    if kind == "gamma":
        alpha = need("alpha", _resolve(alpha, cfg, "alpha", float, None))
        label = f"alpha={_fmt(alpha)};q={_fmt(q)}"
        value = gamma_q(alpha, q, tolerance)
        terms = product_truncation_index(q, tolerance.max_terms)
    elif kind == "qfac":
        t = need("t", _resolve(t, cfg, "t", float, None))
        s = need("s", _resolve(s, cfg, "s", float, None))
        nu = need("nu", _resolve(nu, cfg, "nu", float, None))
        label = f"t={_fmt(t)};s={_fmt(s)};nu={_fmt(nu)};q={_fmt(q)}"
        value = q_factorial_power(t, s, nu, q, tolerance)
        terms = product_truncation_index(q, tolerance.max_terms)
    elif kind == "ml":
        alpha = need("alpha", _resolve(alpha, cfg, "alpha", float, None))
        t = need("t", _resolve(t, cfg, "t", float, None))
        beta = _resolve(beta, cfg, "beta", float, 1.0)
        lam = _resolve(lam, cfg, "lambda", float, 0.0)
        t0 = _resolve(t0, cfg, "t0", float, 0.0)
        label = (
            f"alpha={_fmt(alpha)};beta={_fmt(beta)};lambda={_fmt(lam)};"
            f"t={_fmt(t)};t0={_fmt(t0)};q={_fmt(q)}"
        )
        res = mittag_leffler(MLSpec(alpha, beta, lam, t0, tolerance), t, q)
        value, terms = res.value, res.terms_used
    else:  # eq or Eq
        t = need("t", _resolve(t, cfg, "t", float, None))
        label = f"t={_fmt(t)};q={_fmt(q)}"
        evaluate = _q_exp_small_with_terms if kind == "eq" else _q_exp_big_with_terms
        value, terms = evaluate(t, q, tolerance)

    if rc.fmt == "json":
        click.echo(
            json.dumps(
                {"kind": kind, "rows": [{"input": label, "terms_used": terms, "value": value}]},
                sort_keys=True,
            )
        )
    else:
        _print_csv(["input", "value", "terms_used"], [[label, _fmt(value), str(terms)]])


def _forcing_fn(name: str):
    if name == "zero":
        return lambda t: 0.0
    if name == "identity":
        return lambda t: t
    raise InputFormatError(f"unknown forcing {name!r} (choose zero or identity)")


@main.command("solve")
@click.option("--problem", type=click.Choice(["linear", "sin"]), default=None,
              help="linear: y' = lambda y + forcing; sin: y' = lambda sin(y).")
@click.option("--q", type=float, default=None)
@click.option("--alpha", type=float, default=None)
@click.option("--lambda", "lam", type=float, default=None,
              help="Coefficient (the Lipschitz constant for --problem sin).")
@click.option("--y0", type=float, default=None)
@click.option("--n-start", type=int, default=None,
              help="Anchor exponent; default steps-1 so the window ends at t = 1.")
@click.option("--steps", type=int, default=None)
@click.option("--forcing", type=click.Choice(["zero", "identity"]), default=None)
@click.option("--methods", type=str, default=None,
              help="Comma list from closed,iter,march.")
@click.option("--tol", type=float, default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default=None)
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
@_cli_errors
def cmd_solve(problem, q, alpha, lam, y0, n_start, steps, forcing, methods, tol, fmt, config_path):
    """Solve an initial value problem; one CSV row per grid point."""
    import numpy as np

    from .solver import (
        LinearIVP,
        NonlinearIVP,
        linear_defect,
        nonlinear_defect,
        solve_linear_closed,
        solve_linear_iterative,
        solve_marching,
    )

    cfg = load_config(config_path) if config_path else {}
    rc = _run_config(cfg, q=q, alpha=alpha, n_start=n_start, steps=steps, rel_tol=tol, fmt=fmt)
    problem = _resolve(problem, cfg, "problem", str, "linear")
    lam = _resolve(lam, cfg, "lambda", float, 0.0)
    y0 = _resolve(y0, cfg, "y0", float, 1.0)
    forcing_name = _resolve(forcing, cfg, "forcing", str, "zero")
    default_methods = "closed,iter,march" if problem == "linear" else "march"
    methods = _resolve(methods, cfg, "methods", str, default_methods)
    wanted = [m.strip() for m in methods.split(",") if m.strip()]
    unknown = [m for m in wanted if m not in ("closed", "iter", "march")]
    if unknown:
        raise InputFormatError(f"unknown methods {unknown}; choose from closed,iter,march")
    if problem == "sin" and any(m != "march" for m in wanted):
        raise InputFormatError("--problem sin supports only the march method")

    tolerance = rc.tolerance
    grid = rc.grid()
    order = FracOrder(rc.alpha)
    f_of_t = _forcing_fn(forcing_name)
    solutions: dict[str, np.ndarray] = {}
    defects: list[np.ndarray] = []
    if problem == "linear":
        p = LinearIVP(
            alpha=order, lam=lam, a_index=0, y0=y0,
            forcing=GridFn.from_callable(grid, f_of_t),
        )
        if "closed" in wanted:
            rep = solve_linear_closed(p, tolerance)
            solutions["y_closed"] = rep.solution.values
            defects.append(linear_defect(p, rep.solution, tolerance))
        if "iter" in wanted:
            rep = solve_linear_iterative(p, tol=tolerance)
            solutions["y_iter"] = rep.solution.values
            defects.append(linear_defect(p, rep.solution, tolerance))
        if "march" in wanted:
            ivp = NonlinearIVP(
                grid=grid, alpha=order, a_index=0, y0=y0,
                rhs=lambda t, y: lam * y + f_of_t(t), lipschitz=abs(lam),
            )
            rep = solve_marching(ivp, tolerance)
            solutions["y_march"] = rep.solution.values
            defects.append(nonlinear_defect(ivp, rep.solution, tolerance))
    else:
        ivp = NonlinearIVP(
            grid=grid, alpha=order, a_index=0, y0=y0,
            rhs=lambda t, y: lam * math.sin(y), lipschitz=abs(lam),
        )
        rep = solve_marching(ivp, tolerance)
        solutions["y_march"] = rep.solution.values
        defects.append(nonlinear_defect(ivp, rep.solution, tolerance))

    defect = np.maximum.reduce(defects)
    columns = ["t"] + [c for c in ("y_closed", "y_iter", "y_march") if c in solutions] + ["defect"]
    rows = []
    for i, t in enumerate(grid.points):
        row = [_fmt(t)]
        row += [_fmt(solutions[c][i]) for c in columns[1:-1]]
        row.append(_fmt(defect[i]))
        rows.append(row)
    if rc.fmt == "json":
        payload = [dict(zip(columns, (float(v) for v in row))) for row in rows]
        click.echo(json.dumps({"rows": payload}, sort_keys=True))
    else:
        _print_csv(columns, rows)


def _read_csv_table(path: str | Path) -> tuple[list[str], list[list[float]]]:
    lines = [
        ln for ln in Path(path).read_text(encoding="utf-8").splitlines()
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines:
        raise InputFormatError(f"{path}: empty table")
    header = [h.strip() for h in lines[0].split(",")]
    rows: list[list[float]] = []
    for lineno, ln in enumerate(lines[1:], 2):
        cells = ln.split(",")
        if len(cells) != len(header):
            raise InputFormatError(f"{path}:{lineno}: expected {len(header)} columns")
        try:
            row = [float(c) for c in cells]
        except ValueError as exc:
            raise InputFormatError(f"{path}:{lineno}: {exc}") from exc
        if not all(math.isfinite(x) for x in row):
            raise InputFormatError(f"{path}:{lineno}: non-finite value in {ln.strip()!r}")
        rows.append(row)
    return header, rows


def _grid_from_t_column(ts: list[float], q: float) -> QGrid:
    _check_q(q)  # before the log below, which fails on q <= 0 and q == 1
    if not ts or ts[0] <= 0.0:
        raise InputFormatError("t column must start with a positive anchor")
    n_start = round(math.log(ts[0]) / math.log(q))
    try:
        grid = make_grid(q, n_start, len(ts))
    except QFracError as exc:
        raise InputFormatError(f"t column does not fit a q-power grid: {exc}") from exc
    for k, (got, want) in enumerate(zip(ts, grid.points)):
        if abs(got - want) > 1e-9 * abs(want):
            raise InputFormatError(
                f"t[{k}]={got!r} is not the q-power grid point {want!r} (rel tol 1e-9)"
            )
    return grid


@main.command("bound")
@click.argument("input_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("--q", type=float, default=None)
@click.option("--alpha", type=float, default=None)
@click.option("--mu", type=float, default=None,
              help="Constant coefficient when the table has no mu column.")
@click.option("--tol", type=float, default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default=None)
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
@_cli_errors
def cmd_bound(input_csv, q, alpha, mu, tol, fmt, config_path):
    """Compute the Gronwall-type bound for (t, v, mu) rows from a CSV table.

    The t column must match the q-power grid implied by its anchor within
    1e-9 relative error; solve output (t plus one value column) is accepted
    directly with --mu supplying the constant coefficient.  Every cell must
    be finite.  The trailer's terms_used counts the grid rows solved.
    """
    from .gronwall import GronwallInput, gronwall_bound

    cfg = load_config(config_path) if config_path else {}
    rc = _run_config(cfg, q=q, alpha=alpha, rel_tol=tol, fmt=fmt)
    mu = _resolve(mu, cfg, "mu", float, None)

    header, rows = _read_csv_table(input_csv)
    if "t" not in header:
        raise InputFormatError(f"{input_csv}: missing t column")
    cols = {name: [row[k] for row in rows] for k, name in enumerate(header)}
    if "v" in header:
        v_name = "v"
    else:
        candidates = [h for h in header if h not in ("t", "mu", "defect")]
        if len(candidates) != 1:
            raise InputFormatError(
                f"{input_csv}: cannot identify the value column among {candidates}"
            )
        v_name = candidates[0]
    grid = _grid_from_t_column(cols["t"], rc.q)
    v = GridFn(grid, cols[v_name])
    if "mu" in header:
        mu_fn = GridFn(grid, cols["mu"])
    elif mu is not None:
        mu_fn = GridFn.constant(grid, mu)
    else:
        raise InputFormatError(f"{input_csv}: no mu column and no --mu constant given")

    try:
        result = gronwall_bound(
            GronwallInput(v=v, mu=mu_fn, alpha=FracOrder(rc.alpha), a_index=0),
            rc.tolerance,
        )
    except PreconditionError as exc:
        ts = [grid.points[i] for i in exc.indices]
        raise PreconditionError(
            f"admissibility ceiling violated at t values {ts}", indices=exc.indices
        ) from exc

    out_rows = [
        [_fmt(t), _fmt(v.values[i]), _fmt(result.bound.values[i]),
         "true" if result.satisfied[i] else "false"]
        for i, t in enumerate(grid.points)
    ]
    if rc.fmt == "json":
        click.echo(
            json.dumps(
                {
                    "max_violation": result.max_violation,
                    "rows": [
                        {"bound": float(result.bound.values[i]),
                         "satisfied": bool(result.satisfied[i]),
                         "t": t, "v": float(v.values[i])}
                        for i, t in enumerate(grid.points)
                    ],
                    "terms_used": result.terms_used,
                },
                sort_keys=True,
            )
        )
    else:
        trailer = (
            f"# max_violation={_fmt(result.max_violation)} terms_used={result.terms_used}"
        )
        _print_csv(["t", "v", "bound", "satisfied"], out_rows, trailer)


@main.command("verify")
@click.argument("suite")
@click.option("--seed", type=int, default=None, help="Seed for randomized suites; default 7.")
@click.option("--cases", type=int, default=None,
              help="Random cases per parameter combination; fixed-table suites reject it.")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
@_cli_errors
def cmd_verify(suite, seed, cases, config_path):
    """Run a verification suite and print its JSON report; exit 0 iff clean."""
    from .verify import available_suites, run_suite

    cfg = load_config(config_path) if config_path else {}
    rc = _run_config(cfg, seed=seed)
    cases = _resolve(cases, cfg, "cases", int, None)
    if suite not in available_suites():
        raise InputFormatError(
            f"unknown suite {suite!r}; choose from {', '.join(available_suites())}"
        )
    report = run_suite(suite, seed=rc.seed, cases=cases)
    click.echo(json.dumps(report, sort_keys=True, indent=2))
    if report["failures"]:
        sys.exit(1)


@main.command("demo")
@click.option("--L", "lipschitz", type=float, default=None, help="Lipschitz constant in [0, 1).")
@click.option("--alpha", type=float, default=None)
@click.option("--q", type=float, default=None)
@click.option("--gamma", type=float, default=None, help="First initial value; default 1.")
@click.option("--beta", type=float, default=None, help="Second initial value; default 0.9.")
@click.option("--steps", type=int, default=None)
@click.option("--n-start", type=int, default=None)
@click.option("--rhs", type=click.Choice(["sin", "linear"]), default=None)
@click.option("--tol", type=float, default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default=None)
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
@_cli_errors
def cmd_demo(lipschitz, alpha, q, gamma, beta, steps, n_start, rhs, tol, fmt, config_path):
    """Continuous dependence on initial values: solve twice, print the bound."""
    from .gronwall import DEPENDENCE_SLACK, dependence_experiment

    cfg = load_config(config_path) if config_path else {}
    rc = _run_config(cfg, q=q, alpha=alpha, n_start=n_start, steps=steps, rel_tol=tol, fmt=fmt)
    lipschitz = _resolve(lipschitz, cfg, "l", float, 0.5)
    gamma = _resolve(gamma, cfg, "gamma", float, 1.0)
    beta = _resolve(beta, cfg, "beta", float, 0.9)
    rhs_name = _resolve(rhs, cfg, "rhs", str, "sin")
    if not 0.0 <= lipschitz < 1.0:
        raise PreconditionError(f"--L must lie in [0, 1), got {lipschitz!r}")

    grid = rc.grid()
    if rhs_name == "sin":
        rhs_fn = lambda t, y: lipschitz * math.sin(y)
    else:
        rhs_fn = lambda t, y: lipschitz * y
    report = dependence_experiment(
        grid, 0, FracOrder(rc.alpha), gamma, beta, rhs_fn, lipschitz, rc.tolerance
    )
    rows = [
        [_fmt(t), _fmt(report.phi.values[i]), _fmt(report.psi.values[i]),
         _fmt(report.abs_diff[i]), _fmt(report.bound[i]),
         "true" if report.abs_diff[i] <= report.bound[i] + DEPENDENCE_SLACK else "false"]
        for i, t in enumerate(grid.points)
    ]
    if rc.fmt == "json":
        click.echo(
            json.dumps(
                {
                    "bound_holds": report.bound_holds,
                    "max_excess": report.max_excess,
                    "rows": [
                        {"abs_diff": float(report.abs_diff[i]),
                         "bound": float(report.bound[i]),
                         "phi": float(report.phi.values[i]),
                         "psi": float(report.psi.values[i]), "t": t}
                        for i, t in enumerate(grid.points)
                    ],
                },
                sort_keys=True,
            )
        )
    else:
        _print_csv(["t", "phi", "psi", "abs_diff", "bound", "satisfied"], rows)


if __name__ == "__main__":  # pragma: no cover
    main()
