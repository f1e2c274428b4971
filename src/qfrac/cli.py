"""Command-line front end.

Subcommands: ``eval`` (primitives), ``solve`` (initial value problems),
``bound`` (Gronwall-type bound over a CSV of samples), ``verify`` (seeded
property suites, JSON report), ``demo`` (continuous-dependence experiment).

Exit codes: 0 success, 1 generic error, 2 hypothesis/precondition violation,
3 input-format error.  Errors are emitted as one JSON object on stderr.
``eval``, ``solve``, ``bound`` and ``demo`` print one table through
:func:`_print_table`.  CSV output uses UTF-8, comma separators, ``\\n`` line
endings, a header row, 17-significant-digit floats (diffable and round-trip
safe) and ``true``/``false`` for flags; ``bound`` adds a trailing
``# max_violation=... terms_used=...`` line.  ``--format json`` prints the
same rows as ``{"rows": [{column: value, ...}], **summary}`` with sorted keys:
the summary is ``kind`` for eval, ``max_violation`` and ``terms_used`` for
bound, ``bound_holds`` and ``max_excess`` for demo (whose JSON rows leave out
``satisfied``), and empty for solve.
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
    _q_factorial_power_with_terms,
    gamma_q,
    make_grid,
    product_truncation_index,
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


def _grid(q: float, n_start: int | None, steps: int) -> QGrid:
    """The window of ``steps`` points from q**n_start; without n_start it ends at t = 1."""
    return make_grid(q, steps - 1 if n_start is None else n_start, steps)


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


def _with_config(fn):
    """Declare ``--config`` and fill each option left at its default from that file.

    A key is the option's long name without dashes (``--n-start`` -> ``n_start``,
    ``--L`` -> ``l``); keys the command has no option for are ignored.  Flags
    override file values, which override the defaults; every float must be finite.
    Apply it under :func:`_cli_errors`, which reports the errors it raises.
    """

    @functools.wraps(fn)
    def wrapper(config_path, **values):
        ctx = click.get_current_context()
        cfg = load_config(config_path) if config_path else {}
        for param in ctx.command.params:
            if not isinstance(param, click.Option) or param.name not in values:
                continue  # arguments, and --config itself
            key = param.opts[0].lstrip("-").replace("-", "_").lower()
            source = ctx.get_parameter_source(param.name)
            if key in cfg and source is click.core.ParameterSource.DEFAULT:
                cast = {"float": float, "integer": int}.get(param.type.name, str)
                try:
                    values[param.name] = cast(cfg[key])
                except ValueError as exc:
                    raise InputFormatError(f"config key {key!r}: {exc}") from exc
            value = values[param.name]
            if isinstance(value, float) and not math.isfinite(value):
                raise InputFormatError(f"{key} must be finite, got {value!r}")
        return fn(**values)

    return click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
                        help="key=value file; a key is a long flag name without dashes.")(wrapper)


def _cell(x) -> str:
    """One CSV cell: 17 significant digits for a float, true/false for a bool."""
    if isinstance(x, bool):
        return "true" if x else "false"
    return _fmt(x) if isinstance(x, float) else str(x)


def _print_table(fmt: str, header: list[str], rows: list, summary: dict | None = None, *,
                 trailer: bool = False, json_skip: tuple[str, ...] = ()) -> None:
    """Print rows of Python values under ``header`` as CSV or as JSON.

    JSON is ``{"rows": [{column: value}], **summary}`` with sorted keys,
    leaving out the columns in ``json_skip``.  CSV is the header and one line
    per row; with ``trailer`` the summary follows as a ``# key=value ...`` line.
    """
    summary = summary or {}
    if fmt == "json":
        keys = [(k, name) for k, name in enumerate(header) if name not in json_skip]
        table = [{name: row[k] for k, name in keys} for row in rows]
        click.echo(json.dumps({"rows": table, **summary}, sort_keys=True))
        return
    out = [",".join(header)]
    out.extend(",".join(map(_cell, row)) for row in rows)
    if trailer:
        out.append("# " + " ".join(f"{key}={_cell(value)}" for key, value in summary.items()))
    click.echo("\n".join(out))


@click.group(context_settings={"show_default": True})
def main() -> None:
    """Numerical toolkit for q-fractional calculus on geometric time scales."""


# options that several commands share, declared once
_q = click.option("--q", type=float, default=0.5, help="Base in (0, 1).")
_alpha = click.option("--alpha", type=float, default=0.5, help="Fractional order.")
_lambda = click.option("--lambda", "lam", type=float, default=0.0,
                       help="Coefficient of the eval ml series or of the solve right-hand side"
                            " (for --problem sin, its Lipschitz constant).")
_steps = click.option("--steps", type=int, default=12, help="Grid points in the window.")
_n_start = click.option("--n-start", type=int, default=None,
                        help="Anchor exponent; default steps-1 so the window ends at t = 1.")
_tol = click.option("--tol", type=float, default=1e-12, help="Relative tolerance.")
_format = click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
                       help="Output format.")


@main.command("eval")
@click.argument("kind", type=click.Choice(["gamma", "qfac", "ml", "eq", "Eq"]))
@_q
@click.option("--alpha", type=float, default=None, help="Order parameter; gamma and ml need it.")
@click.option("--beta", type=float, default=1.0, help="Second Mittag-Leffler index.")
@_lambda
@click.option("--t", type=float, default=None, help="Evaluation point.")
@click.option("--t0", type=float, default=0.0, help="Series lower point.")
@click.option("--s", type=float, default=None, help="Second factorial-power argument.")
@click.option("--nu", type=float, default=None, help="Factorial-power exponent.")
@_tol
@_format
@_cli_errors
@_with_config
def cmd_eval(kind, q, alpha, beta, lam, t, t0, s, nu, tol, fmt):
    """Evaluate one primitive and print an (input, value, terms_used) row."""
    tolerance = _tolerance(tol)

    def need(name, value):
        if value is None:
            raise InputFormatError(f"eval {kind} needs --{name}")
        return value

    if kind == "gamma":
        alpha = need("alpha", alpha)
        label = f"alpha={_fmt(alpha)};q={_fmt(q)}"
        value = gamma_q(alpha, q, tolerance)
        terms = product_truncation_index(q, tolerance.max_terms)
    elif kind == "qfac":
        t, s, nu = need("t", t), need("s", s), need("nu", nu)
        label = f"t={_fmt(t)};s={_fmt(s)};nu={_fmt(nu)};q={_fmt(q)}"
        value, terms = _q_factorial_power_with_terms(t, s, nu, q, tolerance)
    elif kind == "ml":
        alpha, t = need("alpha", alpha), need("t", t)
        label = (
            f"alpha={_fmt(alpha)};beta={_fmt(beta)};lambda={_fmt(lam)};"
            f"t={_fmt(t)};t0={_fmt(t0)};q={_fmt(q)}"
        )
        res = mittag_leffler(MLSpec(alpha, beta, lam, t0, tolerance), t, q)
        value, terms = res.value, res.terms_used
    else:  # eq or Eq
        t = need("t", t)
        label = f"t={_fmt(t)};q={_fmt(q)}"
        evaluate = _q_exp_small_with_terms if kind == "eq" else _q_exp_big_with_terms
        value, terms = evaluate(t, q, tolerance)

    _print_table(fmt, ["input", "value", "terms_used"], [[label, value, terms]], {"kind": kind})


def _forcing_fn(name: str):
    if name == "zero":
        return lambda t: 0.0
    if name == "identity":
        return lambda t: t
    raise InputFormatError(f"unknown forcing {name!r} (choose zero or identity)")


@main.command("solve")
@click.option("--problem", type=click.Choice(["linear", "sin"]), default="linear",
              help="linear: y' = lambda y + forcing; sin: y' = lambda sin(y).")
@_q
@_alpha
@_lambda
@click.option("--y0", type=float, default=1.0, help="Initial value.")
@_n_start
@_steps
@click.option("--forcing", type=click.Choice(["zero", "identity"]), default="zero",
              help="Forcing of the linear problem.")
@click.option("--methods", type=str, default=None,
              help="Comma list from closed,iter,march; default all three, or march for sin.")
@_tol
@_format
@_cli_errors
@_with_config
def cmd_solve(problem, q, alpha, lam, y0, n_start, steps, forcing, methods, tol, fmt):
    """Solve an initial value problem; one CSV row per grid point."""
    import numpy as np

    from .solver import (LinearIVP, NonlinearIVP, linear_defect, nonlinear_defect,
                         solve_linear_closed, solve_linear_iterative, solve_marching)

    if methods is None:
        methods = "closed,iter,march" if problem == "linear" else "march"
    wanted = [m.strip() for m in methods.split(",") if m.strip()]
    unknown = [m for m in wanted if m not in ("closed", "iter", "march")]
    if unknown:
        raise InputFormatError(f"unknown methods {unknown}; choose from closed,iter,march")
    if not wanted:
        raise InputFormatError("--methods names no method; choose from closed,iter,march")
    if problem == "sin" and any(m != "march" for m in wanted):
        raise InputFormatError("--problem sin supports only the march method")
    if problem == "sin" and forcing != "zero":
        raise InputFormatError("--problem sin takes no forcing: its right-hand side is lambda sin(y)")

    tolerance = _tolerance(tol)
    grid = _grid(q, n_start, steps)
    order = FracOrder(alpha)
    f_of_t = _forcing_fn(forcing)
    columns: dict[str, list] = {"t": list(grid.points)}
    defects: list[np.ndarray] = []
    if problem == "linear":
        p = LinearIVP(
            alpha=order, lam=lam, a_index=0, y0=y0,
            forcing=GridFn.from_callable(grid, f_of_t),
        )
        rhs = lambda t, y: lam * y + f_of_t(t)
    else:
        rhs = lambda t, y: lam * math.sin(y)
    if "closed" in wanted:
        rep = solve_linear_closed(p, tolerance)
        columns["y_closed"] = rep.solution.values.tolist()
        defects.append(linear_defect(p, rep.solution, tolerance))
    if "iter" in wanted:
        rep = solve_linear_iterative(p, tol=tolerance)
        columns["y_iter"] = rep.solution.values.tolist()
        defects.append(linear_defect(p, rep.solution, tolerance))
    if "march" in wanted:
        ivp = NonlinearIVP(grid=grid, alpha=order, a_index=0, y0=y0, rhs=rhs, lipschitz=abs(lam))
        rep = solve_marching(ivp, tolerance)
        columns["y_march"] = rep.solution.values.tolist()
        defects.append(nonlinear_defect(ivp, rep.solution, tolerance))
    columns["defect"] = np.maximum.reduce(defects).tolist()
    _print_table(fmt, list(columns), list(zip(*columns.values())))


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
@_q
@_alpha
@click.option("--mu", type=float, default=None,
              help="Constant coefficient when the table has no mu column.")
@_tol
@_format
@_cli_errors
@_with_config
def cmd_bound(input_csv, q, alpha, mu, tol, fmt):
    """Compute the Gronwall-type bound for (t, v, mu) rows from a CSV table.

    The t column must match the q-power grid implied by its anchor within
    1e-9 relative error; solve output (t plus one value column) is accepted
    directly with --mu supplying the constant coefficient.  Every cell must
    be finite.  The trailer's terms_used counts the grid rows solved.
    """
    from .gronwall import GronwallInput, gronwall_bound

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
    grid = _grid_from_t_column(cols["t"], q)
    v = GridFn(grid, cols[v_name])
    if "mu" in header:
        mu_fn = GridFn(grid, cols["mu"])
    elif mu is not None:
        mu_fn = GridFn.constant(grid, mu)
    else:
        raise InputFormatError(f"{input_csv}: no mu column and no --mu constant given")

    try:
        result = gronwall_bound(
            GronwallInput(v=v, mu=mu_fn, alpha=FracOrder(alpha), a_index=0),
            _tolerance(tol),
        )
    except PreconditionError as exc:
        ts = [grid.points[i] for i in exc.indices]
        raise PreconditionError(
            f"admissibility ceiling violated at t values {ts}", indices=exc.indices
        ) from exc

    rows = list(zip(grid.points, v.values.tolist(), result.bound.values.tolist(),
                    map(bool, result.satisfied)))
    _print_table(
        fmt, ["t", "v", "bound", "satisfied"], rows,
        {"max_violation": result.max_violation, "terms_used": result.terms_used},
        trailer=True,
    )


@main.command("verify")
@click.argument("suite")
@click.option("--seed", type=int, default=7, help="Seed for randomized suites.")
@click.option("--cases", type=int, default=None,
              help="Random cases per parameter combination; fixed-table suites reject it.")
@_cli_errors
@_with_config
def cmd_verify(suite, seed, cases):
    """Run a verification suite and print its JSON report; exit 0 iff clean."""
    from .verify import available_suites, run_suite

    if suite not in available_suites():
        raise InputFormatError(
            f"unknown suite {suite!r}; choose from {', '.join(available_suites())}"
        )
    report = run_suite(suite, seed=seed, cases=cases)
    click.echo(json.dumps(report, sort_keys=True, indent=2))
    if report["failures"]:
        sys.exit(1)


@main.command("demo")
@click.option("--L", "lipschitz", type=float, default=0.5, help="Lipschitz constant in [0, 1).")
@_alpha
@_q
@click.option("--gamma", type=float, default=1.0, help="First initial value.")
@click.option("--beta", type=float, default=0.9, help="Second initial value.")
@_steps
@_n_start
@click.option("--rhs", type=click.Choice(["sin", "linear"]), default="sin",
              help="Right-hand side: L sin(y) or L y.")
@_tol
@_format
@_cli_errors
@_with_config
def cmd_demo(lipschitz, alpha, q, gamma, beta, steps, n_start, rhs, tol, fmt):
    """Continuous dependence on initial values: solve twice, print the bound."""
    from .gronwall import DEPENDENCE_SLACK, dependence_experiment

    if not 0.0 <= lipschitz < 1.0:
        raise PreconditionError(f"--L must lie in [0, 1), got {lipschitz!r}")

    grid = _grid(q, n_start, steps)
    if rhs == "sin":
        rhs_fn = lambda t, y: lipschitz * math.sin(y)
    else:
        rhs_fn = lambda t, y: lipschitz * y
    report = dependence_experiment(
        grid, 0, FracOrder(alpha), gamma, beta, rhs_fn, lipschitz, _tolerance(tol)
    )
    rows = [
        [t, phi, psi, d, b, d <= b + DEPENDENCE_SLACK]
        for t, phi, psi, d, b in zip(grid.points, report.phi.values.tolist(),
                                     report.psi.values.tolist(), report.abs_diff.tolist(),
                                     report.bound.tolist())
    ]
    _print_table(
        fmt, ["t", "phi", "psi", "abs_diff", "bound", "satisfied"], rows,
        {"bound_holds": report.bound_holds, "max_excess": report.max_excess},
        json_skip=("satisfied",),
    )


if __name__ == "__main__":  # pragma: no cover
    main()
