"""Seeded workload generators, the op each one times, and the check run on
every op's output outside the timed region.

Every workload hands out its ops in blocks.  Block ``b`` of a run with seed
``s`` draws from ``numpy.random.default_rng([s, workload_id, b, stream])``,
so the inputs depend only on the seed and the block index.  Within a block
the parameters that set an op's cost are stratified (see ``_design``), and a
run stops only at the end of a stride of blocks, so every run holds the same
spread of op costs rather than a lucky or unlucky draw.  Nothing drawn is
ever filtered or redrawn; an op that raises is a failed op.
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import qfrac
from qfrac.gronwall import sart_bound

#: case count of ``run_suite("all")``; the same for every seed.
VERIFY_ALL_CASES = 1289
#: sup-norm agreement demanded between two solvers (suite ``solver``).
SOLVER_TOL = 1e-7
#: defect a solver may leave in its own integral equation.
RESIDUAL_TOL = 1e-7
#: the tolerance the ``qfrac`` CLI builds from its default ``--tol 1e-12``.
CLI_TOL = qfrac.Tolerance(rel_tol=1e-12, abs_tol=1e-15, max_terms=10_000)


@dataclass
class Op:
    """One timed call.  ``run`` is timed; ``check(output)`` is not and returns
    a failure reason, or None when the output is correct."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


def _strata(rng: np.random.Generator, lo: float, hi: float, k: int) -> np.ndarray:
    """k draws from [lo, hi], one per equal-width slice, in random order."""
    edges = lo + (hi - lo) * (np.arange(k) + rng.uniform(0.0, 1.0, k)) / k
    return rng.permutation(edges)


def _design(w: "Workload", b: int, k_n: int, k_q: int) -> list[tuple]:
    """(q, N, alpha, lam) for block ``b``: every pairing of k_n slices of the N
    range with k_q slices of the q range, one draw per cell; alpha takes one
    of k_n * k_q slices per cell and lam is uniform.

    N and q set an op's cost, so every block holds the same spread of costs.
    Blocks come in antithetic pairs: an odd block mirrors the previous
    block's position u within each cell to 1 - u, which cancels most of the
    cost difference that the within-cell draws would leave between runs."""
    cells = k_n * k_q
    rng = w.rng(b, 1)
    u = w.rng(b - b % 2, 2).uniform(0.0, 1.0, (2, cells))
    if b % 2:
        u = 1.0 - u
    i, j = np.divmod(np.arange(cells), k_q)
    (n_lo, n_hi), (q_lo, q_hi) = w.ranges["N"], w.ranges["q"]
    ns = np.floor(n_lo + (n_hi + 1 - n_lo) * (i + u[0]) / k_n).astype(int)
    qs = q_lo + (q_hi - q_lo) * (j + u[1]) / k_q
    alphas = _strata(rng, *w.ranges["alpha"], cells)
    lams = rng.uniform(*w.ranges["lam"], cells)
    order = rng.permutation(cells)
    return [(float(qs[c]), int(ns[c]), float(alphas[c]), float(lams[c])) for c in order]


def _window(q: float, n: int) -> qfrac.QGrid:
    """The n-point window of {q**k} that ends at t = 1."""
    return qfrac.make_grid(q, n - 1, n)


class Workload:
    name = ""
    ident = 0
    #: a timed run stops only after a multiple of this many blocks
    stride = 1

    def __init__(self, seed: int, root: Path, tmp: Path, env: dict[str, str]):
        self.seed = seed
        self.root = root
        self.tmp = tmp
        self.env = env

    def rng(self, block: int, stream: int = 0) -> np.random.Generator:
        """Independent generator per (block, stream) of this run's seed."""
        return np.random.default_rng([self.seed, self.ident, block, stream])

    def block(self, b: int) -> list[Op]:
        raise NotImplementedError


class VerifyAll(Workload):
    """An op is one ``run_suite("all", s)`` with its own derived suite seed."""

    name = "verify_all"
    ident = 1

    def block(self, b: int) -> list[Op]:
        suite_seed = int(self.rng(b).integers(0, 2**31 - 1))

        def check(report: dict) -> str | None:
            if report["failures"]:
                return f"{len(report['failures'])} failures, first: {report['failures'][0]}"
            if report["cases"] != VERIFY_ALL_CASES or report["seed"] != suite_seed:
                return f"report covers {report['cases']} cases for seed {report['seed']}"
            return None

        return [Op(f"run_suite('all', seed={suite_seed})",
                   lambda: qfrac.run_suite("all", seed=suite_seed), check)]


class WideWindow(Workload):
    """Six instances per block (2 x 3 slices of N and q).  Each runs three
    ops on one window ending at t = 1: successive approximation, marching,
    and the Gronwall bound on the marched solution."""

    name = "wide_window"
    ident = 2
    stride = 2  # whole antithetic pairs, see _design
    ranges = {"q": (0.85, 0.95), "N": (48, 128), "alpha": (0.3, 1.0), "lam": (0.1, 0.5)}

    def block(self, b: int) -> list[Op]:
        rng = self.rng(b)
        ops: list[Op] = []
        for q, n, al, lam in _design(self, b, 2, 3):
            ops.extend(self._instance(q, n, al, lam, rng))
        return ops

    @staticmethod
    def _instance(q: float, n: int, al: float, lam: float, rng) -> list[Op]:
        grid = _window(q, n)
        order = qfrac.FracOrder(al)
        tag = f"q={q!r} N={n} alpha={al!r} lam={lam!r}"
        linear = qfrac.LinearIVP(alpha=order, lam=lam, a_index=0, y0=1.0,
                                 forcing=qfrac.GridFn(grid, grid.t))
        ivp = qfrac.NonlinearIVP(grid=grid, alpha=order, a_index=0, y0=1.0,
                                 rhs=lambda t, y: lam * math.sin(y) + t, lipschitz=lam)
        mu = qfrac.GridFn(grid, rng.uniform(0.0, 0.98, n) * sart_bound(grid, order))
        marched: list[qfrac.SolveReport] = []

        def residual_ok(rep: qfrac.SolveReport) -> str | None:
            if not rep.residual <= RESIDUAL_TOL:
                return f"residual {rep.residual!r} > {RESIDUAL_TOL}"
            return None

        def march():
            rep = qfrac.solve_marching(ivp)
            marched.append(rep)
            return rep

        def bound():
            if not marched:
                raise RuntimeError("marching op of this instance did not succeed")
            v = marched[0].solution
            return v, qfrac.gronwall_bound(qfrac.GronwallInput(v=v, mu=mu, alpha=order, a_index=0))

        def bound_ok(out) -> str | None:
            v, res = out
            vals = res.bound.values
            if not np.all(np.isfinite(vals)):
                return "bound is not finite"
            if not np.all(vals >= v.values[0]):
                return "bound falls below v(a)"
            return None

        return [
            Op(f"solve_linear_iterative {tag}", lambda: qfrac.solve_linear_iterative(linear),
               residual_ok),
            Op(f"solve_marching {tag}", march, residual_ok),
            Op(f"gronwall_bound {tag}", bound, bound_ok),
        ]


class ClosedForm(Workload):
    """An op is one ``solve_linear_closed`` with identity forcing; half of each
    block uses the modified Mittag-Leffler representation."""

    name = "closed_form"
    ident = 3
    stride = 2  # whole antithetic pairs, see _design
    ranges = {"q": (0.3, 0.8), "N": (12, 32), "alpha": (0.3, 1.0), "lam": (0.1, 0.5)}

    def block(self, b: int) -> list[Op]:
        design = _design(self, b, 4, 4)
        modified = self.rng(b).permutation([c % 2 == 1 for c in range(len(design))])
        return [self._op(q, n, al, lam, bool(m)) for (q, n, al, lam), m in zip(design, modified)]

    @staticmethod
    def _op(q: float, n: int, al: float, lam: float, modified: bool) -> Op:
        grid = _window(q, n)
        p = qfrac.LinearIVP(alpha=qfrac.FracOrder(al), lam=lam, a_index=0, y0=1.0,
                            forcing=qfrac.GridFn(grid, grid.t))

        def check(rep: qfrac.SolveReport) -> str | None:
            ref = qfrac.solve_linear_iterative(p).solution.values
            err = float(np.max(np.abs(rep.solution.values - ref)))
            if not err <= SOLVER_TOL:
                return f"differs from solve_linear_iterative by {err!r}"
            return None

        return Op(f"solve_linear_closed q={q!r} N={n} alpha={al!r} lam={lam!r} modified={modified}",
                  lambda: qfrac.solve_linear_closed(p, via_modified_ml=modified), check)


def _csv(text: str) -> tuple[list[str], list[list[str]], list[str]]:
    """Header, data rows and '#' trailer lines of CLI CSV output."""
    lines = text.strip("\n").split("\n")
    rows = [ln.split(",") for ln in lines[1:] if not ln.startswith("#")]
    return lines[0].split(","), rows, [ln for ln in lines[1:] if ln.startswith("#")]


def _same(got: list[str], want) -> bool:
    """CLI cells equal the in-process floats to all 17 printed digits."""
    return len(got) == len(want) and all(float(g) == float(w) for g, w in zip(got, want))


class Cli(Workload):
    """A block is one round of six ``python -m qfrac`` processes, run one at a
    time; ``bound`` reads the CSV that the round's marching solve wrote."""

    name = "cli"
    ident = 4

    def __init__(self, seed: int, root: Path, tmp: Path, env: dict[str, str]):
        super().__init__(seed, root, tmp, env)
        #: argv after the interpreter; a traced run swaps in the tracing stand-in
        self.launcher = ["-m", "qfrac"]
        self.verify_stdout: bytes | None = None

    def process(self, args: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *self.launcher, *args], cwd=self.root,
                              env=self.env, capture_output=True, timeout=120)

    def block(self, b: int) -> list[Op]:
        rng = self.rng(b)
        u = rng.uniform
        csv_path = self.tmp / f"march-{b}.csv"
        ops = [
            self._eval_gamma(float(u(0.3, 3.0)), float(u(0.3, 0.9))),
            self._eval_ml(float(u(0.3, 1.0)), float(u(0.1, 0.5)), float(u(0.2, 1.0)),
                          float(u(0.3, 0.8))),
            self._solve_linear(float(u(0.3, 0.8)), float(u(0.3, 1.0)), float(u(0.1, 0.5)),
                               int(rng.integers(8, 17))),
        ]
        q, al, lam = float(u(0.3, 0.8)), float(u(0.3, 1.0)), float(u(0.1, 0.5))
        steps = int(rng.integers(8, 25))
        mu = float(u(0.1, 0.9)) * (1.0 - q) ** -al
        ops.append(self._solve_sin(q, al, lam, steps, csv_path))
        ops.append(self._bound(q, al, mu, steps, csv_path))
        ops.append(self._verify_gamma())
        return ops

    def _op(self, label: str, args: list[str], check: Callable[[str], str | None],
            after: Callable[[bytes], None] | None = None) -> Op:
        def run():
            return self.process(args)

        def checked(proc: subprocess.CompletedProcess) -> str | None:
            if proc.returncode != 0:
                return f"exit code {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}"
            if after is not None:
                after(proc.stdout)
            return check(proc.stdout.decode())

        return Op(f"qfrac {label}", run, checked)

    def _eval_gamma(self, al: float, q: float) -> Op:
        def check(out: str) -> str | None:
            _, rows, _ = _csv(out)
            want = [qfrac.gamma_q(al, q, CLI_TOL), qfrac.product_truncation_index(q)]
            return None if _same(rows[0][1:], want) else f"got {rows[0][1:]}, in-process {want}"

        args = ["eval", "gamma", "--alpha", repr(al), "--q", repr(q)]
        return self._op(" ".join(args), args, check)

    def _eval_ml(self, al: float, lam: float, t: float, q: float) -> Op:
        def check(out: str) -> str | None:
            _, rows, _ = _csv(out)
            res = qfrac.mittag_leffler(qfrac.MLSpec(al, 1.0, lam, 0.0, CLI_TOL), t, q)
            want = [res.value, res.terms_used]
            return None if _same(rows[0][1:], want) else f"got {rows[0][1:]}, in-process {want}"

        args = ["eval", "ml", "--alpha", repr(al), "--lambda", repr(lam), "--t", repr(t),
                "--q", repr(q)]
        return self._op(" ".join(args), args, check)

    def _solve_linear(self, q: float, al: float, lam: float, steps: int) -> Op:
        def check(out: str) -> str | None:
            grid = _window(q, steps)
            order = qfrac.FracOrder(al)
            p = qfrac.LinearIVP(alpha=order, lam=lam, a_index=0, y0=1.0,
                                forcing=qfrac.GridFn(grid, grid.t))
            ivp = qfrac.NonlinearIVP(grid=grid, alpha=order, a_index=0, y0=1.0,
                                     rhs=lambda t, y: lam * y + t, lipschitz=lam)
            closed = qfrac.solve_linear_closed(p, CLI_TOL).solution
            it = qfrac.solve_linear_iterative(p, tol=CLI_TOL).solution
            march = qfrac.solve_marching(ivp, CLI_TOL).solution
            defect = np.maximum.reduce([
                qfrac.linear_defect(p, closed, CLI_TOL), qfrac.linear_defect(p, it, CLI_TOL),
                qfrac.nonlinear_defect(ivp, march, CLI_TOL)])
            want = [grid.t, closed.values, it.values, march.values, defect]
            return self._columns(out, ["t", "y_closed", "y_iter", "y_march", "defect"], want)

        args = ["solve", "--problem", "linear", "--forcing", "identity", "--q", repr(q),
                "--alpha", repr(al), "--lambda", repr(lam), "--steps", str(steps)]
        return self._op(" ".join(args), args, check)

    def _solve_sin(self, q: float, al: float, lam: float, steps: int, csv_path: Path) -> Op:
        def check(out: str) -> str | None:
            grid = _window(q, steps)
            ivp = qfrac.NonlinearIVP(grid=grid, alpha=qfrac.FracOrder(al), a_index=0, y0=1.0,
                                     rhs=lambda t, y: lam * math.sin(y), lipschitz=lam)
            march = qfrac.solve_marching(ivp, CLI_TOL).solution
            want = [grid.t, march.values, qfrac.nonlinear_defect(ivp, march, CLI_TOL)]
            return self._columns(out, ["t", "y_march", "defect"], want)

        args = ["solve", "--problem", "sin", "--methods", "march", "--q", repr(q),
                "--alpha", repr(al), "--lambda", repr(lam), "--steps", str(steps)]
        return self._op(" ".join(args), args, check, after=csv_path.write_bytes)

    def _bound(self, q: float, al: float, mu: float, steps: int, csv_path: Path) -> Op:
        def check(out: str) -> str | None:
            _, rows, _ = _csv(csv_path.read_text())
            grid = _window(q, steps)
            v = qfrac.GridFn(grid, np.array([float(r[1]) for r in rows]))
            res = qfrac.gronwall_bound(qfrac.GronwallInput(
                v=v, mu=qfrac.GridFn.constant(grid, mu), alpha=qfrac.FracOrder(al), a_index=0),
                CLI_TOL, 2048)
            bad = self._columns(out, ["t", "v", "bound"], [grid.t, v.values, res.bound.values])
            if bad:
                return bad
            _, got_rows, got_trailer = _csv(out)
            flags = ["true" if s else "false" for s in res.satisfied]
            if [r[3] for r in got_rows] != flags:
                return "satisfied column differs from the in-process flags"
            want = f"# max_violation={res.max_violation:.17g} terms_used={res.terms_used}"
            return None if got_trailer == [want] else f"trailer {got_trailer} != {want!r}"

        args = ["bound", str(csv_path.relative_to(self.root)), "--q", repr(q),
                "--alpha", repr(al), "--mu", repr(mu)]
        return self._op(" ".join(args), args, check)

    def _verify_gamma(self) -> Op:
        def keep(stdout: bytes) -> None:
            if self.verify_stdout is None:
                self.verify_stdout = stdout

        def check(out: str) -> str | None:
            if out.encode() != self.verify_stdout:
                return "stdout differs from the first verify gamma of this run"
            want = qfrac.run_suite("gamma", seed=self.seed)
            return None if json.loads(out) == want else "report differs from run_suite('gamma')"

        args = ["verify", "gamma", "--seed", str(self.seed)]
        return self._op(" ".join(args), args, check, after=keep)

    @staticmethod
    def _columns(out: str, names: list[str], want: list) -> str | None:
        header, rows, _ = _csv(out)
        if header[: len(names)] != names:
            return f"header {header}, expected {names}"
        for k, name in enumerate(names):
            col = [r[k] for r in rows]
            if not _same(col, want[k]):
                return f"column {name} differs from the in-process call"
        return None


WORKLOADS = {w.name: w for w in (VerifyAll, WideWindow, ClosedForm, Cli)}
