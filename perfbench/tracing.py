"""Spans around qfrac's public functions, recorded from outside the package.

``Tracer.install`` rebinds each traced public name to a wrapper, in its home
module and in every other ``qfrac`` module that bound a copy at import, and
wraps the entries of the verify suite table.  Each call records one span:
name, start, end, parent span and op id, plus the work count the call
carries (series terms, iterations, or computed flops), whether it raised a
``QFracError``, and whether its argument key was already seen in this
process (the hit a cache keyed on those arguments would get).  Spans stay in
memory until the run ends; ``dump`` writes them out.

Run as a script, this file is the traced stand-in for ``python -m qfrac``:
``python3 perfbench/tracing.py SPANS_OUT ARGS...`` runs the CLI with ARGS
under a tracer and writes the spans to SPANS_OUT.
"""
from __future__ import annotations

import gzip
import sys
from array import array
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, NamedTuple


class Traced(NamedTuple):
    """How to read one traced function: the name of the work count it
    carries and how to get it, and the argument key that marks a repeat."""

    count_name: str | None = None
    count: Callable[..., int] | None = None  # (args, kwargs, result) -> int
    key: Callable[..., Any] | None = None  # (*args, **kwargs) -> hashable


def _result_count(args, kwargs, out) -> int:
    return int(getattr(out, "terms_used", None) or getattr(out, "iterations", 0))


def _matvec_flops(args, kwargs, out) -> int:
    """2 N**2 per dense kernel application (computed from the array size)."""
    kernel = args[1] if len(args) > 1 else kwargs["kernel"]
    return 2 * int(kernel.weights.size)


FUNCTIONS: dict[str, dict[str, Traced]] = {
    "qcore": {
        "q_factorial_power": Traced(),
        "gamma_q": Traced(key=lambda alpha, q, tol=None: (float(alpha), float(q), tol)),
    },
    "operators": {
        "build_kernel": Traced(key=lambda grid, a_index, alpha, tol=None:
                               (grid, a_index, alpha.alpha, tol)),
        "fractional_integral": Traced("flops_computed", _matvec_flops),
    },
    "special": {
        "mittag_leffler": Traced("terms", _result_count),
        "mittag_leffler_modified": Traced("terms", _result_count),
    },
    "solver": {
        "solve_linear_closed": Traced(),
        "solve_linear_iterative": Traced("iterations", _result_count),
        "solve_marching": Traced("inner_iterations", _result_count),
    },
    "gronwall": {
        "gronwall_bound": Traced("terms", _result_count),
        "verify_comparison": Traced(),
        "march_integral_equation": Traced(),
    },
}
SUITES = ("lemma1", "gamma", "powerrule", "lemma22", "solver", "ratio", "gronwall",
          "comparison", "corollary", "dependence")
SPAN_HEADER = "span,name,start_s,end_s,parent,op,count,error,repeat"


class Tracer:
    #: span name of one benchmark op, the root of every span the op causes
    OP = "op"

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.count = array("q")
        self.error = array("b")
        self.repeat = array("b")  # -1: no key, 0: first sight, 1: seen before
        self.stack = [-1]
        self.op_id = -1
        self.active = True  # off while the harness checks outputs in-process
        self.t0 = perf_counter()

    def name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int, repeat: int = -1) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.count.append(0)
        self.error.append(0)
        self.repeat.append(repeat)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int, count: int = 0, error: bool = False) -> None:
        self.end[i] = perf_counter()
        self.count[i] = count
        self.error[i] = error
        self.stack.pop()

    def wrap(self, name: str, fn: Callable, how: Traced = Traced()) -> Callable:
        from qfrac.errors import QFracError

        nid = self.name(name)
        seen: set = set()

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            repeat = -1
            if how.key is not None:
                k = how.key(*args, **kwargs)
                repeat = int(k in seen)
                seen.add(k)
            i = self.open(nid, repeat)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(i, 0, isinstance(exc, QFracError))
                raise
            self.close(i, how.count(args, kwargs, out) if how.count else 0)
            return out

        return traced

    def install(self) -> None:
        """Rebind every traced name, including the copies bound at import."""
        import qfrac.verify

        modules = [m for n, m in sys.modules.items() if n == "qfrac" or n.startswith("qfrac.")]
        for mod_name, fns in FUNCTIONS.items():
            home = sys.modules[f"qfrac.{mod_name}"]
            for fn_name, how in fns.items():
                orig = getattr(home, fn_name)
                wrapped = self.wrap(f"{mod_name}.{fn_name}", orig, how)
                for mod in modules:
                    if getattr(mod, fn_name, None) is orig:
                        setattr(mod, fn_name, wrapped)
        table = qfrac.verify._SUITES
        for suite, fn in list(table.items()):
            table[suite] = self.wrap(f"verify.{suite}", fn)

    def dump(self, path: Path) -> None:
        """Write every span as gzipped CSV, times in seconds from tracer start."""
        t0 = self.t0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(SPAN_HEADER + "\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name_id[i]]},{self.start[i] - t0:.9f},"
                         f"{self.end[i] - t0:.9f},{self.parent[i]},{self.op[i]},"
                         f"{self.count[i]},{self.error[i]},{self.repeat[i]}\n")

    def merge(self, path: Path, parent: int) -> None:
        """Append the spans a traced child process dumped, under span ``parent``."""
        with gzip.open(path, "rt") as fh:
            rows = [ln.split(",") for ln in fh.read().splitlines()[1:]]
        base = len(self.start)
        offset = self.start[parent]
        for _, name, start, end, par, _, count, error, repeat in rows:
            self.name_id.append(self.name(name))
            self.start.append(offset + float(start))
            self.end.append(offset + float(end))
            self.parent.append(parent if int(par) < 0 else base + int(par))
            self.op.append(self.op_id)
            self.count.append(int(count))
            self.error.append(int(error))
            self.repeat.append(int(repeat))

    def layers(self) -> dict[str, float]:
        """Per-layer metrics from the spans: calls, wall time (``.s``, children
        included), self time, counts, errors, repeat shares, and the wall time
        of each verify suite."""
        import numpy as np

        n = len(self.start)
        start = np.frombuffer(self.start, dtype=float, count=n)
        end = np.frombuffer(self.end, dtype=float, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        names = np.frombuffer(self.name_id, dtype=np.int32, count=n)
        repeat = np.frombuffer(self.repeat, dtype=np.int8, count=n)
        dur = end - start
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        k = len(self.names)
        by_name = {
            "calls": np.bincount(names, minlength=k),
            "self_s": np.bincount(names, weights=dur - covered, minlength=k),
            "s": np.bincount(names, weights=dur, minlength=k),
            "count": np.bincount(names, weights=np.frombuffer(self.count, np.int64, n), minlength=k),
            "errors": np.bincount(names, weights=np.frombuffer(self.error, np.int8, n), minlength=k),
            "keyed": np.bincount(names, weights=repeat >= 0, minlength=k),
            "repeats": np.bincount(names, weights=repeat == 1, minlength=k),
        }

        def get(name: str, field: str) -> float:
            i = self._ids.get(name)
            return 0.0 if i is None else float(by_name[field][i])

        out: dict[str, float] = {}
        for mod_name, fns in FUNCTIONS.items():
            for fn_name, how in fns.items():
                name = f"{mod_name}.{fn_name}"
                out[f"{name}.calls"] = get(name, "calls")
                out[f"{name}.s"] = get(name, "s")
                out[f"{name}.self_s"] = get(name, "self_s")
                out[f"{name}.errors"] = get(name, "errors")
                if how.count_name is not None:
                    out[f"{name}.{how.count_name}"] = get(name, "count")
                if how.key is not None:
                    keyed = get(name, "keyed")
                    out[f"{name}.repeat_share"] = get(name, "repeats") / keyed if keyed else 0.0
        for suite in SUITES:
            out[f"verify.{suite}.s"] = get(f"verify.{suite}", "s")
        out[f"{self.OP}.self_s"] = get(self.OP, "self_s")
        return out


def _traced_cli(spans_out: str, args: list[str]) -> int:
    import qfrac.cli

    tracer = Tracer()
    tracer.install()
    try:
        qfrac.cli.main(args=args, prog_name="qfrac")
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    tracer.dump(Path(spans_out))
    return code


if __name__ == "__main__":
    sys.exit(_traced_cli(sys.argv[1], sys.argv[2:]))
