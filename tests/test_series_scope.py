"""One series memo per ``run_suite`` call: the scope shares q-products,
power sequences and Mittag-Leffler values between the suites of one call,
and nothing else may change.  Reports must be the golden bytes with or
without the scope, and no memo may outlive the call.  The product factors
alone outlive it, in one bounded process-wide store, and reports must not
depend on what that store holds."""
import gc
import json
import sys
import threading
import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from qfrac import gronwall, qcore, solver, special, verify
from qfrac.errors import DomainError
from qfrac.qcore import DEFAULT_TOL, FracOrder, GridFn, make_grid
from qfrac.solver import LinearIVP, solve_linear_closed
from qfrac.special import (
    MLSpec, _SeriesMemo, _series_scope, mittag_leffler, mittag_leffler_modified
)
from qfrac.verify import run_suite

GOLDEN = json.loads((Path(__file__).parent / "data" / "verify_reports_scheme2.json").read_text())

#: every module that asks the scope for a memo
_ASKERS = (special, solver, gronwall, verify)


def _golden(suite, seed=7, cases=None):
    key = (suite, seed, cases)
    return next(e["report"] for e in GOLDEN if (e["suite"], e["seed"], e["cases"]) == key)


def _shared_memos():
    gc.collect()
    return [o for o in gc.get_objects() if isinstance(o, _SeriesMemo) and o.shared]


def _assert_no_scope_left():
    assert special._SCOPE.get() is None
    assert _shared_memos() == []


def _count_series(monkeypatch):
    """A list that gains one entry per Mittag-Leffler series summed."""
    summed = []
    terms = special._ml_terms

    def counting(spec, t, q, modified, memo):
        summed.append((spec, t, modified))
        return terms(spec, t, q, modified, memo)

    monkeypatch.setattr(special, "_ml_terms", counting)
    return summed


@pytest.mark.parametrize("suite,series", [("corollary", 36), ("dependence", 12)])
def test_each_series_is_summed_once_per_call(monkeypatch, suite, series):
    # corollary's 3 fixed lambdas: q_gronwall_classical's closed-form check
    # and the suite's own closed-form error read one series per grid point;
    # dependence's two experiments read one bound factor
    summed = _count_series(monkeypatch)
    assert json.dumps(run_suite(suite, seed=7), sort_keys=True) == _golden(suite)
    assert len(summed) == len(set(summed)) == series
    summed.clear()
    run_suite(suite, seed=7)  # the next call sums them again
    assert len(summed) == series


def test_series_outside_run_suite_are_summed_per_call(monkeypatch):
    summed = _count_series(monkeypatch)
    grid = make_grid(0.5, 11, 12)
    first = gronwall._ml_per_point(grid, 0, 1.0, 0.3, DEFAULT_TOL)
    assert gronwall._ml_per_point(grid, 0, 1.0, 0.3, DEFAULT_TOL) == first
    assert len(summed) == 24


def test_reports_do_not_depend_on_the_scope(monkeypatch):
    scoped = [run_suite(e["suite"], seed=e["seed"], cases=e["cases"]) for e in GOLDEN]
    made = []

    def fresh(q, tol):  # a memo of its own for every request, as before the scope
        made.append(q)
        return _SeriesMemo(q, tol)

    for module in _ASKERS:
        monkeypatch.setattr(module, "_series_memo", fresh)
    for entry, with_scope in zip(GOLDEN, scoped):
        report = run_suite(entry["suite"], seed=entry["seed"], cases=entry["cases"])
        assert json.dumps(report, sort_keys=True) == entry["report"]
        assert json.dumps(with_scope, sort_keys=True) == entry["report"]
    assert made


def _solver_problems():
    """The 8 linear problems of suite solver, keyed by (q, alpha, lam)."""
    problems = {}
    for q, al, lam in product((0.3, 0.5), (0.5, 0.9), (0.2, 0.4)):
        grid = make_grid(q, 11, 12)
        problems[q, al, lam] = LinearIVP(
            alpha=FracOrder(al), lam=lam, a_index=0, y0=1.0, forcing=GridFn(grid, grid.t)
        )
    return problems


def test_solver_floats_do_not_depend_on_the_order_of_lambda():
    # one scope serves both representations, whose forcing series share a
    # spec and a point but not a series
    problems = _solver_problems()
    runs = [(key, modified) for key in problems for modified in (False, True)]
    alone = {(key, m): solve_linear_closed(problems[key], via_modified_ml=m) for key, m in runs}
    for order in (sorted(runs), sorted(runs, key=lambda r: (r[0][0], r[0][1], -r[0][2], r[1]))):
        with _series_scope():
            shared = {(key, m): solve_linear_closed(problems[key], via_modified_ml=m)
                      for key, m in order}
        for run, want in alone.items():
            assert np.array_equal(shared[run].solution.values, want.solution.values), run
            assert shared[run].residual == want.residual, run


def test_scope_keeps_the_two_functions_of_one_spec_apart():
    spec = MLSpec(0.5, 0.7, 0.3, t0=0.25)
    want = [mittag_leffler(spec, 1.0, 0.5), mittag_leffler_modified(spec, 1.0, 0.5)]
    assert want[0] != want[1]
    with _series_scope():
        assert [mittag_leffler(spec, 1.0, 0.5), mittag_leffler_modified(spec, 1.0, 0.5)] == want


def test_scope_shares_power_sequences_between_lambdas(monkeypatch):
    # after lambda = 0.4, the shorter series of lambda = 0.2 read every power
    # from the scope, so the solve evaluates only its 66 kernel powers
    # (t_i - q t_j)_q^(alpha - 1), j <= i
    problems = _solver_problems()
    powers = []
    factorial_power = special._q_factorial_power

    def counting(*args):
        powers.append(args)
        return factorial_power(*args)

    monkeypatch.setattr(special, "_q_factorial_power", counting)
    solve_linear_closed(problems[0.5, 0.5, 0.2])
    alone = len(powers)
    with _series_scope():
        solve_linear_closed(problems[0.5, 0.5, 0.4])
        powers.clear()
        solve_linear_closed(problems[0.5, 0.5, 0.2])
    assert len(powers) == 66 < alone
    assert {nu for _, _, nu, *_ in powers} == {0.5 - 1.0}


def test_no_memo_outlives_run_suite():
    _assert_no_scope_left()
    run_suite("all", seed=7, cases=1)
    _assert_no_scope_left()


@pytest.mark.parametrize("call,error", [
    (lambda: run_suite("all", seed=-1), DomainError),
    (lambda: run_suite("all", seed=7, cases=0), DomainError),
    (lambda: run_suite("gamma", seed=7, cases=3), DomainError),
    (lambda: run_suite("no such suite", seed=7), KeyError),
])
def test_no_memo_outlives_a_rejected_call(call, error):
    with pytest.raises(error):
        call()
    _assert_no_scope_left()


def test_no_memo_outlives_a_suite_that_raises(monkeypatch):
    def failing(seed, cases):
        verify.suite_corollary(seed, cases)  # fills the scope's q = 0.5 memo
        assert special._series_memo(0.5, DEFAULT_TOL).shared
        raise RuntimeError("suite failed midway")

    monkeypatch.setitem(verify._SUITES, "corollary", failing)
    with pytest.raises(RuntimeError, match="midway"):
        run_suite("all", seed=7)
    _assert_no_scope_left()
    # the next call starts from an empty scope and is unaffected
    monkeypatch.undo()
    assert json.dumps(run_suite("all", seed=7), sort_keys=True) == _golden("all")


def test_solve_outside_run_suite_builds_a_private_memo(monkeypatch):
    made = []

    class Recording(_SeriesMemo):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(special, "_SeriesMemo", Recording)
    p = _solver_problems()[0.5, 0.5, 0.2]
    first = solve_linear_closed(p)
    second = solve_linear_closed(p)
    assert len(made) == 2 and made[0] is not made[1]
    assert not any(memo.shared for memo in made)
    assert np.array_equal(first.solution.values, second.solution.values)
    made.clear()
    with _series_scope():
        solve_linear_closed(p)
        solve_linear_closed(p)
    assert len(made) == 1 and made[0].shared


def test_concurrent_run_suite_calls_keep_their_own_scopes():
    # more threads than cores, switching often, so that the suites of
    # different calls interleave; each call must still see only its own memos
    workers = 3
    start = threading.Barrier(workers)
    reports = [None] * workers

    def run(slot):
        start.wait()
        reports[slot] = [json.dumps(run_suite("all", seed=7), sort_keys=True) for _ in range(2)]

    threads = [threading.Thread(target=run, args=(slot,)) for slot in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert reports == [[_golden("all")] * 2] * workers
    _assert_no_scope_left()


def _fresh_store(monkeypatch, budget=special.PRODUCT_STORE_ENTRIES):
    store = qcore._BoundedLRU(budget, len)
    monkeypatch.setattr(special, "_PRODUCT_STORE", store)
    return store


class _EvictionCounting(qcore._BoundedLRU):
    """A store that counts the tables evicted while a scope asks for tables."""

    evicted = 0

    def get(self, key, make):
        before = set(self._items)
        table = super().get(key, make)
        self.evicted += len(before - set(self._items))
        return table


@pytest.mark.parametrize("state", ["cold", "warm", "evicting"])
def test_reports_do_not_depend_on_the_product_store(monkeypatch, state):
    budget = 8 if state == "evicting" else special.PRODUCT_STORE_ENTRIES
    store = _EvictionCounting(budget, len)
    monkeypatch.setattr(special, "_PRODUCT_STORE", store)
    if state == "warm":
        for seed in range(100, 120):
            run_suite("all", seed=seed)
        assert store.total() > 1000
    evicted = 0
    for entry in GOLDEN:
        if state == "cold":
            store = _EvictionCounting(budget, len)
            monkeypatch.setattr(special, "_PRODUCT_STORE", store)
        store.evicted = 0
        report = run_suite(entry["suite"], seed=entry["seed"], cases=entry["cases"])
        assert json.dumps(report, sort_keys=True) == entry["report"], entry["suite"]
        assert store.total() <= budget
        evicted += store.evicted
    # only the 8-entry store evicts while a call runs
    assert (evicted > 0) == (state == "evicting")


def test_a_warm_store_serves_most_factors(monkeypatch):
    store = _fresh_store(monkeypatch)
    run_suite("all", seed=21)
    evaluated = []
    real = qcore._product_factor

    def counting(*args):
        evaluated.append(args)
        return real(*args)

    monkeypatch.setattr(qcore, "_product_factor", counting)
    first = store.total()
    assert json.dumps(run_suite("all", seed=7), sort_keys=True) == _golden("all")
    # seed 7 needs only a few factors that seed 21 did not
    assert 0 < len(evaluated) == store.total() - first < 200


def test_calls_outside_a_scope_leave_the_store_alone(monkeypatch):
    store = _fresh_store(monkeypatch)
    asked = []
    monkeypatch.setattr(store, "get", lambda *key: asked.append(key))
    monkeypatch.setattr(store, "trim", lambda: asked.append("trim"))
    grid = make_grid(0.5, 11, 12)
    solve_linear_closed(_solver_problems()[0.5, 0.5, 0.2])
    solve_linear_closed(_solver_problems()[0.3, 0.9, 0.4], via_modified_ml=True)
    gronwall._ml_per_point(grid, 0, 0.5, 0.3, DEFAULT_TOL)
    gronwall._ml_bound_factor(grid, 0, FracOrder(0.5), 0.3, DEFAULT_TOL)
    assert asked == []
    assert store.total() == 0


@pytest.mark.parametrize("budget", [special.PRODUCT_STORE_ENTRIES, 8])
def test_concurrent_run_suite_calls_share_one_store(monkeypatch, budget):
    # the threads fill (and with 8 entries evict from) one store at once
    store = _fresh_store(monkeypatch, budget)
    workers = 3
    start = threading.Barrier(workers)
    reports = [None] * workers

    def run(slot):
        start.wait()
        reports[slot] = json.dumps(run_suite("all", seed=7), sort_keys=True)

    threads = [threading.Thread(target=run, args=(slot,)) for slot in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert reports == [_golden("all")] * workers
    assert store.total() <= budget
    _assert_no_scope_left()


#: bytes per store entry that special.PRODUCT_STORE_ENTRIES documents
_ENTRY_BYTES = 90


def test_store_bytes_per_entry_match_the_documented_figure(monkeypatch):
    _fresh_store(monkeypatch)
    run_suite("all", seed=7)  # kernels, Gamma_q values and lazy imports in place
    store = _fresh_store(monkeypatch)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run_suite("all", seed=7)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    entries = store.total()
    assert entries > 1000
    assert 0.75 * _ENTRY_BYTES <= retained / entries <= 1.25 * _ENTRY_BYTES
    # so a full store stays under half a megabyte
    assert special.PRODUCT_STORE_ENTRIES * retained / entries < 512 * 1024
