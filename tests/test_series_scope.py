"""Every Mittag-Leffler memo lives for one call and takes its product
factors from one bounded process-wide store, which outlives the call.
Reports and solves must not depend on what that store holds, nor on which
memos, threads or calls filled it, and the store must stay within its
budget."""
import gc
import json
import sys
import threading
import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from qfrac import qcore, special
from qfrac.qcore import DEFAULT_TOL, FracOrder, GridFn, make_grid
from qfrac.solver import LinearIVP, solve_linear_closed
from qfrac.special import MLSpec, _ml_series, _SeriesMemo, mittag_leffler
from qfrac.verify import run_suite

GOLDEN = json.loads((Path(__file__).parent / "data" / "verify_reports_scheme2.json").read_text())


def _golden(suite, seed=7, cases=None):
    key = (suite, seed, cases)
    return next(e["report"] for e in GOLDEN if (e["suite"], e["seed"], e["cases"]) == key)


def _fresh_store(monkeypatch, budget=special.PRODUCT_STORE_ENTRIES):
    store = qcore._BoundedLRU(budget, len)
    monkeypatch.setattr(special, "_PRODUCT_STORE", store)
    return store


def _assert_no_memo_left():
    """Every memo lives for one call, so none is alive between calls."""
    gc.collect()
    assert not [o for o in gc.get_objects() if isinstance(o, _SeriesMemo)]


def _solver_problems():
    """The 8 linear problems of suite solver, keyed by (q, alpha, lam)."""
    problems = {}
    for q, al, lam in product((0.3, 0.5), (0.5, 0.9), (0.2, 0.4)):
        grid = make_grid(q, 11, 12)
        problems[q, al, lam] = LinearIVP(
            alpha=FracOrder(al), lam=lam, a_index=0, y0=1.0, forcing=GridFn(grid, grid.t)
        )
    return problems


def test_solver_floats_do_not_depend_on_the_order_of_lambda(monkeypatch):
    # a warm store serves both representations, whose forcing series share
    # a spec and a point but not a series
    problems = _solver_problems()
    runs = [(key, modified) for key in problems for modified in (False, True)]
    alone = {}
    for key, m in runs:
        _fresh_store(monkeypatch)
        alone[key, m] = solve_linear_closed(problems[key], via_modified_ml=m)
    for order in (sorted(runs), sorted(runs, key=lambda r: (r[0][0], r[0][1], -r[0][2], r[1]))):
        _fresh_store(monkeypatch)
        warm = {(key, m): solve_linear_closed(problems[key], via_modified_ml=m)
                for key, m in order}
        for run, want in alone.items():
            assert np.array_equal(warm[run].solution.values, want.solution.values), run
            assert warm[run].residual == want.residual, run


def _assert_within_budget_at_next_memo(store, budget):
    """The last memo of a call may grow its tables past the budget; the next
    memo trims the store, so every computation starts within the budget."""
    _SeriesMemo(0.5, DEFAULT_TOL)
    assert store.total() <= budget


class _EvictionCounting(qcore._BoundedLRU):
    """A store that counts the tables evicted while memos ask for tables."""

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
        _assert_within_budget_at_next_memo(store, budget)
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
    _assert_within_budget_at_next_memo(store, budget)
    _assert_no_memo_left()


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


def _count_factors(monkeypatch):
    """A list that gains one entry per product factor evaluated."""
    evaluated = []
    real = qcore._product_factor

    def counting(*args):
        evaluated.append(args)
        return real(*args)

    monkeypatch.setattr(qcore, "_product_factor", counting)
    return evaluated


@pytest.mark.parametrize("modified", [False, True])
def test_a_repeated_solve_reads_every_factor_from_the_store(monkeypatch, modified):
    _fresh_store(monkeypatch)
    evaluated = _count_factors(monkeypatch)
    p = _solver_problems()[0.5, 0.5, 0.2]
    first = solve_linear_closed(p, via_modified_ml=modified)
    assert evaluated
    evaluated.clear()
    second = solve_linear_closed(p, via_modified_ml=modified)
    assert evaluated == []
    assert np.array_equal(second.solution.values, first.solution.values)
    assert second.residual == first.residual


def test_each_new_memo_finds_the_store_within_its_budget(monkeypatch):
    store = _fresh_store(monkeypatch, 8)
    totals = []

    class Recording(_SeriesMemo):
        def __init__(self, q, tol):
            super().__init__(q, tol)
            totals.append(store.total())

    monkeypatch.setattr(special, "_SeriesMemo", Recording)
    points = make_grid(0.5, 8, 10).points
    spec = MLSpec(0.5, 1.0, 0.3, t0=points[0])
    for t in points[1:]:
        mittag_leffler(spec, t, 0.5)
        # each series fills its tables past the budget, the next memo trims them
        assert store.total() > 8
    assert len(totals) == len(points) - 1
    assert max(totals) <= 8


def test_threads_solving_against_a_small_store_get_the_serial_floats(monkeypatch):
    # one q, so the threads fill and evict the same tables at once
    problems = {key: p for key, p in _solver_problems().items() if key[0] == 0.5}
    _fresh_store(monkeypatch)
    serial = {key: solve_linear_closed(p) for key, p in problems.items()}
    store = _fresh_store(monkeypatch, 8)
    workers = 3
    start = threading.Barrier(workers)
    solved = [None] * workers

    def run(slot):
        start.wait()
        solved[slot] = {key: solve_linear_closed(p) for key, p in problems.items()}

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
    for got in solved:
        for key, want in serial.items():
            assert np.array_equal(got[key].solution.values, want.solution.values), key
            assert got[key].residual == want.residual, key
    _assert_within_budget_at_next_memo(store, 8)


def test_a_newer_memo_leaves_an_older_memo_in_use_unchanged(monkeypatch):
    store = _fresh_store(monkeypatch, 8)
    points = make_grid(0.5, 8, 10).points
    spec = MLSpec(0.5, 1.0, 0.3, t0=points[0])
    older = _SeriesMemo(0.5, DEFAULT_TOL)
    before = [_ml_series(spec, t, 0.5, memo=older) for t in points]
    tables = list(older._products.values())
    newer = _SeriesMemo(0.5, DEFAULT_TOL)  # trims the older memo's tables away
    _ml_series(MLSpec(0.9, 0.9, -0.4, t0=0.5), 1.0, 0.5, memo=newer)
    held = list(store._items.values())
    assert not any(table is other for table in tables for other in held)
    assert [_ml_series(spec, t, 0.5, memo=older) for t in points] == before
    _fresh_store(monkeypatch)
    assert [_ml_series(spec, t, 0.5) for t in points] == before
