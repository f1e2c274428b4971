"""Tests for the verify runner: one generator per parameter combination, one
meaning of ``cases``, argument checks, and reports that do not depend on the
state of the kernel cache."""
import json
from pathlib import Path

import numpy as np
import pytest

from qfrac import gronwall, operators, verify
from qfrac.errors import DomainError
from qfrac.qcore import FracOrder, _BoundedLRU, _gamma_q_cached, make_grid
from qfrac.verify import run_suite

FIXED_TABLE = ("gamma", "powerrule", "solver", "ratio", "dependence")

#: ``json.dumps(run_suite(suite, seed, cases), sort_keys=True)`` of scheme 2,
#: pinned byte for byte: any change to a report is a new scheme
GOLDEN = json.loads((Path(__file__).parent / "data" / "verify_reports_scheme2.json").read_text())


def _fresh_kernel_cache(monkeypatch, budget=operators.KERNEL_CACHE_BYTES):
    cache = _BoundedLRU(budget, operators._kernel_bytes)
    monkeypatch.setattr(operators, "_KERNEL_CACHE", cache)
    return cache


def test_verify_all_makes_one_generator_per_parameter_combination(monkeypatch):
    made = []
    default_rng = np.random.default_rng

    def counting(*args, **kwargs):
        made.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting)
    report = run_suite("all", seed=5)
    # lemma1 3 + lemma22 4 + gronwall 4 + comparison 4 + corollary 2
    assert len(made) == 17
    assert len({repr(args) for args in made}) == 17
    assert report["cases"] == 1289
    assert report["scheme"] == 2


@pytest.mark.parametrize(
    "entry", GOLDEN, ids=lambda e: f"{e['suite']}-seed{e['seed']}-cases{e['cases']}"
)
def test_reports_equal_the_scheme2_golden_bytes(entry):
    report = run_suite(entry["suite"], seed=entry["seed"], cases=entry["cases"])
    assert json.dumps(report, sort_keys=True) == entry["report"]


def _golden_seed7(suite):
    entry = next(e for e in GOLDEN if (e["suite"], e["seed"], e["cases"]) == (suite, 7, None))
    return json.loads(entry["report"])


@pytest.mark.parametrize("suite", FIXED_TABLE)
def test_fixed_table_golden_entries_are_slices_of_verify_all(suite):
    alone, every = _golden_seed7(suite), _golden_seed7("all")
    prefix = f"{suite}."
    assert alone["suite"] == suite and alone["scheme"] == every["scheme"] == 2
    assert alone["max_errors_by_property"] == {
        k[len(prefix):]: v
        for k, v in every["max_errors_by_property"].items() if k.startswith(prefix)
    }
    assert alone["failures"] == [f for f in every["failures"] if f.startswith(suite)]


def test_standalone_golden_entries_add_up_to_verify_all():
    every = _golden_seed7("all")
    alone = [_golden_seed7(suite) for suite in verify.available_suites() if suite != "all"]
    assert sum(report["cases"] for report in alone) == every["cases"]
    assert [f for report in alone for f in report["failures"]] == every["failures"]


def _recorded_inputs(monkeypatch, cases):
    """The (v, mu) of each gronwall and random corollary case, the (w, v, x)
    of each comparison case and the values f of each lemma22 case, in case
    order, of one run of each suite at seed 5, read from the columns of the
    blocks the suites check."""
    seen = {"gronwall": [], "comparison": [], "corollary": [], "lemma22": []}
    bound, compare = gronwall._bound_cases, gronwall._comparison_cases
    identity = operators._inverse_identity_residual
    running = []

    def recording_bound(grid, v, mu, *args, **kwargs):
        seen[running[-1]].extend(zip(v.T.tolist(), mu.T.tolist()))
        return bound(grid, v, mu, *args, **kwargs)

    def recording_compare(grid, w, v, x, *args, **kwargs):
        seen["comparison"].extend(zip(w.T.tolist(), v.T.tolist(), x.T.tolist()))
        return compare(grid, w, v, x, *args, **kwargs)

    def recording_identity(grid, values, *args, **kwargs):
        seen["lemma22"].extend(values.T.tolist())
        return identity(grid, values, *args, **kwargs)

    # suites gronwall and corollary both solve their blocks with _bound_cases
    monkeypatch.setattr(verify, "_bound_cases", recording_bound)
    monkeypatch.setattr(verify, "_comparison_cases", recording_compare)
    monkeypatch.setattr(verify, "_inverse_identity_residual", recording_identity)
    for suite in seen:
        running.append(suite)
        assert run_suite(suite, seed=5, cases=cases)["failures"] == []
    return seen


def test_fewer_cases_are_a_prefix_of_more(monkeypatch):
    short = _recorded_inputs(monkeypatch, 3)
    long = _recorded_inputs(monkeypatch, 5)
    for suite in ("gronwall", "comparison"):
        assert len(short[suite]) == 4 * 3 and len(long[suite]) == 4 * 5
        for combo in range(4):
            assert short[suite][3 * combo:3 * combo + 3] == long[suite][5 * combo:5 * combo + 3]


def test_block_draws_are_the_case_by_case_uniform_draws(monkeypatch):
    # each case drew rng.uniform(lo, hi[, size]) in turn from its combination's
    # generator; the blocks must hold those floats (the marched v, w and v
    # only at the lower limit, where they equal the drawn initial values)
    seen = _recorded_inputs(monkeypatch, 3)
    for combo, (q, al) in enumerate([(0.3, 0.5), (0.3, 0.9), (0.5, 0.5), (0.5, 0.9)]):
        grid = make_grid(q, 11, 12)
        ceiling = gronwall.sart_bound(grid, FracOrder(al))
        rng = np.random.default_rng([5, 70 + combo])
        for v, mu in seen["gronwall"][3 * combo:3 * combo + 3]:
            assert v[0] == rng.uniform(0.0, 2.0)
            assert mu == (rng.uniform(0.0, 0.98, 12) * ceiling).tolist()
            rng.uniform(0.0, 1.0, 12)
        rng = np.random.default_rng([5, 80 + combo])
        for w, v, x in seen["comparison"][3 * combo:3 * combo + 3]:
            assert x == (rng.uniform(0.0, 0.98, 12) * ceiling).tolist()
            assert w[0] == rng.uniform(0.5, 2.0)
            assert v[0] == w[0] - rng.uniform(0.0, 1.0)
            rng.uniform(0.0, 0.5, 12), rng.uniform(0.0, 0.5, 12)
    rng = np.random.default_rng([5, 91])
    assert len(seen["corollary"]) == 3
    for v, delta in seen["corollary"]:
        assert delta == rng.uniform(0.0, 0.98 / (1.0 - 0.5), 12).tolist()
        assert v[0] == rng.uniform(0.0, 2.0)
        rng.uniform(0.0, 1.0, 12)
    for pair in range(4):
        rng = np.random.default_rng([5, 40 + pair])
        for f in seen["lemma22"][3 * pair:3 * pair + 3]:
            assert f == rng.uniform(-1.0, 1.0, 10).tolist()
    assert len(seen["lemma22"]) == 4 * 3


def test_corollary_sums_each_mittag_leffler_series_once(monkeypatch):
    # each of the three constant-delta cases needs E_1(lam, t - a) once: for
    # q_gronwall_classical's cross-check and for the suite's own error
    calls = []
    ml_per_point = gronwall._ml_per_point

    def counting(*args):
        calls.append(args)
        return ml_per_point(*args)

    monkeypatch.setattr(gronwall, "_ml_per_point", counting)
    # absent from verify when the suite reads the values q_gronwall_classical made
    monkeypatch.setattr(verify, "_ml_per_point", counting, raising=False)
    report = run_suite("corollary", seed=7)
    assert report == _golden_seed7("corollary")
    assert len(calls) == 3


@pytest.mark.parametrize("cases", [1, 3, 7])
def test_cases_count_per_parameter_combination(cases):
    want = {"lemma1": 3 * cases, "lemma22": 4 * cases, "gronwall": 4 * cases,
            "comparison": 4 * cases, "corollary": cases + 3}
    for suite, count in want.items():
        report = run_suite(suite, seed=5, cases=cases)
        assert report["cases"] == count, suite
        assert report["failures"] == [], suite


@pytest.mark.parametrize("suite", FIXED_TABLE)
def test_fixed_table_suites_reject_cases(suite):
    with pytest.raises(DomainError, match="fixed table"):
        run_suite(suite, seed=5, cases=3)


def test_verify_all_passes_cases_to_the_randomized_suites_only():
    report = run_suite("all", seed=5, cases=10)
    fixed = sum(run_suite(suite, seed=5)["cases"] for suite in FIXED_TABLE)
    assert report["failures"] == []
    assert report["cases"] == fixed + 3 * 10 + 4 * 10 + 4 * 10 + 4 * 10 + 10 + 3


def test_second_verify_all_builds_no_kernel(monkeypatch):
    builds = []
    build = operators._build_kernel

    def counting(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(operators, "_build_kernel", counting)
    _fresh_kernel_cache(monkeypatch)
    run_suite("all", seed=3)
    assert len(builds) == len(set(builds)) == 16
    builds.clear()
    run_suite("all", seed=4)
    assert builds == []


def test_reports_do_not_depend_on_the_kernel_cache(monkeypatch):
    _fresh_kernel_cache(monkeypatch)
    _gamma_q_cached.cache_clear()
    cold = json.dumps(run_suite("all", seed=5), sort_keys=True)
    warm = json.dumps(run_suite("all", seed=5), sort_keys=True)
    one = _fresh_kernel_cache(monkeypatch, budget=1)
    one_kernel = json.dumps(run_suite("all", seed=5), sort_keys=True)
    assert len(one._items) == 1
    assert cold == warm == one_kernel


@pytest.mark.parametrize("seed", [-1, -(2**40), 1.0, 7.5, "7", True, None])
def test_run_suite_rejects_bad_seeds(seed):
    with pytest.raises(DomainError, match="seed"):
        run_suite("gamma", seed=seed)


@pytest.mark.parametrize("cases", [0, -2, 2.5, "3", False])
def test_run_suite_rejects_case_counts_below_one(cases):
    with pytest.raises(DomainError, match="cases"):
        run_suite("all", seed=5, cases=cases)


def test_run_suite_accepts_large_seeds_and_one_case():
    report = run_suite("gronwall", seed=2**40, cases=1)
    assert report["seed"] == 2**40
    assert report["cases"] == 4  # one per parameter combination
    assert report["failures"] == []
