"""Tests for the verify runner: per-case generators, argument checks, and
reports that do not depend on the state of the kernel cache."""
import json

import numpy as np
import pytest

from qfrac import operators
from qfrac.errors import DomainError
from qfrac.qcore import _gamma_q_cached
from qfrac.verify import _rng, run_suite


def _fresh_kernel_cache(monkeypatch, budget=operators.KERNEL_CACHE_BYTES):
    cache = operators._KernelCache(budget)
    monkeypatch.setattr(operators, "_KERNEL_CACHE", cache)
    return cache


@pytest.mark.parametrize("seed", [0, 1, 2**31 - 2, 2**32 - 1, 2**40])
def test_rng_streams_equal_the_list_seeded_generator(seed):
    for suite_id, case in ((10, 0), (70, 199), (91, 5)):
        got = _rng(seed, suite_id, case)
        want = np.random.default_rng([seed, suite_id, case])
        assert got.bit_generator.state == want.bit_generator.state
        assert np.array_equal(got.uniform(0.0, 1.0, 16), want.uniform(0.0, 1.0, 16))


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
    assert len(one._kernels) == 1
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
