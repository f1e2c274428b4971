"""The closed-form solve builds its residual's kernel from the q-products its
series already evaluated.

Each weight of the order-alpha kernel carries (t_i - q t_j)_q^(alpha-1), the
product that the forcing term (i, j) of ``solve_linear_closed`` pairs with
its Mittag-Leffler series.  The solve hands its memo's table for
nu = alpha - 1 to the kernel build, so each of those products is evaluated
once per call, and the kernel must be the floats of the table-free build.
"""
import collections
import random

import numpy as np
import pytest

from qfrac import operators, qcore, special
from qfrac.qcore import (
    DEFAULT_TOL, FracOrder, GridFn, _BoundedLRU, gamma_q, make_grid, q_factorial_power,
)
from qfrac.solver import LinearIVP, linear_defect, solve_linear_closed


def linear_ivp(q, alpha, n, forcing, a_index=0):
    grid = make_grid(q, n - 1, n)
    values = {
        "identity": grid.t,
        "sine": np.sin(np.arange(n, dtype=float)),
        "sparse": np.where(np.arange(n) % 3 == 1, grid.t, 0.0),  # zero-forcing columns
        "zero": np.zeros(n),
    }[forcing]
    return LinearIVP(FracOrder(alpha), 0.3, a_index, 1.0, GridFn(grid, values))


@pytest.mark.parametrize("modified", [False, True])
@pytest.mark.parametrize("q,alpha", [(0.5, 0.5), (0.8, 0.3), (0.6, 0.9)])
def test_each_kernel_product_is_evaluated_once_per_solve(monkeypatch, q, alpha, modified):
    p = linear_ivp(q, alpha, 16, "identity")
    nu = alpha - 1.0
    # Gamma_q(alpha) is the product (1 - q)_q^(alpha-1), whose s/t = q is also
    # the kernel's diagonal; gamma_q's own cache evaluates it, so warm it first
    gamma_q(alpha, q)
    evaluated = collections.Counter()
    real = qcore._product_factor

    def counted(r, nu_, q_, max_terms):
        if nu_ == nu:
            evaluated[r] += 1
        return real(r, nu_, q_, max_terms)

    monkeypatch.setattr(qcore, "_product_factor", counted)
    monkeypatch.setattr(operators, "_KERNEL_CACHE", _BoundedLRU(1 << 20, operators._kernel_bytes))
    monkeypatch.setattr(special, "_PRODUCT_STORE", _BoundedLRU(special.PRODUCT_STORE_ENTRIES, len))
    solve_linear_closed(p, via_modified_ml=modified)
    t = p.grid.points
    kernel_ratios = {q * t[j] / t[i] for i in range(1, len(t)) for j in range(1, i + 1)}
    assert kernel_ratios <= set(evaluated)
    assert set(evaluated.values()) == {1}


def test_kernel_from_a_partial_table_equals_the_table_free_build():
    rng = random.Random(20261019)
    max_terms = DEFAULT_TOL.max_terms
    for _ in range(120):
        q = rng.uniform(0.2, 0.95)
        n = rng.randint(2, 40)
        a_index = rng.randint(1, n - 1)
        al = rng.uniform(0.05, 1.0)
        grid = make_grid(q, rng.randint(n - 1, n + 20), n)
        nu = al - 1.0
        # the forcing terms of a solve fill whole columns j, none where the forcing is 0
        table = {}
        for j in range(a_index + 1, n):
            if rng.random() < 0.5:
                for ti in grid.points[j:]:
                    qcore._q_factorial_power(ti, q * grid.points[j], nu, q, max_terms, table)
        got = operators._build_kernel(grid, a_index, al, DEFAULT_TOL, table)
        want = operators._build_kernel(grid, a_index, al, DEFAULT_TOL)
        case = (q, n, a_index, al)
        assert got.weights.tobytes() == want.weights.tobytes(), case
        # and both are the weights of the public q_factorial_power
        g = gamma_q(al, q)
        public = np.zeros((n, n))
        for i in range(a_index + 1, n):
            for j in range(a_index + 1, i + 1):
                tj = grid.points[j]
                public[i, j] = (1.0 - q) * tj * q_factorial_power(grid.points[i], q * tj, nu, q) / g
        assert want.weights.tobytes() == public.tobytes(), case
        t = grid.points  # the build stored the factors the table lacked
        assert set(table) == {q * t[j] / t[i] for i in range(n) for j in range(a_index + 1, i + 1)}


@pytest.mark.parametrize("modified", [False, True])
@pytest.mark.parametrize("forcing", ["identity", "sine", "sparse", "zero"])
@pytest.mark.parametrize("q,alpha,a_index", [(0.5, 0.5, 0), (0.8, 0.3, 2), (0.3, 1.0, 1)])
def test_closed_form_does_not_depend_on_the_kernel_cache(monkeypatch, q, alpha, a_index,
                                                         forcing, modified):
    p = linear_ivp(q, alpha, 14, forcing, a_index)
    key = (p.grid, a_index, float(alpha), DEFAULT_TOL)

    # a cache that keeps only the newest kernel: the solve builds from its table
    tiny = _BoundedLRU(1, operators._kernel_bytes)
    monkeypatch.setattr(operators, "_KERNEL_CACHE", tiny)
    built = solve_linear_closed(p, via_modified_ml=modified)
    assert list(tiny._items) == [key]  # cached under build_kernel's key

    # the table-free kernel already cached: the solve reads it
    warm = _BoundedLRU(operators.KERNEL_CACHE_BYTES, operators._kernel_bytes)
    monkeypatch.setattr(operators, "_KERNEL_CACHE", warm)
    kernel = operators.build_kernel(p.grid, a_index, p.alpha)
    cached = solve_linear_closed(p, via_modified_ml=modified)
    assert warm._items[key] is kernel

    assert np.array_equal(built.solution.values, cached.solution.values)
    assert built.residual == cached.residual
    assert np.array_equal(tiny._items[key].weights, kernel.weights)
    assert built.residual == float(linear_defect(p, built.solution, DEFAULT_TOL, kernel).max())
