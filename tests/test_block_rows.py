"""Block rows: K right-hand sides in one forward substitution.

The verify suites run the cases of a parameter combination as one block,
through the routines behind the Gronwall bound, the comparison check and the
order-1 corollary given (N, K) arrays.  Each block column must agree with
the public function on the same case within BLOCK_ULPS, raise the public
function's error with the failing case named, and be no less accurate than
the scalar rows against a 50-digit solve; (N,) arrays take the scalar rows.
"""
import math

import numpy as np
import pytest

from qfrac.errors import DivergenceError, DomainError, PreconditionError, QFracError
from qfrac.gronwall import (
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
    _ulp_distance,
    gronwall_bound,
    q_gronwall_classical,
    sart_bound,
    verify_comparison,
)
from qfrac.operators import build_kernel
from qfrac.qcore import FracOrder, GridFn, make_grid
from qfrac.solver import forward_substitution

from oracles import ref_linear_system


def _window(q, n):
    return make_grid(q, n - 1, n)  # t from q**(n-1) to 1


def _random_windows(count, seed, n_max=64, alpha=None):
    """(grid, order, a_index, rng): q in [0.3, 0.95], N in [8, n_max], alpha in
    [0.3, 1] unless given, a_index 0 for even windows and above 0 for odd."""
    rng = np.random.default_rng(seed)
    for w in range(count):
        q = float(rng.uniform(0.3, 0.95))
        n = int(rng.integers(8, n_max + 1))
        al = float(rng.uniform(0.3, 1.0)) if alpha is None else alpha
        a_index = 0 if w % 2 == 0 else int(rng.integers(1, n - 2))
        yield _window(q, n), FracOrder(al), a_index, rng


def _gronwall_bound_block(grid, v, mu, order, a_index):
    """What suite gronwall runs on a block: the input checks, then the bound."""
    _check_bound_input(grid, v, mu, order, a_index)
    return _bound_cases(grid, v, mu, order, a_index)


def _verify_comparison_block(grid, w, v, x, order, a_index):
    """What suite comparison runs on a block."""
    _check_comparison_input(grid, w, v, x, order, a_index)
    return _comparison_cases(grid, w, v, x, order, a_index)


def _q_gronwall_classical_block(grid, v, delta, a_index):
    """What suite corollary runs on its block of random cases."""
    _check_delta(grid, delta)
    return _gronwall_bound_block(grid, v, delta, FracOrder(1.0), a_index)


def _bound_agrees(grid, v, mu, order, a_index, bound, violation):
    pub = gronwall_bound(GronwallInput(v=GridFn(grid, v), mu=GridFn(grid, mu),
                                       alpha=order, a_index=a_index))
    assert _ulp_distance(pub.bound.values, bound) <= BLOCK_ULPS
    # the violation is v - bound, so it moves with the bound's last digits
    slack = BLOCK_ULPS * float(np.spacing(np.abs(bound).max()))
    assert abs(pub.max_violation - violation) <= slack


def _comparison_agrees(grid, w, v, x, order, a_index, report, k):
    pub = verify_comparison(ComparisonInput(w=GridFn(grid, w[:, k]), v=GridFn(grid, v[:, k]),
                                            x=GridFn(grid, x[:, k]), alpha=order,
                                            a_index=a_index), tol=1e-12)
    for name in ("holds_super", "holds_sub", "holds_admissible", "holds_initial",
                 "conclusion_checked", "conclusion_holds"):
        assert getattr(pub, name) == getattr(report, name)[k], name
    want, got = pub.max_violation, report.max_violation[k]
    assert want == got or (math.isnan(want) and math.isnan(got))


def test_block_columns_equal_the_public_functions_on_200_windows():
    k_cases = 3
    for grid, order, a_index, rng in _random_windows(200, seed=2024):
        n = grid.count
        ceiling = sart_bound(grid, order)[:, None]
        mu = rng.uniform(0.0, 0.98, (n, k_cases)) * ceiling
        v = rng.uniform(0.0, 2.0, (n, k_cases))
        bound, violation = _gronwall_bound_block(grid, v, mu, order, a_index)
        for k in range(k_cases):
            _bound_agrees(grid, v[:, k], mu[:, k], order, a_index, bound[:, k], violation[k])

        kernel = build_kernel(grid, a_index, order)
        w_a = rng.uniform(0.5, 2.0, k_cases)
        w = _block_rows(kernel, mu, w_a, -rng.uniform(0.0, 0.5, (n, k_cases)))
        v = _block_rows(kernel, mu, w_a - rng.uniform(0.0, 1.0, k_cases),
                        rng.uniform(0.0, 0.5, (n, k_cases)))
        report = _verify_comparison_block(grid, w, v, mu, order, a_index)
        for k in range(k_cases):
            _comparison_agrees(grid, w, v, mu, order, a_index, report, k)


def test_order_one_block_equals_q_gronwall_classical():
    for grid, order, a_index, rng in _random_windows(20, seed=7, n_max=32, alpha=1.0):
        n = grid.count
        delta = rng.uniform(0.0, 0.98 / (1.0 - grid.q), (n, 3))
        delta[:, 2] = delta[0, 2]  # the public function cross-checks it in closed form
        v = rng.uniform(0.0, 2.0, (n, 3))
        bound, violation = _q_gronwall_classical_block(grid, v, delta, a_index)
        for k in range(3):
            pub = q_gronwall_classical(GridFn(grid, v[:, k]), GridFn(grid, delta[:, k]), a_index)
            assert _ulp_distance(pub.bound.values, bound[:, k]) <= BLOCK_ULPS


def test_block_columns_do_not_depend_on_the_block():
    grid = _window(0.5, 24)
    order = FracOrder(0.7)
    kernel = build_kernel(grid, 3, order)
    rng = np.random.default_rng(11)
    mu = rng.uniform(0.0, 0.98, (grid.count, 9)) * sart_bound(grid, order)[:, None]
    whole = _block_rows(kernel, mu, np.ones(9))
    for k in range(9):
        alone = _block_rows(kernel, mu[:, k:k + 1], np.ones(1))
        assert alone.tobytes() == whole[:, k:k + 1].tobytes()
    assert whole[:, 2:7].tobytes() == _block_rows(kernel, mu[:, 2:7], np.ones(5)).tobytes()


def test_block_of_one_case():
    grid = _window(0.5, 12)
    order = FracOrder(0.5)
    kernel = build_kernel(grid, 0, order)
    rng = np.random.default_rng(3)
    mu = rng.uniform(0.0, 0.98, (grid.count, 1)) * sart_bound(grid, order)[:, None]
    v = rng.uniform(0.0, 2.0, (grid.count, 1))

    def row(i, known, d):
        assert known.shape == (1,) and type(d) is float
        return known + 1.0, np.ones(1)

    y = forward_substitution(kernel, np.array([2.0]), row)
    assert y.shape == (grid.count, 1) and y[0, 0] == 2.0
    bound, violation = _gronwall_bound_block(grid, v, mu, order, 0)
    assert bound.shape == (grid.count, 1) and violation.shape == (1,)
    _bound_agrees(grid, v[:, 0], mu[:, 0], order, 0, bound[:, 0], violation[0])
    w = _block_rows(kernel, mu, np.array([1.5]), -np.full((grid.count, 1), 0.1))
    report = _verify_comparison_block(grid, w, v, mu, order, 0)
    _comparison_agrees(grid, w, v, mu, order, 0, report, 0)


#: gronwall_bound's bound on test_block_of_one_case's window, as the scalar
#: rows give it; the block rows differ at three points
ONE_CASE_BOUND = [
    "0x1.b8f68d41ae326p-1", "0x1.1f1cf59599717p+0", "0x1.20cd0edb293e5p+2",
    "0x1.64da3186a8f40p+2", "0x1.b78bb3efeba8cp+1", "0x1.0d2f9044d4751p+2",
    "0x1.3f184655e1e8ep+2", "0x1.c79d4a51f7a05p+1", "0x1.1c1121b9f3c2ep+3",
    "0x1.4b7bd186fb6b3p+2", "0x1.68472022b29c8p+2", "0x1.c6662a742db14p+2",
]


def test_the_shape_of_the_input_picks_the_rows():
    grid = _window(0.5, 12)
    order = FracOrder(0.5)
    kernel = build_kernel(grid, 0, order)
    rng = np.random.default_rng(3)
    mu = rng.uniform(0.0, 0.98, (grid.count, 1)) * sart_bound(grid, order)[:, None]
    v = rng.uniform(0.0, 2.0, (grid.count, 1))
    block, _ = _bound_cases(grid, v, mu, order, 0)
    assert block.tobytes() == (v[0] * _block_rows(kernel, mu, np.ones(1))).tobytes()
    one, worst = _bound_cases(grid, v[:, 0], mu[:, 0], order, 0)
    assert one.tobytes() == (v[0, 0] * _linear_rows(kernel, mu[:, 0], 1.0)).tobytes()
    assert [float.hex(b) for b in one.tolist()] == ONE_CASE_BOUND
    assert np.count_nonzero(one != block[:, 0]) == 3
    public = gronwall_bound(GronwallInput(v=GridFn(grid, v[:, 0]), mu=GridFn(grid, mu[:, 0]),
                                          alpha=order, a_index=0))
    assert public.bound.values.tobytes() == one.tobytes()
    assert public.max_violation == float(worst) == float.fromhex("0x1.aa7ce5b7770a0p-5")


def _zero_factor_case():
    """A window, order and mu just below the strict ceiling whose computed
    diagonal factor 1 - W[i,i] mu[i] rounds to 0."""
    grid = _window(0.5, 8)
    order = FracOrder(0.75)
    kernel = build_kernel(grid, 0, order)
    ceiling = sart_bound(grid, order)
    mu = 0.5 * ceiling
    for i in range(1, grid.count):
        m = ceiling[i]
        for _ in range(3):
            m = np.nextafter(m, 0.0)
            if 1.0 - kernel.diagonal[i] * m == 0.0:
                mu[i] = m
                return grid, order, mu
    raise AssertionError("no mu below the ceiling rounds the factor to 0")


def _bad_case(kind):
    """(grid, order, v, mu, error class, message part) with one bad column."""
    if kind == "diagonal":
        grid, order, bad_mu = _zero_factor_case()
    else:
        grid = make_grid(0.5, 3, 44) if kind == "divergence" else _window(0.5, 12)
        order = FracOrder(0.5)
        bad_mu = 0.5 * sart_bound(grid, order)
    n = grid.count
    ceiling = sart_bound(grid, order)
    mu = np.stack([0.5 * ceiling] * 3, axis=1)
    v = np.ones((n, 3))
    mu[:, 1] = bad_mu
    if kind == "ceiling":
        mu[4, 1] = ceiling[4]
        return grid, order, v, mu, PreconditionError, "strict admissibility ceiling"
    if kind == "diagonal":
        return grid, order, v, mu, PreconditionError, "not positive"
    if kind == "divergence":
        mu[:, 1] = 0.999 * ceiling
        return grid, order, v, mu, DivergenceError, r"beyond 1e\+100"
    if kind == "overflow":
        v[0, 1] = 1e308
        return grid, order, v, mu, DivergenceError, "overflows"
    if kind == "nonfinite":
        v[5, 1] = math.nan
        return grid, order, v, mu, DomainError, "must be finite"
    mu[5, 1] = -1.0
    return grid, order, v, mu, DomainError, "nonnegative"


@pytest.mark.parametrize("kind", ["ceiling", "diagonal", "divergence", "overflow",
                                  "nonfinite", "negative"])
def test_block_errors_are_the_public_ones_and_name_the_case(kind):
    grid, order, v, mu, error, part = _bad_case(kind)
    with pytest.raises(error, match=part) as public:
        gronwall_bound(GronwallInput(v=GridFn._owned(grid, v[:, 1].copy()),
                                     mu=GridFn._owned(grid, mu[:, 1].copy()),
                                     alpha=order, a_index=0))
    with pytest.raises(error, match=f"case 1: .*{part}") as block:
        _gronwall_bound_block(grid, v, mu, order, 0)
    if isinstance(public.value, PreconditionError):
        assert block.value.indices == public.value.indices
    for k in (0, 2):  # the other columns are clean
        gronwall_bound(GronwallInput(v=GridFn(grid, v[:, k]), mu=GridFn(grid, mu[:, k]),
                                     alpha=order, a_index=0))


#: the public error text of each kind of failure; a block raises the same
#: class and indices with "case k: " in front of the same text
PUBLIC_MESSAGES = {
    "ceiling": (PreconditionError, "mu violates the strict admissibility ceiling at indices [4]", (4,)),
    "diagonal": (PreconditionError, "diagonal factor 1 - W_ii coeff_i not positive at indices [2]", (2,)),
    "divergence": (DivergenceError,
                   "comparison series reaches 2.90212e+102 at grid index 39, beyond 1e+100", None),
    "overflow": (DivergenceError, "bound v(a) * series overflows with v(a) = 1e+308", None),
    "nonfinite": (DomainError, "v and mu must be finite", None),
    "negative": (DomainError, "coefficient mu must be nonnegative", None),
    "comparison_nonfinite": (DomainError, "w, v and x must be finite", None),
    "comparison_product": (DomainError, "grid function values must be finite", None),
    "delta": (PreconditionError,
              "delta must satisfy 0 <= delta < 1/(1-q); offending indices [3, 5]", (3, 5)),
}


def _public_and_block_calls(kind):
    """(public call, block call, failing case) for one kind of failure."""
    if kind in ("comparison_nonfinite", "comparison_product"):
        grid = _window(0.5, 12)
        order = FracOrder(0.5)
        x = np.stack([0.5 * sart_bound(grid, order)] * 3, axis=1)
        w, v = np.ones((grid.count, 3)), np.ones((grid.count, 3))
        # NaN reaches ComparisonInput's check; 1e308 * x overflows in x * w
        w[7, 2] = math.nan if kind == "comparison_nonfinite" else 1e308
        fns = [GridFn._owned(grid, a[:, 2].copy()) for a in (w, v, x)]
        return (lambda: verify_comparison(ComparisonInput(*fns, alpha=order, a_index=0)),
                lambda: _verify_comparison_block(grid, w, v, x, order, 0), 2)
    if kind == "delta":
        grid = _window(0.5, 12)
        delta = np.full((grid.count, 3), 0.5)
        delta[3, 1] = 1.0 / (1.0 - grid.q)
        delta[5, 1] = -1e-4
        v = np.ones_like(delta)
        return (lambda: q_gronwall_classical(GridFn(grid, v[:, 1]), GridFn(grid, delta[:, 1]), 0),
                lambda: _q_gronwall_classical_block(grid, v, delta, 0), 1)
    grid, order, v, mu, _, _ = _bad_case(kind)
    return (lambda: gronwall_bound(GronwallInput(v=GridFn._owned(grid, v[:, 1].copy()),
                                                 mu=GridFn._owned(grid, mu[:, 1].copy()),
                                                 alpha=order, a_index=0)),
            lambda: _gronwall_bound_block(grid, v, mu, order, 0), 1)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("kind", list(PUBLIC_MESSAGES))
def test_error_messages_are_the_public_text_with_the_case_in_front(kind):
    error, text, indices = PUBLIC_MESSAGES[kind]
    public, block, k = _public_and_block_calls(kind)
    for call, want in ((public, text), (block, f"case {k}: {text}")):
        with pytest.raises(QFracError) as exc:
            call()
        assert type(exc.value) is error
        assert str(exc.value) == want
        assert getattr(exc.value, "indices", None) == indices


def test_comparison_and_order_one_block_errors_name_the_case():
    grid = _window(0.5, 12)
    order = FracOrder(0.5)
    x = np.stack([0.5 * sart_bound(grid, order)] * 3, axis=1)
    w = np.ones((grid.count, 3))
    w[7, 2] = math.inf
    with pytest.raises(DomainError, match="case 2: w, v and x must be finite"):
        _verify_comparison_block(grid, w, np.ones_like(w), x, order, 0)
    delta = np.full((grid.count, 3), 0.5)
    delta[3, 1] = 1.0 / (1.0 - grid.q)
    with pytest.raises(PreconditionError, match=r"case 1: delta must satisfy") as exc:
        _q_gronwall_classical_block(grid, np.ones_like(delta), delta, 0)
    assert exc.value.indices == (3,)


def test_block_rows_are_no_less_accurate_than_scalar_rows():
    """1,024 float systems (I - W diag mu) u = 1 with mu at 0.9-0.999 of the
    ceiling, each solved exactly (50 digits) for its float W and mu."""
    rng = np.random.default_rng(20261018)
    worst = {"scalar": 0.0, "block": 0.0}
    for q, al, n, a_index in [(0.3, 0.5, 12, 0), (0.3, 0.9, 12, 2), (0.5, 0.5, 12, 0),
                              (0.5, 0.9, 16, 0), (0.7, 1.0, 12, 3), (0.9, 0.3, 12, 0),
                              (0.9, 0.7, 16, 1), (0.95, 0.4, 12, 0)]:
        grid = _window(q, n)
        order = FracOrder(al)
        kernel = build_kernel(grid, a_index, order)
        mu = rng.uniform(0.9, 0.999, (n, 128)) * sart_bound(grid, order)[:, None]
        block = _block_rows(kernel, mu, np.ones(128))
        for k in range(128):
            exact = ref_linear_system(kernel.weights, mu[:, k], a_index)
            scalar = _linear_rows(kernel, mu[:, k], 1.0)
            for name, got in (("scalar", scalar), ("block", block[:, k])):
                err = max(float(abs((g - e) / e)) for g, e in zip(got.tolist(), exact))
                worst[name] = max(worst[name], err)
    # measured 1.1e-15 (block, factor rounded once) and 5.7e-14 (scalar)
    assert 0.0 < worst["block"] <= worst["scalar"], worst
    assert worst["block"] < 1e-14, worst
