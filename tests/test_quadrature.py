"""Quadrature consumers: posterior mean and variance, worst-case
error, optimal weights, squared discrepancy between measures, and the
numerical-safety machinery around the Gram solve."""

import math
import random
import tracemalloc

import numpy as np
import pytest

from kembed.dictionary import embed
from kembed.errors import InvalidSpecError, NumericalFailure
from kembed.kernels import GaussianKernel, MaternKernel
from kembed.measures import (
    EmpiricalMeasure,
    GaussianMeasure,
    MixtureMeasure,
    UniformBoxMeasure,
)
from kembed.oracle import estimate_kp
from kembed.quadrature import (
    _SOLVE_BLOCK,
    QuadratureProblem,
    _back_substitute,
    _forward_substitute,
    bq_posterior,
    make_problem,
    mmd2,
    optimal_weights,
    wce,
)


def _gauss_setup(nodes, values=None):
    k = GaussianKernel(lengthscales=(1.0,))
    p = GaussianMeasure(mean=(0.0,), cov=(1.0,))
    e = embed(k, p)
    return make_problem(e, np.asarray(nodes, dtype=float), values=values)


def test_single_node_posterior():
    prob = _gauss_setup([[0.0]], values=[1.0])
    post = bq_posterior(prob)
    assert post.mean == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
    assert post.variance == pytest.approx(
        1.0 / math.sqrt(3.0) - 0.5, rel=1e-12
    )
    assert post.jitter == 0.0


def test_reproducing_property():
    # integrating K(., x_j) recovers the embedding at x_j
    rng = np.random.default_rng(41)
    nodes = rng.normal(size=(6, 1))
    k = GaussianKernel(lengthscales=(1.0,))
    p = GaussianMeasure(mean=(0.0,), cov=(1.0,))
    e = embed(k, p)
    for j in range(6):
        values = k.batch(nodes[j], nodes)
        prob = make_problem(e, nodes, values=values)
        post = bq_posterior(prob)
        assert post.mean == pytest.approx(e.kp_at(nodes[j]), abs=1e-10)


def test_posterior_variance_equals_squared_wce():
    rng = np.random.default_rng(42)
    nodes = rng.normal(size=(5, 1))
    prob = _gauss_setup(nodes, values=np.zeros(5))
    post = bq_posterior(prob)
    w = optimal_weights(prob)
    assert post.variance == pytest.approx(wce(prob, w) ** 2, abs=1e-9)


def test_variance_decreases_with_more_nodes():
    rng = np.random.default_rng(43)
    pts = rng.normal(size=(8, 1))
    prev = None
    for n in range(1, 9):
        prob = _gauss_setup(pts[:n], values=np.zeros(n))
        post = bq_posterior(prob)
        if prev is not None:
            assert post.variance <= prev + 1e-10
        prev = post.variance


def test_zero_nodes_convention():
    k = GaussianKernel(lengthscales=(1.0,))
    p = GaussianMeasure(mean=(0.0,), cov=(1.0,))
    e = embed(k, p)
    prob = make_problem(e, np.empty((0, 1)))
    post = bq_posterior(prob)
    assert post.mean == 0.0
    assert post.variance == e.kpp
    assert wce(prob, np.empty(0)) == pytest.approx(math.sqrt(e.kpp), rel=1e-15)


def test_wce_zero_weights_is_sqrt_kpp():
    prob = _gauss_setup([[0.0], [1.0]])
    assert wce(prob, np.zeros(2)) == pytest.approx(
        math.sqrt(1.0 / math.sqrt(3.0)), rel=1e-14
    )


def test_optimal_weights_locally_minimal():
    rng = np.random.default_rng(44)
    nodes = rng.normal(size=(4, 1))
    prob = _gauss_setup(nodes)
    w = optimal_weights(prob)
    base = wce(prob, w)
    gen = np.random.default_rng(45)
    for _ in range(100):
        d = gen.normal(size=4)
        d *= 1e-3 / np.linalg.norm(d)
        assert wce(prob, w + d) >= base - 1e-15


def test_integral_bounded_by_wce():
    # any RKHS function obeys |I(f) - Q(f)| <= ||f|| * wce
    k = GaussianKernel(lengthscales=(1.0,))
    p = GaussianMeasure(mean=(0.0,), cov=(1.0,))
    e = embed(k, p)
    rng = np.random.default_rng(46)
    nodes = rng.normal(size=(5, 1))
    prob = make_problem(e, nodes)
    w = optimal_weights(prob)
    err = wce(prob, w)
    for _ in range(10):
        z = rng.normal(size=(4, 1))
        a = rng.normal(size=4)
        gram_z = k.gram(z)
        norm = math.sqrt(float(a @ gram_z @ a))
        integral = sum(a[j] * e.kp_at(z[j]) for j in range(4))
        quad = sum(
            w[i] * sum(a[j] * k(nodes[i], z[j]) for j in range(4))
            for i in range(5)
        )
        assert abs(integral - quad) <= norm * err + 1e-8


def test_mmd_same_measure_is_zero():
    k = GaussianKernel(lengthscales=(1.0,))
    p = GaussianMeasure(mean=(0.0,), cov=(1.0,))
    e = embed(k, p)
    assert mmd2(e, p) == pytest.approx(0.0, abs=1e-12)


def test_mmd_equals_wce_for_weighted_points():
    rng = np.random.default_rng(47)
    nodes = rng.normal(size=(5, 1))
    prob = _gauss_setup(nodes)
    w = optimal_weights(prob)
    e = prob.embedding
    val = mmd2(e, nodes, weights=w)
    assert val == pytest.approx(wce(prob, w) ** 2, abs=1e-12)


def test_mmd_empirical_measure():
    rng = np.random.default_rng(48)
    pts = rng.normal(size=(6, 1))
    emp = EmpiricalMeasure(points=pts)
    k = GaussianKernel(lengthscales=(1.0,))
    p = GaussianMeasure(mean=(0.0,), cov=(1.0,))
    e = embed(k, p)
    prob = make_problem(e, pts)
    uniform = np.full(6, 1.0 / 6.0)
    assert mmd2(e, emp) == pytest.approx(
        wce(prob, uniform) ** 2, abs=1e-12
    )
    with pytest.raises(InvalidSpecError):
        mmd2(e, emp, weights=uniform)


def test_mmd_between_gaussians():
    k = GaussianKernel(lengthscales=(1.0,))
    p = GaussianMeasure(mean=(0.0,), cov=(1.0,))
    q = GaussianMeasure(mean=(1.0,), cov=(1.0,))
    e = embed(k, p)
    val = mmd2(e, q)
    # closed form: 2/sqrt(3) (1 - exp(-1/6))
    expected = 2.0 / math.sqrt(3.0) * (1.0 - math.exp(-1.0 / 6.0))
    assert val == pytest.approx(expected, rel=1e-12)
    assert val >= -1e-10


def test_mmd_shrinks_with_sample_size():
    k = GaussianKernel(lengthscales=(1.0,))
    p = GaussianMeasure(mean=(0.0,), cov=(1.0,))
    e = embed(k, p)
    small, large = [], []
    for seed in range(10):
        xs = p.sample(100, seed)
        ys = p.sample(10_000, seed + 100)
        small.append(mmd2(e, EmpiricalMeasure(points=xs)))
        large.append(mmd2(e, EmpiricalMeasure(points=ys)))
    assert np.median(large) < np.median(small)
    assert min(small + large) >= -1e-10


def test_duplicate_nodes_rejected():
    with pytest.raises(InvalidSpecError):
        _gauss_setup([[0.5], [0.5]])
    # near-duplicates within the distinctness tolerance also fail
    with pytest.raises(InvalidSpecError):
        _gauss_setup([[0.5], [0.5 + 1e-13]])


def test_first_coincident_pair_is_reported_among_many_nodes():
    # the first pair in (i, j) order is named, however deep in the set
    k = GaussianKernel(lengthscales=(1.0, 1.0))
    e = embed(k, GaussianMeasure(mean=(0.0, 0.0), cov=(1.0, 1.0)))
    nodes = np.random.default_rng(7).uniform(-2.0, 2.0, size=(1200, 2))
    nodes[990] = nodes[700] + [4e-13, 0.0]
    nodes[912] = nodes[700] - [0.0, 9e-13]
    nodes[1100] = nodes[805]
    with pytest.raises(InvalidSpecError, match=r"^nodes 700 and 912 coincide within 1e-12$"):
        make_problem(e, nodes)
    nodes[912] += [0.0, 2e-12]
    with pytest.raises(InvalidSpecError, match=r"^nodes 700 and 990 coincide within 1e-12$"):
        make_problem(e, nodes)


def _first_pair_by_loop(nodes):
    """The pairwise loop the distinctness check used to run: the first
    i with a later node within 1e-12 in every coordinate, and the first
    such j."""
    n = len(nodes)
    for i in range(n - 1):
        gaps = np.abs(nodes[i + 1 :] - nodes[i]).reshape(n - i - 1, -1)
        close = np.flatnonzero(gaps.max(axis=1) <= 1e-12)
        if close.size:
            return f"nodes {i} and {i + 1 + close[0]} coincide within 1e-12"
    return None


def _grid(m, d):
    axis = np.linspace(-1.0, 1.0, m)
    return np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1).reshape(-1, d)


@pytest.mark.parametrize("layout", ["uniform", "tensor_grid", "rounded_far"])
def test_distinctness_check_agrees_with_the_pairwise_loop(layout):
    e = embed(GaussianKernel(lengthscales=(1.0, 1.0)),
              GaussianMeasure(mean=(0.0, 0.0), cov=(1.0, 1.0)))
    rng = np.random.default_rng(11)
    for trial in range(60):
        n = int(rng.integers(2, 400))
        if layout == "uniform":
            nodes = rng.uniform(-1.0, 1.0, (n, 2))
        elif layout == "tensor_grid":
            # many nodes share each first coordinate
            nodes = rng.permutation(_grid(int(math.isqrt(n)) + 1, 2))
        else:
            # coarse values far from 0, where 1e-12 is below an ulp
            nodes = np.round(rng.uniform(-1.0, 1.0, (n, 2)), 1) + 1e6
        for _ in range(int(rng.integers(0, 4))):
            i, j = rng.integers(0, len(nodes), 2)
            nodes[j] = nodes[i] + rng.uniform(-1.5e-12, 1.5e-12, 2)
        want = _first_pair_by_loop(nodes)
        gram, m = np.eye(len(nodes)), np.zeros(len(nodes))
        if want is None:
            QuadratureProblem(embedding=e, nodes=nodes, gram=gram, m=m)
        else:
            with pytest.raises(InvalidSpecError) as err:
                QuadratureProblem(embedding=e, nodes=nodes, gram=gram, m=m)
            assert str(err.value) == want


def test_jitter_ladder_rescues_near_singular():
    nodes = [[0.5], [0.5 + 1e-11]]
    prob = _gauss_setup(nodes, values=[0.1, 0.1])
    post = bq_posterior(prob)
    assert post.jitter > 0.0
    assert math.isfinite(post.mean)
    assert math.isfinite(post.variance)


def test_forced_jitter_failure():
    k = GaussianKernel(lengthscales=(1.0,))
    p = GaussianMeasure(mean=(0.0,), cov=(1.0,))
    e = embed(k, p)
    prob = make_problem(e, np.array([[0.5], [0.5 + 1e-11]]), values=[0.1, 0.1],
                        jitter=0.0)
    with pytest.raises(NumericalFailure):
        bq_posterior(prob)


def test_forced_jitter_is_applied_verbatim():
    prob = _gauss_setup([[0.0], [1.0]])
    forced = make_problem(prob.embedding, prob.nodes, values=[0.0, 0.0],
                          jitter=1e-3)
    post = bq_posterior(forced)
    assert post.jitter == 1e-3


@pytest.mark.parametrize("n", [1, _SOLVE_BLOCK, _SOLVE_BLOCK + 1, 3 * _SOLVE_BLOCK + 17])
def test_blocked_substitution_solves_the_cholesky_factors(n):
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, n))
    chol = np.linalg.cholesky(a @ a.T / n + np.eye(n))
    b = rng.normal(size=n)
    y = _forward_substitute(chol, b)
    w = _back_substitute(chol, y)
    if n <= _SOLVE_BLOCK:
        # one block: the general solve itself, bit for bit
        assert y.tobytes() == np.linalg.solve(chol, b).tobytes()
        assert w.tobytes() == np.linalg.solve(chol.T, y).tobytes()
    assert np.linalg.norm(chol @ y - b) <= 1e-13 * np.linalg.norm(b)
    assert np.linalg.norm(chol.T @ w - y) <= 1e-13 * np.linalg.norm(y)


def test_problem_validation():
    k = GaussianKernel(lengthscales=(1.0,))
    p = GaussianMeasure(mean=(0.0,), cov=(1.0,))
    e = embed(k, p)
    with pytest.raises(InvalidSpecError):
        make_problem(e, np.array([[math.nan]]))
    with pytest.raises(InvalidSpecError):
        make_problem(e, np.array([[0.0]]), values=[1.0, 2.0])
    with pytest.raises(InvalidSpecError):
        make_problem(e, np.array([[0.0]]), jitter=-1e-9)
    nodes = np.array([[0.0], [1.0]])
    gram = k.gram(nodes)
    m = np.array([e.kp_at(x) for x in nodes])
    bad = gram.copy()
    bad[0, 1] += 1.0  # asymmetric
    with pytest.raises(InvalidSpecError):
        QuadratureProblem(embedding=e, nodes=nodes, gram=bad, m=m)


def test_posterior_requires_values():
    prob = _gauss_setup([[0.0], [1.0]])
    with pytest.raises(InvalidSpecError):
        bq_posterior(prob)  # no values to average


def test_matern_problem_roundtrip():
    # a second kernel family through the same machinery
    k = MaternKernel(nu=1.5, lengthscale=0.8)
    p = UniformBoxMeasure(lows=(0.0,), highs=(1.0,))
    e = embed(k, p)
    nodes = np.array([[0.2], [0.5], [0.8]])
    prob = make_problem(e, nodes, values=[0.1, 0.4, 0.2])
    post = bq_posterior(prob)
    assert math.isfinite(post.mean)
    assert post.variance >= 0.0
    w = optimal_weights(prob)
    assert post.variance == pytest.approx(wce(prob, w) ** 2, abs=1e-9)


def test_numeric_fallback_consumers_share_one_sample(count_draws):
    # Matern on a 2-d box has no closed form: K_P at the nodes comes
    # from one Monte Carlo sample, with the bits of per-node estimates
    k = MaternKernel(nu=1.5, lengthscale=0.6)
    p = UniformBoxMeasure(lows=(0.0, -0.5), highs=(1.0, 1.0))
    e = embed(k, p, budget=2000, seed=5)
    assert e.kp_provenance == "numeric_fallback"
    nodes = p.sample(30, seed=9)
    per_node = [estimate_kp(k, p, x, budget=2000, seed=5).value for x in nodes]
    draws = count_draws(p)
    prob = make_problem(e, nodes)
    assert prob.m.tolist() == per_node
    assert len(draws) == 1
    w = np.full(30, 1.0 / 30)
    want = e.kpp - 2.0 * float(np.dot(w, per_node)) + float(w @ k.gram(nodes) @ w)
    assert mmd2(e, nodes) == want
    assert len(draws) == 2


def test_numeric_fallback_mixture_draws_once_per_component(count_draws):
    # neither box has a closed form for Matern in 2-d: the mixture's rows
    # take one sample per component, not one per node and component
    k = MaternKernel(nu=1.5, lengthscale=0.6)
    boxes = (
        UniformBoxMeasure(lows=(0.0, 0.0), highs=(1.0, 1.0)),
        UniformBoxMeasure(lows=(0.5, -1.0), highs=(2.0, 0.5)),
    )
    p = MixtureMeasure(components=boxes, weights=(0.3, 0.7))
    e = embed(k, p, budget=2000, seed=5)
    assert e.kp_provenance == "numeric_fallback"
    nodes = boxes[0].sample(10, seed=9)
    per_node = [e.kp_at(x) for x in nodes]
    draws = count_draws(boxes[0])
    prob = make_problem(e, nodes)
    assert draws == [2000, 2000]
    assert prob.m.tolist() == per_node


@pytest.mark.parametrize("n", [3, 4000])
def test_mmd2_kqq_without_the_gram(n):
    # K_QQ is summed over Gram rows; at n = 3 the bits are those of
    # w @ gram @ w. At n = 4 000 a per-row dot product and numpy's
    # vector-matrix product sum in different orders, so they agree to
    # rounding (a few ulps of the sum of |w_i w_j K_ij|), not bitwise.
    k = GaussianKernel(lengthscales=(0.8, 1.2))
    p = GaussianMeasure(mean=(0.1, -0.2), cov=(1.0, 0.5))
    e = embed(k, p)
    q = p.sample(n, seed=n)
    signed = np.random.default_rng(n).normal(size=n)
    for w in (np.full(n, 1.0 / n), signed):
        kpq = float(np.dot(w, [float(v) for v in e.kp_rows(q)]))
        gram = k.gram(q)
        want = e.kpp - 2.0 * kpq + float(w @ gram @ w)
        got = mmd2(e, q, weights=w)
        if n == 3:
            assert got == want
        else:
            scale = float(np.abs(w) @ gram @ np.abs(w))
            assert abs(got - want) <= 1e-14 * scale


def test_mmd2_memory_grows_with_n_not_n_squared():
    k = GaussianKernel(lengthscales=(1.0,))
    p = GaussianMeasure(mean=(0.0,), cov=(1.0,))
    e = embed(k, p)
    q = p.sample(10_000, seed=3)
    tracemalloc.start()
    try:
        value = mmd2(e, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the Gram over 10 000 points would take 800 MB
    assert peak < 20e6
    assert 0.0 <= value < 1e-3


def test_closed_form_rows_are_per_row_kp_at():
    k = GaussianKernel(lengthscales=(0.8, 1.3))
    p = GaussianMeasure(mean=(0.1, -0.2), cov=(1.0, 0.5))
    e = embed(k, p)
    nodes = p.sample(30, seed=9)
    assert e.kp_rows(nodes).tobytes() == np.array([e.kp_at(row) for row in nodes]).tobytes()

