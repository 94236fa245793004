"""Quadrature consumers: posterior mean and variance, worst-case
error, optimal weights, squared discrepancy between measures, and the
numerical-safety machinery around the Gram solve."""

import math
import random

import numpy as np
import pytest

from kembed.dictionary import embed
from kembed.errors import InvalidSpecError, NumericalFailure
from kembed.kernels import GaussianKernel, MaternKernel
from kembed.measures import EmpiricalMeasure, GaussianMeasure, UniformBoxMeasure
from kembed.quadrature import (
    QuadratureProblem,
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
