"""Quadrature consumers: posterior mean and variance, worst-case
error, optimal weights, squared discrepancy between measures, and the
numerical-safety machinery around the Gram solve."""

import math
import random
import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from kembed import kernels, quadrature
from kembed.dictionary import embed
from kembed.errors import InvalidSpecError, NumericalFailure, UnsupportedPairError
from kembed.kernels import (
    AffineMap,
    ComposedKernel,
    GaussianKernel,
    MaternKernel,
    PowerSeriesKernel,
    SumKernel,
    WendlandKernel,
    _matern_profile,
)
from kembed.measures import (
    EmpiricalMeasure,
    GaussianMeasure,
    MixtureMeasure,
    UniformBoxMeasure,
)
from kembed.oracle import estimate_kp
from kembed.stein import SteinKernel
from kembed.quadrature import (
    _RESIDUAL_TOL,
    _SOLVE_BLOCK,
    _VARIANCE_SLACK,
    QuadratureProblem,
    _back_substitute,
    _forward_substitute,
    _solve_gram,
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


@pytest.mark.parametrize(
    "kernel",
    [MaternKernel(nu=2.5, lengthscale=0.8), WendlandKernel(order=2, lengthscale=1.5)],
    ids=["matern52", "wendland2"],
)
def test_mmd_between_gaussians_under_a_stationary_kernel(kernel):
    # each of K_PP, K_PQ and K_QQ is E k(X - Y) under a difference
    # measure, integrated here by the oracle, which reads no closed form
    p = GaussianMeasure(mean=(0.0,), cov=(1.0,))
    q = GaussianMeasure(mean=(1.5,), cov=(0.5,))
    e = embed(kernel, p)

    def at_zero(mean, var):
        return estimate_kp(kernel, GaussianMeasure(mean=(mean,), cov=(var,)), x=[0.0]).value

    expected = at_zero(0.0, 2.0) - 2.0 * at_zero(-1.5, 1.5) + at_zero(0.0, 1.0)
    assert mmd2(e, q) == pytest.approx(expected, abs=1e-12)
    assert mmd2(e, p) == 0.0
    with pytest.raises(UnsupportedPairError, match="stationary"):
        mmd2(embed(PowerSeriesKernel({(0,): 1.0, (2,): 0.5}), p), p)


def test_mmd2_of_a_composed_kernel_is_the_base_on_the_images():
    # K(2x + 0.5, 2y + 0.5) between N(0, 1) and N(1, 1) is the base
    # kernel between the images N(0.5, 4) and N(2.5, 4)
    base = GaussianKernel((0.7,))
    kernel = ComposedKernel(base, AffineMap(2.0, 0.5))
    p, q = GaussianMeasure((0.0,), 1.0), GaussianMeasure((1.0,), 1.0)
    got = mmd2(embed(kernel, p), q)
    image_p, image_q = GaussianMeasure((0.5,), 4.0), GaussianMeasure((2.5,), 4.0)
    assert got == mmd2(embed(base, image_p), image_q)

    def at_zero(mean, var):
        return estimate_kp(base, GaussianMeasure((mean,), var), x=[0.0]).value

    expected = at_zero(0.0, 8.0) - 2.0 * at_zero(-2.0, 8.0) + at_zero(0.0, 8.0)
    assert got == pytest.approx(expected, rel=1e-10, abs=1e-10)


def test_mmd2_between_an_empirical_p_and_a_gaussian_q():
    # K_PQ sums Q's closed-form K_P over P's atoms, so the value is the
    # raw-point discrepancy with P and Q swapped
    atoms = np.array([[-0.4], [0.3], [1.2]])
    p = EmpiricalMeasure(atoms, weights=(0.2, 0.5, 0.3))
    q = GaussianMeasure((0.5,), 0.8)
    k = MaternKernel(nu=2.5, lengthscale=0.9)
    got = mmd2(embed(k, p), q)
    assert got == pytest.approx(mmd2(embed(k, q), atoms, weights=(0.2, 0.5, 0.3)), rel=1e-14)
    # Q's own Matern-7/2 embedding is an oracle estimate
    m72 = MaternKernel(nu=3.5, lengthscale=0.9)
    with pytest.raises(UnsupportedPairError, match="stationary"):
        mmd2(embed(m72, p), q)


def test_mmd2_of_a_measure_q_takes_no_weights():
    e = embed(GaussianKernel((1.0,)), GaussianMeasure((0.0,), 1.0))
    with pytest.raises(InvalidSpecError, match="weights"):
        mmd2(e, GaussianMeasure((1.0,), 1.0), weights=[5.0])


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


def _reference_solve(problem):
    # the jitter ladder with a fresh C + jit * I on every rung
    c, m, n = problem.gram, problem.m, problem.n
    mean_diag = float(np.trace(c)) / n
    for rel in (0.0, 1e-12, 1e-10, 1e-8, 1e-6):
        jit = rel * abs(mean_diag)
        sys = c + jit * np.eye(n)
        try:
            chol = np.linalg.cholesky(sys)
        except np.linalg.LinAlgError:
            continue
        w = _back_substitute(chol, _forward_substitute(chol, m))
        if np.linalg.norm(sys @ w - m) <= 1e-8 * max(np.linalg.norm(m), 1e-300):
            return w, jit
    raise AssertionError("the reference ladder failed")


@pytest.mark.parametrize("signed_zeros", [False, True])
def test_jitter_rungs_have_the_bits_of_c_plus_jit_identity(signed_zeros):
    # nodes 1e-11 apart need a rung above zero, and a node 60 lengthscales
    # away gives exact zeros off the diagonal, which may be -0.0
    prob = _gauss_setup([[0.5], [0.5 + 1e-11], [60.0]], values=[0.1, 0.1, 0.2])
    e = prob.embedding
    gram = prob.gram.copy()
    if signed_zeros:
        gram[gram == 0.0] = -0.0
    prob = QuadratureProblem(embedding=e, nodes=prob.nodes, gram=gram, m=prob.m,
                             values=prob.values)
    w, jit = _solve_gram(prob)[:2]
    want_w, want_jit = _reference_solve(prob)
    assert jit == want_jit > 0.0
    assert w.tobytes() == want_w.tobytes()


def test_make_problem_symmetrizes_only_a_gram_that_needs_it():
    nodes = GaussianMeasure(mean=(0.0,), cov=(1.0,)).sample(50, seed=4)
    # a symmetric family's Gram is symmetric bit for bit and kept as is
    k = MaternKernel(nu=2.5, lengthscale=0.7)
    e = embed(k, GaussianMeasure(mean=(0.0,), cov=(1.0,)))
    assert make_problem(e, nodes).gram.tobytes() == k.gram(nodes).tobytes()
    # a Stein Gram is symmetric to roundoff only, and is averaged with its transpose
    target = GaussianMeasure(mean=(0.3,), cov=(1.2,))
    stein = SteinKernel(GaussianKernel(lengthscales=(0.8,)), target, c=1.0)
    gram = stein.gram(nodes)
    got = make_problem(embed(stein, target), nodes).gram
    assert got.tobytes() == (0.5 * (gram + gram.T)).tobytes()
    assert got.tobytes() == got.T.tobytes()


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


def test_non_numeric_points_raise_invalid_spec_everywhere():
    # one conversion serves every entry point that takes points from a
    # caller, so none lets numpy's bare ValueError through
    k = GaussianKernel(lengthscales=(0.5,))
    e = embed(k, UniformBoxMeasure(lows=(0.0,), highs=(1.0,)))
    paths = {
        "as_point": lambda: kernels.as_point("x"),
        "as_points": lambda: kernels.as_points([["x"]]),
        "make_problem": lambda: make_problem(e, ["a", "b"]),
        "kp_rows": lambda: e.kp_rows([["x"]]),
        "mmd2": lambda: mmd2(e, "abc"),
        "batch": lambda: k.batch(0.0, [["q"]]),
    }
    for name, path in paths.items():
        with pytest.raises(InvalidSpecError, match="^points must be numbers: could not convert"):
            path()


def test_symmetry_check_needs_no_n_by_n_temporary():
    # the Gram itself is 8 MB at 1 000 nodes; the check compares 128 x
    # 128 tiles, and the finiteness mask takes 1 MB
    k = GaussianKernel(lengthscales=(0.5,))
    e = embed(k, UniformBoxMeasure(lows=(0.0,), highs=(1.0,)))
    nodes = np.linspace(0.0, 1.0, 1000)[:, None]
    gram, m = k.gram(nodes), e.kp_rows(nodes)
    tracemalloc.start()
    try:
        QuadratureProblem(embedding=e, nodes=nodes, gram=gram, m=m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6


def test_symmetry_check_reaches_the_last_ragged_tile():
    # 300 nodes make tiles of 128, 128 and 44 rows; the asymmetry sits in
    # the last diagonal tile only
    k = GaussianKernel(lengthscales=(0.5,))
    e = embed(k, UniformBoxMeasure(lows=(0.0,), highs=(1.0,)))
    nodes = np.linspace(0.0, 1.0, 300)[:, None]
    gram, m = k.gram(nodes), e.kp_rows(nodes)
    QuadratureProblem(embedding=e, nodes=nodes, gram=gram, m=m)
    gram[299, 260] += 1e-6
    with pytest.raises(InvalidSpecError, match="gram matrix must be symmetric"):
        QuadratureProblem(embedding=e, nodes=nodes, gram=gram, m=m)


def test_make_problem_keeps_the_gram_of_symmetric_sums_and_composed_kernels():
    nodes = GaussianMeasure(mean=(0.0,), cov=(1.0,)).sample(300, seed=5)
    box = UniformBoxMeasure(lows=(0.0,), highs=(1.0,))
    for k in (
        ComposedKernel(GaussianKernel((0.3,)), AffineMap(2.0, 0.0)),
        SumKernel(
            [MaternKernel(nu=1.5), ComposedKernel(GaussianKernel((0.3,)), AffineMap(-1.0, 0.5))],
            [0.4, 0.6],
        ),
    ):
        assert k.symmetric
        gram = k.gram(nodes)
        assert gram.tobytes() == np.stack([k.batch(x, nodes) for x in nodes]).tobytes()
        assert make_problem(embed(k, box), nodes).gram.tobytes() == gram.tobytes()


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


def test_numeric_fallback_consumers_share_one_rule(count_draws, count_rules):
    # Matern on a 2-d box has no closed form: K_P at the nodes comes
    # from one randomized rule, with the bits of per-node estimates
    k = MaternKernel(nu=1.5, lengthscale=0.6)
    p = UniformBoxMeasure(lows=(0.0, -0.5), highs=(1.0, 1.0))
    e = embed(k, p, budget=2000, seed=5)
    assert e.kp_provenance == "numeric_fallback"
    nodes = p.sample(30, seed=9)
    per_node = [estimate_kp(k, p, x, budget=2000, seed=5).value for x in nodes]
    draws, rules = count_draws(p), count_rules()
    prob = make_problem(e, nodes)
    assert prob.m.tolist() == per_node
    assert rules == [p]
    w = np.full(30, 1.0 / 30)
    want = e.kpp - 2.0 * float(np.dot(w, per_node)) + float(w @ k.gram(nodes) @ w)
    assert mmd2(e, nodes) == want
    assert rules == [p, p]
    assert draws == []


def test_numeric_fallback_mixture_takes_one_rule_per_component(count_draws, count_rules):
    # neither box has a closed form for Matern in 2-d: the mixture's rows
    # take one rule per component, not one per node and component
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
    draws, rules = count_draws(boxes[0]), count_rules()
    prob = make_problem(e, nodes)
    assert rules == list(boxes)
    assert draws == []
    assert prob.m.tolist() == per_node


@pytest.mark.parametrize("n", [3, 4000])
def test_mmd2_kqq_without_the_gram(n):
    # K_QQ is summed over blocks of Gram rows; at n = 3 the bits are
    # those of w @ gram @ w. At n = 4 000 the blocks and numpy's
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


def test_mmd2_of_no_points_is_a_typed_error():
    e = embed(MaternKernel(nu=2.5), GaussianMeasure(mean=(0.0,), cov=(1.0,)))
    for weights in (None, []):
        with pytest.raises(InvalidSpecError, match="^Q needs at least one point$"):
            mmd2(e, np.empty((0, 1)), weights=weights)


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



def _line_and_dense(nu, n, jitter, layout):
    # a 1-d Matern problem and the same problem with its Gram. The nodes
    # spread geometrically from 1e-3 to 1e3 lengthscales, in random order,
    # or fall uniformly at random on [0, layout] lengthscales
    lengthscale = 0.7
    if layout == "geometric":
        rng = np.random.default_rng([0, n])
        x = rng.permutation(lengthscale * np.geomspace(1e-3, 1e3, n))
    else:
        x = np.random.default_rng(n).uniform(0.0, layout * lengthscale, n)
    kernel = MaternKernel(nu=nu, lengthscale=lengthscale)
    box = UniformBoxMeasure(lows=(float(x.min()) - 1.0,), highs=(float(x.max()) + 1.0,))
    line = make_problem(embed(kernel, box), x[:, None], np.sin(x / lengthscale), jitter=jitter)
    dense = QuadratureProblem(embedding=line.embedding, nodes=line.nodes, gram=kernel.gram(line.nodes),
                              m=line.m, values=line.values, jitter=jitter)
    return line, dense


def _refuse_the_gram(patch):
    # a dense Gram or a Cholesky factorization fails the test
    def refuse(*args, **kwargs):
        raise AssertionError("a dense Gram or factorization was requested")

    patch.setattr(kernels.Kernel, "gram", refuse)
    patch.setattr(np.linalg, "cholesky", refuse)


def _assert_one_sided_rungs(line, got, want):
    # the line route keeps no rung that the dense route fails; it tries a
    # rung past the dense route's only where its own smallest innovation
    # variance at the dense route's rung is at most the floor, the one
    # case in which _kalman_rungs gives None
    assert got.rungs[: len(want.rungs)] == want.rungs
    if len(got.rungs) > len(want.rungs):
        assert quadrature._kalman_rungs(line)(want.jitter) is None


@pytest.mark.parametrize("layout", ["geometric", 0.1, 1.0, 10.0])
@pytest.mark.parametrize("jitter", [None, 1e-8])
@pytest.mark.parametrize("n", [1, 2, 3, 33, 1000])
@pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, 3.5])
def test_kalman_solve_agrees_with_the_dense_cholesky(nu, n, jitter, layout, monkeypatch):
    line, dense = _line_and_dense(nu, n, jitter, layout)
    want = bq_posterior(dense)
    assert want.solver == "cholesky"
    with monkeypatch.context() as patch:
        _refuse_the_gram(patch)
        got = bq_posterior(line)
        _assert_one_sided_rungs(line, got, want)
        quadratic = _solve_gram(line).quadratic
        weights = optimal_weights(line)
        line_wce = wce(line, got.weights)
    if got.jitter != want.jitter:
        # the answer is held against the dense problem solved at the rung kept
        dense = QuadratureProblem(embedding=dense.embedding, nodes=dense.nodes, gram=dense.gram,
                                  m=dense.m, values=dense.values, jitter=got.jitter)
        want = bq_posterior(dense)
    assert got.jitter == want.jitter == got.rungs[-1]
    assert got.solver == "kalman"
    # the residuals against the Gram itself, not the ones the solves report
    w, sys = got.weights, dense.gram + got.jitter * np.eye(n)
    residual = np.linalg.norm(sys @ w - line.m)
    assert residual <= _RESIDUAL_TOL * np.linalg.norm(line.m)
    assert got.residual <= _RESIDUAL_TOL
    # two solves of one system differ by (C + jI)^-1 (r - r'), so their
    # means w^T y differ by at most |r - r'| |(C + jI)^-1 y|, plus the
    # rounding of each sum w^T y; each residual is as computed, plus the
    # rounding of that computation, (n + 2) u (|C + jI| |w| + |m|)
    def true_residual(v):
        rounding = (n + 2) * 2.0**-53 * np.linalg.norm(np.abs(sys) @ np.abs(v) + np.abs(line.m))
        return np.linalg.norm(sys @ v - line.m) + rounding

    bound = (true_residual(w) + true_residual(want.weights)) * np.linalg.norm(np.linalg.solve(sys, line.values))
    bound += 1e-14 * (np.abs(line.values) @ (np.abs(w) + np.abs(want.weights)))
    assert abs(got.mean - want.mean) <= bound
    assert line.kpp - quadratic >= _VARIANCE_SLACK
    assert weights.tobytes() == w.tobytes()
    # K_PP - 2 w^T m + w^T C w, each read to its rounding
    scale = line.kpp + 2.0 * np.abs(w) @ np.abs(line.m) + np.abs(w) @ dense.gram @ np.abs(w)
    assert abs(line_wce**2 - wce(dense, w) ** 2) <= 1e-13 * scale


@pytest.mark.parametrize("nu, n, layout", [(1.5, 1000, 1.0), (2.5, 33, 0.1)])
def test_rungs_that_the_rounded_gram_decides_go_to_the_next_rung(nu, n, layout, monkeypatch):
    # uniform nodes whose smallest innovation variance (4.3e-17 and
    # 6.9e-16) lies where the Cholesky of the rounded Gram factors or not
    # by rounding (here it factors at jitter 0); the line route fails such
    # a rung by its floor, without a Gram, and keeps 1e-12
    line, dense = _line_and_dense(nu, n, None, layout)
    pinned, _ = _line_and_dense(nu, n, 0.0, layout)
    assert bq_posterior(dense).rungs == (0.0,)
    _refuse_the_gram(monkeypatch)
    post = bq_posterior(line)
    assert (post.solver, post.rungs) == ("kalman", (0.0, 1e-12))
    with pytest.raises(NumericalFailure):
        bq_posterior(pinned)


def test_line_route_never_keeps_a_rung_the_dense_route_fails():
    # 50 seeded sets of uniform random nodes, nu = 1/2 to 7/2, 2 to 300
    # nodes over 0.1 to 10 lengthscales, on the ladder
    rng = np.random.default_rng(29)
    dense_fails_rung_0 = goes_further = 0
    for _ in range(50):
        kernel = MaternKernel(nu=float(rng.choice([0.5, 1.5, 2.5, 3.5])))
        spread = float(10.0 ** rng.uniform(-1.0, 1.0))
        x = rng.uniform(0.0, spread, int(rng.integers(2, 301)))
        e = embed(kernel, UniformBoxMeasure(lows=(-1.0,), highs=(spread + 1.0,)))
        line = make_problem(e, x[:, None], np.sin(x))
        dense = QuadratureProblem(embedding=e, nodes=line.nodes, gram=kernel.gram(line.nodes),
                                  m=line.m, values=line.values)
        got, want = bq_posterior(line), bq_posterior(dense)
        _assert_one_sided_rungs(line, got, want)
        dense_fails_rung_0 += want.rungs[0] != want.jitter
        goes_further += len(got.rungs) > len(want.rungs)
    # the sets reach both sides of the rule (17 and 7 of them)
    assert dense_fails_rung_0 and goes_further


def test_matern_line_problems_never_build_the_gram(monkeypatch):
    # 20 000 nodes: their Gram would take 3.2 GB
    _refuse_the_gram(monkeypatch)
    rng = np.random.default_rng(20)
    # one node in each cell of width 0.001, whose innovation variances the
    # filter's rung 0 keeps at a lengthscale of 0.1; and 20 000 uniform
    # nodes, whose closest pairs fail rung 0 and keep 1e-12, on the ladder
    grid = (np.arange(20_000) + rng.uniform(0.0, 0.5, 20_000)) * 0.001
    uniform = rng.uniform(0.0, 20.0, 20_000)
    box = UniformBoxMeasure(lows=(0.0,), highs=(20.0,))
    for lengthscale, x, rungs in ((0.1, grid, (0.0,)), (0.5, uniform, (0.0, 1e-12))):
        e = embed(MaternKernel(nu=2.5, lengthscale=lengthscale), box)
        problem = make_problem(e, x[:, None], np.sin(x))
        post = bq_posterior(problem)
        w = optimal_weights(problem)
        err = wce(problem, w)
        assert (post.solver, post.rungs) == ("kalman", rungs)
        assert w.tobytes() == post.weights.tobytes()
        # the integral of sin over [0, 20], and the posterior variance as
        # the squared worst-case error of the weights
        assert post.mean == pytest.approx((1.0 - math.cos(20.0)) / 20.0, abs=1e-9)
        assert post.variance == pytest.approx(err**2, abs=1e-12)


def test_matern_state_noise_keeps_its_relative_precision():
    # Q(d) against R_s(2d) at 40 digits, from gaps far below rounding to
    # gaps past the clip; and against P_inf - A P_inf A^T where that
    # difference loses nothing
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    rng = np.random.default_rng(5)
    gaps = np.concatenate([[1e-30, 1e-9, 0.5, 1.0, 3.5, 1e3], np.exp(rng.uniform(-25.0, 2.0, 40))])
    for order in range(4):
        noise = np.array(quadrature._matern_state_noise(order, gaps)).T
        stationary = quadrature._matern_stationary_covariance(order)
        full = np.zeros((4, 4))
        for k, ((i, j), p) in enumerate(zip(quadrature._STATE_ENTRIES, stationary)):
            full[i, j] = full[j, i] = p
            if not p:
                # past the state of order n
                assert not noise[:, k].any()
                continue
            for d, q in zip(gaps, noise[:, k]):
                want = p * mp.gammainc(2 * order + 1 - i - j, 0, 2 * mp.mpf(float(d)), regularized=True)
                assert abs(q - want) <= 1e-15 * want
        profile = _matern_profile(order)
        assert [full[k, 0] for k in range(order + 1)] == [math.factorial(k) * float(a) for k, a in enumerate(profile)]
        for d, row in zip(gaps, noise):
            if 0.5 <= d <= 10.0:
                shift = np.eye(4, k=1)
                a = math.exp(-d) * sum(np.linalg.matrix_power(shift, k) * d**k / math.factorial(k) for k in range(4))
                q = np.zeros((4, 4))
                for (i, j), v in zip(quadrature._STATE_ENTRIES, row):
                    q[i, j] = q[j, i] = v
                assert np.abs(q - (full - a @ full @ a.T)).max() <= 1e-15


def test_quadrature_problem_is_read_only():
    e = embed(MaternKernel(nu=1.5), UniformBoxMeasure(lows=(0.0,), highs=(1.0,)))
    problem = make_problem(e, [[0.2], [0.6]], [1.0, 2.0])
    for name in ("embedding", "nodes", "m", "values", "jitter", "gram"):
        with pytest.raises(FrozenInstanceError):
            setattr(problem, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(problem, name)
    # the Gram is still built on first read
    assert problem.gram.tobytes() == e.kernel.gram(problem.nodes).tobytes()


def test_posterior_reports_its_solve():
    # a Gaussian Gram of nodes 1e-11 apart fails rung 0 and factors at 1e-12
    post = bq_posterior(_gauss_setup([[0.5], [0.5 + 1e-11]], values=[0.1, 0.1]))
    assert (post.solver, post.rungs, post.jitter) == ("cholesky", (0.0, 1e-12), 1e-12)
    assert 0.0 <= post.residual <= _RESIDUAL_TOL
    forced = make_problem(_gauss_setup([[0.0]]).embedding, [[0.0], [1.0]], [0.0, 1.0], jitter=1e-3)
    assert bq_posterior(forced).rungs == (1e-3,)
    k = MaternKernel(nu=1.5, lengthscale=0.8)
    e = embed(k, UniformBoxMeasure(lows=(0.0,), highs=(1.0,)))
    post = bq_posterior(make_problem(e, [[0.2], [0.5], [0.8]], [0.1, 0.4, 0.2]))
    assert (post.solver, post.rungs) == ("kalman", (0.0,))
    assert post.residual <= 1e-15
    # no nodes, no solve
    empty = bq_posterior(make_problem(e, np.empty((0, 1))))
    assert (empty.solver, empty.rungs, empty.residual) == (None, (), 0.0)
