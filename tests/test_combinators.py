"""Compositional embeddings: products across coordinate blocks,
mixtures with cross terms, pushforwards, reweighting, and matrix
scaling."""

import math
import random

import numpy as np
import pytest

from kembed.combinators import (
    change_of_measure,
    matrix_valued_embed,
    product_embed,
    pushforward_embed,
    split_product_measure,
)
from kembed.dictionary import CLOSED_FORM, NUMERIC_FALLBACK, embed
from kembed.errors import InvalidSpecError
from kembed.kernels import (
    AffineMap,
    ComposedKernel,
    FbmKernel,
    GaussianKernel,
    MaternKernel,
    MatrixValuedKernel,
    ProductKernel,
    SumKernel,
    WendlandKernel,
)
from kembed.measures import (
    EmpiricalMeasure,
    GaussianMeasure,
    MixtureMeasure,
    PushforwardMeasure,
    UniformBoxMeasure,
)
from kembed.oracle import estimate_kp, estimate_kpp, estimate_mean
from kembed.quadrature import bq_posterior, make_problem
from kembed.stein import SteinKernel


def test_product_embed_tensorizes():
    k1 = GaussianKernel(lengthscales=(0.8,))
    k2 = MaternKernel(nu=1.5, lengthscale=0.6)
    p1 = UniformBoxMeasure(lows=(0.0,), highs=(2.0,))
    p2 = UniformBoxMeasure(lows=(-1.0,), highs=(1.0,))
    e1, e2 = embed(k1, p1), embed(k2, p2)
    prod = product_embed(
        ProductKernel([k1, k2], [1, 1]),
        UniformBoxMeasure(lows=(0.0, -1.0), highs=(2.0, 1.0)),
    )
    rng = random.Random(22)
    for _ in range(20):
        x = [rng.uniform(0.0, 2.0), rng.uniform(-1.0, 1.0)]
        expected = e1.kp_at([x[0]]) * e2.kp_at([x[1]])
        assert prod.kp_at(x) == pytest.approx(expected, rel=1e-13)
    assert prod.kpp == pytest.approx(e1.kpp * e2.kpp, rel=1e-13)
    assert prod.provenance == CLOSED_FORM


def test_product_embed_through_dispatch():
    # a product kernel over a box splits into per-block embeddings
    k = ProductKernel(
        [GaussianKernel(lengthscales=(0.8,)), GaussianKernel(lengthscales=(1.5,))],
        [1, 1],
    )
    p = UniformBoxMeasure(lows=(0.0, -1.0), highs=(2.0, 1.0))
    e = embed(k, p)
    direct = embed(GaussianKernel(lengthscales=(0.8, 1.5)), p)
    assert e.kpp == pytest.approx(direct.kpp, rel=1e-13)
    x = [0.3, 0.2]
    assert e.kp_at(x) == pytest.approx(direct.kp_at(x), rel=1e-13)


def test_product_embed_mixed_families():
    k = ProductKernel(
        [MaternKernel(nu=0.5, lengthscale=0.7), WendlandKernel(order=0, lengthscale=1.0)],
        [1, 1],
    )
    p = UniformBoxMeasure(lows=(0.0, 0.0), highs=(1.0, 1.0))
    e = embed(k, p)
    assert e.provenance == CLOSED_FORM
    o = estimate_kpp(k, p, budget=50_000, method="monte_carlo", seed=5)
    assert e.kpp == pytest.approx(o.value, abs=3 * o.stderr)


def test_mixture_kpp_gaussian_closed_cross_terms():
    k = GaussianKernel(lengthscales=(1.0,))
    comps = [
        GaussianMeasure(mean=(0.0,), cov=(1.0,)),
        GaussianMeasure(mean=(2.0,), cov=(0.25,)),
    ]
    mix = MixtureMeasure(components=comps, weights=(0.6, 0.4))
    e = embed(k, mix)
    assert e.provenance == CLOSED_FORM
    assert e.kpp_stderr == 0.0
    # dual route: plain Monte Carlo on the mixture
    o = estimate_kpp(k, mix, budget=4_000_000, method="monte_carlo", seed=1)
    assert e.kpp == pytest.approx(o.value, abs=3 * o.stderr)


def test_mixture_kp_is_weighted_sum():
    k = GaussianKernel(lengthscales=(1.0,))
    comps = [
        GaussianMeasure(mean=(0.0,), cov=(1.0,)),
        GaussianMeasure(mean=(2.0,), cov=(0.25,)),
    ]
    mix = MixtureMeasure(components=comps, weights=(0.6, 0.4))
    e = embed(k, mix)
    parts = [embed(k, c) for c in comps]
    for x in ([0.0], [1.3], [-2.0]):
        expected = 0.6 * parts[0].kp_at(x) + 0.4 * parts[1].kp_at(x)
        assert e.kp_at(x) == pytest.approx(expected, rel=1e-14)


def test_mixture_empirical_cross_terms_exact():
    k = GaussianKernel(lengthscales=(1.0,))
    emp1 = EmpiricalMeasure(points=np.array([[0.0], [1.0]]))
    emp2 = EmpiricalMeasure(points=np.array([[0.5], [2.0], [3.0]]))
    mix = MixtureMeasure(components=[emp1, emp2], weights=(0.5, 0.5))
    e = embed(k, mix)
    assert e.provenance == CLOSED_FORM
    assert e.kpp_stderr == 0.0
    # brute force over all atom pairs
    atoms = [(0.25, 0.0), (0.25, 1.0), (1 / 6, 0.5), (1 / 6, 2.0), (1 / 6, 3.0)]
    brute = sum(
        wi * wj * k([xi], [xj]) for wi, xi in atoms for wj, xj in atoms
    )
    assert e.kpp == pytest.approx(brute, rel=1e-13)


def test_mixture_mc_cross_terms_flagged():
    # Matern-7/2 has no closed form under a Gaussian, so its cross terms
    # between gaussian components fall back to Monte Carlo with a
    # reported stderr
    k = MaternKernel(nu=3.5, lengthscale=1.0)
    comps = [
        GaussianMeasure(mean=(0.0,), cov=(1.0,)),
        GaussianMeasure(mean=(1.5,), cov=(0.5,)),
    ]
    mix = MixtureMeasure(components=comps, weights=(0.5, 0.5))
    e = embed(k, mix, seed=7)
    assert e.kpp_provenance == NUMERIC_FALLBACK
    assert e.kpp_stderr > 0.0
    o = estimate_kpp(k, mix, budget=1_000_000, method="monte_carlo", seed=11)
    assert e.kpp == pytest.approx(
        o.value, abs=3 * math.hypot(e.kpp_stderr, o.stderr)
    )


def test_stein_kernel_under_mixture_cross_term():
    # the Monte Carlo cross term goes through one Kernel.pairs call. By
    # the Stein identity the target block and the cross term integrate
    # to 0; the N(2, 1) block is the Stein discrepancy, whose score gap
    # is -2, so it is 4 E k(X, Y) = 4/sqrt(3) for the Gaussian base, and
    # with weight 1/4 the double integral is 1/sqrt(3)
    k = SteinKernel(GaussianKernel((1.0,)), target=GaussianMeasure((0.0,), 1.0))
    mix = MixtureMeasure(
        [GaussianMeasure((0.0,), 1.0), GaussianMeasure((2.0,), 1.0)], [0.5, 0.5]
    )
    e = embed(k, mix, seed=0)
    assert e.kpp_provenance == NUMERIC_FALLBACK
    assert e.kpp_stderr > 0.0
    assert abs(e.kpp - 1.0 / math.sqrt(3.0)) <= 4.0 * e.kpp_stderr


def test_fbm_kernel_under_box_mixture():
    # the Monte Carlo cross term evaluates the requested kernel, which
    # declares no domain, on draws from both boxes
    k = FbmKernel(hurst=0.7)
    mix = MixtureMeasure(
        [UniformBoxMeasure((0.0,), (1.0,)), UniformBoxMeasure((1.0,), (2.0,))], [0.5, 0.5]
    )
    e = embed(k, mix)
    o = estimate_kpp(k, mix)
    assert abs(e.kpp - o.value) <= max(1e-6, 4.0 * math.hypot(e.kpp_stderr, o.stderr))


@pytest.mark.parametrize("kernel", [FbmKernel(hurst=0.7), MaternKernel(nu=1.5)])
def test_box_mixture_kp_on_both_boxes(kernel):
    # each box's K_P is read at points of the other box too
    boxes = [UniformBoxMeasure((0.0,), (1.0,)), UniformBoxMeasure((1.0,), (2.0,))]
    e = embed(kernel, MixtureMeasure(boxes, [0.5, 0.5]))
    assert e.kp_provenance == CLOSED_FORM
    for x in ([0.5], [1.5]):
        o = estimate_kp(kernel, boxes[1], x=x)
        want = 0.5 * embed(kernel, boxes[0]).kp_at(x) + 0.5 * o.value
        assert e.kp_at(x) == pytest.approx(want, rel=1e-13, abs=4 * o.stderr)


def test_box_and_empirical_cross_term_is_exact_outside_the_box(count_draws):
    # the atoms lie on both sides of the box, so the cross term reads the
    # box's K_P outside it: a finite sum, with no draw
    k = MaternKernel(nu=2.5, lengthscale=0.5)
    box = UniformBoxMeasure((0.0,), (1.0,))
    atoms = EmpiricalMeasure(points=np.array([[-0.7], [0.4], [1.6], [3.0]]), weights=(0.1, 0.2, 0.3, 0.4))
    draws = count_draws(box)
    e = embed(k, MixtureMeasure([box, atoms], [0.6, 0.4]))
    assert draws == []
    assert e.provenance == CLOSED_FORM
    assert e.kpp_stderr == 0.0
    cross = sum(w * estimate_kp(k, box, x=p).value for w, p in zip(atoms.weights, atoms.points))
    want = 0.36 * embed(k, box).kpp + 0.16 * embed(k, atoms).kpp + 2 * 0.24 * cross
    assert e.kpp == pytest.approx(want, rel=1e-13)


def test_sum_kernel_under_mixture():
    # two kernel components, each embedded under two mixture components
    g = GaussianKernel(lengthscales=(1.0,))
    m = MaternKernel(nu=0.5, lengthscale=1.0)
    s = SumKernel([g, m], [0.3, 0.7])
    box1 = UniformBoxMeasure(lows=(0.0,), highs=(1.0,))
    box2 = UniformBoxMeasure(lows=(0.5,), highs=(2.0,))
    mix = MixtureMeasure(components=[box1, box2], weights=(0.4, 0.6))
    e = embed(s, mix, seed=3)
    x = [0.8]
    expected = sum(
        wj * gq * embed(kq, pj).kp_at(x)
        for wj, pj in ((0.4, box1), (0.6, box2))
        for gq, kq in ((0.3, g), (0.7, m))
    )
    assert e.kp_at(x) == pytest.approx(expected, rel=1e-13)
    o = estimate_kpp(s, mix, budget=1_000_000, method="monte_carlo", seed=13)
    assert e.kpp == pytest.approx(
        o.value, abs=3 * math.hypot(e.kpp_stderr, o.stderr)
    )


def test_pushforward_embed_wraps_kp():
    inner = embed(GaussianKernel(lengthscales=(1.0,)),
                  UniformBoxMeasure(lows=(1.0,), highs=(3.0,)))
    # the image of [0, 1] under x -> 2x+1 is [1, 3]
    pf = pushforward_embed(
        ComposedKernel(GaussianKernel(lengthscales=(1.0,)), AffineMap(2.0, 1.0)),
        UniformBoxMeasure(lows=(0.0,), highs=(1.0,)),
    )
    # x in base coordinates maps to 2x+1 in image coordinates
    assert pf.kp_at([0.5]) == pytest.approx(inner.kp_at([2.0]), rel=1e-15)
    assert pf.kpp == inner.kpp


def test_change_of_measure_reweights():
    p = GaussianMeasure(mean=(0.0,), cov=(0.25,))
    q = GaussianMeasure(mean=(0.0,), cov=(1.0,))
    f = lambda X: X[:, 0] ** 2
    g = change_of_measure(f, p, q)
    est = estimate_mean(g, q, budget=400_000, seed=17)
    # E_p[X^2] = 0.25
    assert est.value == pytest.approx(0.25, abs=3 * est.stderr)


def test_change_of_measure_domination():
    p = UniformBoxMeasure(lows=(0.0,), highs=(2.0,))
    q = UniformBoxMeasure(lows=(0.0,), highs=(1.0,))
    g = change_of_measure(lambda x: 1.0, p, q)
    assert g([0.5]) == pytest.approx(0.5, rel=1e-14)
    with pytest.raises(InvalidSpecError):
        g([1.5])  # p puts mass where q has none
    # the reverse direction is fine: q's support is inside p's
    h = change_of_measure(lambda x: 1.0, q, p)
    assert h([1.5]) == 0.0


def test_change_of_measure_acts_on_rows():
    p = MixtureMeasure([GaussianMeasure((0.0,), 0.25), UniformBoxMeasure((0.0,), (1.0,))], [0.5, 0.5])
    q = GaussianMeasure(mean=(0.5,), cov=(1.0,))
    X = np.linspace(-3.0, 3.0, 61)[:, None]
    g = change_of_measure(lambda X: X[:, 0] ** 2 + 1.0, p, q)
    each = [(x[0] ** 2 + 1.0) * p.density(x) / q.density(x) for x in X]
    assert g(X).tobytes() == np.array(each).tobytes()
    # the domination error names the first row where q has no mass
    box = UniformBoxMeasure(lows=(0.0,), highs=(1.0,))
    h = change_of_measure(lambda X: np.ones(len(X)), p, box)
    with pytest.raises(InvalidSpecError, match=r"\(first failing row: 2\)$"):
        h([[0.5], [1.0], [1.5], [-2.0]])


def test_matrix_valued_embed_scales():
    inner = embed(GaussianKernel(lengthscales=(1.0,)),
                  GaussianMeasure(mean=(0.0,), cov=(1.0,)))
    b = np.array([[2.0, 0.5], [0.5, 1.0]])
    mv = matrix_valued_embed(
        MatrixValuedKernel(GaussianKernel(lengthscales=(1.0,)), b),
        GaussianMeasure(mean=(0.0,), cov=(1.0,)),
    )
    np.testing.assert_allclose(mv.kp_at([0.3]), b * inner.kp_at([0.3]), rtol=1e-15)
    np.testing.assert_allclose(mv.kpp, b * inner.kpp, rtol=1e-15)


def test_matrix_valued_through_dispatch():
    k = MatrixValuedKernel(
        base=GaussianKernel(lengthscales=(1.0,)),
        matrix=np.array([[2.0, 0.5], [0.5, 1.0]]),
    )
    p = GaussianMeasure(mean=(0.0,), cov=(1.0,))
    e = embed(k, p)
    assert np.asarray(e.kpp).shape == (2, 2)
    assert e.kpp[0][0] == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-14)


def test_split_product_measure():
    box = UniformBoxMeasure(lows=(0.0, -1.0, 2.0), highs=(1.0, 1.0, 3.0))
    parts = split_product_measure(box, [2, 1])
    assert len(parts) == 2
    assert parts[0].lows == (0.0, -1.0)
    assert parts[1].highs == (3.0,)

    diag = GaussianMeasure(mean=(0.0, 1.0), cov=(1.0, 4.0))
    parts = split_product_measure(diag, [1, 1])
    assert parts is not None
    assert parts[1].mean == (1.0,)

    block = np.array([
        [1.0, 0.3, 0.0],
        [0.3, 1.0, 0.0],
        [0.0, 0.0, 2.0],
    ])
    g = GaussianMeasure(mean=(0.0, 0.0, 0.0), cov=block)
    parts = split_product_measure(g, [2, 1])
    assert parts is not None
    np.testing.assert_allclose(parts[0].cov, block[:2, :2])
    # a coupled block cannot split
    assert split_product_measure(g, [1, 2]) is None


def test_block_product_gaussian_dispatch():
    # full-covariance gaussian with block structure splits and embeds
    block = np.array([
        [1.0, 0.3, 0.0],
        [0.3, 1.0, 0.0],
        [0.0, 0.0, 2.0],
    ])
    p = GaussianMeasure(mean=(0.1, -0.2, 0.5), cov=block)
    k = ProductKernel(
        [GaussianKernel(matrix=np.array([[1.0, 0.1], [0.1, 1.5]])),
         GaussianKernel(lengthscales=(0.9,))],
        [2, 1],
    )
    e = embed(k, p)
    assert e.provenance == CLOSED_FORM
    o = estimate_kpp(k, p, budget=500_000, method="monte_carlo", seed=19)
    assert e.kpp == pytest.approx(o.value, abs=3 * o.stderr)


def test_composed_kernel_maps_whole_points():
    base = GaussianKernel(lengthscales=(1.0, 0.5))
    kernel = ComposedKernel(base=base, map=AffineMap([2.0, 3.0], [0.0, 1.0]))
    box = UniformBoxMeasure(lows=(0.0, 0.0), highs=(1.0, 1.0))
    e = embed(kernel, box)
    # the image of the box under the map is [0, 2] x [1, 4]
    image = embed(base, UniformBoxMeasure(lows=(0.0, 1.0), highs=(2.0, 4.0)))
    assert e.kp_at([0.3, 0.4]) == pytest.approx(image.kp_at([0.6, 2.2]), rel=1e-14)
    assert e.kpp == image.kpp


def test_composed_embedding_builds_its_own_gram():
    kernel = ComposedKernel(
        base=GaussianKernel(lengthscales=(1.0,)), map=AffineMap([3.0], [0.0])
    )
    box = UniformBoxMeasure(lows=(0.0,), highs=(1.0,))
    nodes = np.linspace(0.05, 0.95, 8)
    problem = make_problem(embed(kernel, box), nodes, np.sin(nodes))
    post = bq_posterior(problem)
    assert post.variance >= 0.0
    assert post.mean == pytest.approx(1.0 - math.cos(1.0), abs=1e-3)


def test_composed_kernel_under_gaussian_mixture_keeps_closed_cross_terms():
    base = GaussianKernel(lengthscales=(1.0,))
    kernel = ComposedKernel(base=base, map=AffineMap([2.0], [0.0]))
    comps = [GaussianMeasure(mean=(0.0,), cov=(1.0,)), GaussianMeasure(mean=(1.0,), cov=(1.0,))]
    e = embed(kernel, MixtureMeasure(components=comps, weights=(0.5, 0.5)))
    # the image of the mixture under x -> 2x is a mixture of N(0, 4) and N(2, 4)
    images = [GaussianMeasure(mean=(0.0,), cov=(4.0,)), GaussianMeasure(mean=(2.0,), cov=(4.0,))]
    image = embed(base, MixtureMeasure(components=images, weights=(0.5, 0.5)))
    assert e.kpp_provenance == CLOSED_FORM
    assert e.kpp == pytest.approx(image.kpp, rel=1e-14)


def _combined_route(route):
    """(kernel, measure, pair_id) of one dispatch route through a
    combinator."""
    g = GaussianKernel(lengthscales=(0.8,))
    box = UniformBoxMeasure(lows=(0.0,), highs=(1.0,))
    boxes = MixtureMeasure(
        components=[box, UniformBoxMeasure(lows=(0.5,), highs=(2.0,))],
        weights=(0.5, 0.5),
    )
    normals = MixtureMeasure(
        [GaussianMeasure((0.0,), 1.0), GaussianMeasure((2.0,), 1.0)], [0.5, 0.5]
    )
    if route == "product":
        kernel = ProductKernel(children=[g, MaternKernel(nu=1.5)], block_dims=[1, 1])
        measure = UniformBoxMeasure(lows=(0.0, -1.0), highs=(1.0, 1.0))
        return kernel, measure, "product/gaussian/uniform_box*matern/uniform_box"
    if route == "sum":
        kernel = SumKernel(children=[g, MaternKernel(nu=1.5)], weights=[0.5, 0.5])
        return kernel, box, "sum/gaussian/uniform_box+matern/uniform_box"
    if route == "mixture":
        return g, boxes, "mixture"
    if route == "matrix_valued":
        kernel = MatrixValuedKernel(base=g, matrix=np.array([[2.0, 0.5], [0.5, 1.0]]))
        return kernel, box, "matrix_valued/gaussian/uniform_box"
    if route == "composed_affine":
        kernel = ComposedKernel(base=g, map=AffineMap([2.0], [1.0]))
        return kernel, box, "pushforward[affine(scale=[2.0], shift=[1.0])]/gaussian/uniform_box"
    if route == "sum_under_mixture":
        kernel = SumKernel(children=[g, MaternKernel(nu=1.5)], weights=[0.5, 0.5])
        return kernel, normals, "sum/mixture+mixture"
    if route == "stein_under_mixture":
        kernel = SteinKernel(GaussianKernel((1.0,)), target=GaussianMeasure((0.0,), 1.0))
        return kernel, normals, "mixture"
    if route == "product_block_gaussian":
        kernel = ProductKernel(
            [GaussianKernel(matrix=np.array([[1.0, 0.1], [0.1, 1.5]])), g], [2, 1]
        )
        block = np.array([[1.0, 0.3, 0.0], [0.3, 1.0, 0.0], [0.0, 0.0, 2.0]])
        measure = GaussianMeasure(mean=(0.1, -0.2, 0.5), cov=block)
        return kernel, measure, "product/gaussian/gaussian*gaussian/gaussian"
    assert route == "pushforward_measure"
    measure = PushforwardMeasure(GaussianMeasure((0.0,), 1.0), AffineMap(2.0, 1.0))
    return g, measure, "gaussian/gaussian"


@pytest.mark.parametrize("route", [
    "product", "sum", "mixture", "matrix_valued", "composed_affine",
    "sum_under_mixture", "stein_under_mixture", "product_block_gaussian",
    "pushforward_measure",
])
def test_combinator_embeddings_carry_the_requested_pair(route):
    kernel, measure, pair_id = _combined_route(route)
    e = embed(kernel, measure, budget=400)
    assert e.kernel is kernel
    if route == "pushforward_measure":
        # a recognized image is embedded as the measure it is, N(1, 4),
        # which the mixture cross terms read back from the embedding
        assert e.measure.family == "gaussian"
        assert e.measure.mean == (1.0,) and e.measure.cov_diag == (4.0,)
    else:
        assert e.measure is measure
    assert e.pair_id == pair_id
    if route == "matrix_valued":
        return
    nodes = measure.sample(5, seed=1)
    problem = make_problem(e, nodes)
    # make_problem symmetrizes the Gram matrix, which for a Stein kernel
    # is symmetric only to rounding; for the others this is kernel.gram
    gram = kernel.gram(nodes)
    assert problem.gram == pytest.approx(0.5 * (gram + gram.T), rel=0.0, abs=0.0)
