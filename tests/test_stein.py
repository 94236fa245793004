"""Stein-modified kernels: zero-mean property under the target,
agreement with finite differences, invariance to the normalizing
constant, and positive semidefiniteness."""

import math
import random

import numpy as np
import pytest

from kembed.dictionary import CLOSED_FORM, NUMERIC_FALLBACK, embed
from kembed.errors import UnsupportedPairError
from kembed.kernels import GaussianKernel, MaternKernel
from kembed.oracle import estimate_kpp
from kembed.measures import (
    GaussianMeasure,
    MixtureMeasure,
    ScoreMeasure,
)
from kembed.stein import SteinKernel, base_derivatives, stein_eval, stein_embed


def _quartic_sampler(n, seed):
    """Draws from the density proportional to exp(-x^4 / 4) via a
    tabulated inverse CDF; the [-4, 4] truncation error is ~exp(-64)."""
    grid = np.linspace(-4.0, 4.0, 20_001)
    pdf = np.exp(-0.25 * grid**4)
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5)])
    cdf /= cdf[-1]
    u = np.random.default_rng(seed).random(n)
    return np.interp(u, cdf, grid)[:, None]


def _targets():
    mix = MixtureMeasure(
        components=[
            GaussianMeasure(mean=(-1.0,), cov=(0.5,)),
            GaussianMeasure(mean=(1.5,), cov=(1.0,)),
        ],
        weights=(0.5, 0.5),
    )
    quartic = ScoreMeasure(score_fn=lambda x: -np.asarray(x) ** 3, dimension=1)
    return [
        ("std_normal", GaussianMeasure(mean=(0.0,), cov=(1.0,)),
         lambda n, s: GaussianMeasure(mean=(0.0,), cov=(1.0,)).sample(n, s)),
        ("shifted_normal", GaussianMeasure(mean=(2.0,), cov=(0.25,)),
         lambda n, s: GaussianMeasure(mean=(2.0,), cov=(0.25,)).sample(n, s)),
        ("gaussian_mixture", mix, lambda n, s: mix.sample(n, s)),
        ("quartic", quartic, _quartic_sampler),
    ]


@pytest.mark.parametrize("name,target,sampler", _targets(),
                         ids=[t[0] for t in _targets()])
def test_zero_mean_under_target(name, target, sampler):
    k = SteinKernel(base=GaussianKernel(lengthscales=(1.0,)), target=target)
    ys = sampler(200_000, 31)
    rng = random.Random(32)
    for _ in range(5):
        x = np.array([rng.uniform(-2.0, 2.0)])
        vals = k.batch(x, ys)
        mean = float(np.mean(vals))
        stderr = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
        assert abs(mean) <= 3.0 * stderr


def test_embedding_is_the_constant():
    target = GaussianMeasure(mean=(0.0,), cov=(1.0,))
    k = SteinKernel(base=GaussianKernel(lengthscales=(1.0,)), target=target)
    e = embed(k, target)
    assert e.kpp == 0.0
    assert e.kp_at([0.7]) == 0.0
    kc = SteinKernel(base=GaussianKernel(lengthscales=(1.0,)), target=target,
                     c=2.5)
    ec = embed(kc, target)
    assert ec.kpp == 2.5
    assert ec.kp_at([-1.3]) == 2.5


def test_matches_finite_differences():
    base = GaussianKernel(lengthscales=(0.9, 1.4))
    target = GaussianMeasure(mean=(0.3, -0.2), cov=(1.0, 0.5))
    k = SteinKernel(base=base, target=target, c=0.7)
    h = 1e-5
    rng = random.Random(33)
    for _ in range(5):
        x = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1)])
        y = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1)])
        sx, sy = target.score(x), target.score(y)

        def dx(i, xv, yv):
            e = np.zeros(2)
            e[i] = h
            return (base(xv + e, yv) - base(xv - e, yv)) / (2 * h)

        grad_x = np.array([dx(i, x, y) for i in range(2)])
        grad_y = np.array([dx(i, y, x) for i in range(2)])  # symmetry
        trace = 0.0
        for i in range(2):
            ex = np.zeros(2)
            ex[i] = h
            trace += (
                base(x + ex, y + ex)
                - base(x + ex, y - ex)
                - base(x - ex, y + ex)
                + base(x - ex, y - ex)
            ) / (4 * h * h)
        fd = (
            base(x, y) * float(sx @ sy)
            + float(grad_x @ sy)
            + float(grad_y @ sx)
            + trace
            + 0.7
        )
        assert stein_eval(k, x, y) == pytest.approx(fd, abs=1e-6)


def test_base_derivatives_registry():
    base = GaussianKernel(lengthscales=(1.0,))
    x = np.array([0.5])
    Y = np.array([[0.0], [1.0], [2.0]])
    kvals, gx, gy, tr = base_derivatives(base, x, Y)
    assert kvals.shape == (3,)
    assert gx.shape == (3, 1) and gy.shape == (3, 1)
    assert tr.shape == (3,)
    # analytic identities for the unit-lengthscale case
    for i, y in enumerate(Y[:, 0]):
        u = 0.5 - y
        kk = math.exp(-0.5 * u * u)
        assert kvals[i] == pytest.approx(kk, rel=1e-14)
        assert gx[i, 0] == pytest.approx(-kk * u, rel=1e-13, abs=1e-15)
        assert gy[i, 0] == pytest.approx(kk * u, rel=1e-13, abs=1e-15)
        assert tr[i] == pytest.approx(kk * (1.0 - u * u), rel=1e-13, abs=1e-15)


def test_normalization_invariance_is_bit_exact():
    # the same score supplied with and without knowledge of the
    # normalizing constant gives identical kernel values
    g = GaussianMeasure(mean=(0.5,), cov=(2.0,))
    s = ScoreMeasure(score_fn=lambda x: -(np.asarray(x) - 0.5) / 2.0,
                     dimension=1)
    k1 = SteinKernel(base=GaussianKernel(lengthscales=(1.0,)), target=g)
    k2 = SteinKernel(base=GaussianKernel(lengthscales=(1.0,)), target=s)
    rng = random.Random(34)
    for _ in range(20):
        x = np.array([rng.uniform(-3, 3)])
        y = np.array([rng.uniform(-3, 3)])
        assert stein_eval(k1, x, y) == stein_eval(k2, x, y)


def test_gram_positive_semidefinite():
    targets = [
        GaussianMeasure(mean=(0.0,), cov=(1.0,)),
        ScoreMeasure(score_fn=lambda x: -np.asarray(x) ** 3, dimension=1),
    ]
    rng = np.random.default_rng(35)
    pts = rng.uniform(-2, 2, size=(10, 1))
    for target in targets:
        k = SteinKernel(base=GaussianKernel(lengthscales=(0.8,)), target=target)
        gram = np.array([[stein_eval(k, x, y) for y in pts] for x in pts])
        np.testing.assert_allclose(gram, gram.T, atol=1e-12)
        eigs = np.linalg.eigvalsh(gram)
        assert eigs.min() >= -1e-8


def test_unregistered_base_rejected():
    target = GaussianMeasure(mean=(0.0,), cov=(1.0,))
    with pytest.raises(UnsupportedPairError):
        SteinKernel(base=MaternKernel(nu=1.5, lengthscale=1.0), target=target)


def test_score_measure_needs_stein():
    # a score-only target admits no plain kernel embedding
    s = ScoreMeasure(score_fn=lambda x: -np.asarray(x), dimension=1)
    with pytest.raises(UnsupportedPairError):
        embed(GaussianKernel(lengthscales=(1.0,)), s)


def test_full_covariance_target():
    cov = np.array([[1.0, 0.4], [0.4, 2.0]])
    target = GaussianMeasure(mean=(0.0, 1.0), cov=cov)
    base = GaussianKernel(lengthscales=(1.0, 1.0))
    k = SteinKernel(base=base, target=target)
    ys = target.sample(200_000, 36)
    x = np.array([0.4, -0.3])
    vals = k.batch(x, ys)
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
    assert abs(mean) <= 3.0 * stderr


_FULL_COV = np.array([[1.0, 0.4], [0.4, 2.0]])


_FULL_COV_TARGETS = pytest.mark.parametrize(
    "target",
    [
        GaussianMeasure(mean=(0.0, 1.0), cov=_FULL_COV),
        MixtureMeasure(
            components=[
                GaussianMeasure(mean=(0.0, 1.0), cov=_FULL_COV),
                GaussianMeasure(mean=(1.0, -0.5), cov=(0.7, 0.5)),
            ],
            weights=(0.3, 0.7),
        ),
    ],
    ids=["gaussian", "mixture"],
)


@_FULL_COV_TARGETS
def test_full_covariance_entry_points_agree_bitwise(target):
    # a row's score must not depend on how many rows share the call
    k = SteinKernel(base=GaussianKernel(lengthscales=(1.0, 0.7)), target=target)
    pts = target.sample(30, 37)
    gram = k.gram(pts)
    paired = k.pairs(pts, pts[::-1])
    for i, x in enumerate(pts):
        row = k.batch(x, pts)
        for j, y in enumerate(pts):
            one = k(x, y)
            assert row[j] == one and gram[i, j] == one, (i, j)
        assert paired[i] == k(x, pts[-1 - i]), i


@_FULL_COV_TARGETS
def test_gram_scores_each_array_once(target, count_calls):
    # the rows of a Gram share one score pass over each argument array,
    # where a pass per row of X made an n-point Gram cost n passes
    k = SteinKernel(base=GaussianKernel(lengthscales=(1.0, 0.7)), target=target)
    pts = target.sample(40, 38)
    scored = count_calls(type(target), "_score_rows")
    k.gram(pts)
    assert len(scored) == 2
    k.gram_form(pts, np.ones(40))
    list(k.rows(pts[:5], pts))
    assert len(scored) == 6


def test_embedding_is_the_constant_only_under_the_target():
    k = SteinKernel(
        base=GaussianKernel(lengthscales=(1.0,)),
        target=GaussianMeasure(mean=(0.0,), cov=(1.0,)),
        c=0.5,
    )
    # a target given again with equal parameters still matches
    same = embed(k, GaussianMeasure(mean=(0.0,), cov=1.0))
    assert same.kpp_provenance == CLOSED_FORM
    assert same.kpp == 0.5
    shifted = GaussianMeasure(mean=(3.0,), cov=(1.0,))
    e = embed(k, shifted)
    assert e.kp_provenance == e.kpp_provenance == NUMERIC_FALLBACK
    assert e.kpp == estimate_kpp(k, shifted).value
    # the double integral is c plus the squared kernel Stein discrepancy
    # mu^2 E[K(x, y)] = 9 / sqrt(3) between N(3, 1) and the N(0, 1) target
    assert e.kpp == pytest.approx(0.5 + 3.0 * math.sqrt(3.0), rel=1e-12)


def test_other_score_only_measure_is_unsupported():
    target = ScoreMeasure(score_fn=lambda x: -x)
    k = SteinKernel(base=GaussianKernel(lengthscales=(1.0,)), target=target)
    assert embed(k, target).kpp == 0.0
    with pytest.raises(UnsupportedPairError):
        embed(k, ScoreMeasure(score_fn=lambda x: -2.0 * x))


def test_stein_imports_no_family_class():
    # the derivative rule belongs to the base kernel's class and the
    # score to the target's, so Stein names neither family
    import ast
    import importlib

    from kembed import stein
    from kembed.kernels import Kernel
    from kembed.measures import Measure

    imported = []
    for node in ast.walk(ast.parse(open(stein.__file__, encoding="utf-8").read())):
        if isinstance(node, ast.ImportFrom) and node.level and node.module in ("kernels", "measures"):
            module = importlib.import_module(f"kembed.{node.module}")
            imported += [getattr(module, alias.name) for alias in node.names]
    assert Kernel in imported and Measure in imported
    families = [
        obj for obj in imported
        if isinstance(obj, type) and issubclass(obj, (Kernel, Measure))
        and obj not in (Kernel, Measure)
    ]
    assert families == []


def test_base_without_a_derivative_rule_is_rejected_by_name():
    base = MaternKernel(nu=1.5, lengthscale=1.0)
    message = "^no analytic derivatives registered for kernel family 'matern'$"
    with pytest.raises(UnsupportedPairError, match=message):
        base_derivatives(base, [0.0], np.zeros((2, 1)))
    with pytest.raises(UnsupportedPairError, match=message):
        SteinKernel(base=base, target=GaussianMeasure(mean=(0.0,)))
