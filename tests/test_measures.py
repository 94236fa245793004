"""Measure behavior: densities, scores, sampling laws, determinism."""

import math
import random

import numpy as np
import pytest

from kembed.errors import InvalidSpecError
from kembed.kernels import AffineMap, NormalICDFMap
from kembed.measures import (
    EmpiricalMeasure,
    GaussianMeasure,
    MixtureMeasure,
    PushforwardMeasure,
    ScoreMeasure,
    SphereUniformMeasure,
    UniformBoxMeasure,
)
from kembed.oracle import estimate_mean
from kembed.specfun import normal_cdf

# One-sided Kolmogorov-Smirnov bound: P(D_n > 1.628 / sqrt(n)) < 1e-5
KS_BOUND = 1.628


def _ks_statistic(samples, cdf):
    xs = np.sort(samples)
    n = len(xs)
    grid = np.arange(1, n + 1) / n
    theo = np.array([cdf(x) for x in xs])
    return max(np.abs(grid - theo).max(), np.abs(grid - 1.0 / n - theo).max())


def test_uniform_box_density_and_sampling():
    m = UniformBoxMeasure(lows=(0.0, -1.0), highs=(2.0, 1.0))
    assert m.density([1.0, 0.0]) == pytest.approx(0.25, rel=1e-15)
    assert m.density([3.0, 0.0]) == 0.0
    xs = m.sample(4000, seed=7)
    assert xs.shape == (4000, 2)
    assert xs[:, 0].min() >= 0.0 and xs[:, 0].max() <= 2.0
    d = _ks_statistic(xs[:, 0], lambda x: x / 2.0)
    assert d <= KS_BOUND / math.sqrt(4000)
    with pytest.raises(InvalidSpecError):
        UniformBoxMeasure(lows=(0.0,), highs=(0.0,))


def test_gaussian_density_and_sampling():
    m = GaussianMeasure(mean=(1.0,), cov=((4.0,),))
    assert m.density([1.0]) == pytest.approx(1.0 / math.sqrt(8 * math.pi), rel=1e-14)
    xs = m.sample(4000, seed=8)
    d = _ks_statistic(xs[:, 0], lambda x: normal_cdf((x - 1.0) / 2.0))
    assert d <= KS_BOUND / math.sqrt(4000)


def test_gaussian_full_cov_density_matches_formula():
    cov = np.array([[2.0, 0.6], [0.6, 1.0]])
    m = GaussianMeasure(mean=(0.5, -0.5), cov=cov)
    rng = random.Random(15)
    inv = np.linalg.inv(cov)
    det = np.linalg.det(cov)
    for _ in range(25):
        x = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2)])
        d = x - np.array([0.5, -0.5])
        expected = math.exp(-0.5 * d @ inv @ d) / (2 * math.pi * math.sqrt(det))
        assert m.density(x) == pytest.approx(expected, rel=1e-12)


def test_gaussian_score():
    cov = np.array([[2.0, 0.6], [0.6, 1.0]])
    m = GaussianMeasure(mean=(0.5, -0.5), cov=cov)
    rng = random.Random(16)
    h = 1e-6
    for _ in range(10):
        x = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2)])
        s = m.score(x)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (m.log_density(x + e) - m.log_density(x - e)) / (2 * h)
            assert s[i] == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_gaussian_validation():
    with pytest.raises(InvalidSpecError):
        GaussianMeasure(mean=(0.0,), cov=((-1.0,),))
    with pytest.raises(InvalidSpecError):
        GaussianMeasure(mean=(0.0, 0.0), cov=((1.0,),))
    with pytest.raises(InvalidSpecError):
        GaussianMeasure(mean=(0.0, 0.0), cov=np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_sampling_determinism():
    measures = [
        UniformBoxMeasure(lows=(0.0,), highs=(1.0,)),
        GaussianMeasure(mean=(0.0,), cov=((1.0,),)),
        SphereUniformMeasure(d=2),
        MixtureMeasure(
            components=[
                GaussianMeasure(mean=(0.0,), cov=((1.0,),)),
                GaussianMeasure(mean=(3.0,), cov=((0.25,),)),
            ],
            weights=(0.4, 0.6),
        ),
    ]
    for m in measures:
        a = m.sample(50, seed=123)
        b = m.sample(50, seed=123)
        np.testing.assert_array_equal(a, b)
        c = m.sample(50, seed=124)
        assert not np.array_equal(a, c)


def test_sphere_samples_on_unit_sphere():
    m = SphereUniformMeasure(d=2)
    xs = m.sample(500, seed=9)
    norms = np.linalg.norm(xs, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)
    # symmetry: each coordinate has mean zero
    assert np.abs(xs.mean(axis=0)).max() < 5.0 / math.sqrt(500)


def test_mixture_density_and_score():
    comps = [
        GaussianMeasure(mean=(0.0,), cov=((1.0,),)),
        GaussianMeasure(mean=(3.0,), cov=((0.25,),)),
    ]
    m = MixtureMeasure(components=comps, weights=(0.3, 0.7))
    x = [1.2]
    expected = 0.3 * comps[0].density(x) + 0.7 * comps[1].density(x)
    assert m.density(x) == pytest.approx(expected, rel=1e-14)
    h = 1e-6
    fd = (m.log_density([1.2 + h]) - m.log_density([1.2 - h])) / (2 * h)
    assert m.score(x)[0] == pytest.approx(fd, rel=1e-6)
    with pytest.raises(InvalidSpecError):
        MixtureMeasure(components=comps, weights=(0.5, 0.6))
    with pytest.raises(InvalidSpecError):
        MixtureMeasure(components=comps, weights=(1.0,))


def test_mixture_sampling_law():
    comps = [
        GaussianMeasure(mean=(-2.0,), cov=((1.0,),)),
        GaussianMeasure(mean=(2.0,), cov=((1.0,),)),
    ]
    m = MixtureMeasure(components=comps, weights=(0.5, 0.5))
    xs = m.sample(4000, seed=10)[:, 0]

    def cdf(x):
        return 0.5 * normal_cdf(x + 2.0) + 0.5 * normal_cdf(x - 2.0)

    assert _ks_statistic(xs, cdf) <= KS_BOUND / math.sqrt(4000)


def test_pushforward_sampling_identity():
    base = UniformBoxMeasure(lows=(0.0,), highs=(1.0,))
    aff = AffineMap(2.0, 1.0)
    pf = PushforwardMeasure(base=base, map=aff)
    u = base.sample(100, seed=11)
    x = pf.sample(100, seed=11)
    # same seed: transformed draws match base draws exactly
    np.testing.assert_array_equal(x, 2.0 * u + 1.0)


def test_pushforward_maps_the_whole_sample_as_row_by_row():
    base = GaussianMeasure(mean=(0.0, 1.0), cov=(1.0, 2.0))
    aff = AffineMap([2.0, -3.0], [0.5, 1.0])
    rows = np.vstack([aff(row) for row in base.sample(50, seed=4)])
    assert PushforwardMeasure(base=base, map=aff).sample(50, seed=4).tobytes() == rows.tobytes()
    box = UniformBoxMeasure(lows=(0.0,), highs=(1.0,))
    icdf = NormalICDFMap()
    u = box.sample(50, seed=5)
    rows = np.vstack([icdf(row) for row in u])
    assert PushforwardMeasure(base=box, map=icdf).sample(50, seed=5).tobytes() == rows.tobytes()
    # elementwise on any shape, with each value that of the scalar map
    grid = u.reshape(5, 2, 5)
    assert icdf(grid).shape == grid.shape
    assert icdf(grid).tobytes() == icdf(u.ravel()).tobytes()
    assert icdf(0.5).shape == (1,)


def test_pushforward_image_must_be_finite():
    box = UniformBoxMeasure(lows=(0.0,), highs=(1.0,))
    blowup = AffineMap(1e308, 1e308)
    with np.errstate(over="ignore"), pytest.raises(InvalidSpecError, match="finite"):
        PushforwardMeasure(base=box, map=blowup).sample(10, seed=0)


def test_unsampleable_families_keep_their_errors():
    target = ScoreMeasure(score_fn=lambda x: -x)
    with pytest.raises(InvalidSpecError, match="^measure family 'unnormalized_score' is not"):
        target.sample(5, seed=0)
    mix = MixtureMeasure(
        components=[GaussianMeasure(mean=(0.0,)), EmpiricalMeasure(np.array([[1.0]]))],
        weights=(0.5, 0.5),
    )
    with pytest.raises(InvalidSpecError, match="^mixture component family 'empirical' is not"):
        mix.sample(20, seed=0)


def test_pushforward_icdf_is_standard_normal():
    base = UniformBoxMeasure(lows=(0.0,), highs=(1.0,))
    pf = PushforwardMeasure(base=base, map=NormalICDFMap())
    xs = pf.sample(4000, seed=12)[:, 0]
    assert _ks_statistic(xs, normal_cdf) <= KS_BOUND / math.sqrt(4000)


def test_empirical_measure():
    pts = np.array([[0.0], [1.0], [2.0]])
    m = EmpiricalMeasure(points=pts)
    np.testing.assert_allclose(m.weights, [1 / 3, 1 / 3, 1 / 3], rtol=1e-15)
    xs = m.sample(3000, seed=13)
    # each atom drawn with its weight
    for v in (0.0, 1.0, 2.0):
        frac = np.mean(xs[:, 0] == v)
        assert abs(frac - 1 / 3) < 0.05
    with pytest.raises(InvalidSpecError):
        EmpiricalMeasure(points=pts, weights=(0.5, 0.5, 0.5))


def test_score_measure():
    m = ScoreMeasure(score_fn=lambda x: -np.asarray(x) ** 3, dimension=1)
    np.testing.assert_allclose(m.score([2.0]), [-8.0], rtol=1e-15)
    with pytest.raises(InvalidSpecError):
        m.sample(5, seed=0)
    with pytest.raises(InvalidSpecError):
        m.density([0.0])


def test_density_normalizes():
    # numerically integrate each density over a generous window
    box = UniformBoxMeasure(lows=(-8.0,), highs=(8.0,))
    targets = [
        GaussianMeasure(mean=(0.5,), cov=((1.2,),)),
        MixtureMeasure(
            components=[
                GaussianMeasure(mean=(-1.0,), cov=((0.5,),)),
                GaussianMeasure(mean=(2.0,), cov=((1.0,),)),
            ],
            weights=(0.25, 0.75),
        ),
    ]
    for t in targets:
        est = estimate_mean(lambda x, t=t: t.density(x) * 16.0, box, budget=400)
        assert est.value == pytest.approx(1.0, abs=max(1e-9, 3 * est.stderr))
