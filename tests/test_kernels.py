"""Kernel family behavior: values, symmetry, positive definiteness,
dual-route evaluations, and input validation."""

import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from kembed import kernels
from kembed.dictionary import embed
from kembed.errors import InvalidSpecError
from kembed.kernels import (
    AffineMap,
    Kernel,
    ComposedKernel,
    FbmKernel,
    GaussianKernel,
    Map,
    MaternKernel,
    MatrixValuedKernel,
    NormalICDFMap,
    PeriodicSobolevKernel,
    PowerSeriesKernel,
    ProductKernel,
    SphereSmoothKernel,
    SphereSobolevKernel,
    SumKernel,
    WendlandKernel,
    _matern_profile,
    _sq_dist,
    matern_half_integer,
    periodic_sobolev_series,
)
from kembed.measures import UniformBoxMeasure
from kembed.quadrature import bq_posterior, make_problem


def _psd_check(kernel, points, tol=1e-8):
    gram = kernel.gram(points)
    assert np.allclose(gram, gram.T, atol=1e-12)
    eigs = np.linalg.eigvalsh(gram)
    assert eigs.min() >= -tol * max(1.0, eigs.max())


def test_gaussian_kernel_values():
    k = GaussianKernel(lengthscales=(1.0,))
    assert k(0.0, 0.0) == 1.0
    assert k(0.0, 1.0) == pytest.approx(math.exp(-0.5), rel=1e-15)
    k2 = GaussianKernel(lengthscales=(2.0, 0.5))
    expected = math.exp(-0.5 * ((1.0 / 2.0) ** 2 + (0.25 / 0.5) ** 2))
    assert k2([0.0, 0.0], [1.0, 0.25]) == pytest.approx(expected, rel=1e-15)


def test_gaussian_kernel_matrix_form_agrees_with_diagonal():
    rng = random.Random(11)
    for _ in range(20):
        l1, l2 = rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0)
        kd = GaussianKernel(lengthscales=(l1, l2))
        km = GaussianKernel(matrix=np.diag([l1**2, l2**2]))
        x = [rng.uniform(-2, 2), rng.uniform(-2, 2)]
        y = [rng.uniform(-2, 2), rng.uniform(-2, 2)]
        assert kd(x, y) == pytest.approx(km(x, y), rel=1e-14)


def test_gaussian_kernel_validation():
    with pytest.raises(InvalidSpecError):
        GaussianKernel()
    with pytest.raises(InvalidSpecError):
        GaussianKernel(lengthscales=(1.0,), matrix=np.eye(1))
    with pytest.raises(InvalidSpecError):
        GaussianKernel(lengthscales=(0.0,))
    with pytest.raises(InvalidSpecError):
        GaussianKernel(matrix=np.array([[1.0, 2.0], [2.0, 1.0]]))  # not PD


def test_gaussian_batch_matches_loop():
    k = GaussianKernel(lengthscales=(0.7, 1.3))
    rng = np.random.default_rng(0)
    x = rng.normal(size=2)
    ys = rng.normal(size=(9, 2))
    batch = k.batch(x, ys)
    loop = np.array([k(x, y) for y in ys])
    np.testing.assert_allclose(batch, loop, rtol=1e-14)


def test_matern_general_matches_explicit_forms():
    # the exact profile table holds the coefficients of the explicit forms
    assert _matern_profile(0) == (1,)
    assert _matern_profile(1) == (1, 1)
    assert _matern_profile(2) == (1, 1, Fraction(1, 3))
    assert _matern_profile(3) == (1, 1, Fraction(2, 5), Fraction(1, 15))
    rng = random.Random(12)
    for _ in range(200):
        n = rng.randrange(0, 4)
        tau = rng.uniform(0.0, 8.0)
        general = matern_half_integer(n, tau)
        c = math.sqrt(2 * n + 1)
        if n == 0:
            explicit = math.exp(-tau)
        elif n == 1:
            explicit = math.exp(-c * tau) * (1.0 + c * tau)
        elif n == 2:
            explicit = math.exp(-c * tau) * (1.0 + c * tau + (c * tau) ** 2 / 3.0)
        else:
            z = c * tau
            explicit = math.exp(-z) * (1.0 + z + 2.0 * z**2 / 5.0 + z**3 / 15.0)
        assert general == pytest.approx(explicit, rel=1e-13, abs=1e-300)


@pytest.mark.parametrize("n", range(4))
def test_matern_half_integer_takes_the_distance(n):
    # a negative tau is a distance |tau|, and far ones give 0 as the kernel does
    kernel = MaternKernel(nu=n + 0.5)
    assert matern_half_integer(n, -1.0) == matern_half_integer(n, 1.0) == kernel(0.0, 1.0)
    assert matern_half_integer(n, math.inf) == 0.0
    assert matern_half_integer(n, 1e200) == 0.0
    # finite tau >= 0 keeps the bits of the unclipped form
    for tau in [0.0, 1e-300, 0.3, 1.0, 7.5, 80.0, 999.0, 1e3]:
        z = math.sqrt(2 * n + 1) * tau
        want = math.exp(-z) * sum(float(a) * z**m for m, a in enumerate(_matern_profile(n)))
        assert matern_half_integer(n, tau) == want


@pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, 3.5])
@pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 100])
def test_line_matvec_agrees_with_the_gram(nu, n):
    rng = np.random.default_rng(n)
    kernel = MaternKernel(nu=nu, lengthscale=0.7)
    x = rng.permutation(0.7 * np.geomspace(1e-3, 1e3, n)) * rng.choice([-1.0, 1.0], n)
    w = rng.normal(size=n)
    G = kernel.gram(x[:, None])
    got = kernel._line_matvec(x, w)
    assert np.all(np.abs(got - G @ w) <= 1e-14 * (np.abs(G) @ np.abs(w)))


def test_matern_kernel_values_and_validation():
    k = MaternKernel(nu=1.5, lengthscale=2.0)
    assert k(0.0, 0.0) == 1.0
    tau = 1.0 / 2.0
    z = math.sqrt(3) * tau
    assert k(0.0, 1.0) == pytest.approx(math.exp(-z) * (1 + z), rel=1e-14)
    with pytest.raises(InvalidSpecError):
        MaternKernel(nu=2.0, lengthscale=1.0)
    with pytest.raises(InvalidSpecError):
        MaternKernel(nu=1.5, lengthscale=-1.0)


def test_matern_psd():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(12, 1))
    for nu in (0.5, 1.5, 2.5, 3.5):
        _psd_check(MaternKernel(nu=nu, lengthscale=0.8), pts)


def test_wendland_values_and_support():
    k0 = WendlandKernel(order=0, lengthscale=1.0)
    assert k0(0.0, 0.0) == 1.0
    assert k0(0.0, 0.5) == 0.5
    assert k0(0.0, 1.0) == 0.0
    assert k0(0.0, 2.0) == 0.0
    k2 = WendlandKernel(order=2, lengthscale=2.0)
    t = 0.5 / 2.0
    assert k2(0.0, 0.5) == pytest.approx((1 - t) ** 3 * (3 * t + 1), rel=1e-14)
    k4 = WendlandKernel(order=4, lengthscale=1.0)
    t = 0.3
    assert k4(0.0, 0.3) == pytest.approx(
        (1 - t) ** 5 * (8 * t**2 + 5 * t + 1), rel=1e-14
    )
    with pytest.raises(InvalidSpecError):
        WendlandKernel(order=1, lengthscale=1.0)


@pytest.mark.parametrize("order", [0, 2, 4])
def test_wendland_points_far_apart_give_zero(order):
    # 1e155 apart the squared distance overflows to inf; past the support
    # every entry is 0, not 0 * inf
    k = WendlandKernel(order=order, lengthscale=1.0)
    X = np.array([[0.0], [1e155]])
    with np.errstate(over="ignore", invalid="raise"):
        assert k.gram(X).tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert k.gram_form(X, [1.0, 2.0]) == 5.0
        assert k([0.0], [1e155]) == 0.0


def test_wendland_psd():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1, 1, size=(15, 1))
    for order in (0, 2, 4):
        _psd_check(WendlandKernel(order=order, lengthscale=0.7), pts)


def test_fbm_values_and_domain():
    k = FbmKernel(hurst=0.5)
    # H = 1/2: K(x, y) = min(x, y) on the positive half-line
    rng = random.Random(13)
    for _ in range(50):
        x, y = rng.uniform(0, 5), rng.uniform(0, 5)
        assert k(x, y) == pytest.approx(min(x, y), rel=1e-13, abs=1e-13)
    k3 = FbmKernel(hurst=0.75)
    x, y = 1.0, 2.0
    expected = 0.5 * (x**1.5 + y**1.5 - 1.0)
    assert k3(x, y) == pytest.approx(expected, rel=1e-14)
    kd = FbmKernel(hurst=0.5, domain=(0.0, 1.0))
    with pytest.raises(InvalidSpecError):
        kd(0.5, 1.5)
    with pytest.raises(InvalidSpecError):
        FbmKernel(hurst=1.2)


def test_fbm_psd():
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.01, 3.0, size=(12, 1))
    for hurst in (0.25, 0.5, 0.75):
        _psd_check(FbmKernel(hurst=hurst), pts)


def test_power_series_kernel():
    k = PowerSeriesKernel({(0,): 1.0, (2,): 0.5})
    assert k(2.0, 3.0) == pytest.approx(1.0 + 0.5 * 36.0, rel=1e-15)
    k2 = PowerSeriesKernel({(1, 1): 2.0})
    assert k2([1.0, 2.0], [3.0, 4.0]) == pytest.approx(2.0 * 3.0 * 8.0, rel=1e-15)
    with pytest.raises(InvalidSpecError):
        PowerSeriesKernel({(0,): -1.0})
    with pytest.raises(InvalidSpecError):
        PowerSeriesKernel({})


def test_power_series_takes_the_joint_power_where_the_factors_overflow():
    # x^a and y^a apart are inf * 0, or inf - inf across terms, where
    # (x y)^a is finite; every entry finite apart keeps those bits
    k = PowerSeriesKernel({(0, 0): 1.0, (1, 0): 0.5, (2, 1): 0.25})
    rng = np.random.default_rng(2)
    big, small = 2.0**600, 2.0**-600
    X = np.vstack([rng.normal(size=(50, 2)), [[big, 1.0], [big, 1.0], [1e200, 1e200], [-big, 2.0]]])
    Y = np.vstack([rng.normal(size=(50, 2)), [[small, 1.0], [0.0, 3.0], [1e200, 1e200], [small, 0.5]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = k.pairs(X, Y)
    with np.errstate(over="ignore", invalid="ignore"):
        apart = sum(c * np.prod(X ** np.array(a), axis=1) * np.prod(Y ** np.array(a), axis=1)
                    for a, c in k.terms)
    assert got[:50].tobytes() == apart[:50].tobytes()
    assert got[50:].tolist() == [1.0 + 0.5 + 0.25, 1.0, math.inf, 1.0 - 0.5 + 0.25]


def test_sphere_kernels():
    north = [0.0, 0.0, 1.0]
    south = [0.0, 0.0, -1.0]
    ks = SphereSobolevKernel()
    assert ks(north, north) == pytest.approx(2.0, rel=1e-15)
    assert ks(north, south) == pytest.approx(0.0, abs=1e-12)
    km = SphereSmoothKernel()
    assert km(north, north) == pytest.approx(48.0, rel=1e-15)
    assert km(north, south) == pytest.approx(48.0 * math.exp(-48.0), rel=1e-12)
    with pytest.raises(InvalidSpecError):
        ks(north, [0.0, 0.0, 0.5])


def test_periodic_sobolev_series_route():
    rng = random.Random(14)
    for r in (1, 2, 3):
        k = PeriodicSobolevKernel(r=r)
        for _ in range(25):
            x, y = rng.random(), rng.random()
            series = periodic_sobolev_series(r, x, y, n_terms=200_000)
            tol = 1e-9 if r == 1 else 1e-12
            assert k(x, y) == pytest.approx(series, abs=tol)


def test_periodic_sobolev_validation():
    k = PeriodicSobolevKernel(r=2)
    with pytest.raises(InvalidSpecError):
        k(1.5, 0.5)
    with pytest.raises(InvalidSpecError):
        PeriodicSobolevKernel(r=0)


def test_sum_and_product_kernels():
    g = GaussianKernel(lengthscales=(1.0,))
    m = MaternKernel(nu=0.5, lengthscale=1.0)
    s = SumKernel([g, m], [0.25, 0.75])
    assert s(0.0, 1.0) == pytest.approx(
        0.25 * g(0.0, 1.0) + 0.75 * m(0.0, 1.0), rel=1e-15
    )
    p = ProductKernel([g, m], [1, 1])
    assert p([0.0, 0.5], [1.0, 0.2]) == pytest.approx(
        g(0.0, 1.0) * m(0.5, 0.2), rel=1e-15
    )
    with pytest.raises(InvalidSpecError):
        SumKernel([g, m], [0.5])
    with pytest.raises(InvalidSpecError):
        SumKernel([g, m], [-0.1, 1.1])


def test_matrix_valued_kernel():
    g = GaussianKernel(lengthscales=(1.0,))
    b = np.array([[2.0, 0.5], [0.5, 1.0]])
    mk = MatrixValuedKernel(base=g, matrix=b)
    value = mk(0.0, 1.0)
    assert value.shape == (2, 2)
    np.testing.assert_allclose(value, b * g(0.0, 1.0), rtol=1e-15)
    with pytest.raises(InvalidSpecError):
        MatrixValuedKernel(base=g, matrix=np.array([[1.0, 2.0], [2.0, -3.0]]))


def test_composed_kernel_and_maps():
    g = GaussianKernel(lengthscales=(1.0,))
    aff = AffineMap(2.0, -1.0)
    ck = ComposedKernel(base=g, map=aff)
    assert ck(1.0, 2.0) == pytest.approx(g(1.0, 3.0), rel=1e-15)
    icdf = NormalICDFMap()
    ci = ComposedKernel(base=g, map=icdf)
    # phi(0.5) = 0, so the diagonal value is preserved
    assert ci(0.5, 0.5) == pytest.approx(1.0, rel=1e-12)
    np.testing.assert_allclose(
        aff.inverse(aff.forward(np.array([0.3]))), [0.3], rtol=1e-14
    )
    with pytest.raises(InvalidSpecError):
        AffineMap(0.0, 1.0)


_GRAM_FORM_KERNELS = {
    "gaussian": (GaussianKernel(lengthscales=(0.7, 1.3)), "normal2"),
    "gaussian_matrix": (GaussianKernel(matrix=[[1.0, 0.3], [0.3, 0.5]]), "normal2"),
    "matern": (MaternKernel(nu=2.5, lengthscale=0.4), "normal2"),
    "wendland": (WendlandKernel(order=2, lengthscale=1.1), "normal2"),
    "sum": (SumKernel([GaussianKernel(lengthscales=(0.5, 0.5)), MaternKernel(nu=0.5)],
                      [0.3, 0.7]), "normal2"),
    "fbm": (FbmKernel(hurst=0.3), "positive1"),
}


# 181 rows are one full block of the 2^15 entries, 182 a full block and
# a ragged one of 2 rows; 1 000 rows are 31 blocks of 32 and one of 8
@pytest.mark.parametrize("n", [1, 2, 180, 181, 182, 1000])
@pytest.mark.parametrize("name", sorted(_GRAM_FORM_KERNELS))
def test_gram_form_agrees_with_the_gram(name, n):
    kernel, points = _GRAM_FORM_KERNELS[name]
    rng = np.random.default_rng(n)
    X = rng.normal(size=(n, 2)) if points == "normal2" else rng.uniform(0.0, 3.0, (n, 1))
    w = rng.normal(size=n)
    G = kernel.gram(X)
    value = kernel.gram_form(X, w)
    # the symmetric families sum in blocks, which moves the last bits
    assert abs(value - float(w @ G @ w)) <= 1e-14 * float(np.abs(w) @ np.abs(G) @ np.abs(w))
    if not kernel.symmetric:
        # the others sum one row at a time, as the row-by-row form does
        assert value == float(w @ np.array([kernel.batch(x, X) @ w for x in X]))


def _line_inputs(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(n, 1))


# 1-d inputs of the linear-time Matern form, which sorts them and cuts
# them into blocks of 32: ties, repeated points, sorted and reversed
# input, sizes around a block, points spread over 10^6 lengthscales and
# a pair 1e150 apart, whose terms underflow to 0
_LINE_INPUTS = {
    "ties": lambda: np.repeat(_line_inputs(40, 1), 3, axis=0),
    "repeated": lambda: np.full((70, 1), 0.3),
    "sorted": lambda: np.sort(_line_inputs(100, 2), axis=0),
    "reversed": lambda: np.sort(_line_inputs(100, 3), axis=0)[::-1],
    **{f"n={n}": (lambda n=n: _line_inputs(n, n)) for n in (1, 2, 31, 32, 33, 63, 64, 65, 3000)},
    "spread": lambda: _line_inputs(500, 4) * np.logspace(-3, 6, 500)[:, None],
    "far_pair": lambda: np.array([[0.0], [1e150]]),
    "far_blocks": lambda: np.concatenate([_line_inputs(50, 5), 1e150 + _line_inputs(50, 6) * 1e134]),
}


@pytest.mark.parametrize("signed", [False, True], ids=["positive", "signed"])
@pytest.mark.parametrize("case", sorted(_LINE_INPUTS))
@pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, 3.5])
def test_matern_line_form_agrees_with_the_dense_form(nu, case, signed):
    X = _LINE_INPUTS[case]()
    rng = np.random.default_rng(len(X))
    w = rng.normal(size=len(X)) if signed else rng.uniform(0.1, 1.0, len(X))
    for kernel in (MaternKernel(nu=nu, lengthscale=0.7),
                   ComposedKernel(MaternKernel(nu=nu, lengthscale=1.3), AffineMap(-2.0, 0.5))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = kernel.gram_form(X, w)
            # the dense blocked path, the reference; Matern values are
            # nonnegative, so |w|^T |K| |w| is its form of |w|
            dense = Kernel._gram_form(kernel, X, w)
            scale = Kernel._gram_form(kernel, X, np.abs(w))
        assert math.isfinite(value)
        assert abs(value - dense) <= 1e-14 * scale, (value, dense, scale)


def test_composed_matern_reaches_the_line_form(count_calls):
    calls = count_calls(MaternKernel, "_gram_form")
    k = ComposedKernel(MaternKernel(nu=2.5), NormalICDFMap())
    k.gram_form([[0.2], [0.5], [0.9]], [0.2, 0.3, 0.5])
    SumKernel([MaternKernel(nu=2.5)], [1.0]).gram_form(np.ones((3, 1)), np.ones(3))
    assert [V.shape for V in calls] == [(3, 1)]
    # the same line form chooses the solver of bq: the composed kernel and
    # a product of one Matern factor take the Kalman route, a sum of one
    # Matern kernel, Matern nodes in 2-d and a product of two factors the
    # Cholesky
    line, square = (UniformBoxMeasure(lows=(0.0,) * d, highs=(1.0,) * d) for d in (1, 2))
    pair = ProductKernel([MaternKernel(nu=2.5), MaternKernel(nu=1.5)], [1, 1])
    cases = [
        (k, line, [[0.2], [0.5], [0.9]], "kalman"),
        (ProductKernel([MaternKernel(nu=2.5)], [1]), line, [[0.2], [0.5], [0.9]], "kalman"),
        (SumKernel([MaternKernel(nu=2.5)], [1.0]), line, [[0.2], [0.5], [0.9]], "cholesky"),
        (MaternKernel(nu=2.5), square, [[0.2, 0.1], [0.5, 0.3], [0.9, 0.2]], "cholesky"),
        (pair, square, [[0.2, 0.1], [0.5, 0.3], [0.9, 0.2]], "cholesky"),
    ]
    assert pair.line_form(np.array([[0.2, 0.1], [0.5, 0.3]])) is None
    for kernel, measure, nodes, solver in cases:
        problem = make_problem(embed(kernel, measure), nodes, [0.1, 0.4, 0.2])
        assert bq_posterior(problem).solver == solver


@pytest.mark.parametrize("n", range(4))
def test_matern_profiles_are_the_pairs_formula(n):
    # K = e^(-z) sum_m a_m z^m, which _pairs sums in its own order; the
    # distance _pairs recovers from the points is within an ulp of t,
    # which e^(-z) turns into a relative error of about z ulps
    kernel = MaternKernel(nu=n + 0.5, lengthscale=0.8)
    a = kernel.profiles[n]
    assert len(a) == n + 1
    t = np.concatenate([[0.0], np.logspace(-6, 2.5, 400)])
    z = math.sqrt(2 * n + 1) * t
    want = np.exp(-z) * sum(c * z ** m for m, c in enumerate(a))
    got = kernel.pairs(np.zeros((1, 1)), 0.8 * t[:, None])
    assert np.all(np.abs(got - want) <= 4e-16 * (1.0 + z) * want)


@pytest.mark.parametrize("name", sorted(set(_GRAM_FORM_KERNELS) - {"gaussian", "gaussian_matrix"}))
def test_gram_form_off_the_line_keeps_the_dense_path(name):
    # every family but Matern on 1-d points and the Gaussian keeps the
    # blocked dense sum, bit for bit; a sum over a Gaussian keeps it too
    kernel, points = _GRAM_FORM_KERNELS[name]
    rng = np.random.default_rng(3)
    X = rng.normal(size=(200, 2)) if points == "normal2" else rng.uniform(0.0, 3.0, (200, 1))
    w = rng.normal(size=200)
    assert kernel.gram_form(X, w) == Kernel._gram_form(kernel, X, w)


def _gaussian_points(case: str, n: int, rng) -> np.ndarray:
    if case == "normal":
        return rng.normal(size=(n, 2))
    if case == "spread":
        # 1e-3 to 1e3 lengthscales from the centre
        return rng.normal(size=(n, 2)) * np.geomspace(1e-3, 1e3, n)[:, None]
    if case == "clusters":
        return rng.normal(size=(n, 2)) + np.where(rng.uniform(size=(n, 1)) < 0.5, -1e3, 1e3)
    if case == "offset":
        return rng.normal(size=(n, 2)) + 1e6
    # a few points 40 units out, far past the product's reach, which keep
    # the difference form
    X = rng.normal(size=(n, 2))
    X[: max(1, n // 100)] += 40.0
    return X


@pytest.mark.parametrize("signed", [False, True], ids=["positive", "signed"])
@pytest.mark.parametrize("case", ["normal", "spread", "clusters", "offset", "outliers"])
@pytest.mark.parametrize("n", [0, 1, 2, 180, 181, 182, 1000])
@pytest.mark.parametrize("name", ["gaussian", "gaussian_matrix"])
def test_gaussian_gram_form_agrees_with_the_gram(name, n, case, signed):
    # the Gaussian reads each block's exponent from one matrix product,
    # which moves its entries by a few units of u (h_i + h_j), not its
    # bits: the sum stays within 1e-14 of |w|^T |K| |w|
    kernel = _GRAM_FORM_KERNELS[name][0]
    rng = np.random.default_rng([n, len(case)])
    X = _gaussian_points(case, n, rng)
    w = rng.normal(size=n) if signed else rng.uniform(0.1, 1.0, n)
    G = kernel.gram(X)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = kernel.gram_form(X, w)
    assert type(value) is float
    assert abs(value - float(w @ G @ w)) <= 1e-14 * float(np.abs(w) @ G @ np.abs(w))
    if n == 0:
        assert value == 0.0


@pytest.mark.parametrize("d", [1, 2, 8])
def test_gaussian_gram_form_on_repeated_points_at_the_reach(d):
    # two clusters of one point repeated, at h just inside the product's
    # reach: every entry in a cluster is the same product, so its rounding
    # does not average out, and the sum carries one entry's error
    rng = np.random.default_rng(d)
    for _ in range(20):
        ls = rng.uniform(0.5, 2.0, d)
        z = rng.normal(size=d)
        z *= math.sqrt(2.0 * kernels._GAUSS_PRODUCT_REACH * 0.999) / np.linalg.norm(z)
        X = np.repeat(np.stack([z * ls, -z * ls]), 40, axis=0) + rng.normal(size=d)
        kernel = GaussianKernel(lengthscales=tuple(ls))
        w = np.ones(len(X))
        G = kernel.gram(X)
        assert abs(kernel.gram_form(X, w) - float(w @ G @ w)) <= 1e-14 * float(w @ G @ w)


@pytest.mark.parametrize(
    "kernel",
    [GaussianKernel(lengthscales=(0.7,)), MaternKernel(nu=2.5), WendlandKernel(order=2),
     PeriodicSobolevKernel(r=1), FbmKernel(hurst=0.3),
     ComposedKernel(MaternKernel(nu=1.5), AffineMap(2.0, 0.0))],
    ids=lambda k: k.family,
)
def test_zero_points_give_an_empty_gram(kernel):
    X = np.empty((0, 1))
    assert kernel.gram(X).shape == (0, 0)
    assert kernel.gram_form(X, []) == 0.0
    assert list(kernel.rows(X, X)) == []
    assert [row.shape for row in kernel.rows(np.full((3, 1), 0.5), X)] == [(0,)] * 3


@pytest.mark.parametrize("weights", [[1.0, 1.0], np.ones((3, 1)), 1.0, [[1.0, 1.0, 1.0]]],
                         ids=["short", "column", "scalar", "row"])
@pytest.mark.parametrize(
    "kernel, dim",
    [(MaternKernel(nu=2.5), 1), (MaternKernel(nu=2.5), 2), (GaussianKernel(lengthscales=(1.0,)), 1),
     (FbmKernel(hurst=0.3), 1), (ComposedKernel(MaternKernel(nu=0.5), AffineMap(2.0, 0.0)), 1)],
    ids=["matern_line", "matern_2d", "gaussian", "fbm", "composed"],
)
def test_gram_form_needs_one_weight_per_point(kernel, dim, weights):
    X = np.linspace(0.1, 0.9, 3 * dim).reshape(3, dim)
    with pytest.raises(InvalidSpecError, match="^one weight per point is required$"):
        kernel.gram_form(X, weights)


@pytest.mark.parametrize("make_map", [lambda: AffineMap(1.5, -0.2), NormalICDFMap])
def test_composed_kernel_maps_each_argument_once_per_call(make_map):
    inner = make_map()
    calls = []

    def forward(x):
        calls.append(np.shape(x))
        return inner.forward(x)

    k = ComposedKernel(base=MaternKernel(nu=1.5, lengthscale=0.7),
                       map=Map(forward, inner.inverse, "counted"))
    rng = np.random.default_rng(5)
    Y = rng.uniform(0.01, 0.99, (300, 1))
    for n in (2, 7, 40):
        X = rng.uniform(0.01, 0.99, (n, 1))
        calls.clear()
        rows = list(k.rows(X, Y))
        # x_0, Y and the other rows of X: three maps, whatever len(X)
        assert len(calls) == 3
        calls.clear()
        G = k.gram(X)
        assert len(calls) == 1
        calls.clear()
        w = rng.uniform(size=n)
        value = k.gram_form(X, w)
        assert len(calls) == 1
        for i, x in enumerate(X):
            assert rows[i].tobytes() == k.batch(x, Y).tobytes()
            assert G[i].tobytes() == k.batch(x, X).tobytes()
        # the symmetric base sums its Gram in blocks, which moves the last bits
        scale = float(np.abs(w) @ np.abs(G) @ np.abs(w))
        assert abs(value - float(w @ np.array([k.batch(x, X) @ w for x in X]))) <= 1e-14 * scale


def test_composed_kernel_rows_raise_the_row_by_row_error():
    k = ComposedKernel(base=GaussianKernel(lengthscales=(1.0,)), map=NormalICDFMap())
    # row by row, batch(x_0, Y) meets the bad Y before the bad x_2
    X, Y = [[0.3], [0.5], [1.7]], [[0.2], [2.5]]
    with pytest.raises(InvalidSpecError, match="got 2.5$"):
        k.batch(X[0], Y)
    with pytest.raises(InvalidSpecError, match="got 2.5$"):
        list(k.rows(X, Y))
    with pytest.raises(InvalidSpecError, match="got 1.7$"):
        list(k.rows(X, [[0.2]]))
    with pytest.raises(InvalidSpecError, match="got 1.7$"):
        k.gram(X)


def test_kernel_input_validation():
    g = GaussianKernel(lengthscales=(1.0, 1.0))
    with pytest.raises(InvalidSpecError):
        g([1.0], [1.0, 2.0])
    with pytest.raises(InvalidSpecError):
        g([math.nan, 0.0], [0.0, 0.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("bad_first", [False, True], ids=["second", "first"])
@pytest.mark.parametrize(
    "kernel",
    [
        GaussianKernel(lengthscales=(0.7, 0.7, 0.7)),
        SphereSobolevKernel(),
        ComposedKernel(GaussianKernel(lengthscales=(0.7,) * 3), AffineMap([2.0] * 3, [0.0] * 3)),
    ],
    ids=["gaussian", "sphere", "composed"],
)
def test_non_finite_input_raises_alike_everywhere(kernel, bad_first, bad):
    good = np.array([0.0, 0.0, 1.0])
    worse = good.copy()
    worse[1] = bad
    x, y = (worse, good) if bad_first else (good, worse)
    paths = {
        "call": lambda: kernel(x, y),
        "batch": lambda: kernel.batch(x, [good, y]),
        "pairs": lambda: kernel.pairs([x, good], [y, good]),
        "rows": lambda: kernel.rows([good, x], [good, y]),
        "gram": lambda: kernel.gram([good, x, y]),
        "gram_form": lambda: kernel.gram_form([good, x, y], [1.0, 1.0, 1.0]),
    }
    for path in paths.values():
        with pytest.raises(InvalidSpecError, match="^points must be finite$"):
            path()


def test_gaussian_psd_full_matrix():
    lam = np.array([[2.0, 0.3], [0.3, 1.0]])
    k = GaussianKernel(matrix=lam)
    rng = np.random.default_rng(4)
    _psd_check(k, rng.normal(size=(10, 2)))


@pytest.mark.parametrize("d", range(1, 11))
def test_sq_dist_has_the_bits_of_np_sum(d):
    # magnitudes spread over many decades, so that any other summation
    # order than np.sum's (sequential below 8 columns, pairwise from 8)
    # shows in the last bits
    rng = np.random.default_rng(d)
    X, Y = (rng.normal(size=(60, d)) * 10.0 ** rng.integers(-6, 7, size=(60, d)) for _ in range(2))
    s = tuple(float(v) for v in rng.uniform(0.1, 3.0, d))
    for A, B in ((X, Y), (X[:1], Y), (X, Y[:1]), (X[:1], Y[:1])):
        assert _sq_dist(A, B).tobytes() == np.sum((B - A) ** 2, axis=1).tobytes()
        want = np.sum(((B - A) / np.asarray(s)) ** 2, axis=1)
        assert _sq_dist(A, B, s).tobytes() == want.tobytes()
    # a (7, 60) block of rows against rows, each row with the bits of the
    # one row of X against all of Y
    block = _sq_dist(X[:7, None, :], Y[None, :, :], s)
    assert block.shape == (7, 60)
    assert block.tobytes() == np.stack([_sq_dist(x[None, :], Y, s) for x in X[:7]]).tobytes()
