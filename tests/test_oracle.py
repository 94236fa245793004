"""Numerical oracle: quadrature node exactness, convergence under
budget doubling, Monte Carlo unbiasedness, and method selection."""

import ast
import math
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from kembed.errors import InvalidSpecError, UnsupportedPairError
from kembed.kernels import (
    AffineMap,
    ComposedKernel,
    FbmKernel,
    GaussianKernel,
    MaternKernel,
    MatrixValuedKernel,
    PeriodicSobolevKernel,
    PowerSeriesKernel,
    ProductKernel,
    SphereSmoothKernel,
    SphereSobolevKernel,
    SumKernel,
    WendlandKernel,
)
from kembed.measures import (
    GaussianMeasure,
    SphereUniformMeasure,
    UniformBoxMeasure,
)
from kembed import kernels, oracle
from kembed.oracle import (
    estimate_kp,
    estimate_kp_rows,
    estimate_kpp,
    estimate_mean,
    gauss_hermite_nodes,
    gauss_legendre_nodes,
)
from kembed.stein import SteinKernel


def test_gauss_legendre_polynomial_exactness():
    # an n-point rule integrates polynomials up to degree 2n-1 exactly
    for n in (5, 20, 200):
        t, w = gauss_legendre_nodes(n)
        assert t.shape == (n,) and w.shape == (n,)
        assert w.sum() == pytest.approx(2.0, rel=1e-14)
        for deg in (0, 2, min(2 * n - 1, 9)):
            exact = 2.0 / (deg + 1) if deg % 2 == 0 else 0.0
            got = float(np.dot(w, t**deg))
            assert got == pytest.approx(exact, abs=1e-13)


def test_gauss_legendre_high_degree_at_200_nodes():
    t, w = gauss_legendre_nodes(200)
    rng = random.Random(17)
    for _ in range(5):
        deg = rng.randrange(100, 399)
        exact = 2.0 / (deg + 1) if deg % 2 == 0 else 0.0
        assert float(np.dot(w, t**deg)) == pytest.approx(exact, abs=1e-12)


def test_gauss_hermite_moment_exactness():
    # weight function exp(-t^2): moments are Gamma((2m+1)/2)
    root_pi = math.sqrt(math.pi)
    for n in (10, 50, 400):
        z, w = gauss_hermite_nodes(n)
        assert w.sum() == pytest.approx(root_pi, rel=1e-13)
        assert float(np.dot(w, z)) == pytest.approx(0.0, abs=1e-12)
        assert float(np.dot(w, z**2)) == pytest.approx(root_pi / 2, rel=1e-12)
        assert float(np.dot(w, z**4)) == pytest.approx(3 * root_pi / 4, rel=1e-11)
        assert float(np.dot(w, z**6)) == pytest.approx(15 * root_pi / 8, rel=1e-10)


def test_gauss_hermite_400_nodes_integrates_gaussian_kernel():
    z, w = gauss_hermite_nodes(400)
    # E exp(-(x-Y)^2/2) for Y ~ N(0,1) is exp(-x^2/4)/sqrt(2); substitute
    # y = sqrt(2) t to match the exp(-t^2) weight
    y = math.sqrt(2.0) * z
    got = float(np.dot(w, np.exp(-0.5 * (1.0 - y) ** 2))) / math.sqrt(math.pi)
    assert got == pytest.approx(math.exp(-0.25) / math.sqrt(2.0), rel=1e-14)


def test_node_count_validation():
    with pytest.raises(InvalidSpecError):
        gauss_legendre_nodes(0)
    with pytest.raises(InvalidSpecError):
        gauss_hermite_nodes(-3)


def test_kp_doubling_convergence_smooth():
    k = GaussianKernel(lengthscales=(0.9,))
    p = UniformBoxMeasure(lows=(-0.5,), highs=(1.5,))
    coarse = estimate_kp(k, p, x=[0.3], budget=40)
    fine = estimate_kp(k, p, x=[0.3], budget=80)
    # doubled budget moves the estimate by less than the coarse error
    assert abs(fine.value - coarse.value) < 1e-12
    assert coarse.stderr == 0.0


def test_kp_doubling_convergence_kinked():
    k = MaternKernel(nu=0.5, lengthscale=0.7)
    p = UniformBoxMeasure(lows=(0.0,), highs=(2.0,))
    vals = [estimate_kp(k, p, x=[0.8], budget=b).value for b in (20, 40, 80)]
    assert abs(vals[2] - vals[1]) <= abs(vals[1] - vals[0]) + 1e-15
    assert abs(vals[2] - vals[1]) < 1e-12


def test_kpp_doubling_convergence_fbm():
    k = FbmKernel(hurst=0.3)
    p = UniformBoxMeasure(lows=(0.0,), highs=(1.0,))
    vals = [estimate_kpp(k, p, budget=b).value for b in (30, 60, 120)]
    assert abs(vals[2] - vals[1]) < 1e-10


def test_mc_unbiased_over_seeds():
    # U-statistic kpp across seeds: mean of estimates matches truth
    k = GaussianKernel(lengthscales=(1.0,))
    p = GaussianMeasure(mean=(0.0,), cov=((1.0,),))
    truth = 1.0 / math.sqrt(3.0)
    estimates = []
    hits = 0
    for seed in range(50):
        est = estimate_kpp(k, p, budget=10_000, seed=seed, method="monte_carlo")
        estimates.append(est.value)
        if abs(est.value - truth) <= 3.0 * est.stderr:
            hits += 1
    assert hits >= 47
    pooled = float(np.mean(estimates))
    spread = float(np.std(estimates, ddof=1)) / math.sqrt(50)
    assert abs(pooled - truth) <= 4.0 * spread


def test_mc_constant_kernel_zero_stderr():
    k = PowerSeriesKernel({(0,): 2.5})
    p = GaussianMeasure(mean=(0.0,), cov=((1.0,),))
    est = estimate_kp(k, p, x=[0.0], budget=2000, method="monte_carlo")
    assert est.value == pytest.approx(2.5, rel=1e-15)
    assert est.stderr == 0.0


def test_method_auto_selection():
    gauss = GaussianKernel(lengthscales=(1.0,))
    box = UniformBoxMeasure(lows=(0.0,), highs=(1.0,))
    normal = GaussianMeasure(mean=(0.0,), cov=((1.0,),))
    assert estimate_kp(gauss, box, x=[0.5], budget=50).method == "gauss_legendre"
    assert estimate_kp(gauss, normal, x=[0.5], budget=50).method == "gauss_hermite"
    kinked = MaternKernel(nu=1.5, lengthscale=1.0)
    assert estimate_kp(kinked, box, x=[0.5], budget=50).method == "gauss_legendre"
    sphere = SphereSmoothKernel()
    est = estimate_kp(
        sphere, SphereUniformMeasure(d=2), x=[0.0, 0.0, 1.0], budget=5000
    )
    assert (est.method, est.n, est.replicates) == ("sphere_lattice", 4992, 16)
    assert est.stderr > 0.0


def test_kinked_kernel_on_gaussian_uses_truncated_panels():
    k = WendlandKernel(order=0, lengthscale=1.0)
    p = GaussianMeasure(mean=(0.0,), cov=((1.0,),))
    est = estimate_kp(k, p, x=[0.0], budget=120)
    assert est.stderr == 0.0
    # truth: int (1-|y|)_+ phi(y) dy = 2*(Phi(1)-Phi(0)) - 2*phi(0) + 2*phi(1)
    phi = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
    Phi = lambda t: 0.5 * (1 + math.erf(t / math.sqrt(2)))
    truth = 2 * (Phi(1.0) - Phi(0.0)) - 2 * phi(0.0) + 2 * phi(1.0)
    assert est.value == pytest.approx(truth, abs=1e-12)


def test_budget_floor():
    p = GaussianMeasure(mean=(0.0,), cov=((1.0,),))
    with pytest.raises(InvalidSpecError):
        estimate_mean(lambda x: 1.0, p, budget=5)
    with pytest.raises(InvalidSpecError):
        estimate_kp(
            GaussianKernel(lengthscales=(1.0,)), p, x=[0.0], budget=0
        )


def test_estimate_mean_vectorized_matches_loop():
    p = GaussianMeasure(mean=(0.5,), cov=((2.0,),))
    f = lambda x: float(np.sin(x[0]))
    fv = lambda X: np.sin(X[:, 0])
    # the per-point reference: f on each sample point, then the mean
    # and standard error of those values
    vals = np.array([f(x) for x in p.sample(500, seed=3)])
    b = estimate_mean(fv, p, budget=500, seed=3)
    assert b.value == float(np.mean(vals))
    assert b.stderr == float(np.std(vals, ddof=1) / math.sqrt(500))


def test_unknown_method_rejected():
    p = GaussianMeasure(mean=(0.0,), cov=((1.0,),))
    with pytest.raises(InvalidSpecError):
        estimate_kp(
            GaussianKernel(lengthscales=(1.0,)), p, x=[0.0], method="simpson"
        )


# --- routing of every kernel family ------------------------------------------

_ROUTE_MEASURES = {
    "box1": (UniformBoxMeasure((0.0,), (1.0,)), [0.3]),
    "gauss1": (GaussianMeasure((0.2,), 0.25), [0.3]),
    "box2": (UniformBoxMeasure((0.0, 0.0), (1.0, 1.0)), [0.3, 0.6]),
    "sphere": (SphereUniformMeasure(2), [0.0, 0.0, 1.0]),
    "gauss2": (GaussianMeasure((0.1, -0.2), [[1.0, 0.3], [0.3, 0.5]]), [0.3, 0.6]),
}


def _gauss(d):
    return GaussianKernel(lengthscales=(0.7,) * d)


def _product(d):
    if d == 1:
        return ProductKernel([MaternKernel(nu=0.5)], [1])
    return ProductKernel([_gauss(d - 1), _gauss(1)], [d - 1, 1])


# kernel family -> kernel of a given input dimension
_ROUTE_KERNELS = {
    "gaussian": _gauss,
    "gaussian_matrix": lambda d: GaussianKernel(matrix=0.5 * np.eye(d) + 0.2),
    "matern": lambda d: MaternKernel(nu=1.5, lengthscale=0.8),
    "wendland": lambda d: WendlandKernel(order=2, lengthscale=0.6),
    "fbm": lambda d: FbmKernel(hurst=0.3),
    "fbm_half": lambda d: FbmKernel(hurst=0.5),
    "power_series": lambda d: PowerSeriesKernel([((0,) * d, 1.0), ((1,) * d, 0.5)]),
    "sphere_sobolev32": lambda d: SphereSobolevKernel(),
    "sphere_smooth": lambda d: SphereSmoothKernel(),
    "periodic_sobolev": lambda d: PeriodicSobolevKernel(r=1),
    "sum": lambda d: SumKernel([_gauss(d), MaternKernel(nu=0.5)], [0.5, 0.5]),
    "product": _product,
    "matrix_valued": lambda d: MatrixValuedKernel(_gauss(d), np.eye(2)),
    "composed": lambda d: ComposedKernel(_gauss(d), AffineMap([2.0] * d, [0.0] * d)),
    "stein": lambda d: SteinKernel(_gauss(d), GaussianMeasure((0.0,) * d, 1.0)),
}

# (kernel, measure) -> (method, n) of estimate_kp and of estimate_kpp at
# budget 20, or the error either raises. Pairs whose dimensions cannot
# match are absent. A randomized rule's n counts kernel evaluations: 16
# replicates of 20 // 16 = 1 point; K_PP's U-statistic draws 4 points.
_ROUTES = {
    ("gaussian", "box1"): (("gauss_legendre", 20), ("gauss_legendre", 400)),
    ("gaussian", "gauss1"): (("gauss_hermite", 20), ("gauss_hermite", 400)),
    ("gaussian", "box2"): (("gauss_legendre", 400), ("gauss_legendre", 160000)),
    ("gaussian", "sphere"): (("sphere_lattice", 16), ("sphere_mc", 4)),
    ("gaussian", "gauss2"): (("lattice", 16), ("monte_carlo", 4)),
    ("gaussian_matrix", "box1"): (("gauss_legendre", 20), ("gauss_legendre", 400)),
    ("gaussian_matrix", "gauss1"): (("gauss_hermite", 20), ("gauss_hermite", 400)),
    ("gaussian_matrix", "box2"): (("gauss_legendre", 400), ("gauss_legendre", 160000)),
    ("gaussian_matrix", "sphere"): (("sphere_lattice", 16), ("sphere_mc", 4)),
    ("gaussian_matrix", "gauss2"): (("lattice", 16), ("monte_carlo", 4)),
    ("matern", "box1"): (("gauss_legendre", 24), ("gauss_legendre", 480)),
    ("matern", "gauss1"): (("gauss_legendre", 24), ("gauss_legendre", 480)),
    ("matern", "box2"): (("lattice", 16), ("monte_carlo", 4)),
    ("matern", "sphere"): (("sphere_lattice", 16), ("sphere_mc", 4)),
    ("matern", "gauss2"): (("lattice", 16), ("monte_carlo", 4)),
    ("wendland", "box1"): (("gauss_legendre", 36), ("gauss_legendre", 1152)),
    ("wendland", "gauss1"): (("gauss_legendre", 48), ("gauss_legendre", 888)),
    ("wendland", "box2"): (("lattice", 16), ("monte_carlo", 4)),
    ("wendland", "sphere"): (("sphere_lattice", 16), ("sphere_mc", 4)),
    ("wendland", "gauss2"): (("lattice", 16), ("monte_carlo", 4)),
    ("fbm", "box1"): (("gauss_legendre", 880), ("gauss_legendre", 436160)),
    ("fbm", "gauss1"): (InvalidSpecError, InvalidSpecError),
    ("fbm_half", "box1"): (("gauss_legendre", 24), ("gauss_legendre", 480)),
    ("fbm_half", "gauss1"): (InvalidSpecError, InvalidSpecError),
    ("power_series", "box1"): (("gauss_legendre", 20), ("gauss_legendre", 400)),
    ("power_series", "gauss1"): (("gauss_hermite", 20), ("gauss_hermite", 400)),
    ("power_series", "box2"): (("gauss_legendre", 400), ("gauss_legendre", 160000)),
    ("power_series", "sphere"): (("sphere_lattice", 16), ("sphere_mc", 4)),
    ("power_series", "gauss2"): (("lattice", 16), ("monte_carlo", 4)),
    ("sphere_sobolev32", "sphere"): (("sphere_lattice", 16), ("sphere_mc", 4)),
    ("sphere_smooth", "sphere"): (("sphere_lattice", 16), ("sphere_mc", 4)),
    ("periodic_sobolev", "box1"): (("gauss_legendre", 24), ("gauss_legendre", 480)),
    ("periodic_sobolev", "gauss1"): (InvalidSpecError, InvalidSpecError),
    ("sum", "box1"): (("gauss_legendre", 24), ("gauss_legendre", 480)),
    ("sum", "gauss1"): (("gauss_legendre", 24), ("gauss_legendre", 480)),
    ("sum", "box2"): (("lattice", 16), ("monte_carlo", 4)),
    ("sum", "sphere"): (("sphere_lattice", 16), ("sphere_mc", 4)),
    ("sum", "gauss2"): (("lattice", 16), ("monte_carlo", 4)),
    ("product", "box1"): (("gauss_legendre", 24), ("gauss_legendre", 480)),
    ("product", "gauss1"): (("gauss_legendre", 24), ("gauss_legendre", 480)),
    ("product", "box2"): (("gauss_legendre", 400), ("gauss_legendre", 160000)),
    ("product", "sphere"): (("sphere_lattice", 16), ("sphere_mc", 4)),
    ("product", "gauss2"): (("lattice", 16), ("monte_carlo", 4)),
    ("matrix_valued", "box1"): (UnsupportedPairError, UnsupportedPairError),
    ("matrix_valued", "gauss1"): (UnsupportedPairError, UnsupportedPairError),
    ("matrix_valued", "box2"): (UnsupportedPairError, UnsupportedPairError),
    ("matrix_valued", "sphere"): (UnsupportedPairError, UnsupportedPairError),
    ("matrix_valued", "gauss2"): (UnsupportedPairError, UnsupportedPairError),
    ("composed", "box1"): (("lattice", 16), ("monte_carlo", 4)),
    ("composed", "gauss1"): (("monte_carlo", 20), ("monte_carlo", 4)),
    ("composed", "box2"): (("lattice", 16), ("monte_carlo", 4)),
    ("composed", "sphere"): (("sphere_lattice", 16), ("sphere_mc", 4)),
    ("composed", "gauss2"): (("lattice", 16), ("monte_carlo", 4)),
    ("stein", "box1"): (("gauss_legendre", 20), ("gauss_legendre", 400)),
    ("stein", "gauss1"): (("gauss_hermite", 20), ("gauss_hermite", 400)),
    ("stein", "box2"): (("gauss_legendre", 400), ("gauss_legendre", 160000)),
    ("stein", "sphere"): (("sphere_lattice", 16), ("sphere_mc", 4)),
    ("stein", "gauss2"): (("lattice", 16), ("monte_carlo", 4)),
}


def test_routing_table_covers_every_family_and_measure():
    families = {k for k, _ in _ROUTES}
    assert families == set(_ROUTE_KERNELS)
    for family in families:
        make = _ROUTE_KERNELS[family]
        for name, (measure, _) in _ROUTE_MEASURES.items():
            dim = make(measure.dim).dim
            applies = dim is None or dim == measure.dim
            assert ((family, name) in _ROUTES) == applies, (family, name)


@pytest.mark.parametrize("what", ["kp", "kpp"])
@pytest.mark.parametrize("pair", sorted(_ROUTES), ids="-".join)
def test_oracle_routing(pair, what):
    family, measure_name = pair
    measure, x = _ROUTE_MEASURES[measure_name]
    kernel = _ROUTE_KERNELS[family](measure.dim)
    expected = _ROUTES[pair][0 if what == "kp" else 1]

    def run():
        if what == "kp":
            return estimate_kp(kernel, measure, x, budget=20)
        return estimate_kpp(kernel, measure, budget=20)

    if isinstance(expected, type):
        with pytest.raises(expected):
            run()
    else:
        est = run()
        assert (est.method, est.n) == expected


def _entry_point_outcomes(kernel, x, y) -> dict:
    """K(x, y) through each public entry point, as its bytes, or the
    message of the InvalidSpecError it raises."""
    paths = {
        "call": lambda: kernel(x, y),
        "batch": lambda: kernel.batch(x, [y])[0],
        "pairs": lambda: kernel.pairs([x], [y])[0],
        "rows": lambda: next(kernel.rows([x], [y]))[0],
        "gram": lambda: kernel.gram([x, y])[0, 1],
    }
    if isinstance(kernel, GaussianKernel):
        # its __call__ keeps the math.exp form that the CLI goldens pin
        del paths["call"]
    out = {}
    for name, path in paths.items():
        try:
            out[name] = np.asarray(path(), dtype=float).tobytes()
        except InvalidSpecError as exc:
            out[name] = str(exc)
    return out


@pytest.mark.parametrize("pair", sorted(_ROUTES), ids="-".join)
def test_entry_points_agree_bitwise(pair):
    # one formula per family: every entry point gives the same bits, or
    # the same error (fbm under a Gaussian draws negative inputs)
    family, measure_name = pair
    measure, _ = _ROUTE_MEASURES[measure_name]
    kernel = _ROUTE_KERNELS[family](measure.dim)
    pts = measure.sample(40, seed=3)
    for x, y in zip(pts[:20], pts[20:]):
        outcomes = _entry_point_outcomes(kernel, x, y)
        assert len(set(outcomes.values())) == 1, (x, y, outcomes)


def _array_or_error(make) -> tuple:
    try:
        out = make()
    except InvalidSpecError as exc:
        return str(exc), None
    return out.tobytes(), out.shape


@pytest.mark.parametrize("pair", sorted(_ROUTES), ids="-".join)
def test_gram_is_stacked_batch_rows_bitwise(pair):
    # one preallocated array, filled with the bits of batch row by row;
    # or the same error (fbm under a Gaussian draws negative inputs)
    family, measure_name = pair
    measure, _ = _ROUTE_MEASURES[measure_name]
    kernel = _ROUTE_KERNELS[family](measure.dim)
    X = measure.sample(25, seed=4)
    got = _array_or_error(lambda: kernel.gram(X))
    want = _array_or_error(lambda: np.stack([kernel.batch(x, X) for x in X]))
    assert got == want


# the families whose Gram is computed over its upper triangle in blocks
_SYMMETRIC_FAMILIES = {"gaussian", "gaussian_matrix", "matern", "wendland", "sum", "composed"}


@pytest.mark.parametrize("pair", sorted(_ROUTES), ids="-".join)
def test_gram_in_blocks_is_stacked_batch_rows_bitwise(pair, monkeypatch):
    # 23 rows in blocks of 5: four full blocks and a ragged one of 3
    monkeypatch.setattr(kernels, "_GRAM_BLOCK", 5 * 23)
    family, measure_name = pair
    measure, _ = _ROUTE_MEASURES[measure_name]
    kernel = _ROUTE_KERNELS[family](measure.dim)
    assert kernel.symmetric == (family in _SYMMETRIC_FAMILIES)
    X = measure.sample(23, seed=6)
    got = _array_or_error(lambda: kernel.gram(X))
    want = _array_or_error(lambda: np.stack([kernel.batch(x, X) for x in X]))
    assert got == want
    if kernel.symmetric:
        G = kernel.gram(X)
        assert G.tobytes() == G.T.tobytes()


@pytest.mark.parametrize("family", sorted(_SYMMETRIC_FAMILIES))
def test_symmetric_gram_at_full_block_size(family):
    # 400 rows at the real block size: blocks of 81 rows, the last of 76
    kernel = _ROUTE_KERNELS[family](2)
    X = GaussianMeasure((0.0, 0.5), 1.5).sample(400, seed=2)
    G = kernel.gram(X)
    assert G.tobytes() == np.stack([kernel.batch(x, X) for x in X]).tobytes()
    assert G.tobytes() == G.T.tobytes()


@pytest.mark.parametrize("pair", sorted(_ROUTES), ids="-".join)
def test_rows_are_batch_rows_bitwise(pair):
    # each row keeps the bits of its batch; an error is the first failing
    # batch's (fbm and periodic under a Gaussian draw inputs outside
    # their domains, in both arrays)
    family, measure_name = pair
    measure, _ = _ROUTE_MEASURES[measure_name]
    kernel = _ROUTE_KERNELS[family](measure.dim)
    for seed in range(4):
        X, Y = measure.sample(6, seed=seed), measure.sample(30, seed=seed + 10)
        got = _array_or_error(lambda: np.stack(list(kernel.rows(X, Y))))
        want = _array_or_error(lambda: np.stack([kernel.batch(x, Y) for x in X]))
        assert got == want


# 7 rows against 30: a symmetric family takes blocks of 2^15 // 30 rows,
# here 4 and a ragged 3, or 3, 3 and a last block of one row, or one row
# at a time when a block would hold fewer than two
@pytest.mark.parametrize("block", [4 * 30, 3 * 30, 30])
@pytest.mark.parametrize("pair", sorted(_ROUTES), ids="-".join)
def test_rows_in_blocks_are_batch_rows_bitwise(pair, block, monkeypatch):
    family, measure_name = pair
    measure, _ = _ROUTE_MEASURES[measure_name]
    kernel = _ROUTE_KERNELS[family](measure.dim)
    X, Y = measure.sample(7, seed=11), measure.sample(30, seed=12)
    want = _array_or_error(lambda: np.stack([kernel.batch(x, Y) for x in X]))
    monkeypatch.setattr(kernels, "_GRAM_BLOCK", block)
    assert _array_or_error(lambda: np.stack(list(kernel.rows(X, Y)))) == want


def test_symmetric_rows_take_blocks_of_rows(monkeypatch, count_calls):
    monkeypatch.setattr(kernels, "_GRAM_BLOCK", 4 * 30)
    calls = count_calls(MaternKernel, "_pairs")
    X = GaussianMeasure((0.0,), 1.0).sample(30, seed=1)
    rows = list(MaternKernel(nu=1.5).rows(X[:7], X))
    assert len(rows) == 7
    assert [V.shape for V in calls] == [(4, 1, 1), (3, 1, 1)]


# K_PP bits at the parent of the blocked rows, which must not move: the
# U-statistic's rows (Matern-5/2 on a 2-d box, 1 000 points) and the
# 2-d Legendre rule's (Gaussian on a 2-d box, 1 600 x 1 600 nodes)
_KPP_BITS = {
    "u_statistic": (MaternKernel(nu=2.5, lengthscale=0.6), "monte_carlo", 1000,
                    "0x1.0374c911f1bb5p-1", "0x1.3e71eacee55b1p-8"),
    "legendre": (GaussianKernel(lengthscales=(0.5, 0.8)), "gauss_legendre", 1600 ** 2,
                 "0x1.32f82bd8b5c53p-1", "0x0.0p+0"),
}


@pytest.mark.parametrize("name", sorted(_KPP_BITS))
def test_oracle_kpp_keeps_its_bits(name):
    kernel, method, n, value, stderr = _KPP_BITS[name]
    est = estimate_kpp(kernel, UniformBoxMeasure(lows=(0.0, -1.0), highs=(1.0, 0.5)))
    assert (est.method, est.n) == (method, n)
    assert (est.value.hex(), est.stderr.hex()) == (value, stderr)


def _evaluations(kernel, X, Y) -> dict:
    """rows, batch and pairs of two arrays of equal length, each as the
    bytes and shape of its result or the message of its error."""
    return {
        "rows": _array_or_error(lambda: np.stack(list(kernel.rows(X[:3], Y)))),
        "batch": _array_or_error(lambda: kernel.batch(X[0], Y)),
        "pairs": _array_or_error(lambda: kernel.pairs(X, Y)),
        "pairs_one_x": _array_or_error(lambda: kernel.pairs(X[:1], Y)),
        "pairs_one_y": _array_or_error(lambda: kernel.pairs(X, Y[:1])),
    }


@pytest.mark.parametrize("n", [21, 23])
@pytest.mark.parametrize("pair", sorted(_ROUTES), ids="-".join)
def test_evaluations_in_blocks_are_one_pairs_call_bitwise(pair, n, monkeypatch):
    # 23 rows in blocks of 5: four full blocks and a ragged one of 3; 21
    # rows: three full blocks and a last of 6, since a block of one row
    # would be a single point (fbm takes Python's pow at one). Against
    # one _pairs call, at the real block size; or the same error (fbm and
    # periodic under a Gaussian draw inputs outside their domains)
    family, measure_name = pair
    measure, _ = _ROUTE_MEASURES[measure_name]
    kernel = _ROUTE_KERNELS[family](measure.dim)
    X, Y = measure.sample(n, seed=7), measure.sample(n, seed=8)
    want = _evaluations(kernel, X, Y)
    monkeypatch.setattr(kernels, "_GRAM_BLOCK", 5)
    assert _evaluations(kernel, X, Y) == want


@pytest.mark.parametrize("n, blocks", [(23, [5, 5, 5, 5, 3]), (21, [5, 5, 5, 6]), (5, [5])])
def test_evaluations_take_blocks_of_rows(n, blocks, monkeypatch, count_calls):
    monkeypatch.setattr(kernels, "_GRAM_BLOCK", 5)
    kernel = MaternKernel(nu=1.5)
    X = GaussianMeasure((0.0,), 1.0).sample(n, seed=1)
    calls = count_calls(MaternKernel, "_pairs")
    kernel.batch(X[0], X)
    kernel.pairs(X, X)
    kernel.pairs(X, X[:1])
    next(kernel.rows(X[:1], X))
    assert [len(V) for V in calls] == [1] * len(blocks) + blocks * 2 + [1] * len(blocks)


def test_a_last_row_joins_the_block_before_it(monkeypatch):
    # fbm takes Python's pow for a single x, and numpy's pow can differ in
    # the last bit; a block of one row would take Python's for that row
    kernel = FbmKernel(hurst=0.3)
    h = 2.0 * kernel.hurst
    candidates = np.random.default_rng(5).uniform(0.0, 2.0, 1000)
    differs = [v for v in candidates if float(v) ** h != (np.array([v]) ** h)[0]]
    X = np.linspace(0.1, 1.0, 21)[:, None]
    X[20] = differs[0] if differs else candidates[0]
    Y = X[::-1].copy()
    want = kernel.pairs(X, Y).tobytes()
    monkeypatch.setattr(kernels, "_GRAM_BLOCK", 5)
    assert kernel.pairs(X, Y).tobytes() == want


def test_an_error_in_a_block_is_the_one_call_raises(monkeypatch):
    # a composed part checks its image of X, then of Y, inside _pairs: X
    # is off the domain in its last block, Y in its first
    part = ComposedKernel(FbmKernel(hurst=0.3, domain=(0.0, 1.0)), AffineMap([1.0], [0.0]))
    kernel = SumKernel([part, MaternKernel(nu=0.5)], [0.5, 0.5])
    X, Y = np.full((23, 1), 0.5), np.full((23, 1), 0.5)
    X[21], Y[2] = 2.0, 3.0
    monkeypatch.setattr(kernels, "_GRAM_BLOCK", 5)
    with pytest.raises(InvalidSpecError, match=r"^input 2\.0 lies outside"):
        kernel.pairs(X, Y)


def test_sphere_check_in_blocks_names_the_first_row_off_the_sphere(monkeypatch):
    # rows 8 and 19 lie off the sphere, in the second and the last block
    kernel = SphereSobolevKernel()
    X = SphereUniformMeasure(2).sample(23, seed=3)
    X[8] = [0.0, 0.0, 1.5]
    X[19] = [0.0, 2.0, 0.0]
    with pytest.raises(InvalidSpecError) as whole:
        kernel.batch(X[0], X)
    monkeypatch.setattr(kernels, "_GRAM_BLOCK", 5)
    with pytest.raises(InvalidSpecError) as blocked:
        kernel.batch(X[0], X)
    assert str(blocked.value) == str(whole.value)
    assert "got norm 1.5" in str(whole.value)


def test_sphere_oracle_checks_each_array_once(count_calls):
    # one call of estimate_kp_rows or estimate_kpp checks every row of
    # its points and of its sample once, not the sample once per row
    kernel, measure = SphereSobolevKernel(), SphereUniformMeasure(2)
    X = measure.sample(20, seed=1)
    checked = count_calls(SphereSobolevKernel, "_check")
    estimate_kp_rows(kernel, measure, X, budget=5000, seed=2)
    # the first row, the rule's 16 x 312 nodes, the other rows: the order
    # in which the first failing row would report its error
    assert [len(V) for V in checked] == [1, 4992, 19]
    checked.clear()
    estimate_kpp(kernel, measure, budget=10_000, seed=2)
    assert [len(V) for V in checked] == [1, 100, 99]


def test_monte_carlo_rows_hold_one_row_at_a_time(monkeypatch):
    # each row is filled block by block, and the sample is checked block
    # by block, so while a row is computed the peak is the sample, that
    # row and O(block); the mean and its stderr then add one row. A
    # consumer that kept the previous row alive would add a row to both
    kernel, measure = SphereSobolevKernel(), SphereUniformMeasure(2)
    X = measure.sample(10, seed=1)
    n = 200_000
    draw, mc_mean = SphereUniformMeasure.sample, oracle._mc_mean
    row_peaks, mean_peaks = [], []

    def sample(self, size, seed):
        # the peak from here on: the sample is held, its draw is not counted
        out = draw(self, size, seed)
        tracemalloc.reset_peak()
        return out

    def mean(vals):
        # the peak since the last row's mean: this row's evaluation
        row_peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        out = mc_mean(vals)
        mean_peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        return out

    monkeypatch.setattr(SphereUniformMeasure, "sample", sample)
    monkeypatch.setattr(oracle, "_mc_mean", mean)
    tracemalloc.start()
    try:
        estimate_kp_rows(kernel, measure, X, budget=n, seed=2, method="sphere_mc")
        _, last_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    sample_bytes, row_bytes = n * 3 * 8, n * 8
    assert len(row_peaks) == len(mean_peaks) == 10
    assert max(row_peaks) <= sample_bytes + row_bytes + 1e6
    assert max(mean_peaks + [last_peak]) <= sample_bytes + 2 * row_bytes + 1e6


def _fields(est):
    return est.value, est.stderr, est.method, est.n, est.seed


def _outcome(run):
    """The fields of an estimate, or the type and message of the
    error it raises."""
    try:
        return _fields(run())
    except (InvalidSpecError, UnsupportedPairError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("pair", sorted(_ROUTES), ids="-".join)
def test_rows_equal_points_bitwise(pair, count_draws):
    # one sample or rule for all rows, and each row keeps the bits (or
    # the error) of its own estimate_kp call
    family, measure_name = pair
    measure, _ = _ROUTE_MEASURES[measure_name]
    kernel = _ROUTE_KERNELS[family](measure.dim)
    rows = measure.sample(5, seed=11)
    singles = [_outcome(lambda: estimate_kp(kernel, measure, x, budget=20, seed=4))
               for x in rows]
    errors = [o for o in singles if isinstance(o[0], type)]
    if errors:
        # the rows run in order, so the first failing row raises
        assert _outcome(
            lambda: estimate_kp_rows(kernel, measure, rows, budget=20, seed=4)[0]
        ) == errors[0]
        return
    sample = measure.sample(20, seed=4)
    draws = count_draws(measure)
    batch = estimate_kp_rows(kernel, measure, rows, budget=20, seed=4)
    assert [_fields(est) for est in batch] == singles
    if batch[0].method in ("monte_carlo", "sphere_mc"):
        # the mean over the seeded sample of the budget's size
        assert [est.value for est in batch] == [
            float(np.mean(kernel.batch(x, sample))) for x in rows
        ]
        assert len(draws) == 1
    else:
        assert draws == []

    wrong = np.zeros((5, measure.dim + 1))
    with pytest.raises(InvalidSpecError) as single:
        estimate_kp(kernel, measure, wrong[0], budget=20)
    with pytest.raises(InvalidSpecError) as many:
        estimate_kp_rows(kernel, measure, wrong, budget=20)
    assert str(many.value) == str(single.value)


_NORTH = [0.0, 0.0, 1.0]


@pytest.mark.parametrize(
    "kernel, inside, outside, message",
    [
        (SphereSobolevKernel(), _NORTH, [0.0, 0.0, 2.0], "unit norm within 1e-09, got norm 2.0"),
        (SphereSmoothKernel(), _NORTH, [0.0, 0.6, 0.6], "unit norm within 1e-09, got norm 0.848"),
        (FbmKernel(hurst=0.3, domain=(0.0, 1.0)), [0.5], [1.5],
         "input 1.5 lies outside the declared domain [0.0, 1.0]"),
        (FbmKernel(hurst=0.3), [0.5], [-0.25], "input must be nonnegative, got -0.25"),
        (PeriodicSobolevKernel(r=2), [0.5], [1.25], "inputs must lie in [0, 1], got 1.25"),
        (PeriodicSobolevKernel(r=2), [0.5], [-0.5], "inputs must lie in [0, 1], got -0.5"),
    ],
    ids=["sobolev32", "smooth", "fbm_domain", "fbm_negative", "periodic_high", "periodic_low"],
)
@pytest.mark.parametrize("bad_first", [False, True], ids=["second", "first"])
def test_out_of_domain_input_raises_alike_everywhere(kernel, inside, outside, message, bad_first):
    x, y = (outside, inside) if bad_first else (inside, outside)
    outcomes = _entry_point_outcomes(kernel, x, y)
    assert len(set(outcomes.values())) == 1, outcomes
    assert message in outcomes["call"]


def test_oracle_imports_no_closed_form():
    # the oracle checks the closed forms, so it must never reach them
    modules = set()
    for node in ast.walk(ast.parse(open(oracle.__file__, encoding="utf-8").read())):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module
            if node.level:
                module = "kembed" + (f".{module}" if module else "")
            if module == "kembed":
                modules.update(f"kembed.{alias.name}" for alias in node.names)
            else:
                modules.add(module)
    assert "kembed" not in modules
    used = {m.split(".")[1] for m in modules if m.startswith("kembed.")}
    assert used == {"errors", "kernels", "measures", "specfun"}
    assert not used & {"dictionary", "combinators", "stein", "quadrature"}


def test_gaussian_legendre_window_covers_x_far_outside():
    # x outside mu +- 12 sd: the mass of K(x, y) pdf(y) lies between the
    # window and x; at 11.9 sd it peaks at the window's edge or past it.
    # Against mpmath at 30 digits, with the integrand scaled by pdf(x) so
    # that quad's absolute tolerance is a relative one.
    mp = pytest.importorskip("mpmath")
    mu, sd = 0.3, 1.7
    normal = GaussianMeasure(mean=(mu,), cov=((sd * sd,),))

    def true_kp(profile, breaks, x):
        X, m, s = mp.mpf(x), mp.mpf(mu), mp.mpf(sd)
        zx = (X - m) / s
        scaled = lambda y: profile(abs(X - y)) * mp.exp((zx**2 - ((y - m) / s) ** 2) / 2)
        nodes = sorted({mp.ninf, m, mp.inf} | {X + b for b in breaks})
        return mp.quad(scaled, nodes) * mp.exp(-zx**2 / 2) / (s * mp.sqrt(2 * mp.pi))

    with mp.workdps(30):
        for ratio in (4.0, 8.0):
            ell = sd / ratio
            l = mp.mpf(ell)
            cases = [
                (MaternKernel(nu=2.5, lengthscale=ell), (0,), lambda r: (
                    1 + mp.sqrt(5) * r / l + 5 * r * r / (3 * l * l)) * mp.exp(-mp.sqrt(5) * r / l)),
                (MaternKernel(nu=1.5, lengthscale=ell), (0,),
                 lambda r: (1 + mp.sqrt(3) * r / l) * mp.exp(-mp.sqrt(3) * r / l)),
                (WendlandKernel(order=0, lengthscale=ell), (-l, 0, l), lambda r: max(0, 1 - r / l)),
                (WendlandKernel(order=2, lengthscale=ell), (-l, 0, l),
                 lambda r: max(0, 1 - r / l) ** 3 * (3 * r / l + 1)),
            ]
            for kernel, breaks, profile in cases:
                for z in (11.9, -11.9, 14.0, -20.3, 30.0):
                    x = mu + z * sd
                    est = estimate_kp(kernel, normal, x=[x])
                    assert est.method == "gauss_legendre"
                    want = true_kp(profile, breaks, x)
                    # 4.3e-43 for Matern-5/2 at sd / l = 8, x = 14 sd;
                    # the Wendland values were 0 on the old window. At
                    # 11.9 sd the window's own rule was off by up to 1.6e-2
                    assert 0.0 < want < (1e-22 if abs(z) < 12.0 else 1e-30)
                    assert abs(est.value - want) <= 1e-12 * want, (kernel, z)


def test_gaussian_legendre_window_inside_keeps_its_rule():
    # for x in mu +- 10 sd the rule is the one window split at the kinks
    mu, sd = 0.3, 1.7
    kernel = MaternKernel(nu=2.5, lengthscale=0.5)
    _, inner = oracle._rules(kernel, GaussianMeasure(mean=(mu,), cov=((sd * sd,),)), "gauss_legendre", 200)
    for x in (mu - 10.0 * sd, mu, mu + 9.9 * sd, mu + 10.0 * sd):
        t, w, _ = inner(np.array([x]))
        lo, hi = mu - 12.0 * sd, mu + 12.0 * sd
        assert t.size == 200 and lo < t.min() and t.max() < hi


@pytest.mark.parametrize("hurst", [0.3, 0.7])
def test_box_legendre_grades_toward_a_singularity_just_outside(hurst):
    # fBm's |x - y|^(2H) is singular at y = x: for x just past an edge the
    # end panel is graded toward that edge, and the oracle meets the
    # closed form (it was off by up to 4e-6 relative at x = b + 1e-6)
    from kembed.dictionary import embed

    kernel = FbmKernel(hurst=hurst)
    for lo, hi in ((0.0, 1.5), (0.5, 2.0)):
        box = UniformBoxMeasure(lows=(lo,), highs=(hi,))
        closed = embed(kernel, box)
        for x in (hi + 1e-6, hi + 1e-3, hi + 0.1, 2.0 * hi, lo - 1e-4 if lo else hi / 2):
            want = closed.kp_at([x])
            assert estimate_kp(kernel, box, x=[x]).value == pytest.approx(want, rel=1e-13)


# --- randomized rules ----------------------------------------------------------


def _gauss_box_kp(x, ell, lows, highs):
    """The Gaussian kernel's K_P on a box, a product of erf differences."""
    out = 1.0
    for xi, a, b in zip(x, lows, highs):
        s = ell * math.sqrt(2.0)
        out *= math.sqrt(math.pi / 2.0) * ell / (b - a) * (math.erf((b - xi) / s) - math.erf((a - xi) / s))
    return out


def _gauss_gauss_kp(x, ell, mean, cov):
    """The Gaussian kernel's K_P under N(mean, cov)."""
    lam = ell * ell * np.eye(len(x))
    d = np.subtract(x, mean)
    return float(
        np.exp(-0.5 * d @ np.linalg.solve(lam + cov, d))
        / math.sqrt(np.linalg.det(np.eye(len(x)) + cov @ np.linalg.inv(lam)))
    )


def test_replicate_error_bars_are_honest():
    # |estimate - truth| > t stderr, with t the two-sided 10 % quantile of
    # Student's t for R - 1 degrees of freedom, on about 20 of 200 seeds:
    # the count falls in the binomial 99.9 % interval. Small rules on S^2,
    # a 3-d box (a searched generating vector) and a correlated 2-d
    # Gaussian (normal_icdf and the Cholesky factor)
    stats = pytest.importorskip("scipy.stats")
    assert oracle.REPLICATE_T == pytest.approx(
        stats.t.ppf(stats.norm.cdf(3.0), oracle.REPLICATES - 1), rel=1e-12
    )
    t = stats.t.ppf(0.95, oracle.REPLICATES - 1)
    lo, hi = stats.binom.interval(0.999, 200, 0.1)
    cov = np.array([[1.0, 0.3], [0.3, 0.5]])
    lows, highs = (0.0, 0.0, 0.0), (1.0, 1.5, 2.0)
    cases = [
        (SphereSobolevKernel(), SphereUniformMeasure(2), [0.0, 0.0, 1.0], 2.0 / 3.0, 16 * 256),
        (
            GaussianKernel(lengthscales=(0.7,) * 3),
            UniformBoxMeasure(lows, highs),
            [0.3, 0.2, 1.9],
            _gauss_box_kp([0.3, 0.2, 1.9], 0.7, lows, highs),
            16 * 256,
        ),
        (
            GaussianKernel(lengthscales=(0.7,) * 2),
            GaussianMeasure((0.1, 0.2), cov),
            [0.5, -0.3],
            _gauss_gauss_kp([0.5, -0.3], 0.7, (0.1, 0.2), cov),
            16 * 16,
        ),
    ]
    for kernel, measure, x, truth, budget in cases:
        outside = 0
        for seed in range(200):
            est = estimate_kp(kernel, measure, x, budget=budget, seed=seed)
            assert est.replicates == oracle.REPLICATES and est.stderr > 0.0
            outside += abs(est.value - truth) > t * est.stderr
        assert lo <= outside <= hi, (measure.family, outside)


def test_rules_are_built_on_first_use_not_at_import():
    # a fresh import computes no generating vector and no point set
    script = (
        "from kembed import oracle\n"
        "print(oracle._lattice.cache_info().currsize, oracle._sphere_set.cache_info().currsize)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]
    # the first use builds each and the next reuses it
    oracle._lattice.cache_clear()
    oracle._sphere_set.cache_clear()
    box, sphere = UniformBoxMeasure((0.0,) * 3, (1.0,) * 3), SphereUniformMeasure(2)
    for seed in (1, 2):
        estimate_kp(GaussianKernel(lengthscales=(0.5,) * 3), box, [0.5] * 3, budget=16 * 64, seed=seed)
        estimate_kp(SphereSobolevKernel(), sphere, [0.0, 0.0, 1.0], budget=16 * 64, seed=seed)
    assert oracle._lattice.cache_info()[:2] == (1, 1)
    assert oracle._sphere_set.cache_info()[:2] == (1, 1)


def test_searched_lattice_integrates_smooth_functions_closely():
    # the 3-d generating vector at 16 x 4 093 evaluations: a stderr three
    # orders below plain Monte Carlo at 10^6 draws, and an honest one
    kernel = GaussianKernel(lengthscales=(0.7,) * 3)
    lows, highs = (0.0, 0.0, 0.0), (1.0, 1.5, 2.0)
    x = [0.3, 0.2, 1.9]
    est = estimate_kp(kernel, UniformBoxMeasure(lows, highs), x)
    mc = estimate_kp(kernel, UniformBoxMeasure(lows, highs), x, method="monte_carlo")
    assert (est.method, est.n, mc.n) == ("lattice", 16 * 4093, 10**6)
    assert est.stderr < 1e-3 * mc.stderr
    assert abs(est.value - _gauss_box_kp(x, 0.7, lows, highs)) <= oracle.REPLICATE_T * est.stderr


@pytest.mark.parametrize("d, n", [(1, 4096), (2, 2584), (3, 4093), (5, 4093)])
def test_lattice_sizes_and_projections(d, n):
    # 4 096 points asked for: all of them in 1-d, the Fibonacci number
    # 2 584 in 2-d (z = (1, 1 597)), the prime 4 093 in more dimensions.
    # Every coordinate of a rank-1 lattice whose z_j are units mod n
    # takes each of the values k / n once
    u, size = oracle._lattice(4096, d)
    assert size == n and u.shape == (n, d) and not u.flags.writeable
    assert np.array_equal(np.sort(np.rint(u * n), axis=0), np.tile(np.arange(n)[:, None], (1, d)))
    if d == 2:
        assert u[1, 1] * n == 1597
