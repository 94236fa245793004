"""Closed-form embeddings: frozen reference values, oracle agreement,
stability limits, branch coverage, and dispatch behavior."""

import hashlib
import math
import random
import zlib

import numpy as np
import pytest

from kembed import combinators, dictionary, stein
from kembed.combinators import (
    matrix_valued_embed,
    mixture_embed,
    product_embed,
    pushforward_embed,
    sum_embed,
)
from kembed.dictionary import (
    CLOSED_FORM,
    NUMERIC_FALLBACK,
    MaternUniformCoefficients,
    cross_kpq,
    embed,
    gauss_uniform,
    matern_gauss_kp,
    matern_uniform_special,
    periodic_sobolev_embed,
    powerseries_gauss,
    stationary_cross_kpq,
    wendland0_uniform,
    wendland_gauss_kp,
)
from kembed.errors import InvalidSpecError, KembedError, UnsupportedPairError
from kembed.kernels import (
    AffineMap,
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
)
from kembed.measures import (
    EmpiricalMeasure,
    GaussianMeasure,
    MixtureMeasure,
    PushforwardMeasure,
    ScoreMeasure,
    SphereUniformMeasure,
    UniformBoxMeasure,
)
from kembed.oracle import estimate_kp, estimate_kpp
from kembed.specfun import exp_each, pow_each
from kembed.stein import SteinKernel, stein_embed

# Reference values computed independently by panel quadrature and
# frozen; each agreed with the closed form to <1e-14 when generated.
FROZEN = {
    "gauss_uniform": {
        "kernel": lambda: GaussianKernel(lengthscales=(0.8,)),
        "measure": lambda: UniformBoxMeasure(lows=(0.0,), highs=(2.0,)),
        "kp": {(0.3,): 0.6310451322341362, (1.0,): 0.7907915419470359,
               (2.5,): 0.26579935672182026},
        "kpp": 0.6842588704666215,
    },
    "gauss_uniform_2d": {
        "kernel": lambda: GaussianKernel(lengthscales=(0.8, 1.5)),
        "measure": lambda: UniformBoxMeasure(lows=(0.0, -1.0), highs=(2.0, 1.0)),
        "kp": {(0.3, 0.2): 0.5827847062891051},
        "kpp": 0.5984005302542257,
    },
    "gauss_gauss": {
        "kernel": lambda: GaussianKernel(lengthscales=(1.3,)),
        "measure": lambda: GaussianMeasure(mean=(0.4,), cov=(0.81,)),
        "kp": {(0.0,): 0.7962985493411207, (1.7,): 0.5863835968271045},
        "kpp": 0.7145446229081065,
    },
    "matern32_uniform": {
        "kernel": lambda: MaternKernel(nu=1.5, lengthscale=0.6),
        "measure": lambda: UniformBoxMeasure(lows=(0.0,), highs=(1.0,)),
        "kp": {(0.25,): 0.7619416321388294, (0.9,): 0.6730833238809133},
        "kpp": 0.7444153452205421,
    },
    "matern72_uniform": {
        "kernel": lambda: MaternKernel(nu=3.5, lengthscale=1.1),
        "measure": lambda: UniformBoxMeasure(lows=(-1.0,), highs=(2.0,)),
        "kp": {(0.5,): 0.7210572143603476},
        "kpp": 0.6209225290167241,
    },
    "wendland0_uniform": {
        "kernel": lambda: WendlandKernel(order=0, lengthscale=0.9),
        "measure": lambda: UniformBoxMeasure(lows=(0.0,), highs=(2.0,)),
        "kp": {(0.5,): 0.40555555555555556, (1.8,): 0.3138888888888891},
        "kpp": 0.3825,
    },
    "fbm_uniform": {
        "kernel": lambda: FbmKernel(hurst=0.7),
        "measure": lambda: UniformBoxMeasure(lows=(0.0,), highs=(1.5,)),
        "kp": {(0.4,): 0.31616423011550837, (1.2,): 0.7900636866798959},
        "kpp": 0.5188583922902971,
    },
    "powerseries_uniform": {
        "kernel": lambda: PowerSeriesKernel({(0,): 0.5, (1,): 1.0, (2,): 0.25}),
        "measure": lambda: UniformBoxMeasure(lows=(-1.0,), highs=(1.0,)),
        "kp": {(0.3,): 0.5075},
        "kpp": 0.5277777777777778,
    },
    "powerseries_gauss": {
        "kernel": lambda: PowerSeriesKernel({(0,): 1.0, (2,): 0.5, (4,): 0.125}),
        "measure": lambda: GaussianMeasure(mean=(0.0,), cov=(0.49,)),
        "kp": {(0.6,): 1.09986886},
        "kpp": 1.18490401125,
    },
}

MATERN_GAUSS_KP = {
    # nu -> {x: value}; lengthscale 0.9, target N(0.3, 1.2^2)
    0.5: {(0.0,): 0.4352282562123011, (2.0,): 0.24408005115552991},
    1.5: {(0.0,): 0.5272696210267932, (2.0,): 0.2871740513087834},
    2.5: {(0.0,): 0.5504231783657203, (2.0,): 0.29793102098158564},
}

WENDLAND_GAUSS_KP = {
    # order -> {x: value}; lengthscale 1.2, target N(0.5, 0.8^2)
    0: {(0.2,): 0.4825005991796904, (1.5,): 0.2907134501452438},
    2: {(0.2,): 0.4095187404976622, (1.5,): 0.22866439319544724},
}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_values(name):
    spec = FROZEN[name]
    kernel, measure = spec["kernel"](), spec["measure"]()
    e = embed(kernel, measure)
    assert e.provenance == CLOSED_FORM
    assert e.kernel is kernel and e.measure is measure
    for x, expected in spec["kp"].items():
        assert e.kp_at(list(x)) == pytest.approx(expected, rel=1e-14)
    assert e.kpp == pytest.approx(spec["kpp"], rel=1e-14)


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_oracle_agreement(name):
    spec = FROZEN[name]
    kernel, measure = spec["kernel"](), spec["measure"]()
    e = embed(kernel, measure)
    # a string's hash() changes with PYTHONHASHSEED; crc32 does not
    rng = random.Random(zlib.crc32(name.encode()))
    for _ in range(5):
        if measure.family == "uniform_box":
            x = [rng.uniform(lo - 0.3, hi + 0.3)
                 for lo, hi in zip(measure.lows, measure.highs)]
        else:
            x = [m + 2.0 * (rng.random() - 0.5) * 3.0 for m in measure.mean]
        if kernel.family == "fbm":
            # the fbm kernel lives on the half line
            x = [max(v, 0.0) for v in x]
        o = estimate_kp(kernel, measure, x=x, budget=300)
        assert e.kp_at(x) == pytest.approx(o.value, abs=max(1e-10, 3 * o.stderr))
    o2 = estimate_kpp(kernel, measure, budget=300)
    assert e.kpp == pytest.approx(o2.value, abs=max(1e-9, 3 * o2.stderr))


@pytest.mark.parametrize("nu", sorted(MATERN_GAUSS_KP))
def test_matern_gauss_frozen(nu):
    k = MaternKernel(nu=nu, lengthscale=0.9)
    p = GaussianMeasure(mean=(0.3,), cov=(1.44,))
    e = embed(k, p)
    assert e.kp_provenance == CLOSED_FORM
    assert e.kpp_provenance == CLOSED_FORM
    for x, expected in MATERN_GAUSS_KP[nu].items():
        assert e.kp_at(list(x)) == pytest.approx(expected, rel=1e-13)
    o = estimate_kpp(k, p, budget=300)
    assert e.kpp == pytest.approx(o.value, abs=max(1e-9, 3 * o.stderr))


@pytest.mark.parametrize("order", sorted(WENDLAND_GAUSS_KP))
def test_wendland_gauss_frozen(order):
    k = WendlandKernel(order=order, lengthscale=1.2)
    p = GaussianMeasure(mean=(0.5,), cov=(0.64,))
    e = embed(k, p)
    assert e.kp_provenance == CLOSED_FORM
    for x, expected in WENDLAND_GAUSS_KP[order].items():
        assert e.kp_at(list(x)) == pytest.approx(expected, rel=1e-13)
    o = estimate_kp(k, p, x=[0.2], budget=300)
    assert e.kp_at([0.2]) == pytest.approx(o.value, abs=1e-10)


def test_matern_gauss_smoothest_order_falls_back():
    e = embed(MaternKernel(nu=3.5, lengthscale=0.9),
              GaussianMeasure(mean=(0.3,), cov=(1.44,)))
    assert e.kp_provenance == NUMERIC_FALLBACK
    o = estimate_kp(
        MaternKernel(nu=3.5, lengthscale=0.9),
        GaussianMeasure(mean=(0.3,), cov=(1.44,)),
        x=[0.0],
        budget=400,
    )
    assert e.kp_at([0.0]) == pytest.approx(o.value, rel=1e-10)


def test_matern_general_matches_special_sweep():
    rng = random.Random(21)
    for _ in range(100):
        nu = rng.choice([0.5, 1.5, 2.5, 3.5])
        lo = rng.uniform(-2.0, 0.0)
        hi = lo + 10.0 ** rng.uniform(-1.0, 1.0)
        ell = 10.0 ** rng.uniform(-1.0, 1.0)
        k = MaternKernel(nu=nu, lengthscale=ell)
        p = UniformBoxMeasure(lows=(lo,), highs=(hi,))
        e = embed(k, p)
        o = estimate_kpp(k, p, budget=200)
        assert e.kpp == pytest.approx(o.value, rel=1e-10, abs=1e-12)


def test_matern_gauss_stable_branch_continuity():
    # lengthscale chosen so the exponent guard trips inside the scan;
    # closed form must agree with quadrature on both sides of the switch
    ell = math.sqrt(3.0) / 9.0
    k = MaternKernel(nu=1.5, lengthscale=ell)
    p = GaussianMeasure(mean=(0.0,), cov=(1.0,))
    e = embed(k, p)
    xs = np.linspace(-1.0, 1.0, 41)
    vals = []
    for x in xs:
        v = e.kp_at([float(x)])
        o = estimate_kp(k, p, x=[float(x)], budget=400)
        assert v == pytest.approx(o.value, rel=5e-13, abs=1e-15)
        vals.append(v)
    jumps = np.abs(np.diff(vals))
    assert jumps.max() < 0.01


def test_matern_gauss_far_field():
    # 20 standard deviations out the embedding must stay finite, tiny,
    # and match direct quadrature
    k = MaternKernel(nu=1.5, lengthscale=1.0)
    p = GaussianMeasure(mean=(0.0,), cov=(1.0,))
    e = embed(k, p)
    v = e.kp_at([20.0])
    assert 0.0 < v < 1e-8
    o = estimate_kp(k, p, x=[20.0], budget=400)
    assert v == pytest.approx(o.value, rel=1e-8)


def test_matern_uniform_coefficients_keep_their_bits():
    # c_m of Q(z) = e^(-z) sum_m c_m z^m for n = 0..3
    want = {0: (1.0,), 1: (4.0, 2.0), 2: (32.0, 20.0, 4.0), 3: (384.0, 264.0, 72.0, 8.0)}
    for n, c in want.items():
        assert MaternUniformCoefficients(n, 0.7, -0.5, 1.0).c == c


@pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, 3.5])
@pytest.mark.parametrize("lengthscale, high", [
    (1.0, 1e300),  # r^2 past the float range
    (1e-150, 1e10),  # (alpha / r)^2 below the normal range
    (1e-300, 1e300),  # rho = r / alpha past the float range
    (1e200, 1e300),  # alpha^2 past the float range
])
def test_matern_uniform_on_wide_boxes_is_finite(nu, lengthscale, high):
    e = embed(MaternKernel(nu=nu, lengthscale=lengthscale), UniformBoxMeasure((0.0,), (high,)))
    xs = [-high, 0.0, 1e-300, 0.25 * high, 0.5 * high, high, 2.0 * high]
    kp = [e.kp_at([x]) for x in xs]
    assert all(math.isfinite(v) and v >= 0.0 for v in kp)
    assert math.isfinite(e.kpp) and e.kpp >= 0.0
    # the box spans 1e10 lengthscales or more, so K_P is flat at the middle
    mid = kp[4]
    if mid > 1e-290:
        assert e.kpp == pytest.approx(mid, rel=1e-6)


# sha256 (first 16 hex digits) of matern_gauss_kp's kp_rows on 481 points
# of [-12, 12], as little-endian float64, and the hex of its kpp, under
# N(0.3, 1.44). At lengthscale 0.3 a branch's exponent passes
# _STABLE_EXPONENT, and the erfcx form takes over, for |x - 0.3| past 9.6,
# 2.8 and 0 at n = 0, 1, 2; at lengthscale 1 the direct form serves the grid.
_MATERN_GAUSS_BITS = {
    (0, 0.3): ("0fe8099f45aba260", "0x1.18932bf08e166p-3"),
    (1, 0.3): ("036b37ce0608830c", "0x1.46e89a6502ce0p-3"),
    (2, 0.3): ("2c1c87f280e0520a", "0x1.524349faef000p-3"),
    (0, 1.0): ("756663898e56e712", "0x1.839f500817f68p-2"),
    (1, 1.0): ("c7d3f5074fc1b664", "0x1.d32000ff89f54p-2"),
    (2, 1.0): ("e5766dac4b77d958", "0x1.e722b20a2c700p-2"),
}


@pytest.mark.parametrize("n, ls", sorted(_MATERN_GAUSS_BITS))
def test_matern_gauss_kp_keeps_its_bits(n, ls):
    e = matern_gauss_kp(MaternKernel(nu=n + 0.5, lengthscale=ls),
                        GaussianMeasure(mean=(0.3,), cov=(1.44,)))
    rows = e.kp_rows(np.linspace(-12.0, 12.0, 481)[:, None]).astype("<f8").tobytes()
    assert (hashlib.sha256(rows).hexdigest()[:16], e.kpp.hex()) == _MATERN_GAUSS_BITS[n, ls]


def test_gauss_uniform_large_lengthscale_stable():
    # flat-kernel limit; naive 1 - exp(...) evaluation loses this digit
    e = embed(GaussianKernel(lengthscales=(1e4,)),
              UniformBoxMeasure(lows=(0.0,), highs=(1.0,)))
    assert e.kpp == pytest.approx(1.0 - 1.0 / 12e8, abs=1e-14)
    assert e.kp_at([0.5]) == pytest.approx(1.0, abs=1e-8)


def test_point_mass_limits():
    tiny = UniformBoxMeasure(lows=(0.7 - 1e-9,), highs=(0.7 + 1e-9,))
    e = embed(GaussianKernel(lengthscales=(1.0,)), tiny)
    assert e.kp_at([0.0]) == pytest.approx(math.exp(-0.5 * 0.49), abs=1e-6)
    assert e.kpp == pytest.approx(1.0, abs=1e-9)
    narrow = GaussianMeasure(mean=(0.7,), cov=(1e-18,))
    e = embed(GaussianKernel(lengthscales=(1.0,)), narrow)
    assert e.kp_at([0.0]) == pytest.approx(math.exp(-0.5 * 0.49), rel=1e-9)
    assert e.kpp == pytest.approx(1.0, abs=1e-12)


def test_gauss_gauss_unit_case():
    e = embed(GaussianKernel(lengthscales=(1.0,)),
              GaussianMeasure(mean=(0.0,), cov=(1.0,)))
    assert e.kpp == 1.0 / math.sqrt(3.0)
    assert e.kp_at([0.0]) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)


def test_gauss_gauss_full_covariance():
    lam = np.array([[1.5, 0.2], [0.2, 0.8]])
    cov = np.array([[1.0, 0.4], [0.4, 2.0]])
    k = GaussianKernel(matrix=lam)
    p = GaussianMeasure(mean=(0.3, -0.7), cov=cov)
    e = embed(k, p)
    assert e.provenance == CLOSED_FORM
    # dual route: dense linear algebra directly
    for x in ([0.0, 0.0], [1.0, -1.0]):
        a = lam + cov
        d = np.asarray(x) - np.array([0.3, -0.7])
        expected = math.sqrt(np.linalg.det(lam) / np.linalg.det(a)) * math.exp(
            -0.5 * d @ np.linalg.solve(a, d)
        )
        assert e.kp_at(x) == pytest.approx(expected, rel=1e-13)
    b = lam + 2.0 * cov
    expected_kpp = math.sqrt(np.linalg.det(lam) / np.linalg.det(b))
    assert e.kpp == pytest.approx(expected_kpp, rel=1e-13)


def test_gauss_cross_term_symmetry_and_diagonal():
    lam = np.array([[1.0]])
    mp, cp = np.array([0.0]), np.array([[1.0]])
    mq, cq = np.array([1.0]), np.array([[0.25]])
    kernel = GaussianKernel(matrix=lam)
    p, q = GaussianMeasure(mp, cp), GaussianMeasure(mq, cq)
    ab = stationary_cross_kpq(kernel, p, q)
    ba = stationary_cross_kpq(kernel, q, p)
    assert ab == pytest.approx(ba, rel=1e-15)
    assert ab == pytest.approx(
        math.sqrt(1.0 / 2.25) * math.exp(-0.5 / 2.25), rel=1e-14
    )
    # P = Q reduces to the double integral
    e = embed(GaussianKernel(lengthscales=(1.0,)),
              GaussianMeasure(mean=(0.0,), cov=(1.0,)))
    same = stationary_cross_kpq(kernel, p, p)
    assert same == pytest.approx(e.kpp, rel=1e-14)


# the stationary kernels with a closed form under a 1-d Gaussian, by
# lengthscale
STATIONARY_GAUSS = {
    "matern12": lambda ls: MaternKernel(nu=0.5, lengthscale=ls),
    "matern32": lambda ls: MaternKernel(nu=1.5, lengthscale=ls),
    "matern52": lambda ls: MaternKernel(nu=2.5, lengthscale=ls),
    "wendland0": lambda ls: WendlandKernel(order=0, lengthscale=ls),
    "wendland2": lambda ls: WendlandKernel(order=2, lengthscale=ls),
}


@pytest.mark.parametrize("ratio", [0.125, 1.0, 8.0])
@pytest.mark.parametrize("name", sorted(STATIONARY_GAUSS))
def test_stationary_kpp_is_k_d_at_zero(name, ratio):
    # K_PP under N(mu, sigma^2) is K_P at 0 under D = N(0, 2 sigma^2),
    # sigma_D / l = ratio; the oracle integrates K(0, .) against D and
    # reads no closed form
    sigma = 0.7
    k = STATIONARY_GAUSS[name](math.sqrt(2.0) * sigma / ratio)
    e = embed(k, GaussianMeasure(mean=(0.4,), cov=(sigma**2,)))
    assert e.provenance == CLOSED_FORM
    assert e.kpp_stderr == 0.0
    o = estimate_kp(k, GaussianMeasure(mean=(0.0,), cov=(2.0 * sigma**2,)), x=[0.0])
    assert e.kpp == pytest.approx(o.value, rel=1e-10)


@pytest.mark.parametrize("ratio", [0.125, 0.5, 2.0])
@pytest.mark.parametrize("name", sorted(STATIONARY_GAUSS))
def test_stationary_cross_terms_match_the_oracle(name, ratio):
    # E K(X, Y) for X ~ P, Y ~ Q is K_D(0), D = N(mu_P - mu_Q, var_P +
    # var_Q), with means up to 20 sigma_Q apart and sigma_D / l = ratio.
    # The tolerance is 1e-10 of the largest cross term, the one with equal
    # means: far apart, the Wendland closed forms keep that absolute
    # accuracy but not a relative one
    sp, sq = 0.6, 0.8
    k = STATIONARY_GAUSS[name](math.sqrt(sp**2 + sq**2) / ratio)
    largest = estimate_kp(k, GaussianMeasure((0.0,), sp**2 + sq**2), x=[0.0]).value
    p = GaussianMeasure(mean=(0.3,), cov=(sp**2,))
    for apart in (0.0, 1.0, 5.0, 20.0):
        q = GaussianMeasure(mean=(0.3 + apart * sq,), cov=(sq**2,))
        d = GaussianMeasure(mean=(-apart * sq,), cov=(sp**2 + sq**2,))
        o = estimate_kp(k, d, x=[0.0])
        assert stationary_cross_kpq(k, p, q) == pytest.approx(
            o.value, rel=1e-10, abs=1e-10 * largest
        ), apart


@pytest.mark.parametrize("name", sorted(STATIONARY_GAUSS))
def test_gaussian_mixture_kpp_sums_difference_measures(name, count_draws):
    # K_PP of sum_j w_j N(m_j, v_j) is sum_jk w_j w_k K_{D_jk}(0), every
    # term in closed form: no draw, no standard error
    k = STATIONARY_GAUSS[name](0.9)
    means, variances, w = (-1.0, 0.5, 9.0), (0.25, 0.5, 0.2), (0.2, 0.5, 0.3)
    comps = [GaussianMeasure(mean=(m,), cov=(v,)) for m, v in zip(means, variances)]
    draws = count_draws(comps[0])
    e = embed(k, MixtureMeasure(components=comps, weights=w))
    assert draws == []
    assert e.provenance == CLOSED_FORM
    assert e.kpp_stderr == 0.0
    expected = sum(
        w[j] * w[i] * embed(
            k, GaussianMeasure(mean=(means[j] - means[i],), cov=(variances[j] + variances[i],))
        ).kp_at([0.0])
        for j in range(3)
        for i in range(3)
    )
    assert e.kpp == pytest.approx(expected, rel=1e-14)


_CROSS_RULES = {
    "gaussian_pair": (
        GaussianKernel((0.9,)), GaussianMeasure((0.2,), 1.0), GaussianMeasure((1.1,), 0.4)
    ),
    "matern_pair": (
        MaternKernel(nu=2.5, lengthscale=0.8), GaussianMeasure((0.2,), 1.0), GaussianMeasure((1.1,), 0.4)
    ),
    "composed_pair": (
        ComposedKernel(GaussianKernel((0.7,)), AffineMap(2.0, 0.5)),
        GaussianMeasure((0.0,), 1.0),
        GaussianMeasure((1.0,), 1.0),
    ),
    "empirical_and_box": (
        MaternKernel(nu=1.5, lengthscale=0.5),
        EmpiricalMeasure(np.array([[-0.7], [0.4], [1.6]]), weights=(0.2, 0.3, 0.5)),
        UniformBoxMeasure((0.0,), (1.0,)),
    ),
    "empirical_pair": (
        GaussianKernel((0.6,)),
        EmpiricalMeasure(np.array([[0.1], [0.9]])),
        EmpiricalMeasure(np.array([[0.3], [-0.4], [2.0]]), weights=(0.5, 0.3, 0.2)),
    ),
}


@pytest.mark.parametrize("rule", sorted(_CROSS_RULES))
def test_cross_kpq_is_symmetric_and_exact(rule):
    kernel, mp, mq = _CROSS_RULES[rule]
    p, q = embed(kernel, mp), embed(kernel, mq)
    value, stderr, provenance = cross_kpq(p, q)
    back = cross_kpq(q, p)
    assert back[1:] == (0.0, CLOSED_FORM)
    assert (stderr, provenance) == (0.0, CLOSED_FORM)
    assert value == pytest.approx(back[0], rel=1e-15, abs=0.0)
    # the double integral of the two-component mixture: its cross term is
    # the rule's, its diagonal terms the parts'
    mix = embed(kernel, MixtureMeasure([mp, mq], [0.5, 0.5]))
    assert mix.provenance == CLOSED_FORM
    assert mix.kpp == 0.25 * p.kpp + 0.25 * q.kpp + 0.5 * value


def test_cross_kpq_has_no_rule_for_these_pairs():
    g1, g2 = GaussianMeasure((0.0,), 1.0), GaussianMeasure((1.5,), 0.5)
    m72 = MaternKernel(nu=3.5)
    assert cross_kpq(embed(m72, g1), embed(m72, g2)) is None
    gauss = GaussianKernel((0.5,))
    boxes = UniformBoxMeasure((0.0,), (1.0,)), UniformBoxMeasure((1.0,), (2.0,))
    assert cross_kpq(embed(gauss, boxes[0]), embed(gauss, boxes[1])) is None


def test_cross_kpq_of_an_empirical_side_carries_the_other_provenance():
    # Matern-7/2 under a Gaussian is an oracle embedding; summed over the
    # atoms it stays one
    k = MaternKernel(nu=3.5)
    atoms = EmpiricalMeasure(np.array([[0.2], [1.0]]))
    value, _, provenance = cross_kpq(embed(k, atoms), embed(k, GaussianMeasure((0.0,), 1.0)))
    assert provenance == NUMERIC_FALLBACK
    assert math.isfinite(value)


def test_stationary_cross_term_needs_a_closed_route():
    p, q = GaussianMeasure((0.0,), 1.0), GaussianMeasure((1.0,), 0.5)
    # not stationary, though it has a centred-Gaussian closed form
    assert stationary_cross_kpq(PowerSeriesKernel({(0,): 1.0, (2,): 0.5}), p, q) is None
    # stationary, with no closed form under a Gaussian
    assert stationary_cross_kpq(MaternKernel(nu=3.5), p, q) is None
    with pytest.raises(InvalidSpecError, match="dimension mismatch"):
        stationary_cross_kpq(GaussianKernel((1.0, 1.0)), p, q)
    with pytest.raises(InvalidSpecError, match="dimension mismatch"):
        stationary_cross_kpq(GaussianKernel((1.0,)), p, GaussianMeasure((0.0, 0.0), 1.0))


def test_wendland_uniform_branch_coverage():
    # kpp branches by lengthscale against box width r = 2
    box = UniformBoxMeasure(lows=(0.0,), highs=(2.0,))
    cases = {
        1.0: 5.0 / 12.0,             # support exactly half the box
        0.9: 0.9 * (6.0 - 0.9) / 12.0,
        3.0: 1.0 - 2.0 / 9.0,
        2.0: 2.0 / 3.0,
    }
    for ell, expected in cases.items():
        e = embed(WendlandKernel(order=0, lengthscale=ell), box)
        assert e.kpp == pytest.approx(expected, rel=1e-14)
        o = estimate_kpp(WendlandKernel(order=0, lengthscale=ell), box, budget=200)
        assert e.kpp == pytest.approx(o.value, abs=1e-12)


def test_wendland_uniform_kp_positions():
    # interior, near-edge, support-spanning and outside evaluation points
    box = UniformBoxMeasure(lows=(0.0,), highs=(2.0,))
    for ell in (0.5, 3.0):
        k = WendlandKernel(order=0, lengthscale=ell)
        e = embed(k, box)
        for x in (1.0, 0.1, 1.95, 0.0, 2.0, -0.4, 2.6):
            o = estimate_kp(k, box, x=[x], budget=300)
            assert e.kp_at([x]) == pytest.approx(o.value, abs=1e-12)


def test_fbm_half_hurst_analytic():
    e = embed(FbmKernel(hurst=0.5), UniformBoxMeasure(lows=(0.0,), highs=(1.0,)))
    assert e.kp_at([0.5]) == pytest.approx(0.375, rel=1e-15)
    assert e.kpp == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_fbm_domain_errors():
    box = UniformBoxMeasure(lows=(0.0,), highs=(1.0,))
    e = embed(FbmKernel(hurst=0.7), box)
    # past the box, but on the kernel's half line
    o = estimate_kp(FbmKernel(hurst=0.7), box, x=[1.5])
    assert e.kp_at([1.5]) == pytest.approx(o.value, abs=max(1e-13, 4 * o.stderr))
    with pytest.raises(InvalidSpecError, match="nonnegative"):
        e.kp_at([-0.5])
    inside = embed(FbmKernel(hurst=0.7, domain=(0.0, 2.0)), box)
    inside.kp_at([1.5])
    with pytest.raises(InvalidSpecError, match="declared domain"):
        inside.kp_at([2.5])
    with pytest.raises(InvalidSpecError):
        embed(FbmKernel(hurst=0.7), UniformBoxMeasure(lows=(-1.0,), highs=(1.0,)))


def test_power_series_gauss_odd_terms_vanish():
    e = embed(PowerSeriesKernel({(1,): 1.0}),
              GaussianMeasure(mean=(0.0,), cov=(1.0,)))
    assert e.provenance == CLOSED_FORM
    assert e.kp_at([0.7]) == 0.0
    assert e.kpp == 0.0


def test_power_series_gauss_moments():
    # E[Y^2] = sigma^2, E[Y^4] = 3 sigma^4
    sigma2 = 0.49
    e = embed(PowerSeriesKernel({(2,): 1.0, (4,): 1.0}),
              GaussianMeasure(mean=(0.0,), cov=(sigma2,)))
    x = 0.8
    expected = x**2 * sigma2 + x**4 * 3.0 * sigma2**2
    assert e.kp_at([x]) == pytest.approx(expected, rel=1e-14)
    assert e.kpp == pytest.approx(sigma2**2 + 9.0 * sigma2**4, rel=1e-14)


def test_power_series_noncentered_gauss_falls_back():
    e = embed(PowerSeriesKernel({(2,): 1.0}),
              GaussianMeasure(mean=(0.5,), cov=(1.0,)))
    assert e.provenance == NUMERIC_FALLBACK


def test_sphere_constants():
    e = embed(SphereSobolevKernel(), SphereUniformMeasure(d=2))
    assert e.kp_at([0.0, 0.0, 1.0]) == 2.0 / 3.0
    assert e.kpp == 2.0 / 3.0
    e = embed(SphereSmoothKernel(), SphereUniformMeasure(d=2))
    expected = 1.0 - math.exp(-48.0)
    assert e.kp_at([0.0, 1.0, 0.0]) == expected
    assert e.kpp == expected


def test_periodic_sobolev_constant_one():
    for r in (1, 2, 3):
        e = embed(PeriodicSobolevKernel(r=r),
                  UniformBoxMeasure(lows=(0.0,), highs=(1.0,)))
        assert e.kp_at([0.37]) == 1.0
        assert e.kpp == 1.0


def test_periodic_sobolev_needs_a_measure_on_the_unit_interval():
    k = PeriodicSobolevKernel(r=1)
    for measure in (
        GaussianMeasure(mean=(0.0,), cov=(1.0,)),
        MixtureMeasure(components=[UniformBoxMeasure(lows=(0.0,), highs=(1.0,)),
                                   GaussianMeasure(mean=(0.5,), cov=(0.01,))],
                       weights=(0.5, 0.5)),
    ):
        with pytest.raises(InvalidSpecError,
                           match=r"live on \[0, 1\]; a gaussian measure puts mass outside it$"):
            embed(k, measure)
    # atoms in [0, 1] keep their exact finite sums
    emp = EmpiricalMeasure(points=[[0.1], [0.7]], weights=(0.25, 0.75))
    e = embed(k, emp)
    assert e.kp_provenance == "closed_form"
    assert e.kp_at([0.3]) == 0.25 * k([0.3], [0.1]) + 0.75 * k([0.3], [0.7])


def test_empirical_exact_sums():
    pts = np.array([[0.1], [0.7], [1.3]])
    w = (0.2, 0.3, 0.5)
    emp = EmpiricalMeasure(points=pts, weights=w)
    k = GaussianKernel(lengthscales=(1.0,))
    e = embed(k, emp)
    assert e.provenance == CLOSED_FORM
    x = [0.4]
    manual_kp = sum(wi * k(x, [p]) for wi, p in zip(w, pts[:, 0]))
    manual_kpp = sum(
        wi * wj * k([pi], [pj])
        for wi, pi in zip(w, pts[:, 0])
        for wj, pj in zip(w, pts[:, 0])
    )
    assert e.kp_at(x) == pytest.approx(manual_kp, rel=1e-15)
    assert e.kpp == pytest.approx(manual_kpp, rel=1e-15)


def test_unsupported_pairs_raise():
    with pytest.raises(UnsupportedPairError):
        embed(FbmKernel(hurst=0.5), GaussianMeasure(mean=(0.0,), cov=(1.0,)))
    with pytest.raises(InvalidSpecError):
        embed(GaussianKernel(lengthscales=(1.0,)),
              UniformBoxMeasure(lows=(0.0, 0.0), highs=(1.0, 1.0)))


# A builder called directly on a pair outside its condition, and what it
# used to return: a wrong closed form, or a bare TypeError or
# AttributeError.
_OUTSIDE = {
    "wendland_gauss_order4": (wendland_gauss_kp, WendlandKernel(order=4, lengthscale=1.0),
                              GaussianMeasure(mean=(0.0,), cov=(1.0,))),
    "matern_gauss_nu3.5": (matern_gauss_kp, MaternKernel(nu=3.5, lengthscale=1.0),
                           GaussianMeasure(mean=(0.0,), cov=(1.0,))),
    "wendland_uniform_order2": (wendland0_uniform, WendlandKernel(order=2, lengthscale=1.0),
                                UniformBoxMeasure(lows=(0.0,), highs=(1.0,))),
    "powerseries_noncentered": (powerseries_gauss, PowerSeriesKernel({(0,): 1.0, (2,): 0.5}),
                                GaussianMeasure(mean=(0.3,), cov=(0.8,))),
    "periodic_subbox": (periodic_sobolev_embed, PeriodicSobolevKernel(r=1),
                        UniformBoxMeasure(lows=(0.2,), highs=(0.6,))),
    "stein_other_measure": (stein_embed, SteinKernel(GaussianKernel(lengthscales=(1.0,)),
                                                     GaussianMeasure(mean=(0.0,), cov=(1.0,))),
                            GaussianMeasure(mean=(3.0,), cov=(1.0,))),
    "gauss_uniform_full_matrix": (gauss_uniform, GaussianKernel(matrix=[[1.0, 0.3], [0.3, 0.8]]),
                                  UniformBoxMeasure(lows=(0.0, 0.0), highs=(1.0, 1.0))),
    # a covariance that couples the kernel's blocks has no product factors
    "product_coupled_blocks": (product_embed,
                               ProductKernel([GaussianKernel(lengthscales=(1.0,)),
                                              MaternKernel(nu=1.5)], [1, 1]),
                               GaussianMeasure(mean=(0.0, 0.0), cov=[[1.0, 0.5], [0.5, 1.0]])),
    **{
        f"{combinator.__name__}_plain_pair": (combinator, GaussianKernel(lengthscales=(1.0,)),
                                              UniformBoxMeasure(lows=(0.0,), highs=(1.0,)))
        for combinator in (sum_embed, mixture_embed, pushforward_embed, matrix_valued_embed)
    },
}


@pytest.mark.parametrize("case", sorted(_OUTSIDE))
def test_builders_refuse_pairs_outside_their_condition(case):
    builder, kernel, measure = _OUTSIDE[case]
    assert not builder.holds(kernel, measure)
    with pytest.raises(KembedError, match=builder.__name__):
        builder(kernel, measure)
    # embed answers the same pair from another rule or the oracle
    embed(kernel, measure, budget=200)


def _answers(rule, kernel, measure) -> bool:
    """True when the rule's condition holds for the pair, or raises the
    typed error that is the pair's answer."""
    try:
        return bool(rule.holds(kernel, measure))
    except KembedError:
        return True


_g = GaussianKernel(lengthscales=(1.0,))
_box = UniformBoxMeasure(lows=(0.0,), highs=(1.0,))
_image = PushforwardMeasure(_box, AffineMap(2.0, 1.0))
_atoms = EmpiricalMeasure(points=np.array([[0.1], [0.4], [0.9]]))
_score = ScoreMeasure(score_fn=lambda Y: -Y)
_normals = MixtureMeasure(
    components=(GaussianMeasure(mean=(0.0,), cov=(1.0,)),
                GaussianMeasure(mean=(1.0,), cov=(0.5,))),
    weights=(0.5, 0.5),
)
_boxes = MixtureMeasure(components=(_box, UniformBoxMeasure(lows=(1.0,), highs=(2.0,))),
                        weights=(0.5, 0.5))
_matrix = MatrixValuedKernel(base=_g, matrix=np.array([[2.0, 0.5], [0.5, 1.0]]))
_sum = SumKernel(children=[_g, MaternKernel(nu=1.5)], weights=[0.5, 0.5])
_composed = ComposedKernel(base=_g, map=AffineMap(2.0, 1.0))
_fbm = FbmKernel(hurst=0.7)
_SCORE_ONLY = "score-only measures pair only with a Stein kernel targeting them"

# Pairs for which two rules of the table both answer, the earlier rule
# first, with the pair_id and provenance, or the error, that embed gave
# before the rules were a table: (earlier, later, kernel, measure, outcome).
_OVERLAPS = {
    "stein>score_only": ("stein_embed", "_score_only", SteinKernel(_g, target=_score), _score,
                         ("stein/unnormalized_score", CLOSED_FORM)),
    "stein>mixture": ("stein_embed", "mixture_embed", SteinKernel(_g, target=_normals), _normals,
                      ("stein/mixture", CLOSED_FORM)),
    "stein>recognized_pushforward": ("stein_embed", "_recognized_pushforward",
                                     SteinKernel(_g, target=_image), _image,
                                     ("stein/pushforward", CLOSED_FORM)),
    "stein>empirical": ("stein_embed", "empirical_embed", SteinKernel(_g, target=_atoms), _atoms,
                        ("stein/empirical", CLOSED_FORM)),
    "score_only>matrix_valued": ("_score_only", "matrix_valued_embed", _matrix, _score,
                                 (UnsupportedPairError, _SCORE_ONLY)),
    "score_only>sum": ("_score_only", "sum_embed", _sum, _score,
                       (UnsupportedPairError, _SCORE_ONLY)),
    "score_only>pushforward": ("_score_only", "pushforward_embed", _composed, _score,
                               (UnsupportedPairError, _SCORE_ONLY)),
    "score_only>fbm": ("_score_only", "fbm_uniform", _fbm, _score,
                       (UnsupportedPairError, _SCORE_ONLY)),
    "score_only>sphere": ("_score_only", "sphere_embed", SphereSobolevKernel(),
                          ScoreMeasure(score_fn=lambda Y: -Y, dimension=3),
                          (UnsupportedPairError, _SCORE_ONLY)),
    "matrix_valued>mixture": ("matrix_valued_embed", "mixture_embed", _matrix, _normals,
                              ("matrix_valued/mixture", CLOSED_FORM)),
    "matrix_valued>recognized_pushforward": ("matrix_valued_embed", "_recognized_pushforward",
                                             _matrix, _image,
                                             ("matrix_valued/gaussian/uniform_box", CLOSED_FORM)),
    "sum>mixture": ("sum_embed", "mixture_embed", _sum, _normals,
                    ("sum/mixture+mixture", CLOSED_FORM)),
    "sum>recognized_pushforward": ("sum_embed", "_recognized_pushforward", _sum, _image,
                                   ("sum/gaussian/uniform_box+matern/uniform_box", CLOSED_FORM)),
    "sum>empirical": ("sum_embed", "empirical_embed", _sum, _atoms,
                      ("sum/gaussian/empirical+matern/empirical", CLOSED_FORM)),
    "mixture>pushforward": ("mixture_embed", "pushforward_embed", _composed, _normals,
                            ("mixture", CLOSED_FORM)),
    "mixture>fbm": ("mixture_embed", "fbm_uniform", _fbm, _boxes, ("mixture", NUMERIC_FALLBACK)),
    "mixture>sphere": ("mixture_embed", "sphere_embed", SphereSobolevKernel(),
                       MixtureMeasure(components=(SphereUniformMeasure(d=2),) * 2,
                                      weights=(0.5, 0.5)),
                       ("mixture", NUMERIC_FALLBACK)),
    "recognized_pushforward>pushforward": (
        "_recognized_pushforward", "pushforward_embed", _composed, _image,
        ("pushforward[affine(scale=[2.0], shift=[1.0])]/gaussian/uniform_box", CLOSED_FORM)),
    "recognized_pushforward>fbm": ("_recognized_pushforward", "fbm_uniform", _fbm, _image,
                                   ("fbm/uniform_box", CLOSED_FORM)),
    "recognized_pushforward>sphere": (
        "_recognized_pushforward", "sphere_embed", SphereSobolevKernel(),
        PushforwardMeasure(UniformBoxMeasure((0.0,) * 3, (1.0,) * 3),
                           AffineMap([2.0] * 3, [0.0] * 3)),
        (UnsupportedPairError, "sphere kernels pair with the uniform measure on S^2 only")),
    "empirical>pushforward": ("empirical_embed", "pushforward_embed", _composed, _atoms,
                              ("composed/empirical", CLOSED_FORM)),
    # the image of atoms is recognized under any map; the pushforward
    # rule answered this pair, through the oracle, before that
    "recognized_atoms>pushforward": (
        "_recognized_pushforward", "pushforward_embed", _composed,
        PushforwardMeasure(_atoms, AffineMap(2.0, 1.0)), ("composed/empirical", CLOSED_FORM)),
    "empirical>fbm": ("empirical_embed", "fbm_uniform", _fbm, _atoms,
                      ("fbm/empirical", CLOSED_FORM)),
    "empirical>sphere": ("empirical_embed", "sphere_embed", SphereSobolevKernel(),
                         EmpiricalMeasure(points=np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8]])),
                         ("sphere_sobolev32/empirical", CLOSED_FORM)),
}


@pytest.mark.parametrize("case", sorted(_OVERLAPS))
def test_the_earlier_of_two_rules_that_hold_answers(case):
    earlier, later, kernel, measure, outcome = _OVERLAPS[case]
    table = dictionary._rules()
    names = [rule.__name__ for rule in table]
    assert names.index(earlier) < names.index(later)
    for name in (earlier, later):
        assert _answers(table[names.index(name)], kernel, measure), name
    if isinstance(outcome[0], type):
        with pytest.raises(outcome[0]) as error:
            embed(kernel, measure, budget=400)
        assert str(error.value) == outcome[1]
    else:
        e = embed(kernel, measure, budget=400)
        assert (e.pair_id, e.provenance) == outcome


def test_every_declared_rule_is_in_the_table_once():
    declared = {
        value
        for module in (dictionary, combinators, stein)
        for value in vars(module).values()
        if callable(getattr(value, "holds", None))
    }
    table = dictionary._rules()
    assert len(set(table)) == len(table)
    # the cross-check reference of matern_uniform_general, never dispatched
    assert set(table) == declared - {matern_uniform_special}


def test_builders_check_dimensions_as_embed_does():
    kernel, box = GaussianKernel(lengthscales=(1.0,)), UniformBoxMeasure(lows=(0.0, 0.0), highs=(1.0, 1.0))
    with pytest.raises(InvalidSpecError) as direct:
        gauss_uniform(kernel, box)
    with pytest.raises(InvalidSpecError) as dispatched:
        embed(kernel, box)
    assert str(direct.value) == str(dispatched.value)


def test_numeric_fallback_pairs():
    e = embed(GaussianKernel(lengthscales=(1.0, 1.0, 1.0)),
              SphereUniformMeasure(d=2), budget=50_000)
    assert e.provenance == NUMERIC_FALLBACK
    assert e.kpp_stderr > 0.0
    o = estimate_kpp(
        GaussianKernel(lengthscales=(1.0, 1.0, 1.0)),
        SphereUniformMeasure(d=2),
        budget=200_000,
        seed=99,
    )
    assert e.kpp == pytest.approx(
        o.value, abs=3.0 * math.hypot(e.kpp_stderr, o.stderr)
    )


def test_pushforward_recognition_affine():
    base = UniformBoxMeasure(lows=(0.0,), highs=(1.0,))
    pf = PushforwardMeasure(base=base, map=AffineMap(2.0, 1.0))
    k = GaussianKernel(lengthscales=(1.0,))
    e = embed(k, pf)
    assert e.provenance == CLOSED_FORM
    direct = embed(k, UniformBoxMeasure(lows=(1.0,), highs=(3.0,)))
    assert e.kpp == direct.kpp
    assert e.kp_at([1.7]) == direct.kp_at([1.7])


def test_pushforward_recognition_icdf():
    base = UniformBoxMeasure(lows=(0.0,), highs=(1.0,))
    pf = PushforwardMeasure(base=base, map=NormalICDFMap())
    k = GaussianKernel(lengthscales=(1.0,))
    e = embed(k, pf)
    assert e.provenance == CLOSED_FORM
    assert e.kpp == 1.0 / math.sqrt(3.0)


def test_pushforward_look_alike_map_goes_to_the_oracle():
    # a map is the normal quantile by type, not by its name
    identity = Map(forward=lambda x: x, inverse=lambda z: z, name="normal_icdf")
    base = UniformBoxMeasure(lows=(0.0,), highs=(1.0,))
    k = GaussianKernel(lengthscales=(1.0,))
    e = embed(k, PushforwardMeasure(base=base, map=identity), budget=20_000, seed=1)
    assert e.provenance == NUMERIC_FALLBACK
    assert e.kpp == pytest.approx(embed(k, base).kpp, abs=4.0 * e.kpp_stderr)


# at the parent of the rule for atoms, this pair was the oracle's
# numeric_fallback K_PP 0.4637492458017305 with stderr 0.07380878104301339
# (budget 300, seed 0)
_FOUR_ATOMS = np.array([[0.1], [0.4], [0.9], [1.5]])


def test_pushforward_of_atoms_is_the_mapped_atoms():
    k = GaussianKernel(lengthscales=(0.8,))
    e = embed(k, PushforwardMeasure(EmpiricalMeasure(_FOUR_ATOMS), AffineMap(2.0, 0.0)), budget=300)
    direct = embed(k, EmpiricalMeasure(2.0 * _FOUR_ATOMS))
    assert (e.provenance, e.kpp_stderr) == (CLOSED_FORM, 0.0)
    assert e.kpp == direct.kpp
    assert e.kp_at([0.3]) == direct.kp_at([0.3])
    assert abs(e.kpp - 0.4637492458017305) <= 0.07380878104301339


def test_pushforward_of_atoms_under_any_map_keeps_the_weights():
    atoms = EmpiricalMeasure(np.array([[0.2], [0.5], [0.9]]), weights=(0.2, 0.3, 0.5))
    k = MaternKernel(nu=1.5)
    for m in (NormalICDFMap(), Map(forward=np.sqrt, inverse=np.square, name="sqrt")):
        e = embed(k, PushforwardMeasure(atoms, m))
        direct = embed(k, EmpiricalMeasure(m(atoms.points), weights=atoms.weights))
        assert e.provenance == CLOSED_FORM
        assert (e.kpp, e.kp_at([0.4])) == (direct.kpp, direct.kp_at([0.4]))
    blowup = Map(forward=lambda x: np.where(x > 0.5, np.inf, x), inverse=lambda z: z, name="blowup")
    with pytest.raises(InvalidSpecError, match="^points must be finite$"):
        embed(k, PushforwardMeasure(atoms, blowup))


def test_composed_cross_term_reads_the_atoms_where_they_are():
    # the other embedding's K_P is in the composed kernel's coordinates,
    # so it is summed at the atoms, not at their image under the map
    ck = ComposedKernel(MaternKernel(nu=1.5), NormalICDFMap())
    p = embed(ck, UniformBoxMeasure(lows=(0.0,), highs=(1.0,)))
    atoms = EmpiricalMeasure(np.array([[0.2], [0.7]]), weights=(0.25, 0.75))
    value, stderr, provenance = cross_kpq(p, embed(ck, atoms))
    assert value == float(np.dot(atoms.weights, p.kp_rows(atoms.points)))
    assert (stderr, provenance) == (0.0, CLOSED_FORM)


def test_composed_kernel_dispatch():
    # K(phi(x), phi(y)) against P equals K against the image of P
    base = UniformBoxMeasure(lows=(0.0,), highs=(1.0,))
    ck = ComposedKernel(base=GaussianKernel(lengthscales=(1.0,)),
                        map=NormalICDFMap())
    e = embed(ck, base)
    assert e.provenance == CLOSED_FORM
    assert e.kpp == 1.0 / math.sqrt(3.0)
    # kp is evaluated in the original coordinates
    assert e.kp_at([0.5]) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)


def test_composed_kernel_under_empirical_measure_is_the_finite_sum():
    ck = ComposedKernel(base=GaussianKernel(lengthscales=(1.0,)), map=AffineMap(2.0, 0.5))
    pts = np.array([[0.1], [0.4], [0.9]])
    e = embed(ck, EmpiricalMeasure(points=pts), budget=2_000, seed=1)
    assert e.provenance == CLOSED_FORM
    want = np.mean([[ck([p], [q]) for q in pts[:, 0]] for p in pts[:, 0]])
    assert e.kpp == pytest.approx(want, rel=1e-14)
    assert e.kp_at([0.3]) == pytest.approx(np.mean([ck([0.3], [q]) for q in pts[:, 0]]), rel=1e-14)


def test_sum_kernel_dispatch():
    g = GaussianKernel(lengthscales=(1.0,))
    m = MaternKernel(nu=0.5, lengthscale=1.0)
    box = UniformBoxMeasure(lows=(0.0,), highs=(1.0,))
    e = embed(SumKernel([g, m], [0.25, 0.75]), box)
    assert e.provenance == CLOSED_FORM
    eg, em = embed(g, box), embed(m, box)
    assert e.kpp == pytest.approx(0.25 * eg.kpp + 0.75 * em.kpp, rel=1e-14)
    assert e.kp_at([0.4]) == pytest.approx(
        0.25 * eg.kp_at([0.4]) + 0.75 * em.kp_at([0.4]), rel=1e-14
    )


def test_mixture_measure_dispatch():
    k = GaussianKernel(lengthscales=(1.0,))
    mix = MixtureMeasure(
        components=[
            GaussianMeasure(mean=(0.0,), cov=(1.0,)),
            GaussianMeasure(mean=(2.0,), cov=(0.25,)),
        ],
        weights=(0.6, 0.4),
    )
    e = embed(k, mix)
    assert e.provenance == CLOSED_FORM
    e0 = embed(k, mix.components[0])
    e1 = embed(k, mix.components[1])
    x = [0.9]
    assert e.kp_at(x) == pytest.approx(
        0.6 * e0.kp_at(x) + 0.4 * e1.kp_at(x), rel=1e-14
    )


# Closed-form routes outside FROZEN: (kernel, measure).
_CARRIED = {
    **{
        f"matern_gauss_nu{nu}": (MaternKernel(nu=nu, lengthscale=0.9),
                                 GaussianMeasure(mean=(0.3,), cov=(0.7,)))
        for nu in (0.5, 1.5, 2.5)
    },
    **{
        f"wendland_gauss_order{order}": (WendlandKernel(order=order, lengthscale=1.2),
                                         GaussianMeasure(mean=(0.5,), cov=(0.3,)))
        for order in (0, 2)
    },
    "sphere_sobolev32": (SphereSobolevKernel(), SphereUniformMeasure(d=2)),
    "sphere_smooth": (SphereSmoothKernel(), SphereUniformMeasure(d=2)),
    "periodic_box": (PeriodicSobolevKernel(r=2), UniformBoxMeasure(lows=(0.0,), highs=(1.0,))),
    # the measure equals the target but is a separate object
    "stein_target": (SteinKernel(GaussianKernel(lengthscales=(1.0,)),
                                 GaussianMeasure(mean=(0.0,), cov=(1.0,)), c=1.0),
                     GaussianMeasure(mean=(0.0,), cov=(1.0,))),
    "empirical": (GaussianKernel(lengthscales=(0.8,)),
                  EmpiricalMeasure(points=np.array([[0.1], [0.7]]))),
}


@pytest.mark.parametrize("route", sorted(_CARRIED))
def test_embeddings_carry_the_requested_pair(route):
    kernel, measure = _CARRIED[route]
    e = embed(kernel, measure, budget=20)
    assert e.kp_provenance == CLOSED_FORM
    assert e.kernel is kernel and e.measure is measure


def test_embedding_metadata():
    e = embed(GaussianKernel(lengthscales=(1.0,)),
              UniformBoxMeasure(lows=(0.0,), highs=(1.0,)))
    assert e.pair_id == "gaussian/uniform_box"
    assert e.kp_provenance == CLOSED_FORM
    assert e.kpp_provenance == CLOSED_FORM
    assert e.kpp_stderr == 0.0


_BOX1 = UniformBoxMeasure(lows=(-0.5,), highs=(1.5,))
_GAUSS1 = GaussianMeasure(mean=(0.3,), cov=(0.7,))
_MATERN = MaternKernel(nu=2.5, lengthscale=0.6)
_TERMS = {(0, 0): 1.0, (1, 0): 0.5, (2, 1): 0.25, (0, 3): 0.1}


def _in(lows, highs):
    return lambda rng, n: rng.uniform(lows, highs, (n, len(lows)))


def _on_sphere(rng, n):
    z = rng.normal(size=(n, 3))
    return z / np.linalg.norm(z, axis=1)[:, None]


# Every closed-form arm of the dispatch, the special Matern formulas and
# each combinator route: (embedding, points, a row outside its domain).
# The 1-d box routes draw points past both edges of their box.
_ROWS = {
    "gauss_uniform": (lambda: embed(GaussianKernel(lengthscales=(0.7, 1.4)),
                                    UniformBoxMeasure(lows=(0.0, -1.0), highs=(2.0, 1.0))),
                      _in((-1.0, -2.0), (3.0, 2.0)), [math.nan, 0.0]),
    "gauss_gauss_diagonal": (lambda: embed(GaussianKernel(lengthscales=(0.7, 1.4)),
                                           GaussianMeasure(mean=(0.1, -0.2), cov=(1.0, 0.5))),
                             _in((-6.0, -6.0), (6.0, 6.0)), [0.0, math.inf]),
    "gauss_gauss_full": (lambda: embed(GaussianKernel(matrix=[[1.0, 0.3], [0.3, 0.8]]),
                                       GaussianMeasure(mean=(0.1, -0.2),
                                                       cov=[[1.0, -0.4], [-0.4, 0.9]])),
                         _in((-6.0, -6.0), (6.0, 6.0)), [math.nan, 0.0]),
    **{
        f"matern_uniform_nu{nu}": (lambda nu=nu: embed(MaternKernel(nu=nu, lengthscale=0.4), _BOX1),
                                   _in((-1.5,), (2.5,)), [math.nan])
        for nu in (0.5, 1.5, 2.5, 3.5)
    },
    **{
        f"matern_uniform_special_nu{nu}": (
            lambda nu=nu: matern_uniform_special(MaternKernel(nu=nu, lengthscale=0.4), _BOX1),
            _in((-1.5,), (2.5,)), [math.nan])
        for nu in (0.5, 1.5, 2.5, 3.5)
    },
    # past _STABLE_EXPONENT on both sides of the mean
    **{
        f"matern_gauss_nu{nu}": (lambda nu=nu: embed(MaternKernel(nu=nu, lengthscale=0.5), _GAUSS1),
                                 _in((-40.0,), (40.0,)), [math.nan])
        for nu in (0.5, 1.5, 2.5)
    },
    "wendland0_uniform": (lambda: embed(WendlandKernel(order=0, lengthscale=0.7), _BOX1),
                          _in((-1.5,), (2.5,)), [math.nan]),
    **{
        f"wendland_gauss_order{order}": (
            lambda order=order: embed(WendlandKernel(order=order, lengthscale=1.2), _GAUSS1),
            _in((-5.0,), (5.0,)), [math.inf])
        for order in (0, 2)
    },
    "fbm_uniform": (lambda: embed(FbmKernel(hurst=0.7), UniformBoxMeasure(lows=(0.5,), highs=(2.0,))),
                    _in((0.0,), (3.0,)), [-0.25]),
    "power_series_uniform": (lambda: embed(PowerSeriesKernel(terms=_TERMS),
                                           UniformBoxMeasure(lows=(-1.0, 0.0), highs=(1.0, 2.0))),
                             _in((-2.0, -2.0), (2.0, 2.0)), [0.0, math.nan]),
    "power_series_gauss": (lambda: embed(PowerSeriesKernel(terms=_TERMS),
                                         GaussianMeasure(mean=(0.0, 0.0), cov=(0.5, 1.5))),
                           _in((-2.0, -2.0), (2.0, 2.0)), [math.nan, 0.0]),
    "sphere_sobolev32": (lambda: embed(SphereSobolevKernel(), SphereUniformMeasure(d=2)),
                         _on_sphere, [0.0, 0.6, 0.9]),
    "sphere_smooth": (lambda: embed(SphereSmoothKernel(), SphereUniformMeasure(d=2)),
                      _on_sphere, [1.0, 0.1, 0.0]),
    "periodic_sobolev": (lambda: embed(PeriodicSobolevKernel(r=2),
                                       UniformBoxMeasure(lows=(0.0,), highs=(1.0,))),
                         _in((0.0,), (1.0,)), [1.5]),
    "sum": (lambda: embed(SumKernel([GaussianKernel(lengthscales=(0.8,)), _MATERN], [0.4, 0.6]),
                          _BOX1),
            _in((-1.5,), (2.5,)), [math.nan]),
    "mixture": (lambda: embed(_MATERN, MixtureMeasure(
                    components=[GaussianMeasure(mean=(-1.0,), cov=(0.5,)), _GAUSS1],
                    weights=(0.3, 0.7)), budget=200),
                _in((-30.0,), (30.0,)), [math.nan]),
    "product": (lambda: embed(ProductKernel([GaussianKernel(lengthscales=(0.6,)), _MATERN], [1, 1]),
                              UniformBoxMeasure(lows=(0.0, -0.5), highs=(1.0, 1.5))),
                _in((-1.0, -1.5), (2.0, 2.5)), [0.5, math.nan]),
    "pushforward": (lambda: embed(ComposedKernel(base=_MATERN, map=AffineMap(2.0, -1.0)),
                                  UniformBoxMeasure(lows=(0.0,), highs=(1.0,))),
                    _in((-1.0,), (2.0,)), [math.nan]),
    "matrix_valued": (lambda: embed(MatrixValuedKernel(base=_MATERN,
                                                       matrix=[[2.0, 0.3], [0.3, 1.0]]), _BOX1),
                      _in((-1.5,), (2.5,)), [math.nan]),
    "stein": (lambda: embed(SteinKernel(GaussianKernel(lengthscales=(1.0,)), _GAUSS1, c=0.5),
                            _GAUSS1),
              _in((-4.0,), (4.0,)), [math.nan]),
    "empirical": (lambda: embed(FbmKernel(hurst=0.3),
                                EmpiricalMeasure(points=np.array([[0.2], [0.9], [1.4]]))),
                  _in((0.0,), (2.0,)), [-0.5]),
    "numeric_fallback": (lambda: embed(_MATERN, UniformBoxMeasure(lows=(0.0, 0.0), highs=(1.0, 1.0)),
                                       budget=2_000, seed=4),
                         _in((0.0, 0.0), (1.0, 1.0)), [0.5, math.nan]),
}


@pytest.mark.parametrize("route", sorted(_ROWS))
def test_kp_rows_has_the_bits_of_kp_at(route):
    make, points, bad = _ROWS[route]
    e = make()
    X = points(np.random.default_rng(17), 60)
    rows = e.kp_rows(X)
    assert isinstance(rows, np.ndarray) and rows.shape[0] == len(X)
    assert rows.tobytes() == np.array([e.kp_at(x) for x in X]).tobytes()
    empty = e.kp_rows(np.empty((0, X.shape[1])))
    assert empty.shape == (0,) + rows.shape[1:]
    # a row outside the domain raises what kp_at raises at that row
    X[3] = bad
    with pytest.raises(InvalidSpecError) as at_row:
        e.kp_at(X[3])
    with pytest.raises(InvalidSpecError) as in_rows:
        e.kp_rows(X)
    assert str(in_rows.value) == str(at_row.value)


# 1-d box arms whose K_P is defined on the whole line: (kernel, builder).
# The box sits 5 lengthscales above 0, the end of fbm's half line (its
# "lengthscale" is 0.4).
_BOX_ARMS = {
    **{f"matern_nu{nu}": (MaternKernel(nu=nu, lengthscale=0.4), embed)
       for nu in (0.5, 1.5, 2.5, 3.5)},
    **{f"matern_special_nu{nu}": (MaternKernel(nu=nu, lengthscale=0.4), matern_uniform_special)
       for nu in (0.5, 1.5, 2.5, 3.5)},
    **{f"wendland0_l{ell}": (WendlandKernel(order=0, lengthscale=ell), embed)
       for ell in (0.3, 0.9, 2.5)},
    **{f"fbm_h{h}": (FbmKernel(hurst=h), embed) for h in (0.2, 0.5, 0.8)},
}


@pytest.mark.parametrize("arm", sorted(_BOX_ARMS))
def test_box_embeddings_outside_the_box_match_the_oracle(arm):
    kernel, build = _BOX_ARMS[arm]
    ell = getattr(kernel, "lengthscale", 0.4)
    box = UniformBoxMeasure(lows=(2.0,), highs=(3.5,))
    e = build(kernel, box)
    for u in (0.0, 0.25, 1.0, 2.0, 3.5, 5.0):
        for x in (2.0 - u * ell, 3.5 + u * ell):
            o = estimate_kp(kernel, box, x=[x])
            assert abs(e.kp_at([x]) - o.value) <= max(1e-13, 4 * o.stderr), (u, x)


def _in_box_reference(kernel, a, b, x, special):
    """K_P inside [a, b] by the in-box formulas the whole-line forms
    replaced, in their order of operations."""
    r = b - a
    if isinstance(kernel, FbmKernel):
        h = 2.0 * kernel.hurst + 1.0
        return (
            b**h - a**h - pow_each(b - x, h) - pow_each(x - a, h)
        ) / (2.0 * h * r) + pow_each(x, h - 1.0) / 2.0
    n = kernel.n
    co = MaternUniformCoefficients(n, kernel.lengthscale, a, b)
    if not special:
        lead = math.factorial(n) / math.factorial(2 * n)
        return (co.alpha / r) * lead * (
            2.0 * co.c[0] - co.q_poly((x - a) / co.alpha) - co.q_poly((b - x) / co.alpha)
        )
    u, v = (a - x) / co.alpha, (x - b) / co.alpha
    eu, ev = exp_each(u), exp_each(v)
    if n == 0:
        return (2.0 - eu - ev) / co.rho
    if n == 1:
        return (4.0 - ev * (2.0 - v) - eu * (2.0 - u)) / co.rho
    if n == 2:
        return (16.0 - ev * (8.0 - 5.0 * v + v * v) - eu * (8.0 - 5.0 * u + u * u)) / (3.0 * co.rho)
    return (
        96.0
        - ev * (48.0 - 33.0 * v + 9.0 * v * v - pow_each(v, 3))
        - eu * (48.0 - 33.0 * u + 9.0 * u * u - pow_each(u, 3))
    ) / (15.0 * co.rho)


@pytest.mark.parametrize("family", ["matern", "matern_special", "fbm"])
def test_box_embeddings_keep_their_in_box_bits(family):
    # the edges, their neighbours inside the box and random interior
    # points, over boxes and lengthscales spanning three decades
    rng = np.random.default_rng(23)
    for trial in range(100):
        a = rng.uniform(0.0, 3.0) if family == "fbm" else rng.uniform(-3.0, 3.0)
        b = a + 10.0 ** rng.uniform(-1.0, 1.0)
        x = np.concatenate([[a, b, np.nextafter(a, b), np.nextafter(b, a)], rng.uniform(a, b, 60)])
        if family == "fbm":
            kernel = FbmKernel(hurst=rng.uniform(0.05, 0.95))
        else:
            kernel = MaternKernel(nu=trial % 4 + 0.5, lengthscale=(b - a) / 10.0 ** rng.uniform(-1.0, 1.5))
        box = UniformBoxMeasure(lows=(a,), highs=(b,))
        special = family == "matern_special"
        e = matern_uniform_special(kernel, box) if special else embed(kernel, box)
        assert e.kp_rows(x[:, None]).tobytes() == _in_box_reference(kernel, a, b, x, special).tobytes()


def test_box_embeddings_match_40_digit_quadrature():
    # Wendland-0 and Matern K_P on random boxes, inside and up to 5
    # lengthscales outside, against mpmath at 40 digits: within 2e-14
    # relative, or 1e-15 of the box's central value where a value
    # outside is tiny; Wendland-0 within 1e-15 relative in the box
    mp = pytest.importorskip("mpmath")

    def quad_kp(phi, breaks, a, b, x):
        """(1/r) times the integral of phi(x - y) over [a, b], split
        where phi kinks."""
        a, b, x = mp.mpf(a), mp.mpf(b), mp.mpf(x)
        nodes = sorted({a, b} | {x + c for c in breaks if a < x + c < b})
        return float(mp.quad(lambda y: phi(x - y), nodes) / (b - a))

    rng = np.random.default_rng(5)
    with mp.workdps(40):
        for trial in range(16):
            a = rng.uniform(-3.0, 3.0)
            b = a + 10.0 ** rng.uniform(-1.0, 1.0)
            ell = (b - a) / 10.0 ** rng.uniform(-1.0, 1.5)
            x = np.concatenate([rng.uniform(a, b, 3), a - rng.uniform(0, 5, 2) * ell,
                                b + rng.uniform(0, 5, 2) * ell])
            n = trial % 4

            def matern(t):
                z = mp.sqrt(2 * n + 1) * abs(t) / ell
                return (1, 1 + z, 1 + z + z * z / 3, 1 + z + 2 * z * z / 5 + z**3 / 15)[n] * mp.exp(-z)

            def wendland(t):
                return max(mp.mpf(0), 1 - abs(t) / ell)

            for kernel, phi, breaks in (
                (MaternKernel(nu=n + 0.5, lengthscale=ell), matern, (0.0,)),
                (WendlandKernel(order=0, lengthscale=ell), wendland, (-ell, 0.0, ell)),
            ):
                values = embed(kernel, UniformBoxMeasure(lows=(a,), highs=(b,))).kp_rows(x[:, None])
                centre = quad_kp(phi, breaks, a, b, 0.5 * (a + b))
                for xi, v in zip(x, values):
                    want = quad_kp(phi, breaks, a, b, xi)
                    assert abs(v - want) <= 2e-14 * abs(want) + 1e-15 * centre, (kernel, a, b, xi)
                    if isinstance(kernel, WendlandKernel) and a <= xi <= b:
                        assert abs(v - want) <= 1e-15 * want, (a, b, ell, xi)


def test_gaussian_box_kp_keeps_relative_accuracy_outside_the_box():
    # outside the box both erf terms near the same +-1; the erfc
    # difference on the far side keeps 1e-12 relative from 0 to 30
    # lengthscales out (the erf difference was off by 1.8e-2 at 9 and
    # gave 0 at 12). Against mpmath at 40 digits, the integrand scaled by
    # its value at the box's nearer end so that quad's absolute
    # tolerance is a relative one. A 2-d point with one coordinate inside
    # and one outside checks the mask per coordinate.
    mp = pytest.importorskip("mpmath")

    def true_factor(x, ell):
        X, l = mp.mpf(x), mp.mpf(ell)
        near = min(max(X, mp.mpf(0)), mp.mpf(1))
        scaled = lambda y: mp.exp(-((X - y) ** 2 - (X - near) ** 2) / (2 * l * l))
        return mp.quad(scaled, [0, near, 1]) * mp.exp(-((X - near) ** 2) / (2 * l * l))

    with mp.workdps(40):
        for ell in (0.25, 1.0, 4.0):
            e1 = embed(GaussianKernel(lengthscales=(ell,)), UniformBoxMeasure((0.0,), (1.0,)))
            e2 = embed(GaussianKernel(lengthscales=(ell, ell)), UniformBoxMeasure((0.0, 0.0), (1.0, 1.0)))
            inside = true_factor(0.3, ell)
            for dist in (0.0, 0.5, 1.0, 3.0, 6.0, 9.0, 12.0, 20.0, 30.0):
                for x in (1.0 + dist * ell, -dist * ell):
                    want = true_factor(x, ell)
                    got = e1.kp_at([x])
                    assert got > 0.0 and abs(got - want) <= 1e-12 * want, (ell, x)
                    got = e2.kp_at([0.3, x])
                    assert got > 0.0 and abs(got - want * inside) <= 1e-12 * want * inside, (ell, x)
