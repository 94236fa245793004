"""Closed-form embeddings: frozen reference values, oracle agreement,
stability limits, branch coverage, and dispatch behavior."""

import math
import random

import numpy as np
import pytest

from kembed.dictionary import (
    CLOSED_FORM,
    NUMERIC_FALLBACK,
    embed,
    gauss_cross_kpq,
    matern_uniform_special,
)
from kembed.errors import InvalidSpecError, UnsupportedPairError
from kembed.kernels import (
    AffineMap,
    ComposedKernel,
    FbmKernel,
    GaussianKernel,
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
    SphereUniformMeasure,
    UniformBoxMeasure,
)
from kembed.oracle import estimate_kp, estimate_kpp
from kembed.stein import SteinKernel

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
    rng = random.Random(hash(name) & 0xFFFF)
    for _ in range(5):
        if measure.family == "uniform_box":
            x = [rng.uniform(lo - 0.3, hi + 0.3)
                 for lo, hi in zip(measure.lows, measure.highs)]
        else:
            x = [m + 2.0 * (rng.random() - 0.5) * 3.0 for m in measure.mean]
        if kernel.family in ("fbm", "matern", "wendland"):
            # these embeddings are defined for x inside the box
            x = [min(max(v, measure.lows[0]), measure.highs[0]) for v in x]
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
    assert e.kpp_provenance == NUMERIC_FALLBACK
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
    ab = gauss_cross_kpq(kernel, p, q)
    ba = gauss_cross_kpq(kernel, q, p)
    assert ab == pytest.approx(ba, rel=1e-15)
    assert ab == pytest.approx(
        math.sqrt(1.0 / 2.25) * math.exp(-0.5 / 2.25), rel=1e-14
    )
    # P = Q reduces to the double integral
    e = embed(GaussianKernel(lengthscales=(1.0,)),
              GaussianMeasure(mean=(0.0,), cov=(1.0,)))
    same = gauss_cross_kpq(kernel, p, p)
    assert same == pytest.approx(e.kpp, rel=1e-14)


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
    # interior, near-edge, and support-spanning evaluation points
    box = UniformBoxMeasure(lows=(0.0,), highs=(2.0,))
    for ell in (0.5, 3.0):
        k = WendlandKernel(order=0, lengthscale=ell)
        e = embed(k, box)
        for x in (1.0, 0.1, 1.95, 0.0, 2.0):
            o = estimate_kp(k, box, x=[x], budget=300)
            assert e.kp_at([x]) == pytest.approx(o.value, abs=1e-12)
        with pytest.raises(InvalidSpecError):
            e.kp_at([-0.4])


def test_fbm_half_hurst_analytic():
    e = embed(FbmKernel(hurst=0.5), UniformBoxMeasure(lows=(0.0,), highs=(1.0,)))
    assert e.kp_at([0.5]) == pytest.approx(0.375, rel=1e-15)
    assert e.kpp == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_fbm_domain_errors():
    e = embed(FbmKernel(hurst=0.7), UniformBoxMeasure(lows=(0.0,), highs=(1.0,)))
    with pytest.raises(InvalidSpecError):
        e.kp_at([1.5])
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
                                   _in((-0.5,), (1.5,)), [1.75])
        for nu in (0.5, 1.5, 2.5, 3.5)
    },
    **{
        f"matern_uniform_special_nu{nu}": (
            lambda nu=nu: matern_uniform_special(MaternKernel(nu=nu, lengthscale=0.4), _BOX1),
            _in((-0.5,), (1.5,)), [-0.75])
        for nu in (0.5, 1.5, 2.5, 3.5)
    },
    # past _STABLE_EXPONENT on both sides of the mean
    **{
        f"matern_gauss_nu{nu}": (lambda nu=nu: embed(MaternKernel(nu=nu, lengthscale=0.5), _GAUSS1),
                                 _in((-40.0,), (40.0,)), [math.nan])
        for nu in (0.5, 1.5, 2.5)
    },
    "wendland0_uniform": (lambda: embed(WendlandKernel(order=0, lengthscale=0.7), _BOX1),
                          _in((-0.5,), (1.5,)), [2.0]),
    **{
        f"wendland_gauss_order{order}": (
            lambda order=order: embed(WendlandKernel(order=order, lengthscale=1.2), _GAUSS1),
            _in((-5.0,), (5.0,)), [math.inf])
        for order in (0, 2)
    },
    "fbm_uniform": (lambda: embed(FbmKernel(hurst=0.7), UniformBoxMeasure(lows=(0.5,), highs=(2.0,))),
                    _in((0.5,), (2.0,)), [0.25]),
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
            _in((-0.5,), (1.5,)), [-1.0]),
    "mixture": (lambda: embed(_MATERN, MixtureMeasure(
                    components=[GaussianMeasure(mean=(-1.0,), cov=(0.5,)), _GAUSS1],
                    weights=(0.3, 0.7)), budget=200),
                _in((-30.0,), (30.0,)), [math.nan]),
    "product": (lambda: embed(ProductKernel([GaussianKernel(lengthscales=(0.6,)), _MATERN], [1, 1]),
                              UniformBoxMeasure(lows=(0.0, -0.5), highs=(1.0, 1.5))),
                _in((0.0, -0.5), (1.0, 1.5)), [0.5, 1.6]),
    "pushforward": (lambda: embed(ComposedKernel(base=_MATERN, map=AffineMap(2.0, -1.0)),
                                  UniformBoxMeasure(lows=(0.0,), highs=(1.0,))),
                    _in((0.0,), (1.0,)), [1.5]),
    "matrix_valued": (lambda: embed(MatrixValuedKernel(base=_MATERN,
                                                       matrix=[[2.0, 0.3], [0.3, 1.0]]), _BOX1),
                      _in((-0.5,), (1.5,)), [1.6]),
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
