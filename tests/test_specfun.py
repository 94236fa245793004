"""Special function accuracy against high-precision reference values
and against independent evaluation routes."""

import hashlib
import math
import random

import numpy as np
import pytest

from kembed import specfun
from kembed.specfun import (
    _erf_small,
    _erfcx_large,
    _erfcx_mid,
    bernoulli_poly,
    double_factorial,
    erf,
    erfc,
    erfcx,
    log_normal_cdf,
    lower_incomplete_gamma_int,
    normal_cdf,
    normal_icdf,
    normal_pdf,
)
from kembed.oracle import gauss_legendre_nodes

# 40-digit reference values, rounded to double precision.
ERF_REFERENCE = {
    0.1: 0.1124629160182848922,
    0.46875: 0.4926134732179379915,
    0.5: 0.5204998778130465376,
    1.0: 0.8427007929497148693,
    2.0: 0.9953222650189527341,
    3.5: 0.9999992569016276585,
    5.0: 0.9999999999984625402,
}

ERFCX_REFERENCE = {
    0.3: 0.7345993345676551422,
    1.0: 0.4275835761558070044,
    10.0: 0.05614099274382258585,
}


def test_erf_reference_values():
    for x, expected in ERF_REFERENCE.items():
        assert erf(x) == pytest.approx(expected, rel=1e-15, abs=1e-16)
        assert erf(-x) == pytest.approx(-expected, rel=1e-15, abs=1e-16)


def test_erf_matches_stdlib():
    rng = random.Random(1)
    for _ in range(500):
        x = rng.uniform(-6.0, 6.0)
        assert erf(x) == pytest.approx(math.erf(x), rel=2e-15, abs=1e-300)


def test_erfc_matches_stdlib_in_the_tail():
    rng = random.Random(2)
    for _ in range(300):
        x = rng.uniform(0.0, 25.0)
        ours = erfc(x)
        ref = math.erfc(x)
        assert ours == pytest.approx(ref, rel=5e-14)


def test_erf_basic_identities():
    assert erf(0.0) == 0.0
    assert erfc(0.0) == 1.0
    assert erf(40.0) == 1.0
    rng = random.Random(3)
    for _ in range(200):
        x = rng.uniform(-3.0, 3.0)
        assert erf(x) + erfc(x) == pytest.approx(1.0, abs=2e-16)


def test_erfcx_reference_values():
    for x, expected in ERFCX_REFERENCE.items():
        assert erfcx(x) == pytest.approx(expected, rel=1e-14)


def test_erfcx_consistent_with_erfc():
    rng = random.Random(4)
    for _ in range(200):
        x = rng.uniform(0.0, 5.0)
        assert erfcx(x) == pytest.approx(math.exp(x * x) * erfc(x), rel=5e-13)


def test_erfcx_large_argument_asymptotic():
    # erfcx(x) ~ 1/(x sqrt(pi)) for large x
    for x in (50.0, 500.0, 5e4):
        approx = 1.0 / (x * math.sqrt(math.pi))
        assert erfcx(x) == pytest.approx(approx, rel=1e-3)


def test_normal_cdf_tails():
    assert normal_cdf(-10.0) == pytest.approx(7.619853024160526065e-24, rel=1e-13)
    assert normal_cdf(-30.0) == pytest.approx(4.906713927148187059e-198, rel=1e-12)
    assert normal_cdf(0.0) == 0.5
    assert normal_cdf(10.0) == pytest.approx(1.0, abs=1e-15)


def test_log_normal_cdf_deep_tail():
    assert log_normal_cdf(-10.0) == pytest.approx(-53.23128515051247057, rel=1e-14)
    assert log_normal_cdf(-30.0) == pytest.approx(-454.3212439563431971, rel=1e-14)
    rng = random.Random(5)
    for _ in range(100):
        x = rng.uniform(-8.0, 8.0)
        assert log_normal_cdf(x) == pytest.approx(math.log(normal_cdf(x)), rel=1e-12)


def test_normal_icdf_reference_and_roundtrip():
    assert normal_icdf(0.975) == pytest.approx(1.959963984540054235, rel=1e-14)
    assert normal_icdf(0.5) == pytest.approx(0.0, abs=1e-15)
    rng = random.Random(6)
    for _ in range(200):
        p = rng.uniform(1e-12, 1.0 - 1e-12)
        x = normal_icdf(p)
        assert normal_cdf(x) == pytest.approx(p, rel=1e-11, abs=1e-13)
    for p in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            normal_icdf(p)


def test_lower_incomplete_gamma_reference():
    # gamma(4, 2.5) from a 40-digit evaluation
    assert lower_incomplete_gamma_int(3, 2.5) == pytest.approx(
        1.454543201201604217, rel=1e-14
    )
    assert lower_incomplete_gamma_int(0, 1.0) == pytest.approx(
        1.0 - math.exp(-1.0), rel=1e-15
    )


def test_lower_incomplete_gamma_against_quadrature():
    # gamma(m+1, x) = integral of t^m e^{-t} over [0, x]
    nodes, weights = gauss_legendre_nodes(120)
    rng = random.Random(7)
    for _ in range(40):
        m = rng.randrange(0, 8)
        x = rng.uniform(0.05, 12.0)
        t = 0.5 * x * (nodes + 1.0)
        quad = 0.5 * x * sum(
            w * tt**m * math.exp(-tt) for w, tt in zip(weights, t)
        )
        assert lower_incomplete_gamma_int(m, x) == pytest.approx(quad, rel=1e-12)


def test_lower_incomplete_gamma_small_x_stability():
    # leading order gamma(m+1, x) ~ x^{m+1}/(m+1) as x -> 0; the naive
    # formula cancels catastrophically there
    for m in range(6):
        for x in (1e-8, 1e-6, 1e-4):
            lead = x ** (m + 1) / (m + 1)
            value = lower_incomplete_gamma_int(m, x)
            assert value == pytest.approx(lead, rel=1e-3)
            assert value > 0.0


def test_lower_incomplete_gamma_monotone_saturates():
    for m in range(5):
        prev = 0.0
        for x in (0.5, 1.0, 2.0, 5.0, 20.0, 80.0):
            v = lower_incomplete_gamma_int(m, x)
            assert v >= prev
            prev = v
        assert prev == pytest.approx(math.factorial(m), rel=1e-13)


def _bernoulli_fourier(degree: int, t: float, terms: int = 200_000) -> float:
    # B_2r(t) = (-1)^{r+1} 2 (2r)! / (2 pi)^{2r} * sum_k cos(2 pi k t)/k^{2r}
    r = degree // 2
    s = sum(math.cos(2.0 * math.pi * k * t) / k**degree for k in range(1, terms + 1))
    return (-1) ** (r + 1) * 2.0 * math.factorial(degree) / (2.0 * math.pi) ** degree * s


@pytest.mark.parametrize("degree", [2, 4, 6, 8, 10, 12])
def test_bernoulli_poly_fourier_route(degree):
    # the degree-2 series tail decays only like 1/terms
    terms = 200_000 if degree == 2 else 20_000
    tol = 5e-6 if degree == 2 else 1e-12
    for t in (0.0, 0.17, 0.5, 0.83, 1.0):
        ref = _bernoulli_fourier(degree, t, terms=terms)
        assert bernoulli_poly(degree, t) == pytest.approx(ref, abs=tol)


def test_bernoulli_poly_known_values():
    assert bernoulli_poly(2, 0.0) == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert bernoulli_poly(4, 0.0) == pytest.approx(-1.0 / 30.0, rel=1e-15)
    assert bernoulli_poly(6, 0.0) == pytest.approx(1.0 / 42.0, rel=1e-15)
    # B_n(0) = B_n(1) for n >= 2
    for degree in (2, 4, 6, 8, 10, 12):
        assert bernoulli_poly(degree, 0.0) == pytest.approx(
            bernoulli_poly(degree, 1.0), rel=1e-13
        )
    with pytest.raises(ValueError):
        bernoulli_poly(3, 0.5)


# sha256 (first 16 hex digits) of bernoulli_poly(d, t) on 257 points of
# [0, 1], as little-endian float64
_BERNOULLI_BITS = {
    2: "57c78132ce63d0e9",
    4: "ed5e8fd375e6d423",
    6: "016b129ee8cf4281",
    8: "3d5451f40672bedd",
    10: "27c671a5fd54b8f8",
    12: "287f26a45d6fb0ba",
}


@pytest.mark.parametrize("degree", sorted(_BERNOULLI_BITS))
def test_bernoulli_poly_keeps_its_bits(degree):
    got = bernoulli_poly(degree, np.linspace(0.0, 1.0, 257)).astype("<f8").tobytes()
    assert hashlib.sha256(got).hexdigest()[:16] == _BERNOULLI_BITS[degree]


def test_double_factorial():
    assert double_factorial(-1) == 1
    assert double_factorial(1) == 1
    assert double_factorial(3) == 3
    assert double_factorial(5) == 15
    assert double_factorial(7) == 105
    with pytest.raises(ValueError):
        double_factorial(4)


def test_normal_pdf():
    assert normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-15)
    assert normal_pdf(3.0) == pytest.approx(math.exp(-4.5) / math.sqrt(2.0 * math.pi), rel=1e-15)


def test_specfun_against_scipy():
    special = pytest.importorskip("scipy.special")
    import numpy as np

    xs = np.concatenate([np.linspace(-6.0, 6.0, 241), [-26.0, -9.5, 0.46875, 4.0, 12.0, 27.0]])
    for x in xs:
        # in the tails a rounding of the argument moves erfc by a
        # relative 2 x^2 eps, in either implementation
        rel = 1e-14 * max(1.0, x * x)
        assert erf(x) == pytest.approx(special.erf(x), rel=1e-14, abs=1e-300)
        assert erfc(x) == pytest.approx(special.erfc(x), rel=rel, abs=1e-300)
        assert erfcx(x) == pytest.approx(special.erfcx(x), rel=1e-13)
        assert normal_cdf(x) == pytest.approx(special.ndtr(x), rel=rel, abs=1e-300)
    for p in np.geomspace(1e-300, 0.5, 80):
        assert normal_icdf(p) == pytest.approx(special.ndtri(p), rel=1e-12, abs=1e-14)
    for m in range(0, 12):
        for x in (1e-3, 0.5, float(m), m + 7.5, 40.0):
            ref = special.gammainc(m + 1, x) * special.gamma(m + 1)
            assert lower_incomplete_gamma_int(m, x) == pytest.approx(ref, rel=1e-12)


def test_normal_icdf_upper_tail_against_scipy():
    special = pytest.importorskip("scipy.special")
    import numpy as np

    for p in 1.0 - np.geomspace(1e-15, 0.5, 40):
        assert normal_icdf(p) == pytest.approx(special.ndtri(p), rel=1e-12, abs=1e-14)


def test_bernoulli_poly_arrays_against_scipy():
    special = pytest.importorskip("scipy.special")
    import numpy as np

    t = np.linspace(0.0, 1.0, 101)
    for degree in range(2, 13, 2):
        numbers = special.bernoulli(degree)  # B_0 .. B_degree, B_1 = -1/2
        ref = sum(
            math.comb(degree, k) * numbers[k] * t ** (degree - k) for k in range(degree + 1)
        )
        got = bernoulli_poly(degree, t)
        # scipy's Bernoulli numbers are good to ~1e-13 relative, and the
        # binomial weights reach 924 at degree 12
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-10)
        # the array path takes the scalar path's Horner steps
        assert got.tobytes() == np.array([bernoulli_poly(degree, v) for v in t]).tobytes()


# --- Bitwise reference -------------------------------------------------------
#
# The scalar routines below are the float64 evaluation order that every
# route of kembed.specfun keeps, element by element: Cody's rational
# forms (Math. Comp. 23, 1969) dispatched on one float at a time, with
# math.exp, math.log and math.floor. They do not take +-inf or |x| past
# 1.1e307 (math.floor raises on the infinite 16 |x| there).

_SQRT2 = math.sqrt(2.0)


def _ref_exp_neg_sq(y):
    hi = math.floor(y * 16.0) / 16.0
    lo = (y - hi) * (y + hi)
    if hi * hi > 745.0:
        return 0.0
    return math.exp(-hi * hi) * math.exp(-lo)


def _ref_erf(x):
    if math.isnan(x):
        return x
    if abs(x) <= 0.46875:
        return _erf_small(x)
    if x > 0:
        return 1.0 - _ref_erfc(x)
    return _ref_erfc(-x) - 1.0


def _ref_erfc(x):
    if math.isnan(x):
        return x
    y = abs(x)
    if y <= 0.46875:
        return 1.0 - _erf_small(x)
    if y <= 4.0:
        r = _ref_exp_neg_sq(y) * _erfcx_mid(y)
    else:
        r = _ref_exp_neg_sq(y) * _erfcx_large(y)
    return 2.0 - r if x < 0.0 else r


def _ref_erfcx(x):
    if math.isnan(x):
        return x
    if x < 0.0:
        if x < -26.62:
            return math.inf
        return 2.0 * math.exp(x * x) - _ref_erfcx(-x)
    if x <= 0.46875:
        return math.exp(x * x) * (1.0 - _erf_small(x))
    if x <= 4.0:
        return _erfcx_mid(x)
    return _erfcx_large(x)


def _ref_normal_cdf(x):
    return 0.5 * _ref_erfc(-x / _SQRT2)


def _ref_log_normal_cdf(x):
    if x <= -8.0:
        return math.log(0.5) - 0.5 * x * x + math.log(_ref_erfcx(-x / _SQRT2))
    p = _ref_normal_cdf(x)
    if p >= 1.0:
        return -0.5 * _ref_erfc(x / _SQRT2)
    return math.log(p)


def _ref_normal_icdf(p):
    if p > 0.5:
        return -_ref_normal_icdf(1.0 - p)
    if p < 1e-20:
        x = -math.sqrt(-2.0 * math.log(p))
        for _ in range(50):
            log_cdf = _ref_log_normal_cdf(x)
            step = (log_cdf - math.log(p)) * math.exp(
                log_cdf + 0.5 * x * x + 0.5 * math.log(2.0 * math.pi)
            )
            x -= step
            if abs(step) <= 1e-16 * abs(x):
                break
        return x
    x = -math.sqrt(-2.0 * math.log(p))
    lo, hi = -40.0, 40.0
    for _ in range(80):
        f = _ref_normal_cdf(x) - p
        if f > 0.0:
            hi = min(hi, x)
        elif f < 0.0:
            lo = max(lo, x)
        else:
            return x
        d = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        step = f / d if d > 0.0 else 0.0
        x_new = x - step
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= 1e-16 * max(1.0, abs(x)):
            return x_new
        x = x_new
    return x


_REFERENCES = {
    erf: _ref_erf,
    erfc: _ref_erfc,
    erfcx: _ref_erfcx,
    normal_cdf: _ref_normal_cdf,
    log_normal_cdf: _ref_log_normal_cdf,
}

# the region edges of the tables (|x| = 27.3125 is where hi^2 passes
# 745), the normal-CDF switch at -8, signed zeros and subnormals
_EDGES = [0.0, 0.46875, 4.0, 8.0, 26.62, 27.3125, 38.5, 5e-324, 2.2250738585072014e-308]


def _edge_values():
    e = np.array(_EDGES)
    e = np.concatenate([e, np.nextafter(e, np.inf), np.nextafter(e, -np.inf)])
    return np.concatenate([e, -e, [math.nan]])


def _sweep():
    """80 016 arguments: the edges with their neighbours, a grid through
    every region, and heavy-tailed draws reaching 1e300."""
    rng = np.random.default_rng(20)
    xs = np.concatenate([
        _edge_values(),
        np.linspace(-30.0, 30.0, 40_001),
        rng.uniform(-1.0, 1.0, 10_000),
        rng.standard_cauchy(29_960) * 5.0,
    ])
    return xs[~(np.abs(xs) >= 1e300)]


@pytest.mark.parametrize("fn", list(_REFERENCES), ids=lambda f: f.__name__)
def test_every_route_has_the_bits_of_the_scalar_reference(fn):
    xs = _sweep()
    assert xs.size == 80_016
    ref = np.array([_REFERENCES[fn](v) for v in xs.tolist()])
    floats = [fn(v) for v in xs.tolist()]
    assert all(type(v) is float for v in floats)
    assert np.array(floats).tobytes() == ref.tobytes()
    # below the cut-off each element takes the float route; above it,
    # each region's formula runs on the elements it covers
    cut = specfun._MASKED_MIN_SIZE
    bounds = np.cumsum(np.resize(np.arange(1, cut), xs.size))  # sizes 1, 2, ..., cut - 1, 1, ...
    small = np.split(xs, bounds[bounds < xs.size])
    assert max(len(s) for s in small) < cut
    assert np.concatenate([fn(s) for s in small]).tobytes() == ref.tobytes()
    assert fn(xs).tobytes() == ref.tobytes()
    # sorted blocks: most lie in one region (the whole-array case),
    # some straddle an edge
    order = np.argsort(xs, kind="stable")
    blocks = np.array_split(xs[order], xs.size // 64)
    assert np.concatenate([fn(b) for b in blocks]).tobytes() == ref[order].tobytes()
    assert fn(xs.reshape(-1, 2)).tobytes() == ref.tobytes()


def test_normal_icdf_has_the_bits_of_the_scalar_reference():
    rng = np.random.default_rng(21)
    ps = np.concatenate([
        rng.uniform(0.0, 1.0, 96_000),
        10.0 ** rng.uniform(-300.0, -1.0, 2_000),  # most below 1e-20
        1.0 - 10.0 ** rng.uniform(-16.0, -1.0, 2_000),
        [0.5, 1e-20, np.nextafter(1e-20, 0.0), 5e-324, np.nextafter(1.0, 0.0)],
    ])
    ps = ps[(ps > 0.0) & (ps < 1.0)]
    assert ps.size >= 100_000 and np.sum(ps < 1e-20) > 1_000
    ref = np.array([_ref_normal_icdf(v) for v in ps.tolist()])
    assert normal_icdf(ps).tobytes() == ref.tobytes()
    assert normal_icdf(ps.reshape(-1, 5)).tobytes() == ref.tobytes()
    picks = np.linspace(0, ps.size - 1, 300).astype(int).tolist() + list(range(ps.size - 5, ps.size))
    floats = [normal_icdf(float(ps[i])) for i in picks]
    assert all(type(v) is float for v in floats)
    assert np.array(floats).tobytes() == ref[picks].tobytes()
    assert normal_icdf(ps[:7]).tobytes() == ref[:7].tobytes()


def test_arrays_mixing_regions_have_the_bits_of_the_scalar_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    elements = st.one_of(
        st.sampled_from(_edge_values().tolist()),
        # 16 |x| overflows from 1.1e307 on, where the reference raises
        st.floats(-1e300, 1e300, allow_subnormal=True),
        st.floats(-40.0, 40.0),
        st.floats(-1.0, 1.0),
    )

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
    @hypothesis.given(st.lists(elements, min_size=0, max_size=100))
    def check(values):
        xs = np.array(values, dtype=float)
        for fn, ref in _REFERENCES.items():
            got = fn(xs)
            assert got.shape == xs.shape
            assert got.tobytes() == np.array([ref(v) for v in values], dtype=float).tobytes()

    check()


def test_error_functions_take_their_limits_at_infinity():
    inf = math.inf
    limits = {
        erf: (1.0, -1.0),
        erfc: (0.0, 2.0),
        normal_cdf: (1.0, 0.0),
        erfcx: (0.0, inf),
        log_normal_cdf: (0.0, -inf),
    }
    for fn, (at_plus, at_minus) in limits.items():
        assert fn(inf) == at_plus and fn(-inf) == at_minus
        for n in (3, 2 * specfun._MASKED_MIN_SIZE):
            xs = np.tile([inf, -inf, 0.5], n)
            got = fn(xs)
            assert got.tolist() == np.tile([at_plus, at_minus, fn(0.5)], n).tolist()
