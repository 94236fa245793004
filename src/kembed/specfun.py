"""Self-contained special functions backing the closed-form embeddings.

The error functions and ``bernoulli_poly`` take a scalar, giving a
float, or an array, elementwise; the rest is scalar float64 math. The
accuracy contracts are pinned:
``erf`` is a rational minimax approximation good to ~1e-15 relative,
``normal_cdf`` switches to a scaled-complementary-error-function path in
the far left tail so that its logarithm stays accurate, and the
Bernoulli polynomials are evaluated exactly from stored rational
coefficient tables.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

__all__ = [
    "erf",
    "erfc",
    "erfcx",
    "normal_cdf",
    "log_normal_cdf",
    "normal_pdf",
    "normal_icdf",
    "lower_incomplete_gamma_int",
    "bernoulli_poly",
    "double_factorial",
]

_SQRT2 = math.sqrt(2.0)
_RSQRT_PI = 5.6418958354775628695e-1  # 1/sqrt(pi)
_LOG_HALF = math.log(0.5)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# Rational minimax coefficients (Cody's scheme) for the three ranges.
# |x| <= 0.46875: erf(x) = x * R1(x^2)
_A = (
    3.16112374387056560e0,
    1.13864154151050156e2,
    3.77485237685302021e2,
    3.20937758913846947e3,
    1.85777706184603153e-1,
)
_B = (
    2.36012909523441209e1,
    2.44024637934444173e2,
    1.28261652607737228e3,
    2.84423683343917062e3,
)
# 0.46875 < x <= 4: erfc(x) * exp(x^2) = R2(x)
_C = (
    5.64188496988670089e-1,
    8.88314979438837594e0,
    6.61191906371416295e1,
    2.98635138197400131e2,
    8.81952221241769090e2,
    1.71204761263407058e3,
    2.05107837782607147e3,
    1.23033935479799725e3,
    2.15311535474403846e-8,
)
_D = (
    1.57449261107098347e1,
    1.17693950891312499e2,
    5.37181101862009858e2,
    1.62138957456669019e3,
    3.29079923573345963e3,
    4.36261909014324716e3,
    3.43936767414372164e3,
    1.23033935480374942e3,
)
# x > 4: erfc(x) * exp(x^2) = (1/sqrt(pi) - y R3(y)) / x with y = 1/x^2
_P = (
    3.05326634961232344e-1,
    3.60344899949804439e-1,
    1.25781726111229246e-1,
    1.60837851487422766e-2,
    6.58749161529837803e-4,
    1.63153871373020978e-2,
)
_Q = (
    2.56852019228982242e0,
    1.87295284992346047e0,
    5.27905102951428412e-1,
    6.05183413124413191e-2,
    2.33520497626869185e-3,
)


def _each(fn, a: np.ndarray) -> np.ndarray:
    """The scalar function fn at each element of an array."""
    return np.fromiter(map(fn, a.ravel().tolist()), float, count=a.size).reshape(a.shape)


def exp_each(a: np.ndarray) -> np.ndarray:
    """``math.exp`` at each element of an array, in its bits: np.exp can
    differ from it in the last place."""
    return _each(math.exp, a)


def pow_each(a: np.ndarray, p) -> np.ndarray:
    """Python's ``v ** p`` at each element v of an array, in its bits:
    numpy's power can differ from it in the last place."""
    return _each(lambda v: v**p, a)


def _elementwise(fn, x):
    """The scalar function fn at x as a float, or at each element of an
    array x, with the same bits."""
    a = np.asarray(x, dtype=float)
    return fn(float(a)) if a.ndim == 0 else _each(fn, a)


def _erf_small(x: float) -> float:
    # |x| <= 0.46875
    y = x * x
    num = _A[4] * y
    den = y
    for i in range(3):
        num = (num + _A[i]) * y
        den = (den + _B[i]) * y
    return x * (num + _A[3]) / (den + _B[3])


def _erfcx_mid(y: float) -> float:
    # 0.46875 < y <= 4.0
    num = _C[8] * y
    den = y
    for i in range(7):
        num = (num + _C[i]) * y
        den = (den + _D[i]) * y
    return (num + _C[7]) / (den + _D[7])


def _erfcx_large(y: float) -> float:
    # y > 4.0
    ysq = 1.0 / (y * y)
    num = _P[5] * ysq
    den = ysq
    for i in range(4):
        num = (num + _P[i]) * ysq
        den = (den + _Q[i]) * ysq
    r = ysq * (num + _P[4]) / (den + _Q[4])
    return (_RSQRT_PI - r) / y


def _exp_neg_sq(y: float) -> float:
    # exp(-y*y) with the argument split to preserve accuracy for large y
    hi = math.floor(y * 16.0) / 16.0
    lo = (y - hi) * (y + hi)
    if hi * hi > 745.0:
        return 0.0
    return math.exp(-hi * hi) * math.exp(-lo)


def erf(x):
    """Error function, rational minimax evaluation, at a scalar or
    elementwise on an array.

    Relative error is below 1e-14 everywhere (about 5e-16 in practice).
    """
    return _elementwise(_erf, x)


def erfc(x):
    """Complementary error function 1 - erf(x), at a scalar or
    elementwise on an array."""
    return _elementwise(_erfc, x)


def erfcx(x):
    """Scaled complementary error function exp(x^2) * erfc(x), at a
    scalar or elementwise on an array.

    Stays order-one for large positive x, which is what makes the
    far-tail Gaussian integrals finite to evaluate.
    """
    return _elementwise(_erfcx, x)


def normal_cdf(x):
    """Standard normal CDF Phi(x) = (1 + erf(x/sqrt 2))/2, at a scalar or
    elementwise on an array.

    Computed through erfc so the left tail keeps full relative accuracy
    down to the underflow threshold rather than saturating at 0.
    """
    return _elementwise(_normal_cdf, x)


def _erf(x: float) -> float:
    if math.isnan(x):
        return x
    if abs(x) <= 0.46875:
        return _erf_small(x)
    if x > 0:
        return 1.0 - _erfc(x)
    return _erfc(-x) - 1.0


def _erfc(x: float) -> float:
    if math.isnan(x):
        return x
    y = abs(x)
    if y <= 0.46875:
        return 1.0 - _erf_small(x)
    if y <= 4.0:
        r = _exp_neg_sq(y) * _erfcx_mid(y)
    else:
        r = _exp_neg_sq(y) * _erfcx_large(y)
    return 2.0 - r if x < 0.0 else r


def _erfcx(x: float) -> float:
    if math.isnan(x):
        return x
    if x < 0.0:
        if x < -26.62:
            return math.inf
        return 2.0 * math.exp(x * x) - _erfcx(-x)
    if x <= 0.46875:
        return math.exp(x * x) * (1.0 - _erf_small(x))
    if x <= 4.0:
        return _erfcx_mid(x)
    return _erfcx_large(x)


def _normal_cdf(x: float) -> float:
    return 0.5 * _erfc(-x / _SQRT2)


def log_normal_cdf(x: float) -> float:
    """log Phi(x), accurate in the far left tail.

    For x <= -8 uses log Phi(x) = log(1/2) - x^2/2 + log erfcx(-x/sqrt 2),
    which keeps the result accurate to ~1e-14 relative however far out.
    """
    x = float(x)
    if x <= -8.0:
        return _LOG_HALF - 0.5 * x * x + math.log(_erfcx(-x / _SQRT2))
    p = _normal_cdf(x)
    if p >= 1.0:
        # -log(2) tail bound keeps the sign right for huge x
        return -0.5 * _erfc(x / _SQRT2)
    return math.log(p)


def normal_pdf(x: float) -> float:
    """Standard normal density."""
    x = float(x)
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def normal_icdf(p: float) -> float:
    """Inverse standard normal CDF on (0, 1).

    Bracketed Newton iteration against ``normal_cdf`` for p <= 1/2, and
    x(p) = -x(1 - p) above; converges to full double precision in a
    handful of steps and needs no magic constants.
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"normal_icdf requires p in (0, 1), got {p}")
    if p > 0.5:
        # Phi(x) = p resolves x only to about eps / phi(x) as p nears 1;
        # 1 - p is exact here and its root is found to full precision
        return -normal_icdf(1.0 - p)
    if p < 1e-20:
        # Newton on Phi crawls here (steps ~1/|x|) and stops short of the
        # root; log Phi is concave and nearly linear, so Newton on it from
        # the tail bound converges. No uniform draw in double is this small.
        x = -math.sqrt(-2.0 * math.log(p))
        for _ in range(50):
            log_cdf = log_normal_cdf(x)
            step = (log_cdf - math.log(p)) * math.exp(log_cdf + 0.5 * x * x + _LOG_SQRT_2PI)
            x -= step
            if abs(step) <= 1e-16 * abs(x):
                break
        return x
    # crude but monotone starting point from the tail bound
    x = -math.sqrt(-2.0 * math.log(p))
    lo, hi = -40.0, 40.0
    for _ in range(80):
        f = _normal_cdf(x) - p
        if f > 0.0:
            hi = min(hi, x)
        elif f < 0.0:
            lo = max(lo, x)
        else:
            return x
        d = normal_pdf(x)
        step = f / d if d > 0.0 else 0.0
        x_new = x - step
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= 1e-16 * max(1.0, abs(x)):
            return x_new
        x = x_new
    return x


def lower_incomplete_gamma_int(m: int, x: float) -> float:
    """Lower incomplete gamma at integer order, gamma(m+1, x).

    Equals m! * (1 - exp(-x) * sum_{i=0}^{m} x^i / i!). For small x the
    direct difference cancels catastrophically, so the identical tail
    series m! * exp(-x) * sum_{i>m} x^i / i! is used there.
    """
    if m < 0 or m != int(m):
        raise ValueError(f"order m must be a nonnegative integer, got {m}")
    m = int(m)
    x = float(x)
    if x < 0.0:
        raise ValueError(f"argument must be nonnegative, got {x}")
    if x == 0.0:
        return 0.0
    fact_m = math.factorial(m)
    if x <= m + 1.0:
        # tail series, all terms positive
        term = x ** (m + 1) / math.factorial(m + 1)
        total = term
        i = m + 2
        while True:
            term *= x / i
            total += term
            if term <= 1e-17 * total or i > m + 400:
                break
            i += 1
        return fact_m * math.exp(-x) * total
    partial = 0.0
    term = 1.0
    for i in range(m + 1):
        if i > 0:
            term *= x / i
        partial += term
    return fact_m * (1.0 - math.exp(-x) * partial)


# Bernoulli polynomial coefficients B_n(t) = sum_k coeff[k] t^k, exact
# rationals, even degrees 2 through 12 (the ones the periodic kernel needs).
_BERNOULLI_COEFFS: dict[int, tuple[Fraction, ...]] = {
    2: (Fraction(1, 6), Fraction(-1), Fraction(1)),
    4: (Fraction(-1, 30), Fraction(0), Fraction(1), Fraction(-2), Fraction(1)),
    6: (
        Fraction(1, 42),
        Fraction(0),
        Fraction(-1, 2),
        Fraction(0),
        Fraction(5, 2),
        Fraction(-3),
        Fraction(1),
    ),
    8: (
        Fraction(-1, 30),
        Fraction(0),
        Fraction(2, 3),
        Fraction(0),
        Fraction(-7, 3),
        Fraction(0),
        Fraction(14, 3),
        Fraction(-4),
        Fraction(1),
    ),
    10: (
        Fraction(5, 66),
        Fraction(0),
        Fraction(-3, 2),
        Fraction(0),
        Fraction(5),
        Fraction(0),
        Fraction(-7),
        Fraction(0),
        Fraction(15, 2),
        Fraction(-5),
        Fraction(1),
    ),
    12: (
        Fraction(-691, 2730),
        Fraction(0),
        Fraction(5),
        Fraction(0),
        Fraction(-33, 2),
        Fraction(0),
        Fraction(22),
        Fraction(0),
        Fraction(-33, 2),
        Fraction(0),
        Fraction(11),
        Fraction(-6),
        Fraction(1),
    ),
}


def bernoulli_poly(degree: int, t):
    """Bernoulli polynomial B_degree(t) for even degree in {2, ..., 12},
    at a scalar (returning a float) or elementwise on an array.

    Horner evaluation of the exact rational coefficient table.
    """
    coeffs = _BERNOULLI_COEFFS.get(degree)
    if coeffs is None:
        raise ValueError(
            f"degree must be an even integer in [2, 12], got {degree}"
        )
    t = np.asarray(t, dtype=float)
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + float(c)
    return float(acc) if t.ndim == 0 else acc


def double_factorial(n: int) -> int:
    """Odd double factorial n!! for odd n >= -1, with (-1)!! = 1."""
    if n < -1 or n % 2 == 0:
        raise ValueError(f"double_factorial expects odd n >= -1, got {n}")
    out = 1
    k = n
    while k > 1:
        out *= k
        k -= 2
    return out

