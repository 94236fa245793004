"""Self-contained special functions backing the closed-form embeddings.

The error functions, the normal CDF, its logarithm, density and
quantile, and ``bernoulli_poly`` take a scalar, giving a float, or an
array, elementwise, with the same bits either way; the incomplete gamma
function and the double factorial are scalar. Each error function is
one table of regions, each region a test and one of Cody's rational
forms (Math. Comp. 23, 1969); so is the quantile, with Wichura's forms
(AS241, Applied Statistics 37, 1988). The accuracy contracts are pinned:
``erf`` is a rational minimax approximation good to ~1e-15 relative,
``normal_cdf`` switches to a scaled-complementary-error-function path in
the far left tail so that its logarithm stays accurate, and the
Bernoulli polynomials are evaluated exactly from stored rational
coefficient tables.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, partial

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
_SQRT_2PI = math.sqrt(2.0 * math.pi)

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


# An array of this many elements or more runs each piece of a region
# table once, on the elements the piece covers; a smaller array takes
# the float route element by element. Measured on a 2-core VM for erf,
# erfcx and normal_cdf: the float route costs about 2 us per element,
# the masked route 15-50 us per call plus 0.2-0.5 us per element when
# one piece covers the array, so the two meet near 30 elements (near
# 100 for arrays spread over every region).
_MASKED_MIN_SIZE = 30

# From here on hi = floor(16 y) / 16 has hi * hi > 745, and exp(-y * y)
# underflows to 0.
_ERFC_ZERO = 27.3125


def _each(fn, a):
    """The scalar function fn at a float, or at each element of an array."""
    if isinstance(a, float):
        return fn(a)
    return np.fromiter(map(fn, a.ravel().tolist()), float, count=a.size).reshape(a.shape)


def exp_each(a):
    """``math.exp`` at a float or at each element of an array, in its
    bits: np.exp can differ from it in the last place."""
    return math.exp(a) if isinstance(a, float) else _each(math.exp, a)


def pow_each(a: np.ndarray, p) -> np.ndarray:
    """Python's ``v ** p`` at each element v of an array, in its bits:
    numpy's power can differ from it in the last place."""
    return _each(lambda v: v**p, a)


def _evaluate(table, x):
    """A region table at a scalar x, as a float, or at each element of an
    array x. The table lists (test, formula) pieces, and an element takes
    the formula of the first piece whose test holds (a test of None
    always holds). Tests and formulas take a float or an array, and give
    an element the same bits either way."""
    if type(x) is not float:
        a = np.asarray(x, dtype=float)
        if a.ndim:
            if a.size < _MASKED_MIN_SIZE:
                return _each(partial(_evaluate, table), a)
            return _masked(table, a)
        x = float(a)
    for test, formula in table:
        if test is None or test(x):
            return formula(x)


def _masked(table, a: np.ndarray) -> np.ndarray:
    """A region table on an array: each formula runs once, on the
    elements its piece covers, or on the whole array when the piece
    covers all of it."""
    flat = a.ravel()
    out = np.empty(flat.shape)
    rest = None  # the positions no piece has covered yet; None for all
    # a float product overflows to inf without a word, and so does this
    with np.errstate(over="ignore"):
        for test, formula in table:
            v = flat if rest is None else flat[rest]
            hit = None if test is None else test(v)
            if hit is None or hit.all():
                out[slice(None) if rest is None else rest] = formula(v)
                break
            if hit.any():
                out[hit.nonzero()[0] if rest is None else rest[hit]] = formula(v[hit])
            rest = (~hit).nonzero()[0] if rest is None else rest[~hit]
    return out.reshape(a.shape)


def _erf_small(x):
    # |x| <= 0.46875
    y = x * x
    num = _A[4] * y
    den = y
    for i in range(3):
        num = (num + _A[i]) * y
        den = (den + _B[i]) * y
    return x * (num + _A[3]) / (den + _B[3])


def _erfcx_mid(y):
    # 0.46875 < y <= 4.0
    num = _C[8] * y
    den = y
    for i in range(7):
        num = (num + _C[i]) * y
        den = (den + _D[i]) * y
    return (num + _C[7]) / (den + _D[7])


def _erfcx_large(y):
    # y > 4.0
    ysq = 1.0 / (y * y)
    num = _P[5] * ysq
    den = ysq
    for i in range(4):
        num = (num + _P[i]) * ysq
        den = (den + _Q[i]) * ysq
    r = ysq * (num + _P[4]) / (den + _Q[4])
    return (_RSQRT_PI - r) / y


def _exp_neg_sq(y):
    # exp(-y*y) for 0 < y < _ERFC_ZERO, with the argument split to
    # preserve accuracy for large y; y * 16.0 // 1.0 is floor(16 y)
    hi = y * 16.0 // 1.0 / 16.0
    lo = (y - hi) * (y + hi)
    return exp_each(-hi * hi) * exp_each(-lo)


# erfc(y) for y > 0.46875
_ERFC_TAIL = (
    (lambda y: y <= 4.0, lambda y: _exp_neg_sq(y) * _erfcx_mid(y)),
    (lambda y: y < _ERFC_ZERO, lambda y: _exp_neg_sq(y) * _erfcx_large(y)),
    (None, lambda y: 0.0),
)

# NaN fails every test but the last, and is its own value
_ERF = (
    (lambda x: abs(x) <= 0.46875, _erf_small),
    (lambda x: x > 0.0, lambda x: 1.0 - _evaluate(_ERFC_TAIL, x)),
    (lambda x: x < 0.0, lambda x: _evaluate(_ERFC_TAIL, -x) - 1.0),
    (None, lambda x: x),
)

_ERFC = (
    (lambda x: abs(x) <= 0.46875, lambda x: 1.0 - _erf_small(x)),
    (lambda x: x > 0.0, lambda x: _evaluate(_ERFC_TAIL, x)),
    (lambda x: x < 0.0, lambda x: 2.0 - _evaluate(_ERFC_TAIL, -x)),
    (None, lambda x: x),
)

_ERFCX = (
    (lambda x: x < -26.62, lambda x: math.inf),
    (lambda x: x < 0.0, lambda x: 2.0 * exp_each(x * x) - erfcx(-x)),
    (lambda x: x <= 0.46875, lambda x: exp_each(x * x) * (1.0 - _erf_small(x))),
    (lambda x: x <= 4.0, _erfcx_mid),
    (lambda x: x > 4.0, _erfcx_large),
    (None, lambda x: x),
)

_NORMAL_CDF = ((None, lambda x: 0.5 * erfc(-x / _SQRT2)),)

_LOG_NORMAL_CDF = (
    # erfcx(inf) = 0 has no log
    (lambda x: x == -math.inf, lambda x: -math.inf),
    # log Phi(x) = log(1/2) - x^2/2 + log erfcx(-x/sqrt 2)
    (
        lambda x: x <= -8.0,
        lambda x: _LOG_HALF - 0.5 * x * x + _each(math.log, erfcx(-x / _SQRT2)),
    ),
    # -log(2) tail bound keeps the sign right for huge x
    (lambda x: normal_cdf(x) >= 1.0, lambda x: -0.5 * erfc(x / _SQRT2)),
    (None, lambda x: _each(math.log, normal_cdf(x))),
)

# Wichura's AS241 coefficients of the normal quantile, (numerator,
# denominator) leading coefficient first. |p - 1/2| <= 0.425: x is
# (p - 1/2) times a ratio in r = 0.180625 - (p - 1/2)^2
_ICDF_CENTRAL = (
    (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
     4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
     1.3314166789178437745e2, 3.3871328727963666080e0),
    (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
     2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
     4.2313330701600911252e1, 1.0),
)
# p < 1/2 farther out, with s = sqrt(-log p) <= 5: -x is a ratio in s - 1.6
_ICDF_NEAR = (
    (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
     1.27045825245236838258e0, 3.64784832476320460504e0, 5.76949722146069140550e0,
     4.63033784615654529590e0, 1.42343711074968357734e0),
    (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
     1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e0,
     2.05319162663775882187e0, 1.0),
)
# s > 5: -x is a ratio in s - 5
_ICDF_FAR = (
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
     2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
     5.46378491116411436990e0, 6.65790464350110377720e0),
    (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
     7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
     5.99832206555887937690e-1, 1.0),
)


def _wichura(coeffs, r, q):
    """q num(r) / den(r), in Wichura's order, for coeffs = (num, den)."""
    (n, *num), (d, *den) = coeffs
    for a, b in zip(num, den):
        n, d = n * r + a, d * r + b
    return q * n / d


def _icdf_central(p):
    q = p - 0.5
    return _wichura(_ICDF_CENTRAL, 0.180625 - q * q, q)


# in s = sqrt(-log p)
_ICDF_TAIL = (
    (lambda s: s <= 5.0, lambda s: _wichura(_ICDF_NEAR, s - 1.6, -1.0)),
    (None, lambda s: _wichura(_ICDF_FAR, s - 5.0, -1.0)),
)

_NORMAL_ICDF = (
    (lambda p: p > 0.5, lambda p: -_evaluate(_NORMAL_ICDF, 1.0 - p)),
    (lambda p: abs(p - 0.5) <= 0.425, _icdf_central),
    # math.log per element, as numpy's log may differ from it in the last
    # place, and by the length of the array
    (None, lambda p: _evaluate(_ICDF_TAIL, np.sqrt(-_each(math.log, p)))),
)


def erf(x):
    """Error function, rational minimax evaluation, at a scalar or
    elementwise on an array.

    Relative error is below 1e-14 everywhere (about 5e-16 in practice).
    """
    return _evaluate(_ERF, x)


def erfc(x):
    """Complementary error function 1 - erf(x), at a scalar or
    elementwise on an array."""
    return _evaluate(_ERFC, x)


def erfcx(x):
    """Scaled complementary error function exp(x^2) * erfc(x), at a
    scalar or elementwise on an array.

    Stays order-one for large positive x, which is what makes the
    far-tail Gaussian integrals finite to evaluate.
    """
    return _evaluate(_ERFCX, x)


def normal_cdf(x):
    """Standard normal CDF Phi(x) = (1 + erf(x/sqrt 2))/2, at a scalar or
    elementwise on an array.

    Computed through erfc so the left tail keeps full relative accuracy
    down to the underflow threshold rather than saturating at 0.
    """
    return _evaluate(_NORMAL_CDF, x)


def log_normal_cdf(x):
    """log Phi(x), accurate in the far left tail, at a scalar or
    elementwise on an array.

    For x <= -8 uses log Phi(x) = log(1/2) - x^2/2 + log erfcx(-x/sqrt 2),
    which keeps the result accurate to ~1e-14 relative however far out.
    """
    return _evaluate(_LOG_NORMAL_CDF, x)


def normal_pdf(x):
    """Standard normal density, at a scalar or elementwise on an array."""
    return exp_each(-0.5 * x * x) / _SQRT_2PI


def normal_icdf(p):
    """Inverse standard normal CDF on (0, 1), at a scalar or elementwise
    on an array.

    Wichura's AS241 (PPND16; Applied Statistics 37, 1988): one rational
    form of degree 7 in each of three regions of p <= 1/2, and
    x(p) = -x(1 - p) above, where 1 - p is exact. Within 1e-15 relative
    of 40-digit values from p = 5e-324 to 1 - 2^-53.
    """
    a = np.asarray(p, dtype=float)
    outside = ~((a > 0.0) & (a < 1.0))
    if outside.any():
        raise ValueError(f"normal_icdf requires p in (0, 1), got {a[outside][0]}")
    return _evaluate(_NORMAL_ICDF, a)


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
    e = math.exp(-x)
    if e == 0.0:  # the sum below may overflow, and 0 * inf is NaN
        return float(fact_m)
    partial = 0.0
    term = 1.0
    for i in range(m + 1):
        if i > 0:
            term *= x / i
        partial += term
    return fact_m * (1.0 - e * partial)


@cache
def _bernoulli_coeffs(degree: int) -> tuple[Fraction, ...]:
    """The exact coefficients of B_degree(t) = sum_k C(degree, k) B_(degree-k) t^k,
    lowest power first, from the Bernoulli numbers B_0 = 1 and
    sum_(k <= m) C(m + 1, k) B_k = 0 (so B_1 = -1/2)."""
    numbers = [Fraction(1)]
    for m in range(1, degree + 1):
        numbers.append(-sum(math.comb(m + 1, k) * numbers[k] for k in range(m)) / (m + 1))
    return tuple(math.comb(degree, k) * numbers[degree - k] for k in range(degree + 1))


def bernoulli_poly(degree: int, t):
    """Bernoulli polynomial B_degree(t) for even degree in {2, ..., 12},
    at a scalar (returning a float) or elementwise on an array.

    Horner evaluation of the exact rational coefficients.
    """
    if degree not in range(2, 13, 2):
        raise ValueError(
            f"degree must be an even integer in [2, 12], got {degree}"
        )
    t = np.asarray(t, dtype=float)
    acc = 0.0
    for c in reversed(_bernoulli_coeffs(int(degree))):
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

