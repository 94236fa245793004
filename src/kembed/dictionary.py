"""Closed-form kernel mean embeddings for supported kernel/measure pairs.

An :class:`Embedding` bundles the single integral K_P of a kernel
against a measure, stated once on the rows of an array (``kp_rows``,
with ``kp_at`` its one-row case), with the double integral ``kpp``,
tagged with
per-part provenance: ``closed_form`` when an exact expression exists,
``numeric_fallback`` when the value is produced by the quadrature or
Monte Carlo oracle. :func:`embed` dispatches a (kernel, measure) pair
to the right construction and falls back to the oracle for pairs with
no known expression. Each closed-form builder takes the kernel and
measure objects themselves and leaves a part it has no expression for
as None, which :func:`embed` fills in from the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import oracle
from .errors import InvalidSpecError, UnsupportedPairError
from .kernels import (
    ComposedKernel,
    FbmKernel,
    GaussianKernel,
    Kernel,
    MaternKernel,
    MatrixValuedKernel,
    PeriodicSobolevKernel,
    PowerSeriesKernel,
    ProductKernel,
    SphereSmoothKernel,
    SphereSobolevKernel,
    SumKernel,
    WendlandKernel,
    _finite_points,
    as_point,
)
from .measures import (
    EmpiricalMeasure,
    GaussianMeasure,
    Measure,
    MixtureMeasure,
    PushforwardMeasure,
    ScoreMeasure,
    SphereUniformMeasure,
    UniformBoxMeasure,
)
from .specfun import (
    double_factorial,
    erf,
    erfcx,
    exp_each,
    lower_incomplete_gamma_int,
    normal_cdf,
    pow_each,
)

__all__ = [
    "Embedding",
    "MaternUniformCoefficients",
    "embed",
    "gauss_uniform",
    "gauss_gauss",
    "gauss_cross_kpq",
    "matern_uniform_general",
    "matern_uniform_special",
    "matern_gauss_kp",
    "wendland0_uniform",
    "wendland_gauss_kp",
    "fbm_uniform",
    "powerseries_uniform",
    "powerseries_gauss",
    "sphere_embed",
    "periodic_sobolev_embed",
    "empirical_embed",
]

CLOSED_FORM = "closed_form"
NUMERIC_FALLBACK = "numeric_fallback"

# Exponent size above which the exp * Phi products of the Matern-Gauss
# embeddings switch to the scaled-complementary-erf evaluation.
_STABLE_EXPONENT = 40.0


@dataclass(frozen=True, eq=False)
class Embedding:
    """A kernel mean embedding: x -> integral K(x, y) dP(y), plus the
    double integral of K against P in both arguments, with the kernel K
    and measure P it was built for.

    ``kp_rows_fn`` states K_P once, on the rows of a finite (n, d) array
    with d the measure's dimension: it returns an array of n values, or
    of n k x k matrices for a matrix-valued kernel, and raises
    InvalidSpecError for a row outside its formula's domain, with the
    message ``kp_at`` gives for the first such row."""

    kp_rows_fn: Callable[[np.ndarray], np.ndarray]
    kpp: object
    pair_id: str
    kernel: Kernel
    measure: Measure
    kp_provenance: str = CLOSED_FORM
    kpp_provenance: str = CLOSED_FORM
    kpp_stderr: float = 0.0

    def kp_at(self, x):
        """Evaluate the mean embedding at a point: the one-row case of
        :meth:`kp_rows`."""
        value = self.kp_rows_fn(as_point(x, self.measure.dim)[None, :])[0]
        return float(value) if np.ndim(value) == 0 else value

    def kp_rows(self, X) -> np.ndarray:
        """The mean embedding at each row of X, each with the bits of
        ``kp_at`` at that row. Closed forms evaluate every row in one
        pass over the array; the numeric fallback integrates every row
        against one Monte Carlo sample or rule."""
        X = np.asarray(X, dtype=float)
        d = self.measure.dim
        return self.kp_rows_fn(_finite_points(X.reshape(0, d) if X.size == 0 else X, d))

    @property
    def provenance(self) -> str:
        if self.kp_provenance == CLOSED_FORM and self.kpp_provenance == CLOSED_FORM:
            return CLOSED_FORM
        return NUMERIC_FALLBACK


# --- Gaussian kernel ------------------------------------------------------


def gauss_uniform(kernel: GaussianKernel, measure: UniformBoxMeasure) -> Embedding:
    """Gaussian kernel with diagonal lengthscales against a uniform box.

    Both integrals factorize over dimensions into erf differences.
    """
    ls = np.asarray(kernel.lengthscales)
    a = np.asarray(measure.lows)
    b = np.asarray(measure.highs)
    r = b - a

    def kp_rows(X):
        total = 1.0
        for i in range(measure.dim):
            s = ls[i] * math.sqrt(2.0)
            total = total * (
                math.sqrt(math.pi / 2.0)
                * (ls[i] / r[i])
                * (erf((b[i] - X[:, i]) / s) - erf((a[i] - X[:, i]) / s))
            )
        return total

    kpp = 1.0
    for i in range(measure.dim):
        s = ls[i] * math.sqrt(2.0)
        # expm1 keeps the bracket accurate when r << l
        bracket = ls[i] * math.sqrt(2.0 / math.pi) * math.expm1(
            -r[i] ** 2 / (2.0 * ls[i] ** 2)
        ) + r[i] * erf(r[i] / s)
        kpp *= math.sqrt(2.0 * math.pi) * (ls[i] / r[i] ** 2) * bracket

    return Embedding(
        kp_rows_fn=kp_rows,
        kpp=kpp,
        pair_id="gaussian/uniform_box",
        kernel=kernel,
        measure=measure,
    )


def gauss_gauss(kernel: GaussianKernel, measure: GaussianMeasure) -> Embedding:
    """Gaussian kernel (lengthscale matrix Lambda) against N(mean, cov).

    kp(x) = det(I + Sigma Lambda^{-1})^{-1/2}
            exp(-1/2 (x-mu)^T (Lambda+Sigma)^{-1} (x-mu)),
    kpp = sqrt(det Lambda / det(Lambda + 2 Sigma)).
    """
    mu = np.asarray(measure.mean)

    if kernel.diagonal and measure.diagonal:
        l2 = np.asarray(kernel.lengthscales) ** 2
        s2 = np.asarray(measure.cov_diag)
        pref = np.prod(np.sqrt(l2 / (l2 + s2)))

        def kp_rows(X):
            z = (X - mu) ** 2 / (l2 + s2)
            return pref * exp_each(-0.5 * np.sum(z, axis=1))

        kpp = float(np.prod(np.asarray(kernel.lengthscales) / np.sqrt(l2 + 2.0 * s2)))
    else:
        L = kernel.lam()
        S = measure.cov
        ls_sum = L + S
        sign, logdet_ls = np.linalg.slogdet(ls_sum)
        _, logdet_l = np.linalg.slogdet(L)
        pref = math.exp(0.5 * (logdet_l - logdet_ls))

        def kp_rows(X):
            V = (X - mu)[:, :, None]
            # one solve and one dot product per row, stacked: each row has
            # the bits of the single-vector solve and v @ u
            q = np.matmul(V.transpose(0, 2, 1), np.linalg.solve(ls_sum, V))[:, 0, 0]
            return pref * exp_each(-0.5 * q)

        _, logdet_l2s = np.linalg.slogdet(L + 2.0 * S)
        kpp = math.exp(0.5 * (logdet_l - logdet_l2s))

    return Embedding(
        kp_rows_fn=kp_rows,
        kpp=kpp,
        pair_id="gaussian/gaussian",
        kernel=kernel,
        measure=measure,
    )


def gauss_cross_kpq(kernel: GaussianKernel, p: GaussianMeasure, q: GaussianMeasure) -> float:
    """Double integral of the Gaussian kernel against two Gaussian
    measures, one in each argument:
    sqrt(det Lambda / det(Lambda + Sigma_P + Sigma_Q))
    * exp(-1/2 delta^T (Lambda + Sigma_P + Sigma_Q)^{-1} delta)."""
    if not kernel.dim == p.dim == q.dim:
        raise InvalidSpecError("dimension mismatch between kernel and measures")
    lam = kernel.lam()
    total = lam + p.cov + q.cov
    _, logdet_l = np.linalg.slogdet(lam)
    _, logdet_t = np.linalg.slogdet(total)
    delta = np.asarray(p.mean) - np.asarray(q.mean)
    return math.exp(0.5 * (logdet_l - logdet_t)) * math.exp(
        -0.5 * float(delta @ np.linalg.solve(total, delta))
    )


# --- Matern kernels, uniform measure --------------------------------------


@dataclass(frozen=True)
class MaternUniformCoefficients:
    """Shared quantities of the half-integer Matern embeddings on [a, b]:
    alpha = l / sqrt(2n+1), rho = (b - a) / alpha, the polynomial
    coefficients c_m of Q(z) = e^{-z} sum_m c_m z^m, and the incomplete
    gamma values gamma_{m+1} at rho."""

    n: int
    lengthscale: float
    a: float
    b: float
    alpha: float = field(init=False)
    rho: float = field(init=False)
    c: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        if self.n not in (0, 1, 2, 3):
            raise InvalidSpecError(f"n must be in 0..3, got {self.n}")
        if self.lengthscale <= 0:
            raise InvalidSpecError("lengthscale must be positive")
        if not self.b > self.a:
            raise InvalidSpecError("need b > a")
        alpha = self.lengthscale / math.sqrt(2 * self.n + 1)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "rho", (self.b - self.a) / alpha)
        c = []
        for m in range(self.n + 1):
            s = 0
            for i in range(self.n - m + 1):
                s += math.factorial(self.n + i) // math.factorial(i) * 2 ** (self.n - i)
            c.append(s / math.factorial(m))
        object.__setattr__(self, "c", tuple(float(v) for v in c))

    def d(self, x, y):
        return (x - y) / self.alpha

    def q_poly(self, z: np.ndarray) -> np.ndarray:
        """Q at each element of an array."""
        return exp_each(-z) * sum(cm * pow_each(z, m) for m, cm in enumerate(self.c))

    def gammas(self) -> tuple[float, ...]:
        return tuple(
            lower_incomplete_gamma_int(m, self.rho) for m in range(self.n + 1)
        )


def matern_uniform_general(kernel: MaternKernel, measure: UniformBoxMeasure) -> Embedding:
    """Half-integer Matern kernel against the uniform measure on [a, b],
    via the general formulas in Q and the incomplete gamma function."""
    n, (a,), (b,) = kernel.n, measure.lows, measure.highs
    co = MaternUniformCoefficients(n, kernel.lengthscale, a, b)
    r = b - a
    lead = math.factorial(n) / math.factorial(2 * n)

    def kp_rows(X):
        x = _column_in_box(X, a, b)
        return (
            (co.alpha / r)
            * lead
            * (2.0 * co.c[0] - co.q_poly((x - a) / co.alpha) - co.q_poly((b - x) / co.alpha))
        )

    gam = co.gammas()
    bracket = co.rho * co.c[0] - sum(cm * g for cm, g in zip(co.c, gam))
    kpp = 2.0 * co.alpha**2 / r**2 * lead * bracket

    return Embedding(
        kp_rows_fn=kp_rows,
        kpp=kpp,
        pair_id="matern/uniform_box",
        kernel=kernel,
        measure=measure,
    )


def matern_uniform_special(kernel: MaternKernel, measure: UniformBoxMeasure) -> Embedding:
    """The four explicit Matern/uniform embeddings, used as a mutual
    cross-check of the general formulas."""
    n, (a,), (b,) = kernel.n, measure.lows, measure.highs
    co = MaternUniformCoefficients(n, kernel.lengthscale, a, b)
    rho = co.rho

    def kp_rows(X):
        x = _column_in_box(X, a, b)
        u = co.d(a, x)  # (a - x) / alpha <= 0
        v = co.d(x, b)  # (x - b) / alpha <= 0
        eu, ev = exp_each(u), exp_each(v)
        if n == 0:
            return (2.0 - eu - ev) / rho
        if n == 1:
            return (4.0 - ev * (2.0 - v) - eu * (2.0 - u)) / rho
        if n == 2:
            return (
                16.0 - ev * (8.0 - 5.0 * v + v * v) - eu * (8.0 - 5.0 * u + u * u)
            ) / (3.0 * rho)
        return (
            96.0
            - ev * (48.0 - 33.0 * v + 9.0 * v * v - pow_each(v, 3))
            - eu * (48.0 - 33.0 * u + 9.0 * u * u - pow_each(u, 3))
        ) / (15.0 * rho)

    e = math.exp(-rho)
    if n == 0:
        kpp = 2.0 / rho**2 * (rho - 1.0 + e)
    elif n == 1:
        kpp = 2.0 / rho**2 * (2.0 * rho - 3.0 + e * (rho + 3.0))
    elif n == 2:
        kpp = 2.0 / (3.0 * rho**2) * (8.0 * rho - 15.0 + e * (rho**2 + 7.0 * rho + 15.0))
    else:
        kpp = (
            2.0
            / (15.0 * rho**2)
            * (3.0 * (16.0 * rho - 35.0) + e * (rho**3 + 12.0 * rho**2 + 57.0 * rho + 105.0))
        )

    return Embedding(
        kp_rows_fn=kp_rows,
        kpp=kpp,
        pair_id="matern/uniform_box",
        kernel=kernel,
        measure=measure,
    )


# --- Matern kernels, Gaussian measure --------------------------------------


def _matern_gauss_term(
    n: int, beta: float, sigma: float, x: np.ndarray, mu: float, sign: float
) -> np.ndarray:
    """One of the two exp * Phi branches of the Matern-Gauss embedding,
    at each element of x.

    sign = +1 is the branch whose Gaussian tail argument is
    (mu - beta sigma^2 - x) / sigma; sign = -1 mirrors it. Where the
    naive exponent exceeds the stability threshold the product is
    rewritten with the scaled complementary error function, whose
    combined exponent collapses to -(x - mu)^2 / (2 sigma^2) exactly.
    Each form is evaluated on its own elements only: the naive one
    overflows on the others.
    """
    if sign > 0:
        m = (mu - beta * sigma**2) - x
    else:
        m = x - (mu + beta * sigma**2)
    q = m / sigma
    if n == 0:
        p_coef, r_coef = np.ones_like(x), np.zeros_like(x)
    elif n == 1:
        p_coef, r_coef = 1.0 + beta * m, np.full_like(x, beta)
    else:
        b23 = beta**2 / 3.0
        p_coef = 1.0 + beta * m + b23 * (m * m + sigma**2)
        r_coef = beta + b23 * m
    exponent = 0.5 * beta**2 * sigma**2 + sign * beta * (x - mu)
    out = np.empty_like(x)
    # here q < 0 necessarily (a positive q forces a negative exponent)
    big = exponent > _STABLE_EXPONENT
    collapsed = exp_each(-pow_each(x[big] - mu, 2) / (2.0 * sigma**2))
    out[big] = collapsed * (
        p_coef[big] * 0.5 * erfcx(-q[big] / math.sqrt(2.0))
        + r_coef[big] * sigma / math.sqrt(2.0 * math.pi)
    )
    small = ~big
    q, p_coef, r_coef = q[small], p_coef[small], r_coef[small]
    phi = exp_each(-0.5 * q * q) / math.sqrt(2.0 * math.pi)
    out[small] = exp_each(exponent[small]) * (
        p_coef * normal_cdf(q) + r_coef * sigma * phi
    )
    return out


def matern_gauss_kp(kernel: MaternKernel, measure: GaussianMeasure) -> Embedding:
    """Matern kernel (nu in {1/2, 3/2, 5/2}) against N(mu, sigma^2):
    closed-form mean embedding. The double integral has no known
    expression and is left out (None) for :func:`embed` to estimate."""
    n, mu, sigma = kernel.n, measure.mean[0], float(measure.stds()[0])
    beta = math.sqrt(2 * n + 1) / kernel.lengthscale

    def kp_rows(X):
        x = X[:, 0]
        return _matern_gauss_term(n, beta, sigma, x, mu, +1.0) + _matern_gauss_term(
            n, beta, sigma, x, mu, -1.0
        )

    return Embedding(
        kp_rows_fn=kp_rows,
        kpp=None,
        pair_id="matern/gaussian",
        kernel=kernel,
        measure=measure,
    )


# --- Wendland kernels ------------------------------------------------------


def wendland0_uniform(kernel: WendlandKernel, measure: UniformBoxMeasure) -> Embedding:
    """Order-0 Wendland kernel against the uniform measure on [a, b]."""
    ls, (a,), (b,) = kernel.lengthscale, measure.lows, measure.highs
    r = b - a

    def kp_rows(X):
        x = _column_in_box(X, a, b)
        x2 = pow_each(x, 2)
        # whether the support [x - ls, x + ls] clears each end of the box
        clear_b, clear_a = b >= x + ls, a + ls < x
        return np.select(
            [clear_b & clear_a, clear_b, clear_a],
            [
                np.full_like(x, ls / r),
                (2 * x * (a + ls) + ls**2 - a**2 - 2 * a * ls - x2) / (2 * r * ls),
                (2 * b * (ls + x) + ls**2 - b**2 - 2 * ls * x - x2) / (2 * r * ls),
            ],
            (2 * (b * ls + b * x + a * x) - a**2 - b**2 - 2 * (a * ls + x2)) / (2 * r * ls),
        )

    # The printed branch conditions for the double integral overlap: the
    # short-support case l < r captures everything its sibling branch
    # r > l would, leaving that branch's formula (valid for wide
    # support, r < l) unreachable as written. Ordering the branches by
    # the partition {r = 2l, l < r, r < l, r = l} applies each formula
    # on the region where it reproduces direct integration of the
    # kernel; the r = 2l and r = l cases agree with their neighbours.
    if r == 2.0 * ls:
        kpp = 5.0 / 12.0
    elif ls < r:
        kpp = ls * (3.0 * r - ls) / (3.0 * r**2)
    elif r < ls:
        kpp = 1.0 - r / (3.0 * ls)
    else:
        kpp = ls * (9.0 * r - 2.0 * ls) / (3.0 * r**2) + r / (3.0 * ls) - 2.0

    return Embedding(
        kp_rows_fn=kp_rows,
        kpp=kpp,
        pair_id="wendland/uniform_box",
        kernel=kernel,
        measure=measure,
    )


def wendland_gauss_kp(kernel: WendlandKernel, measure: GaussianMeasure) -> Embedding:
    """Wendland kernel of order 0 or 2 against N(mu, sigma^2):
    closed-form mean embedding (the kernel is translation invariant, so
    a non-centered measure reduces to the centered expressions via
    x -> x - mu). The double integral is left out (None) for
    :func:`embed` to estimate.
    """
    order, ls = kernel.order, kernel.lengthscale
    mu, sigma = measure.mean[0], float(measure.stds()[0])
    s = math.sqrt(2.0) * sigma
    s2 = sigma**2

    def phi(t: np.ndarray) -> np.ndarray:
        return exp_each(-t * t / (2.0 * s2))

    def kp_rows(X):
        x = X[:, 0] - mu
        if order == 0:
            return (
                (ls - x) * erf((ls - x) / s)
                + (ls + x) * erf((ls + x) / s)
                - 2.0 * x * erf(x / s)
                + s / math.sqrt(math.pi) * (phi(ls - x) + phi(ls + x) - 2.0 * phi(x))
            ) / (2.0 * ls)
        x2 = x * x
        x3 = pow_each(x, 3)
        gauss_part = (
            (phi(x - ls) + phi(x + ls)) * (ls**3 - ls * (7.0 * s2 + 5.0 * x2))
            + 16.0 * ls * (2.0 * s2 + x2) * phi(x)
            - (phi(x + ls) - phi(x - ls)) * (ls**2 * x + 3.0 * x * (5.0 * s2 + x2))
        )
        erf_minus = (
            ls**4
            - 6.0 * ls**2 * (s2 + x2)
            + 8.0 * ls * (3.0 * s2 * x + x3)
            - 3.0 * (3.0 * s2**2 + 6.0 * s2 * x2 + x2 * x2)
        )
        erf_plus = (
            ls**4
            - 6.0 * ls**2 * (s2 + x2)
            - 8.0 * ls * (3.0 * s2 * x + x3)
            - 3.0 * (3.0 * s2**2 + 6.0 * s2 * x2 + x2 * x2)
        )
        return (
            s / math.sqrt(math.pi) * gauss_part
            + erf_minus * erf((ls - x) / s)
            + erf_plus * erf((ls + x) / s)
            + 16.0 * ls * x * (3.0 * s2 + x2) * erf(x / s)
        ) / (2.0 * ls**4)

    return Embedding(
        kp_rows_fn=kp_rows,
        kpp=None,
        pair_id="wendland/gaussian",
        kernel=kernel,
        measure=measure,
    )


# --- Fractional Brownian motion --------------------------------------------


def fbm_uniform(kernel: FbmKernel, measure: UniformBoxMeasure) -> Embedding:
    """Fractional Brownian motion kernel against the uniform measure on
    [a, b] with 0 <= a < b."""
    (a,), (b,) = measure.lows, measure.highs
    h = 2.0 * kernel.hurst + 1.0
    r = b - a

    def kp_rows(X):
        x = _column_in_box(X, a, b)
        return (
            b**h - a**h - pow_each(b - x, h) - pow_each(x - a, h)
        ) / (2.0 * h * r) + pow_each(x, h - 1.0) / 2.0

    kpp = ((h + 1.0) * (b**h - a**h) - r**h) / (h * (h + 1.0) * r)

    return Embedding(
        kp_rows_fn=kp_rows,
        kpp=kpp,
        pair_id="fbm/uniform_box",
        kernel=kernel,
        measure=measure,
    )


# --- Power series kernels ---------------------------------------------------


def powerseries_uniform(kernel: PowerSeriesKernel, measure: UniformBoxMeasure) -> Embedding:
    """Power series kernel against a uniform box: per-dimension moment
    factors (b^{alpha+1} - a^{alpha+1}) / ((alpha+1)(b - a))."""
    a = np.asarray(measure.lows)
    b = np.asarray(measure.highs)

    factors = []
    for alpha, c in kernel.terms:
        f = 1.0
        for i, ai in enumerate(alpha):
            f *= (b[i] ** (ai + 1) - a[i] ** (ai + 1)) / ((ai + 1) * (b[i] - a[i]))
        factors.append((alpha, c, f))

    def kp_rows(X):
        return _power_series_rows(X, factors)

    kpp = sum(c * f * f for _, c, f in factors)

    return Embedding(
        kp_rows_fn=kp_rows,
        kpp=kpp,
        pair_id="power_series/uniform_box",
        kernel=kernel,
        measure=measure,
    )


def powerseries_gauss(kernel: PowerSeriesKernel, measure: GaussianMeasure) -> Embedding:
    """Power series kernel against a centered diagonal Gaussian: only
    even multi-indices contribute, with moment factors
    sigma^alpha (alpha - 1)!!."""
    sig = measure.stds()

    factors = []
    for alpha, c in kernel.terms:
        if any(ai % 2 for ai in alpha):
            continue
        f = 1.0
        for i, ai in enumerate(alpha):
            f *= sig[i] ** ai * double_factorial(ai - 1)
        factors.append((alpha, c, f))

    def kp_rows(X):
        return _power_series_rows(X, factors)

    kpp = sum(c * f * f for _, c, f in factors)

    return Embedding(
        kp_rows_fn=kp_rows,
        kpp=kpp,
        pair_id="power_series/gaussian",
        kernel=kernel,
        measure=measure,
    )


def _power_series_rows(X: np.ndarray, factors) -> np.ndarray:
    """sum c x^alpha f over the (alpha, c, f) factors, at each row x."""
    total = np.zeros(len(X))
    for alpha, c, f in factors:
        total = total + c * np.prod(X ** np.asarray(alpha), axis=1) * f
    return total


# --- Sphere and periodic kernels --------------------------------------------


def sphere_embed(
    kernel: SphereSobolevKernel | SphereSmoothKernel, measure: SphereUniformMeasure
) -> Embedding:
    """Stationary kernels on the unit sphere S^2 under the uniform
    spherical measure have constant embeddings: 2/3 for the Sobolev-3/2
    kernel 2 - ||x - y||, and 1 - exp(-48) for the smooth kernel."""
    if isinstance(kernel, SphereSobolevKernel):
        const = 2.0 / 3.0
    else:
        const = 1.0 - math.exp(-48.0)

    def kp_rows(X):
        kernel._check(X)
        return np.full(len(X), const)

    return Embedding(
        kp_rows_fn=kp_rows,
        kpp=const,
        pair_id=f"{kernel.family}/sphere_uniform",
        kernel=kernel,
        measure=measure,
    )


def periodic_sobolev_embed(kernel: PeriodicSobolevKernel, measure: UniformBoxMeasure) -> Embedding:
    """Periodic Sobolev kernel of order 2r under the uniform measure on
    [0, 1]: every Fourier term integrates to zero, so both embeddings
    equal 1."""

    def kp_rows(X):
        return np.ones_like(_column_in_box(X, 0.0, 1.0))

    return Embedding(
        kp_rows_fn=kp_rows,
        kpp=1.0,
        pair_id="periodic_sobolev/uniform_box",
        kernel=kernel,
        measure=measure,
    )


# --- Empirical measures ------------------------------------------------------


def empirical_embed(kernel: Kernel, measure: EmpiricalMeasure) -> Embedding:
    """Embedding against a weighted point set: finite sums, exact."""
    pts = measure.points
    w = np.asarray(measure.weights)

    def kp_rows(X):
        out = np.empty(len(X))
        for i, row in enumerate(kernel.rows(X, pts)):
            out[i] = np.dot(w, row)
        return out

    kpp = 0.0
    for i, row in enumerate(kernel.rows(pts, pts)):
        kpp += w[i] * float(np.dot(w, row))

    return Embedding(
        kp_rows_fn=kp_rows,
        kpp=kpp,
        pair_id=f"{kernel.family}/empirical",
        kernel=kernel,
        measure=measure,
    )


# --- generic fallback and dispatch ------------------------------------------


def _column_in_box(X: np.ndarray, a: float, b: float) -> np.ndarray:
    """The one column of X, after checking that each row lies in [a, b]."""
    x = X[:, 0]
    outside = ~((a <= x) & (x <= b))
    if np.any(outside):
        raise InvalidSpecError(
            f"the embedding is defined for x in [{a}, {b}], got {float(x[outside][0])}"
        )
    return x


def numeric_embedding(
    kernel: Kernel, measure: Measure, budget: int | None = None, seed: int = 0
) -> Embedding:
    """Oracle-backed embedding for pairs without a closed form."""
    empty = Embedding(
        kp_rows_fn=None,
        kpp=None,
        pair_id=f"{kernel.family}/{measure.family}",
        kernel=kernel,
        measure=measure,
    )
    return _oracle_fill(empty, budget, seed)


def _oracle_fill(e: Embedding, budget: int | None, seed: int) -> Embedding:
    """Fill in each part a builder left out (None) from the oracle, with
    the given budget and seed: K_PP once, K_P at each point asked for,
    with one sample or rule shared by the rows of a ``kp_rows`` call."""
    kernel, measure = e.kernel, e.measure
    if e.kpp is None:
        est = oracle.estimate_kpp(kernel, measure, budget=budget, seed=seed)
        e = replace(
            e, kpp=est.value, kpp_provenance=NUMERIC_FALLBACK, kpp_stderr=est.stderr
        )
    if e.kp_rows_fn is None:

        def kp_rows(X):
            rows = oracle.estimate_kp_rows(kernel, measure, X, budget=budget, seed=seed)
            return np.array([est.value for est in rows])

        e = replace(e, kp_rows_fn=kp_rows, kp_provenance=NUMERIC_FALLBACK)
    return e


def embed(
    kernel: Kernel, measure: Measure, budget: int | None = None, seed: int = 0
) -> Embedding:
    """Embedding for a kernel/measure pair: closed form when one is
    known, otherwise an oracle-backed numeric fallback with the given
    budget and seed."""
    if not isinstance(kernel, Kernel):
        raise InvalidSpecError(f"not a kernel: {kernel!r}")
    if not isinstance(measure, Measure):
        raise InvalidSpecError(f"not a measure: {measure!r}")
    if kernel.dim is not None and kernel.dim != measure.dim:
        raise InvalidSpecError(
            f"kernel dimension {kernel.dim} does not match measure dimension "
            f"{measure.dim}"
        )

    from . import combinators, stein

    if isinstance(kernel, stein.SteinKernel) and kernel.is_target(measure):
        return stein.stein_embed(kernel, measure)
    if isinstance(measure, ScoreMeasure):
        raise UnsupportedPairError(
            "score-only measures pair only with a Stein kernel targeting them"
        )
    if isinstance(kernel, MatrixValuedKernel):
        return combinators.matrix_valued_embed(kernel, measure, budget, seed)
    if isinstance(kernel, SumKernel):
        return combinators.sum_embed(kernel, measure, budget, seed)
    if isinstance(measure, MixtureMeasure):
        return combinators.mixture_embed(kernel, measure, budget, seed)
    if isinstance(measure, PushforwardMeasure):
        recognized = _recognize_pushforward(measure)
        if recognized is not None:
            return embed(kernel, recognized, budget=budget, seed=seed)
    if isinstance(kernel, ComposedKernel):
        return combinators.pushforward_embed(kernel, measure, budget, seed)
    if isinstance(kernel, ProductKernel):
        factors = combinators.split_product_measure(measure, kernel.block_dims)
        if factors is not None:
            return combinators.product_embed(kernel, measure, factors, budget, seed)
    if isinstance(measure, EmpiricalMeasure):
        return empirical_embed(kernel, measure)

    pair = _closed_form_pair(kernel, measure)
    if pair is None:
        return numeric_embedding(kernel, measure, budget=budget, seed=seed)
    return _oracle_fill(pair, budget, seed)


def _closed_form_pair(kernel: Kernel, measure: Measure) -> Embedding | None:
    """The closed form of a pair whose dimensions :func:`embed` has
    matched, or None when none is known. Each arm is the condition under
    which its builder's formulas hold."""
    box = isinstance(measure, UniformBoxMeasure)
    gauss = isinstance(measure, GaussianMeasure)
    one_d = measure.dim == 1
    if isinstance(kernel, GaussianKernel) and box and kernel.diagonal:
        return gauss_uniform(kernel, measure)
    if isinstance(kernel, GaussianKernel) and gauss:
        return gauss_gauss(kernel, measure)
    if isinstance(kernel, MaternKernel) and box and one_d:
        return matern_uniform_general(kernel, measure)
    if isinstance(kernel, MaternKernel) and gauss and one_d and kernel.n <= 2:
        return matern_gauss_kp(kernel, measure)
    if isinstance(kernel, WendlandKernel) and box and one_d and kernel.order == 0:
        return wendland0_uniform(kernel, measure)
    if isinstance(kernel, WendlandKernel) and gauss and one_d and kernel.order in (0, 2):
        return wendland_gauss_kp(kernel, measure)
    if isinstance(kernel, FbmKernel):
        if not box:
            raise UnsupportedPairError("fbm kernels pair with uniform boxes only")
        (a,), (b,) = measure.lows, measure.highs
        if a < 0:
            raise InvalidSpecError("fbm requires a box within [0, inf)")
        if kernel.domain is not None and (a < kernel.domain[0] or b > kernel.domain[1]):
            raise InvalidSpecError("box exceeds the kernel's declared domain")
        return fbm_uniform(kernel, measure)
    if isinstance(kernel, PowerSeriesKernel) and box:
        return powerseries_uniform(kernel, measure)
    if (
        isinstance(kernel, PowerSeriesKernel)
        and gauss
        and measure.diagonal
        and all(m == 0.0 for m in measure.mean)
    ):
        return powerseries_gauss(kernel, measure)
    if isinstance(kernel, (SphereSobolevKernel, SphereSmoothKernel)):
        if not isinstance(measure, SphereUniformMeasure):
            raise UnsupportedPairError(
                "sphere kernels pair with the uniform measure on S^2 only"
            )
        return sphere_embed(kernel, measure)
    if isinstance(kernel, PeriodicSobolevKernel) and box:
        if measure.lows[0] == 0.0 and measure.highs[0] == 1.0:
            return periodic_sobolev_embed(kernel, measure)
        if measure.lows[0] < 0.0 or measure.highs[0] > 1.0:
            raise InvalidSpecError("periodic Sobolev kernels live on [0, 1]")
    return None


def _recognize_pushforward(measure: PushforwardMeasure) -> Measure | None:
    """Rewrite the image of a simple measure under a recognizable map
    as an ordinary measure, enabling closed-form dispatch."""
    from .kernels import AffineMapSpec

    base = measure.base
    if isinstance(base, PushforwardMeasure):
        inner = _recognize_pushforward(base)
        if inner is None:
            return None
        base = inner
    m = measure.map
    if isinstance(m, AffineMapSpec):
        s = np.asarray(m.scale)
        t = np.asarray(m.shift)
        if isinstance(base, UniformBoxMeasure):
            lo = s * np.asarray(base.lows) + t
            hi = s * np.asarray(base.highs) + t
            return UniformBoxMeasure(
                tuple(np.minimum(lo, hi)), tuple(np.maximum(lo, hi))
            )
        if isinstance(base, GaussianMeasure):
            mean = s * np.asarray(base.mean) + t
            if base.diagonal:
                cov = np.asarray(base.cov_diag) * np.broadcast_to(s, mean.shape) ** 2
                return GaussianMeasure(tuple(mean), cov)
            sv = np.broadcast_to(s, mean.shape)
            return GaussianMeasure(tuple(mean), np.asarray(base.cov) * np.outer(sv, sv))
        return None
    if m.name == "normal_icdf" and isinstance(base, UniformBoxMeasure):
        if all(v == 0.0 for v in base.lows) and all(v == 1.0 for v in base.highs):
            return GaussianMeasure(
                tuple(0.0 for _ in range(base.dim)), np.ones(base.dim)
            )
    return None
