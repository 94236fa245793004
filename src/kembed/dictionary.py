"""Closed-form kernel mean embeddings, and the rule table that answers
every kernel/measure pair.

An :class:`Embedding` bundles the single integral K_P of a kernel
against a measure, stated once on the rows of an array (``kp_rows``,
with ``kp_at`` its one-row case), with the double integral ``kpp``,
tagged with per-part provenance: ``closed_form`` when an exact
expression exists, ``numeric_fallback`` when the value is produced by
the quadrature or Monte Carlo oracle. Every rule is declared once, with
``_rule`` or, for a closed form, ``_closed_form``: a kernel type, a
measure type and a condition. Called outside its condition, a rule
raises UnsupportedPairError. :func:`embed` answers a pair with the
first rule of the ordered table ``_rules()`` whose condition holds (a
Stein kernel under its target, the combinators, the empirical sum, then
the closed forms), and with the oracle when none does. A closed form
gives both parts, so its provenance is all closed form. A stationary
kernel phi(x - y) integrated against independent Gaussians X ~ P and
Y ~ Q is K_D(0), D = N(mu_P - mu_Q, Sigma_P + Sigma_Q) the law of
X - Y (the convolution view of Nishiyama & Fukumizu, JMLR 2016):
:func:`stationary_cross_kpq` reads every such cross term from the
closed form of K_D, and :func:`cross_kpq` is the one rule for every
exact cross term that mixtures and ``mmd2`` use. A stationary kernel
under U[a, b] in 1-d has K_P(x) = (F(x - a) - F(x - b)) / (b - a), F
the odd antiderivative of phi, at every x on the line: only the
kernel's own domain bounds x.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
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
    SphereSmoothKernel,
    SphereSobolevKernel,
    WendlandKernel,
    _finite_points,
    _floats,
    _MATERN_ORDERS,
    _matern_profile,
    as_point,
)
from .measures import (
    EmpiricalMeasure,
    GaussianMeasure,
    Measure,
    PushforwardMeasure,
    ScoreMeasure,
    SphereUniformMeasure,
    UniformBoxMeasure,
)
from .specfun import (
    double_factorial,
    erf,
    erfc,
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
    "stationary_cross_kpq",
    "cross_kpq",
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

    ``pair_id`` names the rule that built it, "kernel family/measure
    family" unless the builder says otherwise.

    ``kp_rows_fn`` states K_P once, on the rows of a finite (n, d) array
    with d the measure's dimension: it returns an array of n values, or
    of n k x k matrices for a matrix-valued kernel, and raises
    InvalidSpecError for a row outside its formula's domain, with the
    message ``kp_at`` gives for the first such row."""

    kp_rows_fn: Callable[[np.ndarray], np.ndarray]
    kpp: object
    kernel: Kernel
    measure: Measure
    pair_id: str = ""
    kp_provenance: str = CLOSED_FORM
    kpp_provenance: str = CLOSED_FORM
    kpp_stderr: float = 0.0

    def __post_init__(self):
        if not self.pair_id:
            object.__setattr__(self, "pair_id", f"{self.kernel.family}/{self.measure.family}")

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
        X = _floats(X)
        d = self.measure.dim
        return self.kp_rows_fn(_finite_points(X.reshape(0, d) if X.size == 0 else X, d))

    @property
    def provenance(self) -> str:
        if self.kp_provenance == CLOSED_FORM and self.kpp_provenance == CLOSED_FORM:
            return CLOSED_FORM
        return NUMERIC_FALLBACK


def _check_pair(kernel: Kernel, measure: Measure) -> None:
    """Raise InvalidSpecError unless the pair is a kernel and a measure of
    matching dimensions."""
    if not isinstance(kernel, Kernel):
        raise InvalidSpecError(f"not a kernel: {kernel!r}")
    if not isinstance(measure, Measure):
        raise InvalidSpecError(f"not a measure: {measure!r}")
    if kernel.dim is not None and kernel.dim != measure.dim:
        raise InvalidSpecError(
            f"kernel dimension {kernel.dim} does not match measure dimension "
            f"{measure.dim}"
        )


def _rule(kernel_type, measure_type, when=None):
    """Declare a rule of :func:`embed`'s table and the condition under
    which it gives the pair's embedding: a kernel and a measure of these
    types for which ``when(kernel, measure)``, if given, holds. ``when``
    may return what the rule needs of the pair, or raise a typed error
    for a pair that no rule covers. The builder is ``build(kernel,
    measure, held, budget, seed)``, ``held`` the condition's value. The
    declared function checks the pair and the condition and returns the
    builder's :class:`Embedding`; its ``holds`` is the condition and its
    ``build`` the builder, which dispatch calls once it has evaluated
    the condition."""

    def holds(kernel, measure):
        if isinstance(kernel, kernel_type) and isinstance(measure, measure_type):
            return True if when is None else when(kernel, measure)
        return False

    def declare(build):
        @functools.wraps(build)
        def rule(kernel, measure, *, budget=None, seed=0):
            _check_pair(kernel, measure)
            held = holds(kernel, measure)
            if not held:
                raise UnsupportedPairError(
                    f"{build.__name__} does not hold for the pair "
                    f"{kernel.family}/{measure.family}"
                )
            return build(kernel, measure, held, budget, seed)

        rule.holds, rule.build = holds, build
        del rule.__wrapped__  # help() shows the rule's signature, not the builder's
        return rule

    return declare


def _closed_form(kernel_type, measure_type, when=None):
    """Declare a closed-form rule: its builder takes the kernel and the
    measure and returns ``(kp_rows, kpp)``, which the rule wraps in the
    pair's :class:`Embedding`."""

    def declare(build):
        @functools.wraps(build)
        def embedding(kernel, measure, held, budget, seed):
            kp_rows, kpp = build(kernel, measure)
            return Embedding(kp_rows_fn=kp_rows, kpp=kpp, kernel=kernel, measure=measure)

        return _rule(kernel_type, measure_type, when)(embedding)

    return declare


# --- Gaussian kernel ------------------------------------------------------


@_closed_form(GaussianKernel, UniformBoxMeasure, lambda k, m: k.diagonal)
def gauss_uniform(kernel: GaussianKernel, measure: UniformBoxMeasure):
    """Gaussian kernel with diagonal lengthscales against a uniform box.

    Both integrals factorize over dimensions into erf differences; a
    coordinate outside the box takes erfc differences on the far side,
    which keep K_P's relative accuracy in the tails.
    """
    ls = np.asarray(kernel.lengthscales)
    a = np.asarray(measure.lows)
    b = np.asarray(measure.highs)
    r = b - a
    s = ls * math.sqrt(2.0)

    def kp_rows(X):
        lo, hi = (a - X) / s, (b - X) / s
        diff = erf(hi) - erf(lo)
        # outside [a, b] both erf terms near the same +-1 and cancel; a
        # coordinate there takes the difference of erfc on the far side,
        # where both terms are small
        below, above = lo > 0.0, hi < 0.0
        if below.any():
            diff[below] = erfc(lo[below]) - erfc(hi[below])
        if above.any():
            diff[above] = erfc(-hi[above]) - erfc(-lo[above])
        total = 1.0
        for i in range(measure.dim):
            total = total * (math.sqrt(math.pi / 2.0) * (ls[i] / r[i]) * diff[:, i])
        return total

    kpp = 1.0
    for i in range(measure.dim):
        # expm1 keeps the bracket accurate when r << l
        bracket = ls[i] * math.sqrt(2.0 / math.pi) * math.expm1(
            -r[i] ** 2 / (2.0 * ls[i] ** 2)
        ) + r[i] * erf(r[i] / s[i])
        kpp *= math.sqrt(2.0 * math.pi) * (ls[i] / r[i] ** 2) * bracket

    return kp_rows, kpp


@_closed_form(GaussianKernel, GaussianMeasure)
def gauss_gauss(kernel: GaussianKernel, measure: GaussianMeasure):
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

    return kp_rows, kpp


def _gauss_difference(p: GaussianMeasure, q: GaussianMeasure) -> GaussianMeasure:
    """The law N(mu_P - mu_Q, Sigma_P + Sigma_Q) of X - Y for independent
    X ~ P and Y ~ Q; it is stored diagonal when both covariances are."""
    if p.dim != q.dim:
        raise InvalidSpecError("dimension mismatch between kernel and measures")
    return GaussianMeasure(tuple(np.asarray(p.mean) - np.asarray(q.mean)), p.cov + q.cov)


def stationary_cross_kpq(kernel: Kernel, p: GaussianMeasure, q: GaussianMeasure) -> float | None:
    """Double integral of a stationary kernel K(x, y) = phi(x - y)
    against two Gaussian measures, one in each argument: E phi(X - Y) =
    K_D(0) for D the law of X - Y. None when the kernel is not
    stationary or K_D has no closed form."""
    d = _gauss_difference(p, q)
    if kernel.dim is not None and kernel.dim != d.dim:
        raise InvalidSpecError("dimension mismatch between kernel and measures")
    pair = _first_rule(kernel, d) if kernel.stationary else None
    if pair is None:
        return None
    return float(pair.kp_rows(np.zeros((1, d.dim)))[0])


def cross_kpq(p: Embedding, q: Embedding) -> tuple[float, float, str] | None:
    """E K(X, Y) for independent X ~ P and Y ~ Q, two embeddings of one
    kernel, as (value, stderr, provenance) from the first exact rule, or
    None: an empirical side is the other embedding's K_P summed over its
    atoms; a composed kernel whose images of P and Q are recognized is
    its base kernel on the images; a stationary kernel against two
    Gaussians is :func:`stationary_cross_kpq`. The empirical rule comes
    first: the other embedding's K_P is read at the atoms themselves,
    not at their image under a composed kernel's map."""
    kernel, mp, mq = p.kernel, p.measure, q.measure
    for atoms, other in ((mq, p), (mp, q)):
        if isinstance(atoms, EmpiricalMeasure):
            value = float(np.dot(atoms.weights, other.kp_rows(atoms.points)))
            return value, 0.0, other.kp_provenance
    if isinstance(kernel, ComposedKernel):
        images = [_recognize_pushforward(PushforwardMeasure(m, kernel.map)) for m in (mp, mq)]
        if None not in images:
            kernel, (mp, mq) = kernel.base, images
    if isinstance(mp, GaussianMeasure) and isinstance(mq, GaussianMeasure):
        value = stationary_cross_kpq(kernel, mp, mq)
        if value is not None:
            return value, 0.0, CLOSED_FORM
    return None


# --- Matern kernels, uniform measure --------------------------------------


def _edge_signs(x: np.ndarray, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """The signs of x - a and of b - x, taken +1 at the edges, so that
    both are +1 in the box [a, b]."""
    return np.where(x >= a, 1.0, -1.0), np.where(x <= b, 1.0, -1.0)


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
        if self.n not in _MATERN_ORDERS:
            raise InvalidSpecError(
                f"n must be in {_MATERN_ORDERS[0]}..{_MATERN_ORDERS[-1]}, got {self.n}"
            )
        if self.lengthscale <= 0:
            raise InvalidSpecError("lengthscale must be positive")
        if not self.b > self.a:
            raise InvalidSpecError("need b > a")
        alpha = self.lengthscale / math.sqrt(2 * self.n + 1)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "rho", (self.b - self.a) / alpha)
        # c_m = ((2n)!/n!) sum_(k >= m) a_k k!/m!, from the profile's a_k
        a = _matern_profile(self.n)
        lead = math.factorial(2 * self.n) // math.factorial(self.n)
        c = (
            lead * sum(a[k] * math.factorial(k) for k in range(m, self.n + 1)) / math.factorial(m)
            for m in range(self.n + 1)
        )
        object.__setattr__(self, "c", tuple(map(float, c)))

    def q_poly(self, z: np.ndarray) -> np.ndarray:
        """Q at each element of an array."""
        return exp_each(-z) * sum(cm * pow_each(z, m) for m, cm in enumerate(self.c))

    def gammas(self) -> tuple[float, ...]:
        return tuple(
            lower_incomplete_gamma_int(m, self.rho) for m in range(self.n + 1)
        )


@_closed_form(MaternKernel, UniformBoxMeasure, lambda k, m: m.dim == 1)
def matern_uniform_general(kernel: MaternKernel, measure: UniformBoxMeasure):
    """Half-integer Matern kernel against the uniform measure on [a, b],
    via the general formulas in Q and the incomplete gamma function:
    F(t) = sign(t) alpha n!/(2n)! (c_0 - Q(|t| / alpha)), defined on the
    whole line."""
    n, (a,), (b,) = kernel.n, measure.lows, measure.highs
    co = MaternUniformCoefficients(n, kernel.lengthscale, a, b)
    r = b - a
    lead = math.factorial(n) / math.factorial(2 * n)

    def kp_rows(X):
        x = X[:, 0]
        sa, sb = _edge_signs(x, a, b)
        return (
            (co.alpha / r)
            * lead
            * (
                co.c[0] * (sa + sb)
                - sa * co.q_poly(np.abs(x - a) / co.alpha)
                - sb * co.q_poly(np.abs(b - x) / co.alpha)
            )
        )

    gam = co.gammas()
    bracket = co.rho * co.c[0] - sum(cm * g for cm, g in zip(co.c, gam))
    kpp = 2.0 * co.alpha**2 / r**2 * lead * bracket

    return kp_rows, kpp


@_closed_form(MaternKernel, UniformBoxMeasure, lambda k, m: m.dim == 1)
def matern_uniform_special(kernel: MaternKernel, measure: UniformBoxMeasure):
    """The four explicit Matern/uniform embeddings, used as a mutual
    cross-check of the general formulas, on the whole line as well."""
    n, (a,), (b,) = kernel.n, measure.lows, measure.highs
    co = MaternUniformCoefficients(n, kernel.lengthscale, a, b)
    rho = co.rho

    def kp_rows(X):
        x = X[:, 0]
        sa, sb = _edge_signs(x, a, b)
        u = -np.abs(x - a) / co.alpha  # (a - x) / alpha in the box
        v = -np.abs(b - x) / co.alpha  # (x - b) / alpha in the box
        eu, ev = sa * exp_each(u), sb * exp_each(v)
        if n == 0:
            return (sa + sb - eu - ev) / rho
        if n == 1:
            return (2.0 * (sa + sb) - ev * (2.0 - v) - eu * (2.0 - u)) / rho
        if n == 2:
            return (
                8.0 * (sa + sb) - ev * (8.0 - 5.0 * v + v * v) - eu * (8.0 - 5.0 * u + u * u)
            ) / (3.0 * rho)
        return (
            48.0 * (sa + sb)
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

    return kp_rows, kpp


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

    The polynomial factors come from the Matern profile's exact a_k:
    the term a_k (beta t)^k integrates to P_k Phi(q) + R_k sigma phi(q),
    where P_k and R_k follow the truncated-Gaussian moment recurrence
    M_k = m M_(k-1) + (k-1) sigma^2 M_(k-2) from P_0 = 1, P_1 = m,
    R_0 = 0, R_1 = 1. The recurrence cancels as n grows: at n = 3 it is
    3e-8 relative from 40-digit values at sigma/l = 16 (1e-6 at 32),
    which is why :func:`matern_gauss_kp` stops at n = 2.
    """
    if sign > 0:
        m = (mu - beta * sigma**2) - x
    else:
        m = x - (mu + beta * sigma**2)
    q = m / sigma
    P, R = [1.0, m], [0.0, 1.0]
    for k in range(2, n + 1):
        P.append(m * P[k - 1] + (k - 1) * sigma**2 * P[k - 2])
        R.append(m * R[k - 1] + (k - 1) * sigma**2 * R[k - 2])
    p_coef, r_coef = np.full_like(x, P[0]), np.full_like(x, R[0])
    for k, a in enumerate(_matern_profile(n)[1:], start=1):
        # beta^k times the exact a_k, divided last: beta**2 / 3.0 at k = 2
        coef = beta**k * a.numerator / a.denominator
        p_coef, r_coef = p_coef + coef * P[k], r_coef + coef * R[k]
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


@_closed_form(MaternKernel, GaussianMeasure, lambda k, m: m.dim == 1 and k.n <= 2)
def matern_gauss_kp(kernel: MaternKernel, measure: GaussianMeasure):
    """Matern kernel (nu in {1/2, 3/2, 5/2}) against N(mu, sigma^2). The
    double integral is the mean embedding at 0 under N(0, 2 sigma^2),
    the law of the difference of two independent draws."""
    n, mu, sigma = kernel.n, measure.mean[0], float(measure.stds()[0])
    beta = math.sqrt(2 * n + 1) / kernel.lengthscale

    def kp(x, mu, sigma):
        return _matern_gauss_term(n, beta, sigma, x, mu, +1.0) + _matern_gauss_term(
            n, beta, sigma, x, mu, -1.0
        )

    kpp = float(kp(np.zeros(1), 0.0, math.sqrt(2.0 * measure.cov_diag[0]))[0])
    return lambda X: kp(X[:, 0], mu, sigma), kpp


# --- Wendland kernels ------------------------------------------------------


@_closed_form(WendlandKernel, UniformBoxMeasure, lambda k, m: m.dim == 1 and k.order == 0)
def wendland0_uniform(kernel: WendlandKernel, measure: UniformBoxMeasure):
    """Order-0 Wendland kernel against the uniform measure on [a, b], on
    the whole line: F(t) = sign(t) (m - m^2 / 2l), m = min(|t|, l)."""
    ls, (a,), (b,) = kernel.lengthscale, measure.lows, measure.highs
    r = b - a

    def area(t):
        """|F(t)|, the integral of the profile over [0, |t|]."""
        m = np.minimum(np.abs(t), ls)
        return m - m * m / (2.0 * ls)

    def kp_rows(X):
        x = X[:, 0]
        sa, sb = _edge_signs(x, a, b)
        return (sa * area(x - a) + sb * area(b - x)) / r

    # 2 G(r) / r^2, with G the even antiderivative of F, G(0) = 0
    kpp = 1.0 - r / (3.0 * ls) if r <= ls else ls * (3.0 * r - ls) / (3.0 * r**2)

    return kp_rows, kpp


@_closed_form(WendlandKernel, GaussianMeasure, lambda k, m: m.dim == 1 and k.order in (0, 2))
def wendland_gauss_kp(kernel: WendlandKernel, measure: GaussianMeasure):
    """Wendland kernel of order 0 or 2 against N(mu, sigma^2). The kernel
    is translation invariant, so a non-centered measure reduces to the
    centered expressions via x -> x - mu, and the double integral is the
    mean embedding at 0 under N(0, 2 sigma^2), the law of the difference
    of two independent draws.
    """
    order, ls = kernel.order, kernel.lengthscale

    def kp(x: np.ndarray, sigma: float) -> np.ndarray:
        """The embedding under N(0, sigma^2) at each element of x."""
        s = math.sqrt(2.0) * sigma
        s2 = sigma**2

        def phi(t: np.ndarray) -> np.ndarray:
            return exp_each(-t * t / (2.0 * s2))

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

    mu, sigma = measure.mean[0], float(measure.stds()[0])
    kpp = float(kp(np.zeros(1), math.sqrt(2.0 * measure.cov_diag[0]))[0])
    return lambda X: kp(X[:, 0] - mu, sigma), kpp


# --- Fractional Brownian motion --------------------------------------------


def _fbm_box(kernel: FbmKernel, measure: Measure) -> bool:
    if not isinstance(measure, UniformBoxMeasure):
        raise UnsupportedPairError("fbm kernels pair with uniform boxes only")
    (a,), (b,) = measure.lows, measure.highs
    if a < 0:
        raise InvalidSpecError("fbm requires a box within [0, inf)")
    if kernel.domain is not None and (a < kernel.domain[0] or b > kernel.domain[1]):
        raise InvalidSpecError("box exceeds the kernel's declared domain")
    return True


@_closed_form(FbmKernel, Measure, _fbm_box)
def fbm_uniform(kernel: FbmKernel, measure: UniformBoxMeasure):
    """Fractional Brownian motion kernel against the uniform measure on
    [a, b] with 0 <= a < b, at any x in the kernel's domain: the
    |x - y|^{2H} term integrates to (F(x - a) - F(x - b)), F(t) =
    sign(t) |t|^{2H+1} / (2H+1)."""
    (a,), (b,) = measure.lows, measure.highs
    h = 2.0 * kernel.hurst + 1.0
    r = b - a

    def kp_rows(X):
        kernel._check(X)
        x = X[:, 0]
        sa, sb = _edge_signs(x, a, b)
        return (
            b**h - a**h - sb * pow_each(np.abs(b - x), h) - sa * pow_each(np.abs(x - a), h)
        ) / (2.0 * h * r) + pow_each(x, h - 1.0) / 2.0

    kpp = ((h + 1.0) * (b**h - a**h) - r**h) / (h * (h + 1.0) * r)

    return kp_rows, kpp


# --- Power series kernels ---------------------------------------------------


@_closed_form(PowerSeriesKernel, UniformBoxMeasure)
def powerseries_uniform(kernel: PowerSeriesKernel, measure: UniformBoxMeasure):
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

    return kp_rows, kpp


@_closed_form(
    PowerSeriesKernel, GaussianMeasure, lambda k, m: m.diagonal and all(v == 0.0 for v in m.mean)
)
def powerseries_gauss(kernel: PowerSeriesKernel, measure: GaussianMeasure):
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

    return kp_rows, kpp


def _power_series_rows(X: np.ndarray, factors) -> np.ndarray:
    """sum c x^alpha f over the (alpha, c, f) factors, at each row x."""
    total = np.zeros(len(X))
    for alpha, c, f in factors:
        total = total + c * np.prod(X ** np.asarray(alpha), axis=1) * f
    return total


# --- Sphere and periodic kernels --------------------------------------------


def _sphere_uniform(kernel: Kernel, measure: Measure) -> bool:
    if not isinstance(measure, SphereUniformMeasure):
        raise UnsupportedPairError("sphere kernels pair with the uniform measure on S^2 only")
    return True


@_closed_form((SphereSobolevKernel, SphereSmoothKernel), Measure, _sphere_uniform)
def sphere_embed(kernel: SphereSobolevKernel | SphereSmoothKernel, measure: SphereUniformMeasure):
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

    return kp_rows, const


def _unit_interval(
    kernel: PeriodicSobolevKernel, measure: UniformBoxMeasure | GaussianMeasure
) -> bool:
    """True on [0, 1] itself; a box within [0, 1] is left to the oracle.
    A Gaussian puts mass outside [0, 1], where the kernel is undefined."""
    if isinstance(measure, GaussianMeasure):
        raise InvalidSpecError(
            f"periodic Sobolev kernels live on [0, 1]; a {measure.family} "
            "measure puts mass outside it"
        )
    if measure.lows[0] < 0.0 or measure.highs[0] > 1.0:
        raise InvalidSpecError("periodic Sobolev kernels live on [0, 1]")
    return measure.lows[0] == 0.0 and measure.highs[0] == 1.0


@_closed_form(PeriodicSobolevKernel, (UniformBoxMeasure, GaussianMeasure), _unit_interval)
def periodic_sobolev_embed(kernel: PeriodicSobolevKernel, measure: UniformBoxMeasure):
    """Periodic Sobolev kernel of order 2r under the uniform measure on
    [0, 1]: every Fourier term integrates to zero, so both embeddings
    equal 1 on the kernel's domain [0, 1]."""

    def kp_rows(X):
        kernel._check(X)
        return np.ones(len(X))

    return kp_rows, 1.0


# --- Empirical measures ------------------------------------------------------


@_closed_form(Kernel, EmpiricalMeasure, lambda k, m: not isinstance(k, MatrixValuedKernel))
def empirical_embed(kernel: Kernel, measure: EmpiricalMeasure):
    """Embedding against a weighted point set: finite sums, exact."""
    pts = measure.points
    w = np.asarray(measure.weights)

    def kp_rows(X):
        out = np.empty(len(X))
        for i, row in enumerate(kernel.rows(X, pts)):
            out[i] = np.dot(w, row)
        return out

    return kp_rows, kernel.gram_form(pts, w)


# --- generic fallback and dispatch ------------------------------------------


def numeric_embedding(
    kernel: Kernel, measure: Measure, budget: int | None = None, seed: int = 0
) -> Embedding:
    """Oracle-backed embedding for pairs without a closed form, with the
    given budget and seed: K_PP once, K_P at each point asked for, with
    one sample or rule shared by the rows of a ``kp_rows`` call."""
    est = oracle.estimate_kpp(kernel, measure, budget=budget, seed=seed)

    def kp_rows(X):
        rows = oracle.estimate_kp_rows(kernel, measure, X, budget=budget, seed=seed)
        return np.array([e.value for e in rows])

    return Embedding(
        kp_rows_fn=kp_rows,
        kpp=est.value,
        kernel=kernel,
        measure=measure,
        kp_provenance=NUMERIC_FALLBACK,
        kpp_provenance=NUMERIC_FALLBACK,
        kpp_stderr=est.stderr,
    )


def embed(
    kernel: Kernel, measure: Measure, budget: int | None = None, seed: int = 0
) -> Embedding:
    """Embedding for a kernel/measure pair: that of the first rule whose
    condition holds, otherwise an oracle-backed numeric fallback with
    the given budget and seed."""
    _check_pair(kernel, measure)
    found = _first_rule(kernel, measure, budget, seed)
    return numeric_embedding(kernel, measure, budget=budget, seed=seed) if found is None else found


def _first_rule(
    kernel: Kernel, measure: Measure, budget: int | None = None, seed: int = 0
) -> Embedding | None:
    """The embedding of the first rule whose condition holds for the
    pair, evaluated once, or None when none does."""
    for rule in _rules():
        held = rule.holds(kernel, measure)
        if held:
            return rule.build(kernel, measure, held, budget, seed)
    return None


@functools.cache
def _rules() -> tuple:
    """Every rule, in the order :func:`embed` tries their conditions: a
    Stein kernel under its target, the combinators that take a pair
    apart, the empirical sum, then the dictionary's closed forms. Built
    on the first call, since the combinators import this module, and
    kept: a wrapper later installed over a module's name does not change
    dispatch."""
    from . import combinators, stein

    return (
        stein.stein_embed,
        _score_only,
        combinators.matrix_valued_embed,
        combinators.sum_embed,
        combinators.mixture_embed,
        _recognized_pushforward,
        empirical_embed,
        combinators.pushforward_embed,
        combinators.product_embed,
        gauss_uniform,
        gauss_gauss,
        matern_uniform_general,
        matern_gauss_kp,
        wendland0_uniform,
        wendland_gauss_kp,
        fbm_uniform,
        powerseries_uniform,
        powerseries_gauss,
        sphere_embed,
        periodic_sobolev_embed,
    )


@_rule(Kernel, ScoreMeasure)
def _score_only(kernel: Kernel, measure: ScoreMeasure, _held, budget, seed):
    """A score-only measure has no embedding but a Stein kernel's."""
    raise UnsupportedPairError(
        "score-only measures pair only with a Stein kernel targeting them"
    )


@_rule(Kernel, PushforwardMeasure, lambda k, m: _recognize_pushforward(m))
def _recognized_pushforward(kernel: Kernel, measure: PushforwardMeasure, image, budget, seed):
    """A pushforward recognized as an ordinary measure is embedded as
    that measure."""
    return embed(kernel, image, budget=budget, seed=seed)


def _recognize_pushforward(measure: PushforwardMeasure) -> Measure | None:
    """Rewrite the image of a simple measure under a recognizable map
    as an ordinary measure, enabling closed-form dispatch. The image of
    an empirical measure under any map is its mapped atoms, with the
    same weights."""
    from .kernels import AffineMapSpec, NormalICDFMapSpec

    base = measure.base
    if isinstance(base, PushforwardMeasure):
        inner = _recognize_pushforward(base)
        if inner is None:
            return None
        base = inner
    m = measure.map
    if isinstance(base, EmpiricalMeasure):
        return EmpiricalMeasure(_finite_points(m(base.points), base.dim), base.weights)
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
    if isinstance(m, NormalICDFMapSpec) and isinstance(base, UniformBoxMeasure):
        if all(v == 0.0 for v in base.lows) and all(v == 1.0 for v in base.highs):
            return GaussianMeasure(
                tuple(0.0 for _ in range(base.dim)), np.ones(base.dim)
            )
    return None
