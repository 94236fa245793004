"""Independent numerical estimation of kernel mean embeddings.

This module never consults the closed forms it is used to verify. It
integrates kernels directly: Gauss-Legendre panels for bounded boxes,
Gauss-Hermite for analytic kernels under Gaussian measures, randomized
quasi-Monte Carlo rules for the other single integrals over boxes,
Gaussians of two or more dimensions and spheres, and seeded Monte Carlo
(plain mean for single integrals, the diagonal-excluding U-statistic
with jackknife error bars for double integrals) everywhere else.

Kernels with absolute-value kinks are integrated on panels split at the
kink abscissas the kernel reports (``Kernel.smooth``, ``inner_breaks``,
``outer_breaks``), so each panel sees an analytic integrand; fractional
power terms additionally get geometrically graded panels toward the
singular point. Gaussian measures paired with kinked kernels use
Legendre panels on [mu - 12 sigma, mu + 12 sigma] (the truncated tail
mass is ~1e-32, far below every tolerance used here) because Hermite
quadrature converges only polynomially on non-smooth integrands; K_P
at an x more than 10 sigma from the mean takes a window grown to cover
x, graded toward it.

A randomized rule averages the kernel over ``REPLICATES`` independent
randomizations of one low-discrepancy point set (Cranley & Patterson
1976; L'Ecuyer & Lemieux 2000). Each replicate mean is unbiased, so the
estimate is their mean and its stderr their standard deviation over
sqrt(R), with R - 1 degrees of freedom (``OracleEstimate.band``). Boxes
take a rank-1 lattice under a uniform random shift and the tent map
u -> 1 - |2u - 1| (Hickernell 2002): the Fibonacci lattice in 2-d, and
a component-by-component generating vector in 3 or more (Nuyens & Cools
2006). Gaussians take the same lattice through ``normal_icdf`` and the
Cholesky factor. Spheres take a spherical Fibonacci set on S^2
(Swinbank & Purser 2006), equispaced angles on S^1, under a Haar-random
orthogonal matrix (Mezzadri 2007). Mixtures, pushforwards and an
explicit ``method="monte_carlo"`` keep plain Monte Carlo, and so does
every double integral.

Both integrals take their deterministic rules from one builder per
measure and method: the double integral runs the single integral's rule
for the inner variable at each node of a rule for the outer one.

Nodes, lattices and point sets are computed on first use and cached, by
Newton iteration on the orthogonal-polynomial recurrences and by the
searches below; nothing is built at import, and there are no external
tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import InvalidSpecError, UnsupportedPairError
from .kernels import Kernel, MatrixValuedKernel, as_point
from .measures import (
    GaussianMeasure,
    Measure,
    ScoreMeasure,
    SphereUniformMeasure,
    UniformBoxMeasure,
    make_generator,
)
from .specfun import normal_icdf

__all__ = [
    "OracleEstimate",
    "estimate_kp",
    "estimate_kp_rows",
    "estimate_kpp",
    "estimate_mean",
    "gauss_legendre_nodes",
    "gauss_hermite_nodes",
]

DEFAULT_QUAD_NODES = 200
DEFAULT_MC_BUDGET = 10**6
# randomized rules: R replicates of a 4 096-point set by default; a
# budget counts kernel evaluations, R times the points of one set
REPLICATES = 16
DEFAULT_RULE_BUDGET = REPLICATES * 4096
# Student-t quantile for R - 1 = 15 degrees of freedom at the one-sided
# level 1 - Phi(3) = 0.135 %, the level of 3 sigma
REPLICATE_T = 3.58642322634495

# Geometric grading toward fractional-power singularities: innermost
# panel has width ratio**levels of the containing interval, and a
# 20-node rule per panel keeps every panel at spectral accuracy.
_GRADE_RATIO = 0.15
_GRADE_LEVELS = 14
_GRADED_PANEL_NODES = 20
_GAUSS_TAIL_SIGMAS = 12.0
# K_P at x farther from the mean than this grows the window to cover x
_GAUSS_INNER_SIGMAS = 10.0
_GAUSS_PDF_SIGMAS = 39.0
# nodes per axis of the 2-d grid in a double integral
_DOUBLE_GRID_NODES = 40
_MC_METHODS = ("monte_carlo", "sphere_mc")
# each randomized rule and the plain Monte Carlo method that a double
# integral, whose U-statistic draws plain samples, takes in its place
_RULE_METHODS = {"lattice": "monte_carlo", "sphere_lattice": "sphere_mc"}
# the randomizations draw from their own substream of the seed, so that
# they are independent of a sample drawn with the same seed (the points
# that verify checks)
_RULE_STREAM = 0x1A77


@dataclass(frozen=True)
class OracleEstimate:
    """A numerical estimate with its uncertainty and provenance."""

    value: float
    stderr: float
    method: str
    n: int
    seed: int | None = None
    #: R for the mean of R replicate means, None otherwise
    replicates: int | None = None

    def __post_init__(self):
        if self.stderr < 0.0:
            raise InvalidSpecError("stderr must be nonnegative")

    @property
    def band(self) -> float:
        """The half-width of a test at the one-sided 0.135 % level of 3
        sigma: 3 stderr for a plain Monte Carlo mean, the Student-t
        quantile for R - 1 degrees of freedom times stderr for the mean
        of R replicates, and 0 for a deterministic rule."""
        return (REPLICATE_T if self.replicates else 3.0) * self.stderr


@lru_cache(maxsize=64)
def gauss_legendre_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for integrating over [-1, 1].

    Newton iteration on the Legendre three-term recurrence from the
    Tricomi initial guess; agrees with reference implementations to
    ~1e-14 across all supported n.
    """
    if n < 1:
        raise InvalidSpecError(f"node count must be >= 1, got {n}")
    x = np.zeros(n)
    w = np.zeros(n)
    for i in range((n + 1) // 2):
        z = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(100):
            p1, p2 = 1.0, 0.0
            for j in range(n):
                p1, p2 = ((2 * j + 1) * z * p1 - j * p2) / (j + 1), p1
            dp = n * (z * p1 - p2) / (z * z - 1.0)
            dz = p1 / dp
            z -= dz
            if abs(dz) < 1e-15:
                break
        p1, p2 = 1.0, 0.0
        for j in range(n):
            p1, p2 = ((2 * j + 1) * z * p1 - j * p2) / (j + 1), p1
        dp = n * (z * p1 - p2) / (z * z - 1.0)
        x[i] = -z
        x[n - 1 - i] = z
        w[i] = w[n - 1 - i] = 2.0 / ((1.0 - z * z) * dp * dp)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _hermite_pair(z: float, n: int) -> tuple[float, float]:
    """Orthonormal Hermite values (htilde_n(z), htilde_{n-1}(z))."""
    p1 = math.pi ** -0.25
    p2 = 0.0
    for j in range(1, n + 1):
        p1, p2 = z * math.sqrt(2.0 / j) * p1 - math.sqrt((j - 1) / j) * p2, p1
    return p1, p2


@lru_cache(maxsize=64)
def gauss_hermite_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for integrating exp(-t^2) f(t) over the line.

    Roots are seeded from the eigenvalues of the Jacobi tridiagonal
    matrix and polished by Newton iteration on the orthonormal
    recurrence; stable for n well past 400, where naive recurrence
    seeding loses roots.
    """
    if n < 1:
        raise InvalidSpecError(f"node count must be >= 1, got {n}")
    off = np.sqrt(np.arange(1, n) / 2.0)
    jac = np.zeros((n, n))
    idx = np.arange(n - 1)
    jac[idx, idx + 1] = off
    jac[idx + 1, idx] = off
    seeds = np.linalg.eigvalsh(jac)
    x = np.zeros(n)
    w = np.zeros(n)
    for i in range((n + 1) // 2):
        z = float(seeds[n - 1 - i])
        pp = 0.0
        for _ in range(50):
            p1, p2 = _hermite_pair(z, n)
            pp = math.sqrt(2.0 * n) * p2
            if not math.isfinite(pp) or pp == 0.0:
                break
            dz = p1 / pp
            z -= dz
            if abs(dz) <= 1e-14 * max(1.0, abs(z)):
                break
        _, p2 = _hermite_pair(z, n)
        pp = math.sqrt(2.0 * n) * p2
        x[n - 1 - i] = z
        x[i] = -z
        wi = (math.sqrt(2.0) / pp) ** 2 if math.isfinite(pp) and pp != 0.0 else 0.0
        w[n - 1 - i] = w[i] = wi
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _panel_points(
    lo: float, hi: float, breaks: list[tuple[float, bool]]
) -> tuple[list[float], bool]:
    """Panel boundaries on [lo, hi]: split at interior break points and
    geometrically refine toward graded ones."""
    base = sorted({lo, hi} | {p for p, _ in breaks if lo < p < hi})
    # a singular point less than hi - lo outside [lo, hi] grades the
    # nearer end: an end panel's rule would feel it
    reach = hi - lo
    graded = {min(max(p, lo), hi) for p, g in breaks if g and lo - reach <= p <= hi + reach}
    pts = set(base)
    for u, v in zip(base[:-1], base[1:]):
        width = v - u
        if u in graded:
            pts.update(u + width * _GRADE_RATIO**k for k in range(1, _GRADE_LEVELS + 1))
        if v in graded:
            pts.update(v - width * _GRADE_RATIO**k for k in range(1, _GRADE_LEVELS + 1))
    out = sorted(pts)
    # drop near-coincident boundaries produced by break collisions
    keep = [out[0]]
    tiny = 1e-15 * (hi - lo)
    for p in out[1:]:
        if p - keep[-1] > tiny:
            keep.append(p)
    keep[-1] = hi
    return keep, bool(graded)


def _panels(points: list[float], per: int) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated ``per``-node Gauss-Legendre rule over consecutive
    panels."""
    x0, w0 = gauss_legendre_nodes(per)
    ts = []
    ws = []
    for u, v in zip(points[:-1], points[1:]):
        half = 0.5 * (v - u)
        ts.append(0.5 * (u + v) + half * x0)
        ws.append(half * w0)
    return np.concatenate(ts), np.concatenate(ws)


def _split_panels(
    kernel: Kernel, lo: float, hi: float, breaks, budget: int
) -> tuple[np.ndarray, np.ndarray]:
    """Legendre panels on [lo, hi] split at the kernel's break points."""
    if breaks is None:
        raise UnsupportedPairError(
            f"kernel family '{kernel.family}' is not safe for panel quadrature"
        )
    points, graded = _panel_points(lo, hi, breaks)
    per = _GRADED_PANEL_NODES if graded else max(12, budget // (len(points) - 1))
    return _panels(points, per)


def _auto_method(kernel: Kernel, measure: Measure) -> str:
    if isinstance(measure, UniformBoxMeasure):
        if measure.dim == 1 and kernel.inner_breaks(0.0) is not None:
            return "gauss_legendre"
        if measure.dim == 2 and kernel.smooth:
            return "gauss_legendre"
        return "lattice"
    if isinstance(measure, GaussianMeasure):
        if measure.dim > 1:
            return "lattice"
        if kernel.smooth:
            return "gauss_hermite"
        if kernel.inner_breaks(0.0) is not None:
            return "gauss_legendre"
        return "monte_carlo"
    if isinstance(measure, SphereUniformMeasure):
        return "sphere_lattice"
    if isinstance(measure, ScoreMeasure):
        raise UnsupportedPairError(
            "score-only measures cannot be integrated numerically; "
            "only Stein identities apply"
        )
    return "monte_carlo"


def _method_and_budget(
    kernel: Kernel,
    measure: Measure,
    method: str | None,
    budget: int | None,
    double: bool = False,
) -> tuple[str, int]:
    """The checked method (auto-selected when None) and its budget. A
    double integral (``double``) takes plain Monte Carlo in place of a
    randomized rule."""
    if isinstance(kernel, MatrixValuedKernel):
        raise UnsupportedPairError(
            "the oracle integrates scalar kernels; integrate the scalar part "
            "of a matrix-valued kernel and scale by its matrix"
        )
    if method is None:
        method = _auto_method(kernel, measure)
    if method not in ("gauss_legendre", "gauss_hermite", *_MC_METHODS, *_RULE_METHODS):
        raise InvalidSpecError(f"unknown oracle method '{method}'")
    if double:
        method = _RULE_METHODS.get(method, method)
    if budget is None:
        if method in _MC_METHODS:
            budget = DEFAULT_MC_BUDGET
        elif method in _RULE_METHODS:
            budget = DEFAULT_RULE_BUDGET
        else:
            budget = DEFAULT_QUAD_NODES
    if budget < 10:
        raise InvalidSpecError(f"budget must be >= 10, got {budget}")
    return method, int(budget)


def _largest_prime(n: int) -> int:
    """The largest prime <= n, for n >= 2."""
    while any(n % p == 0 for p in range(2, math.isqrt(n) + 1)):
        n -= 1
    return n


def _primitive_root(n: int) -> int:
    """The smallest generator of the multiplicative group modulo a prime
    n >= 3."""
    m, factors, p = n - 1, set(), 2
    while p * p <= m:
        while m % p == 0:
            factors.add(p)
            m //= p
        p += 1
    if m > 1:
        factors.add(m)
    return next(
        g for g in range(2, n) if all(pow(g, (n - 1) // q, n) != 1 for q in factors)
    )


def _cbc(n: int, d: int) -> tuple[int, ...]:
    """The generating vector of an n-point rank-1 lattice rule in d
    dimensions, n prime: each component in turn minimizes the rule's
    worst-case error in the Korobov space of smoothness 2 with
    weights 1/j^2 (Sloan & Joe 1994). With candidates z = g^a and points
    k = g^b for a primitive root g, the errors of all candidates are one
    circular correlation over the group, taken by FFT (Nuyens & Cools
    2006)."""
    g = _primitive_root(n)
    powers = np.empty(n - 1, dtype=np.int64)  # g^i mod n
    v = 1
    for i in range(n - 1):
        powers[i] = v
        v = v * g % n
    u = powers / n
    # the Bernoulli-polynomial kernel 2 pi^2 B_2(u) at g^i / n
    omega = 2.0 * math.pi**2 * (u * u - u + 1.0 / 6.0)
    z = [1]
    prod = 1.0 + omega  # the product over chosen components at k = g^b
    omega_f = np.fft.rfft(omega)
    for j in range(2, d + 1):
        # the error of candidate g^a: sum over b of prod[b] omega[a + b]
        err = np.fft.irfft(np.conj(np.fft.rfft(prod)) * omega_f, n - 1)
        a = int(np.argmin(err))
        z.append(int(powers[a]))
        prod = prod * (1.0 + np.roll(omega, -a) / (j * j))
    return tuple(z)


@lru_cache(maxsize=16)
def _lattice(points: int, d: int) -> tuple[np.ndarray, int]:
    """The points k z / n mod 1, k < n, of the rank-1 lattice rule with
    at most ``points`` points in [0, 1)^d, as a read-only (n, d) array,
    and n. In 2-d it is the Fibonacci lattice: n = F_m and
    z = (1, F_(m-1)) for the largest Fibonacci number F_m <= points. In
    more dimensions n is the largest prime <= points and z comes from
    :func:`_cbc`."""
    n, z = points, (1,) * d
    if d == 2 and points >= 3:
        z1, n = 1, 2
        while z1 + n <= points:
            z1, n = n, z1 + n
        z = (1, z1)
    elif d > 2 and points >= 3:
        n = _largest_prime(points)
        z = _cbc(n, d)
    # k z_j < n^2 is exact in int64 for every budget that fits in memory
    u = np.arange(n)[:, None] * np.asarray(z, dtype=np.int64) % n / n
    u.flags.writeable = False
    return u, n


@lru_cache(maxsize=16)
def _sphere_set(points: int, d: int) -> np.ndarray:
    """``points`` points spread evenly over the unit sphere S^d, as a
    read-only (points, d + 1) array: equispaced angles on S^1, and on
    S^2 the spherical Fibonacci set, equal-area bands in z whose
    longitudes turn by the golden angle."""
    k = np.arange(points)
    if d == 1:
        angle = 2.0 * math.pi * k / points
        out = np.column_stack([np.cos(angle), np.sin(angle)])
    else:
        z = 1.0 - (2.0 * k + 1.0) / points
        r = np.sqrt(1.0 - z * z)
        angle = math.pi * (3.0 - math.sqrt(5.0)) * k
        out = np.column_stack([r * np.cos(angle), r * np.sin(angle), z])
    out.flags.writeable = False
    return out


def _rule_points(measure: Measure, method: str, budget: int, seed: int) -> tuple[np.ndarray, int]:
    """The nodes of ``method``'s randomized rule on ``measure``: R
    independent randomizations of one point set of n = budget // R
    points (at least one), as an (R n, dim) array, replicate after
    replicate, and n."""
    gen = make_generator(seed, _RULE_STREAM)
    points = max(1, budget // REPLICATES)
    if method == "sphere_lattice":
        if not isinstance(measure, SphereUniformMeasure):
            raise UnsupportedPairError("sphere_lattice requires a sphere measure")
        # Q diag(sign r_ii) of A = QR is Haar-distributed on O(d + 1) for
        # a Gaussian A, so each rotated point is uniform on the sphere
        q, r = np.linalg.qr(gen.standard_normal((REPLICATES, measure.dim, measure.dim)))
        q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
        base = _sphere_set(points, measure.d)
        return np.matmul(base, np.swapaxes(q, 1, 2)).reshape(-1, measure.dim), points
    gauss = isinstance(measure, GaussianMeasure)
    if not (gauss or isinstance(measure, UniformBoxMeasure)):
        raise UnsupportedPairError("lattice requires a box or a Gaussian measure")
    lattice, n = _lattice(points, measure.dim)
    u = lattice + gen.random((REPLICATES, 1, measure.dim))
    u -= np.floor(u)
    # the tent map periodizes a smooth integrand without a jump, so the
    # lattice keeps its O(n^-2) order on integrands that are not periodic
    t = (1.0 - np.abs(2.0 * u - 1.0)).reshape(-1, measure.dim)
    if gauss:
        # an endpoint, hit only when a shifted point falls on 0 or 1/2
        # exactly, moves to the nearest double inside (0, 1)
        t = normal_icdf(np.clip(t, 5e-324, np.nextafter(1.0, 0.0)))
        return np.asarray(measure.mean) + t @ measure.chol.T, n
    return np.asarray(measure.lows) + measure.widths * t, n


def _rules(kernel: Kernel, measure: Measure, method: str, budget: int, double: bool = False):
    """The deterministic rules of ``method`` on ``measure``, as a pair
    ``(outer, inner)``. ``inner`` integrates y -> K(x, y): it is a
    function of x, or, for a rule that does not depend on x, the rule
    itself, built once here. ``outer()`` integrates the outer variable
    of the double integral, s -> integral of K(s, .), which that inner
    integration has smoothed. A rule is (nodes (n, d), weights,
    normalizer): the single integral is the weighted sum divided by
    inner's normalizer, and the double integral the sum of both
    weightings divided by outer's. For the double integral (``double``)
    the 2-d grid has fewer nodes per axis, and under a 1-d Gaussian each
    outer node takes the window's rule: past 10 sd its weight is < 2e-23."""
    gauss_1d = isinstance(measure, GaussianMeasure) and measure.dim == 1
    if method == "gauss_hermite" and not gauss_1d:
        raise UnsupportedPairError("gauss_hermite requires a 1-d Gaussian measure")
    if gauss_1d:
        mu = measure.mean[0]
        sd = float(measure.stds()[0])
        if method == "gauss_hermite":
            z, w = gauss_hermite_nodes(budget)
            t = (mu + math.sqrt(2.0) * sd * z)[:, None]
            # the weights sum to sqrt(pi) in each variable
            return (lambda: (t, w, math.pi)), (t, w, math.sqrt(math.pi))
        # Legendre panels on the truncated line, the pdf folded into the
        # weights; the outer integrand is a convolution with a Gaussian,
        # hence smooth, so its panels need no split.
        tail = _GAUSS_TAIL_SIGMAS * sd
        lo, hi = mu - tail, mu + tail
        near = tail if double else _GAUSS_INNER_SIGMAS * sd

        def with_pdf(t, w):
            pdf = np.exp(-0.5 * ((t - mu) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))
            return t[:, None], w * pdf, 1.0

        def inner(x):
            x = float(x[0])
            breaks = kernel.inner_breaks(x)
            if abs(x - mu) <= near or breaks is None:
                return with_pdf(*_split_panels(kernel, lo, hi, breaks, budget))
            # x near the window's edge or outside it: K(x, y) pdf(y) may
            # peak at that edge, between it and x, or at x, so the window
            # grows to cover x. It is cut into panels one sd apart from c,
            # the point nearest to x, which the panels grade toward; the
            # pdf is 0 past 39 sd
            a = max(min(lo, x - tail), mu - _GAUSS_PDF_SIGMAS * sd)
            b = min(max(hi, x + tail), mu + _GAUSS_PDF_SIGMAS * sd)
            c = min(max(x, a), b)
            steps = range(-int((c - a) / sd), int((b - c) / sd) + 1)
            grid = [(c + k * sd, k == 0) for k in steps]
            return with_pdf(*_split_panels(kernel, a, b, [*breaks, *grid], budget))

        return (lambda: with_pdf(*_panels([lo, hi], budget))), inner
    box = isinstance(measure, UniformBoxMeasure)
    if box and measure.dim == 2:
        if not kernel.smooth:
            raise UnsupportedPairError(
                "2-d panel quadrature supports analytic kernels only"
            )
        n_ax = min(budget, _DOUBLE_GRID_NODES if double else DEFAULT_QUAD_NODES)
        (t1, w1), (t2, w2) = (
            _panels([a, b], n_ax) for a, b in zip(measure.lows, measure.highs)
        )
        T1, T2 = np.meshgrid(t1, t2, indexing="ij")
        t = np.column_stack([T1.ravel(), T2.ravel()])
        w = np.outer(w1, w2).ravel()
        vol = float(np.prod(measure.widths))
        return (lambda: (t, w, vol * vol)), (t, w, vol)
    if box and measure.dim == 1:
        lo, hi = measure.lows[0], measure.highs[0]
        r = hi - lo

        def on_box(breaks, norm):
            t, w = _split_panels(kernel, lo, hi, breaks, budget)
            return t[:, None], w, norm

        return (
            lambda: on_box(kernel.outer_breaks(lo, hi), r * r),
            lambda x: on_box(kernel.inner_breaks(float(x[0])), r),
        )
    raise UnsupportedPairError(
        "gauss_legendre applies to 1-d/2-d boxes and 1-d Gaussians"
    )


def _rule_rows(kernel: Kernel, X: np.ndarray, inner):
    """For each row x of X: the kernel values K(x, t) at the nodes t of
    ``inner``'s rule (see :func:`_rules`), its weights and normalizer. A
    rule that does not depend on x serves every row through one
    ``kernel.rows`` call; the 1-d panels, split at the kinks of
    y -> K(x, y), are a rule and a ``kernel.batch`` per row."""
    if callable(inner):
        for x in X:
            t, w, norm = inner(x)
            yield kernel.batch(x, t), w, norm
    else:
        t, w, norm = inner
        for row in kernel.rows(X, t):
            yield row, w, norm


def _mc_mean(vals: np.ndarray) -> tuple[float, float]:
    n = vals.size
    value = float(np.mean(vals))
    if n > 1:
        stderr = float(np.std(vals, ddof=1) / math.sqrt(n))
    else:
        stderr = 0.0
    return value, stderr


def estimate_kp(
    kernel: Kernel,
    measure: Measure,
    x,
    budget: int | None = None,
    seed: int = 0,
    method: str | None = None,
) -> OracleEstimate:
    """Numerically estimate the single integral of K(x, .) against the
    measure: the one-row case of :func:`estimate_kp_rows`."""
    return estimate_kp_rows(kernel, measure, [x], budget, seed, method)[0]


def estimate_kp_rows(
    kernel: Kernel,
    measure: Measure,
    X,
    budget: int | None = None,
    seed: int = 0,
    method: str | None = None,
) -> list[OracleEstimate]:
    """Numerically estimate the single integral of K(x, .) against the
    measure at each row x of X. The method is auto-selected unless
    overridden. The Monte Carlo sample or the randomized rule's nodes,
    and any rule that does not depend on x, is made once and shared by
    every row, and its rows of kernel values come from one
    ``kernel.rows`` call, which checks the nodes once; each row has the
    bits of ``kernel.batch``, so a row's estimate has the bits it would
    have alone."""
    method, budget = _method_and_budget(kernel, measure, method, budget)
    X = np.reshape([as_point(x, measure.dim) for x in X], (-1, measure.dim))
    if method in _MC_METHODS:
        # plain mean over one seeded sample; map lets go of each row
        # before the next is computed, so one row is held at a time
        sample = measure.sample(budget, seed)
        return [
            OracleEstimate(value, stderr, method, budget, seed)
            for value, stderr in map(_mc_mean, kernel.rows(X, sample))
        ]
    if method in _RULE_METHODS:
        nodes, n = _rule_points(measure, method, budget, seed)
        return [
            OracleEstimate(value, stderr, method, nodes.shape[0], seed, REPLICATES)
            for value, stderr in (
                _mc_mean(np.mean(row.reshape(REPLICATES, n), axis=1))
                for row in kernel.rows(X, nodes)
            )
        ]
    _, inner = _rules(kernel, measure, method, budget)
    return [
        OracleEstimate(value=float(np.dot(w, row)) / norm, stderr=0.0, method=method, n=w.size)
        for row, w, norm in _rule_rows(kernel, X, inner)
    ]


def estimate_kpp(
    kernel: Kernel,
    measure: Measure,
    budget: int | None = None,
    seed: int = 0,
    method: str | None = None,
) -> OracleEstimate:
    """Numerically estimate the double integral of K against the measure
    in both arguments. Deterministic methods use iterated panel
    quadrature (budget = nodes per axis); Monte Carlo uses the
    diagonal-excluding U-statistic over ~sqrt(budget) points with a
    jackknife standard error, also where the single integral takes a
    randomized rule."""
    method, budget = _method_and_budget(kernel, measure, method, budget, double=True)
    if method in _MC_METHODS:
        # U-statistic over m ~ sqrt(budget) sample points; the Gram rows
        # are summed one at a time, so the m x m matrix is never held
        m = max(2, int(math.isqrt(budget)))
        pts = measure.sample(m, seed)
        row_sums = np.zeros(m)
        for i, row in enumerate(kernel.rows(pts, pts)):
            row_sums[i] = float(np.sum(row)) - float(row[i])
        total = float(np.sum(row_sums))
        value = total / (m * (m - 1))
        stderr = 0.0
        if m > 2:
            # jackknife: removing point i removes its row and column
            loo = (total - 2.0 * row_sums) / ((m - 1) * (m - 2))
            var = (m - 1) / m * float(np.sum((loo - np.mean(loo)) ** 2))
            stderr = math.sqrt(max(0.0, var))
        return OracleEstimate(value=value, stderr=stderr, method=method, n=m, seed=seed)
    outer, inner = _rules(kernel, measure, method, budget, double=True)
    s, ws, norm = outer()
    total = 0.0
    n = 0
    for wi, (row, wt, _) in zip(ws, _rule_rows(kernel, s, inner)):
        total += wi * float(np.dot(wt, row))
        n += wt.size
    return OracleEstimate(value=float(total) / norm, stderr=0.0, method=method, n=n)


def estimate_mean(
    f: Callable,
    measure: Measure,
    budget: int = DEFAULT_MC_BUDGET,
    seed: int = 0,
) -> OracleEstimate:
    """Monte Carlo mean of an arbitrary scalar function under a
    sampleable measure. The function is called once, on the full (n, d)
    sample, and must return n values."""
    if budget < 10:
        raise InvalidSpecError(f"budget must be >= 10, got {budget}")
    vals = np.asarray(f(measure.sample(budget, seed)), dtype=float)
    if vals.shape != (budget,):
        raise InvalidSpecError(
            f"integrand returned shape {vals.shape}, expected ({budget},)"
        )
    value, stderr = _mc_mean(vals)
    return OracleEstimate(
        value=value, stderr=stderr, method="monte_carlo", n=budget, seed=seed
    )
