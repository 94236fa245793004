"""Independent numerical estimation of kernel mean embeddings.

This module never consults the closed forms it is used to verify. It
integrates kernels directly: Gauss-Legendre panels for bounded boxes,
Gauss-Hermite for analytic kernels under Gaussian measures, and seeded
Monte Carlo (plain mean for single integrals, the diagonal-excluding
U-statistic with jackknife error bars for double integrals) everywhere
else.

Kernels with absolute-value kinks are integrated on panels split at the
kink abscissas the kernel reports (``Kernel.smooth``, ``inner_breaks``,
``outer_breaks``), so each panel sees an analytic integrand; fractional
power terms additionally get geometrically graded panels toward the
singular point. Gaussian measures paired with kinked kernels use
Legendre panels on [mu - 12 sigma, mu + 12 sigma] (the truncated tail
mass is ~1e-32, far below every tolerance used here) because Hermite
quadrature converges only polynomially on non-smooth integrands.

Nodes are generated at import-free startup by Newton iteration on the
orthogonal-polynomial recurrences and cached; no external tables.
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
)

__all__ = [
    "OracleEstimate",
    "estimate_kp",
    "estimate_kpp",
    "estimate_mean",
    "gauss_legendre_nodes",
    "gauss_hermite_nodes",
]

DEFAULT_QUAD_NODES = 200
DEFAULT_MC_BUDGET = 10**6

# Geometric grading toward fractional-power singularities: innermost
# panel has width ratio**levels of the containing interval, and a
# 20-node rule per panel keeps every panel at spectral accuracy.
_GRADE_RATIO = 0.15
_GRADE_LEVELS = 14
_GRADED_PANEL_NODES = 20
_GAUSS_TAIL_SIGMAS = 12.0


@dataclass(frozen=True)
class OracleEstimate:
    """A numerical estimate with its uncertainty and provenance."""

    value: float
    stderr: float
    method: str
    n: int
    seed: int | None = None

    def __post_init__(self):
        if self.stderr < 0.0:
            raise InvalidSpecError("stderr must be nonnegative")


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
    graded = {p for p, g in breaks if g and lo <= p <= hi}
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


def _composite_rule(
    points: list[float], graded: bool, budget: int
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated Gauss-Legendre rule over consecutive panels."""
    n_panels = len(points) - 1
    if graded:
        per = _GRADED_PANEL_NODES
    else:
        per = max(12, budget // max(1, n_panels))
    x0, w0 = gauss_legendre_nodes(per)
    ts = []
    ws = []
    for u, v in zip(points[:-1], points[1:]):
        half = 0.5 * (v - u)
        ts.append(0.5 * (u + v) + half * x0)
        ws.append(half * w0)
    return np.concatenate(ts), np.concatenate(ws)


def _line_rule(
    kernel: Kernel, x: float, lo: float, hi: float, budget: int
) -> tuple[np.ndarray, np.ndarray]:
    breaks = kernel.inner_breaks(x)
    if breaks is None:
        raise UnsupportedPairError(
            f"kernel family '{kernel.family}' is not safe for panel quadrature"
        )
    points, graded = _panel_points(lo, hi, breaks)
    return _composite_rule(points, graded, budget)


def _check_scalar_kernel(kernel: Kernel):
    if isinstance(kernel, MatrixValuedKernel):
        raise UnsupportedPairError(
            "the oracle integrates scalar kernels; integrate the scalar part "
            "of a matrix-valued kernel and scale by its matrix"
        )


def _auto_method(kernel: Kernel, measure: Measure) -> str:
    if isinstance(measure, UniformBoxMeasure):
        if measure.dim == 1 and kernel.inner_breaks(0.0) is not None:
            return "gauss_legendre"
        if measure.dim == 2 and kernel.smooth:
            return "gauss_legendre"
        return "monte_carlo"
    if isinstance(measure, GaussianMeasure) and measure.dim == 1:
        if kernel.smooth:
            return "gauss_hermite"
        if kernel.inner_breaks(0.0) is not None:
            return "gauss_legendre"
        return "monte_carlo"
    if isinstance(measure, SphereUniformMeasure):
        return "sphere_mc"
    if isinstance(measure, ScoreMeasure):
        raise UnsupportedPairError(
            "score-only measures cannot be integrated numerically; "
            "only Stein identities apply"
        )
    return "monte_carlo"


def _resolve_budget(budget: int | None, method: str) -> int:
    if budget is None:
        budget = DEFAULT_MC_BUDGET if method in ("monte_carlo", "sphere_mc") else DEFAULT_QUAD_NODES
    if budget < 10:
        raise InvalidSpecError(f"budget must be >= 10, got {budget}")
    return int(budget)


def _gauss_interval(measure: GaussianMeasure) -> tuple[float, float]:
    mu = measure.mean[0]
    sd = float(measure.stds()[0])
    return mu - _GAUSS_TAIL_SIGMAS * sd, mu + _GAUSS_TAIL_SIGMAS * sd


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
    measure. The method is auto-selected unless overridden."""
    _check_scalar_kernel(kernel)
    if method is None:
        method = _auto_method(kernel, measure)
    if method not in ("gauss_legendre", "gauss_hermite", "monte_carlo", "sphere_mc"):
        raise InvalidSpecError(f"unknown oracle method '{method}'")
    budget = _resolve_budget(budget, method)
    x = as_point(x, measure.dim if measure.dim else None)

    if method == "gauss_legendre":
        if isinstance(measure, UniformBoxMeasure) and measure.dim == 1:
            lo, hi = measure.lows[0], measure.highs[0]
            t, w = _line_rule(kernel, float(x[0]), lo, hi, budget)
            vals = kernel.batch(x, t[:, None])
            return OracleEstimate(
                value=float(np.dot(w, vals)) / (hi - lo),
                stderr=0.0,
                method=method,
                n=t.size,
            )
        if isinstance(measure, UniformBoxMeasure) and measure.dim == 2:
            if not kernel.smooth:
                raise UnsupportedPairError(
                    "2-d panel quadrature supports analytic kernels only"
                )
            n_ax = min(budget, DEFAULT_QUAD_NODES)
            x0, w0 = gauss_legendre_nodes(n_ax)
            grids = []
            wts = []
            for a, b in zip(measure.lows, measure.highs):
                half = 0.5 * (b - a)
                grids.append(0.5 * (a + b) + half * x0)
                wts.append(half * w0)
            T1, T2 = np.meshgrid(grids[0], grids[1], indexing="ij")
            pts = np.column_stack([T1.ravel(), T2.ravel()])
            wgt = np.outer(wts[0], wts[1]).ravel()
            vals = kernel.batch(x, pts)
            vol = float(np.prod(measure.widths))
            return OracleEstimate(
                value=float(np.dot(wgt, vals)) / vol,
                stderr=0.0,
                method=method,
                n=pts.shape[0],
            )
        if isinstance(measure, GaussianMeasure) and measure.dim == 1:
            lo, hi = _gauss_interval(measure)
            t, w = _line_rule(kernel, float(x[0]), lo, hi, budget)
            vals = kernel.batch(x, t[:, None])
            mu = measure.mean[0]
            sd = float(measure.stds()[0])
            pdf = np.exp(-0.5 * ((t - mu) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))
            return OracleEstimate(
                value=float(np.dot(w, vals * pdf)),
                stderr=0.0,
                method=method,
                n=t.size,
            )
        raise UnsupportedPairError(
            "gauss_legendre applies to 1-d/2-d boxes and 1-d Gaussians"
        )

    if method == "gauss_hermite":
        if not (isinstance(measure, GaussianMeasure) and measure.dim == 1):
            raise UnsupportedPairError("gauss_hermite requires a 1-d Gaussian measure")
        t, w = gauss_hermite_nodes(budget)
        mu = measure.mean[0]
        sd = float(measure.stds()[0])
        pts = mu + math.sqrt(2.0) * sd * t
        vals = kernel.batch(x, pts[:, None])
        return OracleEstimate(
            value=float(np.dot(w, vals)) / math.sqrt(math.pi),
            stderr=0.0,
            method=method,
            n=budget,
        )

    # Monte Carlo: plain mean over a seeded sample.
    pts = measure.sample(budget, seed)
    vals = kernel.batch(x, pts)
    value, stderr = _mc_mean(vals)
    return OracleEstimate(value=value, stderr=stderr, method=method, n=budget, seed=seed)


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
    jackknife standard error."""
    _check_scalar_kernel(kernel)
    if method is None:
        method = _auto_method(kernel, measure)
    if method not in ("gauss_legendre", "gauss_hermite", "monte_carlo", "sphere_mc"):
        raise InvalidSpecError(f"unknown oracle method '{method}'")
    budget = _resolve_budget(budget, method)

    if method == "gauss_legendre":
        if isinstance(measure, UniformBoxMeasure) and measure.dim == 1:
            lo, hi = measure.lows[0], measure.highs[0]
            obreaks = kernel.outer_breaks(lo, hi)
            if obreaks is None:
                raise UnsupportedPairError(
                    f"kernel family '{kernel.family}' is not safe for panel quadrature"
                )
            opoints, ograded = _panel_points(lo, hi, obreaks)
            s, ws = _composite_rule(opoints, ograded, budget)
            total = 0.0
            n_evals = 0
            for si, wi in zip(s, ws):
                t, wt = _line_rule(kernel, float(si), lo, hi, budget)
                vals = kernel.batch(np.array([si]), t[:, None])
                total += wi * float(np.dot(wt, vals))
                n_evals += t.size
            r = hi - lo
            return OracleEstimate(
                value=total / (r * r), stderr=0.0, method=method, n=n_evals
            )
        if isinstance(measure, UniformBoxMeasure) and measure.dim == 2:
            if not kernel.smooth:
                raise UnsupportedPairError(
                    "2-d panel quadrature supports analytic kernels only"
                )
            n_ax = min(budget, 40)
            x0, w0 = gauss_legendre_nodes(n_ax)
            grids = []
            wts = []
            for a, b in zip(measure.lows, measure.highs):
                half = 0.5 * (b - a)
                grids.append(0.5 * (a + b) + half * x0)
                wts.append(half * w0)
            T1, T2 = np.meshgrid(grids[0], grids[1], indexing="ij")
            pts = np.column_stack([T1.ravel(), T2.ravel()])
            wgt = np.outer(wts[0], wts[1]).ravel()
            total = 0.0
            for i in range(pts.shape[0]):
                row = kernel.batch(pts[i], pts)
                total += wgt[i] * float(np.dot(wgt, row))
            vol = float(np.prod(measure.widths))
            return OracleEstimate(
                value=total / (vol * vol),
                stderr=0.0,
                method=method,
                n=pts.shape[0] ** 2,
            )
        if isinstance(measure, GaussianMeasure) and measure.dim == 1:
            # outer integrand s -> integral K(s, .) dP is a convolution
            # with a Gaussian, hence smooth: plain panels outside,
            # kink-split panels inside.
            lo, hi = _gauss_interval(measure)
            mu = measure.mean[0]
            sd = float(measure.stds()[0])
            x0, w0 = gauss_legendre_nodes(budget)
            half = 0.5 * (hi - lo)
            s = 0.5 * (lo + hi) + half * x0
            ws = half * w0
            norm = 1.0 / (sd * math.sqrt(2.0 * math.pi))
            total = 0.0
            n_evals = 0
            for si, wi in zip(s, ws):
                t, wt = _line_rule(kernel, float(si), lo, hi, budget)
                vals = kernel.batch(np.array([si]), t[:, None])
                pdf_t = np.exp(-0.5 * ((t - mu) / sd) ** 2) * norm
                pdf_s = math.exp(-0.5 * ((si - mu) / sd) ** 2) * norm
                total += wi * pdf_s * float(np.dot(wt, vals * pdf_t))
                n_evals += t.size
            return OracleEstimate(value=total, stderr=0.0, method=method, n=n_evals)
        raise UnsupportedPairError(
            "gauss_legendre applies to 1-d/2-d boxes and 1-d Gaussians"
        )

    if method == "gauss_hermite":
        if not (isinstance(measure, GaussianMeasure) and measure.dim == 1):
            raise UnsupportedPairError("gauss_hermite requires a 1-d Gaussian measure")
        t, w = gauss_hermite_nodes(budget)
        mu = measure.mean[0]
        sd = float(measure.stds()[0])
        pts = mu + math.sqrt(2.0) * sd * t
        total = 0.0
        for i in range(budget):
            row = kernel.batch(np.array([pts[i]]), pts[:, None])
            total += w[i] * float(np.dot(w, row))
        return OracleEstimate(
            value=total / math.pi, stderr=0.0, method=method, n=budget * budget
        )

    # U-statistic over m ~ sqrt(budget) sample points.
    m = max(2, int(math.isqrt(budget)))
    pts = measure.sample(m, seed)
    row_sums = np.zeros(m)
    for i in range(m):
        row = kernel.batch(pts[i], pts)
        row_sums[i] = float(np.sum(row)) - float(row[i])
    total = float(np.sum(row_sums))
    value = total / (m * (m - 1))
    if m > 2:
        # jackknife: removing point i removes its row and column
        loo = (total - 2.0 * row_sums) / ((m - 1) * (m - 2))
        var = (m - 1) / m * float(np.sum((loo - np.mean(loo)) ** 2))
        stderr = math.sqrt(max(0.0, var))
    else:
        stderr = 0.0
    return OracleEstimate(value=value, stderr=stderr, method=method, n=m, seed=seed)


def estimate_mean(
    f: Callable,
    measure: Measure,
    budget: int = DEFAULT_MC_BUDGET,
    seed: int = 0,
    vectorized: bool = False,
) -> OracleEstimate:
    """Monte Carlo mean of an arbitrary scalar function under a
    sampleable measure. With ``vectorized`` the function is called once
    on the full (n, d) sample and must return n values."""
    if budget < 10:
        raise InvalidSpecError(f"budget must be >= 10, got {budget}")
    pts = measure.sample(budget, seed)
    if vectorized:
        vals = np.asarray(f(pts), dtype=float)
        if vals.shape != (budget,):
            raise InvalidSpecError(
                f"vectorized integrand returned shape {vals.shape}, "
                f"expected ({budget},)"
            )
    else:
        vals = np.array([float(f(p)) for p in pts])
    value, stderr = _mc_mean(vals)
    return OracleEstimate(
        value=value, stderr=stderr, method="monte_carlo", n=budget, seed=seed
    )
