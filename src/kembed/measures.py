"""Probability measure descriptions: density, score, and seeded sampling.

Sampling is deterministic given a 64-bit seed. All randomness flows
through a counter-based Philox generator keyed by
``SeedSequence([seed, *stream_ids])``; composite measures (mixtures)
derive one substream per component plus a categorical stream, so the
same seed always yields the same sample regardless of how components
are evaluated. Normal draws use the generator's ziggurat sampler and
multivariate draws are ``mean + L z`` with ``L`` the Cholesky factor
cached at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidSpecError
from .kernels import Map, _sq_dist, as_point, as_points

__all__ = [
    "Measure",
    "UniformBoxMeasure",
    "GaussianMeasure",
    "SphereUniformMeasure",
    "MixtureMeasure",
    "PushforwardMeasure",
    "EmpiricalMeasure",
    "ScoreMeasure",
]

_MASK64 = (1 << 64) - 1


def make_generator(seed: int, *stream_ids: int) -> np.random.Generator:
    """Philox generator for a seed and a tuple of substream identifiers."""
    key = [int(seed) & _MASK64] + [int(s) for s in stream_ids]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


class Measure:
    """Base measure interface. ``spec`` states the family's spec-file
    keys as :attr:`kembed.kernels.Kernel.spec` does for kernels."""

    family: str = "measure"
    spec: dict[str, str] | None = None

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def density(self, x) -> float:
        raise InvalidSpecError(
            f"measure family '{self.family}' has no Lebesgue density"
        )

    def log_density(self, x) -> float:
        d = self.density(x)
        if d <= 0.0:
            return -math.inf
        return math.log(d)

    def score(self, x) -> np.ndarray:
        raise InvalidSpecError(
            f"measure family '{self.family}' has no differentiable density"
        )

    #: ``_draw(n, gen)`` returns n rows drawn with an already-derived
    #: generator; None for a family that is not drawn that way.
    _draw = None

    def sample(self, n: int, seed: int) -> np.ndarray:
        if self._draw is None:
            raise InvalidSpecError(
                f"measure family '{self.family}' is not sampleable"
            )
        return self._draw(self._check_n(n), make_generator(seed))

    def _check_n(self, n: int) -> int:
        if n < 1:
            raise InvalidSpecError(f"sample count must be >= 1, got {n}")
        return int(n)


@dataclass(frozen=True, eq=False)
class UniformBoxMeasure(Measure):
    """Uniform distribution on a box [a_1,b_1] x ... x [a_d,b_d]."""

    lows: tuple[float, ...]
    highs: tuple[float, ...]

    family = "uniform_box"
    spec = {"lows": "numbers", "highs": "numbers"}

    def __post_init__(self):
        lows = tuple(float(v) for v in np.atleast_1d(self.lows))
        highs = tuple(float(v) for v in np.atleast_1d(self.highs))
        if len(lows) != len(highs) or not lows:
            raise InvalidSpecError("bounds must be nonempty and of equal length")
        for a, b in zip(lows, highs):
            if not b > a:
                raise InvalidSpecError(f"need a < b per dimension, got [{a}, {b}]")
        object.__setattr__(self, "lows", lows)
        object.__setattr__(self, "highs", highs)

    @property
    def dim(self):
        return len(self.lows)

    @property
    def widths(self) -> np.ndarray:
        return np.asarray(self.highs) - np.asarray(self.lows)

    def density(self, x):
        x = as_point(x, self.dim)
        if np.all(x >= self.lows) and np.all(x <= self.highs):
            return float(1.0 / np.prod(self.widths))
        return 0.0

    def _draw(self, n, gen):
        return np.asarray(self.lows) + self.widths * gen.random((n, self.dim))


@dataclass(frozen=True, eq=False)
class GaussianMeasure(Measure):
    """Gaussian N(mean, cov); cov may be a scalar variance, a diagonal
    vector of variances, or a full SPD matrix."""

    mean: tuple[float, ...]
    cov: object = 1.0

    family = "gaussian"
    spec = {"mean": "numbers", "cov": "array"}

    def __post_init__(self):
        mu = tuple(float(v) for v in np.atleast_1d(self.mean))
        if not mu:
            raise InvalidSpecError("mean must be nonempty")
        d = len(mu)
        cov = np.asarray(self.cov, dtype=float)
        if cov.ndim == 0:
            diag = np.full(d, float(cov))
        elif cov.ndim == 1:
            if cov.size != d:
                raise InvalidSpecError("diagonal covariance length must match mean")
            diag = cov.copy()
        elif cov.ndim == 2:
            if cov.shape != (d, d):
                raise InvalidSpecError("covariance shape must match mean dimension")
            if not np.allclose(cov, cov.T, atol=1e-12):
                raise InvalidSpecError("covariance must be symmetric")
            # exactly-diagonal matrices store as diagonal
            if np.count_nonzero(cov - np.diag(np.diag(cov))) == 0:
                diag = np.diag(cov).copy()
            else:
                diag = None
        else:
            raise InvalidSpecError(f"covariance has invalid ndim {cov.ndim}")
        if diag is not None:
            if np.any(diag <= 0.0):
                raise InvalidSpecError("variances must be positive")
            chol = np.diag(np.sqrt(diag))
            full = np.diag(diag)
            object.__setattr__(self, "cov_diag", tuple(diag))
        else:
            try:
                chol = np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                raise InvalidSpecError(
                    "covariance must be positive definite"
                ) from None
            full = cov
            object.__setattr__(self, "cov_diag", None)
        object.__setattr__(self, "mean", mu)
        object.__setattr__(self, "cov", full)
        object.__setattr__(self, "chol", chol)
        logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
        object.__setattr__(
            self, "_log_norm", -0.5 * (d * math.log(2.0 * math.pi) + logdet)
        )

    @property
    def dim(self):
        return len(self.mean)

    @property
    def diagonal(self) -> bool:
        return self.cov_diag is not None

    def stds(self) -> np.ndarray:
        """Per-coordinate standard deviations (diagonal measures only)."""
        if not self.diagonal:
            raise InvalidSpecError("stds requires a diagonal covariance")
        return np.sqrt(np.asarray(self.cov_diag))

    def _solve(self, v: np.ndarray) -> np.ndarray:
        """Sigma^{-1} v via the cached Cholesky factor."""
        if self.diagonal:
            return v / np.asarray(self.cov_diag)
        w = np.linalg.solve(self.chol, v)
        return np.linalg.solve(self.chol.T, w)

    def log_density(self, x):
        x = as_point(x, self.dim)
        d = x - np.asarray(self.mean)
        return self._log_norm - 0.5 * float(d @ self._solve(d))

    def density(self, x):
        return math.exp(self.log_density(x))

    def score(self, x):
        x = as_point(x, self.dim)
        return -self._solve(x - np.asarray(self.mean))

    def _draw(self, n, gen):
        z = gen.standard_normal((n, self.dim))
        return np.asarray(self.mean) + z @ self.chol.T


@dataclass(frozen=True, eq=False)
class SphereUniformMeasure(Measure):
    """Uniform distribution on the unit sphere S^d embedded in R^{d+1}."""

    d: int

    family = "sphere_uniform"
    spec = {"d": "integer"}

    def __post_init__(self):
        if self.d not in (1, 2):
            raise InvalidSpecError(f"only S^1 and S^2 are supported, got d={self.d}")

    @property
    def dim(self):
        return self.d + 1

    def _draw(self, n, gen):
        z = gen.standard_normal((n, self.dim))
        # the bits of z / sqrt(np.sum(z * z, axis=1)), with the squares
        # summed a column at a time and z divided in place, so the draw
        # holds one copy of the sample
        norm = _sq_dist(np.zeros((1, self.dim)), z)
        np.sqrt(norm, out=norm)
        z /= norm[:, None]
        return z


@dataclass(frozen=True, eq=False)
class MixtureMeasure(Measure):
    """Finite mixture sum_j w_j P_j with nonnegative weights summing to 1."""

    components: tuple[Measure, ...]
    weights: tuple[float, ...]

    family = "mixture"
    spec = {"components": "measures", "weights": "numbers"}

    def __post_init__(self):
        comps = tuple(self.components)
        w = tuple(float(v) for v in self.weights)
        if len(comps) != len(w) or not comps:
            raise InvalidSpecError("components and weights must match and be nonempty")
        if any(v < 0 for v in w):
            raise InvalidSpecError("mixture weights must be nonnegative")
        if abs(sum(w) - 1.0) > 1e-12:
            raise InvalidSpecError(f"mixture weights must sum to 1, got {sum(w)}")
        dims = {c.dim for c in comps}
        if len(dims) != 1:
            raise InvalidSpecError(f"components disagree on dimension: {sorted(dims)}")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self):
        return self.components[0].dim

    def density(self, x):
        return sum(w * c.density(x) for c, w in zip(self.components, self.weights))

    def log_density(self, x):
        logs = np.array(
            [c.log_density(x) for c in self.components]
        ) + np.log(self.weights)
        hi = float(np.max(logs))
        if hi == -math.inf:
            return -math.inf
        return hi + math.log(float(np.sum(np.exp(logs - hi))))

    def score(self, x):
        # Responsibility-weighted component scores: grad log sum w_j p_j.
        x = as_point(x, self.dim)
        logs = np.array(
            [c.log_density(x) for c in self.components]
        ) + np.log(self.weights)
        hi = float(np.max(logs))
        resp = np.exp(logs - hi)
        resp /= np.sum(resp)
        scores = np.vstack([c.score(x) for c in self.components])
        return resp @ scores

    def sample(self, n, seed):
        # Stream 0 is the categorical draw, stream j+1 belongs to
        # component j, so adding components never reshuffles existing ones.
        n = self._check_n(n)
        cat = make_generator(seed, 0)
        cum = np.cumsum(self.weights)
        cum[-1] = 1.0
        idx = np.searchsorted(cum, cat.random(n), side="right")
        out = np.empty((n, self.dim))
        for j, comp in enumerate(self.components):
            where = np.nonzero(idx == j)[0]
            if where.size == 0:
                continue
            if comp._draw is None:
                raise InvalidSpecError(
                    f"mixture component family '{comp.family}' is not sampleable"
                )
            out[where] = comp._draw(where.size, make_generator(seed, j + 1))
        return out


@dataclass(frozen=True, eq=False)
class PushforwardMeasure(Measure):
    """Image measure phi_#Q of a base measure under an invertible map."""

    base: Measure
    map: Map

    family = "pushforward"
    spec = {"base": "measure", "map": "map"}

    @property
    def dim(self):
        return self.base.dim

    def sample(self, n, seed):
        image = as_points(self.map(self.base.sample(n, seed)))
        if not np.all(np.isfinite(image)):
            raise InvalidSpecError("points must be finite")
        return image


@dataclass(frozen=True, eq=False)
class EmpiricalMeasure(Measure):
    """Weighted point set sum_i w_i delta_{x_i}."""

    points: np.ndarray
    weights: tuple[float, ...] | None = None

    family = "empirical"
    spec = {"points": "array", "weights": "numbers?"}

    def __post_init__(self):
        pts = as_points(self.points)
        if self.weights is None:
            w = tuple([1.0 / pts.shape[0]] * pts.shape[0])
        else:
            w = tuple(float(v) for v in self.weights)
            if len(w) != pts.shape[0]:
                raise InvalidSpecError("one weight per point required")
            if any(v < 0 for v in w):
                raise InvalidSpecError("empirical weights must be nonnegative")
            if abs(sum(w) - 1.0) > 1e-12:
                raise InvalidSpecError(f"weights must sum to 1, got {sum(w)}")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self):
        return self.points.shape[1]

    def sample(self, n, seed):
        n = self._check_n(n)
        gen = make_generator(seed, 0)
        cum = np.cumsum(self.weights)
        cum[-1] = 1.0
        idx = np.searchsorted(cum, gen.random(n), side="right")
        return self.points[idx]


@dataclass(frozen=True, eq=False)
class ScoreMeasure(Measure):
    """Target known only through its score, with an optional unnormalized
    log density. Not sampleable; pairs only with Stein constructions."""

    score_fn: Callable[[np.ndarray], np.ndarray]
    dimension: int = 1
    log_density_fn: Callable[[np.ndarray], float] | None = None

    family = "unnormalized_score"

    def __post_init__(self):
        if self.dimension < 1:
            raise InvalidSpecError("dimension must be >= 1")

    @property
    def dim(self):
        return self.dimension

    def score(self, x):
        x = as_point(x, self.dim)
        s = np.atleast_1d(np.asarray(self.score_fn(x), dtype=float))
        if s.size != self.dim:
            raise InvalidSpecError(
                f"score handle returned dimension {s.size}, expected {self.dim}"
            )
        return s

    def log_density(self, x):
        if self.log_density_fn is None:
            raise InvalidSpecError("no density handle was provided")
        return float(self.log_density_fn(as_point(x, self.dim)))

