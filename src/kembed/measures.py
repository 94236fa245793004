"""Probability measure descriptions: density, score, and seeded sampling.

Each family states its density (or log density) and its score once, on
rows: ``_density_rows(Y)`` or ``_log_density_rows(Y)``, and
``_score_rows(Y)``, for a checked (n, d) array Y. The one-point
``density``, ``log_density`` and ``score`` of :class:`Measure` are the
one-row case.

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
from .kernels import Map, _finite_points, _precision_rows, _sq_dist, as_point, as_points

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
        return float(self._density_rows(self._row(x))[0])

    def log_density(self, x) -> float:
        return float(self._log_density_rows(self._row(x))[0])

    def score(self, x) -> np.ndarray:
        return self._score_rows(self._row(x))[0]

    def density_rows(self, X) -> np.ndarray:
        """The density at each row of X, an (n, d) array checked once."""
        return self._density_rows(_finite_points(X, self.dim))

    def _row(self, x) -> np.ndarray:
        return as_point(x, self.dim)[None, :]

    def _density_rows(self, Y: np.ndarray) -> np.ndarray:
        raise InvalidSpecError(
            f"measure family '{self.family}' has no Lebesgue density"
        )

    def _log_density_rows(self, Y: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self._density_rows(Y))

    def _score_rows(self, Y: np.ndarray) -> np.ndarray:
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

    def _density_rows(self, Y):
        inside = np.all((Y >= self.lows) & (Y <= self.highs), axis=1)
        return np.where(inside, 1.0 / np.prod(self.widths), 0.0)

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
        object.__setattr__(
            self, "_logdet", 2.0 * float(np.sum(np.log(np.diag(chol))))
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

    def _log_density_rows(self, Y):
        D = Y - np.asarray(self.mean)
        if self.diagonal:
            q = np.sum(D * D / np.asarray(self.cov_diag), axis=1)
        else:
            q = np.sum(D * _precision_rows(self.cov, D), axis=1)
        return -0.5 * (q + self._logdet + self.dim * math.log(2.0 * math.pi))

    def _density_rows(self, Y):
        return np.exp(self._log_density_rows(Y))

    def _score_rows(self, Y):
        D = Y - np.asarray(self.mean)
        if self.diagonal:
            return -D / np.asarray(self.cov_diag)
        return -_precision_rows(self.cov, D)

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

    def _density_rows(self, Y):
        return sum(w * c._density_rows(Y) for c, w in zip(self.components, self.weights))

    def _shifted_logs(self, Y):
        """log w_j + log p_j(y) over the components of positive weight,
        a (k, n) array shifted per row by its largest entry, and that
        shift (0 in a row where every term is -inf)."""
        logs = np.array([
            c._log_density_rows(Y) + math.log(w)
            for c, w in zip(self.components, self.weights)
            if w > 0.0
        ])
        hi = logs.max(axis=0, keepdims=True)
        hi[np.isneginf(hi)] = 0.0
        return logs - hi, hi[0]

    def _log_density_rows(self, Y):
        logs, hi = self._shifted_logs(Y)
        with np.errstate(divide="ignore"):
            return hi + np.log(np.sum(np.exp(logs), axis=0))

    def _score_rows(self, Y):
        # responsibility-weighted component scores: grad log sum w_j p_j
        scores = np.array([
            c._score_rows(Y)
            for c, w in zip(self.components, self.weights)
            if w > 0.0
        ])
        resp = np.exp(self._shifted_logs(Y)[0])
        resp /= resp.sum(axis=0, keepdims=True)
        return np.einsum("jn,jnd->nd", resp, scores)

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
            gen = make_generator(seed, j + 1)
            if comp._draw is None:
                # a family that draws through its own sample (empirical,
                # pushforward, mixture) takes its seed from its substream
                out[where] = comp.sample(where.size, int(gen.integers(1 << 63)))
            else:
                out[where] = comp._draw(where.size, gen)
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
        if len(pts) == 0:
            raise InvalidSpecError("an empirical measure needs at least one point")
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
    log density. Both handles act on rows: ``score_fn`` maps an (n, d)
    array to (n, d) scores, ``log_density_fn`` to n values. Not
    sampleable; pairs only with Stein constructions."""

    score_fn: Callable[[np.ndarray], np.ndarray]
    dimension: int = 1
    log_density_fn: Callable[[np.ndarray], np.ndarray] | None = None

    family = "unnormalized_score"

    def __post_init__(self):
        if self.dimension < 1:
            raise InvalidSpecError("dimension must be >= 1")

    @property
    def dim(self):
        return self.dimension

    def _score_rows(self, Y):
        return _handle_rows("score", self.score_fn, Y, Y.shape)

    def _log_density_rows(self, Y):
        if self.log_density_fn is None:
            raise InvalidSpecError("no density handle was provided")
        return _handle_rows("density", self.log_density_fn, Y, Y.shape[:1])


def _handle_rows(name, fn, Y, shape):
    """A user handle's values on the rows of Y, checked to have ``shape``."""
    out = np.asarray(fn(Y), dtype=float)
    if out.shape != shape:
        raise InvalidSpecError(
            f"{name} handle returned shape {out.shape}, expected {shape}"
        )
    return out
