"""Consumers of kernel mean embeddings: Bayesian quadrature posteriors,
optimal quadrature weights, worst-case integration error, and maximum
mean discrepancy."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dictionary import Embedding, gauss_cross_kpq, gauss_gauss
from .errors import InvalidSpecError, NumericalFailure, UnsupportedPairError
from .kernels import GaussianKernel, as_points
from .measures import EmpiricalMeasure, GaussianMeasure, Measure

__all__ = [
    "QuadratureProblem",
    "BQPosterior",
    "make_problem",
    "bq_posterior",
    "optimal_weights",
    "wce",
    "mmd2",
]

# Escalating diagonal jitter, as multiples of the Gram's mean diagonal;
# the last rung is the largest regularization allowed before the nodes
# are declared degenerate.
_JITTER_LADDER = (0.0, 1e-12, 1e-10, 1e-8, 1e-6)
_DISTINCT_TOL = 1e-12
_RESIDUAL_TOL = 1e-8
_VARIANCE_SLACK = -1e-10


@dataclass(frozen=True, eq=False)
class QuadratureProblem:
    """Nodes, optional values, Gram matrix, embedding vector m and the
    double integral, bundled for the quadrature operations."""

    embedding: Embedding
    nodes: np.ndarray
    gram: np.ndarray
    m: np.ndarray
    values: np.ndarray | None = None
    jitter: float | None = None

    def __post_init__(self):
        n = self.nodes.shape[0]
        if self.gram.shape != (n, n):
            raise InvalidSpecError("gram matrix shape does not match the nodes")
        if self.m.shape != (n,):
            raise InvalidSpecError("embedding vector length does not match the nodes")
        if self.values is not None and self.values.shape != (n,):
            raise InvalidSpecError("values length does not match the nodes")
        if self.jitter is not None and self.jitter < 0:
            raise InvalidSpecError("jitter must be nonnegative")
        if not np.all(np.isfinite(self.gram)) or not np.all(np.isfinite(self.m)):
            raise InvalidSpecError("gram and embedding values must be finite")
        if n:
            scale = float(np.max(np.abs(self.gram))) or 1.0
            if float(np.max(np.abs(self.gram - self.gram.T))) > 1e-10 * scale:
                raise InvalidSpecError("gram matrix must be symmetric")
        for i in range(n - 1):
            gaps = np.abs(self.nodes[i + 1 :] - self.nodes[i]).reshape(n - i - 1, -1)
            close = np.flatnonzero(gaps.max(axis=1) <= _DISTINCT_TOL)
            if close.size:
                raise InvalidSpecError(
                    f"nodes {i} and {i + 1 + close[0]} coincide within {_DISTINCT_TOL}"
                )

    @property
    def n(self) -> int:
        return self.nodes.shape[0]

    @property
    def kpp(self) -> float:
        kpp = self.embedding.kpp
        if isinstance(kpp, np.ndarray):
            raise InvalidSpecError("quadrature requires a scalar-valued embedding")
        return float(kpp)


@dataclass(frozen=True)
class BQPosterior:
    """Gaussian posterior over the integral: N(mean, variance), with
    the quadrature weights and the diagonal jitter used to factor the
    Gram matrix."""

    mean: float
    variance: float
    weights: np.ndarray
    jitter: float


def make_problem(
    embedding: Embedding, nodes, values=None, jitter: float | None = None
) -> QuadratureProblem:
    """Assemble a quadrature problem: Gram matrix of the embedding's
    kernel over the nodes and the mean embedding at each node."""
    kernel = embedding.kernel
    nodes = np.asarray(nodes, dtype=float)
    if nodes.size == 0:
        nodes = nodes.reshape(0, 1)
    else:
        nodes = as_points(nodes, kernel.dim)
    n = nodes.shape[0]
    if n:
        gram = kernel.gram(nodes)
        gram = 0.5 * (gram + gram.T)
        m = np.array([float(embedding.kp_at(row)) for row in nodes])
    else:
        gram = np.zeros((0, 0))
        m = np.zeros(0)
    vals = None
    if values is not None:
        vals = np.atleast_1d(np.asarray(values, dtype=float))
        if not np.all(np.isfinite(vals)):
            raise InvalidSpecError("values must be finite")
    return QuadratureProblem(
        embedding=embedding, nodes=nodes, gram=gram, m=m, values=vals, jitter=jitter
    )


def _solve_gram(problem: QuadratureProblem) -> tuple[np.ndarray, float]:
    """Solve C w = m by Cholesky. A fixed problem jitter is used as
    given; otherwise the diagonal jitter escalates along the ladder
    until the factorization succeeds and the residual is small."""
    n = problem.n
    if n == 0:
        return np.zeros(0), 0.0
    c = problem.gram
    m = problem.m
    mean_diag = float(np.trace(c)) / n
    if problem.jitter is not None:
        ladder = [problem.jitter]
    else:
        ladder = [rel * abs(mean_diag) for rel in _JITTER_LADDER]
    m_norm = float(np.linalg.norm(m))
    for jit in ladder:
        sys = c + jit * np.eye(n)
        try:
            chol = np.linalg.cholesky(sys)
        except np.linalg.LinAlgError:
            continue
        w = np.linalg.solve(chol.T, np.linalg.solve(chol, m))
        residual = float(np.linalg.norm(sys @ w - m))
        if residual <= _RESIDUAL_TOL * max(m_norm, 1e-300):
            return w, jit
    raise NumericalFailure(
        "gram matrix is ill-conditioned beyond the allowed jitter; "
        "the nodes are numerically degenerate"
    )


def optimal_weights(problem: QuadratureProblem) -> np.ndarray:
    """Quadrature weights w = C^{-1} m minimizing the worst-case error."""
    w, _ = _solve_gram(problem)
    return w


def bq_posterior(problem: QuadratureProblem) -> BQPosterior:
    """Posterior mean m^T C^{-1} Y and variance K_PP - m^T C^{-1} m of
    the integral under the Gaussian process model."""
    if problem.n == 0:
        return BQPosterior(
            mean=0.0, variance=problem.kpp, weights=np.zeros(0), jitter=0.0
        )
    if problem.values is None:
        raise InvalidSpecError("bq_posterior requires observed values")
    w, jit = _solve_gram(problem)
    mean = float(w @ problem.values)
    variance = problem.kpp - float(w @ problem.m)
    variance = _clamp_variance(variance, "posterior variance")
    return BQPosterior(mean=mean, variance=variance, weights=w, jitter=jit)


def wce(problem: QuadratureProblem, weights) -> float:
    """Worst-case integration error of a weighted rule at the problem's
    nodes: sqrt(K_PP - 2 w^T m + w^T C w)."""
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    if w.shape != (problem.n,):
        raise InvalidSpecError("one weight per node is required")
    radicand = problem.kpp - 2.0 * float(w @ problem.m) + float(w @ problem.gram @ w)
    radicand = _clamp_variance(radicand, "squared worst-case error")
    return math.sqrt(radicand)


def _clamp_variance(value: float, label: str) -> float:
    if value < _VARIANCE_SLACK:
        raise NumericalFailure(
            f"{label} is {value:.3e}, below the roundoff allowance; the "
            "kernel and embedding are numerically inconsistent"
        )
    if value < 0.0:
        warnings.warn(
            f"{label} of {value:.3e} clamped to zero", stacklevel=3
        )
        return 0.0
    return value


def mmd2(embedding: Embedding, q, weights=None) -> float:
    """Squared maximum mean discrepancy K_PP - 2 K_PQ + K_QQ, under the
    embedding's kernel, between the embedded measure P and a second
    measure Q: an empirical measure, a raw point array with optional
    (possibly signed) weights, or a Gaussian measure under a Gaussian
    kernel."""
    kernel = embedding.kernel
    kpp = embedding.kpp
    if isinstance(kpp, np.ndarray):
        raise InvalidSpecError("mmd2 requires a scalar-valued embedding")
    kpp = float(kpp)
    if isinstance(q, EmpiricalMeasure) or not isinstance(q, Measure):
        if isinstance(q, EmpiricalMeasure):
            if weights is not None:
                raise InvalidSpecError(
                    "weights are taken from the empirical measure itself"
                )
            points = q.points
            w = np.asarray(q.weights)
        else:
            points = as_points(q, kernel.dim)
            if weights is None:
                w = np.full(points.shape[0], 1.0 / points.shape[0])
            else:
                w = np.atleast_1d(np.asarray(weights, dtype=float))
                if w.shape != (points.shape[0],):
                    raise InvalidSpecError("one weight per point is required")
        kpq = float(
            np.dot(w, [float(embedding.kp_at(row)) for row in points])
        )
        kqq = float(w @ kernel.gram(points) @ w)
        return kpp - 2.0 * kpq + kqq
    if (
        isinstance(q, GaussianMeasure)
        and isinstance(kernel, GaussianKernel)
        and isinstance(embedding.measure, GaussianMeasure)
    ):
        kpq = gauss_cross_kpq(kernel, embedding.measure, q)
        kqq = gauss_gauss(kernel, q).kpp
        return kpp - 2.0 * kpq + kqq
    raise UnsupportedPairError(
        f"mmd2 supports empirical Q, or Gaussian Q with a Gaussian kernel; "
        f"got measure family '{q.family}'"
    )
