"""Consumers of kernel mean embeddings: Bayesian quadrature posteriors,
optimal quadrature weights, worst-case integration error, and maximum
mean discrepancy."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dictionary import CLOSED_FORM, Embedding, cross_kpq, embed
from .errors import InvalidSpecError, NumericalFailure, UnsupportedPairError
from .kernels import _floats, as_points
from .measures import Measure

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
# Rows per diagonal block of the triangular solves (a Gram of at most
# this many nodes is one diagonal block, solved by a single
# np.linalg.solve) and per tile of the Gram's symmetry check.
_SOLVE_BLOCK = 128
# Candidate pairs compared at a time by the node-distinctness check.
_PAIR_BLOCK = 1 << 20


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
            scale = max(float(self.gram.max()), -float(self.gram.min())) or 1.0
            if _asymmetry(self.gram) > 1e-10 * scale:
                raise InvalidSpecError("gram matrix must be symmetric")
        pair = _first_coincident_pair(self.nodes.reshape(n, -1)) if n > 1 else None
        if pair is not None:
            raise InvalidSpecError(
                f"nodes {pair[0]} and {pair[1]} coincide within {_DISTINCT_TOL}"
            )

    @property
    def n(self) -> int:
        return self.nodes.shape[0]

    @property
    def kpp(self) -> float:
        return _scalar_kpp(self.embedding, "quadrature")


def _asymmetry(gram: np.ndarray) -> float:
    """max |G - G^T| over square tiles of the upper triangle, each
    compared with its mirror tile, so no n x n temporary is made."""
    n = len(gram)
    worst = 0.0
    for lo in range(0, n, _SOLVE_BLOCK):
        for col in range(lo, n, _SOLVE_BLOCK):
            tile = gram[lo : lo + _SOLVE_BLOCK, col : col + _SOLVE_BLOCK]
            mirror = gram[col : col + _SOLVE_BLOCK, lo : lo + _SOLVE_BLOCK].T
            worst = max(worst, float(np.max(np.abs(tile - mirror))))
    return worst


def _first_coincident_pair(nodes: np.ndarray) -> tuple[int, int] | None:
    """The first pair (i, j), i < j, in lexicographic order, of rows of
    nodes within _DISTINCT_TOL of each other in every coordinate, or
    None. Sorted on one coordinate, each node is compared only with the
    nodes after it whose coordinate lies within the tolerance, a window
    that ``searchsorted`` finds, so distinct nodes cost O(n log n); each
    candidate pair is then compared as the definition says. The
    coordinate is the one whose windows hold the fewest candidates, so
    nodes that share a coordinate (a tensor grid, a line) stay cheap."""
    n = len(nodes)
    plans = []
    for axis in range(nodes.shape[1]):
        order = np.argsort(nodes[:, axis], kind="stable")
        sorted_axis = nodes[order, axis]
        # one ulp past v + tol, so that rounding the bound leaves out no
        # pair the comparison would accept
        bound = np.nextafter(sorted_axis + _DISTINCT_TOL, np.inf)
        counts = np.searchsorted(sorted_axis, bound, side="right") - np.arange(n) - 1
        plans.append((int(counts.sum()), axis, order, counts))
    _, _, order, counts = min(plans, key=lambda plan: plan[:2])
    best = None
    # at most _PAIR_BLOCK candidate pairs at a time, which bounds memory
    # when many nodes share every coordinate
    step = max(1, _PAIR_BLOCK // n)
    for lo in range(0, n, step):
        c = counts[lo : lo + step]
        p = np.repeat(np.arange(lo, lo + c.size), c)
        q = p + 1 + np.arange(p.size) - np.repeat(np.cumsum(c) - c, c)
        i, j = order[p], order[q]
        close = np.abs(nodes[j] - nodes[i]).max(axis=1) <= _DISTINCT_TOL
        i, j = np.minimum(i, j)[close], np.maximum(i, j)[close]
        if i.size:
            k = np.lexsort((j, i))[0]
            best = min(best or (n, n), (int(i[k]), int(j[k])))
    return best


def _scalar_kpp(embedding: Embedding, consumer: str) -> float:
    """The embedding's K_PP, which must be a scalar: the consumers below
    solve and weigh scalar embeddings only."""
    kpp = embedding.kpp
    if isinstance(kpp, np.ndarray):
        raise InvalidSpecError(f"{consumer} requires a scalar-valued embedding")
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
    # a matrix-valued embedding has no scalar Gram to build
    _scalar_kpp(embedding, "quadrature")
    kernel = embedding.kernel
    nodes = _floats(nodes)
    if nodes.size == 0:
        nodes = nodes.reshape(0, 1)
    else:
        nodes = as_points(nodes, kernel.dim)
    n = nodes.shape[0]
    if n:
        gram = kernel.gram(nodes)
        if not kernel.symmetric:
            # a Stein Gram, for one, is symmetric only to roundoff
            gram = 0.5 * (gram + gram.T)
        m = embedding.kp_rows(nodes)
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
    # one copy of C for every rung, each of which sets its diagonal; the
    # copy is c + 0.0 so that off the diagonal it has the bits of
    # c + jit * I (a -0.0 becomes 0.0)
    sys = c + 0.0
    diagonal = np.diagonal(c)
    for jit in ladder:
        np.fill_diagonal(sys, diagonal + jit)
        try:
            chol = np.linalg.cholesky(sys)
        except np.linalg.LinAlgError:
            continue
        w = _back_substitute(chol, _forward_substitute(chol, m))
        residual = float(np.linalg.norm(sys @ w - m))
        if residual <= _RESIDUAL_TOL * max(m_norm, 1e-300):
            return w, jit
    raise NumericalFailure(
        "gram matrix is ill-conditioned beyond the allowed jitter; "
        "the nodes are numerically degenerate"
    )


def _forward_substitute(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L y = b for the lower-triangular Cholesky factor L, one
    diagonal block at a time: a block's right-hand side subtracts the
    rows already solved with one matrix product, so the work is O(n^2)
    where a general solve of L is O(n^3)."""
    n = len(b)
    y = np.empty(n)
    for lo in range(0, n, _SOLVE_BLOCK):
        hi = min(lo + _SOLVE_BLOCK, n)
        rhs = b[lo:hi] - chol[lo:hi, :lo] @ y[:lo]
        y[lo:hi] = np.linalg.solve(chol[lo:hi, lo:hi], rhs)
    return y


def _back_substitute(chol: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Solve L^T w = y for the Cholesky factor L, from the last diagonal
    block up, as :func:`_forward_substitute` does from the first down."""
    n = len(y)
    upper = chol.T
    w = np.empty(n)
    for hi in range(n, 0, -_SOLVE_BLOCK):
        lo = max(hi - _SOLVE_BLOCK, 0)
        rhs = y[lo:hi] - upper[lo:hi, hi:] @ w[hi:]
        w[lo:hi] = np.linalg.solve(upper[lo:hi, lo:hi], rhs)
    return w


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
    embedding's kernel, between the embedded measure P and Q: a raw
    point array with optional (possibly signed) weights, or a measure,
    which carries its own weights. For a measure, K_PQ is the exact rule
    of :func:`~kembed.dictionary.cross_kpq` that mixtures use too, and
    K_QQ is that of ``embed(kernel, Q)``; UnsupportedPairError when no
    rule applies or Q's embedding is not closed form."""
    kernel = embedding.kernel
    kpp = _scalar_kpp(embedding, "mmd2")
    if isinstance(q, Measure):
        if weights is not None:
            raise InvalidSpecError("weights are taken from the measure itself")
        other = embed(kernel, q)
        kpq = cross_kpq(embedding, other)
        if kpq is None or other.provenance != CLOSED_FORM:
            raise UnsupportedPairError(
                "mmd2 supports empirical P or Q, or Gaussian P and Q under a "
                "stationary kernel that has a closed form under Gaussians; "
                f"got measure family '{q.family}'"
            )
        return kpp - 2.0 * kpq[0] + other.kpp
    points = as_points(q, kernel.dim)
    if len(points) == 0:
        raise InvalidSpecError("Q needs at least one point")
    if weights is None:
        w = np.full(points.shape[0], 1.0 / points.shape[0])
    else:
        w = np.atleast_1d(np.asarray(weights, dtype=float))
        if w.shape != (points.shape[0],):
            raise InvalidSpecError("one weight per point is required")
    kpq = float(np.dot(w, embedding.kp_rows(points)))
    # K_QQ row by row (Gretton et al., JMLR 2012): the n x n Gram is
    # never held
    kqq = kernel.gram_form(points, w)
    return kpp - 2.0 * kpq + kqq
