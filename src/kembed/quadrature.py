"""Consumers of kernel mean embeddings: Bayesian quadrature posteriors,
optimal quadrature weights, worst-case integration error, and maximum
mean discrepancy."""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import FrozenInstanceError, dataclass
from typing import NamedTuple

import numpy as np

from .dictionary import CLOSED_FORM, Embedding, cross_kpq, embed
from .errors import InvalidSpecError, NumericalFailure, UnsupportedPairError
from .kernels import _MATERN_FAR, Kernel, MaternKernel, _floats, as_points
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
# A rung of the Kalman route (see _kalman_solve) fails when an innovation
# variance is at most this, in units of the Matern Gram's unit diagonal:
# half the ladder's first nonzero rung, so every rung j >= 1e-12 clears
# it, and above 2.4e-13, the largest smallest innovation variance at which
# the Cholesky of the rounded Gram K + jI failed over some 5 700 sets of
# uniform random nodes (nu = 1/2 to 7/2, 2 to 1 000 nodes). Below that the
# Cholesky factors or not by the rounding of the Gram's entries, and often
# by their order, so the filter fails such a rung where the Cholesky may
# factor it, and never keeps one where it fails.
_INNOVATION_FLOOR = 5e-13
# Rows per diagonal block of the triangular solves (a Gram of at most
# this many nodes is one diagonal block, solved by a single
# np.linalg.solve) and per tile of the Gram's symmetry check.
_SOLVE_BLOCK = 128
# Candidate pairs compared at a time by the node-distinctness check.
_PAIR_BLOCK = 1 << 20


class QuadratureProblem:
    """Nodes, optional values, Gram matrix, embedding vector m and the
    double integral, bundled for the quadrature operations. A Gram given
    here is checked for shape, finiteness and symmetry and is the one
    every solve uses. Without one (``gram=None``) the Gram is built from
    the embedding's kernel on first read of ``gram`` and checked for
    finiteness then; a Matern kernel on 1-d nodes then never needs it, as
    its solves and ``wce`` run on the sorted nodes in linear time. The
    fields are read-only, as they were checked together."""

    def __init__(
        self,
        embedding: Embedding,
        nodes: np.ndarray,
        gram: np.ndarray | None,
        m: np.ndarray,
        values: np.ndarray | None = None,
        jitter: float | None = None,
    ):
        fields = dict(embedding=embedding, nodes=nodes, m=m, values=values, jitter=jitter)
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_gram", gram)
        n = nodes.shape[0]
        if gram is not None and gram.shape != (n, n):
            raise InvalidSpecError("gram matrix shape does not match the nodes")
        if m.shape != (n,):
            raise InvalidSpecError("embedding vector length does not match the nodes")
        if values is not None and values.shape != (n,):
            raise InvalidSpecError("values length does not match the nodes")
        if jitter is not None and jitter < 0:
            raise InvalidSpecError("jitter must be nonnegative")
        if not np.all(np.isfinite(m)) or (gram is not None and not np.all(np.isfinite(gram))):
            raise InvalidSpecError("gram and embedding values must be finite")
        if gram is not None and n:
            scale = max(float(gram.max()), -float(gram.min())) or 1.0
            if _asymmetry(gram) > 1e-10 * scale:
                raise InvalidSpecError("gram matrix must be symmetric")
        pair = _first_coincident_pair(nodes.reshape(n, -1)) if n > 1 else None
        if pair is not None:
            raise InvalidSpecError(
                f"nodes {pair[0]} and {pair[1]} coincide within {_DISTINCT_TOL}"
            )
        # the solves run on the sorted nodes when the problem was given no
        # Gram and its kernel is a Matern kernel on 1-d nodes
        object.__setattr__(self, "_line", gram is None and _on_a_line(embedding.kernel, nodes))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def n(self) -> int:
        return self.nodes.shape[0]

    @property
    def kpp(self) -> float:
        return _scalar_kpp(self.embedding, "quadrature")

    @property
    def gram(self) -> np.ndarray:
        """The Gram matrix: the one given, or the kernel's over the nodes,
        built on first read and kept. A Gram built here is symmetric bit
        for bit (see :func:`_kernel_gram`) and is not scanned for it."""
        if self._gram is None:
            gram = _kernel_gram(self.embedding.kernel, self.nodes)
            if not np.all(np.isfinite(gram)):
                raise InvalidSpecError("gram and embedding values must be finite")
            object.__setattr__(self, "_gram", gram)
        return self._gram


def _on_a_line(kernel: Kernel, nodes: np.ndarray) -> bool:
    """True when the Gram of the nodes has the state-space form of
    :func:`_kalman_solve`: a Matern kernel of one of its half-integer
    orders on 1-d nodes."""
    return isinstance(kernel, MaternKernel) and nodes.ndim == 2 and nodes.shape[1] == 1


def _kernel_gram(kernel: Kernel, nodes: np.ndarray) -> np.ndarray:
    """The kernel's Gram matrix over the nodes, symmetrized when the
    family is symmetric only to roundoff (a Stein Gram, for one)."""
    if not len(nodes):
        return np.zeros((0, 0))
    gram = kernel.gram(nodes)
    if not kernel.symmetric:
        gram = 0.5 * (gram + gram.T)
    return gram


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
    Gram matrix; the solver of the rung kept (``"kalman"`` on the sorted
    nodes of a 1-d Matern problem, ``"cholesky"`` on the Gram matrix,
    None when there are no nodes), the jitter of each rung tried, in
    order, and the relative residual |(C + jI) w - m| / |m| of the rung kept."""

    mean: float
    variance: float
    weights: np.ndarray
    jitter: float
    solver: str | None = None
    rungs: tuple[float, ...] = ()
    residual: float = 0.0


class _GramSolve(NamedTuple):
    """The weights w of (C + jI) w = m, the jitter j of the rung kept,
    the estimate of m^T (C + jI)^(-1) m that the posterior variance
    takes, and the solver, rungs and relative residual that
    ``BQPosterior`` reports."""

    weights: np.ndarray
    jitter: float
    quadratic: float
    solver: str | None
    rungs: tuple[float, ...]
    residual: float


def make_problem(
    embedding: Embedding, nodes, values=None, jitter: float | None = None
) -> QuadratureProblem:
    """Assemble a quadrature problem: the mean embedding at each node,
    and the Gram matrix of the embedding's kernel over the nodes, built
    on first read (see :class:`QuadratureProblem`)."""
    # a matrix-valued embedding has no scalar Gram to build
    _scalar_kpp(embedding, "quadrature")
    nodes = _floats(nodes)
    if nodes.size == 0:
        nodes = nodes.reshape(0, 1)
    else:
        nodes = as_points(nodes, embedding.kernel.dim)
    m = embedding.kp_rows(nodes) if len(nodes) else np.zeros(0)
    vals = None
    if values is not None:
        vals = np.atleast_1d(np.asarray(values, dtype=float))
        if not np.all(np.isfinite(vals)):
            raise InvalidSpecError("values must be finite")
    return QuadratureProblem(
        embedding=embedding, nodes=nodes, gram=None, m=m, values=vals, jitter=jitter
    )


def _solve_gram(problem: QuadratureProblem) -> _GramSolve:
    """Solve (C + jI) w = m. A fixed problem jitter is used as given;
    otherwise the diagonal jitter j escalates along the ladder until a
    rung factors and its residual is small. A 1-d Matern problem factors
    by :func:`_kalman_solve` on the sorted nodes, in linear time, takes
    C w from ``MaternKernel._line_matvec`` and never builds its Gram; a
    rung fails there when an innovation variance is at most
    _INNOVATION_FLOOR. Every other problem factors its Gram by Cholesky,
    and a rung fails when the factorization does. Both keep a rung only
    when |(C + jI) w - m| <= _RESIDUAL_TOL |m|."""
    n = problem.n
    if n == 0:
        return _GramSolve(np.zeros(0), 0.0, 0.0, None, (), 0.0)
    m = problem.m
    if problem._line:
        rungs = _kalman_rungs(problem)
        # a Matern kernel is 1 on its diagonal
        mean_diag = 1.0
    else:
        rungs = _cholesky_rungs(problem)
        mean_diag = float(np.trace(problem.gram)) / n
    if problem.jitter is not None:
        ladder = [problem.jitter]
    else:
        ladder = [rel * abs(mean_diag) for rel in _JITTER_LADDER]
    m_norm = max(float(np.linalg.norm(m)), 1e-300)
    tried = []
    for jit in ladder:
        tried.append(jit)
        solved = rungs(jit)
        if solved is None:
            continue
        w, cw, solver = solved
        residual = float(np.linalg.norm(cw - m))
        if residual <= _RESIDUAL_TOL * m_norm:
            quadratic = float(w @ m)
            if solver == "kalman":
                # m^T w of the Kalman weights is off by a few ulps of m^T w
                # where the Cholesky's is not, enough to turn a posterior
                # variance of 1e-15 negative; 2 m^T w - w^T (C + jI) w
                # errs only to second order in the error of w
                quadratic = 2.0 * quadratic - float(w @ cw)
            return _GramSolve(w, jit, quadratic, solver, tuple(tried), residual / m_norm)
    raise NumericalFailure(
        "gram matrix is ill-conditioned beyond the allowed jitter; "
        "the nodes are numerically degenerate"
    )


def _cholesky_rungs(problem: QuadratureProblem):
    """The rung function of the dense path: jit -> (w, (C + jit I) w,
    "cholesky"), or None when C + jit I has no Cholesky factor."""
    c = problem.gram
    m = problem.m
    # one copy of C for every rung, each of which sets its diagonal; the
    # copy is c + 0.0 so that off the diagonal it has the bits of
    # c + jit * I (a -0.0 becomes 0.0)
    sys = c + 0.0
    diagonal = np.diagonal(c)

    def rung(jit):
        np.fill_diagonal(sys, diagonal + jit)
        try:
            chol = np.linalg.cholesky(sys)
        except np.linalg.LinAlgError:
            return None
        w = _back_substitute(chol, _forward_substitute(chol, m))
        return w, sys @ w, "cholesky"

    return rung


def _kalman_rungs(problem: QuadratureProblem):
    """The rung function of a 1-d Matern problem: jit -> (w, (C + jit I) w,
    "kalman"), or None when an innovation variance of C + jit I is at
    most _INNOVATION_FLOOR. Every rung jit >= 1e-12 clears the floor."""
    kernel = problem.embedding.kernel
    x = problem.nodes[:, 0]
    order = np.argsort(x, kind="stable")
    xs = x[order]
    # the scaled gap from each sorted node to the one before it, clipped as
    # MaternKernel clips its distances; the first node's is the clip itself,
    # across which the state forgets all (e^(-_MATERN_FAR) is 0.0)
    beta = math.sqrt(2 * kernel.n + 1) / kernel.lengthscale
    gaps = np.minimum(beta * np.diff(xs, prepend=-np.inf), _MATERN_FAR)
    steps = tuple(c.tolist() for c in (np.exp(-gaps), gaps, gaps * gaps / 2.0, gaps**3 / 6.0))
    noise = _matern_state_noise(kernel.n, gaps)
    m = problem.m[order].tolist()

    def rung(jit):
        ws = _kalman_solve(m, steps, noise, jit)
        if ws is None:
            return None
        w = np.empty(len(ws))
        w[order] = ws
        return w, kernel._line_matvec(x, w) + jit * w, "kalman"

    return rung


# The entries (i, j), i <= j, of the 4 x 4 state covariance that the
# filter carries, in the order of its variables p00, p01, .., p33.
_STATE_ENTRIES = tuple((i, j) for i in range(4) for j in range(i, 4))


@functools.cache
def _matern_stationary_covariance(n: int) -> tuple[float, ...]:
    """The stationary covariance P_inf of the state of the half-integer
    Matern process of order n (see :func:`_kalman_solve`) over
    _STATE_ENTRIES, 0 past entry n: P_ij = 2^(i+j) (n!)^2 (2n-i-j)! /
    ((2n)! (n-i)! (n-j)!), so that P_00 = 1 and P_k0 = k! a_k, a_k the
    exact profile of ``kernels._matern_profile``."""
    f = math.factorial
    return tuple(
        2 ** (i + j) * f(n) ** 2 * f(2 * n - i - j) / (f(2 * n) * f(n - i) * f(n - j))
        if j <= n
        else 0.0
        for i, j in _STATE_ENTRIES
    )


def _matern_state_noise(n: int, gaps: np.ndarray) -> list[list[float]]:
    """Q(d) = P_inf - A P_inf A^T, the state covariance that the driving
    noise adds over each scaled gap d, as one list over the gaps per entry
    of _STATE_ENTRIES. The noise enters x_n, and e^(sF) e_n has entries
    e^(-s) s^(n-i) / (n-i)!, so Q_ij(d) = P_inf,ij R_(2n+1-i-j)(2d), R_s(x)
    = e^(-x) sum_(t >= s) x^t / t! the regularized lower incomplete gamma
    function. It is summed as that series of positive terms where x < s,
    and as 1 - e^(-x) sum_(t < s) x^t / t! where x >= s, so that the
    entries of Q keep their relative precision however small the gap: Q_00
    is of order d^(2n+1), which the difference P_inf - A P_inf A^T loses
    below about 1e-16."""
    top = 2 * n + 1
    x = 2.0 * gaps
    decay = np.exp(-x)
    s = np.arange(1, top + 1)[:, None]
    # R_s(x) in row s - 1, s = 1 .. top: first 1 - e^(-x) sum_(t < s) x^t / t!
    heads = np.cumsum(np.cumprod(np.vstack([np.ones_like(x), x / s[:-1]]), axis=0), axis=0)
    regularized = 1.0 - decay * heads
    near = x < top
    if near.any():
        # then, where x < s, the series from t = s, to the term at which
        # x^t / t! has fallen below 1e-17 of x^s / s!: k terms past s, for
        # the k at which x^k / (k + 1)! < 1e-17 at the largest such x
        reach = float(x[near].max())
        k, ratio = 0, 1.0
        while ratio >= 1e-17:
            k += 1
            ratio *= reach / (k + 1)
        last = top + k
        xs = x[near]
        t = np.arange(1, last + 1)[:, None]
        terms = np.cumprod(np.vstack([np.ones_like(xs), xs / t]), axis=0)
        tails = decay[near] * np.cumsum(terms[::-1], axis=0)[::-1][1 : top + 1]
        regularized[:, near] = np.where(xs < s, tails, regularized[:, near])
    noise = np.zeros((len(_STATE_ENTRIES), len(gaps)))
    for row, ((i, j), p) in enumerate(zip(_STATE_ENTRIES, _matern_stationary_covariance(n))):
        if p:
            noise[row] = p * regularized[top - 1 - i - j]
    return noise.tolist()


def _kalman_solve(m, steps, noise, jit):
    """w = (K + jit I)^(-1) m for a Matern kernel on sorted 1-d nodes, as
    lists of floats, or None as soon as an innovation variance is at most
    _INNOVATION_FLOOR.

    In time scaled by beta = sqrt(2n + 1) / l the Matern process f of
    order n is the first entry of the state x = (x_0, .., x_3), x_0 = f,
    of dx_k = (x_(k+1) - x_k) du driven by white noise in x_n
    (Hartikainen and Sarkka 2010); entries past n are 0. Its transition
    over a scaled gap d is A = e^(-d) sum_k J^k d^k / k!, J the shift,
    an upper triangular Toeplitz matrix of c_k = d^k / k!.

    The forward pass is the Kalman filter of the data m with noise
    variance jit: the innovation variances D and the innovations z are
    the LDL^T factors of K + jit I in the sorted order and L^(-1) m. It
    carries the filtered state covariance P itself, predicted as A P A^T
    + Q(d) (``noise``, see :func:`_matern_state_noise`), so that each
    innovation variance, the conditional variance of f at a node given
    the nodes before it, is a sum of small nonnegative terms and keeps
    its relative precision on nodes however close. The reverse pass
    applies L^(-T) to D^(-1) z, the filter's adjoint. ``steps`` holds
    e^(-d), c_1, c_2, c_3 for each node's gap from the one before. Each
    step is scalar arithmetic on a state of four entries, O(n) in all."""
    x0 = x1 = x2 = x3 = 0.0
    p00 = p01 = p02 = p03 = p11 = p12 = p13 = p22 = p23 = p33 = 0.0
    # the reverse pass's data, one list per quantity
    filtered = vs, g0s, g1s, g2s, g3s = [], [], [], [], []
    for y, e, c1, c2, c3, q00, q01, q02, q03, q11, q12, q13, q22, q23, q33 in zip(
        m, *steps, *noise
    ):
        # predict: x <- A x and P <- A P A^T + Q, through M = T P (T =
        # e^(dJ)), of which the entries on and above the diagonal are needed
        x0 = e * (x0 + c1 * x1 + c2 * x2 + c3 * x3)
        x1 = e * (x1 + c1 * x2 + c2 * x3)
        x2 = e * (x2 + c1 * x3)
        x3 = e * x3
        m00 = p00 + c1 * p01 + c2 * p02 + c3 * p03
        m01 = p01 + c1 * p11 + c2 * p12 + c3 * p13
        m02 = p02 + c1 * p12 + c2 * p22 + c3 * p23
        m03 = p03 + c1 * p13 + c2 * p23 + c3 * p33
        m11 = p11 + c1 * p12 + c2 * p13
        m12 = p12 + c1 * p22 + c2 * p23
        m13 = p13 + c1 * p23 + c2 * p33
        m22 = p22 + c1 * p23
        m23 = p23 + c1 * p33
        ee = e * e
        p00 = ee * (m00 + c1 * m01 + c2 * m02 + c3 * m03) + q00
        p01 = ee * (m01 + c1 * m02 + c2 * m03) + q01
        p02 = ee * (m02 + c1 * m03) + q02
        p03 = ee * m03 + q03
        p11 = ee * (m11 + c1 * m12 + c2 * m13) + q11
        p12 = ee * (m12 + c1 * m13) + q12
        p13 = ee * m13 + q13
        p22 = ee * (m22 + c1 * m23) + q22
        p23 = ee * m23 + q23
        p33 = ee * p33 + q33
        # update on the datum y: k = P e_0, innovation variance D = k_0 + jit
        k0, k1, k2, k3 = p00, p01, p02, p03
        var = k0 + jit
        if not var > _INNOVATION_FLOOR:
            return None
        z = y - x0
        g0, g1, g2, g3 = k0 / var, k1 / var, k2 / var, k3 / var
        x0 += g0 * z
        x1 += g1 * z
        x2 += g2 * z
        x3 += g3 * z
        p00 -= g0 * k0
        p01 -= g0 * k1
        p02 -= g0 * k2
        p03 -= g0 * k3
        p11 -= g1 * k1
        p12 -= g1 * k2
        p13 -= g1 * k3
        p22 -= g2 * k2
        p23 -= g2 * k3
        p33 -= g3 * k3
        vs.append(z / var)
        g0s.append(g0)
        g1s.append(g1)
        g2s.append(g2)
        g3s.append(g3)

    # the adjoint of the forward pass, from the last node back: s carries
    # the weight that the later nodes put on the filtered state
    w = []
    s0 = s1 = s2 = s3 = 0.0
    back = zip(*(reversed(column) for column in (*filtered, *steps)))
    for v, g0, g1, g2, g3, e, c1, c2, c3 in back:
        wi = v + g0 * s0 + g1 * s1 + g2 * s2 + g3 * s3
        w.append(wi)
        s0 -= wi
        s3 = e * (s3 + c1 * s2 + c2 * s1 + c3 * s0)
        s2 = e * (s2 + c1 * s1 + c2 * s0)
        s1 = e * (s1 + c1 * s0)
        s0 = e * s0
    w.reverse()
    return w


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
    return _solve_gram(problem).weights


def bq_posterior(problem: QuadratureProblem) -> BQPosterior:
    """Posterior mean m^T C^{-1} Y and variance K_PP - m^T C^{-1} m of
    the integral under the Gaussian process model."""
    if problem.n == 0:
        return BQPosterior(
            mean=0.0, variance=problem.kpp, weights=np.zeros(0), jitter=0.0
        )
    if problem.values is None:
        raise InvalidSpecError("bq_posterior requires observed values")
    solve = _solve_gram(problem)
    w = solve.weights
    mean = float(w @ problem.values)
    variance = _clamp_variance(problem.kpp - solve.quadratic, "posterior variance")
    return BQPosterior(
        mean=mean,
        variance=variance,
        weights=w,
        jitter=solve.jitter,
        solver=solve.solver,
        rungs=solve.rungs,
        residual=solve.residual,
    )


def wce(problem: QuadratureProblem, weights) -> float:
    """Worst-case integration error of a weighted rule at the problem's
    nodes: sqrt(K_PP - 2 w^T m + w^T C w). A 1-d Matern problem reads
    w^T C w from ``gram_form`` in linear time, without the Gram."""
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    if w.shape != (problem.n,):
        raise InvalidSpecError("one weight per node is required")
    if problem._line:
        quadratic = problem.embedding.kernel.gram_form(problem.nodes, w)
    else:
        quadratic = float(w @ problem.gram @ w)
    radicand = problem.kpp - 2.0 * float(w @ problem.m) + quadratic
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
