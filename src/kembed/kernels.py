"""Kernel families and their evaluation on arrays of points.

Every kernel is a small frozen description object that states its
formula once, on rows of points (see :class:`Kernel`). Families with
closed-form mean embeddings are matched up with measures in
:mod:`kembed.dictionary`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import InvalidSpecError
from .specfun import bernoulli_poly

__all__ = [
    "Kernel",
    "GaussianKernel",
    "MaternKernel",
    "WendlandKernel",
    "FbmKernel",
    "PowerSeriesKernel",
    "SphereSobolevKernel",
    "SphereSmoothKernel",
    "PeriodicSobolevKernel",
    "SumKernel",
    "ProductKernel",
    "MatrixValuedKernel",
    "ComposedKernel",
    "Map",
    "AffineMap",
    "NormalICDFMap",
    "matern_half_integer",
    "periodic_sobolev_series",
]

_SPHERE_NORM_TOL = 1e-9
# Sorted 1-d points per block of the linear-time Matern form: pairs within
# a block are evaluated directly, pairs across blocks through carried sums.
_LINE_BLOCK = 32
# The Matern orders n, nu = n + 1/2, that MaternKernel and the closed forms
# of kembed.dictionary take.
_MATERN_ORDERS = range(4)
# Matern distances |x - y| / l are clipped here: exp(-z) is 0 from about
# z = 745 on, so every value keeps its bits, and z**m stays finite.
_MATERN_FAR = 1e3
# Kernel entries per block of every evaluation: a Gram matrix takes b rows
# of n entries at a time, b * n about this; a long row, or a long run of
# matched pairs, takes this many rows at a time. Memory beyond the inputs
# and the result is then O(block), and each block's temporaries (256 kB
# per array) stay in cache instead of streaming through memory.
_GRAM_BLOCK = 1 << 15


def _floats(x) -> np.ndarray:
    """x as a float array; InvalidSpecError when an entry is not a number.
    Every point array a caller hands the library is converted here."""
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidSpecError(f"points must be numbers: {exc}") from None


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Coerce a scalar or sequence to a 1-d float array, checking length."""
    arr = np.atleast_1d(_floats(x))
    if arr.ndim != 1:
        raise InvalidSpecError(f"points must be scalars or 1-d, got shape {arr.shape}")
    if dim is not None and arr.size != dim:
        raise InvalidSpecError(f"expected a point of dimension {dim}, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise InvalidSpecError("points must be finite")
    return arr


def as_points(X, dim: int | None = None) -> np.ndarray:
    """Coerce input to an (n, d) array of points."""
    arr = _floats(X)
    if arr.ndim == 1:
        arr = arr[:, None] if dim in (None, 1) else arr[None, :]
    if arr.ndim != 2:
        raise InvalidSpecError(f"expected an (n, d) array, got shape {arr.shape}")
    if dim is not None and arr.shape[1] != dim:
        raise InvalidSpecError(
            f"expected points of dimension {dim}, got {arr.shape[1]}"
        )
    return arr


def _finite_points(X, dim: int | None = None) -> np.ndarray:
    """:func:`as_points`, with the finiteness check that :func:`as_point`
    makes on a single point, made once for the whole array."""
    arr = as_points(X, dim)
    if not np.all(np.isfinite(arr)):
        raise InvalidSpecError("points must be finite")
    return arr


def _sq_dist(X: np.ndarray, Y: np.ndarray, scale=None) -> np.ndarray:
    """Squared distance |(y - x) / scale|^2 of matched rows of two arrays
    whose last axis holds the coordinates and whose other axes broadcast,
    in the bits of ``np.sum(((Y - X) / scale) ** 2, axis=-1)``: (n, d)
    rows against (n, d) or one row give (n,), and (b, 1, d) against
    (1, m, d) give a (b, m) block. Below 8 columns numpy sums
    sequentially, so the columns are added one at a time, which avoids
    its slow reduction along a short axis; from 8 up numpy sums pairwise,
    and np.sum itself is used. Each column's temporary is freed once it
    is added, so at most two arrays of the result's shape are held at a
    time."""
    d = X.shape[-1]
    if not 0 < d < 8:
        Z = Y - X
        if scale is not None:
            Z = Z / np.asarray(scale)
        return np.sum(Z * Z, axis=-1)

    def column(j):
        z = Y[..., j] - X[..., j]
        if scale is not None:
            z /= scale[j]
        z *= z
        return z

    out = column(0)
    for j in range(1, d):
        out += column(j)
    return out


def _line_blocks(xs: np.ndarray, ws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted 1-d points and their weights as rows of _LINE_BLOCK, or of
    all n when fewer; the last row is padded with copies of the largest
    point, of weight 0."""
    n = len(xs)
    b = min(_LINE_BLOCK, n)
    blocks = -(-n // b)
    pad = blocks * b - n
    return (
        np.concatenate([xs, np.full(pad, xs[-1])]).reshape(blocks, b),
        np.concatenate([ws, np.zeros(pad)]).reshape(blocks, b),
    )


def _in_blocks(f, *arrays):
    """f on matched rows of (n, ...) arrays, any of which may be a single
    row that broadcasts, over consecutive slices of _GRAM_BLOCK rows
    written into one result whose trailing shape is the first block's.
    f's value at a row depends on that row alone, so the result has the
    bits of one call ``f(*arrays)``, which is what a call of one block or
    less makes. The last block takes at least two rows: a block of one
    row would be a single point, which a kernel may treat as such. When a
    block raises, the one call is made instead, so an error is the one
    that call raises (a composed kernel checks its image of each whole
    argument in turn inside ``_pairs``)."""
    n = max(map(len, arrays))
    if n <= _GRAM_BLOCK:
        return f(*arrays)
    edges = [*range(0, n - 1, _GRAM_BLOCK), n]
    out = None
    for lo, hi in zip(edges, edges[1:]):
        try:
            block = f(*(A if len(A) == 1 else A[lo:hi] for A in arrays))
        except InvalidSpecError:
            return f(*arrays)
        if out is None:
            out = np.empty((n,) + block.shape[1:], block.dtype)
        out[lo:hi] = block
    return out


def _precision_rows(cov: np.ndarray, D: np.ndarray) -> np.ndarray:
    """cov^{-1} d for each vector d along the last axis of D. The
    precision matrix multiplies each vector elementwise and sums over the
    last axis, so a vector's bits do not depend on how many share the
    call (a multi-right-hand-side solve's do)."""
    return np.sum(np.linalg.inv(cov) * D[..., None, :], axis=-1)


class Kernel:
    """Base kernel interface.

    Each family states its formula, its spec-file form and its
    quadrature hints here, once. ``_pairs(X, Y)`` returns K(X_i, Y_i)
    for matched rows of two (n, d) arrays, either of which may be a
    single row; it is pure arithmetic on inputs already checked.
    ``_check(V)`` raises :class:`InvalidSpecError` when a row of V lies
    outside the family's domain. ``__call__``, ``batch``, ``pairs``,
    ``rows``, ``gram`` and ``gram_form`` share one prologue: finite
    points of the right dimension, then ``_check``, once for each
    argument array, then ``_pairs``; their kernel values agree bit for
    bit (``gram_form`` sums them in its own order). Every evaluation
    works in blocks of about 2^15 entries (``_GRAM_BLOCK``): a long row
    or run of pairs is evaluated that many rows at a time, and a Gram
    matrix that many entries at a time, so memory beyond the inputs and
    the result is O(block). ``spec``
    maps each key of the family's spec object to the name of its value
    converter in :mod:`kembed.cli` (a trailing ``?`` marks an optional
    key); it is None for kernels with no spec form. The hints tell the
    oracle where ``y -> K(x, y)`` is not analytic, so it can split its
    panels there without consulting any closed form.
    """

    family: str = "kernel"
    spec: dict[str, str] | None = None
    #: True when y -> K(x, y) is analytic, so Gauss-Hermite quadrature applies.
    smooth: bool = False
    #: True when K(x, y) = phi(x - y) on R^d, so the double integral of K
    #: against independent X ~ P and Y ~ Q is K_D(0), D the law of X - Y.
    stationary: bool = False
    #: True when ``_pairs`` broadcasts, (b, 1, d) against (1, m, d) giving
    #: a (b, m) block with the bits of its ``batch`` rows, and K(x, y) has
    #: the bits of K(y, x): a Gram matrix is then its upper triangle, one
    #: block of rows at a time.
    symmetric: bool = False
    #: ``_derivatives(x, Y)`` returns (K, grad_x K, grad_y K,
    #: tr grad_x grad_y K), of shapes (n,), (n, d), (n, d), (n,), against
    #: the rows y_i of Y, at one point x or at the matched rows of an
    #: (n, d) x; None for a family with no analytic rule.
    _derivatives = None

    @property
    def dim(self) -> int | None:
        """Input dimension, or None when any dimension is accepted."""
        return None

    def __call__(self, x, y) -> float:
        x = as_point(x, self.dim)
        y = as_point(y, self.dim)
        if x.size != y.size:
            raise InvalidSpecError("x and y must have the same dimension")
        return self._checked_pairs(x[None, :], y[None, :])[0]

    def batch(self, x, Y) -> np.ndarray:
        """K(x, y_i) for rows y_i of Y, evaluated in blocks of about 2^15
        rows, so memory beyond Y and the result is O(block)."""
        x = as_point(x, self.dim)
        return self._checked_pairs(x[None, :], _finite_points(Y, x.size))

    def pairs(self, X, Y) -> np.ndarray:
        """K(x_i, y_i) for matched rows of X and Y; a single row of
        either broadcasts against the other. The rows are evaluated in
        blocks of about 2^15 rows, so memory beyond X, Y and the result
        is O(block)."""
        X = _finite_points(X, self.dim)
        Y = _finite_points(Y, X.shape[1])
        if len(X) != len(Y) and 1 not in (len(X), len(Y)):
            raise InvalidSpecError(f"pairs needs matched rows, got {len(X)} and {len(Y)}")
        return self._checked_pairs(X, Y)

    def rows(self, X, Y):
        """K(x_i, Y) for each row x_i of X, each with the bits of
        ``batch(x_i, Y)``. A symmetric family evaluates a block of rows
        of about 2^15 entries in one ``_pairs`` call, when a block holds
        two rows or more, and yields its rows; every other family, or a
        Y too long for that, takes one row at a time, evaluated as
        ``batch`` is, in blocks of about 2^15 rows of Y. Beyond X, Y and
        the rows, memory is O(block). Both arrays are checked once, here;
        a domain error is the one the first failing ``batch(x_i, Y)``
        would raise."""
        X = _finite_points(X, self.dim)
        Y = _finite_points(Y, X.shape[1])
        for V in (X[:1], Y, X[1:]):
            self._check(V)
        return self._rows(X, Y)

    def gram(self, X) -> np.ndarray:
        """Kernel matrix over rows of X, each row with the bits of
        ``batch(x_i, X)``; a matrix-valued kernel gives an (n, n, k, k)
        array. A symmetric family computes the upper triangle, one block
        of rows at a time, and mirrors it; every other family fills one
        row at a time. Beyond the result, memory grows with n times the
        block, not n^2."""
        X = self._checked_points(X)
        n = len(X)
        out = np.zeros((0, 0))
        for lo, hi, block in self._gram_blocks(X):
            if lo == 0:
                out = np.empty((n, n) + block.shape[2:])
            if self.symmetric:
                out[lo:, lo:hi] = block.T
                out[lo:hi, lo:] = block
            else:
                out[lo:hi] = block
        return out

    def gram_form(self, X, w) -> float:
        """w^T K(X, X) w for a scalar kernel and one weight per point,
        accumulated over the blocks of :meth:`gram` into v = K(X, X) w,
        so memory grows with n times the block, not n^2; the result is
        w @ v. A symmetric family adds each off-diagonal block to v
        twice, once for its rows and once, transposed, for its columns.
        A Matern kernel on 1-d points, also as a composed kernel's base,
        sums over the sorted points in linear time instead
        (:meth:`MaternKernel._gram_form`). Either moves the last bits
        only: the result agrees with
        ``w @ gram(X) @ w`` within 1e-14 of |w|^T |K(X, X)| |w|."""
        X = self._checked_points(X)
        w = _floats(w)
        if w.shape != (len(X),):
            raise InvalidSpecError("one weight per point is required")
        return self._gram_form(X, w)

    def _gram_form(self, X: np.ndarray, w: np.ndarray) -> float:
        """w^T K(X, X) w over checked points and weights, block by block."""
        v = np.zeros(len(X))
        for lo, hi, block in self._gram_blocks(X):
            if self.symmetric:
                v[lo:hi] += block @ w[lo:]
                v[hi:] += w[lo:hi] @ block[:, hi - lo :]
            else:
                v[lo:hi] = block @ w
        return float(w @ v)

    def _gram_blocks(self, X: np.ndarray):
        """(lo, hi, block) over the Gram's rows lo:hi of checked points:
        for a symmetric family, K(X[lo:hi], X[lo:]) in one ``_pairs``
        call, over row blocks of about _GRAM_BLOCK entries; for any other,
        the one row K(x_lo, X) of ``_rows``, as a block of one row."""
        n = len(X)
        if not self.symmetric:
            for i, row in enumerate(self._rows(X, X)):
                yield i, i + 1, row[None]
            return
        step = max(1, _GRAM_BLOCK // max(n, 1))
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            yield lo, hi, self._pairs(X[lo:hi, None, :], X[None, lo:, :])

    def _checked_points(self, X) -> np.ndarray:
        """X as finite (n, d) points in the kernel's domain."""
        X = _finite_points(X, self.dim)
        self._check(X)
        return X

    def _checked_pairs(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """``_pairs`` on finite points of matching dimension, after the
        domain check of each argument, in blocks of _GRAM_BLOCK rows."""
        self._check(X)
        self._check(Y)
        return _in_blocks(self._pairs, X, Y)

    def _rows(self, X: np.ndarray, Y: np.ndarray):
        """The rows K(x_i, Y) over checked points."""
        step = _GRAM_BLOCK // max(len(Y), 1)
        if self.symmetric and step >= 2:
            for lo in range(0, len(X), step):
                yield from self._pairs(X[lo : lo + step, None, :], Y[None, :, :])
            return
        for i in range(len(X)):
            yield _in_blocks(self._pairs, X[i : i + 1], Y)

    def _check(self, V: np.ndarray) -> None:
        """Raise InvalidSpecError for a row of V outside the family's
        domain; the default domain is all of R^d."""

    def _pairs(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def inner_breaks(self, x: float) -> list[tuple[float, bool]] | None:
        """Non-smooth abscissas of y -> K(x, y) for scalar inputs, each
        flagged True when the kernel has a fractional-power singularity
        there. None means the kernel is not safe for panel quadrature."""
        return [] if self.smooth else None

    def outer_breaks(self, lo: float, hi: float) -> list[tuple[float, bool]] | None:
        """Non-smooth abscissas of the partially integrated function
        s -> integral of K(s, .) over [lo, hi], flagged as in
        :meth:`inner_breaks`. One integration pass smooths plain kinks
        away, so only support-edge crossings and fractional powers
        survive."""
        return [] if self.smooth else None


@dataclass(frozen=True, eq=False)
class GaussianKernel(Kernel):
    """Squared-exponential kernel exp(-1/2 (x-y)^T Lambda^{-1} (x-y)).

    ``lengthscales`` gives a diagonal Lambda = diag(l_i^2); a full SPD
    ``matrix`` Lambda may be supplied instead.
    """

    lengthscales: tuple[float, ...] | None = None
    matrix: np.ndarray | None = None

    family = "gaussian"
    spec = {"lengthscales": "numbers?", "matrix": "array?"}
    smooth = True
    stationary = True
    symmetric = True

    def __post_init__(self):
        if (self.lengthscales is None) == (self.matrix is None):
            raise InvalidSpecError(
                "gaussian kernel needs exactly one of lengthscales or matrix"
            )
        if self.lengthscales is not None:
            ls = tuple(float(v) for v in np.atleast_1d(self.lengthscales))
            if any(v <= 0 for v in ls):
                raise InvalidSpecError("lengthscales must be positive")
            object.__setattr__(self, "lengthscales", ls)
        else:
            lam = np.asarray(self.matrix, dtype=float)
            if lam.ndim != 2 or lam.shape[0] != lam.shape[1]:
                raise InvalidSpecError("matrix must be square")
            if not np.allclose(lam, lam.T, atol=1e-12):
                raise InvalidSpecError("matrix must be symmetric")
            try:
                np.linalg.cholesky(lam)
            except np.linalg.LinAlgError:
                raise InvalidSpecError("matrix must be positive definite") from None
            object.__setattr__(self, "matrix", lam)

    @property
    def diagonal(self) -> bool:
        return self.lengthscales is not None

    @property
    def dim(self) -> int | None:
        if self.lengthscales is not None:
            return len(self.lengthscales)
        return self.matrix.shape[0]

    def lam(self) -> np.ndarray:
        """Lambda as a full matrix."""
        if self.diagonal:
            return np.diag(np.asarray(self.lengthscales) ** 2)
        return self.matrix

    def __call__(self, x, y) -> float:
        # math.exp, not np.exp: they can differ in the last bit, and the
        # values `kembed eval --what kernel` prints are pinned to this form
        x = as_point(x, self.dim)
        y = as_point(y, self.dim)
        d = x - y
        if self.diagonal:
            z = d / np.asarray(self.lengthscales)
            return math.exp(-0.5 * float(z @ z))
        return math.exp(-0.5 * float(d @ np.linalg.solve(self.matrix, d)))

    def _pairs(self, X, Y):
        if self.diagonal:
            return np.exp(-0.5 * _sq_dist(X, Y, self.lengthscales))
        D = Y - X
        return np.exp(-0.5 * np.sum(D * _precision_rows(self.matrix, D), axis=-1))

    def _derivatives(self, x, Y):
        X = as_points(x, self.dim) if np.ndim(x) == 2 else as_point(x, self.dim)[None, :]
        Y = as_points(Y, X.shape[1])
        U = X - Y
        if self.diagonal:
            inv = 1.0 / np.asarray(self.lengthscales) ** 2
            Q = U * inv[None, :]
            trace_inv = float(np.sum(inv))
        else:
            lam_inv = np.linalg.inv(self.lam())
            Q = U @ lam_inv
            trace_inv = float(np.trace(lam_inv))
        k = np.exp(-0.5 * np.sum(U * Q, axis=1))
        grad_x = -k[:, None] * Q
        grad_y = k[:, None] * Q
        trace = k * (trace_inv - np.sum(Q * Q, axis=1))
        return k, grad_x, grad_y, trace


@functools.cache
def _matern_profile(n: int) -> tuple[Fraction, ...]:
    """The exact coefficients a_m of the half-integer Matern profile
    e^(-z) sum_m a_m z^m, nu = n + 1/2, z = sqrt(2n+1) |x - y| / l: the
    product form (n!/(2n)!) sum_k ((n+k)!/(k!(n-k)!)) (2z)^(n-k)
    regrouped by powers of z, so a_m takes its k = n - m term."""
    lead = Fraction(math.factorial(n), math.factorial(2 * n))
    return tuple(
        lead * math.factorial(2 * n - m) * 2**m / (math.factorial(m) * math.factorial(n - m))
        for m in range(n + 1)
    )


def matern_half_integer(n: int, tau: float) -> float:
    """Half-integer Matern correlation at scaled distance tau, nu = n + 1/2:
    exp(-z) sum_m a_m z^m at z = sqrt(2n+1) |tau|, a_m the exact profile,
    with |tau| clipped at _MATERN_FAR as ``MaternKernel`` clips it."""
    if n < 0 or n != int(n):
        raise InvalidSpecError(f"n must be a nonnegative integer, got {n}")
    n = int(n)
    z = math.sqrt(2 * n + 1) * min(abs(float(tau)), _MATERN_FAR)
    return math.exp(-z) * sum(float(a) * z**m for m, a in enumerate(_matern_profile(n)))


@dataclass(frozen=True, eq=False)
class MaternKernel(Kernel):
    """Matern kernel at half-integer smoothness nu = n + 1/2, n in {0..3}."""

    nu: float
    lengthscale: float = 1.0

    family = "matern"
    spec = {"nu": "number", "lengthscale": "number"}
    stationary = True
    symmetric = True

    def __post_init__(self):
        n = self.nu - 0.5
        if abs(n - round(n)) > 1e-12 or round(n) not in _MATERN_ORDERS:
            allowed = ", ".join(str(m + 0.5) for m in _MATERN_ORDERS)
            raise InvalidSpecError(f"nu must be one of {allowed}, got {self.nu}")
        if self.lengthscale <= 0:
            raise InvalidSpecError("lengthscale must be positive")
        object.__setattr__(self, "nu", float(self.nu))
        object.__setattr__(self, "lengthscale", float(self.lengthscale))

    @property
    def n(self) -> int:
        return int(round(self.nu - 0.5))

    @property
    def profiles(self) -> tuple[tuple[float, ...], ...]:
        """The profile K = e^(-z) sum_m a_m z^m at z = sqrt(2n + 1) |x - y| / l:
        the coefficients a_m for each order n. ``_pairs`` sums the same
        terms in the order its bits are pinned to; ``_gram_form`` reads
        them here."""
        return tuple(tuple(map(float, _matern_profile(n))) for n in _MATERN_ORDERS)

    def _pairs(self, X, Y):
        t = np.minimum(np.sqrt(_sq_dist(X, Y)) / self.lengthscale, _MATERN_FAR)
        if self.n == 0:
            return np.exp(-t)
        if self.n == 1:
            z = math.sqrt(3.0) * t
            return (1.0 + z) * np.exp(-z)
        if self.n == 2:
            z = math.sqrt(5.0) * t
            return (1.0 + z + z * z / 3.0) * np.exp(-z)
        z = math.sqrt(7.0) * t
        return (1.0 + z + 0.4 * z * z + z ** 3 / 15.0) * np.exp(-z)

    def _gram_form(self, X, w):
        """On 1-d points, w^T K w in O(n (nu + 1/2)^2) after a sort: the
        state-space form of the kernel (Hartikainen and Sarkka 2010),
        exact up to rounding. The sorted points are cut into blocks of
        _LINE_BLOCK. A block's own pairs are one ``_pairs`` call. The
        pairs it makes with all earlier points reach it through
        S_m = sum_j w_j e^(-u_j) u_j^m, m = 0..nu - 1/2, where
        u_j = beta (s - x_j) is the scaled distance from the block's
        start s. Since (u + d)^m = sum_k C(m, k) d^(m - k) u^k, a point
        a scaled d past s sees them as
        e^(-d) sum_m a_m sum_k C(m, k) d^(m - k) S_k, and the same
        expansion carries S from one block's start to the next.
        Each pair j < i is counted once, so the result is
        sum_i w_i^2 + 2 sum_(j<i) w_i w_j K_ij; with positive weights
        every term is positive and nothing cancels. Points of d >= 2
        take the dense path."""
        if X.shape[1] != 1:
            return super()._gram_form(X, w)
        x, n = X[:, 0], len(X)
        if n < 2:
            return float(w @ w)
        order = np.argsort(x, kind="stable")
        xs, ws = _line_blocks(x[order], w[order])
        blocks, b = xs.shape

        lower = 0.0
        ii, jj = np.tril_indices(b, -1)
        step = max(1, _GRAM_BLOCK // len(ii))
        for lo in range(0, blocks, step):
            xb, wb = xs[lo : lo + step], ws[lo : lo + step]
            k = self._pairs(xb[:, ii, None], xb[:, jj, None])
            lower += float(np.sum(wb[:, ii] * wb[:, jj] * k))

        decay, ahead, carry, G = self._line_carry(xs, ws)
        reach = np.einsum("bi,bim->bm", ws, decay) @ G.T
        S = np.zeros(len(G))
        for i in range(1, blocks):
            S = carry[i - 1] @ S + ahead[i - 1]
            lower += float(S @ reach[i])
        return float(w @ w) + 2.0 * lower

    def _line_matvec(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """K w at finite 1-d points x, in O(n (nu + 1/2)^2) after a sort,
        by the algebra of :meth:`_gram_form`: each block's own pairs in
        ``_pairs`` calls, the points of earlier blocks through the carried
        sums S, and those of later blocks through the same sums over the
        mirrored points -x. Agrees with ``gram(x) @ w`` within 1e-14 of
        |K| |w|, entry by entry."""
        n = len(x)
        order = np.argsort(x, kind="stable")
        xs, ws = _line_blocks(x[order], w[order])
        blocks, b = xs.shape
        v = np.empty((blocks, b))
        step = max(1, _GRAM_BLOCK // (b * b))
        for lo in range(0, blocks, step):
            xb = xs[lo : lo + step]
            k = self._pairs(xb[:, :, None, None], xb[:, None, :, None])
            v[lo : lo + step] = np.einsum("bij,bj->bi", k, ws[lo : lo + step])
        v += self._from_earlier_blocks(xs, ws)
        v += self._from_earlier_blocks(-xs[::-1, ::-1], ws[::-1, ::-1])[::-1, ::-1]
        out = np.empty(n)
        out[order] = v.ravel()[:n]
        return out

    def _from_earlier_blocks(self, xs: np.ndarray, ws: np.ndarray) -> np.ndarray:
        """sum_j w_j K(x_i, x_j) over the points j of the blocks before the
        block of x_i, for each point of the blocks of :func:`_line_blocks`."""
        decay, ahead, carry, G = self._line_carry(xs, ws)
        reach = decay @ G.T
        out = np.zeros(xs.shape)
        S = np.zeros(len(G))
        for i in range(1, len(xs)):
            S = carry[i - 1] @ S + ahead[i - 1]
            out[i] = reach[i] @ S
        return out

    def _line_carry(self, xs: np.ndarray, ws: np.ndarray):
        """The tables that carry S_m = sum_j w_j e^(-u_j) u_j^m over the
        blocks of :func:`_line_blocks`: e^(-u) u^m of each point about its
        block's start, (blocks, b, p); each block's S about the next
        block's start, (blocks - 1, p); the carry of S from one start to
        the next, (blocks - 1, p, p); and G, which turns S into the sum a
        point sees (see :meth:`_gram_form`)."""
        a = self.profiles[self.n]
        p = len(a)
        beta = math.sqrt(2 * self.n + 1) / self.lengthscale
        powers = np.arange(p)

        def decay(d):
            # e^(-u) u^m at u = beta d, for m = 0..nu - 1/2 along a new last axis
            d = np.minimum(beta * d, _MATERN_FAR)[..., None]
            return np.exp(-d) * d ** powers

        starts = xs[:, 0]
        # each block's points about its own start, and about the next start
        own = decay(xs - starts[:, None])
        ahead = np.einsum("bi,bim->bm", ws[:-1], decay(starts[1:, None] - xs[:-1]))
        # S at one start -> S at the next, D apart: C(m, k) e^(-D) D^(m - k)
        binom = np.array([[math.comb(m, k) for k in range(p)] for m in range(p)], dtype=float)
        carry = decay(starts[1:] - starts[:-1])[:, np.maximum(powers[:, None] - powers, 0)] * binom
        # a point's pairs with the earlier blocks are S . G e^(-u) u^r, where
        # G[k, r] = a_(k+r) C(k + r, k) gathers the terms of each S_k
        G = np.array([[a[k + r] * math.comb(k + r, k) if k + r < p else 0.0 for r in range(p)]
                      for k in range(p)])
        return own, ahead, carry, G

    def inner_breaks(self, x):
        return [(x, False)]

    def outer_breaks(self, lo, hi):
        return []


@dataclass(frozen=True, eq=False)
class WendlandKernel(Kernel):
    """Compactly supported Wendland kernel of even order 0, 2 or 4."""

    order: int
    lengthscale: float = 1.0

    family = "wendland"
    spec = {"order": "integer", "lengthscale": "number"}
    stationary = True
    symmetric = True

    def __post_init__(self):
        if self.order not in (0, 2, 4):
            raise InvalidSpecError(f"order must be 0, 2 or 4, got {self.order}")
        if self.lengthscale <= 0:
            raise InvalidSpecError("lengthscale must be positive")
        object.__setattr__(self, "lengthscale", float(self.lengthscale))

    def _pairs(self, X, Y):
        # t is clipped at the support's edge, where base is 0: far apart
        # pairs would otherwise take 0 * inf from an overflowed polynomial
        t = np.minimum(np.sqrt(_sq_dist(X, Y)) / self.lengthscale, 1.0)
        base = 1.0 - t
        if self.order == 0:
            return base
        if self.order == 2:
            return base ** 3 * (3.0 * t + 1.0)
        return base ** 5 * (8.0 * t * t + 5.0 * t + 1.0)

    def inner_breaks(self, x):
        ls = self.lengthscale
        return [(x - ls, False), (x, False), (x + ls, False)]

    def outer_breaks(self, lo, hi):
        ls = self.lengthscale
        return [(lo + ls, False), (hi - ls, False)]


@dataclass(frozen=True, eq=False)
class FbmKernel(Kernel):
    """Fractional Brownian motion covariance on the half line.

    K(x, y) = (|x|^{2H} + |y|^{2H} - |x-y|^{2H}) / 2 for scalar inputs.
    When a ``domain`` [a, b] with 0 <= a < b is declared, evaluation
    outside it is an error.
    """

    hurst: float
    domain: tuple[float, float] | None = None

    family = "fbm"
    spec = {"hurst": "number", "domain": "numbers?"}

    def __post_init__(self):
        if not 0.0 < self.hurst < 1.0:
            raise InvalidSpecError(f"hurst must lie in (0, 1), got {self.hurst}")
        object.__setattr__(self, "hurst", float(self.hurst))
        if self.domain is not None:
            if len(self.domain) != 2:
                raise InvalidSpecError("domain must be a pair [a, b]")
            a, b = (float(v) for v in self.domain)
            if not (0.0 <= a < b):
                raise InvalidSpecError(
                    f"domain must satisfy 0 <= a < b, got ({a}, {b})"
                )
            object.__setattr__(self, "domain", (a, b))

    @property
    def dim(self):
        return 1

    def _check(self, V: np.ndarray):
        a, b = self.domain if self.domain is not None else (0.0, math.inf)
        if np.any(V < a) or np.any(V > b):
            v = float(V[(V < a) | (V > b)][0])
            if self.domain is None:
                raise InvalidSpecError(f"input must be nonnegative, got {v}")
            raise InvalidSpecError(
                f"input {v} lies outside the declared domain [{a}, {b}]"
            )

    def _pairs(self, X, Y):
        h = 2.0 * self.hurst
        xv, yv = X[:, 0], Y[:, 0]
        # one x takes Python's pow so values against a point stay put; numpy's
        # pow can differ in the last bit, which the cancellation magnifies
        xh = abs(float(xv[0])) ** h if len(xv) == 1 else np.abs(xv) ** h
        return 0.5 * (xh + np.abs(yv) ** h - np.abs(xv - yv) ** h)

    def inner_breaks(self, x):
        if self.hurst == 0.5:
            return [(x, False)]
        return [(x, True), (0.0, True)]

    def outer_breaks(self, lo, hi):
        if self.hurst == 0.5:
            return []
        return [(lo, True), (hi, True)]


@dataclass(frozen=True, eq=False)
class PowerSeriesKernel(Kernel):
    """Separable analytic kernel sum_alpha c_alpha x^alpha y^alpha.

    ``terms`` maps multi-indices (tuples of nonnegative ints) to
    nonnegative coefficients; the stored order is canonical
    (lexicographic) so evaluation order is deterministic.
    """

    terms: tuple[tuple[tuple[int, ...], float], ...]

    family = "power_series"
    spec = {"terms": "terms"}
    smooth = True

    def __post_init__(self):
        if isinstance(self.terms, dict):
            items = list(self.terms.items())
        else:
            items = [(tuple(a), float(c)) for a, c in self.terms]
        if not items:
            raise InvalidSpecError("power series needs at least one term")
        d = len(items[0][0])
        canon = []
        seen = set()
        for alpha, c in sorted(items, key=lambda it: tuple(it[0])):
            alpha = tuple(int(v) for v in alpha)
            if len(alpha) != d:
                raise InvalidSpecError("all multi-indices must share a dimension")
            if any(v < 0 for v in alpha):
                raise InvalidSpecError("multi-indices must be nonnegative")
            if alpha in seen:
                raise InvalidSpecError(f"duplicate multi-index {alpha}")
            c = float(c)
            if c < 0:
                raise InvalidSpecError("coefficients must be nonnegative")
            seen.add(alpha)
            canon.append((alpha, c))
        object.__setattr__(self, "terms", tuple(canon))

    @property
    def dim(self):
        return len(self.terms[0][0])

    def _pairs(self, X, Y):
        out = 0.0
        for alpha, c in self.terms:
            a = np.asarray(alpha, dtype=float)
            out = out + c * np.prod(X ** a, axis=1) * np.prod(Y ** a, axis=1)
        return out


class _SphereKernel(Kernel):
    """A kernel on the unit sphere S^2 in R^3."""

    @property
    def dim(self):
        return 3

    def _check(self, V):
        # in blocks of rows, in order, so that checking a large sample
        # holds O(block) and still names the first row off the sphere
        for lo in range(0, len(V), _GRAM_BLOCK):
            B = V[lo : lo + _GRAM_BLOCK]
            nrm = np.einsum("ij,ij->i", B, B)
            np.sqrt(nrm, out=nrm)
            dev = nrm - 1.0
            bad = np.abs(dev, out=dev) > _SPHERE_NORM_TOL
            if np.any(bad):
                raise InvalidSpecError(
                    f"sphere kernel inputs must have unit norm within {_SPHERE_NORM_TOL}, "
                    f"got norm {float(nrm[bad][0])}"
                )


def _sphere_sq_dist(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Squared distances between matched rows of checked points on the
    unit sphere. Rows of X are projected onto the sphere; rows of Y are
    used as they are, so that a large batch of second arguments is not
    copied."""
    # the batched matmul gives each row the bits of x / sqrt(x @ x)
    X = X / np.sqrt(np.matmul(X[:, None, :], X[:, :, None])[:, 0, :])
    return _sq_dist(X, Y)


@dataclass(frozen=True, eq=False)
class SphereSobolevKernel(_SphereKernel):
    """K(x, y) = 2 - ||x - y|| on the unit sphere S^2 in R^3."""

    family = "sphere_sobolev32"
    spec = {}

    def _pairs(self, X, Y):
        return 2.0 - np.sqrt(_sphere_sq_dist(X, Y))


@dataclass(frozen=True, eq=False)
class SphereSmoothKernel(_SphereKernel):
    """Analytic kernel 48 exp(-12 ||x - y||^2) on the unit sphere S^2."""

    family = "sphere_smooth"
    spec = {}
    smooth = True

    def _pairs(self, X, Y):
        return 48.0 * np.exp(-12.0 * _sphere_sq_dist(X, Y))


@dataclass(frozen=True, eq=False)
class PeriodicSobolevKernel(Kernel):
    """Periodic Sobolev kernel on [0, 1] of smoothness 2r, r in {1..6}.

    K(x, y) = 1 + (-1)^{r+1} (2 pi)^{2r} B_{2r}(|x - y|) / (2r)! where
    B_{2r} is the Bernoulli polynomial.
    """

    r: int

    family = "periodic_sobolev"
    spec = {"r": "integer"}

    def __post_init__(self):
        if self.r not in range(1, 7):
            raise InvalidSpecError(f"r must be an integer in [1, 6], got {self.r}")

    @property
    def dim(self):
        return 1

    def _check(self, V):
        if np.any(V < 0.0) or np.any(V > 1.0):
            v = float(V[(V < 0.0) | (V > 1.0)][0])
            raise InvalidSpecError(f"inputs must lie in [0, 1], got {v}")

    def _pairs(self, X, Y):
        r = self.r
        scale = (-1.0) ** (r + 1) * (2.0 * math.pi) ** (2 * r) / math.factorial(2 * r)
        return 1.0 + scale * bernoulli_poly(2 * r, np.abs(Y[:, 0] - X[:, 0]))

    def inner_breaks(self, x):
        return [(x, False)]

    def outer_breaks(self, lo, hi):
        return []


def periodic_sobolev_series(r: int, x: float, y: float, n_terms: int) -> float:
    """Truncated Fourier form 1 + 2 sum_k k^{-2r} cos(2 pi k (x - y)).

    Converges to the closed form with error O(n_terms^{-(2r-1)}).
    """
    if n_terms < 1:
        raise InvalidSpecError(f"n_terms must be >= 1, got {n_terms}")
    if r not in range(1, 7):
        raise InvalidSpecError(f"r must be an integer in [1, 6], got {r}")
    k = np.arange(1, n_terms + 1, dtype=float)
    return 1.0 + 2.0 * float(np.sum(np.cos(2.0 * math.pi * k * (x - y)) / k ** (2 * r)))


@dataclass(frozen=True, eq=False)
class SumKernel(Kernel):
    """Nonnegative combination sum_j gamma_j K_j on a shared domain."""

    children: tuple[Kernel, ...]
    weights: tuple[float, ...]

    family = "sum"
    spec = {"children": "kernels", "weights": "numbers"}

    def __post_init__(self):
        children = tuple(self.children)
        weights = tuple(float(w) for w in self.weights)
        if len(children) != len(weights) or not children:
            raise InvalidSpecError("children and weights must match and be nonempty")
        if any(w < 0 for w in weights):
            raise InvalidSpecError("weights must be nonnegative")
        dims = {c.dim for c in children if c.dim is not None}
        if len(dims) > 1:
            raise InvalidSpecError(f"children disagree on dimension: {sorted(dims)}")
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "weights", weights)

    @property
    def dim(self):
        for c in self.children:
            if c.dim is not None:
                return c.dim
        return None

    def _check(self, V):
        for c in self.children:
            c._check(V)

    def _pairs(self, X, Y):
        return sum(w * c._pairs(X, Y) for c, w in zip(self.children, self.weights))

    @property
    def smooth(self):
        return all(c.smooth for c in self.children)

    @property
    def symmetric(self):
        return all(c.symmetric for c in self.children)

    def inner_breaks(self, x):
        return _joined([c.inner_breaks(x) for c in self.children])

    def outer_breaks(self, lo, hi):
        return _joined([c.outer_breaks(lo, hi) for c in self.children])


def _joined(parts: list) -> list[tuple[float, bool]] | None:
    """Concatenated break lists, or None when any part is None."""
    return None if None in parts else [b for part in parts for b in part]


@dataclass(frozen=True, eq=False)
class ProductKernel(Kernel):
    """Product over coordinate blocks: K(x, y) = prod_j K_j(x_j, y_j).

    ``block_dims`` gives the width of each child's block; blocks must
    tile the input exactly.
    """

    children: tuple[Kernel, ...]
    block_dims: tuple[int, ...]

    family = "product"
    spec = {"children": "kernels", "block_dims": "integers"}

    def __post_init__(self):
        children = tuple(self.children)
        dims = tuple(int(d) for d in self.block_dims)
        if len(children) != len(dims) or not children:
            raise InvalidSpecError("children and block_dims must match and be nonempty")
        if any(d < 1 for d in dims):
            raise InvalidSpecError("block dimensions must be positive")
        for c, d in zip(children, dims):
            if c.dim is not None and c.dim != d:
                raise InvalidSpecError(
                    f"child of dimension {c.dim} assigned a block of width {d}"
                )
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "block_dims", dims)

    @property
    def dim(self):
        return sum(self.block_dims)

    def _blocks(self):
        edges = np.cumsum((0,) + self.block_dims)
        return zip(self.children, edges[:-1], edges[1:])

    def _check(self, V):
        for c, a, b in self._blocks():
            c._check(V[:, a:b])

    def _pairs(self, X, Y):
        return math.prod(c._pairs(X[:, a:b], Y[:, a:b]) for c, a, b in self._blocks())

    @property
    def smooth(self):
        return all(c.smooth for c in self.children)

    # Panel quadrature runs on scalar inputs, which only a single-factor
    # product takes; its breaks are then its factor's.
    def inner_breaks(self, x):
        return self.children[0].inner_breaks(x) if len(self.children) == 1 else None

    def outer_breaks(self, lo, hi):
        return self.children[0].outer_breaks(lo, hi) if len(self.children) == 1 else None


@dataclass(frozen=True, eq=False)
class MatrixValuedKernel(Kernel):
    """Separable matrix-valued kernel K(x, y) B with B symmetric PSD."""

    base: Kernel
    matrix: np.ndarray

    family = "matrix_valued"
    spec = {"base": "kernel", "matrix": "array"}

    def __post_init__(self):
        B = np.asarray(self.matrix, dtype=float)
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise InvalidSpecError("matrix must be square")
        if not np.allclose(B, B.T, atol=1e-12):
            raise InvalidSpecError("matrix must be symmetric")
        eig = np.linalg.eigvalsh(B)
        if eig.min() < -1e-10 * max(1.0, eig.max()):
            raise InvalidSpecError("matrix must be positive semi-definite")
        object.__setattr__(self, "matrix", B)

    @property
    def dim(self):
        return self.base.dim

    def _check(self, V):
        self.base._check(V)

    def _pairs(self, X, Y):
        return self.base._pairs(X, Y)[:, None, None] * self.matrix


@dataclass(frozen=True, eq=False)
class Map:
    """Invertible transport map with a stable name for serialization.

    ``forward`` and ``inverse`` act on a point or on an (n, d) array of
    rows at once."""

    forward: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray]
    name: str = "map"

    def __call__(self, x):
        return self.forward(x)


@dataclass(frozen=True, eq=False)
class AffineMapSpec(Map):
    """Affine map whose parameters stay inspectable, so that images of
    simple measures under it can be recognized in closed form."""

    scale: tuple = ()
    shift: tuple = ()


def AffineMap(scale, shift) -> Map:
    """Coordinatewise x -> scale * x + shift."""
    s = np.atleast_1d(np.asarray(scale, dtype=float))
    t = np.atleast_1d(np.asarray(shift, dtype=float))
    if np.any(s == 0.0):
        raise InvalidSpecError("affine map scale must be nonzero")
    return AffineMapSpec(
        forward=lambda x: s * np.asarray(x, dtype=float) + t,
        inverse=lambda z: (np.asarray(z, dtype=float) - t) / s,
        name=f"affine(scale={s.tolist()}, shift={t.tolist()})",
        scale=tuple(float(v) for v in s),
        shift=tuple(float(v) for v in t),
    )


@dataclass(frozen=True, eq=False)
class NormalICDFMapSpec(Map):
    """Coordinatewise standard normal quantile map, recognized by type."""


def NormalICDFMap() -> Map:
    """Coordinatewise standard normal quantile transform."""
    from .specfun import normal_cdf, normal_icdf

    def forward(x):
        p = np.atleast_1d(np.asarray(x, dtype=float))
        outside = ~((p > 0.0) & (p < 1.0))
        if np.any(outside):
            raise InvalidSpecError(
                f"the normal_icdf map takes values in (0, 1), got {p[outside][0]}"
            )
        return normal_icdf(p)

    return NormalICDFMapSpec(
        forward=forward,
        inverse=lambda z: normal_cdf(np.atleast_1d(np.asarray(z, dtype=float))),
        name="normal_icdf",
    )


# Spec-file kinds of the map factories, with their keys in the form of
# ``Kernel.spec``.
MAP_KINDS = {
    "affine": (AffineMap, {"scale": "numbers", "shift": "numbers"}),
    "normal_icdf": (NormalICDFMap, {}),
}


@dataclass(frozen=True, eq=False)
class ComposedKernel(Kernel):
    """Pullback kernel K(phi(x), phi(y)) for an invertible map phi."""

    base: Kernel
    map: Map

    family = "composed"
    spec = {"base": "kernel", "map": "map"}

    @property
    def dim(self):
        return self.base.dim

    @property
    def symmetric(self):
        return self.base.symmetric

    def gram(self, X):
        return self.base.gram(self.map(self._checked_points(X)))

    def gram_form(self, X, w):
        return self.base.gram_form(self.map(self._checked_points(X)), w)

    def _images(self, *arrays):
        """The map's image of each array, as the base kernel's checked
        points in the array's shape, (n, d) or a broadcast (b, 1, d) or
        (1, m, d): all are mapped as rows, then all checked finite, then
        each checked against the base kernel's domain."""
        images = [as_points(self.map(V.reshape(-1, V.shape[-1])), self.base.dim) for V in arrays]
        if not all(np.all(np.isfinite(F)) for F in images):
            raise InvalidSpecError("points must be finite")
        for F in images:
            self.base._check(F)
        return [F.reshape(V.shape[:-1] + F.shape[-1:]) for F, V in zip(images, arrays)]

    def _pairs(self, X, Y):
        # the mapped image exists only here, so it is checked here
        FX, FY = self._images(X, Y)
        return self.base._pairs(FX, FY)

    def _rows(self, X, Y):
        # each array is mapped once, not once per row, and checked in the
        # order the rows meet it: x_0 with Y, then the other rows of X
        FX, FY = self._images(X[:1], Y)
        if len(X) > 1:
            FX = np.concatenate([FX, *self._images(X[1:])])
        return self.base._rows(FX, FY)

