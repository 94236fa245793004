"""Kernel families and their evaluation on arrays of points.

Every kernel is a small frozen description object that states its
formula once, on rows of points (see :class:`Kernel`). Families with
closed-form mean embeddings are matched up with measures in
:mod:`kembed.dictionary`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Coerce a scalar or sequence to a 1-d float array, checking length."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1:
        raise InvalidSpecError(f"points must be scalars or 1-d, got shape {arr.shape}")
    if dim is not None and arr.size != dim:
        raise InvalidSpecError(f"expected a point of dimension {dim}, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise InvalidSpecError("points must be finite")
    return arr


def as_points(X, dim: int | None = None) -> np.ndarray:
    """Coerce input to an (n, d) array of points."""
    arr = np.asarray(X, dtype=float)
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
    """Squared distance |(y_i - x_i) / scale|^2 of matched rows of two
    (n, d) arrays, either of which may be a single row, in the bits of
    ``np.sum(((Y - X) / scale) ** 2, axis=1)``. Below 8 columns numpy
    sums sequentially, so the columns are added one at a time, which
    avoids its slow reduction along a short axis; from 8 up numpy sums
    pairwise, and np.sum itself is used. Each column's temporary is
    freed once it is added, so at most two rows of the result's length
    are held at a time."""
    d = X.shape[1]
    if not 0 < d < 8:
        Z = Y - X
        if scale is not None:
            Z = Z / np.asarray(scale)
        return np.sum(Z * Z, axis=1)

    def column(j):
        z = Y[:, j] - X[:, j]
        if scale is not None:
            z /= scale[j]
        z *= z
        return z

    out = column(0)
    for j in range(1, d):
        out += column(j)
    return out


def _precision_rows(cov: np.ndarray, D: np.ndarray) -> np.ndarray:
    """cov^{-1} d for each row d of D. The precision matrix multiplies
    each row elementwise and sums over the last axis, so a row's bits do
    not depend on how many rows share the call (a multi-right-hand-side
    solve's do)."""
    return np.sum(np.linalg.inv(cov)[None, :, :] * D[:, None, :], axis=2)


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
    argument array, then ``_pairs``; they agree bit for bit. ``spec``
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
        """K(x, y_i) for rows y_i of Y."""
        x = as_point(x, self.dim)
        return self._checked_pairs(x[None, :], _finite_points(Y, x.size))

    def pairs(self, X, Y) -> np.ndarray:
        """K(x_i, y_i) for matched rows of X and Y; a single row of
        either broadcasts against the other."""
        X = _finite_points(X, self.dim)
        Y = _finite_points(Y, X.shape[1])
        if len(X) != len(Y) and 1 not in (len(X), len(Y)):
            raise InvalidSpecError(f"pairs needs matched rows, got {len(X)} and {len(Y)}")
        return self._checked_pairs(X, Y)

    def rows(self, X, Y):
        """K(x_i, Y) for each row x_i of X, one row at a time, each with
        the bits of ``batch(x_i, Y)``. Both arrays are checked once, here;
        a domain error is the one the first failing ``batch(x_i, Y)``
        would raise."""
        X = _finite_points(X, self.dim)
        Y = _finite_points(Y, X.shape[1])
        for V in (X[:1], Y, X[1:]):
            self._check(V)
        return self._rows(X, Y)

    def gram(self, X) -> np.ndarray:
        """Kernel matrix over rows of X, filled row by row into one
        array; a matrix-valued kernel gives an (n, n, k, k) array."""
        X = self._checked_points(X)
        out = np.zeros((0, 0))
        for i, row in enumerate(self._rows(X, X)):
            if i == 0:
                out = np.empty((len(X),) + row.shape)
            out[i] = row
        return out

    def gram_form(self, X, w) -> float:
        """w^T K(X, X) w for a scalar kernel, summed over one Gram row at
        a time, so memory grows with n and not n^2: each row gives
        v_i = K(x_i, X) @ w, and the result is w @ v."""
        X = self._checked_points(X)
        w = np.asarray(w, dtype=float)
        v = np.empty(len(X))
        for i, row in enumerate(self._rows(X, X)):
            v[i] = row @ w
        return float(w @ v)

    def _checked_points(self, X) -> np.ndarray:
        """X as finite (n, d) points in the kernel's domain."""
        X = _finite_points(X, self.dim)
        self._check(X)
        return X

    def _checked_pairs(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """``_pairs`` on finite points of matching dimension, after the
        domain check of each argument."""
        self._check(X)
        self._check(Y)
        return self._pairs(X, Y)

    def _rows(self, X: np.ndarray, Y: np.ndarray):
        """The rows K(x_i, Y) over checked points."""
        for i in range(len(X)):
            yield self._pairs(X[i : i + 1], Y)

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
        return np.exp(-0.5 * np.sum(D * _precision_rows(self.matrix, D), axis=1))


def matern_half_integer(n: int, tau: float) -> float:
    """Half-integer Matern correlation at scaled distance tau, nu = n + 1/2.

    The closed product form
    exp(-sqrt(2n+1) tau) * (n!/(2n)!) * sum_k ((n+k)!/(k!(n-k)!)) (2 sqrt(2n+1) tau)^{n-k}.
    """
    if n < 0 or n != int(n):
        raise InvalidSpecError(f"n must be a nonnegative integer, got {n}")
    n = int(n)
    tau = float(tau)
    c = math.sqrt(2 * n + 1)
    s = 0.0
    for k in range(n + 1):
        coef = math.factorial(n + k) / (math.factorial(k) * math.factorial(n - k))
        s += coef * (2.0 * c * tau) ** (n - k)
    return math.exp(-c * tau) * math.factorial(n) / math.factorial(2 * n) * s


@dataclass(frozen=True, eq=False)
class MaternKernel(Kernel):
    """Matern kernel at half-integer smoothness nu = n + 1/2, n in {0..3}."""

    nu: float
    lengthscale: float = 1.0

    family = "matern"
    spec = {"nu": "number", "lengthscale": "number"}

    def __post_init__(self):
        n = self.nu - 0.5
        if abs(n - round(n)) > 1e-12 or not 0 <= round(n) <= 3:
            raise InvalidSpecError(
                f"nu must be one of 0.5, 1.5, 2.5, 3.5, got {self.nu}"
            )
        if self.lengthscale <= 0:
            raise InvalidSpecError("lengthscale must be positive")
        object.__setattr__(self, "nu", float(self.nu))
        object.__setattr__(self, "lengthscale", float(self.lengthscale))

    @property
    def n(self) -> int:
        return int(round(self.nu - 0.5))

    def _pairs(self, X, Y):
        t = np.sqrt(_sq_dist(X, Y)) / self.lengthscale
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

    def __post_init__(self):
        if self.order not in (0, 2, 4):
            raise InvalidSpecError(f"order must be 0, 2 or 4, got {self.order}")
        if self.lengthscale <= 0:
            raise InvalidSpecError("lengthscale must be positive")
        object.__setattr__(self, "lengthscale", float(self.lengthscale))

    def _pairs(self, X, Y):
        t = np.sqrt(_sq_dist(X, Y)) / self.lengthscale
        base = np.maximum(0.0, 1.0 - t)
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
        # in place, so that checking a large sample holds two rows of
        # its length, not three
        nrm = np.einsum("ij,ij->i", V, V)
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


def NormalICDFMap() -> Map:
    """Coordinatewise standard normal quantile transform."""
    from .specfun import normal_cdf, normal_icdf

    # elementwise on any shape; the scalar special function keeps the
    # bits of math.exp and math.log, which np.exp and np.log do not
    fwd = np.vectorize(normal_icdf, otypes=[float])

    def forward(x):
        p = np.atleast_1d(np.asarray(x, dtype=float))
        outside = ~((p > 0.0) & (p < 1.0))
        if np.any(outside):
            raise InvalidSpecError(
                f"the normal_icdf map takes values in (0, 1), got {p[outside][0]}"
            )
        return fwd(p)

    return Map(
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

    def gram(self, X):
        return self.base.gram(self.map(self._checked_points(X)))

    def gram_form(self, X, w):
        return self.base.gram_form(self.map(self._checked_points(X)), w)

    def _images(self, *arrays):
        """The map's image of each array, as the base kernel's checked
        points: all are mapped, then all checked finite, then each
        checked against the base kernel's domain."""
        images = [as_points(self.map(V), self.base.dim) for V in arrays]
        if not all(np.all(np.isfinite(F)) for F in images):
            raise InvalidSpecError("points must be finite")
        for F in images:
            self.base._check(F)
        return images

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

