"""Stein reproducing kernels.

Given a base kernel K with analytic derivatives and a target measure
with score s = grad log p, the Stein kernel

    Kt(x, y) = s(x)^T s(y) K(x, y) + grad_x K(x, y)^T s(y)
             + grad_y K(x, y)^T s(x) + tr(grad_x grad_y K(x, y)) + c

integrates to c against the target in either argument, for any target
known only up to normalization. Derivatives come from a registry of
analytic rules keyed by base kernel family; there is no automatic
differentiation here, so unsupported bases are rejected up front.
"""

from __future__ import annotations

import math

from dataclasses import dataclass, fields, is_dataclass
from typing import Callable

import numpy as np

from .dictionary import Embedding
from .errors import InvalidSpecError, UnsupportedPairError
from .kernels import GaussianKernel, Kernel, _precision_rows, as_point, as_points
from .measures import GaussianMeasure, Measure, MixtureMeasure

__all__ = [
    "SteinKernel",
    "stein_eval",
    "stein_embed",
    "register_derivatives",
    "base_derivatives",
]

# family -> fn(kernel, x, Y) returning (k, grad_x, grad_y, trace) with
# shapes (n,), (n, d), (n, d), (n,) for the rows y_i of Y; x is one
# point or an (n, d) array of rows matched with those of Y.
_DERIVATIVES: dict[str, Callable] = {}


def register_derivatives(family: str, fn: Callable) -> None:
    """Register analytic derivative rules for a base kernel family."""
    _DERIVATIVES[family] = fn


def base_derivatives(kernel: Kernel, x, Y):
    """Evaluate (K, grad_x K, grad_y K, tr grad_x grad_y K) against the
    rows of Y, at one point x or at the matched rows of x, using the
    registered rule for the kernel's family."""
    fn = _DERIVATIVES.get(kernel.family)
    if fn is None:
        raise UnsupportedPairError(
            f"no analytic derivatives registered for kernel family "
            f"'{kernel.family}'"
        )
    return fn(kernel, x, Y)


def _gaussian_derivatives(kernel: GaussianKernel, x, Y):
    X = as_points(x, kernel.dim) if np.ndim(x) == 2 else as_point(x, kernel.dim)[None, :]
    Y = as_points(Y, X.shape[1])
    U = X - Y
    if kernel.diagonal:
        inv = 1.0 / np.asarray(kernel.lengthscales) ** 2
        Q = U * inv[None, :]
        trace_inv = float(np.sum(inv))
    else:
        lam_inv = np.linalg.inv(kernel.lam())
        Q = U @ lam_inv
        trace_inv = float(np.trace(lam_inv))
    k = np.exp(-0.5 * np.sum(U * Q, axis=1))
    grad_x = -k[:, None] * Q
    grad_y = k[:, None] * Q
    trace = k * (trace_inv - np.sum(Q * Q, axis=1))
    return k, grad_x, grad_y, trace


register_derivatives("gaussian", _gaussian_derivatives)


def _score_rows(measure: Measure, Y: np.ndarray) -> np.ndarray:
    """Scores of the target at the rows of Y, vectorized when the
    measure allows it."""
    if isinstance(measure, GaussianMeasure):
        D = Y - np.asarray(measure.mean)[None, :]
        if measure.diagonal:
            return -D / np.asarray(measure.cov_diag)[None, :]
        return -_precision_rows(measure.cov, D)
    if isinstance(measure, MixtureMeasure) and all(
        isinstance(c, GaussianMeasure) for c in measure.components
    ):
        # posterior-weighted component scores, all rows at once; log
        # densities are shifted by their max for stable exponentials
        logs = np.empty((len(measure.components), Y.shape[0]))
        scores = np.empty((len(measure.components),) + Y.shape)
        for j, comp in enumerate(measure.components):
            D = Y - np.asarray(comp.mean)[None, :]
            if comp.diagonal:
                var = np.asarray(comp.cov_diag)[None, :]
                q = np.sum(D * D / var, axis=1)
                scores[j] = -D / var
            else:
                sol = _precision_rows(comp.cov, D)
                q = np.sum(D * sol, axis=1)
                scores[j] = -sol
            logdet = 2.0 * np.sum(np.log(np.diag(comp.chol)))
            logs[j] = math.log(measure.weights[j]) - 0.5 * (
                q + logdet + Y.shape[1] * math.log(2.0 * math.pi)
            )
        logs -= logs.max(axis=0, keepdims=True)
        resp = np.exp(logs)
        resp /= resp.sum(axis=0, keepdims=True)
        return np.einsum("jn,jnd->nd", resp, scores)
    return np.vstack([measure.score(row) for row in Y])


@dataclass(frozen=True, eq=False)
class SteinKernel(Kernel):
    """Stein kernel with base kernel, score-bearing target, and
    additive constant c (the value of both of its embeddings)."""

    base: Kernel
    target: Measure
    c: float = 0.0

    family = "stein"
    spec = {"base": "kernel", "target": "measure", "c": "number?"}
    smooth = True

    def __post_init__(self):
        if not isinstance(self.base, Kernel):
            raise InvalidSpecError("base must be a kernel")
        if not isinstance(self.target, Measure):
            raise InvalidSpecError("target must be a measure")
        if self.base.family not in _DERIVATIVES:
            raise UnsupportedPairError(
                f"no analytic derivatives registered for kernel family "
                f"'{self.base.family}'"
            )
        if self.base.dim is not None and self.base.dim != self.target.dim:
            raise InvalidSpecError(
                "base kernel and target measure dimensions differ"
            )

    @property
    def dim(self):
        return self.target.dim

    def is_target(self, measure: Measure) -> bool:
        """True when ``measure`` is this kernel's target: the same
        object, or the same family with equal parameters, so a target
        and a measure parsed from separate spec objects still match."""
        return _same_parameters(self.target, measure)

    def _check(self, V):
        self.base._check(V)

    def _pairs(self, X, Y):
        k, gx, gy, tr = base_derivatives(self.base, X, Y)
        sy = _score_rows(self.target, Y)
        sx = _score_rows(self.target, X)
        return (
            k * np.sum(sy * sx, axis=1)
            + np.sum(gx * sy, axis=1)
            + np.sum(gy * sx, axis=1)
            + tr
            + self.c
        )


def _same_parameters(a, b) -> bool:
    if a is b:
        return True
    if isinstance(a, Measure) and is_dataclass(a):
        return type(a) is type(b) and all(
            _same_parameters(getattr(a, f.name), getattr(b, f.name)) for f in fields(a)
        )
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_same_parameters, a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.shape(a) == np.shape(b) and bool(np.all(a == b))
    # maps and score handles compare by identity
    return bool(a == b)


def stein_eval(kernel: SteinKernel, x, y) -> float:
    """Pointwise value of a Stein kernel."""
    if not isinstance(kernel, SteinKernel):
        raise InvalidSpecError("stein_eval expects a Stein kernel")
    return kernel(x, y)


def stein_embed(kernel: SteinKernel, measure: Measure) -> Embedding:
    """Both embeddings of a Stein kernel against its own target are
    identically the additive constant c. They hold under that target
    only; :func:`kembed.dictionary.embed` checks the measure first."""
    if not isinstance(kernel, SteinKernel):
        raise InvalidSpecError("stein_embed expects a Stein kernel")
    c = float(kernel.c)
    d = kernel.dim

    def kp(x):
        as_point(x, d)
        return c

    return Embedding(
        kp_fn=kp,
        kpp=c,
        pair_id=f"stein/{kernel.target.family}",
        kernel=kernel,
        measure=measure,
    )
