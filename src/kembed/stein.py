"""Stein reproducing kernels.

Given a base kernel K with analytic derivatives and a target measure
with score s = grad log p, the Stein kernel

    Kt(x, y) = s(x)^T s(y) K(x, y) + grad_x K(x, y)^T s(y)
             + grad_y K(x, y)^T s(x) + tr(grad_x grad_y K(x, y)) + c

integrates to c against the target in either argument, for any target
known only up to normalization. The derivatives are the base kernel's
own analytic rule (``Kernel._derivatives``) and the scores the target's
own rows (``Measure._score_rows``); there is no automatic
differentiation here, so a base without a rule is rejected up front.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .dictionary import _closed_form
from .errors import InvalidSpecError, UnsupportedPairError
from .kernels import Kernel, _in_blocks
from .measures import Measure

__all__ = [
    "SteinKernel",
    "stein_eval",
    "stein_embed",
    "base_derivatives",
]


def base_derivatives(kernel: Kernel, x, Y):
    """Evaluate (K, grad_x K, grad_y K, tr grad_x grad_y K) against the
    rows of Y, at one point x or at the matched rows of x, using the
    analytic rule the kernel's class states."""
    _check_has_derivatives(kernel)
    return kernel._derivatives(x, Y)


def _check_has_derivatives(kernel: Kernel) -> None:
    if kernel._derivatives is None:
        raise UnsupportedPairError(
            f"no analytic derivatives registered for kernel family "
            f"'{kernel.family}'"
        )


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
        _check_has_derivatives(self.base)
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
        # the rows forms on points already checked, so no check here
        return self._value(X, Y, self.target._score_rows(X), self.target._score_rows(Y))

    def _rows(self, X, Y):
        # each array is scored once, not once per row of X
        sx, sy = self.target._score_rows(X), self.target._score_rows(Y)
        for i in range(len(X)):
            yield _in_blocks(self._value, X[i : i + 1], Y, sx[i : i + 1], sy)

    def _value(self, X, Y, sx, sy):
        """The Stein kernel on matched rows of X and Y whose scores are sx
        and sy, from the base kernel's (K, grad_x K, grad_y K,
        tr grad_x grad_y K)."""
        k, gx, gy, tr = self.base._derivatives(X, Y)
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


@_closed_form(SteinKernel, Measure, lambda k, m: k.is_target(m))
def stein_embed(kernel: SteinKernel, measure: Measure):
    """Both embeddings of a Stein kernel against its own target are
    identically the additive constant c; they hold under that target
    only."""
    c = float(kernel.c)
    return lambda X: np.full(len(X), c), c
