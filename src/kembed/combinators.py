"""Compositional rules that build new embeddings out of existing ones:
products over independent blocks, mixtures, change of variables, change
of measure, and matrix-valued lifts."""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from . import oracle
from .dictionary import (
    CLOSED_FORM,
    NUMERIC_FALLBACK,
    Embedding,
    _recognize_pushforward,
    gauss_cross_kpq,
)
from .errors import InvalidSpecError
from .kernels import ComposedKernel, GaussianKernel, Map, as_point
from .measures import (
    EmpiricalMeasure,
    GaussianMeasure,
    Measure,
    PushforwardMeasure,
    UniformBoxMeasure,
)

__all__ = [
    "product_embed",
    "mixture_embed",
    "pushforward_embed",
    "change_of_measure",
    "matrix_valued_embed",
    "split_product_measure",
]

# Sample count used when a mixture cross term has no closed form and is
# estimated by Monte Carlo against one of the component measures.
CROSS_TERM_BUDGET = 200_000


def product_embed(parts: Sequence[Embedding], block_dims: Sequence[int]) -> Embedding:
    """Embedding of a tensor product kernel under a product measure:
    both integrals factorize across blocks."""
    parts = list(parts)
    dims = tuple(int(d) for d in block_dims)
    if len(parts) != len(dims):
        raise InvalidSpecError("one embedding per block is required")
    if any(d <= 0 for d in dims):
        raise InvalidSpecError("block dimensions must be positive")
    total_dim = sum(dims)
    offsets = np.cumsum((0,) + dims)

    def kp(x):
        x = as_point(x, total_dim)
        value = 1.0
        for i, part in enumerate(parts):
            block = x[offsets[i] : offsets[i + 1]]
            value *= part.kp_at(block if block.size > 1 else float(block[0]))
        return value

    kpp = 1.0
    for part in parts:
        kpp *= part.kpp
    var = 0.0
    for i, part in enumerate(parts):
        others = 1.0
        for j, q in enumerate(parts):
            if j != i:
                others *= q.kpp
        var += (part.kpp_stderr * others) ** 2

    return Embedding(
        kp_fn=kp,
        kpp=kpp,
        pair_id="product/" + "*".join(p.pair_id for p in parts),
        kp_provenance=_combine(p.kp_provenance for p in parts),
        kpp_provenance=_combine(p.kpp_provenance for p in parts),
        kpp_stderr=math.sqrt(var),
    )


def mixture_embed(
    parts: Sequence[Sequence[Embedding]],
    weights: Sequence[float],
    gammas: Sequence[float] = (1.0,),
    budget: int | None = None,
    seed: int = 0,
) -> Embedding:
    """Embedding of a weighted sum of kernels under a mixture measure.

    ``parts[j][q]`` is the embedding of kernel component q against
    mixture component j. The mean embedding is the double sum
    sum_j sum_q w_j gamma_q kp_{j,q}(x); the double integral adds the
    cross terms between distinct mixture components, which are computed
    in closed form for Gaussian kernels against Gaussian components,
    exactly for empirical components, and by Monte Carlo otherwise.
    """
    parts = [list(row) for row in parts]
    w = [float(v) for v in weights]
    g = [float(v) for v in gammas]
    if len(parts) != len(w):
        raise InvalidSpecError("one row of embeddings per mixture component")
    if any(len(row) != len(g) for row in parts):
        raise InvalidSpecError("one embedding per kernel component in each row")

    def kp(x):
        total = 0.0
        for j, row in enumerate(parts):
            for q, part in enumerate(row):
                total += w[j] * g[q] * part.kp_at(x)
        return total

    kpp = 0.0
    var = 0.0
    provs = [p.kpp_provenance for row in parts for p in row]
    kp_provs = [p.kp_provenance for row in parts for p in row]
    n = len(parts)
    for j in range(n):
        for q in range(len(g)):
            coef = w[j] * w[j] * g[q]
            kpp += coef * parts[j][q].kpp
            var += (coef * parts[j][q].kpp_stderr) ** 2
    for j in range(n):
        for k in range(j + 1, n):
            for q in range(len(g)):
                coef = 2.0 * w[j] * w[k] * g[q]
                pair_seed = seed + 104729 * (q + len(g) * (j * n + k))
                value, stderr, prov = _cross_kpq(
                    parts[j][q], parts[k][q], budget=budget, seed=pair_seed
                )
                kpp += coef * value
                var += (coef * stderr) ** 2
                provs.append(prov)

    return Embedding(
        kp_fn=kp,
        kpp=kpp,
        pair_id="mixture",
        kp_provenance=_combine(kp_provs),
        kpp_provenance=_combine(provs),
        kpp_stderr=math.sqrt(var),
    )


def _cross_kpq(
    part_j: Embedding, part_k: Embedding, budget: int | None, seed: int
) -> tuple[float, float, str]:
    """Double integral of one kernel component against two distinct
    mixture components, one in each argument."""
    kernel = part_j.kernel
    mj, mk = part_j.measure, part_k.measure
    if isinstance(kernel, ComposedKernel):
        # K(phi(x), phi(y)) against P_j and P_k is the base kernel against
        # their images, which may have a closed-form cross term
        images = [_recognize_pushforward(PushforwardMeasure(m, kernel.map)) for m in (mj, mk)]
        if None not in images:
            kernel, (mj, mk) = kernel.base, images
    if (
        isinstance(kernel, GaussianKernel)
        and isinstance(mj, GaussianMeasure)
        and isinstance(mk, GaussianMeasure)
    ):
        return gauss_cross_kpq(kernel, mj, mk), 0.0, CLOSED_FORM
    if isinstance(mk, EmpiricalMeasure):
        wts = np.asarray(mk.weights)
        total = 0.0
        var = 0.0
        prov = part_j.kp_provenance
        for i in range(len(wts)):
            try:
                v, s = part_j.kp_at(mk.points[i]), 0.0
            except InvalidSpecError:
                # closed form restricted to its own support; integrate
                # K(., atom) against the other component directly
                est = oracle.estimate_kp(kernel, mj, x=mk.points[i], seed=seed)
                v, s = est.value, est.stderr
                prov = NUMERIC_FALLBACK
            total += float(wts[i]) * v
            var += (float(wts[i]) * s) ** 2
        return total, math.sqrt(var), prov
    if isinstance(mj, EmpiricalMeasure):
        return _cross_kpq(part_k, part_j, budget, seed)
    if kernel is None or mj is None or mk is None:
        raise InvalidSpecError(
            "mixture cross terms need embeddings built from a kernel and "
            "a sampleable measure"
        )
    # raw double Monte Carlo: independent draws in each argument, so
    # support-restricted closed forms are never evaluated out of range
    n = budget if budget is not None else CROSS_TERM_BUDGET
    vals = kernel.pairs(mj.sample(n, seed), mk.sample(n, seed + 1))
    value = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    return value, stderr, NUMERIC_FALLBACK


def pushforward_embed(inner: Embedding, map: Map) -> Embedding:
    """Embedding under a change of variables: the kernel composed with
    a map phi, against any measure whose pushforward by phi is the one
    ``inner`` was built for. The mean embedding is evaluated at phi(x)
    and the double integral is unchanged."""

    def kp(x):
        return inner.kp_at(map.forward(as_point(x)))

    return Embedding(
        kp_fn=kp,
        kpp=inner.kpp,
        pair_id=f"pushforward[{map.name}]/" + inner.pair_id,
        kp_provenance=inner.kp_provenance,
        kpp_provenance=inner.kpp_provenance,
        kernel=inner.kernel,
        measure=inner.measure,
        kpp_stderr=inner.kpp_stderr,
    )


def change_of_measure(
    f: Callable[[np.ndarray], float], p: Measure, q: Measure
) -> Callable[[np.ndarray], float]:
    """Importance reweighting of an integrand: returns g = f * (p/q),
    so that the integral of g under q equals the integral of f under p.
    This transforms the integrand, not the embedding."""
    if p.dim != q.dim:
        raise InvalidSpecError("measures must share a dimension")

    def g(x):
        qx = q.density(x)
        px = p.density(x)
        if qx == 0.0:
            if px == 0.0:
                return 0.0
            raise InvalidSpecError(
                "the reweighting measure must dominate the original one"
            )
        return f(x) * px / qx

    return g


def matrix_valued_embed(inner: Embedding, matrix) -> Embedding:
    """Embedding of a matrix-valued kernel B K(x, y): both integrals
    are the scalar ones scaled by B."""
    b = np.asarray(matrix, dtype=float)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise InvalidSpecError("matrix must be square")

    def kp(x):
        return b * inner.kp_at(x)

    return Embedding(
        kp_fn=kp,
        kpp=b * inner.kpp,
        pair_id="matrix_valued/" + inner.pair_id,
        kp_provenance=inner.kp_provenance,
        kpp_provenance=inner.kpp_provenance,
        kernel=inner.kernel,
        measure=inner.measure,
        kpp_stderr=inner.kpp_stderr * float(np.max(np.abs(b))),
    )


def split_product_measure(
    measure: Measure, block_dims: Sequence[int]
) -> list[Measure] | None:
    """Factor a measure across contiguous blocks of coordinates, when
    its structure allows it; returns None otherwise."""
    dims = [int(d) for d in block_dims]
    if sum(dims) != measure.dim:
        raise InvalidSpecError("block dimensions must sum to the measure dimension")
    offsets = np.cumsum([0] + dims)
    if isinstance(measure, UniformBoxMeasure):
        return [
            UniformBoxMeasure(
                measure.lows[offsets[i] : offsets[i + 1]],
                measure.highs[offsets[i] : offsets[i + 1]],
            )
            for i in range(len(dims))
        ]
    if isinstance(measure, GaussianMeasure):
        if measure.diagonal:
            diag = np.asarray(measure.cov_diag)
            return [
                GaussianMeasure(
                    measure.mean[offsets[i] : offsets[i + 1]],
                    diag[offsets[i] : offsets[i + 1]],
                )
                for i in range(len(dims))
            ]
        cov = np.asarray(measure.cov)
        for i in range(len(dims)):
            rows = slice(offsets[i], offsets[i + 1])
            rest = np.ones(measure.dim, dtype=bool)
            rest[rows] = False
            if np.any(cov[rows][:, rest] != 0.0):
                return None
        return [
            GaussianMeasure(
                measure.mean[offsets[i] : offsets[i + 1]],
                cov[offsets[i] : offsets[i + 1], offsets[i] : offsets[i + 1]],
            )
            for i in range(len(dims))
        ]
    return None


def _combine(provenances) -> str:
    return (
        CLOSED_FORM
        if all(p == CLOSED_FORM for p in provenances)
        else NUMERIC_FALLBACK
    )
