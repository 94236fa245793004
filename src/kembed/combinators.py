"""Compositional rules that build the embedding of a combined kernel or
measure out of the embeddings of its parts: products over independent
blocks, sums, mixtures, change of variables, change of measure, and
matrix-valued lifts. Each builder takes the pair it embeds, makes the
recursive :func:`~kembed.dictionary.embed` calls for the parts, and
returns an embedding that carries that pair."""

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
    embed,
    gauss_cross_kpq,
)
from .errors import InvalidSpecError
from .kernels import (
    ComposedKernel,
    GaussianKernel,
    Kernel,
    MatrixValuedKernel,
    ProductKernel,
    SumKernel,
)
from .measures import (
    EmpiricalMeasure,
    GaussianMeasure,
    Measure,
    MixtureMeasure,
    PushforwardMeasure,
    UniformBoxMeasure,
)

__all__ = [
    "product_embed",
    "sum_embed",
    "mixture_embed",
    "pushforward_embed",
    "change_of_measure",
    "matrix_valued_embed",
    "split_product_measure",
]

# Sample count used when a mixture cross term has no closed form and is
# estimated by Monte Carlo against one of the component measures.
CROSS_TERM_BUDGET = 200_000


def product_embed(
    kernel: ProductKernel,
    measure: Measure,
    factors: Sequence[Measure],
    budget: int | None = None,
    seed: int = 0,
) -> Embedding:
    """Embedding of a tensor product kernel under a product measure,
    given the measure's factors on the kernel's blocks (from
    :func:`split_product_measure`): both integrals factorize."""
    parts = [
        embed(k, m, budget=budget, seed=seed) for k, m in zip(kernel.children, factors)
    ]
    offsets = np.cumsum((0,) + kernel.block_dims)

    def kp_rows(X):
        value = 1.0
        for part, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            value = value * part.kp_rows(X[:, lo:hi])
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
        kp_rows_fn=kp_rows,
        kpp=kpp,
        pair_id="product/" + "*".join(p.pair_id for p in parts),
        kernel=kernel,
        measure=measure,
        kp_provenance=_combine(p.kp_provenance for p in parts),
        kpp_provenance=_combine(p.kpp_provenance for p in parts),
        kpp_stderr=math.sqrt(var),
    )


def sum_embed(
    kernel: SumKernel, measure: Measure, budget: int | None = None, seed: int = 0
) -> Embedding:
    """Embedding of a weighted sum of kernels: both integrals are the
    same weighted sum of the children's."""
    parts = [embed(c, measure, budget=budget, seed=seed) for c in kernel.children]
    terms = [(g, p.kpp, p.kpp_stderr, p.kpp_provenance) for g, p in zip(kernel.weights, parts)]
    pair_id = "sum/" + "+".join(p.pair_id for p in parts)
    return _weighted(kernel, measure, pair_id, parts, kernel.weights, terms)


def mixture_embed(
    kernel: Kernel, measure: MixtureMeasure, budget: int | None = None, seed: int = 0
) -> Embedding:
    """Embedding of a kernel under a mixture measure sum_j w_j P_j.

    The mean embedding is sum_j w_j kp_j(x); the double integral adds
    the cross terms between distinct components, which are computed in
    closed form for Gaussian kernels against Gaussian components,
    exactly for empirical components, and by Monte Carlo otherwise.
    """
    parts = [embed(kernel, c, budget=budget, seed=seed) for c in measure.components]
    w = measure.weights
    n = len(parts)
    terms = [(wj * wj, p.kpp, p.kpp_stderr, p.kpp_provenance) for wj, p in zip(w, parts)]
    for j in range(n):
        for k in range(j + 1, n):
            pair_seed = seed + 104729 * (j * n + k)
            value, stderr, prov = _cross_kpq(parts[j], parts[k], budget=budget, seed=pair_seed)
            terms.append((2.0 * w[j] * w[k], value, stderr, prov))
    return _weighted(kernel, measure, "mixture", parts, w, terms)


def _weighted(kernel, measure, pair_id, parts, weights, terms) -> Embedding:
    """The embedding whose mean embedding is sum_i weights_i kp_i(x) over
    the parts, and whose double integral sums coef * value over the
    (coef, value, stderr, provenance) terms."""

    def kp_rows(X):
        # each part's rows at once (one oracle sample per numeric part)
        total = 0.0
        for w, part in zip(weights, parts):
            total = total + w * part.kp_rows(X)
        return total

    kpp = 0.0
    var = 0.0
    for coef, value, stderr, _ in terms:
        kpp += coef * value
        var += (coef * stderr) ** 2

    return Embedding(
        kp_rows_fn=kp_rows,
        kpp=kpp,
        pair_id=pair_id,
        kernel=kernel,
        measure=measure,
        kp_provenance=_combine(p.kp_provenance for p in parts),
        kpp_provenance=_combine(t[3] for t in terms),
        kpp_stderr=math.sqrt(var),
    )


def _cross_kpq(
    part_j: Embedding, part_k: Embedding, budget: int | None, seed: int
) -> tuple[float, float, str]:
    """Double integral of the kernel against two distinct mixture
    components, one in each argument."""
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
    # raw double Monte Carlo: independent draws in each argument, so
    # support-restricted closed forms are never evaluated out of range
    n = budget if budget is not None else CROSS_TERM_BUDGET
    vals = kernel.pairs(mj.sample(n, seed), mk.sample(n, seed + 1))
    value = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    return value, stderr, NUMERIC_FALLBACK


def pushforward_embed(
    kernel: ComposedKernel, measure: Measure, budget: int | None = None, seed: int = 0
) -> Embedding:
    """Embedding of a composed kernel K(phi(x), phi(y)) under a measure
    P: the base kernel's embedding under the image of P by phi,
    evaluated at phi(x). The double integral is the image's."""
    inner = embed(
        kernel.base, PushforwardMeasure(measure, kernel.map), budget=budget, seed=seed
    )
    forward = kernel.map.forward

    def kp_rows(X):
        return inner.kp_rows(forward(X))

    return Embedding(
        kp_rows_fn=kp_rows,
        kpp=inner.kpp,
        pair_id=f"pushforward[{kernel.map.name}]/" + inner.pair_id,
        kernel=kernel,
        measure=measure,
        kp_provenance=inner.kp_provenance,
        kpp_provenance=inner.kpp_provenance,
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


def matrix_valued_embed(
    kernel: MatrixValuedKernel, measure: Measure, budget: int | None = None, seed: int = 0
) -> Embedding:
    """Embedding of a matrix-valued kernel B K(x, y): both integrals
    are the scalar ones of K scaled by B."""
    inner = embed(kernel.base, measure, budget=budget, seed=seed)
    b = kernel.matrix

    def kp_rows(X):
        return inner.kp_rows(X)[:, None, None] * b

    return Embedding(
        kp_rows_fn=kp_rows,
        kpp=b * inner.kpp,
        pair_id="matrix_valued/" + inner.pair_id,
        kernel=kernel,
        measure=measure,
        kp_provenance=inner.kp_provenance,
        kpp_provenance=inner.kpp_provenance,
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
