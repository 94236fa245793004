"""Compositional rules that build the embedding of a combined kernel or
measure out of the embeddings of its parts: products over independent
blocks, sums, mixtures, change of variables, change of measure, and
matrix-valued lifts. Each is a rule of :func:`~kembed.dictionary.embed`'s
table, declared with the condition under which it applies: it takes the
pair it embeds, makes the recursive ``embed`` calls for the parts, and
returns an embedding that carries that pair."""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .dictionary import (
    CLOSED_FORM,
    NUMERIC_FALLBACK,
    Embedding,
    _rule,
    cross_kpq,
    embed,
)
from .errors import InvalidSpecError
from .kernels import (
    ComposedKernel,
    Kernel,
    MatrixValuedKernel,
    ProductKernel,
    SumKernel,
    as_points,
)
from .measures import (
    GaussianMeasure,
    Measure,
    MixtureMeasure,
    PushforwardMeasure,
    UniformBoxMeasure,
)
from .oracle import _mc_mean

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


@_rule(ProductKernel, Measure, lambda k, m: split_product_measure(m, k.block_dims))
def product_embed(kernel: ProductKernel, measure: Measure, factors, budget, seed) -> Embedding:
    """Embedding of a tensor product kernel under a product measure,
    whose factors on the kernel's blocks are those of
    :func:`split_product_measure`: both integrals factorize."""
    parts = [embed(k, m, budget=budget, seed=seed) for k, m in zip(kernel.children, factors)]
    offsets = np.cumsum((0,) + kernel.block_dims)

    def kp_rows(X):
        value = 1.0
        for part, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            value = value * part.kp_rows(X[:, lo:hi])
        return value

    kpp = math.prod(p.kpp for p in parts)
    var = sum(
        (p.kpp_stderr * math.prod(q.kpp for j, q in enumerate(parts) if j != i)) ** 2
        for i, p in enumerate(parts)
    )

    pair_id = "product/" + "*".join(p.pair_id for p in parts)
    return _embedding(kernel, measure, pair_id, parts, kp_rows, kpp, math.sqrt(var))


@_rule(SumKernel, Measure)
def sum_embed(kernel: SumKernel, measure: Measure, _held, budget, seed) -> Embedding:
    """Embedding of a weighted sum of kernels: both integrals are the
    same weighted sum of the children's."""
    parts = [embed(c, measure, budget=budget, seed=seed) for c in kernel.children]
    terms = [(g, p.kpp, p.kpp_stderr, p.kpp_provenance) for g, p in zip(kernel.weights, parts)]
    pair_id = "sum/" + "+".join(p.pair_id for p in parts)
    return _weighted(kernel, measure, pair_id, parts, kernel.weights, terms)


@_rule(Kernel, MixtureMeasure)
def mixture_embed(kernel: Kernel, measure: MixtureMeasure, _held, budget, seed) -> Embedding:
    """Embedding of a kernel under a mixture measure sum_j w_j P_j.

    The mean embedding is sum_j w_j kp_j(x); the double integral adds
    the cross terms between distinct components. Each is exact when a
    rule of :func:`~kembed.dictionary.cross_kpq` applies (a stationary
    kernel against two Gaussian components, possibly as the images of
    a composed kernel's map, or an empirical component), and seeded
    Monte Carlo otherwise.
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

    return _embedding(
        kernel, measure, pair_id, parts, kp_rows, kpp, math.sqrt(var), [t[3] for t in terms]
    )


def _embedding(
    kernel, measure, pair_id, parts, kp_rows, kpp, kpp_stderr, kpp_provenances=None
) -> Embedding:
    """The pair's embedding built out of its parts' embeddings: K_P's
    provenance combines the parts', K_PP's combines ``kpp_provenances``,
    by default the parts' own."""
    if kpp_provenances is None:
        kpp_provenances = [p.kpp_provenance for p in parts]
    return Embedding(
        kp_rows_fn=kp_rows,
        kpp=kpp,
        pair_id=pair_id,
        kernel=kernel,
        measure=measure,
        kp_provenance=_combine(p.kp_provenance for p in parts),
        kpp_provenance=_combine(kpp_provenances),
        kpp_stderr=kpp_stderr,
    )


def _cross_kpq(
    part_j: Embedding, part_k: Embedding, budget: int | None, seed: int
) -> tuple[float, float, str]:
    """Double integral of the kernel against two distinct mixture
    components, one in each argument: the exact rule of
    :func:`~kembed.dictionary.cross_kpq` when one applies, otherwise raw
    double Monte Carlo with independent draws in each argument."""
    exact = cross_kpq(part_j, part_k)
    if exact is not None:
        return exact
    n = budget if budget is not None else CROSS_TERM_BUDGET
    vals = part_j.kernel.pairs(part_j.measure.sample(n, seed), part_k.measure.sample(n, seed + 1))
    value, stderr = _mc_mean(vals)
    return value, stderr, NUMERIC_FALLBACK


@_rule(ComposedKernel, Measure)
def pushforward_embed(kernel: ComposedKernel, measure: Measure, _held, budget, seed) -> Embedding:
    """Embedding of a composed kernel K(phi(x), phi(y)) under a measure
    P: the base kernel's embedding under the image of P by phi,
    evaluated at phi(x). The double integral is the image's."""
    inner = embed(
        kernel.base, PushforwardMeasure(measure, kernel.map), budget=budget, seed=seed
    )
    forward = kernel.map.forward

    def kp_rows(X):
        return inner.kp_rows(forward(X))

    pair_id = f"pushforward[{kernel.map.name}]/" + inner.pair_id
    return _embedding(kernel, measure, pair_id, [inner], kp_rows, inner.kpp, inner.kpp_stderr)


def change_of_measure(
    f: Callable[[np.ndarray], np.ndarray], p: Measure, q: Measure
) -> Callable[[np.ndarray], np.ndarray]:
    """Importance reweighting of an integrand: returns g = f * (p/q),
    so that the integral of g under q equals the integral of f under p.
    f maps an (n, d) array of rows to n values, and so does g. This
    transforms the integrand, not the embedding."""
    if p.dim != q.dim:
        raise InvalidSpecError("measures must share a dimension")

    def g(X):
        X = as_points(X, p.dim)
        qx = q.density_rows(X)
        px = p.density_rows(X)
        bad = (qx == 0.0) & (px != 0.0)
        if np.any(bad):
            raise InvalidSpecError(
                "the reweighting measure must dominate the original one "
                f"(first failing row: {int(np.argmax(bad))})"
            )
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(qx == 0.0, 0.0, f(X) * px / qx)

    return g


@_rule(MatrixValuedKernel, Measure)
def matrix_valued_embed(
    kernel: MatrixValuedKernel, measure: Measure, _held, budget, seed
) -> Embedding:
    """Embedding of a matrix-valued kernel B K(x, y): both integrals
    are the scalar ones of K scaled by B."""
    inner = embed(kernel.base, measure, budget=budget, seed=seed)
    b = kernel.matrix

    def kp_rows(X):
        return inner.kp_rows(X)[:, None, None] * b

    stderr = inner.kpp_stderr * float(np.max(np.abs(b)))
    pair_id = "matrix_valued/" + inner.pair_id
    return _embedding(kernel, measure, pair_id, [inner], kp_rows, b * inner.kpp, stderr)


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
