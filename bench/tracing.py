"""Per-layer attribution for the traced benchmark run.

The tracer wraps public functions and methods of the ``kembed`` modules
from outside the library and restores the originals afterwards. Coarse
calls become spans (name, start, end, parent span, request). Per-point
calls are only counted (``Kernel.__call__``, ``Kernel.batch``) or timed
without a span record (``Embedding.kp_at``), so that the traced run
stays close to the untraced one.

A layer's self time is the time of its frames minus the time of the
frames opened inside them. Its inclusive time counts only the outermost
frame of each nest, so recursive calls (``embed`` on a mixture,
``parse_kernel`` on a sum) are not counted twice.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

ORACLE_METHODS = ("gauss_legendre", "gauss_hermite", "monte_carlo", "sphere_mc")


class Tracer:
    """Spans, per-layer times and counters for one traced loop."""

    def __init__(self):
        self.t0 = perf_counter()
        self.request = 0
        self.stack = []  # open frames: [group, start, child_time, span_id, parent_id]
        self.depth = Counter()
        self.spans = []
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._restore = []

    # --- frames --------------------------------------------------------------

    def open(self, group: str, name: str | None):
        """Open a frame of ``group``; ``name`` is the span name, or None
        for a frame that is timed but not recorded as a span."""
        parent = self.stack[-1] if self.stack else None
        parent_id = None
        if parent is not None:
            parent_id = parent[3] if parent[3] is not None else parent[4]
        span_id = None
        if name is not None:
            span_id = len(self.spans)
            self.spans.append([self.request, span_id, parent_id, name, 0.0, 0.0])
        self.calls[group] += 1
        self.depth[group] += 1
        frame = [group, perf_counter(), 0.0, span_id, parent_id]
        self.stack.append(frame)
        return frame

    def close(self, frame) -> None:
        end = perf_counter()
        self.stack.pop()
        group, start, child, span_id, _ = frame
        duration = end - start
        self.depth[group] -= 1
        if self.depth[group] == 0:
            self.inclusive[group] += duration
        self.self_time[group] += duration - child
        if self.stack:
            self.stack[-1][2] += duration
        if span_id is not None:
            span = self.spans[span_id]
            span[4] = start - self.t0
            span[5] = end - self.t0

    def outermost(self, group: str) -> bool:
        """True inside the outermost open frame of ``group``."""
        return self.depth[group] == 1

    # --- wrappers ------------------------------------------------------------

    def timed(self, fn, group: str, name: str | None, on_result=None):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer.open(group, name)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(tracer, args, result)
                return result
            finally:
                tracer.close(frame)

        return wrapper

    def counted(self, fn, key: str, rows: bool = False):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            result = fn(*args, **kwargs)
            if rows:
                counts[key + "_rows"] += len(result)
            return result

        return wrapper

    # --- installation --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_function(self, module, attr: str, wrapper_of) -> None:
        """Replace a module function in every kembed module that holds
        it, so calls through imported names are traced too."""
        original = getattr(module, attr)
        wrapper = wrapper_of(original)
        for name, mod in list(sys.modules.items()):
            if name != "kembed" and not name.startswith("kembed."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def _wrap_methods(self, base, attr: str, wrapper_of) -> None:
        """Replace ``attr`` on ``base`` and on every subclass that
        defines its own."""
        pending = [base]
        seen = set()
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            if attr in cls.__dict__:
                self._set(cls, attr, wrapper_of(cls.__dict__[attr]))

    def install(self, kembed_modules) -> None:
        """Wrap the public boundaries of each layer."""
        cli = kembed_modules["cli"]
        dictionary = kembed_modules["dictionary"]
        combinators = kembed_modules["combinators"]
        kernels = kembed_modules["kernels"]
        measures = kembed_modules["measures"]
        oracle = kembed_modules["oracle"]
        quadrature = kembed_modules["quadrature"]

        def span(group, name, on_result=None):
            return lambda fn: self.timed(fn, group, name, on_result)

        self._wrap_function(cli, "run", span("cli.run", "cli.run"))
        for attr in ("load_spec", "parse_kernel", "parse_measure"):
            self._wrap_function(cli, attr, span("cli.parse", f"cli.{attr}"))
        self._wrap_function(dictionary, "embed", span("dictionary.embed", "dictionary.embed"))
        self._wrap_function(
            combinators,
            "mixture_embed",
            span("combinators.mixture_embed", "combinators.mixture_embed"),
        )
        for attr in ("estimate_kp", "estimate_kpp"):
            self._wrap_function(
                oracle, attr, span(f"oracle.{attr}", f"oracle.{attr}", _count_oracle_nodes)
            )
        self._wrap_function(
            quadrature, "make_problem", span("quadrature.make_problem", "quadrature.make_problem")
        )
        self._wrap_function(
            quadrature,
            "bq_posterior",
            span("quadrature.bq_posterior", "quadrature.bq_posterior", _count_jitter),
        )
        self._wrap_function(quadrature, "mmd2", span("quadrature.mmd2", "quadrature.mmd2"))

        self._wrap_methods(
            dictionary.Embedding, "kp_at", lambda fn: self.timed(fn, "dictionary.kp_at", None)
        )
        self._wrap_methods(
            kernels.Kernel, "gram", span("kernels.gram", "kernels.gram", _count_gram)
        )
        self._wrap_methods(
            measures.Measure, "sample", span("measures.sample", "measures.sample", _count_rows)
        )
        self._wrap_methods(kernels.Kernel, "__call__", lambda fn: self.counted(fn, "kernels.scalar"))
        self._wrap_methods(
            kernels.Kernel, "batch", lambda fn: self.counted(fn, "kernels.batch", rows=True)
        )

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # --- results -------------------------------------------------------------

    def metrics(self, requests: int) -> dict[str, float]:
        """Per-request means of every per-layer metric."""
        n = max(requests, 1)
        inc, own, calls, counts = self.inclusive, self.self_time, self.calls, self.counts
        per_request = {
            "cli.run_s": inc["cli.run"],
            "cli.run_self_s": own["cli.run"],
            "cli.parse_s": inc["cli.parse"],
            "dictionary.embed_self_s": own["dictionary.embed"],
            "dictionary.embed_calls": calls["dictionary.embed"],
            "dictionary.kp_at_calls": calls["dictionary.kp_at"],
            "dictionary.kp_at_s": inc["dictionary.kp_at"],
            "combinators.mixture_embed_s": inc["combinators.mixture_embed"],
            "kernels.scalar_calls": counts["kernels.scalar"],
            "kernels.batch_calls": counts["kernels.batch"],
            "kernels.batch_rows": counts["kernels.batch_rows"],
            "kernels.gram_s": inc["kernels.gram"],
            "kernels.gram_entries": counts["kernels.gram_entries"],
            "kernels.gram_bytes_computed": 8 * counts["kernels.gram_entries"],
            "measures.sample_s": inc["measures.sample"],
            "measures.sample_rows": counts["measures.sample_rows"],
            "oracle.estimate_kp_s": inc["oracle.estimate_kp"],
            "oracle.estimate_kp_calls": calls["oracle.estimate_kp"],
            "oracle.estimate_kpp_s": inc["oracle.estimate_kpp"],
            "oracle.estimate_kpp_calls": calls["oracle.estimate_kpp"],
            "quadrature.make_problem_self_s": own["quadrature.make_problem"],
            "quadrature.bq_posterior_s": inc["quadrature.bq_posterior"],
            "quadrature.mmd2_self_s": own["quadrature.mmd2"],
        }
        for method in ORACLE_METHODS:
            per_request[f"oracle.nodes.{method}"] = counts[f"oracle.nodes.{method}"]
        out = {key: value / n for key, value in per_request.items()}
        bq_calls = calls["quadrature.bq_posterior"]
        out["quadrature.jitter_nonzero"] = (
            counts["quadrature.jitter_nonzero"] / bq_calls if bq_calls else 0.0
        )
        return out

    def write_spans(self, path) -> None:
        keys = ("request", "id", "parent", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _count_oracle_nodes(tracer, args, result) -> None:
    tracer.counts[f"oracle.nodes.{result.method}"] += result.n


def _count_jitter(tracer, args, result) -> None:
    if result.jitter > 0:
        tracer.counts["quadrature.jitter_nonzero"] += 1


def _count_gram(tracer, args, result) -> None:
    tracer.counts["kernels.gram_entries"] += result.size


def _count_rows(tracer, args, result) -> None:
    if tracer.outermost("measures.sample"):
        tracer.counts["measures.sample_rows"] += len(result)
