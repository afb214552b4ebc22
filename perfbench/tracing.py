"""Span tracer for the traced run, wrapped around the program's public
functions from outside the package.

A span records (name, start, end, parent span, request id). Spans stay
in memory until the run ends. ``install`` patches the functions and
methods each layer exposes, and ``uninstall`` puts the originals back;
an untraced run never calls ``install``, so it runs the program as
shipped. A function the program no longer has is skipped and listed in
``Tracer.missing``. ``install`` and ``uninstall`` may be called in turn
any number of times; spans and counts add up over the installs.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

LAYERS = (
    "model",
    "knowledge",
    "selectors",
    "encoder",
    "decoder",
    "autodiff",
    "training",
    "emotion",
    "evaluation",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self.stack: list[int] = []
        self.request = None
        self.counts: dict[str, float] = defaultdict(float)
        self.streams: dict[tuple, str] = {}
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------

    def top(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.request]
        self.spans.append(span)
        self.stack.append(index)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    # -- patching -------------------------------------------------------

    def _patch(self, module: str, path: str, make):
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        original = owner.__dict__.get(attr) if owner is not None else None
        if original is None:
            if f"{module}.{path}" not in self.missing:
                self.missing.append(f"{module}.{path}")
            return
        inner = original.__func__ if isinstance(original, staticmethod) else original
        wrapper = functools.wraps(inner)(make(inner))
        setattr(owner, attr, staticmethod(wrapper) if isinstance(original, staticmethod) else wrapper)
        self._undo.append((owner, attr, original))

    def _span(self, module, path, name):
        self._patch(module, path, lambda fn: lambda *a, **k: self.call(name, fn, *a, **k))

    def _counted(self, module, path, name, counter):
        def make(fn):
            def wrapper(*a, **k):
                self.counts[counter] += 1
                return self.call(name, fn, *a, **k)

            return wrapper

        self._patch(module, path, make)

    def install(self) -> None:
        t = self
        for path, name in (
            ("prepare_sample", "model.prepare"),
            ("fuse_sensible", "encoder.fusion"),
            ("encode_relations", "encoder.relations"),
            ("nll_loss", "decoder.nll"),
            ("generate", "decoder.generate"),
            ("classify_emotion", "emotion.classify"),
            ("emotion_nll", "emotion.nll"),
            ("fuse_features", "emotion.features"),
            ("pool_knowledge", "emotion.pool"),
            ("EmpathyModel.forward_sample", "training.forward"),
            ("EmpathyModel.generate_response", "model.generate_response"),
            ("EmpathyModel.classify", "model.classify"),
        ):
            self._span("empgen.model", path, name)
        for path in ("greedy_decode", "beam_decode"):
            self._span("empgen.decoder", path, "decoder.search")
        for path in ("perplexity", "bleu_n", "rouge_n_corpus", "dist_n", "accuracy"):
            self._span("empgen.evaluation", path, "evaluation.metrics")
        self._span("empgen.evaluation", "evaluate", "evaluation.evaluate")
        self._span("empgen.training", "train", "training.train")
        self._span("empgen.training", "Adam.step", "training.adam")
        self._span("empgen.autodiff", "Tensor.backward", "autodiff.backward")
        self._counted("empgen.knowledge", "LlmClient.complete", "knowledge.llm", "llm_calls")
        self._counted(
            "empgen.knowledge", "CommonsenseProvider.generate", "knowledge.commonsense", "commonsense_calls"
        )
        self._counted("empgen.selectors", "SentimentPredictor.predict", "selectors.sentiment", "selector_calls")
        self._counted("empgen.selectors", "CauseDetector.detect", "selectors.cause", "selector_calls")

        def prepare(fn):
            # Learn which stream each id list belongs to, so that encoder
            # calls can be attributed by the ids they are given.
            def wrapper(*a, **k):
                prep = fn(*a, **k)
                for stream in ("context", "cause", "analysis"):
                    ids = getattr(prep, stream + "_ids", None)
                    if ids:
                        t.streams.setdefault(tuple(ids), stream)
                for ids in getattr(prep, "relation_ids", None) or ():
                    t.streams.setdefault(tuple(ids), "relation")
                return prep

            return wrapper

        self._patch("empgen.model", "prepare_sample", prepare)

        def query_analysis(fn):
            def wrapper(prompt, client, cache, *a, **k):
                before = client.calls
                out = t.call("knowledge.analysis", fn, prompt, client, cache, *a, **k)
                t.counts["cache_misses" if client.calls > before else "cache_hits"] += 1
                return out

            return wrapper

        self._patch("empgen.model", "query_analysis", query_analysis)

        def encode(fn):
            def wrapper(stack, ids, *a, **k):
                stream = t.streams.get(tuple(ids), "other")
                t.counts[f"encode_calls.{stream}"] += 1
                t.counts["encoder_rows"] += len(ids)
                return t.call(f"encoder.{stream}", fn, stack, ids, *a, **k)

            return wrapper

        self._patch("empgen.encoder", "EncoderStack.encode", encode)

        def forward(fn):
            def wrapper(stack, input_ids, memory, *a, **k):
                rows = len(input_ids)
                t.counts["decoder_calls"] += 1
                t.counts["decoder_rows"] += rows
                # Teacher forcing reads every output row; a search step reads the last.
                t.counts["decoder_rows_used"] += rows if t.top() == "decoder.nll" else 1
                t.counts["memory_rows"] += memory.values.shape[0]
                return t.call("decoder.forward", fn, stack, input_ids, memory, *a, **k)

            return wrapper

        self._patch("empgen.decoder", "DecoderStack.forward", forward)

        def attention(fn):
            def wrapper(mha, query, context, mask=None):
                if t.top() != "decoder.forward":
                    return fn(mha, query, context, mask)
                name = "decoder.self_attn" if mask is not None else "decoder.cross_attn"
                return t.call(name, fn, mha, query, context, mask)

            return wrapper

        self._patch("empgen.layers", "MultiHeadAttention.__call__", attention)

        def inside_decoder(name):
            # Inside DecoderStack.forward the only direct FeedForward call is
            # the block's FFN and the only direct Linear call is out_proj.
            def make(fn):
                def wrapper(layer, x):
                    if t.top() != "decoder.forward":
                        return fn(layer, x)
                    return t.call(name, fn, layer, x)

                return wrapper

            return make

        self._patch("empgen.layers", "FeedForward.__call__", inside_decoder("decoder.ffn"))
        self._patch("empgen.layers", "Linear.__call__", inside_decoder("decoder.out_proj"))

        def node(fn):
            def wrapper(*a, **k):
                out = fn(*a, **k)
                if out._parents:
                    t.counts["tape_nodes"] += 1
                return out

            return wrapper

        self._patch("empgen.autodiff", "Tensor._node", node)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive and self seconds per span name."""
        inclusive: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            inclusive[name] += end - start
            self_time[name] += end - start
            if parent >= 0:
                self_time[self.spans[parent][0]] -= end - start
        return inclusive, self_time

    def per_layer(self, samples: int) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, each per sample of the workload."""
        inclusive, self_time = self.totals()
        c = self.counts
        ms = lambda *names: 1e3 * sum(inclusive.get(n, 0.0) for n in names) / samples  # noqa: E731
        per = lambda v: v / samples  # noqa: E731
        out = {
            "model.prepare_ms": (ms("model.prepare"), "ms/sample"),
            "knowledge.llm_calls": (per(c["llm_calls"]), "count/sample"),
            "knowledge.cache_hits": (per(c["cache_hits"]), "count/sample"),
            "knowledge.cache_misses": (per(c["cache_misses"]), "count/sample"),
            "knowledge.commonsense_calls": (per(c["commonsense_calls"]), "count/sample"),
            "selectors.calls": (per(c["selector_calls"]), "count/sample"),
            "encoder.context_ms": (ms("encoder.context"), "ms/sample"),
            "encoder.context_calls_per_sample": (per(c["encode_calls.context"]), "count/sample"),
            "encoder.cause_ms": (ms("encoder.cause"), "ms/sample"),
            "encoder.analysis_ms": (ms("encoder.analysis"), "ms/sample"),
            "encoder.relations_ms": (ms("encoder.relations"), "ms/sample"),
            "encoder.relations_calls": (per(c["encode_calls.relation"]), "count/sample"),
            "encoder.fusion_ms": (ms("encoder.fusion"), "ms/sample"),
            "encoder.rows": (per(c["encoder_rows"]), "rows/sample"),
            "decoder.forward_calls": (per(c["decoder_calls"]), "count/sample"),
            "decoder.input_rows_per_token": (
                c["decoder_rows"] / c["decoder_rows_used"] if c["decoder_rows_used"] else 0.0,
                "ratio",
            ),
            "decoder.memory_rows": (
                c["memory_rows"] / c["decoder_calls"] if c["decoder_calls"] else 0.0,
                "rows/call",
            ),
            "decoder.self_attn_ms": (ms("decoder.self_attn"), "ms/sample"),
            "decoder.cross_attn_ms": (ms("decoder.cross_attn"), "ms/sample"),
            "decoder.ffn_ms": (ms("decoder.ffn"), "ms/sample"),
            "decoder.out_proj_ms": (ms("decoder.out_proj"), "ms/sample"),
            "decoder.search_self_ms": (1e3 * self_time.get("decoder.search", 0.0) / samples, "ms/sample"),
            "autodiff.nodes_per_sample": (per(c["tape_nodes"]), "count/sample"),
            "autodiff.backward_ms": (ms("autodiff.backward"), "ms/sample"),
            "training.forward_ms": (ms("training.forward"), "ms/sample"),
            "training.adam_ms": (ms("training.adam"), "ms/sample"),
            "emotion.ms": (
                ms("emotion.classify", "emotion.nll", "emotion.features", "emotion.pool"),
                "ms/sample",
            ),
            "evaluation.metrics_ms": (ms("evaluation.metrics"), "ms/sample"),
        }
        for layer in LAYERS:
            own = sum(v for k, v in self_time.items() if k.split(".")[0] == layer)
            out[f"{layer}.self_ms"] = (1e3 * own / samples, "ms/sample")
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent, request]) + "\n")
