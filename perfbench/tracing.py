"""Span tracing of exrank's layers, installed from outside the package.

A hook replaces a public function (or method) with a wrapper that records one
span per call: name, call site, start, end and the index of the enclosing
span.  Functions are patched in every module that binds them, not only in the
module that defines them: ``contrastive``, ``alternating`` and ``evaluation``
import names with ``from .retriever import ...``, so patching only the
defining module would silently miss those calls.  Methods are patched on
their class.

Spans stay in memory; ``write_spans`` saves them once the benchmark ends.
"""

import functools
import importlib
import sys
import time

import numpy as np

# (span name, defining module, attribute path).  The span name is the metric
# prefix of the layer.
HOOKS = [
    ("optim.AdamW.step", "optim", "AdamW.step"),
    ("scorer.nll_and_grads", "scorer", "nll_and_grads"),
    ("scorer.score", "scorer", "score"),
    ("scorer.generate", "scorer", "generate"),
    ("scorer.save_scorer", "scorer", "save_scorer"),
    ("contrastive.label_candidates", "contrastive", "label_candidates"),
    ("contrastive.train_retriever", "contrastive", "train_retriever"),
    ("vocab.encode", "vocab", "Vocabulary.encode"),
    ("template.render", "template", "render"),
    ("retriever.encode_text", "retriever", "encode_text"),
    ("retriever.encode_text_backward", "retriever", "encode_text_backward"),
    ("retriever.build_index", "retriever", "build_index"),
    ("retriever.retrieve", "retriever", "retrieve"),
    ("retriever.save_retriever", "retriever", "save_retriever"),
    ("alternating.warmup_scorer", "alternating", "warmup_scorer"),
    ("alternating.finetune_lm", "alternating", "finetune_lm"),
    ("evaluation.run_inference", "evaluation", "run_inference"),
]

# Layers reported with call count, total time and self time.
LAYERS = [
    "optim.AdamW.step",
    "scorer.nll_and_grads",
    "scorer.score",
    "contrastive.label_candidates",
    "scorer.generate",
    "vocab.encode",
    "template.render",
    "retriever.encode_text",
    "retriever.encode_text_backward",
    "retriever.build_index",
    "retriever.retrieve",
]

# Stage metric -> (span name, call site).  The site is the module whose
# binding was called; None accepts any site.
STAGES = {
    "alternating.warmup_scorer": ("alternating.warmup_scorer", "alternating"),
    "alternating.train_retriever": ("contrastive.train_retriever", "alternating"),
    "alternating.finetune_lm": ("alternating.finetune_lm", "alternating"),
    "alternating.run_inference": ("evaluation.run_inference", "alternating"),
    "scorer.save_scorer": ("scorer.save_scorer", None),
    "retriever.save_retriever": ("retriever.save_retriever", None),
    "evaluation.run_inference": ("evaluation.run_inference", "evaluation"),
}

PER_LAYER = (
    [f"{layer}.{field}" for layer in LAYERS for field in ("calls", "s", "self_s")]
    + ["scorer.generate.p50_ms", "scorer.generate.p99_ms",
       "scorer.generate.encodes_per_call"]
    + [f"{stage}.s" for stage in STAGES]
    + ["trace.spans", "trace.overhead_s", "trace.overhead_share"]
)


def unit_of(metric):
    if metric.endswith(".calls") or metric == "trace.spans":
        return "count"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("encodes_per_call"):
        return "count/call"
    if metric.endswith("_share"):
        return "share"
    return "s"


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self):
        self.spans = []  # [name, site, start, end, parent index or -1]
        self._stack = []
        self._patched = []

    def _wrap(self, fn, name, site):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, site, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def __enter__(self):
        modules = [
            mod for key, mod in list(sys.modules.items())
            if key == "exrank" or key.startswith("exrank.")
        ]
        for name, module, path in HOOKS:
            owner = importlib.import_module(f"exrank.{module}")
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, attr, self._wrap(getattr(cls, attr), name, module))
                continue
            original = getattr(owner, path)
            for mod in modules:
                site = mod.__name__.rpartition(".")[2]
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, self._wrap(original, name, site))
        return self

    def __exit__(self, *exc):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        self._stack.clear()
        return False

    def summary(self):
        """Per-layer counts and times over the recorded spans."""
        n = len(self.spans)
        dur = np.array([s[3] - s[2] for s in self.spans]) if n else np.zeros(0)
        child = np.zeros(n)
        in_generate = [False] * n
        for i, (name, _, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[i]
                in_generate[i] = in_generate[parent]
            in_generate[i] = in_generate[i] or name == "scorer.generate"
        self_time = dur - child
        by_name, by_site = {}, {}
        for i, (name, site, _, _, _) in enumerate(self.spans):
            by_name.setdefault(name, []).append(i)
            by_site.setdefault((name, site), []).append(i)

        out = {}
        for layer in LAYERS:
            idx = by_name.get(layer, [])
            out[f"{layer}.calls"] = len(idx)
            out[f"{layer}.s"] = float(dur[idx].sum())
            out[f"{layer}.self_s"] = float(self_time[idx].sum())
        gen = dur[by_name.get("scorer.generate", [])]
        p50, p99 = np.percentile(gen, [50, 99]) * 1e3 if len(gen) else (0.0, 0.0)
        out["scorer.generate.p50_ms"] = float(p50)
        out["scorer.generate.p99_ms"] = float(p99)
        encodes = sum(in_generate[i] for i in by_name.get("vocab.encode", []))
        out["scorer.generate.encodes_per_call"] = encodes / len(gen) if len(gen) else 0.0
        for stage, (name, site) in STAGES.items():
            idx = by_name.get(name, []) if site is None else by_site.get((name, site), [])
            out[f"{stage}.s"] = float(dur[idx].sum())
        out["trace.spans"] = n
        return out

    def write_spans(self, path):
        """Tab-separated spans, times in seconds from the first span's start."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tsite\tstart_s\tend_s\n")
            for i, (name, site, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{site}\t{start - t0:.7f}\t{end - t0:.7f}\n")
