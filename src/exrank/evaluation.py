"""Metrics, the inference harness, k-sweeps, and ablation modes.

F1 is micro-averaged over the whole split with exact tuple match: term only
for ATE, (term, polarity) for ASPE.  Terms compare case-insensitively and
trimmed; sentinel pairs are excluded on both sides; duplicate predictions are
deduplicated before counting.
"""

from dataclasses import dataclass
from enum import Enum

from . import scorer as scorer_mod
from .config import substream
from .corpus import (
    NO_ASPECT_TERM,
    Polarity,
    Task,
    normalize_term,
    parse_output_with_diagnostics,
    serialize_label,
)
from .retriever import build_index, retrieve
from .template import definition_for, make_candidate, render, task_input
from .vocab import tokenize


@dataclass
class Metrics:
    precision: float = 0.0
    recall: float = 0.0
    f1: float = 0.0
    accuracy: float = 0.0
    counts: tuple = (0, 0, 0)  # (num_pred, num_gold, num_correct)
    parse_failures: int = 0


class AblationMode(str, Enum):
    FULL = "full"
    NO_ALTERNATING = "no_alternating"
    NO_RETRIEVER = "no_retriever"
    NO_EXAMPLE = "no_example"
    NO_INSTRUCTION = "no_instruction"
    FROZEN_LM = "frozen_lm"


def _keys(labels, task):
    """Deduplicated match keys for one sample's labels, sentinel excluded."""
    keys = set()
    for lab in labels:
        term = normalize_term(lab.term)
        if task == Task.ATE:
            if term == NO_ASPECT_TERM:
                continue
            keys.add(term)
        else:
            if term == NO_ASPECT_TERM and lab.polarity == Polarity.NONE:
                continue
            keys.add((term, lab.polarity))
    return keys


def tuple_f1(preds, golds, task):
    """Micro-averaged exact-match F1 over per-sample label lists."""
    task = Task(task)
    if len(preds) != len(golds):
        raise ValueError(f"length mismatch: {len(preds)} vs {len(golds)}")
    num_pred = num_gold = num_correct = 0
    for p_labels, g_labels in zip(preds, golds):
        p_keys = _keys(p_labels, task)
        g_keys = _keys(g_labels, task)
        num_pred += len(p_keys)
        num_gold += len(g_keys)
        num_correct += len(p_keys & g_keys)
    precision = num_correct / num_pred if num_pred else 0.0
    recall = num_correct / num_gold if num_gold else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return Metrics(
        precision=precision,
        recall=recall,
        f1=f1,
        counts=(num_pred, num_gold, num_correct),
    )


def atsc_accuracy(preds, golds):
    """Fraction of exact polarity matches; rejects count as wrong."""
    if len(preds) != len(golds):
        raise ValueError(f"length mismatch: {len(preds)} vs {len(golds)}")
    if any(g == Polarity.NONE for g in golds):
        raise ValueError("ATSC golds must not contain 'none'")
    correct = sum(1 for p, g in zip(preds, golds) if p == g)
    n = len(golds)
    acc = correct / n if n else 0.0
    return Metrics(accuracy=acc, counts=(n, n, correct))


def _fixed_examples(pool, k, seed):
    """The no_retriever examples: the first k seeded draws from the pool."""
    rng = substream(seed, "fixed-examples")
    picks = rng.choice(len(pool.samples), size=min(k, len(pool.samples)), replace=False)
    return [make_candidate(pool.samples[i], pool.task) for i in picks]


def run_inference(scorer, retriever, test, k, mode, pool, cfg, templates=None):
    """Generate and score predictions for one split under one ablation mode.

    For frozen_lm the caller passes the never-fine-tuned scorer; the prompt
    construction is the same as full.  A query excludes the pool candidate
    with its own id only when ``test`` and ``pool`` are the same split, since
    each split numbers its samples independently.  Returns (Metrics,
    prediction dump).
    """
    mode = AblationMode(mode)
    task = test.task
    definition = definition_for(task, templates)
    use_retrieval = mode in (
        AblationMode.FULL,
        AblationMode.NO_ALTERNATING,
        AblationMode.FROZEN_LM,
    ) and k > 0
    index = build_index(retriever, pool) if use_retrieval else None
    same_split = test.split == pool.split
    fixed = (
        _fixed_examples(pool, k, cfg.seed) if mode == AblationMode.NO_RETRIEVER else []
    )

    dump = []
    preds, golds = [], []
    failures = 0
    for s in test.samples:
        q_input = task_input(s, task)
        if use_retrieval:
            examples = [
                sc.candidate
                for sc in retrieve(retriever, index, s, k, query_input=q_input,
                                   exclude_id=s.id if same_split else None)
            ]
        elif mode == AblationMode.NO_RETRIEVER:
            examples = fixed
        else:
            examples = []
        if mode == AblationMode.NO_INSTRUCTION:
            prompt = f"Input: {q_input} Output:"
        else:
            prompt = render(definition, examples, q_input, len(examples), templates)
        raw = scorer_mod.generate(scorer, prompt, cfg.max_gen_len)
        labels, dropped = parse_output_with_diagnostics(
            raw, task, accept_hash=cfg.accept_hash
        )
        failures += dropped
        preds.append(labels)
        golds.append(s.labels)
        dump.append(
            {
                "id": s.id,
                "prompt": prompt,
                "prompt_len": len(tokenize(prompt)),
                "raw_output": raw,
                "parsed": [
                    [l.term, getattr(l.polarity, "value", l.polarity)] for l in labels
                ],
                "gold": serialize_label(s, task),
                "example_ids": [e.id for e in examples],
            }
        )

    if task == Task.ATSC:
        pred_pols = [
            (labels[0].polarity if labels else None) for labels in preds
        ]
        gold_pols = [Polarity(serialize_label(s, task)) for s in test.samples]
        metrics = atsc_accuracy(pred_pols, gold_pols)
    else:
        metrics = tuple_f1(preds, golds, task)
    metrics.parse_failures = failures
    return metrics, dump


@dataclass
class SweepRow:
    k: int
    metrics: Metrics
    truncated: bool = False


def k_sweep(scorer, retriever, test, k_max, pool, cfg, templates=None):
    """One full-mode evaluation per k in 0..k_max, ascending, shared seed."""
    rows = []
    for k in range(k_max + 1):
        mode = AblationMode.NO_EXAMPLE if k == 0 else AblationMode.FULL
        metrics, dump = run_inference(
            scorer, retriever, test, k, mode, pool, cfg, templates
        )
        truncated = any(rec["prompt_len"] > cfg.max_len for rec in dump)
        rows.append(SweepRow(k=k, metrics=metrics, truncated=truncated))
    return rows
