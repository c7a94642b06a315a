"""Metrics, the inference harness, k-sweeps, and ablation modes.

F1 is micro-averaged over the whole split with exact tuple match: term only
for ATE, (term, polarity) for ASPE.  Terms compare case-insensitively and
trimmed; sentinel pairs are excluded on both sides; duplicate predictions are
deduplicated before counting.
"""

import logging
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
from .template import (
    load_templates,
    make_candidate,
    no_instruction_prompt,
    render,
    scaffold,
    task_input,
)
from .vocab import tokenize

logger = logging.getLogger(__name__)

METRIC_COLUMNS = ["precision", "recall", "f1", "accuracy", "parse_failures"]


@dataclass
class Metrics:
    precision: float = 0.0
    recall: float = 0.0
    f1: float = 0.0
    accuracy: float = 0.0
    counts: tuple = (0, 0, 0)  # (num_pred, num_gold, num_correct)
    parse_failures: int = 0
    truncated: int = 0  # prompts longer than the scorer's max_len; not a column

    def row(self):
        """The METRIC_COLUMNS of a table row: rates at six decimals, then the count."""
        row = {c: f"{getattr(self, c):.6f}" for c in METRIC_COLUMNS[:-1]}
        row["parse_failures"] = self.parse_failures
        return row


class AblationMode(str, Enum):
    """The prompt constructions of inference.  The paper's other ablations are
    runs of ``FULL``: no example is k=0, a frozen LM is the warmed-up
    ``scorer_0.ckpt.npz``, and no alternation is a t=1 schedule.  The untrained
    ``scorer_init.ckpt.npz`` has a zero output layer: it decodes ``<pad>`` at
    every step, so every answer is empty and F1 is 0 by construction."""

    FULL = "full"
    NO_RETRIEVER = "no_retriever"
    NO_INSTRUCTION = "no_instruction"


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


def _check_prompts(vocab, templates, test, pool, k):
    """Refuse prompts of up to ``k`` examples drawn from ``pool`` for queries of
    ``test`` when the two hold different tasks, or when their fixed text, the
    ``template.scaffold``, holds a token ``vocab`` would encode as ``<unk>``."""
    if k > 0 and pool.task != test.task:
        raise ValueError(f"the queries are {test.task.value} but the example pool "
                         f"is {pool.task.value}; a prompt would mix two tasks")
    unknown = dict.fromkeys(
        tok for text in scaffold(templates, k) for tok in tokenize(text)
        if tok not in vocab.index
    )
    if unknown:
        raise ValueError(
            f"the scorer's vocabulary encodes the prompt tokens {list(unknown)} "
            f"as <unk> at k={k}; it was built for fewer examples per prompt"
        )


def run_inference(scorer, retriever, test, k, mode, pool, cfg, records=True):
    """Generate and score predictions for one split under one ablation mode.

    ``full`` prompts carry the top k retrieved examples, ``no_retriever`` the
    same k seeded draws for every query, ``no_instruction`` neither the
    definition nor any example.  A query excludes the pool candidate with its
    own id only when ``test`` and ``pool`` are the same split, since each
    split numbers its samples independently.  Returns (Metrics, prediction
    dump); with ``records=False`` no per-query record is built and the dump
    is None.
    """
    mode = AblationMode(mode)
    task = test.task
    templates = load_templates(cfg.template_dir)
    # the most examples a prompt carries
    carried = 0 if mode == AblationMode.NO_INSTRUCTION else min(k, len(pool.samples))
    _check_prompts(scorer.vocab, templates, test, pool, carried)
    use_retrieval = mode == AblationMode.FULL and k > 0
    index = build_index(retriever, pool) if use_retrieval else None
    same_split = test.split == pool.split
    fixed = (
        _fixed_examples(pool, k, cfg.seed) if mode == AblationMode.NO_RETRIEVER else []
    )
    # the candidates a query may retrieve: the pool less the query itself
    members = {s.id for s in pool.samples} if same_split else set()
    eligible = [len(pool.samples) - (s.id in members) for s in test.samples]
    if use_retrieval and k > min(eligible, default=k):
        logger.warning("k=%d exceeds the %d eligible pool candidates; "
                       "prompts carry all of them", k, min(eligible))

    dump = [] if records else None
    preds, golds = [], []
    failures = truncated = 0
    for s, n_eligible in zip(test.samples, eligible):
        q_input = task_input(s, task)
        if use_retrieval:
            m = min(k, n_eligible)
            top = retrieve(retriever, index, q_input, m,
                           exclude_id=s.id if same_split else None) if m else []
            examples = [sc.candidate for sc in top]
        else:
            examples = fixed
        if mode == AblationMode.NO_INSTRUCTION:
            prompt = no_instruction_prompt(q_input)
        else:
            prompt = render(templates, task, examples, q_input)
        raw = scorer_mod.generate(scorer, prompt, cfg.max_gen_len)
        labels, dropped = parse_output_with_diagnostics(raw, task)
        failures += dropped
        preds.append(labels)
        golds.append(s.labels)
        prompt_len = len(scorer.vocab.prompt_ids(prompt))
        truncated += prompt_len > scorer.max_len
        if records:
            dump.append(
                {
                    "id": s.id,
                    "prompt": str(prompt),  # the text alone, not the blocks
                    "prompt_len": prompt_len,
                    "raw_output": raw,
                    "parsed": [
                        [l.term, getattr(l.polarity, "value", l.polarity)]
                        for l in labels
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
    metrics.truncated = truncated
    return metrics, dump


@dataclass
class SweepRow:
    k: int
    metrics: Metrics
    truncated: bool = False


def k_sweep(scorer, retriever, test, k_max, pool, cfg):
    """One full-mode evaluation per k in 0..k_max, ascending, shared seed.

    A row is ``truncated`` when some prompt is longer than the scorer's
    ``max_len``, the limit at which the scorer cuts it.
    """
    _check_prompts(scorer.vocab, load_templates(cfg.template_dir), test, pool,
                   min(k_max, len(pool.samples)))
    rows = []
    for k in range(k_max + 1):
        metrics, _ = run_inference(scorer, retriever, test, k, AblationMode.FULL,
                                   pool, cfg, records=False)
        rows.append(SweepRow(k=k, metrics=metrics, truncated=metrics.truncated > 0))
    return rows
