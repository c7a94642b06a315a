"""Metrics, the inference harness, k-sweeps, and ablation modes.

F1 is micro-averaged over the whole split with exact tuple match: term only
for ATE, (term, polarity) for ASPE.  Terms compare case-insensitively and
trimmed; sentinel pairs are excluded on both sides; duplicate predictions are
deduplicated before counting.
"""

import logging
from dataclasses import dataclass, replace
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
from .retriever import build_index, eligible, retrieve
from .template import (
    check_prompts,
    load_templates,
    make_candidate,
    no_instruction_prompt,
    render,
    task_input,
)

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
    every step, so every answer is empty and F1 is 0 by construction.

    A mode is checked once, where it enters: ``prompt_builder`` and the CLI's
    ``evaluate`` convert it, and ``most_examples`` only compares it."""

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


def most_examples(queries, pool, k, mode):
    """The most examples a prompt of ``prompt_builder(..., queries, pool, k,
    mode, ...)`` carries, found without building an index, so that the prompts
    can be checked before any work."""
    n = len(pool.samples)
    if mode == AblationMode.NO_INSTRUCTION:
        return 0
    if mode == AblationMode.NO_RETRIEVER:
        return min(k, n)
    return min(k, max(eligible(queries, pool)[1], default=n))


def prompt_builder(vocab, retriever, queries, pool, k, mode, cfg):
    """The one rule for every prompt of warm-up, fine-tuning and inference: a
    function of a sample of ``queries`` that returns its (prompt, examples),
    with up to ``k`` examples drawn from ``pool``.

    Before any index or draw, the prompts are checked against ``vocab``, the
    scorer's vocabulary (``template.check_prompts`` at ``most_examples``).
    ``full`` retrieves the top k from an index built once here; a query
    excludes itself (see ``retriever.eligible``) and carries all its eligible
    candidates when there are fewer than k, with one WARNING per builder.
    ``no_retriever`` gives every query the same k seeded draws, so it refuses
    queries of the pool's own split: one fixed set cannot leave out every query.
    ``no_instruction`` prompts carry neither the definition nor any example;
    they and ``full`` at k=0 build no index.  Prompts are rendered from the
    templates of ``cfg.template_dir``.
    """
    mode = AblationMode(mode)
    task, n = queries.task, len(pool.samples)
    templates = load_templates(cfg.template_dir)
    check_prompts(vocab, templates, queries, pool, most_examples(queries, pool, k, mode))
    members, counts = eligible(queries, pool)
    if mode == AblationMode.NO_INSTRUCTION:
        return lambda s: (no_instruction_prompt(task_input(s, task)), [])
    if mode == AblationMode.NO_RETRIEVER:
        if members:
            raise ValueError(f"{mode.value} draws one fixed set from the {pool.split.value} "
                             "split, so its queries must come from another split")
        picks = substream(cfg.seed, "fixed-examples").choice(n, size=min(k, n), replace=False)
        fixed = [make_candidate(pool.samples[i], pool.task) for i in picks]
        choose = lambda s, q_input: fixed
    elif k == 0:
        choose = lambda s, q_input: []
    else:
        index = build_index(retriever, pool)
        fewest = min(counts, default=k)
        if k > fewest:
            logger.warning("k=%d exceeds the %d eligible pool candidates; "
                           "prompts carry all of them", k, fewest)

        def choose(s, q_input):
            exclude = s.id if s.id in members else None  # the query itself
            m = min(k, n - (exclude is not None))
            top = retrieve(retriever, index, q_input, m, exclude_id=exclude) if m else []
            return [sc.candidate for sc in top]

    def build(s):
        q_input = task_input(s, task)
        examples = choose(s, q_input)
        return render(templates, task, examples, q_input), examples

    return build


def run_inference(scorer, retriever, test, k, mode, pool, cfg, records=True):
    """Generate and score predictions for one split under one ablation mode,
    on the prompts ``prompt_builder`` builds.

    Returns (Metrics, prediction dump); with ``records=False`` no per-query
    record is built and the dump is None.
    """
    task = test.task
    build_prompt = prompt_builder(scorer.vocab, retriever, test, pool, k, mode, cfg)

    dump = [] if records else None
    preds, golds = [], []
    failures = truncated = 0
    for s in test.samples:
        prompt, examples = build_prompt(s)
        raw = scorer_mod.generate(scorer, prompt, cfg.max_gen_len)
        labels, dropped = parse_output_with_diagnostics(raw, task)
        failures += dropped
        preds.append(labels)
        golds.append(s.labels)
        prompt_len = scorer.vocab.prompt_len(prompt)
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
    ``max_len``, the limit at which the scorer cuts it.  Prompts carry at most
    ``most_examples`` examples, so every row above that k repeats its row,
    which is evaluated once.
    """
    top = most_examples(test, pool, k_max, AblationMode.FULL)
    check_prompts(scorer.vocab, load_templates(cfg.template_dir), test, pool, top)
    rows = []
    for k in range(top + 1):
        metrics, _ = run_inference(scorer, retriever, test, k, AblationMode.FULL,
                                   pool, cfg, records=False)
        rows.append(SweepRow(k=k, metrics=metrics, truncated=metrics.truncated > 0))
    return rows + [replace(rows[-1], k=k) for k in range(top + 1, k_max + 1)]
