"""Alternating training schedule: the scorer of step t-1 labels candidates for
the retriever of step t; the updated retriever then feeds the scorer's
fine-tuning prompts.  Every step persists both checkpoints plus a metrics row,
so a run can resume from any step and replay bit-identically.
"""

import csv
import logging
from dataclasses import dataclass, field
from pathlib import Path

from . import retriever as retriever_mod
from . import scorer as scorer_mod
from .atomic import replacing
from .config import substream
from .contrastive import check_label_sizes, train_retriever
from .corpus import Task, serialize_label
from .evaluation import AblationMode, run_inference
from .retriever import build_index, init_retriever, retrieve
from .scorer import finetune_step, init_scorer
from .template import definition_for, load_templates, render, task_input
from .optim import AdamW
from .vocab import Vocabulary

logger = logging.getLogger(__name__)

METRIC_COLUMNS = [
    "step", "task", "split", "precision", "recall", "f1",
    "accuracy", "parse_failures",
]


@dataclass
class ScheduleState:
    step: int
    retriever_ckpts: list
    scorer_ckpts: list
    metrics_log: list = field(default_factory=list)


def build_vocabulary(train, cfg, templates=None):
    """Deterministic shared vocabulary: definitions, scaffolding, then samples."""
    texts = [definition_for(t, templates) for t in Task]
    texts.append("Definition: Example Now complete the following- Input: Output:")
    texts.extend(f"{i}-" for i in range(1, 9))
    texts.append("The aspect is")
    for s in train.samples:
        texts.append(s.text)
        texts.append(serialize_label(s, train.task))
    return Vocabulary.build(texts)


def warmup_scorer(scorer, train, cfg, templates=None, seed_tag="warmup"):
    """Zero-example fine-tuning pass standing in for pretraining."""
    definition = definition_for(train.task, templates)
    opt = AdamW(scorer.params, lr=cfg.lr, weight_decay=cfg.weight_decay)
    for epoch in range(cfg.warmup_epochs):
        rng = substream(cfg.seed, f"{seed_tag}/epoch{epoch}")
        for i in rng.permutation(len(train.samples)):
            s = train.samples[i]
            prompt = render(definition, [], task_input(s, train.task), 0, templates)
            finetune_step(
                scorer, prompt, serialize_label(s, train.task), cfg.lr, optimizer=opt
            )
    return scorer


def finetune_lm(scorer, retriever, train, cfg, templates=None, seed_tag="finetune-lm"):
    """Fine-tune the scorer on prompts carrying the top retrieved examples.

    ``cfg.finetune_k`` sets how many examples each fine-tuning prompt carries
    (default 1, the single top-scoring example).  Small from-scratch scorers
    are sensitive to the train/inference prompt-shape mismatch, so matching
    ``finetune_k`` to the inference ``k`` is the robust configuration at desk
    scale.  Zero epochs leaves the scorer untouched.
    """
    if cfg.epochs_lm == 0:
        return scorer
    definition = definition_for(train.task, templates)
    index = build_index(retriever, train)
    opt = AdamW(scorer.params, lr=cfg.lr, weight_decay=cfg.weight_decay)
    for epoch in range(cfg.epochs_lm):
        epoch_loss = 0.0
        rng = substream(cfg.seed, f"{seed_tag}/epoch{epoch}")
        for i in rng.permutation(len(train.samples)):
            s = train.samples[i]
            q_input = task_input(s, train.task)
            examples = []
            if cfg.finetune_k > 0:
                top = retrieve(
                    retriever, index, s, cfg.finetune_k, query_input=q_input,
                    exclude_id=s.id,
                )
                examples = [t.candidate for t in top]
            prompt = render(definition, examples, q_input, len(examples), templates)
            _, loss = finetune_step(
                scorer, prompt, serialize_label(s, train.task), cfg.lr, optimizer=opt
            )
            epoch_loss += loss
        logger.info(
            "lm epoch %d done (mean loss %.4f)",
            epoch, epoch_loss / max(1, len(train.samples)),
        )
    return scorer


def _metrics_row(step, dataset, metrics):
    return {
        "step": step,
        "task": dataset.task.value,
        "split": dataset.split.value,
        "precision": f"{metrics.precision:.6f}",
        "recall": f"{metrics.recall:.6f}",
        "f1": f"{metrics.f1:.6f}",
        "accuracy": f"{metrics.accuracy:.6f}",
        "parse_failures": metrics.parse_failures,
    }


def _write_metrics(path, rows):
    with replacing(path) as tmp, open(tmp, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=METRIC_COLUMNS, delimiter="\t")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _read_metrics(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh, delimiter="\t"))


def run_schedule(train, dev, cfg, out_dir, templates=None, resume_step=None):
    """Run the t-step schedule, persisting checkpoints and dev metrics.

    ``resume_step`` reloads the step-s checkpoints from out_dir and reruns
    steps s+1..t; under the same seed this replays the original run exactly.
    """
    if cfg.t < 1:
        raise ValueError("t must be at least 1")
    check_label_sizes(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    templates = templates or load_templates(cfg.template_dir)

    def retr_path(s):
        return out / f"retriever_{s}.ckpt.npz"

    def scor_path(s):
        return out / f"scorer_{s}.ckpt.npz"

    metrics_path = out / "metrics.tsv"

    if resume_step is None:
        vocab = build_vocabulary(train, cfg, templates)
        scorer = init_scorer(vocab, d=cfg.d, max_len=cfg.max_len, seed=cfg.seed)
        scorer_mod.save_scorer(scorer, out / "scorer_init.ckpt.npz")
        retr = init_retriever(vocab, d_r=cfg.d_r, max_len=cfg.max_len, seed=cfg.seed)
        if cfg.warmup_epochs > 0:
            warmup_scorer(scorer, train, cfg, templates)
        scorer_mod.save_scorer(scorer, scor_path(0))
        retriever_mod.save_retriever(retr, retr_path(0))
        rows = []
        metrics, _ = run_inference(
            scorer, retr, dev, cfg.k, AblationMode.FULL, train, cfg, templates
        )
        rows.append(_metrics_row(0, dev, metrics))
        _write_metrics(metrics_path, rows)
        start = 1
    else:
        if resume_step < 0 or resume_step >= cfg.t:
            raise ValueError(f"resume_step must be in [0, t), got {resume_step}")
        scorer = scorer_mod.load_scorer(scor_path(resume_step))
        retr = retriever_mod.load_retriever(retr_path(resume_step))
        rows = [
            row for row in _read_metrics(metrics_path) if int(row["step"]) <= resume_step
        ]
        start = resume_step + 1

    for step in range(start, cfg.t + 1):
        if cfg.reinit_per_step:
            retr = init_retriever(
                retr.vocab, d_r=cfg.d_r, max_len=cfg.max_len, seed=cfg.seed + step
            )
        retr = train_retriever(
            retr,
            train,
            scorer,
            cfg,
            bootstrap_first_epoch=(step == 1),
            templates=templates,
            seed_tag=f"step{step}/retriever-train",
        )
        retriever_mod.save_retriever(retr, retr_path(step))
        scorer = finetune_lm(
            scorer, retr, train, cfg, templates, seed_tag=f"step{step}/finetune-lm"
        )
        scorer_mod.save_scorer(scorer, scor_path(step))
        metrics, _ = run_inference(
            scorer, retr, dev, cfg.k, AblationMode.FULL, train, cfg, templates
        )
        rows.append(_metrics_row(step, dev, metrics))
        _write_metrics(metrics_path, rows)
        logger.info("alternating step %d complete", step)

    return ScheduleState(
        step=cfg.t,
        retriever_ckpts=[str(retr_path(s)) for s in range(cfg.t + 1)],
        scorer_ckpts=[str(scor_path(s)) for s in range(cfg.t + 1)],
        metrics_log=rows,
    )
