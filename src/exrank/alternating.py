"""Alternating training schedule: the scorer of step t-1 labels candidates for
the retriever of step t; the updated retriever then feeds the scorer's
fine-tuning prompts.  Every step persists both checkpoints plus a metrics row,
so a run can resume from any step and replay bit-identically.
"""

import csv
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

from . import retriever as retriever_mod
from . import scorer as scorer_mod
from .atomic import write_table
from .config import substream
from .contrastive import check_label_sizes, train_retriever
from .corpus import serialize_label
from .evaluation import METRIC_COLUMNS, AblationMode, prompt_builder, run_inference
from .retriever import init_retriever
from .scorer import finetune_step, init_scorer
from .template import load_templates, scaffold, task_input
from .optim import AdamW
from .vocab import Vocabulary

logger = logging.getLogger(__name__)

# warmup_scorer warns when its last epoch's mean loss is above this share of
# the untrained decoder's
_WARMUP_CHANCE_SHARE = 0.9


@dataclass
class ScheduleState:
    retriever_ckpts: list
    scorer_ckpts: list
    metrics_log: list = field(default_factory=list)


def stage_tag(step, stage):
    """The seed tag of schedule stage ``stage`` at step ``step``: every seeded
    draw of ``train_retriever`` ("retriever-train") or ``finetune_lm``
    ("finetune-lm") at that step is a substream named under it."""
    return f"step{step}/{stage}"


def build_vocabulary(train, cfg):
    """Deterministic shared vocabulary: the ``template.scaffold`` of the loaded
    templates (example indices 1 to the largest of 8, ``k`` and
    ``finetune_k``), then each sample's prompt-side input and gold output."""
    texts = scaffold(load_templates(cfg.template_dir), max(8, cfg.k, cfg.finetune_k))
    for s in train.samples:
        texts.append(task_input(s, train.task))
        texts.append(serialize_label(s, train.task))
    return Vocabulary.build(texts)


def _lm_epochs(scorer, train, cfg, epochs, build_prompt, seed_tag):
    """The LM loop of warm-up and fine-tuning: per epoch, one ``finetune_step``
    per sample in seeded order, on the prompt ``build_prompt(s)`` builds (an
    ``evaluation.prompt_builder``).  Returns the last epoch's mean loss, or
    None after zero epochs.
    """
    opt = AdamW(scorer.params, lr=cfg.lr, weight_decay=cfg.weight_decay)
    mean_loss = None
    for epoch in range(epochs):
        epoch_loss = 0.0
        rng = substream(cfg.seed, f"{seed_tag}/epoch{epoch}")
        for i in rng.permutation(len(train.samples)):
            s = train.samples[i]
            prompt, _ = build_prompt(s)
            _, loss = finetune_step(scorer, prompt, serialize_label(s, train.task), opt)
            epoch_loss += loss
        mean_loss = epoch_loss / max(1, len(train.samples))
        logger.info("%s epoch %d done (mean loss %.4f)", seed_tag, epoch, mean_loss)
    return mean_loss


def warmup_scorer(scorer, train, cfg):
    """Zero-example fine-tuning pass standing in for pretraining.

    Logs a WARNING when the last epoch's mean loss is still above 0.9 of its
    chance value: the mean over the targets of (L + 1)·ln V, the loss of the
    untrained decoder, which is uniform over the V tokens at each of a
    target's L tokens and its end token.
    """
    no_examples = prompt_builder(scorer.vocab, None, train, train, 0, AblationMode.FULL, cfg)
    loss = _lm_epochs(scorer, train, cfg, cfg.warmup_epochs, no_examples, "warmup")
    if loss is not None:
        vocab = scorer.vocab
        # the warm-up's own steps memoized every target's ids
        tokens = sum(len(vocab.ids(serialize_label(s, train.task))) + 1
                     for s in train.samples)
        chance = math.log(len(vocab)) * tokens / max(1, len(train.samples))
        if loss > _WARMUP_CHANCE_SHARE * chance:
            logger.warning(
                "the warm-up learned next to nothing: its last mean loss %.4f is "
                "%.3f of the untrained decoder's %.4f at lr=%g and warmup_epochs=%d; "
                "a larger lr or more warmup_epochs is needed",
                loss, loss / chance, chance, cfg.lr, cfg.warmup_epochs,
            )
    return scorer


def finetune_lm(scorer, retriever, train, cfg, seed_tag="finetune-lm"):
    """Fine-tune the scorer on prompts carrying the top retrieved examples,
    built by ``evaluation.prompt_builder`` as inference builds its prompts, so
    a ``finetune_k`` whose example indices the scorer's vocabulary encodes as
    ``<unk>`` is refused before any step.

    ``cfg.finetune_k`` sets how many examples each fine-tuning prompt carries
    (default 1, the single top-scoring example).  Small from-scratch scorers
    are sensitive to the train/inference prompt-shape mismatch, so matching
    ``finetune_k`` to the inference ``k`` is the robust configuration at desk
    scale.  Zero epochs leaves the scorer untouched.
    """
    if cfg.epochs_lm == 0:
        return scorer
    build_prompt = prompt_builder(scorer.vocab, retriever, train, train, cfg.finetune_k,
                                  AblationMode.FULL, cfg)
    _lm_epochs(scorer, train, cfg, cfg.epochs_lm, build_prompt, seed_tag)
    return scorer


def _metrics_row(step, dataset, metrics):
    return {"step": step, "task": dataset.task.value, "split": dataset.split.value,
            **metrics.row()}


def _write_metrics(path, rows):
    write_table(path, ["step", "task", "split", *METRIC_COLUMNS], rows)


def _read_metrics(path):
    """The rows of ``metrics.tsv`` as ``_metrics_row`` makes them."""
    # csv also reads the CRLF line endings of older runs' metrics.tsv
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh, delimiter="\t"))
    for row in rows:
        row["step"] = int(row["step"])
        row["parse_failures"] = int(row["parse_failures"])
    return rows


def check_schedule_inputs(train, dev, cfg, resume_step=None):
    """Refuse a config or data ``run_schedule`` cannot use, before it writes."""
    if cfg.t < 1:
        raise ValueError("t must be at least 1")
    for dataset in (train, dev):
        if not dataset.samples:
            raise ValueError(f"the {dataset.split.value} split has no samples")
    if train.task != dev.task:
        raise ValueError(f"the train and {dev.split.value} splits hold different "
                         f"tasks: {train.task.value} and {dev.task.value}")
    check_label_sizes(cfg, train, train)
    if resume_step is not None and not 0 <= resume_step < cfg.t:
        raise ValueError(f"resume_step must be in [0, t), got {resume_step}")


def run_schedule(train, dev, cfg, out_dir, resume_step=None):
    """Run the t-step schedule, persisting checkpoints and dev metrics.

    ``resume_step`` reloads the step-s checkpoints from out_dir and reruns
    steps s+1..t; under the same seed this replays the original run exactly.
    """
    check_schedule_inputs(train, dev, cfg, resume_step)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def ckpt(kind, step):
        return out / f"{kind}_{step}.ckpt.npz"

    metrics_path = out / "metrics.tsv"
    if resume_step is None:
        vocab = build_vocabulary(train, cfg)
        scorer = init_scorer(vocab, d=cfg.d, max_len=cfg.max_len, seed=cfg.seed)
        scorer_mod.save_scorer(scorer, ckpt("scorer", "init"))
        retr = init_retriever(vocab, d_r=cfg.d_r, max_len=cfg.max_len, seed=cfg.seed)
        warmup_scorer(scorer, train, cfg)
        rows, start = [], 0
    else:
        scorer = scorer_mod.load_scorer(ckpt("scorer", resume_step))
        retr = retriever_mod.load_retriever(ckpt("retriever", resume_step))
        rows = [row for row in _read_metrics(metrics_path) if row["step"] <= resume_step]
        start = resume_step + 1

    for step in range(start, cfg.t + 1):
        if step > 0:  # step 0 is the warm-up alone
            retr = train_retriever(retr, train, scorer, cfg,
                                   bootstrap_first_epoch=(step == 1),
                                   seed_tag=stage_tag(step, "retriever-train"))
            scorer = finetune_lm(scorer, retr, train, cfg,
                                 seed_tag=stage_tag(step, "finetune-lm"))
        retriever_mod.save_retriever(retr, ckpt("retriever", step))
        scorer_mod.save_scorer(scorer, ckpt("scorer", step))
        metrics, _ = run_inference(
            scorer, retr, dev, cfg.k, AblationMode.FULL, train, cfg, records=False
        )
        rows.append(_metrics_row(step, dev, metrics))
        _write_metrics(metrics_path, rows)
        logger.info("alternating step %d complete", step)

    return ScheduleState(
        retriever_ckpts=[str(ckpt("retriever", s)) for s in range(cfg.t + 1)],
        scorer_ckpts=[str(ckpt("scorer", s)) for s in range(cfg.t + 1)],
        metrics_log=rows,
    )
