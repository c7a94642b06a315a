"""The benchmark's workloads: inputs made from a seed, the timed call, output checks.

Each workload provides

    setup(seed, workdir)           -> inputs, timed apart as set-up
    run(inputs, workdir)           -> raw result; this call is the timed section
    check(inputs, result, workdir) -> Outcome, untimed
    expected_calls(inputs)         -> exact call count of each traced layer per run

Workloads reach exrank through module attributes (``alternating.run_schedule``),
so a tracer that patches those modules sees every call.  GLOSSARY.md gives the
reason each workload exists.
"""

import csv
import hashlib
import logging
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from exrank import alternating, contrastive, evaluation, retriever, scorer
from exrank.config import Config
from exrank.corpus import Dataset, Task, generate_synthetic, to_atsc


@dataclass
class Outcome:
    ops: int  # work units of one run: see each workload's `unit`
    fingerprint: str  # digest of results that must repeat exactly for a seed
    quality: dict  # dev_f1 / infonce_final, where the workload defines them
    parse_failures: int = 0  # dropped label segments over all generated outputs
    outputs: int = 0  # generated outputs
    problems: list = field(default_factory=list)


def digest(*parts):
    """Short sha256 over values and parameter dicts, bit-exact for floats."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, dict):
            for key in sorted(part):
                h.update(key.encode())
                h.update(np.ascontiguousarray(part[key]).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()[:16]


def _nonfinite(name, params):
    bad = [k for k, v in params.items() if not np.all(np.isfinite(v))]
    return [f"{name}: non-finite parameters {bad}"] if bad else []


class InfoNCELog(logging.Handler):
    """Collects the per-epoch mean InfoNCE that train_retriever logs."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.losses = []
        self._logger = logging.getLogger("exrank.contrastive")

    def emit(self, record):
        if record.msg.startswith("retriever epoch"):
            self.losses.append(float(record.args[1]))

    def __enter__(self):
        self._level = self._logger.level
        self._logger.setLevel(logging.INFO)
        self._logger.addHandler(self)
        return self

    def __exit__(self, *exc):
        self._logger.removeHandler(self)
        self._logger.setLevel(self._level)
        return False


def retriever_training_calls(n_pool, cfg, bootstrap_first_epoch):
    """Layer calls of one train_retriever over a pool of n_pool samples."""
    E, m, B = cfg.epochs_retriever, cfg.m, max(1, cfg.batch_size)
    S = math.ceil(cfg.r * n_pool)
    batches = [min(B, S - start) for start in range(0, S, B)]
    # per query: its own text, its positive, its negative, 2(b-1) in-batch ones
    encodes = sum(b * (2 * b + 1) for b in batches)
    retrieves = (E - 1) * S if (bootstrap_first_epoch and E > 0) else E * S
    return Counter({
        "scorer.score": E * S * m,
        "template.render": E * S * m,
        "contrastive.label_candidates": E * S,
        "optim.AdamW.step": E * len(batches),
        "retriever.build_index": E,
        "retriever.retrieve": retrieves,
        "retriever.encode_text": E * n_pool + retrieves + E * encodes,
        "retriever.encode_text_backward": E * encodes,
    })


@dataclass
class ScheduleInputs:
    train: Dataset
    dev: Dataset
    cfg: Config


class Schedule:
    """run_schedule on the acceptance-7 configuration."""

    name = "schedule"
    unit = "optimizer update"
    setups = 15  # each takes milliseconds, so take the median of many

    def __init__(self, tiny=False):
        self.sizes = (40, 8) if tiny else (500, 100)
        self.config = dict(
            k=4, m=24, r=0.4, batch_size=2, lr=3e-3, weight_decay=0.0,
            epochs_retriever=4, epochs_lm=3, finetune_k=4, t=2, warmup_epochs=3,
        )
        if tiny:
            self.config.update(m=8, epochs_retriever=2, epochs_lm=1, warmup_epochs=1,
                               d=16, d_r=16, max_gen_len=8)

    def describe(self):
        return {"n_train": self.sizes[0], "n_dev": self.sizes[1], **self.config}

    def setup(self, seed, workdir):
        train, dev = generate_synthetic(*self.sizes, seed)
        return ScheduleInputs(train, dev, Config(seed=seed, **self.config))

    def run(self, inputs, workdir):
        with InfoNCELog() as log:
            state = alternating.run_schedule(inputs.train, inputs.dev, inputs.cfg, workdir)
        return state, log.losses

    def check(self, inputs, result, workdir):
        state, losses = result
        cfg, rows = inputs.cfg, state.metrics_log
        problems = []
        if [int(r["step"]) for r in rows] != list(range(cfg.t + 1)):
            problems.append(f"expected metric rows for steps 0..{cfg.t}, got {rows}")
        with open(workdir / "metrics.tsv", newline="", encoding="utf-8") as fh:
            on_disk = list(csv.DictReader(fh, delimiter="\t"))
        if on_disk != [{k: str(v) for k, v in r.items()} for r in rows]:
            problems.append("metrics.tsv differs from the returned metric rows")
        f1s = [float(r["f1"]) for r in rows]
        if not all(0.0 <= f <= 1.0 for f in f1s):
            problems.append(f"dev F1 outside [0, 1]: {f1s}")
        if len(losses) != cfg.t * cfg.epochs_retriever or not np.all(np.isfinite(losses)):
            problems.append(f"expected {cfg.t * cfg.epochs_retriever} finite InfoNCE "
                            f"epoch losses, got {losses}")
        scorers = [scorer.load_scorer(p) for p in
                   [workdir / "scorer_init.ckpt.npz", *state.scorer_ckpts]]
        retrievers = [retriever.load_retriever(p) for p in state.retriever_ckpts]
        for path, st in zip(state.scorer_ckpts + state.retriever_ckpts,
                            scorers[1:] + retrievers):
            problems += _nonfinite(path, st.params)
        return Outcome(
            ops=self.expected_calls(inputs)["optim.AdamW.step"],
            fingerprint=digest(rows, losses, scorers[-1].params, retrievers[-1].params),
            quality={"dev_f1": f1s[-1], "infonce_final": losses[-1] if losses else None},
            parse_failures=sum(int(r["parse_failures"]) for r in rows),
            outputs=len(rows) * len(inputs.dev),
            problems=problems,
        )

    def expected_calls(self, inputs):
        cfg, n, nd, t = inputs.cfg, len(inputs.train), len(inputs.dev), inputs.cfg.t
        calls = Counter()
        for step in range(1, t + 1):
            calls += retriever_training_calls(n, cfg, bootstrap_first_epoch=step == 1)
        lm = t * cfg.epochs_lm * n
        lm_indexes = t if cfg.epochs_lm > 0 else 0
        lm_retrieves = lm if cfg.finetune_k > 0 else 0
        updates = cfg.warmup_epochs * n + lm
        calls["scorer.nll_and_grads"] += updates
        calls["optim.AdamW.step"] += updates
        calls["template.render"] += updates + (t + 1) * nd
        calls["retriever.build_index"] += lm_indexes + t + 1
        calls["retriever.retrieve"] += lm_retrieves + (t + 1) * nd
        calls["retriever.encode_text"] += (
            (lm_indexes + t + 1) * n + lm_retrieves + (t + 1) * nd
        )
        calls["scorer.generate"] += (t + 1) * nd
        return calls


@dataclass
class SweepInputs:
    pool: Dataset
    test: Dataset
    cfg: Config
    scorer: object
    retriever: object
    infonce_final: float


class Sweep:
    """k_sweep for k = 0..7 in full mode with checkpoints from a short training run."""

    name = "sweep"
    unit = "answered query"
    setups = 3
    k_max = 7

    def __init__(self, tiny=False):
        self.sizes = (40, 12) if tiny else (500, 1000)
        self.n_dev = 8 if tiny else 20  # evaluated by the training run itself
        self.train_config = dict(
            k=4, m=16, r=0.1, batch_size=2, lr=1e-2, weight_decay=0.0,
            epochs_retriever=1, epochs_lm=1, finetune_k=4, t=1, warmup_epochs=2,
        )
        self.config = dict(k=4)
        if tiny:
            self.train_config.update(m=8, r=0.25, warmup_epochs=1, d=16, d_r=16,
                                     max_gen_len=8)
            self.config.update(d=16, d_r=16, max_gen_len=8)

    def describe(self):
        return {"n_pool": self.sizes[0], "n_test": self.sizes[1], "k_max": self.k_max,
                "train": self.train_config, **self.config}

    def setup(self, seed, workdir):
        pool, test = generate_synthetic(*self.sizes, seed)
        dev = Dataset(samples=test.samples[: self.n_dev], task=test.task, split=test.split)
        train_cfg = Config(seed=seed, **self.train_config)
        with InfoNCELog() as log:
            alternating.run_schedule(pool, dev, train_cfg, workdir)
        return SweepInputs(
            pool=pool,
            test=test,
            cfg=Config(seed=seed, **self.config),
            scorer=scorer.load_scorer(workdir / f"scorer_{train_cfg.t}.ckpt.npz"),
            retriever=retriever.load_retriever(workdir / f"retriever_{train_cfg.t}.ckpt.npz"),
            infonce_final=log.losses[-1],
        )

    def run(self, inputs, workdir):
        return evaluation.k_sweep(inputs.scorer, inputs.retriever, inputs.test,
                                  self.k_max, inputs.pool, inputs.cfg)

    def check(self, inputs, rows, workdir):
        problems = []
        if [row.k for row in rows] != list(range(self.k_max + 1)):
            problems.append(f"expected rows for k = 0..{self.k_max} ascending, "
                            f"got {[row.k for row in rows]}")
        f1s = [row.metrics.f1 for row in rows]
        if not all(0.0 <= f <= 1.0 for f in f1s):
            problems.append(f"F1 outside [0, 1]: {f1s}")
        summary = [(row.k, row.metrics.precision, row.metrics.recall, row.metrics.f1,
                    row.metrics.counts, row.metrics.parse_failures, row.truncated)
                   for row in rows]
        return Outcome(
            ops=len(rows) * len(inputs.test),
            fingerprint=digest(summary),
            quality={"dev_f1": f1s[min(inputs.cfg.k, len(f1s) - 1)],
                     "infonce_final": inputs.infonce_final},
            parse_failures=sum(row.metrics.parse_failures for row in rows),
            outputs=len(rows) * len(inputs.test),
            problems=problems,
        )

    def expected_calls(self, inputs):
        n, nt, k = len(inputs.pool), len(inputs.test), self.k_max
        return Counter({
            "scorer.generate": (k + 1) * nt,
            "template.render": (k + 1) * nt,
            "retriever.build_index": k,
            "retriever.retrieve": k * nt,
            "retriever.encode_text": k * (n + nt),
        })


@dataclass
class LabelInputs:
    train: Dataset
    cfg: Config
    scorer: object


class Label:
    """train_retriever on an ATSC split at m=50 with a warmed-up scorer."""

    name = "label"
    unit = "scored candidate"
    setups = 3

    def __init__(self, tiny=False):
        self.n_source, self.n_train = (60, 40) if tiny else (600, 500)
        self.config = dict(
            task=Task.ATSC, k=4, m=50, r=0.4, batch_size=2, lr=3e-3,
            weight_decay=0.0, epochs_retriever=2, warmup_epochs=1,
        )
        if tiny:
            self.config.update(m=8, d=16, d_r=16)

    def describe(self):
        return {"n_train": self.n_train, **self.config, "task": Task.ATSC.value}

    def setup(self, seed, workdir):
        atsc = to_atsc(generate_synthetic(self.n_source, 1, seed)[0])
        if len(atsc) < self.n_train:
            raise ValueError(f"seed {seed} gave {len(atsc)} ATSC samples, "
                             f"need {self.n_train}")
        train = Dataset(samples=atsc.samples[: self.n_train], task=atsc.task,
                        split=atsc.split)
        cfg = Config(seed=seed, **self.config)
        vocab = alternating.build_vocabulary(train, cfg)
        warm = scorer.init_scorer(vocab, d=cfg.d, max_len=cfg.max_len, seed=seed)
        alternating.warmup_scorer(warm, train, cfg)
        return LabelInputs(train, cfg, warm)

    def run(self, inputs, workdir):
        cfg = inputs.cfg
        retr = retriever.init_retriever(inputs.scorer.vocab, d_r=cfg.d_r,
                                        max_len=cfg.max_len, seed=cfg.seed)
        report = []
        contrastive.train_retriever(retr, inputs.train, inputs.scorer, cfg, report=report)
        return retr, report

    def check(self, inputs, result, workdir):
        retr, report = result
        losses = [loss for _, loss in report]
        problems = _nonfinite("retriever", retr.params)
        if len(losses) != inputs.cfg.epochs_retriever or not np.all(np.isfinite(losses)):
            problems.append(f"expected {inputs.cfg.epochs_retriever} finite InfoNCE "
                            f"epoch losses, got {losses}")
        return Outcome(
            ops=self.expected_calls(inputs)["scorer.score"],
            fingerprint=digest(losses, retr.params),
            quality={"infonce_final": losses[-1] if losses else None},
            problems=problems,
        )

    def expected_calls(self, inputs):
        return retriever_training_calls(len(inputs.train), inputs.cfg,
                                        bootstrap_first_epoch=True)


WORKLOADS = {w.name: w for w in (Schedule, Sweep, Label)}
