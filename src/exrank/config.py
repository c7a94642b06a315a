"""Run configuration and seeded random substreams.

All randomness flows from one root seed through named substreams, so changing
one stage's draw count cannot perturb another stage.
"""

import dataclasses
import math
import zlib
from dataclasses import dataclass

import numpy as np

from .corpus import Task


@dataclass
class Config:
    task: Task = Task.ASPE
    k: int = 4                 # in-context examples at inference; also the C+/C- size
    m: int = 50                # candidates scored per query during retriever training
    r: float = 0.1             # labeling subset ratio
    batch_size: int = 2
    lr: float = 5e-5
    weight_decay: float = 0.01
    epochs_retriever: int = 4
    epochs_lm: int = 2
    finetune_k: int = 1        # retrieved examples per fine-tuning prompt
    t: int = 3                 # alternating steps
    d: int = 64                # scorer embedding width
    d_r: int = 64              # retriever embedding width
    max_len: int = 128
    max_gen_len: int = 24
    seed: int = 0
    warmup_epochs: int = 1     # zero-example scorer warm-up before step 1
    template_dir: str = None

    def __post_init__(self):
        self.task = Task(self.task)
        if not (0.0 < self.r <= 1.0):
            raise ValueError(f"r must be in (0, 1], got {self.r}")
        for f in dataclasses.fields(self):
            if f.type is int and getattr(self, f.name) < 0:
                raise ValueError(f"{f.name} must be non-negative")
        for key in ("batch_size", "d", "d_r", "max_len", "max_gen_len"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be at least 1")
        if self.template_dir == "":
            raise ValueError("template_dir must not be empty; use '.' for the "
                             "working directory")
        for key in ("lr", "weight_decay"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{key} must be finite and non-negative, got {value}")

    def to_dict(self):
        out = dataclasses.asdict(self)
        out["task"] = self.task.value
        return out

    @classmethod
    def from_dict(cls, values):
        fields = {f.name: f.type for f in dataclasses.fields(cls)}
        kwargs = {}
        for key, raw in values.items():
            if key not in fields:
                raise ValueError(f"unknown config key {key!r}")
            kwargs[key] = _coerce(fields[key], raw)
        return cls(**kwargs)


def _coerce(kind, raw):
    """A config value read as text, converted to its field's type ``kind``."""
    if raw is None or not isinstance(raw, str):
        return raw
    if kind in (int, float):
        return kind(raw)
    return raw  # str, and Task, which __post_init__ converts


def read_config_file(path):
    """Flat key=value file; '#' starts a comment.  Errors count lines from 1."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line {line_no}: {line!r}")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def substream(seed, name):
    """A Generator deterministically derived from (root seed, stream name)."""
    tag = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))
