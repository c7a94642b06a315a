"""The one checkpoint format of both models.

A checkpoint is an uncompressed ``.npz`` holding, in this order: the format
tag, the model's width (``d`` or ``d_r``), ``max_len``, ``n_vocab``, the
vocabulary as a JSON list of tokens, then the parameter arrays.
"""

import json
import os

import numpy as np

from .atomic import replacing
from .optim import FlatViews
from .vocab import Vocabulary


def check_max_len(max_len):
    """Refuse a model ``max_len`` below 1: ``Vocabulary.tail_ids`` would keep
    every token at 0 and drop the first tokens below it."""
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, got {max_len}")


def save(state, path, tag, width):
    """Write ``state`` through ``replacing``; ``width`` is "d" or "d_r".

    Like ``np.savez``, appends ".npz" to a path that lacks it.  The temporary
    name ends in ".npz" too, or ``np.savez`` would write elsewhere.
    """
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"
    with replacing(path, suffix=".npz") as tmp:
        np.savez(
            tmp,
            format=np.array(tag),
            **{width: np.array(getattr(state, width))},
            max_len=np.array(state.max_len),
            n_vocab=np.array(len(state.vocab)),
            vocab=np.array(json.dumps(state.vocab.tokens)),
            **state.params,
        )


def load(path, state_cls, tag, width, shapes):
    """Read a ``state_cls`` written by ``save``.

    ``shapes(n_vocab, width)`` maps each parameter, in the model's order, to
    the shape the header implies; any other shape, a dtype other than
    float64, or a NaN or infinite value is refused.
    """
    with np.load(path, allow_pickle=False) as blob:
        if str(blob["format"]) != tag:
            raise ValueError(f"unexpected checkpoint format {blob['format']!r}")
        vocab = Vocabulary(json.loads(str(blob["vocab"])))
        n_vocab, size = int(blob["n_vocab"]), int(blob[width])
        if len(vocab) != n_vocab:
            raise ValueError("vocabulary size does not match checkpoint header")
        max_len = int(blob["max_len"])
        check_max_len(max_len)
        params = {}
        for key, shape in shapes(n_vocab, size).items():
            params[key] = blob[key]
            if params[key].shape != shape:
                raise ValueError(
                    f"checkpoint parameter {key!r} has shape {params[key].shape}, "
                    f"expected {shape} for n_vocab={n_vocab}, {width}={size}"
                )
            if params[key].dtype != np.float64:
                raise ValueError(f"checkpoint parameter {key!r} has dtype "
                                 f"{params[key].dtype}, expected float64")
            if not np.isfinite(params[key]).all():
                raise ValueError(f"checkpoint {os.fspath(path)}: parameter {key!r} "
                                 "holds a NaN or infinite value")
        return state_cls(vocab=vocab, max_len=max_len,
                         params=FlatViews.pack(params), **{width: size})
