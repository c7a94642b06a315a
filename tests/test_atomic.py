"""Checkpoints, metrics.tsv and run.json are replaced whole or not at all."""

import os

import numpy as np
import pytest

from exrank import atomic
from exrank.alternating import _metrics_row, _read_metrics, _write_metrics
from exrank.cli import _write_manifest
from exrank.config import Config
from exrank.corpus import Dataset, Split, Task
from exrank.evaluation import Metrics
from exrank.retriever import init_retriever, load_retriever, save_retriever
from exrank.scorer import init_scorer, load_scorer, save_scorer
from exrank.vocab import Vocabulary

VOCAB = Vocabulary.build(["alpha beta gamma"])
MODELS = {
    "scorer": (lambda: init_scorer(VOCAB, d=4, seed=1), save_scorer, load_scorer),
    "retriever": (lambda: init_retriever(VOCAB, d_r=4, seed=1), save_retriever,
                  load_retriever),
}


def _broken_savez(file, **arrays):
    with open(file, "wb") as fh:
        fh.write(b"PK\x03\x04 half a zip")
    raise OSError("disk full")


@pytest.mark.parametrize("model", sorted(MODELS))
def test_failed_checkpoint_write_keeps_previous_file(tmp_path, monkeypatch, model):
    make, save, _ = MODELS[model]
    state = make()
    path = tmp_path / "m.ckpt.npz"
    save(state, path)
    before = path.read_bytes()
    for v in state.params.values():
        v += 1.0
    monkeypatch.setattr(np, "savez", _broken_savez)
    with pytest.raises(OSError, match="disk full"):
        save(state, path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["m.ckpt.npz"]


@pytest.mark.parametrize("model", sorted(MODELS))
def test_checkpoint_overwrite_and_npz_suffix(tmp_path, model):
    make, save, load = MODELS[model]
    state = make()
    save(state, tmp_path / "m.ckpt.npz")
    for v in state.params.values():
        v += 1.0
    save(state, tmp_path / "m.ckpt.npz")
    save(state, str(tmp_path / "bare"))  # np.savez appends .npz; so do we
    assert sorted(os.listdir(tmp_path)) == ["bare.npz", "m.ckpt.npz"]
    for name in ("m.ckpt.npz", "bare.npz"):
        back = load(tmp_path / name)
        for key, v in state.params.items():
            assert back.params[key].tobytes() == v.tobytes(), (name, key)


def test_failed_metrics_write_keeps_previous_file(tmp_path):
    path = tmp_path / "metrics.tsv"
    dev = Dataset(samples=[], task=Task.ASPE, split=Split.TEST)
    rows = [_metrics_row(step, dev, Metrics(f1=0.5)) for step in (0, 1)]
    _write_metrics(path, rows[:1])
    before = path.read_bytes()
    # DictWriter raises on the third row, after the header and two rows
    with pytest.raises(ValueError):
        _write_metrics(path, rows + [{"bogus": 1}])
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["metrics.tsv"]
    assert _read_metrics(path) == [{k: str(v) for k, v in rows[0].items()}]


def test_failed_manifest_write_keeps_previous_file(tmp_path):
    cfg = Config()
    _write_manifest(tmp_path, "test", cfg)
    before = (tmp_path / "run.json").read_bytes()
    # keys are sorted, so the unserializable value comes after the others
    with pytest.raises(TypeError):
        _write_manifest(tmp_path, "test", cfg, {"zz_unserializable": object()})
    assert (tmp_path / "run.json").read_bytes() == before
    assert os.listdir(tmp_path) == ["run.json"]


def test_replacing_removes_temp_file_when_body_never_writes(tmp_path):
    with pytest.raises(KeyboardInterrupt):
        with atomic.replacing(tmp_path / "x.txt"):
            raise KeyboardInterrupt
    assert os.listdir(tmp_path) == []
