"""Checkpoints, datasets, run.json and every TSV/JSONL output are replaced
whole or not at all."""

import json
import os

import numpy as np
import pytest

from exrank import atomic, cli
from exrank.alternating import _metrics_row, _read_metrics, _write_metrics
from exrank.cli import _write_manifest
from exrank.config import Config
from exrank.corpus import (
    Dataset,
    Sample,
    Split,
    Task,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
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
    # write_table raises on the third row, after the header and two rows
    with pytest.raises(ValueError):
        _write_metrics(path, rows + [{"bogus": 1}])
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["metrics.tsv"]
    assert _read_metrics(path) == rows[:1]


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


def test_write_lines_writes_each_line_with_a_newline(tmp_path):
    atomic.write_lines(tmp_path / "a.tsv", ["x\ty", "1\t2"])
    assert (tmp_path / "a.tsv").read_bytes() == b"x\ty\n1\t2\n"


def test_failed_write_lines_keeps_previous_file(tmp_path):
    path = tmp_path / "sweep.tsv"
    atomic.write_lines(path, ["old"])
    before = path.read_bytes()

    def lines():
        yield "k\tf1"
        yield "0\t0.5"
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        atomic.write_lines(path, lines())
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["sweep.tsv"]


def test_write_table_writes_a_header_and_lf_terminated_rows(tmp_path):
    atomic.write_table(tmp_path / "t.tsv", ["k", "f1"],
                       [{"k": 0, "f1": "0.500000"}, {"f1": "0.250000", "k": 1}])
    assert (tmp_path / "t.tsv").read_bytes() == b"k\tf1\n0\t0.500000\n1\t0.250000\n"


@pytest.mark.parametrize("bad", [{"k": 1}, {"k": 1, "f1": 0.5, "extra": 2}])
def test_write_table_refuses_a_row_without_exactly_the_columns(tmp_path, bad):
    path = tmp_path / "t.tsv"
    atomic.write_table(path, ["k", "f1"], [{"k": 0, "f1": 0.5}])
    before = path.read_bytes()
    with pytest.raises(ValueError, match="not the columns"):
        atomic.write_table(path, ["k", "f1"], [{"k": 0, "f1": 0.5}, bad])
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["t.tsv"]


def test_failed_dataset_write_keeps_previous_file(tmp_path):
    train, _ = generate_synthetic(20, 5, 0)
    path = tmp_path / "train.jsonl"
    save_dataset(train, path)
    before = path.read_bytes()
    bad = Sample(id=99, text="x", labels=[], aspect=object())  # not serializable
    broken = Dataset(samples=train.samples[:3] + [bad], task=train.task,
                     split=train.split)
    with pytest.raises(TypeError):
        save_dataset(broken, path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["train.jsonl"]
    assert [s.text for s in load_dataset(path, Task.ASPE).samples] == [
        s.text for s in train.samples]


def test_failed_cli_predictions_write_keeps_previous_file(tmp_path, monkeypatch):
    data = tmp_path / "data"
    assert cli.main(["gen-data", "--train", "20", "--test", "4", "--out", str(data)]) == 0
    out = tmp_path / "eval"
    out.mkdir()
    (out / "predictions.jsonl").write_bytes(b"previous\n")
    calls = []

    def dumps(obj):  # the third prediction record fails to serialize
        calls.append(obj)
        if len(calls) == 3:
            raise TypeError("not serializable")
        return json.dumps(obj)

    monkeypatch.setattr(cli, "json", type("J", (), {"dumps": staticmethod(dumps)}))
    rc = cli.main(["evaluate", "--train-file", str(data / "train.jsonl"),
                   "--test-file", str(data / "test.jsonl"), "--out", str(out),
                   "--d", "8", "--d-r", "8", "--warmup-epochs", "0",
                   "--max-gen-len", "4"])
    assert rc == 2
    assert len(calls) == 3
    assert (out / "predictions.jsonl").read_bytes() == b"previous\n"
    assert sorted(os.listdir(out)) == ["metrics.tsv", "predictions.jsonl"]
