"""The checkpoint format: its member layout is pinned, and shapes are checked
at load."""

import json
import re

import numpy as np
import pytest

from exrank.retriever import init_retriever, load_retriever, save_retriever
from exrank.scorer import init_scorer, load_scorer, save_scorer
from exrank.vocab import Vocabulary

VOCAB = Vocabulary.build(["alpha beta gamma"])
# model -> (fresh state, save, load, format tag, width key)
MODELS = {
    "scorer": (lambda: init_scorer(VOCAB, d=8, max_len=32, seed=1), save_scorer,
               load_scorer, "exrank-scorer-v1", "d"),
    "retriever": (lambda: init_retriever(VOCAB, d_r=8, max_len=32, seed=1),
                  save_retriever, load_retriever, "exrank-retriever-v1", "d_r"),
}


def _write_by_hand(path, state, tag, width, **override):
    """A checkpoint in the established member layout, written with plain np.savez."""
    params = {**state.params, **override}
    np.savez(
        path,
        format=np.array(tag),
        **{width: np.array(getattr(state, width))},
        max_len=np.array(state.max_len),
        n_vocab=np.array(len(state.vocab)),
        vocab=np.array(json.dumps(state.vocab.tokens)),
        **params,
    )


@pytest.mark.parametrize("model", sorted(MODELS))
def test_load_then_save_reproduces_the_file_byte_for_byte(tmp_path, model):
    make, save, load, tag, width = MODELS[model]
    state = make()
    for v in state.params.values():
        v += np.linspace(0.0, 1.0, v.size).reshape(v.shape)  # no all-zero arrays
    original = tmp_path / "by_hand.ckpt.npz"
    _write_by_hand(original, state, tag, width)
    resaved = tmp_path / "resaved.ckpt.npz"
    save(load(original), resaved)
    assert resaved.read_bytes() == original.read_bytes()


@pytest.mark.parametrize("model, key, shape", [
    ("scorer", "w_enc", (8, 5)),
    ("scorer", "emb", (len(VOCAB) + 1, 8)),
    ("scorer", "b_out", (len(VOCAB), 1)),
    ("retriever", "w", (8, 5)),
    ("retriever", "emb", (len(VOCAB), 7)),
])
def test_parameter_shape_mismatch_is_rejected_at_load(tmp_path, model, key, shape):
    make, _, load, tag, width = MODELS[model]
    path = tmp_path / "bad.ckpt.npz"
    _write_by_hand(path, make(), tag, width, **{key: np.zeros(shape)})
    with pytest.raises(ValueError, match=f"'{key}' has shape"):
        load(path)


@pytest.mark.parametrize("dtype", [np.float32, np.int64])
@pytest.mark.parametrize("model", sorted(MODELS))
def test_parameter_dtype_other_than_float64_is_rejected_at_load(tmp_path, model, dtype):
    make, _, load, tag, width = MODELS[model]
    state = make()
    path = tmp_path / "bad.ckpt.npz"
    _write_by_hand(path, state, tag, width, emb=state.params["emb"].astype(dtype))
    with pytest.raises(ValueError, match=f"'emb' has dtype {np.dtype(dtype)}, expected"):
        load(path)


@pytest.mark.parametrize("model", sorted(MODELS))
def test_a_vocabulary_of_another_size_than_the_header_is_refused_at_load(tmp_path, model):
    make, _, load, tag, width = MODELS[model]
    state = make()
    path = tmp_path / "bad.ckpt.npz"
    _write_by_hand(path, state, tag, width)
    with np.load(path) as blob:
        members = dict(blob)
    members["n_vocab"] = np.array(len(VOCAB) + 1)
    np.savez(path, **members)
    with pytest.raises(ValueError, match="vocabulary size does not match checkpoint header"):
        load(path)


@pytest.mark.parametrize("max_len", [0, -2])
@pytest.mark.parametrize("model", sorted(MODELS))
def test_max_len_below_one_is_refused_at_init_and_at_load(tmp_path, model, max_len):
    make, _, load, tag, width = MODELS[model]
    init = {"scorer": init_scorer, "retriever": init_retriever}[model]
    assert init(VOCAB, 8, max_len=1).max_len == 1
    with pytest.raises(ValueError, match=f"max_len must be at least 1, got {max_len}"):
        init(VOCAB, 8, max_len=max_len)
    state = make()
    state.max_len = max_len
    path = tmp_path / "bad.ckpt.npz"
    _write_by_hand(path, state, tag, width)
    with pytest.raises(ValueError, match=f"max_len must be at least 1, got {max_len}"):
        load(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("model", sorted(MODELS))
def test_a_non_finite_parameter_is_refused_at_load_naming_the_file_and_key(
        tmp_path, model, bad):
    make, _, load, tag, width = MODELS[model]
    state = make()
    emb, last = state.params["emb"].copy(), list(state.params)[-1]
    emb[1, 2] = bad
    path = tmp_path / "bad.ckpt.npz"
    # two bad parameters: the first in the model's order is named
    _write_by_hand(path, state, tag, width, emb=emb,
                   **{last: np.full_like(state.params[last], bad)})
    message = f"checkpoint {path}: parameter 'emb' holds a NaN or infinite value"
    with pytest.raises(ValueError, match=re.escape(message)):
        load(path)
