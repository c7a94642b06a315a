"""Trainable conditional sequence scorer/generator.

Reference model, fully differentiable by hand:
  encoder  h = tanh(W_enc @ mean(emb[prompt tokens]) + b_enc)
  decoder  logits_l = W_out @ [h ; emb[prev token] ; pos_l] + b_out
Scoring is teacher-forced log-likelihood of the target plus its end token;
generation is greedy.  Any object providing score/generate/finetune_step with
the same contracts can stand in for this implementation.
"""

import json
from dataclasses import dataclass

import numpy as np

from . import atomic
from .optim import AdamW, check_finite
from .vocab import BOS_ID, EOS_ID, Vocabulary

POS_DIM = 16
CHECKPOINT_FORMAT = "exrank-scorer-v1"


@dataclass
class LogLikelihood:
    total: float
    per_token: list


@dataclass
class ScorerState:
    vocab: Vocabulary
    d: int
    max_len: int
    params: dict  # emb (V,d), w_enc (d,d), b_enc (d,), w_out (V,2d+POS_DIM), b_out (V,)
    version: int = 0


def _position_codes(n_positions):
    pos = np.arange(n_positions)[:, None]
    i = np.arange(POS_DIM // 2)[None, :]
    angle = pos / (10000.0 ** (2.0 * i / POS_DIM))
    codes = np.zeros((n_positions, POS_DIM))
    codes[:, 0::2] = np.sin(angle)
    codes[:, 1::2] = np.cos(angle)
    return codes


_POS_CACHE = {}


def position_codes(n_positions):
    if n_positions not in _POS_CACHE:
        _POS_CACHE[n_positions] = _position_codes(n_positions)
    return _POS_CACHE[n_positions]


def init_scorer(vocab, d=64, max_len=128, seed=0, rng=None):
    """Fresh state.  Output weights start at zero, so the untrained decoder is
    exactly uniform over the vocabulary."""
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5C0E]))
    V = len(vocab)
    params = {
        "emb": rng.normal(0.0, 0.5, size=(V, d)),
        "w_enc": rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, d)),
        "b_enc": np.zeros(d),
        "w_out": np.zeros((V, 2 * d + POS_DIM)),
        "b_out": np.zeros(V),
    }
    return ScorerState(vocab=vocab, d=d, max_len=max_len, params=params)


def _prompt_ids(state, prompt):
    ids = state.vocab.encode(prompt)
    # keep the tail so the target input survives truncation
    return np.array(ids[-state.max_len:], dtype=np.intp)


def _encode_prompt(state, prompt):
    ids = _prompt_ids(state, prompt)
    p = state.params
    if len(ids):
        # equal bit for bit to emb[ids].mean(axis=0)
        mean = np.add.reduce(p["emb"].take(ids, axis=0), axis=0) / len(ids)
    else:
        mean = np.zeros(state.d)
    pre = p["w_enc"] @ mean + p["b_enc"]
    return np.tanh(pre), ids, mean


def _target_ids(state, target):
    ids = state.vocab.encode(target)
    if not ids:
        raise ValueError("target is empty after tokenization")
    ids.append(EOS_ID)
    return np.array(ids, dtype=np.intp)


def _forward(state, prompt, target):
    """Teacher-forced forward pass shared by score and nll_and_grads.

    Returns (shift, lse, tids, F, prev, h, prompt_ids, mean): the max-shifted
    logits (L, V) and their row log-sum-exp (L,), so that
    log p(tids[l]) = shift[l, tids[l]] - lse[l]; the target ids with the end
    token; and what the backward pass needs.  Every step keeps the operation
    order of the plain formula, so the results are bit-identical to it.
    """
    p = state.params
    d = state.d
    tids = _target_ids(state, target)
    L = len(tids)
    h, prompt_ids, mean = _encode_prompt(state, prompt)
    prev = np.empty(L, dtype=np.intp)
    prev[0] = BOS_ID
    prev[1:] = tids[:-1]
    F = np.empty((L, 2 * d + POS_DIM))  # rows [h ; emb[prev token] ; pos_l]
    F[:, :d] = h
    F[:, d:2 * d] = p["emb"].take(prev, axis=0)
    F[:, 2 * d:] = position_codes(L)
    shift = F @ p["w_out"].T
    shift += p["b_out"]
    shift -= shift.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shift).sum(axis=1))
    return shift, lse, tids, F, prev, h, prompt_ids, mean


def score(state, prompt, target):
    """Teacher-forced log-likelihood of target (plus end token) given prompt."""
    shift, lse, tids, *_ = _forward(state, prompt, target)
    per = shift[np.arange(len(tids)), tids] - lse
    return LogLikelihood(total=float(per.sum()), per_token=per.tolist())


def step_logits(state, prompt, prefix):
    """Softmax-normalized next-token distribution after a target prefix."""
    h, _, _ = _encode_prompt(state, prompt)
    return _next_token_dist(state, h, prefix)


def _next_token_dist(state, h, prefix):
    """step_logits for an already encoded prompt ``h``."""
    p = state.params
    prev = prefix[-1] if prefix else BOS_ID
    pos = position_codes(len(prefix) + 1)[len(prefix)]
    f = np.concatenate([h, p["emb"][prev], pos])
    z = p["w_out"] @ f + p["b_out"]
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def generate(state, prompt, max_len=None):
    """Greedy decoding until the end token or the length cap."""
    if max_len is None:
        max_len = state.max_len
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    h, _, _ = _encode_prompt(state, prompt)
    out = []
    for _ in range(max_len):
        nxt = int(np.argmax(_next_token_dist(state, h, out)))
        if nxt == EOS_ID:
            break
        out.append(nxt)
    return state.vocab.decode(out)


def nll_and_grads(state, prompt, target):
    """Negative log-likelihood and its analytic gradients for every parameter."""
    p = state.params
    d = state.d
    logp, lse, tids, F, prev, h, prompt_ids, mean = _forward(state, prompt, target)
    logp -= lse[:, None]  # the shifted logits become log-probabilities in place
    rows = np.arange(len(tids))
    loss = -float(logp[rows, tids].sum())

    dZ = np.exp(logp, out=logp)  # softmax rows
    dZ[rows, tids] -= 1.0

    g_emb = np.zeros_like(p["emb"])
    dF = dZ @ p["w_out"]  # (L, 2d+POS_DIM)
    dh = dF[:, :d].sum(axis=0)
    np.add.at(g_emb, prev, dF[:, d:2 * d])

    da = dh * (1.0 - h * h)
    if len(prompt_ids):
        dmean = p["w_enc"].T @ da
        np.add.at(g_emb, prompt_ids, dmean / len(prompt_ids))
    grads = {
        "w_out": dZ.T @ F,
        "b_out": dZ.sum(axis=0),
        "emb": g_emb,
        "w_enc": np.outer(da, mean),
        "b_enc": da,
    }
    return loss, grads


def finetune_step(state, prompt, target, lr, weight_decay=0.0, optimizer=None):
    """One NLL descent step.  Loss is the pre-update value.

    Pass a persistent AdamW to keep moments across steps; otherwise a fresh
    one-shot optimizer is used.
    """
    if lr < 0:
        raise ValueError("lr must be non-negative")
    loss, grads = nll_and_grads(state, prompt, target)
    check_finite(loss, grads, f"prompt={prompt[:60]!r}")
    opt = optimizer
    if opt is None:
        opt = AdamW(state.params, lr=lr, weight_decay=weight_decay)
    opt.step(state.params, grads)
    state.version += 1
    return state, loss


def save_scorer(state, path):
    atomic.savez(
        path,
        format=np.array(CHECKPOINT_FORMAT),
        d=np.array(state.d),
        max_len=np.array(state.max_len),
        n_vocab=np.array(len(state.vocab)),
        vocab=np.array(json.dumps(state.vocab.tokens)),
        **state.params,
    )


def load_scorer(path):
    blob = np.load(path, allow_pickle=False)
    if str(blob["format"]) != CHECKPOINT_FORMAT:
        raise ValueError(f"unexpected checkpoint format {blob['format']!r}")
    vocab = Vocabulary(json.loads(str(blob["vocab"])))
    if len(vocab) != int(blob["n_vocab"]):
        raise ValueError("vocabulary size does not match checkpoint header")
    params = {k: blob[k] for k in ("emb", "w_enc", "b_enc", "w_out", "b_out")}
    return ScorerState(
        vocab=vocab, d=int(blob["d"]), max_len=int(blob["max_len"]), params=params
    )
