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
    return ids[-state.max_len:]


def _encode_prompt(state, prompt):
    ids = _prompt_ids(state, prompt)
    p = state.params
    if ids:
        mean = p["emb"][ids].mean(axis=0)
    else:
        mean = np.zeros(state.d)
    pre = p["w_enc"] @ mean + p["b_enc"]
    return np.tanh(pre), ids, mean


def _target_ids(state, target):
    ids = state.vocab.encode(target)
    if not ids:
        raise ValueError("target is empty after tokenization")
    return ids + [EOS_ID]


def _features(state, h, target_ids):
    p = state.params
    L = len(target_ids)
    prev = np.array([BOS_ID] + list(target_ids[:-1]))
    return np.concatenate(
        [np.tile(h, (L, 1)), p["emb"][prev], position_codes(max(L, 1))[:L]], axis=1
    ), prev


def _log_softmax(z):
    shift = z - z.max(axis=-1, keepdims=True)
    return shift - np.log(np.exp(shift).sum(axis=-1, keepdims=True))


def score(state, prompt, target):
    """Teacher-forced log-likelihood of target (plus end token) given prompt."""
    tids = _target_ids(state, target)
    h, _, _ = _encode_prompt(state, prompt)
    F, _ = _features(state, h, tids)
    Z = F @ state.params["w_out"].T + state.params["b_out"]
    logp = _log_softmax(Z)
    per = logp[np.arange(len(tids)), tids]
    return LogLikelihood(total=float(per.sum()), per_token=[float(x) for x in per])


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
    tids = _target_ids(state, target)
    L = len(tids)
    h, prompt_ids, mean = _encode_prompt(state, prompt)
    F, prev = _features(state, h, tids)
    Z = F @ p["w_out"].T + p["b_out"]
    logp = _log_softmax(Z)
    loss = -float(logp[np.arange(L), tids].sum())

    dZ = np.exp(logp)  # softmax rows
    dZ[np.arange(L), tids] -= 1.0

    grads = {
        "w_out": dZ.T @ F,
        "b_out": dZ.sum(axis=0),
        "emb": np.zeros_like(p["emb"]),
        "w_enc": np.zeros_like(p["w_enc"]),
        "b_enc": np.zeros_like(p["b_enc"]),
    }
    dF = dZ @ p["w_out"]  # (L, 2d+POS_DIM)
    d = state.d
    dh = dF[:, :d].sum(axis=0)
    np.add.at(grads["emb"], prev, dF[:, d:2 * d])

    da = dh * (1.0 - h * h)
    grads["w_enc"] = np.outer(da, mean)
    grads["b_enc"] = da
    if prompt_ids:
        dmean = p["w_enc"].T @ da
        np.add.at(grads["emb"], prompt_ids, dmean / len(prompt_ids))
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
    np.savez(
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
