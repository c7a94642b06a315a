"""Trainable conditional sequence scorer/generator.

Reference model, fully differentiable by hand:
  encoder  h = tanh(W_enc @ mean(emb[prompt tokens]) + b_enc)
  decoder  logits_l = W_out @ [h ; emb[prev token] ; pos_l] + b_out
Scoring is teacher-forced log-likelihood of the target plus its end token;
generation is greedy.

Greedy decoding picks the argmax of the softmax-normalised distribution, but
it normalises only when that could change the winner.  Each step takes the
argmax ``i`` of the raw logits ``z`` and the cut ``c = z[i] - _ARGMAX_MARGIN``,
which rounds once.  ``c`` lies within ulp(z[i]) / 2 of the exact difference, so
when it lies below ``z[i]`` at all, it lies at least half a margin below.  If
no logit but ``z[i]`` lies above ``c``, every shifted logit ``z[j] - z[i]``,
the value the softmax exponentiates, is then at most about -_ARGMAX_MARGIN / 2:
its exp is below exp(0) = 1 by a relative 5e-10, far more than the 2**-53
that rounding after the divide can close, so ``i`` is also the argmax after
normalising.  Once ulp(z[i]) nears the margin, ``c`` may round up to ``z[i]``
itself; then no logit lies above it and the step normalises.  So wherever
the step skips the softmax, its token is the normalised argmax, the token the
earlier test on the shifted logits returned (a seeded fuzz in the tests
compares the two rules).  Otherwise (near-ties, exact ties, NaN, +-inf) the
step shifts the logits by ``z[i]``, the same value the softmax subtracts,
finishes the softmax on the same array and takes its argmax.

A decoder reads position codes from one ``position_codes`` table, which it
doubles, up to its ``max_len``, only when decoding reaches the table's end; so
a large ``max_len`` costs nothing until an answer runs that long.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import checkpoint
from .optim import FlatViews, add_rows_at, check_finite
from .vocab import BOS_ID, EOS_ID, Vocabulary

POS_DIM = 16
CHECKPOINT_FORMAT = "exrank-scorer-v1"
# A greedy step skips the softmax when every logit but the top one lies at
# least this far below it (see the module docstring); closer calls normalise.
_ARGMAX_MARGIN = 1e-9
# The position codes a decoder holds before its first answer runs longer
_FIRST_POSITIONS = 64


@dataclass
class LogLikelihood:
    total: float
    per_token: list


@dataclass
class ScorerState:
    vocab: Vocabulary
    d: int
    max_len: int
    params: dict  # FlatViews laid out by _param_shapes(len(vocab), d)


def _param_shapes(V, d):
    return {"emb": (V, d), "w_enc": (d, d), "b_enc": (d,),
            "w_out": (V, 2 * d + POS_DIM), "b_out": (V,)}


@functools.lru_cache(maxsize=None)
def position_codes(n_positions):
    """Sinusoidal codes of positions 0..n_positions-1, memoised and shared by
    every caller, so the table is read-only."""
    pos = np.arange(n_positions)[:, None]
    i = np.arange(POS_DIM // 2)[None, :]
    angle = pos / (10000.0 ** (2.0 * i / POS_DIM))
    codes = np.zeros((n_positions, POS_DIM))
    codes[:, 0::2] = np.sin(angle)
    codes[:, 1::2] = np.cos(angle)
    codes.flags.writeable = False
    return codes


def init_scorer(vocab, d=64, max_len=128, seed=0):
    """Fresh state.  Output weights start at zero, so the untrained decoder is
    exactly uniform over the vocabulary."""
    checkpoint.check_max_len(max_len)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5C0E]))
    shapes = _param_shapes(len(vocab), d)
    params = FlatViews.zeros(shapes)
    params["emb"] = rng.normal(0.0, 0.5, size=shapes["emb"])
    params["w_enc"] = rng.normal(0.0, 1.0 / np.sqrt(d), size=shapes["w_enc"])
    return ScorerState(vocab=vocab, d=d, max_len=max_len, params=params)


def _encode_prompt(state, prompt):
    ids = state.vocab.tail_ids(prompt, state.max_len)
    p = state.params
    if len(ids):
        # equal bit for bit to emb[ids].mean(axis=0)
        mean = np.add.reduce(p["emb"].take(ids, axis=0), axis=0)
        mean /= len(ids)
    else:
        mean = np.zeros(state.d)
    # np.dot makes the BLAS call of `@` with less dispatch: the same floats
    pre = np.dot(p["w_enc"], mean)
    pre += p["b_enc"]
    return np.tanh(pre, out=pre), ids, mean


def _forward(state, prompt, target):
    """Teacher-forced forward pass shared by score and nll_and_grads.

    Returns (shift, lse, picks, F, prev, h, prompt_ids, mean): the max-shifted
    logits (L, V) and their row log-sum-exp (L,), so that the log-probability
    of the id step l must predict is shift.flat[picks[l]] - lse[l] (see
    ``Vocabulary.target_ids``); and what the backward pass needs.  Every step
    keeps the operation order of the plain formula, so the results are
    bit-identical to it.
    """
    p = state.params
    d = state.d
    prev, picks = state.vocab.target_ids(target)
    L = len(prev)
    h, prompt_ids, mean = _encode_prompt(state, prompt)
    F = np.empty((L, 2 * d + POS_DIM))  # rows [h ; emb[prev token] ; pos_l]
    F[:, :d] = h
    F[:, d:2 * d] = p["emb"].take(prev, axis=0)
    F[:, 2 * d:] = position_codes(L)
    shift = np.dot(F, p["w_out"].T)
    shift += p["b_out"]
    shift -= np.maximum.reduce(shift, axis=1, keepdims=True)
    lse = np.add.reduce(np.exp(shift), axis=1)
    return shift, np.log(lse, out=lse), picks, F, prev, h, prompt_ids, mean


def score(state, prompt, target):
    """Teacher-forced log-likelihood of target (plus end token) given prompt."""
    shift, lse, picks, *_ = _forward(state, prompt, target)
    per = shift.take(picks)
    per -= lse
    return LogLikelihood(total=float(np.add.reduce(per)), per_token=per.tolist())


def step_logits(state, prompt, prefix):
    """Softmax-normalized next-token distribution after a target prefix."""
    z = _decoder(state, prompt, len(prefix) + 1)(prefix)
    z -= z.max()
    return _normalise(z)


def _decoder(state, prompt, max_len):
    """The next-token logits of decoding from ``prompt``: a function of a
    target prefix of fewer than ``max_len`` ids that returns the raw logits
    after it, in one array that each call overwrites.  The prompt is encoded,
    and the parameters are looked up, once per decoder; the position codes
    grow with the longest prefix seen.
    """
    p = state.params
    emb, w_out, b_out, d = p["emb"], p["w_out"], p["b_out"], state.d
    codes = position_codes(min(max_len, _FIRST_POSITIONS))
    f = np.empty(2 * d + POS_DIM)  # [h ; emb[prev token] ; pos]
    f[:d] = _encode_prompt(state, prompt)[0]
    prev, pos = f[d:2 * d], f[2 * d:]
    z = np.empty(len(b_out))

    def logits(prefix):
        nonlocal codes
        n = len(prefix)
        if n >= len(codes):  # a longer table starts with the same rows
            codes = position_codes(min(2 * n, max_len))
        prev[...] = emb[prefix[-1] if n else BOS_ID]
        pos[...] = codes[n]  # equal bit for bit to position_codes(n + 1)[n]
        np.dot(w_out, f, out=z)  # the BLAS call of `w_out @ f`, into z
        return np.add(z, b_out, out=z)

    return logits


def _normalise(shift):
    """Softmax of max-shifted logits, computed in place."""
    np.exp(shift, out=shift)
    shift /= shift.sum()
    return shift


def _greedy_token(z):
    """argmax of the softmax of logits ``z``, which it may overwrite."""
    i = int(z.argmax())
    if np.count_nonzero(z > z[i] - _ARGMAX_MARGIN) == 1:
        return i
    z -= z[i]  # for NaN-free z, the same value as z.max()
    return int(_normalise(z).argmax())


def generate(state, prompt, max_len):
    """Greedy decoding until the end token or ``max_len`` tokens."""
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    logits = _decoder(state, prompt, max_len)
    out = []
    for _ in range(max_len):
        nxt = _greedy_token(logits(out))
        if nxt == EOS_ID:
            break
        out.append(nxt)
    return state.vocab.decode(out)


def nll_and_grads(state, prompt, target, out):
    """Negative log-likelihood and its analytic gradients for every parameter.

    The gradients are written into ``out``, a ``FlatViews`` shaped like
    ``state.params`` (an optimizer's ``grads``, or ``state.params.zeros_like()``),
    which is overwritten whole and returned.
    """
    p = state.params
    d = state.d
    logp, lse, picks, F, prev, h, prompt_ids, mean = _forward(state, prompt, target)
    logp -= lse[:, None]  # the shifted logits become log-probabilities in place
    loss = -float(np.add.reduce(logp.take(picks)))

    dZ = np.exp(logp, out=logp)  # softmax rows
    dZ.reshape(-1)[picks] -= 1.0

    np.matmul(dZ.T, F, out=out["w_out"])
    np.add.reduce(dZ, axis=0, out=out["b_out"])
    dF = dZ @ p["w_out"]  # (L, 2d+POS_DIM)
    dh = np.add.reduce(dF[:, :d], axis=0)
    da = np.multiply(dh, 1.0 - h * h, out=out["b_enc"])
    np.multiply.outer(da, mean, out=out["w_enc"])
    # prev-token rows, then prompt rows, each in order: the same sums as
    # np.add.at over the rows of a zero array
    rows_at = [(prev, dF[:, d:2 * d])]
    if len(prompt_ids):
        rows_at.append((prompt_ids, (p["w_enc"].T @ da) / len(prompt_ids)))
    out["emb"].fill(0.0)
    add_rows_at(out["emb"], *rows_at)
    return loss, out


def finetune_step(state, prompt, target, optimizer):
    """One NLL descent step with ``optimizer``, an AdamW over ``state.params``
    that keeps its moments across steps.  The gradients are written into the
    optimizer's workspace ``grads``, and its step consumes them, so a step
    allocates nothing parameter-sized and the optimizer holds four
    parameter-sized buffers.  Afterwards ``grads`` holds scratch values until
    the next backward pass overwrites it.  Loss is the pre-update value.
    """
    loss, grads = nll_and_grads(state, prompt, target, optimizer.grads)
    check_finite(loss, grads, f"prompt={prompt[:60]!r}")
    optimizer.step()
    return state, loss


def save_scorer(state, path):
    checkpoint.save(state, path, CHECKPOINT_FORMAT, "d")


def load_scorer(path):
    return checkpoint.load(path, ScorerState, CHECKPOINT_FORMAT, "d", _param_shapes)
