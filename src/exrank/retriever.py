"""Dense mean-pooled encoder, inner-product similarity, exact top-m retrieval.

Reference encoder: per-token u = tanh(W @ emb[token] + b), mean-pooled over
positions.  It carries no position information, so candidate encodings are
permutation-invariant; position-aware encoders can replace it behind the same
functions.
"""

import json
import logging
from dataclasses import dataclass

import numpy as np

from . import atomic
from .template import candidate_text, make_candidate, query_text
from .vocab import Vocabulary

logger = logging.getLogger(__name__)

CHECKPOINT_FORMAT = "exrank-retriever-v1"


class StaleIndexError(RuntimeError):
    """Raised when an index built under older parameters is queried."""


@dataclass
class RetrieverState:
    vocab: Vocabulary
    d_r: int
    max_len: int
    params: dict  # emb (V,d_r), w (d_r,d_r), b (d_r,)
    version: int = 0


@dataclass
class ScoredCandidate:
    candidate: object  # template.Candidate
    similarity: float = None
    delta: float = None

    @property
    def id(self):
        return self.candidate.id


@dataclass
class CandidateIndex:
    matrix: np.ndarray  # (n, d_r), row order == ids order
    ids: np.ndarray
    candidates: list
    version: int


def init_retriever(vocab, d_r=64, max_len=128, seed=0, rng=None):
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x2E72]))
    V = len(vocab)
    params = {
        "emb": rng.normal(0.0, 0.5, size=(V, d_r)),
        "w": rng.normal(0.0, 1.0 / np.sqrt(d_r), size=(d_r, d_r)),
        "b": np.zeros(d_r),
    }
    return RetrieverState(vocab=vocab, d_r=d_r, max_len=max_len, params=params)


def _text_ids(state, text):
    return state.vocab.encode(text)[-state.max_len:]


def encode_text(state, text):
    """Mean of per-token encoder outputs; zero vector for empty input."""
    ids = _text_ids(state, text)
    if not ids:
        return np.zeros(state.d_r)
    p = state.params
    u = np.tanh(p["emb"][ids] @ p["w"].T + p["b"])
    return u.mean(axis=0)


def encode_candidate(state, candidate):
    return encode_text(state, candidate_text(candidate))


def encode_query(state, x):
    return encode_text(state, query_text(x))


def encode_text_backward(state, text, dh, grads):
    """Accumulate parameter gradients for d(loss)/d(encode_text(text)) = dh."""
    ids = _text_ids(state, text)
    if not ids:
        return
    p = state.params
    e = p["emb"][ids]
    u = np.tanh(e @ p["w"].T + p["b"])
    da = (1.0 - u * u) * (dh / len(ids))  # (n, d_r)
    grads["w"] += da.T @ e
    grads["b"] += da.sum(axis=0)
    np.add.at(grads["emb"], ids, da @ p["w"])


def similarity(h_s, h_i):
    """Exact inner product."""
    h_s = np.asarray(h_s)
    h_i = np.asarray(h_i)
    if h_s.shape != h_i.shape:
        raise ValueError(f"width mismatch: {h_s.shape} vs {h_i.shape}")
    return float(np.dot(h_s, h_i))


def build_index(state, pool):
    """Embed every pool sample as a candidate, in id order."""
    candidates = [make_candidate(s, pool.task) for s in pool.samples]
    if candidates:
        matrix = np.stack([encode_candidate(state, c) for c in candidates])
    else:
        matrix = np.zeros((0, state.d_r))
    return CandidateIndex(
        matrix=matrix,
        ids=np.array([c.id for c in candidates], dtype=int),
        candidates=candidates,
        version=state.version,
    )


def retrieve(state, index, query, m, query_input=None, allow_stale=False,
             exclude_id=None):
    """Top-m candidates by similarity, ties by ascending id.

    ``exclude_id`` drops the candidate with that id: pass the query's own id
    when the query is a member of the indexed pool.  Ids are unique only
    within one split, so a query from another split must exclude nothing.
    ``query_input`` overrides the query text (e.g. the ATSC splice); default
    is query.text.  ``allow_stale`` is for the contrastive training loop,
    which refreshes its index once per epoch by design.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if not allow_stale and index.version != state.version:
        raise StaleIndexError(
            f"index built at version {index.version}, state is at {state.version}"
        )
    q = encode_query(state, query_input if query_input is not None else query.text)
    if exclude_id is None:
        keep = np.arange(len(index.ids))
    else:
        keep = np.flatnonzero(index.ids != exclude_id)
    ids = index.ids[keep]
    sims = (index.matrix @ q)[keep]
    if m > len(ids):
        logger.warning(
            "requested m=%d exceeds pool of %d eligible candidates; returning all",
            m, len(ids),
        )
        m = len(ids)
    order = np.lexsort((ids, -sims))[:m]
    return [
        ScoredCandidate(candidate=index.candidates[keep[i]], similarity=float(sims[i]))
        for i in order
    ]


def save_retriever(state, path):
    atomic.savez(
        path,
        format=np.array(CHECKPOINT_FORMAT),
        d_r=np.array(state.d_r),
        max_len=np.array(state.max_len),
        n_vocab=np.array(len(state.vocab)),
        vocab=np.array(json.dumps(state.vocab.tokens)),
        **state.params,
    )


def load_retriever(path):
    blob = np.load(path, allow_pickle=False)
    if str(blob["format"]) != CHECKPOINT_FORMAT:
        raise ValueError(f"unexpected checkpoint format {blob['format']!r}")
    vocab = Vocabulary(json.loads(str(blob["vocab"])))
    if len(vocab) != int(blob["n_vocab"]):
        raise ValueError("vocabulary size does not match checkpoint header")
    params = {k: blob[k] for k in ("emb", "w", "b")}
    return RetrieverState(
        vocab=vocab, d_r=int(blob["d_r"]), max_len=int(blob["max_len"]), params=params
    )
