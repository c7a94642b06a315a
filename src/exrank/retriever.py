"""Dense mean-pooled encoder, inner-product similarity, exact top-m retrieval.

Reference encoder: per-token u = tanh(W @ emb[token] + b), mean-pooled over
positions.  It carries no position information, so candidate encodings are
permutation-invariant.
"""

import logging
from dataclasses import dataclass

import numpy as np

from . import checkpoint
from .optim import FlatViews, add_rows_at, aligned_zeros
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
    params: dict  # FlatViews laid out by _param_shapes(len(vocab), d_r)
    version: int = 0


def _param_shapes(V, d_r):
    return {"emb": (V, d_r), "w": (d_r, d_r), "b": (d_r,)}


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


def init_retriever(vocab, d_r=64, max_len=128, seed=0):
    checkpoint.check_max_len(max_len)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x2E72]))
    shapes = _param_shapes(len(vocab), d_r)
    params = FlatViews.zeros(shapes)
    params["emb"] = rng.normal(0.0, 0.5, size=shapes["emb"])
    params["w"] = rng.normal(0.0, 1.0 / np.sqrt(d_r), size=shapes["w"])
    return RetrieverState(vocab=vocab, d_r=d_r, max_len=max_len, params=params)


def _token_outputs(state, ids):
    """Token embeddings e and encoder outputs u = tanh(e @ w.T + b), each (n, d_r)."""
    p = state.params
    e = p["emb"].take(ids, axis=0)
    u = np.dot(e, p["w"].T)  # the BLAS call of `@` with less dispatch
    u += p["b"]
    np.tanh(u, out=u)
    return e, u


def encode_text(state, text):
    """Mean of per-token encoder outputs; zero vector for empty input."""
    ids = state.vocab.tail_ids(text, state.max_len)
    if not len(ids):
        return np.zeros(state.d_r)
    _, u = _token_outputs(state, ids)
    mean = np.add.reduce(u, axis=0)  # divided in place: bit for bit u.mean(axis=0)
    mean /= len(ids)
    return mean


def encode_text_backward(state, text, dh, grads):
    """Accumulate parameter gradients for d(loss)/d(encode_text(text)) = dh."""
    ids = state.vocab.tail_ids(text, state.max_len)
    if not len(ids):
        return
    e, u = _token_outputs(state, ids)
    da = (1.0 - u * u) * (dh / len(ids))  # (n, d_r)
    grads["w"] += da.T @ e
    grads["b"] += da.sum(axis=0)
    add_rows_at(grads["emb"], (ids, da @ state.params["w"]))


def build_index(state, pool):
    """Embed every pool sample as a candidate, in id order."""
    candidates = [make_candidate(s, pool.task) for s in pool.samples]
    matrix = aligned_zeros(len(candidates) * state.d_r).reshape(-1, state.d_r)
    for i, c in enumerate(candidates):
        matrix[i] = encode_text(state, candidate_text(c))
    return CandidateIndex(
        matrix=matrix,
        ids=np.array([c.id for c in candidates], dtype=int),
        candidates=candidates,
        version=state.version,
    )


def eligible(queries, pool):
    """The one membership rule of labeling, ``separation`` and every prompt:
    the pool ids that are queries of ``queries`` themselves, and each query's
    count of the other pool candidates.  A query is the pool sample with its
    own id only when ``queries`` and ``pool`` are the same split, since each
    split numbers its samples independently."""
    members = {s.id for s in pool.samples} if queries.split == pool.split else set()
    n = len(pool.samples)
    return members, [n - (s.id in members) for s in queries.samples]


def retrieve(state, index, text, m, allow_stale=False, exclude_id=None):
    """Top-m candidates by similarity to the query input ``text``, ties by
    ascending id.

    ``text`` is the prompt-side input (``template.task_input``, which carries
    the ATSC aspect splice).  ``exclude_id`` drops the candidate with that id:
    pass the query's own id when ``eligible`` lists it among the pool's
    members, else None.  ``allow_stale`` is for the contrastive training loop,
    which refreshes its index once per epoch by design.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if not allow_stale and index.version != state.version:
        raise StaleIndexError(
            f"index built at version {index.version}, state is at {state.version}"
        )
    sims = np.dot(index.matrix, encode_text(state, query_text(text)))
    ids = index.ids
    keep = None
    if exclude_id is not None:
        keep = (ids != exclude_id).nonzero()[0]
        ids, sims = ids[keep], sims[keep]
    if m > len(ids):
        logger.warning(
            "requested m=%d exceeds pool of %d eligible candidates; returning all",
            m, len(ids),
        )
        m = len(ids)
    top = _top_m(sims, ids, m)
    rows = index.candidates
    # tolist() gives Python ints and floats, the values of int() and float()
    return [ScoredCandidate(rows[i], s) for i, s in
            zip((top if keep is None else keep[top]).tolist(), sims[top].tolist())]


def _top_m(sims, ids, m):
    """Positions of the m highest ``sims``, ties by ascending id.

    Equal to ``np.lexsort((ids, -sims))[:m]``, but only the rows at or above
    the m-th highest similarity are sorted.
    """
    neg = -sims
    if 0 < m < len(neg):
        cut = np.partition(neg, m - 1)[m - 1]
        if cut == cut:  # a NaN cut sorts last; the full sort handles it
            near = (neg <= cut).nonzero()[0]  # every tie at the cut
            return near[np.lexsort((ids[near], neg[near]))[:m]]
    return np.lexsort((ids, neg))[:m]


def save_retriever(state, path):
    checkpoint.save(state, path, CHECKPOINT_FORMAT, "d_r")


def load_retriever(path):
    return checkpoint.load(path, RetrieverState, CHECKPOINT_FORMAT, "d_r", _param_shapes)
