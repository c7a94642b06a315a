"""Likelihood-supervised candidate labeling and contrastive retriever training.

Each candidate is scored by the log-likelihood the scorer assigns to the
query's gold output when the candidate is the single in-context example; the
top-k scored candidates become positives, the bottom-k negatives.  The
retriever is trained with an InfoNCE objective over one positive, one own
negative, and the 2(B-1) in-batch candidates of the other queries.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import scorer as scorer_mod
from .config import substream
from .corpus import Dataset, serialize_label
from .optim import AdamW, check_finite
from .retriever import (
    ScoredCandidate,
    build_index,
    encode_text,
    encode_text_backward,
    retrieve,
)
from .template import candidate_text, definition_for, query_text, render, task_input

logger = logging.getLogger(__name__)


def label_candidates(query, cands, scorer, definition, k, task, templates=None):
    """Split candidates into (C_plus, C_minus) by scorer log-likelihood.

    Returns two lists of ScoredCandidate with delta filled in, each of size k.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if len(cands) < 2 * k:
        raise ValueError(f"need at least {2 * k} candidates, got {len(cands)}")
    target = serialize_label(query, task)
    q_input = task_input(query, task)
    scored = []
    for c in cands:
        if c.id == query.id:
            raise ValueError("query must not appear among its own candidates")
        prompt = render(definition, [c], q_input, 1, templates=templates)
        delta = scorer_mod.score(scorer, prompt, target).total
        scored.append(ScoredCandidate(candidate=c, delta=delta))
    scored.sort(key=lambda sc: (-sc.delta, sc.id))
    return scored[:k], scored[-k:]


def check_label_sizes(cfg):
    """Reject a k or m that label_candidates would refuse, before training starts."""
    if cfg.k < 1:
        raise ValueError(f"k must be at least 1 for training, got {cfg.k}")
    if cfg.m < 2 * cfg.k:
        raise ValueError(
            f"m must be at least 2k = {2 * cfg.k} for training, got m={cfg.m}"
        )


def sample_training_subset(train, r, seed, name="subset"):
    """Draw ceil(r*n) samples without replacement, deterministically."""
    if not (0.0 < r <= 1.0):
        raise ValueError(f"r must be in (0, 1], got {r}")
    n = len(train.samples)
    size = math.ceil(r * n)
    rng = substream(seed, name)
    chosen = sorted(rng.choice(n, size=size, replace=False))
    return Dataset(
        samples=[train.samples[i] for i in chosen], task=train.task, split=train.split
    )


def infonce_loss(q, pos, negs):
    """-log softmax of sim(q, pos) against the negatives, max-shifted."""
    q = np.asarray(q)
    sims = np.concatenate([[np.dot(q, pos)], [np.dot(q, n) for n in negs]])
    shift = sims.max()
    return float(np.log(np.exp(sims - shift).sum()) - (sims[0] - shift))


def _batch_loss_and_grads(state, items):
    """Mean InfoNCE over the batch and parameter gradients.

    ``items`` is a list of (query_render, pos_render, [neg_renders]).
    """
    grads = {k: np.zeros_like(v) for k, v in state.params.items()}
    total = 0.0
    scale = 1.0 / len(items)
    for q_text, pos_text, neg_texts in items:
        hq = encode_text(state, q_text)
        hp = encode_text(state, pos_text)
        hns = [encode_text(state, t) for t in neg_texts]
        sims = np.concatenate([[hq @ hp], [hq @ hn for hn in hns]])
        shift = sims.max()
        e = np.exp(sims - shift)
        p = e / e.sum()
        total += float(np.log(e.sum()) - (sims[0] - shift))
        dsims = p.copy()
        dsims[0] -= 1.0
        dq = dsims[0] * hp
        for j, hn in enumerate(hns):
            dq += dsims[j + 1] * hn
        encode_text_backward(state, q_text, scale * dq, grads)
        encode_text_backward(state, pos_text, scale * dsims[0] * hq, grads)
        for j, t in enumerate(neg_texts):
            encode_text_backward(state, t, scale * dsims[j + 1] * hq, grads)
    return total * scale, grads


def _candidates_for_query(state, index, query, query_input, m, bootstrap_rng):
    if bootstrap_rng is not None:
        eligible = [c for c in index.candidates if c.id != query.id]
        take = min(m, len(eligible))
        picks = bootstrap_rng.choice(len(eligible), size=take, replace=False)
        return [eligible[i] for i in sorted(picks)]
    return [
        sc.candidate
        for sc in retrieve(
            state, index, query, m, query_input=query_input, allow_stale=True,
            exclude_id=query.id,
        )
    ]


def train_retriever(retr, train, scorer, cfg, bootstrap_first_epoch=True,
                    templates=None, seed_tag="retriever-train", report=None):
    """Contrastive training loop over a seeded subset of the training set.

    The first epoch can draw candidates uniformly at random (the untrained
    retriever has nothing useful to say); later epochs retrieve with the
    current retriever against an index rebuilt once per epoch.
    """
    check_label_sizes(cfg)
    definition = definition_for(train.task, templates)
    # step-dependent name: each alternating step labels a fresh subset
    subset = sample_training_subset(train, cfg.r, cfg.seed, name=f"{seed_tag}/subset")
    if not subset.samples:
        return retr
    opt = AdamW(retr.params, lr=cfg.lr, weight_decay=cfg.weight_decay)
    B = max(1, cfg.batch_size)
    for epoch in range(cfg.epochs_retriever):
        index = build_index(retr, train)
        shuffle_rng = substream(cfg.seed, f"{seed_tag}/epoch{epoch}/shuffle")
        boot_rng = (
            substream(cfg.seed, f"{seed_tag}/epoch{epoch}/bootstrap")
            if (epoch == 0 and bootstrap_first_epoch)
            else None
        )
        pos_rng = substream(cfg.seed, f"{seed_tag}/epoch{epoch}/positive-choice")
        neg_rng = substream(cfg.seed, f"{seed_tag}/epoch{epoch}/negative-choice")
        order = shuffle_rng.permutation(len(subset.samples))
        epoch_loss, n_batches = 0.0, 0
        for start in range(0, len(order), B):
            batch_idx = order[start:start + B]
            chosen = []  # (query_render, pos_render, neg_render) per query
            for i in batch_idx:
                query = subset.samples[i]
                q_input = task_input(query, train.task)
                cands = _candidates_for_query(
                    retr, index, query, q_input, cfg.m, boot_rng
                )
                c_plus, c_minus = label_candidates(
                    query, cands, scorer, definition, cfg.k, train.task, templates
                )
                pos = c_plus[pos_rng.integers(len(c_plus))].candidate
                neg = c_minus[neg_rng.integers(len(c_minus))].candidate
                chosen.append(
                    (query_text(q_input), candidate_text(pos), candidate_text(neg))
                )
            items = []
            for i, (q_render, pos_render, own_neg) in enumerate(chosen):
                negs = [own_neg]
                for j, (_, other_pos, other_neg) in enumerate(chosen):
                    if j != i:
                        negs.extend([other_pos, other_neg])
                items.append((q_render, pos_render, negs))
            loss, grads = _batch_loss_and_grads(retr, items)
            check_finite(loss, grads, f"retriever epoch {epoch} batch {n_batches}")
            opt.step(retr.params, grads)
            retr.version += 1
            epoch_loss += loss
            n_batches += 1
        mean_loss = epoch_loss / max(1, n_batches)
        logger.info("retriever epoch %d: mean InfoNCE %.6f", epoch, mean_loss)
        if report is not None:
            report.append((epoch, mean_loss))
    return retr


def separation(retr, queries, scorer, cfg, train, templates=None, seed_tag="separation"):
    """Mean sim(query, C+ pick) minus mean sim(query, C- pick) over queries.

    The training objective's literal target; positive means the retriever
    agrees with the scorer's labeling.  label_candidates refuses a candidate
    that shares the query's id, so that candidate is excluded from retrieval
    whether or not the query belongs to ``train``.
    """
    definition = definition_for(train.task, templates)
    index = build_index(retr, train)
    pos_rng = substream(cfg.seed, f"{seed_tag}/positive-choice")
    neg_rng = substream(cfg.seed, f"{seed_tag}/negative-choice")
    diffs = []
    for query in queries:
        q_input = task_input(query, train.task)
        cands = [
            sc.candidate
            for sc in retrieve(retr, index, query, cfg.m, query_input=q_input,
                               exclude_id=query.id)
        ]
        if len(cands) < 2 * cfg.k:
            continue
        c_plus, c_minus = label_candidates(
            query, cands, scorer, definition, cfg.k, train.task, templates
        )
        hq = encode_text(retr, query_text(q_input))
        pos = c_plus[pos_rng.integers(len(c_plus))].candidate
        neg = c_minus[neg_rng.integers(len(c_minus))].candidate
        diffs.append(
            float(hq @ encode_text(retr, candidate_text(pos)))
            - float(hq @ encode_text(retr, candidate_text(neg)))
        )
    return float(np.mean(diffs)) if diffs else 0.0
