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
    eligible,
    encode_text,
    encode_text_backward,
    retrieve,
)
from .template import (candidate_text, check_prompts, load_templates, query_text,
                       render, task_input)

logger = logging.getLogger(__name__)


def label_candidates(query, cands, scorer, templates, k, task):
    """Split candidates into (C_plus, C_minus) by scorer log-likelihood.

    Each candidate is the one example of a ``task`` prompt rendered from
    ``templates``.  Returns two lists of ScoredCandidate with delta filled in,
    each of size k.  Which candidates a query may see is its callers' choice
    (``retriever.eligible``); every candidate given is labeled.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if len(cands) < 2 * k:
        raise ValueError(f"need at least {2 * k} candidates, got {len(cands)}")
    target = serialize_label(query, task)
    q_input = task_input(query, task)
    deltas = [scorer_mod.score(scorer, render(templates, task, [c], q_input), target).total
              for c in cands]
    order = sorted(range(len(cands)), key=lambda i: (-deltas[i], cands[i].id))
    ends = [ScoredCandidate(candidate=cands[i], delta=deltas[i])
            for i in order[:k] + order[-k:]]
    return ends[:k], ends[k:]


def check_label_sizes(cfg, train, queries):
    """Reject a k, m or train split too small to label ``queries`` against
    ``train``, before training starts.  ``m`` may not exceed the fewest
    candidates ``retriever.eligible`` leaves a query: n - 1 for queries of
    ``train``'s split, n for held-out ones.
    """
    n = len(train.samples)
    if cfg.k < 1:
        raise ValueError(f"k must be at least 1 for training, got {cfg.k}")
    if cfg.m < 2 * cfg.k:
        raise ValueError(
            f"m must be at least 2k = {2 * cfg.k} for training, got m={cfg.m}"
        )
    if n < 2 * cfg.k + 1:
        raise ValueError(
            f"the {train.split.value} split has {n} samples; "
            f"training at k={cfg.k} needs 2k + 1 = {2 * cfg.k + 1}, "
            "as no query is its own candidate"
        )
    fewest = min(eligible(queries, train)[1], default=n)
    if cfg.m > fewest:
        raise ValueError(
            f"m={cfg.m} is more than the {fewest} candidates a query of the "
            f"{queries.split.value} split has, as no query is its own candidate"
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


def _infonce(sims):
    """``-log softmax(sims)[0]``, max-shifted, and its gradient with respect to
    ``sims``, whose first entry is the positive's similarity."""
    shift = sims.max()
    e = np.exp(sims - shift)
    total = e.sum()
    dsims = e / total
    dsims[0] -= 1.0
    return float(np.log(total) - (sims[0] - shift)), dsims


def infonce_loss(q, pos, negs):
    """-log softmax of sim(q, pos) against the negatives, max-shifted."""
    q = np.asarray(q)
    return _infonce(np.concatenate([[q @ pos], [q @ n for n in negs]]))[0]


def _batch_loss_and_grads(state, batch, out):
    """Mean InfoNCE over the batch and parameter gradients.

    ``batch`` is a list of (query_render, pos_render, neg_render), one per
    query.  A query's negatives are its own, then the positive and negative of
    every other query in batch order: the 2(B-1) in-batch negatives of DPR.
    The gradients are summed into ``out``, a ``FlatViews`` shaped like
    ``state.params``, after it is zero-filled; ``out`` is returned.
    """
    out.flat.fill(0.0)
    total = 0.0
    scale = 1.0 / len(batch)
    for i, (q_text, pos_text, own_neg) in enumerate(batch):
        neg_texts = [own_neg] + [text for j, (_, pos, neg) in enumerate(batch)
                                 if j != i for text in (pos, neg)]
        hq = encode_text(state, q_text)
        hp = encode_text(state, pos_text)
        hns = [encode_text(state, t) for t in neg_texts]
        loss, dsims = _infonce(np.concatenate([[hq @ hp], [hq @ hn for hn in hns]]))
        total += loss
        dq = dsims[0] * hp
        for j, hn in enumerate(hns):
            dq += dsims[j + 1] * hn
        encode_text_backward(state, q_text, scale * dq, out)
        encode_text_backward(state, pos_text, scale * dsims[0] * hq, out)
        for j, t in enumerate(neg_texts):
            encode_text_backward(state, t, scale * dsims[j + 1] * hq, out)
    return total * scale, out


def _label_and_draw(query, cands, scorer, templates, k, task, pos_rng, neg_rng):
    """Label ``cands`` for ``query``, then draw one candidate from C+ with
    ``pos_rng`` and one from C- with ``neg_rng``."""
    c_plus, c_minus = label_candidates(query, cands, scorer, templates, k, task)
    return (c_plus[pos_rng.integers(len(c_plus))].candidate,
            c_minus[neg_rng.integers(len(c_minus))].candidate)


def _candidates_for_query(state, index, query, query_input, m, bootstrap_rng):
    if bootstrap_rng is not None:
        others = [c for c in index.candidates if c.id != query.id]
        picks = bootstrap_rng.choice(len(others), size=m, replace=False)
        return [others[i] for i in sorted(picks)]
    return [
        sc.candidate
        for sc in retrieve(
            state, index, query_input, m, allow_stale=True, exclude_id=query.id
        )
    ]


def train_retriever(retr, train, scorer, cfg, bootstrap_first_epoch=True,
                    seed_tag="retriever-train", report=None):
    """Contrastive training loop over a seeded subset of the training set.

    The first epoch can draw candidates uniformly at random (the untrained
    retriever has nothing useful to say); later epochs retrieve with the
    current retriever against an index rebuilt once per epoch.  Its queries
    are samples of ``train``, so none is among its own candidates.
    """
    check_label_sizes(cfg, train, train)
    templates = load_templates(cfg.template_dir)
    check_prompts(scorer.vocab, templates, train, train, 1)  # one example each
    # step-dependent name: each alternating step labels a fresh subset
    subset = sample_training_subset(train, cfg.r, cfg.seed, name=f"{seed_tag}/subset")
    opt = AdamW(retr.params, lr=cfg.lr, weight_decay=cfg.weight_decay)
    B = cfg.batch_size
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
            batch = []  # (query_render, pos_render, neg_render) per query
            for i in order[start:start + B]:
                query = subset.samples[i]
                q_input = task_input(query, train.task)
                cands = _candidates_for_query(
                    retr, index, query, q_input, cfg.m, boot_rng
                )
                pos, neg = _label_and_draw(query, cands, scorer, templates, cfg.k,
                                           train.task, pos_rng, neg_rng)
                batch.append(
                    (query_text(q_input), candidate_text(pos), candidate_text(neg))
                )
            loss, grads = _batch_loss_and_grads(retr, batch, opt.grads)
            check_finite(loss, grads, f"retriever epoch {epoch} batch {n_batches}")
            opt.step()
            retr.version += 1
            epoch_loss += loss
            n_batches += 1
        mean_loss = epoch_loss / max(1, n_batches)
        logger.info("retriever epoch %d: mean InfoNCE %.6f", epoch, mean_loss)
        if report is not None:
            report.append((epoch, mean_loss))
    return retr


def separation(retr, queries, scorer, cfg, train):
    """Mean sim(query, C+ pick) minus mean sim(query, C- pick) over queries.

    The training objective's literal target; positive means the retriever
    agrees with the scorer's labeling.  ``queries`` is a Dataset; a query
    excludes the train candidate with its id exactly when
    ``retriever.eligible`` lists it, so a held-out query keeps every train
    candidate, its same-id twin included.  A k, m or train split too small to
    label, or a labeling prompt the scorer's vocabulary cannot encode, is
    refused before any index, as in training.
    """
    check_label_sizes(cfg, train, queries)
    templates = load_templates(cfg.template_dir)
    check_prompts(scorer.vocab, templates, queries, train, 1)
    members = eligible(queries, train)[0]
    index = build_index(retr, train)
    pos_rng = substream(cfg.seed, "separation/positive-choice")
    neg_rng = substream(cfg.seed, "separation/negative-choice")
    diffs = []
    for query in queries.samples:
        q_input = task_input(query, train.task)
        exclude = query.id if query.id in members else None  # the query itself
        cands = [sc.candidate
                 for sc in retrieve(retr, index, q_input, cfg.m, exclude_id=exclude)]
        pos, neg = _label_and_draw(query, cands, scorer, templates, cfg.k,
                                   train.task, pos_rng, neg_rng)
        hq = encode_text(retr, query_text(q_input))
        diffs.append(
            float(hq @ encode_text(retr, candidate_text(pos)))
            - float(hq @ encode_text(retr, candidate_text(neg)))
        )
    return float(np.mean(diffs)) if diffs else 0.0
