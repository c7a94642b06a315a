"""Likelihood-supervised candidate labeling and contrastive retriever training.

The scorer rates each candidate example by the log-likelihood it lends to the
query's gold output; top-k become positives, bottom-k negatives, and the
retriever learns to separate them with an InfoNCE loss.

Run:  python3 demos/04_contrastive_training.py
"""

import numpy as np

from exrank import Config, generate_synthetic
from exrank.alternating import build_vocabulary, warmup_scorer
from exrank.contrastive import (
    infonce_loss,
    label_candidates,
    separation,
    train_retriever,
)
from exrank.retriever import init_retriever
from exrank.scorer import init_scorer
from exrank.template import load_templates, make_candidate

train, test = generate_synthetic(60, 10, seed=0)
cfg = Config(k=2, m=8, r=0.5, batch_size=2, lr=1e-2, weight_decay=0.0,
             epochs_retriever=3, d=32, d_r=32, seed=0, warmup_epochs=2)
vocab = build_vocabulary(train, cfg)
scorer = init_scorer(vocab, d=cfg.d, seed=0)
warmup_scorer(scorer, train, cfg)

query = train.samples[5]
cands = [make_candidate(s, train.task) for s in train.samples[10:20]]
c_plus, c_minus = label_candidates(
    query, cands, scorer, load_templates(cfg.template_dir), cfg.k, train.task
)
print(f"query: {query.text}")
print("delta-scored candidates:")
for tag, group in (("C+", c_plus), ("C-", c_minus)):
    for sc in group:
        print(f"  {tag} delta={sc.delta:+.3f}  [{sc.id:2d}] {sc.candidate.input}")

print("\nInfoNCE sanity: all-equal similarities give ln(2B):")
for B in (1, 2, 4):
    loss = infonce_loss(np.ones(3), np.ones(3), [np.ones(3)] * (2 * B - 1))
    print(f"  B={B}: loss={loss:.6f}  ln(2B)={np.log(2 * B):.6f}")

print("\ntraining the retriever (random candidates bootstrap epoch 1)...")
retr = init_retriever(vocab, d_r=cfg.d_r, seed=0)
report = []
train_retriever(retr, train, scorer, cfg, report=report)
for epoch, loss in report:
    print(f"  epoch {epoch}: mean InfoNCE {loss:.4f}")
sep = separation(retr, test, scorer, cfg, train)
print(f"held-out separation sim(q,C+) - sim(q,C-): {sep:+.4f} "
      f"(positive = retriever agrees with the scorer's labels)")
