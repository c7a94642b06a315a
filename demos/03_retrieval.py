"""Dense retrieval: mean-pooled encodings, exact top-m search, tie handling.

Run:  python3 demos/03_retrieval.py
"""

import numpy as np

from exrank import Config, generate_synthetic
from exrank.alternating import build_vocabulary
from exrank.retriever import build_index, encode_text, init_retriever, retrieve

train, _ = generate_synthetic(60, 10, seed=0)
cfg = Config(d_r=32, seed=0)
vocab = build_vocabulary(train, cfg)
retr = init_retriever(vocab, d_r=cfg.d_r, seed=0)

print("the reference encoder is a mean over per-token features,")
print("so it is order-invariant:")
a = encode_text(retr, "the food was good")
b = encode_text(retr, "good was food the")
print(f"  ||enc(s) - enc(permuted s)|| = {np.linalg.norm(a - b):.2e}\n")

index = build_index(retr, train)
query = train.samples[5]
print(f"query [{query.id}]: {query.text}")
print("top-5 candidates (even untrained, lexical overlap leaks through the")
print("random embeddings, so shared words raise the inner product):")
for sc in retrieve(retr, index, query.text, 5, exclude_id=query.id):
    print(f"  sim={sc.similarity:+.3f}  [{sc.id:2d}] {sc.candidate.input}")

print("\nthe query itself, passed as exclude_id, is not returned, and exact search breaks")
print("similarity ties by ascending candidate id.")
