"""The trainable scorer: likelihood scoring, greedy generation, fine-tuning.

Run:  python3 demos/02_scoring_and_generation.py
"""

import numpy as np

from exrank import Config, generate_synthetic, score, serialize_label
from exrank.alternating import build_vocabulary, warmup_scorer
from exrank.scorer import generate, init_scorer, nll_and_grads
from exrank.template import load_templates, render

train, test = generate_synthetic(200, 10, seed=0)
cfg = Config(d=48, lr=3e-3, weight_decay=0.0, warmup_epochs=4, seed=0)
vocab = build_vocabulary(train, cfg)
scorer = init_scorer(vocab, d=cfg.d, seed=0)

s = test.samples[0]
prompt = render(load_templates(cfg.template_dir), train.task, [], s.text)
target = serialize_label(s, train.task)

ll = score(scorer, prompt, target)
V = len(vocab)
print("untrained scorer is exactly uniform:")
print(f"  total log-likelihood {ll.total:.4f}  "
      f"(-L ln|V| = {-len(ll.per_token) * np.log(V):.4f})")

print("\nhand backprop vs central finite differences (spot check):")
loss, grads = nll_and_grads(scorer, prompt, target, scorer.params.zeros_like())
eps = 1e-5
key, idx = "b_enc", 0
orig = scorer.params[key][idx]
scorer.params[key][idx] = orig + eps
up, _ = nll_and_grads(scorer, prompt, target, scorer.params.zeros_like())
scorer.params[key][idx] = orig - eps
dn, _ = nll_and_grads(scorer, prompt, target, scorer.params.zeros_like())
scorer.params[key][idx] = orig
print(f"  d(loss)/d({key}[{idx}]): analytic {grads[key][idx]:+.6f}  "
      f"numeric {(up - dn) / (2 * eps):+.6f}")

print("\nwarm-up fine-tuning on zero-example prompts...")
warmup_scorer(scorer, train, cfg)
print(f"  after warm-up, same pair scores {score(scorer, prompt, target).total:.4f}")
print(f"  query : {s.text}")
print(f"  gold  : {target}")
print(f"  greedy: {generate(scorer, prompt, cfg.max_gen_len)}")
print("\nzero-example prompting is weak at this scale; demos 04 and 05 show")
print("how retrieved in-context examples close the gap.")
