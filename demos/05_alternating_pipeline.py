"""The full alternating pipeline, ablations, and a k-sweep.

Scorer and retriever take turns: the scorer labels training pairs for the
retriever, the updated retriever picks the fine-tuning examples for the
scorer.  This demo runs a small two-step schedule end to end, then compares
ablation modes and sweeps the number of in-context examples.

Run:  python3 demos/05_alternating_pipeline.py   (about a minute)
"""

import tempfile
from pathlib import Path

from exrank import Config, generate_synthetic, k_sweep, run_inference
from exrank.alternating import run_schedule
from exrank.retriever import load_retriever
from exrank.scorer import load_scorer

train, test = generate_synthetic(500, 100, seed=101)
cfg = Config(k=4, m=24, r=0.4, batch_size=2, lr=3e-3, weight_decay=0.0,
             epochs_retriever=4, epochs_lm=3, finetune_k=4, t=2,
             d=64, d_r=64, seed=101, warmup_epochs=3)

with tempfile.TemporaryDirectory(prefix="exrank-demo-") as tmp:
    out = Path(tmp)
    print(f"running the t={cfg.t} schedule into {out} ...")
    state = run_schedule(train, test, cfg, out)
    print("dev F1 after each step:")
    for row in state.metrics_log:
        print(f"  step {row['step']}: f1={row['f1']}")

    scorer = load_scorer(out / f"scorer_{cfg.t}.ckpt.npz")
    frozen = load_scorer(out / "scorer_0.ckpt.npz")
    retr = load_retriever(out / f"retriever_{cfg.t}.ckpt.npz")

print("\nablations (test split):")
# no example and frozen LM are full-mode runs: at k=0, and with the warmed-up
# scorer of step 0 (scorer_init is untrained and answers nothing)
for name, mode, model, k in (("full", "full", scorer, cfg.k),
                             ("no example", "full", scorer, 0),
                             ("no retriever", "no_retriever", scorer, cfg.k),
                             ("no instruction", "no_instruction", scorer, 0),
                             ("frozen LM", "full", frozen, cfg.k)):
    metrics, _ = run_inference(model, retr, test, k, mode, train, cfg)
    print(f"  {name:15s} f1={metrics.f1:.3f}  parse_failures={metrics.parse_failures}")

print("\nk-sweep (0..7):")
for row in k_sweep(scorer, retr, test, 7, train, cfg):
    flag = "  (truncated prompts)" if row.truncated else ""
    print(f"  k={row.k}: f1={row.metrics.f1:.3f}{flag}")
