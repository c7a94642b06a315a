"""Command-line pipeline: data generation, training stages, the alternating
schedule, scoring/retrieval inspection, and evaluation.

Option precedence is flag > config file > default.  Every run writes a
run.json manifest (resolved config, seed, checkpoint hashes) into its output
directory.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import retriever as retriever_mod
from .alternating import (
    build_vocabulary,
    finetune_lm,
    run_schedule,
    warmup_scorer,
)
from .atomic import replacing
from .config import Config, read_config_file
from .contrastive import separation, train_retriever
from .corpus import (
    Task,
    generate_synthetic,
    load_dataset,
    save_dataset,
    to_atsc,
    with_task,
)
from .evaluation import AblationMode, k_sweep, run_inference
from .retriever import build_index, init_retriever, retrieve
from .scorer import init_scorer, load_scorer, save_scorer, score
from .template import load_templates, task_input

CONFIG_KEYS = [
    "task", "k", "m", "r", "batch_size", "lr", "weight_decay", "grad_accum",
    "epochs_retriever", "epochs_lm", "finetune_k", "t", "d", "d_r",
    "max_len", "max_gen_len",
    "seed", "warmup_epochs", "reinit_per_step", "template_dir", "accept_hash",
]

_FLAG_NAMES = {
    "r": "--ratio",
    "t": "--t",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise UsageError(message)


class UsageError(Exception):
    pass


def _add_config_flags(parser):
    parser.add_argument("--config", help="flat key=value config file")
    for key in CONFIG_KEYS:
        flag = _FLAG_NAMES.get(key, "--" + key.replace("_", "-"))
        parser.add_argument(flag, dest=key, default=None)


def _resolve_config(args):
    values = {}
    if getattr(args, "config", None):
        values.update(read_config_file(args.config))
    for key in CONFIG_KEYS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            values[key] = flag_value
    return Config.from_dict(values)


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out_dir, command, cfg, extra=None):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    checkpoints = {
        p.name: _sha256(p) for p in sorted(out.glob("*.ckpt.npz"))
    }
    manifest = {
        "command": command,
        "config": cfg.to_dict(),
        "seed": cfg.seed,
        "checkpoints": checkpoints,
    }
    if extra:
        manifest.update(extra)
    with replacing(out / "run.json") as tmp, open(tmp, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def _load_data(args, cfg):
    train = load_dataset(args.train_file, cfg.task, split="train")
    test = load_dataset(args.test_file, cfg.task, split="test") if getattr(
        args, "test_file", None
    ) else None
    return train, test


def _cmd_gen_data(args):
    cfg = _resolve_config(args)
    train, test = generate_synthetic(int(args.train), int(args.test), cfg.seed)
    if cfg.task == Task.ATSC:
        train, test = to_atsc(train), to_atsc(test)
    elif cfg.task != Task.ASPE:
        train, test = with_task(train, cfg.task), with_task(test, cfg.task)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_dataset(train, out / "train.jsonl")
    save_dataset(test, out / "test.jsonl")
    _write_manifest(out, "gen-data", cfg, {"n_train": len(train), "n_test": len(test)})
    print(f"wrote {len(train)} train / {len(test)} test samples to {out}")
    return 0


def _init_or_load_scorer(args, cfg, train, templates):
    if getattr(args, "scorer", None):
        return load_scorer(args.scorer)
    vocab = build_vocabulary(train, cfg, templates)
    state = init_scorer(vocab, d=cfg.d, max_len=cfg.max_len, seed=cfg.seed)
    if cfg.warmup_epochs > 0:
        warmup_scorer(state, train, cfg, templates)
    return state


def _cmd_train_retriever(args):
    cfg = _resolve_config(args)
    templates = load_templates(cfg.template_dir)
    train, _ = _load_data(args, cfg)
    scorer_state = _init_or_load_scorer(args, cfg, train, templates)
    if getattr(args, "retriever", None):
        retr = retriever_mod.load_retriever(args.retriever)
    else:
        retr = init_retriever(
            scorer_state.vocab, d_r=cfg.d_r, max_len=cfg.max_len, seed=cfg.seed
        )
    report = []
    train_retriever(retr, train, scorer_state, cfg, templates=templates, report=report)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    retriever_mod.save_retriever(retr, out / "retriever.ckpt.npz")
    save_scorer(scorer_state, out / "scorer.ckpt.npz")
    sep = separation(retr, train.samples[: min(50, len(train.samples))],
                     scorer_state, cfg, train, templates)
    with open(out / "training.tsv", "w", encoding="utf-8") as fh:
        fh.write("epoch\tmean_infonce\n")
        for epoch, loss in report:
            fh.write(f"{epoch}\t{loss:.6f}\n")
        fh.write(f"separation\t{sep:.6f}\n")
    _write_manifest(out, "train-retriever", cfg)
    for epoch, loss in report:
        print(f"{epoch}\t{loss:.6f}")
    print(f"separation\t{sep:.6f}")
    return 0


def _cmd_finetune_lm(args):
    cfg = _resolve_config(args)
    templates = load_templates(cfg.template_dir)
    train, _ = _load_data(args, cfg)
    scorer_state = _init_or_load_scorer(args, cfg, train, templates)
    retr = retriever_mod.load_retriever(args.retriever)
    finetune_lm(scorer_state, retr, train, cfg, templates)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_scorer(scorer_state, out / "scorer.ckpt.npz")
    _write_manifest(out, "finetune-lm", cfg)
    print(f"saved fine-tuned scorer to {out / 'scorer.ckpt.npz'}")
    return 0


def _cmd_alternate(args):
    cfg = _resolve_config(args)
    templates = load_templates(cfg.template_dir)
    train, dev = _load_data(args, cfg)
    if dev is None:
        raise UsageError("alternate requires --test-file")
    resume = int(args.resume_step) if args.resume_step is not None else None
    state = run_schedule(train, dev, cfg, args.out, templates, resume_step=resume)
    _write_manifest(args.out, "alternate", cfg)
    for row in state.metrics_log:
        print("\t".join(str(row[c]) for c in row))
    return 0


def _cmd_retrieve(args):
    cfg = _resolve_config(args)
    train, _ = _load_data(args, cfg)
    retr = retriever_mod.load_retriever(args.retriever)
    index = build_index(retr, train)
    query = train.by_id(int(args.query_id))
    results = retrieve(
        retr, index, query, int(args.m_results or cfg.m),
        query_input=task_input(query, cfg.task), exclude_id=query.id,
    )
    for sc in results:
        print(f"{sc.id}\t{sc.similarity:.6f}\t{sc.candidate.input} -> {sc.candidate.output}")
    return 0


def _cmd_score(args):
    state = load_scorer(args.scorer)
    ll = score(state, args.prompt, args.target)
    print(f"total\t{ll.total:.6f}")
    for i, lp in enumerate(ll.per_token):
        print(f"token_{i}\t{lp:.6f}")
    return 0


def _cmd_evaluate(args):
    cfg = _resolve_config(args)
    templates = load_templates(cfg.template_dir)
    train, test = _load_data(args, cfg)
    if test is None:
        raise UsageError("evaluate requires --test-file")
    mode = AblationMode(args.mode)
    scorer_state = _init_or_load_scorer(args, cfg, train, templates)
    if getattr(args, "retriever", None):
        retr = retriever_mod.load_retriever(args.retriever)
    else:
        retr = init_retriever(
            scorer_state.vocab, d_r=cfg.d_r, max_len=cfg.max_len, seed=cfg.seed
        )
    metrics, dump = run_inference(
        scorer_state, retr, test, cfg.k, mode, train, cfg, templates
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "metrics.tsv", "w", encoding="utf-8") as fh:
        fh.write("mode\ttask\tk\tprecision\trecall\tf1\taccuracy\tparse_failures\n")
        fh.write(
            f"{mode.value}\t{cfg.task.value}\t{cfg.k}\t{metrics.precision:.6f}\t"
            f"{metrics.recall:.6f}\t{metrics.f1:.6f}\t{metrics.accuracy:.6f}\t"
            f"{metrics.parse_failures}\n"
        )
    with open(out / "predictions.jsonl", "w", encoding="utf-8") as fh:
        for rec in dump:
            fh.write(json.dumps(rec) + "\n")
    _write_manifest(out, "evaluate", cfg, {"mode": mode.value})
    print(
        f"{mode.value}\tP={metrics.precision:.4f}\tR={metrics.recall:.4f}\t"
        f"F1={metrics.f1:.4f}\tacc={metrics.accuracy:.4f}"
    )
    return 0


def _cmd_sweep(args):
    cfg = _resolve_config(args)
    templates = load_templates(cfg.template_dir)
    train, test = _load_data(args, cfg)
    if test is None:
        raise UsageError("sweep requires --test-file")
    scorer_state = _init_or_load_scorer(args, cfg, train, templates)
    retr = retriever_mod.load_retriever(args.retriever)
    rows = k_sweep(
        scorer_state, retr, test, int(args.k_max), train, cfg, templates
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "sweep.tsv", "w", encoding="utf-8") as fh:
        fh.write("k\tprecision\trecall\tf1\taccuracy\tparse_failures\ttruncated\n")
        for row in rows:
            m = row.metrics
            fh.write(
                f"{row.k}\t{m.precision:.6f}\t{m.recall:.6f}\t{m.f1:.6f}\t"
                f"{m.accuracy:.6f}\t{m.parse_failures}\t{int(row.truncated)}\n"
            )
    _write_manifest(out, "sweep", cfg)
    for row in rows:
        print(f"{row.k}\t{row.metrics.f1:.4f}\t{row.metrics.accuracy:.4f}")
    return 0


def _build_parser():
    parser = _Parser(prog="exrank", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("gen-data", parents=[], help="write a synthetic corpus")
    _add_config_flags(p)
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train-retriever", help="contrastive retriever training")
    _add_config_flags(p)
    p.add_argument("--train-file", required=True)
    p.add_argument("--test-file")
    p.add_argument("--scorer")
    p.add_argument("--retriever")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_retriever)

    p = sub.add_parser("finetune-lm", help="fine-tune the scorer with top-1 examples")
    _add_config_flags(p)
    p.add_argument("--train-file", required=True)
    p.add_argument("--test-file")
    p.add_argument("--scorer")
    p.add_argument("--retriever", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_finetune_lm)

    p = sub.add_parser("alternate", help="run the alternating schedule")
    _add_config_flags(p)
    p.add_argument("--train-file", required=True)
    p.add_argument("--test-file", required=True)
    p.add_argument("--resume-step", dest="resume_step")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_alternate)

    p = sub.add_parser("retrieve", help="inspect retrieval results for a query")
    _add_config_flags(p)
    p.add_argument("--train-file", required=True)
    p.add_argument("--retriever", required=True)
    p.add_argument("--query-id", required=True)
    p.add_argument("--m-results", dest="m_results")
    p.set_defaults(func=_cmd_retrieve)

    p = sub.add_parser("score", help="print total and per-token log-likelihood")
    p.add_argument("--scorer", required=True)
    p.add_argument("--prompt", required=True)
    p.add_argument("--target", required=True)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("evaluate", help="evaluate one ablation mode")
    _add_config_flags(p)
    p.add_argument("--train-file", required=True)
    p.add_argument("--test-file", required=True)
    p.add_argument("--mode", default="full")
    p.add_argument("--scorer")
    p.add_argument("--retriever")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("sweep", help="k-sweep evaluation")
    _add_config_flags(p)
    p.add_argument("--train-file", required=True)
    p.add_argument("--test-file", required=True)
    p.add_argument("--scorer")
    p.add_argument("--retriever", required=True)
    p.add_argument("--k-max", dest="k_max", default="7")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError:
        return 1
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
