"""Command-line pipeline: data generation, training stages, the alternating
schedule, scoring/retrieval inspection, and evaluation.

Option precedence is flag > config file > default.  Every run writes a
run.json manifest (resolved config, seed, checkpoint hashes) into its output
directory.
"""

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

from . import retriever as retriever_mod
from .alternating import (
    build_vocabulary,
    check_schedule_inputs,
    finetune_lm,
    run_schedule,
    warmup_scorer,
)
from .atomic import write_lines, write_table
from .config import Config, read_config_file
from .contrastive import check_label_sizes, separation, train_retriever
from .corpus import (
    Task,
    generate_synthetic,
    load_dataset,
    save_dataset,
    to_atsc,
    with_task,
)
from .evaluation import METRIC_COLUMNS, AblationMode, k_sweep, run_inference
from .retriever import build_index, init_retriever, retrieve
from .scorer import init_scorer, load_scorer, save_scorer, score
from .template import digest, load_templates, task_input

CONFIG_KEYS = [f.name for f in dataclasses.fields(Config)]

_FLAG_NAMES = {"r": "--ratio"}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise UsageError(message)


class UsageError(Exception):
    pass


def _non_negative_int(text):
    """argparse type for counts and step numbers."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return value


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
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


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
    write_lines(out / "run.json", [json.dumps(manifest, indent=2, sort_keys=True)])


def _load(path, cfg, split):
    """The dataset at ``path``, refused when it holds no records."""
    dataset = load_dataset(path, cfg.task, split=split)
    if not dataset.samples:
        raise ValueError(f"{path} holds no records")
    return dataset


def _load_data(args, cfg):
    return _load(args.train_file, cfg, "train"), _load(args.test_file, cfg, "test")


def _cmd_gen_data(args):
    cfg = _resolve_config(args)
    train, test = generate_synthetic(args.train, args.test, cfg.seed)
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


def _init_or_load_scorer(args, cfg, train):
    if getattr(args, "scorer", None):
        return load_scorer(args.scorer)
    vocab = build_vocabulary(train, cfg)
    state = init_scorer(vocab, d=cfg.d, max_len=cfg.max_len, seed=cfg.seed)
    return warmup_scorer(state, train, cfg)


def _init_or_load_retriever(args, cfg, vocab):
    if getattr(args, "retriever", None):
        return retriever_mod.load_retriever(args.retriever)
    return init_retriever(vocab, d_r=cfg.d_r, max_len=cfg.max_len, seed=cfg.seed)


def _cmd_train_retriever(args):
    cfg = _resolve_config(args)
    train = _load(args.train_file, cfg, "train")
    check_label_sizes(cfg, train)  # before a warm-up that would be thrown away
    scorer_state = _init_or_load_scorer(args, cfg, train)
    retr = _init_or_load_retriever(args, cfg, scorer_state.vocab)
    report = []
    train_retriever(retr, train, scorer_state, cfg, report=report)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    retriever_mod.save_retriever(retr, out / "retriever.ckpt.npz")
    save_scorer(scorer_state, out / "scorer.ckpt.npz")
    sep = separation(retr, train.samples[: min(50, len(train.samples))],
                     scorer_state, cfg, train)
    write_table(out / "training.tsv", ["epoch", "mean_infonce"], [
        *({"epoch": epoch, "mean_infonce": f"{loss:.6f}"} for epoch, loss in report),
        {"epoch": "separation", "mean_infonce": f"{sep:.6f}"},
    ])
    _write_manifest(out, "train-retriever", cfg)
    for epoch, loss in report:
        print(f"{epoch}\t{loss:.6f}")
    print(f"separation\t{sep:.6f}")
    return 0


def _cmd_finetune_lm(args):
    cfg = _resolve_config(args)
    train = _load(args.train_file, cfg, "train")
    scorer_state = _init_or_load_scorer(args, cfg, train)
    retr = retriever_mod.load_retriever(args.retriever)
    finetune_lm(scorer_state, retr, train, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_scorer(scorer_state, out / "scorer.ckpt.npz")
    _write_manifest(out, "finetune-lm", cfg)
    print(f"saved fine-tuned scorer to {out / 'scorer.ckpt.npz'}")
    return 0


def _check_resumable(out_dir, cfg, data):
    """Refuse to resume a run whose run.json records another config, other
    data files or other prompt templates."""
    path = Path(out_dir) / "run.json"
    if not path.is_file():
        raise ValueError(f"cannot resume: no run.json in {out_dir}")
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    stored = manifest.get("config", {})
    keys = sorted(k for k, v in cfg.to_dict().items() if stored.get(k) != v)
    if keys:
        raise ValueError(f"cannot resume: config differs from run.json in {keys}")
    files = sorted(k for k, v in data.items() if manifest.get(k) != v)
    if files:
        raise ValueError(f"cannot resume: data differs from run.json in {files}")


def _cmd_alternate(args):
    cfg = _resolve_config(args)
    data = {"train_sha256": _sha256(args.train_file),
            "test_sha256": _sha256(args.test_file),
            "templates_sha256": digest(load_templates(cfg.template_dir))}
    train, dev = _load_data(args, cfg)
    check_schedule_inputs(train, dev, cfg, args.resume_step)
    if args.resume_step is None:
        # written before training, so that a crashed run can be resumed
        _write_manifest(args.out, "alternate", cfg, {**data, "checkpoints": {}})
    else:
        _check_resumable(args.out, cfg, data)
    state = run_schedule(train, dev, cfg, args.out, resume_step=args.resume_step)
    _write_manifest(args.out, "alternate", cfg, data)
    for row in state.metrics_log:
        print("\t".join(str(row[c]) for c in row))
    return 0


def _cmd_retrieve(args):
    cfg = _resolve_config(args)
    train = _load(args.train_file, cfg, "train")
    if not 0 <= args.query_id < len(train):  # load_dataset numbers records from 0
        raise ValueError(f"unknown query id {args.query_id}: the ids of "
                         f"{args.train_file} run from 0 to {len(train) - 1}")
    query = train.samples[args.query_id]
    retr = retriever_mod.load_retriever(args.retriever)
    index = build_index(retr, train)
    results = retrieve(
        retr, index, task_input(query, cfg.task), cfg.m, exclude_id=query.id
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
    train, test = _load_data(args, cfg)
    mode = AblationMode(args.mode)
    scorer_state = _init_or_load_scorer(args, cfg, train)
    retr = _init_or_load_retriever(args, cfg, scorer_state.vocab)
    metrics, dump = run_inference(scorer_state, retr, test, cfg.k, mode, train, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # k is the most examples a prompt carried: none for no_instruction, and
    # fewer than cfg.k when the pool is smaller
    carried = max((len(rec["example_ids"]) for rec in dump), default=0)
    write_table(out / "metrics.tsv", ["mode", "task", "k", *METRIC_COLUMNS], [
        {"mode": mode.value, "task": cfg.task.value, "k": carried, **metrics.row()},
    ])
    write_lines(out / "predictions.jsonl", (json.dumps(rec) for rec in dump))
    _write_manifest(out, "evaluate", cfg, {"mode": mode.value})
    print(
        f"{mode.value}\tP={metrics.precision:.4f}\tR={metrics.recall:.4f}\t"
        f"F1={metrics.f1:.4f}\tacc={metrics.accuracy:.4f}"
    )
    return 0


def _cmd_sweep(args):
    cfg = _resolve_config(args)
    train, test = _load_data(args, cfg)
    scorer_state = _init_or_load_scorer(args, cfg, train)
    retr = retriever_mod.load_retriever(args.retriever)
    rows = k_sweep(scorer_state, retr, test, args.k_max, train, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_table(out / "sweep.tsv", ["k", *METRIC_COLUMNS, "truncated"], (
        {"k": r.k, **r.metrics.row(), "truncated": int(r.truncated)} for r in rows
    ))
    _write_manifest(out, "sweep", cfg)
    for row in rows:
        print(f"{row.k}\t{row.metrics.f1:.4f}\t{row.metrics.accuracy:.4f}")
    return 0


_OWN_SUBSTREAMS = ("Its seeded draws are its own, not those of a schedule step, so "
                   "train-retriever then finetune-lm does not reproduce alternate --t 1.")


def _build_parser():
    parser = _Parser(prog="exrank", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("gen-data", parents=[], help="write a synthetic corpus")
    _add_config_flags(p)
    p.add_argument("--train", type=int, required=True)
    p.add_argument("--test", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train-retriever", help="contrastive retriever training",
                       description="Contrastive retriever training. " + _OWN_SUBSTREAMS)
    _add_config_flags(p)
    p.add_argument("--train-file", required=True)
    p.add_argument("--scorer")
    p.add_argument("--retriever")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_retriever)

    p = sub.add_parser(
        "finetune-lm", help="fine-tune the scorer with the top finetune_k examples",
        description="Fine-tune the scorer with retrieved examples. " + _OWN_SUBSTREAMS)
    _add_config_flags(p)
    p.add_argument("--train-file", required=True)
    p.add_argument("--scorer")
    p.add_argument("--retriever", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_finetune_lm)

    p = sub.add_parser("alternate", help="run the alternating schedule")
    _add_config_flags(p)
    p.add_argument("--train-file", required=True)
    p.add_argument("--test-file", required=True)
    p.add_argument("--resume-step", dest="resume_step", type=_non_negative_int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_alternate)

    p = sub.add_parser("retrieve", help="inspect retrieval results for a query")
    _add_config_flags(p)
    p.add_argument("--train-file", required=True)
    p.add_argument("--retriever", required=True)
    p.add_argument("--query-id", type=int, required=True)
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
    p.add_argument("--mode", choices=[m.value for m in AblationMode], default="full")
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
    p.add_argument("--k-max", dest="k_max", type=_non_negative_int, default=7)
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
    except Exception as exc:  # runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
