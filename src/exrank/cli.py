"""Command-line pipeline: data generation, training stages, the alternating
schedule, scoring/retrieval inspection, and evaluation.

Each command offers a flag for each config key it reads, and none for the
others; a --config file may hold any key, as one file serves every command.
A flag beats the config file, which beats the default.  A loaded model's
sizes (d and max_len of a scorer, d_r and max_len of a retriever) are the
run's: they replace the config file's, and a flag that disagrees is refused.
Every command with --out writes a run.json manifest (resolved config, seed,
checkpoint hashes) into its output directory.
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

# The sizes a loaded model fixes, by the option that names its checkpoint
_MODELS = {"scorer": (load_scorer, ("d", "max_len")),
           "retriever": (retriever_mod.load_retriever, ("d_r", "max_len"))}


def _flag(key):
    return "--ratio" if key == "r" else "--" + key.replace("_", "-")


class _Parser(argparse.ArgumentParser):
    """The parser of ``exrank`` and of each command.  argparse hands the
    arguments a command leaves over to the top-level parser, whose usage does
    not list the command's flags, so each parser refuses its own leftovers."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise UsageError(message)

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


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


def _path(text):
    """argparse type for a file or directory: an empty path is refused, as it
    would name the working directory or no model."""
    if not text:
        raise argparse.ArgumentTypeError("expected a path, got ''")
    return text


def _resolve_config(args):
    """The run's config and the models its --scorer and --retriever name.

    Flags beat the --config file, which beats the defaults.  A loaded model's
    sizes replace the file's values; a flag that disagrees is refused, and so
    are a scorer and a retriever of two ``max_len``.
    """
    values = read_config_file(args.config) if getattr(args, "config", None) else {}
    flags = {key for key in CONFIG_KEYS if getattr(args, key, None) is not None}
    values.update((key, getattr(args, key)) for key in flags)
    cfg = Config.from_dict(values)
    models = {option: load(getattr(args, option)) for option, (load, _) in _MODELS.items()
              if getattr(args, option, None)}
    sizes = {}
    for option, model in models.items():
        path = getattr(args, option)
        for key in _MODELS[option][1]:
            value = getattr(model, key)
            if key in flags and getattr(cfg, key) != value:
                raise ValueError(f"{_flag(key)} {getattr(cfg, key)} disagrees with "
                                 f"--{option} {path}, whose {key} is {value}")
            if sizes.get(key, value) != value:  # max_len, which the scorer fixed
                raise ValueError(f"--scorer {args.scorer} has {key} {sizes[key]} but "
                                 f"--retriever {path} has {key} {value}")
            sizes[key] = value
    return dataclasses.replace(cfg, **sizes), models


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _out_dir(path):
    """The output directory ``path``, made if missing.  Commands call this
    where they first write, after their work, so a refused run makes none."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out_dir, command, cfg, extra=None):
    out = _out_dir(out_dir)
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


def _scorer(models, cfg, train):
    """The --scorer model, else a fresh scorer warmed up on ``train``."""
    if "scorer" in models:
        return models["scorer"]
    vocab = build_vocabulary(train, cfg)
    state = init_scorer(vocab, d=cfg.d, max_len=cfg.max_len, seed=cfg.seed)
    return warmup_scorer(state, train, cfg)


def _retriever(models, cfg, vocab):
    """The --retriever model, else a fresh retriever over ``vocab``."""
    return models.get("retriever") or init_retriever(
        vocab, d_r=cfg.d_r, max_len=cfg.max_len, seed=cfg.seed)


# Each command does its own work with the resolved config and the loaded
# models, and returns the keys its run.json adds, if any; ``main`` resolves
# the config, writes run.json and sets the exit code.

def _cmd_gen_data(args, cfg, models):
    train, test = generate_synthetic(args.train, args.test, cfg.seed)
    if cfg.task == Task.ATSC:
        train, test = to_atsc(train), to_atsc(test)
        # to_atsc drops the samples that name no aspect, and every other
        # command refuses a file that holds no records
        for split, ds in (("train", train), ("test", test)):
            if not ds.samples:
                raise ValueError(
                    f"the atsc {split} split would hold no records: no sample of "
                    f"--{split} {getattr(args, split)} names an aspect; raise --{split}")
    elif cfg.task != Task.ASPE:
        train, test = with_task(train, cfg.task), with_task(test, cfg.task)
    out = _out_dir(args.out)
    save_dataset(train, out / "train.jsonl")
    save_dataset(test, out / "test.jsonl")
    print(f"wrote {len(train)} train / {len(test)} test samples to {out}")
    return {"n_train": len(train), "n_test": len(test)}


def _cmd_train_retriever(args, cfg, models):
    train = _load(args.train_file, cfg, "train")
    check_label_sizes(cfg, train)  # before a warm-up that would be thrown away
    scorer_state = _scorer(models, cfg, train)
    retr = _retriever(models, cfg, scorer_state.vocab)
    report = []
    train_retriever(retr, train, scorer_state, cfg, report=report)
    out = _out_dir(args.out)
    retriever_mod.save_retriever(retr, out / "retriever.ckpt.npz")
    save_scorer(scorer_state, out / "scorer.ckpt.npz")
    sep = separation(retr, train.samples[: min(50, len(train.samples))],
                     scorer_state, cfg, train)
    write_table(out / "training.tsv", ["epoch", "mean_infonce"], [
        *({"epoch": epoch, "mean_infonce": f"{loss:.6f}"} for epoch, loss in report),
        {"epoch": "separation", "mean_infonce": f"{sep:.6f}"},
    ])
    for epoch, loss in report:
        print(f"{epoch}\t{loss:.6f}")
    print(f"separation\t{sep:.6f}")


def _cmd_finetune_lm(args, cfg, models):
    train = _load(args.train_file, cfg, "train")
    scorer_state = _scorer(models, cfg, train)
    finetune_lm(scorer_state, models["retriever"], train, cfg)
    out = _out_dir(args.out)
    save_scorer(scorer_state, out / "scorer.ckpt.npz")
    print(f"saved fine-tuned scorer to {out / 'scorer.ckpt.npz'}")


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


def _cmd_alternate(args, cfg, models):
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
    for row in state.metrics_log:
        print("\t".join(str(row[c]) for c in row))
    return data


def _cmd_retrieve(args, cfg, models):
    train = _load(args.train_file, cfg, "train")
    if not 0 <= args.query_id < len(train):  # load_dataset numbers records from 0
        raise ValueError(f"unknown query id {args.query_id}: the ids of "
                         f"{args.train_file} run from 0 to {len(train) - 1}")
    query = train.samples[args.query_id]
    retr = models["retriever"]
    index = build_index(retr, train)
    results = retrieve(
        retr, index, task_input(query, cfg.task), cfg.m, exclude_id=query.id
    )
    for sc in results:
        print(f"{sc.id}\t{sc.similarity:.6f}\t{sc.candidate.input} -> {sc.candidate.output}")


def _cmd_score(args, cfg, models):
    ll = score(models["scorer"], args.prompt, args.target)
    print(f"total\t{ll.total:.6f}")
    for i, lp in enumerate(ll.per_token):
        print(f"token_{i}\t{lp:.6f}")


def _cmd_evaluate(args, cfg, models):
    train, test = _load_data(args, cfg)
    mode = AblationMode(args.mode)
    scorer_state = _scorer(models, cfg, train)
    retr = _retriever(models, cfg, scorer_state.vocab)
    metrics, dump = run_inference(scorer_state, retr, test, cfg.k, mode, train, cfg)
    out = _out_dir(args.out)
    # k is the most examples a prompt carried: none for no_instruction, and
    # fewer than cfg.k when the pool is smaller
    carried = max((len(rec["example_ids"]) for rec in dump), default=0)
    write_table(out / "metrics.tsv", ["mode", "task", "k", *METRIC_COLUMNS], [
        {"mode": mode.value, "task": cfg.task.value, "k": carried, **metrics.row()},
    ])
    write_lines(out / "predictions.jsonl", (json.dumps(rec) for rec in dump))
    print(
        f"{mode.value}\tP={metrics.precision:.4f}\tR={metrics.recall:.4f}\t"
        f"F1={metrics.f1:.4f}\tacc={metrics.accuracy:.4f}"
    )
    return {"mode": mode.value}


def _cmd_sweep(args, cfg, models):
    train, test = _load_data(args, cfg)
    scorer_state = _scorer(models, cfg, train)
    rows = k_sweep(scorer_state, models["retriever"], test, args.k_max, train, cfg)
    out = _out_dir(args.out)
    write_table(out / "sweep.tsv", ["k", *METRIC_COLUMNS, "truncated"], (
        {"k": r.k, **r.metrics.row(), "truncated": int(r.truncated)} for r in rows
    ))
    for row in rows:
        print(f"{row.k}\t{row.metrics.f1:.4f}\t{row.metrics.accuracy:.4f}")


_OWN_SUBSTREAMS = ("Its seeded draws are its own, not those of a schedule step, so "
                   "train-retriever then finetune-lm does not reproduce alternate --t 1.")

# The Config keys that build_vocabulary, init_scorer and warmup_scorer read,
# so every command that can warm up a fresh scorer reads them
_FRESH_SCORER = {"d", "max_len", "seed", "task", "template_dir", "k", "finetune_k",
                 "warmup_epochs", "lr", "weight_decay"}


def _config_options(keys):
    """--config and a flag per Config key in ``keys``, in Config's order, each
    None unless given; none at all for a command that reads no key."""
    if not keys:
        return []
    return [("--config", {"type": _path, "help": "flat key=value config file"})] + [
        (_flag(key), {"dest": key}) for key in CONFIG_KEYS if key in keys]


# Options as (flag, add_argument keywords)
_TRAIN_FILE = ("--train-file", {"type": _path, "required": True})
_TEST_FILE = ("--test-file", {"type": _path, "required": True})
_SCORER = ("--scorer", {"type": _path})
_RETRIEVER = ("--retriever", {"type": _path})
_OUT = ("--out", {"type": _path, "required": True})


def _required(option):
    flag, kwargs = option
    return flag, {**kwargs, "required": True}


# (name, function, the Config keys it reads, help, description, its own options
# in the order --help lists them after the config options)
_COMMANDS = [
    ("gen-data", _cmd_gen_data, {"seed", "task"}, "write a synthetic corpus", None, [
        ("--train", {"type": int, "required": True}),
        ("--test", {"type": int, "required": True}), _OUT]),
    ("train-retriever", _cmd_train_retriever,
     {*_FRESH_SCORER, "d_r", "m", "r", "batch_size", "epochs_retriever"},
     "contrastive retriever training",
     "Contrastive retriever training. " + _OWN_SUBSTREAMS,
     [_TRAIN_FILE, _SCORER, _RETRIEVER, _OUT]),
    ("finetune-lm", _cmd_finetune_lm, {*_FRESH_SCORER, "epochs_lm"},
     "fine-tune the scorer with the top finetune_k examples",
     "Fine-tune the scorer with retrieved examples. " + _OWN_SUBSTREAMS,
     [_TRAIN_FILE, _SCORER, _required(_RETRIEVER), _OUT]),
    ("alternate", _cmd_alternate, set(CONFIG_KEYS), "run the alternating schedule",
     None, [_TRAIN_FILE, _TEST_FILE, ("--resume-step", {"type": _non_negative_int}),
            _OUT]),
    ("retrieve", _cmd_retrieve, {"task", "m"}, "inspect retrieval results for a query",
     None, [_TRAIN_FILE, _required(_RETRIEVER),
            ("--query-id", {"type": int, "required": True})]),
    ("score", _cmd_score, set(), "print total and per-token log-likelihood", None, [
        _required(_SCORER), ("--prompt", {"required": True}),
        ("--target", {"required": True})]),
    ("evaluate", _cmd_evaluate, {*_FRESH_SCORER, "d_r", "max_gen_len"},
     "evaluate one ablation mode", None, [
         _TRAIN_FILE, _TEST_FILE,
         ("--mode", {"choices": [m.value for m in AblationMode], "default": "full"}),
         _SCORER, _RETRIEVER, _OUT]),
    ("sweep", _cmd_sweep, {*_FRESH_SCORER, "max_gen_len"}, "k-sweep evaluation", None, [
        _TRAIN_FILE, _TEST_FILE, _SCORER, _required(_RETRIEVER),
        ("--k-max", {"type": _non_negative_int, "default": 7}), _OUT]),
]


def _build_parser():
    parser = _Parser(prog="exrank", description=__doc__)
    sub = parser.add_subparsers(dest="command")  # each a _Parser, as this one is
    for name, func, keys, summary, description, options in _COMMANDS:
        p = sub.add_parser(name, help=summary, description=description)
        for flag, kwargs in [*_config_options(keys), *options]:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError:
        return 1
    if not args.command:
        parser.print_usage(sys.stderr)
        return 1
    try:
        cfg, models = _resolve_config(args)
        extra = args.func(args, cfg, models)
        if hasattr(args, "out"):
            _write_manifest(args.out, args.command, cfg, extra)
    except Exception as exc:  # runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    return 0


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
