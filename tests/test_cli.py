import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from exrank import cli
from exrank.alternating import build_vocabulary
from exrank.cli import _sha256, main
from exrank.config import Config
from exrank.corpus import Task, load_dataset
from exrank.retriever import init_retriever, load_retriever, save_retriever
from exrank.scorer import load_scorer
from exrank.template import load_templates

# the shared settings of the runs below, as one config file: each command
# reads the keys it needs and ignores the others
FAST = {"k": 2, "m": 6, "r": 0.4, "lr": 0.003, "weight_decay": 0, "epochs_retriever": 1,
        "epochs_lm": 1, "d": 16, "d_r": 16, "warmup_epochs": 1, "max_gen_len": 12}


@pytest.fixture(scope="module")
def fast(tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "fast.cfg"
    path.write_text("".join(f"{key} = {value}\n" for key, value in FAST.items()))
    return ["--config", str(path)]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    rc = main(["gen-data", "--train", "40", "--test", "8", "--seed", "0",
               "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, data_dir, fast):
    out = tmp_path_factory.mktemp("trained")
    rc = main(["alternate", "--train-file", str(data_dir / "train.jsonl"),
               "--test-file", str(data_dir / "test.jsonl"),
               "--t", "1", "--out", str(out), *fast])
    assert rc == 0
    return out


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 1


@pytest.mark.parametrize("argv, message", [
    (["--bogus"], "unrecognized arguments: --bogus"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
])
def test_an_unknown_top_level_argument_is_a_usage_error(argv, message, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: exrank [-h]\n")  # the top-level usage
    assert message in err


def test_unknown_flag_is_usage_error():
    assert main(["gen-data", "--nope"]) == 1


def test_missing_required_flag_is_usage_error():
    assert main(["gen-data", "--train", "10"]) == 1


# each command's required flags, with a value each
_REQUIRED = {
    "gen-data": {"--train": "5", "--test": "2", "--out": "o"},
    "train-retriever": {"--train-file": "t.jsonl", "--out": "o"},
    "finetune-lm": {"--train-file": "t.jsonl", "--retriever": "r.npz", "--out": "o"},
    "alternate": {"--train-file": "t.jsonl", "--test-file": "x.jsonl", "--out": "o"},
    "retrieve": {"--train-file": "t.jsonl", "--retriever": "r.npz", "--query-id": "0"},
    "score": {"--scorer": "s.npz", "--prompt": "p", "--target": "t"},
    "evaluate": {"--train-file": "t.jsonl", "--test-file": "x.jsonl", "--out": "o"},
    "sweep": {"--train-file": "t.jsonl", "--test-file": "x.jsonl",
              "--retriever": "r.npz", "--out": "o"},
}


_ROW_KEYS = {name: keys for name, _, keys, *_ in cli._COMMANDS}


def _argv(command, flags):
    return [command, *(item for pair in flags.items() for item in pair)]


@pytest.mark.parametrize("command, missing", [
    (command, flag) for command, flags in _REQUIRED.items() for flag in flags])
def test_each_required_flag_is_a_usage_error(tmp_path, monkeypatch, command, missing,
                                             capsys):
    monkeypatch.chdir(tmp_path)
    flags = {f: v for f, v in _REQUIRED[command].items() if f != missing}
    assert main(_argv(command, flags)) == 1
    assert f"the following arguments are required: {missing}" in capsys.readouterr().err
    assert _files_in(tmp_path) == []


@pytest.mark.parametrize("command, own", [
    ("gen-data", {"train": 5, "test": 2, "out": "o"}),
    ("train-retriever", {"train_file": "t.jsonl", "scorer": None, "retriever": None,
                         "out": "o"}),
    ("finetune-lm", {"train_file": "t.jsonl", "scorer": None, "retriever": "r.npz",
                     "out": "o"}),
    ("alternate", {"train_file": "t.jsonl", "test_file": "x.jsonl",
                   "resume_step": None, "out": "o"}),
    ("retrieve", {"train_file": "t.jsonl", "retriever": "r.npz", "query_id": 0}),
    ("score", {"scorer": "s.npz", "prompt": "p", "target": "t"}),
    ("evaluate", {"train_file": "t.jsonl", "test_file": "x.jsonl", "mode": "full",
                  "scorer": None, "retriever": None, "out": "o"}),
    ("sweep", {"train_file": "t.jsonl", "test_file": "x.jsonl", "scorer": None,
               "retriever": "r.npz", "k_max": 7, "out": "o"}),
])
def test_each_command_has_its_options_and_defaults(command, own):
    args = vars(cli._build_parser().parse_args(_argv(command, _REQUIRED[command])))
    keys = _ROW_KEYS[command]
    config_keys = ["config", *keys] if keys else []
    assert all(args[key] is None for key in config_keys)
    assert {k: v for k, v in args.items()
            if k not in ("command", "func", *config_keys)} == own


def test_gen_data_writes_corpus_and_manifest(data_dir):
    assert (data_dir / "train.jsonl").exists()
    assert (data_dir / "test.jsonl").exists()
    manifest = json.loads((data_dir / "run.json").read_text())
    assert manifest["command"] == "gen-data"
    assert manifest["n_train"] == 40
    assert manifest["config"]["seed"] == 0


def test_gen_data_writes_an_ate_corpus(tmp_path, data_dir):
    out = tmp_path / "ate"
    assert main(["gen-data", "--task", "ate", "--train", "40", "--test", "8",
                 "--seed", "0", "--out", str(out)]) == 0
    # the same samples as the aspe corpus, polarities kept in the file
    for name in ("train.jsonl", "test.jsonl"):
        assert (out / name).read_bytes() == (data_dir / name).read_bytes()
    manifest = json.loads((out / "run.json").read_text())
    assert manifest["config"]["task"] == "ate"
    assert (manifest["n_train"], manifest["n_test"]) == (40, 8)
    assert load_dataset(out / "train.jsonl", Task.ATE).task == Task.ATE


def test_alternate_outputs(trained_dir):
    assert (trained_dir / "scorer_1.ckpt.npz").exists()
    assert (trained_dir / "retriever_1.ckpt.npz").exists()
    assert (trained_dir / "metrics.tsv").exists()
    manifest = json.loads((trained_dir / "run.json").read_text())
    assert set(manifest["checkpoints"]) >= {
        "scorer_0.ckpt.npz", "scorer_1.ckpt.npz",
        "retriever_0.ckpt.npz", "retriever_1.ckpt.npz",
    }


def test_alternate_writes_lf_line_endings(trained_dir):
    metrics = (trained_dir / "metrics.tsv").read_bytes()
    assert b"\r" not in metrics
    assert metrics.split(b"\n")[0] == (
        b"step\ttask\tsplit\tprecision\trecall\tf1\taccuracy\tparse_failures")
    assert metrics.count(b"\n") == 3  # the header, step 0 and step 1
    assert (trained_dir / "run.json").read_bytes().endswith(b"}\n")


def test_train_retriever_command(tmp_path, data_dir, fast, capsys):
    out = tmp_path / "retr"
    rc = main(["train-retriever", "--train-file", str(data_dir / "train.jsonl"),
               "--out", str(out), *fast])
    assert rc == 0
    assert (out / "retriever.ckpt.npz").exists()
    assert (out / "training.tsv").exists()
    lines = (out / "training.tsv").read_text().strip().splitlines()
    assert lines[0] == "epoch\tmean_infonce"
    assert lines[-1].startswith("separation\t")


def test_finetune_lm_command(tmp_path, data_dir, trained_dir, fast):
    out = tmp_path / "ft"
    rc = main(["finetune-lm", "--train-file", str(data_dir / "train.jsonl"),
               "--retriever", str(trained_dir / "retriever_1.ckpt.npz"),
               "--scorer", str(trained_dir / "scorer_1.ckpt.npz"),
               "--out", str(out), *fast])
    assert rc == 0
    assert (out / "scorer.ckpt.npz").exists()


def test_train_retriever_then_finetune_lm_is_step_1_of_alternate(tmp_path, data_dir):
    # one config file for the three commands; two retriever epochs, so that the
    # second retrieves with the first's model
    config = tmp_path / "shared.cfg"
    config.write_text("".join(f"{key} = {value}\n" for key, value in
                              {**FAST, "epochs_retriever": 2, "epochs_lm": 2}.items()))
    train = ["--train-file", str(data_dir / "train.jsonl"), "--config", str(config)]
    assert main(["alternate", *train, "--test-file", str(data_dir / "test.jsonl"),
                 "--t", "1", "--out", str(tmp_path / "alt")]) == 0
    assert main(["train-retriever", *train, "--out", str(tmp_path / "retr")]) == 0
    assert main(["finetune-lm", *train,
                 "--scorer", str(tmp_path / "retr/scorer.ckpt.npz"),
                 "--retriever", str(tmp_path / "retr/retriever.ckpt.npz"),
                 "--out", str(tmp_path / "ft")]) == 0
    for path, step_path in (("retr/scorer.ckpt.npz", "alt/scorer_0.ckpt.npz"),
                            ("retr/retriever.ckpt.npz", "alt/retriever_1.ckpt.npz"),
                            ("ft/scorer.ckpt.npz", "alt/scorer_1.ckpt.npz")):
        assert (tmp_path / path).read_bytes() == (tmp_path / step_path).read_bytes()


SEED3_RETRIEVER = ["--k", "2", "--m", "8", "--d", "16", "--d-r", "16", "--lr", "3e-3",
                   "--epochs-retriever", "1"]


@pytest.fixture(scope="module")
def seed3_retr(tmp_path_factory):
    """A 40/8 corpus at seed 3 and a train-retriever run on it, whose fresh
    scorer holds the example indices 1 to 8 of the built-in templates."""
    data = tmp_path_factory.mktemp("data3")
    retr = tmp_path_factory.mktemp("retr3") / "retr"
    assert main(["gen-data", "--train", "40", "--test", "8", "--seed", "3",
                 "--out", str(data)]) == 0
    assert main(["train-retriever", "--train-file", str(data / "train.jsonl"),
                 *SEED3_RETRIEVER, "--out", str(retr)]) == 0
    return data, retr


def test_finetune_lm_refuses_a_finetune_k_beyond_the_scorer_indices(tmp_path, seed3_retr,
                                                                   capsys):
    data, retr = seed3_retr
    capsys.readouterr()
    rc = main(["finetune-lm", "--train-file", str(data / "train.jsonl"),
               "--scorer", str(retr / "scorer.ckpt.npz"),
               "--retriever", str(retr / "retriever.ckpt.npz"),
               "--finetune-k", "12", "--out", str(tmp_path / "ft")])
    assert rc == 2
    assert ("the scorer's vocabulary encodes the prompt tokens ['9-', '10-', '11-', "
            "'12-'] as <unk> at k=12" in capsys.readouterr().err)
    assert not (tmp_path / "ft").exists()


def test_train_retriever_refuses_labeling_prompts_the_scorer_cannot_encode(
        tmp_path, seed3_retr, capsys):
    # the example block says "Sample" where the scorer's templates said "Example"
    data, retr = seed3_retr
    builtin = load_templates(None)
    tpl = tmp_path / "tpl"
    tpl.mkdir()
    for task, text in builtin.definitions.items():
        (tpl / f"def_{task.value}.txt").write_text(text)
    (tpl / "example_block.txt").write_text(builtin.example_block.replace("Example", "Sample"))
    (tpl / "target_block.txt").write_text(builtin.target_block)
    capsys.readouterr()
    rc = main(["train-retriever", "--train-file", str(data / "train.jsonl"),
               *SEED3_RETRIEVER, "--scorer", str(retr / "scorer.ckpt.npz"),
               "--template-dir", str(tpl), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert ("the scorer's vocabulary encodes the prompt tokens ['Sample'] as <unk> "
            "at k=1" in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("lr, warns", [(None, True), ("3e-3", False)])
def test_evaluate_prints_the_warm_up_warning_only_at_the_default_lr(
        tmp_path, data_dir, lr, warns):
    # a subprocess: the warning reaches stderr through logging's last-resort
    # handler, and in-process the test's log capture takes the record first
    argv = [sys.executable, "-m", "exrank.cli", "evaluate",
            "--train-file", str(data_dir / "train.jsonl"),
            "--test-file", str(data_dir / "test.jsonl"), "--k", "0",
            "--out", str(tmp_path / "ev"), *(["--lr", lr] if lr else [])]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    # at the default lr the warm-up's last mean loss is 0.996 of chance
    assert ("the warm-up learned next to nothing" in done.stderr) == warns


def test_retrieve_command(data_dir, trained_dir, fast, capsys):
    rc = main(["retrieve", "--train-file", str(data_dir / "train.jsonl"),
               "--retriever", str(trained_dir / "retriever_1.ckpt.npz"),
               "--query-id", "3", *fast, "--m", "4"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    for line in lines:
        cand_id, sim, _ = line.split("\t", 2)
        assert int(cand_id) != 3
        float(sim)


def test_score_command(trained_dir, capsys):
    rc = main(["score", "--scorer", str(trained_dir / "scorer_1.ckpt.npz"),
               "--prompt", "Definition: x Input: The food was good . Output:",
               "--target", "food: positive"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("total\t")
    assert len(lines) > 1
    total = float(lines[0].split("\t")[1])
    per = [float(l.split("\t")[1]) for l in lines[1:]]
    assert abs(total - sum(per)) < 1e-6


def test_evaluate_full_smoke(tmp_path, data_dir, trained_dir, fast):
    # without --scorer: evaluate warms up a fresh scorer
    out = tmp_path / "eval"
    rc = main(["evaluate", "--train-file", str(data_dir / "train.jsonl"),
               "--test-file", str(data_dir / "test.jsonl"),
               "--mode", "full",
               "--retriever", str(trained_dir / "retriever_1.ckpt.npz"),
               "--out", str(out), *fast])
    assert rc == 0
    lines = (out / "metrics.tsv").read_text().strip().splitlines()
    assert len(lines) == 2
    header = lines[0].split("\t")
    row = dict(zip(header, lines[1].split("\t")))
    assert row["mode"] == "full"
    assert row["k"] == "2"
    float(row["f1"])
    preds = [json.loads(l) for l in
             (out / "predictions.jsonl").read_text().splitlines()]
    assert len(preds) == 8


def test_evaluate_refuses_a_checkpoint_holding_a_nan_in_one_line(tmp_path, data_dir,
                                                                trained_dir, fast, capsys):
    bad = tmp_path / "scorer_nan.ckpt.npz"
    with np.load(trained_dir / "scorer_1.ckpt.npz") as blob:
        members = dict(blob)
    members["w_out"] = members["w_out"].copy()
    members["w_out"][3, 5] = np.nan
    np.savez(bad, **members)
    out = tmp_path / "eval"
    rc = main(["evaluate", "--train-file", str(data_dir / "train.jsonl"),
               "--test-file", str(data_dir / "test.jsonl"), "--scorer", str(bad),
               "--retriever", str(trained_dir / "retriever_1.ckpt.npz"),
               "--out", str(out), *fast])
    assert rc == 2
    assert capsys.readouterr().err == (f"runtime error: checkpoint {bad}: parameter "
                                       "'w_out' holds a NaN or infinite value\n")
    assert not out.exists()


def test_evaluate_records_the_examples_its_prompts_carried(tmp_path, data_dir,
                                                          trained_dir, fast):
    out = tmp_path / "eval"
    rc = main(["evaluate", "--train-file", str(data_dir / "train.jsonl"),
               "--test-file", str(data_dir / "test.jsonl"),
               "--mode", "no_instruction",
               "--scorer", str(trained_dir / "scorer_1.ckpt.npz"),
               "--retriever", str(trained_dir / "retriever_1.ckpt.npz"),
               "--out", str(out), *fast])  # FAST sets k 2
    assert rc == 0
    header, row = (l.split("\t") for l in
                   (out / "metrics.tsv").read_text().strip().splitlines())
    assert dict(zip(header, row))["k"] == "0"
    preds = [json.loads(l) for l in
             (out / "predictions.jsonl").read_text().splitlines()]
    assert all(rec["example_ids"] == [] for rec in preds)


def test_sweep_command(tmp_path, data_dir, trained_dir, fast):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--train-file", str(data_dir / "train.jsonl"),
               "--test-file", str(data_dir / "test.jsonl"),
               "--scorer", str(trained_dir / "scorer_1.ckpt.npz"),
               "--retriever", str(trained_dir / "retriever_1.ckpt.npz"),
               "--k-max", "3", "--out", str(out), *fast])
    assert rc == 0
    lines = (out / "sweep.tsv").read_text().strip().splitlines()
    assert len(lines) == 5  # header + k in 0..3
    ks = [int(l.split("\t")[0]) for l in lines[1:]]
    assert ks == [0, 1, 2, 3]


def test_sweep_beyond_the_vocabulary_example_indices_is_refused(tmp_path, data_dir,
                                                               trained_dir, fast, capsys):
    # the schedule's vocabulary holds the example indices 1 to 8
    out = tmp_path / "sweep"
    rc = main(["sweep", "--train-file", str(data_dir / "train.jsonl"),
               "--test-file", str(data_dir / "test.jsonl"),
               "--scorer", str(trained_dir / "scorer_1.ckpt.npz"),
               "--retriever", str(trained_dir / "retriever_1.ckpt.npz"),
               "--k-max", "9", "--out", str(out), *fast])
    assert rc == 2
    err = capsys.readouterr().err
    assert "['9-']" in err and "k=9" in err
    assert not out.exists()


def test_config_file_and_flag_precedence(tmp_path, data_dir):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("seed = 5\nk = 3\n# comment\n")
    out = tmp_path / "gen"
    rc = main(["gen-data", "--train", "25", "--test", "5", "--config",
               str(cfgfile), "--seed", "9", "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "run.json").read_text())
    assert manifest["config"]["seed"] == 9  # flag beats file
    assert manifest["config"]["k"] == 3     # file beats default


def _assert_not_a_config_key(tmp_path, key, value):
    with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
        Config.from_dict({key: value})
    cfgfile = tmp_path / "old.cfg"
    cfgfile.write_text(f"{key} = {value}\n")
    out = tmp_path / "gen"
    gen = ["gen-data", "--train", "5", "--test", "2", "--out", str(out)]
    assert main(gen + ["--config", str(cfgfile)]) == 2
    assert main(gen + ["--" + key.replace("_", "-"), value]) == 1
    assert not out.exists()


def test_grad_accum_is_no_longer_a_config_key(tmp_path):
    _assert_not_a_config_key(tmp_path, "grad_accum", "2")


def test_reinit_per_step_is_no_longer_a_config_key(tmp_path):
    _assert_not_a_config_key(tmp_path, "reinit_per_step", "true")


def test_accept_hash_is_no_longer_a_config_key(tmp_path):
    _assert_not_a_config_key(tmp_path, "accept_hash", "true")


def test_out_of_range_max_gen_len_is_rejected_before_any_checkpoint(tmp_path, data_dir,
                                                                    fast):
    out = tmp_path / "run"
    rc = main(["alternate", "--train-file", str(data_dir / "train.jsonl"),
               "--test-file", str(data_dir / "test.jsonl"),
               "--t", "1", "--out", str(out), *fast, "--max-gen-len", "0"])
    assert rc != 0
    assert not list(tmp_path.rglob("*.ckpt.npz"))


def test_abbreviated_flag_is_a_usage_error(tmp_path, data_dir, fast, capsys):
    out = tmp_path / "run"
    rc = main(["alternate", "--train-file", str(data_dir / "train.jsonl"),
               "--test-file", str(data_dir / "test.jsonl"),
               "--t", "1", "--out", str(out), *fast, "--warm", "3"])
    assert rc == 1
    assert "unrecognized arguments: --warm 3" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_is_rejected_before_any_work(tmp_path, capsys):
    with pytest.raises(ValueError, match="seed must be non-negative"):
        Config(seed=-1)
    out = tmp_path / "gen"
    assert main(["gen-data", "--train", "25", "--test", "5", "--seed", "-1",
                 "--out", str(out)]) == 2
    assert "seed must be non-negative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, config_line, message", [
    (["--seed", "abc"], None, "config key 'seed' expects an int, got 'abc'"),
    (["--seed", "1.5"], None, "config key 'seed' expects an int, got '1.5'"),
    ([], "seed = x", "config key 'seed' expects an int, got 'x'"),
    (["--task", "foo"], None, "config key 'task' expects one of 'ate', 'atsc', 'aspe', "
                              "got 'foo'"),
])
def test_a_config_value_that_does_not_parse_names_its_key(tmp_path, flags, config_line,
                                                          message, capsys):
    if config_line:
        (tmp_path / "run.cfg").write_text(config_line + "\n")
        flags = ["--config", str(tmp_path / "run.cfg")]
    out = tmp_path / "gen"
    assert main(["gen-data", "--train", "25", "--test", "5", *flags,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"runtime error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["train-retriever", "--train-file", "t.jsonl", "--out", "o",
     "--test-file", "x.jsonl"],
    ["finetune-lm", "--train-file", "t.jsonl", "--retriever", "r.npz", "--out", "o",
     "--test-file", "x.jsonl"],
    ["retrieve", "--train-file", "t.jsonl", "--retriever", "r.npz", "--query-id", "0",
     "--m-results", "4"],
    # a config key the command does not read
    ["gen-data", "--train", "5", "--test", "0", "--out", "o", "--template-dir", "x"],
    ["train-retriever", "--train-file", "t.jsonl", "--out", "o", "--t", "2"],
    ["finetune-lm", "--train-file", "t.jsonl", "--retriever", "r.npz", "--out", "o",
     "--m", "4"],
    ["retrieve", "--train-file", "t.jsonl", "--retriever", "r.npz", "--query-id", "0",
     "--lr", "9"],
    ["score", "--scorer", "s.npz", "--prompt", "p", "--target", "t", "--seed", "1"],
    ["evaluate", "--train-file", "t.jsonl", "--test-file", "x.jsonl", "--out", "o",
     "--epochs-lm", "2"],
    ["sweep", "--train-file", "t.jsonl", "--test-file", "x.jsonl", "--retriever", "r.npz",
     "--out", "o", "--d-r", "8"],
])
def test_options_nothing_read_are_usage_errors(argv, capsys):
    assert main(argv) == 1  # without the last option: a runtime error, exit 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, unknown", [
    (["gen-data", "--train", "5", "--test", "2", "--out", "o"], ["--lr", "9"]),
    (["gen-data", "--train", "5", "--test", "2", "--out", "o"], ["extra"]),
    (["score", "--scorer", "s.npz", "--prompt", "p", "--target", "t"], ["--seed", "1"]),
])
def test_an_unknown_argument_shows_the_usage_of_its_command(argv, unknown, capsys):
    assert main(argv + unknown) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: exrank {argv[0]} ")
    assert f"unrecognized arguments: {' '.join(unknown)}" in err


def test_missing_file_is_runtime_error(tmp_path):
    rc = main(["retrieve", "--train-file", str(tmp_path / "nope.jsonl"),
               "--retriever", str(tmp_path / "nope.npz"), "--query-id", "0"])
    assert rc == 2


def test_alternate_resume(tmp_path, data_dir, fast):
    out = tmp_path / "alt"
    base = ["alternate", "--train-file", str(data_dir / "train.jsonl"),
            "--test-file", str(data_dir / "test.jsonl"),
            "--t", "2", "--out", str(out), *fast]
    assert main(base) == 0
    assert main(base + ["--resume-step", "1"]) == 0
    rows = (out / "metrics.tsv").read_text().strip().splitlines()
    assert len(rows) == 4  # header + steps 0..2


@pytest.mark.parametrize("command, option, value", [
    ("sweep", "--k-max", "-1"),
    ("sweep", "--k-max", "x"),
    ("alternate", "--resume-step", "-1"),
    ("alternate", "--resume-step", "x"),
])
def test_bad_counts_are_usage_errors_before_any_data_is_read(
        tmp_path, command, option, value, capsys):
    # the data files do not exist, so reading them would be a runtime error
    out = tmp_path / "out"
    argv = [command, "--train-file", str(tmp_path / "nope.jsonl"),
            "--test-file", str(tmp_path / "nope.jsonl"), "--out", str(out),
            option, value]
    if command == "sweep":
        argv += ["--retriever", str(tmp_path / "nope.npz")]
    assert main(argv) == 1
    assert f"argument {option}: expected a non-negative integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["bogus", "frozen_lm", "no_example", "no_alternating"])
def test_unknown_mode_is_a_usage_error_before_any_data_is_read(tmp_path, mode, capsys):
    out = tmp_path / "out"
    assert main(["evaluate", "--train-file", str(tmp_path / "nope.jsonl"),
                 "--test-file", str(tmp_path / "nope.jsonl"), "--out", str(out),
                 "--mode", mode]) == 1
    assert f"argument --mode: invalid choice: {mode!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["gen-data", "--train", "x", "--test", "2", "--out", "o"],
    ["gen-data", "--train", "5", "--test", "2.5", "--out", "o"],
    ["retrieve", "--train-file", "t.jsonl", "--retriever", "r.npz", "--query-id", "x"],
])
def test_non_integer_counts_and_ids_are_usage_errors(argv, capsys):
    assert main(argv) == 1
    assert "invalid int value" in capsys.readouterr().err


@pytest.fixture(scope="module")
def resumable_dir(tmp_path_factory, data_dir, fast):
    """A finished --seed 1 --k 2 run with t=2 that later tests must not change."""
    out = tmp_path_factory.mktemp("resumable")
    rc = main(_alternate_argv(fast, data_dir, data_dir / "train.jsonl", out))
    assert rc == 0
    return out


def _alternate_argv(fast, data_dir, train_file, out):
    return ["alternate", "--train-file", str(train_file),
            "--test-file", str(data_dir / "test.jsonl"),
            "--t", "2", "--out", str(out), *fast, "--seed", "1", "--k", "2"]


def _snapshot(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_alternate_run_json_records_config_and_data_hashes(resumable_dir, data_dir):
    manifest = json.loads((resumable_dir / "run.json").read_text())
    assert manifest["config"]["seed"] == 1 and manifest["config"]["k"] == 2
    assert manifest["train_sha256"] == _sha256(data_dir / "train.jsonl")
    assert manifest["test_sha256"] == _sha256(data_dir / "test.jsonl")
    assert len(manifest["checkpoints"]) == 7  # init, then scorer and retriever 0..2


def test_alternate_writes_run_json_before_training(tmp_path, data_dir, fast, monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("crashed mid-run")

    monkeypatch.setattr(cli, "run_schedule", crash)
    out = tmp_path / "alt"
    assert main(_alternate_argv(fast, data_dir, data_dir / "train.jsonl", out)) == 2
    manifest = json.loads((out / "run.json").read_text())
    assert manifest["config"]["seed"] == 1
    assert manifest["train_sha256"] == _sha256(data_dir / "train.jsonl")
    assert manifest["checkpoints"] == {}


def test_resume_with_another_config_is_refused(resumable_dir, data_dir, fast, capsys):
    before = _snapshot(resumable_dir)
    argv = _alternate_argv(fast, data_dir, data_dir / "train.jsonl", resumable_dir)
    rc = main(argv + ["--resume-step", "1", "--seed", "9", "--k", "1"])
    assert rc != 0
    assert "config differs from run.json in ['k', 'seed']" in capsys.readouterr().err
    assert _snapshot(resumable_dir) == before


def test_resume_with_other_data_is_refused(resumable_dir, data_dir, tmp_path, fast,
                                          capsys):
    before = _snapshot(resumable_dir)
    other = tmp_path / "train.jsonl"
    lines = (data_dir / "train.jsonl").read_text().splitlines(keepends=True)
    other.write_text("".join(lines[:-1]))
    rc = main(_alternate_argv(fast, data_dir, other, resumable_dir) + ["--resume-step", "1"])
    assert rc != 0
    assert "data differs from run.json in ['train_sha256']" in capsys.readouterr().err
    assert _snapshot(resumable_dir) == before


def test_resume_without_run_json_is_refused(resumable_dir, data_dir, tmp_path, fast,
                                            capsys):
    out = tmp_path / "copy"
    out.mkdir()
    for name, data in _snapshot(resumable_dir).items():
        if name != "run.json":
            (out / name).write_bytes(data)
    before = _snapshot(out)
    rc = main(_alternate_argv(fast, data_dir, data_dir / "train.jsonl", out)
              + ["--resume-step", "1"])
    assert rc != 0
    assert "no run.json" in capsys.readouterr().err
    assert _snapshot(out) == before


def test_resume_with_edited_templates_is_refused(tmp_path, data_dir, fast, capsys):
    builtin = load_templates(None)
    tpl = tmp_path / "tpl"
    tpl.mkdir()
    for task, text in builtin.definitions.items():
        (tpl / f"def_{task.value}.txt").write_text(text)
    (tpl / "example_block.txt").write_text(builtin.example_block)
    (tpl / "target_block.txt").write_text(builtin.target_block)
    out = tmp_path / "alt"
    argv = _alternate_argv(fast, data_dir, data_dir / "train.jsonl", out) + [
        "--template-dir", str(tpl)]
    assert main(argv) == 0
    assert json.loads((out / "run.json").read_text())["templates_sha256"]
    before = _snapshot(out)
    (tpl / "def_aspe.txt").write_text("Some other definition.")
    load_templates.cache_clear()  # as a new process would read the files again
    rc = main(argv + ["--resume-step", "1"])
    assert rc == 2
    assert "data differs from run.json in ['templates_sha256']" in capsys.readouterr().err
    assert _snapshot(out) == before


def test_run_json_digest_of_a_custom_template_dir_is_pinned(tmp_path, data_dir, fast):
    tpl = tmp_path / "tpl"
    tpl.mkdir()
    for task in ("aspe", "ate", "atsc"):
        (tpl / f"def_{task}.txt").write_text(f"Solve {task}.")
    (tpl / "example_block.txt").write_text("Sample {index}: Question {input} Answer {output}")
    (tpl / "target_block.txt").write_text("Query: {input} Reply:")
    out = tmp_path / "alt"
    assert main(_alternate_argv(fast, data_dir, data_dir / "train.jsonl", out)
                + ["--t", "1", "--template-dir", str(tpl)]) == 0
    assert json.loads((out / "run.json").read_text())["templates_sha256"] == (
        "b65bff6c4cb01f6f49322236ab344f4a630330966cc4876e1f31ea8aa65ac976")


def test_train_retriever_checks_k_and_m_before_warm_up(tmp_path, data_dir, fast,
                                                       monkeypatch, capsys):
    warmups = []
    monkeypatch.setattr(cli, "warmup_scorer", lambda *args: warmups.append(args))
    out = tmp_path / "retr"
    rc = main(["train-retriever", "--train-file", str(data_dir / "train.jsonl"),
               "--out", str(out), *fast, "--k", "4", "--m", "5"])
    assert rc == 2
    assert "m must be at least" in capsys.readouterr().err
    assert warmups == []
    assert not out.exists()


def test_train_retriever_refuses_an_m_above_the_candidates_before_warm_up(
        tmp_path, data_dir, fast, monkeypatch, capsys):
    # the query is not its own candidate: 40 samples give 39
    warmups = []
    monkeypatch.setattr(cli, "warmup_scorer", lambda *args: warmups.append(args))
    out = tmp_path / "retr"
    rc = main(["train-retriever", "--train-file", str(data_dir / "train.jsonl"),
               "--out", str(out), *fast, "--m", "40"])
    assert rc == 2
    assert ("m=40 is more than the 39 candidates a query of the train split has"
            in capsys.readouterr().err)
    assert warmups == []
    assert not out.exists()


def _files_in(out):
    return sorted(p.name for p in out.rglob("*")) if out.exists() else []


@pytest.mark.parametrize("extra, message", [
    (["--t", "0"], "t must be at least 1"),
    (["--k", "4", "--m", "5"], "m must be at least"),
    ([], "malformed record"),
    (["--m", "100"], "m=100 is more than the 39 candidates"),
])
def test_alternate_writes_nothing_when_it_refuses_its_inputs(
        tmp_path, data_dir, fast, extra, message, capsys):
    train_file = data_dir / "train.jsonl"
    if not extra:  # the refused input is a malformed train record
        train_file = tmp_path / "train.jsonl"
        train_file.write_text(data_dir.joinpath("train.jsonl").read_text()
                              + '{"text": 5, "labels": []}\n')
    out = tmp_path / "alt"
    assert main(_alternate_argv(fast, data_dir, train_file, out) + extra) == 2
    assert message in capsys.readouterr().err
    assert _files_in(out) == []


@pytest.mark.parametrize("command", ["alternate", "train-retriever"])
def test_a_train_split_too_small_to_label_is_refused_before_warm_up(
        tmp_path, data_dir, fast, monkeypatch, command, capsys):
    # k=4 needs 2k = 8 candidates besides the query itself: 9 samples, not 5
    warmups = []
    monkeypatch.setattr(cli, "warmup_scorer", lambda *args: warmups.append(args))
    train_file = tmp_path / "train.jsonl"
    lines = data_dir.joinpath("train.jsonl").read_text().splitlines(keepends=True)
    train_file.write_text("".join(lines[:5]))
    out = tmp_path / "out"
    argv = [command, "--train-file", str(train_file), "--out", str(out), *fast,
            "--k", "4", "--m", "8"]
    if command == "alternate":
        argv += ["--test-file", str(data_dir / "test.jsonl"), "--t", "1"]
    assert main(argv) == 2
    assert ("the train split has 5 samples; training at k=4 needs 2k + 1 = 9"
            in capsys.readouterr().err)
    assert warmups == []
    assert _files_in(out) == []


@pytest.mark.parametrize("command, empty", [
    ("alternate", "train"), ("alternate", "test"), ("train-retriever", "train"),
    ("finetune-lm", "train"), ("retrieve", "train"), ("evaluate", "test"),
    ("sweep", "test")])
def test_every_command_refuses_an_empty_data_file(tmp_path, data_dir, trained_dir, fast,
                                                  command, empty, capsys):
    files = {name: data_dir / f"{name}.jsonl" for name in ("train", "test")}
    files[empty] = tmp_path / "empty.jsonl"
    files[empty].write_text("\n")  # a blank line is no record
    argv = [command, "--train-file", str(files["train"]), *fast]
    if command in ("alternate", "evaluate", "sweep"):
        argv += ["--test-file", str(files["test"])]
    if command in ("finetune-lm", "retrieve", "sweep"):
        argv += ["--retriever", str(trained_dir / "retriever_1.ckpt.npz")]
    out = tmp_path / "out"
    argv += ["--query-id", "0"] if command == "retrieve" else ["--out", str(out)]
    assert main(argv) == 2
    assert f"{files[empty]} holds no records" in capsys.readouterr().err
    assert _files_in(out) == []


@pytest.mark.parametrize("source", ["flag", "config file"])
def test_an_empty_template_dir_is_refused_before_any_write(tmp_path, source, capsys):
    out = tmp_path / "gen"
    argv = ["gen-data", "--train", "25", "--test", "5", "--out", str(out)]
    if source == "flag":  # gen-data reads no template_dir, so it has no such flag
        argv = ["alternate", "--train-file", str(tmp_path / "nope.jsonl"),
                "--test-file", str(tmp_path / "nope.jsonl"), "--out", str(out),
                "--template-dir", ""]
    else:
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("template_dir =\n")
        argv += ["--config", str(cfgfile)]
    assert main(argv) == 2
    assert "template_dir must not be empty; use '.'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("count", ["0", "-3"])
def test_gen_data_refuses_a_test_count_below_one(tmp_path, count, capsys):
    out = tmp_path / "gen"
    assert main(["gen-data", "--train", "25", "--test", count, "--out", str(out)]) == 2
    assert "n_test must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_gen_data_refuses_an_empty_atsc_split_before_any_write(tmp_path, capsys):
    # at seed 7 the one test sample names no aspect, and to_atsc drops it
    out = tmp_path / "gen"
    assert main(["gen-data", "--task", "atsc", "--seed", "7", "--train", "20",
                 "--test", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "the atsc test split would hold no records" in err
    assert "--test 1" in err
    assert not out.exists()


@pytest.mark.parametrize("query_id", ["40", "999", "-1"])
def test_retrieve_names_an_unknown_query_id(data_dir, trained_dir, query_id, capsys):
    rc = main(["retrieve", "--train-file", str(data_dir / "train.jsonl"),
               "--retriever", str(trained_dir / "retriever_1.ckpt.npz"),
               "--query-id", query_id])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"unknown query id {query_id}" in err
    assert "run from 0 to 39" in err


@pytest.mark.parametrize("command, flag", [
    ("gen-data", "--out"), ("gen-data", "--config"), ("train-retriever", "--train-file"),
    ("train-retriever", "--scorer"), ("train-retriever", "--retriever"),
    ("evaluate", "--test-file")])
def test_an_empty_path_is_a_usage_error(tmp_path, monkeypatch, command, flag, capsys):
    # an empty --out would name the working directory, an empty --scorer no model
    monkeypatch.chdir(tmp_path)
    assert main(_argv(command, {**_REQUIRED[command], flag: ""})) == 1
    assert f"argument {flag}: expected a path, got ''" in capsys.readouterr().err
    assert _files_in(tmp_path) == []


@pytest.fixture(scope="module")
def short_retriever(tmp_path_factory, data_dir):
    """A retriever checkpoint of d_r 8 and max_len 32 over the data's vocabulary."""
    train = load_dataset(data_dir / "train.jsonl", Task.ASPE)
    state = init_retriever(build_vocabulary(train, Config()), d_r=8, max_len=32)
    path = tmp_path_factory.mktemp("short") / "retriever.ckpt.npz"
    save_retriever(state, path)
    return path


def _sweep_argv(data_dir, trained_dir, out, retriever=None):
    return ["sweep", "--train-file", str(data_dir / "train.jsonl"),
            "--test-file", str(data_dir / "test.jsonl"),
            "--scorer", str(trained_dir / "scorer_1.ckpt.npz"),
            "--retriever", str(retriever or trained_dir / "retriever_1.ckpt.npz"),
            "--k-max", "1", "--out", str(out)]


def _config_of(out):
    return json.loads((out / "run.json").read_text())["config"]


def test_run_json_records_the_sizes_of_the_loaded_models(tmp_path, data_dir, trained_dir):
    # the schedule trained d 16, d_r 16 and max_len 128; the defaults are d 64, d_r 64
    out = tmp_path / "sweep"
    assert main(_sweep_argv(data_dir, trained_dir, out)) == 0
    config = _config_of(out)
    assert (config["d"], config["d_r"], config["max_len"]) == (16, 16, 128)


def test_a_config_file_size_gives_way_to_the_loaded_model(tmp_path, data_dir,
                                                          trained_dir):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("d = 999\nd_r = 7\nmax_len = 5\n")
    out = tmp_path / "sweep"
    assert main(_sweep_argv(data_dir, trained_dir, out) + ["--config", str(cfgfile)]) == 0
    config = _config_of(out)
    assert (config["d"], config["d_r"], config["max_len"]) == (16, 16, 128)


def test_a_fresh_model_takes_the_max_len_of_the_loaded_one(tmp_path, data_dir, fast,
                                                           short_retriever):
    out = tmp_path / "retr"
    assert main(["train-retriever", "--train-file", str(data_dir / "train.jsonl"),
                 "--retriever", str(short_retriever), "--out", str(out), *fast]) == 0
    assert load_scorer(out / "scorer.ckpt.npz").max_len == 32
    assert load_retriever(out / "retriever.ckpt.npz").d_r == 8
    config = _config_of(out)
    assert (config["d"], config["d_r"], config["max_len"]) == (16, 8, 32)


@pytest.mark.parametrize("flag, value, option, key, size", [
    ("--d", "999", "scorer", "d", 16),
    ("--max-len", "64", "scorer", "max_len", 128),
    ("--d-r", "8", "retriever", "d_r", 16),
])
def test_a_size_flag_that_disagrees_with_the_loaded_model_is_refused(
        tmp_path, data_dir, trained_dir, flag, value, option, key, size, capsys):
    out = tmp_path / "eval"
    argv = ["evaluate", "--train-file", str(data_dir / "train.jsonl"),
            "--test-file", str(data_dir / "test.jsonl"),
            "--scorer", str(trained_dir / "scorer_1.ckpt.npz"),
            "--retriever", str(trained_dir / "retriever_1.ckpt.npz"),
            "--out", str(out), flag, value]
    assert main(argv) == 2
    path = trained_dir / f"{option}_1.ckpt.npz"
    assert (f"{flag} {value} disagrees with --{option} {path}, whose {key} is {size}"
            in capsys.readouterr().err)
    assert not out.exists()


def test_a_scorer_and_a_retriever_of_two_max_len_are_refused(
        tmp_path, data_dir, trained_dir, short_retriever, capsys):
    out = tmp_path / "sweep"
    assert main(_sweep_argv(data_dir, trained_dir, out, short_retriever)) == 2
    assert (f"--scorer {trained_dir / 'scorer_1.ckpt.npz'} has max_len 128 but "
            f"--retriever {short_retriever} has max_len 32" in capsys.readouterr().err)
    assert not out.exists()


def _modes(command, data_dir, trained_dir, out):
    """The argv of each way to run ``command``: with fresh and loaded models,
    and each evaluate mode."""
    train = ["--train-file", str(data_dir / "train.jsonl")]
    test = ["--test-file", str(data_dir / "test.jsonl")]
    scorer = ["--scorer", str(trained_dir / "scorer_1.ckpt.npz")]
    retriever = ["--retriever", str(trained_dir / "retriever_1.ckpt.npz")]
    to = ["--out", str(out)]
    return {
        "gen-data": [["--train", "20", "--test", "4", *to]],
        "train-retriever": [[*train, *s, *r, *to] for s in ([], scorer)
                            for r in ([], retriever)],
        "finetune-lm": [[*train, *s, *retriever, *to] for s in ([], scorer)],
        "alternate": [[*train, *test, "--t", "1", *to],
                      [*train, *test, "--t", "1", "--resume-step", "0", *to]],
        "retrieve": [[*train, *retriever, "--query-id", "3"]],
        "score": [[*scorer, "--prompt", "The food was good .", "--target", "food"]],
        "evaluate": [[*train, *test, "--mode", mode, *s, *r, *to]
                     for mode in ("full", "no_retriever", "no_instruction")
                     for s, r in (([], []), (scorer, retriever))],
        "sweep": [[*train, *test, *s, *retriever, "--k-max", "2", *to]
                  for s in ([], scorer)],
    }[command]


@pytest.mark.parametrize("command", list(_ROW_KEYS))
def test_each_command_reads_exactly_the_config_keys_of_its_row(
        tmp_path, data_dir, trained_dir, fast, command, monkeypatch):
    reads, seen = [], set()

    class Recording(Config):
        def __getattribute__(self, name):
            if name in cli.CONFIG_KEYS:
                reads.append(name)
            return super().__getattribute__(name)

    def recorded(func):
        def run(*args):
            reads.clear()  # drop the reads made while the config was resolved
            try:
                return func(*args)
            finally:
                seen.update(reads)
        return run

    monkeypatch.setattr(cli, "Config", Recording)
    monkeypatch.setattr(cli, "_COMMANDS", [(name, recorded(func), *rest)
                                           for name, func, *rest in cli._COMMANDS])
    for argv in _modes(command, data_dir, trained_dir, tmp_path / "out"):
        assert main([command, *argv, *(fast if _ROW_KEYS[command] else [])]) == 0, argv
    assert seen == _ROW_KEYS[command]


def test_every_config_key_is_read_by_some_command():
    assert set().union(*_ROW_KEYS.values()) == set(cli.CONFIG_KEYS)


@pytest.mark.parametrize("command", list(_ROW_KEYS))
def test_help_lists_exactly_the_flags_of_the_row(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    listed = set(re.findall(r"^  (?:-h, )?(--[a-z-]+)", capsys.readouterr().out, re.M))
    keys = _ROW_KEYS[command]
    options = next(row[-1] for row in cli._COMMANDS if row[0] == command)
    assert listed == {"--help", *(["--config"] if keys else []),
                      *(cli._flag(key) for key in keys), *(flag for flag, _ in options)}
