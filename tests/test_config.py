import ast
import re
from pathlib import Path

import pytest

from exrank import config
from exrank.config import Config, read_config_file
from exrank.corpus import generate_synthetic, load_dataset, with_task


@pytest.mark.parametrize("key, value, message", [
    ("d", 0, "d must be at least 1"),
    ("d_r", 0, "d_r must be at least 1"),
    ("batch_size", 0, "batch_size must be at least 1"),
    ("max_len", 0, "max_len must be at least 1"),
    ("max_gen_len", 0, "max_gen_len must be at least 1"),
    ("lr", -1.0, "lr must be finite and non-negative"),
    ("lr", float("nan"), "lr must be finite and non-negative"),
    ("weight_decay", -0.01, "weight_decay must be finite and non-negative"),
    ("weight_decay", float("inf"), "weight_decay must be finite and non-negative"),
])
def test_out_of_range_value_is_rejected(key, value, message):
    with pytest.raises(ValueError, match=message):
        Config(**{key: value})


@pytest.mark.parametrize("key, text", [("lr", "nan"), ("max_len", "0")])
def test_out_of_range_config_file_value_is_rejected(key, text):
    with pytest.raises(ValueError, match=f"{key} must be"):
        Config.from_dict({key: text})


@pytest.mark.parametrize("key, text, expected", [
    ("seed", "abc", "an int"),
    ("seed", "1.5", "an int"),
    ("lr", "fast", "a float"),
    ("task", "foo", "one of 'ate', 'atsc', 'aspe'"),
])
def test_a_value_that_does_not_parse_names_its_key(key, text, expected):
    message = f"config key {key!r} expects {expected}, got {text!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Config.from_dict({key: text})


def test_smallest_accepted_values():
    cfg = Config(max_len=1, max_gen_len=1, lr=0.0, weight_decay=0.0)
    assert (cfg.max_len, cfg.max_gen_len, cfg.lr, cfg.weight_decay) == (1, 1, 0.0, 0.0)


def test_smallest_accepted_widths_and_batch_size():
    cfg = Config(d=1, d_r=1, batch_size=1)
    assert (cfg.d, cfg.d_r, cfg.batch_size) == (1, 1, 1)


def test_empty_template_dir_is_rejected(tmp_path):
    message = "template_dir must not be empty; use '.' for the working directory"
    with pytest.raises(ValueError, match=message):
        Config(template_dir="")
    path = tmp_path / "run.cfg"
    path.write_text("template_dir =\n")
    with pytest.raises(ValueError, match=message):
        Config.from_dict(read_config_file(path))
    assert Config(template_dir=".").template_dir == "."


def test_config_file_error_counts_lines_from_one(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# a comment\nk = 2\nnot a setting\n")
    with pytest.raises(ValueError, match="bad config line 3:"):
        read_config_file(path)


@pytest.mark.parametrize("entry", ["Config", "config file", "load_dataset", "with_task"])
def test_an_unknown_task_is_refused_where_it_enters(entry, tmp_path):
    path = tmp_path / "input"
    if entry == "config file":
        path.write_text("task = bogus\n")
    else:
        path.write_text('{"text": "The food was good .", "labels": [["food", "positive"]]}\n')
    enter = {
        "Config": lambda: Config(task="bogus"),
        "config file": lambda: Config.from_dict(read_config_file(path)),
        "load_dataset": lambda: load_dataset(path, "bogus"),
        "with_task": lambda: with_task(generate_synthetic(20, 1, 0)[0], "bogus"),
    }[entry]
    with pytest.raises(ValueError, match="'bogus'"):
        enter()


def test_tasks_and_modes_are_converted_only_where_they_enter():
    # the helpers in the labeling and inference loops take the value as given;
    # a conversion anywhere else would be a second check of a checked value
    sites = {"Task": set(), "AblationMode": set()}
    for path in sorted(Path(config.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            units = ([(f"{top.name}.{getattr(node, 'name', '<body>')}", node)
                      for node in top.body]
                     if isinstance(top, ast.ClassDef)
                     else [(getattr(top, "name", "<module>"), top)])
            for where, unit in units:
                for node in ast.walk(unit):
                    name = isinstance(node, ast.Call) and (
                        getattr(node.func, "id", None) or getattr(node.func, "attr", None))
                    if name in sites:
                        sites[name].add(f"{path.stem}.{where}")
    assert sites == {
        "Task": {"config.Config.__post_init__", "corpus.load_dataset", "corpus.with_task"},
        "AblationMode": {"evaluation.prompt_builder", "cli._cmd_evaluate"},
    }
