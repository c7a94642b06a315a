import re

import pytest

from exrank.config import Config, read_config_file


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
