from pathlib import Path

import pytest

import exrank
from exrank.corpus import AspectLabel, Polarity, Sample, Task
from exrank.template import (
    Candidate,
    atsc_input,
    candidate_text,
    digest,
    load_templates,
    make_candidate,
    no_instruction_prompt,
    query_text,
    render,
    task_input,
)

BUILT_IN = load_templates()


def test_zero_example_prompt():
    out = render(BUILT_IN, Task.ASPE, [], "t")
    assert out == (f"Definition: {BUILT_IN.definitions[Task.ASPE]} "
                   "Now complete the following- Input: t Output:")
    assert "Example" not in out


def test_definition_follows_the_task():
    for t in Task:
        assert render(BUILT_IN, t, [], "t").startswith(
            f"Definition: {BUILT_IN.definitions[t]} Now")
    assert render(BUILT_IN, "ate", [], "t") == render(BUILT_IN, Task.ATE, [], "t")


def test_single_example_positions():
    ex = Candidate(id=0, input="The food was good.", output="food: positive")
    out = render(BUILT_IN, Task.ASPE, [ex], "The staff was rude.")
    assert "Input: The food was good. Output: food: positive" in out
    assert out.index("The food was good.") < out.index("The staff was rude.")


def test_example_blocks_ordered():
    exs = [Candidate(id=i, input=f"x{i}", output=f"y{i}") for i in range(2)]
    out = render(BUILT_IN, Task.ASPE, exs, "q")
    assert out.index("Example 1-") < out.index("Example 2-")
    assert out.index("x0") < out.index("x1")


def test_atsc_input_splice():
    assert (
        atsc_input("Serves really good sushi.", "sushi")
        == "Serves really good sushi. The aspect is sushi."
    )


def test_atsc_input_empty_review():
    assert atsc_input("", "a") == " The aspect is a."


def test_atsc_input_requires_aspect():
    with pytest.raises(ValueError):
        atsc_input("x", "")


def test_atsc_splice_lands_in_input_slot():
    spliced = atsc_input("Nice spot.", "decor")
    out = render(BUILT_IN, Task.ATSC, [], spliced)
    assert f"Input: {spliced} Output:" in out


def test_candidate_text():
    assert candidate_text(Candidate(id=0, input="a", output="b")) == "Input: a Output: b"


def test_query_text_has_no_output_clause():
    out = query_text("a")
    assert out == "Input: a"
    assert "Output" not in out


def test_identical_content_renders_identically():
    a = Candidate(id=1, input="x", output="y")
    b = Candidate(id=2, input="x", output="y")
    assert candidate_text(a) == candidate_text(b)


def test_make_candidate_aspe():
    s = Sample(id=3, text="The food was good .",
               labels=[AspectLabel("food", Polarity.POSITIVE)])
    c = make_candidate(s, Task.ASPE)
    assert c.id == 3
    assert c.input == "The food was good ."
    assert c.output == "food: positive"


def test_task_input_atsc():
    s = Sample(id=0, text="Nice.", labels=[AspectLabel("food", Polarity.POSITIVE)],
               aspect="food")
    assert task_input(s, Task.ATSC) == "Nice. The aspect is food."
    assert task_input(s, Task.ASPE) == "Nice."


def test_definitions_distinct_per_task():
    assert len(set(BUILT_IN.definitions.values())) == 3


def test_template_dir_override(tmp_path):
    for t in Task:
        (tmp_path / f"def_{t.value}.txt").write_text(f"CUSTOM {t.value}")
    (tmp_path / "example_block.txt").write_text("EX{index} IN={input} OUT={output}")
    (tmp_path / "target_block.txt").write_text("TARGET={input}")
    ts = load_templates(tmp_path)
    out = render(ts, Task.ASPE, [Candidate(id=0, input="a", output="b")], "q")
    assert "Definition: CUSTOM aspe" in out
    assert "EX1 IN=a OUT=b" in out
    assert "TARGET=q" in out


def test_no_instruction_prompt_has_neither_definition_nor_examples():
    assert no_instruction_prompt("a b") == "Input: a b Output:"


def test_digest_of_the_built_in_assets_is_pinned():
    # the run.json templates_sha256 of every run made with the built-ins
    assert digest(BUILT_IN) == (
        "2dd13d6dc71904ddd4268d125bbb7591bcd358d2b692dc0f2b9f6fe87e102249")


def test_no_other_module_holds_a_prompt_literal():
    sources = sorted(Path(exrank.__file__).parent.glob("*.py"))
    assert "template.py" in {path.name for path in sources}
    found = [
        (path.name, literal)
        for path in sources if path.name != "template.py"
        for literal in ("Input:", "Output:", "Definition:", "The aspect is")
        if literal in path.read_text(encoding="utf-8")
    ]
    assert found == []
