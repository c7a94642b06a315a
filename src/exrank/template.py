"""The prompt grammar: every prompt, retriever text and vocabulary scaffold.

The grammar is frozen on purpose: the scorer conditions on byte-exact prompts,
so every separator is a single space and the prompt always ends with the
"Output:" cue.  No other module holds a prompt literal.
"""

import functools
import hashlib
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from types import MappingProxyType

from .corpus import Task, serialize_label
from .vocab import tokenize

ASPECT_CUE = "The aspect is"


@dataclass(frozen=True)
class Candidate:
    """An (input, output) training pair usable as an in-context example."""

    id: int
    input: str
    output: str


@dataclass(frozen=True)
class TemplateSet:
    definitions: MappingProxyType  # Task -> definition text
    example_block: str  # holds {index}/{input}/{output}
    target_block: str  # holds {input}


def _read_asset(directory, name):
    if directory is not None:
        return (Path(directory) / name).read_text(encoding="utf-8").strip()
    return resources.files("exrank.templates").joinpath(name).read_text(encoding="utf-8").strip()


@functools.lru_cache(maxsize=None)
def load_templates(template_dir=None):
    """Load definition and block assets; template_dir overrides the built-ins.

    Memoised per directory (None means the built-ins): each is read once per
    process, so later edits to its files are not seen.
    """
    return TemplateSet(
        definitions=MappingProxyType(
            {t: _read_asset(template_dir, f"def_{t.value}.txt") for t in Task}
        ),
        example_block=_read_asset(template_dir, "example_block.txt"),
        target_block=_read_asset(template_dir, "target_block.txt"),
    )


class Prompt(str):
    """A rendered prompt: its text, which is its ``blocks`` joined by single
    spaces.  ``Vocabulary.prompt_ids`` encodes each block once and reuses its
    ids in every prompt that holds it; keep ``str(prompt)`` to hold the text
    alone."""

    def __new__(cls, blocks):
        prompt = super().__new__(cls, " ".join(blocks))
        prompt.blocks = tuple(blocks)
        return prompt

    def __getnewargs__(self):  # copy and pickle rebuild from the blocks
        return (self.blocks,)


def render(templates, task, examples, input_text):
    """Render the full instruction prompt for ``task`` with every example, in
    order, from the definition and blocks of ``templates``, as a ``Prompt``
    whose blocks are the definition, each example block and the target block."""
    parts = [f"Definition: {templates.definitions[task]}"]
    for i, ex in enumerate(examples):
        parts.append(
            templates.example_block.format(index=i + 1, input=ex.input, output=ex.output)
        )
    parts.append(templates.target_block.format(input=input_text))
    return Prompt(parts)


def no_instruction_prompt(input_text):
    """The prompt without definition or examples."""
    return f"Input: {input_text} Output:"


def scaffold(templates, n_examples):
    """Fixed texts of prompts with up to ``n_examples`` examples, in vocabulary order."""
    return [
        *(templates.definitions[t] for t in Task),
        # this line first keeps the token order of the built-in templates
        "Definition: Example Now complete the following- Input: Output:",
        *(templates.example_block.format(index=i, input="", output="")
          for i in range(1, n_examples + 1)),
        templates.target_block.format(input=""),
        ASPECT_CUE,
    ]


def check_prompts(vocab, templates, queries, pool, k):
    """Refuse prompts of up to ``k`` examples drawn from ``pool`` for queries of
    ``queries`` when the two hold different tasks, or when their fixed text,
    the ``scaffold``, holds a token ``vocab`` would encode as ``<unk>``."""
    if k > 0 and pool.task != queries.task:
        raise ValueError(f"the queries are {queries.task.value} but the example pool "
                         f"is {pool.task.value}; a prompt would mix two tasks")
    unknown = dict.fromkeys(
        tok for text in scaffold(templates, k) for tok in tokenize(text)
        if tok not in vocab.index
    )
    if unknown:
        raise ValueError(
            f"the scorer's vocabulary encodes the prompt tokens {list(unknown)} "
            f"as <unk> at k={k}; it was built for fewer examples per prompt or "
            "for other templates"
        )


def digest(templates):
    """sha256 hex of the assets: the definitions in task order, then the blocks."""
    assets = [*(templates.definitions[t] for t in Task),
              templates.example_block, templates.target_block]
    return hashlib.sha256(json.dumps(assets).encode("utf-8")).hexdigest()


def atsc_input(text, aspect):
    """Splice the designated aspect onto the review text."""
    if not aspect:
        raise ValueError("aspect must be non-empty")
    return f"{text} {ASPECT_CUE} {aspect}."


def candidate_text(candidate):
    """Retriever-side rendering of a candidate pair."""
    return f"Input: {candidate.input} Output: {candidate.output}"


def query_text(input_text):
    """Retriever-side rendering of a query (no Output clause)."""
    return f"Input: {input_text}"


def task_input(sample, task):
    """The prompt-side input string for a sample under one subtask."""
    if task == Task.ATSC:
        return atsc_input(sample.text, sample.aspect)
    return sample.text


def make_candidate(sample, task):
    """Turn a training sample into an in-context example for a subtask."""
    return Candidate(
        id=sample.id,
        input=task_input(sample, task),
        output=serialize_label(sample, task),
    )
