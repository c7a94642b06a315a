"""Data model, dataset io, the output-label grammar, and the synthetic review corpus.

The label grammar is shared by every subtask: tuples are separated by "; " and
each tuple splits on the LAST ": ", so aspect terms may contain commas and even
colons.
"""

import bisect
import json
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import atomic

NO_ASPECT_TERM = "noaspectterm"

# A generated polarity word outside the known set is kept as a reject marker:
# it occupies a prediction slot but can never match a gold label.
REJECT = "<reject>"


class Polarity(str, Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    NEUTRAL = "neutral"
    NONE = "none"


class Task(str, Enum):
    ATE = "ate"
    ATSC = "atsc"
    ASPE = "aspe"


class Split(str, Enum):
    TRAIN = "train"
    TEST = "test"


_POLARITY_WORDS = {p.value: p for p in Polarity}


@dataclass(frozen=True)
class AspectLabel:
    """One (term, polarity) pair.  Terms are stored verbatim.

    ``polarity`` is a Polarity for corpus labels; parsed predictions may carry
    None (ATE output names terms only) or the REJECT marker.
    """

    term: str
    polarity: object = None

    def is_sentinel(self):
        return self.term == NO_ASPECT_TERM and self.polarity == Polarity.NONE


SENTINEL = AspectLabel(NO_ASPECT_TERM, Polarity.NONE)


@dataclass
class Sample:
    id: int
    text: str
    labels: list
    aspect: str = None  # designated aspect term, ATSC only


@dataclass
class Dataset:
    samples: list
    task: Task
    split: Split

    def __len__(self):
        return len(self.samples)


def normalize_term(term):
    """Comparison form of an aspect term: trimmed, case-insensitive."""
    return term.strip().lower()


def _check_sample(sample):
    if not sample.labels:
        raise ValueError(f"sample {sample.id} has no labels")
    seen = set()
    for lab in sample.labels:
        if not lab.term.strip():
            raise ValueError(f"blank aspect term {lab.term!r}")
        if "; " in lab.term:
            raise ValueError(f"aspect term {lab.term!r} contains the label separator '; '")
        if (lab.polarity == Polarity.NONE) != (lab.term == NO_ASPECT_TERM):
            raise ValueError(
                f"polarity 'none' must pair with '{NO_ASPECT_TERM}', got "
                f"({lab.term!r}, {lab.polarity})"
            )
        key = (lab.term, lab.polarity)
        if key in seen:
            raise ValueError(f"duplicate label {key}")
        seen.add(key)


def load_dataset(path, task, split=Split.TRAIN):
    """Read a jsonl dataset file: one record per line with `text` and `labels`.

    Records with zero surviving labels receive the sentinel pair.  Aspects with
    the historical "conflict" polarity are dropped at ingestion.  Blank lines
    are skipped, and ids count the remaining records from 0.  An error names
    its line, counting from 1.
    """
    task = Task(task)
    samples = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                samples.append(_read_record(line, task, len(samples)))
            except ValueError as exc:
                raise ValueError(f"{exc} at line {line_no}") from exc
    return Dataset(samples=samples, task=task, split=Split(split))


def _read_record(line, task, sample_id):
    """One checked Sample from one jsonl line."""
    try:
        rec = json.loads(line)
        text = rec["text"]
        raw_labels = rec["labels"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        # a JSONDecodeError's own position counts within this one line
        raise ValueError(f"malformed record ({getattr(exc, 'msg', exc)})") from exc
    aspect = rec.get("aspect")
    for key, value, kind in (("text", text, str), ("labels", raw_labels, list),
                             ("aspect", aspect, (str, type(None)))):
        if not isinstance(value, kind):
            raise ValueError(f"malformed record ({key} is {type(value).__name__})")
    labels = []
    for pair in raw_labels:
        if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                or not isinstance(pair[0], str)):
            raise ValueError(f"malformed label {pair!r}")
        term, pol = pair
        if pol == "conflict":
            continue
        if pol not in _POLARITY_WORDS:
            raise ValueError(f"unknown polarity {pol!r}")
        labels.append(AspectLabel(term, _POLARITY_WORDS[pol]))
    sample = Sample(id=sample_id, text=text, labels=labels or [SENTINEL], aspect=aspect)
    _check_sample(sample)
    if task == Task.ATSC:
        serialize_label(sample, task)  # refuses a missing aspect or one not among the labels
    return sample


def save_dataset(dataset, path):
    """Write the jsonl form read back by load_dataset, atomically.

    Sentinel-only samples are written with an empty label array.
    """
    atomic.write_lines(path, (json.dumps(_record(s)) for s in dataset.samples))


def _record(sample):
    labels = [
        [l.term, l.polarity.value] for l in sample.labels if not l.is_sentinel()
    ]
    rec = {"text": sample.text, "labels": labels}
    if sample.aspect is not None:
        rec["aspect"] = sample.aspect
    return rec


def serialize_label(sample, task):
    """Render a sample's gold output string for one subtask.

    ATE joins aspect terms with "; ", ATSC emits the bare polarity word of the
    designated aspect, ASPE joins "term: polarity" pairs in label order.
    """
    task = Task(task)
    if task == Task.ATE:
        return "; ".join(l.term for l in sample.labels)
    if task == Task.ATSC:
        if not sample.aspect:
            raise ValueError(f"sample {sample.id} has no designated aspect")
        want = normalize_term(sample.aspect)
        for l in sample.labels:
            if normalize_term(l.term) == want:
                return l.polarity.value
        raise ValueError(
            f"designated aspect {sample.aspect!r} not among labels of sample {sample.id}"
        )
    return "; ".join(f"{l.term}: {l.polarity.value}" for l in sample.labels)


def parse_output(text, task):
    """Parse generator output back into labels.  Never raises."""
    labels, _ = parse_output_with_diagnostics(text, task)
    return labels


def parse_output_with_diagnostics(text, task):
    """Like parse_output but also returns the count of dropped segments."""
    task = Task(task)
    text = text.strip()
    if not text:
        return [], 0
    if task == Task.ATSC:
        pol = _POLARITY_WORDS.get(text.lower())
        if pol is None:
            return [AspectLabel("", REJECT)], 0
        return [AspectLabel("", pol)], 0

    labels, dropped = [], 0
    for segment in text.split("; "):
        segment = segment.strip()
        if not segment:
            dropped += 1
            continue
        if task == Task.ATE:
            pol = Polarity.NONE if segment == NO_ASPECT_TERM else None
            labels.append(AspectLabel(segment, pol))
            continue
        term, sep, pol_word = segment.rpartition(": ")
        if not (sep and term):
            dropped += 1
            continue
        pol = _POLARITY_WORDS.get(pol_word.strip().lower(), REJECT)
        labels.append(AspectLabel(term, pol))
    return labels, dropped


# ---------------------------------------------------------------------------
# Synthetic corpus
#
# A closed-vocabulary restaurant-review generator.  Aspect and opinion words
# are drawn from fixed lexicons, so sentences sharing an aspect or a polarity
# genuinely overlap lexically; that is what makes retrieved examples helpful
# to a small bag-of-words scorer.

ASPECT_LEXICON = [
    "food", "service", "staff", "pizza", "sushi", "pasta", "decor",
    "menu", "wine", "dessert", "coffee", "atmosphere", "waiter", "bread",
]

OPINION_LEXICON = {
    Polarity.POSITIVE: [
        "delicious", "excellent", "amazing", "friendly", "wonderful",
        "tasty", "superb", "fantastic", "charming", "fresh",
    ],
    Polarity.NEGATIVE: [
        "terrible", "awful", "rude", "bland", "overpriced",
        "slow", "disappointing", "cold", "stale", "noisy",
    ],
    Polarity.NEUTRAL: [
        "average", "ordinary", "acceptable", "standard", "unremarkable", "predictable",
    ],
}

INTENSIFIERS = ["really", "truly", "honestly", "absolutely", "somewhat", "quite"]

SINGLE_FRAMES = [
    "The {a} was {o} .",
    "I found the {a} {i} {o} .",
    "Everyone agreed the {a} was {i} {o} .",
    "Our {a} turned out {o} that night .",
    "For the money , the {a} felt {o} .",
    "Friends told me the {a} here is {o} , and they were right .",
]

DOUBLE_FRAMES = [
    "The {a1} was {o1} but the {a2} was {o2} .",
    "While the {a1} seemed {o1} , the {a2} stayed {i} {o2} .",
]

NO_ASPECT_SENTENCES = [
    "What a night .",
    "Unbelievable .",
    "We will definitely come back soon .",
    "Nothing else worth mentioning .",
    "It was a long evening in the city .",
    "Hard to say anything more about the visit .",
]

TRAILERS = [
    "to be honest",
    "in my opinion",
    "all things considered",
    "as far as we could tell",
]

_POLARITY_CHOICES = [Polarity.POSITIVE, Polarity.NEGATIVE, Polarity.NEUTRAL]
_POLARITY_WEIGHTS = [0.45, 0.35, 0.2]

# The cumulative weights exactly as Generator.choice computes them for ``p``
_POLARITY_CDF = np.cumsum(_POLARITY_WEIGHTS, dtype=np.float64)
_POLARITY_CDF = (_POLARITY_CDF / _POLARITY_CDF[-1]).tolist()


def _draw_polarity(rng):
    """``rng.choice(3, p=_POLARITY_WEIGHTS)``'s polarity without its per-call
    checks of ``p``: the same inverse-CDF draw from one ``rng.random()``, so it
    consumes the generator's stream exactly as choice does."""
    return _POLARITY_CHOICES[bisect.bisect_right(_POLARITY_CDF, rng.random())]


def _make_sample(idx, rng):
    roll = rng.random()
    if roll < 0.15:
        text = NO_ASPECT_SENTENCES[rng.integers(len(NO_ASPECT_SENTENCES))]
        labels = [SENTINEL]
    elif roll < 0.32:
        frame = DOUBLE_FRAMES[rng.integers(len(DOUBLE_FRAMES))]
        a1, a2 = rng.choice(len(ASPECT_LEXICON), size=2, replace=False)
        p1, p2 = _draw_polarity(rng), _draw_polarity(rng)
        o1 = OPINION_LEXICON[p1][rng.integers(len(OPINION_LEXICON[p1]))]
        o2 = OPINION_LEXICON[p2][rng.integers(len(OPINION_LEXICON[p2]))]
        slots = {"a1": ASPECT_LEXICON[a1], "a2": ASPECT_LEXICON[a2], "o1": o1, "o2": o2}
        if "{i}" in frame:
            slots["i"] = INTENSIFIERS[rng.integers(len(INTENSIFIERS))]
        text = frame.format(**slots)
        labels = [
            AspectLabel(ASPECT_LEXICON[a1], p1),
            AspectLabel(ASPECT_LEXICON[a2], p2),
        ]
    else:
        frame = SINGLE_FRAMES[rng.integers(len(SINGLE_FRAMES))]
        a = ASPECT_LEXICON[rng.integers(len(ASPECT_LEXICON))]
        p = _draw_polarity(rng)
        o = OPINION_LEXICON[p][rng.integers(len(OPINION_LEXICON[p]))]
        slots = {"a": a, "o": o}
        if "{i}" in frame:
            slots["i"] = INTENSIFIERS[rng.integers(len(INTENSIFIERS))]
        text = frame.format(**slots)
        labels = [AspectLabel(a, p)]
    if rng.random() < 0.25:
        text = text[:-2] + ", " + TRAILERS[rng.integers(len(TRAILERS))] + " ."
    return Sample(id=idx, text=text, labels=labels)


def generate_synthetic(n_train, n_test, seed):
    """Deterministic synthetic train/test datasets (ASPE task by default)."""
    if n_train < 20:
        raise ValueError("n_train must be at least 20")
    if n_test < 1:
        raise ValueError("n_test must be at least 1")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xDA7A]))
    train = Dataset(
        samples=[_make_sample(i, rng) for i in range(n_train)],
        task=Task.ASPE,
        split=Split.TRAIN,
    )
    test = Dataset(
        samples=[_make_sample(i, rng) for i in range(n_test)],
        task=Task.ASPE,
        split=Split.TEST,
    )
    return train, test


def with_task(dataset, task):
    """Re-view a dataset under ATE or ASPE (same samples, new task tag)."""
    task = Task(task)
    if task == Task.ATSC:
        raise ValueError("use to_atsc to derive an ATSC dataset")
    return Dataset(samples=dataset.samples, task=task, split=dataset.split)


def to_atsc(dataset):
    """Derive an ATSC dataset: one record per non-sentinel aspect."""
    samples = []
    for s in dataset.samples:
        for lab in s.labels:
            if lab.is_sentinel():
                continue
            samples.append(
                Sample(id=len(samples), text=s.text, labels=[lab], aspect=lab.term)
            )
    return Dataset(samples=samples, task=Task.ATSC, split=dataset.split)
