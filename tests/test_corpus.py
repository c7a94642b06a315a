import hashlib
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from exrank.corpus import (
    _POLARITY_CHOICES,
    _POLARITY_WEIGHTS,
    NO_ASPECT_TERM,
    REJECT,
    SENTINEL,
    AspectLabel,
    Polarity,
    Sample,
    Task,
    _check_sample,
    _draw_polarity,
    generate_synthetic,
    load_dataset,
    normalize_term,
    parse_output,
    parse_output_with_diagnostics,
    save_dataset,
    serialize_label,
    to_atsc,
    with_task,
)


def _write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


class TestLoadDataset:
    def test_basic_record(self, tmp_path):
        p = tmp_path / "d.jsonl"
        _write_jsonl(p, [{"text": "Best. Sushi. Ever.", "labels": [["Sushi", "positive"]]}])
        ds = load_dataset(p, Task.ASPE)
        assert len(ds) == 1
        assert ds.samples[0].labels == [AspectLabel("Sushi", Polarity.POSITIVE)]

    def test_empty_labels_get_sentinel(self, tmp_path):
        p = tmp_path / "d.jsonl"
        _write_jsonl(p, [{"text": "Unbelievable.", "labels": []}])
        ds = load_dataset(p, Task.ASPE)
        assert ds.samples[0].labels == [AspectLabel(NO_ASPECT_TERM, Polarity.NONE)]
        assert ds.samples[0].labels[0].is_sentinel()

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text("")
        assert len(load_dataset(p, Task.ASPE)) == 0

    def test_conflict_labels_dropped(self, tmp_path):
        p = tmp_path / "d.jsonl"
        _write_jsonl(p, [
            {"text": "a b", "labels": [["food", "conflict"], ["staff", "negative"]]},
            {"text": "c d", "labels": [["food", "conflict"]]},
        ])
        ds = load_dataset(p, Task.ASPE)
        assert ds.samples[0].labels == [AspectLabel("staff", Polarity.NEGATIVE)]
        # every label was a conflict: the sample degrades to the sentinel
        assert ds.samples[1].labels[0].is_sentinel()

    def test_malformed_line_reports_position(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"text": "x", "labels": []}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            load_dataset(p, Task.ASPE)

    def test_error_line_counts_from_one_and_counts_blank_lines(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('\n{"text": "x", "labels": [["food", "meh"]]}\n')
        with pytest.raises(ValueError, match="^unknown polarity 'meh' at line 2$"):
            load_dataset(p, Task.ASPE)

    def test_ids_count_records_not_lines(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"text": "a", "labels": []}\n\n{"text": "b", "labels": []}\n')
        assert [s.id for s in load_dataset(p, Task.ASPE).samples] == [0, 1]

    def test_unknown_polarity_rejected(self, tmp_path):
        p = tmp_path / "d.jsonl"
        _write_jsonl(p, [{"text": "x", "labels": [["food", "meh"]]}])
        with pytest.raises(ValueError, match="unknown polarity"):
            load_dataset(p, Task.ASPE)

    def test_atsc_requires_aspect(self, tmp_path):
        p = tmp_path / "d.jsonl"
        _write_jsonl(p, [{"text": "x", "labels": [["food", "positive"]]}])
        with pytest.raises(ValueError, match="aspect"):
            load_dataset(p, Task.ATSC)

    @pytest.mark.parametrize("term, message", [
        ("fries; salad", "contains the label separator"),
        (" ", "blank aspect term"),
        (3, "malformed label"),
    ])
    def test_term_the_grammar_cannot_round_trip_is_rejected(self, tmp_path, term, message):
        p = tmp_path / "d.jsonl"
        _write_jsonl(p, [
            {"text": "x", "labels": [["food", "positive"]]},
            {"text": "y", "labels": [[term, "positive"]]},
        ])
        with pytest.raises(ValueError, match=f"{message}.*line 2"):
            load_dataset(p, Task.ASPE)

    @pytest.mark.parametrize("field, value, task", [
        ("text", 5, Task.ASPE),
        ("labels", 5, Task.ASPE),
        ("aspect", 5, Task.ATSC),
    ])
    def test_field_of_the_wrong_json_type_is_rejected(self, tmp_path, field, value, task):
        p = tmp_path / "d.jsonl"
        record = {"text": "x", "labels": [["food", "positive"]], "aspect": "food"}
        _write_jsonl(p, [record, {**record, field: value}])
        with pytest.raises(ValueError, match=f"^malformed record \\({field} is int\\) at line 2$"):
            load_dataset(p, task)

    def test_round_trip_save_load(self, tmp_path):
        train, _ = generate_synthetic(30, 5, 3)
        p = tmp_path / "d.jsonl"
        save_dataset(train, p)
        back = load_dataset(p, Task.ASPE)
        assert [s.text for s in back.samples] == [s.text for s in train.samples]
        assert [s.labels for s in back.samples] == [s.labels for s in train.samples]


class TestSerialize:
    def test_aspe_single(self):
        s = _sample("The food was good .", [("food", Polarity.POSITIVE)])
        assert serialize_label(s, Task.ASPE) == "food: positive"

    def test_aspe_sentinel(self):
        s = _sample("What a night .", [(NO_ASPECT_TERM, Polarity.NONE)])
        assert serialize_label(s, Task.ASPE) == "noaspectterm: none"

    def test_ate_joins_terms(self):
        s = _sample("x", [("falafel", Polarity.NEGATIVE), ("chicken", Polarity.POSITIVE)])
        assert serialize_label(s, Task.ATE) == "falafel; chicken"

    def test_atsc_designated_aspect(self):
        s = _sample(
            "x", [("food", Polarity.POSITIVE), ("staff", Polarity.NEGATIVE)],
            aspect="staff",
        )
        assert serialize_label(s, Task.ATSC) == "negative"


class TestParse:
    def test_single_pair(self):
        assert parse_output("food: positive", Task.ASPE) == [
            AspectLabel("food", Polarity.POSITIVE)
        ]

    def test_empty(self):
        assert parse_output("", Task.ASPE) == []

    def test_comma_bearing_term(self):
        out = parse_output(
            "asparagus, truffle oil, parmesan bruschetta: positive", Task.ASPE
        )
        assert out == [
            AspectLabel("asparagus, truffle oil, parmesan bruschetta", Polarity.POSITIVE)
        ]

    def test_splits_on_last_colon(self):
        out = parse_output("note: the food: positive", Task.ASPE)
        assert out == [AspectLabel("note: the food", Polarity.POSITIVE)]

    def test_unknown_polarity_becomes_reject(self):
        out = parse_output("food: great", Task.ASPE)
        assert out == [AspectLabel("food", REJECT)]

    def test_segment_without_colon_dropped_and_counted(self):
        labels, dropped = parse_output_with_diagnostics("food positive", Task.ASPE)
        assert labels == [] and dropped == 1

    def test_hash_compat_flag(self):
        labels, dropped = parse_output_with_diagnostics("food#positive", Task.ASPE)
        assert labels == [] and dropped == 1

    def test_ate_terms(self):
        assert parse_output("falafel; chicken", Task.ATE) == [
            AspectLabel("falafel", None), AspectLabel("chicken", None)
        ]

    def test_atsc_polarity_word(self):
        assert parse_output("negative", Task.ATSC) == [AspectLabel("", Polarity.NEGATIVE)]
        assert parse_output("gibberish words", Task.ATSC) == [AspectLabel("", REJECT)]


class TestSynthetic:
    def test_determinism(self):
        a = generate_synthetic(30, 5, 7)
        b = generate_synthetic(30, 5, 7)
        assert [s.text for s in a[0].samples] == [s.text for s in b[0].samples]
        assert [s.labels for s in a[1].samples] == [s.labels for s in b[1].samples]

    # sha256 of save_dataset's bytes for generate_synthetic(500, 100, seed), the
    # corpus of the paper's ABSA runs; a change to any draw changes them
    PINNED = {
        (0, "train"): "9595a972d1eedab8d5f1f6be5fd9dda1237d651f6d70916b4dd08a6f08d3c092",
        (0, "test"): "9ffad6f7049be9ceaa0ec7b2878ad3b00633dd24ddea882eb875d409c9d4bba5",
        (1, "train"): "c16f4fbc26cfc023628ae083aab42165bfa0c2900134964b0187c398f062fcc3",
        (1, "test"): "09a23125f704f447f7ff3926065cdfa1318aa0c893ef11c37ee1af109312eb25",
        (101, "train"): "40b2fc81063fec052484509d4b765364700bcd1ef08f0e00b38e82728d497829",
        (101, "test"): "aa7adf9650c0f8715fde341b77a2dfc6ab5adcc922342a30f5cd6fc49fac4866",
    }
    PINNED_ATSC_1 = {
        "train": "d9ef83939da2281545d64aba3a59888ca8a43ca8a1ad685bb7e62056af1b81dc",
        "test": "12a92393449befa119ae62617bbc4f57722e8264aa5259b92e5fc8e5dd301a89",
    }

    @staticmethod
    def _sha256(dataset, path):
        save_dataset(dataset, path)
        return hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.parametrize("seed", [0, 1, 101])
    def test_corpus_bytes_are_pinned(self, seed, tmp_path):
        train, test = generate_synthetic(500, 100, seed)
        for split, ds in (("train", train), ("test", test)):
            assert self._sha256(ds, tmp_path / "d.jsonl") == self.PINNED[seed, split]

    def test_atsc_corpus_bytes_are_pinned(self, tmp_path):
        train, test = generate_synthetic(500, 100, 1)
        for split, ds in (("train", train), ("test", test)):
            got = self._sha256(to_atsc(ds), tmp_path / "d.jsonl")
            assert got == self.PINNED_ATSC_1[split]

    @pytest.mark.parametrize("seed", [0, 7])
    def test_polarity_draw_is_generator_choice(self, seed):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(100_000):
            want = _POLARITY_CHOICES[b.choice(len(_POLARITY_CHOICES), p=_POLARITY_WEIGHTS)]
            assert _draw_polarity(a) == want
        # and the two streams stand at the same place
        assert a.bit_generator.state == b.bit_generator.state

    def test_sizes(self):
        train, test = generate_synthetic(500, 100, 0)
        assert len(train) == 500 and len(test) == 100

    def test_full_corpus_round_trip(self):
        train, test = generate_synthetic(200, 40, 5)
        for ds in (train, test):
            for s in ds.samples:
                for task in (Task.ASPE, Task.ATE):
                    got = parse_output(serialize_label(s, task), task)
                    want = [
                        AspectLabel(l.term, l.polarity if task == Task.ASPE else
                                    (Polarity.NONE if l.term == NO_ASPECT_TERM else None))
                        for l in s.labels
                    ]
                    assert got == want, (s.text, task)


class TestViews:
    def test_with_task_ate(self):
        train, _ = generate_synthetic(25, 5, 1)
        ate = with_task(train, Task.ATE)
        assert ate.task == Task.ATE
        assert ate.samples is train.samples

    def test_with_task_refuses_atsc(self):
        train, _ = generate_synthetic(25, 5, 1)
        with pytest.raises(ValueError):
            with_task(train, Task.ATSC)

    def test_to_atsc_expands_aspects(self):
        train, _ = generate_synthetic(40, 5, 2)
        atsc = to_atsc(train)
        want = sum(
            sum(1 for l in s.labels if not l.is_sentinel()) for s in train.samples
        )
        assert len(atsc) == want
        for s in atsc.samples:
            assert s.aspect is not None
            assert len(s.labels) == 1


def test_normalize_term():
    assert normalize_term("  Food ") == "food"


_TERM_CHARS = st.one_of(st.sampled_from(list("aB :;#\t\n")), st.characters())
_LABEL = st.one_of(
    st.builds(
        AspectLabel,
        st.text(_TERM_CHARS, min_size=1, max_size=8),
        st.sampled_from([Polarity.POSITIVE, Polarity.NEGATIVE, Polarity.NEUTRAL]),
    ),
    st.just(SENTINEL),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_LABEL, min_size=1, max_size=4))
def test_every_accepted_label_list_survives_the_grammar(labels):
    sample = Sample(id=0, text="x", labels=labels)
    try:
        _check_sample(sample)
    except ValueError:
        assume(False)
    want = [normalize_term(l.term) for l in labels]
    for task in (Task.ATE, Task.ASPE):
        back = parse_output(serialize_label(sample, task), task)
        assert [normalize_term(l.term) for l in back] == want
    assert [l.polarity for l in back] == [l.polarity for l in labels]  # ASPE's


def _sample(text, pairs, aspect=None):
    return Sample(
        id=0, text=text,
        labels=[AspectLabel(t, p) for t, p in pairs],
        aspect=aspect,
    )
