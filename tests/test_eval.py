import numpy as np
import pytest

from exrank.config import Config
from exrank.corpus import (
    NO_ASPECT_TERM,
    REJECT,
    AspectLabel,
    Polarity,
    Task,
    generate_synthetic,
)
from exrank.evaluation import (
    AblationMode,
    atsc_accuracy,
    k_sweep,
    run_inference,
    tuple_f1,
)

RNG = np.random.default_rng(20240820)

POS, NEG, NEU = Polarity.POSITIVE, Polarity.NEGATIVE, Polarity.NEUTRAL


class TestTupleF1:
    def test_hand_example(self):
        preds = [[AspectLabel("food", POS)]]
        golds = [[AspectLabel("food", POS), AspectLabel("service", NEG)]]
        m = tuple_f1(preds, golds, Task.ASPE)
        assert m.precision == 1.0
        assert m.recall == 0.5
        assert np.isclose(m.f1, 2.0 / 3.0)

    def test_perfect_prediction(self):
        golds = [[AspectLabel("food", POS)], [AspectLabel("staff", NEG)]]
        m = tuple_f1(golds, golds, Task.ASPE)
        assert m.f1 == 1.0

    def test_empty_preds(self):
        m = tuple_f1([[]], [[AspectLabel("food", POS)]], Task.ASPE)
        assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            tuple_f1([[]], [[], []], Task.ASPE)

    def test_sentinel_excluded_both_sides(self):
        sentinel = AspectLabel(NO_ASPECT_TERM, Polarity.NONE)
        m = tuple_f1([[sentinel]], [[sentinel]], Task.ASPE)
        assert m.counts == (0, 0, 0)
        assert m.f1 == 0.0

    def test_duplicates_deduplicated(self):
        pred = [AspectLabel("food", POS), AspectLabel("food", POS)]
        m = tuple_f1([pred], [[AspectLabel("food", POS)]], Task.ASPE)
        assert m.counts == (1, 1, 1)
        assert m.f1 == 1.0

    def test_term_normalization(self):
        m = tuple_f1([[AspectLabel(" Food ", POS)]], [[AspectLabel("food", POS)]],
                     Task.ASPE)
        assert m.f1 == 1.0

    def test_ate_matches_on_term_only(self):
        m = tuple_f1([[AspectLabel("food", None)]], [[AspectLabel("food", POS)]],
                     Task.ATE)
        assert m.f1 == 1.0

    def test_reject_never_matches(self):
        m = tuple_f1([[AspectLabel("food", REJECT)]], [[AspectLabel("food", POS)]],
                     Task.ASPE)
        assert m.counts[2] == 0

    def test_fuzz_against_brute_force(self):
        terms = ["food", "staff", "wine", "decor", "menu"]
        pols = [POS, NEG, NEU]
        for _ in range(300):
            n = int(RNG.integers(1, 6))
            preds, golds = [], []
            for _ in range(n):
                preds.append([
                    AspectLabel(terms[RNG.integers(5)], pols[RNG.integers(3)])
                    for _ in range(RNG.integers(0, 4))
                ])
                golds.append([
                    AspectLabel(terms[RNG.integers(5)], pols[RNG.integers(3)])
                    for _ in range(RNG.integers(0, 4))
                ])
            m = tuple_f1(preds, golds, Task.ASPE)
            tp = fp = fn = 0
            for p_labels, g_labels in zip(preds, golds):
                p = {(l.term.strip().lower(), l.polarity) for l in p_labels}
                g = {(l.term.strip().lower(), l.polarity) for l in g_labels}
                tp += len(p & g)
                fp += len(p - g)
                fn += len(g - p)
            prec = tp / (tp + fp) if tp + fp else 0.0
            rec = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
            assert np.isclose(m.precision, prec)
            assert np.isclose(m.recall, rec)
            assert np.isclose(m.f1, f1)


class TestAtscAccuracy:
    def test_hand_count(self):
        assert atsc_accuracy([POS, NEG], [POS, POS]).accuracy == 0.5

    def test_identical(self):
        assert atsc_accuracy([POS, NEG, NEU], [POS, NEG, NEU]).accuracy == 1.0

    def test_all_rejects(self):
        m = atsc_accuracy([REJECT, REJECT], [POS, NEG])
        assert m.accuracy == 0.0

    def test_none_gold_rejected(self):
        with pytest.raises(ValueError):
            atsc_accuracy([POS], [Polarity.NONE])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            atsc_accuracy([POS], [POS, NEG])


@pytest.fixture(scope="module")
def trained_small():
    from exrank.alternating import build_vocabulary, warmup_scorer
    from exrank.retriever import init_retriever
    from exrank.scorer import init_scorer

    train, test = generate_synthetic(60, 12, 0)
    cfg = Config(k=2, m=8, r=0.5, batch_size=2, lr=0.003, weight_decay=0.0,
                 d=16, d_r=16, seed=0, warmup_epochs=1, max_gen_len=16)
    vocab = build_vocabulary(train, cfg)
    scorer = init_scorer(vocab, d=cfg.d, max_len=cfg.max_len, seed=0)
    warmup_scorer(scorer, train, cfg)
    retr = init_retriever(vocab, d_r=cfg.d_r, max_len=cfg.max_len, seed=0)
    return train, test, cfg, scorer, retr


class TestRunInference:
    def test_no_example_equals_full_k0(self, trained_small):
        train, test, cfg, scorer, retr = trained_small
        a, _ = run_inference(scorer, retr, test, 0, AblationMode.NO_EXAMPLE, train, cfg)
        b, _ = run_inference(scorer, retr, test, 0, AblationMode.FULL, train, cfg)
        assert a == b

    def test_dump_structure(self, trained_small):
        train, test, cfg, scorer, retr = trained_small
        _, dump = run_inference(scorer, retr, test, 2, AblationMode.FULL, train, cfg)
        assert len(dump) == len(test)
        rec = dump[0]
        for key in ("id", "prompt", "prompt_len", "raw_output", "parsed", "gold",
                    "example_ids"):
            assert key in rec
        assert len(rec["example_ids"]) == 2

    def test_full_examples_exclude_query(self, trained_small):
        train, test, cfg, scorer, retr = trained_small
        _, dump = run_inference(scorer, retr, train, 2, AblationMode.FULL, train, cfg)
        for rec in dump:
            assert rec["id"] not in rec["example_ids"]

    def test_test_split_examples_may_share_the_query_id(self, trained_small):
        train, test, cfg, scorer, retr = trained_small
        k = len(train)
        _, dump = run_inference(scorer, retr, test, k, AblationMode.FULL, train, cfg)
        pool_ids = sorted(s.id for s in train.samples)
        assert {rec["id"] for rec in dump} <= set(pool_ids)  # the ids do collide
        for rec in dump:
            assert sorted(rec["example_ids"]) == pool_ids

    def test_no_instruction_prompt_shape(self, trained_small):
        train, test, cfg, scorer, retr = trained_small
        _, dump = run_inference(
            scorer, retr, test, 2, AblationMode.NO_INSTRUCTION, train, cfg
        )
        for rec in dump:
            assert rec["prompt"].startswith("Input: ")
            assert "Definition" not in rec["prompt"]
            assert rec["example_ids"] == []

    def test_no_retriever_examples_fixed_across_queries(self, trained_small):
        train, test, cfg, scorer, retr = trained_small
        _, dump = run_inference(
            scorer, retr, test, 2, AblationMode.NO_RETRIEVER, train, cfg
        )
        first = dump[0]["example_ids"]
        assert len(first) == 2
        assert all(rec["example_ids"] == first for rec in dump)

    def test_frozen_lm_prompts_match_full(self, trained_small):
        train, test, cfg, scorer, retr = trained_small
        _, a = run_inference(scorer, retr, test, 2, AblationMode.FULL, train, cfg)
        _, b = run_inference(scorer, retr, test, 2, AblationMode.FROZEN_LM, train, cfg)
        assert [r["prompt"] for r in a] == [r["prompt"] for r in b]

    def test_atsc_split(self, trained_small):
        from exrank.corpus import to_atsc

        train, test, cfg, scorer, retr = trained_small
        atsc_test = to_atsc(test)
        atsc_cfg = Config(**{**cfg.to_dict(), "task": "atsc"})
        m, dump = run_inference(
            scorer, retr, atsc_test, 0, AblationMode.NO_EXAMPLE, train, atsc_cfg
        )
        assert 0.0 <= m.accuracy <= 1.0
        assert len(dump) == len(atsc_test)


class TestKSweep:
    def test_rows_and_row0(self, trained_small):
        train, test, cfg, scorer, retr = trained_small
        rows = k_sweep(scorer, retr, test, 7, train, cfg)
        assert [row.k for row in rows] == list(range(8))
        direct, _ = run_inference(
            scorer, retr, test, 0, AblationMode.NO_EXAMPLE, train, cfg
        )
        assert rows[0].metrics == direct

    def test_truncation_flag(self, trained_small):
        train, test, cfg, scorer, retr = trained_small
        tight = Config(**{**cfg.to_dict(), "max_len": 8})
        rows = k_sweep(scorer, retr, test, 2, train, tight)
        assert all(row.truncated for row in rows)
