import ast
import logging
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from exrank.config import Config
from exrank.corpus import (
    NO_ASPECT_TERM,
    REJECT,
    AspectLabel,
    Polarity,
    Dataset,
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
        from exrank.alternating import build_vocabulary
        from exrank.scorer import init_scorer

        train, test, cfg, _, retr = trained_small
        k = len(train)
        # a scorer whose vocabulary holds the example indices up to k
        vocab = build_vocabulary(train, Config(**{**cfg.to_dict(), "k": k}))
        scorer = init_scorer(vocab, d=cfg.d, max_len=cfg.max_len, seed=0)
        _, dump = run_inference(scorer, retr, test, k, AblationMode.FULL, train, cfg)
        pool_ids = sorted(s.id for s in train.samples)
        assert {rec["id"] for rec in dump} <= set(pool_ids)  # the ids do collide
        for rec in dump:
            assert sorted(rec["example_ids"]) == pool_ids

    def test_k_beyond_the_vocabulary_example_indices_is_refused(self, trained_small):
        train, test, cfg, scorer, retr = trained_small
        for mode in (AblationMode.FULL, AblationMode.NO_RETRIEVER):
            with pytest.raises(ValueError, match=r"\['9-', '10-'\] as <unk> at k=10"):
                run_inference(scorer, retr, test, 10, mode, train, cfg)
        # a no_instruction prompt carries no example
        run_inference(scorer, retr, test, 10, AblationMode.NO_INSTRUCTION, train, cfg)

    def test_the_vocabulary_is_checked_for_the_examples_prompts_carry(self):
        from exrank.alternating import build_vocabulary
        from exrank.retriever import init_retriever
        from exrank.scorer import init_scorer

        train, test = generate_synthetic(20, 2, 0)
        pool = Dataset(train.samples[:9], train.task, train.split)
        cfg = Config(k=2, d=8, d_r=8, max_gen_len=4, seed=0)
        vocab = build_vocabulary(pool, cfg)  # example indices 1 to 8
        scorer = init_scorer(vocab, d=cfg.d, max_len=cfg.max_len, seed=0)
        retr = init_retriever(vocab, d_r=cfg.d_r, max_len=cfg.max_len, seed=0)
        # a query of the pool's own split does not carry itself: eight examples
        _, dump = run_inference(scorer, retr, pool, 9, AblationMode.FULL, pool, cfg)
        assert [len(rec["example_ids"]) for rec in dump] == [8] * 9
        rows = k_sweep(scorer, retr, pool, 9, pool, cfg)
        assert [row.k for row in rows] == list(range(10))
        # a held-out query carries all nine
        with pytest.raises(ValueError, match=r"\['9-'\] as <unk> at k=9"):
            run_inference(scorer, retr, test, 9, AblationMode.FULL, pool, cfg)
        with pytest.raises(ValueError, match=r"\['9-'\] as <unk> at k=9"):
            k_sweep(scorer, retr, test, 9, pool, cfg)

    def test_a_pool_of_another_task_is_refused_before_any_index_or_answer(
            self, trained_small, monkeypatch):
        from exrank import evaluation
        from exrank import scorer as scorer_mod
        from exrank.corpus import with_task

        train, test, cfg, scorer, retr = trained_small
        ate_test = with_task(test, Task.ATE)
        # prompts that carry no pool example mix no tasks
        run_inference(scorer, retr, ate_test, 0, AblationMode.FULL, train, cfg)
        run_inference(scorer, retr, ate_test, 2, AblationMode.NO_INSTRUCTION, train, cfg)
        calls = []
        monkeypatch.setattr(evaluation, "build_index", lambda *args: calls.append(args))
        monkeypatch.setattr(scorer_mod, "generate", lambda *args: calls.append(args))
        for mode in (AblationMode.FULL, AblationMode.NO_RETRIEVER):
            with pytest.raises(ValueError, match="the queries are ate but the example "
                                                 "pool is aspe"):
                run_inference(scorer, retr, ate_test, 1, mode, train, cfg)
        assert calls == []

    def test_prompt_len_counts_the_tokens_of_the_prompt(self, trained_small):
        train, test, cfg, scorer, retr = trained_small
        _, dump = run_inference(scorer, retr, test, 2, AblationMode.FULL, train, cfg)
        for rec in dump:
            assert type(rec["prompt"]) is str
            assert rec["prompt_len"] == len(rec["prompt"].split())

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

    def test_no_retriever_refuses_queries_of_the_pool_split_before_any_draw(
            self, trained_small, monkeypatch):
        from exrank import evaluation
        from exrank import scorer as scorer_mod

        train, test, cfg, scorer, retr = trained_small
        draws = []
        monkeypatch.setattr(evaluation, "substream", lambda *args: draws.append(args))
        monkeypatch.setattr(scorer_mod, "generate", lambda *args: draws.append(args))
        message = "no_retriever draws one fixed set from the train split"
        with pytest.raises(ValueError, match=message):
            evaluation.prompt_builder(scorer.vocab, retr, train, train, 2,
                                      AblationMode.NO_RETRIEVER, cfg)
        with pytest.raises(ValueError, match=message):
            run_inference(scorer, retr, train, 2, AblationMode.NO_RETRIEVER, train, cfg)
        assert draws == []

    def test_atsc_split(self, trained_small):
        from exrank.corpus import to_atsc

        train, test, cfg, scorer, retr = trained_small
        atsc_test = to_atsc(test)
        atsc_cfg = Config(**{**cfg.to_dict(), "task": "atsc"})
        m, dump = run_inference(
            scorer, retr, atsc_test, 0, AblationMode.FULL, train, atsc_cfg
        )
        assert 0.0 <= m.accuracy <= 1.0
        assert len(dump) == len(atsc_test)

    @pytest.mark.parametrize("mode", list(AblationMode))
    def test_without_records_the_dump_is_none_and_the_metrics_equal(
            self, trained_small, mode):
        train, test, cfg, scorer, retr = trained_small
        tight = replace(scorer, max_len=40)
        default, dump = run_inference(tight, retr, test, 2, mode, train, cfg)
        metrics, none = run_inference(tight, retr, test, 2, mode, train, cfg,
                                      records=False)
        assert none is None and dump
        assert metrics == default

    def test_truncated_counts_the_prompts_longer_than_the_scorer_limit(
            self, trained_small):
        train, test, cfg, scorer, retr = trained_small
        _, dump = run_inference(scorer, retr, test, 2, AblationMode.FULL, train, cfg)
        lens = sorted(rec["prompt_len"] for rec in dump)
        # a limit that cuts some prompts but not all
        cut = replace(scorer, max_len=lens[len(lens) // 2])
        metrics, dump = run_inference(cut, retr, test, 2, AblationMode.FULL, train, cfg)
        truncated = sum(rec["prompt_len"] > cut.max_len for rec in dump)
        assert 0 < truncated < len(test)
        assert metrics.truncated == truncated
        assert "truncated" not in metrics.row()

    @pytest.mark.parametrize("mode", [AblationMode.NO_INSTRUCTION,
                                      AblationMode.NO_RETRIEVER])
    def test_truncated_counts_the_long_prompts_of_the_other_modes(self, trained_small,
                                                                  mode):
        # no_instruction prompts are plain strs, no_retriever ones carry blocks
        train, test, cfg, scorer, retr = trained_small
        _, dump = run_inference(scorer, retr, test, 2, mode, train, cfg)
        assert all(rec["prompt_len"] == len(rec["prompt"].split()) for rec in dump)
        lens = sorted(rec["prompt_len"] for rec in dump)
        cut = replace(scorer, max_len=lens[len(lens) // 2])
        metrics, dump = run_inference(cut, retr, test, 2, mode, train, cfg)
        truncated = sum(rec["prompt_len"] > cut.max_len for rec in dump)
        assert 0 < truncated < len(test)
        assert metrics.truncated == truncated

    def test_k_above_the_eligible_pool_warns_once_per_call(self, caplog):
        from exrank.alternating import build_vocabulary
        from exrank.retriever import init_retriever
        from exrank.scorer import init_scorer

        train, test = generate_synthetic(20, 6, 0)
        cfg = Config(k=30, d=8, d_r=8, max_gen_len=4, seed=0)
        vocab = build_vocabulary(train, cfg)
        scorer = init_scorer(vocab, d=cfg.d, max_len=cfg.max_len, seed=0)
        retr = init_retriever(vocab, d_r=cfg.d_r, max_len=cfg.max_len, seed=0)
        # a query of the pool's own split may not retrieve itself
        for queries, eligible in ((test, 20), (train, 19)):
            caplog.clear()
            with caplog.at_level(logging.WARNING):
                _, dump = run_inference(scorer, retr, queries, 30, AblationMode.FULL,
                                        train, cfg)
            assert [r.getMessage() for r in caplog.records] == [
                f"k=30 exceeds the {eligible} eligible pool candidates; "
                "prompts carry all of them"
            ]
            assert all(len(rec["example_ids"]) == eligible for rec in dump)


def test_only_the_prompt_builder_and_labeling_render_prompts():
    # a prompt rendered anywhere else can drift from the ones that fine-tuning
    # and inference build, and escape their vocabulary check
    from exrank import evaluation

    renderers = {"render", "no_instruction_prompt"}
    callers = set()
    for path in sorted(Path(evaluation.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and (
                        getattr(node.func, "id", None) in renderers
                        or getattr(node.func, "attr", None) in renderers):
                    callers.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert callers == {"evaluation.prompt_builder", "contrastive.label_candidates"}


def test_only_retriever_eligible_compares_splits():
    # a second membership rule could give a query a pool sample in one stage
    # and withhold it in another
    from exrank import evaluation

    sites = set()
    for path in sorted(Path(evaluation.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Compare) and any(
                        getattr(side, "attr", None) == "split"
                        for side in (node.left, *node.comparators)):
                    sites.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert sites == {"retriever.eligible"}


def test_readme_lists_the_ablation_modes():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Ablation modes", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `(\w+)`:", section, flags=re.MULTILINE)
    assert listed == [m.value for m in AblationMode]


class TestKSweep:
    def test_rows_and_row0(self, trained_small):
        train, test, cfg, scorer, retr = trained_small
        rows = k_sweep(scorer, retr, test, 7, train, cfg)
        assert [row.k for row in rows] == list(range(8))
        direct, _ = run_inference(
            scorer, retr, test, 0, AblationMode.FULL, train, cfg
        )
        assert rows[0].metrics == direct

    def test_rows_above_the_pool_repeat_its_row_without_generating(self, monkeypatch):
        from exrank import scorer as scorer_mod
        from exrank.alternating import build_vocabulary
        from exrank.retriever import init_retriever
        from exrank.scorer import init_scorer

        train, test = generate_synthetic(20, 6, 0)
        pool = Dataset(train.samples[:4], train.task, train.split)
        cfg = Config(k=2, d=8, d_r=8, max_gen_len=4, seed=0)
        vocab = build_vocabulary(pool, cfg)
        scorer = init_scorer(vocab, d=cfg.d, max_len=cfg.max_len, seed=0)
        retr = init_retriever(vocab, d_r=cfg.d_r, max_len=cfg.max_len, seed=0)
        generate, generated = scorer_mod.generate, []

        def counting(*args):
            generated.append(args)
            return generate(*args)

        monkeypatch.setattr(scorer_mod, "generate", counting)
        rows = k_sweep(scorer, retr, test, 7, pool, cfg)
        assert len(generated) == 6 * 5  # the six queries at k = 0..4
        assert [row.k for row in rows] == list(range(8))
        assert all(replace(row, k=4) == rows[4] for row in rows[5:])

    def test_k_max_beyond_the_vocabulary_is_refused_before_any_generation(
            self, trained_small, monkeypatch):
        from exrank import scorer as scorer_mod

        train, test, cfg, scorer, retr = trained_small
        generated = []
        monkeypatch.setattr(scorer_mod, "generate", lambda *args: generated.append(args))
        with pytest.raises(ValueError, match=r"\['9-'\] as <unk> at k=9"):
            k_sweep(scorer, retr, test, 9, train, cfg)
        assert generated == []

    def test_a_pool_of_another_task_is_refused_before_any_generation(
            self, trained_small, monkeypatch):
        from exrank import scorer as scorer_mod
        from exrank.corpus import with_task

        train, test, cfg, scorer, retr = trained_small
        generated = []
        monkeypatch.setattr(scorer_mod, "generate", lambda *args: generated.append(args))
        with pytest.raises(ValueError, match="the queries are ate but the example "
                                             "pool is aspe"):
            k_sweep(scorer, retr, with_task(test, Task.ATE), 2, train, cfg)
        assert generated == []

    def test_truncation_flag(self, trained_small):
        train, test, cfg, scorer, retr = trained_small
        tight = Config(**{**cfg.to_dict(), "max_len": 8})
        rows = k_sweep(replace(scorer, max_len=8), retr, test, 2, train, tight)
        assert all(row.truncated for row in rows)

    def test_truncation_flags_equal_those_of_the_records(self, trained_small):
        train, test, cfg, scorer, retr = trained_small
        _, dump = run_inference(scorer, retr, test, 0, AblationMode.FULL, train, cfg)
        # no k=0 prompt is cut, and some longer ones are
        cut = replace(scorer, max_len=max(rec["prompt_len"] for rec in dump))
        rows = k_sweep(cut, retr, test, 2, train, cfg)
        for row in rows:
            _, dump = run_inference(cut, retr, test, row.k, AblationMode.FULL, train,
                                    cfg)
            longer = [rec["prompt_len"] > cut.max_len for rec in dump]
            assert row.truncated == any(longer)
            assert row.metrics.truncated == sum(longer)
        assert [row.truncated for row in rows] == [False, True, True]

    def test_truncation_is_against_the_scorer_limit(self):
        from exrank.alternating import build_vocabulary
        from exrank.retriever import init_retriever
        from exrank.scorer import init_scorer

        train, test = generate_synthetic(40, 6, 0)
        cfg = Config(k=2, d=8, d_r=8, max_len=128, max_gen_len=4, seed=0)
        vocab = build_vocabulary(train, cfg)
        retr = init_retriever(vocab, d_r=cfg.d_r, max_len=cfg.max_len, seed=0)
        short = init_scorer(vocab, d=cfg.d, max_len=16, seed=0)
        rows = k_sweep(short, retr, test, 2, train, cfg)
        # every k >= 1 prompt (definition plus examples) exceeds 16 tokens
        assert [row.truncated for row in rows[1:]] == [True, True]
        # a tighter Config limit does not cut a prompt the scorer keeps whole
        wide = init_scorer(vocab, d=cfg.d, max_len=10_000, seed=0)
        tight = Config(**{**cfg.to_dict(), "max_len": 16})
        rows = k_sweep(wide, retr, test, 2, train, tight)
        assert not any(row.truncated for row in rows)


def test_sweep_and_schedule_run_inference_through_their_module_without_records(
        trained_small, tmp_path, monkeypatch):
    from exrank import alternating, evaluation
    from exrank.alternating import run_schedule

    train, test, cfg, scorer, retr = trained_small
    calls = []

    def counting(site, original):
        def wrapper(*args, **kwargs):
            calls.append((site, kwargs))
            return original(*args, **kwargs)
        return wrapper

    for module in (evaluation, alternating):
        monkeypatch.setattr(module, "run_inference",
                            counting(module.__name__, module.run_inference))
    k_sweep(scorer, retr, test, 2, train, cfg)
    assert calls == [("exrank.evaluation", {"records": False})] * 3
    calls.clear()
    run_schedule(train, Dataset(test.samples[:4], test.task, test.split),
                 replace(cfg, t=2, epochs_retriever=1, epochs_lm=1), tmp_path)
    assert calls == [("exrank.alternating", {"records": False})] * 3
