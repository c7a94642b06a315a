import logging
import re
from pathlib import Path

import numpy as np
import pytest

from exrank import alternating
from exrank.alternating import (
    build_vocabulary,
    check_schedule_inputs,
    finetune_lm,
    run_schedule,
    stage_tag,
    warmup_scorer,
)
from exrank.config import Config
from exrank.contrastive import train_retriever
from exrank.corpus import Dataset, Task, generate_synthetic, serialize_label, to_atsc
from exrank.evaluation import AblationMode, run_inference
from exrank.retriever import build_index, init_retriever, load_retriever, retrieve
from exrank.scorer import init_scorer, load_scorer, score
from exrank.template import load_templates, make_candidate, render, task_input
from exrank.vocab import UNK_ID, Vocabulary


def _cfg(seed=0, **over):
    base = dict(
        k=2, m=8, r=0.5, batch_size=2, lr=0.003, weight_decay=0.0,
        epochs_retriever=1, epochs_lm=1, t=1, d=16, d_r=16,
        max_gen_len=16, seed=seed, warmup_epochs=1,
    )
    base.update(over)
    return Config(**base)


def _mean_dev_score(scorer, dev, cfg):
    templates = load_templates(cfg.template_dir)
    totals = []
    for s in dev.samples:
        prompt = render(templates, dev.task, [], task_input(s, dev.task))
        totals.append(score(scorer, prompt, serialize_label(s, dev.task)).total)
    return float(np.mean(totals))


class TestVocabulary:
    def test_covers_corpus_and_scaffolding(self):
        train, _ = generate_synthetic(40, 5, 0)
        vocab = build_vocabulary(train, _cfg())
        for s in train.samples:
            assert UNK_ID not in vocab.encode(s.text)
            assert UNK_ID not in vocab.encode(serialize_label(s, train.task))
        prompt = render(load_templates(), train.task, [], "x")
        ids = vocab.encode(prompt)
        assert ids.count(UNK_ID) <= 1  # only the unseen input token

    @staticmethod
    def _unknown_tokens(train, cfg, n_examples=8):
        """<unk> tokens over every train prompt carrying ``n_examples`` examples."""
        vocab = build_vocabulary(train, cfg)
        templates = load_templates(cfg.template_dir)
        examples = [make_candidate(s, train.task) for s in train.samples[:n_examples]]
        return sum(
            vocab.encode(render(templates, train.task, examples,
                                task_input(s, train.task))).count(UNK_ID)
            for s in train.samples
        )

    def test_prompts_with_more_than_eight_examples_have_no_unknown_token(self):
        train, _ = generate_synthetic(40, 1, 0)
        assert self._unknown_tokens(train, _cfg(k=10, m=20), n_examples=10) == 0
        assert self._unknown_tokens(train, _cfg(finetune_k=9), n_examples=9) == 0

    def test_atsc_prompts_have_no_unknown_token(self):
        train = to_atsc(generate_synthetic(40, 1, 0)[0])
        assert self._unknown_tokens(train, _cfg(task=Task.ATSC)) == 0

    def test_custom_template_prompts_have_no_unknown_token(self, tmp_path):
        for t in Task:
            (tmp_path / f"def_{t.value}.txt").write_text(f"Solve {t.value}.")
        (tmp_path / "example_block.txt").write_text(
            "Sample {index}: Question {input} Answer {output}")
        (tmp_path / "target_block.txt").write_text("Query: {input} Reply:")
        train, _ = generate_synthetic(40, 1, 0)
        assert self._unknown_tokens(train, _cfg(template_dir=str(tmp_path))) == 0

    def test_scaffold_keeps_the_token_order_of_the_built_in_templates(self):
        # every fingerprint depends on this order
        train, _ = generate_synthetic(40, 1, 0)
        tokens = build_vocabulary(train, _cfg()).tokens
        definitions = Vocabulary.build(load_templates().definitions[t] for t in Task).tokens
        scaffold = ["Definition:", "Example", "Now", "complete", "following-", "Input:",
                    "Output:", *(f"{i}-" for i in range(1, 9)), "The"]
        assert tokens[:len(definitions) + len(scaffold)] == definitions + scaffold

    def test_deterministic(self):
        train, _ = generate_synthetic(40, 5, 0)
        a = build_vocabulary(train, _cfg())
        b = build_vocabulary(train, _cfg())
        assert a.tokens == b.tokens


class TestWarmup:
    def test_improves_zero_example_likelihood(self):
        train, test, = generate_synthetic(60, 12, 0)
        cfg = _cfg(warmup_epochs=2)
        vocab = build_vocabulary(train, cfg)
        scorer = init_scorer(vocab, d=cfg.d, max_len=cfg.max_len, seed=0)
        before = _mean_dev_score(scorer, test, cfg)
        warmup_scorer(scorer, train, cfg)
        after = _mean_dev_score(scorer, test, cfg)
        assert after > before

    def test_a_fresh_scorer_scores_every_target_at_chance(self):
        train, _ = generate_synthetic(20, 2, 0)
        cfg = _cfg()
        vocab = build_vocabulary(train, cfg)
        scorer = init_scorer(vocab, d=cfg.d, max_len=cfg.max_len, seed=0)
        templates = load_templates(cfg.template_dir)
        for s in train.samples:
            target = serialize_label(s, train.task)
            prompt = render(templates, train.task, [], task_input(s, train.task))
            chance = (len(vocab.encode(target)) + 1) * np.log(len(vocab))
            assert abs(score(scorer, prompt, target).total + chance) < 1e-12

    @pytest.mark.parametrize("lr, warns", [(None, True), (3e-3, False)])
    def test_warns_when_the_warm_up_stays_near_chance(self, caplog, lr, warns):
        train, _ = generate_synthetic(120, 20, 3)
        cfg = Config(seed=3, t=1) if lr is None else Config(seed=3, t=1, lr=lr)
        vocab = build_vocabulary(train, cfg)
        scorer = init_scorer(vocab, d=cfg.d, max_len=cfg.max_len, seed=cfg.seed)
        with caplog.at_level(logging.WARNING, logger="exrank.alternating"):
            assert warmup_scorer(scorer, train, cfg) is scorer
        warnings = [r.getMessage() for r in caplog.records]
        if warns:  # the defaults: mean loss 17.33 against 17.59
            assert len(warnings) == 1
            assert "0.985 of the untrained decoder's 17.5875" in warnings[0]
            assert "lr=5e-05 and warmup_epochs=1" in warnings[0]
        else:  # mean loss 8.56
            assert warnings == []

    def test_the_warm_up_warning_names_no_fixed_lr(self, caplog):
        # at lr=3e-3 this warm-up still stays near chance
        train, _ = generate_synthetic(20, 2, 0)
        cfg = Config(seed=0, d=16, lr=3e-3)
        vocab = build_vocabulary(train, cfg)
        scorer = init_scorer(vocab, d=cfg.d, max_len=cfg.max_len, seed=cfg.seed)
        with caplog.at_level(logging.WARNING, logger="exrank.alternating"):
            warmup_scorer(scorer, train, cfg)
        [warning] = [r.getMessage() for r in caplog.records]
        assert "0.932 of the untrained decoder's" in warning
        assert warning.endswith("at lr=0.003 and warmup_epochs=1; "
                                "a larger lr or more warmup_epochs is needed")


class TestFinetuneLM:
    def test_zero_epochs_unchanged(self):
        train, _ = generate_synthetic(40, 5, 0)
        cfg = _cfg(epochs_lm=0)
        vocab = build_vocabulary(train, cfg)
        scorer = init_scorer(vocab, d=cfg.d, max_len=cfg.max_len, seed=0)
        retr = init_retriever(vocab, d_r=cfg.d_r, max_len=cfg.max_len, seed=0)
        before = {k: v.copy() for k, v in scorer.params.items()}
        finetune_lm(scorer, retr, train, cfg)
        for k in before:
            assert np.array_equal(before[k], scorer.params[k])

    def test_empty_training_set(self):
        train, _ = generate_synthetic(40, 5, 0)
        cfg = _cfg(epochs_lm=2)
        vocab = build_vocabulary(train, cfg)
        scorer = init_scorer(vocab, d=cfg.d, max_len=cfg.max_len, seed=0)
        retr = init_retriever(vocab, d_r=cfg.d_r, max_len=cfg.max_len, seed=0)
        before = {k: v.copy() for k, v in scorer.params.items()}
        empty = Dataset(samples=[], task=train.task, split=train.split)
        finetune_lm(scorer, retr, empty, cfg)
        for k in before:
            assert np.array_equal(before[k], scorer.params[k])

    def test_logs_epoch_mean_loss(self, monkeypatch, caplog):
        train, _ = generate_synthetic(20, 5, 0)
        cfg = _cfg(epochs_lm=1)
        vocab = build_vocabulary(train, cfg)
        scorer = init_scorer(vocab, d=cfg.d, max_len=cfg.max_len, seed=0)
        retr = init_retriever(vocab, d_r=cfg.d_r, max_len=cfg.max_len, seed=0)
        losses = []
        step = alternating.finetune_step

        def recording_step(*args, **kwargs):
            state, loss = step(*args, **kwargs)
            losses.append(loss)
            return state, loss

        monkeypatch.setattr(alternating, "finetune_step", recording_step)
        with caplog.at_level(logging.INFO, logger="exrank.alternating"):
            finetune_lm(scorer, retr, train, cfg)
        assert len(losses) == len(train.samples)
        assert caplog.messages == [
            f"finetune-lm epoch 0 done (mean loss {np.mean(losses):.4f})"]

    def test_improves_mean_dev_score_over_seeds(self):
        wins = 0
        for seed in range(5):
            train, test = generate_synthetic(60, 12, seed)
            cfg = _cfg(seed=seed, epochs_lm=2)
            vocab = build_vocabulary(train, cfg)
            scorer = init_scorer(vocab, d=cfg.d, max_len=cfg.max_len, seed=seed)
            retr = init_retriever(vocab, d_r=cfg.d_r, max_len=cfg.max_len, seed=seed)
            before = _mean_dev_score(scorer, test, cfg)
            finetune_lm(scorer, retr, train, cfg)
            after = _mean_dev_score(scorer, test, cfg)
            if after > before:
                wins += 1
        assert wins >= 5

    def test_finetune_k_many_examples(self):
        train, _ = generate_synthetic(40, 5, 0)
        cfg = _cfg(finetune_k=3)
        vocab = build_vocabulary(train, cfg)
        scorer = init_scorer(vocab, d=cfg.d, max_len=cfg.max_len, seed=0)
        retr = init_retriever(vocab, d_r=cfg.d_r, max_len=cfg.max_len, seed=0)
        before = {k: v.copy() for k, v in scorer.params.items()}
        finetune_lm(scorer, retr, train, cfg)
        assert any(
            not np.array_equal(before[k], scorer.params[k]) for k in before
        )

    @staticmethod
    def _models(train, cfg):
        vocab = build_vocabulary(train, cfg)
        return (init_scorer(vocab, d=cfg.d, max_len=cfg.max_len, seed=cfg.seed),
                init_retriever(vocab, d_r=cfg.d_r, max_len=cfg.max_len, seed=cfg.seed))

    def test_finetune_k_above_the_candidates_warns_once_per_call(self, caplog):
        train, _ = generate_synthetic(20, 2, 0)
        cfg = _cfg(finetune_k=25, epochs_lm=2)
        scorer, retr = self._models(train, cfg)
        with caplog.at_level(logging.WARNING):
            finetune_lm(scorer, retr, train, cfg)
        assert caplog.messages == ["k=25 exceeds the 19 eligible pool candidates; "
                                   "prompts carry all of them"]

        # the same steps as a retrieval of finetune_k from an index over train
        # that excludes each sample itself
        oracle, _ = self._models(train, cfg)
        index = build_index(retr, train)

        templates = load_templates(cfg.template_dir)

        def every_other_sample(s):
            q_input = task_input(s, train.task)
            top = retrieve(retr, index, q_input, cfg.finetune_k, exclude_id=s.id)
            examples = [sc.candidate for sc in top]
            return render(templates, train.task, examples, q_input), examples

        with caplog.at_level(logging.ERROR):  # retrieve warns per query
            alternating._lm_epochs(oracle, train, cfg, cfg.epochs_lm,
                                   every_other_sample, "finetune-lm")
        assert scorer.params.keys() == oracle.params.keys()
        for key in scorer.params:
            assert scorer.params[key].tobytes() == oracle.params[key].tobytes()

    def test_a_finetune_k_beyond_the_vocabulary_indices_is_refused_before_any_step(
            self, monkeypatch):
        from exrank import evaluation

        train, _ = generate_synthetic(40, 8, 3)
        scorer, retr = self._models(train, _cfg(seed=3))  # example indices 1 to 8
        before = scorer.params.flat.copy()
        steps = []
        monkeypatch.setattr(alternating, "finetune_step", lambda *args: steps.append(args))
        monkeypatch.setattr(evaluation, "build_index", lambda *args: steps.append(args))
        message = r"tokens \['9-', '10-', '11-', '12-'\] as <unk> at k=12"
        with pytest.raises(ValueError, match=message):
            finetune_lm(scorer, retr, train, _cfg(seed=3, finetune_k=12))
        assert steps == []
        assert scorer.params.flat.tobytes() == before.tobytes()

    def test_finetune_k_zero_builds_no_index(self, monkeypatch):
        from exrank import evaluation
        from exrank import retriever as retriever_mod

        train, _ = generate_synthetic(20, 2, 0)
        cfg = _cfg(finetune_k=0, epochs_lm=1)
        scorer, retr = self._models(train, cfg)
        built = []
        # every module that binds build_index
        for module in (retriever_mod, evaluation, alternating):
            if hasattr(module, "build_index"):
                monkeypatch.setattr(module, "build_index",
                                    lambda *args: built.append(args))
        finetune_lm(scorer, retr, train, cfg)
        assert built == []


class TestSchedule:
    def test_t3_lineage_of_four(self, tmp_path):
        train, test = generate_synthetic(40, 8, 0)
        cfg = _cfg(t=3, r=0.3, m=6)
        state = run_schedule(train, test, cfg, tmp_path)
        assert len(state.scorer_ckpts) == 4
        assert len(state.retriever_ckpts) == 4
        for s in range(4):
            assert (tmp_path / f"scorer_{s}.ckpt.npz").exists()
            assert (tmp_path / f"retriever_{s}.ckpt.npz").exists()
        assert (tmp_path / "scorer_init.ckpt.npz").exists()
        assert len(state.metrics_log) == 4  # step 0 plus one row per step

    def test_same_seed_identical_metrics(self, tmp_path):
        train, test = generate_synthetic(40, 8, 1)
        cfg = _cfg(seed=1, t=2, r=0.3, m=6)
        a = run_schedule(train, test, cfg, tmp_path / "a")
        b = run_schedule(train, test, cfg, tmp_path / "b")
        assert a.metrics_log == b.metrics_log

    def test_resume_replays_bit_identically(self, tmp_path):
        train, test = generate_synthetic(40, 8, 2)
        cfg = _cfg(seed=2, t=2, r=0.3, m=6)
        run_schedule(train, test, cfg, tmp_path / "full")
        # redo the run, then roll back to step 1 and resume
        run_schedule(train, test, cfg, tmp_path / "resumed")
        run_schedule(train, test, cfg, tmp_path / "resumed", resume_step=1)
        for name in ("scorer_2.ckpt.npz", "retriever_2.ckpt.npz"):
            a = np.load(tmp_path / "full" / name)
            b = np.load(tmp_path / "resumed" / name)
            for key in a.files:
                assert np.array_equal(a[key], b[key]), (name, key)
        full_rows = (tmp_path / "full" / "metrics.tsv").read_text()
        res_rows = (tmp_path / "resumed" / "metrics.tsv").read_text()
        assert full_rows == res_rows

    def test_resumed_metrics_log_equals_fresh(self, tmp_path):
        train, test = generate_synthetic(40, 8, 2)
        cfg = _cfg(seed=2, t=2, r=0.3, m=6)
        fresh = run_schedule(train, test, cfg, tmp_path)
        resumed = run_schedule(train, test, cfg, tmp_path, resume_step=1)
        assert resumed.metrics_log == fresh.metrics_log
        assert [row["step"] for row in resumed.metrics_log] == [0, 1, 2]

    def test_t1_equals_non_alternating_pipeline(self, tmp_path):
        train, test = generate_synthetic(40, 8, 3)
        cfg = _cfg(seed=3, t=1, r=0.3, m=6)
        run_schedule(train, test, cfg, tmp_path)

        vocab = build_vocabulary(train, cfg)
        scorer = init_scorer(vocab, d=cfg.d, max_len=cfg.max_len, seed=cfg.seed)
        warmup_scorer(scorer, train, cfg)
        retr = init_retriever(vocab, d_r=cfg.d_r, max_len=cfg.max_len, seed=cfg.seed)
        train_retriever(retr, train, scorer, cfg, bootstrap_first_epoch=True,
                        seed_tag=stage_tag(1, "retriever-train"))
        finetune_lm(scorer, retr, train, cfg, seed_tag=stage_tag(1, "finetune-lm"))

        sched_scorer = load_scorer(tmp_path / "scorer_1.ckpt.npz")
        sched_retr = load_retriever(tmp_path / "retriever_1.ckpt.npz")
        for k, v in scorer.params.items():
            assert np.array_equal(v, sched_scorer.params[k])
        for k, v in retr.params.items():
            assert np.array_equal(v, sched_retr.params[k])

    def test_every_stage_reads_the_config_template_dir(self, tmp_path):
        built_ins = load_templates()
        template_dir = tmp_path / "templates"
        template_dir.mkdir()
        for t in Task:
            (template_dir / f"def_{t.value}.txt").write_text(built_ins.definitions[t])
        (template_dir / "example_block.txt").write_text(built_ins.example_block)
        (template_dir / "target_block.txt").write_text(built_ins.target_block)
        custom = "Quuxify " + built_ins.definitions[Task.ASPE]
        (template_dir / "def_aspe.txt").write_text(custom)

        train, test = generate_synthetic(40, 8, 0)
        cfg = _cfg(t=1, template_dir=str(template_dir))
        run_schedule(train, test, cfg, tmp_path / "run")
        sched_scorer = load_scorer(tmp_path / "run" / "scorer_1.ckpt.npz")
        assert "Quuxify" in sched_scorer.vocab.tokens
        assert build_vocabulary(train, cfg).tokens == sched_scorer.vocab.tokens

        retr = load_retriever(tmp_path / "run" / "retriever_1.ckpt.npz")
        _, dump = run_inference(
            sched_scorer, retr, test, cfg.k, AblationMode.FULL, train, cfg
        )
        assert dump
        assert all(rec["prompt"].startswith(f"Definition: {custom} ") for rec in dump)

    def test_t_validation(self, tmp_path):
        train, test = generate_synthetic(40, 8, 0)
        with pytest.raises(ValueError):
            run_schedule(train, test, _cfg(t=0), tmp_path)

    @pytest.mark.parametrize("k, m", [(4, 5), (0, 8), (2, 3)])
    def test_k_and_m_rejected_before_any_checkpoint(self, tmp_path, k, m):
        train, test = generate_synthetic(40, 8, 0)
        cfg = _cfg(k=k, m=m)
        with pytest.raises(ValueError, match="k must be at least 1|m must be at least"):
            run_schedule(train, test, cfg, tmp_path / "out")
        assert not list(tmp_path.rglob("*.ckpt.npz"))
        vocab = build_vocabulary(train, cfg)
        scorer = init_scorer(vocab, d=cfg.d, max_len=cfg.max_len, seed=0)
        retr = init_retriever(vocab, d_r=cfg.d_r, max_len=cfg.max_len, seed=0)
        with pytest.raises(ValueError, match="k must be at least 1|m must be at least"):
            train_retriever(retr, train, scorer, cfg)

    def test_m_above_the_candidates_of_a_train_query_rejected_before_any_checkpoint(
            self, tmp_path):
        # a query of the split is not its own candidate: 40 samples give 39
        train, test = generate_synthetic(40, 8, 0)
        cfg = _cfg(m=40)
        message = "m=40 is more than the 39 candidates a query of the train split has"
        with pytest.raises(ValueError, match=message):
            run_schedule(train, test, cfg, tmp_path / "out")
        assert not (tmp_path / "out").exists()
        vocab = build_vocabulary(train, cfg)
        scorer = init_scorer(vocab, d=cfg.d, max_len=cfg.max_len, seed=0)
        retr = init_retriever(vocab, d_r=cfg.d_r, max_len=cfg.max_len, seed=0)
        before = retr.params.flat.copy()
        with pytest.raises(ValueError, match=message):
            train_retriever(retr, train, scorer, cfg)
        assert np.array_equal(retr.params.flat, before)
        check_schedule_inputs(train, test, _cfg(m=39))

    @pytest.mark.parametrize("empty", ["train", "dev"])
    def test_empty_split_rejected_before_any_write(self, tmp_path, empty):
        train, dev = generate_synthetic(40, 8, 0)
        splits = {"train": train, "dev": dev}
        splits[empty] = Dataset(samples=[], task=train.task, split=splits[empty].split)
        with pytest.raises(ValueError, match="split has no samples"):
            run_schedule(splits["train"], splits["dev"], _cfg(t=1), tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_splits_of_two_tasks_rejected_before_any_write(self, tmp_path):
        train, dev = generate_synthetic(40, 8, 0)
        dev = Dataset(samples=dev.samples, task=Task.ATE, split=dev.split)
        with pytest.raises(ValueError, match="hold different tasks: aspe and ate"):
            run_schedule(train, dev, _cfg(t=1), tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_resume_step_validation(self, tmp_path):
        train, test = generate_synthetic(40, 8, 0)
        cfg = _cfg(t=1, r=0.3, m=6)
        run_schedule(train, test, cfg, tmp_path)
        with pytest.raises(ValueError):
            run_schedule(train, test, cfg, tmp_path, resume_step=5)


def test_no_other_module_spells_a_schedule_seed_tag():
    # a "step<s>/" tag spelled outside stage_tag forks a stage's seeded draws
    # from the schedule's
    sources = sorted(Path(alternating.__file__).parent.glob("*.py"))
    assert "alternating.py" in {path.name for path in sources}
    found = [
        path.name for path in sources if path.name != "alternating.py"
        and re.search(r"step[\w{}]*/", path.read_text(encoding="utf-8"))
    ]
    assert found == []
    assert stage_tag(2, "finetune-lm") == "step2/finetune-lm"
