import math
from dataclasses import replace

import numpy as np
import pytest

from exrank import contrastive
from exrank.config import Config
from exrank.contrastive import (
    _batch_loss_and_grads,
    infonce_loss,
    label_candidates,
    sample_training_subset,
    separation,
    train_retriever,
)
from exrank.corpus import Dataset, Sample, Task, generate_synthetic
from exrank.optim import AdamW
from exrank.retriever import encode_text, init_retriever
from exrank.scorer import LogLikelihood, init_scorer
from exrank.template import Candidate, load_templates
from exrank.vocab import Vocabulary

RNG = np.random.default_rng(20240819)
BUILT_IN = load_templates()


def _query():
    from exrank.corpus import AspectLabel, Polarity

    return Sample(id=99, text="The food was good .",
                  labels=[AspectLabel("food", Polarity.POSITIVE)])


def _stub_scores(monkeypatch, table):
    """Route label_candidates' scoring through a fixed per-candidate table."""

    def fake_score(scorer, prompt, target):
        for key, val in table.items():
            if key in prompt:
                return LogLikelihood(total=val, per_token=[val])
        raise AssertionError(f"no stub for prompt {prompt!r}")

    monkeypatch.setattr(contrastive.scorer_mod, "score", fake_score)


class TestLabelCandidates:
    def test_sort_oracle(self, monkeypatch):
        cands = [Candidate(id=i, input=f"cand{i} text", output="y") for i in range(4)]
        _stub_scores(monkeypatch, {"cand0": -1.0, "cand1": -5.0,
                                   "cand2": -3.0, "cand3": -2.0})
        c_plus, c_minus = label_candidates(_query(), cands, None, BUILT_IN, 1, Task.ASPE)
        assert [sc.id for sc in c_plus] == [0]
        assert [sc.id for sc in c_minus] == [1]

    def test_half_split_is_partition(self, monkeypatch):
        cands = [Candidate(id=i, input=f"cand{i} text", output="y") for i in range(6)]
        _stub_scores(monkeypatch, {f"cand{i}": -float(i) for i in range(6)})
        c_plus, c_minus = label_candidates(_query(), cands, None, BUILT_IN, 3, Task.ASPE)
        got = {sc.id for sc in c_plus} | {sc.id for sc in c_minus}
        assert got == set(range(6))
        assert not ({sc.id for sc in c_plus} & {sc.id for sc in c_minus})

    def test_equal_deltas_tie_rule(self, monkeypatch):
        cands = [Candidate(id=i, input=f"cand{i} text", output="y") for i in range(6)]
        _stub_scores(monkeypatch, {f"cand{i}": -2.5 for i in range(6)})
        c_plus, c_minus = label_candidates(_query(), cands, None, BUILT_IN, 2, Task.ASPE)
        assert [sc.id for sc in c_plus] == [0, 1]
        assert [sc.id for sc in c_minus] == [4, 5]

    def test_separation_between_groups(self, monkeypatch):
        cands = [Candidate(id=i, input=f"cand{i} text", output="y") for i in range(5)]
        _stub_scores(monkeypatch, {f"cand{i}": float(RNG.normal()) for i in range(5)})
        c_plus, c_minus = label_candidates(_query(), cands, None, BUILT_IN, 2, Task.ASPE)
        assert min(sc.delta for sc in c_plus) >= max(sc.delta for sc in c_minus)

    def test_too_few_candidates(self):
        cands = [Candidate(id=0, input="a", output="y")]
        with pytest.raises(ValueError):
            label_candidates(_query(), cands, None, BUILT_IN, 1, Task.ASPE)

    def test_same_id_from_another_split_is_labeled(self, monkeypatch):
        # ids are unique only within a split: same id, other text is not the query
        cands = [Candidate(id=i, input=f"cand{i}", output="y") for i in (99, 1)]
        _stub_scores(monkeypatch, {"cand99": -1.0, "cand1": -2.0})
        c_plus, c_minus = label_candidates(_query(), cands, None, BUILT_IN, 1, Task.ASPE)
        assert [sc.id for sc in c_plus + c_minus] == [99, 1]


class TestSubset:
    def test_r_one_is_whole_set(self):
        train, _ = generate_synthetic(30, 5, 0)
        sub = sample_training_subset(train, 1.0, 0)
        assert len(sub) == len(train)

    def test_ceil_size(self):
        samples = [Sample(id=i, text="x", labels=[]) for i in range(3045)]
        ds = Dataset(samples=samples, task=Task.ASPE, split="train")
        assert len(sample_training_subset(ds, 0.1, 0)) == 305
        assert math.ceil(0.1 * 3045) == 305

    def test_deterministic(self):
        train, _ = generate_synthetic(30, 5, 0)
        a = sample_training_subset(train, 0.3, 4)
        b = sample_training_subset(train, 0.3, 4)
        assert [s.id for s in a.samples] == [s.id for s in b.samples]

    def test_invalid_ratio(self):
        train, _ = generate_synthetic(30, 5, 0)
        for r in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                sample_training_subset(train, r, 0)


class TestInfoNCE:
    def test_uniform_similarities_ln_2b(self):
        for B in (1, 2, 4, 8):
            q = np.ones(3)
            pos = np.ones(3)
            negs = [np.ones(3)] * (2 * B - 1)
            assert np.isclose(infonce_loss(q, pos, negs), np.log(2 * B), atol=1e-9)

    def test_b1_closed_form(self):
        # sim(q,pos)=1, sim(q,neg)=0 -> ln(1 + e^{-1})
        q = np.array([1.0, 0.0])
        pos = np.array([1.0, 0.0])
        neg = np.array([0.0, 0.0])
        assert np.isclose(infonce_loss(q, pos, [neg]), np.log(1 + np.exp(-1.0)),
                          atol=1e-9)
        assert np.isclose(infonce_loss(q, pos, [neg]), 0.31326168751822286, atol=1e-6)

    def test_dominant_positive_drives_loss_to_zero(self):
        q = np.array([1.0, 0.0])
        neg = np.array([0.0, 1.0])
        assert infonce_loss(40.0 * q, q, [neg]) < 1e-12


class TestBatchGradients:
    @pytest.mark.parametrize("B", [1, 2, 4])
    def test_loss_is_the_mean_of_infonce_loss(self, B):
        words = [f"w{i}" for i in range(12)]
        state = init_retriever(Vocabulary.build([" ".join(words)]), d_r=4,
                               max_len=16, seed=B)
        rng = np.random.default_rng(B)
        chosen = [[" ".join(rng.choice(words, size=3)) for _ in range(3)]
                  for _ in range(B)]  # (query, positive, own negative) per query
        # the in-batch layout spelled out: own negative, then the others' pairs
        items = [
            (q, pos, [neg] + [t for j, (_, p, n) in enumerate(chosen) if j != i
                              for t in (p, n)])
            for i, (q, pos, neg) in enumerate(chosen)
        ]
        losses = [
            infonce_loss(encode_text(state, q), encode_text(state, pos),
                         [encode_text(state, n) for n in negs])
            for q, pos, negs in items
        ]
        # summed in item order, then scaled by 1/B, as training does
        out = state.params.zeros_like()
        assert _batch_loss_and_grads(state, chosen, out)[0] == sum(losses) * (1.0 / B)

    def test_matches_finite_differences(self):
        vocab = Vocabulary.build(["alpha beta gamma delta"])
        state = init_retriever(vocab, d_r=3, max_len=16, seed=13)
        batch = [("Input: alpha", "Input: beta Output: gamma",
                  "Input: delta Output: alpha")]
        _, grads = _batch_loss_and_grads(state, batch, state.params.zeros_like())
        eps = 1e-6
        for key, g in grads.items():
            flat = state.params[key].reshape(-1)
            for i in RNG.choice(flat.size, size=min(15, flat.size), replace=False):
                orig = flat[i]
                flat[i] = orig + eps
                up, _ = _batch_loss_and_grads(state, batch, state.params.zeros_like())
                flat[i] = orig - eps
                dn, _ = _batch_loss_and_grads(state, batch, state.params.zeros_like())
                flat[i] = orig
                num = (up - dn) / (2 * eps)
                ana = g.reshape(-1)[i]
                assert abs(num - ana) / max(abs(num), abs(ana), 1e-8) < 1e-4

    def test_optimizer_workspace_is_zero_filled_before_summing(self):
        words = [f"w{i}" for i in range(12)]
        state = init_retriever(Vocabulary.build([" ".join(words)]), d_r=4,
                               max_len=16, seed=5)
        batch = [("Input: w1 w2", "Input: w3 Output: w4", "Input: w5 Output: w6"),
                 ("Input: w7", "Input: w8 w9 Output: w10", "Input: w11 Output: w0")]
        fresh_loss, fresh = _batch_loss_and_grads(state, batch, state.params.zeros_like())
        out = AdamW(state.params, lr=1e-3).grads
        out.flat.fill(np.nan)  # a stale value that survived would show
        for _ in range(2):
            loss, grads = _batch_loss_and_grads(state, batch, out=out)
            assert grads is out and loss == fresh_loss
            for key, g in fresh.items():
                assert grads[key].tobytes() == g.tobytes(), key


def _prepped(seed, n=60):
    from exrank.alternating import build_vocabulary, warmup_scorer

    train, test = generate_synthetic(n, 12, seed)
    cfg = Config(k=2, m=8, r=0.5, batch_size=2, lr=0.01, weight_decay=0.0,
                 epochs_retriever=3, d=16, d_r=16, seed=seed, warmup_epochs=1)
    vocab = build_vocabulary(train, cfg)
    scorer = init_scorer(vocab, d=cfg.d, max_len=cfg.max_len, seed=seed)
    warmup_scorer(scorer, train, cfg)
    retr = init_retriever(vocab, d_r=cfg.d_r, max_len=cfg.max_len, seed=seed)
    return train, test, cfg, scorer, retr


class TestTrainRetriever:
    def test_runs_and_reports(self):
        train, _, cfg, scorer, retr = _prepped(0)
        report = []
        train_retriever(retr, train, scorer, cfg, report=report)
        assert len(report) == cfg.epochs_retriever
        assert all(np.isfinite(loss) for _, loss in report)

    def test_encodes_each_distinct_block_at_most_once(self, monkeypatch):
        encoded = []
        encode = Vocabulary.encode
        monkeypatch.setattr(Vocabulary, "encode",
                            lambda self, text: encoded.append(text) or encode(self, text))
        train, _, cfg, scorer, retr = _prepped(3, n=30)
        train_retriever(retr, train, scorer, cfg)
        assert encoded
        assert len(encoded) == len(set(encoded))
        # blocks only: a whole prompt would hold the definition and the target
        assert not any("Definition:" in t and "Now complete" in t for t in encoded)

    def test_lr_zero_null_training(self):
        train, _, cfg, scorer, retr = _prepped(1)
        cfg = Config(**{**cfg.to_dict(), "lr": 0.0, "weight_decay": 0.0})
        before = {k: v.copy() for k, v in retr.params.items()}
        train_retriever(retr, train, scorer, cfg)
        for k in before:
            assert np.array_equal(before[k], retr.params[k])

    def test_training_moves_parameters(self):
        train, _, cfg, scorer, retr = _prepped(2)
        before = {k: v.copy() for k, v in retr.params.items()}
        train_retriever(retr, train, scorer, cfg)
        assert any(not np.array_equal(before[k], retr.params[k]) for k in before)

    def test_nonfinite_loss_raises_before_update(self):
        train, _, cfg, scorer, retr = _prepped(3)
        retr.params["emb"][:, 0] = np.nan
        before = {k: v.copy() for k, v in retr.params.items()}
        with pytest.raises(FloatingPointError, match="non-finite"):
            train_retriever(retr, train, scorer, cfg)
        for k in before:
            assert np.array_equal(before[k], retr.params[k], equal_nan=True), k

    def test_no_query_is_among_its_own_candidates(self, monkeypatch):
        # the candidate sources leave the query out, in the bootstrap epoch
        # and in the retrieval epoch alike
        train, _, cfg, scorer, retr = _prepped(6, n=20)
        cfg = Config(**{**cfg.to_dict(), "r": 1.0, "epochs_retriever": 2})
        labeled = []

        def spy(query, cands, *args):
            labeled.append((query.id, {c.id for c in cands}))
            return label_candidates(query, cands, *args)

        monkeypatch.setattr(contrastive, "label_candidates", spy)
        train_retriever(retr, train, scorer, cfg)
        assert sorted(q for q, _ in labeled) == sorted(2 * [s.id for s in train.samples])
        assert all(q not in ids and len(ids) == cfg.m for q, ids in labeled)

    @pytest.mark.parametrize("twin", [False, True], ids=["other-text", "twin"])
    def test_separation_keeps_the_same_id_candidate_for_held_out_queries(
            self, monkeypatch, twin):
        # a held-out query sees all n train candidates, the one with its id
        # included, even when that one also has its text and labels
        train, test, cfg, scorer, retr = _prepped(4, n=20)
        n = len(train)
        held_out = replace(train.samples[0]) if twin else test.samples[0]
        member = train.samples[held_out.id]
        assert member.id == held_out.id
        assert (member.text == held_out.text) == twin
        labeled = []

        def spy(query, cands, *args):
            labeled.append({c.id for c in cands})
            return label_candidates(query, cands, *args)

        monkeypatch.setattr(contrastive, "label_candidates", spy)
        separation(retr, replace(test, samples=[held_out]), scorer,
                   Config(**{**cfg.to_dict(), "m": n}), train)
        separation(retr, replace(train, samples=[member]), scorer,
                   Config(**{**cfg.to_dict(), "m": n - 1}), train)
        ids = {s.id for s in train.samples}
        assert labeled == [ids, ids - {member.id}]

    def test_separation_refuses_an_m_above_the_candidates_of_a_member_query(
            self, monkeypatch):
        train, test, cfg, scorer, retr = _prepped(5, n=20)
        cfg = Config(**{**cfg.to_dict(), "m": len(train)})
        built = []
        build = contrastive.build_index
        monkeypatch.setattr(contrastive, "build_index",
                            lambda *args: built.append(args) or build(*args))
        with pytest.raises(ValueError, match="m=20 is more than the 19 candidates "
                                             "a query of the train split has"):
            separation(retr, train, scorer, cfg, train)
        assert built == []
        # a held-out query has all 20
        assert np.isfinite(separation(retr, test, scorer, cfg, train))
        assert len(built) == 1

    def test_separation_refuses_labeling_prompts_the_scorer_cannot_encode(
            self, tmp_path, monkeypatch):
        train, test, cfg, scorer, retr = _prepped(5, n=20)
        tpl = tmp_path / "tpl"
        tpl.mkdir()
        for task, text in BUILT_IN.definitions.items():
            (tpl / f"def_{task.value}.txt").write_text(text)
        (tpl / "example_block.txt").write_text(
            BUILT_IN.example_block.replace("Example", "Sample"))
        (tpl / "target_block.txt").write_text(BUILT_IN.target_block)
        cfg = Config(**{**cfg.to_dict(), "template_dir": str(tpl)})
        monkeypatch.setattr(contrastive, "build_index", None)  # never reached
        with pytest.raises(ValueError, match=r"\['Sample'\] as <unk> at k=1"):
            separation(retr, test, scorer, cfg, train)

    def test_separation_refuses_m_below_2k(self):
        train, test, cfg, scorer, retr = _prepped(5, n=20)
        cfg = Config(**{**cfg.to_dict(), "m": 2 * cfg.k - 1})
        with pytest.raises(ValueError, match="m must be at least 2k"):
            separation(retr, test, scorer, cfg, train)

    def test_separation_positive_over_seeds(self):
        # the training objective's literal target, on held-out queries
        wins = 0
        for seed in range(5):
            train, test, cfg, scorer, retr = _prepped(seed)
            train_retriever(retr, train, scorer, cfg)
            if separation(retr, test, scorer, cfg, train) > 0.0:
                wins += 1
        assert wins >= 4
