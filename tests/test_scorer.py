import numpy as np
import pytest

from exrank.optim import AdamW
from exrank.scorer import (
    LogLikelihood,
    finetune_step,
    generate,
    init_scorer,
    load_scorer,
    nll_and_grads,
    save_scorer,
    position_codes,
    score,
    step_logits,
)
from exrank.vocab import BOS_ID, EOS_ID, Vocabulary

RNG = np.random.default_rng(20240817)


def _micro_scorer(words="alpha beta gamma delta", d=3, seed=0, randomize=True):
    vocab = Vocabulary.build([words])
    state = init_scorer(vocab, d=d, max_len=32, seed=seed)
    if randomize:
        rng = np.random.default_rng(seed + 99)
        state.params["w_out"] = rng.normal(0.0, 0.3, state.params["w_out"].shape)
        state.params["b_out"] = rng.normal(0.0, 0.3, state.params["b_out"].shape)
    return state


class TestScore:
    def test_untrained_is_uniform(self, small_scorer):
        V = len(small_scorer.vocab)
        ll = score(small_scorer, "The food was good .", "food: positive")
        L = len(ll.per_token)
        assert np.isclose(ll.total, -L * np.log(V), atol=1e-9)

    def test_total_nonpositive(self):
        state = _micro_scorer()
        for prompt, target in [("alpha beta", "gamma"), ("beta", "alpha delta")]:
            assert score(state, prompt, target).total <= 0.0

    def test_total_matches_per_token_sum(self):
        state = _micro_scorer()
        ll = score(state, "alpha", "beta gamma")
        assert np.isclose(ll.total, sum(ll.per_token))

    def test_chain_rule_consistency_with_step_logits(self):
        state = _micro_scorer()
        prompt, target = "alpha beta", "gamma delta"
        tids = state.vocab.encode(target) + [EOS_ID]
        total = 0.0
        for i, tid in enumerate(tids):
            dist = step_logits(state, prompt, tids[:i])
            total += np.log(dist[tid])
        assert np.isclose(total, score(state, prompt, target).total, atol=1e-9)

    def test_eos_counted_in_length(self):
        state = _micro_scorer()
        ll = score(state, "alpha", "beta gamma")
        assert len(ll.per_token) == 3  # two target tokens plus the end token

    def test_empty_target_rejected(self):
        state = _micro_scorer()
        with pytest.raises(ValueError):
            score(state, "alpha", "")

    def test_long_prompt_keeps_tail(self):
        vocab = Vocabulary.build(["w" + str(i) for i in range(40)])
        state = init_scorer(vocab, d=4, max_len=8, seed=1)
        state.params["w_out"] = RNG.normal(0.0, 0.3, state.params["w_out"].shape)
        long_prompt = " ".join(f"w{i}" for i in range(40))
        tail_prompt = " ".join(f"w{i}" for i in range(32, 40))
        a = score(state, long_prompt, "w0")
        b = score(state, tail_prompt, "w0")
        assert np.isclose(a.total, b.total, atol=1e-12)


class TestStepLogits:
    def test_zero_logits_uniform(self, small_scorer):
        dist = step_logits(small_scorer, "The food was good .", [])
        V = len(small_scorer.vocab)
        assert np.allclose(dist, 1.0 / V, atol=1e-12)

    def test_sums_to_one(self):
        state = _micro_scorer()
        for prefix in ([], [5], [5, 6]):
            assert np.isclose(step_logits(state, "alpha beta", prefix).sum(), 1.0,
                              atol=1e-9)

    def test_shift_invariance(self):
        state = _micro_scorer()
        base = step_logits(state, "alpha", [])
        state.params["b_out"] = state.params["b_out"] + 7.5
        shifted = step_logits(state, "alpha", [])
        assert np.allclose(base, shifted, atol=1e-9)

    def test_argmax_matches_greedy_first_token(self):
        state = _micro_scorer(seed=3)
        dist = step_logits(state, "alpha beta gamma", [])
        first = int(np.argmax(dist))
        out_ids = state.vocab.encode(generate(state, "alpha beta gamma"))
        if first == EOS_ID:
            assert out_ids == []
        elif first >= 4:  # a real word survives decoding
            assert out_ids and out_ids[0] == first


class TestGenerate:
    def test_length_cap(self):
        state = _micro_scorer()
        out = generate(state, "alpha", max_len=1)
        assert len(state.vocab.encode(out)) <= 1

    def test_max_len_validation(self):
        state = _micro_scorer()
        with pytest.raises(ValueError):
            generate(state, "alpha", max_len=0)

    def test_overfit_one_example(self):
        state = _micro_scorer(randomize=False)
        prompt, target = "alpha beta", "gamma delta"
        opt = AdamW(state.params, lr=0.05)
        for _ in range(300):
            finetune_step(state, prompt, target, 0.05, optimizer=opt)
        assert generate(state, prompt) == target

    def test_deterministic(self):
        state = _micro_scorer(seed=2)
        assert generate(state, "beta gamma") == generate(state, "beta gamma")

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_encodes_prompt_once_and_matches_step_logits_loop(self, seed, monkeypatch):
        state = _micro_scorer(seed=seed)
        prompt = "alpha beta gamma"
        out = []
        for _ in range(6):
            nxt = int(np.argmax(step_logits(state, prompt, out)))
            if nxt == EOS_ID:
                break
            out.append(nxt)
        encoded = []
        encode = state.vocab.encode
        monkeypatch.setattr(
            state.vocab, "encode", lambda text: encoded.append(text) or encode(text)
        )
        assert generate(state, prompt, max_len=6) == state.vocab.decode(out)
        assert encoded == [prompt]


class TestFinetune:
    def test_loss_decreases_over_200_steps(self):
        state = _micro_scorer(randomize=False)
        opt = AdamW(state.params, lr=0.01)
        losses = []
        for _ in range(201):
            _, loss = finetune_step(state, "alpha", "beta gamma", 0.01, optimizer=opt)
            losses.append(loss)
        assert losses[200] < losses[0]

    def test_lr_zero_is_null_update(self):
        state = _micro_scorer()
        before = {k: v.copy() for k, v in state.params.items()}
        s0 = score(state, "alpha", "beta").total
        _, loss = finetune_step(state, "alpha", "beta", 0.0, weight_decay=0.0)
        for k in before:
            assert np.array_equal(before[k], state.params[k])
        assert np.isclose(loss, -s0)

    def test_negative_lr_rejected(self):
        state = _micro_scorer()
        with pytest.raises(ValueError):
            finetune_step(state, "alpha", "beta", -1.0)

    def test_version_bumps(self):
        state = _micro_scorer()
        v0 = state.version
        finetune_step(state, "alpha", "beta", 0.01)
        assert state.version == v0 + 1

    def test_frozen_scoring_is_stable(self):
        state = _micro_scorer()
        a = score(state, "alpha beta", "gamma")
        b = score(state, "alpha beta", "gamma")
        assert a == b == LogLikelihood(total=a.total, per_token=a.per_token)


class TestGradients:
    def test_analytic_matches_finite_differences(self):
        state = _micro_scorer(d=3, seed=11)
        prompt, target = "alpha beta gamma", "delta alpha"
        _, grads = nll_and_grads(state, prompt, target)
        eps = 1e-5
        worst = 0.0
        for key, g in grads.items():
            p = state.params[key]
            flat = p.reshape(-1)
            idxs = RNG.choice(flat.size, size=min(25, flat.size), replace=False)
            for i in idxs:
                orig = flat[i]
                flat[i] = orig + eps
                up, _ = nll_and_grads(state, prompt, target)
                flat[i] = orig - eps
                dn, _ = nll_and_grads(state, prompt, target)
                flat[i] = orig
                num = (up - dn) / (2 * eps)
                ana = g.reshape(-1)[i]
                denom = max(abs(num), abs(ana), 1e-8)
                worst = max(worst, abs(num - ana) / denom)
        assert worst < 1e-4


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        state = _micro_scorer(seed=5)
        path = tmp_path / "s.ckpt.npz"
        save_scorer(state, path)
        back = load_scorer(path)
        assert back.vocab.tokens == state.vocab.tokens
        for k, v in state.params.items():
            assert np.array_equal(back.params[k], v)
        a = score(state, "alpha beta", "gamma")
        b = score(back, "alpha beta", "gamma")
        assert a.total == b.total

    def test_format_check(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, format=np.array("something-else"))
        with pytest.raises(ValueError):
            load_scorer(path)


# The plain forward and backward formulas, kept as the bit-exact oracle for
# the preallocated, in-place versions in exrank.scorer.
def _reference_prompt(state, prompt):
    p = state.params
    ids = state.vocab.encode(prompt)[-state.max_len:]
    mean = p["emb"][ids].mean(axis=0) if ids else np.zeros(state.d)
    return np.tanh(p["w_enc"] @ mean + p["b_enc"]), ids, mean


def _reference_logp(state, prompt, target):
    p = state.params
    tids = state.vocab.encode(target) + [EOS_ID]
    L = len(tids)
    h, ids, mean = _reference_prompt(state, prompt)
    prev = np.array([BOS_ID] + tids[:-1])
    F = np.concatenate(
        [np.tile(h, (L, 1)), p["emb"][prev], position_codes(L)[:L]], axis=1
    )
    z = F @ p["w_out"].T + p["b_out"]
    shift = z - z.max(axis=-1, keepdims=True)
    logp = shift - np.log(np.exp(shift).sum(axis=-1, keepdims=True))
    return logp, tids, F, prev, h, ids, mean


def _reference_score(state, prompt, target):
    logp, tids, *_ = _reference_logp(state, prompt, target)
    per = logp[np.arange(len(tids)), tids]
    return float(per.sum()), [float(x) for x in per]


def _reference_nll_and_grads(state, prompt, target):
    p, d = state.params, state.d
    logp, tids, F, prev, h, ids, mean = _reference_logp(state, prompt, target)
    L = len(tids)
    loss = -float(logp[np.arange(L), tids].sum())
    dZ = np.exp(logp)
    dZ[np.arange(L), tids] -= 1.0
    grads = {"w_out": dZ.T @ F, "b_out": dZ.sum(axis=0),
             "emb": np.zeros_like(p["emb"])}
    dF = dZ @ p["w_out"]
    np.add.at(grads["emb"], prev, dF[:, d:2 * d])
    da = dF[:, :d].sum(axis=0) * (1.0 - h * h)
    grads["w_enc"] = np.outer(da, mean)
    grads["b_enc"] = da
    if ids:
        np.add.at(grads["emb"], ids, (p["w_enc"].T @ da) / len(ids))
    return loss, grads


def _reference_step_logits(state, prompt, prefix):
    p = state.params
    h, _, _ = _reference_prompt(state, prompt)
    prev = prefix[-1] if prefix else BOS_ID
    f = np.concatenate([h, p["emb"][prev], position_codes(len(prefix) + 1)[len(prefix)]])
    z = p["w_out"] @ f + p["b_out"]
    e = np.exp(z - z.max())
    return e / e.sum()


def _oracle_scorer(seed):
    words = [f"w{i}" for i in range(30)]
    state = init_scorer(Vocabulary.build(words), d=8, max_len=12, seed=seed)
    rng = np.random.default_rng(seed + 7)
    state.params["w_out"] = rng.normal(0.0, 0.5, state.params["w_out"].shape)
    state.params["b_out"] = rng.normal(0.0, 0.5, state.params["b_out"].shape)
    state.params["b_enc"] = rng.normal(0.0, 0.5, state.params["b_enc"].shape)
    return state


ORACLE_CASES = {
    "truncated": (" ".join(f"w{i % 30}" for i in range(41)), "w3 w4 w5"),
    "empty-prompt": ("", "w1 w2"),
    "whitespace-prompt": ("  \t \n ", "w7"),
    "unknown-tokens": ("w1 zz w2 ?? w1", "qq w4"),
    "unknown-target": ("w5 w6", "zz"),
    "one-token-target": ("w1 w2 w3", "w9"),
    "multi-token-target": ("w9 w8 w7 w6", "w1 w2 w1 w2 w3 w29"),
    "repeated-ids": ("w2 w2 w2", "w2 w2"),  # prompt and prev ids share emb rows
}


def _assert_matches_oracle(state):
    for name, (prompt, target) in ORACLE_CASES.items():
        ll = score(state, prompt, target)
        assert (ll.total, ll.per_token) == _reference_score(state, prompt, target), name
        assert all(type(x) is float for x in ll.per_token), name
        loss, grads = nll_and_grads(state, prompt, target)
        ref_loss, ref_grads = _reference_nll_and_grads(state, prompt, target)
        assert loss == ref_loss, name
        assert list(grads) == list(ref_grads), name
        for key, g in grads.items():
            assert g.shape == ref_grads[key].shape, (name, key)
            assert g.tobytes() == ref_grads[key].tobytes(), (name, key)
        tids = state.vocab.encode(target) + [EOS_ID]
        for i in range(len(tids)):
            got = step_logits(state, prompt, tids[:i])
            assert got.tobytes() == _reference_step_logits(state, prompt, tids[:i]).tobytes()


class TestBitExactAgainstOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fresh_scorer(self, seed):
        _assert_matches_oracle(_oracle_scorer(seed))

    def test_after_finetune_steps(self):
        state = _oracle_scorer(3)
        opt = AdamW(state.params, lr=0.05)
        for prompt, target in list(ORACLE_CASES.values()) * 2:
            finetune_step(state, prompt, target, 0.05, optimizer=opt)
        _assert_matches_oracle(state)

    def test_untrained_zero_output_weights(self, small_scorer):
        _assert_matches_oracle(small_scorer)
