import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exrank.alternating import build_vocabulary
from exrank.config import Config
from exrank.corpus import Task, generate_synthetic, serialize_label, to_atsc
from exrank.optim import AdamW
from exrank import scorer as scorer_mod
from exrank.scorer import (
    _ARGMAX_MARGIN,
    LogLikelihood,
    _greedy_token,
    _normalise,
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
from exrank.template import load_templates, make_candidate, render, task_input
from exrank.vocab import BOS_ID, EOS_ID, Vocabulary, tokenize

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

    def test_an_empty_target_raises_on_every_call(self):
        state = _micro_scorer()
        for target in ("", " \t ", "", " \t "):  # a memoized refusal would pass twice
            with pytest.raises(ValueError, match="target is empty after tokenization"):
                score(state, "alpha", target)

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
        out_ids = state.vocab.encode(generate(state, "alpha beta gamma", state.max_len))
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
            finetune_step(state, prompt, target, opt)
        assert generate(state, prompt, state.max_len) == target

    def test_deterministic(self):
        state = _micro_scorer(seed=2)
        assert (generate(state, "beta gamma", state.max_len)
                == generate(state, "beta gamma", state.max_len))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_encodes_prompt_once_and_matches_step_logits_loop(self, seed, monkeypatch):
        state = _micro_scorer(seed=seed)
        prompt = "alpha beta gamma"
        encoded = []
        encode = state.vocab.encode
        monkeypatch.setattr(
            state.vocab, "encode", lambda text: encoded.append(text) or encode(text)
        )
        out = []
        for _ in range(6):
            nxt = int(np.argmax(step_logits(state, prompt, out)))
            if nxt == EOS_ID:
                break
            out.append(nxt)
        assert generate(state, prompt, max_len=6) == state.vocab.decode(out)
        # the step_logits loop and generate together: the vocabulary's memo
        # encodes the prompt once for every later call
        assert encoded == [prompt]


class TestFinetune:
    def test_loss_decreases_over_200_steps(self):
        state = _micro_scorer(randomize=False)
        opt = AdamW(state.params, lr=0.01)
        losses = []
        for _ in range(201):
            _, loss = finetune_step(state, "alpha", "beta gamma", opt)
            losses.append(loss)
        assert losses[200] < losses[0]

    def test_lr_zero_is_null_update(self):
        state = _micro_scorer()
        before = {k: v.copy() for k, v in state.params.items()}
        s0 = score(state, "alpha", "beta").total
        _, loss = finetune_step(state, "alpha", "beta", AdamW(state.params, lr=0.0))
        for k in before:
            assert np.array_equal(before[k], state.params[k])
        assert np.isclose(loss, -s0)

    def test_step_with_a_workspace_allocates_nothing_parameter_sized(self):
        words = " ".join(f"w{i}" for i in range(3000))
        state = init_scorer(Vocabulary.build([words]), d=8, max_len=32, seed=0)
        opt = AdamW(state.params, lr=1e-3)
        finetune_step(state, "w1 w2 w3", "w4", opt)  # warm lazy state
        param_bytes = sum(v.nbytes for v in state.params.values())
        peaks = []
        for call in (lambda: finetune_step(state, "w1 w2 w3", "w4", opt),
                     lambda: nll_and_grads(state, "w1 w2 w3", "w4",
                                           state.params.zeros_like())):
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < param_bytes / 4, (peaks, param_bytes)
        assert peaks[1] > param_bytes  # without one, the gradients are fresh arrays

    def test_negative_lr_rejected(self):
        state = _micro_scorer()
        with pytest.raises(ValueError, match="lr must be finite and non-negative"):
            AdamW(state.params, lr=-1.0)

    def test_frozen_scoring_is_stable(self):
        state = _micro_scorer()
        a = score(state, "alpha beta", "gamma")
        b = score(state, "alpha beta", "gamma")
        assert a == b == LogLikelihood(total=a.total, per_token=a.per_token)


class TestGradients:
    def test_analytic_matches_finite_differences(self):
        state = _micro_scorer(d=3, seed=11)
        prompt, target = "alpha beta gamma", "delta alpha"
        _, grads = nll_and_grads(state, prompt, target, state.params.zeros_like())
        eps = 1e-5
        worst = 0.0
        for key, g in grads.items():
            p = state.params[key]
            flat = p.reshape(-1)
            idxs = RNG.choice(flat.size, size=min(25, flat.size), replace=False)
            for i in idxs:
                orig = flat[i]
                flat[i] = orig + eps
                up, _ = nll_and_grads(state, prompt, target, state.params.zeros_like())
                flat[i] = orig - eps
                dn, _ = nll_and_grads(state, prompt, target, state.params.zeros_like())
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


def _reference_logits(state, prompt, prefix):
    p = state.params
    h, _, _ = _reference_prompt(state, prompt)
    prev = prefix[-1] if prefix else BOS_ID
    f = np.concatenate([h, p["emb"][prev], position_codes(len(prefix) + 1)[len(prefix)]])
    return p["w_out"] @ f + p["b_out"]


def _reference_step_logits(state, prompt, prefix):
    z = _reference_logits(state, prompt, prefix)
    e = np.exp(z - z.max())
    return e / e.sum()


def _reference_generate(state, prompt, max_len):
    """Greedy decoding as argmax of the oracle's normalised distribution."""
    out = []
    for _ in range(max_len):
        nxt = int(np.argmax(_reference_step_logits(state, prompt, out)))
        if nxt == EOS_ID:
            break
        out.append(nxt)
    return state.vocab.decode(out)


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


def _labeling_scorer(seed):
    """A randomised scorer over the vocabulary of an ATSC split, and the split,
    so that prompts rendered from it are the ones labeling scores."""
    train = to_atsc(generate_synthetic(40, 1, seed)[0])
    state = init_scorer(build_vocabulary(train, Config(task=Task.ATSC)), d=8, seed=seed)
    rng = np.random.default_rng(seed + 7)
    for key in ("w_out", "b_out", "b_enc"):
        state.params[key] = rng.normal(0.0, 0.5, state.params[key].shape)
    return state, train


def _labeling_prompt(train, query, sample):
    """The prompt ``label_candidates`` scores for ``query`` with ``sample``'s
    candidate as its one example."""
    return render(load_templates(), train.task, [make_candidate(sample, train.task)],
                  task_input(query, train.task))


def _assert_matches_oracle(state):
    for name, (prompt, target) in ORACLE_CASES.items():
        ll = score(state, prompt, target)
        assert (ll.total, ll.per_token) == _reference_score(state, prompt, target), name
        assert all(type(x) is float for x in ll.per_token), name
        loss, grads = nll_and_grads(state, prompt, target, state.params.zeros_like())
        ref_loss, ref_grads = _reference_nll_and_grads(state, prompt, target)
        assert loss == ref_loss, name
        assert grads.keys() == ref_grads.keys(), name
        for key, g in grads.items():
            assert g.shape == ref_grads[key].shape, (name, key)
            assert g.tobytes() == ref_grads[key].tobytes(), (name, key)
        tids = state.vocab.encode(target) + [EOS_ID]
        for i in range(len(tids)):
            got = step_logits(state, prompt, tids[:i])
            assert got.tobytes() == _reference_step_logits(state, prompt, tids[:i]).tobytes()
        for max_len in (1, 3, 40):
            assert generate(state, prompt, max_len) == _reference_generate(
                state, prompt, max_len), (name, max_len)


class TestBitExactAgainstOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fresh_scorer(self, seed):
        _assert_matches_oracle(_oracle_scorer(seed))

    def test_after_finetune_steps(self):
        state = _oracle_scorer(3)
        opt = AdamW(state.params, lr=0.05)
        for prompt, target in list(ORACLE_CASES.values()) * 2:
            finetune_step(state, prompt, target, opt)
        _assert_matches_oracle(state)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_one_workspace_reused_across_every_case(self, seed):
        state = _oracle_scorer(seed)
        out = state.params.zeros_like()
        for g in out.values():
            g.fill(np.nan)  # a stale value that survived would show
        for name, (prompt, target) in list(ORACLE_CASES.items()) * 2:
            loss, grads = nll_and_grads(state, prompt, target, out=out)
            ref_loss, ref_grads = _reference_nll_and_grads(state, prompt, target)
            assert grads is out, name
            assert loss == ref_loss, name
            assert grads.keys() == ref_grads.keys(), name
            for key, g in grads.items():
                assert g.tobytes() == ref_grads[key].tobytes(), (name, key)

    def test_workspace_and_fresh_steps_give_the_same_parameters(self):
        fresh, reused = _oracle_scorer(3), _oracle_scorer(3)
        opt_fresh = AdamW(fresh.params, lr=0.05)
        opt_reused = AdamW(reused.params, lr=0.05)
        for prompt, target in list(ORACLE_CASES.values()) * 2:
            _, grads = nll_and_grads(fresh, prompt, target, fresh.params.zeros_like())
            for key, g in grads.items():
                opt_fresh.grads[key][...] = g
            opt_fresh.step()
            finetune_step(reused, prompt, target, opt_reused)
        for key, p in fresh.params.items():
            assert p.tobytes() == reused.params[key].tobytes(), key

    @pytest.mark.parametrize("seed", [0, 1])
    def test_labeling_shapes_scored_in_a_row(self, seed):
        # label_candidates' calls: one query's one-word target after each of
        # m one-example prompts in turn
        state, train = _labeling_scorer(seed)
        query, *pool = train.samples[:13]
        target = serialize_label(query, train.task)
        assert len(tokenize(target)) == 1
        for sample in pool:
            prompt = _labeling_prompt(train, query, sample)
            ll = score(state, prompt, target)
            assert (ll.total, ll.per_token) == _reference_score(state, prompt, target)

    def test_a_finetune_step_between_two_scores_of_one_target(self):
        # the second score must see the parameters the step changed: a target's
        # memoized ids may carry nothing that depends on them
        state, train = _labeling_scorer(2)
        query, sample = train.samples[:2]
        target = serialize_label(query, train.task)
        prompt = _labeling_prompt(train, query, sample)
        before = score(state, prompt, target)
        assert (before.total, before.per_token) == _reference_score(state, prompt, target)
        finetune_step(state, prompt, target, AdamW(state.params, lr=0.05))
        after = score(state, prompt, target)
        assert (after.total, after.per_token) == _reference_score(state, prompt, target)
        assert after.total != before.total

    def test_memoized_target_ids_are_read_only(self):
        state = _oracle_scorer(2)
        prompt, target = ORACLE_CASES["multi-token-target"]
        before = score(state, prompt, target)
        prev, picks = state.vocab.target_ids(target)
        kept = prev.tobytes(), picks.tobytes()
        for ids in (prev, picks):
            with pytest.raises(ValueError):
                ids[0] = 0
            with pytest.raises(ValueError):
                ids += 1
        again = state.vocab.target_ids(target)
        assert again[0] is prev and again[1] is picks
        assert (prev.tobytes(), picks.tobytes()) == kept
        assert score(state, prompt, target) == before

    def test_position_codes_are_read_only(self):
        state = _oracle_scorer(2)
        prompt, target = ORACLE_CASES["multi-token-target"]
        before = (score(state, prompt, target), generate(state, prompt, 40))
        codes = position_codes(7)
        kept = codes.copy()
        with pytest.raises(ValueError):
            codes[0, 0] = 1.0
        with pytest.raises(ValueError):
            codes += 1.0
        assert position_codes(7) is codes
        assert codes.tobytes() == kept.tobytes()
        assert (score(state, prompt, target), generate(state, prompt, 40)) == before

    def test_position_codes_are_the_first_rows_of_every_larger_table(self):
        # greedy decoding reads position n from one table per call,
        # position_codes(max_len), where the oracle reads position_codes(n + 1)
        tables = [position_codes(n) for n in (24, 129, 513)]
        for n in range(1, 130):
            rows = position_codes.__wrapped__(n)  # computed afresh, not memoised
            for table in tables:
                if len(table) >= n:
                    assert table[:n].tobytes() == rows.tobytes(), (n, len(table))

    def test_generate_builds_position_codes_only_for_the_positions_it_decodes(
            self, monkeypatch):
        # the end token wins the first step, so a 10**7-token budget decodes
        # one position and needs no table of 10**7 rows
        state = _oracle_scorer(3)
        state.params["b_out"][EOS_ID] = 100.0
        built = scorer_mod.position_codes

        def bounded(n):
            assert n <= 64, f"asked for {n} position codes"
            return built(n)

        monkeypatch.setattr(scorer_mod, "position_codes", bounded)
        assert generate(state, "w1 w2", 10**7) == ""

    def test_the_position_codes_grow_with_the_answer(self, monkeypatch):
        # no end token: the decoder doubles its table up to max_len, and every
        # token is the oracle's, which reads position_codes(n + 1)
        state = _oracle_scorer(3)
        state.params["b_out"][EOS_ID] = -100.0
        asked, built = [], scorer_mod.position_codes
        monkeypatch.setattr(scorer_mod, "position_codes",
                            lambda n: asked.append(n) or built(n))
        got = generate(state, "w1 w2", 300)
        assert asked == [64, 128, 256, 300]
        monkeypatch.undo()
        assert got == _reference_generate(state, "w1 w2", 300)

    def test_untrained_zero_output_weights(self, small_scorer):
        _assert_matches_oracle(small_scorer)

    def test_generate_breaks_ties_like_the_normalised_argmax(self):
        # equal top logits: argmax takes the first, after normalisation too
        state = _oracle_scorer(4)
        state.params["w_out"][:] = 0.0
        state.params["b_out"][:] = 0.0
        state.params["b_out"][[9, 5, 20]] = 1.5
        assert generate(state, "w1 w2", 4) == _reference_generate(state, "w1 w2", 4)
        assert state.vocab.decode([5] * 4) == generate(state, "w1 w2", 4)

    @staticmethod
    def _constant_logits(b_out):
        """A scorer whose logits are ``b_out`` at every step, exactly."""
        state = _oracle_scorer(6)
        state.params["w_out"][:] = 0.0
        state.params["b_out"][:] = b_out
        return state

    def _assert_follows_the_normalised_argmax(self, state, expected):
        with np.errstate(invalid="ignore"):
            raw = int(np.argmax(_reference_logits(state, "w1 w2", [])))
            normalised = int(np.argmax(_reference_step_logits(state, "w1 w2", [])))
            assert raw != normalised  # skipping the softmax would pick `raw`
            assert normalised == expected
            got = generate(state, "w1 w2", 4)
            assert got == _reference_generate(state, "w1 w2", 4)
        assert got == state.vocab.decode([expected] * 4)

    def test_generate_normalises_when_rounding_merges_the_top_two(self):
        # logit 5 sits one ulp below logit 9; after the shift its exp rounds
        # to exp(0) = 1, so the normalised tie goes to the lower index
        b_out = np.full(34, -1.0)
        b_out[9] = 1e-3
        b_out[5] = np.nextafter(1e-3, 0.0)
        self._assert_follows_the_normalised_argmax(self._constant_logits(b_out), 5)

    def test_generate_normalises_an_exact_tie_that_rounding_joins(self):
        # 9 and 20 tie exactly; 5, one ulp below, joins the tie after exp
        b_out = np.full(34, -1.0)
        b_out[[9, 20]] = 1e-3
        b_out[5] = np.nextafter(1e-3, 0.0)
        self._assert_follows_the_normalised_argmax(self._constant_logits(b_out), 5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_generate_follows_the_softmax_through_nan_and_inf(self, bad):
        # the softmax turns every entry into NaN, whose argmax is index 0,
        # the padding id; the raw argmax is the bad entry itself
        b_out = np.zeros(34)
        b_out[7] = bad
        self._assert_follows_the_normalised_argmax(self._constant_logits(b_out), 0)

    def test_step_logits_returns_a_fresh_array(self):
        state = _oracle_scorer(5)
        first = step_logits(state, "w1 w2", [])
        kept = first.copy()
        step_logits(state, "w1 w2", [7, 8])
        assert first.tobytes() == kept.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    levels=st.lists(st.integers(-3, 3), min_size=34, max_size=34),
    quantum=st.sampled_from([1e-3, 0.25, 1.0]),
    w_scale=st.sampled_from([0.0, 1e-19, 1e-17, 1e-13, 1e-9, 1e-3]),
    prompt=st.sampled_from(["w1 w2", "", "w3 w3 w9 w0", "zz w5"]),
)
def test_generate_matches_the_oracle_on_near_ties(seed, levels, quantum, w_scale, prompt):
    # b_out on a coarse grid gives exact ties; a tiny w_out splits them by a
    # few ulps, which the softmax may or may not merge again
    state = _oracle_scorer(seed)
    state.params["b_out"][:] = np.array(levels) * quantum
    state.params["w_out"] *= w_scale
    assert generate(state, prompt, 6) == _reference_generate(state, prompt, 6)


def _greedy_token_on_shifted_logits(z):
    """The greedy step as it was before it tested the raw logits: it shifts the
    whole vector by its top logit, then tests the margin.  The fuzz's oracle."""
    i = int(z.argmax())
    z -= z[i]
    if np.count_nonzero(z > -_ARGMAX_MARGIN) == 1:
        return i
    return int(_normalise(z).argmax())


def _adversarial_logits(rng, n, V=12):
    """n logit vectors at the edges of the margin test.  The top logit is
    1e-3 to 1e11 in size, of either sign, and one runner-up lies 0 to 4
    margins, a whole number of margins or 0 to 3 ulp below it, or ties it; the
    other logits spread below.  One vector in 20 holds a NaN or +-inf."""
    top = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3, 11, n)
    spread = np.abs(top) * 10.0 ** rng.uniform(-12, 1, n)
    z = top[:, None] - spread[:, None] * rng.uniform(0, 1, (n, V))
    z[:, 0] = top
    kind = rng.integers(0, 4, n)
    gap = np.select(
        [kind == 0, kind == 1, kind == 2],
        [rng.uniform(0, 4, n) * _ARGMAX_MARGIN, rng.integers(0, 5, n) * _ARGMAX_MARGIN,
         rng.integers(0, 4, n) * np.spacing(np.abs(top))],
        0.0)
    z[np.arange(n), rng.integers(1, V, n)] = top - gap
    bad = rng.random(n) < 0.05
    z[bad, rng.integers(0, V, bad.sum())] = rng.choice([np.nan, np.inf, -np.inf], bad.sum())
    return rng.permuted(z, axis=1)


def test_greedy_on_raw_logits_picks_the_token_of_the_test_on_shifted_logits():
    # the raw test and the shifted one may disagree on skipping the softmax,
    # but never on the token (see the scorer's module docstring)
    rng = np.random.default_rng(34)
    with np.errstate(invalid="ignore"):
        for z in _adversarial_logits(rng, 50_000):
            assert _greedy_token(z.copy()) == _greedy_token_on_shifted_logits(z.copy()), z
