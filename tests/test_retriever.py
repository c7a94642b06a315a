import numpy as np
import pytest

from exrank.corpus import generate_synthetic
from exrank.retriever import (
    CandidateIndex,
    StaleIndexError,
    build_index,
    encode_candidate,
    encode_query,
    encode_text,
    encode_text_backward,
    init_retriever,
    load_retriever,
    retrieve,
    save_retriever,
    similarity,
)
from exrank.template import Candidate, candidate_text, query_text
from exrank.vocab import Vocabulary

RNG = np.random.default_rng(20240818)


def _micro_retriever(words="alpha beta gamma delta", d_r=4, seed=0):
    vocab = Vocabulary.build([words])
    return init_retriever(vocab, d_r=d_r, max_len=32, seed=seed)


class TestEncode:
    def test_singleton_mean(self):
        state = _micro_retriever()
        one = encode_text(state, "alpha")
        p = state.params
        ids = state.vocab.encode("alpha")
        want = np.tanh(p["emb"][ids] @ p["w"].T + p["b"]).mean(axis=0)
        assert np.allclose(one, want, atol=1e-12)

    def test_permutation_invariant(self):
        state = _micro_retriever()
        assert np.allclose(
            encode_text(state, "alpha beta"), encode_text(state, "beta alpha"),
            atol=1e-12,
        )

    def test_mean_recomputed_independently(self):
        state = _micro_retriever()
        text = "alpha beta gamma"
        toks = text.split()
        per_token = [encode_text(state, t) for t in toks]
        assert np.allclose(
            encode_text(state, text), np.mean(per_token, axis=0), atol=1e-9
        )

    def test_empty_text_is_zero(self):
        state = _micro_retriever()
        assert np.array_equal(encode_text(state, ""), np.zeros(state.d_r))

    def test_zero_parameters_zero_vector(self):
        state = _micro_retriever()
        for k in state.params:
            state.params[k] = np.zeros_like(state.params[k])
        assert np.allclose(encode_text(state, "alpha beta"), 0.0)

    def test_query_determinism(self):
        state = _micro_retriever()
        assert np.array_equal(encode_query(state, "alpha"), encode_query(state, "alpha"))

    def test_query_and_candidate_renderings_differ(self):
        c = Candidate(id=0, input="alpha", output="beta")
        assert query_text("alpha") != candidate_text(c)
        state = _micro_retriever()
        assert not np.allclose(
            encode_query(state, "alpha"), encode_candidate(state, c)
        )


class TestBackward:
    def test_matches_finite_differences(self):
        state = _micro_retriever(d_r=3, seed=7)
        text = "alpha beta gamma"
        dh = RNG.normal(size=3)

        def forward():
            return float(encode_text(state, text) @ dh)

        grads = {k: np.zeros_like(v) for k, v in state.params.items()}
        encode_text_backward(state, text, dh, grads)
        eps = 1e-6
        for key, g in grads.items():
            flat = state.params[key].reshape(-1)
            for i in RNG.choice(flat.size, size=min(20, flat.size), replace=False):
                orig = flat[i]
                flat[i] = orig + eps
                up = forward()
                flat[i] = orig - eps
                dn = forward()
                flat[i] = orig
                num = (up - dn) / (2 * eps)
                ana = g.reshape(-1)[i]
                assert abs(num - ana) / max(abs(num), abs(ana), 1e-8) < 1e-4


class TestSimilarity:
    def test_zero_vector(self):
        assert similarity(np.array([1.0, 2.0]), np.zeros(2)) == 0.0

    def test_hand_value(self):
        assert similarity(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0

    def test_symmetry(self):
        a, b = RNG.normal(size=5), RNG.normal(size=5)
        assert similarity(a, b) == similarity(b, a)

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            similarity(np.zeros(3), np.zeros(4))


def _synthetic_index(state, n, quantize=False, rng=None):
    rng = rng or RNG
    matrix = rng.normal(size=(n, state.d_r))
    if quantize:
        matrix = np.round(matrix)  # force plenty of exact ties
    cands = [Candidate(id=i, input=f"c{i}", output="y") for i in range(n)]
    return CandidateIndex(
        matrix=matrix, ids=np.arange(n), candidates=cands, version=state.version
    )


class TestRetrieve:
    def test_self_exclusion(self):
        train, _ = generate_synthetic(20, 5, 0)
        state = _micro_retriever(" ".join(s.text for s in train.samples))
        index = build_index(state, train)
        query = train.samples[3]
        out = retrieve(state, index, query, 2, exclude_id=query.id)
        assert len(out) == 2
        assert all(sc.id != query.id for sc in out)

    def test_cross_split_query_keeps_the_candidate_sharing_its_id(self):
        train, test = generate_synthetic(20, 5, 0)
        state = _micro_retriever(" ".join(s.text for s in train.samples))
        index = build_index(state, train)
        query = test.samples[0]
        assert query.id in index.ids  # each split numbers its samples from 0
        out = retrieve(state, index, query, len(train))
        assert sorted(sc.id for sc in out) == sorted(index.ids.tolist())

    def test_matches_exhaustive_sort(self):
        state = _micro_retriever(d_r=6)
        index = _synthetic_index(state, 50)
        query = type("Q", (), {"id": 7, "text": "alpha beta"})()
        q = encode_query(state, "alpha beta")
        sims = index.matrix @ q
        for exclude in (7, None):
            got = [sc.id for sc in retrieve(state, index, query, 10, exclude_id=exclude)]
            order = sorted(
                (i for i in range(50) if i != exclude), key=lambda i: (-sims[i], i)
            )
            assert got == order[:10]

    def test_all_equal_embeddings_tie_rule(self):
        state = _micro_retriever()
        index = _synthetic_index(state, 10)
        index.matrix = np.ones_like(index.matrix)
        query = type("Q", (), {"id": 4, "text": "alpha"})()
        got = [sc.id for sc in retrieve(state, index, query, 5, exclude_id=query.id)]
        assert got == [0, 1, 2, 3, 5]
        assert [sc.id for sc in retrieve(state, index, query, 5)] == [0, 1, 2, 3, 4]

    def test_m_larger_than_pool_warns_and_clamps(self, caplog):
        state = _micro_retriever()
        index = _synthetic_index(state, 4)
        query = type("Q", (), {"id": 0, "text": "alpha"})()
        with caplog.at_level("WARNING"):
            out = retrieve(state, index, query, 99, exclude_id=query.id)
        assert len(out) == 3
        assert any("exceeds pool" in rec.message for rec in caplog.records)

    def test_m_validation(self):
        state = _micro_retriever()
        index = _synthetic_index(state, 4)
        query = type("Q", (), {"id": 0, "text": "alpha"})()
        with pytest.raises(ValueError):
            retrieve(state, index, query, 0)

    def test_stale_index_rejected(self):
        train, _ = generate_synthetic(20, 5, 0)
        state = _micro_retriever(" ".join(s.text for s in train.samples))
        index = build_index(state, train)
        state.version += 1  # as if a training step happened
        with pytest.raises(StaleIndexError):
            retrieve(state, index, train.samples[0], 2)
        out = retrieve(state, index, train.samples[0], 2, allow_stale=True)
        assert len(out) == 2


class TestIndex:
    def test_rebuild_identical(self):
        train, _ = generate_synthetic(20, 5, 0)
        state = _micro_retriever(" ".join(s.text for s in train.samples))
        a = build_index(state, train)
        b = build_index(state, train)
        assert np.array_equal(a.matrix, b.matrix)
        assert np.array_equal(a.ids, b.ids)

    def test_index_matches_on_the_fly_encoding(self):
        train, _ = generate_synthetic(20, 5, 0)
        state = _micro_retriever(" ".join(s.text for s in train.samples))
        index = build_index(state, train)
        for i, c in enumerate(index.candidates):
            assert np.allclose(index.matrix[i], encode_candidate(state, c), atol=1e-12)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        state = _micro_retriever(seed=9)
        path = tmp_path / "r.ckpt.npz"
        save_retriever(state, path)
        back = load_retriever(path)
        assert back.vocab.tokens == state.vocab.tokens
        for k, v in state.params.items():
            assert np.array_equal(back.params[k], v)
        assert np.array_equal(
            encode_text(back, "alpha beta"), encode_text(state, "alpha beta")
        )

    def test_format_check(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, format=np.array("nope"))
        with pytest.raises(ValueError):
            load_retriever(path)
