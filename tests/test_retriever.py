import logging
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exrank.corpus import generate_synthetic
from exrank.retriever import (
    CandidateIndex,
    StaleIndexError,
    build_index,
    eligible,
    encode_text,
    encode_text_backward,
    init_retriever,
    load_retriever,
    retrieve,
    save_retriever,
)
from exrank.template import Candidate, candidate_text, make_candidate, query_text
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
        assert np.array_equal(encode_text(state, query_text("alpha")),
                              encode_text(state, query_text("alpha")))

    def test_query_and_candidate_renderings_differ(self):
        c = Candidate(id=0, input="alpha", output="beta")
        assert query_text("alpha") != candidate_text(c)
        state = _micro_retriever()
        assert not np.allclose(
            encode_text(state, query_text("alpha")), encode_text(state, candidate_text(c))
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
        out = retrieve(state, index, query.text, 2, exclude_id=query.id)
        assert len(out) == 2
        assert all(sc.id != query.id for sc in out)

    def test_cross_split_query_keeps_the_candidate_sharing_its_id(self):
        train, test = generate_synthetic(20, 5, 0)
        state = _micro_retriever(" ".join(s.text for s in train.samples))
        index = build_index(state, train)
        query = test.samples[0]
        assert query.id in index.ids  # each split numbers its samples from 0
        out = retrieve(state, index, query.text, len(train))
        assert sorted(sc.id for sc in out) == sorted(index.ids.tolist())

    def test_matches_exhaustive_sort(self):
        state = _micro_retriever(d_r=6)
        index = _synthetic_index(state, 50)
        query = type("Q", (), {"id": 7, "text": "alpha beta"})()
        q = encode_text(state, query_text("alpha beta"))
        sims = index.matrix @ q
        for exclude in (7, None):
            got = [sc.id for sc in retrieve(state, index, query.text, 10, exclude_id=exclude)]
            order = sorted(
                (i for i in range(50) if i != exclude), key=lambda i: (-sims[i], i)
            )
            assert got == order[:10]

    def test_all_equal_embeddings_tie_rule(self):
        state = _micro_retriever()
        index = _synthetic_index(state, 10)
        index.matrix = np.ones_like(index.matrix)
        query = type("Q", (), {"id": 4, "text": "alpha"})()
        got = [sc.id for sc in retrieve(state, index, query.text, 5, exclude_id=query.id)]
        assert got == [0, 1, 2, 3, 5]
        assert [sc.id for sc in retrieve(state, index, query.text, 5)] == [0, 1, 2, 3, 4]

    def test_m_larger_than_pool_warns_and_clamps(self, caplog):
        state = _micro_retriever()
        index = _synthetic_index(state, 4)
        query = type("Q", (), {"id": 0, "text": "alpha"})()
        with caplog.at_level("WARNING"):
            out = retrieve(state, index, query.text, 99, exclude_id=query.id)
        assert len(out) == 3
        assert any("exceeds pool" in rec.message for rec in caplog.records)

    def test_m_validation(self):
        state = _micro_retriever()
        index = _synthetic_index(state, 4)
        query = type("Q", (), {"id": 0, "text": "alpha"})()
        with pytest.raises(ValueError):
            retrieve(state, index, query.text, 0)

    def test_stale_index_rejected(self):
        train, _ = generate_synthetic(20, 5, 0)
        state = _micro_retriever(" ".join(s.text for s in train.samples))
        index = build_index(state, train)
        state.version += 1  # as if a training step happened
        with pytest.raises(StaleIndexError):
            retrieve(state, index, train.samples[0].text, 2)
        out = retrieve(state, index, train.samples[0].text, 2, allow_stale=True)
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
            assert np.allclose(index.matrix[i], encode_text(state, candidate_text(c)),
                               atol=1e-12)


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


# The plain encoder and retrieval formulas, kept as the bit-exact oracle for
# the in-place encoder and the partition-based top-m in exrank.retriever.
def _reference_encode_text(state, text):
    ids = state.vocab.encode(text)[-state.max_len:]
    if not ids:
        return np.zeros(state.d_r)
    p = state.params
    u = np.tanh(p["emb"][ids] @ p["w"].T + p["b"])
    return u.mean(axis=0)


def _reference_encode_text_backward(state, text, dh, grads):
    ids = state.vocab.encode(text)[-state.max_len:]
    if not ids:
        return
    p = state.params
    e = p["emb"][ids]
    u = np.tanh(e @ p["w"].T + p["b"])
    da = (1.0 - u * u) * (dh / len(ids))
    grads["w"] += da.T @ e
    grads["b"] += da.sum(axis=0)
    np.add.at(grads["emb"], ids, da @ p["w"])


def _reference_retrieve(state, index, query, m, exclude_id=None):
    q = _reference_encode_text(state, query_text(query.text))
    if exclude_id is None:
        keep = np.arange(len(index.ids))
    else:
        keep = np.flatnonzero(index.ids != exclude_id)
    ids = index.ids[keep]
    sims = (index.matrix @ q)[keep]
    order = np.lexsort((ids, -sims))[:min(m, len(ids))]
    return [(index.candidates[keep[i]].id, float(sims[i])) for i in order]


def _oracle_retriever(seed, max_len=6):
    words = [f"w{i}" for i in range(20)]
    state = init_retriever(Vocabulary.build(words), d_r=5, max_len=max_len, seed=seed)
    state.params["b"] = np.random.default_rng(seed + 3).normal(0.0, 0.5, 5)
    return state


ENCODE_CASES = {
    "empty": "",
    "whitespace": "  \t \n ",
    "longer-than-max-len": " ".join(f"w{i % 20}" for i in range(17)),
    "unknown-tokens": "w1 zz w2 ?? w1",
    "repeated-ids": "w4 w4 w4 w4",
    "one-token": "w9",
}


def _permuted_index(state, n, seed, quantize=True):
    """Rows in shuffled id order; integer-valued rows when ``quantize``."""
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(n, state.d_r))
    if quantize:
        matrix = np.round(matrix)
    ids = rng.permutation(3 * n)[:n]
    cands = [Candidate(id=int(i), input=f"c{i}", output="y") for i in ids]
    return CandidateIndex(matrix=matrix, ids=ids, candidates=cands,
                          version=state.version)


class TestBitExactAgainstOracle:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_encode_text(self, seed):
        state = _oracle_retriever(seed)
        for name, text in ENCODE_CASES.items():
            got = encode_text(state, text)
            want = _reference_encode_text(state, text)
            assert got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("max_len", [6, 128])
    def test_build_index(self, max_len):
        pool, _ = generate_synthetic(30, 1, 4)
        texts = [candidate_text(make_candidate(s, pool.task)) for s in pool.samples]
        # built from every other text, so the rest hold <unk> tokens
        state = init_retriever(Vocabulary.build(texts[::2]), d_r=5, max_len=max_len,
                               seed=4)
        state.params["b"] = np.random.default_rng(4).normal(0.0, 0.5, 5)
        index = build_index(state, pool)
        assert index.matrix.shape == (len(texts), state.d_r)
        for row, text in zip(index.matrix, texts):
            assert row.tobytes() == _reference_encode_text(state, text).tobytes(), text
        empty = build_index(state, replace(pool, samples=[]))
        assert empty.matrix.shape == (0, state.d_r) and len(empty.ids) == 0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_encode_text_backward(self, seed):
        state = _oracle_retriever(seed)
        dh = np.random.default_rng(seed).normal(size=state.d_r)
        got = {k: np.zeros_like(v) for k, v in state.params.items()}
        want = {k: np.zeros_like(v) for k, v in state.params.items()}
        for name, text in ENCODE_CASES.items():  # accumulates across cases
            encode_text_backward(state, text, dh, got)
            _reference_encode_text_backward(state, text, dh, want)
            for key in want:
                assert got[key].tobytes() == want[key].tobytes(), (name, key)

    @pytest.mark.parametrize("quantize", [True, False])
    @pytest.mark.parametrize("exclude", ["absent", "present", "missing-id"])
    def test_retrieve(self, quantize, exclude):
        state = _oracle_retriever(2)
        n = 40
        index = _permuted_index(state, n, 5, quantize)
        for text in ENCODE_CASES.values():
            query = type("Q", (), {"id": int(index.ids[7]), "text": text})()
            exclude_id = {"absent": None, "present": query.id, "missing-id": -1}[exclude]
            for m in (1, 2, 5, n - 2, n - 1, n):
                got = retrieve(state, index, query.text, m, exclude_id=exclude_id)
                assert [(sc.id, sc.similarity) for sc in got] == _reference_retrieve(
                    state, index, query, m, exclude_id), (text, m)

    @pytest.mark.parametrize("exclude", [False, True])
    def test_retrieve_gives_python_floats(self, exclude):
        # a numpy scalar would compare equal to the oracle's float, yet carry
        # its type into every record built from it
        state = _oracle_retriever(2)
        index = _permuted_index(state, 20, 5, quantize=False)
        exclude_id = int(index.ids[3]) if exclude else None
        got = retrieve(state, index, "w1 w2 w3", 6, exclude_id=exclude_id)
        assert len(got) == 6
        assert all(type(sc.similarity) is float for sc in got)
        assert all(type(sc.id) is int for sc in got)

    def test_retrieve_m_at_and_past_pool(self, caplog):
        state = _oracle_retriever(3)
        index = _permuted_index(state, 12, 6)
        query = type("Q", (), {"id": int(index.ids[0]), "text": "w1 w2"})()
        for exclude_id, eligible in ((None, 12), (query.id, 11)):
            for m in (eligible, eligible + 1, eligible + 5):
                caplog.clear()
                with caplog.at_level(logging.WARNING):
                    got = retrieve(state, index, query.text, m, exclude_id=exclude_id)
                assert [(sc.id, sc.similarity) for sc in got] == _reference_retrieve(
                    state, index, query, m, exclude_id)
                assert len(got) == eligible
                warned = any("exceeds pool" in r.message for r in caplog.records)
                assert warned == (m > eligible)

    def test_retrieve_all_similarities_tied(self):
        state = _oracle_retriever(4)
        index = _permuted_index(state, 30, 7)
        index.matrix = np.ones_like(index.matrix)
        query = type("Q", (), {"id": 0, "text": "w3"})()
        for m in (1, 4, 29, 30):
            got = [sc.id for sc in retrieve(state, index, query.text, m)]
            assert got == sorted(index.ids.tolist())[:m]
            assert got == [i for i, _ in _reference_retrieve(state, index, query, m)]

    def test_retrieve_nan_similarities_follow_lexsort(self):
        state = _oracle_retriever(5)
        index = _permuted_index(state, 10, 8)
        index.matrix[[2, 5, 6]] = np.nan
        query = type("Q", (), {"id": 0, "text": "w3 w4"})()
        for m in range(1, 11):
            got = [sc.id for sc in retrieve(state, index, query.text, m)]
            assert got == [i for i, _ in _reference_retrieve(state, index, query, m)]


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3),
                  min_size=1, max_size=25),
    m=st.integers(1, 27),
    exclude=st.one_of(st.none(), st.integers(0, 30)),
    text=st.sampled_from(["w1", "w2 w3", "", "w5 w5 zz"]),
)
def test_retrieve_equals_brute_force_sort(rows, m, exclude, text):
    words = [f"w{i}" for i in range(8)]
    state = init_retriever(Vocabulary.build(words), d_r=3, max_len=8, seed=0)
    n = len(rows)
    ids = np.arange(n)[::-1] * 2  # descending ids, so row order is not id order
    index = CandidateIndex(
        matrix=np.array(rows, dtype=float), ids=ids,
        candidates=[Candidate(id=int(i), input=f"c{i}", output="y") for i in ids],
        version=0,
    )
    query = type("Q", (), {"id": -1, "text": text})()
    sims = index.matrix @ encode_text(state, query_text(text))
    brute = sorted((-sims[r], int(ids[r])) for r in range(n) if ids[r] != exclude)[:m]
    got = retrieve(state, index, query.text, m, exclude_id=exclude)
    assert [(sc.id, -sc.similarity) for sc in got] == [(i, s) for s, i in brute]


def test_eligible_lists_the_members_of_the_pool_split_only():
    train, test = generate_synthetic(20, 3, 0)
    twin = replace(test, samples=[replace(train.samples[0])])  # same id and text
    assert eligible(train, train) == (set(range(20)), [19] * 20)
    assert eligible(test, train) == (set(), [20] * 3)
    assert eligible(twin, train) == (set(), [20])
    assert eligible(train, replace(train, samples=[])) == (set(), [0] * 20)
