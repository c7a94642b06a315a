import dataclasses
import tracemalloc

import numpy as np
import pytest

from exrank.contrastive import _batch_loss_and_grads
from exrank.optim import ALIGN, AdamW, FlatViews, add_rows_at, aligned_zeros, check_finite
from exrank.retriever import build_index, init_retriever, load_retriever, retrieve, save_retriever
from exrank.scorer import generate, init_scorer, load_scorer, nll_and_grads, save_scorer, step_logits
from exrank.vocab import Vocabulary


class _ReferenceAdamW:
    """The out-of-place AdamW formula, kept as the bit-exact oracle."""

    def __init__(self, params, lr, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params, grads):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for key, g in grads.items():
            m = self.m[key]
            v = self.v[key]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1 ** self.t)
            v_hat = v / (1.0 - b2 ** self.t)
            params[key] -= self.lr * (
                m_hat / (np.sqrt(v_hat) + self.eps) + self.weight_decay * params[key]
            )


def _params(seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return {
        "emb": rng.normal(0.0, scale, size=(37, 8)),
        "w": rng.normal(0.0, scale, size=(8, 8)),
        "b": np.array([0.0, -0.0, 1e-300, -1e-300, 3.0, -2.0, 0.5, 1e-9]),
    }


def _grads(rng, params):
    grads = {k: rng.normal(0.0, 1.0, size=v.shape) for k, v in params.items()}
    grads["b"][:2] = [0.0, -0.0]  # signed zeros must survive exactly too
    grads["w"][0, :] *= 1e-12  # tiny gradients stress the eps term
    return grads


def _into_workspace(opt, grads):
    for key, g in grads.items():
        opt.grads[key][...] = g


def _assert_matches_reference(steps, weight_decay):
    ours, ref = FlatViews.pack(_params(0)), _params(0)
    opt = AdamW(ours, lr=3e-3, weight_decay=weight_decay)
    oracle = _ReferenceAdamW(ref, lr=3e-3, weight_decay=weight_decay)
    rng = np.random.default_rng(1)
    for _ in range(steps):
        grads = _grads(rng, ours)
        _into_workspace(opt, grads)
        opt.step()
        oracle.step(ref, grads)
        for key in ours:
            assert ours[key].tobytes() == ref[key].tobytes(), key
            assert opt.m[key].tobytes() == oracle.m[key].tobytes(), key
            assert opt.v[key].tobytes() == oracle.v[key].tobytes(), key
    return opt


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_bit_identical_to_reference_over_20_steps(weight_decay):
    _assert_matches_reference(20, weight_decay)


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_bit_identical_to_reference_past_the_first_moment_correction(weight_decay):
    # from t = 356 on, 1 - 0.9**t is exactly 1.0 and the step skips m / c1
    opt = _assert_matches_reference(400, weight_decay)
    assert 1.0 - 0.9 ** 355 != 1.0 and 1.0 - 0.9 ** 356 == 1.0
    assert opt.t == 400


def _assert_one_buffer(params, plain):
    """``params`` holds the bytes of the dict ``plain`` in views of one buffer."""
    assert params.flat.ndim == 1 and params.flat.flags.c_contiguous
    assert params.flat.size == sum(v.size for v in plain.values())
    assert list(params) == list(plain)
    for key, p in params.items():
        assert p.base is params.flat and p.flags.c_contiguous, key
        assert p.shape == plain[key].shape and p.tobytes() == plain[key].tobytes(), key


def test_packing_keeps_every_byte_in_one_buffer():
    plain = _params(8)
    params = FlatViews.pack(plain)
    _assert_one_buffer(params, plain)
    zeros = params.zeros_like()
    assert zeros.flat is not params.flat and not zeros.flat.any()
    _assert_one_buffer(zeros, {k: np.zeros_like(v) for k, v in plain.items()})


def test_assigning_a_key_writes_into_the_buffer():
    params = FlatViews.pack(_params(8))
    view = params["w"]
    params["w"] = np.full((8, 8), 2.5)
    assert params["w"] is view and (params.flat[37 * 8:37 * 8 + 64] == 2.5).all()
    with pytest.raises(ValueError, match=r"'b' has shape \(8,\), got \(\)"):
        params["b"] = 0.0
    assert params["b"].tobytes() == _params(8)["b"].tobytes()


@pytest.mark.parametrize("mutate", [
    lambda p: p.update(w=np.ones((8, 8))),
    lambda p: p.__ior__({"w": np.ones((8, 8))}),
    lambda p: p.setdefault("extra", np.ones(3)),
    lambda p: p.pop("w"),
    lambda p: p.popitem(),
    lambda p: p.__delitem__("w"),
    lambda p: p.clear(),
], ids=["update", "ior", "setdefault", "pop", "popitem", "delitem", "clear"])
def test_dict_mutators_that_bypass_the_buffer_are_refused(mutate):
    plain = _params(8)
    params = FlatViews.pack(plain)
    with pytest.raises(TypeError, match="fixed views"):
        mutate(params)
    _assert_one_buffer(params, plain)


def test_optimizer_keeps_the_params_it_is_given():
    state = init_scorer(Vocabulary.build(["alpha beta gamma delta"]), d=4, max_len=16)
    params, values = state.params, dict(state.params)
    before = {k: v.copy() for k, v in values.items()}
    opt = AdamW(state.params, lr=1e-3)
    assert state.params is params and list(params) == list(values)
    assert all(params[k] is v for k, v in values.items()), "values were rebound"
    assert list(params) == list(opt.m) == list(opt.v) == list(opt.grads)
    for views in (opt.m, opt.v, opt.grads):
        assert views.flat is not params.flat and not views.flat.any()
        for key, p in params.items():
            assert views[key].base is views.flat and views[key].shape == p.shape, key
    opt.grads.flat.fill(1.0)
    opt.step()
    for key, v in values.items():  # the update reached the arrays the caller holds
        assert params[key] is v and not np.array_equal(v, before[key]), key


_MODELS = pytest.mark.parametrize("init, save, load", [
    (lambda vocab: init_scorer(vocab, d=6, max_len=16, seed=3), save_scorer, load_scorer),
    (lambda vocab: init_retriever(vocab, d_r=6, max_len=16, seed=3),
     save_retriever, load_retriever),
], ids=["scorer", "retriever"])


@_MODELS
def test_models_are_flat_from_init_and_load(tmp_path, init, save, load):
    state = init(Vocabulary.build(["alpha beta gamma delta"]))
    plain = {k: v.copy() for k, v in state.params.items()}
    _assert_one_buffer(state.params, plain)
    save(state, tmp_path / "flat.npz")
    _assert_one_buffer(load(tmp_path / "flat.npz").params, plain)


@_MODELS
def test_packing_leaves_checkpoint_bytes_unchanged(tmp_path, init, save, load):
    state = init(Vocabulary.build(["alpha beta gamma delta"]))
    plain = dataclasses.replace(
        state, params={k: v.copy() for k, v in state.params.items()})
    assert isinstance(state.params, FlatViews) and not isinstance(plain.params, FlatViews)
    save(plain, tmp_path / "plain.npz")
    save(state, tmp_path / "flat.npz")
    assert (tmp_path / "flat.npz").read_bytes() == (tmp_path / "plain.npz").read_bytes()
    # a loaded checkpoint is packed the same way
    save(load(tmp_path / "flat.npz"), tmp_path / "again.npz")
    assert (tmp_path / "again.npz").read_bytes() == (tmp_path / "plain.npz").read_bytes()


@_MODELS
def test_buffers_start_on_an_aligned_boundary(tmp_path, init, save, load):
    assert all(aligned_zeros(n).ctypes.data % ALIGN == 0 for n in (0, 1, 7, 50_000))
    state = init(Vocabulary.build(["alpha beta gamma delta"]))
    save(state, tmp_path / "aligned.npz")
    for params in (state.params, load(tmp_path / "aligned.npz").params,
                   state.params.zeros_like(), AdamW(state.params, lr=1e-3).grads):
        assert params.flat.ctypes.data % ALIGN == 0


def _misaligned(params):
    """A copy of ``params`` in a buffer that starts 16 bytes off ``ALIGN``."""
    buf = aligned_zeros(params.flat.size + 2)
    flat = buf[2:]
    flat[...] = params.flat
    return FlatViews(flat, {k: v.shape for k, v in params.items()})


def test_alignment_moves_no_float_of_decoding_or_retrieval():
    # aligned buffers change the speed of the BLAS products, never their bits
    from exrank.corpus import generate_synthetic
    from exrank.template import task_input

    train, test = generate_synthetic(60, 6, 2)
    vocab = Vocabulary.build([task_input(s, train.task) for s in train.samples])
    rng = np.random.default_rng(2)
    scorer = init_scorer(vocab, d=64, max_len=128, seed=2)
    scorer.params["w_out"] = rng.normal(0.0, 0.3, scorer.params["w_out"].shape)
    retr = init_retriever(vocab, d_r=64, max_len=128, seed=2)
    index = build_index(retr, train)
    assert index.matrix.ctypes.data % ALIGN == 0
    moved_scorer = dataclasses.replace(scorer, params=_misaligned(scorer.params))
    moved_index = dataclasses.replace(index, matrix=_misaligned(
        FlatViews.pack({"m": index.matrix}))["m"])
    assert moved_scorer.params["w_out"].ctypes.data % 32 == 16
    assert moved_index.matrix.ctypes.data % 32 == 16
    for s in test.samples:
        prompt = task_input(s, test.task)
        assert generate(moved_scorer, prompt, 6) == generate(scorer, prompt, 6)
        for prefix in ([], [5], [5, 9, 11]):
            assert (step_logits(moved_scorer, prompt, prefix).tobytes()
                    == step_logits(scorer, prompt, prefix).tobytes())
        got = retrieve(retr, moved_index, prompt, 5)
        assert [(c.id, c.similarity) for c in got] == [
            (c.id, c.similarity) for c in retrieve(retr, index, prompt, 5)]


def test_zero_weight_decay_keeps_signed_zeros_of_the_reference():
    # the skipped ``a + 0*p`` matters only at a = -0, p = +0; a first moment
    # of -0 and gradients of -0 produce exactly that a
    ours, ref = FlatViews.pack(_params(5)), _params(5)
    for params in (ours, ref):
        params["emb"][::2] = 0.0
        params["emb"][1::2] = -0.0
    opt = AdamW(ours, lr=3e-3, weight_decay=0.0)
    oracle = _ReferenceAdamW(ref, lr=3e-3, weight_decay=0.0)
    for moments in (opt.m, oracle.m):
        for m in moments.values():
            m.fill(-0.0)
    rng = np.random.default_rng(6)
    for _ in range(5):
        grads = _grads(rng, ours)
        grads["emb"][:] = -0.0
        _into_workspace(opt, grads)
        opt.step()
        oracle.step(ref, grads)
        for key in ours:
            assert ours[key].tobytes() == ref[key].tobytes(), key
            assert opt.m[key].tobytes() == oracle.m[key].tobytes(), key
    assert np.signbit(opt.m["emb"]).all()  # the case was reached


def test_add_rows_at_equals_add_at_in_turn():
    rng = np.random.default_rng(7)
    ours = rng.normal(size=(9, 5))
    ref = ours.copy()
    prev = np.array([3, 3, 0, 8], dtype=np.intp)
    rows = rng.normal(size=(4, 5)) * [1.0, 1e-17, 1e17, -1.0, 0.5]
    ids = np.array([8, 3, 3, 3, 1], dtype=np.intp)
    shared = rng.normal(size=5)
    np.add.at(ref, prev, rows)
    np.add.at(ref, ids, shared)
    add_rows_at(ours, (prev, rows), (ids, shared))
    assert ours.tobytes() == ref.tobytes()


@pytest.mark.parametrize("shape", ["rows", "strided rows", "one row"])
def test_add_rows_at_one_part_equals_add_at(shape):
    rng = np.random.default_rng(11)
    ours = rng.normal(size=(9, 5))
    ref = ours.copy()
    ids = np.array([8, 3, 3, 0, 3], dtype=np.intp)
    rows = {"rows": rng.normal(size=(5, 5)),
            "strided rows": rng.normal(size=(5, 10))[:, ::2],
            "one row": rng.normal(size=5)}[shape]
    np.add.at(ref, ids, rows)
    add_rows_at(ours, (ids, rows))
    assert ours.tobytes() == ref.tobytes()


def test_add_rows_at_refuses_a_strided_destination():
    dest = np.zeros((5, 8))[:, ::2]
    with pytest.raises(ValueError, match="C-contiguous"):
        add_rows_at(dest, (np.array([1], dtype=np.intp), np.ones(4)))
    assert not dest.any()


def test_step_allocates_no_parameter_sized_temporaries():
    rng = np.random.default_rng(4)
    params = FlatViews.pack({"emb": rng.normal(size=(300, 40)), "b": rng.normal(size=300)})
    opt = AdamW(params, lr=1e-3, weight_decay=0.01)
    _into_workspace(opt, {k: rng.normal(size=v.shape) for k, v in params.items()})
    opt.step()  # warm any lazy interpreter state
    param_bytes = sum(v.nbytes for v in params.values())
    tracemalloc.start()
    try:
        opt.step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < param_bytes / 4, (peak, param_bytes)


def test_optimizer_holds_at_most_four_parameter_sized_buffers():
    rng = np.random.default_rng(4)
    params = FlatViews.pack({"emb": rng.normal(size=(300, 40)), "b": rng.normal(size=300)})
    tracemalloc.start()
    try:
        opt = AdamW(params, lr=1e-3, weight_decay=0.01)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # m, v, grads and one scratch buffer; the step's other scratch is grads
    assert held < 4.5 * opt.m.flat.nbytes, (held, opt.m.flat.nbytes)


def _consumed_workspace(state, write):
    """An optimizer over ``state.params`` whose ``grads`` a step has consumed."""
    opt = AdamW(state.params, lr=1e-3, weight_decay=0.01)
    write(opt.grads)
    gradients = opt.grads.flat.copy()
    opt.step()
    assert not np.array_equal(opt.grads.flat, gradients)  # scratch values now
    return opt


def test_gradient_writers_overwrite_a_consumed_workspace_whole():
    words = [f"w{i}" for i in range(12)]
    vocab = Vocabulary.build([" ".join(words)])

    scorer = init_scorer(vocab, d=6, max_len=16, seed=3)
    args = (scorer, "Input: w1 w2 w3", "w4 w5")
    opt = _consumed_workspace(scorer, lambda out: nll_and_grads(*args, out))
    _, fresh = nll_and_grads(*args, scorer.params.zeros_like())
    _, reused = nll_and_grads(*args, opt.grads)
    assert reused is opt.grads and reused.flat.tobytes() == fresh.flat.tobytes()

    retr = init_retriever(vocab, d_r=6, max_len=16, seed=3)
    batch = [("Input: w1 w2", "Input: w3 Output: w4", "Input: w5 Output: w6"),
             ("Input: w7", "Input: w8 w9 Output: w10", "Input: w11 Output: w0")]
    opt = _consumed_workspace(retr, lambda out: _batch_loss_and_grads(retr, batch, out))
    _, fresh = _batch_loss_and_grads(retr, batch, retr.params.zeros_like())
    _, reused = _batch_loss_and_grads(retr, batch, opt.grads)
    assert reused is opt.grads and reused.flat.tobytes() == fresh.flat.tobytes()


def test_check_finite_names_the_bad_key():
    vocab = Vocabulary.build(["alpha beta gamma delta"])
    state = init_scorer(vocab, d=4, max_len=16, seed=0)
    grads = AdamW(state.params, lr=1e-3).grads
    grads.flat[:] = np.random.default_rng(9).normal(size=grads.flat.size)
    check_finite(1.0, grads, "ctx")
    grads["w_enc"][1, 2] = np.inf
    with pytest.raises(FloatingPointError, match="'w_enc'.*ctx"):
        check_finite(1.0, grads, "ctx")
    grads["w_enc"][1, 2] = 0.5
    grads["b_out"][-1] = np.nan
    with pytest.raises(FloatingPointError, match="'b_out'"):
        check_finite(1.0, grads, "ctx")
    grads["b_out"][-1] = 0.5
    with pytest.raises(FloatingPointError, match="non-finite loss"):
        check_finite(float("nan"), grads, "ctx")
    with pytest.raises(FloatingPointError, match="non-finite loss"):
        check_finite(float("-inf"), grads, "ctx")
    check_finite(1.0, grads, "ctx")


@pytest.mark.parametrize("setting", [
    {"lr": float("nan")},
    {"lr": float("inf")},
    {"lr": 1e-3, "weight_decay": -0.01},
    {"lr": 1e-3, "weight_decay": float("nan")},
])
def test_non_finite_or_negative_settings_are_rejected(setting):
    name = "weight_decay" if "weight_decay" in setting else "lr"
    with pytest.raises(ValueError, match=f"{name} must be finite and non-negative"):
        AdamW(_params(0), **setting)

