import gc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from exrank.template import Prompt
from exrank.vocab import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    RESERVED_TOKENS,
    UNK_ID,
    Vocabulary,
    tokenize,
)


def test_reserved_ids():
    v = Vocabulary.build(["a b c"])
    assert (PAD_ID, BOS_ID, EOS_ID, UNK_ID) == (0, 1, 2, 3)
    assert tuple(v.tokens[:4]) == RESERVED_TOKENS


def test_build_first_occurrence_order():
    v = Vocabulary.build(["b a", "a c"])
    assert v.tokens[4:] == ["b", "a", "c"]


def test_encode_decode_round_trip():
    v = Vocabulary.build(["the food was good"])
    ids = v.encode("food was good")
    assert v.decode(ids) == "food was good"


def test_unknown_maps_to_unk():
    v = Vocabulary.build(["a"])
    assert v.encode("zzz") == [UNK_ID]


def test_decode_skips_reserved():
    v = Vocabulary.build(["a"])
    assert v.decode([BOS_ID, v.index["a"], EOS_ID]) == "a"


def test_duplicate_tokens_rejected():
    with pytest.raises(ValueError):
        Vocabulary(list(RESERVED_TOKENS) + ["a", "a"])


@pytest.mark.parametrize("tokens", [[], ["a", "b"], list(RESERVED_TOKENS[:3]) + ["a"]])
def test_tokens_without_the_reserved_prefix_are_rejected(tokens):
    with pytest.raises(ValueError, match="must begin with"):
        Vocabulary(tokens)


def test_tokenize_is_whitespace_split():
    assert tokenize("a  b\tc") == ["a", "b", "c"]


_WORDS = ["the", "food", "was", "good", "<unk>", "<eos>", "Food", "bad"]


@given(st.lists(
    st.one_of(st.sampled_from(_WORDS), st.text(min_size=1, max_size=6),
              st.sampled_from([" ", "  ", "\t", "\n", "\r\n", "\u00a0", "\u3000"])),
    max_size=30,
))
def test_encode_equals_the_plain_lookup(pieces):
    v = Vocabulary.build(["the food was good bad"])
    text = "".join(pieces)
    expected = [v.index.get(t, UNK_ID) for t in tokenize(text)]
    got = v.encode(text)
    assert type(got) is list
    assert got == expected


_BLOCKS = st.lists(
    st.one_of(
        st.just(""),
        st.text(alphabet=" \t\n\u00a0\u2003\u3000", max_size=4),  # whitespace only
        st.lists(st.one_of(st.sampled_from(_WORDS),
                           st.sampled_from([" ", "\t", "\u00a0", "\u3000", "\x85"])),
                 max_size=8).map("".join),
    ),
    min_size=1, max_size=6,
)


@given(_BLOCKS, st.integers(min_value=1, max_value=40))
def test_prompt_tail_ids_equal_those_of_its_text(blocks, max_len):
    v = Vocabulary.build(["the food was good bad"])
    prompt = Prompt(blocks)
    text = str(prompt)
    got = v.tail_ids(prompt, max_len)
    assert got.dtype == np.intp
    assert got.tolist() == v.tail_ids(text, max_len).tolist()
    assert got.tolist() == v.encode(text)[-max_len:]
    assert len(v.prompt_ids(prompt)) == len(tokenize(text))


def test_memoized_ids_are_read_only_and_shared():
    v = Vocabulary.build(["the food was good"])
    ids = v.ids("the food")
    assert ids.dtype == np.intp and ids.tolist() == v.encode("the food")
    assert v.ids("the food") is ids
    with pytest.raises(ValueError, match="read-only"):
        ids[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        v.tail_ids("the food was", 2)[0] = 0


def test_a_miss_and_a_hit_return_equal_read_only_ids(monkeypatch):
    encoded = []
    encode = Vocabulary.encode
    monkeypatch.setattr(Vocabulary, "encode",
                        lambda self, text: encoded.append(text) or encode(self, text))
    v = Vocabulary.build(["the food was good"])
    miss = v.ids("the food")
    hit = v.ids("the food")
    v.prompt_ids(Prompt(["was zz", "the food"]))  # a miss inside a prompt
    for got in (miss, hit, v.ids("was zz")):
        assert got.dtype == np.intp
        with pytest.raises(ValueError, match="read-only"):
            got[0] = 0
    assert hit is miss
    assert miss.tolist() == encode(v, "the food")
    assert v.ids("was zz").tolist() == encode(v, "was zz")
    assert encoded == ["the food", "was zz"]  # once per block


def test_target_ids_frame_the_target_for_the_decoder():
    v = Vocabulary.build(["the food was good"])
    prev, picks = v.target_ids("food zz good")
    ids = v.encode("food zz good")
    assert prev.tolist() == [BOS_ID] + ids
    assert picks.tolist() == [step * len(v) + i for step, i in enumerate(ids + [EOS_ID])]
    assert prev.dtype == picks.dtype == np.intp
    again = v.target_ids("food zz good")
    assert again[0] is prev and again[1] is picks


def test_a_vocabulary_is_freed_without_the_cyclic_collector():
    # a cycle through the memo would keep a finished run's vocabulary and
    # every memoized array alive into the next run, raising its peak memory
    v = Vocabulary.build(["the food"])
    v.prompt_ids(Prompt(["the", "food zz"]))
    v.target_ids("food")
    gone = weakref.ref(v)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del v
        assert gone() is None
    finally:
        if was_enabled:
            gc.enable()
