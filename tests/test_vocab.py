import pytest
from hypothesis import given
from hypothesis import strategies as st

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
