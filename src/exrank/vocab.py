"""Whitespace tokenizer and the vocabulary shared by scorer and retriever."""

from itertools import repeat

PAD_ID, BOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>")


def tokenize(text):
    return text.split()


class Vocabulary:
    """Bijective token-to-id map with four reserved ids.

    Built by a first-occurrence scan, so the ordering is deterministic for a
    fixed corpus.
    """

    def __init__(self, tokens):
        if tuple(tokens[: len(RESERVED_TOKENS)]) != RESERVED_TOKENS:
            tokens = list(RESERVED_TOKENS) + list(tokens)
        self.tokens = list(tokens)
        self.index = {t: i for i, t in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise ValueError("duplicate tokens in vocabulary")

    @classmethod
    def build(cls, texts):
        seen = dict()
        for text in texts:
            for tok in tokenize(text):
                if tok not in seen:
                    seen[tok] = None
        return cls(list(RESERVED_TOKENS) + list(seen))

    def __len__(self):
        return len(self.tokens)

    def encode(self, text):
        return list(map(self.index.get, tokenize(text), repeat(UNK_ID)))

    def decode(self, ids):
        return " ".join(
            self.tokens[i] for i in ids if i >= len(RESERVED_TOKENS)
        )
