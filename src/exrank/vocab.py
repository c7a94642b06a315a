"""Whitespace tokenizer and the vocabulary shared by scorer and retriever."""

from itertools import repeat

import numpy as np

PAD_ID, BOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>")


def tokenize(text):
    return text.split()


class Vocabulary:
    """Bijective token-to-id map whose first four tokens are the reserved ones.

    ``build`` makes one by a first-occurrence scan, so the ordering is
    deterministic for a fixed corpus.

    ``ids`` memoizes the ids of each block of text it is given.  The token list
    never changes, so no entry ever goes stale.
    """

    def __init__(self, tokens):
        self.tokens = list(tokens)
        if tuple(self.tokens[: len(RESERVED_TOKENS)]) != RESERVED_TOKENS:
            raise ValueError(f"vocabulary must begin with {RESERVED_TOKENS}")
        self.index = {t: i for i, t in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise ValueError("duplicate tokens in vocabulary")
        self._ids = {}  # block text -> its read-only ids

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

    def ids(self, block):
        """Ids of ``block`` as a read-only index array, encoded once per block."""
        ids = self._ids.get(block)
        if ids is None:
            ids = np.array(self.encode(block), dtype=np.intp)
            ids.flags.writeable = False
            self._ids[block] = ids
        return ids

    def prompt_ids(self, text):
        """Ids of every token of ``text``, never to be written into.

        A ``template.Prompt`` is the concatenation of its blocks' memoized ids:
        ``str.split`` of blocks joined by spaces is the concatenation of each
        block's split.  A plain ``str`` is one block.
        """
        blocks = getattr(text, "blocks", None)
        if not blocks:
            return self.ids(text)
        return np.concatenate([self.ids(b) for b in blocks])

    def tail_ids(self, text, max_len):
        """Ids of the last ``max_len`` tokens of ``text``, never to be written into."""
        # a model keeps the tail so the query input, which ends every prompt,
        # survives truncation
        return self.prompt_ids(text)[-max_len:]

    def decode(self, ids):
        return " ".join(
            self.tokens[i] for i in ids if i >= len(RESERVED_TOKENS)
        )
