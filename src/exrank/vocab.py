"""Whitespace tokenizer and the vocabulary shared by scorer and retriever."""

import weakref
from itertools import repeat

import numpy as np

PAD_ID, BOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>")
_N_RESERVED = len(RESERVED_TOKENS)


def tokenize(text):
    return text.split()


class _BlockIds(dict):
    """Block text -> its read-only ids; a missing block is encoded, once, by
    indexing it.  It reaches its vocabulary through a weak proxy: a strong
    reference would make a cycle, and a vocabulary with its memo would then
    outlive its last user until the cyclic collector ran."""

    def __init__(self, vocab):
        super().__init__()
        self.vocab = weakref.proxy(vocab)

    def __missing__(self, block):
        ids = self[block] = np.array(self.vocab.encode(block), dtype=np.intp)
        ids.flags.writeable = False
        return ids


class Vocabulary:
    """Bijective token-to-id map whose first four tokens are the reserved ones.

    ``build`` makes one by a first-occurrence scan, so the ordering is
    deterministic for a fixed corpus.

    ``ids`` memoizes the ids of each block of text it is given, and
    ``target_ids`` the decoder's ids of each target.  The token list never
    changes, so no entry ever goes stale.
    """

    def __init__(self, tokens):
        self.tokens = list(tokens)
        if tuple(self.tokens[: len(RESERVED_TOKENS)]) != RESERVED_TOKENS:
            raise ValueError(f"vocabulary must begin with {RESERVED_TOKENS}")
        self.index = {t: i for i, t in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise ValueError("duplicate tokens in vocabulary")
        self._ids = _BlockIds(self)
        self._targets = {}  # target text -> its read-only (prev, picks)

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
        return self._ids[block]

    def target_ids(self, target):
        """The teacher-forced decoder's ids for ``target``, memoized per target.

        Returns read-only ``(prev, picks)`` for the L = n + 1 steps of a target
        of n tokens followed by the end token: ``prev`` are the ids each step
        reads (the begin token, then the target's), and ``picks`` are the
        positions, in a row-major (L, len(self)) array of next-token logits, of
        the id each step must predict (the target's, then the end token).  A
        target without tokens raises ValueError on every call.
        """
        memo = self._targets.get(target)
        if memo is None:
            ids = self.ids(target)
            if not len(ids):
                raise ValueError("target is empty after tokenization")
            prev = np.concatenate(([BOS_ID], ids))
            picks = np.arange(len(prev)) * len(self) + np.append(ids, EOS_ID)
            prev.flags.writeable = picks.flags.writeable = False
            memo = self._targets[target] = (prev, picks)
        return memo

    def prompt_ids(self, text):
        """Ids of every token of ``text``, never to be written into.

        A ``template.Prompt`` is the concatenation of its blocks' memoized ids:
        ``str.split`` of blocks joined by spaces is the concatenation of each
        block's split.  A plain ``str`` is one block.
        """
        blocks = getattr(text, "blocks", None)
        if not blocks:
            return self.ids(text)
        return np.concatenate(list(map(self._ids.__getitem__, blocks)))

    def prompt_len(self, text):
        """``len(self.prompt_ids(text))``, summed over the memoized blocks
        without joining their ids."""
        blocks = getattr(text, "blocks", None) or (text,)
        return sum(map(len, map(self._ids.__getitem__, blocks)))

    def tail_ids(self, text, max_len):
        """Ids of the last ``max_len`` tokens of ``text``, never to be written into."""
        # a model keeps the tail so the query input, which ends every prompt,
        # survives truncation
        return self.prompt_ids(text)[-max_len:]

    def decode(self, ids):
        tokens = self.tokens
        return " ".join([tokens[i] for i in ids if i >= _N_RESERVED])
