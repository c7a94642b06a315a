"""A fixed reference computation that measures how fast the machine runs now.

The benchmark runs on small shared machines whose speed drifts by tens of
percent within minutes. The kernel is timed before and after every timed call,
and the call's wall time is divided by it, which cancels most of that drift.
The kernel mixes the kinds of work exrank does. It splits strings and looks
up a dict, as tokenizing does. It takes small matrix products and a
log-softmax, as scoring does. It updates arrays of a few MB elementwise,
as AdamW does. It uses no exrank code, so a change to exrank cannot move it.
"""

import statistics
import time

import numpy as np

_RNG = np.random.default_rng(0)
_WORDS = [f"w{i}" for i in range(300)]
_INDEX = {w: i for i, w in enumerate(_WORDS)}
_TEXT = " ".join(_WORDS[(i * 7) % 300] for i in range(80))
_EMB = _RNG.normal(size=(300, 64))
_W_OUT = _RNG.normal(size=(300, 144))
_BIG = _RNG.normal(size=(512, 512))


def _kernel(reps=40):
    big = np.zeros_like(_BIG)
    acc = 0.0
    for _ in range(reps):
        for _ in range(6):
            ids = [_INDEX.get(t, 0) for t in _TEXT.split()]
            prompt = f"Definition: {ids[0]} Input: {_TEXT[:40]} Output:"
            h = np.tanh(_EMB[ids].mean(axis=0))
            feats = np.concatenate([np.tile(h, (4, 1)), _EMB[ids[:4]], np.ones((4, 16))],
                                   axis=1)
            z = feats @ _W_OUT.T
            z = z - z.max(axis=1, keepdims=True)
            logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
            acc += float(logp[0, 0]) + len(prompt)
        big *= 0.9
        big += 0.1 * _BIG
    return acc + float(big[0, 0])


def reference_s(chunks=5):
    """Median seconds of `chunks` runs of the kernel (a few hundredths each)."""
    times = []
    for _ in range(chunks):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
