"""AdamW over a flat dict of numpy arrays, with decoupled weight decay, and
the gradient helpers the models share."""

import numpy as np

# Adam's moment decay rates and its denominator guard, the usual defaults
BETAS = (0.9, 0.999)
EPS = 1e-8


def check_finite(loss, grads, context):
    """Raise FloatingPointError before a non-finite loss or gradient is applied."""
    if not np.isfinite(loss):
        raise FloatingPointError(f"non-finite loss {loss} ({context})")
    for key, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(
                f"non-finite gradient in {key!r} (loss={loss}, {context})"
            )


def add_rows_at(dest, *parts):
    """``np.add.at(dest, ids, rows)`` for each ``(ids, rows)`` pair in turn,
    done as one unbuffered add on the flattened ``dest``.

    The additions are the same and run in the same order, so every sum is
    bit-identical to the separate 2-D calls.  ``rows`` is (len(ids), d), or
    one (d,) row added at every id.  ``dest`` must be C-contiguous: otherwise
    ``reshape(-1)`` would return a copy and the update would be lost.
    """
    if not dest.flags.c_contiguous:
        raise ValueError("add_rows_at needs a C-contiguous destination")
    d = dest.shape[1]
    ids = np.concatenate([part_ids for part_ids, _ in parts])
    vals = np.empty((len(ids), d), dtype=dest.dtype)
    start = 0
    for part_ids, rows in parts:
        vals[start:start + len(part_ids)] = rows
        start += len(part_ids)
    flat_idx = (ids * d)[:, None] + np.arange(d)
    np.add.at(dest.reshape(-1), flat_idx.reshape(-1), vals.reshape(-1))


class AdamW:
    def __init__(self, params, lr, weight_decay=0.0):
        for name, value in (("lr", lr), ("weight_decay", weight_decay)):
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        # two scratch arrays per key, so a step allocates nothing parameter-sized
        self._scratch = {
            k: (np.empty_like(v), np.empty_like(v)) for k, v in params.items()
        }

    def step(self, params, grads):
        """One update in place.  Missing grad keys are skipped.

        Computes, bit for bit, ``p -= lr * (m_hat / (sqrt(v_hat) + eps) + wd * p)``
        with ``m_hat = m / (1 - b1**t)`` and ``v_hat = v / (1 - b2**t)``; each
        operation runs in the same order as that expression.

        At ``weight_decay`` 0 the ``wd * p`` term is skipped.  For finite ``p``,
        ``a + 0*p`` differs from ``a`` only when ``a = -0`` and ``p = +0``, and
        ``p - lr*a`` is then ``+0`` either way.  (``0*inf`` is NaN, hence
        "finite".)
        """
        self.t += 1
        b1, b2 = BETAS
        c1, c2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        for key, g in grads.items():
            m, v, p = self.m[key], self.v[key], params[key]
            a, b = self._scratch[key]
            m *= b1
            m += np.multiply(1.0 - b1, g, out=a)
            v *= b2
            np.multiply(1.0 - b2, g, out=a)
            v += np.multiply(a, g, out=a)
            np.divide(m, c1, out=a)  # m_hat
            np.divide(v, c2, out=b)  # v_hat
            np.sqrt(b, out=b)
            b += EPS
            a /= b
            if self.weight_decay:
                a += np.multiply(self.weight_decay, p, out=b)
            a *= self.lr
            p -= a
