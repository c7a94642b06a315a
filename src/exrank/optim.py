"""AdamW over a flat dict of numpy arrays, with decoupled weight decay."""

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
            a += np.multiply(self.weight_decay, p, out=b)
            a *= self.lr
            p -= a
