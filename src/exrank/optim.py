"""The parameter and gradient container of both models, AdamW over it with
decoupled weight decay, and the gradient helpers the models share."""

import functools
import math

import numpy as np

# Adam's moment decay rates and its denominator guard, the usual defaults
BETAS = (0.9, 0.999)
EPS = 1e-8
# Byte boundary on which every parameter buffer and retrieval index starts:
# a cache line, and a multiple of every SIMD width
ALIGN = 64


def aligned_zeros(n):
    """``n`` float64 zeros whose data starts on an ``ALIGN``-byte boundary.

    numpy's allocator gives malloc's 16 bytes.  OpenBLAS's SkylakeX
    matrix-vector kernel reads rows that start 16 bytes off a 32-byte
    boundary about 1.4x slower, with the same result bit for bit, so the
    decoder's and the index's products would otherwise run at a speed set by
    where the allocator happened to place them.
    """
    buf = np.zeros(n + ALIGN // 8 - 1)
    # through the buffer protocol, so that views of the result have the
    # result, not `buf`, as their base
    return np.frombuffer(buf.data, count=n, offset=-buf.ctypes.data % ALIGN)


class FlatViews(dict):
    """Named C-contiguous views, in key order, of one 1-D buffer ``flat``,
    which ``zeros`` and ``pack`` start on an ``ALIGN``-byte boundary.

    It holds a model's parameters, an optimizer's moments and every gradient.
    An operation on ``flat`` is one pass over every value at once.  Assigning
    to a key copies into its view, so the buffer stays whole; the dict methods
    that would rebind or remove a key raise TypeError.
    """

    def __init__(self, flat, shapes):
        super().__init__()
        self.flat = flat
        start = 0
        for key, shape in shapes.items():
            size = math.prod(shape)
            super().__setitem__(key, flat[start:start + size].reshape(shape))
            start += size

    @classmethod
    def pack(cls, arrays):
        """A copy of the dict ``arrays`` in one new buffer, keys in its order."""
        views = cls.zeros({k: np.shape(v) for k, v in arrays.items()})
        np.concatenate([np.ravel(v) for v in arrays.values()], out=views.flat)
        return views

    @classmethod
    def zeros(cls, shapes):
        """Zeros in one new ``aligned_zeros`` buffer, laid out by ``shapes``, a
        dict of key to shape."""
        return cls(aligned_zeros(sum(math.prod(shape) for shape in shapes.values())), shapes)

    def zeros_like(self):
        """Zeros with the keys and shapes of these views, in a buffer of their own."""
        return FlatViews.zeros({k: v.shape for k, v in self.items()})

    def __setitem__(self, key, value):
        view = self[key]
        if np.shape(value) != view.shape:
            raise ValueError(f"{key!r} has shape {view.shape}, got {np.shape(value)}")
        view[...] = value

    def _refuse(self, *args, **kwargs):
        raise TypeError("FlatViews keys are fixed views of one buffer; "
                        "assign to a key to copy into it")

    update = __ior__ = setdefault = pop = popitem = __delitem__ = clear = _refuse


def check_finite(loss, grads, context):
    """Raise FloatingPointError before a non-finite loss or gradient is applied.

    ``grads`` is a ``FlatViews``: one pass over its flat buffer checks every
    key, and only a failure scans the keys, in order, to name the first bad one.
    """
    if not np.isfinite(loss):
        raise FloatingPointError(f"non-finite loss {loss} ({context})")
    if np.isfinite(grads.flat).all():
        return
    for key, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(
                f"non-finite gradient in {key!r} (loss={loss}, {context})"
            )


@functools.lru_cache(maxsize=None)
def _column_offsets(width):
    """0..width-1, memoised and shared by every caller, so read-only."""
    offsets = np.arange(width)
    offsets.flags.writeable = False
    return offsets


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
    if len(parts) == 1 and np.ndim(parts[0][1]) == 2:
        (ids, vals), = parts  # already one row per id
    else:
        ids = np.concatenate([part_ids for part_ids, _ in parts])
        vals = np.empty((len(ids), d), dtype=dest.dtype)
        start = 0
        for part_ids, rows in parts:
            vals[start:start + len(part_ids)] = rows
            start += len(part_ids)
    flat_idx = (ids * d)[:, None] + _column_offsets(d)
    np.add.at(dest.reshape(-1), flat_idx.reshape(-1), vals.reshape(-1))


class AdamW:
    """AdamW over ``params``, a ``FlatViews``, updated in place.

    ``m``, ``v`` and ``grads`` are zeroed ``FlatViews`` with the keys of
    ``params``.  ``grads`` is the gradient workspace: the model's backward pass
    writes into it whole, and ``step`` consumes it.  Once the moments have read
    the gradients, the step uses ``grads`` as scratch, so after a step it holds
    no gradient until the next backward pass overwrites it.  With one scratch
    buffer of its own, an optimizer holds four parameter-sized buffers and a
    step allocates none.
    """

    def __init__(self, params, lr, weight_decay=0.0):
        for name, value in (("lr", lr), ("weight_decay", weight_decay)):
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self._p = params.flat
        self.m, self.v, self.grads = (params.zeros_like() for _ in range(3))
        self._a = np.empty_like(self._p)  # scratch; the consumed ``grads`` is the other

    def step(self):
        """One update in place of the parameters from ``grads``, which it
        consumes: ``grads`` holds scratch values afterwards.

        Computes, bit for bit, ``p -= lr * (m_hat / (sqrt(v_hat) + eps) + wd * p)``
        with ``m_hat = m / (1 - b1**t)`` and ``v_hat = v / (1 - b2**t)``.  Every
        operation is elementwise and runs in the order of that expression, so
        one pass over the flat buffers equals a pass per key.

        At ``weight_decay`` 0 the ``wd * p`` term is skipped.  For finite ``p``,
        ``a + 0*p`` differs from ``a`` only when ``a = -0`` and ``p = +0``, and
        ``p - lr*a`` is then ``+0`` either way.  (``0*inf`` is NaN, hence
        "finite".)

        From t = 356 on, ``0.9**t`` is below 2**-54, so ``1 - b1**t`` rounds to
        exactly 1.0.  Division by 1.0 is exact, so ``m / c1`` is then ``m`` bit
        for bit, and the step divides ``m`` by the denominator directly.
        """
        self.t += 1
        b1, b2 = BETAS
        c1, c2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        g, m, v, p, a = self.grads.flat, self.m.flat, self.v.flat, self._p, self._a
        m *= b1
        m += np.multiply(1.0 - b1, g, out=a)
        v *= b2
        np.multiply(1.0 - b2, g, out=a)
        v += np.multiply(a, g, out=a)
        # the gradients are dead from here: g is the second scratch buffer
        np.divide(v, c2, out=g)  # v_hat
        np.sqrt(g, out=g)
        g += EPS
        if c1 == 1.0:
            np.divide(m, g, out=a)
        else:
            np.divide(m, c1, out=a)  # m_hat
            a /= g
        if self.weight_decay:
            a += np.multiply(self.weight_decay, p, out=g)
        a *= self.lr
        p -= a
