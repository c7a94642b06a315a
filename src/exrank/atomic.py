"""Whole-file writes that never leave a half-written file behind.

The new content goes to a temporary file in the target's directory, which
``os.replace`` then moves onto the target.  Within one file system the move
is atomic, so a reader sees either the previous file or the complete new one.
"""

import os
import secrets
from contextlib import contextmanager, suppress

import numpy as np


@contextmanager
def replacing(path, suffix=""):
    """Yield a fresh temporary path beside ``path``; move it onto ``path`` on success.

    If the body raises, ``path`` is left as it was and the temporary file is
    removed.  ``suffix`` ends the temporary name.
    """
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{secrets.token_hex(4)}.tmp{suffix}")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def savez(path, **arrays):
    """``np.savez(path, **arrays)`` through ``replacing``.

    Like ``np.savez``, appends ".npz" to a path that lacks it.  The temporary
    name ends in ".npz" too, or ``np.savez`` would write elsewhere.
    """
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"
    with replacing(path, suffix=".npz") as tmp:
        np.savez(tmp, **arrays)
