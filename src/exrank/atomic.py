"""Whole-file writes that never leave a half-written file behind.

The new content goes to a temporary file in the target's directory, which
``os.replace`` then moves onto the target.  Within one file system the move
is atomic, so a reader sees either the previous file or the complete new one.
"""

import os
import secrets
from contextlib import contextmanager, suppress


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


def write_lines(path, lines):
    """Write each string of ``lines`` plus a newline to ``path`` through ``replacing``.

    ``lines`` may be a generator: if it raises, ``path`` keeps its old content.
    """
    with replacing(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def write_table(path, columns, rows):
    """Write a header of ``columns`` and one tab-separated line per row dict
    through ``write_lines``.  A row whose keys are not exactly ``columns``
    raises ``ValueError`` and ``path`` keeps its old content."""

    def lines():
        yield "\t".join(columns)
        for row in rows:
            if row.keys() != set(columns):
                raise ValueError(f"row keys {sorted(row)} are not the columns {columns}")
            yield "\t".join(str(row[c]) for c in columns)

    write_lines(path, lines())
