"""Atomic file publication: readers see the old file or the new one, whole.

Everything the reproduction persists while a process may die at any
instruction — checkpoints, ensemble result files, diagnostic bundles,
fleet exporters, Chrome traces — is published the same way: written to a
pid-keyed temporary file in the target's own directory (so concurrent
workers writing sibling paths never share a temp name, and the final
rename never crosses a filesystem), flushed and ``fsync``'d, then moved
into place with :func:`os.replace`.  If the writer raises, the temporary
file is removed and the target is left as it was.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager

__all__ = ["atomic_open"]


@contextmanager
def atomic_open(path: str, mode: str = "w"):
    """Open a temporary twin of ``path`` for writing; publish it on exit.

    ``mode`` is ``"w"`` (UTF-8 text) or ``"wb"``.  The target's directory
    must exist.  On a clean exit of the ``with`` block the file is
    flushed, ``fsync``'d and renamed over ``path``; on an exception it is
    unlinked and the exception propagates.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(
        dir=directory,
        prefix=f".{os.path.basename(path)}.{os.getpid()}.",
        suffix=".tmp",
    )
    try:
        with os.fdopen(fd, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
