"""All-or-nothing file output."""

from __future__ import annotations

import os
from contextlib import contextmanager


@contextmanager
def atomic_write(path, binary=False):
    """Yield a file handle whose content replaces `path` only on success.

    The content goes to a temporary file in the same directory, which is
    renamed over `path` once the block finishes without error. On any error
    the temporary file is removed and an existing `path` is left as it was.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8")
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, path) from None  # name the output
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise
