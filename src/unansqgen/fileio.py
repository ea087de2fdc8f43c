"""All-or-nothing file output, and UTF-8 input that names where it is not."""

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


@contextmanager
def open_text(path, error=ValueError):
    """Yield a UTF-8 text handle on `path`, split into lines as `open` splits.

    A byte that is not UTF-8 raises `error` naming the path and the line the
    byte is on, instead of the decoder's UnicodeDecodeError.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            with open(path, "rb") as raw:
                try:
                    raw.read().decode("utf-8")
                except UnicodeDecodeError as whole:
                    exc = whole  # offsets from the start of the file, not of a read chunk
            head = exc.object[:exc.start].decode("utf-8", "replace")
            line = head.replace("\r\n", "\n").replace("\r", "\n").count("\n") + 1
            raise error(f"{path}:{line}: not valid UTF-8 "
                        f"(byte 0x{exc.object[exc.start]:02x})") from None
