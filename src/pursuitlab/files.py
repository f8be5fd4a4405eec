"""The one place pursuitlab writes files: each output appears whole or not at all."""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """Open ``path + ".tmp"`` for writing and publish it as ``path`` on success.

    A clean exit replaces ``path`` with the temporary file; an exception
    deletes the temporary file and propagates, leaving ``path`` as it was.
    Text modes are UTF-8 with ``newline=""``, as the csv module expects.
    """
    tmp = str(path) + ".tmp"
    text = "b" not in mode
    try:
        with open(tmp, mode, encoding="utf-8" if text else None,
                  newline="" if text else None) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
