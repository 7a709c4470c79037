"""Atomic file output: every output file is written through here."""

import contextlib
import os
from collections.abc import Iterable


def atomic_write_text(path: str, text: str | Iterable[str]) -> None:
    """Write ``text`` (one string, or an iterable of string chunks written as
    they are produced) to a temporary file beside ``path``, then rename it over
    ``path``.  On failure, including an exception raised by the iterable, the
    temporary file is removed and an existing ``path`` is left as it was."""
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w") as f:
            f.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
