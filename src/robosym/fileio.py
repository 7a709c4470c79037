"""Atomic file output: every output file is written through here."""

import contextlib
import os


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then rename it
    over ``path``.  On failure the temporary file is removed and an existing
    ``path`` is left as it was."""
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
