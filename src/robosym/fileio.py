"""File I/O at the boundary: every JSON input file is read, and every
output file written, through here."""

import contextlib
import json
import os
import threading
from collections.abc import Iterable, Iterator

from .errors import ParseError, RoboSymError


@contextlib.contextmanager
def errors_named(where: str) -> Iterator[None]:
    """Any library error, ValueError, TypeError, KeyError, AttributeError,
    IndexError or OverflowError (a JSON integer beyond the float range) raised
    in the ``with`` block becomes one ParseError starting ``"<where>: "`` (a
    file, or an entry in one): for reads and checks of a file's data, also
    those that run after it is read (against another file's)."""
    try:
        yield
    except (RoboSymError, ValueError, TypeError, KeyError, AttributeError, IndexError, OverflowError) as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _unique_keys(pairs: list) -> dict:
    """A JSON object's (key, value) pairs as a dict; a repeated key raises ValueError naming it."""
    data = dict(pairs)
    if len(data) < len(pairs):
        keys = [k for k, _ in pairs]
        raise ValueError(f"duplicated key {next(k for i, k in enumerate(keys) if k in keys[:i])!r}")
    return data


@contextlib.contextmanager
def json_input(path: str) -> Iterator:
    """Decode the file at ``path`` as UTF-8 JSON and yield the data.  A file
    that does not decode or repeats a key in an object, and an error raised in
    the ``with`` block while the caller reads the data (as in ``errors_named``),
    becomes one ParseError starting ``"<path>: "``."""
    with errors_named(f"{path}: invalid JSON"), open(path, encoding="utf-8") as f:
        data = json.load(f, object_pairs_hook=_unique_keys)  # JSONDecodeError, UnicodeDecodeError: ValueErrors
    with errors_named(path):
        yield data


def atomic_write_text(path: str, text: str | Iterable[str]) -> None:
    """Write ``text`` (one string, or an iterable of string chunks written as
    they are produced) to a temporary file beside ``path``, then rename it over
    ``path``.  On failure, including an exception raised by the iterable, the
    temporary file is removed and an existing ``path`` is left as it was.  An
    OSError names ``path``, not the temporary file.  The temporary file is
    named after the process and the thread, so concurrent writers never share it."""
    tmp = f"{path}.tmp{os.getpid()}.{threading.get_ident()}"
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            f.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
