"""The one error a command-line input can raise, and the one file reader.

Anything the user supplies — a flag value, a file to read, a path to
write — that cannot be used raises :class:`InputError` with a one-line
message.  ``repro.__main__.main`` catches it once, prints
``error: <message>`` and exits 2; it catches nothing else, so a genuine
bug still ends in a traceback.  This module imports nothing from the
package, so loaders in every layer (``har``, ``obs.ledger``,
``core.serialize``, ``schedule_runner``, ``config``) raise the error
without an import cycle.
"""

from __future__ import annotations


class InputError(ValueError):
    """A user-supplied input cannot be used; the message is one line."""


def read_text(path: str, what: str) -> str:
    """The UTF-8 text of the file ``path``; ``what`` names it in errors.

    A missing or unreadable file, a directory, or bytes that are not
    UTF-8 raise :class:`InputError` as ``cannot read <what> '<path>': …``.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        reason = exc.strerror or exc
    except UnicodeDecodeError as exc:
        reason = f"not UTF-8 (byte {exc.start})"
    raise InputError(f"cannot read {what} {path!r}: {reason}")
