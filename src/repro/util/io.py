"""Atomic file-write primitives shared by results and checkpoints.

A crash (or ``kill -9``) in the middle of a plain ``open(...).write(...)``
leaves a truncated file behind, and a truncated JSON/pickle is worse than
no file at all: the next run loads garbage instead of recomputing.  Every
writer in this package therefore goes through :func:`atomic_write_bytes`,
which stages the payload in a temporary file *in the destination
directory* (same filesystem, so the final rename is atomic) and publishes
it with ``os.replace``.  Readers observe either the old content or the
new content, never a partial write.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Union

__all__ = [
    "atomic_append_line",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
]

PathLike = Union[str, os.PathLike]


def atomic_write_bytes(path: PathLike, payload: bytes) -> None:
    """Write ``payload`` to ``path`` atomically (temp file + ``os.replace``).

    The temporary file lives next to the destination so the final rename
    never crosses a filesystem boundary.  On any failure the temporary
    file is removed and ``path`` is left untouched.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, staging = tempfile.mkstemp(
        prefix=f".{target.name}.", suffix=".tmp", dir=target.parent
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(staging, target)
    except BaseException:
        try:
            os.unlink(staging)
        except OSError:  # staging already consumed by os.replace
            pass
        raise


def atomic_append_line(path: PathLike, line: str) -> None:
    """Append one line to ``path`` with a single ``O_APPEND`` write.

    Multiple processes appending concurrently (ledger records) interleave
    at *line* granularity: the payload is one ``os.write`` on an
    ``O_APPEND`` descriptor, which POSIX serializes for regular files, so
    readers never see two records spliced into one line.  A crash
    mid-write can still leave a torn *final* line, which every reader of
    these files tolerates (and the next append starts on a fresh line
    only if the previous one completed — callers therefore parse
    line-by-line and skip garbage).
    """
    if "\n" in line.rstrip("\n"):
        raise ValueError("atomic_append_line takes exactly one line")
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    payload = (line.rstrip("\n") + "\n").encode("utf-8")
    fd = os.open(target, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, payload)
    finally:
        os.close(fd)


def atomic_write_text(path: PathLike, text: str) -> None:
    """Atomically write UTF-8 ``text`` to ``path``."""
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path: PathLike, obj: object) -> None:
    """Atomically serialize ``obj`` as pretty-printed JSON at ``path``."""
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")
