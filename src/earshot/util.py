"""Small shared helpers: seed derivation, config hashing, atomic writes."""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import secrets


def derive_seed(master: int, tag: str) -> int:
    """Stable per-subsystem seed from one master seed.

    Hashes "master:tag" with SHA-256 and keeps 32 bits, so every subsystem
    (scene synthesis, noise, fold shuffling, solver...) gets an independent
    stream while the command line only ever takes one --seed.
    """
    digest = hashlib.sha256(f"{master}:{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(obj) -> str:
    """Short stable fingerprint of a resolved configuration mapping."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:12]


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """Open a fresh temp file beside ``path``; rename it over ``path`` on success.

    ``mode`` is "w" or "wb".  If anything fails before the rename, the temp
    file is removed and ``path`` is left as it was, so failures leave no
    partial output.  The temp file is made by ``open``, not ``mkstemp``, so
    the result gets the usual umask permissions.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-earshot-{secrets.token_hex(8)}")
    fh = open(tmp, mode.replace("w", "x"))
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text(path, text: str) -> None:
    """Write a text file atomically (see ``atomic_open``)."""
    with atomic_open(path) as fh:
        fh.write(text)
