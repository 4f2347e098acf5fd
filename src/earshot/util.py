"""Small shared helpers: seed derivation, config hashing, atomic writes, the
CSV artifact format and the one thread pool."""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import queue
import secrets
import threading


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


def csv_text(preamble: dict, header, rows) -> str:
    """The text of a CSV artifact: ``# key: value`` lines, a header, the rows.

    Fields get the csv module's minimal quoting, so they may hold commas,
    quotes or line breaks; a row with a carriage return in any field, which
    minimal quoting leaves bare, has every field quoted.  A field may start
    with "#", as ``read_csv`` takes comments only before the header.
    """
    buf = io.StringIO()
    for key, value in preamble.items():
        buf.write(f"# {key}: {value}\n")
    writer = csv.writer(buf, lineterminator="\n")
    quoted = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow(header)
    for row in rows:
        (quoted if any("\r" in str(f) for f in row) else writer).writerow(row)
    return buf.getvalue()


def read_csv(path):
    """Read a CSV artifact written by ``csv_text`` into ``(preamble, rows)``.

    ``preamble`` maps the key of each ``# key: value`` line before the header
    to ``(line, value)``; comment lines are read only there.  ``rows`` holds
    ``(line, fields)`` for the header and each non-blank row after it, with
    the line it starts on.  No header, or a row the csv module refuses (a
    bare carriage return, an over-long field), is a ValueError naming
    ``path:line``.
    """
    with open(path, newline="") as fh:
        body = fh.read()
    preamble, lineno = {}, 0
    while body.startswith("#"):
        line, _, body = body.partition("\n")
        lineno += 1
        key, _, value = line[1:].partition(":")
        preamble[key.strip()] = (lineno, value.strip())
    reader = csv.reader(io.StringIO(body))
    rows, at = [], lineno + 1
    try:
        for fields in reader:
            if fields:
                rows.append((at, fields))
            at = lineno + reader.line_num + 1
    except csv.Error as exc:
        raise ValueError(f"{path}:{at}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}:{at}: no header row")
    return preamble, rows


def _usable_cores() -> int:
    """CPUs this process may run on (its affinity mask, where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class _PoolState(threading.local):
    busy = False  # true while this thread runs a pool task


_pool = _PoolState()
_IDLE_NAME = "earshot-pool"  # a helper's name between calls
_idle = []  # inboxes of the helpers waiting for a call
_idle_lock = threading.Lock()


def _forget_helpers() -> None:
    """In a forked child: the parent's helpers did not come along."""
    global _idle, _idle_lock
    _idle, _idle_lock = [], threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helpers)


def _helper(inbox) -> None:
    """A pool thread that outlives the calls it works for.

    It waits for ``(name, work, left)`` in its inbox, runs ``work`` under the
    call's name, takes the idle name again, puts its inbox back on the idle
    list and only then releases ``left``, so the next call finds it idle.  A
    task's BaseException ends the thread after it has left; a later call
    starts a new helper in its place.
    """
    me = threading.current_thread()
    while True:
        name, work, left = inbox.get()
        me.name = name
        try:
            work()
        except BaseException:
            me.name = _IDLE_NAME
            left.release()
            raise
        # An idle helper holds nothing of the call it served, whose tasks
        # may reach a whole clip or corpus.
        del work
        me.name = _IDLE_NAME
        with _idle_lock:
            _idle.append(inbox)
        left.release()


def parallel_map(task, count: int, name: str) -> list:
    """[task(0), ..., task(count - 1)], computed on min(usable cores, count)
    threads.

    The calling thread and one helper per further core each take the next
    unclaimed index until none is left.  Helpers persist: a call takes idle
    ones and starts new ones only when too few are idle, never waiting for a
    busy one, and puts the work in each helper's own queue.  While a helper works for the call it is named ``name-1``,
    ``name-2``, ...; between calls it is named "earshot-pool".  WAV I/O,
    FFTs and array arithmetic release the interpreter lock, so the threads
    share the cores.  A task whose result depends on its index alone gives
    results that do not depend on the number of threads.  When tasks fail,
    no index is claimed after the failure, every helper leaves the call, and
    the error of the lowest failing index is raised, as a serial loop would
    raise it.

    A call made from inside a task runs as if one core were usable: its
    tasks run on the calling thread, through the same loop, since the outer
    call already has a thread on every core.
    """
    results = [None] * count
    errors = {}
    lock = threading.Lock()
    stop = False
    unclaimed = iter(range(count))

    def claim():
        with lock:
            return None if stop else next(unclaimed, None)

    def work():
        nonlocal stop
        outer, _pool.busy = _pool.busy, True
        try:
            while (index := claim()) is not None:
                try:
                    results[index] = task(index)
                except Exception as exc:  # re-raised by the calling thread
                    with lock:
                        errors[index] = exc
                        stop = True
                    return
        finally:
            _pool.busy = outer

    wanted = min(1 if _pool.busy else _usable_cores(), count) - 1
    with _idle_lock:
        inboxes = [_idle.pop() for _ in range(min(wanted, len(_idle)))]
    while len(inboxes) < wanted:
        inboxes.append(queue.SimpleQueue())
        threading.Thread(target=_helper, args=(inboxes[-1],), name=_IDLE_NAME,
                         daemon=True).start()
    lefts = [threading.Lock() for _ in inboxes]
    for n, (inbox, left) in enumerate(zip(inboxes, lefts), 1):
        left.acquire()  # released by the helper once it has left the call
        inbox.put((f"{name}-{n}", work, left))
    try:
        work()
    finally:
        with lock:
            stop = True  # an interrupted caller leaves the helpers nothing more to claim
        for left in lefts:
            left.acquire()
    if errors:
        raise errors[min(errors)]
    return results
