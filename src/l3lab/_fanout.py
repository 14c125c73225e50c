"""The package's one fan-out: one function run in a forked worker.

:func:`_fork_pair` runs ``here()`` in the calling process while the
process's worker, an ``os.fork`` child forked at the first call and kept for
the calls after it, runs ``there(*args)``.  The worker is reaped at
interpreter exit.  Its two users, ``splitting.section_gap`` and
``acceptance.run_all``, import this module when they are called, so
``import l3lab`` neither loads it nor imports ``pickle``, as it loads
neither ``dataclasses`` nor ``inspect`` (the package's records are plain
slotted classes): without bytecode caches every module loaded at import
costs setup time, about 26 ms for the whole import, and its compilation
raises the peak memory.
"""
from __future__ import annotations

import atexit
import os
import pickle
import signal

from .numerics import L3labError

# this process's worker while it runs: (pid, owner pid, job fd, result fd)
_worker = None
# set while the worker runs a job, so that a call from ``here`` runs
# serially, and for good in the worker, so that a call inside a job does
_busy = False


def _send(fd, data):
    # one message: its length in 8 bytes, then the bytes
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[os.write(fd, view):]


def _read_exactly(fd, n):
    data = b""
    while len(data) < n:
        chunk = os.read(fd, n - len(data))
        if not chunk:
            return b""
        data += chunk
    return data


def _receive(fd):
    # the next message, or b"" if the writer closed the pipe before its end
    size = _read_exactly(fd, 8)
    return size and _read_exactly(fd, int.from_bytes(size, "little"))


def _start_worker():
    """Fork the worker and return ``(pid, owner pid, job fd, result fd)``.

    The worker answers each job ``(there, args)`` with the pickled
    ``(ok, there(*args) or the exception)`` until its job pipe reaches end
    of file.  It ignores SIGINT, so only the caller sees a Ctrl-C, and it
    always leaves by ``os._exit``, so it never returns into the caller or
    flushes the buffers it inherited.
    """
    global _busy
    job_read, job_write = os.pipe()
    result_read, result_write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        for fd in (job_read, job_write, result_read, result_write):
            os.close(fd)
        raise
    if pid == 0:
        try:
            _busy = True
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            os.close(job_write)
            os.close(result_read)
            while job := _receive(job_read):
                try:
                    there, args = pickle.loads(job)
                    payload = (True, there(*args))
                except BaseException as exc:  # raised again in the caller
                    payload = (False, exc)
                _send(result_write, pickle.dumps(payload))
            os._exit(0)
        finally:
            os._exit(1)
    os.close(job_read)
    os.close(result_write)
    atexit.register(_stop_worker)
    return pid, os.getpid(), job_write, result_read


def _stop_worker(kill=False):
    """Close the pipes of this process's worker and reap it; its wait status.

    With ``kill`` the worker is sent SIGKILL first; otherwise it leaves at
    the end of its job pipe.  A worker this process did not fork is only
    forgotten.  Without a worker this returns None.
    """
    global _worker
    worker, _worker = _worker, None
    if worker is None or worker[1] != os.getpid():
        return None
    atexit.unregister(_stop_worker)
    pid, _, job_write, result_read = worker
    os.close(job_write)
    os.close(result_read)
    if kill:
        os.kill(pid, signal.SIGKILL)
    return os.waitpid(pid, 0)[1]


def _drop_inherited_worker():
    # a forked child closes its copies of the worker's pipe ends, so the
    # worker still reaches the end of its job pipe when its owner closes it
    global _worker
    if _worker is not None:
        os.close(_worker[2])
        os.close(_worker[3])
        _worker = None


os.register_at_fork(after_in_child=_drop_inherited_worker)


def _fork_pair(here, there, *args):
    """``(here(), there(*args))``, with ``there`` run in this process's worker.

    The worker is an ``os.fork`` child, forked at the first call and kept
    for the calls after it; an ``atexit`` handler closes its pipes and reaps
    it.  ``there`` and ``args`` go to it pickled, so ``there`` must be
    picklable by reference, and it runs on the module state the worker was
    forked with.  A job that does not pickle raises here before anything is
    sent.  Exceptions come in the order of a serial ``here(); there(*args)``:
    one from ``here``, or from the wait for the result (KeyboardInterrupt
    included), is raised after the worker has been killed and reaped, then
    one from ``there``.  A worker that ends without a result raises
    :class:`L3labError` with its wait status.  Either way the next call
    forks a new worker.  Inside the worker, and in a call made from
    ``here`` while the worker runs a job, both run here, so there is one
    fan-out level.  A process forked from the owner never uses the owner's
    worker; it forks its own.
    """
    global _worker, _busy
    if _busy:
        return here(), there(*args)
    job = pickle.dumps((there, args))
    if _worker is None or _worker[1] != os.getpid():
        _worker = _start_worker()
    _busy = True
    try:
        try:
            _send(_worker[2], job)
        except BrokenPipeError:
            pass  # the worker is gone: its result pipe is at its end
        mine = here()
        reply = _receive(_worker[3])
    except BaseException:
        _stop_worker(kill=True)
        raise
    finally:
        _busy = False
    if not reply:
        status = _stop_worker()
        raise L3labError(f"a forked child ended without a result "
                         f"(wait status {status})")
    ok, value = pickle.loads(reply)
    if not ok:
        raise value
    return mine, value
