"""Acceptance gate: every published target at its stated tolerance.

Criteria 1-13 run through the shared checks in :mod:`l3lab.acceptance`
(one pass/fail line is printed per criterion); criterion 14 exercises the
``verify`` command twice and compares output bytes.  The fan-out tests at the
end run the fan-out helper ``_fanout._fork_pair`` on cheap functions, and
its two users, ``run_all`` and ``splitting.section_gap``, against serial
runs; jobs for its worker are module-level functions with arguments, as the
worker gets them pickled by reference.
"""
import contextlib
import functools
import io
import math
import os
import pickle
import signal
import threading
import time

import pytest

from l3lab import _fanout, acceptance, cli, separatrix, splitting
from l3lab._fanout import _fork_pair
from l3lab.numerics import L3labError
from l3lab.separatrix import FitRejected

from conftest import run_python


@pytest.fixture(scope="module")
def results():
    return {res.number: res for res in acceptance.run_all()}


@pytest.mark.parametrize("number", sorted(range(1, 14)))
def test_criterion(results, number):
    res = results[number]
    status = "PASS" if res.ok else "FAIL"
    print(f"criterion {number:2d} [{status}] {res.name}")
    for line in res.lines:
        print(f"    {line}")
    assert res.ok, f"criterion {number} ({res.name}) failed: {res.lines}"


def _run_verify():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["verify"])
    return code, buf.getvalue().encode()


def test_criterion_14_verify_determinism():
    code1, payload1 = _run_verify()
    code2, payload2 = _run_verify()
    status = "PASS" if (code1 == code2 == 0 and payload1 == payload2) else "FAIL"
    print(f"criterion 14 [{status}] verify runs are byte-identical")
    assert code1 == 0 and code2 == 0
    assert payload1 == payload2


def test_forked_check_13_matches_a_direct_call(results, monkeypatch):
    # run_all traces the first _CALLER_MUS mass ratios in this process and
    # the rest in the worker; a direct fit gives the same bits, whether
    # section_gap fans out its branches or, with _busy set, makes every
    # trace here
    assert 0 < acceptance._CALLER_MUS < len(splitting._MU_GRID)
    assert results[13] == acceptance._check_13(
        splitting.fit_splitting_exponent())
    monkeypatch.setattr(_fanout, "_busy", True)
    serial = acceptance._check_13(splitting.fit_splitting_exponent())
    assert results[13] == serial


def test_checks_are_the_ones_run_all_calls(results):
    # CHECKS is every check function of the module, checks 1-12 in order,
    # and run_all adds check 13 after them
    names = sorted(name for name in vars(acceptance)
                   if name.startswith("check_"))
    assert [name[:8] for name in names] == [
        f"check_{k:02d}" for k in range(1, 13)]
    assert acceptance.CHECKS == tuple(getattr(acceptance, name)
                                      for name in names)
    assert list(results) == list(range(1, 14))


# ---------------------------------------------------------------------------
# the fan-out: one worker per process, used by run_all and section_gap
# ---------------------------------------------------------------------------

# what ran in this process; a job the worker runs appends to its own copy
_ran = []


def _record(name):
    _ran.append(name)
    return name, os.getpid()


def _fake_check(number):
    _ran.append(number)
    return acceptance.AcceptanceResult(number, f"fake {number}", True,
                                       [f"line {number}"])


def _fake_gap_samples(mus):
    # a sample at each mu whose gap is the asymptotic one at A, so that the
    # fit finds the slope -A and check 13 passes
    _ran.extend(mus)
    A = separatrix.compute_A()
    dists = [splitting.asymptotic_distance(mu, A, 1.63) for mu in mus]
    return [splitting.SplittingSample(mu, d, d, 0.0, 0.0, 0.0, 0.0, 1e-9)
            for mu, d in zip(mus, dists)]


def _gap_samples_dying_in_the_worker(mus):
    # the worker gets the grid past the caller's first mass ratios
    if mus[0] != splitting._MU_GRID[0]:
        os._exit(3)
    return _fake_gap_samples(mus)


def _fake_checks():
    # checks 1-12 faked; run_all splits check 13's grid itself
    return tuple(functools.partial(_fake_check, k) for k in range(1, 13))


def _raise(error, message):
    raise error(message)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _assert_only_the_worker_left():
    # no child has ended, the worker leaves cleanly at the end of its job
    # pipe, and after it is reaped no child is left
    assert os.waitpid(-1, os.WNOHANG) == (0, 0)
    assert _fanout._stop_worker() == 0
    _assert_no_child_left()


def test_run_all_returns_results_in_check_order(monkeypatch):
    _ran.clear()
    checks = _fake_checks()
    monkeypatch.setattr(acceptance, "CHECKS", checks)
    monkeypatch.setattr(splitting, "_gap_samples", _fake_gap_samples)
    results = acceptance.run_all()
    _assert_only_the_worker_left()
    # the worker's mass ratios were traced in another process, so they left
    # no trace here
    grid = splitting._MU_GRID
    assert _ran == [*range(1, 13), *grid[:acceptance._CALLER_MUS]]
    fit = splitting._fit_samples(_fake_gap_samples(grid))
    assert results == [*(fn() for fn in checks), acceptance._check_13(fit)]
    assert results[-1].ok


def test_fork_pair_returns_both_results_in_order():
    _ran.clear()
    (a, pid_a), (b, pid_b) = _fork_pair(lambda: _record("here"),
                                        _record, "there")
    _assert_only_the_worker_left()
    assert (a, b) == ("here", "there")
    assert pid_a == os.getpid() != pid_b
    # the worker's append happened in its own copy of the list
    assert _ran == ["here"]


def test_fork_pair_nested_call_runs_in_one_process():
    pid_here, (pid_a, pid_b) = _fork_pair(os.getpid, _fork_pair,
                                          os.getpid, os.getpid)
    _assert_only_the_worker_left()
    assert pid_here == os.getpid()
    assert pid_a == pid_b != pid_here


@pytest.mark.parametrize("error", [L3labError, FitRejected])
def test_child_exception_is_raised_after_the_parent_checks(error):
    ran = []
    with pytest.raises(error) as info:
        _fork_pair(lambda: ran.append("here"), _raise, error,
                   "failed in the child")
    assert type(info.value) is error
    assert str(info.value) == "failed in the child"
    assert ran == ["here"]
    # an exception from the job leaves the worker serving
    _assert_only_the_worker_left()


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_parent_exception_kills_and_reaps_the_child(error):
    t0 = time.monotonic()
    with pytest.raises(error, match="raised in the parent"):
        _fork_pair(lambda: _raise(error, "raised in the parent"),
                   time.sleep, 60.0)
    # waiting for the worker instead of killing it would take 60 s
    assert time.monotonic() - t0 < 30.0
    _assert_no_child_left()


def test_fork_pair_child_without_a_result():
    with pytest.raises(L3labError,
                       match=r"without a result \(wait status 768\)"):
        _fork_pair(lambda: None, os._exit, 3)
    _assert_no_child_left()


def test_child_that_dies_without_a_result_fails_verify(monkeypatch):
    monkeypatch.setattr(acceptance, "CHECKS", _fake_checks())
    monkeypatch.setattr(splitting, "_gap_samples",
                        _gap_samples_dying_in_the_worker)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(["verify"])
    assert code == 1
    assert "without a result (wait status 768)" in err.getvalue()
    _assert_no_child_left()


_FORK_AFTER_BUFFERED_TEXT = """
from l3lab._fanout import _fork_pair
print("buffered before the fork")
print(_fork_pair(lambda: "here", str, "there"))
"""


def test_child_does_not_repeat_buffered_output():
    # stdout is a buffered pipe, so the text is still in the buffer at the
    # fork; a worker that left through sys.exit would flush its copy of it
    proc = run_python(["-c", _FORK_AFTER_BUFFERED_TEXT], timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "buffered before the fork\n('here', 'there')\n"


def _serial_gap(mu, t_max):
    """section_gap's sample from two manifold_section_point calls in a row,
    at section_gap's tolerance."""
    rtol = splitting._gap_rtol(mu, 0.1777)
    pu = splitting.manifold_section_point(mu, "unstable_plus", t_max, rtol)
    ps = splitting.manifold_section_point(mu, "stable_plus", t_max, rtol)
    gr, gR, gG = pu.r - ps.r, pu.R - ps.R, pu.G - ps.G
    return splitting.SplittingSample(
        mu=mu, dist_measured=math.sqrt(gr * gr + gR * gR + gG * gG),
        dist_asymptotic=splitting.asymptotic_distance(mu, 0.1777, 1.63),
        gap_r=gr, gap_R=gR, gap_G=gG, gap_eta=abs(pu.eta - ps.eta),
        rtol=rtol)


def test_section_gap_matches_serial_traces():
    forked = splitting.section_gap(2e-3, A=0.1777)
    _assert_only_the_worker_left()
    serial = _serial_gap(2e-3, 1000.0)
    for name in serial.__slots__:
        value = getattr(serial, name)
        assert getattr(forked, name).hex() == value.hex(), name


@pytest.mark.parametrize("kwargs", [{"theta_abs": -1.0},
                                    {"theta_abs": math.nan},
                                    {"t_max": math.nan},
                                    {"t_max": -1.0},
                                    {"A": math.nan},
                                    {"A": -1.0},
                                    {"A": math.inf},
                                    {"A": 0.0}],
                         ids=["theta_abs_negative", "theta_abs_nan",
                              "t_max_nan", "t_max_negative", "A_nan",
                              "A_negative", "A_inf", "A_zero"])
def test_section_gap_checks_before_any_trace(monkeypatch, kwargs):
    # a bad argument costs no trace and leaves the worker as it was
    calls = []
    monkeypatch.setattr(splitting, "manifold_section_point",
                        lambda *args: calls.append(args))
    worker = _fanout._worker
    with pytest.raises(ValueError):
        splitting.section_gap(1e-3, **kwargs)
    assert calls == []
    assert _fanout._worker == worker


_TRACE = splitting.manifold_section_point


def _short_stable(mu, branch, *args, **kwargs):
    # the unstable trace always takes longer, so only a shorter budget for
    # the stable one makes the worker alone run out of time
    if branch == "stable_plus":
        return _TRACE(mu, branch, t_max=5.0)
    return _TRACE(mu, branch, *args, **kwargs)


# at mu = 3e-3 the unstable trace crosses at t = 210.8, the stable one at
# t = -192.4: t_max 5 stops both, 200 only the unstable one (in the caller)
@pytest.mark.parametrize("t_max, short_stable", [(5.0, False),
                                                 (200.0, False),
                                                 (1000.0, True)],
                         ids=["both", "unstable", "stable"])
def test_section_gap_no_crossing_as_serial(monkeypatch, t_max, short_stable):
    if short_stable:
        monkeypatch.setattr(splitting, "manifold_section_point",
                            _short_stable)
    with pytest.raises(splitting.NoCrossing) as serial:
        _serial_gap(3e-3, t_max)
    with pytest.raises(splitting.NoCrossing) as forked:
        splitting.section_gap(3e-3, t_max=t_max, A=0.1777)
    if short_stable:
        # only the worker's job raised, so the worker still serves
        _assert_only_the_worker_left()
    else:
        # the caller's trace raised, so the worker was killed and reaped
        _assert_no_child_left()
    assert type(forked.value) is type(serial.value)
    assert str(forked.value) == str(serial.value)
    branch = "stable_plus" if short_stable else "unstable_plus"
    assert f"branch = {branch}" in str(forked.value)


# ---------------------------------------------------------------------------
# the worker's life: forked once, kept, replaced, reaped at exit
# ---------------------------------------------------------------------------

def test_import_leaves_the_fan_out_unloaded():
    # the fan-out and pickle load at the first fan-out call, not at import
    source = ("import sys, l3lab.cli\n"
              "print(sorted(k for k in sys.modules"
              " if k in ('l3lab._fanout', 'pickle')))")
    proc = run_python(["-c", source], timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_worker_is_kept_between_calls():
    first = _fork_pair(os.getpid, os.getpid)
    # a Ctrl-C reaches the worker too, and it ignores it
    os.kill(first[1], signal.SIGINT)
    second = _fork_pair(os.getpid, os.getpid)
    assert first == second
    assert first[0] == os.getpid() != first[1]
    _assert_only_the_worker_left()


_TWO_GAPS_THEN_EXIT = """
from l3lab import splitting
pids = []
for mu in (2e-3, 1.5e-3):
    splitting.section_gap(mu, A=0.1777)
    from l3lab import _fanout
    pids.append(_fanout._worker[0])
print(*pids)
"""


def test_worker_is_reaped_at_exit():
    proc = run_python(["-X", "dev", "-W", "error", "-c", _TWO_GAPS_THEN_EXIT],
                      timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    first, second = proc.stdout.split()
    assert first == second
    with pytest.raises(ProcessLookupError):
        os.kill(int(first), 0)


def test_forked_process_forks_its_own_worker():
    _, worker = _fork_pair(os.getpid, os.getpid)
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            pids = _fork_pair(os.getpid, os.getpid)
            status = _fanout._stop_worker()
            os.write(write_fd, repr((pids, status)).encode())
        finally:
            os._exit(0)
    os.close(write_fd)
    with open(read_fd) as pipe:
        reply = pipe.read()
    assert os.waitpid(pid, 0)[1] == 0
    (here, there), status = eval(reply)
    assert here == pid
    assert there not in (pid, worker, os.getpid())
    assert status == 0
    # the parent's worker still answers
    assert _fork_pair(os.getpid, os.getpid) == (os.getpid(), worker)
    _assert_only_the_worker_left()


_FORK_WITHOUT_HOOKS = """
import ctypes, os
from l3lab import _fanout
from l3lab._fanout import _fork_pair
_, worker = _fork_pair(os.getpid, os.getpid)
pid = ctypes.CDLL(None).fork()  # runs none of os.fork's hooks
if pid == 0:
    ok = False
    try:
        here, there = _fork_pair(os.getpid, os.getpid)
        ok = here == os.getpid() and there not in (worker, here)
        ok = ok and _fanout._stop_worker() == 0
    finally:
        os._exit(0 if ok else 1)
print(os.waitpid(pid, 0)[1], _fork_pair(os.getpid, os.getpid)[1] == worker)
"""


def test_fork_without_hooks_forks_its_own_worker():
    # the worker records its owner's pid, so a child that still holds the
    # owner's worker leaves it alone and forks its own
    proc = run_python(["-c", _FORK_WITHOUT_HOOKS], timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 True\n"


_FORK_A_CHILD_THEN_EXIT = """
import os
from l3lab._fanout import _fork_pair
_fork_pair(os.getpid, os.getpid)
read_fd, write_fd = os.pipe()
if os.fork() == 0:
    os.close(write_fd)
    os.read(read_fd, 1)  # returns when the owner has exited
    os._exit(0)
"""


def test_owner_exit_does_not_wait_for_its_forked_child():
    # the forked child holds no copy of the worker's job pipe, so the
    # worker reaches its end when the owner's exit handler closes it; a
    # copy would keep the owner waiting for the worker, the worker for
    # the end of its job pipe and the child for the owner's exit
    proc = run_python(["-c", _FORK_A_CHILD_THEN_EXIT], timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_nested_call_from_here_runs_serially():
    inner, worker = _fork_pair(lambda: _fork_pair(os.getpid, os.getpid),
                               os.getpid)
    assert inner == (os.getpid(), os.getpid())
    assert worker != os.getpid()
    _assert_only_the_worker_left()


@pytest.mark.parametrize("job", [(lambda: 1,), (repr, threading.Lock())],
                         ids=["local_function", "unpicklable_argument"])
def test_unpicklable_job_raises_in_the_caller(job):
    _, worker = _fork_pair(os.getpid, os.getpid)
    ran = []
    with pytest.raises((pickle.PicklingError, AttributeError, TypeError)):
        _fork_pair(lambda: ran.append("here"), *job)
    assert ran == []
    # nothing reached the job pipe, so the same worker answers the next job
    assert _fork_pair(os.getpid, os.getpid) == (os.getpid(), worker)
    _assert_only_the_worker_left()


@pytest.mark.parametrize("death", ["in_a_job", "between_calls"])
def test_new_worker_after_the_worker_died(death):
    _, worker = _fork_pair(os.getpid, os.getpid)
    if death == "in_a_job":
        status, call = 768, (os._exit, 3)
    else:
        os.kill(worker, signal.SIGKILL)
        status, call = signal.SIGKILL, (os.getpid,)
    with pytest.raises(L3labError,
                       match=rf"without a result \(wait status {status}\)"):
        _fork_pair(os.getpid, *call)
    _assert_no_child_left()
    here, new = _fork_pair(os.getpid, os.getpid)
    assert new not in (worker, here)
    _assert_only_the_worker_left()
