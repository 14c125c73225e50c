"""Acceptance gate: every published target at its stated tolerance.

Criteria 1-13 run through the shared checks in :mod:`l3lab.acceptance`
(one pass/fail line is printed per criterion); criterion 14 exercises the
``verify`` command twice and compares output bytes.  The fan-out tests at the
end run the fork helper ``numerics._fork_pair`` on cheap functions, and its
two users, ``run_all`` and ``splitting.section_gap``, against serial runs.
"""
import contextlib
import io
import math
import os
import pathlib
import subprocess
import sys
import time

import pytest

import l3lab
from l3lab import acceptance, cli, splitting
from l3lab.numerics import L3labError, _fork_pair
from l3lab.separatrix import FitRejected


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


def test_forked_check_13_matches_a_direct_call(results):
    assert results[13] == acceptance.check_13_splitting_cross_validation()


# ---------------------------------------------------------------------------
# the fan-out: one fork helper, used by run_all and section_gap
# ---------------------------------------------------------------------------

def _fake(number, ran=None):
    def check():
        if ran is not None:
            ran.append(number)
        return acceptance.AcceptanceResult(number, f"fake {number}", True,
                                           [f"line {number}"])
    return check


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_run_all_returns_results_in_check_order(monkeypatch):
    ran = []
    checks = tuple(_fake(k, ran) for k in range(1, 14))
    monkeypatch.setattr(acceptance, "CHECKS", checks)
    results = acceptance.run_all()
    _assert_no_child_left()
    # the last check ran in another process, so it left no trace here
    assert ran == list(range(1, 13))
    assert results == [fn() for fn in checks]


def test_fork_pair_returns_both_results_in_order():
    ran = []

    def here():
        ran.append("here")
        return "here", os.getpid()

    def there():
        ran.append("there")
        return "there", os.getpid()

    (a, pid_a), (b, pid_b) = _fork_pair(here, there)
    _assert_no_child_left()
    assert (a, b) == ("here", "there")
    assert pid_a == os.getpid() != pid_b
    # the child's append happened in its own copy of the list
    assert ran == ["here"]


def test_fork_pair_nested_call_runs_in_one_process():
    def nested():
        return _fork_pair(os.getpid, os.getpid)

    pid_here, (pid_a, pid_b) = _fork_pair(os.getpid, nested)
    _assert_no_child_left()
    assert pid_here == os.getpid()
    assert pid_a == pid_b != pid_here


@pytest.mark.parametrize("error", [L3labError, FitRejected])
def test_child_exception_is_raised_after_the_parent_checks(error):
    ran = []

    def failing():
        raise error("failed in the child")

    with pytest.raises(error) as info:
        _fork_pair(lambda: ran.append("here"), failing)
    assert type(info.value) is error
    assert str(info.value) == "failed in the child"
    assert ran == ["here"]
    _assert_no_child_left()


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_parent_exception_kills_and_reaps_the_child(error):
    def raising():
        raise error("raised in the parent")

    def sleeping():
        time.sleep(60.0)

    t0 = time.monotonic()
    with pytest.raises(error, match="raised in the parent"):
        _fork_pair(raising, sleeping)
    # waiting for the child instead of killing it would take 60 s
    assert time.monotonic() - t0 < 30.0
    _assert_no_child_left()


def test_fork_pair_child_without_a_result():
    with pytest.raises(L3labError,
                       match=r"without a result \(wait status 768\)"):
        _fork_pair(lambda: None, lambda: os._exit(3))
    _assert_no_child_left()


def test_child_that_dies_without_a_result_fails_verify(monkeypatch):
    monkeypatch.setattr(acceptance, "CHECKS",
                        (_fake(1), lambda: os._exit(3)))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(["verify"])
    assert code == 1
    assert "without a result (wait status 768)" in err.getvalue()
    _assert_no_child_left()


_FORK_AFTER_BUFFERED_TEXT = """
from l3lab.numerics import _fork_pair
print("buffered before the fork")
print(_fork_pair(lambda: "here", lambda: "there"))
"""


def test_child_does_not_repeat_buffered_output():
    # stdout is a buffered pipe, so the text is still in the buffer at the
    # fork; a child that left through sys.exit would flush its copy of it
    src = str(pathlib.Path(l3lab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _FORK_AFTER_BUFFERED_TEXT],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "buffered before the fork\n('here', 'there')\n"


def _serial_gap(mu, t_max):
    """section_gap's sample from two manifold_section_point calls in a row."""
    pu = splitting.manifold_section_point(mu, "unstable_plus", t_max=t_max)
    ps = splitting.manifold_section_point(mu, "stable_plus", t_max=t_max)
    gr, gR, gG = pu.r - ps.r, pu.R - ps.R, pu.G - ps.G
    return splitting.SplittingSample(
        mu=mu, dist_measured=math.sqrt(gr * gr + gR * gR + gG * gG),
        dist_asymptotic=splitting.asymptotic_distance(mu, 0.1777, 1.63),
        gap_r=gr, gap_R=gR, gap_G=gG, gap_eta=abs(pu.eta - ps.eta))


def test_section_gap_matches_serial_traces():
    forked = splitting.section_gap(2e-3, A=0.1777)
    _assert_no_child_left()
    serial = _serial_gap(2e-3, 1000.0)
    for name, value in vars(serial).items():
        assert getattr(forked, name).hex() == value.hex(), name


def _short_stable_trace(monkeypatch):
    # the unstable trace always takes longer, so only a shorter budget for
    # the stable one makes the child alone run out of time
    trace = splitting.manifold_section_point

    def short(mu, branch, *args, **kwargs):
        if branch == "stable_plus":
            return trace(mu, branch, t_max=5.0)
        return trace(mu, branch, *args, **kwargs)

    monkeypatch.setattr(splitting, "manifold_section_point", short)


# at mu = 3e-3 the unstable trace crosses at t = 210.8, the stable one at
# t = -192.4: t_max 5 stops both, 200 only the unstable one (in the parent)
@pytest.mark.parametrize("t_max, short_stable", [(5.0, False),
                                                 (200.0, False),
                                                 (1000.0, True)],
                         ids=["both", "unstable", "stable"])
def test_section_gap_no_crossing_as_serial(monkeypatch, t_max, short_stable):
    if short_stable:
        _short_stable_trace(monkeypatch)
    with pytest.raises(splitting.NoCrossing) as serial:
        _serial_gap(3e-3, t_max)
    with pytest.raises(splitting.NoCrossing) as forked:
        splitting.section_gap(3e-3, t_max=t_max, A=0.1777)
    _assert_no_child_left()
    assert type(forked.value) is type(serial.value)
    assert str(forked.value) == str(serial.value)
    branch = "stable_plus" if short_stable else "unstable_plus"
    assert f"branch = {branch}" in str(forked.value)
