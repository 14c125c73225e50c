"""Acceptance gate: every published target at its stated tolerance.

Criteria 1-13 run through the shared checks in :mod:`l3lab.acceptance`
(one pass/fail line is printed per criterion); criterion 14 exercises the
``verify`` command twice and compares output bytes.  The fan-out tests at the
end run ``run_all`` on cheap fake checks.
"""
import contextlib
import io
import os
import pathlib
import subprocess
import sys
import time

import pytest

import l3lab
from l3lab import acceptance, cli
from l3lab.numerics import L3labError
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
# the fan-out: the last check runs in a forked child
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


@pytest.mark.parametrize("error", [L3labError, FitRejected])
def test_child_exception_is_raised_after_the_parent_checks(monkeypatch,
                                                            error):
    ran = []

    def failing():
        raise error("failed in the child")

    monkeypatch.setattr(acceptance, "CHECKS",
                        (*(_fake(k, ran) for k in range(1, 13)), failing))
    with pytest.raises(error) as info:
        acceptance.run_all()
    assert type(info.value) is error
    assert str(info.value) == "failed in the child"
    assert ran == list(range(1, 13))
    _assert_no_child_left()


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_parent_exception_kills_and_reaps_the_child(monkeypatch, error):
    def raising():
        raise error("raised in the parent")

    def sleeping():
        time.sleep(60.0)
        return _fake(3)()

    monkeypatch.setattr(acceptance, "CHECKS", (_fake(1), raising, sleeping))
    t0 = time.monotonic()
    with pytest.raises(error, match="raised in the parent"):
        acceptance.run_all()
    # waiting for the child instead of killing it would take 60 s
    assert time.monotonic() - t0 < 30.0
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


_VERIFY_AFTER_BUFFERED_TEXT = """
import sys
from l3lab import acceptance, cli
acceptance.CHECKS = tuple(
    (lambda k=k: acceptance.AcceptanceResult(k, "fake", True, []))
    for k in range(1, 14))
print("buffered before verify")
sys.exit(cli.main(["verify"]))
"""


def test_child_does_not_repeat_buffered_output():
    # stdout is a buffered pipe, so the text is still in the buffer at the
    # fork; a child that left through sys.exit would flush its copy of it
    src = str(pathlib.Path(l3lab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _VERIFY_AFTER_BUFFERED_TEXT],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("buffered before verify") == 1
    assert proc.stdout.count("verify: ALL PASS") == 1
