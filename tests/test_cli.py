import argparse
import contextlib
import inspect
import io
import json
import math
import os
import resource

import pytest

import l3lab
from l3lab import (acceptance, cli, inner, numerics, rpc3bp, separatrix,
                   splitting)

from conftest import run_python


def run_cli(argv):
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, buf.getvalue(), err.getvalue()


def test_a_text():
    code, out, _ = run_cli(["a"])
    assert code == 0
    assert out.startswith("A = 0.17774")
    assert abs(float(out.splitlines()[0].split("=")[1]) - 0.177744) < 1e-5


def test_a_json_fields_and_agreement_with_text():
    code, out, _ = run_cli(["a", "--format", "json"])
    assert code == 0
    rec = json.loads(out)
    assert set(rec["outputs"]) == {"value", "err", "evals"}
    _, text, _ = run_cli(["a"])
    text_value = float(text.splitlines()[0].split("=")[1])
    assert text_value == rec["outputs"]["value"]


def test_a_record_roundtrip(tmp_path):
    # the --out record of a and distance is the stdout record plus a meta
    # block, and its outputs survive serialization bit for bit
    for command in ("a", "distance"):
        path = tmp_path / f"{command}.json"
        code, out, _ = run_cli([command, "--format", "json",
                                "--out", str(path)])
        assert code == 0 and out == ""
        rec = json.loads(path.read_text())
        meta = rec.pop("meta")
        assert set(meta) == {"wall_time_s", "library_version"}
        assert isinstance(meta["wall_time_s"], float)
        assert meta["wall_time_s"] >= 0.0
        assert meta["library_version"] == l3lab.__version__
        _, printed, _ = run_cli([command, "--format", "json"])
        assert rec == json.loads(printed)
        assert rec["command"] == command
        # repr is the shortest string that reads back as the same float
        again = json.loads(json.dumps(rec["outputs"]))
        assert ({k: repr(v) for k, v in again.items()}
                == {k: repr(v) for k, v in rec["outputs"].items()})


@pytest.mark.parametrize("argv, expected", [
    (["a"], 0),
    (["singularities"], 0),
    (["l3", "--mu", "0.003"], 0),
    (["separatrix", "--n", "21"], 0),
    (["stokes"], 0),
    (["manifolds", "--n", "25"], 0),
    (["distance"], 0),
    (["verify"], 0),
], ids=lambda v: "_".join(v).replace("--", "") if isinstance(v, list)
   else None)
def test_out_file_holds_the_stdout_bytes(tmp_path, argv, expected):
    code, out, _ = run_cli(argv)
    assert code == expected
    path = tmp_path / "out.txt"
    code, printed, _ = run_cli([*argv, "--out", str(path)])
    assert (code, printed) == (expected, "")
    assert path.read_bytes() == out.encode()


def _failing_check():
    return acceptance.AcceptanceResult(1, "fails", False, ["always"])


def test_out_file_holds_the_stdout_bytes_of_a_failing_verify(tmp_path,
                                                             monkeypatch):
    # verify exits 1 and still writes its report
    monkeypatch.setattr(acceptance, "CHECKS",
                        (_failing_check, *acceptance.CHECKS[1:]))
    code, out, _ = run_cli(["verify"])
    assert code == 1
    assert out.startswith("[FAIL] criterion 1: fails\n")
    assert out.endswith("verify: FAILURES PRESENT\n")
    path = tmp_path / "out.txt"
    code, printed, _ = run_cli(["verify", "--out", str(path)])
    assert (code, printed) == (1, "")
    assert path.read_bytes() == out.encode()


def test_refused_command_writes_no_out_file(tmp_path):
    path = tmp_path / "out.txt"
    code, out, err = run_cli(["distance", "--mu", "0.5", "--out", str(path)])
    assert code == 2 and out == ""
    assert "error: manifold tracing expects mu" in err
    assert not path.exists()


def test_stokes_csv_shape():
    code, out, _ = run_cli(["stokes"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "rho,abs_deltaY,exp_rho,theta,digits_lost"
    assert [line.split(",")[0] for line in lines[1:]] == [
        str(rho) for rho in range(13, 21)]
    row = lines[1].split(",")
    assert abs(float(row[3]) - 1.6373) < 5e-3
    assert abs(float(row[2]) - math.exp(13.0)) < 1e-6


def _assert_range_flag_refused(code, out, err):
    # the rho range is gone with its flags: stokes prints check 10's rows,
    # and any --rho-* flag is refused before any work
    assert code == 2
    assert out == ""
    assert "error: unrecognized arguments: --rho-" in err
    assert "wall time" not in err
    assert "Traceback" not in err


def test_stokes_empty_range_usage_error():
    _assert_range_flag_refused(
        *run_cli(["stokes", "--rho-min", "15", "--rho-max", "13"]))


@pytest.mark.parametrize("flags", [
    ["--rho-min", "nan"],
    ["--rho-max", "nan"],
    ["--rho-step", "nan"],
    ["--rho-max", "inf"],
    ["--rho-min=-inf"],
    ["--rho-step", "inf"],
    ["--rho-step", "0"],
], ids=["nan_min", "nan_max", "nan_step", "inf_max", "inf_min",
        "inf_step", "zero_step"])
def test_stokes_bad_rho_range_exits_2(flags):
    _assert_range_flag_refused(*run_cli_process(["stokes", *flags]))


def test_stokes_flags_precision_starved_rows(monkeypatch):
    # at rtol 1e-6 the cancellation in Delta Y leaves too few digits on
    # every row: the refused row is raised as its PrecisionLoss, so the
    # command exits 1 with a message and prints no table
    monkeypatch.setattr(inner, "_RTOL", 1e-6)
    code, out, err = run_cli(["stokes"])
    assert code == 1
    assert out == ""
    assert "significant digits left in Delta Y at rho = 13.0" in err
    assert "wall time" not in err


def test_stokes_refuses_the_rows_theta_refuses(monkeypatch):
    monkeypatch.setattr(inner, "_RTOL", 1e-6)
    with pytest.raises(inner.PrecisionLoss) as refused:
        inner.theta(13.0)
    _, _, err = run_cli(["stokes"])
    assert err == f"error: {refused.value}\n"


def test_verify_reports_a_refused_stokes_row(monkeypatch):
    # check 10's table raises the PrecisionLoss of its first refused row,
    # so verify exits 1 with its message and prints no table
    monkeypatch.setattr(inner, "_RTOL", 1e-6)
    code, out, err = run_cli(["verify"])
    assert (code, out) == (1, "")
    with pytest.raises(inner.PrecisionLoss, match=r"rho = 13\.0$") as refused:
        inner.theta(13.0)
    assert err == f"error: {refused.value}\n"


def test_stokes_defaults_match_check_10():
    code, out, _ = run_cli(["stokes"])
    assert code == 0
    csv = {float(row.split(",")[0]): row.split(",")[3]
           for row in out.strip().splitlines()[1:]}
    lines = acceptance.check_10_stokes_table().lines[:-1]
    printed = {float(line.split(":")[0].split("=")[1]):
               line.split("theta = ")[1].split()[0] for line in lines}
    assert csv == printed


def test_manifolds_csv(tmp_path):
    path = tmp_path / "m.csv"
    code, _, _ = run_cli(["manifolds", "--mu", "0.003", "--n", "25",
                          "--out", str(path)])
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "branch,t,q1,q2,r,theta"
    assert len(lines) == 51
    assert {line.split(",")[0] for line in lines[1:]} == {
        "unstable_plus", "stable_plus"}


def test_distance_text():
    code, out, _ = run_cli(["distance", "--mu", "1e-3"])
    assert code == 0
    vals = {line.split(" = ")[0]: float(line.split(" = ")[1])
            for line in out.strip().splitlines()}
    assert abs(vals["asymptotic"] - 9.37e-4) < 1e-5
    assert vals["measured"] > 0
    assert abs(vals["ratio"] - vals["measured"] / vals["asymptotic"]) < 1e-12


def test_singularities_output():
    code, out, _ = run_cli(["singularities"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("t*_1,+")


def test_l3_output():
    code, out, _ = run_cli(["l3", "--mu", "0.003"])
    assert code == 0
    assert out.startswith("d_mu = 1.00124999")
    assert "hyperbolic_over_sqrt_mu" in out


def test_separatrix_csv():
    code, out, _ = run_cli(["separatrix", "--t-max", "5", "--n", "21"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,lambda,Lambda,q"
    rows = [line.split(",") for line in lines[1:]]
    qs = [float(row[3]) for row in rows]
    a_plus = (-1.0 + math.sqrt(2.0)) / 2.0
    assert all(a_plus - 1e-9 <= q < 1.0 for q in qs)
    # t = 0 is the turning point, and the rows at t < 0 mirror those at
    # t > 0
    assert rows[10][0] == "0" and rows[10][2] == "0"
    for k in range(10):
        t, lam, Lam = (float(v) for v in rows[k][:3])
        t_, lam_, Lam_ = (float(v) for v in rows[20 - k][:3])
        assert t == -t_
        assert abs(lam - lam_) <= 1e-12 and abs(Lam + Lam_) <= 1e-12


@pytest.mark.parametrize("argv", [[], ["--t-max", "3", "--n", "40"],
                                  ["--t-max=1e-14", "--n=5"]],
                         ids=["defaults", "even_n", "shortest_t_max"])
def test_separatrix_grid_is_mirror_symmetric(argv):
    # on the default 401-point grid, linspace(-10, 10, 401) puts
    # -0.049999999999998934 opposite 0.050000000000000711; the negative
    # half is the positive one mirrored, so lambda(t) = lambda(-t) and
    # Lambda(t) = -Lambda(-t) hold bit for bit.  At --t-max 1e-14 the grid
    # is the shortest one allowed
    code, out, _ = run_cli(["separatrix", *argv])
    assert code == 0
    rows = [[float(v) for v in line.split(",")]
            for line in out.strip().splitlines()[1:]]
    n = len(rows)
    assert n == {0: 401, 4: 40, 2: 5}[len(argv)]
    ts = [row[0] for row in rows]
    assert all(a < b for a, b in zip(ts, ts[1:]))
    for k in range(n // 2):
        (t, lam, Lam, q), (t_, lam_, Lam_, q_) = rows[k], rows[n - 1 - k]
        assert t < 0.0 and t == -t_
        assert lam.hex() == lam_.hex() and Lam == -Lam_ and q == q_
    if n % 2:
        assert rows[n // 2][:3] == [0.0, rows[n // 2][1], 0.0]


def test_determinism_of_commands():
    for argv in (["a"], ["a", "--format", "json"],
                 ["stokes"], ["singularities"]):
        _, out1, _ = run_cli(argv)
        _, out2, _ = run_cli(argv)
        assert out1 == out2, argv


def test_unknown_command_exits_2():
    code, _, _ = run_cli(["frobnicate"])
    assert code == 2


def run_cli_process(argv, preexec_fn=None):
    """Run ``l3lab`` in a fresh interpreter, so a traceback would reach stderr."""
    proc = run_python(["-m", "l3lab.cli", *argv], timeout=300,
                      preexec_fn=preexec_fn)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("flags", [
    ["--rho-step", "1e-10"],
    ["--rho-step", "1e-6"],
    ["--rho-step", "5e-324"],
    ["--rho-min", "5"],
    ["--rho-max", "31"],
], ids=["step_1e-10", "step_1e-6", "step_denormal", "min_below_8",
        "max_above_30"])
def test_stokes_refuses_grid_before_any_work(flags):
    # --rho-step 1e-10 used to end in a numpy allocation traceback, and
    # 1e-6 to start about 7 million shootings
    _assert_range_flag_refused(*run_cli_process(["stokes", *flags]))


def test_cli_import_leaves_numpy_unloaded():
    source = ("import sys, l3lab.cli\n"
              "print(sorted(k for k in sys.modules"
              " if k.split('.')[0] == 'numpy'))")
    proc = run_python(["-c", source], timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["a", "l3", "singularities"])
def test_commands_run_with_numpy_blocked(command):
    # an entry of None in sys.modules makes every import of numpy fail
    source = ("import sys\n"
              "sys.modules['numpy'] = None\n"
              "from l3lab.cli import main\n"
              "sys.exit(main(sys.argv[1:]))")
    proc = run_python(["-c", source, command], timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout and "Traceback" not in proc.stderr


def test_numerical_failure_exits_1_with_message(monkeypatch):
    # a tracing that ends without a section crossing
    def no_crossing(mu, **kwargs):
        raise splitting.NoCrossing(f"no crossing for mu = {mu}")

    monkeypatch.setattr(splitting, "section_gap", no_crossing)
    code, out, err = run_cli(["distance", "--mu", "1e-3"])
    assert code == 1
    assert out == ""
    assert "error: no crossing for mu = 0.001" in err
    assert "wall time" not in err


def _hostile_path(tmp_path, kind):
    return {"directory": str(tmp_path),
            "missing_directory": str(tmp_path / "absent" / "c.txt"),
            "empty": "", "dev_full": "/dev/full"}[kind]


# /dev/full fails a write with ENOSPC
@pytest.mark.parametrize("option, kind", [
    ("--out", kind) for kind in ("directory", "missing_directory", "empty",
                                 "dev_full")])
def test_hostile_paths_exit_2(tmp_path, option, kind):
    path = _hostile_path(tmp_path, kind)
    if kind == "dev_full" and not os.path.exists(path):
        pytest.skip("no /dev/full on this system")
    code, _, err = run_cli(["l3", option, path])
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv", [["--config", "f", "a"],
                                  ["a", "--config", "f"]],
                         ids=["before_command", "after_command"])
def test_leftover_config_exits_2(argv):
    # the flag is gone; it must not be dropped and the command run with its
    # defaults
    code, out, err = run_cli_process(argv)
    assert code == 2
    assert out == ""
    assert "error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["distance", "--t-max", "5"],
                                  ["distance", "--theta-abs", "1.6"],
                                  ["manifolds", "--t-max", "5"],
                                  ["a", "--tol", "1e-6"],
                                  ["stokes", "--tol", "1e-6"],
                                  ["stokes", "--re-start", "1000"],
                                  ["stokes", "--rho-min", "13"],
                                  ["stokes", "--rho-max", "20"],
                                  ["stokes", "--rho-step", "1"]],
                         ids=["distance_t-max", "distance_theta-abs",
                              "manifolds_t-max", "a_tol", "stokes_tol",
                              "stokes_re-start", "stokes_rho-min",
                              "stokes_rho-max", "stokes_rho-step"])
def test_removed_options_exit_2(argv):
    # the flags are gone; they must not be dropped and the command run with
    # its defaults
    code, out, err = run_cli_process(argv)
    assert code == 2
    assert out == ""
    assert f"error: unrecognized arguments: {argv[1]}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("mu", ["0.03", "1e-5", "nan"])
def test_distance_refuses_untraceable_mu_before_any_work(monkeypatch, mu):
    def work(*args, **kwargs):
        pytest.fail("distance started work on a mass ratio it refuses")

    monkeypatch.setattr(separatrix, "compute_A", work)
    monkeypatch.setattr(inner, "theta", work)
    code, out, err = run_cli(["distance", "--mu", mu])
    assert code == 2
    assert out == ""
    assert "error: manifold tracing expects mu in [3e-4, 1e-2]" in err
    # the message names the value it refused
    assert err.endswith(f", got {float(mu)!r}\n")


@pytest.mark.parametrize("mu", ["1e-300", "1e-16", "1e-12"])
def test_l3_refuses_mu_below_1e_8(mu):
    # the closed-form rate loses digits to cancellation as mu falls: 1e-300
    # printed d_mu = 1 with a zero rate, and 1e-16 ended in NoBracket with
    # exit 1
    code, out, err = run_cli(["l3", "--mu", mu])
    assert code == 2
    assert out == ""
    assert (f"error: locate_L3 expects mu in [1e-8, 0.05], "
            f"got {float(mu)!r}") in err


def test_unwritable_out_path_exits_2(tmp_path):
    target = tmp_path / "absent" / "x"
    code, _, err = run_cli_process(["a", "--out", str(target)])
    assert code == 2
    assert "error:" in err
    assert "Traceback" not in err
    code, _, err = run_cli_process(["a", "--format", "json",
                                    "--out", str(target)])
    assert code == 2
    assert "error:" in err
    assert "Traceback" not in err


def test_every_package_exception_is_an_l3lab_error():
    found = set()
    for mod in (numerics, rpc3bp, separatrix, inner, splitting):
        for name, obj in vars(mod).items():
            if (isinstance(obj, type) and issubclass(obj, Exception)
                    and obj.__module__ == mod.__name__):
                assert issubclass(obj, numerics.L3labError), name
                found.add(name)
    assert found >= {
        "StepUnderflow", "NonFinite", "NoConvergence", "NoBracket",
        "NearBranchCut", "SqrtDomain", "TimeReparamSingular", "TooClose",
        "PrecisionLoss", "Collision", "OriginSingular", "HyperbolicInput",
        "CollisionSingularity", "FitRejected", "ZeroCountRejected",
        "NoCrossing", "EventDegenerate",
    }


@pytest.mark.parametrize("argv", [
    ["separatrix", "--t-max=-1", "--n", "3"],
    ["separatrix", "--t-max", "0"],
    ["separatrix", "--t-max", "inf"],
    ["separatrix", "--t-max", "nan"],
    ["separatrix", "--n", "0"],
    ["separatrix", "--n", "1"],
    ["manifolds", "--n", "0"],
], ids=lambda argv: "_".join(argv).replace("--", ""))
def test_bad_sample_grid_exits_2(argv):
    # --t-max -1 used to print rows from t = 1 down to -1, --n 0 only the
    # header, and --t-max inf a numpy RuntimeWarning before the error
    code, out, err = run_cli_process(argv)
    assert code == 2
    assert out == ""
    if any(arg.startswith("--t-max") for arg in argv):
        assert "error: --t-max must be finite and at least 1e-14" in err
    else:
        assert f"error: need --n >= 2, got --n {argv[-1]}" in err
    assert "Traceback" not in err and "Warning" not in err


@pytest.mark.parametrize("argv", [
    ["separatrix", "--n", "5", "--t-max", "5e-324"],
    ["separatrix", "--t-max", "1e-300"],
], ids=["separatrix_5e-324", "separatrix_1e-300"])
def test_time_budget_below_the_smallest_step_exits_2(argv):
    # no step fits in the budget, so it is a bad argument; it used to end
    # in StepUnderflow at s = 0 with exit 1.  separatrix at 5e-324 printed
    # t = -5e-324, 5e-324, 0, -5e-324, 5e-324, its Lambda out of symmetry
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert (f"error: --t-max must be finite and at least 1e-14, the smallest"
            f" step, got {float(argv[-1])!r}") in err


@pytest.mark.parametrize("t_max", ["7", "11", "1e9"])
def test_separatrix_reach_beyond_6_exits_2(t_max):
    # 1e4 used to take 8.4 s, and every row past t ~ 9 was noise; at 7 the
    # rows are off by 1.7e-4 relative
    code, out, err = run_cli(["separatrix", "--t-max", t_max])
    assert code == 2
    assert out == ""
    assert f"error: --t-max {float(t_max)} reaches beyond 6," in err


def _limit_address_space():
    # 1.5 GB: a grid that got past the check fails at once with a
    # MemoryError instead of filling the machine's memory
    limit = 1536 * 2 ** 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("command", ["separatrix", "manifolds"])
@pytest.mark.parametrize("n", ["100001", "1000000000"])
def test_oversized_sample_grid_exits_2(command, n):
    # --n 1000000000 used to build the whole grid and end in a MemoryError
    # traceback with exit 1
    code, out, err = run_cli_process([command, "--n", n],
                                     preexec_fn=_limit_address_space)
    assert code == 2
    assert out == ""
    assert f"error: --n {n} asks for more than 100000 samples" in err
    assert "Traceback" not in err


# every numeric option, with the base flags each command runs under: a
# short manifold sample
_NUMERIC_OPTIONS = {
    "a": ([], []),
    "stokes": ([], []),
    "separatrix": ([], ["--t-max", "--n"]),
    "l3": ([], ["--mu"]),
    "manifolds": (["--n=50"], ["--mu", "--n"]),
    "distance": ([], ["--mu"]),
}
# options these commands no longer take: argparse refuses them whatever the
# value, as test_removed_options_exit_2 checks for one value each
_REMOVED_OPTIONS = {"a": ["--tol"],
                    "stokes": ["--tol", "--re-start", "--rho-min",
                               "--rho-max", "--rho-step"],
                    "manifolds": ["--t-max"],
                    "distance": ["--t-max", "--theta-abs"]}
_HOSTILE = ["nan", "inf", "-inf", "-1", "0", "1e308", "1e-308", "5e-324",
            "0.5", "3", "abc", ""]


@pytest.mark.parametrize("value", _HOSTILE, ids=lambda v: v or "empty")
@pytest.mark.parametrize("command, option", [
    (command, option) for command, (_, options) in _NUMERIC_OPTIONS.items()
    for option in options + _REMOVED_OPTIONS.get(command, [])])
def test_hostile_numeric_values_exit_cleanly(command, option, value):
    # the flag after the base flags wins; a refusal or a numerical failure
    # says why on stderr, and nothing escapes as a traceback
    base = _NUMERIC_OPTIONS[command][0]
    code, out, err = run_cli([command, *base, f"{option}={value}"])
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if code != 0:
        assert "error:" in err
    if option in _REMOVED_OPTIONS.get(command, []):
        assert code == 2 and out == ""
        assert f"error: unrecognized arguments: {option}=" in err


# the whole option surface, 16 options command by command (-h aside): an
# option added or removed must be added or removed here too
_CLI_OPTIONS = {
    "a": ["--format", "--out"],
    "stokes": ["--out"],
    "singularities": ["--out"],
    "separatrix": ["--t-max", "--n", "--out"],
    "l3": ["--mu", "--out"],
    "manifolds": ["--mu", "--n", "--out"],
    "distance": ["--mu", "--format", "--out"],
    "verify": ["--out"],
}


def test_cli_option_surface_is_pinned():
    [sub] = [action for action in cli._build_parser()._actions
             if isinstance(action, argparse._SubParsersAction)]
    surface = {command: [option for action in parser._actions
                         for option in action.option_strings
                         if option not in ("-h", "--help")]
               for command, parser in sub.choices.items()}
    assert surface == _CLI_OPTIONS


def test_out_and_format_are_declared_once():
    # every command's --out is the same option, and a and distance share
    # one --format: help text, default, choices and type alike
    [sub] = [action for action in cli._build_parser()._actions
             if isinstance(action, argparse._SubParsersAction)]

    def option(parser, flag):
        [action] = [action for action in parser._actions
                    if flag in action.option_strings]
        choices = None if action.choices is None else tuple(action.choices)
        return action.help, action.default, choices, action.type

    outs = {option(parser, "--out") for parser in sub.choices.values()}
    assert len(outs) == 1
    [(help_text, default, _, _)] = outs
    assert help_text and default is None
    formats = {option(sub.choices[command], "--format")
               for command in ("a", "distance")}
    assert formats == {(None, "text", ("text", "json"), None)}


# every parameter with a default of every function in a module's __all__,
# function by function (the functions without one are left out): a keyword
# that only tests set is a knob nobody uses, and one added or removed must
# be added or removed here too
_KEYWORD_PARAMETERS = {
    "numerics.ode_steps": ["rtol", "atol", "s_end"],
    "numerics.integrate_ode": ["rtol", "atol", "_first_step"],
    "numerics.integrate_chain": ["rtol", "atol"],
    "numerics.quad_path": ["tol"],
    "numerics.find_root": ["tol"],
    "separatrix.compute_A": ["tol"],
    "separatrix.compute_A_rescaled": ["tol"],
    "separatrix.residue_pole_numeric": ["radius"],
    "separatrix.check_zero_of_Lambda": ["re_range"],
    "inner.verify_inner_limit": ["seed"],
    "splitting.manifold_section_point": ["branch", "t_max", "_rtol"],
    "splitting.manifold_trajectory": ["branch", "n_points"],
    "splitting.section_gap": ["t_max", "A", "theta_abs"],
    "cli.main": ["argv"],
}


def test_keyword_parameters_are_pinned():
    surface = {}
    for mod in (numerics, rpc3bp, separatrix, inner, splitting, acceptance,
                cli):
        for name in mod.__all__:
            obj = getattr(mod, name)
            if not inspect.isfunction(obj):
                continue
            keywords = [p.name for p in inspect.signature(obj).parameters
                        .values() if p.default is not p.empty]
            if keywords:
                surface[f"{mod.__name__.split('.')[1]}.{name}"] = keywords
    assert surface == _KEYWORD_PARAMETERS
