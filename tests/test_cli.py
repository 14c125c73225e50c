import contextlib
import io
import json
import math
import os
import resource

import pytest

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


def test_a_tolerance_consistency():
    _, tight, _ = run_cli(["a"])
    _, coarse, _ = run_cli(["a", "--tol", "1e-6"])
    v1 = float(tight.splitlines()[0].split("=")[1])
    v2 = float(coarse.splitlines()[0].split("=")[1])
    assert abs(v1 - v2) < 1e-5


def test_a_record_roundtrip(tmp_path):
    path = tmp_path / "a.json"
    code, _, _ = run_cli(["a", "--format", "json", "--out", str(path)])
    assert code == 0
    rec = cli.ResultRecord.from_json(path.read_text())
    assert rec.command == "a"
    assert "wall_time_s" in rec.meta
    # bit-exact numeric round trip through serialization
    again = cli.ResultRecord.from_json(rec.to_json())
    assert again.outputs["value"] == rec.outputs["value"]
    assert again.meta["wall_time_s"] == rec.meta["wall_time_s"]


def test_stokes_csv_shape():
    code, out, _ = run_cli(["stokes", "--rho-min", "13", "--rho-max", "14",
                            "--rho-step", "1"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "rho,abs_deltaY,exp_rho,theta,digits_lost"
    assert len(lines) == 3
    row = lines[1].split(",")
    assert abs(float(row[3]) - 1.6373) < 5e-3
    assert abs(float(row[2]) - math.exp(13.0)) < 1e-6


def test_stokes_empty_range_usage_error():
    code, out, err = run_cli(["stokes", "--rho-min", "15", "--rho-max", "13"])
    assert code == 2
    assert out == ""
    assert "error: empty rho range" in err
    assert "wall time" not in err


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
    code, out, err = run_cli_process(["stokes", *flags])
    assert code == 2
    assert out == ""
    assert "error: empty rho range" in err
    assert "wall time" not in err
    assert "Traceback" not in err


def test_stokes_flags_precision_starved_rows():
    code, out, _ = run_cli(["stokes", "--rho-min", "13", "--rho-max", "13",
                            "--rho-step", "1", "--tol", "1e-6"])
    assert code == 1
    row = out.strip().splitlines()[1].split(",")
    assert row[3] == "nan"


def test_stokes_defaults_match_check_10():
    code, out, _ = run_cli(["stokes"])
    assert code == 0
    csv = {float(row.split(",")[0]): row.split(",")[3]
           for row in out.strip().splitlines()[1:]}
    lines = acceptance.check_10_stokes_table().lines[:-1]
    printed = {float(line.split(":")[0].split("=")[1]):
               line.split("theta = ")[1].split()[0] for line in lines}
    assert csv == printed


def test_stokes_refuses_the_rows_theta_refuses():
    code, out, _ = run_cli(["stokes", "--rho-min", "8", "--rho-max", "30"])
    assert code == 1
    refused = [float(row.split(",")[0])
               for row in out.strip().splitlines()[1:]
               if row.split(",")[3] == "nan"]
    per_row = []
    for rho in map(float, range(8, 31)):
        try:
            inner.theta(rho)
        except inner.PrecisionLoss:
            per_row.append(rho)
    assert refused == per_row == [float(r) for r in range(23, 31)]


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
    code, out, _ = run_cli(["distance", "--mu", "1e-3",
                            "--theta-abs", "1.63"])
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
    # t = 0 is the turning point, and the two chains out from it mirror
    # each other (bitwise on this grid, whose points are exact mirrors)
    assert rows[10][0] == "0" and rows[10][2] == "0"
    for k in range(10):
        t, lam, Lam = (float(v) for v in rows[k][:3])
        t_, lam_, Lam_ = (float(v) for v in rows[20 - k][:3])
        assert t == -t_
        assert abs(lam - lam_) <= 1e-12 and abs(Lam + Lam_) <= 1e-12


@pytest.mark.parametrize("argv", [[], ["--t-max", "3", "--n", "40"]],
                         ids=["defaults", "even_n"])
def test_separatrix_grid_is_mirror_symmetric(argv):
    # on the default 401-point grid, linspace(-10, 10, 401) puts
    # -0.049999999999998934 opposite 0.050000000000000711; the negative
    # half is now the positive one negated, so lambda(t) = lambda(-t) and
    # Lambda(t) = -Lambda(-t) hold bit for bit
    code, out, _ = run_cli(["separatrix", *argv])
    assert code == 0
    rows = [[float(v) for v in line.split(",")]
            for line in out.strip().splitlines()[1:]]
    n = len(rows)
    assert n == (401 if not argv else 40)
    for k in range(n // 2):
        (t, lam, Lam, q), (t_, lam_, Lam_, q_) = rows[k], rows[n - 1 - k]
        assert t < 0.0 and t == -t_
        assert lam.hex() == lam_.hex() and Lam == -Lam_ and q == q_
    if n % 2:
        assert rows[n // 2][:3] == [0.0, rows[n // 2][1], 0.0]


def test_determinism_of_commands():
    for argv in (["a"], ["a", "--format", "json"],
                 ["stokes", "--rho-min", "13", "--rho-max", "13",
                  "--rho-step", "1"], ["singularities"]):
        _, out1, _ = run_cli(argv)
        _, out2, _ = run_cli(argv)
        assert out1 == out2, argv


def test_config_file_defaults_and_override(tmp_path):
    cfg = tmp_path / "l3lab.cfg"
    cfg.write_text("# settings\ntol = 1e-6\n")
    _, with_cfg, _ = run_cli(["--config", str(cfg), "a", "--format", "json"])
    assert json.loads(with_cfg)["inputs"]["tol"] == 1e-6
    _, flag_wins, _ = run_cli(["--config", str(cfg), "a", "--tol", "1e-9",
                               "--format", "json"])
    assert json.loads(flag_wins)["inputs"]["tol"] == 1e-9


def test_unknown_command_exits_2():
    code, _, _ = run_cli(["frobnicate"])
    assert code == 2


def test_out_of_range_tolerance_exits_2():
    code, _, _ = run_cli(["a", "--tol", "1e-15"])
    assert code == 2


def run_cli_process(argv, preexec_fn=None):
    """Run ``l3lab`` in a fresh interpreter, so a traceback would reach stderr."""
    proc = run_python(["-m", "l3lab.cli", *argv], timeout=300,
                      preexec_fn=preexec_fn)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("flags, message", [
    (["--rho-step", "1e-10"], "rows"),
    (["--rho-step", "1e-6"], "rows"),
    (["--rho-step", "5e-324"], "rows"),
    (["--rho-min", "5"], "[8, 30]"),
    (["--rho-max", "31"], "[8, 30]"),
], ids=["step_1e-10", "step_1e-6", "step_denormal", "min_below_8",
        "max_above_30"])
def test_stokes_refuses_grid_before_any_work(flags, message):
    # --rho-step 1e-10 used to end in a numpy allocation traceback, and
    # 1e-6 to start about 7 million shootings
    code, out, err = run_cli_process(["stokes", *flags])
    assert code == 2
    assert out == ""
    assert "error:" in err and message in err
    assert "Traceback" not in err


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


def test_numerical_failure_exits_1_with_message():
    # the manifold leaves the section uncrossed in one time unit: NoCrossing
    code, _, err = run_cli_process(["distance", "--mu", "1e-3", "--t-max",
                                    "1", "--theta-abs", "1.6"])
    assert code == 1
    assert "error:" in err
    assert "Traceback" not in err


def test_config_values_typed_by_option(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n = 21\n")
    code, out, err = run_cli_process(["--config", str(cfg), "separatrix"])
    assert code == 0
    assert "Traceback" not in err
    lines = out.strip().splitlines()
    assert lines[0] == "t,lambda,Lambda,q"
    assert len(lines) == 1 + 21


@pytest.mark.parametrize("case", ["bad_value", "bad_choice",
                                  "no_path_after_command", "no_path",
                                  "missing_file"])
def test_bad_config_exits_2(tmp_path, case):
    cfg = tmp_path / "c.cfg"
    # argparse checks the choices of a flag, but not of a default
    cfg.write_text("format = xml\n" if case == "bad_choice" else "n = abc\n")
    argv = {
        "bad_value": ["--config", str(cfg), "separatrix"],
        "bad_choice": ["--config", str(cfg), "a"],
        "no_path_after_command": ["separatrix", "--config"],
        "no_path": ["--config"],
        "missing_file": ["--config", str(tmp_path / "absent.cfg"),
                         "separatrix"],
    }[case]
    code, _, err = run_cli_process(argv)
    assert code == 2
    assert "error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text, message", [
    ("# stokes\nrho-mn = 15\n", "line 2: no subcommand has 'rho-mn'"),
    ("mu\n", "line 1: 'mu' is not key = value"),
    ("tol = 1e-6\n= 5\n", "line 2: '= 5' is not key = value"),
], ids=["unknown_key", "no_equals", "no_key"])
def test_config_refuses_what_it_would_ignore(tmp_path, text, message):
    # a typo'd key was silently dropped, as was a line "= 5"; a line with no
    # "=" became an empty value of its key
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    code, out, err = run_cli(["--config", str(cfg), "stokes"])
    assert code == 2
    assert out == ""
    assert f"error: --config {cfg}: {message}" in err


def _hostile_path(tmp_path, kind):
    if kind == "non_utf8":
        path = tmp_path / "c.cfg"
        path.write_bytes(b"tol = 1e-6\n\xff\xfe = 3\n")
        return str(path)
    return {"directory": str(tmp_path),
            "missing_directory": str(tmp_path / "absent" / "c.txt"),
            "empty": "", "dev_full": "/dev/full"}[kind]


# /dev/full reads as endless zero bytes: read whole, as --config files were,
# it filled the memory; written to, it fails with ENOSPC.  A non-UTF-8 file
# is only a --config case: --out overwrites it
_PATHS = ("directory", "missing_directory", "empty", "dev_full")


@pytest.mark.parametrize("option, kind", [
    *(("--config", kind) for kind in (*_PATHS, "non_utf8")),
    *(("--out", kind) for kind in _PATHS)])
def test_hostile_paths_exit_2(tmp_path, option, kind):
    path = _hostile_path(tmp_path, kind)
    if kind == "dev_full" and not os.path.exists(path):
        pytest.skip("no /dev/full on this system")
    argv = ["--config", path, "l3"] if option == "--config" else \
        ["l3", "--out", path]
    code, _, err = run_cli(argv)
    assert code == 2
    assert "error:" in err


# 5e-324 made the asymptotic distance underflow to 0 and the ratio line
# divide by zero, a traceback with exit 1; 1e-320 made it subnormal and
# printed ratio = inf
@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0", "5e-324",
                                   "1e-320"])
def test_distance_bad_theta_abs_exits_2(value):
    for fmt in ("text", "json"):
        code, out, err = run_cli_process(
            ["distance", f"--theta-abs={value}", "--format", fmt])
        assert code == 2
        assert out == ""
        assert "error:" in err and "theta_abs" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("value", ["nan", "inf", "-100", "10", "1e9"])
def test_stokes_bad_re_start_exits_2(value):
    code, out, err = run_cli_process(
        ["stokes", "--rho-min", "13", "--rho-max", "13",
         f"--re-start={value}"])
    assert code == 2
    assert out == ""
    assert "error: re_start" in err
    assert "Traceback" not in err


def test_nan_tolerance_exits_2():
    code, out, err = run_cli_process(["a", "--tol", "nan"])
    assert code == 2
    assert out == ""
    assert "error:" in err
    assert "Traceback" not in err


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
        "CollisionSingularity", "FitRejected", "NoCrossing",
        "EventDegenerate",
    }


@pytest.mark.parametrize("argv", [
    ["separatrix", "--t-max=-1", "--n", "3"],
    ["separatrix", "--t-max", "0"],
    ["separatrix", "--t-max", "inf"],
    ["separatrix", "--t-max", "nan"],
    ["separatrix", "--n", "0"],
    ["separatrix", "--n", "1"],
    ["manifolds", "--n", "0"],
    ["manifolds", "--t-max", "inf"],
    ["manifolds", "--t-max=-1"],
], ids=lambda argv: "_".join(argv).replace("--", ""))
def test_bad_sample_grid_exits_2(argv):
    # --t-max -1 used to print rows from t = 1 down to -1, --n 0 only the
    # header, and --t-max inf a numpy RuntimeWarning before the error
    code, out, err = run_cli_process(argv)
    assert code == 2
    assert out == ""
    assert "error: need a finite --t-max > 0 and --n >= 2" in err
    assert "Traceback" not in err and "Warning" not in err


@pytest.mark.parametrize("argv", [
    ["distance", "--mu", "1e-2", "--t-max", "1e-300"],
    ["manifolds", "--t-max", "5e-324"],
], ids=["distance", "manifolds"])
def test_time_budget_below_the_smallest_step_exits_2(argv):
    # no step fits in the budget, so it is a bad argument; it used to end
    # in StepUnderflow at s = 0 with exit 1
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


# every numeric option, with the base flags each command runs under: one
# stokes row, a short manifold sample, and distance without theta(15)
_NUMERIC_OPTIONS = {
    "a": ([], ["--tol"]),
    "stokes": (["--rho-min=13", "--rho-max=13"],
               ["--rho-min", "--rho-max", "--rho-step", "--tol",
                "--re-start"]),
    "separatrix": ([], ["--t-max", "--n"]),
    "l3": ([], ["--mu"]),
    "manifolds": (["--n=50"], ["--mu", "--t-max", "--n"]),
    "distance": (["--theta-abs=1.6"], ["--mu", "--t-max", "--theta-abs"]),
}
_HOSTILE = ["nan", "inf", "-inf", "-1", "0", "1e308", "1e-308", "5e-324",
            "0.5", "3", "abc", ""]


@pytest.mark.parametrize("value", _HOSTILE, ids=lambda v: v or "empty")
@pytest.mark.parametrize("command, option", [
    (command, option) for command, (_, options) in _NUMERIC_OPTIONS.items()
    for option in options])
def test_hostile_numeric_values_exit_cleanly(command, option, value):
    # the flag after the base flags wins; a refusal or a numerical failure
    # says why on stderr, and nothing escapes as a traceback
    base = _NUMERIC_OPTIONS[command][0]
    code, out, err = run_cli([command, *base, f"{option}={value}"])
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if code != 0:
        assert "error:" in err
