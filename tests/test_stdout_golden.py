"""Ten commands and every demo print the bytes stored under
tests/data/stdout/.

These outputs are deterministic: the same bytes on every run and on CPython
3.10-3.13.  A change that moves a printed byte on purpose regenerates the
file it moves, by running the command or demo from the repository root
with its stdout redirected to the file, and lists every moved line in
CHANGES.md.
"""
import contextlib
import io
import pathlib
import runpy

from l3lab import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data" / "stdout"

# file stem -> argv, in the order of CI's bare-venv comparison
COMMANDS = {
    "verify": ["verify"],
    "a": ["a"],
    "a_format_json": ["a", "--format", "json"],
    "singularities": ["singularities"],
    "l3": ["l3"],
    "separatrix_n_21": ["separatrix", "--n", "21"],
    "stokes": ["stokes"],
    "manifolds_n_50": ["manifolds", "--n", "50"],
    "distance": ["distance"],
    "distance_format_json": ["distance", "--format", "json"],
}
DEMOS = sorted((ROOT / "demos").glob("0[1-5]_*.py"))


def _stdout(run):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), \
            contextlib.redirect_stderr(io.StringIO()):
        result = run()
    return result, buf.getvalue()


def test_commands_and_demos_print_the_stored_bytes():
    assert len(DEMOS) == 5
    moved = []
    for stem, argv in COMMANDS.items():
        code, out = _stdout(lambda: cli.main(argv))
        assert code == 0, argv
        if out.encode() != (DATA / f"{stem}.txt").read_bytes():
            moved.append(stem)
    for demo in DEMOS:
        _, out = _stdout(lambda: runpy.run_path(str(demo),
                                                run_name="__main__"))
        if out.encode() != (DATA / f"demo_{demo.stem}.txt").read_bytes():
            moved.append(demo.name)
    assert not moved, f"stdout moved for {moved}"
