"""The package's result records: plain slotted classes, no dataclasses.

The table pins each record's fields, in order, to those it has always had;
the contract below is what callers use of a record: construction by position
and by keyword, field-wise ``==``, the ``Name(field=value, ...)`` repr,
pickling (the fan-out sends ``SectionPoint``, ``SplittingSample`` and
``AcceptanceResult`` between processes), and, for the seven value types,
refused assignment and hashing by the fields.
"""
import inspect
import pathlib
import pickle
import subprocess
import sys

import pytest

import l3lab
from l3lab import acceptance, inner, numerics, rpc3bp, separatrix, splitting

# (module, class, fields in order, frozen)
RECORDS = [
    (numerics, "Line", ("a", "b"), True),
    (numerics, "Arc", ("center", "radius", "phi_start", "phi_end"), True),
    (numerics, "OdeResult",
     ("y_end", "steps", "rejected", "max_err_est", "next_step"), False),
    (numerics, "QuadResult", ("value", "err", "evals"), False),
    (rpc3bp, "CartesianState", ("q1", "q2", "p1", "p2"), True),
    (rpc3bp, "PolarState", ("r", "theta", "R", "G"), True),
    (rpc3bp, "PoincareState", ("lam", "L", "eta", "xi"), True),
    (rpc3bp, "Equilibrium",
     ("d_mu", "cartesian", "eigenvalues", "poincare"), False),
    (separatrix, "PendulumState", ("lam", "Lam"), True),
    (separatrix, "SingularityReport",
     ("t_star", "kind", "fitted_exponent", "fitted_coefficient",
      "momentum_exponent", "residual"), False),
    (inner, "InnerState", ("W", "X", "Y"), True),
    (inner, "StokesRecord",
     ("rho", "delta_y", "theta", "digits_lost", "y_unstable", "y_stable"),
     False),
    (inner, "DiffStructure",
     ("rho", "x_samples", "ey_values", "ex_values", "ew_values",
      "rel_spread_y", "xy_suppression", "arg_spread_y"), False),
    (inner, "InnerLimitFit", ("deltas", "residuals", "exponent"), False),
    (splitting, "SectionPoint",
     ("r", "R", "G", "theta", "t_hit", "state", "mu", "branch"), False),
    (splitting, "SplittingSample",
     ("mu", "dist_measured", "dist_asymptotic", "gap_r", "gap_R", "gap_G",
      "gap_eta", "rtol"), False),
    (splitting, "SplittingFit", ("slope", "intercept", "samples"), False),
    (acceptance, "AcceptanceResult", ("number", "name", "ok", "lines"),
     False),
]
# the one field with a default: a new empty list per record
OPTIONAL = {("AcceptanceResult", "lines")}

params = pytest.mark.parametrize("module, name, fields, frozen", RECORDS,
                                 ids=[r[1] for r in RECORDS])


def _values(fields):
    # distinct, hashable and picklable
    return tuple(k + 0.25 for k in range(len(fields)))


@params
def test_fields_and_defaults(module, name, fields, frozen):
    cls = getattr(module, name)
    assert cls.__slots__ == fields
    assert isinstance(cls(*_values(fields)), numerics._Record)
    signature = inspect.signature(cls)
    assert tuple(signature.parameters) == fields
    for field, param in signature.parameters.items():
        optional = (name, field) in OPTIONAL
        assert (param.default is not param.empty) == optional, field
    if name == "AcceptanceResult":
        a, b = cls(1, "x", True), cls(1, "x", True)
        assert a.lines == [] and a.lines is not b.lines


@params
def test_construction_by_position_and_keyword(module, name, fields, frozen):
    cls = getattr(module, name)
    values = _values(fields)
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    for field, value in zip(fields, values):
        assert getattr(by_position, field) == value
        assert getattr(by_keyword, field) == value
    assert by_position == by_keyword
    assert not by_position != by_keyword


@params
def test_equality_is_field_wise(module, name, fields, frozen):
    cls = getattr(module, name)
    values = _values(fields)
    record = cls(*values)
    for k in range(len(fields)):
        changed = values[:k] + (values[k] + 1.0,) + values[k + 1:]
        assert record != cls(*changed), fields[k]
        assert not record == cls(*changed), fields[k]
    assert record != values
    # a record of another class, with the same values where it has as many
    # fields (only OdeResult has five)
    m, n, f, _ = min((r for r in RECORDS if r[1] != name),
                     key=lambda r: len(r[2]) != len(fields))
    assert record != getattr(m, n)(*_values(f))


@params
def test_repr(module, name, fields, frozen):
    cls = getattr(module, name)
    values = _values(fields)
    inside = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
    assert repr(cls(*values)) == f"{name}({inside})"


@params
def test_pickle_round_trip(module, name, fields, frozen):
    cls = getattr(module, name)
    record = cls(*_values(fields))
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is cls
    assert back == record
    for field in fields:
        assert getattr(back, field) == getattr(record, field)


@params
def test_value_types_refuse_assignment_and_hash(module, name, fields,
                                                frozen):
    cls = getattr(module, name)
    values = _values(fields)
    record = cls(*values)
    with pytest.raises(AttributeError):
        record.not_a_field = 1.0
    if frozen:
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(record, field, 1.0)
            with pytest.raises(AttributeError):
                delattr(record, field)
        assert getattr(record, fields[0]) == values[0]
        assert hash(record) == hash(cls(*values))
        assert len({record, cls(*values)}) == 1
    else:
        setattr(record, fields[0], 1.0)
        assert getattr(record, fields[0]) == 1.0
        with pytest.raises(TypeError):
            hash(record)


@pytest.mark.parametrize("module", ["l3lab", "l3lab.cli"])
def test_import_loads_neither_dataclasses_nor_inspect(module):
    src = str(pathlib.Path(l3lab.__file__).resolve().parents[1])
    source = (f"import sys; sys.path.insert(0, {src!r}); import {module}; "
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", source],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
