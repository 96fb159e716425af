"""The library's immutable records, and the cost of importing them."""

import pathlib
import subprocess
import sys

import pytest

import eulab
from eulab.action import Factorization, Orbit
from eulab.checks import CheckDef, CheckReport
from eulab.enumerators import Enumerator, EnumeratorKind
from eulab.gamma import GammaExpansion
from eulab.grammar import Grammar
from eulab.poly import MultiPoly

# each record with its fields, in order, and the values of one instance
RECORDS = [
    (Factorization, {"prefix": (2, 1), "left_high": (7, 6, 8), "pivot": 5, "right_high": (),
                     "suffix": (4, 3, 9)}),
    (Orbit, {"members": ((1, 2), (2, 1)), "representative": (1, 2)}),
    (GammaExpansion, {"n": 2, "gammas": (MultiPoly.const(1),)}),
    (Grammar, {"rules": (("x", MultiPoly.var("y")),)}),
    (Enumerator, {"kind": EnumeratorKind.SE, "index": 2, "klass": None,
                  "value": MultiPoly.var("x")}),
    (CheckReport, {"check": "secant", "params": {"n": 2}, "verdict": "PASS",
                   "witness": {"value": "-al"}}),
    (CheckDef, {"name": "echo", "run": len, "lo": 1, "hi": 2, "summary": "s",
                "params": ("klass", "n")}),
]


@pytest.mark.parametrize("record, values", RECORDS, ids=[r.__name__ for r, _ in RECORDS])
def test_a_record_keeps_its_fields_repr_and_immutability(record, values):
    assert record._fields == tuple(values)
    made = record(**values)
    assert made == record(*values.values())
    assert [getattr(made, f) for f in values] == list(values.values())
    fields = ", ".join(f"{f}={v!r}" for f, v in values.items())
    assert repr(made) == f"{record.__name__}({fields})"
    first = next(iter(values))
    with pytest.raises(AttributeError):
        setattr(made, first, values[first])
    with pytest.raises(AttributeError):
        made.extra = 1


def test_record_defaults():
    assert CheckReport("secant", {"n": 2}, "PASS").witness is None
    assert CheckDef("echo", len, 1, 2, "s").params == ("n",)


def test_import_eulab_loads_no_dataclasses_or_inspect():
    # every CLI call is a cold process, so its import graph is its start-up
    # cost; mmap is imported only where verify all forks
    heavy = ("dataclasses", "inspect", "ast", "dis", "random", "mmap")
    code = f"import sys, eulab; print(sorted(set({heavy!r}) & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={"PYTHONPATH": str(pathlib.Path(eulab.__file__).parents[1])},
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout.strip() == "[]"
