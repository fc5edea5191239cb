"""The value-type contract every class on ``errors.Value`` keeps.

Equality by class and fields, a hash by fields, immutability, keyword
construction and defaults, the ``Name(field=value, ...)`` repr, copying
and pickling; and a cold ``import fanobase.cli`` that loads neither
``dataclasses`` nor ``inspect``.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import fanobase
from fanobase import (
    BlowupStep,
    BranchReport,
    CaseVerdict,
    CheckResult,
    ClassificationCase,
    DivisorClass,
    DoubleCoverSpec,
    NormalBundle,
    PencilClass,
    PruneKind,
    Report,
    Scroll,
    SurfaceClass,
    Verdict,
    WeightedCI,
)
from fanobase.errors import Value

# one positional argument list per value type, in field order
SAMPLES = [
    (DivisorClass, (1, 2)),
    (Scroll, (5, 1, 0)),
    (SurfaceClass, (4, 1, 2)),
    (PencilClass, (1, 2)),
    (NormalBundle, (1, 0)),
    (BlowupStep, (8, 2, 1)),
    (WeightedCI, ((1, 1, 1, 2, 3), (6,))),
    (DoubleCoverSpec, (Scroll(5, 1, 0), DivisorClass(4, -4), DivisorClass(2, -2))),
    (BranchReport, (5, Scroll(5, 1, 0), DivisorClass(1, -5), 1, DivisorClass(3, -3), 1,
                    Verdict.PASSES_DU_VAL_NECESSARY)),
    (CaseVerdict, (PruneKind.EXCLUDED, "a reason")),
    (CheckResult, ("a", 1, 1, "a rule")),
    (ClassificationCase, ("i", 2, None, "Quadric", 2, 0, "a construction", ("an assumption",),
                          "a note")),
    (Report, ("0.1.0", (("i", "a check"),))),
]
IDS = [cls.__name__ for cls, _ in SAMPLES]


def test_every_value_type_is_covered():
    assert len(SAMPLES) == 13
    assert {cls for cls, _ in SAMPLES} == set(Value.__subclasses__())


@pytest.mark.parametrize("cls, args", SAMPLES, ids=IDS)
def test_equal_fields_give_equal_values_and_hashes(cls, args):
    a, b = cls(*args), cls(*args)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_different_fields_give_different_values():
    assert DivisorClass(1, 2) != DivisorClass(2, 1)
    assert Scroll(5, 1, 0) != Scroll(5, 1, 1)
    assert CheckResult("a", 1, 1) != CheckResult("a", 1, 1, "a rule")
    assert WeightedCI((1, 1)) != WeightedCI((1, 1, 2), (4,))


def test_equal_fields_across_types_compare_unequal():
    assert DivisorClass(1, 2) != PencilClass(1, 2)
    assert not DivisorClass(1, 2) == PencilClass(1, 2)
    assert NormalBundle(1, 0) != DivisorClass(1, 0)
    assert DivisorClass(1, 2) != (1, 2)
    values = [cls(*args) for cls, args in SAMPLES]
    for i, a in enumerate(values):
        for b in values[i + 1:]:
            assert a != b


@pytest.mark.parametrize("cls, args", SAMPLES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, args):
    value = cls(*args)
    for name in cls.__slots__ + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert cls(*args) == value


@pytest.mark.parametrize("cls, args", [s for s in SAMPLES if s[0] is not Scroll],
                         ids=[i for i in IDS if i != "Scroll"])
def test_keyword_construction(cls, args):
    # Scroll takes its twists positionally or as one iterable, never by keyword
    assert cls(**dict(zip(cls.__slots__, args))) == cls(*args)


def test_defaults():
    assert CaseVerdict(PruneKind.CONE).reason == ""
    assert CheckResult("a", 1, 1).rule == ""
    assert WeightedCI((1, 1)).rel_degrees == ()
    case = ClassificationCase("i", 2, None, "Quadric", 2, 0, "a construction")
    assert case.assumes == () and case.notes == ""


def test_repr_keeps_the_dataclass_shape():
    assert repr(CheckResult("a", 1, 1)) == "CheckResult(name='a', expected=1, got=1, rule='')"
    assert repr(Scroll(5, 1, 0)) == "F(5,1,0)"
    assert repr(WeightedCI((1, 2), ())) == "WeightedCI(weights=(1, 2), rel_degrees=())"
    assert eval(repr(DivisorClass(1, -2))) == DivisorClass(1, -2)


@pytest.mark.parametrize("cls, args", SAMPLES, ids=IDS)
def test_copy_deepcopy_and_pickle_round_trip(cls, args):
    value = cls(*args)
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls and twin == value


def test_cli_import_loads_no_dataclasses():
    env = dict(os.environ, PYTHONPATH=str(Path(fanobase.__file__).resolve().parent.parent))
    code = "import sys, fanobase.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out == "[]\n"
