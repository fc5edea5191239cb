"""The fast store of the value types and the guard that keeps it.

Every class on ``errors.Value`` stores its fields through ``_set``, one
slot-descriptor setter per entry of ``__slots__``; the int-field types
test ``type(x) is int`` inline and fall back to ``require_integers``
only when that test fails, so an int subclass is still accepted and
stored as given.  No module under ``src/fanobase`` calls
``object.__setattr__``, the slow store the setters replaced.
"""

import ast
from enum import IntEnum
from pathlib import Path

import pytest

import fanobase
from fanobase import BlowupStep, DivisorClass, NormalBundle, PencilClass, Scroll, SurfaceClass
from fanobase.errors import Value

# import every module, so every value type is a subclass of Value below
for _name in ("blowup", "classify", "cover", "hirzebruch", "k3pencil", "report", "scroll", "wps"):
    getattr(fanobase, _name)


class Small(IntEnum):
    ZERO = 0
    ONE = 1
    TWO = 2
    THREE = 3


def test_every_value_type_binds_one_setter_per_slot():
    classes = Value.__subclasses__()
    assert len(classes) == 13
    for cls in classes:
        assert len(cls._set) == len(cls.__slots__) > 0, cls
        # each setter stores its own slot
        for setter, name in zip(cls._set, cls.__slots__):
            assert setter.__self__ is getattr(cls, name), (cls, name)


@pytest.mark.parametrize(
    "cls, args",
    [
        (DivisorClass, (Small.ONE, Small.TWO)),
        (SurfaceClass, (Small.TWO, Small.ONE, Small.THREE)),
        (PencilClass, (Small.ONE, Small.ZERO)),
        (NormalBundle, (Small.THREE, Small.ONE)),
        (BlowupStep, (Small.THREE, Small.TWO, Small.ONE)),
    ],
    ids=["DivisorClass", "SurfaceClass", "PencilClass", "NormalBundle", "BlowupStep"],
)
def test_int_subclass_fields_are_stored_unchanged(cls, args):
    value = cls(*args)
    for name, arg in zip(cls.__slots__, args):
        assert getattr(value, name) is arg
    assert value == cls(*map(int, args))


def test_int_subclass_twists_are_stored_unchanged():
    s = Scroll(Small.ONE, Small.THREE, 0)
    assert s.twists == (3, 1, 0)
    assert s.twists[0] is Small.THREE and s.twists[1] is Small.ONE
    assert Scroll([Small.TWO, Small.ZERO]).twists[0] is Small.TWO


def _stores_with_object_setattr(source: str) -> list:
    """Line numbers of the calls ``object.__setattr__(...)`` in one module's source."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__setattr__"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "object"
    ]


def test_no_module_stores_fields_with_object_setattr():
    # the scan finds a store, and not the name in prose
    probe = 'class A:\n    """Not ``object.__setattr__``."""\n    def f(self):\n        object.__setattr__(self, "h", 1)\n'
    assert _stores_with_object_setattr(probe) == [4]
    sources = sorted(Path(fanobase.__file__).resolve().parent.glob("*.py"))
    assert len(sources) == 11
    found = {path.name: lines for path in sources
             if (lines := _stores_with_object_setattr(path.read_text()))}
    assert found == {}
