"""The type contract of the public API, as one property.

Every public function and value type has one valid call in ``CALLS``.
Each of its parameters in turn gets ``None``, a bool, a float, a tuple,
a string, an ``object()`` and one valid instance of each value type,
the other arguments as in the valid call, and every such call must raise
``FanobaseError``: a wrong type never reaches a stray ``TypeError`` or
``AttributeError``, and is never stored.  A probe that has the
parameter's own declared type (its annotation, or its entry in
``DECLARED`` where the signature has none) is skipped, as a tuple is for
``ClassificationCase.assumes`` and every probe is for a field declared
``object``; a bool is never skipped as an int.  A public name that is no
error, enum or constant and has no row fails the test, so new API is
covered.  ``CALLS`` is also the table of valid constructions that
``test_values.py`` reads.
"""

from enum import Enum
from inspect import Parameter, signature

import pytest

import fanobase
from fanobase import (
    BlowupStep,
    CheckResult,
    ClassificationCase,
    DivisorClass,
    NormalBundle,
    PencilClass,
    PruneKind,
    Report,
    Scroll,
    SurfaceClass,
    WeightedCI,
    branch_for_taut_anticanonical,
    cone_case,
)
from fanobase.errors import FanobaseError

_F510 = Scroll(5, 1, 0)
_SPEC = branch_for_taut_anticanonical(Scroll(5, 1, 0))
_SIGMA4 = SurfaceClass(4, 1, 2)

# one valid positional call per public function and value type
CALLS = {
    "BlowupStep": (8, 2, 1),
    "BranchReport": (5, _SPEC, DivisorClass(1, -5), 1, 1),
    "CaseVerdict": (PruneKind.EXCLUDED, "a reason"),
    "CheckResult": ("a check", 1, 1, "a rule"),
    "ClassificationCase": ("i", 2, None, "Quadric", 2, 0, "a construction", ("an assumption",),
                           "a note"),
    "DivisorClass": (1, 2),
    "DoubleCoverSpec": (_F510, DivisorClass(4, -4)),
    "NormalBundle": (1, 0),
    "PencilClass": (1, 2),
    "Report": ("0.1.0", (("i", CheckResult("a check", 1, 1)),)),
    "Scroll": (5, 1, 0),
    "SurfaceClass": (4, 1, 2),
    "WeightedCI": ((1, 1, 1, 2, 3), (6,)),
    "analyze_cover": (5,),
    "anticanonical_degree": (WeightedCI((1, 1, 1, 2, 3), (6,)),),
    "base_locus_dimension": (5,),
    "blowup_degree": (BlowupStep(8, 2, 1),),
    "blowup_section_reduce": (PencilClass(1, 5),),
    "branch_for_taut_anticanonical": (_F510,),
    "build_report": ("0.1.0", 4),
    "canonical_class": (_F510,),
    "canonical_surface_class": (4,),
    "case_checks": (cone_case(5),),
    "cone_case": (5,),
    "cone_case_normal_bundle": (5,),
    "cover_degree": (_SPEC,),
    "cover_pullback": (_SIGMA4,),
    "decomposition_fiber_coeff": (3,),
    "dot": (PencilClass(1, 2), PencilClass(1, 3)),
    "enumerate_cases": (),
    "exceptional_surface_index": (NormalBundle(1, 0),),
    "fano_degree": (5,),
    "fiber_multiplicity_at": (_F510, DivisorClass(4, -8), 3),
    "fixed_component_multiplicity": (_F510, DivisorClass(1, -5), DivisorClass(4, -8)),
    "forced_minimal_decomposition": (_SIGMA4,),
    "from_scroll": (Scroll(4, 0), DivisorClass(1, 2)),
    "genus": (_SIGMA4,),
    "h0": (_F510, DivisorClass(4, -8)),
    "hilbert_coeffs": (WeightedCI((1, 1, 1, 2, 3), (6,)), 12),
    "infer_ring": ([1, 3, 7, 14],),
    "intersect": (_F510, [DivisorClass(1, 0)] * 3),
    "intersect2": (_SIGMA4, SurfaceClass(4, 0, 1)),
    "minimal_degree_data": (_F510,),
    "minimal_section": (4,),
    "monomial_support": (_F510, DivisorClass(2, -3)),
    "product_degree": (1,),
    "prune": (1, -2),
    "restrict_to_subscroll": (_F510, [1, 2], DivisorClass(1, 0)),
    "rr_chi": (2, 1),
    "saint_donat_form": (PencilClass(1, 5),),
    "square": (PencilClass(1, 5),),
    "support_size": (_F510, DivisorClass(2, -3)),
    "to_scroll": (_SIGMA4,),
    "verify_case": (cone_case(5),),
}

# the plain wrong types, then one valid instance of each value type
PROBES = (None, True, 1.5, (1, 2), "abc", object()) + tuple(
    getattr(fanobase, name)(*args) for name, args in CALLS.items() if isinstance(getattr(fanobase, name), type))

# the declared type of a parameter whose signature has no annotation, where a probe has it
DECLARED = {
    ("infer_ring", "seq"): tuple,
    ("restrict_to_subscroll", "keep"): tuple,
}


def _exempt(value) -> bool:
    """An error, an enum or a constant: a public name with no call of its own to probe."""
    if isinstance(value, type):
        return issubclass(value, (BaseException, Enum))
    return not callable(value)


def _declared(name: str, params: list, position: int):
    """The type the parameter at ``position`` accepts, None where nothing declares it."""
    param = params[min(position, len(params) - 1)]  # a *twists takes every position from its own on
    if param.annotation is not Parameter.empty:
        return param.annotation
    return DECLARED.get((name, param.name))


def _has_type(probe, declared) -> bool:
    """Whether ``probe`` has the declared type; a bool never counts as an int."""
    if type(probe) is bool and int in getattr(declared, "__args__", (declared,)):
        return False
    return isinstance(probe, declared)


def _accepted(name: str, target, args: tuple) -> list:
    """(argument position, probe) per probed call of ``target`` that returned instead of raising."""
    target(*args)  # the valid call is valid
    params = list(signature(target).parameters.values())
    accepted = []
    for position in range(len(args)):
        declared = _declared(name, params, position)
        for probe in PROBES:
            if declared is not None and _has_type(probe, declared):
                continue
            call = args[:position] + (probe,) + args[position + 1:]
            try:
                target(*call)
            except FanobaseError:
                continue
            accepted.append((position, probe))
    return accepted


def test_every_public_function_and_value_type_has_a_row():
    probed = {name for name in fanobase.__all__ if not _exempt(getattr(fanobase, name))}
    assert probed == set(CALLS)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_every_wrong_type_is_refused(name):
    assert _accepted(name, getattr(fanobase, name), CALLS[name]) == []


def test_the_probes_find_what_is_not_refused():
    # a stand-in that stores its int field unchecked passes every probe; one
    # that declares the field as a str skips the string probe
    class Unchecked:
        def __init__(self, x: int, y):
            self.x = x

    assert _accepted("Unchecked", Unchecked, (1, 2)) == [(p, probe) for p in (0, 1) for probe in PROBES]

    def declared_str(x: str):
        if type(x) is not str:
            raise FanobaseError(f"not a string: {x!r}")

    assert _accepted("declared_str", declared_str, ("a",)) == []

    # one that takes any int instance lets a bool through, and the bool probe finds it
    def lax_int(x: int):
        if not isinstance(x, int):
            raise FanobaseError(f"not an integer: {x!r}")

    assert _accepted("lax_int", lax_int, (1,)) == [(0, True)]


def test_report_checks_are_a_tuple():
    # a string once passed, and to_json then failed to unpack each character as a pair
    with pytest.raises(FanobaseError):
        Report("0.1.0", "abc")


@pytest.mark.parametrize("checks", [("abc",), (("i", 5),)], ids=["not-a-pair", "not-a-check"])
def test_report_checks_are_label_and_check_pairs(checks):
    # each once passed, and to_json then failed to unpack the string or to read the int's name
    with pytest.raises(FanobaseError):
        Report("0.1.0", checks).to_json()


def test_case_normal_bundle_is_a_normal_bundle():
    # a pair once passed, and case_checks then failed to read nb.a from the tuple
    with pytest.raises(FanobaseError):
        ClassificationCase("x", 5, (3, -2), "w", 8, 1, "c")
