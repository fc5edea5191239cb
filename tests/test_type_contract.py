"""The type contract of the public API, as one property.

Every public function and value type has one valid call in ``CALLS``,
and ``Scroll`` a second one in its one-iterable form.  Each parameter
in turn gets ``None``, a bool, a float, a tuple, a string, a list, an
``object()`` and one valid instance of each value type, the other
arguments as in the valid call; each entry of every list or tuple
argument in turn gets the same probes, the other entries as given.
Every such call must raise ``FanobaseError``: a wrong type never reaches
a stray ``TypeError`` or ``AttributeError``, and is never stored.  A
probe of the declared type is skipped: a parameter's is its entry in
``DECLARED`` (``Scroll``'s one-iterable form, which no annotation states)
or else its annotation, where ``tuple[T, ...]`` reads as a list or a
tuple, so a tuple and a list are skipped for ``ClassificationCase.assumes``
and every probe for a field declared ``object``; an entry's is the type
of the entry it replaces.  A bool is never skipped as an int.  A public
name that is no error, enum or constant and has no row fails the test,
so new API is covered.  ``CALLS`` is also the table of valid
constructions that ``test_values.py`` reads.  An ``ast`` scan keeps the
refusal of a whole parameter declared: every public function that
annotates a parameter is ``@checked``, and none tests such a parameter's
type, or the entries of one declared ``tuple[T, ...]``, by hand.
"""

import ast
from enum import Enum
from inspect import Parameter, signature
from pathlib import Path

import pytest

import fanobase
from fanobase import (
    BlowupStep,
    CheckResult,
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

# a second valid call of a function that also takes another form: row name -> (function, arguments)
FORMS = {"Scroll-iterable": ("Scroll", ([5, 1, 0],))}

# the plain wrong types, then one valid instance of each value type
PROBES = (None, True, 1.5, (1, 2), "abc", [1, 2], object()) + tuple(
    getattr(fanobase, name)(*args) for name, args in CALLS.items() if isinstance(getattr(fanobase, name), type))

# the parameters whose type no annotation states, by row name
DECLARED = {("Scroll-iterable", "twists"): tuple | list}


def _exempt(value) -> bool:
    """An error, an enum or a constant: a public name with no call of its own to probe."""
    if isinstance(value, type):
        return issubclass(value, (BaseException, Enum))
    return not callable(value)


def _declared(name: str, params: list, position: int):
    """The type the parameter at ``position`` accepts, None where nothing declares it."""
    param = params[min(position, len(params) - 1)]  # a *twists takes every position from its own on
    if (name, param.name) in DECLARED or param.annotation is Parameter.empty:
        return DECLARED.get((name, param.name))
    if getattr(param.annotation, "__origin__", None) is tuple:  # tuple[T, ...]: a list or a tuple
        return tuple | list
    return param.annotation


def _has_type(probe, declared) -> bool:
    """Whether ``probe`` has the declared type; a bool never counts as an int."""
    if type(probe) is bool and int in getattr(declared, "__args__", (declared,)):
        return False
    return isinstance(probe, declared)


def _replaced(items, index: int, value):
    """The list or tuple ``items`` with its entry at ``index`` replaced by ``value``."""
    return type(items)(value if i == index else item for i, item in enumerate(items))


def _probed(name: str, target, args: tuple):
    """(argument position, entry index or None, probe, arguments) per probed call of ``target``."""
    params = list(signature(target).parameters.values())
    for position, arg in enumerate(args):
        declared = _declared(name, params, position)
        for probe in PROBES:
            if declared is None or not _has_type(probe, declared):
                yield position, None, probe, _replaced(args, position, probe)
        if type(arg) in (list, tuple):
            for index, entry in enumerate(arg):
                for probe in PROBES:
                    if not _has_type(probe, type(entry)):
                        yield position, index, probe, _replaced(args, position, _replaced(arg, index, probe))


def _accepted(name: str, target, args: tuple) -> list:
    """(argument position, entry index or None, probe) per probed call of ``target`` that returned
    instead of raising."""
    target(*args)  # the valid call is valid
    accepted = []
    for position, index, probe, call in _probed(name, target, args):
        try:
            target(*call)
        except FanobaseError:
            continue
        accepted.append((position, index, probe))
    return accepted


def test_every_public_function_and_value_type_has_a_row():
    probed = {name for name in fanobase.__all__ if not _exempt(getattr(fanobase, name))}
    assert probed == set(CALLS)


@pytest.mark.parametrize("name", sorted(CALLS) + sorted(FORMS))
def test_every_wrong_type_is_refused(name):
    function, args = FORMS.get(name, (name, CALLS.get(name)))
    assert _accepted(name, getattr(fanobase, function), args) == []


def test_the_probes_find_what_is_not_refused():
    # a stand-in that stores its int field unchecked passes every probe; one
    # that declares the field as a str skips the string probe
    class Unchecked:
        def __init__(self, x: int, y):
            self.x = x

    assert _accepted("Unchecked", Unchecked, (1, 2)) == [(p, None, probe) for p in (0, 1) for probe in PROBES]

    def declared_str(x: str):
        if type(x) is not str:
            raise FanobaseError(f"not a string: {x!r}")

    assert _accepted("declared_str", declared_str, ("a",)) == []

    # one that checks its list but stores the entries unchecked passes every entry probe,
    # bar the probe of the replaced entry's own type
    class UncheckedEntries:
        def __init__(self, xs: list):
            if type(xs) is not list:
                raise FanobaseError(f"not a list: {xs!r}")
            self.xs = xs

    assert _accepted("UncheckedEntries", UncheckedEntries, ([1, "a"],)) == (
        [(0, 0, probe) for probe in PROBES] + [(0, 1, probe) for probe in PROBES if type(probe) is not str])

    # one that takes any int instance, as a parameter or as an entry, lets a bool
    # through, and the bool probe finds it at both
    def lax_int(x: int, xs: tuple):
        if not isinstance(x, int) or type(xs) is not tuple or not all(isinstance(e, int) for e in xs):
            raise FanobaseError(f"not integers: {x!r}, {xs!r}")

    assert _accepted("lax_int", lax_int, (1, (2,))) == [(0, None, True), (1, 0, True)]


@pytest.mark.parametrize("checks", [(("i", 5),)], ids=["not-a-check"])
def test_report_checks_are_label_and_check_pairs(checks):
    # a pair's own entries lie below the entry probes; this once passed, and
    # to_json then failed to read the int's name
    with pytest.raises(FanobaseError):
        Report("0.1.0", checks).to_json()


def _tested(node, bare=()) -> list:
    """The names whose type ``node`` tests: ``p`` of ``type(p)`` in a comparison or of
    ``isinstance(p, ...)``, each name in a tuple given to ``require_integers``, and a name of
    ``bare`` given to it bare."""
    names, called = [], getattr(getattr(node, "func", None), "id", None)
    if isinstance(node, ast.Compare) and isinstance(node.left, ast.Call):
        names = node.left.args if getattr(node.left.func, "id", None) == "type" else []
    elif called == "isinstance":
        names = node.args[:1]
    elif called == "require_integers":
        names = [elt for arg in node.args
                 for elt in (arg.elts if isinstance(arg, ast.Tuple) else [arg] if getattr(arg, "id", None) in bare else [])]
    return [name.id for name in names if isinstance(name, ast.Name)]


def _undeclared(source: str, public) -> list:
    """(line, function, parameter) per public function of ``source`` that tests an annotated
    parameter's type by hand, and (line, function, None) per one that annotates a parameter
    but is not ``@checked``.  A hand test is ``type(p)`` in a comparison, ``isinstance(p, ...)``
    or ``p`` in a tuple given to ``require_integers``.  A test of an entry is one only for a
    parameter ``p`` declared ``tuple[T, ...]``, whose declaration tests its entries: ``p``
    given bare to ``require_integers``, or a loop ``for x in p`` that tests the type of ``x``."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.FunctionDef) or node.name not in public:
            continue
        annotated = {arg.arg for arg in node.args.args if arg.annotation is not None}
        sequences = {arg.arg for arg in node.args.args
                     if isinstance(arg.annotation, ast.Subscript) and getattr(arg.annotation.value, "id", None) == "tuple"}
        if not any(isinstance(d, ast.Name) and d.id == "checked" for d in node.decorator_list):
            found += [(node.lineno, node.name, None)] if annotated else []
            continue
        for inner in ast.walk(node):
            tested = _tested(inner, sequences)
            if isinstance(inner, ast.For) and getattr(inner.iter, "id", None) in sequences:
                entry = getattr(inner.target, "id", None)
                tested = [inner.iter.id] if any(entry in _tested(sub) for sub in ast.walk(inner)) else []
            found += [(inner.lineno, node.name, name) for name in tested if name in annotated]
    return found


def test_the_scan_finds_a_hand_written_refusal():
    # a decorated function that still tests a parameter, in each of the three forms, and an
    # undecorated annotated one are found; a test of an entry or of an unannotated parameter
    # is not, but the entries of a parameter declared tuple[T, ...] are the declaration's to
    # test, so either form of an entry test of one is found
    probe = (
        "@checked\ndef f(s: Scroll, m: int, xs: tuple, keep, ys: tuple[int, ...]):\n"
        "    if type(s) is not Scroll or isinstance(m, bool):\n        require_integers('m', (m,))\n"
        "    require_integers('xs', xs)\n    for x in xs:\n        if type(x) is not int: pass\n"
        "    if type(keep) is not list: pass\n"
        "    require_integers('ys', ys)\n    for y in ys:\n        if isinstance(y, bool): pass\n"
        "    for y in ys:\n        print(y)\n\n"
        "def g(m: int):\n    return m\n\ndef h(m):\n    return m\n\ndef _k(m: int):\n    return m\n"
    )
    assert sorted(_undeclared(probe, {"f", "g", "h"}), key=lambda hit: hit[0]) == [
        (3, "f", "s"), (3, "f", "m"), (4, "f", "m"), (9, "f", "ys"), (10, "f", "ys"), (15, "g", None)]


def test_public_functions_declare_their_refusals():
    # every public function with an annotated parameter refuses it through @checked, and
    # none repeats that refusal by hand
    modules = ("blowup", "classify", "cover", "hirzebruch", "k3pencil", "report", "scroll", "wps")
    src = Path(fanobase.__file__).resolve().parent
    found = {name: hits for name in modules
             if (hits := _undeclared((src / f"{name}.py").read_text(), set(fanobase.__all__)))}
    assert found == {}
