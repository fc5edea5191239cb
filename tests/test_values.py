"""The value-type contract every class on ``errors.Value`` keeps.

Equality by class and fields, a hash by fields, immutability, keyword
construction and defaults, the ``Name(field=value, ...)`` repr, copying
and pickling, also on the reports the pipeline builds; the lazy package
namespace, whose public names are those of the eager one and resolve to
their home modules' objects; and cold imports: ``fanobase.cli`` loads
neither ``dataclasses`` nor ``inspect`` nor any submodule but
``fanobase.errors``, ``fanobase.scroll`` or ``fanobase.wps`` loads no
other submodule, ``fanobase.classify`` loads no ``fractions``, the
``wps`` and ``blowup`` commands load no ``fanobase.scroll``, and no CLI
text output loads the JSON layer (nor the report, except
``verify-paper``, which builds one).
"""

import copy
import os
import pickle
import subprocess
import sys
from importlib import import_module
from inspect import isfunction
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
    analyze_cover,
    build_report,
    case_checks,
    enumerate_cases,
)
from fanobase.errors import FanobaseError, Value
from test_type_contract import CALLS

# one positional argument list per value type, in field order: the valid calls of the type contract
SAMPLES = [(cls, CALLS[cls.__name__]) for cls in (
    DivisorClass, Scroll, SurfaceClass, PencilClass, NormalBundle, BlowupStep, WeightedCI, DoubleCoverSpec,
    BranchReport, CaseVerdict, CheckResult, ClassificationCase, Report)]
IDS = [cls.__name__ for cls, _ in SAMPLES]


@pytest.mark.parametrize("c, doubled, times_minus_three", [
    (DivisorClass(1, 2), DivisorClass(2, 4), DivisorClass(-3, -6)),
    (SurfaceClass(4, 1, 2), SurfaceClass(4, 2, 4), SurfaceClass(4, -3, -6)),
], ids=["DivisorClass", "SurfaceClass"])
def test_scalar_multiplication(c, doubled, times_minus_three):
    assert 2 * c == c * 2 == doubled
    assert c * -3 == -3 * c == times_minus_three
    # a bool is no integer scalar, on either side, and neither is a float
    for k in (1.5, True, False):
        with pytest.raises(TypeError):
            c * k
        with pytest.raises(TypeError):
            k * c


@pytest.mark.parametrize("c", [DivisorClass(1, 2), SurfaceClass(4, 1, 2), PencilClass(1, 2)],
                         ids=["DivisorClass", "SurfaceClass", "PencilClass"])
def test_sums_with_another_class_are_type_errors(c):
    # the operators return NotImplemented, so Python raises TypeError, on either side
    for other in (None, 1, (1, 2), DivisorClass(1, 0), SurfaceClass(4, 1, 0), PencilClass(1, 0)):
        if type(other) is type(c):
            continue
        for operation in (lambda: c + other, lambda: c - other, lambda: other + c, lambda: other - c):
            with pytest.raises(TypeError):
                operation()


def test_fields_of_the_wrong_type_are_refused():
    # the type-contract property probes one field at a time; here both are wrong at once
    with pytest.raises(FanobaseError):
        DoubleCoverSpec(None, None)


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


def test_pipeline_outputs_are_hashable_values():
    report = build_report(fanobase.__version__)
    twin = build_report(fanobase.__version__)
    assert report is not twin and report == twin and hash(report) == hash(twin)
    assert all(type(check) is CheckResult for _, check in report.checks)
    for case in enumerate_cases():
        for check in case_checks(case):
            hash(check)
    for m in range(3, 15):
        result = analyze_cover(m)
        assert hash(result) == hash(analyze_cover(m))
        assert result.base == result.spec.base == Scroll(m, m - 4, 0)


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


# the package's public names: those the eager namespace of version 0.1.0 exported,
# and BandTooWide, ModelTooLarge and support_size, added since
PUBLIC_NAMES = {
    "ArityMismatch", "BandTooWide", "BlowupStep", "BranchReport", "CaseVerdict", "CheckFailure",
    "CheckResult", "ClassificationCase", "DivisorClass", "DoubleCoverSpec", "EmptySystem",
    "FanobaseError", "INFINITE", "Inconsistent", "IndexOutOfRange", "InvalidDegree", "InvalidM",
    "ModelTooLarge", "NegativeDegree", "NegativeTwist", "NoSection", "NonIntegralChi",
    "NormalBundle", "NotEffectiveShape", "NotElephantShape", "NotRigid", "OutOfRange",
    "PencilClass", "PruneKind", "RankMismatch", "Report", "Scroll", "SurfaceClass",
    "SurfaceMismatch", "TooFewSummands", "Verdict", "WeightedCI", "WrongDimension", "WrongRank",
    "WrongSurface", "analyze_cover", "anticanonical_degree", "base_locus_dimension",
    "blowup_degree", "blowup_section_reduce", "branch_for_taut_anticanonical", "build_report",
    "canonical_class", "canonical_surface_class", "case_checks", "cone_case",
    "cone_case_normal_bundle", "cover_degree", "cover_pullback", "decomposition_fiber_coeff",
    "dot", "enumerate_cases", "exceptional_surface_index", "fano_degree", "fiber_multiplicity_at",
    "fixed_component_multiplicity", "forced_minimal_decomposition", "from_scroll", "genus", "h0",
    "hilbert_coeffs", "infer_ring", "intersect", "intersect2", "minimal_degree_data",
    "minimal_section", "monomial_support", "product_degree", "prune", "restrict_to_subscroll",
    "rr_chi", "saint_donat_form", "square", "support_size", "to_scroll", "verify_case",
}
SUBMODULES = ("blowup", "classify", "cli", "cover", "errors", "hirzebruch", "k3pencil", "report",
              "scroll", "wps")


def test_public_names_resolve_to_their_home_objects():
    assert set(fanobase.__all__) == PUBLIC_NAMES
    assert set(dir(fanobase)) >= PUBLIC_NAMES | set(SUBMODULES)
    for name in PUBLIC_NAMES:
        value = getattr(fanobase, name)
        home = import_module(value.__module__)
        assert home.__name__.startswith("fanobase.") and getattr(home, name) is value
    star = {}
    exec("from fanobase import *", star)
    assert {name for name in star if not name.startswith("_")} == PUBLIC_NAMES
    assert all(star[name] is getattr(fanobase, name) for name in PUBLIC_NAMES)
    with pytest.raises(AttributeError):
        fanobase.no_such_name
    with pytest.raises(ImportError):
        exec("from fanobase import no_such_name", {})


def test_every_error_and_scroll_function_is_public():
    # README names the errors each command raises, and the scroll kernels are the API
    errors = {name for name, value in vars(fanobase.errors).items()
              if isinstance(value, type) and issubclass(value, fanobase.errors.FanobaseError)}
    kernels = {name for name, value in vars(fanobase.scroll).items()
               if isfunction(value) and value.__module__ == "fanobase.scroll" and not name.startswith("_")}
    assert {"BandTooWide", "ModelTooLarge", "NotRigid"} <= errors
    assert {"h0", "support_size", "monomial_support"} <= kernels
    assert errors | kernels <= set(fanobase.__all__)


def test_public_names_are_read_through_to_the_home_module(monkeypatch):
    # the package stores no copy of a name, so a rebinding in the home
    # module (a patch, a tracer's wrapper) and its undo both show here
    original = fanobase.h0
    assert original is fanobase.scroll.h0

    def patched(s, c):
        return original(s, c)

    monkeypatch.setattr(fanobase.scroll, "h0", patched)
    assert fanobase.h0 is patched
    monkeypatch.undo()
    assert fanobase.h0 is original is fanobase.scroll.h0
    assert "h0" not in vars(fanobase)


def _cold_import(statement: str) -> set:
    """Module names loaded by a fresh interpreter that runs ``statement``.

    The names come on one marked last line, so whatever ``statement``
    prints itself (a CLI subcommand's output) is not read as a module.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(fanobase.__file__).resolve().parent.parent))
    marker = "loaded modules:"
    code = f"import sys; {statement}; print({marker!r}, *sorted(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    last = out.splitlines()[-1]
    assert last.startswith(marker), out
    return set(last[len(marker):].split())


def test_cli_import_loads_no_dataclasses():
    # the CLI module loads no kernel: each command imports its own modules
    loaded = _cold_import("import fanobase.cli")
    assert not {"dataclasses", "inspect"} & loaded
    assert {m for m in loaded if m.startswith("fanobase")} == {"fanobase", "fanobase.errors", "fanobase.cli"}
    # a bare import resolves every submodule on first use
    loaded = _cold_import("import fanobase; fanobase.scroll.h0; fanobase.cli.main; "
                          + "; ".join(f"fanobase.{name}" for name in SUBMODULES))
    assert {f"fanobase.{name}" for name in SUBMODULES} <= loaded
    # one kernel module costs that module's import and nothing more
    stdlib = {"json", "argparse", "fractions", "decimal"}
    for module in ("scroll", "wps"):
        loaded = _cold_import(f"import fanobase.{module}")
        assert {m for m in loaded if m.startswith("fanobase")} == {
            "fanobase", "fanobase.errors", f"fanobase.{module}"}
        assert not stdlib & loaded
    # the classifier loads fractions only inside the one suite that compares Fractions
    assert not {"fractions", "decimal"} & _cold_import("import fanobase.classify")
    # a CLI process loads only its subcommand's modules, and text loads no json
    heavy = {"fanobase.classify", "fanobase.cover", "fanobase.report", "json", "fractions", "decimal"}
    for argv, absent in (
        (["scroll", "h0", "--d", "5,1,0", "--class", "4,-8"], heavy),
        (["scroll", "support", "--d", "13,9,0", "--class", "4,-40"], heavy),
        (["scroll", "intersect", "--d", "5,1,0", "--classes", "1,0;1,0;1,0"], heavy),
        (["surface", "split", "--e", "4", "--class", "4,12"], heavy),
        (["k3", "chain", "--m", "5"], heavy),
        (["wps", "hilbert", "--weights", "1,1,1,2,3", "--degrees", "6", "--max", "6"],
         heavy | {"fanobase.scroll"}),
        (["wps", "infer", "--series", "1,3,7,14,25,41,63"], heavy | {"fanobase.scroll"}),
        (["blowup", "degree", "--ambient", "8", "--curve", "2", "--genus", "1"],
         heavy | {"fanobase.scroll"}),
        # the branch record and the table need neither the report nor the JSON layer
        (["cover", "analyze", "--m", "5"], {"fanobase.classify", "fanobase.report", "json"}),
        (["classify", "enumerate"], {"fanobase.report", "json", "fractions", "decimal"}),
        # the report is built, and rendered as text without json
        (["verify-paper"], {"json"}),
    ):
        loaded = _cold_import(f"from fanobase.cli import main; assert main({argv!r}) == 0")
        assert not absent & loaded, (argv, absent & loaded)


def test_json_output_loads_no_classify():
    # --json needs report.to_json, not the classification report.build_report builds
    argv = ["scroll", "h0", "--d", "5,1,0", "--class", "4,-8", "--json"]
    loaded = _cold_import(f"from fanobase.cli import main; assert main({argv!r}) == 0")
    assert {"fanobase.report", "json"} <= loaded
    assert not {"fanobase.classify", "fractions", "decimal"} & loaded
