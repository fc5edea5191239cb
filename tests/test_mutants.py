"""The mutant generator of ``tests/mutants.py``, checked without running the table.

A mutant's source is ``ast.unparse`` of the edited module tree, so the
table is only as good as the round trip of each target module through
``ast.unparse``, and as the names and test modules in ``TARGETS``.  All
three are checked here in a fraction of a second, instead of after a full
table run, and so is the outcome plugin each run loads, on stand-in reports.
Each run reads ``pyproject.toml`` from its copy, as Tier-1 does, so neither
loads a third-party pytest plugin, which would cost each start most of a
second.
"""

import ast
import copy
import json
import os
from pathlib import Path
from types import SimpleNamespace

import mutants
from test_source_rules import SOURCES

# module path in TARGETS -> its tree, as parsed once for every test
TREES = {path: SOURCES[Path(path).name][1] for path, _ in mutants.TARGETS.values()}


def test_target_modules_round_trip_through_unparse():
    for path, tree in TREES.items():
        assert ast.dump(ast.parse(ast.unparse(tree))) == ast.dump(tree), path


def test_every_target_is_a_function_with_sites():
    for name, (path, _) in mutants.TARGETS.items():
        fn = mutants._function(TREES[path], name)
        assert isinstance(fn, ast.FunctionDef) and mutants._sites(fn), name


def test_every_listed_test_module_exists():
    # pytest refuses a path that is not there before any test runs, mutated or
    # not, so every mutant of the target would read as surviving
    missing = [(name, module) for name, (_, modules) in mutants.TARGETS.items() for module in modules
               if not (mutants.ROOT / module).is_file()]
    assert missing == []


def _edits(old, new) -> list:
    """The nodes of ``new`` whose type or constant value differs from ``old``'s, node by node."""
    pairs = list(zip(ast.walk(old), ast.walk(new), strict=True))
    return [b for a, b in pairs if type(a) is not type(b) or isinstance(a, ast.Constant) and a.value != b.value]


def test_each_mutant_is_one_edit_of_its_module():
    for name in ("DoubleCoverSpec._validate", "DoubleCoverSpec.half", "WeightedCI._validate", "_constructor",
                 "_compiled"):
        original = TREES[mutants.TARGETS[name][0]]
        for line, label, text in mutants.mutants(name):
            edits = _edits(original, ast.parse(text))
            assert len(edits) == 1, (name, line, label)
            assert isinstance(edits[0], (ast.Constant, ast.cmpop, ast.operator)), (name, line, label)


def test_every_equivalent_entry_names_a_mutant():
    # a line or label gone stale, as when a docstring above the site shrinks, leaves
    # the entry unused and its mutant listed as a survivor; only the target's top-level
    # node is copied per edit, so the check stays cheap
    for name in {name for name, _, _ in mutants.EQUIVALENT}:
        top = name.split(".")[0]
        node = next(n for n in TREES[mutants.TARGETS[name][0]].body if getattr(n, "name", None) == top)
        sites = mutants._sites(mutants._function(ast.Module([node], []), name))
        labels = {mutants._edit(ast.Module([copy.deepcopy(node)], []), name, i) for i in range(len(sites))}
        for entry in mutants.EQUIVALENT:
            assert entry[0] != name or entry[1:] in labels, entry


def test_negative_constant_edits_parse_back_to_their_edited_tree():
    # ast.unparse writes Constant(-1) bare, so as the base of ** or of an
    # attribute its text would be a different mutant; only those sites are
    # built, each in a module of the one statement that holds the target
    negative = 0
    for name, (path, _) in mutants.TARGETS.items():
        tree = TREES[path]
        top = next(stmt for stmt in tree.body if getattr(stmt, "name", None) == name.split(".")[0])
        for index, (node, (kind, arg)) in enumerate(mutants._sites(mutants._function(tree, name))):
            if kind == "const" and node.value + arg < 0:
                mutant = ast.Module(body=[copy.deepcopy(top)], type_ignores=[])
                line, label = mutants._edit(mutant, name, index)
                assert ast.dump(ast.parse(ast.unparse(mutant))) == ast.dump(mutant), (name, line, label)
                negative += 1
    assert negative


def _plugin(baseline, record):
    """The outcome plugin's namespace, rendered for ``baseline`` and started on a stand-in session."""
    namespace = {}
    exec(mutants.PLUGIN.format(baseline=baseline, record=str(record)), namespace)
    session = SimpleNamespace(shouldstop=False)
    namespace["pytest_sessionstart"](session)
    return namespace, session


def _report(nodeid, when, failed=False):
    return SimpleNamespace(nodeid=nodeid, when=when, failed=failed)


def test_outcome_plugin_stops_at_the_first_differing_test(tmp_path):
    # t1 fails as in the baseline, t2 fails in setup only where the baseline passes it:
    # the session stops at t2's teardown, and t3 after it is never compared
    record = tmp_path / "record.json"
    plugin, session = _plugin(["m.py::t1"], record)
    for nodeid, failed_in in (("m.py::t1", "call"), ("m.py::t2", "setup"), ("m.py::t3", "call")):
        for when in ("setup", "call", "teardown"):
            plugin["pytest_runtest_logreport"](_report(nodeid, when, when == failed_in))
            if nodeid == "m.py::t2" and when != "teardown":
                assert not session.shouldstop
    assert "m.py::t2" in session.shouldstop
    plugin["pytest_sessionfinish"](session)
    assert json.loads(record.read_text()) == {"failing": ["m.py::t1", "m.py::t2", "m.py::t3"],
                                              "first_difference": "m.py::t2"}


def test_outcome_plugin_records_without_a_baseline(tmp_path):
    # the unmutated run only records, a failed collection counting as its node's
    record = tmp_path / "record.json"
    plugin, session = _plugin(None, record)
    plugin["pytest_collectreport"](_report("m.py", "collect", True))
    plugin["pytest_runtest_logreport"](_report("n.py::t", "call", True))
    plugin["pytest_runtest_logreport"](_report("n.py::t", "teardown"))
    plugin["pytest_sessionfinish"](session)
    assert not session.shouldstop
    assert json.loads(record.read_text()) == {"failing": ["m.py", "n.py::t"], "first_difference": None}


def test_an_abnormal_end_is_named_in_the_row_and_not_counted_as_a_test():
    # a pytest internal error that reports no test reads as its exit, not as "1 tests differ"
    assert mutants._difference(set(), "pytest exit 3", set()) == "pytest exit 3, no test outcome differs"
    base = {"a.py::t"}
    assert mutants._difference(set(), "pytest exit 3", base) == "pytest exit 3, 1 tests differ"
    assert mutants._difference({"a.py::t", "b.py::u", "c.py::v"}, None, base) == "2 tests differ"
    assert (mutants._difference(None, "no readable record, pytest exit -9", base)
            == "no readable record, pytest exit -9")
    assert mutants._difference(None, "first at b.py::u", base) == "first at b.py::u"
    # a whole run that fails as the unmutated one does, with pytest exit 1, does not kill
    assert mutants._difference({"a.py::t"}, None, base) is None


def test_a_baseline_that_cannot_be_compared_stops_the_table(monkeypatch, capsys):
    # a copy whose conftest cannot load leaves no record, and a failed collection
    # ends in pytest exit 2; every mutant would read the same and survive
    for base in ((None, "timeout"), (None, "no readable record, pytest exit 4"),
                 ({"tests/test_cover.py"}, "pytest exit 2")):
        monkeypatch.setattr(mutants, "run_tests", lambda modules, *rest, base=base: (*base, 1.0))
        assert mutants.main(["DoubleCoverSpec.half"]) == 2, base
        assert f"cannot be compared with ({base[1]})" in capsys.readouterr().err
    # a baseline red only in a test, as criterion 7 is, runs the table
    monkeypatch.setattr(mutants, "run_tests", lambda modules, *rest: ({"tests/test_acceptance.py::t"}, None, 1.0))
    monkeypatch.setattr(mutants, "mutants", lambda name: [])
    assert mutants.main(["DoubleCoverSpec.half"]) == 0


def test_the_copy_is_the_tree_less_dot_entries_and_caches():
    # a run reads more than src/ and tests/: conftest.py imports from bench/, and
    # test_cli.py runs README.md's command lines and the demos
    names = {*os.listdir(mutants.ROOT), ".git", ".pytest_cache", "__pycache__"}
    kept = names - mutants.IGNORED(str(mutants.ROOT), names)
    assert not {".git", ".pytest_cache", "__pycache__"} & kept
    assert {"src", "tests", "bench", "demos", "README.md", "pyproject.toml"} <= kept


def test_pytest_loads_no_third_party_plugin(pytestconfig):
    # pyproject.toml's --disable-plugin-autoload: an installed plugin (hypothesis,
    # pytest-benchmark) would load in every run through its entry point
    assert pytestconfig.pluginmanager.list_plugin_distinfo() == []
