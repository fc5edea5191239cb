"""The mutant generator of ``tests/mutants.py``, checked without running the table.

A mutant's source is ``ast.unparse`` of the edited module tree, so the
table is only as good as the round trip of each target module through
``ast.unparse``, and as the names in ``TARGETS``.  Both are checked here
in a fraction of a second, instead of after a full table run.
"""

import ast
import copy
from functools import cache

import mutants


@cache
def _trees():
    return {path: ast.parse((mutants.ROOT / path).read_text()) for path, _ in mutants.TARGETS.values()}


def test_target_modules_round_trip_through_unparse():
    for path, tree in _trees().items():
        assert ast.dump(ast.parse(ast.unparse(tree))) == ast.dump(tree), path


def test_every_target_is_a_function_with_sites():
    trees = _trees()
    for name, (path, _) in mutants.TARGETS.items():
        fn = mutants._function(trees[path], name)
        assert isinstance(fn, ast.FunctionDef) and mutants._sites(fn), name


def _edits(old, new) -> list:
    """The nodes of ``new`` whose type or constant value differs from ``old``'s, node by node."""
    pairs = list(zip(ast.walk(old), ast.walk(new), strict=True))
    return [b for a, b in pairs if type(a) is not type(b) or isinstance(a, ast.Constant) and a.value != b.value]


def test_each_mutant_is_one_edit_of_its_module():
    trees = _trees()
    for name in ("DoubleCoverSpec.__init__", "DoubleCoverSpec.half"):
        original = trees[mutants.TARGETS[name][0]]
        for line, label, text in mutants.mutants(name):
            edits = _edits(original, ast.parse(text))
            assert len(edits) == 1, (name, line, label)
            assert isinstance(edits[0], (ast.Constant, ast.cmpop, ast.operator)), (name, line, label)


def test_negative_constant_edits_parse_back_to_their_edited_tree():
    # ast.unparse writes Constant(-1) bare, so as the base of ** or of an
    # attribute its text would be a different mutant; only those sites are
    # built, each in a module of the one statement that holds the target
    trees = _trees()
    negative = 0
    for name, (path, _) in mutants.TARGETS.items():
        tree = trees[path]
        top = next(stmt for stmt in tree.body if getattr(stmt, "name", None) == name.split(".")[0])
        for index, (node, (kind, arg)) in enumerate(mutants._sites(mutants._function(tree, name))):
            if kind == "const" and node.value + arg < 0:
                mutant = ast.Module(body=[copy.deepcopy(top)], type_ignores=[])
                line, label = mutants._edit(mutant, name, index)
                assert ast.dump(ast.parse(ast.unparse(mutant))) == ast.dump(mutant), (name, line, label)
                negative += 1
    assert negative
