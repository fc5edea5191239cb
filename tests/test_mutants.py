"""The mutant generator of ``tests/mutants.py``, checked without running the table.

A mutant's source is ``ast.unparse`` of the edited module tree, so the
table is only as good as the round trip of each target module through
``ast.unparse``, and as the names in ``TARGETS``.  Both are checked here
in a fraction of a second, instead of after a full table run.
"""

import ast
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
