"""Whole-package source rules: ``src/fanobase`` parsed once, and one table of scans.

``SOURCES`` maps each file of the package to its text and ``ast`` tree; every test that reads
the package source reads it here.  Its names must be ``test_values.SUBMODULES`` and
``__init__``, so a module added or removed without being scanned fails.  Each row of ``RULES``
is a scan, the files it reads, a probe source with the hits the scan finds there, and the files
allowed hits.  No module uses a float (true division, a float or complex literal, the name
``float``): floor division, ``divmod`` and ``Fraction`` are the exact tools.  No function in
``scroll.py`` calls itself: the counts and the support walk pop classes from an explicit stack,
so no valid input reaches the recursion limit.  No module stores a field with
``object.__setattr__``, the slow store that the setters ``errors.Value`` compiles replaced, and
no module but ``errors.py`` reads those setters, ``_set``.
"""

import ast
from pathlib import Path

import pytest

import fanobase

# file name -> (text, tree) for every module of the package
SOURCES = {path.name: (text, ast.parse(text))
           for path in sorted(Path(fanobase.__file__).resolve().parent.glob("*.py")) for text in [path.read_text()]}


def _float_sites(tree) -> list:
    """(line, what) for each true division, float or complex literal and name ``float``, by line."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            sites.append((node.lineno, "/"))
        elif isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            sites.append((node.lineno, repr(node.value)))
        elif isinstance(node, ast.Name) and node.id == "float":
            sites.append((node.lineno, "float"))
    return sorted(sites)


def _self_calls(tree) -> list:
    """(line, name) for each call of a function to its own name inside its body."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if (isinstance(inner, ast.Call) and isinstance(inner.func, ast.Name)
                        and inner.func.id == node.name):
                    sites.append((inner.lineno, node.name))
    return sorted(sites)


def _setattr_stores(tree) -> list:
    """Line numbers of the calls ``object.__setattr__(...)``."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "__setattr__"
                  and isinstance(node.func.value, ast.Name) and node.func.value.id == "object")


def _set_reads(tree) -> list:
    """Line numbers of the reads of an attribute ``_set``."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "_set")


# rule -> (scan, the files it reads or None for all, probe source, the probe's hits, files allowed hits)
RULES = {
    # a division, literal or name, and not the same characters in a string or a comment, nor floor division
    "floats": (_float_sites, None,
               "a = 1 / 2\nb //= 2\nb /= 2\nc = 0.5\nd = 2j\ne = float(3)\nf = '1 / 2.0'  # float\n",
               [(1, "/"), (3, "/"), (4, "0.5"), (5, "2j"), (6, "float")], set()),
    # a call in a nested expression counts, a call to another function or a name in a string does not
    "self-calls": (_self_calls, ("scroll.py",),
                   "def f(n):\n    return sum(f(k) for k in range(n))\n\ndef g(n):\n    return f(n) + len('g(n)')\n",
                   [(2, "f")], set()),
    # a store, and not the name in prose
    "object-setattr": (_setattr_stores, None, 'class A:\n    """Not ``object.__setattr__``."""\n'
                       '    def f(self):\n        object.__setattr__(self, "h", 1)\n', [4], set()),
    # an attribute read, and not a bare name, a string or a comment
    "set-readers": (_set_reads, None, "a = cls._set\nb = _set\nc = '_set'  # cls._set\n", [1], {"errors.py"}),
}


def test_sources_are_the_package_modules():
    from test_values import SUBMODULES  # not at the top: test_values imports this module through test_type_contract
    assert set(SOURCES) == {f"{name}.py" for name in ("__init__", *SUBMODULES)}


@pytest.mark.parametrize("rule", RULES)
def test_the_scan_finds_its_probe(rule):
    scan, _, probe, hits, _ = RULES[rule]
    assert scan(ast.parse(probe)) == hits


@pytest.mark.parametrize("rule", RULES)
def test_the_package_keeps_the_rule(rule):
    scan, files, _, _, allowed = RULES[rule]
    found = {name: hits for name in files or SOURCES if (hits := scan(SOURCES[name][1]))}
    assert set(found) == allowed, found
