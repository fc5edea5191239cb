"""Every number stays exact: no module under ``src/fanobase`` uses a float.

An ``ast`` scan rejects true division (``/`` and ``/=``), float and
complex literals, and the name ``float``.  Floor division, ``divmod`` and
``Fraction`` are the exact tools.
"""

import ast
from pathlib import Path

import fanobase


def _float_sites(source: str) -> list:
    """(line, what) for each true division, float or complex literal and name ``float``, by line."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            sites.append((node.lineno, "/"))
        elif isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            sites.append((node.lineno, repr(node.value)))
        elif isinstance(node, ast.Name) and node.id == "float":
            sites.append((node.lineno, "float"))
    return sorted(sites)


def test_the_scan_finds_each_float_site():
    # and not the same characters in a string or a comment, nor floor division
    probe = "a = 1 / 2\nb //= 2\nb /= 2\nc = 0.5\nd = 2j\ne = float(3)\nf = '1 / 2.0'  # float\n"
    assert _float_sites(probe) == [(1, "/"), (3, "/"), (4, "0.5"), (5, "2j"), (6, "float")]


def test_no_module_uses_floats():
    sources = sorted(Path(fanobase.__file__).resolve().parent.glob("*.py"))
    assert len(sources) == 11
    found = {path.name: sites for path in sources if (sites := _float_sites(path.read_text()))}
    assert found == {}
