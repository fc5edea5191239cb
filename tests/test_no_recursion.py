"""No function in ``fanobase.scroll`` calls itself.

The counts and the support walk pop classes from an explicit stack, so
their depth follows the rank of the scroll with no frame per level, and
no valid input reaches the interpreter's recursion limit.  An ``ast``
scan rejects any function whose body calls its own name.
"""

import ast
from pathlib import Path

from fanobase import scroll


def _self_calls(source: str) -> list:
    """(line, name) for each call of a function to its own name inside its body."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if (isinstance(inner, ast.Call) and isinstance(inner.func, ast.Name)
                        and inner.func.id == node.name):
                    sites.append((inner.lineno, node.name))
    return sorted(sites)


def test_the_scan_finds_a_self_call():
    # a call in a nested expression counts, a call to another function or a name in a string does not
    probe = "def f(n):\n    return sum(f(k) for k in range(n))\n\ndef g(n):\n    return f(n) + len('g(n)')\n"
    assert _self_calls(probe) == [(2, "f")]


def test_scroll_functions_do_not_call_themselves():
    assert _self_calls(Path(scroll.__file__).read_text()) == []
