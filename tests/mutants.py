"""Mutation table for the section count ``scroll._count`` and the cone-case path:
``classify._checks_cone``, ``classify.prune``, ``cover.branch_for_taut_anticanonical``
and ``hirzebruch.forced_minimal_decomposition``.

Run as ``python3 tests/mutants.py`` from anywhere; standard library only,
and not collected by pytest (the name does not match ``test_*.py``).
Each site inside a target function gets one ``ast`` edit at a time: an
int constant +1 and -1, ``<`` <-> ``<=``, ``>`` <-> ``>=``, ``+`` <-> ``-``
(``+=`` <-> ``-=`` too).  The edit is spliced into the source text, so
comments and layout elsewhere are kept, and the spliced function is
checked to parse to the mutated tree.

Each mutant runs its function's test modules in a fresh temporary copy of
the repository (src, tests, demos, README.md, pyproject.toml), never in
the working tree, with no test deselected.  A suite may already be red
before any mutation (acceptance criterion 7 is), so a mutant is killed
when its set of failing tests differs from that of the unmutated copy.
Each run has a time cap, ten times the unmutated run and at least 60 s,
and an address-space cap; on timeout the run's whole process group is
killed, so no process is left behind.  A timeout counts as killed.

Prints one table row per mutant and a summary; survivors named in
``EQUIVALENT`` are listed as equivalent with their reason.  Exits 1 when a
mutant survives that is not listed there.
"""

import ast
import copy
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "demos", "README.md", "pyproject.toml")
MEMORY_CAP = 2 * 1024**3  # bytes of address space per test run

# function -> (module path, test modules run against each of its mutants)
TARGETS = {
    "_count": ("src/fanobase/scroll.py", ("tests/test_scroll.py",)),
    "_checks_cone": ("src/fanobase/classify.py",
                     ("tests/test_classify.py", "tests/test_acceptance.py", "tests/test_cli.py")),
    "prune": ("src/fanobase/classify.py",
              ("tests/test_classify.py", "tests/test_acceptance.py", "tests/test_scroll.py")),
    "branch_for_taut_anticanonical": ("src/fanobase/cover.py",
                                      ("tests/test_cover.py", "tests/test_classify.py", "tests/test_acceptance.py")),
    "forced_minimal_decomposition": ("src/fanobase/hirzebruch.py",
                                     ("tests/test_hirzebruch.py", "tests/test_cover.py", "tests/test_acceptance.py")),
}

# (function, line in the function, mutant label) -> why no test can tell the mutant from the code
EQUIVALENT = {
    ("_count", 11, "i + 2  ->  i + 3"):
        "_exponent_range(d, h, f, 1) reads d[0] and d[1] only, so a longer slice changes nothing",
    ("_count", 21, "> 0 and not i else 0  ->  > 0 and not i else (-1)"):
        "the bound is only compared with WALK_BUDGET = 10**5, which -1 does not exceed either",
    ("_count", 21, "> 0 and not i else 0  ->  > 0 and not i else 1"):
        "the bound is only compared with WALK_BUDGET = 10**5, which 1 does not exceed either",
}

_SWAP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Add: ast.Sub, ast.Sub: ast.Add}
_TEXT = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Add: "+", ast.Sub: "-"}


def _offset(lines: list, line: int, col: int) -> int:
    """Character offset of the 1-based line and 0-based UTF-8 column in the joined lines."""
    return sum(len(x) for x in lines[:line - 1]) + len(lines[line - 1].encode()[:col].decode())


def _span(lines: list, node) -> tuple:
    return _offset(lines, node.lineno, node.col_offset), _offset(lines, node.end_lineno, node.end_col_offset)


def _function(tree, name: str):
    return next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)


def _sites(fn) -> list:
    """(node, edit) per edit in ``fn``, in source order."""
    sites = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Constant) and type(node.value) is int:
            for step in (1, -1):
                sites.append((node, ("const", step)))
        elif isinstance(node, ast.Compare):
            for j, op in enumerate(node.ops):
                if type(op) in _SWAP:
                    sites.append((node, ("cmp", j)))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _SWAP:
            sites.append((node, ("op", None)))
    return sorted(sites, key=lambda s: (s[0].lineno, s[0].col_offset, str(s[1])))


def _splice(source: str, node, edit) -> tuple:
    """(start, end, text): the edit as a replacement of source[start:end]."""
    lines = source.splitlines(keepends=True)
    kind, arg = edit
    if kind == "const":
        value = node.value + arg
        return *_span(lines, node), str(value) if value >= 0 else f"({value})"
    if kind == "cmp":
        left, right, op = ([node.left] + node.comparators)[arg], node.comparators[arg], node.ops[arg]
    elif isinstance(node, ast.AugAssign):
        left, right, op = node.target, node.value, node.op
    else:
        left, right, op = node.left, node.right, node.op
    start, end = _span(lines, left)[1], _span(lines, right)[0]
    old, new = _TEXT[type(op)], _TEXT[_SWAP[type(op)]]
    if isinstance(node, ast.AugAssign):
        old, new = old + "=", new + "="
    gap = source[start:end]
    assert gap.replace("(", "").replace("\\", "").split() == [old], f"unexpected text {gap!r} around {old!r}"
    at = start + gap.index(old)
    return at, at + len(old), new


class _Fold(ast.NodeTransformer):
    """Reads -c, c an int constant, as the constant -c, as a spliced negative constant parses."""

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        if isinstance(node.op, ast.USub) and isinstance(node.operand, ast.Constant) and type(node.operand.value) is int:
            return ast.Constant(-node.operand.value)
        return node


def _shape(fn) -> str:
    return ast.dump(_Fold().visit(copy.deepcopy(fn)))


def _mutated_tree(fn, index: int):
    """A copy of ``fn`` with the edit of site ``index`` applied to the tree."""
    fn = copy.deepcopy(fn)
    node, (kind, arg) = _sites(fn)[index]
    if kind == "const":
        node.value += arg
    elif kind == "cmp":
        node.ops[arg] = _SWAP[type(node.ops[arg])]()
    else:
        node.op = _SWAP[type(node.op)]()
    return fn


def _around(fn, node):
    """The expression quoted in a label: a constant's parent (past a sign) or the edited node, if short."""
    if isinstance(node, ast.Constant):
        parents = {id(sub): up for up in ast.walk(fn) for sub in ast.iter_child_nodes(up)}
        up = parents[id(node)]
        node = parents[id(up)] if isinstance(up, ast.UnaryOp) else up
    return node if node.end_lineno == node.lineno and node.end_col_offset - node.col_offset <= 50 else None


def mutants(name: str) -> list:
    """(line in the function, label, mutated module source) per edit of the function ``name``."""
    source = (ROOT / TARGETS[name][0]).read_text()
    fn = _function(ast.parse(source), name)
    lines = source.splitlines(keepends=True)
    out = []
    for index, (node, edit) in enumerate(_sites(fn)):
        start, end, new = _splice(source, node, edit)
        text = source[:start] + new + source[end:]
        got = _function(ast.parse(text), name)
        assert _shape(got) == _shape(_mutated_tree(fn, index)), f"{name}: site {index} spliced wrongly"
        around = _around(fn, node)  # else the 20 characters either side of the edit on its line
        low, high = _span(lines, around) if around else (
            max(start - 20, source.rfind("\n", 0, start) + 1), min(end + 20, source.find("\n", end)))
        before, after = source[low:high], source[low:start] + new + source[end:high]
        out.append((node.lineno - fn.lineno, " ".join(before.split()) + "  ->  " + " ".join(after.split()), text))
    return out


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run_tests(modules: tuple, mutated=None, cap=None) -> tuple:
    """(failing test ids or "timeout", seconds) for ``modules`` in a fresh copy, ``mutated`` = (path, text)."""
    with tempfile.TemporaryDirectory(prefix="fanobase-mutant-") as tmp:
        tmp = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, tmp / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, tmp / name)
        if mutated:
            (tmp / mutated[0]).write_text(mutated[1])
        report = tmp / "junit.xml"
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"--junitxml={report}", *modules]
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                start_new_session=True, preexec_fn=_limit_memory)
        try:
            proc.wait(timeout=cap)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return "timeout", time.monotonic() - start
        finally:
            try:  # the run's own children (CLI and demo processes) go with it
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        seconds = time.monotonic() - start
        if not report.exists():
            return {f"<no report, exit {proc.returncode}>"}, seconds
        failing = {
            f"{case.get('classname')}::{case.get('name')}"
            for case in ET.parse(report).getroot().iter("testcase")
            if case.find("failure") is not None or case.find("error") is not None
        }
        if proc.returncode not in (0, 1):
            failing.add(f"<exit {proc.returncode}>")
        return failing, seconds


def main() -> int:
    results, unexplained = [], []
    for name, (path, modules) in TARGETS.items():
        base, seconds = run_tests(modules)
        if base == "timeout":
            print(f"{name}: the unmutated run timed out", file=sys.stderr)
            return 2
        cap = max(60.0, 10 * seconds)
        print(f"{name}: {len(base)} failing before mutation ({', '.join(sorted(base)) or 'none'}), "
              f"{seconds:.1f} s, cap {cap:.0f} s", flush=True)
        for line, label, text in mutants(name):
            failing, seconds = run_tests(modules, (path, text), cap)
            if failing == "timeout":
                result = "killed (timeout)"
            elif failing != base:
                result = f"killed ({len(failing ^ base)} tests differ)"
            elif (name, line, label) in EQUIVALENT:
                result = "equivalent: " + EQUIVALENT[name, line, label]
            else:
                result = "SURVIVED"
                unexplained.append((name, line, label))
            results.append(result.split()[0])
            print(f"| {name} | +{line} | `{label}` | {result} | {seconds:.1f} s |", flush=True)
    print(f"\n{len(results)} mutants: {results.count('killed')} killed, "
          f"{results.count('equivalent:')} equivalent, {len(unexplained)} survived")
    for name, line, label in unexplained:
        print(f"survived: {name} +{line}: {label}")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
