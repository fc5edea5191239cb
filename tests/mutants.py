"""Mutation table for the section count ``scroll._count``, the cone-case path
(``classify._checks_cone``, ``classify.prune``,
``cover.branch_for_taut_anticanonical``, ``hirzebruch.forced_minimal_decomposition``,
``hirzebruch.genus``, the even-branch rule ``_validate`` and ``half`` of
``cover.DoubleCoverSpec``), the range rules ``_validate`` of
``wps.WeightedCI``, the kernels ``wps._series``, ``wps.infer_ring``,
``scroll._exponent_range``, ``cover.analyze_cover``, the support fill
``scroll._fill`` and its simplex blocks ``scroll._simplex``,
``errors._constructor``, which builds every value type's constructor, and
``errors._compiled``, which compiles the refusals of every constructor
and of every ``@checked`` public function.  A target named
``"Class.method"`` is looked up in that class's body.

Run as ``python3 tests/mutants.py [NAME ...]`` from anywhere; with names it
runs only those targets, with none every target, and an unknown name exits 2
and lists ``TARGETS``.  Standard library only, and not collected by pytest
(the name does not match ``test_*.py``).
Each site inside a target function gets one ``ast`` edit at a time: an
int constant +1 and -1 (a negative result is written as a unary minus
on its absolute value, which is how it parses back), ``<`` <-> ``<=``,
``>`` <-> ``>=``, ``+`` <-> ``-`` (``+=`` <-> ``-=`` too).  A mutant is a
deep copy of the module tree with the one edit applied, and its source
is that tree rendered by ``ast.unparse``, so the text is the tree by
construction (comments and layout are not kept).  ``tests/test_mutants.py`` checks in Tier-1 that
every target module round-trips through ``ast.unparse``.

Each mutant runs its function's test modules in a fresh temporary copy of
the repository, the whole tree less its dot entries (``.git``,
``.pytest_cache``) and ``__pycache__`` directories, never in the working
tree, with no test deselected.  A suite may already be red
before any mutation (acceptance criterion 7 is), so a mutant is killed
when its set of failing tests differs from that of the unmutated copy.
That holds exactly when some test, or some test module's collection,
fails in one run and not in the other, or runs in only one of them: a
small pytest plugin, written into the copy with the unmutated run's
failing set, compares each test as its teardown is reported and stops
the session at the first that differs, which the table then names.  A
run that differs in no test it ran is compared whole, as before.
Each run has a time cap, three times the unmutated run, and an
address-space cap; on timeout the run's whole process group is killed,
so no process is left behind.  A run that the cap cuts short counts as
killed, and a surviving or equivalent mutant runs the suite in about
the unmutated run's time, so a cap near it only ends slow runs sooner.

Each run ends in one outcome ``(failing, end, seconds)``: ``failing`` is
the set of failing node ids, or None for a run cut short by the time cap
or at the first differing test, or that leaves no readable record of its
outcomes; ``end`` is None for a whole run with
pytest exit 0 or 1, else the words its row prints: ``timeout``, ``first
at NODE``, ``pytest exit N`` (an internal error) or ``no readable record,
pytest exit N`` (pytest can hit the address-space cap while writing it).
A mutant is killed when its run has an ``end`` or a failing set other than
the unmutated run's; the row names the end, as ``killed (pytest exit 3,
no test outcome differs)``, and does not count it as a test.  An unmutated
run with an ``end``, as a failed collection has (pytest exit 2), stops the
table with exit 2: every mutant would read like it and survive.

Prints one table row per mutant and a summary; survivors named in
``EQUIVALENT`` are listed as equivalent with their reason.  Exits 1 when a
mutant survives that is not listed there.
"""

import ast
import copy
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IGNORED = shutil.ignore_patterns(".*", "__pycache__")  # what the copy of ROOT leaves out
MEMORY_CAP = 2 * 1024**3  # bytes of address space per test run

# function -> (module path, test modules run against each of its mutants)
TARGETS = {
    "_count": ("src/fanobase/scroll.py", ("tests/test_scroll.py",)),
    "_checks_cone": ("src/fanobase/classify.py",
                     ("tests/test_classify.py", "tests/test_acceptance.py", "tests/test_cli.py")),
    "prune": ("src/fanobase/classify.py", ("tests/test_classify.py", "tests/test_acceptance.py")),
    "branch_for_taut_anticanonical": ("src/fanobase/cover.py",
                                      ("tests/test_cover.py", "tests/test_classify.py", "tests/test_acceptance.py")),
    "forced_minimal_decomposition": ("src/fanobase/hirzebruch.py",
                                     ("tests/test_hirzebruch.py", "tests/test_cover.py", "tests/test_acceptance.py")),
    "genus": ("src/fanobase/hirzebruch.py",
              ("tests/test_hirzebruch.py", "tests/test_classify.py", "tests/test_acceptance.py")),
    "DoubleCoverSpec._validate": ("src/fanobase/cover.py",
                                  ("tests/test_cover.py", "tests/test_values.py", "tests/test_classify.py")),
    "DoubleCoverSpec.half": ("src/fanobase/cover.py",
                             ("tests/test_cover.py", "tests/test_values.py", "tests/test_classify.py")),
    "WeightedCI._validate": ("src/fanobase/wps.py",
                             ("tests/test_wps.py", "tests/test_values.py", "tests/test_classify.py")),
    "_series": ("src/fanobase/wps.py",
                ("tests/test_wps.py", "tests/test_classify.py", "tests/test_acceptance.py")),
    "infer_ring": ("src/fanobase/wps.py",
                   ("tests/test_wps.py", "tests/test_classify.py", "tests/test_acceptance.py")),
    "_exponent_range": ("src/fanobase/scroll.py",
                        ("tests/test_scroll.py", "tests/test_cover.py", "tests/test_hirzebruch.py")),
    "analyze_cover": ("src/fanobase/cover.py",
                      ("tests/test_cover.py", "tests/test_classify.py", "tests/test_acceptance.py")),
    "_fill": ("src/fanobase/scroll.py", ("tests/test_scroll.py", "tests/test_cli.py")),
    "_simplex": ("src/fanobase/scroll.py", ("tests/test_scroll.py", "tests/test_cli.py")),
    "_constructor": ("src/fanobase/errors.py",
                     ("tests/test_values.py", "tests/test_value_store.py", "tests/test_type_contract.py")),
    "_compiled": ("src/fanobase/errors.py",
                  ("tests/test_values.py", "tests/test_value_store.py", "tests/test_type_contract.py")),
}

# (function, line in the function, mutant label) -> why no test can tell the mutant from the code
EQUIVALENT = {
    ("_count", 11, "i + 2  ->  i + 3"):
        "_exponent_range(d, h, f, 1) reads d[0] and d[1] only, so a longer slice changes nothing",
    ("_count", 21, "_walk_bound(d, h, f, lo, k_t) if p > 0 and (not i) else 0  ->  "
                   "_walk_bound(d, h, f, lo, k_t) if p > 0 and (not i) else -1"):
        "the bound is only compared with WALK_BUDGET = 10**5, which -1 does not exceed either",
    ("_count", 21, "_walk_bound(d, h, f, lo, k_t) if p > 0 and (not i) else 0  ->  "
                   "_walk_bound(d, h, f, lo, k_t) if p > 0 and (not i) else 1"):
        "the bound is only compared with WALK_BUDGET = 10**5, which 1 does not exceed either",
    ("_simplex", 13, "h + 1  ->  h + 2"):
        "the extra row a = h + 1 of the triples takes b from range(h - a + 1) = range(0), so it is empty",
    ("genus", 12, "pairing % 2  ->  pairing % 1"):
        "the pairing -e*xi*(xi - 1) + 2*(xi*fib - xi - fib) is even for every integral class, "
        "so the assert holds either way",
    ("_series", 15, "n_max // 16  ->  n_max // 15"):
        "the switch only picks one of two forms of the same division step, so only the speed changes",
    ("_series", 15, "n_max // 16  ->  n_max // 17"):
        "the switch only picks one of two forms of the same division step, so only the speed changes",
    ("_series", 17, "w > longest  ->  w >= longest"):
        "the switch only picks one of two forms of the same division step, so only the speed changes",
    ("infer_ring", 23, "range(1, n_max + 1)  ->  range(0, n_max + 1)"):
        "at degree 0 the candidate is [1] and seq[0] == 1 is checked before the loop, so delta is 0",
    ("infer_ring", 35, "delta > 0  ->  delta >= 0"):
        "at delta = 0 the generators grow by an empty list instead of the relations",
    ("infer_ring", 35, "delta > 0  ->  delta > -1"):
        "at delta = 0 the generators grow by an empty list instead of the relations",
}

# pytest plugin written into each copy as mutant_outcomes.py: records the failing
# tests, a failed collection counting as its node's, and with a baseline
# stops at the first test whose failed/passed state differs from it
PLUGIN = """import json

BASELINE = {baseline!r}  # failing node ids of the unmutated run, None in that run
RECORD = {record!r}
failing, differing, sessions = set(), [], []


def pytest_sessionstart(session):
    sessions.append(session)


def _settle(nodeid):
    if BASELINE is not None and not differing and (nodeid in failing) != (nodeid in BASELINE):
        differing.append(nodeid)
        sessions[0].shouldstop = nodeid + " differs from the unmutated run"


def pytest_collectreport(report):
    if report.failed:
        failing.add(report.nodeid)
        _settle(report.nodeid)


def pytest_runtest_logreport(report):
    if report.failed:
        failing.add(report.nodeid)
    if report.when == "teardown":
        _settle(report.nodeid)


def pytest_sessionfinish(session):
    with open(RECORD, "w") as fh:
        json.dump({{"failing": sorted(failing), "first_difference": differing[0] if differing else None}}, fh)
"""

_SWAP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Add: ast.Sub, ast.Sub: ast.Add}


def _function(tree, name: str):
    """The function ``name`` at module level, or the method ``"Class.method"`` in its class body."""
    body = tree.body
    *owner, name = name.split(".")
    if owner:
        body = next(n for n in body if isinstance(n, ast.ClassDef) and n.name == owner[0]).body
    return next(n for n in body if isinstance(n, ast.FunctionDef) and n.name == name)


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


def _quoted(parents: dict, node):
    """The expression a label quotes: a constant's parent (past a sign), else the edited node."""
    if isinstance(node, ast.Constant):
        up = parents[id(node)]
        node = parents[id(up)] if isinstance(up, ast.UnaryOp) else up
    return node


def _replace(up, node, new) -> None:
    """Put ``new`` where the child ``node`` of ``up`` stands."""
    for field, value in ast.iter_fields(up):
        if value is node:
            setattr(up, field, new)
        elif isinstance(value, list):
            value[:] = [new if item is node else item for item in value]


def _edit(tree, name: str, index: int) -> tuple:
    """Apply edit ``index`` of the function ``name`` to ``tree`` in place; (line in the function, label)."""
    fn = _function(tree, name)
    node, (kind, arg) = _sites(fn)[index]
    parents = {id(sub): up for up in ast.walk(fn) for sub in ast.iter_child_nodes(up)}
    quoted = _quoted(parents, node)
    before = ast.unparse(quoted)
    if kind == "const":
        value = node.value + arg
        if value < 0:  # ast.unparse writes Constant(-1) bare, which would bind looser than ** or .attr
            _replace(parents[id(node)], node, ast.UnaryOp(ast.USub(), ast.Constant(-value)))
        else:
            node.value = value
    elif kind == "cmp":
        node.ops[arg] = _SWAP[type(node.ops[arg])]()
    else:
        node.op = _SWAP[type(node.op)]()
    return node.lineno - fn.lineno, f"{before}  ->  {ast.unparse(quoted)}"


def mutants(name: str) -> list:
    """(line in the function, label, mutated module source) per edit of the function ``name``.

    Each mutant is a deep copy of the module tree with one edit applied,
    and its source is ``ast.unparse`` of that tree.
    """
    tree = ast.parse((ROOT / TARGETS[name][0]).read_text())
    out = []
    for index in range(len(_sites(_function(tree, name)))):
        mutant = copy.deepcopy(tree)
        line, label = _edit(mutant, name, index)
        out.append((line, label, ast.unparse(mutant)))
    return out


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run_tests(modules: tuple, mutated=None, cap=None, baseline=None) -> tuple:
    """(failing, end, seconds) for ``modules`` in a fresh copy, ``mutated`` = (path, text).

    Given the unmutated run's failing set as ``baseline``, the run stops at
    the first node whose outcome differs from it.
    """
    with tempfile.TemporaryDirectory(prefix="fanobase-mutant-") as tmp:
        tmp = Path(tmp)
        shutil.copytree(ROOT, tmp, ignore=IGNORED, dirs_exist_ok=True)
        if mutated:
            (tmp / mutated[0]).write_text(mutated[1])
        record = tmp / "outcomes.json"
        (tmp / "mutant_outcomes.py").write_text(PLUGIN.format(
            baseline=None if baseline is None else sorted(baseline), record=str(record)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(tmp / "src"), str(tmp))),
                   PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "mutant_outcomes", *modules]
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                start_new_session=True, preexec_fn=_limit_memory)
        try:
            proc.wait(timeout=cap)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return None, "timeout", time.monotonic() - start
        finally:
            try:  # the run's own children (CLI and demo processes) go with it
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        seconds = time.monotonic() - start
        try:
            outcomes = json.loads(record.read_text())
        except (FileNotFoundError, ValueError):  # none, or cut short by a MemoryError under the cap
            return None, f"no readable record, pytest exit {proc.returncode}", seconds
        if outcomes["first_difference"] is not None:
            return None, f"first at {outcomes['first_difference']}", seconds
        end = None if proc.returncode in (0, 1) else f"pytest exit {proc.returncode}"
        return set(outcomes["failing"]), end, seconds


def _difference(failing, end, base: set) -> str | None:
    """Why a run kills its mutant, as its table row says it, or None when it does not.

    The run's ``end`` is named and not counted as a test; a whole run's
    failing set is counted against the unmutated one's.
    """
    if failing is None or failing == base and end is None:
        return end
    counted = f"{len(failing ^ base)} tests differ" if failing != base else "no test outcome differs"
    return ", ".join(filter(None, (end, counted)))


def main(names: list) -> int:
    unknown = [name for name in names if name not in TARGETS]
    if unknown:
        print(f"unknown target {', '.join(unknown)}; TARGETS: {', '.join(TARGETS)}", file=sys.stderr)
        return 2
    results, unexplained = [], []
    for name in names or TARGETS:
        path, modules = TARGETS[name]
        base, end, seconds = run_tests(modules)
        if end:
            print(f"{name}: the unmutated run cannot be compared with ({end})", file=sys.stderr)
            return 2
        cap = 3 * seconds
        print(f"{name}: {len(base)} failing before mutation ({', '.join(sorted(base)) or 'none'}), "
              f"{seconds:.1f} s, cap {cap:.0f} s", flush=True)
        for line, label, text in mutants(name):
            failing, end, seconds = run_tests(modules, (path, text), cap, base)
            killed = _difference(failing, end, base)
            if killed:
                result = f"killed ({killed})"
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
    sys.exit(main(sys.argv[1:]))
