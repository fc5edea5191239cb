"""Command line surface: outputs, exit codes, report determinism.

A command line whose whole check is its answer (exit code, stdout, a
stderr fragment, a time bound) is one row of ``COMMAND_LINES``, the one
home of the CLI's edge cases, with the command line as its test id.  The
other tests compare an output with the library's own value or with its
``--json`` record, count output lines, pin outputs by their sha256, draw
command lines, or need a process of their own (a time from process
start, a closed pipe), which the ``fresh`` fixture of ``conftest.py``
starts; the scan of ``cli.py`` reads its tree from
``test_source_rules.SOURCES``.
"""

import argparse
import ast
import hashlib
import json
import random
import re
import runpy
import shlex
import signal
import time
from pathlib import Path

import pytest

import fanobase
from fanobase import build_report
from fanobase import cli
from fanobase.cli import build_parser, main
from fanobase.report import _jsonable, to_json
from test_source_rules import SOURCES

# verify-paper --json pinned byte for byte (sha256 of stdout, newline included);
# the text is pinned in GOLDEN_SHA256
VERIFY_JSON_SHA256 = "7368d7b6fe338795b483d34d815e48dc7acdb4f66bec22715b4e71126e9ea87a"
VERIFY_JSON_BYTES = 41493
DEMOS = Path(__file__).resolve().parent.parent / "demos"
README = DEMOS.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _chain(n: int) -> str:
    """The twists 2,1,...,1,0 of F(2, 1, ..., 1, 0) with n summands."""
    return ",".join(["2"] + ["1"] * (n - 2) + ["0"])


def _line(line: str, code: int, out, err: str = "", seconds=None):
    """One row of ``COMMAND_LINES``.  Its id is the command line, with a list of more
    than eight entries written as its first two, its last and its length."""
    def short(word):
        entries = word.split(",")
        if len(entries) <= 8:
            return word
        return f"{entries[0]},{entries[1]},...,{entries[-1]} ({len(entries)} entries)"

    argv = shlex.split(line)
    return pytest.param(argv, code, out, err, seconds, id=shlex.join(map(short, argv)))


# The command lines whose whole check is their answer: the exit code, stdout, a
# fragment of stderr and, where given, a bound in seconds.  Stdout is exact, or a
# tuple of fragments found in it with each run of whitespace read as one space
# (help text wraps to the terminal).  A line that exits 0 writes nothing to stderr.
COMMAND_LINES = [
    # a negative first entry needs the = form: after a space argparse reads -1,3 as an option
    _line("scroll h0 --d 5,1,0 --class=-1,3", 0, "0\n"),
    _line("scroll h0 --d 5,1,0 --class -1,3", 2, "", "expected one argument"),
    _line("scroll support --d 5,1,0 --class=-1,3", 3, ""),
    _line("scroll intersect --d 5,1,0 --class=-1,3 --classes '1,0;1,0'", 0, "-3\n"),
    _line("scroll h0 --help", 0, ("--class=-1,3",)),
    # an empty support prints no line at all, and an empty list as JSON
    _line("scroll support --d 5,1,0 --class 1,-6", 0, ""),
    _line("scroll support --d 5,1,0 --class 1,-6 --json", 0, '{\n  "support": []\n}\n'),
    # an empty system with about 5 * 10**11 exponent vectors, and 10**9 forced copies
    _line("scroll h0 --d 5,1,0 --class 1000000,-6000000", 0, "0\n"),
    _line("surface split --e 1 --class 1000000000,0", 0, "multiplicity 1000000000\nresidual 0,0\n"),
    # about 5 * 10**11 support monomials: C(10**6 + 2, 2) + 6 * C(10**6 + 2, 3)
    _line("scroll h0 --d 5,1,0 --class 1000000,0", 0, "1000003500003500001\n"),
    _line("scroll support --d 5,1,0 --class 1000000,0", 3, "", "500001500001 monomials"),
    # one monomial over the bound of 10**6
    _line("scroll support --d 0,0 --class 1000000,0", 3, "", "1000001 monomials"),
    # (2, -3) on F(2, 1, ..., 1, 0): h0 is the rank, with no recursion limit in the way
    _line(f"scroll h0 --d {_chain(600)} --class=2,-3", 0, "600\n"),
    _line("wps hilbert --weights 1 --max 3", 0, "1,1,1,1\n"),
    # an empty list is no relations
    _line("wps hilbert --weights 1 --degrees '' --max 3", 0, "1,1,1,1\n"),
    # 2000 passes over 100001 coefficients: refused before the first
    _line(f"wps hilbert --weights {','.join(['1'] * 2000)} --max 100000", 3, "",
          "are 200002000 coefficient steps, more than the 10000000", seconds=1),
    _line("wps infer --series 1,1,1,1", 0, "generators 1\nrelations (none)\n"),
    _line("wps infer --series 1,0", 0, "generators (none)\nrelations (none)\n"),
    # 10**9 degree-1 generators would be a list of about 8 GB
    _line("wps infer --series 1,1000000000", 3, "", "100000 generators and relations", seconds=1),
    # the smallest case degree is 2: a lower cap verifies nothing and must not pass
    *(_line(f"verify-paper --max-degree {cap}", 3, "", f"no case has anticanonical degree <= {cap}")
      for cap in ("1", "0", "-3")),
    _line("scroll h0 --d 5,1,0", 2, "", "required"),
    _line("scroll h0 --d 5,x,0 --class 4,-8", 2, "", "expected comma-separated integers, got '5,x,0'"),
    # a class is a pair, on a scroll and on a surface alike
    _line("scroll h0 --d 5,1,0 --class 1,2,3", 2, "", "a class is a pair h,f; got '1,2,3'"),
    _line("surface split --e 4 --class 1,2,3", 2, "", "expected a pair of integers, got '1,2,3'"),
    _line("no-such-command", 2, ""),
    _line("cover analyze --m 2", 3, "", "error:"),
    _line("blowup degree --ambient 1 --curve 0 --genus -1", 3, "", "genus must be non-negative"),
    _line("scroll intersect --d 5,1,0 --classes '1,0;1,0'", 3, "", "error:"),
]


@pytest.mark.parametrize("argv, code, out, err, seconds", COMMAND_LINES)
def test_command_line(capsys, argv, code, out, err, seconds):
    start = time.perf_counter()
    got_code, got_out, got_err = run(capsys, *argv)
    elapsed = time.perf_counter() - start
    assert got_code == code
    if type(out) is str:
        assert got_out == out
    else:
        assert all(fragment in " ".join(got_out.split()) for fragment in out)
    assert (err in got_err) if code else (got_err == "")
    assert seconds is None or elapsed < seconds, elapsed


def test_scroll_h0_long_euclid_chain(capsys):
    # Fibonacci twists of 210 digits: a floor-sum chain of about 1000 steps answers, exit 0
    a, b = 0, 1
    for _ in range(1001):
        a, b = b, a + b
    h = 10**215
    code, out, err = run(capsys, "scroll", "h0", "--d", f"{b},{a},0", f"--class={h},{-(h * a // 2)}")
    assert code == 0 and err == ""
    assert out == f"{fanobase.h0(fanobase.Scroll(b, a, 0), fanobase.DivisorClass(h, -(h * a // 2)))}\n"


def test_scroll_h0_huge_rank_three_class_in_a_fresh_process(fresh):
    # a band of 1.5 * 10**8 exponents, summed by floor sums: logarithmic in the numbers
    proc = fresh("-m", "fanobase.cli", "scroll", "h0", "--d", "5,1,0", "--class", "1000000000,-2000000000")
    out, err = proc.communicate(timeout=10)
    assert proc.returncode == 0 and err == ""
    expected = fanobase.h0(fanobase.Scroll(5, 1, 0), fanobase.DivisorClass(10**9, -2 * 10**9))
    assert out == f"{expected}\n"


@pytest.mark.parametrize("op", ["h0", "support"])
def test_wide_rank_four_walk_is_refused_in_a_fresh_process(fresh, op):
    # a band of 400 000 exponents at rank 4: refused before the walk, from process start
    start = time.perf_counter()
    proc = fresh("-m", "fanobase.cli", "scroll", op, "--d", "5,3,1,0", "--class", "1000000,-2000000")
    out, err = proc.communicate(timeout=10)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 3 and out == ""
    assert "400000 rank-3 closed forms" in err
    assert elapsed < 1, elapsed


def test_scroll_support_bounds_exponents_from_rank_four(capsys):
    # 3 * 10**6 exponents, rank many per monomial: (2, -3) on F(2, 1, ..., 1, 0) has
    # n - 1 monomials, 1731 * 1732 under the bound and 1732 * 1733 over it
    code, out, err = run(capsys, "scroll", "support", "--d", _chain(1733), "--class=2,-3")
    assert code == 3 and out == ""
    assert "1732 monomials, more than the 1731 this command prints" in err
    code, out, _ = run(capsys, "scroll", "support", "--d", _chain(1732), "--class=2,-3")
    assert code == 0 and len(out.splitlines()) == 1731


def test_wps_hilbert_refuses_large_truncation(capsys):
    code, out, err = run(capsys, "wps", "hilbert", "--weights", "1,1", "--max", "100001")
    assert code == 3 and out == ""
    assert "--max 100001" in err
    # the bound itself is expanded: C(n + 1, 1) in degree n
    code, out, _ = run(capsys, "wps", "hilbert", "--weights", "1,1", "--max", "100000")
    assert code == 0 and out.rstrip().split(",")[-1] == "100001"
    # without --max it expands to the library's default truncation
    code, out, _ = run(capsys, "wps", "hilbert", "--weights", "1,1")
    assert code == 0 and out == ",".join(map(str, fanobase.hilbert_coeffs(fanobase.WeightedCI((1, 1))))) + "\n"


@pytest.mark.parametrize("m", range(3, 16))
def test_cover_analyze_text_carries_the_json_values(capsys, m):
    _, text, _ = run(capsys, "cover", "analyze", "--m", str(m))
    _, out, _ = run(capsys, "cover", "analyze", "--m", str(m), "--json")
    data = json.loads(out)
    expected = {
        "m": [data["m"]],
        "base": data["base"],
        "branch": data["branch"],
        "fixed-component": data["b_class"] + [data["b_mult"]],
        "residual": data["residual"],
        "fiber-multiplicity": [data["fiber_mult"]],
    }
    seen = []
    for line in text.splitlines():
        key, rest = line.split(" ", 1)
        seen.append(key)
        if key == "verdict":
            assert rest == data["verdict"]
        else:
            assert [int(v) for v in re.findall(r"-?\d+", rest)] == expected[key], line
    assert seen == list(expected) + ["verdict"]


def test_jsonable_rejects_unknown_types():
    with pytest.raises(TypeError):
        _jsonable(object())


def _readme_commands():
    """The lines of README's "Command line" block, as (argv, expected output lines or None).

    Bracketed options are dropped; a comment ``-> a, b`` gives the output lines a and b.
    """
    text = README.read_text()
    block = text[text.index("## Command line"):].split("```")[1]
    commands = []
    for line in block.strip().splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(re.sub(r"\[[^]]*\]", "", command))
        assert argv[0] == "fanobase", line
        _, arrow, expected = comment.partition("->")
        commands.append((argv[1:], expected.strip().split(", ") if arrow else None))
    return commands


@pytest.mark.parametrize("argv", [argv for argv, _ in _readme_commands()], ids=shlex.join)
def test_text_and_json_render_one_record(capsys, argv):
    # the text is the leaf's renderer applied to the record the JSON carries
    code, text, _ = run(capsys, *argv)
    json_code, out, _ = run(capsys, *argv, "--json")
    assert code == json_code == 0
    record = json.loads(out)
    assert to_json(record) + "\n" == out
    assert build_parser().parse_args(argv).render(record) + "\n" == text


def test_main_alone_prints():
    # one output path: no handler or renderer writes to stdout, and --json is declared once
    source, tree = SOURCES["cli.py"]
    printers = [
        function.name
        for function in tree.body if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"
        and not any(keyword.arg == "file" for keyword in node.keywords)
    ]
    assert printers == ["main"]
    assert source.count('"--json"') == 1
    assert not re.search(r"args\.\w+_op\b", source)


def test_readme_examples_run(capsys):
    commands = _readme_commands()
    # the block was found and read whole, with its six "->" comments
    assert len(commands) >= 11
    assert sum(expected is not None for _, expected in commands) >= 6
    for argv, expected in commands:
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == "", (argv, err)
        if expected is not None:
            assert out.splitlines() == expected, argv


def test_verify_paper_max_degree(capsys):
    code, out, _ = run(capsys, "verify-paper", "--max-degree", "2")
    assert code == 0
    assert out.count("== case") == 1


def test_verify_paper_json_round_trip(capsys):
    code, out, _ = run(capsys, "verify-paper", "--json")
    assert code == 0
    # a second build is the same bytes, and the report's own serialization is the one
    # layout of its dict
    report = build_report(fanobase.__version__)
    assert report.to_json() == to_json(report.to_dict()) == out[:-1]


def test_verify_paper_outputs_pinned(capsys):
    _, out, _ = run(capsys, "verify-paper", "--json")
    assert len(out.encode()) == VERIFY_JSON_BYTES
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_JSON_SHA256
    _, text, _ = run(capsys, "verify-paper")
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256["verify-paper"]


# sha256 of stdout (newline included) of every output below, pinned from the
# CLI and demos as they printed before the subcommands returned records; the
# keys are argv lines, the cover sweep over COVER_SWEEP, and the demo files
COVER_SWEEP = [*range(3, 41), 400]
GOLDEN_SHA256 = {
    "cover analyze --m 3..40,400":
        "d1ca1361c23d3c543fbab267b74b6935914197ff714b20371923f86fcbe709cf",
    "cover analyze --m 3..40,400 --json":
        "9b99344fe125a4e70411b41c14822a4af4089f9591354ab2d2bc7f41fa7012fb",
    "classify enumerate":
        "2660dd0ca82bb8e5c0489b805041ee45d945812b8426a53216bec90964c19c96",
    "verify-paper":
        "e3ca4a7ceffe57007628663e8914c9423caf0413e392bb595fa5a92a326e148d",
    "scroll h0 --d 5,1,0 --class 4,-8":
        "0e55092af0746630c98d1b2e0d960617c33f8ea7b55739fd18cb7cd5342a28ca",
    "scroll support --d 13,9,0 --class 4,-40":
        "5da78737dc7bc9aa0935d98bc4a5deda783c4c1d4a24519d20bc04d7cc22b790",
    "scroll intersect --d 5,1,0 --classes '1,0;1,0;1,0'":
        "06e9d52c1720fca412803e3b07c4b228ff113e303f4c7ab94665319d832bbfb7",
    "surface split --e 4 --class 4,12":
        "b59336b45725f05d4ab9d60cae0cd649367f24d08698d324a71891ce8364441e",
    "k3 chain --m 5":
        "deadfe5ad1fa7c0078b96b72a106b20583aed361d3a8cc62f51a74f0b16da420",
    "wps hilbert --weights 1,1,1,2,3 --degrees 6 --max 6":
        "b3d4a4202e1d00d782135633a2d4efa3e6ce0fed9bee5dbf5d1be59e3f1909cb",
    "wps infer --series 1,3,7,14,25,41,63":
        "3ccbf131fbd1b7610db1f3cd37495b8aec697859271cbfd8cf3e8c807ec43d14",
    "cover analyze --m 13":
        "2dbcd21ebc71b09ea50e97f1bebe5ae90dc29611af9faea5b747cc81550ce044",
    "blowup degree --ambient 8 --curve 2 --genus 1":
        "7de1555df0c2700329e815b93b32c571c3ea54dc967b89e81ab73b9972b72d1d",
    "demos/01_scroll_linear_systems.py":
        "4f5ca82edcaa8decd197311a8176a4f4f648eedeaec4f53d99fb31cc3534cb6b",
    "demos/02_branch_degeneration.py":
        "d0f9247896a2eee822b4d53b54ac6744ff6a343bce2b7504efbeb8d8e6361bb2",
    "demos/03_hilbert_series_and_riemann_roch.py":
        "2b412d968a70d1bf34c56053d2b8f2573975e9c9d331941246d1f268de60eb83",
    "demos/04_classification_table.py":
        "626dc13a824d31e323f86f90d48e590cfa6115e836fc320aa4acdc9384360015",
}


def _golden_outputs(capsys) -> dict:
    """Each pinned output by its key in GOLDEN_SHA256; every CLI line exits 0."""
    outputs = {}
    for flags in ([], ["--json"]):
        sweep = []
        for m in COVER_SWEEP:
            code, out, _ = run(capsys, "cover", "analyze", "--m", str(m), *flags)
            assert code == 0, m
            sweep.append(out)
        outputs[" ".join(["cover analyze --m 3..40,400", *flags])] = "".join(sweep)
    for argv in [["classify", "enumerate"]] + [argv for argv, _ in _readme_commands()]:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        outputs[shlex.join(argv)] = out
    for demo in sorted(DEMOS.glob("*.py")):
        # a demo restores the default SIGPIPE action; keep the test process's own
        handler = signal.getsignal(signal.SIGPIPE)
        try:
            runpy.run_path(str(demo), run_name="__main__")
        finally:
            signal.signal(signal.SIGPIPE, handler)
        outputs[f"demos/{demo.name}"] = capsys.readouterr().out
    return outputs


def test_golden_outputs_pinned(capsys):
    outputs = _golden_outputs(capsys)
    assert sorted(outputs) == sorted(GOLDEN_SHA256)
    changed = [key for key, out in outputs.items()
               if hashlib.sha256(out.encode()).hexdigest() != GOLDEN_SHA256[key]]
    assert not changed


def test_one_version_number(capsys):
    # the package metadata, --version and the report all read fanobase.__version__
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((README.parent / "pyproject.toml").read_text())
    assert "version" not in project["project"] and project["project"]["dynamic"] == ["version"]
    assert project["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "fanobase.__version__"}
    code, out, _ = run(capsys, "--version")
    assert code == 0 and out == f"fanobase {fanobase.__version__}\n"
    _, out, _ = run(capsys, "verify-paper", "--json")
    assert json.loads(out)["version"] == fanobase.__version__


# the kind of value drawn for each type callable of the parser's options
KINDS = {int: "int", cli._csv_ints: "csv", cli._divisor_class: "pair", cli._int_pair: "pair",
         cli._class_list: "pairs"}


def _leaves(parser, words=()) -> tuple:
    """(command words, (option, kind, required) per typed option) per leaf of ``parser``, in order.

    An option whose type is not in ``KINDS`` raises ``KeyError``: a new
    kind of value needs its own draw.
    """
    commands = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    if not commands:
        return ((words, tuple((action.option_strings[0], KINDS[action.type], action.required)
                              for action in parser._actions if action.type is not None)),)
    return tuple(leaf for name, sub in commands[0].choices.items() for leaf in _leaves(sub, (*words, name)))


def _draw_int(rng) -> int:
    # half small, half log-uniform in magnitude up to 10**40, either sign
    if rng.random() < 0.5:
        return rng.randint(-20, 20)
    digits = rng.randint(1, 40)
    return rng.choice((-1, 1)) * rng.randrange(10 ** (digits - 1), 10 ** digits)


def _draw_value(rng, kind: str) -> str:
    def csv(n):
        return ",".join(str(_draw_int(rng)) for _ in range(n))

    if kind == "int":
        return str(_draw_int(rng))
    if kind == "csv":
        return csv(rng.choice((0, 1, 2, 3, 4, 40)))
    if kind == "pair":
        return csv(2 if rng.random() < 0.75 else rng.choice((0, 1, 3, 40)))
    return ";".join(_draw_value(rng, "pair") for _ in range(rng.choice((0, 1, 2, 3, 40))))


def _draw_argv(rng, leaves) -> list:
    words, options = rng.choice(leaves)
    argv = list(words)
    for option, kind, required in options:
        if required or rng.random() < 0.5:
            value = _draw_value(rng, kind)
            # the space form reads a value that starts with "-" as an option: exit 2
            argv += [f"{option}={value}"] if rng.random() < 0.5 else [option, value]
    if rng.random() < 0.3:
        argv.append("--json")
    return argv


def test_exit_code_contract_on_drawn_command_lines(capsys):
    # north star 3's rule as a property: whatever the command line, the exit
    # code is 0, 1, 2 or 3, no traceback reaches stderr, and the answer is prompt
    leaves = _leaves(build_parser())
    rng = random.Random(20261019)
    drawn = [_draw_argv(rng, leaves) for _ in range(400)]
    assert {tuple(argv[:2]) if argv[0] != "verify-paper" else ("verify-paper",) for argv in drawn} == {
        words for words, _ in leaves}
    codes = set()
    for argv in drawn:
        start = time.perf_counter()
        code = main(argv)
        seconds = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err, argv
        assert seconds < 5, argv
        codes.add(code)
    assert {0, 2, 3} <= codes


def _close_after_one_line(proc) -> tuple:
    """(first line, stderr, exit status) of ``proc`` when its reader closes stdout after one line."""
    line = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return line, err, proc.wait(timeout=60)


def test_closed_pipe_exits_quietly(fresh):
    # about 400 kB of support lines: far more than a pipe holds, so the
    # writer is still blocked on the pipe when the reader goes away
    proc = fresh("-m", "fanobase.cli", "scroll", "support", "--d", "9,7,4,2,0", "--class", "24,-30")
    assert _close_after_one_line(proc) == ("24,0,0,0,0\n", "", 141)


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_closed_pipe_exits_quietly(fresh, demo):
    # unbuffered, so every print is a write that can meet the closed pipe
    line, err, code = _close_after_one_line(fresh(str(DEMOS / demo), PYTHONUNBUFFERED="1"))
    assert line and err == "" and code in (0, -signal.SIGPIPE)
