"""Command line surface: outputs, exit codes, report determinism."""

import hashlib
import json
import os
import re
import shlex
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fanobase
from fanobase import FanobaseError, build_report
from fanobase.cli import main
from fanobase.report import _jsonable, to_json

# verify-paper outputs pinned byte for byte (sha256 of stdout, newline included)
VERIFY_JSON_SHA256 = "7368d7b6fe338795b483d34d815e48dc7acdb4f66bec22715b4e71126e9ea87a"
VERIFY_JSON_BYTES = 41493
VERIFY_TEXT_SHA256 = "e3ca4a7ceffe57007628663e8914c9423caf0413e392bb595fa5a92a326e148d"
DEMOS = Path(__file__).resolve().parent.parent / "demos"
README = DEMOS.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_scroll_h0(capsys):
    code, out, _ = run(capsys, "scroll", "h0", "--d", "5,1,0", "--class", "4,-8")
    assert code == 0 and out == "43\n"


def test_scroll_h0_negative_degree_class(capsys):
    code, out, _ = run(capsys, "scroll", "h0", "--d", "5,1,0", "--class=-1,3")
    assert code == 0 and out == "0\n"


def test_negative_first_entry_needs_the_equals_form(capsys):
    # argparse reads "-1,3" after a space as an option; the help says to write --class=-1,3
    code, out, err = run(capsys, "scroll", "h0", "--d", "5,1,0", "--class", "-1,3")
    assert code == 2 and out == "" and "expected one argument" in err
    code, out, _ = run(capsys, "scroll", "support", "--d", "5,1,0", "--class=-1,3")
    assert code == 3 and out == ""
    code, out, _ = run(capsys, "scroll", "intersect", "--d", "5,1,0", "--class=-1,3",
                       "--classes", "1,0;1,0")
    assert code == 0 and out == "-3\n"
    code, out, _ = run(capsys, "scroll", "h0", "--help")
    assert code == 0 and "--class=-1,3" in " ".join(out.split())


def test_scroll_intersect(capsys):
    code, out, _ = run(
        capsys, "scroll", "intersect", "--d", "5,1,0", "--classes", "1,0;1,0;1,0"
    )
    assert code == 0 and out == "6\n"


def test_scroll_support(capsys):
    code, out, _ = run(capsys, "scroll", "support", "--d", "13,9,0", "--class", "4,-40")
    assert code == 0
    assert out.splitlines() == ["4,0,0", "3,1,0", "2,2,0", "1,3,0"]


def test_surface_split(capsys):
    code, out, _ = run(capsys, "surface", "split", "--e", "4", "--class", "4,12")
    assert code == 0
    assert out.splitlines() == ["multiplicity 1", "residual 3,12"]


def test_scroll_h0_huge_rank_three_class_in_a_fresh_process():
    # a band of 1.5 * 10**8 exponents, summed by floor sums: logarithmic in the numbers
    env = dict(os.environ, PYTHONPATH=str(Path(fanobase.__file__).resolve().parent.parent))
    argv = ["scroll", "h0", "--d", "5,1,0", "--class", "1000000000,-2000000000"]
    proc = subprocess.run([sys.executable, "-m", "fanobase.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0 and proc.stderr == ""
    expected = fanobase.h0(fanobase.Scroll(5, 1, 0), fanobase.DivisorClass(10**9, -2 * 10**9))
    assert proc.stdout == f"{expected}\n"


@pytest.mark.parametrize("op", ["h0", "support"])
def test_wide_rank_four_walk_is_refused_in_a_fresh_process(op):
    # a band of 400 000 exponents at rank 4: refused before the walk, from process start
    env = dict(os.environ, PYTHONPATH=str(Path(fanobase.__file__).resolve().parent.parent))
    argv = ["scroll", op, "--d", "5,3,1,0", "--class", "1000000,-2000000"]
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "fanobase.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=10)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 3 and proc.stdout == ""
    assert "400000 rank-3 closed forms" in proc.stderr
    assert elapsed < 1, elapsed


def test_large_degree_answers_promptly(capsys):
    # an empty system with about 5 * 10**11 exponent vectors, and 10**9 forced copies
    code, out, _ = run(capsys, "scroll", "h0", "--d", "5,1,0", "--class", "1000000,-6000000")
    assert code == 0 and out == "0\n"
    code, out, _ = run(capsys, "surface", "split", "--e", "1", "--class", "1000000000,0")
    assert code == 0
    assert out.splitlines() == ["multiplicity 1000000000", "residual 0,0"]
    # about 5 * 10**11 support monomials: C(10**6 + 2, 2) + 6 * C(10**6 + 2, 3)
    code, out, _ = run(capsys, "scroll", "h0", "--d", "5,1,0", "--class", "1000000,0")
    assert code == 0 and out == "1000003500003500001\n"


def test_scroll_support_refuses_large_output(capsys):
    code, out, err = run(capsys, "scroll", "support", "--d", "5,1,0", "--class", "1000000,0")
    assert code == 3 and out == ""
    assert "500001500001 monomials" in err
    # one monomial over the bound of 10**6
    code, _, err = run(capsys, "scroll", "support", "--d", "0,0", "--class", "1000000,0")
    assert code == 3 and "1000001 monomials" in err


def test_k3_chain(capsys):
    code, out, _ = run(capsys, "k3", "chain", "--m", "5")
    assert code == 0
    assert "cover pullback: 2,5" in out
    assert "pencil multiplicity: 5" in out
    assert "anticanonical degree: 8" in out
    assert "base locus dimension: 1" in out


def test_wps_hilbert(capsys):
    code, out, _ = run(
        capsys, "wps", "hilbert", "--weights", "1,1,1,2,3", "--degrees", "6", "--max", "6"
    )
    assert code == 0 and out == "1,3,7,14,25,41,63\n"


def test_wps_hilbert_no_relations(capsys):
    code, out, _ = run(capsys, "wps", "hilbert", "--weights", "1", "--max", "3")
    assert code == 0 and out == "1,1,1,1\n"
    # an empty list is no relations
    code, out, _ = run(capsys, "wps", "hilbert", "--weights", "1", "--degrees", "", "--max", "3")
    assert code == 0 and out == "1,1,1,1\n"


def test_wps_hilbert_refuses_large_truncation(capsys):
    code, out, err = run(capsys, "wps", "hilbert", "--weights", "1,1", "--max", "100001")
    assert code == 3 and out == ""
    assert "--max 100001" in err
    # the bound itself is expanded: C(n + 1, 1) in degree n
    code, out, _ = run(capsys, "wps", "hilbert", "--weights", "1,1", "--max", "100000")
    assert code == 0 and out.rstrip().split(",")[-1] == "100001"


def test_wps_infer(capsys):
    code, out, _ = run(capsys, "wps", "infer", "--series", "1,3,7,14,25,41,63")
    assert code == 0
    assert out.splitlines() == ["generators 1,1,1,2,3", "relations 6"]


def test_wps_infer_polynomial_ring(capsys):
    code, out, _ = run(capsys, "wps", "infer", "--series", "1,1,1,1")
    assert code == 0
    assert out.splitlines() == ["generators 1", "relations (none)"]


def test_wps_infer_without_generators(capsys):
    code, out, _ = run(capsys, "wps", "infer", "--series", "1,0")
    assert code == 0
    assert out.splitlines() == ["generators (none)", "relations (none)"]


def test_wps_infer_refuses_a_huge_model(capsys):
    # 10**9 degree-1 generators would be a list of about 8 GB
    start = time.perf_counter()
    code, out, err = run(capsys, "wps", "infer", "--series", "1,1000000000")
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert "100000 generators and relations" in err


def test_cover_analyze_beyond_bound_is_data_not_error(capsys):
    code, out, _ = run(capsys, "cover", "analyze", "--m", "13")
    assert code == 0
    assert "verdict fails-du-val-necessary" in out
    assert "fiber-multiplicity 4" in out


def test_cover_analyze_json(capsys):
    code, out, _ = run(capsys, "cover", "analyze", "--m", "5", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["base"] == [5, 1, 0]
    assert data["branch"] == [4, -8]
    assert data["verdict"] == "passes-du-val-necessary"


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


def test_classify_enumerate(capsys):
    code, out, _ = run(capsys, "classify", "enumerate")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 13
    assert lines[0].startswith("i ")
    assert any("ii-c(12)" in line and "degree=22" in line for line in lines)


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


def test_readme_examples_run(capsys):
    commands = _readme_commands()
    # the block was found and read whole, with both "->" comments
    assert len(commands) >= 11
    assert sum(expected is not None for _, expected in commands) >= 2
    for argv, expected in commands:
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == "", (argv, err)
        if expected is not None:
            assert out.splitlines() == expected, argv


def test_blowup_degree(capsys):
    code, out, _ = run(capsys, "blowup", "degree", "--ambient", "8", "--curve", "2", "--genus", "1")
    assert code == 0 and out == "4\n"


def test_verify_paper_passes(capsys):
    code, out, _ = run(capsys, "verify-paper")
    assert code == 0
    assert out.count("== case") == 13
    assert "FAIL" not in out
    assert "all green" in out


def test_verify_paper_max_degree(capsys):
    code, out, _ = run(capsys, "verify-paper", "--max-degree", "2")
    assert code == 0
    assert out.count("== case") == 1


@pytest.mark.parametrize("cap", ["1", "0", "-3"])
def test_verify_paper_max_degree_below_every_case(capsys, cap):
    # the smallest case degree is 2: a lower cap verifies nothing and must not pass
    code, out, err = run(capsys, "verify-paper", "--max-degree", cap)
    assert code == 3 and out == ""
    assert f"no case has anticanonical degree <= {cap}" in err


@pytest.mark.parametrize("cap", ["x", 2.0, True, [2]])
def test_build_report_rejects_a_non_integer_cap(cap):
    with pytest.raises(FanobaseError):
        build_report(fanobase.__version__, max_degree=cap)


def test_verify_paper_json_round_trip(capsys):
    code, out, _ = run(capsys, "verify-paper", "--json")
    assert code == 0
    parsed = json.loads(out)
    assert parsed["summary"]["failed"] == 0
    assert json.dumps(parsed, indent=2, sort_keys=True) + "\n" == out
    # the report's own serialization is the one layout of its dict
    report = build_report(fanobase.__version__)
    assert report.to_json() == to_json(report.to_dict()) == out[:-1]


def test_verify_paper_outputs_pinned(capsys):
    _, out, _ = run(capsys, "verify-paper", "--json")
    assert len(out.encode()) == VERIFY_JSON_BYTES
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_JSON_SHA256
    _, text, _ = run(capsys, "verify-paper")
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_TEXT_SHA256


def test_verify_paper_deterministic(capsys):
    _, first, _ = run(capsys, "verify-paper", "--json")
    _, second, _ = run(capsys, "verify-paper", "--json")
    assert first == second


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "scroll", "h0", "--d", "5,1,0")
    assert code == 2
    assert "required" in err
    code, out, err = run(capsys, "scroll", "h0", "--d", "5,x,0", "--class", "4,-8")
    assert code == 2 and out == ""
    assert "expected comma-separated integers, got '5,x,0'" in err
    # a class is a pair, on a scroll and on a surface alike
    code, out, err = run(capsys, "scroll", "h0", "--d", "5,1,0", "--class", "1,2,3")
    assert code == 2 and out == ""
    assert "a class is a pair h,f; got '1,2,3'" in err
    code, out, err = run(capsys, "surface", "split", "--e", "4", "--class", "1,2,3")
    assert code == 2 and out == ""
    assert "expected a pair of integers, got '1,2,3'" in err


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


def test_unknown_command_exit_code(capsys):
    code, _, _ = run(capsys, "no-such-command")
    assert code == 2


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "cover", "analyze", "--m", "2")
    assert code == 3
    assert "error:" in err
    code, out, err = run(capsys, "blowup", "degree", "--ambient", "1", "--curve", "0", "--genus", "-1")
    assert code == 3 and out == ""
    assert "genus must be non-negative" in err


def test_arity_domain_error(capsys):
    code, _, err = run(capsys, "scroll", "intersect", "--d", "5,1,0", "--classes", "1,0;1,0")
    assert code == 3
    assert "error:" in err


def test_closed_pipe_exits_quietly():
    # about 400 kB of support lines: far more than a pipe holds, so the
    # writer is still blocked on the pipe when the reader goes away
    env = dict(os.environ, PYTHONPATH=str(Path(fanobase.__file__).resolve().parent.parent))
    argv = ["scroll", "support", "--d", "9,7,4,2,0", "--class", "24,-30"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "fanobase.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"24,0,0,0,0\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_closed_pipe_exits_quietly(demo):
    # unbuffered, so every print is a write that can meet the closed pipe
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(fanobase.__file__).resolve().parent.parent),
        PYTHONUNBUFFERED="1",
    )
    proc = subprocess.Popen(
        [sys.executable, str(DEMOS / demo)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) in (0, -signal.SIGPIPE)
    assert err == b""
