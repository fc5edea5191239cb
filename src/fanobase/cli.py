"""Command line front end.

Every number printed here is an exact integer.  Divisor classes are
comma-separated pairs ``h,f`` meaning h*O(1) + f*F, so the classical
system O(k) - l*F is written ``k,-l``.  Exit codes: 0 success (or all
checks passed), 1 check failure, 2 usage error, 3 domain error, 141
output pipe closed by the reader (as in ``| head``; nothing is printed).
"""

import argparse
import os
import sys

from . import __version__
from .errors import FanobaseError
from .scroll import DivisorClass, Scroll, h0, intersect, monomial_support, support_size

# Each _cmd_* imports the other modules it uses, so a process loads only its
# subcommand's modules: `scroll h0` or `blowup degree` load none of classify,
# cover, report, json or fractions, and `cover analyze` loads report and json
# only for --json.  scroll stays here for the argparse types.

# largest support `scroll support` prints, one line per monomial
SUPPORT_LIMIT = 10**6
# largest truncation degree `wps hilbert` expands, one coefficient per degree
HILBERT_LIMIT = 10**5

CLASS_HELP = (
    "divisor class h,f meaning h*O(1) + f*F (the system O(k) - l*F is k,-l); "
    "write a negative h as --class=-1,3"
)


def _csv_ints(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _divisor_class(text: str) -> DivisorClass:
    values = _csv_ints(text)
    if len(values) != 2:
        raise argparse.ArgumentTypeError(f"a class is a pair h,f; got {text!r}")
    return DivisorClass(*values)


def _class_list(text: str) -> list:
    return [_divisor_class(part) for part in text.split(";") if part.strip()]


def _int_pair(text: str) -> tuple:
    values = _csv_ints(text)
    if len(values) != 2:
        raise argparse.ArgumentTypeError(f"expected a pair of integers, got {text!r}")
    return values


def _emit(data: dict, as_json: bool, render) -> int:
    """Print ``data`` as JSON or as ``render(data)``; exit 1 if its summary counts failures."""
    if as_json:
        from .report import to_json
        render = to_json
    print(render(data))
    return 1 if data.get("summary", {}).get("failed") else 0


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _verify_text(data: dict) -> str:
    lines = []
    current = None
    for record in data["checks"]:
        if record["case"] != current:
            current = record["case"]
            lines.append(f"== case {current}")
        status = "ok  " if record["pass"] else "FAIL"
        lines.append(
            f"  {status} {record['name']}: expected {record['expected']}, got {record['got']}"
        )
    summary = data["summary"]
    lines.append(
        f"summary: {summary['passed']} passed, {summary['failed']} failed "
        f"({'failures present' if summary['failed'] else 'all green'})"
    )
    return "\n".join(lines)


def _cmd_verify(args) -> int:
    from .report import build_report
    report = build_report(__version__, max_degree=args.max_degree)
    return _emit(report.to_dict(), args.json, _verify_text)


def _cmd_scroll(args) -> int:
    scroll = Scroll(args.d)
    if args.scroll_op == "h0":
        print(h0(scroll, args.klass))
    elif args.scroll_op == "support":
        size = support_size(scroll, args.klass)
        if size > SUPPORT_LIMIT:
            raise FanobaseError(
                f"the support of {args.klass} on {scroll!r} has {size} monomials, "
                f"more than the {SUPPORT_LIMIT} this command prints"
            )
        for e in sorted(monomial_support(scroll, args.klass), reverse=True):
            print(_csv(e))
    else:  # intersect
        classes = args.classes if args.classes else []
        if args.klass is not None:
            classes = [args.klass] + classes
        print(intersect(scroll, classes))
    return 0


def _cmd_surface(args) -> int:
    from .hirzebruch import SurfaceClass, forced_minimal_decomposition
    xi, fib = args.klass
    mu, residual = forced_minimal_decomposition(SurfaceClass(args.e, xi, fib))
    print(f"multiplicity {mu}")
    print(f"residual {residual.xi},{residual.fib}")
    return 0


def _cmd_k3(args) -> int:
    from .hirzebruch import SurfaceClass
    from .k3pencil import (
        base_locus_dimension,
        blowup_section_reduce,
        cover_pullback,
        fano_degree,
        saint_donat_form,
    )
    m = args.m
    start = SurfaceClass(4, 1, m)
    pulled = cover_pullback(start)
    reduced = blowup_section_reduce(pulled)
    normal_form = saint_donat_form(reduced)
    print(f"hyperplane class on Sigma_4: 1,{m}")
    print(f"cover pullback: {pulled.gamma},{pulled.ell}")
    print(f"after section blowdown: {reduced.gamma},{reduced.ell}")
    print(f"pencil multiplicity: {normal_form}")
    print(f"anticanonical degree: {fano_degree(normal_form)}")
    print(f"base locus dimension: {base_locus_dimension(normal_form)}")
    return 0


def _cmd_wps(args) -> int:
    from .wps import WeightedCI, hilbert_coeffs, infer_ring
    if args.wps_op == "hilbert":
        if args.max > HILBERT_LIMIT:
            raise FanobaseError(
                f"--max {args.max} is more than the {HILBERT_LIMIT} degrees this command expands"
            )
        ci = WeightedCI(args.weights, args.degrees)
        print(_csv(hilbert_coeffs(ci, args.max)))
    else:  # infer
        gens, rels = infer_ring(list(args.series))
        print("generators " + (_csv(gens) if gens else "(none)"))
        print("relations " + (_csv(rels) if rels else "(none)"))
    return 0


def _cover_text(data: dict) -> str:
    return "\n".join([
        f"m {data['m']}",
        f"base F({_csv(data['base'])})",
        f"branch {_csv(data['branch'])}",
        f"fixed-component {_csv(data['b_class'])} multiplicity {data['b_mult']}",
        f"residual {_csv(data['residual'])}",
        f"fiber-multiplicity {data['fiber_mult']}",
        f"verdict {data['verdict']}",
    ])


def _cmd_cover(args) -> int:
    from .cover import analyze_cover
    return _emit(analyze_cover(args.m).to_dict(), args.json, _cover_text)


def _cmd_classify(args) -> int:
    from .classify import enumerate_cases
    for case in enumerate_cases():
        nb = f"({case.nb.a},{case.nb.b})" if case.nb else "none"
        print(
            f"{case.label:<9} m={case.m:<3} degree={case.degree:<3} "
            f"bs_dim={case.bs_dim} W={case.w:<9} nb={nb:<9} {case.construction}"
        )
    return 0


def _cmd_blowup(args) -> int:
    from .blowup import BlowupStep, blowup_degree
    print(blowup_degree(BlowupStep(args.ambient, args.curve, args.genus)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fanobase",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-paper", help="run every classification check")
    p.add_argument("--json", action="store_true", help="emit the machine-readable report")
    p.add_argument("--max-degree", type=int, default=None, metavar="N",
                   help="only verify cases of anticanonical degree <= N")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("scroll", help="linear systems and intersection numbers on scrolls")
    scroll_sub = p.add_subparsers(dest="scroll_op", required=True)
    for op, description in (
        ("h0", "dimension of the space of sections"),
        ("support", "exponent vectors with non-zero coefficient space"),
        ("intersect", "top intersection number of rank many classes"),
    ):
        q = scroll_sub.add_parser(op, help=description)
        q.add_argument("--d", type=_csv_ints, required=True, metavar="CSV",
                       help="twists d1,...,dn of the scroll")
        q.add_argument("--class", dest="klass", type=_divisor_class,
                       required=(op != "intersect"), metavar="H,F", help=CLASS_HELP)
        if op == "intersect":
            q.add_argument("--classes", type=_class_list, metavar="H,F;H,F;...",
                           help="semicolon-separated list of classes")
        q.set_defaults(func=_cmd_scroll)

    p = sub.add_parser("surface", help="divisor classes on Hirzebruch surfaces")
    surface_sub = p.add_subparsers(dest="surface_op", required=True)
    q = surface_sub.add_parser("split", help="split off forced copies of the minimal section")
    q.add_argument("--e", type=int, required=True, help="surface index")
    q.add_argument("--class", dest="klass", type=_int_pair, required=True,
                   metavar="XI,FIB", help="class xi,fib in the (minimal section, fiber) basis")
    q.set_defaults(func=_cmd_surface)

    p = sub.add_parser("k3", help="elliptic pencil lattice on the anticanonical K3")
    k3_sub = p.add_subparsers(dest="k3_op", required=True)
    q = k3_sub.add_parser("chain", help="pullback / blowdown / normal form chain for one m")
    q.add_argument("--m", type=int, required=True, help="pencil multiplicity, m >= 2")
    q.set_defaults(func=_cmd_k3)

    p = sub.add_parser("wps", help="weighted Hilbert series and ring inference")
    wps_sub = p.add_subparsers(dest="wps_op", required=True)
    q = wps_sub.add_parser("hilbert", help="expand the Hilbert series")
    q.add_argument("--weights", type=_csv_ints, required=True, metavar="CSV")
    q.add_argument("--degrees", type=_csv_ints, default=(), metavar="CSV",
                   help="relation degrees (may be empty)")
    q.add_argument("--max", type=int, default=24, metavar="N", help="truncation degree")
    q.set_defaults(func=_cmd_wps)
    q = wps_sub.add_parser("infer", help="infer generators and relations from a dimension sequence")
    q.add_argument("--series", type=_csv_ints, required=True, metavar="CSV")
    q.set_defaults(func=_cmd_wps)

    p = sub.add_parser("cover", help="branch analysis of the anticanonical double covers")
    cover_sub = p.add_subparsers(dest="cover_op", required=True)
    q = cover_sub.add_parser("analyze", help="run the branch pipeline for one m")
    q.add_argument("--m", type=int, required=True, help="family parameter, m >= 3")
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=_cmd_cover)

    p = sub.add_parser("classify", help="the thirteen classification cases")
    classify_sub = p.add_subparsers(dest="classify_op", required=True)
    q = classify_sub.add_parser("enumerate", help="list all cases with their invariants")
    q.set_defaults(func=_cmd_classify)

    p = sub.add_parser("blowup", help="anticanonical degree bookkeeping for curve blowups")
    blowup_sub = p.add_subparsers(dest="blowup_op", required=True)
    q = blowup_sub.add_parser("degree", help="degree after blowing up a curve")
    q.add_argument("--ambient", type=int, required=True, help="(-K)^3 before the blowup")
    q.add_argument("--curve", type=int, required=True, help="-K . C")
    q.add_argument("--genus", type=int, required=True, help="genus of the curve")
    q.set_defaults(func=_cmd_blowup)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except FanobaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # reader gone: the exit-time flush of what is buffered goes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    raise SystemExit(main())
