"""Command line front end.

Every number printed here is an exact integer.  Divisor classes are
comma-separated pairs ``h,f`` meaning h*O(1) + f*F, so the classical
system O(k) - l*F is written ``k,-l``.  A command's text and its
``--json`` are two layouts of one record.  Exit codes: 0 success (or all
checks passed), 1 check failure, 2 usage error, 3 domain error, 141
output pipe closed by the reader (as in ``| head``; nothing is printed).
"""

import argparse
import os
import sys

from . import __version__
from .errors import FanobaseError

# Each _cmd_* returns one record, a dict of ints, strings and lists, that main
# alone prints: as JSON, or through the renderer its leaf parser sets.  A _cmd_*
# imports the modules it uses, so a process loads only its command's modules;
# report and json load only for --json (and report for verify-paper, which
# builds one).

# most exponents `scroll support` prints, a monomial counted as max(rank, 3) of
# them: ranks 2 and 3 print up to 10**6 monomials, one line each
SUPPORT_LIMIT = 3 * 10**6
# largest truncation degree `wps hilbert` expands, one coefficient per degree
HILBERT_LIMIT = 10**5
# most coefficient steps `wps hilbert` takes: each weight and each relation is
# one pass over the max + 1 coefficients (100 weights at --max 99999)
HILBERT_WORK = 10**7

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


def _divisor_class(text: str):
    values = _csv_ints(text)
    if len(values) != 2:
        raise argparse.ArgumentTypeError(f"a class is a pair h,f; got {text!r}")
    from .scroll import DivisorClass
    return DivisorClass(*values)


def _class_list(text: str) -> list:
    return [_divisor_class(part) for part in text.split(";") if part.strip()]


def _int_pair(text: str) -> tuple:
    values = _csv_ints(text)
    if len(values) != 2:
        raise argparse.ArgumentTypeError(f"expected a pair of integers, got {text!r}")
    return values


def _csv(values) -> str:
    """Comma-separated values, or ``(none)`` for no values."""
    return ",".join(str(v) for v in values) or "(none)"


def _fill(template: str):
    """The renderer that fills ``template`` from a record, a list field as ``_csv``."""
    def render(data: dict) -> str:
        return template.format(**{k: _csv(v) if type(v) is list else v for k, v in data.items()})
    return render


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


def _cmd_verify(args) -> dict:
    from .report import build_report
    return build_report(__version__, max_degree=args.max_degree).to_dict()


def _cmd_h0(args) -> dict:
    from .scroll import Scroll, h0
    return {"h0": h0(Scroll(args.d), args.klass)}


def _cmd_support(args) -> dict:
    from .scroll import Scroll, monomial_support, support_size
    scroll = Scroll(args.d)
    size, width = support_size(scroll, args.klass), max(scroll.rank, 3)
    if size * width > SUPPORT_LIMIT:
        raise FanobaseError(
            f"the support of {args.klass} on {scroll!r} has {size} monomials, "
            f"more than the {SUPPORT_LIMIT // width} this command prints"
        )
    return {"support": sorted(monomial_support(scroll, args.klass), reverse=True)}


def _support_text(data: dict) -> str:
    return "\n".join(_csv(e) for e in data["support"])


def _cmd_intersect(args) -> dict:
    from .scroll import Scroll, intersect
    classes = args.classes if args.classes else []
    if args.klass is not None:
        classes = [args.klass] + classes
    return {"intersection": intersect(Scroll(args.d), classes)}


def _cmd_surface(args) -> dict:
    from .hirzebruch import SurfaceClass, forced_minimal_decomposition
    xi, fib = args.klass
    mu, residual = forced_minimal_decomposition(SurfaceClass(args.e, xi, fib))
    return {"multiplicity": mu, "residual": [residual.xi, residual.fib]}


def _cmd_k3(args) -> dict:
    from .hirzebruch import SurfaceClass
    from .k3pencil import (base_locus_dimension, blowup_section_reduce, cover_pullback,
                           fano_degree, saint_donat_form)
    pulled = cover_pullback(SurfaceClass(4, 1, args.m))
    reduced = blowup_section_reduce(pulled)
    normal_form = saint_donat_form(reduced)
    return {"hyperplane": [1, args.m], "pullback": [pulled.gamma, pulled.ell],
            "reduced": [reduced.gamma, reduced.ell], "pencil_mult": normal_form,
            "degree": fano_degree(normal_form), "bs_dim": base_locus_dimension(normal_form)}


def _cmd_hilbert(args) -> dict:
    from .wps import DEFAULT_TRUNCATION, WeightedCI, hilbert_coeffs
    n_max = DEFAULT_TRUNCATION if args.max is None else args.max
    if n_max > HILBERT_LIMIT:
        raise FanobaseError(
            f"--max {n_max} is more than the {HILBERT_LIMIT} degrees this command expands"
        )
    work = (len(args.weights) + len(args.degrees)) * (n_max + 1)
    if work > HILBERT_WORK:
        raise FanobaseError(
            f"{len(args.weights)} weights and {len(args.degrees)} relations to degree {n_max} "
            f"are {work} coefficient steps, more than the {HILBERT_WORK} this command takes"
        )
    return {"coefficients": hilbert_coeffs(WeightedCI(args.weights, args.degrees), n_max)}


def _cmd_infer(args) -> dict:
    from .wps import infer_ring
    gens, rels = infer_ring(args.series)
    return {"generators": list(gens), "relations": list(rels)}


def _cmd_cover(args) -> dict:
    from .cover import analyze_cover
    return analyze_cover(args.m).to_dict()


def _cmd_classify(args) -> dict:
    from .classify import enumerate_cases
    return {"cases": [
        {"label": case.label, "m": case.m, "degree": case.degree, "bs_dim": case.bs_dim,
         "w": case.w, "nb": [case.nb.a, case.nb.b] if case.nb else [],
         "construction": case.construction}
        for case in enumerate_cases()
    ]}


def _classify_text(data: dict) -> str:
    lines = []
    for case in data["cases"]:
        nb = f"({_csv(case['nb'])})" if case["nb"] else "none"
        lines.append(
            f"{case['label']:<9} m={case['m']:<3} degree={case['degree']:<3} "
            f"bs_dim={case['bs_dim']} W={case['w']:<9} nb={nb:<9} {case['construction']}"
        )
    return "\n".join(lines)


def _cmd_blowup(args) -> dict:
    from .blowup import BlowupStep, blowup_degree
    return {"degree": blowup_degree(BlowupStep(args.ambient, args.curve, args.genus))}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fanobase",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="print the output record as JSON")

    def group(name: str, description: str):
        parent = sub.add_parser(name, help=description)
        return parent.add_subparsers(dest=f"{name}_op", required=True)

    def leaf(parent, name: str, description: str, func, render):
        q = parent.add_parser(name, help=description, parents=[common])
        q.set_defaults(func=func, render=render)
        return q

    q = leaf(sub, "verify-paper", "run every classification check", _cmd_verify, _verify_text)
    q.add_argument("--max-degree", type=int, default=None, metavar="N",
                   help="only verify cases of anticanonical degree <= N")

    scroll_sub = group("scroll", "linear systems and intersection numbers on scrolls")
    for op, description, func, render in (
        ("h0", "dimension of the space of sections", _cmd_h0, _fill("{h0}")),
        ("support", "exponent vectors with non-zero coefficient space", _cmd_support,
         _support_text),
        ("intersect", "top intersection number of rank many classes", _cmd_intersect,
         _fill("{intersection}")),
    ):
        q = leaf(scroll_sub, op, description, func, render)
        q.add_argument("--d", type=_csv_ints, required=True, metavar="CSV",
                       help="twists d1,...,dn of the scroll")
        q.add_argument("--class", dest="klass", type=_divisor_class,
                       required=(op != "intersect"), metavar="H,F", help=CLASS_HELP)
        if op == "intersect":
            q.add_argument("--classes", type=_class_list, metavar="H,F;H,F;...",
                           help="semicolon-separated list of classes")

    q = leaf(group("surface", "divisor classes on Hirzebruch surfaces"), "split",
             "split off forced copies of the minimal section", _cmd_surface,
             _fill("multiplicity {multiplicity}\nresidual {residual}"))
    q.add_argument("--e", type=int, required=True, help="surface index")
    q.add_argument("--class", dest="klass", type=_int_pair, required=True,
                   metavar="XI,FIB", help="class xi,fib in the (minimal section, fiber) basis")

    q = leaf(group("k3", "elliptic pencil lattice on the anticanonical K3"), "chain",
             "pullback / blowdown / normal form chain for one m", _cmd_k3, _fill(
                 "hyperplane class on Sigma_4: {hyperplane}\ncover pullback: {pullback}\n"
                 "after section blowdown: {reduced}\npencil multiplicity: {pencil_mult}\n"
                 "anticanonical degree: {degree}\nbase locus dimension: {bs_dim}"))
    q.add_argument("--m", type=int, required=True, help="pencil multiplicity, m >= 2")

    wps_sub = group("wps", "weighted Hilbert series and ring inference")
    q = leaf(wps_sub, "hilbert", "expand the Hilbert series", _cmd_hilbert,
             _fill("{coefficients}"))
    q.add_argument("--weights", type=_csv_ints, required=True, metavar="CSV")
    q.add_argument("--degrees", type=_csv_ints, default=(), metavar="CSV",
                   help="relation degrees (may be empty)")
    q.add_argument("--max", type=int, metavar="N", help="truncation degree")
    q = leaf(wps_sub, "infer", "infer generators and relations from a dimension sequence",
             _cmd_infer, _fill("generators {generators}\nrelations {relations}"))
    q.add_argument("--series", type=_csv_ints, required=True, metavar="CSV")

    q = leaf(group("cover", "branch analysis of the anticanonical double covers"), "analyze",
             "run the branch pipeline for one m", _cmd_cover, _fill(
                 "m {m}\nbase F({base})\nbranch {branch}\n"
                 "fixed-component {b_class} multiplicity {b_mult}\nresidual {residual}\n"
                 "fiber-multiplicity {fiber_mult}\nverdict {verdict}"))
    q.add_argument("--m", type=int, required=True, help="family parameter, m >= 3")

    leaf(group("classify", "the thirteen classification cases"), "enumerate",
         "list all cases with their invariants", _cmd_classify, _classify_text)

    q = leaf(group("blowup", "anticanonical degree bookkeeping for curve blowups"), "degree",
             "degree after blowing up a curve", _cmd_blowup, _fill("{degree}"))
    q.add_argument("--ambient", type=int, required=True, help="(-K)^3 before the blowup")
    q.add_argument("--curve", type=int, required=True, help="-K . C")
    q.add_argument("--genus", type=int, required=True, help="genus of the curve")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        data = args.func(args)
        render = args.render
        if args.json:
            from .report import to_json as render
        text = render(data)
        if text:  # an empty support prints no line at all
            print(text)
        sys.stdout.flush()
    except FanobaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # reader gone: the exit-time flush of what is buffered goes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return 1 if data.get("summary", {}).get("failed") else 0


if __name__ == "__main__":
    raise SystemExit(main())
