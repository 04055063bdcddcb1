"""Command-line front end.

Commands:
    validate <file>
    homology <file> [--theory hochschild|cyclic|bar] [--dual]
                    [--max-degree N] [--format text|json]
    trace <file>
    excision <file> [--max-degree N] [--format text|json] [--force]

Exit codes: 0 ok; 1 invalid input (a non-associative algebra, an
invalid extension) or a failed internal invariant (LiftFailure,
ClosureViolation, WellDefinednessViolation, InducedMapNotWellDefined,
ContractionFailure, SurrogateNotMet, NotAComplex), reported on one
stderr line that names the layer; 2 parse or usage error (including a
negative --max-degree); 3 degree cap exceeded.  All rationals appear
as "p/q" strings; the text and JSON renderings come from the same
report value.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import validate_algebra, validate_extension
from .complexes import (
    LiftFailure, NotAComplex, WellDefinednessViolation, cohomology_dims,
    homology_dims,
)
from .excision import SurrogateNotMet, excision_report
from .fileio import ParseError, load_document
from .hochschild import (
    ClosureViolation, ContractionFailure, DegreeCapExceeded,
    InducedMapNotWellDefined, bar_complex, cyclic_complex,
    hochschild_complex, trace_space,
)
from .linalg import format_q

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_CAP = 3

# raised only when an internal invariant breaks, never by bad input
INVARIANT_FAILURES = (
    LiftFailure, ClosureViolation, WellDefinednessViolation,
    InducedMapNotWellDefined, ContractionFailure, SurrogateNotMet,
    NotAComplex,
)

_SUBSCRIPT = str.maketrans("0123456789", "₀₁₂₃₄"
                           "₅₆₇₈₉")
_SUPERSCRIPT = str.maketrans("0123456789", "⁰¹²³⁴"
                             "⁵⁶⁷⁸⁹")

_THEORY_SYMBOL = {"hochschild": "H", "cyclic": "HC", "bar": "HR"}


def _emit(payload, fmt: str, text_renderer):
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        text_renderer(payload)


def cmd_validate(args) -> int:
    kind, obj = load_document(args.file)
    if kind == "algebra":
        violations = validate_algebra(obj)
        if violations:
            for v in violations:
                print("associativity fails at triple %r: (ab)c = %r, "
                      "a(bc) = %r" % (v["triple"],
                                      {k: format_q(x) for k, x in v["left"].items()},
                                      {k: format_q(x) for k, x in v["right"].items()}))
            return EXIT_FAIL
        print("valid algebra: dim %d" % obj.dim)
        return EXIT_OK
    bad = validate_extension(obj)
    if bad is not None:
        print("invalid extension: %s" % json.dumps(bad, default=format_q))
        return EXIT_FAIL
    print("valid extension: dims B=%d A=%d D=%d"
          % (obj.B.dim, obj.A.dim, obj.D.dim))
    return EXIT_OK


def _build_for_theory(alg, theory: str, n: int, force: bool):
    if theory == "hochschild":
        return hochschild_complex(alg, n, force)
    if theory == "bar":
        return bar_complex(alg, n, force)
    return cyclic_complex(alg, n, force)[0]


def _load_associative(args, command: str):
    """The algebra in args.file; ParseError for an extension file,
    ValueError naming a triple for a non-associative algebra."""
    kind, alg = load_document(args.file)
    if kind != "algebra":
        raise ParseError("%s: %s expects an algebra file" % (args.file, command))
    violations = validate_algebra(alg)
    if violations:
        raise ValueError("not an associative algebra: (ab)c != a(bc) for "
                         "the basis triple %r" % (violations[0]["triple"],))
    return alg


def cmd_homology(args) -> int:
    alg = _load_associative(args, "homology")
    n = args.max_degree
    K = _build_for_theory(alg, args.theory, n, args.force)
    dims = cohomology_dims(K, n) if args.dual else homology_dims(K, n)
    payload = {"theory": args.theory, "dual": args.dual, "dims": dims}

    def text(p):
        sym = _THEORY_SYMBOL[p["theory"]]
        for deg, d in enumerate(p["dims"]):
            if p["dual"]:
                label = sym + str(deg).translate(_SUPERSCRIPT)
            else:
                label = sym + str(deg).translate(_SUBSCRIPT)
            print("%s = %d" % (label, d))

    _emit(payload, args.format, text)
    return EXIT_OK


def cmd_trace(args) -> int:
    tr = trace_space(_load_associative(args, "trace"))
    basis = [[format_q(col.get(r, 0)) for r in range(tr.ambient_dim)]
             for col in tr.basis.column_dicts()]
    payload = {"dim": tr.dim, "basis": basis}

    def text(p):
        print("trace space dimension %d" % p["dim"])
        for vec in p["basis"]:
            print("  functional: [%s]" % ", ".join(vec))

    _emit(payload, args.format, text)
    return EXIT_OK


def _render_excision_text(report):
    hyp = report["hypothesis"]
    print("extension dims: B=%(B)d A=%(A)d D=%(D)d"
          % report["extension"]["dims"])
    print("hypothesis (one-sided unit of B): %s"
          % ("met (%s unit)" % hyp["unit"]["side"] if hyp["met"] else "UNMET"))
    print("bar homology of B: %r (vanishes: %s)"
          % (hyp["bar_homology_B"], hyp["bar_homology_vanishes"]))
    for seq in report["sequences"]:
        print("sequence [%s]: %s" % (seq["name"],
                                     "exact" if seq["exact"] else "NOT exact"))
        for nd in seq["nodes"]:
            mark = "" if nd["in_window"] else "  (boundary)"
            defect = "-" if nd["defect"] is None else str(nd["defect"])
            print("    degree %d  H(%s)  dim %d  defect %s%s"
                  % (nd["degree"], nd["group"], nd["dim"], defect, mark))
    for seq in report["snake_sequences"]:
        print("snake [%s]: %s" % (seq["name"],
                                  "exact" if seq["exact"] else "NOT exact"))
    print("comparison quasi-isomorphism: %s"
          % json.dumps(report["comparison"]))
    print("bar invariance: HR(A) = %r, HR(D) = %r, equal: %s"
          % (report["bar_invariance"]["HR_A"],
             report["bar_invariance"]["HR_D"],
             report["bar_invariance"]["equal"]))
    print("note: %s" % report["surrogate_note"])
    print("verdict: %s" % report["verdict"])
    if report["verdict"].startswith("out-of-hypothesis"):
        print("warning: hypothesis unmet; excision failure here is "
              "expected, not an error")


def cmd_excision(args) -> int:
    kind, ext = load_document(args.file)
    if kind != "extension":
        raise ParseError("%s: excision expects an extension file" % args.file)
    report = excision_report(ext, args.max_degree, args.force)
    _emit(report, args.format, _render_excision_text)
    return EXIT_FAIL if report["verdict"] == "theorem-violated" else EXIT_OK


def nonnegative_int(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError("must be >= 0, got %d" % n)
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alghom",
        description="Simplicial, cyclic and bar homology of "
                    "finite-dimensional algebras over Q, with excision "
                    "diagnostics for extensions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, theory=False, dual=False):
        p.add_argument("file", help="algebra or extension JSON file")
        p.add_argument("--max-degree", type=nonnegative_int, default=3,
                       metavar="N", help="top reported degree (default 3)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--force", action="store_true",
                       help="override the degree cap")
        if theory:
            p.add_argument("--theory",
                           choices=("hochschild", "cyclic", "bar"),
                           default="hochschild")
        if dual:
            p.add_argument("--dual", action="store_true",
                           help="report cohomology instead of homology")

    p = sub.add_parser("validate", help="check an algebra or extension file")
    p.add_argument("file")
    p = sub.add_parser("homology", help="per-degree homology dimensions")
    common(p, theory=True, dual=True)
    p = sub.add_parser("trace", help="trace-space dimension and basis")
    p.add_argument("file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p = sub.add_parser("excision", help="full excision report for an extension")
    common(p)
    return parser


_COMMANDS = {
    "validate": cmd_validate,
    "homology": cmd_homology,
    "trace": cmd_trace,
    "excision": cmd_excision,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_FAIL
    except DegreeCapExceeded as exc:
        print("degree cap exceeded: %s" % exc, file=sys.stderr)
        return EXIT_CAP
    except INVARIANT_FAILURES as exc:
        layer = type(exc).__module__.rsplit(".", 1)[-1]
        message = " ".join(str(exc).split())
        print("internal invariant failed in layer %s: %s: %s"
              % (layer, type(exc).__name__, message), file=sys.stderr)
        return EXIT_FAIL


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
