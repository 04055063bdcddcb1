"""JSON file formats for algebras and extensions.

Algebra document: {"dim": n, "basis": [names...],
"mult": [[i, j, {"k": "p/q", ...}], ...]} listing nonzero structure
constants with rationals as strings.  A preset descriptor
{"preset": "matrix", "k": 2} is accepted anywhere an inline algebra is.

Extension document: {"B": <algebra>, "A": <algebra>, "D": <algebra>,
"i": [[...]], "j": [[...]]} with i and j row-major arrays of rational
strings.

Rationals serialize as strings "p/q" (never floats) throughout.
"""

from __future__ import annotations

import json

from .algebra import Algebra, AlgebraHom, Extension, preset
from .linalg import Matrix, format_q, parse_q


class ParseError(Exception):
    """Structurally invalid algebra/extension document."""


def _parse_rational(value, where: str):
    if isinstance(value, bool) or isinstance(value, float):
        raise ParseError("%s: rationals must be strings or integers, got %r"
                         % (where, value))
    try:
        return parse_q(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError("%s: bad rational %r (%s)" % (where, value, exc))


def algebra_from_obj(obj) -> Algebra:
    """Build an Algebra from a decoded JSON object (inline or preset)."""
    if not isinstance(obj, dict):
        raise ParseError("algebra must be a JSON object, got %s"
                         % type(obj).__name__)
    if "preset" in obj:
        params = {k: v for k, v in obj.items() if k != "preset"}
        for key in ("a", "b"):
            if key in params and isinstance(params[key], dict):
                params[key] = algebra_from_obj(params[key])
        try:
            return preset(obj["preset"], **params)
        except (ValueError, TypeError) as exc:
            raise ParseError("bad preset descriptor %r: %s" % (obj, exc))
    for field in ("dim", "mult"):
        if field not in obj:
            raise ParseError("algebra object missing field %r" % field)
    dim = obj["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 0:
        raise ParseError("dim must be a nonnegative integer, got %r" % (dim,))
    basis = obj.get("basis")
    if basis is not None:
        if (not isinstance(basis, list) or len(basis) != dim
                or not all(isinstance(b, str) for b in basis)):
            raise ParseError("basis must be a list of %d strings" % dim)
    if not isinstance(obj["mult"], list):
        raise ParseError("mult must be a list of [i, j, {k: rational}] "
                         "entries, got %r" % (obj["mult"],))
    mult = {}
    for entry in obj["mult"]:
        if not (isinstance(entry, list) and len(entry) == 3
                and isinstance(entry[2], dict)):
            raise ParseError("mult entries must be [i, j, {k: rational}], "
                             "got %r" % (entry,))
        i, j, coeffs = entry
        if type(i) is not int or type(j) is not int:
            raise ParseError("mult indices must be integers in %r" % (entry,))
        if not (0 <= i < dim and 0 <= j < dim):
            raise ParseError("mult indices out of range in %r" % (entry,))
        prod = {}
        for k, c in coeffs.items():
            try:
                ki = int(k)
            except ValueError:
                ki = None
            # only the decimal algebra_to_obj writes: no space, "+", "_",
            # leading zero or non-ASCII digit
            if ki is None or str(ki) != k:
                raise ParseError("mult target index %r is not a canonical "
                                 "decimal integer" % (k,))
            if not 0 <= ki < dim:
                raise ParseError("mult target index %d out of range" % ki)
            q = _parse_rational(c, "mult[%d,%d]" % (i, j))
            if q:
                prod[ki] = q
        if (i, j) in mult:
            raise ParseError("duplicate mult entry for (%d, %d)" % (i, j))
        if prod:
            mult[(i, j)] = prod
    return Algebra(dim, basis, mult)


def algebra_to_obj(alg: Algebra) -> dict:
    """Inverse of algebra_from_obj for inline algebras."""
    mult = []
    for (i, j) in sorted(alg.mult):
        coeffs = {str(k): format_q(c)
                  for k, c in sorted(alg.mult[(i, j)].items())}
        mult.append([i, j, coeffs])
    return {"dim": alg.dim, "basis": list(alg.basis_names), "mult": mult}


def _matrix_from_obj(obj, rows: int, cols: int, where: str) -> Matrix:
    if not (isinstance(obj, list) and len(obj) == rows
            and all(isinstance(r, list) and len(r) == cols for r in obj)):
        raise ParseError("%s must be a %dx%d row-major array" % (where, rows, cols))
    entries = {}
    for r, row in enumerate(obj):
        for c, v in enumerate(row):
            q = _parse_rational(v, "%s[%d][%d]" % (where, r, c))
            if q:
                entries[(r, c)] = q
    return Matrix(rows, cols, entries)


def _matrix_to_obj(M: Matrix):
    return [[format_q(row.get(c, 0)) for c in range(M.cols)]
            for row in (dict(d) for d in M.row_dicts())]


def extension_from_obj(obj) -> Extension:
    if not isinstance(obj, dict):
        raise ParseError("extension must be a JSON object")
    for field in ("B", "A", "D", "i", "j"):
        if field not in obj:
            raise ParseError("extension object missing field %r" % field)
    B = algebra_from_obj(obj["B"])
    A = algebra_from_obj(obj["A"])
    D = algebra_from_obj(obj["D"])
    i = _matrix_from_obj(obj["i"], A.dim, B.dim, "i")
    j = _matrix_from_obj(obj["j"], D.dim, A.dim, "j")
    return Extension(B, A, D, AlgebraHom(B, A, i), AlgebraHom(A, D, j))


def extension_to_obj(ext: Extension) -> dict:
    return {
        "B": algebra_to_obj(ext.B),
        "A": algebra_to_obj(ext.A),
        "D": algebra_to_obj(ext.D),
        "i": _matrix_to_obj(ext.i.matrix),
        "j": _matrix_to_obj(ext.j.matrix),
    }


def is_extension_obj(obj) -> bool:
    return isinstance(obj, dict) and "i" in obj and "j" in obj


def load_document(path: str):
    """Read a JSON file and return ('algebra', Algebra) or
    ('extension', Extension).  Raises ParseError (with line/column for
    malformed JSON) on any problem."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc))
    except UnicodeDecodeError as exc:
        raise ParseError("%s: not UTF-8 text: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise ParseError("%s: malformed JSON at line %d column %d: %s"
                         % (path, exc.lineno, exc.colno, exc.msg))
    except (ValueError, RecursionError) as exc:
        # an integer past the int-string limit, or nesting too deep
        raise ParseError("%s: unreadable JSON: %s" % (path, exc))
    try:
        if is_extension_obj(obj):
            return "extension", extension_from_obj(obj)
        return "algebra", algebra_from_obj(obj)
    except RecursionError as exc:
        # presets nested deeper than the conversion can recurse
        raise ParseError("%s: presets nested too deep: %s" % (path, exc))


def dump_document(obj, path: str):
    """Write an Algebra or Extension as a JSON file."""
    doc = extension_to_obj(obj) if isinstance(obj, Extension) else algebra_to_obj(obj)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
