"""Self-describing textual formats for multicomplexes, operator series and
polyvector structures.

The line formats are versioned, whitespace-separated, and canonical: degrees
ascend, operator indices ascend, entries sort by (source degree, row,
column), rationals print in lowest terms as p or p/q.  A parse of a printed
multicomplex or structure document reproduces the object exactly; the series
format is output only, the gauge note of an `analyze` report.  Parsing is
strict: an integer token is ASCII digits with an optional sign, a rational
token (a `.mcx` entry or a structure coefficient string) is p or p/q of
such digits with q nonzero, and any other token, a decimal, an exponent or
an integer past Python's digit limit included, is a ParseError naming it.
A `.mcx` document is read in one pass, each entry going straight into its
operator's blocks, and the first fault in line order is the one reported.
"""

from __future__ import annotations

import json
import re

from .complexes import Multicomplex, OperatorSeries
from .derham import PolyVector
from .errors import ParseError, ShapeMismatch
from .exactla import Matrix, rat
from .graded import GradedMap, GradedVectorSpace

MULTICOMPLEX_HEADER = "multicx multicomplex v1"
SERIES_HEADER = "multicx series v1"
STRUCTURE_FORMAT = "multicx structure v1"


def format_rational(x) -> str:
    """p or p/q in lowest terms, the same for an int and an equal Fraction."""
    return str(rat(x))


def _degree_lines(space: GradedVectorSpace, out):
    for k, d in space.dims.items():
        out.append("%d %d" % (k, d))


def _entry_lines(f: GradedMap, out):
    for k, r, c, v in f.entries():
        out.append("%d %d %d %s" % (k, r, c, format_rational(v)))


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _parse_int(token, no, what):
    """An integer token: ASCII digits with an optional sign, as `rat` reads
    the numerator of a rational."""
    if _INTEGER.fullmatch(token):
        try:
            return int(token)
        except ValueError:  # past Python's integer digit limit
            pass
    raise ParseError("bad %s %r" % (what, token), no)


def _parse_rational(token, no):
    try:
        return rat(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError("bad rational %r" % token, no)


def print_multicomplex(m: Multicomplex, meta=None) -> str:
    out = [MULTICOMPLEX_HEADER]
    for key, value in (meta or {}).items():
        out.append("meta %s %s" % (key, value))
    out.append("degrees")
    _degree_lines(m.space, out)
    for n in range(m.order + 1):
        out.append("operator %d" % n)
        _entry_lines(m.delta(n), out)
    out.append("end")
    return "\n".join(out) + "\n"


def parse_multicomplex(text: str):
    """Returns (multicomplex, meta dict).

    One pass over the meaningful lines, closed by a sentinel that reads as
    `end` at the end of the document.  After the header and the meta lines,
    the degree section and the operator sections share one loop, where a
    line whose first word is `operator` or `end` closes the section before
    it.  Each entry is appended to its operator's (row, column, value)
    triples for its source degree, and the operator's blocks are built from
    them when its section closes.
    """
    items = [(no, line) for no, line in enumerate((raw.strip() for raw in text.splitlines()), 1)
             if line and not line.startswith("#")] + [(None, "end")]
    no, header = items[0]
    if no is None:
        raise ParseError("unexpected end of document")
    if header != MULTICOMPLEX_HEADER:
        raise ParseError("not a multicomplex document (header %r)" % header, no)
    meta, pos = {}, 1
    while items[pos][1].startswith("meta "):
        no, line = items[pos]
        parts = line.split(None, 2)
        if len(parts) < 3:
            raise ParseError("meta lines need a key and a value", no)
        meta[parts[1]] = parts[2]
        pos += 1
    no, line = items[pos]
    if no is None:
        raise ParseError("unexpected end of document")
    if line != "degrees":
        raise ParseError("expected %r, found %r" % ("degrees", line), no)
    dims, ops, space, last, head_no, per = {}, {}, None, -1, None, {}
    for i in range(pos + 1, len(items)):
        no, line = items[i]
        parts = line.split()
        if parts[0] in ("operator", "end"):
            if space is None:
                space = GradedVectorSpace(dims)
            if per:
                try:
                    ops[last] = GradedMap(space, space, 2 * last - 1, {
                        k: Matrix(space.dim(k + 2 * last - 1), space.dim(k), triples)
                        for k, triples in per.items()})
                except ShapeMismatch as exc:  # an entry outside its block
                    raise ParseError("operator %d: %s" % (last, exc), head_no)
            if no is None:
                raise ParseError("missing end marker")
            if line == "end":
                if items[i + 1][0] is not None:
                    raise ParseError("trailing content after end", items[i + 1][0])
                return Multicomplex(space, OperatorSeries(space, ops)), meta
            if parts[0] != "operator" or len(parts) != 2:
                raise ParseError("expected an operator section, found %r" % line, no)
            n = _parse_int(parts[1], no, "operator index")
            if n <= last:
                raise ParseError("operator indices must increase", no)
            last, head_no, per = n, no, {}
        elif space is None:
            if len(parts) != 2:
                raise ParseError("degree lines need two fields", no)
            deg = _parse_int(parts[0], no, "degree")
            dim = _parse_int(parts[1], no, "dimension")
            if deg in dims:
                raise ParseError("degree %d repeated" % deg, no)
            if dim <= 0:
                raise ParseError("dimension must be positive", no)
            dims[deg] = dim
        else:
            if len(parts) != 4:
                raise ParseError("entry lines need four fields", no)
            k = _parse_int(parts[0], no, "source degree")
            r = _parse_int(parts[1], no, "row")
            c = _parse_int(parts[2], no, "column")
            per.setdefault(k, []).append((r, c, _parse_rational(parts[3], no)))


def print_series(s: OperatorSeries) -> str:
    out = [SERIES_HEADER, "space"]
    _degree_lines(s.space, out)
    for n in sorted(s.coeffs):
        out.append("coefficient %d degree %d" % (n, s.coeffs[n].degree))
        _entry_lines(s.coeffs[n], out)
    out.append("end")
    return "\n".join(out) + "\n"


def polyvector_to_terms(p: PolyVector):
    """JSON-ready term list; indices are 1-based in the file format."""
    out = []
    for (alpha, J), c in p.terms.items():
        out.append({
            "coefficient": format_rational(c),
            "monomial": list(alpha),
            "indices": [j + 1 for j in J],
        })
    return out


def _integer(value, what: str) -> int:
    """A JSON integer; floats and booleans are refused, not truncated."""
    if type(value) is not int:
        raise ParseError("%s must be an integer, got %r" % (what, value))
    return value


def _coefficient(value):
    """A JSON integer or a rational string such as "3/7"; never a float."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ParseError("coefficient must be an integer or a rational string, got %r"
                         % (value,))
    try:
        return rat(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError("bad coefficient %r: %s" % (value, exc))


def polyvector_from_terms(terms, dim: int, degree=None) -> PolyVector:
    """The polyvector of a term list; with `degree`, every term must carry
    exactly that many indices."""
    if not isinstance(terms, list):
        raise ParseError("a polyvector is a list of terms, got %r" % (terms,))
    pairs = []
    for t in terms:
        try:
            coeff = _coefficient(t["coefficient"])
            alpha = tuple(_integer(e, "exponent") for e in t["monomial"])
            indices = tuple(_integer(j, "index") - 1 for j in t["indices"])
        except (KeyError, TypeError) as exc:
            raise ParseError("bad polyvector term %r: %s" % (t, exc))
        if len(alpha) != dim:
            raise ParseError("monomial %r does not have %d exponents" % (t["monomial"], dim))
        if degree is not None and len(indices) != degree:
            raise ParseError("term %r needs exactly %d indices" % (t, degree))
        pairs.append(((alpha, indices), coeff))
    try:
        return PolyVector(dim, pairs)
    except ShapeMismatch as exc:
        raise ParseError("bad polyvector term: %s" % exc)


def print_structure(dim: int, bivector: PolyVector, vector=None) -> str:
    """The structure document; a vector field, the zero one included, is
    written as its term list, and None writes no 'vector' key."""
    doc = {"format": STRUCTURE_FORMAT, "dim": dim,
           "bivector": polyvector_to_terms(bivector)}
    if vector is not None:
        doc["vector"] = polyvector_to_terms(vector)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse_structure(text: str, dim=None):
    """Returns (dim, bivector, vector-or-None); a present 'vector' list, even
    an empty one, is a vector field, and `[]` is the zero field."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
        raise ParseError("structure file is not valid JSON: %s" % exc)
    if not isinstance(doc, dict) or "bivector" not in doc:
        raise ParseError("structure file needs a 'bivector' term list")
    file_dim = doc.get("dim", dim)
    if file_dim is None:
        raise ParseError("structure file lacks 'dim' and no dimension was given")
    file_dim = _integer(file_dim, "dim")
    if file_dim < 0:
        raise ParseError("dim must be nonnegative, got %d" % file_dim)
    if dim is not None and file_dim != dim:
        raise ParseError("structure dim %d conflicts with requested %d" % (file_dim, dim))
    bivector = polyvector_from_terms(doc["bivector"], file_dim, 2)
    vector = None
    if doc.get("vector") is not None:
        vector = polyvector_from_terms(doc["vector"], file_dim, 1)
    return file_dim, bivector, vector
