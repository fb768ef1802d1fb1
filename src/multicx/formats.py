"""Self-describing textual formats for multicomplexes, operator series and
polyvector structures.

The line formats are versioned, whitespace-separated, and canonical: degrees
ascend, operator indices ascend, entries sort by (source degree, row,
column), rationals print in lowest terms as p or p/q.  A parse of a printed
multicomplex or structure document reproduces the object exactly; the series
format is output only, the gauge note of an `analyze` report.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .complexes import Multicomplex
from .derham import PolyVector
from .errors import ParseError, ShapeMismatch
from .exactla import rat
from .gauge import OperatorSeries
from .graded import GradedMap, GradedVectorSpace

MULTICOMPLEX_HEADER = "multicx multicomplex v1"
SERIES_HEADER = "multicx series v1"
STRUCTURE_FORMAT = "multicx structure v1"


def format_rational(x: Fraction) -> str:
    x = rat(x)
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)


def _degree_lines(space: GradedVectorSpace, out):
    for k, d in space.dims.items():
        out.append("%d %d" % (k, d))


def _entry_lines(f: GradedMap, out):
    for k, r, c, v in f.entries():
        out.append("%d %d %d %s" % (k, r, c, format_rational(v)))


class _Lines:
    """Cursor over meaningful lines, tracking numbers for error messages."""

    def __init__(self, text):
        self.items = []
        for no, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if line and not line.startswith("#"):
                self.items.append((no, line))
        self.pos = 0

    def peek(self):
        return self.items[self.pos] if self.pos < len(self.items) else (None, None)

    def next(self):
        no, line = self.peek()
        if line is None:
            raise ParseError("unexpected end of document")
        self.pos += 1
        return no, line

    def expect(self, want):
        no, line = self.next()
        if line != want:
            raise ParseError("expected %r, found %r" % (want, line), no)


def _parse_int(token, no, what):
    try:
        return int(token)
    except ValueError:
        raise ParseError("bad %s %r" % (what, token), no)


def _parse_rational(token, no):
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError("bad rational %r" % token, no)


def _parse_degrees(lines, terminators):
    dims = {}
    while True:
        no, line = lines.peek()
        if line is None or line in terminators or line.split()[0] in terminators:
            break
        no, line = lines.next()
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("degree lines need two fields", no)
        deg = _parse_int(parts[0], no, "degree")
        dim = _parse_int(parts[1], no, "dimension")
        if deg in dims:
            raise ParseError("degree %d repeated" % deg, no)
        if dim <= 0:
            raise ParseError("dimension must be positive", no)
        dims[deg] = dim
    return dims


def _parse_entries(lines, terminators):
    entries = []
    while True:
        no, line = lines.peek()
        if line is None:
            break
        head = line.split()[0]
        if line in terminators or head in terminators:
            break
        no, line = lines.next()
        parts = line.split()
        if len(parts) != 4:
            raise ParseError("entry lines need four fields", no)
        k = _parse_int(parts[0], no, "source degree")
        r = _parse_int(parts[1], no, "row")
        c = _parse_int(parts[2], no, "column")
        v = _parse_rational(parts[3], no)
        entries.append((k, r, c, v))
    return entries


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
    """Returns (multicomplex, meta dict)."""
    lines = _Lines(text)
    no, header = lines.next()
    if header != MULTICOMPLEX_HEADER:
        raise ParseError("not a multicomplex document (header %r)" % header, no)
    meta = {}
    while True:
        no, line = lines.peek()
        if line is None or not line.startswith("meta "):
            break
        lines.next()
        parts = line.split(None, 2)
        if len(parts) < 3:
            raise ParseError("meta lines need a key and a value", no)
        meta[parts[1]] = parts[2]
    lines.expect("degrees")
    dims = _parse_degrees(lines, {"operator", "end"})
    space = GradedVectorSpace(dims)
    ops = {}
    last = -1
    while True:
        no, line = lines.peek()
        if line == "end":
            lines.next()
            break
        if line is None:
            raise ParseError("missing end marker")
        no, line = lines.next()
        parts = line.split()
        if parts[0] != "operator" or len(parts) != 2:
            raise ParseError("expected an operator section, found %r" % line, no)
        n = _parse_int(parts[1], no, "operator index")
        if n <= last:
            raise ParseError("operator indices must increase", no)
        last = n
        entries = _parse_entries(lines, {"operator", "end"})
        if not entries:
            continue
        try:
            ops[n] = GradedMap.from_entries(space, space, 2 * n - 1, entries)
        except Exception as exc:
            raise ParseError("operator %d: %s" % (n, exc), no)
    # operators past the last section with entries are zero; Multicomplex
    # needs none of them, so none is built
    deltas = [ops[n] if n in ops else GradedMap.zero(space, space, 2 * n - 1)
              for n in range(max(ops, default=-1) + 1)]
    if lines.peek()[1] is not None:
        raise ParseError("trailing content after end", lines.peek()[0])
    return Multicomplex(space, deltas), meta


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
    except json.JSONDecodeError as exc:
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
