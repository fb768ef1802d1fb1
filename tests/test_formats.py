import json
import string
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multicx.complexes import Multicomplex
from multicx.derham import PolyVector
from multicx.errors import ParseError
from multicx.exactla import rat
from multicx.formats import (
    format_rational,
    parse_multicomplex,
    parse_structure,
    polyvector_from_terms,
    polyvector_to_terms,
    print_multicomplex,
    print_structure,
)
from multicx.generators import generate, staircase4
from multicx.graded import GradedMap, GradedVectorSpace
from oracles import cursor_parse_multicomplex


def test_rational_formatting():
    assert format_rational(Fraction(3, 1)) == format_rational(3) == "3"
    assert format_rational(Fraction(-4, 6)) == format_rational("-2/3") == "-2/3"


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.one_of(st.integers(), st.fractions(), st.integers().map(Fraction),
                 st.integers().map(lambda n: Fraction(6 * n, 3))))
def test_entries_print_with_percent_s(v):
    # `.mcx` entries and the gauge note print a held value with %s: str of an
    # int or a Fraction is already p or p/q in lowest terms
    assert "%s" % v == format_rational(v)


# rational tokens are p or p/q in ASCII digits; everything else is refused
ACCEPTED_TOKENS = [("0", 0), ("-3", -3), ("+4", 4), ("007", 7), ("3/7", Fraction(3, 7)),
                   ("-6/4", Fraction(-3, 2)), ("10/5", 2), ("9" * 4000, int("9" * 4000))]
REJECTED_TOKENS = ["1e5", "1e5000", "1.5", ".5", "1_0", "\u0663", "1\u0660", "", "/3", "3/",
                   "3/0", "3/-2", "--1", "0x10", " 1", "1 ", "1" * 5000, "1/" + "1" * 5000]


def test_rational_token_table():
    for token, want in ACCEPTED_TOKENS:
        got = rat(token)
        assert got == want and type(got) is type(want), token[:20]
        doc = "multicx multicomplex v1\ndegrees\n0 1\n1 1\noperator 0\n1 0 0 %s\nend\n" % token
        m, _ = parse_multicomplex(doc)
        assert m.delta(0).block(1).get(0, 0) == want
        w = polyvector_from_terms(
            [{"coefficient": token, "monomial": [0, 0], "indices": [1, 2]}], 2, 2)
        assert w.terms.get(((0, 0), (0, 1)), 0) == want
    for token in REJECTED_TOKENS:
        with pytest.raises((ValueError, ZeroDivisionError)):
            rat(token)
        with pytest.raises(ParseError, match="bad coefficient") as exc:
            polyvector_from_terms(
                [{"coefficient": token, "monomial": [0, 0], "indices": [1, 2]}], 2, 2)
        assert repr(token) in str(exc.value)
        if token and token == token.strip():
            doc = "multicx multicomplex v1\ndegrees\n0 1\n1 1\noperator 0\n1 0 0 %s\nend\n"
            with pytest.raises(ParseError, match="line 6: bad rational") as exc:
                parse_multicomplex(doc % token)
            assert repr(token) in str(exc.value)


def test_integer_tokens_are_ascii_digits():
    for token in ["1_0", "\u0661", "+-1", "1.0", "1" * 5000]:
        doc = "multicx multicomplex v1\ndegrees\n0 %s\nend\n" % token
        with pytest.raises(ParseError, match="bad dimension"):
            parse_multicomplex(doc)
        doc = "multicx multicomplex v1\ndegrees\n%s 1\nend\n" % token
        with pytest.raises(ParseError, match="bad degree"):
            parse_multicomplex(doc)
    m, _ = parse_multicomplex("multicx multicomplex v1\ndegrees\n-2 +3\nend\n")
    assert m.space.dims == {-2: 3}
    # a JSON integer past the digit limit is an input error, not a fault
    with pytest.raises(ParseError, match="not valid JSON"):
        parse_structure('{"dim": 2, "bivector": [{"coefficient": %s, "monomial": [0, 0], '
                        '"indices": [1, 2]}]}' % ("1" * 5000))


def test_multicomplex_round_trip_staircase():
    m = staircase4()
    text = print_multicomplex(m, meta={"generator": "hand", "seed": 0})
    back, meta = parse_multicomplex(text)
    assert back == m
    assert meta == {"generator": "hand", "seed": "0"}
    assert print_multicomplex(back, meta=meta) == text


META_KEYS = st.text(string.ascii_letters + string.digits + "-_.", min_size=1, max_size=8)
META_VALUES = st.text(string.ascii_letters + string.digits + string.punctuation + " ",
                      min_size=1, max_size=12).filter(lambda v: v == v.strip())


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.sampled_from("abc"), st.integers(0, 10 ** 6),
       st.dictionaries(META_KEYS, META_VALUES, max_size=3))
def test_multicomplex_round_trip_random(prof, seed, meta):
    # print o parse is the identity on documents, and parse o print on
    # multicomplexes with their meta lines
    m = generate(prof, seed)
    text = print_multicomplex(m, meta)
    back, back_meta = parse_multicomplex(text)
    assert back == m and back_meta == meta
    assert print_multicomplex(back, back_meta) == text


def parse_outcome(parse, text):
    """What a parser makes of a document: its result, or the type and
    message of what it raised."""
    try:
        return parse(text)
    except Exception as exc:
        return type(exc).__name__, str(exc)


EDGE_DOCUMENTS = [
    "",
    "\n  \n# only a comment\n",
    "multicx multicomplex v1\n",
    "multicx multicomplex v1\nmeta\n",
    "multicx multicomplex v1\nmeta key\ndegrees\nend\n",
    "multicx multicomplex v1\nmeta key value\n",
    "multicx multicomplex v1\ndegrees\n",
    "multicx multicomplex v1\ndegrees\n0 1\n1 1\noperator 0\n1 0 0 1\n",
    "multicx multicomplex v1\ndegrees\n0 1\n1 1\noperator 0\n1 0 5 1\n",
    "multicx multicomplex v1\ndegrees\n0 1\nend\nend\n",
    "multicx multicomplex v1\ndegrees\n0 1\noperator 0\nend\n0 0 0 1\n",
    "multicx multicomplex v1\ndegrees\n0 1\nend x\n",
    "multicx multicomplex v1\ndegrees\n0 1\noperator\nend\n",
    "multicx multicomplex v1\ndegrees\n0 1\n1 1\noperator 0\n1 0 1 1\n1 0 x 1\nend\n",
    "multicx multicomplex v1\ndegrees\n0 1\n1 1\noperator 0\n1 0 1 1\noperator 0\nend\n",
    "multicx multicomplex v1\ndegrees\nend\n",
]


def mutations(text, count, seed):
    """`count` documents, each `text` with one to three characters
    replaced, deleted or inserted at seeded positions."""
    alphabet = string.digits + " \n-+/#xmeoprtadn"
    for i in range(count):
        rng = Random(seed + i)
        chars = list(text)
        for _ in range(rng.randint(1, 3)):
            pos = rng.randrange(len(chars) + 1)
            op = rng.randrange(3)
            if op == 0 and pos < len(chars):
                chars[pos] = rng.choice(alphabet)
            elif op == 1 and pos < len(chars):
                del chars[pos]
            else:
                chars.insert(pos, rng.choice(alphabet))
        yield "".join(chars)


def test_parser_agrees_with_the_cursor_parser_on_mutated_documents():
    # the one-pass parser returns what the cursor parser returns, or raises
    # the same error: same message, same line, same first fault
    text = print_multicomplex(generate("a", 1), {"generator": "profile-a", "seed": 1})
    docs = EDGE_DOCUMENTS + [text] + list(mutations(text, 3000, 7000))
    errors = 0
    for doc in docs:
        want = parse_outcome(cursor_parse_multicomplex, doc)
        assert parse_outcome(parse_multicomplex, doc) == want, doc
        errors += isinstance(want[0], str)
    # most mutations break the document, but not all of them
    assert 1000 < errors < len(docs)


def test_multicomplex_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError):
        parse_multicomplex("not a header\n")
    doc = "multicx multicomplex v1\ndegrees\n0 1\noperator 0\n0 0 0 oops\nend\n"
    with pytest.raises(ParseError) as exc:
        parse_multicomplex(doc)
    assert "line 5" in str(exc.value)
    doc = "multicx multicomplex v1\ndegrees\n0 1\n0 2\nend\n"
    with pytest.raises(ParseError):
        parse_multicomplex(doc)


def test_multicomplex_rejects_misordered_operators():
    doc = ("multicx multicomplex v1\ndegrees\n0 1\n1 1\n"
           "operator 1\noperator 0\nend\n")
    with pytest.raises(ParseError):
        parse_multicomplex(doc)


def test_multicomplex_parse_builds_no_trailing_zero_operators(monkeypatch):
    # a high operator section with no entries must not cost one zero map per
    # index below it
    built = []
    zero = GradedMap.zero
    monkeypatch.setattr(GradedMap, "zero",
                        staticmethod(lambda *args: built.append(args) or zero(*args)))
    doc = ("multicx multicomplex v1\ndegrees\n0 1\n1 1\n"
           "operator 0\n1 0 0 2\noperator 100000\nend\n")
    m, _ = parse_multicomplex(doc)
    assert len(built) <= 2
    space = GradedVectorSpace({0: 1, 1: 1})
    d = GradedMap.from_entries(space, space, -1, [(1, 0, 0, 2)])
    assert m == Multicomplex(space, [d])
    assert m.order == 0


def test_polyvector_terms_round_trip():
    p = PolyVector(3, {((0, 1, 0), (1, 2)): Fraction(-1, 2),
                       ((0, 0, 0), (0,)): 3})
    terms = polyvector_to_terms(p)
    assert all(set(t) == {"coefficient", "monomial", "indices"} for t in terms)
    assert polyvector_from_terms(terms, 3) == p


def test_structure_round_trip_and_validation():
    w = PolyVector(3, {((0, 0, 0), (0, 1)): 1, ((0, 1, 0), (1, 2)): -1})
    e = PolyVector(3, {((0, 0, 0), (2,)): -1})
    text = print_structure(3, w, e)
    dim, back_w, back_e = parse_structure(text)
    assert (dim, back_w, back_e) == (3, w, e)
    dim, back_w, back_e = parse_structure(text, dim=3)
    assert back_w == w
    with pytest.raises(ParseError):
        parse_structure(text, dim=2)
    with pytest.raises(ParseError):
        parse_structure("{broken json")
    with pytest.raises(ParseError):
        parse_structure("{\"dim\": 2}")


def test_structure_round_trip_keeps_a_zero_vector_field():
    # (w, 0) is a Jacobi pair; its file must carry the zero field, which
    # `--kind jacobi` and `basic` need, and None must still write no key
    w = PolyVector(3, {((0, 0, 0), (0, 1)): 1})
    text = print_structure(3, w, PolyVector.zero(3))
    assert json.loads(text)["vector"] == []
    assert parse_structure(text) == (3, w, PolyVector.zero(3))
    text = print_structure(3, w)
    assert "vector" not in json.loads(text)
    assert parse_structure(text) == (3, w, None)


COEFFICIENTS = [1, -1, 7, -(2 ** 70), Fraction(1, 2), Fraction(-3, 7), Fraction(5, 2 ** 40)]


def polyvectors(dim, degree):
    """Polyvectors on dim coordinates whose terms carry `degree` indices,
    with exponents up to 3 and int or Fraction coefficients."""
    term = st.tuples(st.tuples(*[st.integers(0, 3)] * dim),
                     st.lists(st.integers(0, dim - 1), min_size=degree, max_size=degree,
                              unique=True).map(lambda J: tuple(sorted(J))),
                     st.sampled_from(COEFFICIENTS))
    if dim < degree:
        return st.just(PolyVector.zero(dim))
    return st.lists(term, max_size=6).map(
        lambda ts: PolyVector(dim, [((alpha, J), c) for alpha, J, c in ts]))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.data())
def test_structure_round_trip_random(data):
    # a present, absent or zero vector field, on every dimension 0..5
    dim = data.draw(st.integers(0, 5))
    w = data.draw(polyvectors(dim, 2))
    e = data.draw(st.sampled_from(["present", "absent", "zero"]))
    e = {"present": data.draw(polyvectors(dim, 1)), "absent": None,
         "zero": PolyVector.zero(dim)}[e]
    text = print_structure(dim, w, e)
    assert parse_structure(text) == (dim, w, e)
    assert parse_structure(text, dim=dim) == (dim, w, e)
    assert print_structure(*parse_structure(text)) == text
