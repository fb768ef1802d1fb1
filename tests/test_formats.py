import json
from fractions import Fraction

import pytest

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


def test_rational_formatting():
    assert format_rational(Fraction(3, 1)) == format_rational(3) == "3"
    assert format_rational(Fraction(-4, 6)) == format_rational("-2/3") == "-2/3"


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


def test_multicomplex_round_trip_random():
    for prof, seed in [("a", 0), ("a", 5), ("b", 2), ("c", 1), ("c", 4)]:
        m = generate(prof, seed)
        text = print_multicomplex(m)
        back, _ = parse_multicomplex(text)
        assert back == m
        assert print_multicomplex(back) == text


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
