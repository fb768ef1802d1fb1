"""The paper's theorem on the Jacobi builder: for a Jacobi pair, and so for a
Poisson bivector w as the pair (w, 0), the de Rham multicomplex satisfies
every identity, its spectral sequence degenerates at page one, and the
truncated de Rham cohomology is Q in degree 0.  Each structure goes through
a random unimodular integer change of coordinates first, which keeps the
structure equations and the polynomial degrees of the coefficients."""

import json
from itertools import combinations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from multicx.cli import main
from multicx.derham import FormAlgebra, PolyVector, basic_subcomplex, schouten
from multicx.formats import polyvector_to_terms, print_structure
from oracles import solved_basic_subcomplex


def bivector(dim, terms):
    """sum c x^alpha d_i ^ d_j from [(c, alpha, (i, j))], indices from 1."""
    return PolyVector(dim, [((alpha, (i - 1, j - 1)), c) for c, alpha, (i, j) in terms])


SO3 = bivector(3, [(1, (0, 0, 1), (1, 2)), (1, (1, 0, 0), (2, 3)), (-1, (0, 1, 0), (1, 3))])
SL2 = bivector(3, [(2, (0, 1, 0), (1, 2)), (-2, (0, 0, 1), (1, 3)), (1, (1, 0, 0), (2, 3))])
HEISENBERG = bivector(3, [(1, (0, 0, 1), (1, 2))])
AFF2 = bivector(2, [(1, (0, 1), (1, 2))])
CONTACT = (bivector(3, [(1, (0, 0, 0), (1, 2)), (-1, (0, 1, 0), (2, 3))]),
           PolyVector(3, {((0, 0, 0), (2,)): -1}))
NONZERO = st.sampled_from([1, -1, 2, -3])


def direct_sum(p, q):
    return PolyVector(p.dim + q.dim, [((alpha + (0,) * q.dim, J), c)
                                      for (alpha, J), c in p.terms.items()]
                      + [(((0,) * p.dim + alpha, tuple(j + p.dim for j in J)), c)
                         for (alpha, J), c in q.terms.items()])


def exponents(dim, degree):
    """Every exponent vector of total degree at most `degree`."""
    if dim == 0:
        return [()]
    return [(e,) + rest for e in range(degree + 1) for rest in exponents(dim - 1, degree - e)]


@st.composite
def poisson_bivectors(draw):
    """Constant symplectic forms, Lie-Poisson bivectors and their direct
    sums, and f d1 ^ d2 with deg f <= 2, in dimension 2 to 4."""
    kind = draw(st.sampled_from(["symplectic", "lie", "sum", "conformal"]))
    if kind == "symplectic":
        pairs = draw(st.integers(1, 2))
        return bivector(2 * pairs, [(draw(NONZERO), (0,) * 2 * pairs, (2 * k + 1, 2 * k + 2))
                                    for k in range(pairs)])
    if kind == "lie":
        return draw(st.sampled_from([SO3, SL2, HEISENBERG, AFF2]))
    if kind == "sum":
        plane = bivector(2, [(draw(NONZERO), (0, 0), (1, 2))])
        return direct_sum(draw(st.sampled_from([plane, AFF2])), AFF2)
    dim = draw(st.integers(2, 4))
    monomials = exponents(dim, 2)
    coefficients = draw(st.lists(st.sampled_from([0, 0, 1, -1, 2]),
                                 min_size=len(monomials), max_size=len(monomials)))
    return PolyVector(dim, [((alpha, (0, 1)), c) for alpha, c in zip(monomials, coefficients)])


@st.composite
def unimodular(draw, dim):
    """A unimodular integer matrix and its inverse, from elementary row
    additions a_i += k a_j."""
    a = [[int(i == j) for j in range(dim)] for i in range(dim)]
    inv = [row[:] for row in a]
    for i, j, k in draw(st.lists(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1),
                                           st.sampled_from([1, -1, 2])), max_size=3)):
        if i != j:
            a[i] = [x + k * y for x, y in zip(a[i], a[j])]
            # the inverse takes the column operation undoing it
            for row in inv:
                row[j] -= k * row[i]
    return a, inv


def _poly_mul(p, q):
    out = {}
    for a, c in p.items():
        for b, d in q.items():
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, 0) + c * d
    return out


def change_coordinates(p, a, inv):
    """The polyvector p in the coordinates y with x = a y: each coefficient
    f(x) becomes f(a y), and d/dx_j becomes sum_k inv[k][j] d/dy_k, so a term
    d_J picks up the minor of inv on rows K and columns J."""
    dim = p.dim
    linear = [{tuple(int(t == j) for t in range(dim)): a[i][j] for j in range(dim) if a[i][j]}
              for i in range(dim)]
    terms = []
    for (alpha, J), c in p.terms.items():
        poly = {(0,) * dim: c}
        for i, e in enumerate(alpha):
            for _ in range(e):
                poly = _poly_mul(poly, linear[i])
        for K in combinations(range(dim), len(J)):
            if len(J) == 1:
                minor = inv[K[0]][J[0]]
            else:
                minor = inv[K[0]][J[0]] * inv[K[1]][J[1]] - inv[K[0]][J[1]] * inv[K[1]][J[0]]
            terms += [((beta, K), minor * v) for beta, v in poly.items() if minor * v]
    return PolyVector(dim, terms)


# each example reuses the test's directory, environment and captured output
PROPERTY = dict(derandomize=True, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def run_geometry(tmp_path, capsys, kind, w, e, trunc):
    path = tmp_path / "structure.json"
    path.write_text(print_structure(w.dim, w, e), encoding="utf-8")
    code = main(["geometry", "--kind", kind, "--dim", str(w.dim), "--trunc", str(trunc),
                 "--structure", str(path), "--json"])
    return code, json.loads(capsys.readouterr().out)


def assert_theorem(tmp_path, capsys, kind, w, e, trunc):
    code, report = run_geometry(tmp_path, capsys, kind, w, e, trunc)
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert code == 0 and not failed, (kind, trunc, failed)
    assert report["tables"]["homology"] == {"0": 1}


@settings(max_examples=40, **PROPERTY)
@given(st.data())
def test_poisson_bivectors_in_new_coordinates(tmp_path, monkeypatch, capsys, data):
    monkeypatch.setenv("MULTICX_OUTDIR", str(tmp_path))
    w = data.draw(poisson_bivectors())
    w = change_coordinates(w, *data.draw(unimodular(w.dim)))
    trunc = data.draw(st.integers(1, 3))
    assert_theorem(tmp_path, capsys, "jacobi", w, PolyVector.zero(w.dim), trunc)


@settings(max_examples=10, **PROPERTY)
@given(unimodular(3), st.integers(1, 3))
def test_contact_pair_in_new_coordinates(tmp_path, monkeypatch, capsys, frame, trunc):
    monkeypatch.setenv("MULTICX_OUTDIR", str(tmp_path))
    w, e = (change_coordinates(p, *frame) for p in CONTACT)
    for kind in ("jacobi", "basic"):
        assert_theorem(tmp_path, capsys, kind, w, e, trunc)


@settings(max_examples=10, **PROPERTY)
@given(unimodular(3), st.integers(1, 5))
def test_basic_complex_in_new_coordinates_matches_the_solved_restriction(frame, trunc):
    # as tests/test_derham.py checks on the contact pair itself
    w, e = (change_coordinates(p, *frame) for p in CONTACT)
    a = FormAlgebra(3, trunc, weight=True)
    assert basic_subcomplex(w, e, a) == solved_basic_subcomplex(w, e, a)


@settings(max_examples=5, **PROPERTY)
@given(unimodular(3))
def test_non_poisson_bivector_fails_with_its_defect(tmp_path, capsys, frame):
    # [w, w] = -2 x2 d1 ^ d2 ^ d3 for w = x2 d2 ^ d3 + x3 d1 ^ d3
    w = change_coordinates(bivector(3, [(1, (0, 1, 0), (2, 3)), (1, (0, 0, 1), (1, 3))]), *frame)
    defect = schouten(w, w)
    assert not defect.is_zero
    code, report = run_geometry(tmp_path, capsys, "jacobi", w, PolyVector.zero(3), 2)
    assert code == 1
    [check] = report["checks"]
    assert check["name"] == "structure equations hold" and not check["passed"]
    assert check["witness"] == "[w, w] - 2 e ^ w has terms %s" % polyvector_to_terms(defect)
