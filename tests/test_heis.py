"""Heisenberg group and Stone-von-Neumann representation checks, and the
heis checks of the session report."""

from itertools import product

from e8g3.heis import (
    CLASSES,
    COCYCLE,
    FORM,
    VEC_ADD,
    VEC_NEG,
    action,
    build_model,
    class_code,
    code_inverse,
    code_product,
    product_row,
    svn_rep,
    symplectic_basis,
)
from e8g3.rootsys import build_root_system

# the elements as (k, v) tuples, the one at index c coded c
ELEMENTS = [(k, v) for k in range(3) for v in product(range(3), repeat=4)]


def cocycle(v, u):
    """c(v, u) = v_e1 u_f1 + v_e2 u_f2 on symplectic coordinate tuples."""
    return (v[0] * u[2] + v[1] * u[3]) % 3


def _tuple_product(g, h):
    """The group law on (k, v) tuples: the centres add with the cocycle of
    the classes, and the classes add."""
    (k1, v1), (k2, v2) = g, h
    return ((k1 + k2 + cocycle(v1, v2)) % 3,
            tuple((a + b) % 3 for a, b in zip(v1, v2)))


def test_symplectic_basis_defining_relations(report):
    assert report.passed("heis", "symplectic_basis")


def test_change_of_basis_preserves_form():
    rs = build_root_system()
    gram = rs.class_gram()
    back = action(symplectic_basis(rs))
    # the SNF images of the symplectic unit vectors pair under the class
    # Gram matrix as FORM pairs the unit vectors, which is the standard form
    units = (27, 9, 3, 1)
    images = [CLASSES[back[c]] for c in units]
    prod = [[sum(x[a] * gram[a][b] * y[b] for a in range(4)
                 for b in range(4)) % 3 for y in images] for x in images]
    assert prod == [[FORM[a][b] for b in units] for a in units] == [
        [0, 0, 1, 0], [0, 0, 0, 1], [2, 0, 0, 0], [0, 2, 0, 0]]
    # and the map the algebra reads is its inverse permutation
    to = build_model()
    assert [to[c] for c in back] == [back[c] for c in to] == list(range(81))


def test_codes_are_the_tuple_indices():
    assert list(CLASSES) == [v for _, v in ELEMENTS[:81]]
    assert [81 * k + class_code(v) for k, v in ELEMENTS] == list(range(243))


def test_code_product_matches_tuple_law():
    # the law a row at a time, and an entry at a time, on all 243^2 pairs
    index = {g: c for c, g in enumerate(ELEMENTS)}
    identity = ELEMENTS[0]
    for c, g in enumerate(ELEMENTS):
        gi = ELEMENTS[code_inverse(c)]
        assert _tuple_product(g, gi) == _tuple_product(gi, g) == identity
        row = product_row(c)
        assert type(row) is bytes
        assert list(row) == [index[_tuple_product(g, h)] for h in ELEMENTS]
        for d, h in enumerate(ELEMENTS):
            assert code_product(c, d) == index[_tuple_product(g, h)]


def test_group_law():
    for g in range(243):
        assert code_product(g, code_inverse(g)) == 0
        assert code_product(code_product(g, g), g) == 0  # exponent 3
    # associativity spot sweep
    sample = range(0, 243, 13)
    for g in sample:
        for h in sample:
            for k in sample:
                assert (code_product(code_product(g, h), k)
                        == code_product(g, code_product(h, k)))


def test_commutator_is_central_pairing(report):
    assert report.passed("heis", "commutator_is_pairing")


def test_center_and_nonabelian():
    center = [g for g in range(243)
              if all(code_product(g, h) == code_product(h, g)
                     for h in range(243))]
    assert center == [0, 81, 162]


def test_rep_is_homomorphism_all_pairs(report):
    assert report.passed("heis", "rep_homomorphism")


def test_rep_center_tautological():
    for k in range(3):
        # column y: row y, exponent k
        assert svn_rep(81 * k).codes == bytes(3 * y + k for y in range(9))


def test_rep_injective(report):
    assert report.passed("heis", "rep_injective")


def test_rep_traces(report):
    assert report.passed("heis", "rep_traces")


def test_rep_irreducible(report):
    assert report.passed("heis", "rep_irreducible")


def test_tables_match_tuple_formulas():
    # every pair of the 81 x 81 tables against coordinate arithmetic
    for v in CLASSES:
        assert CLASSES[VEC_NEG[class_code(v)]] == tuple(-x % 3 for x in v)
        for u in CLASSES:
            c, d = class_code(v), class_code(u)
            assert CLASSES[VEC_ADD[c][d]] == tuple(
                (x + y) % 3 for x, y in zip(v, u))
            assert COCYCLE[c][d] == cocycle(v, u)
            assert FORM[c][d] == (cocycle(v, u) - cocycle(u, v)) % 3
