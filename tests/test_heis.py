"""Heisenberg group and Stone-von-Neumann representation checks, and the
heis checks of the session report."""

from itertools import product

from e8g3.heis import (
    IDENTITY,
    HeisElement,
    all_elements,
    build_model,
    code_element,
    code_product,
    cocycle,
    element_code,
    standard_form,
    svn_rep,
)


def _tuple_product(g, h):
    """The group law on (k, v) tuples: the centres add with the cocycle of
    the classes, and the classes add."""
    (k1, v1), (k2, v2) = g, h
    return HeisElement(k1 + k2 + cocycle(v1, v2),
                       [a + b for a, b in zip(v1, v2)])


def test_symplectic_basis_defining_relations(report):
    assert report.passed("heis", "symplectic_basis")


def test_change_of_basis_preserves_form():
    model = build_model()
    rs = model.rs
    gram = rs.class_gram()
    M = model.M
    # M^T G M = standard J over F_3
    prod = [[sum(M[a][i] * gram[a][b] * M[b][j] for a in range(4)
                 for b in range(4)) % 3 for j in range(4)] for i in range(4)]
    assert prod == standard_form()


def test_group_law():
    els = all_elements()
    assert len(els) == 243
    for g in els:
        assert g * g.inverse() == IDENTITY
        assert (g * g) * g == IDENTITY  # exponent 3
    # associativity spot sweep
    sample = els[::13]
    for g in sample:
        for h in sample:
            for k in sample:
                assert (g * h) * k == g * (h * k)


def test_code_product_matches_tuple_law():
    els = all_elements()
    assert [element_code(g) for g in els] == list(range(243))
    assert [code_element(c) for c in range(243)] == els
    for c, g in enumerate(els):
        for d, h in enumerate(els):
            gh = _tuple_product(g, h)
            assert els[code_product(c, d)] == gh
            assert g * h == gh


def test_commutator_is_central_pairing(report):
    assert report.passed("heis", "commutator_is_pairing")


def test_center_and_nonabelian():
    center = [g for g in all_elements()
              if all(g * h == h * g for h in all_elements())]
    assert sorted(center) == sorted(HeisElement(k, (0, 0, 0, 0)) for k in range(3))


def test_rep_is_homomorphism_all_pairs(report):
    assert report.passed("heis", "rep_homomorphism")


def test_rep_center_tautological():
    for k in range(3):
        m = svn_rep(HeisElement(k, (0, 0, 0, 0)))
        assert m.perm == tuple(range(9))
        assert all(e == k for e in m.expo)


def test_rep_injective(report):
    assert report.passed("heis", "rep_injective")


def test_rep_traces(report):
    assert report.passed("heis", "rep_traces")


def test_rep_irreducible(report):
    assert report.passed("heis", "rep_irreducible")


def test_cocycle_shape():
    for v in product(range(3), repeat=4):
        for u in product(range(3), repeat=4):
            assert cocycle(v, u) == (v[0] * u[2] + v[1] * u[3]) % 3
