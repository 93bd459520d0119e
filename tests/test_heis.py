"""Heisenberg group and Stone-von-Neumann representation checks."""

from itertools import product

import pytest

from e8g3.cyclotomic import Cyc
from e8g3.heis import (
    IDENTITY,
    HeisElement,
    all_elements,
    build_model,
    cocycle,
    commutant_dimension,
    commutator_exponent,
    standard_form,
    svn_rep,
)


@pytest.fixture(scope="module")
def model():
    return build_model()


def test_symplectic_basis_defining_relations(model):
    rs = model.rs
    lifts = [rs.lift(model.from_symplectic(tuple(int(i == j) for j in range(4))))
             for i in range(4)]
    got = [[rs.symplectic_exponent(a, b) for b in lifts] for a in lifts]
    assert got == standard_form()


def test_change_of_basis_preserves_form(model):
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


def test_commutator_is_central_pairing():
    els = all_elements()
    for g in els[::7]:
        for h in els[::5]:
            comm = g * h * g.inverse() * h.inverse()
            assert comm.cls == (0, 0, 0, 0)
            assert comm.k == commutator_exponent(g.cls, h.cls)


def test_center_and_nonabelian():
    center = [g for g in all_elements()
              if all(g * h == h * g for h in all_elements())]
    assert sorted(center) == sorted(HeisElement(k, (0, 0, 0, 0)) for k in range(3))


def test_rep_is_homomorphism_all_pairs():
    els = all_elements()
    reps = {g: svn_rep(g) for g in els}
    for g in els:
        rg = reps[g]
        for h in els:
            assert rg * reps[h] == reps[g * h]


def test_rep_center_tautological():
    for k in range(3):
        m = svn_rep(HeisElement(k, (0, 0, 0, 0)))
        assert m.perm == tuple(range(9))
        assert all(e == k for e in m.expo)


def test_rep_injective():
    seen = {svn_rep(g) for g in all_elements()}
    assert len(seen) == 243


def test_rep_traces():
    for g in all_elements():
        t = svn_rep(g).trace()
        if g.cls == (0, 0, 0, 0):
            assert t == Cyc.zeta(g.k) * 9
        else:
            assert t == Cyc(0, 0)


def test_rep_irreducible():
    gens = [HeisElement(0, v) for v in
            [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]]
    assert commutant_dimension(gens) == 1


def test_cocycle_shape():
    for v in product(range(3), repeat=4):
        for u in product(range(3), repeat=4):
            assert cocycle(v, u) == (v[0] * u[2] + v[1] * u[3]) % 3
