"""Root lattice construction checks against independent enumeration oracles,
and the rootsys checks of the session report."""

import pytest

from e8g3 import rootsys
from e8g3.rootsys import (
    build_root_system,
    canonical,
    eij,
    pairing,
    weight_vector,
)


@pytest.fixture(scope="module")
def rs():
    return build_root_system()


def enumerate_norm2_oracle():
    """All canonical representatives with (v, v) = 2, by bounded search.

    (v, v) = 2 with sum s in {0, 3, 6} forces sum(v_i^2) = 2 + s^2/9 <= 6,
    so every coordinate lies in [-2, 2] and at most 6 are nonzero.
    """
    found = set()

    def rec(prefix, sq):
        if len(prefix) == 9:
            s = sum(prefix)
            if s in (0, 3, 6) and sq == 2 + (s * s) // 9:
                found.add(tuple(prefix))
            return
        for x in (-2, -1, 0, 1, 2):
            nsq = sq + x * x
            if nsq <= 6:
                rec(prefix + [x], nsq)

    rec([], 0)
    return found


def test_root_count_matches_exhaustive_oracle(rs):
    oracle = enumerate_norm2_oracle()
    assert len(oracle) == 240
    assert set(rs.roots) == oracle


def test_trivial_membership_examples(rs):
    r = eij(1, 2)
    assert pairing(r, r) == 2 and r in rs.index
    t = weight_vector((1, 2, 3))
    assert pairing(t, t) == 2 and t in rs.index


def test_type_counts(report):
    assert report.passed("rootsys", "type_counts")


def test_intersection_pairing_table(report):
    # ((i j k), (l m n)) = |intersection| - 1
    assert report.passed("rootsys", "intersection_pairing_table")


def test_pairing_examples(rs):
    assert pairing(weight_vector((1, 2, 3)), weight_vector((4, 5, 6))) == -1
    assert pairing(weight_vector((1, 2, 3)), weight_vector((1, 4, 5))) == 0
    assert pairing(weight_vector((1, 2, 3)), weight_vector((1, 2, 4))) == 1
    assert pairing(weight_vector((1, 2, 3)), weight_vector((1, 2, 3))) == 2
    assert pairing(eij(2, 1), weight_vector((1, 3, 4))) == -1


def test_pairing_bilinear_on_lifts():
    u = (1, -1, 0, 0, 0, 0, 0, 0, 0)
    ushift = tuple(x + 1 for x in u)
    v = weight_vector((1, 2, 3))
    assert pairing(u, v) == pairing(ushift, v)
    assert pairing(u, v) == pairing(v, u)


def test_sum_rule_iff_pairing_minus_one(report):
    # alpha + beta is a root exactly when (alpha, beta) = -1; full sweep
    assert report.passed("rootsys", "sum_rule_iff_pairing_minus_one")


def test_per_root_pairing_statistics(report):
    assert report.passed("rootsys", "per_root_pairing_statistics")


def test_basis_roundtrip(rs):
    for r in rs.roots[:40]:
        assert rs.from_basis(rs.to_basis(r)) == r


def test_s0_gram_is_e8_cartan(rs):
    g = rs.gram
    assert all(g[i][i] == 2 for i in range(8))
    edges = [(i, j) for i in range(8) for j in range(i + 1, 8)
             if g[i][j] == -1]
    assert all(g[i][j] in (0, -1) for i in range(8) for j in range(i + 1, 8))
    assert len(edges) == 7
    deg = [0] * 8
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    assert sorted(deg) == [1, 1, 1, 2, 2, 2, 2, 3]
    # leg lengths from the unique branch node must be {1, 2, 4}
    adj = {i: set() for i in range(8)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    branch = deg.index(3)
    lengths = []
    for start in adj[branch]:
        ln, prev, cur = 1, branch, start
        while True:
            nxt = [x for x in adj[cur] if x != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            ln += 1
        lengths.append(ln)
    assert sorted(lengths) == [1, 2, 4]


def test_elliptic_element(report):
    assert report.passed("rootsys", "order_three", "elliptic", "snf_divisors")


def test_w_sum_of_powers_vanishes(rs):
    for r in rs.roots[:60]:
        total = rootsys.add(rootsys.add(r, rs.apply_w(r)), rs.apply_w(r, 2))
        assert total == canonical((0,) * 9)


def test_coinvariant_kernel(rs):
    for r in rs.roots[:40]:
        moved = rootsys.sub(rs.apply_w(r), r)
        assert rs.project(moved) == (0, 0, 0, 0)


def test_coinvariant_surjective_lift(rs):
    from itertools import product
    for cls in product(range(3), repeat=4):
        assert rs.project(rs.lift(cls)) == cls


def test_orbits_biject_with_nonzero_classes(rs):
    classes = {}
    for orb in rs.orbits:
        i, j, k = orb
        ci = rs.project(rs.roots[i])
        assert ci == rs.project(rs.roots[j]) == rs.project(rs.roots[k])
        assert ci != (0, 0, 0, 0)
        assert ci not in classes
        classes[ci] = orb
    assert len(classes) == 80


def test_orbit_representative_choice_invariance(rs):
    # any choice of orbit representatives gives the same 80-class set
    first = {rs.project(rs.roots[orb[0]]) for orb in rs.orbits}
    second = {rs.project(rs.roots[orb[1]]) for orb in rs.orbits}
    assert first == second and len(first) == 80


def test_symplectic_pairing_properties(rs):
    lifts = [rs.roots[i] for i in (0, 5, 100, 200)]
    for u in lifts:
        assert rs.symplectic_exponent(u, u) == 0
        for v in lifts:
            assert (rs.symplectic_exponent(u, v)
                    + rs.symplectic_exponent(v, u)) % 3 == 0


def test_symplectic_pairing_lift_independent(rs):
    u, v = rs.roots[10], rs.roots[150]
    u2 = rootsys.add(u, rootsys.sub(rs.apply_w(rs.roots[3]), rs.roots[3]))
    assert rs.symplectic_exponent(u, v) == rs.symplectic_exponent(u2, v)


def test_class_gram_rank_four(report):
    # Gram of the pairing exponents on the SNF basis classes: rank 4 over F_3
    assert report.passed("rootsys", "pairing_nondegenerate")


def test_sign_identity_exhaustive(report):
    # (-1)^((a, w b)) + (-1)^((w a, b)) = 0 whenever a + b is a root
    assert report.passed("rootsys", "sign_identity")


def test_serialization_deterministic(report):
    # a rebuild in the verifying process hashes to the pinned digest
    assert report.passed("rootsys", "rebuild_identical")
