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

from gradedlie_oracle import add


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


def test_pair_table_matches_pairing(rs):
    # the shared table, built from the packed columns of the root matrix,
    # against the vector pairing on every ordered pair
    roots = rs.roots
    assert all(row[j] == pairing(a, roots[j])
               for a, row in zip(roots, rs.pairs) for j in range(240))


def test_sum_row_matches_vector_sum(rs):
    # the packed-code sum against the tuple sum and its canonical shift, on
    # every ordered pair
    for i, a in enumerate(rs.roots):
        assert rs.sum_row(i) == [rs.index.get(add(a, b))
                                 for b in rs.roots]


@pytest.mark.parametrize("bits", [3, 8, 16, 32])
def test_lanes_are_linear_and_one_to_one(bits):
    # entries below 2**(bits - 1) in absolute value are balanced digits:
    # every vector of three such entries, the extremes included, packs to
    # its own int
    from itertools import product
    top = 2 ** (bits - 1) - 1
    digits = sorted({-top, -top + 1, -1, 0, 1, top - 1, top})
    vecs = [v + (0,) * 6 for v in product(digits, repeat=3)]
    assert len({rootsys.lanes(v, bits) for v in vecs}) == len(vecs)
    u, v = (1, -1, 0, 2, 0, 0, -3, 1, 1), (-2, 0, 3, 1, 1, 0, 0, -1, 2)
    assert rootsys.lanes(u, bits) + 3 * rootsys.lanes(v, bits) == (
        rootsys.lanes([a + 3 * b for a, b in zip(u, v)], bits))


def test_pair_table_is_lazy():
    # a fresh root system builds no table until one is read
    fresh = rootsys.RootSystem()
    assert "pairs" not in vars(fresh)
    assert len(fresh.pairs) == 240 and "pairs" in vars(fresh)


def test_bulk_coords_and_w_match_the_vector_maps():
    # a fresh root system's coordinates and its w on the roots, both read
    # off the bulk coordinates, against to_basis and apply_w on every root
    fresh = rootsys.RootSystem()
    assert all(c == fresh.to_basis(r)
               for r, c in zip(fresh.roots, fresh.coords))
    assert all(fresh.roots[k] == fresh.apply_w(r)
               for r, k in zip(fresh.roots, fresh.w_on_roots))


def test_reflections_from_gram_rows_reflect_every_root(rs):
    # s_k = I - e_k gram[k] on basis coordinates against the reflection
    # r - (r, b_k) b_k of each root vector, read back by to_basis
    from e8g3.intlinalg import mat_vec
    for k, b in enumerate(rs.basis):
        s = rs._reflection_matrix(k)
        for r, c in zip(rs.roots, rs.coords):
            image = rootsys.sub(r, tuple(pairing(r, b) * x for x in b))
            assert mat_vec(s, c) == list(rs.to_basis(image))


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
        wr = rs.apply_w(r)
        total = add(add(r, wr), rs.apply_w(wr))
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
    u2 = add(u, rootsys.sub(rs.apply_w(rs.roots[3]), rs.roots[3]))
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
