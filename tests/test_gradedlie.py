"""Bracket table, Jacobi identity, grading, and 9-dim realization checks,
and the gradedlie checks of the session report."""

import pytest

from e8g3.cyclotomic import Cyc
from e8g3.gradedlie import get_algebra, killing_gram, rho_prime, verify_jacobi


@pytest.fixture(scope="module")
def alg():
    return get_algebra()


def test_basis_size(alg):
    assert alg.n == 240  # plus 8 cartan slots = 248


def test_bracket_coroot_action(alg):
    for i in (0, 71, 100, 239):
        out = alg.bracket(alg.coroot(i), alg.x(i))
        assert out == alg.x(i) * Cyc(2)


def test_bracket_opposite_roots(alg):
    from e8g3.heis import cocycle
    for i in (3, 90, 200):
        ni = alg.negidx[i]
        out = alg.bracket(alg.x(i), alg.x(ni))
        expect = alg.coroot(i) * (Cyc(-1) * Cyc.zeta(-cocycle(alg.cls[i], alg.cls[i])))
        assert out == expect


def test_bracket_zero_case(alg):
    i = 12
    j = next(j for j in range(240)
             if alg.PR[i][j] == 0 and alg.kind[i][j] == 0)
    assert alg.bracket(alg.x(i), alg.x(j)).is_zero()


def test_central_twist_scales_bracket(alg):
    # twisting a canonical vector by zeta^k scales outputs by zeta^k
    i, j = 8, next(iter(alg.nbr[8]))
    plain = alg.bracket(alg.x(i), alg.x(j))
    twisted = alg.bracket(alg.x(i) * Cyc.zeta(1), alg.x(j))
    assert twisted == plain * Cyc.zeta(1)


def test_jacobi_full_sweep(report):
    assert report.passed("gradedlie", "jacobi", "antisymmetry")
    detail = report.check("gradedlie", "jacobi")["detail"]
    assert int(detail.split()[0]) > 1_000_000


def test_jacobi_spot_zero_sum_triple(alg):
    # alpha + beta + gamma = 0 with all pairwise sums roots
    found = None
    for i in range(240):
        for j in alg.nbr[i]:
            if alg.kind[i][j] != 1:
                continue
            k = alg.negidx[alg.out[i][j]]
            if alg.kind[j][k] and alg.kind[i][k]:
                found = (i, j, k)
                break
        if found:
            break
    i, j, k = found
    x, y, z = alg.x(i), alg.x(j), alg.x(k)
    J = (alg.bracket(x, alg.bracket(y, z))
         + alg.bracket(y, alg.bracket(z, x))
         + alg.bracket(z, alg.bracket(x, y)))
    assert J.is_zero()


def test_jacobi_cartan_triples(alg):
    for a in range(8):
        for b in range(8):
            ha, hb = alg.cartan_basis(a), alg.cartan_basis(b)
            assert alg.bracket(ha, hb).is_zero()
            for i in (0, 100):
                x = alg.x(i)
                J = (alg.bracket(ha, alg.bracket(hb, x))
                     + alg.bracket(hb, alg.bracket(x, ha))
                     + alg.bracket(x, alg.bracket(ha, hb)))
                assert J.is_zero()


def test_theta_is_automorphism(report):
    assert report.passed("gradedlie", "theta_automorphism")


def test_theta_order_three(alg):
    for i in (0, 50, 130):
        x = alg.x(i) + alg.cartan_basis(i % 8)
        assert alg.theta(x, 3) == x
        assert alg.theta(x) != x or i is None


def test_theta_no_fixed_cartan_vectors(alg):
    from e8g3.intlinalg import nullspace
    rows = [[Cyc(alg.rs.w[r][c]) - (Cyc(1) if r == c else Cyc(0))
             for c in range(8)] for r in range(8)]
    assert nullspace(rows, 8, field="cyc") == []


def test_grading_dimensions(alg, report):
    assert report.passed("gradedlie", "grading_dimensions")
    spaces = alg.graded_basis()
    for i in (0, 1, 2):
        for v in spaces[i][:6]:
            assert alg.grading_check(v, i)


def test_grading_bracket_containment(alg):
    spaces = alg.graded_basis()
    import random
    rng = random.Random(7)
    for (i, j) in [(1, 1), (1, 2), (0, 1), (2, 2), (0, 0)]:
        for _ in range(40):
            x = rng.choice(spaces[i])
            y = rng.choice(spaces[j])
            out = alg.bracket(x, y)
            if not out.is_zero():
                assert alg.theta(out) == out * Cyc.zeta(i + j)


def test_z_elements(alg):
    for i in (0, 30, 100):
        z = alg.z_element(i)
        assert alg.theta(z) == z
        assert alg.z_element(alg.windex[i]) == z
        assert alg.z_element(i, twist=1) == z * Cyc.zeta(1)
    # span rank of all 240 Z's is 80
    orbits = {alg.rs.orbit_of[i] for i in range(240)}
    assert len(orbits) == 80


def test_lambda_twist_automorphisms(report):
    assert report.passed("gradedlie", "lambda_twists")


def test_rho_prime_well_defined_and_traceless(alg, report):
    assert report.passed("gradedlie", "rho_prime_traceless")
    z = alg.z_element(5)
    m = rho_prime(alg, z)
    tr = sum((m[i][i] for i in range(9)), Cyc(0))
    assert tr == Cyc(0)
    with pytest.raises(ValueError):
        rho_prime(alg, alg.x(5))  # not orbit-constant


def test_rho_prime_homomorphism_all_pairs(report):
    assert report.passed("gradedlie", "rho_prime_homomorphism")
    detail = report.check("gradedlie", "rho_prime_homomorphism")["detail"]
    assert detail == f"{240 * 240} pairs"


def test_rho_prime_image_dimension(report):
    assert report.passed("gradedlie", "rho_prime_image_dim")


def test_heis_action_match_all_pairs(report):
    assert report.passed("gradedlie", "heis_action_match")
    detail = report.check("gradedlie", "heis_action_match")["detail"]
    assert detail.startswith(f"{240 * 240} ")


def test_heis_action_alternating_diagonal(alg):
    # alpha = beta: eigenvalue 1
    for a in (0, 99):
        m = alg.rho(a)
        conj = m * alg.rho(a) * m.inverse()
        assert conj.scalar_ratio(alg.rho(a)) == 0


def test_killing_form(alg, report):
    assert report.passed("gradedlie", "killing_form")
    kg = killing_gram(alg)
    assert kg["zero_samples"] > 150
    # cartan block is 60 times the basis Gram
    assert kg["cartan_block"] == [[60 * alg.rs.gram[a][b] for b in range(8)]
                                  for a in range(8)]
    assert set(kg["root_diag_gauged"]) == {(-60, 0)}


def test_structure_digest_stable(report):
    # the table built in the verifying process hashes to the pinned digest
    assert report.passed("gradedlie", "structure_digest")


def test_corrupted_structure_constant_changes_pinned_digest(alg):
    # negative control for the gradedlie/structure_digest check
    from e8g3.gradedlie import GradedAlgebra, code_neg
    from e8g3.suites import GRADEDLIE_DIGEST
    fresh = GradedAlgebra(alg.model)
    i, j = 0, fresh.nbr[0][0]
    fresh.scl[i][j] = code_neg(fresh.scl[i][j])
    assert fresh.digest() != GRADEDLIE_DIGEST
    assert alg.digest() == GRADEDLIE_DIGEST


def test_threads_do_not_change_report(alg):
    seq = verify_jacobi(alg, threads=1)
    par = verify_jacobi(alg, threads=2)
    assert seq == par
