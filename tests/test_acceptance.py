"""Acceptance criteria, one test per criterion, each printing a verdict
line.  Tolerances are exact (integer/rational comparisons) throughout;
the only numeric bounds are the stated wall-clock budgets."""

import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def verdict(n, ok, msg):
    print(f"[criterion {n:2d}] {'PASS' if ok else 'FAIL'}: {msg}")
    assert ok, msg


def test_criterion_1_root_system_and_table():
    t0 = time.monotonic()
    from e8g3 import rootsys as R
    from e8g3.vinberg import verify_s0_basis
    rs = R.RootSystem()
    ok = len(rs.roots) == 240
    table_ok = all(
        R.pairing(R.weight_vector(a), R.weight_vector(b))
        == len(set(a) & set(b)) - 1
        for a in combinations(range(1, 10), 3)
        for b in combinations(range(1, 10), 3))
    s0_ok = verify_s0_basis() == []
    dt = time.monotonic() - t0
    verdict(1, ok and table_ok and s0_ok and dt < 1.0,
            f"240 roots, 84^2 pairing table, S0 marking; {dt:.2f}s")


def test_criterion_2_elliptic_class():
    t0 = time.monotonic()
    from e8g3.intlinalg import (det_bareiss, identity, mat_eq, mat_pow,
                                mat_sub, rref_mod)
    from e8g3.rootsys import build_root_system
    rs = build_root_system()
    ok = (mat_eq(mat_pow(rs.w, 3), identity(8))
          and det_bareiss(mat_sub(rs.w, identity(8))) != 0
          and rs.divisors == (1, 1, 1, 1, 3, 3, 3, 3))
    classes = {rs.project(rs.roots[o[0]]) for o in rs.orbits}
    bij = len(rs.orbits) == 80 and len(classes) == 80 and (0,) * 4 not in classes
    lifts = [rs.lift(tuple(int(i == j) for j in range(4))) for i in range(4)]
    alt = all(rs.symplectic_exponent(u, u) == 0 for u in lifts) and all(
        (rs.symplectic_exponent(u, v) + rs.symplectic_exponent(v, u)) % 3 == 0
        for u in lifts for v in lifts)
    nondeg = len(rref_mod(rs.class_gram(), 4, 3)[1]) == 4
    dt = time.monotonic() - t0
    verdict(2, ok and bij and alt and nondeg and dt < 1.0,
            f"w^3=1, elliptic, SNF (1^4,3^4), 80-orbit bijection, "
            f"symplectic nondegenerate; {dt:.2f}s")


def test_criterion_3_sign_identity():
    from e8g3.rootsys import build_root_system, pairing
    rs = build_root_system()
    w_img = [rs.roots[rs.w_on_roots[i]] for i in range(240)]
    bad = 0
    pairs = 0
    for i, a in enumerate(rs.roots):
        for j, b in enumerate(rs.roots):
            if pairing(a, b) == -1:
                pairs += 1
                if (pairing(a, w_img[j]) + pairing(w_img[i], b)) % 2 != 1:
                    bad += 1
    verdict(3, bad == 0 and pairs == 240 * 56,
            f"sign identity on all {pairs} pairs with a+b a root, "
            f"{bad} exceptions")


def test_criterion_4_jacobi_and_grading():
    from e8g3.gradedlie import get_algebra, verify_jacobi
    alg = get_algebra()
    t0 = time.monotonic()
    rep = verify_jacobi(alg, threads=1)
    dt = time.monotonic() - t0
    spaces = alg.graded_basis()
    dims = [len(spaces[i]) for i in (0, 1, 2)]
    theta_ok = not alg.check_theta_automorphism()
    order3 = all(alg.theta(alg.x(i), 3) == alg.x(i) for i in (0, 77, 199))
    verdict(4, not rep["violations"] and not rep["antisymmetry_violations"]
            and dims == [80, 84, 84] and theta_ok and order3 and dt < 60.0,
            f"Jacobi clean on {rep['evaluated_triples']} evaluated triples "
            f"in {dt:.1f}s single-threaded; dims {dims}; automorphism order 3")


def test_criterion_5_representation_sweeps():
    from e8g3.gradedlie import (get_algebra, rho_prime_image_rank,
                                verify_heis_action_match,
                                verify_rho_prime_homomorphism)
    from e8g3.heis import all_elements, svn_rep
    els = all_elements()
    reps = {g: svn_rep(g) for g in els}
    hom = all(reps[g] * reps[h] == reps[g * h] for g in els for h in els)
    alg = get_algebra()
    rp = verify_rho_prime_homomorphism(alg)
    act = verify_heis_action_match(alg)
    rank = rho_prime_image_rank(alg)
    verdict(5, hom and not rp["mismatches"] and not act["mismatches"]
            and rank == 80,
            f"rho hom on 243^2, rho' hom on {rp['pairs']} pairs, "
            f"action match on {act['pairs']} pairs, image dim {rank}")


def test_criterion_6_cusp_certificates():
    from e8g3.vinberg import verify_cusp_bound
    rep = verify_cusp_bound(seed=0, samples=100)
    labels = [c["label"] for c in rep["cases"]]
    all_cases = (len(labels) == 14 and all(c["ok"] for c in rep["cases"]))
    flagged = {label for n in rep["notes"] for label, v in n.items()
               if "printed_count_discrepancies" in v}
    known_notes = flagged <= {"case4.1", "case4.2"}
    verdict(6, rep["ok"] and all_cases and known_notes
            and not rep["small_sets"]["failures"]
            and rep["coverage"]["ok"],
            f"{len(labels)} tabulated cases, "
            f"{rep['small_sets']['enumerated']} small sets, 100 sampled "
            f"intermediates per case; convenience-count notes {sorted(flagged)}")


def test_criterion_7_kostant_triple():
    from e8g3 import kostant
    tri = kostant.verify_triple()
    alg = kostant.get_algebra()
    k = kostant.ad_e_kernel_dim(alg)
    srep = kostant.slice_report(alg)
    verdict(7, tri["ok"] and k == 8 and srep["slice_dim"] == 4,
            f"sl2 relations exact; ker ad(E) = {k}; slice dim "
            f"{srep['slice_dim']} with degrees {srep['slice_degrees']}")


def test_criterion_8_genus2_side():
    t0 = time.monotonic()
    from e8g3.finitefield import GF
    from e8g3.genus2 import (Quintic, enumerate_min,
                             enumerate_min_bruteforce)
    from e8g3.jacobian import enumerate_jacobian, jacobian_order_zeta
    from e8g3.sections import (E8_ROW, find_sections, load_default_fixture,
                               verify_section_fixture)
    enum_ok = all(
        [q.label() for q in enumerate_min(a)]
        == [q.label() for q in enumerate_min_bruteforce(a)]
        for a in (1, 2, 3, 5, 10))
    F7 = GF(7)
    zeta_ok = True
    for coeffs in ((0, 0, 1, 3), (1, 1, 0, 2), (0, 2, 3, 1)):
        q = Quintic(*coeffs)
        f = [c % 7 for c in q.coeffs()]
        if len(enumerate_jacobian(F7, f)) != jacobian_order_zeta(7, q.coeffs()):
            zeta_ok = False
    qstar, coeffs, recorded, row = load_default_fixture()
    F = GF(qstar)
    f = [F.from_int(c) for c in coeffs]
    secs = find_sections(F, f)
    rep = verify_section_fixture(F, f, secs)
    same = sorted(s.key() for s in secs) == sorted(s.key() for s in recorded)
    dt = time.monotonic() - t0
    verdict(8, enum_ok and zeta_ok and same and rep["count"] == 240
            and rep["histogram_ok"] and row == E8_ROW and rep["torsion_ok"]
            and rep["classes_ok"] and qstar <= 200 and dt < 300.0,
            f"enumeration x5, zeta orders x3, fixture q*={qstar}: 240 "
            f"sections, E8 histogram, 3-torsion, 80 classes; {dt:.0f}s")


def test_criterion_9_sp4_density():
    from e8g3.sp4 import density_by_classes, density_direct
    n1, c1 = density_direct()
    n2, c2 = density_by_classes()
    dens = Fraction(c1, n1)
    verdict(9, n1 == 51840 and (n1, c1) == (n2, c2) and 0 < dens < 1,
            f"order {n1}; density {c1}/{n1} = {dens} by two strategies")


def test_criterion_10_determinism():
    outs = []
    for run in range(2):
        path = os.path.join(PKG_ROOT, f".acc_report_{run}.json")
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "e8g3", "verify", "all",
                 "--json", path],
                cwd=PKG_ROOT, capture_output=True, text=True, timeout=1200)
            assert proc.returncode == 0, proc.stdout[-2000:]
            from e8g3.report import strip_volatile
            with open(path) as fh:
                outs.append(strip_volatile(fh.read()))
        finally:
            if os.path.exists(path):
                os.remove(path)
    verdict(10, outs[0] == outs[1] and len(outs[0]) > 1000,
            "verify all twice in fresh processes: byte-identical reports "
            "modulo wall time")
