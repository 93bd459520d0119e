"""Acceptance criteria, one test per criterion, each printing a verdict
line.  Tolerances are exact (integer/rational comparisons) throughout;
the only numeric bounds are the stated wall-clock budgets.

Criteria 1 and 2 time their own sub-second work in process; the others
read the checks of the session's `verify all` report (see conftest.py)."""

import time
from itertools import combinations

from e8g3.report import strip_volatile

CUSP_LABELS = ("f1", "f2", "f3", "f4", "f5", "f6", "f7", "case1", "case2.1",
               "case2.2", "case3.1", "case3.2", "case4.1", "case4.2")
CASE_CHECKS = ("sum", "positivity", "descent", "capacity", "wellformed",
               "intermediates")


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


def test_criterion_3_sign_identity(report):
    # every root meets 56 roots at pairing -1, and a + b is a root exactly
    # then, so the sign identity covers 240 * 56 ordered pairs
    verdict(3, report.passed("rootsys", "sign_identity",
                             "per_root_pairing_statistics",
                             "sum_rule_iff_pairing_minus_one"),
            f"sign identity on all {240 * 56} pairs with a+b a root")


def test_criterion_4_jacobi_and_grading(report):
    triples = int(report.check("gradedlie", "jacobi")["detail"].split()[0])
    dims = report.check("gradedlie", "grading_dimensions")["detail"]
    # the suite's wall time contains the single-threaded Jacobi sweep
    dt = report.suites["gradedlie"]["wall_time_ms"] / 1000
    verdict(4, report.passed("gradedlie", "jacobi", "antisymmetry",
                             "theta_automorphism", "grading_dimensions",
                             "graded_bracket_containment")
            and triples > 1_000_000 and dt < 60.0,
            f"Jacobi clean on {triples} evaluated triples; gradedlie suite "
            f"in {dt:.1f}s single-threaded; dims {dims}; automorphism")


def test_criterion_5_representation_sweeps(report):
    rp = report.check("gradedlie", "rho_prime_homomorphism")["detail"]
    act = report.check("gradedlie", "heis_action_match")["detail"]
    verdict(5, report.passed("heis", "rep_homomorphism")
            and report.passed("gradedlie", "rho_prime_homomorphism",
                              "heis_action_match", "rho_prime_image_dim")
            and rp == f"{240 * 240} pairs"
            and act.startswith(f"{240 * 240} "),
            f"rho hom on 243^2, rho' hom on {rp}, action match on "
            f"{act.split()[0]} pairs, image dim 80")


def test_criterion_6_cusp_certificates(report):
    # note names repeat (one per kind of note), so scan them all
    flagged = {c["name"][len("note_"):]
               for c in report.suites["cusp"]["checks"]
               if c["name"].startswith("note_")
               and "printed_count_discrepancies" in c["detail"]}
    small = report.check("cusp", "small_sets")["detail"].split()[0]
    verdict(6, report.passed("cusp", *(f"case_{label}_{kind}"
                                       for label in CUSP_LABELS
                                       for kind in CASE_CHECKS))
            and flagged == {"case4.1", "case4.2"}
            and report.passed("cusp", "small_sets", "coverage"),
            f"{len(CUSP_LABELS)} tabulated cases, {small} small sets, 100 "
            f"sampled intermediates per case; convenience-count notes "
            f"{sorted(flagged)}")


def test_criterion_7_kostant_triple(report):
    degrees = report.check("cusp", "kostant_slice_degrees")["detail"]
    verdict(7, report.passed("cusp", "kostant_relations", "kostant_ad_e_kernel",
                             "kostant_slice_dim", "kostant_slice_degrees"),
            f"sl2 relations exact; ker ad(E) = 8; slice dim 4 with degrees "
            f"{degrees}")


def test_criterion_8_genus2_side(report):
    rescan = report.check("sections", "fixture_rescan_count")["detail"]
    qstar = int(rescan.rpartition("F_")[2])
    dt = report.suites["sections"]["wall_time_ms"] / 1000
    verdict(8, report.passed("sections", "enumeration_vs_bruteforce",
                             "cantor_order_matches_zeta",
                             "fixture_rescan_count", "fixture_matches_scan",
                             "fixture_histogram", "fixture_torsion",
                             "fixture_classes")
            and qstar <= 200 and dt < 300.0,
            f"enumeration x5, zeta orders x3, fixture q*={qstar}: {rescan}, "
            f"E8 histogram, 3-torsion, 80 classes; {dt:.0f}s")


def test_criterion_9_sp4_density(report):
    order = report.check("sections", "sp4_order")["detail"]
    density = report.check("sections", "sp4_density")["detail"]
    verdict(9, report.passed("sections", "sp4_order", "sp4_density")
            and order == "51840",
            f"order {order}; density {density} by two strategies")


def test_criterion_10_determinism(report, report_again):
    again = strip_volatile(report_again)
    verdict(10, again == strip_volatile(report.text) and len(again) > 1000,
            "verify all in two fresh processes, --threads 1 --seed 0 and "
            "--threads 2 --seed 1: byte-identical reports modulo wall time")
