"""Weight poset, cusp certificates, stability fixtures, Kostant slice, and
the cusp checks of the session report."""

from fractions import Fraction

from e8g3 import cuspdata, vinberg
from e8g3.rootsys import eij, neg, weight_vector
from e8g3.vinberg import (
    ALL_WEIGHTS,
    build_base_cases,
    build_boundary_cases,
    check_gamma_criterion,
    check_lambda_criterion,
    degree_bookkeeping,
    enumerate_up_closed,
    leq,
    n_coeff,
    n_vector,
    phi_v_plus,
    sum_phi_g_plus,
    up_closure,
    verify_cusp_case,
    x_value,
)


def test_weight_count():
    assert len(ALL_WEIGHTS) == 84


def test_n_coeff_highest_weight():
    v = weight_vector((7, 8, 9))
    expect = [Fraction(k, 3) for k in (1, 2, 3, 4, 5, 6, 4, 2)]
    assert list(n_vector(v)) == expect
    assert n_coeff(v, 3) == 1


def test_n_coeff_on_simple_roots():
    for i in range(1, 9):
        beta = eij(i + 1, i)
        nv = n_vector(beta)
        assert list(nv) == [Fraction(int(j == i)) for j in range(1, 9)]


def test_sum_positive_roots_coweights():
    nv = n_vector([Fraction(x) for x in sum_phi_g_plus()])
    assert list(nv) == [8, 14, 18, 20, 20, 18, 14, 8]


def test_x_values_on_basis(report):
    for t in cuspdata.S_H:
        assert x_value(weight_vector(t)) == 1
    assert x_value(weight_vector((7, 8, 9))) > 0
    assert x_value(weight_vector((1, 2, 3))) < 0
    assert report.passed("cusp", "s0_marking")


def test_leq_examples():
    assert leq((1, 2, 3), (7, 8, 9))
    assert not leq((2, 6, 7), (2, 5, 8))
    for a in ALL_WEIGHTS:
        assert leq(a, a)
        for b in ALL_WEIGHTS:
            if leq(a, b) and leq(b, a):
                assert a == b


def test_leq_two_definitions_agree(report):
    assert report.passed("cusp", "order_agreement")


def test_intersection_table_agreement(report):
    assert report.passed("cusp", "pairing_table_vs_lattice")


def test_closures():
    assert up_closure([(7, 8, 9)]) == frozenset({(7, 8, 9)})
    c = up_closure([(1, 6, 9)])
    assert c == frozenset(a for a in ALL_WEIGHTS if leq((1, 6, 9), a))
    assert len(c) == 18
    assert phi_v_plus() <= up_closure(cuspdata.S_H)
    assert up_closure(cuspdata.S_H) == phi_v_plus()


def test_lambda_criterion_examples():
    lam = neg(tuple(x + y for x, y in
                    zip(weight_vector((1, 3, 4)), weight_vector((1, 2, 5)))))
    assert check_lambda_criterion(lam, up_closure([(2, 6, 7)]))
    assert check_lambda_criterion((0,) * 9, frozenset())


def test_gamma_criterion_examples():
    assert check_gamma_criterion(neg(weight_vector((7, 8, 9))),
                                 up_closure([(1, 7, 8)]))
    assert check_gamma_criterion(weight_vector((1, 2, 3)),
                                 up_closure([(4, 5, 6)]))
    assert not check_gamma_criterion(weight_vector((1, 2, 3)), frozenset())


def test_up_closed_enumeration_small():
    sets = enumerate_up_closed(10)
    assert all(vinberg.is_up_closed(S) for S in sets)
    assert frozenset({(7, 8, 9)}) in sets
    assert all(len(S) <= 10 for S in sets)
    assert len(sets) == len(set(sets))
    # oracle recount: filter all up-closed sets by size from a wider search
    assert len(sets) == 72


def test_all_cases_pass(report):
    labels = [c["name"][len("case_"):-len("_sum")]
              for c in report.suites["cusp"]["checks"]
              if c["name"].startswith("case_") and c["name"].endswith("_sum")]
    assert labels == ["f1", "f2", "f3", "f4", "f5", "f6", "f7", "case1",
                      "case2.1", "case2.2", "case3.1", "case3.2",
                      "case4.1", "case4.2"]
    assert all(c["status"] == "pass" for c in report.suites["cusp"]["checks"]
               if c["name"].startswith("case_"))


def test_case_f1_value_from_table():
    case = build_base_cases()[0]
    assert case.f_prime[(2, 6, 7)] == Fraction(1041, 512)


def test_case1_values_from_tables():
    case = build_boundary_cases()[0]
    assert case.f_prime[(3, 4, 8)] == Fraction(53, 16)
    res = verify_cusp_case(case)
    counts_slack = res["conditions"]["capacity"]["slack"]
    assert counts_slack[(2, 6, 8)] == 0  # f' = 5 with exactly 5 preimages


def test_tight_fraction_case31():
    case = next(c for c in build_boundary_cases() if c.label == "case3.1")
    assert case.f_prime[(3, 5, 7)] == Fraction(33, 32)
    res = verify_cusp_case(case)
    assert res["conditions"]["capacity"]["slack"][(3, 5, 7)] == Fraction(1, 32)


def test_printed_count_discrepancies_are_logged_not_fatal(report):
    # note names repeat (one per kind of note), so scan them all
    notes = [c for c in report.suites["cusp"]["checks"]
             if c["name"].startswith("note_")]
    flagged = {c["name"][len("note_"):] for c in notes
               if "printed_count_discrepancies" in c["detail"]}
    assert flagged == {"case4.1", "case4.2"}
    assert all(c["status"] == "skipped" for c in notes)
    assert report.passed("cusp", "case_case4.1_capacity",
                         "case_case4.2_capacity")


def test_negative_control_corrupted_fixture():
    import dataclasses
    case = build_boundary_cases()[0]
    bad = dataclasses.replace(
        case, f_prime={**case.f_prime, (4, 5, 6): Fraction(0)}
        if (4, 5, 6) in case.f_prime
        else {**case.f_prime, (2, 6, 8): Fraction(0)})
    res = verify_cusp_case(bad)
    assert not res["conditions"]["capacity"]["ok"]


def test_coverage_checks(report):
    assert report.passed("cusp", "coverage")


def test_degree_bookkeeping():
    bk = degree_bookkeeping()
    assert bk["ok"]
    assert bk["dim_sum"] == 84
    assert bk["slice_weight_count"] == 10
    assert bk["quotient_weight_count"] == 8
    assert bk["invariant_slice_degrees"] == [12, 24, 30, 36, 48]
    assert bk["restricted_degrees"] == [12, 18, 24, 30]


def test_fixture_roundtrip_bytes():
    text = vinberg.cases_to_json()
    loaded = vinberg.cases_from_json(text)
    orig = build_base_cases() + build_boundary_cases()
    assert loaded == orig


def test_stability_suite(report):
    stability = [c for c in report.suites["cusp"]["checks"]
                 if c["name"].startswith("stability_")]
    skipped = [c["name"] for c in stability if c["status"] == "skipped"]
    assert skipped == ["stability_part1_258_skipped"]
    assert report.passed("cusp", *(c["name"] for c in stability
                                   if c["status"] != "skipped"))


def test_stability_negative_control():
    # removing the key generator breaks the lambda criterion
    lam = neg(tuple(x + y for x, y in
                    zip(weight_vector((1, 3, 4)), weight_vector((1, 2, 5)))))
    assert not check_lambda_criterion(lam, frozenset())


def test_kostant_triple(report):
    assert report.passed("cusp", "kostant_relations", "kostant_ad_e_kernel",
                         "kostant_slice_dim", "kostant_slice_degrees",
                         "kostant_sampled_regularity")


def test_kostant_cross_model(report):
    assert report.passed("cusp", "kostant_two_models_agree")


def test_kostant_nilpotency_index():
    from e8g3 import kostant
    assert kostant.ad_e_nilpotency_index() == 59
