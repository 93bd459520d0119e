"""Weight poset, cusp certificates, stability fixtures, Kostant slice, and
the cusp checks of the session report."""

import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from e8g3 import cuspdata, vinberg
from e8g3.rootsys import eij, neg, weight_vector
from e8g3.stability import alternating_det, reduces_to
from e8g3.vinberg import (
    ALL_WEIGHTS,
    CuspCase,
    build_base_cases,
    build_boundary_cases,
    check_gamma_criterion,
    check_lambda_criterion,
    enumerate_up_closed,
    leq,
    phi_v_plus,
    sum_phi_g_plus,
    up_closure,
    verify_cusp_case,
    x_value,
)

from gradedlie_oracle import is_zero

CASES = build_base_cases() + build_boundary_cases()


# -- set-based oracle of the sampled-intermediate sweep -----------------------


def sample_intermediates(case):
    """The sampled intermediate sets as frozensets, drawn bit for bit as
    the library draws its masks."""
    rng = random.Random(case.label)
    free = sorted(case.m0_prime - case.m0_dprime)
    out = []
    for _ in range(vinberg.INTERMEDIATE_SAMPLES):
        chosen = [a for a in free if not rng.getrandbits(64) & 1 << 31]
        out.append(case.m0_dprime | (up_closure(chosen) & case.m0_prime))
    return out


def derived_f_for(case, m0):
    """The function built from a certificate for an intermediate set."""
    removed = case.m0_prime - frozenset(m0)
    hits = Counter(t for b, t in case.g.items() if b in removed)
    return {a: case.f_prime[a] - hits[a] for a in case.m1_prime}


def check_direct_certificate(m0, f_map):
    """The two conditions of the cusp bound for a concrete (M0, f), and
    f >= 0."""
    den, fd = vinberg._scaled(f_map)
    return {
        "sum_ok": sum(fd.values()) < den * len(m0),
        "positivity_ok": all(v > 0 for v in _positivity_lanes(m0, den, fd)),
        "nonneg_ok": all(v >= 0 for v in fd.values()),
    }


def _positivity_lanes(m0, den, fd):
    """The 8 coordinates of the positivity kernel on the set m0 and the
    integral f fd, read back from its lanes, whose packed sign test must
    agree with their signs."""
    bits = vinberg._lane_width(den, sum(map(abs, fd.values())))
    x = vinberg._certificate_positivity(vinberg._mask(m0), den, fd.items(),
                                        bits)
    pos = vinberg._unpack(x, bits)
    assert vinberg._positive(x, bits) == all(v > 0 for v in pos), pos
    return pos


def up_closed_sets(max_size):
    """Oracle of `enumerate_up_closed`: the nonempty up-closed sets with at
    most max_size weights as frozensets, by breadth-first growth from
    (7 8 9) that adds a weight a to S when every weight strictly above a
    lies in S."""
    strict_up = {a: up_closure([a]) - {a} for a in ALL_WEIGHTS}
    start = frozenset({(7, 8, 9)})
    seen = {start}
    frontier = [start]
    out = [start]
    while frontier:
        nxt = []
        for S in frontier:
            if len(S) >= max_size:
                continue
            for a in ALL_WEIGHTS:
                if a not in S and strict_up[a] <= S:
                    T = S | {a}
                    if T not in seen:
                        seen.add(T)
                        nxt.append(T)
                        out.append(T)
        frontier = nxt
    return out


def _mask_sets(case):
    return [frozenset(vinberg.mask_weights(m))
            for m in vinberg.intermediate_masks(case)]


def n_vector(coords):
    """Oracle: coweight coordinates of a (possibly fractional) 9-vector
    mod ones, in exact rationals."""
    total = sum(coords)
    out = []
    prefix = 0
    for i in range(1, 9):
        prefix += coords[i - 1]
        out.append(Fraction(i) * total / 9 - prefix)
    return tuple(out)


def _frac_load(d) -> Fraction:
    return Fraction(int(d["num"]), int(d["den"]))


def cases_from_json(text: str):
    """Inverse of `vinberg.cases_to_json`."""
    payload = json.loads(text)
    if payload["fixture_version"] != cuspdata.FIXTURE_VERSION:
        raise ValueError("unsupported fixture version")
    out = []
    for d in payload["cases"]:
        out.append(CuspCase(
            label=d["label"],
            m0_prime=frozenset(tuple(a) for a in d["m0_prime"]),
            m0_dprime=frozenset(tuple(a) for a in d["m0_dprime"]),
            m1_prime=tuple(tuple(a) for a in d["m1_prime"]),
            f_prime={tuple(a): _frac_load(f) for a, f in d["f_prime"]},
            g={tuple(a): tuple(b) for a, b in d["g"]},
            printed_counts=({tuple(a): c for a, c in d["printed_counts"]}
                            if d["printed_counts"] else None),
        ))
    return out


def test_weight_count():
    assert len(ALL_WEIGHTS) == 84


def test_n_coeff_highest_weight():
    v = weight_vector((7, 8, 9))
    expect = [Fraction(k, 3) for k in (1, 2, 3, 4, 5, 6, 4, 2)]
    assert list(n_vector(v)) == expect
    assert n_vector(v)[2] == 1
    assert vinberg._COWEIGHTS9[(7, 8, 9)] == (3, 6, 9, 12, 15, 18, 12, 6)
    assert vinberg._coweights9(v) == (3, 6, 9, 12, 15, 18, 12, 6)


def test_n_coeff_on_simple_roots():
    for i in range(1, 9):
        beta = eij(i + 1, i)
        nv = n_vector(beta)
        assert list(nv) == [Fraction(int(j == i)) for j in range(1, 9)]
        assert vinberg._coweights9(beta) == tuple(9 * c for c in nv)


def test_sum_positive_roots_coweights():
    nv = n_vector([Fraction(x) for x in sum_phi_g_plus()])
    assert list(nv) == [8, 14, 18, 20, 20, 18, 14, 8]
    assert vinberg._coweights9(sum_phi_g_plus()) == tuple(9 * c for c in nv)


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
    sets = up_closed_sets(10)
    assert all(vinberg.is_up_closed(S) for S in sets)
    assert frozenset({(7, 8, 9)}) in sets
    assert all(len(S) <= 10 for S in sets)
    assert len(sets) == len(set(sets))
    assert len(sets) == 72


@pytest.mark.parametrize("max_size", [10, 12])
def test_mask_grower_is_the_set_growth(max_size):
    # the same sets in the same order as the frozenset growth
    assert [frozenset(vinberg.mask_weights(m))
            for m in enumerate_up_closed(max_size)] == up_closed_sets(max_size)


def test_all_cases_pass(report):
    labels = [c["name"][len("case_"):-len("_sum")]
              for c in report.suites["cusp"]["checks"]
              if c["name"].startswith("case_") and c["name"].endswith("_sum")]
    assert labels == ["f1", "f2", "f3", "f4", "f5", "f6", "f7", "case1",
                      "case2.1", "case2.2", "case3.1", "case3.2",
                      "case4.1", "case4.2"]
    assert all(c["status"] == "pass" for c in report.suites["cusp"]["checks"]
               if c["name"].startswith("case_"))


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.label)
def test_sampled_intermediates_are_the_float_draws(case):
    # the integer draw on masks picks the sets that random() < 0.5 would
    rng = random.Random(case.label)
    free = sorted(case.m0_prime - case.m0_dprime)
    expect = []
    for _ in range(vinberg.INTERMEDIATE_SAMPLES):
        chosen = [a for a in free if rng.random() < 0.5]
        expect.append(case.m0_dprime | (up_closure(chosen) & case.m0_prime))
    assert _mask_sets(case) == expect


def test_mask_sweep_is_the_set_sweep():
    # the same 1,400 sets as the set-based draw, each up-closed between
    # the two layers, and the same (here empty) failure lists
    drawn = [(case, m0) for case in CASES for m0 in _mask_sets(case)]
    assert len(drawn) == 1400
    assert [m0 for _, m0 in drawn] == [
        m0 for case in CASES for m0 in sample_intermediates(case)]
    assert all(case.m0_dprime <= m0 <= case.m0_prime
               and vinberg.is_up_closed(m0) for case, m0 in drawn)
    failures = [sorted(m0) for case, m0 in drawn if not all(
        check_direct_certificate(m0, derived_f_for(case, m0)).values())]
    assert failures == [] == [
        f for c in vinberg.verify_cusp_bound()["cases"]
        for f in c["sampled_intermediates"]["failures"]]


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
    case = build_boundary_cases()[0]
    bad = case._replace(
        f_prime={**case.f_prime, (4, 5, 6): Fraction(0)}
        if (4, 5, 6) in case.f_prime
        else {**case.f_prime, (2, 6, 8): Fraction(0)})
    res = verify_cusp_case(bad)
    assert not res["conditions"]["capacity"]["ok"]


def _oracle_positivity(m0, f_map):
    """sum(Phi_G+) - sum(M0) + sum f(a) a in exact rational coweights."""
    acc = [Fraction(x) for x in sum_phi_g_plus()]
    for a in m0:
        for t, c in enumerate(weight_vector(a)):
            acc[t] -= c
    for a, f in f_map.items():
        for t, c in enumerate(weight_vector(a)):
            acc[t] += f * c
    return n_vector(acc)


def _integer_matches_oracle(m0, f_map):
    den, fd = vinberg._scaled(f_map)
    return (fd == {a: f * den for a, f in f_map.items()}
            and _positivity_lanes(m0, den, fd)
            == tuple(9 * den * c for c in _oracle_positivity(m0, f_map)))


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.label)
def test_positivity_kernel_on_each_case(case):
    # M0' with f', as verify_cusp_case reads it
    assert _integer_matches_oracle(case.m0_prime, case.f_prime)


def test_positivity_kernel_on_the_small_sets():
    # every small set with f = 0, as verify_small_sets reads it
    sets = [frozenset(vinberg.mask_weights(m))
            for m in enumerate_up_closed(vinberg.SMALL_SET_SIZE)]
    assert len(sets) == 72
    assert all(_positivity_lanes(m, 1, {})
               == tuple(9 * c for c in _oracle_positivity(m, {}))
               for m in sets)


@pytest.mark.parametrize("shift", [0, 1], ids=["tiny_f", "f_prime_plus"])
def test_lane_width_grows_with_den(shift):
    # f of eight prime denominators above 512 makes den > 2^64, so the
    # coordinates pass 2^63 and no 32- or 64-bit lane holds them; the
    # lanes still read back every coordinate of the oracle, and the sign
    # test fails M0' under a tiny f and passes it under f' plus it
    case = CASES[0]
    primes = (521, 523, 541, 547, 557, 563, 569, 571)
    f_map = {a: shift * case.f_prime[a] + Fraction(1, p)
             for a, p in zip(case.m1_prime, primes)}
    den, fd = vinberg._scaled(f_map)
    oracle = tuple(9 * den * c for c in _oracle_positivity(case.m0_prime,
                                                           f_map))
    assert den > 2 ** 64 and max(map(abs, oracle)) > 2 ** 63
    assert _positivity_lanes(case.m0_prime, den, fd) == oracle
    assert all(v > 0 for v in oracle) == bool(shift)


@st.composite
def certificates(draw):
    """An up-closed set between a case's two layers, with its derived f or
    a random nonnegative rational f on the case's M1'."""
    case = draw(st.sampled_from(CASES))
    free = sorted(case.m0_prime - case.m0_dprime)
    chosen = draw(st.lists(st.sampled_from(free), unique=True))
    m0 = case.m0_dprime | (up_closure(chosen) & case.m0_prime)
    if draw(st.booleans()):
        f_map = derived_f_for(case, m0)
    else:
        f_map = {a: draw(st.fractions(min_value=0, max_value=20,
                                      max_denominator=64))
                 for a in case.m1_prime}
    return m0, f_map


@settings(deadline=None, derandomize=True, max_examples=200)
@given(certificates())
def test_integer_positivity_is_scaled_fraction_positivity(cert):
    m0, f_map = cert
    assert vinberg.is_up_closed(m0)
    assert _integer_matches_oracle(m0, f_map)


@st.composite
def mask_certificates(draw):
    """A case, with its own f' or a random nonnegative rational f' on its
    M1', and an up-closed set between its two layers."""
    case = draw(st.sampled_from(CASES))
    if draw(st.booleans()):
        case = case._replace(f_prime={
            a: draw(st.fractions(min_value=0, max_value=8,
                                 max_denominator=64))
            for a in case.m1_prime})
    free = sorted(case.m0_prime - case.m0_dprime)
    chosen = draw(st.lists(st.sampled_from(free), unique=True))
    return case, case.m0_dprime | (up_closure(chosen) & case.m0_prime)


@settings(deadline=None, derandomize=True, max_examples=200)
@given(mask_certificates())
def test_mask_check_is_the_set_check(cert):
    case, m0 = cert
    expect = check_direct_certificate(m0, derived_f_for(case, m0))
    assert vinberg.intermediate_check(case)(vinberg._mask(m0)) == (
        expect["sum_ok"], expect["positivity_ok"], expect["nonneg_ok"])


def test_mutated_coweight_entry_fails_the_property(monkeypatch):
    # the kernel sums M0 through the index masks: drop one weight of M0'
    # from the mask of one of its coordinates
    case = CASES[0]
    a = min(case.m0_prime)
    masks = list(vinberg._index_masks())
    masks[a[0] - 1] &= ~vinberg._mask([a])
    monkeypatch.setattr(vinberg, "_index_masks", lambda: tuple(masks))
    assert not _integer_matches_oracle(case.m0_prime, case.f_prime)


@pytest.mark.parametrize("a", cuspdata.S_H)
def test_raised_f_prime_fails_sum_or_positivity(a):
    case = CASES[0]
    conds = verify_cusp_case(case)["conditions"]
    assert conds["sum_bound"]["ok"] and conds["positivity"]["ok"]
    raised = case._replace(f_prime={
        **case.f_prime, a: case.f_prime[a] + conds["sum_bound"]["slack"]})
    conds = verify_cusp_case(raised)["conditions"]
    assert not (conds["sum_bound"]["ok"] and conds["positivity"]["ok"])
    # at zero slack each sum test fails on its own: sum f' = |M0'| is not
    # below |M0'|, here and in the intermediate check of M0' itself
    assert conds["sum_bound"] == {"ok": False, "slack": 0}
    assert vinberg.intermediate_check(raised)(
        vinberg._mask(raised.m0_prime))[0] is False


@pytest.mark.parametrize("a", cuspdata.S_H)
def test_lowered_f_prime_at_zero_positivity_fails(a):
    # f'(a) lowered until the first coordinate that a raises reaches
    # exactly 0: the others stay positive, and the sum bound only gains
    case = CASES[0]
    slack = verify_cusp_case(case)["conditions"]["positivity"]["slack"]
    up = n_vector(weight_vector(a))
    drop = min(s / c for s, c in zip(slack, up) if c > 0)
    lowered = case._replace(f_prime={**case.f_prime,
                                     a: case.f_prime[a] - drop})
    conds = verify_cusp_case(lowered)["conditions"]
    assert min(conds["positivity"]["slack"]) == 0
    assert conds["positivity"]["slack"] == _oracle_positivity(
        lowered.m0_prime, lowered.f_prime)
    assert conds["sum_bound"]["ok"] and not conds["positivity"]["ok"]


def test_small_set_at_zero_positivity_is_reported(monkeypatch):
    # every up-closed set of size <= 11 has slack; at 12, eight sets have
    # a coordinate exactly 0 and none below
    monkeypatch.setattr(vinberg, "SMALL_SET_SIZE", 12)
    sets = up_closed_sets(12)
    least = {m: min(_oracle_positivity(m, {})) for m in sets}
    assert min(least.values()) == 0
    zero = [sorted(m) for m in sets if least[m] == 0]
    assert len(zero) == 8
    assert vinberg.verify_small_sets() == {"enumerated": len(sets),
                                           "failures": zero}


def test_equal_layers_are_well_formed():
    # M0'' = M0' leaves g no domain, and the layers may coincide
    case = CASES[0]
    flat = case._replace(m0_dprime=case.m0_prime, g={})
    assert verify_cusp_case(flat)["conditions"]["well_formed"] == {"ok": True}


@pytest.mark.parametrize("step", ["upward", "zero"])
def test_non_descending_g_step_fails_descent(step):
    case = CASES[0]
    a = min(case.g)
    target = (next(b for b in ALL_WEIGHTS if leq(a, b) and b != a)
              if step == "upward" else a)
    res = verify_cusp_case(case._replace(g={**case.g, a: target}))
    assert res["conditions"]["descent_steps"] == {"ok": False, "bad": [a]}


def test_coverage_checks(report):
    assert report.passed("cusp", "coverage")


def test_degree_bookkeeping(report):
    # degrees with the right sum that are not the weights of the quintic
    # family fail it: the mutation row cusp_degree_bookkeeping
    assert report.passed("cusp", "degree_bookkeeping")


def test_fixture_roundtrip_bytes():
    text = vinberg.cases_to_json()
    loaded = cases_from_json(text)
    orig = build_base_cases() + build_boundary_cases()
    assert loaded == orig


def test_stability_suite(report):
    stability = [c for c in report.suites["cusp"]["checks"]
                 if c["name"].startswith("stability_")]
    skipped = [c["name"] for c in stability if c["status"] == "skipped"]
    assert skipped == ["stability_part1_258_skipped"]
    assert report.passed("cusp", *(c["name"] for c in stability
                                   if c["status"] != "skipped"))


def test_248_reduction_is_computed_on_the_poset():
    assert (3, 4, 8) in up_closure([(2, 4, 8)])
    assert reduces_to((2, 4, 8), (3, 4, 8))
    # negative control: the order does not go the other way
    assert not reduces_to((3, 4, 8), (2, 4, 8))


def test_stability_negative_control():
    # removing the key generator breaks the lambda criterion
    lam = neg(tuple(x + y for x, y in
                    zip(weight_vector((1, 3, 4)), weight_vector((1, 2, 5)))))
    assert not check_lambda_criterion(lam, frozenset())


def test_alternating_det_is_the_pfaffian_squared():
    # det = Pf^2 at n = 4, with Pf = x01 x23 - x02 x13 + x03 x12; the
    # permutation signs matter here, while at n = 5 every coefficient
    # vanishes whatever they are
    pf = {((0, 1), (2, 3)): 1, ((0, 2), (1, 3)): -1, ((0, 3), (1, 2)): 1}
    square = {}
    for m1, c1 in pf.items():
        for m2, c2 in pf.items():
            key = tuple(sorted(m1 + m2))
            square[key] = square.get(key, 0) + c1 * c2
    assert alternating_det(4) == square
    assert alternating_det(5) == {}


def test_kostant_triple(report):
    assert report.passed("cusp", "kostant_relations", "kostant_ad_e_kernel",
                         "kostant_slice_dim", "kostant_slice_degrees",
                         "kostant_sampled_regularity")


def test_kostant_cross_model(report):
    assert report.passed("cusp", "kostant_two_models_agree")


def test_two_models_are_compared_with_each_other(monkeypatch):
    # the values themselves are the claims of kostant_slice_dim,
    # kostant_slice_degrees and kostant_ad_e_kernel: the comparison holds
    # on any values the two models share, and fails when one field differs
    from e8g3 import kostant, wedge
    monkeypatch.setattr(wedge, "kostant_slice_report", lambda: {
        "slice_dim": 5, "slice_degrees": [1, 2, 3, 4, 5],
        "ad_e_kernel_dim": 9})
    table = {"slice_dim": 5, "slice_degrees": [1, 2, 3, 4, 5]}
    assert kostant.cross_check_with_wedge_model(table, 9)
    assert not kostant.cross_check_with_wedge_model(table, 8)
    assert not kostant.cross_check_with_wedge_model(
        {**table, "slice_dim": 4}, 9)
    assert not kostant.cross_check_with_wedge_model(
        {**table, "slice_degrees": [1, 2, 3, 4, 6]}, 9)


def fraction_witness_points(E, basis):
    """Oracle: the witness points E + sum c_i basis_i themselves, with the
    rational coefficients of the slice basis."""
    from e8g3.kostant import REGULARITY_WITNESSES
    out = []
    for coeffs in REGULARITY_WITNESSES:
        v = E
        for b, c in zip(basis, coeffs):
            v = v + b * c
        out.append(v)
    return out


def centralizer_dims(alg, points):
    """Oracle: dim z(v) in degree 0 at each point v, as the 80 degree-0
    basis elements less the rank of their brackets with v."""
    from e8g3.intlinalg import rank
    from e8g3.kostant import _dense_rows, _slot_vector
    deg0 = [("c", a) for a in range(8)] + [
        ("r", i) for i in range(alg.n) if alg.degree[i] == 0]
    deg1 = [("r", i) for i in range(alg.n) if alg.degree[i] == 1]
    return [len(deg0) - rank(_dense_rows(
        [alg.bracket(_slot_vector(alg, s), v) for s in deg0], deg1),
        len(deg1)) for v in points]


@pytest.fixture(scope="module")
def slice_data():
    from e8g3 import kostant
    from e8g3.gradedlie import get_algebra
    alg = get_algebra()
    E, _, F = kostant.build_triple(alg)
    return alg, E, kostant.slice_report(alg, F)["slice_basis"]


def test_witness_points_are_integral_multiples(slice_data):
    # each point is the rational witness point times a positive integer,
    # read off E's coefficient 1 at a basis root, and has int coefficients
    from e8g3 import kostant
    alg, E, basis = slice_data
    points = kostant.witness_points(E, basis)
    fractional = fraction_witness_points(E, basis)
    assert any(type(x) is not int for v in fractional
               for pair in v.roots.values() for x in pair)
    for v, u in zip(points, fractional):
        assert all(type(x) is int for part in (v.cartan, v.roots)
                   for pair in part.values() for x in pair)
        scale = v.roots[min(E.roots)][0]
        assert scale > 1 and v == u * scale
    # scaling changes no dimension
    assert centralizer_dims(alg, points) == centralizer_dims(
        alg, fractional) == [0, 0, 0]


def test_regularity_is_settled_mod_seven(monkeypatch, slice_data):
    # the mod-(7, w - 2) certificate gives full rank at all three integral
    # points, so no exact elimination runs
    from e8g3 import intlinalg, kostant
    alg, E, basis = slice_data
    calls = []
    rref = intlinalg.rref

    def counted(rows, width):
        calls.append(width)
        return rref(rows, width)
    monkeypatch.setattr(intlinalg, "rref", counted)
    assert kostant.sampled_regularity(alg, E, basis) == {
        "centralizer_dims": [0, 0, 0], "ok": True}
    assert calls == []
    # the wrapper sees a rank that the certificate leaves open
    assert intlinalg.rank([[(1, 0), (2, 0)], [(2, 0), (4, 0)]], 2) == 1
    assert calls == [2]


def test_rank_is_exact_on_the_regularity_matrices(monkeypatch, slice_data):
    # the three 80 x 84 matrices the regularity check ranks, recorded as it
    # runs: rank, with each distinct entry mapped to F_7 once, is the pivot
    # count of exact elimination on each, and maps each entry at most once
    from e8g3 import intlinalg, kostant
    alg, E, basis = slice_data
    matrices, images = [], []
    reduce = intlinalg.reduce_mod_p7

    def recorded(rows, width):
        matrices.append((rows, width))
        return intlinalg.rank(rows, width)

    def counted(x):
        images.append(x)
        return reduce(x)
    monkeypatch.setattr(kostant, "rank", recorded)
    monkeypatch.setattr(intlinalg, "reduce_mod_p7", counted)
    assert kostant.sampled_regularity(alg, E, basis)["ok"]
    assert [(len(rows), width) for rows, width in matrices] == [(80, 84)] * 3
    for rows, width in matrices:
        images.clear()
        assert intlinalg.rank(rows, width) == len(
            intlinalg.rref(rows, width)[1]) == 80
        assert len(images) == len(set(images)) == len(
            {x for row in rows for x in row})


def ad_e_nilpotency_index(alg):
    """Smallest t with ad(E)^t = 0, found by iterating on each basis slot."""
    from e8g3.kostant import build_triple
    E, _, _ = build_triple(alg)
    worst = 0
    for start in [alg.cartan_basis(a) for a in range(8)] + \
                 [alg.x(i) for i in range(alg.n)]:
        v = start
        steps = 0
        while not is_zero(v):
            v = alg.bracket(E, v)
            steps += 1
            assert steps <= 60, "ad(E) is not nilpotent of index <= 60"
        worst = max(worst, steps)
    return worst


def test_kostant_nilpotency_index():
    from e8g3.gradedlie import get_algebra
    assert ad_e_nilpotency_index(get_algebra()) == 59
