"""Verification suites wiring every module-level check into reports.

Each suite function adds its checks to the `Suite` that `run_suite`
creates and passes in, so a suite that raises keeps what it finished."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import repeat

from . import rootsys as rs_mod
from . import vinberg
from .report import Suite, sha256
from .rootsys import build_root_system

# SHA-256 digests of the canonical root-system data and of the structure
# constant table; any change to either construction changes them
ROOTSYS_DIGEST = \
    "37e7fc955615c0b07d7ffde2f4272700d0a9430a3582798747d0cf3254ced51d"
GRADEDLIE_DIGEST = \
    "19ec7daabd44977ef13db2b4db747b278f2eefb961eecd2132e323233559b430"


def suite_rootsys(s: Suite):
    rs = build_root_system()
    s.check("root_count", len(rs.roots) == 240, f"{len(rs.roots)} roots")
    by_sum = {0: 0, 3: 0, 6: 0}
    for r in rs.roots:
        by_sum[sum(r)] += 1
    s.check("type_counts", by_sum == {0: 72, 3: 84, 6: 84}, str(by_sum))

    s.check("intersection_pairing_table",
            not vinberg.verify_intersection_table(), "all 84^2 weight pairs")

    pairs = rs.pairs
    sum_rule = True
    stats_ok = True
    for i, row in enumerate(pairs):
        if Counter(row) != {2: 1, 1: 56, 0: 126, -1: 56, -2: 1}:
            stats_ok = False
        if ([p == -1 for p in row]
                != [m is not None for m in rs.sum_row(i)]):
            sum_rule = False
    s.check("sum_rule_iff_pairing_minus_one", sum_rule, "240^2 sweep")
    s.check("per_root_pairing_statistics", stats_ok,
            "(2:1, 1:56, 0:126, -1:56, -2:1) for every root")

    from .intlinalg import det_bareiss, identity, mat_eq, mat_pow, mat_sub
    s.check("order_three", mat_eq(mat_pow(rs.w, 3), identity(8)), "w^3 = 1")
    s.check("elliptic", det_bareiss(mat_sub(rs.w, identity(8))) != 0,
            "no nonzero fixed vector")
    s.check("snf_divisors", rs.divisors == (1, 1, 1, 1, 3, 3, 3, 3),
            str(rs.divisors))

    classes = {rs.project(rs.roots[o[0]]) for o in rs.orbits}
    s.check("orbit_class_bijection",
            len(rs.orbits) == 80 and len(classes) == 80
            and (0, 0, 0, 0) not in classes,
            "80 orbits onto 80 nonzero classes")

    gram = rs.class_gram()
    alt = all(gram[u][u] == 0 for u in range(4))
    sym = all((gram[u][v] + gram[v][u]) % 3 == 0
              for u in range(4) for v in range(4))
    s.check("pairing_alternating", alt and sym, "on basis classes")
    from .intlinalg import rref_mod
    s.check("pairing_nondegenerate", len(rref_mod(gram, 4, 3)[1]) == 4,
            "Gram rank 4 over F3")

    sign_ok = True
    w = rs.w_on_roots
    for i, row in enumerate(pairs):
        row_wi = pairs[w[i]]
        for j, p in enumerate(row):
            if p == -1 and (row[w[j]] + row_wi[j]) % 2 != 1:
                sign_ok = False
    s.check("sign_identity", sign_ok, "all pairs with a + b a root")

    fresh = rs_mod.RootSystem()
    digest = rs.digest()
    s.check("rebuild_identical", fresh.digest() == digest == ROOTSYS_DIGEST,
            digest[:16])


def suite_heis(s: Suite):
    from .heis import (CLASSES, FORM, build_model, code_inverse,
                       code_product, standard_form, svn_rep)

    model = build_model()
    els = range(3 * len(CLASSES))  # the element codes
    # the closure of the four basis classes (the codes of the unit
    # vectors) under the group law: the cocycle makes it reach the centre
    gens = [27, 9, 3, 1]
    group, frontier = set(gens), gens
    while frontier:
        frontier = {code_product(g, h) for g in frontier for h in gens} - group
        group |= frontier
    s.check("group_order", len(group) == 243, "")
    s.check("exponent_three",
            all(code_product(code_product(g, g), g) == 0 for g in els), "")
    comm_ok = all(
        code_product(code_product(code_product(g, h), code_inverse(g)),
                     code_inverse(h))
        == 81 * FORM[g % 81][h % 81]
        for g in els[::5] for h in els[::7])
    s.check("commutator_is_pairing", comm_ok, "sampled element pairs")

    rsys = model.rs
    lifts = [rsys.lift(CLASSES[model.from_symplectic[c]]) for c in gens]
    got = [[rsys.symplectic_exponent(a, b) for b in lifts] for a in lifts]
    s.check("symplectic_basis", got == standard_form(),
            "defining relations of (e1, e2, f1, f2)")

    reps = [svn_rep(g) for g in els]
    # the column codes of rho(g) rho(h), for all h at once, are those of
    # every rho(h) translated through the table of rho(g)
    codes = [m.codes for m in reps]
    hom = all(list(map(bytes.translate, codes, repeat(m.table(), 243)))
              == [codes[code_product(g, h)] for h in els]
              for g, m in enumerate(reps))
    s.check("rep_homomorphism", hom, "all 243^2 pairs")
    s.check("rep_injective", len(set(codes)) == 243, "")
    from .cyclotomic import zeta_mul
    traces = [m.trace() for m in reps]
    s.check("rep_traces",
            all(t == (zeta_mul(9, 0, g // 81) if g % 81 == 0 else (0, 0))
                for g, t in zip(els, traces)),
            "9 zeta^k on centre, 0 elsewhere")
    # Schur: <chi, chi> = 1, that is the norms x^2 - xy + y^2 of the traces
    # x + y w sum to the group order; the commutant then has dimension 1
    s.check("rep_irreducible",
            sum(x * x - x * y + y * y for x, y in traces) == 243,
            "commutant dimension 1")


def suite_gradedlie(s: Suite):
    from .gradedlie import (get_algebra, killing_gram, rho_prime_image_rank,
                            rho_prime_traceless, verify_heis_action_match,
                            verify_jacobi, verify_rho_prime_homomorphism,
                            z_supports_partition)

    alg = get_algebra()
    jac = verify_jacobi(alg)
    s.check("jacobi", not jac["violations"] and jac["out_additive"],
            f"{jac['evaluated_triples']} evaluated basis triples, "
            "remainder vanishes by weight additivity")
    s.check("antisymmetry", not jac["antisymmetry_violations"], "all pairs")
    s.check("theta_automorphism", not alg.check_theta_automorphism(),
            "bracket preserved on all generator pairs")
    spaces = alg.graded_basis()
    dims = [len(spaces[i]) for i in (0, 1, 2)]
    s.check("grading_dimensions", dims == [80, 84, 84], str(dims))
    s.check("graded_bracket_containment",
            not alg.check_bracket_containment(spaces),
            "[h(1), h(1)] in h(2) and [h(1), h(2)] in h(0), all basis pairs")
    s.check("z_span", z_supports_partition(alg),
            "80 independent symmetrized vectors")
    s.check("lambda_twists", not alg.check_lambda_twists(),
            "80 nonzero classes preserve the table")

    hom = verify_rho_prime_homomorphism(alg)
    s.check("rho_prime_homomorphism", not hom["mismatches"],
            f"{hom['pairs']} pairs")
    s.check("rho_prime_traceless", rho_prime_traceless(alg), "")
    s.check("rho_prime_image_dim", rho_prime_image_rank(alg) == 80,
            "inside traceless 9x9")
    act = verify_heis_action_match(alg)
    s.check("heis_action_match", not act["mismatches"],
            f"{act['pairs']} conjugation pairs vs lattice pairing")
    kg = killing_gram(alg)
    s.check("killing_form", kg["nondegenerate"] and kg["theta_orthogonal"]
            and kg["integer_entries"] and kg["kind2_opposite"]
            and kg["mixed_block_zero"] and jac["out_additive"],
            "nondegenerate, symmetry-orthogonal, integral after gauge")
    digest = alg.digest()
    s.check("structure_digest", digest == GRADEDLIE_DIGEST, digest[:16])


def suite_cusp(s: Suite):
    from . import kostant, stability
    from .gradedlie import get_algebra

    s.check("s0_marking", not vinberg.verify_s0_basis(),
            "value 1 exactly on the basis triples, integral", None)
    s.check("order_agreement", not vinberg.verify_leq_agreement(),
            "coordinatewise vs coweight order, 84^2 pairs")
    s.check("pairing_table_vs_lattice", not vinberg.verify_intersection_table(),
            "")
    rep = vinberg.verify_cusp_bound()
    for case in rep["cases"]:
        conds = case["conditions"]
        s.check(f"case_{case['label']}_sum", conds["sum_bound"]["ok"],
                "sum f' < |M0'|", conds["sum_bound"]["slack"])
        s.check(f"case_{case['label']}_positivity", conds["positivity"]["ok"],
                "coweight positivity", conds["positivity"]["slack"])
        s.check(f"case_{case['label']}_descent", conds["descent_steps"]["ok"],
                "g decreases in the coweight order")
        s.check(f"case_{case['label']}_capacity", conds["capacity"]["ok"],
                "f' >= computed preimage counts",
                sorted(conds["capacity"]["slack"].values())[:1])
        s.check(f"case_{case['label']}_wellformed",
                conds["well_formed"]["ok"], "fixture shape and closure")
        s.check(f"case_{case['label']}_intermediates",
                not case["sampled_intermediates"]["failures"],
                f"{case['sampled_intermediates']['count']} sampled sets")
    for case in rep["cases"]:
        for note in case["notes"]:
            s.skip(f"note_{case['label']}", f"logged for triage: {note}")
    s.check("small_sets", not rep["small_sets"]["failures"],
            f"{rep['small_sets']['enumerated']} up-closed sets of size "
            f"<= {vinberg.SMALL_SET_SIZE}")
    s.check("coverage", rep["coverage"]["ok"],
            "certificates cover the case analysis")

    st = stability.verify_stability()
    for name, ok in st["results"]:
        if ok is None:
            s.skip(f"stability_{name}", "proof-level, not machine-checked")
        else:
            s.check(f"stability_{name}", ok, "")

    alg = get_algebra()
    tri = kostant.verify_triple(alg)
    s.check("kostant_relations", tri["ok"],
            "exact sl2 relations, graded, unique")
    kernel_dim = kostant.ad_e_kernel_dim(alg)
    s.check("kostant_ad_e_kernel", kernel_dim == 8,
            "regular nilpotent centralizer dimension")
    srep = kostant.slice_report(alg)
    s.check("kostant_slice_dim", srep["slice_dim"] == 4, "")
    s.check("kostant_slice_degrees", srep["slice_degrees"] == [12, 18, 24, 30],
            str(srep["slice_degrees"]))
    reg = kostant.sampled_regularity(alg, srep)
    s.check("kostant_sampled_regularity", reg["ok"],
            f"centralizer dims {reg['centralizer_dims']}")
    s.check("kostant_two_models_agree",
            kostant.cross_check_with_wedge_model(srep, kernel_dim),
            "table realization vs wedge realization")

    bk = vinberg.degree_bookkeeping(srep["slice_degrees"])
    s.check("degree_bookkeeping", bk["ok"],
            "84 = 12+18+24+30; slice and quotient weight lists")


def suite_sections(s: Suite, fixture_path: str | None) -> str:
    """The sections checks on the fixture at `fixture_path` (None: the
    packaged one); returns the fixture's SHA-256 digest."""
    from .finitefield import get_field
    from .genus2 import (Quintic, discriminant, enumerate_min,
                         enumerate_min_bruteforce, height_lt, is_minimal)
    from .jacobian import (IDENTITY, cantor_add, cantor_mul, cantor_neg,
                           enumerate_jacobian, jacobian_order_zeta,
                           mumford_verify)

    s.check("disc_x5", discriminant(Quintic(0, 0, 0, 0)) == 0, "quintuple root")
    s.check("disc_x5_minus_1",
            discriminant(Quintic(0, 0, 0, -1)) == 3125, "5^5")
    q0 = Quintic(0, 0, 1, 0)
    s.check("disc_matches_oracle",
            discriminant(q0) == discriminant(q0, oracle=True)
            and discriminant(q0) != 0,
            "fraction-free vs expansion determinant")

    s.check("height_examples",
            height_lt(Quintic(0, 0, 0, 0), 1)
            and height_lt(Quintic(1, 0, 0, 0), 2)
            and not height_lt(Quintic(0, 0, 0, 2), 2), "")
    s.check("minimality_examples",
            is_minimal(Quintic(1, 0, 0, 0))
            and not is_minimal(Quintic(16, 64, 256, 1024))
            and is_minimal(Quintic(16, 0, 0, 59049)), "")

    counts = {}
    ok_enum = True
    for a in (1, 2, 3, 5, 10):
        fast = list(enumerate_min(a))
        slow = enumerate_min_bruteforce(a)
        counts[a] = len(fast)
        if [q.label() for q in fast] != [q.label() for q in slow]:
            ok_enum = False
    s.check("enumeration_vs_bruteforce", ok_enum and counts[1] == 0,
            f"counts {counts}")

    import random
    rng = random.Random("cantor")  # 12 fixed triples per curve
    F7 = get_field(7)
    zeta_ok = True
    law_ok = True
    jacobians = {}
    for coeffs in ((0, 0, 1, 3), (1, 1, 0, 2), (0, 2, 3, 1)):
        qq = Quintic(*coeffs)
        if discriminant(qq) % 7 == 0:
            raise ValueError(f"curve {coeffs} is singular over F7")
        f = [c % 7 for c in qq.coeffs()]
        J = jacobians[coeffs] = enumerate_jacobian(F7, f)
        if len(J) != jacobian_order_zeta(7, qq.coeffs()):
            zeta_ok = False
        n = len(J)
        for _ in range(12):
            A, B, C = rng.choice(J), rng.choice(J), rng.choice(J)
            if cantor_add(F7, f, cantor_add(F7, f, A, B), C) != \
                    cantor_add(F7, f, A, cantor_add(F7, f, B, C)):
                law_ok = False
            if cantor_add(F7, f, A, cantor_neg(F7, A)) != IDENTITY:
                law_ok = False
            if cantor_mul(F7, f, A, n) != IDENTITY:
                law_ok = False
    s.check("cantor_order_matches_zeta", zeta_ok, "3 fixture curves over F7")
    s.check("cantor_group_law", law_ok,
            "sampled associativity, inverses, order annihilation")

    from .finitefield import pdivmod, peval, pmul, psub
    f7 = [c % 7 for c in Quintic(0, 0, 1, 3).coeffs()]
    ok_m = mumford_verify(F7, [1], f7, []) == f7
    s.check("mumford_nu0", ok_m, "trivial decomposition")
    t_pt, r_pt = next((t, F7.sqrt(peval(F7, f7, t))) for t in range(7)
                      if F7.sqrt(peval(F7, f7, t)) is not None)
    u1 = [F7.neg(t_pt), 1]
    v1, rem1 = pdivmod(F7, psub(F7, f7, [F7.mul(r_pt, r_pt)]), u1)
    ok_m1 = not rem1 and mumford_verify(F7, u1, v1, [r_pt] if r_pt else []) == f7
    s.check("mumford_nu1", ok_m1, "point decomposition over F7")
    u2, r2 = next(((u, v) for (u, v) in jacobians[(0, 0, 1, 3)]
                   if len(u) == 3))
    v2, rem2 = pdivmod(F7, psub(F7, f7, pmul(F7, r2, r2)), u2)
    ok_m2 = not rem2 and mumford_verify(F7, u2, v2, r2) == f7
    s.check("mumford_nu2", ok_m2, "exhaustive-search decomposition over F7")

    # the fixture's field and scans are dropped before the Sp4 counts,
    # which hold the suite's largest tables
    digest = _fixture_checks(s, fixture_path)

    from .sp4 import density_by_classes, density_direct
    n1, c1 = density_direct()
    n2, c2 = density_by_classes()
    s.check("sp4_order", n1 == 51840 and n2 == 51840, f"{n1}")
    s.check("sp4_density", (n1, c1) == (n2, c2) and 0 < c1 < n1,
            f"|C|/|Sp4| = {c1}/{n1} = {Fraction(c1, n1)}",
            Fraction(c1, n1))
    return digest


def _fixture_checks(s: Suite, fixture_path: str | None) -> str:
    """The fixture_* checks of the sections suite; returns the fixture's
    SHA-256 digest."""
    from .finitefield import GF
    from .sections import (E8_ROW, find_sections, fixture_from_json,
                            fixture_text, verify_section_fixture)

    text = fixture_text(fixture_path)
    digest = sha256(text.encode()).hexdigest()
    q, fcoeffs, sections, expected_row = fixture_from_json(text)
    F = GF(q)
    f = [F.from_int(c) for c in fcoeffs]
    rescanned = find_sections(F, f)
    s.check("fixture_rescan_count", len(rescanned) == 240,
            f"{len(rescanned)} sections over F_{q}")
    s.check("fixture_matches_scan",
            sorted(sec.key() for sec in rescanned)
            == sorted(sec.key() for sec in sections),
            "recorded section list equals fresh scan")
    rep = verify_section_fixture(F, f, rescanned)
    s.check("fixture_histogram", rep["histogram_ok"]
            and expected_row == E8_ROW,
            "per-section row (2:1, 1:56, 0:126, -1:56, -2:1)")
    s.check("fixture_torsion", rep["torsion_ok"],
            "every section class killed by 3")
    s.check("fixture_classes", rep["classes_ok"],
            f"{rep['class_count']} nonzero classes, fibers of size 3")
    s.check("fixture_twists", rep["closed_under_twist"] and rep["twist_free"]
            and rep["twist_fibers_match_classes"], "")
    s.check("fixture_flip_closure", rep["closed_under_flip"], "")
    s.check("fixture_cusp_avoidance", rep["cusp_avoidance_ok"], "")
    s.check("fixture_twist_exponents", rep["twist_exponent_alternating"]
            and rep["twist_exponent_invariant"],
            "alternating and symmetry-invariant")
    return digest


SUITES = {
    "rootsys": suite_rootsys,
    "heis": suite_heis,
    "gradedlie": suite_gradedlie,
    "cusp": suite_cusp,
    "sections": suite_sections,
}


def run_suite(name: str, fixture_path: str | None) -> dict:
    """The report of one suite.  A suite that raises keeps the checks it
    finished, followed by one `crash` check with status `error`, so that
    the other suites' results survive too."""
    s = Suite(name)
    args = (fixture_path,) if name == "sections" else ()
    try:
        # called through SUITES, where a wrapper installed on it sees it
        digest = SUITES[name](s, *args) or _default_digest()
    except Exception as exc:
        import traceback
        traceback.print_exc()
        s.error("crash", f"{type(exc).__name__}: {exc}")
        digest = ""
    return s.to_dict(fixture_digest=digest)


def _default_digest() -> str:
    from .vinberg import cases_to_json
    return sha256(cases_to_json().encode()).hexdigest()
