"""Verification suites wiring every module-level check into reports."""

from __future__ import annotations

import hashlib
import os
from fractions import Fraction
from itertools import combinations

from . import rootsys as rs_mod
from . import vinberg
from .report import Suite
from .rootsys import build_root_system, pairing, weight_vector

# SHA-256 digests of the canonical root-system data and of the structure
# constant table; any change to either construction changes them
ROOTSYS_DIGEST = \
    "37e7fc955615c0b07d7ffde2f4272700d0a9430a3582798747d0cf3254ced51d"
GRADEDLIE_DIGEST = \
    "19ec7daabd44977ef13db2b4db747b278f2eefb961eecd2132e323233559b430"


def suite_rootsys(threads: int = 1, seed: int = 0) -> Suite:
    s = Suite("rootsys")
    rs = build_root_system()
    s.check("root_count", len(rs.roots) == 240, f"{len(rs.roots)} roots")
    by_sum = {0: 0, 3: 0, 6: 0}
    for r in rs.roots:
        by_sum[sum(r)] += 1
    s.check("type_counts", by_sum == {0: 72, 3: 84, 6: 84}, str(by_sum))

    table_ok = all(
        pairing(weight_vector(a), weight_vector(b)) == len(set(a) & set(b)) - 1
        for a in combinations(range(1, 10), 3)
        for b in combinations(range(1, 10), 3))
    s.check("intersection_pairing_table", table_ok, "all 84^2 weight pairs")

    sum_rule = True
    stats_ok = True
    for a in rs.roots:
        counts = {}
        for b in rs.roots:
            p = pairing(a, b)
            counts[p] = counts.get(p, 0) + 1
            if (p == -1) != (rs_mod.add(a, b) in rs.index):
                sum_rule = False
        if counts != {2: 1, 1: 56, 0: 126, -1: 56, -2: 1}:
            stats_ok = False
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

    lifts = [rs.lift(tuple(int(i == j) for j in range(4))) for i in range(4)]
    alt = all(rs.symplectic_exponent(u, u) == 0 for u in lifts)
    sym = all((rs.symplectic_exponent(u, v)
               + rs.symplectic_exponent(v, u)) % 3 == 0
              for u in lifts for v in lifts)
    s.check("pairing_alternating", alt and sym, "on basis classes")
    from .intlinalg import rref_mod
    s.check("pairing_nondegenerate",
            len(rref_mod(rs.class_gram(), 4, 3)[1]) == 4,
            "Gram rank 4 over F3")

    sign_ok = True
    w_img = [rs.roots[rs.w_on_roots[i]] for i in range(240)]
    for i, a in enumerate(rs.roots):
        for j, b in enumerate(rs.roots):
            if pairing(a, b) == -1:
                if (pairing(a, w_img[j]) + pairing(w_img[i], b)) % 2 != 1:
                    sign_ok = False
    s.check("sign_identity", sign_ok, "all pairs with a + b a root")

    fresh = rs_mod.RootSystem()
    s.check("rebuild_identical",
            fresh.digest() == rs.digest() == ROOTSYS_DIGEST,
            rs.digest()[:16])
    return s


def suite_heis(threads: int = 1, seed: int = 0) -> Suite:
    from .heis import (HeisElement, IDENTITY, all_elements, build_model,
                       commutant_dimension, commutator_exponent,
                       standard_form, svn_rep)

    s = Suite("heis")
    model = build_model()
    els = all_elements()
    s.check("group_order", len(els) == 243, "")
    s.check("exponent_three", all((g * g) * g == IDENTITY for g in els), "")
    comm_ok = all(
        (g * h * g.inverse() * h.inverse())
        == HeisElement(commutator_exponent(g.cls, h.cls), (0, 0, 0, 0))
        for g in els[::5] for h in els[::7])
    s.check("commutator_is_pairing", comm_ok, "sampled element pairs")

    rsys = model.rs
    lifts = [rsys.lift(model.from_symplectic(tuple(int(i == j)
                                                   for j in range(4))))
             for i in range(4)]
    got = [[rsys.symplectic_exponent(a, b) for b in lifts] for a in lifts]
    s.check("symplectic_basis", got == standard_form(),
            "defining relations of (e1, e2, f1, f2)")

    reps = {g: svn_rep(g) for g in els}
    hom = all(reps[g] * reps[h] == reps[g * h] for g in els for h in els)
    s.check("rep_homomorphism", hom, "all 243^2 pairs")
    s.check("rep_injective", len(set(reps.values())) == 243, "")
    from .cyclotomic import Cyc
    traces = all((reps[g].trace() == Cyc.zeta(g.k) * 9) if g.cls == (0,) * 4
                 else reps[g].trace() == Cyc(0) for g in els)
    s.check("rep_traces", traces, "9 zeta^k on centre, 0 elsewhere")
    gens = [HeisElement(0, v) for v in
            [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]]
    s.check("rep_irreducible", commutant_dimension(gens) == 1,
            "commutant dimension 1")
    return s


def suite_gradedlie(threads: int = 1, seed: int = 0) -> Suite:
    from .gradedlie import (get_algebra, killing_gram, rho_prime_image_rank,
                            rho_prime_traceless, verify_heis_action_match,
                            verify_jacobi, verify_rho_prime_homomorphism)

    s = Suite("gradedlie")
    alg = get_algebra()
    jac = verify_jacobi(alg, threads=threads)
    s.check("jacobi", not jac["violations"],
            f"{jac['evaluated_triples']} evaluated basis triples, "
            "remainder vanishes by weight additivity")
    s.check("antisymmetry", not jac["antisymmetry_violations"], "all pairs")
    s.check("theta_automorphism", not alg.check_theta_automorphism(),
            "bracket preserved on all generator pairs")
    spaces = alg.graded_basis()
    dims = [len(spaces[i]) for i in (0, 1, 2)]
    s.check("grading_dimensions", dims == [80, 84, 84], str(dims))
    from .cyclotomic import Cyc
    contain = True
    for (i, j) in [(1, 1), (1, 2)]:
        for x in spaces[i]:
            for y in spaces[j]:
                out = alg.bracket(x, y)
                if not out.is_zero() and alg.theta(out) != out * Cyc.zeta(i + j):
                    contain = False
    s.check("graded_bracket_containment", contain,
            "[h(1), h(1)] in h(2) and [h(1), h(2)] in h(0), all basis pairs")
    s.check("z_span", len(alg.rs.orbits) == 80,
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
            and kg["integer_entries"],
            "nondegenerate, symmetry-orthogonal, integral after gauge")
    s.check("structure_digest", alg.digest() == GRADEDLIE_DIGEST,
            alg.digest()[:16])
    return s


def suite_cusp(threads: int = 1, seed: int = 0) -> Suite:
    from . import kostant, stability

    s = Suite("cusp")
    s.check("s0_marking", not vinberg.verify_s0_basis(),
            "value 1 exactly on the basis triples, integral", None)
    s.check("order_agreement", not vinberg.verify_leq_agreement(),
            "coordinatewise vs coweight order, 84^2 pairs")
    s.check("pairing_table_vs_lattice", not vinberg.verify_intersection_table(),
            "")
    rep = vinberg.verify_cusp_bound(seed=seed, samples=100)
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
    for note in rep["notes"]:
        for label, payload in note.items():
            s.skip(f"note_{label}", f"logged for triage: {payload}")
    s.check("small_sets", not rep["small_sets"]["failures"],
            f"{rep['small_sets']['enumerated']} up-closed sets of size <= 10")
    s.check("coverage", rep["coverage"]["ok"],
            "certificates cover the case analysis")

    st = stability.verify_stability()
    for name, ok, _ in st["results"]:
        if ok is None:
            s.skip(f"stability_{name}", "proof-level, not machine-checked")
        else:
            s.check(f"stability_{name}", ok, "")

    tri = kostant.verify_triple()
    s.check("kostant_relations", tri["ok"],
            "exact sl2 relations, graded, unique")
    alg = kostant.get_algebra()
    kernel_dim = kostant.ad_e_kernel_dim(alg)
    s.check("kostant_ad_e_kernel", kernel_dim == 8,
            "regular nilpotent centralizer dimension")
    srep = kostant.slice_report(alg)
    s.check("kostant_slice_dim", srep["slice_dim"] == 4, "")
    s.check("kostant_slice_degrees", srep["slice_degrees"] == [12, 18, 24, 30],
            str(srep["slice_degrees"]))
    reg = kostant.sampled_regularity(alg, srep, seed=seed)
    s.check("kostant_sampled_regularity", reg["ok"],
            f"centralizer dims {reg['centralizer_dims']}")
    s.check("kostant_two_models_agree",
            kostant.cross_check_with_wedge_model(srep, kernel_dim),
            "table realization vs wedge realization")

    bk = vinberg.degree_bookkeeping()
    s.check("degree_bookkeeping", bk["ok"],
            "84 = 12+18+24+30; slice and quotient weight lists")
    return s


def fixture_text(fixture_path: str | None) -> str:
    """The sections fixture: the given path, else sections_q.json in
    $E8G3_FIXTURES, else the packaged default."""
    if fixture_path:
        with open(fixture_path) as fh:
            return fh.read()
    env_dir = os.environ.get("E8G3_FIXTURES")
    if env_dir:
        cand = os.path.join(env_dir, "sections_q.json")
        if os.path.exists(cand):
            with open(cand) as fh:
                return fh.read()
    from importlib import resources
    return resources.files("e8g3").joinpath(
        "fixtures/sections_q.json").read_text()


def suite_sections(threads: int = 1, seed: int = 0,
                   fixture_path: str | None = None) -> Suite:
    from .finitefield import GF
    from .genus2 import (Quintic, discriminant, enumerate_min,
                         enumerate_min_bruteforce, height_lt, is_minimal)
    from .jacobian import (IDENTITY, cantor_add, cantor_mul, cantor_neg,
                           enumerate_jacobian, jacobian_order_zeta,
                           mumford_verify)
    from .sections import (E8_ROW, find_sections, fixture_from_json,
                            verify_section_fixture)

    s = Suite("sections")
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
    rng = random.Random(f"{seed}:cantor")
    F7 = GF(7)
    zeta_ok = True
    law_ok = True
    for coeffs in ((0, 0, 1, 3), (1, 1, 0, 2), (0, 2, 3, 1)):
        qq = Quintic(*coeffs)
        if discriminant(qq) % 7 == 0:
            raise ValueError(f"curve {coeffs} is singular over F7")
        f = [c % 7 for c in qq.coeffs()]
        J = enumerate_jacobian(F7, f)
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
    u2, r2 = next(((u, v) for (u, v) in enumerate_jacobian(F7, f7)
                   if len(u) == 3))
    v2, rem2 = pdivmod(F7, psub(F7, f7, pmul(F7, r2, r2)), u2)
    ok_m2 = not rem2 and mumford_verify(F7, u2, v2, r2) == f7
    s.check("mumford_nu2", ok_m2, "exhaustive-search decomposition over F7")

    text = fixture_text(fixture_path)
    digest = hashlib.sha256(text.encode()).hexdigest()
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
    rep = verify_section_fixture(F, f, rescanned, seed=seed)
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

    from .sp4 import density_by_classes, density_direct, enumerate_sp4
    group = enumerate_sp4()
    n1, c1 = density_direct(group)
    n2, c2 = density_by_classes(group)
    s.check("sp4_order", n1 == 51840 and n2 == 51840, f"{n1}")
    s.check("sp4_density", (n1, c1) == (n2, c2) and 0 < c1 < n1,
            f"|C|/|Sp4| = {c1}/{n1} = {Fraction(c1, n1)}",
            Fraction(c1, n1))
    s._digest = digest
    return s


SUITES = {
    "rootsys": suite_rootsys,
    "heis": suite_heis,
    "gradedlie": suite_gradedlie,
    "cusp": suite_cusp,
    "sections": suite_sections,
}


def run_suite(name: str, threads: int = 1, seed: int = 0,
              fixture_path: str | None = None):
    fn = SUITES[name]
    if name == "sections":
        suite = fn(threads=threads, seed=seed, fixture_path=fixture_path)
    else:
        suite = fn(threads=threads, seed=seed)
    digest = getattr(suite, "_digest", None) or _default_digest()
    return suite.to_dict(fixture_digest=digest)


def _default_digest() -> str:
    from .vinberg import cases_to_json
    return hashlib.sha256(cases_to_json().encode()).hexdigest()
