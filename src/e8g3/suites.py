"""Verification suites wiring every module-level check into reports.

Each suite is an ordered tuple of checks (name, function of a `Context`).
A function returns (ok, detail[, slack]).  One whose name ends in `*`
returns its lines instead, each (name, ok, detail[, slack]), where ok None
marks a skipped line.  `run_checks` runs a tuple: a check that raises
`CheckFailed` gives one `fail` line with the reason as its detail, one
that raises anything else one `error` line, and the rest still run.  A
shared input is built at most once, a build that raised included."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import partial, reduce
from itertools import repeat

# checks look a function up on its module as they run, so a wrapper
# installed there sees the call
from . import (cyclotomic, finitefield, genus2, gradedlie, heis, jacobian,
               kostant, sections, sp4, stability, vinberg)
from . import rootsys as rs_mod
from .intlinalg import (det_bareiss, identity, mat_eq, mat_pow, mat_sub,
                        rref_mod)
from .report import CheckFailed, Suite, sha256
from .rootsys import build_root_system

# SHA-256 digests of the canonical root-system data and of the structure
# constant table; any change to either construction changes them
ROOTSYS_DIGEST = \
    "37e7fc955615c0b07d7ffde2f4272700d0a9430a3582798747d0cf3254ced51d"
GRADEDLIE_DIGEST = \
    "19ec7daabd44977ef13db2b4db747b278f2eefb961eecd2132e323233559b430"


class Context:
    """The inputs that several checks of one suite run share.  The first read
    of `name` builds it by `_name`; a build that raised raises every read."""

    def __init__(self, fixture_path: str | None):
        self.fixture_path = fixture_path
        self.raised, self.printed = {}, set()  # failed builds, shown errors

    def __getattr__(self, name):
        # reached only while `name` is not in the instance dict
        build = getattr(Context, "_" + name)
        if name not in self.raised:
            try:
                self.__dict__[name] = value = build(self)
                return value
            except Exception as exc:
                self.raised[name] = exc
        raise self.raised[name]

    def _rs(self):
        return build_root_system()

    def _gram(self):
        return self.rs.class_gram()

    def _reps(self):
        return [heis.svn_rep(g) for g in range(243)]

    def _traces(self):
        return [m.trace() for m in self.reps]

    def _alg(self):
        return gradedlie.get_algebra()

    def _jacobi(self):
        return gradedlie.verify_jacobi(self.alg)

    def _spaces(self):
        return self.alg.graded_basis()

    def _cusp_bound(self):
        return vinberg.verify_cusp_bound()

    def _triple(self):
        return kostant.build_triple(self.alg)

    def _kernel_dim(self):
        return kostant.ad_e_kernel_dim(self.alg, self.triple[0])

    def _slice(self):
        return kostant.slice_report(self.alg, self.triple[2])

    def _sp4(self):
        """(|Sp4(F_3)|, class count) by the direct and the Moebius count."""
        return sp4.density_direct(), sp4.density_by_classes()

    def _jacobians(self):
        """(f mod 7, its Jacobian's F_7 points) by fixture curve."""
        out = {}
        for coeffs in ((0, 0, 1, 3), (1, 1, 0, 2), (0, 2, 3, 1)):
            qq = genus2.Quintic(*coeffs)
            if genus2.discriminant(qq) % 7 == 0:
                raise CheckFailed(f"curve {coeffs} is singular over F7")
            f = [c % 7 for c in qq.coeffs()]
            out[coeffs] = f, jacobian.enumerate_jacobian(
                finitefield.get_field(7), f)
        return out

    def _fixture_text(self):
        return sections.fixture_text(self.fixture_path)


def _sign_identity(c):
    pairs, w = c.rs.pairs, c.rs.w_on_roots
    ok = True
    for i, row in enumerate(pairs):
        row_wi = pairs[w[i]]
        ok &= all((row[w[j]] + row_wi[j]) % 2 == 1
                  for j, p in enumerate(row) if p == -1)
    return ok, "all pairs with a + b a root"


ROOTSYS = (
    ("root_count",
     lambda c: (len(c.rs.roots) == 240, f"{len(c.rs.roots)} roots")),
    ("type_counts", lambda c: (
        (n := {s: sum(sum(r) == s for r in c.rs.roots) for s in (0, 3, 6)})
        == {0: 72, 3: 84, 6: 84}, str(n))),
    ("intersection_pairing_table",
     lambda c: (not vinberg.verify_intersection_table(),
                "all 84^2 weight pairs")),
    ("sum_rule_iff_pairing_minus_one", lambda c: (all(
        [p == -1 for p in row] == [m is not None for m in c.rs.sum_row(i)]
        for i, row in enumerate(c.rs.pairs)), "240^2 sweep")),
    ("per_root_pairing_statistics", lambda c: (all(
        Counter(row) == dict(rs_mod.E8_ROW) for row in c.rs.pairs),
        "(2:1, 1:56, 0:126, -1:56, -2:1) for every root")),
    ("order_three",
     lambda c: (mat_eq(mat_pow(c.rs.w, 3), identity(8)), "w^3 = 1")),
    ("elliptic", lambda c: (det_bareiss(mat_sub(c.rs.w, identity(8))) != 0,
                            "no nonzero fixed vector")),
    ("snf_divisors", lambda c: (c.rs.divisors == (1, 1, 1, 1, 3, 3, 3, 3),
                                str(c.rs.divisors))),
    ("orbit_class_bijection", lambda c: (
        len(c.rs.orbits) == 80 and len(classes := {
            c.rs.project(c.rs.roots[o[0]]) for o in c.rs.orbits}) == 80
        and (0, 0, 0, 0) not in classes, "80 orbits onto 80 nonzero classes")),
    ("pairing_alternating", lambda c: (
        all(row[u] == 0 for u, row in enumerate(c.gram))
        and all((x + c.gram[v][u]) % 3 == 0
                for u, row in enumerate(c.gram) for v, x in enumerate(row)),
        "on basis classes")),
    ("pairing_nondegenerate", lambda c: (
        len(c.gram) == 4 and len(rref_mod(c.gram, 4, 3)[1]) == 4,
        "Gram rank 4 over F3")),
    ("sign_identity", _sign_identity),
    ("rebuild_identical", lambda c: (
        rs_mod.RootSystem().digest() == (d := c.rs.digest()) == ROOTSYS_DIGEST,
        d[:16])),
)


def _group_order(c):
    # the closure of the four basis classes (the codes of the unit
    # vectors) under the group law: the cocycle makes it reach the centre
    product = heis.code_product
    gens = heis.UNIT_CODES
    group, frontier = set(gens), gens
    while frontier:
        frontier = {product(g, h) for g in frontier for h in gens} - group
        group |= frontier
    return len(group) == 243, ""


def _symplectic_basis(c):
    # the SNF classes that the algebra's class-code map sends to the unit
    # vectors, lifted to the lattice
    h = heis
    to_symplectic = h.build_model()
    units = h.UNIT_CODES
    lifts = [c.rs.lift(h.CLASSES[to_symplectic.index(g)]) for g in units]
    got = [[c.rs.symplectic_exponent(a, b) for b in lifts] for a in lifts]
    return (got == [[h.FORM[a][b] for b in units] for a in units],
            "defining relations of (e1, e2, f1, f2)")


def _rep_homomorphism(c):
    # the column codes of rho(g) rho(h), for all h at once, are those of
    # every rho(h) translated through the table of rho(g)
    product = heis.code_product
    codes = [m.codes for m in c.reps]
    return (all(list(map(bytes.translate, codes, repeat(m.table(), 243)))
                == [codes[product(g, h)] for h in range(243)]
                for g, m in enumerate(c.reps)), "all 243^2 pairs")


HEIS = (
    ("group_order", _group_order),
    ("exponent_three",
     lambda c: (all(reduce(heis.code_product, (g, g, g)) == 0
                    for g in range(243)), "")),
    ("commutator_is_pairing", lambda c: (all(
        reduce(heis.code_product,
               (g, h, heis.code_inverse(g), heis.code_inverse(h)))
        == 81 * heis.FORM[g % 81][h % 81]
        for g in range(0, 243, 5) for h in range(0, 243, 7)),
        "sampled element pairs")),
    ("symplectic_basis", _symplectic_basis),
    ("rep_homomorphism", _rep_homomorphism),
    ("rep_injective", lambda c: (len({m.codes for m in c.reps}) == 243, "")),
    ("rep_traces", lambda c: (all(
        tr == (cyclotomic.zeta_mul(9, 0, g // 81) if g % 81 == 0 else (0, 0))
        for g, tr in enumerate(c.traces)),
        "9 zeta^k on centre, 0 elsewhere")),
    # Schur: <chi, chi> = 1, that is the norms x^2 - xy + y^2 of the traces
    # x + y w sum to the group order; the commutant then has dimension 1
    ("rep_irreducible", lambda c: (sum(
        x * x - x * y + y * y for x, y in c.traces) == 243,
        "commutant dimension 1")),
)


def _killing_form(c):
    kg = gradedlie.killing_gram(c.alg)
    return (kg["nondegenerate"] and kg["theta_orthogonal"]
            and kg["integer_entries"] and kg["kind2_opposite"]
            and kg["mixed_block_zero"] and c.jacobi["out_additive"],
            "nondegenerate, symmetry-orthogonal, integral after gauge")


GRADEDLIE = (
    ("jacobi", lambda c: (
        not c.jacobi["violations"] and c.jacobi["out_additive"],
        f"{c.jacobi['evaluated_triples']} evaluated basis triples, "
        "remainder vanishes by weight additivity")),
    ("antisymmetry",
     lambda c: (not c.jacobi["antisymmetry_violations"], "all pairs")),
    ("theta_automorphism", lambda c: (not c.alg.check_theta_automorphism(),
                                      "bracket preserved on all generator "
                                      "pairs")),
    ("grading_dimensions", lambda c: (
        (dims := [len(c.spaces[i]) for i in (0, 1, 2)]) == [80, 84, 84],
        str(dims))),
    ("graded_bracket_containment", lambda c: (
        not c.alg.check_bracket_containment(c.spaces),
        "[h(1), h(1)] in h(2) and [h(1), h(2)] in h(0), all basis pairs")),
    ("z_span", lambda c: (gradedlie.z_supports_partition(c.alg),
                          "80 independent symmetrized vectors")),
    ("lambda_twists", lambda c: (
        not c.alg.check_lambda_twists()
        and len(set(lams := c.alg.twist_classes())) == len(lams) == 80
        and 0 not in lams,
        "80 nonzero classes preserve the table")),
    ("rho_prime_homomorphism", lambda c: (
        not (hom := gradedlie.verify_rho_prime_homomorphism(c.alg))[
            "mismatches"] and hom["pairs"] == len(c.rs.roots) ** 2,
        f"{hom['pairs']} pairs")),
    ("rho_prime_traceless",
     lambda c: (gradedlie.rho_prime_traceless(c.alg), "")),
    ("rho_prime_image_dim",
     lambda c: (gradedlie.rho_prime_image_rank(c.alg) == 80,
                "inside traceless 9x9")),
    ("heis_action_match", lambda c: (
        not (act := gradedlie.verify_heis_action_match(c.alg))[
            "mismatches"] and act["pairs"] == len(c.rs.roots) ** 2,
        f"{act['pairs']} conjugation pairs vs lattice pairing")),
    ("killing_form", _killing_form),
    ("structure_digest", lambda c: (
        (d := c.alg.digest()) == GRADEDLIE_DIGEST, d[:16])),
)


def _case_lines(c):
    lines = []
    for case in c.cusp_bound["cases"]:
        label, conds = case["label"], case["conditions"]
        sampled = case["sampled_intermediates"]
        lines += [
            (f"case_{label}_sum", conds["sum_bound"]["ok"], "sum f' < |M0'|",
             conds["sum_bound"]["slack"]),
            (f"case_{label}_positivity", conds["positivity"]["ok"],
             "coweight positivity", conds["positivity"]["slack"]),
            (f"case_{label}_descent", conds["descent_steps"]["ok"],
             "g decreases in the coweight order"),
            (f"case_{label}_capacity", conds["capacity"]["ok"],
             "f' >= computed preimage counts",
             sorted(conds["capacity"]["slack"].values())[:1]),
            (f"case_{label}_wellformed", conds["well_formed"]["ok"],
             "fixture shape and closure"),
            (f"case_{label}_intermediates", not sampled["failures"]
             and sampled["count"] == vinberg.INTERMEDIATE_SAMPLES,
             f"{sampled['count']} sampled sets"),
        ]
    return lines


CUSP = (
    ("s0_marking", lambda c: (not vinberg.verify_s0_basis(),
                              "value 1 exactly on the basis triples, "
                              "integral")),
    ("order_agreement", lambda c: (not vinberg.verify_leq_agreement(),
                                   "coordinatewise vs coweight order, "
                                   "84^2 pairs")),
    ("pairing_table_vs_lattice",
     lambda c: (not vinberg.verify_intersection_table(), "")),
    ("case_*", _case_lines),
    ("note_*", lambda c: [
        (f"note_{case['label']}", None, f"logged for triage: {note}")
        for case in c.cusp_bound["cases"] for note in case["notes"]]),
    ("small_sets", lambda c: (
        not (small := c.cusp_bound["small_sets"])["failures"],
        f"{small['enumerated']} up-closed sets of size "
        f"<= {vinberg.SMALL_SET_SIZE}")),
    ("coverage", lambda c: (c.cusp_bound["coverage"]["ok"],
                            "certificates cover the case analysis")),
    ("stability_*", lambda c: [
        (f"stability_{name}", ok,
         "proof-level, not machine-checked" if ok is None else "")
        for name, ok in stability.verify_stability()["results"]]),
    ("kostant_relations", lambda c: (
        kostant.verify_triple(c.alg, c.triple)["ok"],
        "exact sl2 relations, graded, unique")),
    ("kostant_ad_e_kernel", lambda c: (
        c.kernel_dim == 8, "regular nilpotent centralizer dimension")),
    ("kostant_slice_dim", lambda c: (c.slice["slice_dim"] == 4, "")),
    ("kostant_slice_degrees", lambda c: (
        c.slice["slice_degrees"] == list(genus2.WEIGHTS),
        str(c.slice["slice_degrees"]))),
    ("kostant_sampled_regularity", lambda c: (
        (reg := kostant.sampled_regularity(
            c.alg, c.triple[0], c.slice["slice_basis"]))["ok"],
        f"centralizer dims {reg['centralizer_dims']}")),
    ("kostant_two_models_agree", lambda c: (
        kostant.cross_check_with_wedge_model(c.slice, c.kernel_dim),
        "table realization vs wedge realization")),
    ("degree_bookkeeping", lambda c: (
        c.slice["slice_degrees"] == list(genus2.WEIGHTS),
        "84 = 12+18+24+30; slice and quotient weight lists")),
)


def _disc(*coeffs):
    return genus2.discriminant(genus2.Quintic(*coeffs))


def _enumeration_vs_bruteforce(c):
    counts, ok = {}, True
    for a in (1, 2, 3, 5, 10):
        fast = list(genus2.enumerate_min(a))
        counts[a] = len(fast)
        ok &= fast == list(genus2.enumerate_min_bruteforce(a))
    return ok and counts[1] == 0, f"counts {counts}"


def _cantor_group_law(c):
    import random
    F7, one = finitefield.get_field(7), jacobian.IDENTITY
    rng = random.Random("cantor")  # 12 fixed triples per curve
    ok = True
    for f, J in c.jacobians.values():
        add = partial(jacobian.cantor_add, F7, f)
        for _ in range(12):
            A, B, C = rng.choice(J), rng.choice(J), rng.choice(J)
            ok &= (add(add(A, B), C) == add(A, add(B, C))
                   and add(A, jacobian.cantor_neg(F7, A)) == one
                   and jacobian.cantor_mul(F7, f, A, len(J)) == one)
    return ok, "sampled associativity, inverses, order annihilation"


def _mumford_lines(c):
    """f = u v + r^2 for the first divisor (u, r) of each degree nu on the
    first fixture curve over F7."""
    from .finitefield import pdivmod, pmul, psub
    F7 = finitefield.get_field(7)
    f7, J = c.jacobians[(0, 0, 1, 3)]
    out = []
    for nu, detail in enumerate(("trivial decomposition",
                                 "point decomposition over F7",
                                 "exhaustive-search decomposition over F7")):
        u, r = next(D for D in J if len(D[0]) == nu + 1)
        v, rem = pdivmod(F7, psub(F7, f7, pmul(F7, r, r)), u)
        out.append((f"mumford_nu{nu}", not rem and jacobian.mumford_verify(
            F7, u, v, r) == f7, detail))
    return out


def _fixture_lines(c):
    # the fixture's field and scan are local, so they are dropped before
    # the Sp4 counts, which hold the suite's largest tables
    q, fcoeffs, recorded, expected_row = sections.fixture_from_json(
        c.fixture_text)
    F = finitefield.GF(q)
    f = [F.from_int(x) for x in fcoeffs]
    found = sections.find_sections(F, f)
    rep = sections.verify_section_fixture(F, f, found)
    return [
        ("fixture_rescan_count", len(found) == 240,
         f"{len(found)} sections over F_{q}"),
        ("fixture_matches_scan", sorted(found) == sorted(recorded),
         "recorded section list equals fresh scan"),
        ("fixture_histogram",
         rep["histogram_ok"] and expected_row == rs_mod.E8_ROW,
         "per-section row (2:1, 1:56, 0:126, -1:56, -2:1)"),
        ("fixture_torsion", rep["torsion_ok"],
         "every section class killed by 3"),
        ("fixture_classes", rep["classes_ok"],
         f"{rep['class_count']} nonzero classes, fibers of size 3"),
        ("fixture_twists", rep["closed_under_twist"] and rep["twist_free"]
         and rep["twist_fibers_match_classes"], ""),
        ("fixture_flip_closure", rep["closed_under_flip"], ""),
        ("fixture_cusp_avoidance", rep["cusp_avoidance_ok"], ""),
        ("fixture_twist_exponents", rep["twist_exponent_alternating"]
         and rep["twist_exponent_invariant"],
         "alternating and symmetry-invariant"),
    ]


def _sp4_density(c):
    (n1, c1), (n2, c2) = c.sp4
    return ((n1, c1) == (n2, c2) and 0 < c1 < n1,
            f"|C|/|Sp4| = {c1}/{n1} = {Fraction(c1, n1)}", Fraction(c1, n1))


SECTIONS = (
    ("disc_x5", lambda c: (_disc(0, 0, 0, 0) == 0, "quintuple root")),
    ("disc_x5_minus_1", lambda c: (_disc(0, 0, 0, -1) == 3125, "5^5")),
    ("disc_matches_oracle", lambda c: (
        _disc(0, 0, 1, 0) == genus2.remainder_discriminant(
            genus2.Quintic(0, 0, 1, 0))
        and _disc(0, 0, 1, 0) != 0, "fraction-free vs expansion determinant")),
    ("height_examples", lambda c: (
        genus2.height_lt(genus2.Quintic(0, 0, 0, 0), 1)
        and genus2.height_lt(genus2.Quintic(1, 0, 0, 0), 2)
        and not genus2.height_lt(genus2.Quintic(0, 0, 0, 2), 2), "")),
    ("minimality_examples", lambda c: (
        genus2.is_minimal(genus2.Quintic(1, 0, 0, 0))
        and not genus2.is_minimal(genus2.Quintic(16, 64, 256, 1024))
        and genus2.is_minimal(genus2.Quintic(16, 0, 0, 59049)), "")),
    ("enumeration_vs_bruteforce", _enumeration_vs_bruteforce),
    ("cantor_order_matches_zeta", lambda c: (all(
        len(J) == jacobian.jacobian_order_zeta(
            7, genus2.Quintic(*coeffs).coeffs())
        for coeffs, (_, J) in c.jacobians.items()),
        "3 fixture curves over F7")),
    ("cantor_group_law", _cantor_group_law),
    ("mumford_*", _mumford_lines),
    ("fixture_*", _fixture_lines),
    ("sp4_order", lambda c: (c.sp4[0][0] == 51840 and c.sp4[1][0] == 51840,
                             f"{c.sp4[0][0]}")),
    ("sp4_density", _sp4_density),
)

CHECKS = {"rootsys": ROOTSYS, "heis": HEIS, "gradedlie": GRADEDLIE,
          "cusp": CUSP, "sections": SECTIONS}


def _call(s: Suite, name: str, fn, c: Context):
    """fn(c), or None after a line `name` in `s` if it raises: `fail` for
    `CheckFailed`, else `error` and, once per exception, its traceback."""
    try:
        return fn(c)
    except CheckFailed as exc:
        s.check(name, False, str(exc))
    except Exception as exc:
        if exc not in c.printed:
            c.printed.add(exc)
            import traceback
            traceback.print_exc()
        s.error(name, f"{type(exc).__name__}: {exc}")


def run_checks(checks, s: Suite, c: Context):
    """Adds the lines of each declared check to `s`, in order."""
    for name, fn in checks:
        out = _call(s, name, fn, c)
        if out is None:
            continue
        if not name.endswith("*"):
            s.check(name, *out)
            continue
        for line, ok, *rest in out:
            if ok is None:
                s.skip(line, *rest)
            else:
                s.check(line, ok, *rest)


SUITES = {name: partial(run_checks, checks) for name, checks in CHECKS.items()}


def run_suite(name: str, fixture_path: str | None) -> dict:
    """The report of one suite.  Its fixture_digest is the SHA-256 of the
    sections fixture for the suite that reads it, of the cusp cases for the
    others; a digest that raises gives one `fixture_digest` error line."""
    s = Suite(name)
    c = Context(fixture_path)
    # called through SUITES, where a wrapper installed on it sees it
    SUITES[name](s, c)
    digest = _call(s, "fixture_digest", _DIGESTS.get(name, _cases_digest), c)
    return s.to_dict(fixture_digest=digest or "")


def _cases_digest(c) -> str:
    return sha256(vinberg.cases_to_json().encode()).hexdigest()


_DIGESTS = {"sections": lambda c: sha256(c.fixture_text.encode()).hexdigest()}
