"""Mutation table: each row patches one ingredient of a suite check and
asserts that the check's lines pass before and fail after.  Only the
declared checks that give those lines run, through the suite's own
runner, so a row also tests that the suite wires the ingredient into that
check.  A wrong result found deep in a sweep is a `fail` line too; only a
patch that breaks a build invariant, which raises, gives an `error`."""

import inspect
import re
import textwrap
from fnmatch import fnmatchcase

import pytest

from e8g3 import (cuspdata, finitefield, genus2, gradedlie, heis, jacobian,
                  kostant, rootsys, sections, sp4, stability, suites,
                  vinberg)
from e8g3.gradedlie import GradedAlgebra, LieElement, get_algebra
from e8g3.intlinalg import identity
from e8g3.report import Suite
from e8g3.rootsys import build_root_system


# the once-per-process discriminants, emptied before each run of the
# checks so that a patch of a kernel under them is not masked by a value
# computed before it
_CACHED = (genus2.discriminant, genus2.remainder_discriminant)


def _statuses(suite, names):
    """The status of each line `names` of `suite`, with only the declared
    checks that give them run."""
    for fn in _CACHED:
        fn.cache_clear()
    s = Suite(suite)
    checks = [(declared, fn) for declared, fn in suites.CHECKS[suite]
              if any(fnmatchcase(name, declared) for name in names)]
    suites.run_checks(checks, s, suites.Context(None))
    status = {c["name"]: c["status"] for c in s.checks}
    return [status.get(name) for name in names]


def _patch_triple(change):
    def patch(monkeypatch):
        build = kostant.build_triple
        monkeypatch.setattr(kostant, "build_triple",
                            lambda alg: change(alg, *build(alg)))
    return patch


def _stray_root(alg):
    """A degree-1 root vector, which no [E, F'] with F' of degree 2 reaches."""
    return LieElement(roots={alg.degree.index(1): (1, 0)})


def _stray_root_in_resolve(monkeypatch):
    check = kostant._uniqueness_check
    monkeypatch.setattr(kostant, "_uniqueness_check", lambda alg, E, X:
                        check(alg, E, X + _stray_root(alg)))


def _drop_height_one_slot(monkeypatch):
    # the block of height 1 without its last slot, so an image of ad(E)
    # leaves the block it is read in
    slots = kostant._height_slots
    monkeypatch.setattr(kostant, "_height_slots",
                        lambda alg: {**slots(alg), 1: slots(alg)[1][:-1]})


def _drop_basis_root(monkeypatch):
    monkeypatch.setattr(kostant, "S0_TRIPLES", kostant.S0_TRIPLES[:-1])


def _drop_wedge_triple(monkeypatch):
    # the wedge model's E loses one of its basis triples
    monkeypatch.setattr(cuspdata, "S_H", cuspdata.S_H[:-1])


def _lower_case1_f_prime(monkeypatch):
    # case1's f' at (2, 6, 8) lowered from 5 to 4, below its five
    # g-preimages: a sampled set that keeps all five gets f < 0 there
    build = vinberg.build_boundary_cases

    def lowered():
        cases = build()
        case = cases[0]
        a = (2, 6, 8)
        cases[0] = case._replace(
            f_prime={**case.f_prime, a: case.f_prime[a] - 1})
        return cases
    monkeypatch.setattr(vinberg, "build_boundary_cases", lowered)


def _flip_one_leq_pair(monkeypatch):
    # (1 2 3) <= (1 2 4) read as false, at call time of the check
    leq = vinberg.leq
    monkeypatch.setattr(vinberg, "leq", lambda a, b: leq(a, b) != (
        (a, b) == ((1, 2, 3), (1, 2, 4))))


def _shift_one_coweight(monkeypatch):
    # 9 x the first coweight coordinate of (1 2 3) raised by 9: still
    # integral, but (1 2 3) no longer lies below the weights containing 1
    cw = vinberg._COWEIGHTS9[(1, 2, 3)]
    monkeypatch.setitem(vinberg._COWEIGHTS9, (1, 2, 3), (cw[0] + 9, *cw[1:]))


def _truncate_intermediates(monkeypatch):
    # 99 of the 100 sampled sets, all of which pass
    masks = vinberg.intermediate_masks
    monkeypatch.setattr(vinberg, "intermediate_masks",
                        lambda case: masks(case)[:99])


def _irregular_slice_point(monkeypatch):
    # E without one basis root and with no slice part: not a regular point
    regularity = kostant.sampled_regularity

    def patched(alg, E, basis):
        roots = dict(E.roots)
        roots.pop(max(roots))
        return regularity(alg, LieElement(roots=roots), [])
    monkeypatch.setattr(kostant, "sampled_regularity", patched)


def _redirect_to_negative_root(monkeypatch):
    # [X_0, X_j] and [X_j, X_0] land on the negative of root 0 + root j
    alg = get_algebra()
    out = [list(row) for row in alg.out]
    j = min(j for j in alg.nbr[0] if alg.kind[0][j] == 1)
    out[0][j] = out[j][0] = alg.negidx[out[0][j]]
    monkeypatch.setattr(alg, "out", out)


def _mutant(fn, edit):
    """fn compiled again, in its own module, from its source after edit;
    an edit that leaves the source as it was raises, so that a row whose
    target line moved fails instead of testing the original.  A method is
    compiled as a plain function, to be set on its class."""
    source = textwrap.dedent(inspect.getsource(fn))
    edited = edit(source)
    if edited == source:
        raise ValueError(f"the edit leaves {fn.__name__} unchanged")
    namespace = {}
    exec(edited, fn.__globals__, namespace)
    return namespace[fn.__name__]


def _drop_identity_shift(monkeypatch):
    # the shifted columns without their diagonal "-= 1" line: det(M)
    monkeypatch.setattr(sp4, "density_direct", _mutant(
        sp4.density_direct,
        lambda src: "\n".join(line for line in src.splitlines()
                              if "-= 1" not in line)))


def _non_generating_pair(monkeypatch):
    # two symplectic bases that reach only 36 elements
    monkeypatch.setattr(sp4, "_GENERATORS",
                        ((1, 3, 18, 57), (1, 3, 18, 60)))


def _swap_generator_columns(monkeypatch):
    # the first generator with e1 and e2 swapped: e2 and f1 do not pair
    # to 1
    monkeypatch.setattr(sp4, "_GENERATORS",
                        ((3, 1, 18, 57), sp4._GENERATORS[1]))


def _fixed_tail(monkeypatch):
    # the walk keeps the tail it was given on every path, so no loop moves
    # f2 and the order derived from it is the hyperplane's orbit alone
    monkeypatch.setattr(sp4, "_walk", _mutant(
        sp4._walk, lambda src: src.replace("table[reached[c] - 1] + 1",
                                           "reached[c]")))


def _flip_mobius_on_planes(monkeypatch):
    # mu(0, W) with its sign flipped on the 130 planes
    mobius = sp4._mobius

    def flipped(levels):
        mu = mobius(levels)
        for m in levels[2]:
            mu[m] = -mu[m]
        return mu
    monkeypatch.setattr(sp4, "_mobius", flipped)


def _shift_one_product(monkeypatch):
    # one of the 243^2 products, of the elements coded 100 and 200, gets
    # its central part moved by one
    mul = heis.code_product

    def shifted(g, h):
        gh = mul(g, h)
        return (gh + 81) % 243 if (g, h) == (100, 200) else gh
    monkeypatch.setattr(heis, "code_product", shifted)


def _drop_character(module):
    # svn_rep, as `module` reads it, without its character
    # (s, t) -> zeta^(b1 s + b2 t): the f-classes act as scalars, so the
    # image is reducible and the images of any two classes commute
    def patch(monkeypatch):
        monkeypatch.setattr(module, "svn_rep", _mutant(
            heis.svn_rep,
            lambda src: src.replace("b1 * s2 + b2 * t2", "0")))
    return patch


def _move_one_square(monkeypatch):
    # the square of the element coded 1 gets its central part moved by one,
    # so its cube is central but not the identity
    mul = heis.code_product

    def moved(g, h):
        gh = mul(g, h)
        return (gh + 81) % 243 if g == h == 1 else gh
    monkeypatch.setattr(heis, "code_product", moved)


def _corrupt_code_shift(monkeypatch):
    # code 0 (row 0, exponent 0) moved by one lands on exponent 2
    table = [list(row) for row in heis.CODE_SHIFT]
    table[0][1] = 2
    monkeypatch.setattr(heis, "CODE_SHIFT", tuple(map(tuple, table)))


def _drop_cocycle(monkeypatch):
    # the group law with its cocycle left out: the centre never moves, so
    # the basis classes generate only the 81 central-part-zero elements
    monkeypatch.setattr(heis, "_LAW", b"".join(heis.VEC_ADD))


def _corrupt_slice_degrees(monkeypatch):
    # slice degrees with the right sum, 84, that are not the weights of
    # the quintic family
    report = kostant.slice_report
    monkeypatch.setattr(kostant, "slice_report", lambda alg, F: {
        **report(alg, F), "slice_degrees": [6, 24, 24, 30]})


def _patch_sum_row(change):
    # the entry of row 0 at its first pair with pairing -1
    def patch(monkeypatch):
        sum_row = rootsys.RootSystem.sum_row

        def patched(rs, i):
            row = sum_row(rs, i)
            if i == 0:
                j = rs.pairs[0].index(-1)
                row[j] = change(rs, row[j])
            return row
        monkeypatch.setattr(rootsys.RootSystem, "sum_row", patched)
    return patch


def _corrupt_cartan_pairing(monkeypatch):
    # one coroot-root pairing, at root 2: neither 2 nor the root that w
    # sends to 2 is a multiple of 7, so a sweep over every seventh root
    # alone would miss it
    alg = get_algebra()
    P = [list(row) for row in alg.P]
    P[0][2] += 1
    monkeypatch.setattr(alg, "P", P)


def _corrupt_pair_table(monkeypatch):
    # one entry of the shared root-pair table and its mirror: 1 becomes -1
    rs = build_root_system()
    rows = [list(row) for row in rs.pairs]
    j = rows[0].index(1)
    rows[0][j] = rows[j][0] = -1
    monkeypatch.setattr(rs, "pairs", tuple(map(tuple, rows)))


def _shift_root_coords(monkeypatch):
    # the bulk coordinates of root 0 moved by the first basis root
    root_coords = rootsys.RootSystem._root_coords

    def patched(rs):
        coords = list(root_coords(rs))
        coords[0] = (coords[0][0] + 1, *coords[0][1:])
        return tuple(coords)
    monkeypatch.setattr(rootsys.RootSystem, "_root_coords", patched)


def _corrupt_w(monkeypatch):
    rs = build_root_system()
    w = [list(row) for row in rs.w]
    w[0][0] += 1
    monkeypatch.setattr(rs, "w", w)


def _identity_w(monkeypatch):
    # w = 1 has order dividing three and fixes every vector
    monkeypatch.setattr(build_root_system(), "w", identity(8))


def _drop_contact_at_infinity(monkeypatch):
    # the same table with every contact order on the fibre at infinity 0
    monkeypatch.setattr(sections, "pairing_table", _mutant(
        sections.pairing_table,
        lambda src: re.sub(r"inf = \d", "inf = 0", src)))


def _plus_root_only(module):
    # the quadratic_roots that `module` reads keeps only the root
    # (-c1 + sqrt(disc)) / (2 c2)
    def patch(monkeypatch):
        monkeypatch.setattr(module, "quadratic_roots", _mutant(
            finitefield.quadratic_roots,
            lambda src: src.replace("neg[s]", "s")))
    return patch


def _drop_r_squared(monkeypatch):
    # mumford_verify returns u v in place of u v + r^2
    monkeypatch.setattr(jacobian, "mumford_verify", _mutant(
        jacobian.mumford_verify,
        lambda src: src.replace("padd(F, pmul(F, u, v), pmul(F, r, r))",
                                "pmul(F, u, v)")))


def _torsion_against_d(monkeypatch):
    # 2 D = D in place of 2 D = -D
    monkeypatch.setattr(sections, "section_class_is_3torsion", _mutant(
        sections.section_class_is_3torsion,
        lambda src: src.replace("cantor_neg(F, D)", "D")))


def _kind2_off_opposite(monkeypatch):
    # a fresh table whose cartan-valued bracket of root 0 and its opposite
    # moves to a pair (0, j) that has no bracket
    fresh = GradedAlgebra()
    row = fresh.kind[0]
    j = row.index(0)
    row[fresh.negidx[0]], row[j] = 0, 2
    fresh.nbr[0] = bytes(k for k in range(fresh.n) if row[k])
    monkeypatch.setattr(gradedlie, "get_algebra", lambda: fresh)


def _shift_one_w_power(monkeypatch):
    # a fresh table whose root-valued bracket of root 0 and its first
    # partner has its w-power moved by one
    fresh = GradedAlgebra()
    j = min(j for j in fresh.nbr[0] if fresh.kind[0][j] == 1)
    s = fresh.scl[0][j]
    fresh.scl[0][j] = s - s % 3 + (s + 1) % 3
    monkeypatch.setattr(gradedlie, "get_algebra", lambda: fresh)


def _twist_exponent_plus(monkeypatch):
    # P[s][t] + P[tau s][t] in place of P[s][t] - P[tau s][t]
    monkeypatch.setattr(sections, "twist_exponents", _mutant(
        sections.twist_exponents, lambda src: src.replace("a - b", "a + b")))


def _repeat_twist_orbit(monkeypatch):
    # the first orbit in place of the second: the twists try one class
    # twice and miss another, and every twist they try keeps the table
    rs = get_algebra().rs
    monkeypatch.setattr(rs, "orbits", rs.orbits[:1] * 2 + rs.orbits[2:])


def _edit_stability(pattern, repl):
    """verify_stability with its source edited by re.sub(pattern, repl)."""
    def patch(monkeypatch):
        monkeypatch.setattr(stability, "verify_stability", _mutant(
            stability.verify_stability,
            lambda src: re.sub(pattern, repl, src)))
    return patch


def _on_fresh_table(patch):
    """patch, then a table built afresh in its place for the suites."""
    def both(monkeypatch):
        patch(monkeypatch)
        monkeypatch.setattr(gradedlie, "get_algebra", GradedAlgebra)
    return both


def _fresh_lattice(monkeypatch):
    """The suites, the class-code map and the algebra build their root
    system, map and algebra afresh on each read, so that a patch of code
    that runs at build time reaches them."""
    fresh_model = heis.build_model.__wrapped__
    for module in (suites, heis, gradedlie):
        monkeypatch.setattr(module, "build_root_system", rootsys.RootSystem)
    monkeypatch.setattr(heis, "build_model", fresh_model)
    monkeypatch.setattr(gradedlie, "build_model", fresh_model)
    monkeypatch.setattr(gradedlie, "get_algebra", GradedAlgebra)


def _triple_last_divisor(monkeypatch):
    # a fresh root system whose Smith form of w - 1 has its last divisor
    # tripled
    snf = rootsys.smith_normal_form

    def tripled(M):
        D, U, V = snf(M)
        D = [list(row) for row in D]
        D[7][7] *= 3
        return D, U, V
    monkeypatch.setattr(rootsys, "smith_normal_form", tripled)
    _fresh_lattice(monkeypatch)


def _coxeter_power(k):
    """Fresh builds on w = c^k for the Coxeter element c, which has order
    30; only k = 10 and 20 give w of order 3."""
    def patch(monkeypatch):
        monkeypatch.setattr(rootsys.RootSystem, "__init__", _mutant(
            rootsys.RootSystem.__init__,
            lambda src: src.replace("mat_pow(c, 10)", f"mat_pow(c, {k})")))
        _fresh_lattice(monkeypatch)
    return patch


def _pair_count_quotient(name):
    """The pair sweep `name` of gradedlie counting the root pairs of two
    class groups as the quotient of their sizes, not the product."""
    def patch(monkeypatch):
        monkeypatch.setattr(gradedlie, name, _mutant(
            getattr(gradedlie, name),
            lambda src: re.sub(r"(pairs \+= .*) \* ", r"\1 // ", src)))
    return patch


# w = c^11: w^3 != 1, w permutes the roots without fixing one, and w - 1
# is unimodular, so the coinvariant space is zero
_eleventh_power = _coxeter_power(11)


# (id, patch, suite, the lines of that suite that the patch must fail)
MUTATIONS = [
    # heis/rep_homomorphism: one product off by a central element
    ("heis_rep_homomorphism", _shift_one_product, "heis", "rep_homomorphism"),
    # heis/exponent_three: one square off by a central element
    ("heis_exponent_three", _move_one_square, "heis", "exponent_three"),
    # heis/rep_irreducible: translations and central scalars alone leave
    # a commutant of dimension 9, and the traces show it
    ("heis_rep_irreducible", _drop_character(heis), "heis",
     "rep_irreducible"),
    # heis/group_order: without the cocycle the closure misses the centre
    ("heis_group_order", _drop_cocycle, "heis", "group_order"),
    # cusp/degree_bookkeeping reads the slice degrees of kostant_slice_degrees
    ("cusp_degree_bookkeeping", _corrupt_slice_degrees, "cusp",
     "degree_bookkeeping"),
    # rootsys/sum_rule_iff_pairing_minus_one and per_root_pairing_statistics
    # read the shared pair table
    ("rootsys_pair_table", _corrupt_pair_table, "rootsys",
     "sum_rule_iff_pairing_minus_one", "per_root_pairing_statistics"),
    # heis/rep_homomorphism: one entry of the monomial code-shift table
    ("heis_code_shift", _corrupt_code_shift, "heis", "rep_homomorphism"),
    # rootsys/sum_rule_iff_pairing_minus_one: a sum row that misses one root
    ("rootsys_sum_row_missing", _patch_sum_row(lambda rs, m: None),
     "rootsys", "sum_rule_iff_pairing_minus_one"),
    # gradedlie/jacobi, through out_additive: a sum row that points one pair
    # with pairing -1 at another root (the table's out reads the sum rows;
    # out_additive checks it against the packed basis coordinates)
    ("gradedlie_jacobi_sum_row",
     _on_fresh_table(_patch_sum_row(lambda rs, m: rs.w_on_roots[m])),
     "gradedlie", "jacobi"),
    # gradedlie/theta_automorphism: its cartan side sweeps every root
    ("gradedlie_theta_automorphism", _corrupt_cartan_pairing, "gradedlie",
     "theta_automorphism"),
    # rootsys/rebuild_identical: one root's coordinates off by a basis
    # root, so w read off the coordinates misses a root of the rebuild
    ("rootsys_root_coords", _shift_root_coords, "rootsys",
     "rebuild_identical"),
    # rootsys/order_three: one entry of w moved (w - 1 stays invertible,
    # so elliptic still holds)
    ("rootsys_w", _corrupt_w, "rootsys", "order_three"),
    # rootsys/elliptic: w = 1 fixes every vector (and w^3 = 1 still holds)
    ("rootsys_w_identity", _identity_w, "rootsys", "elliptic"),
    # rootsys/snf_divisors: the divisors the Smith form of w - 1 gives
    ("rootsys_snf_divisors", _triple_last_divisor, "rootsys",
     "snf_divisors"),
    # rootsys/order_three, gradedlie/z_span and heis/symplectic_basis own
    # the facts of w that the builders use: its order, its 80 root orbits
    # and the symplectic form on its coinvariants
    ("rootsys_order_three_build", _eleventh_power, "rootsys", "order_three"),
    ("gradedlie_z_span_build", _eleventh_power, "gradedlie", "z_span"),
    ("heis_symplectic_basis_build", _eleventh_power, "heis",
     "symplectic_basis"),
    # cusp/kostant_relations: 2E breaks [E, F] = X
    ("kostant_relations", _patch_triple(lambda alg, E, X, F: (E * 2, X, F)),
     "cusp", "kostant_relations"),
    # cusp/kostant_relations, its re-solve of [E, F'] = X alone (the triple
    # itself is kept): a component of X outside every image must make it
    # unsolvable
    ("kostant_relations_unique", _stray_root_in_resolve, "cusp",
     "kostant_relations"),
    # cusp/kostant_ad_e_kernel and kostant_two_models_agree, which read the
    # one kernel dimension: an image of ad(E) outside its height block
    ("kostant_block_leak", _drop_height_one_slot, "cusp",
     "kostant_ad_e_kernel", "kostant_two_models_agree"),
    # cusp/kostant_ad_e_kernel: E without one basis root is not regular
    ("kostant_ad_e_kernel", _drop_basis_root, "cusp", "kostant_ad_e_kernel"),
    # cusp/kostant_slice_dim: without one basis root in E and F, ker ad(F)
    # in degree 1 grows
    ("kostant_slice_dim", _drop_basis_root, "cusp", "kostant_slice_dim"),
    # cusp/kostant_sampled_regularity: a non-regular point has a nonzero
    # degree-0 centralizer
    ("kostant_sampled_regularity", _irregular_slice_point, "cusp",
     "kostant_sampled_regularity"),
    # cusp/kostant_two_models_agree: the wedge model fails an E without
    # one basis triple, since no lower element then solves [E, F] = X
    ("kostant_two_models_agree", _drop_wedge_triple, "cusp",
     "kostant_two_models_agree"),
    # cusp/case_<label>_intermediates: the sampled sets derive f from f'
    ("cusp_case_intermediates", _lower_case1_f_prime, "cusp",
     "case_case1_intermediates"),
    # cusp/case_<label>_intermediates: a sweep of 99 sets has not swept
    # the 100 the line claims
    ("cusp_case_intermediates_count", _truncate_intermediates, "cusp",
     "case_f1_intermediates"),
    # cusp/order_agreement compares the coordinatewise order, read from
    # `leq` as the check runs, with the coweight order of _COWEIGHTS9
    ("cusp_order_agreement_leq", _flip_one_leq_pair, "cusp",
     "order_agreement"),
    ("cusp_order_agreement_coweights", _shift_one_coweight, "cusp",
     "order_agreement"),
    # gradedlie/lambda_twists: a root bracket redirected to the negative
    # root breaks the class twist there (redirecting it to the w-image
    # would not, since w fixes classes)
    ("gradedlie_lambda_twists", _redirect_to_negative_root, "gradedlie",
     "lambda_twists"),
    # gradedlie/lambda_twists: twists that do not run over the 80 nonzero
    # classes have not proved the line's claim
    ("gradedlie_lambda_twist_classes", _repeat_twist_orbit, "gradedlie",
     "lambda_twists"),
    # cusp/stability_part6_*: (5 8 9) in place of (5 7 9) repeats an
    # actor, so 6 actors are 5 distinct ones against 5 targets
    ("stability_repeated_actor",
     _edit_stability(r"\(5, 7, 9\), \(6, 7, 9\)", "(5, 8, 9), (6, 7, 9)"),
     "cusp", "stability_part6_179_249_457_support"),
    # cusp/stability_*_support: each family without its last actor has as
    # many targets as actors, so the criterion's "<" is tested at equality
    ("stability_part1_357_at_equality",
     _edit_stability(r', \("w3", \(1, 2, 4\)\)', ""), "cusp",
     "stability_part1_357_support"),
    ("stability_part2_149_at_equality",
     _edit_stability(r', \("g", \(2, 9\)\)', ""), "cusp",
     "stability_part2_149_support"),
    ("stability_part3_169_268_at_equality",
     _edit_stability(r',\s*\("w6", _comp\(\(7, 8, 9\)\)\)', ""), "cusp",
     "stability_part3_169_268_support"),
    ("stability_part6_at_equality",
     _edit_stability(r", \(7, 8, 9\)\)\]", ")]"), "cusp",
     "stability_part6_179_249_457_support"),
    # sections/sp4_density: det(M) in place of det(M - I) makes the direct
    # strategy disagree with the Moebius strategy
    ("sp4_density_direct", _drop_identity_shift, "sections", "sp4_density"),
    # sections/sp4_density: the orbit sweeps fail generators that do not
    # generate, since their subspace orbits do not partition the lattice
    ("sp4_density_generators", _non_generating_pair, "sections",
     "sp4_density"),
    # sections/sp4_density: the class count fails a generator that is not
    # a symplectic basis
    ("sp4_density_symplectic", _swap_generator_columns, "sections",
     "sp4_density"),
    # sections/sp4_order and sp4_density: a tail that is not sent through
    # the tables hides the stabiliser of (e1, e2, f1), so the order comes
    # out as 17,280
    ("sp4_order_stabiliser", _fixed_tail, "sections", "sp4_order",
     "sp4_density"),
    # sections/sp4_density: mu of the wrong sign on one level of the
    # subspace lattice makes the Moebius strategy disagree with the direct
    # one
    ("sp4_density_mobius", _flip_mobius_on_planes, "sections", "sp4_density"),
    # sections/fixture_histogram: without the meetings on the fibre at
    # infinity the pairings are not those of the E8 roots
    ("sections_fixture_histogram", _drop_contact_at_infinity, "sections",
     "fixture_histogram"),
    # sections/fixture_rescan_count and fixture_matches_scan: one root of
    # each quadratic in a0 loses the sections at the other
    ("sections_fixture_rescan", _plus_root_only(sections), "sections",
     "fixture_rescan_count", "fixture_matches_scan"),
    # sections/cantor_order_matches_zeta: one root of each v0^2 = c loses
    # the divisor at the other, so the enumerated Jacobians are too small
    ("sections_cantor_order", _plus_root_only(jacobian), "sections",
     "cantor_order_matches_zeta"),
    # sections/mumford_nu1 and mumford_nu2: without the r^2 term the
    # product u v misses f by r^2, which is nonzero on both divisors
    ("sections_mumford_r_squared", _drop_r_squared, "sections",
     "mumford_nu1", "mumford_nu2"),
    # sections/fixture_torsion: 2 D = D holds only for D = 0
    ("sections_fixture_torsion", _torsion_against_d, "sections",
     "fixture_torsion"),
    # gradedlie/killing_form: a cartan-valued bracket off its opposite pair
    # breaks the zero pattern of the Killing form
    ("gradedlie_killing_zero_pattern", _kind2_off_opposite, "gradedlie",
     "killing_form"),
    # sections/fixture_twist_exponents: the sum of the two pairings is not
    # an alternating form
    ("sections_fixture_twist_exponents", _twist_exponent_plus, "sections",
     "fixture_twist_exponents"),
    # gradedlie/heis_action_match: commuting images give every conjugation
    # exponent 0, against nonzero lattice exponents (gradedlie binds
    # svn_rep at import, so the mutant goes there)
    ("gradedlie_heis_action_match", _drop_character(gradedlie), "gradedlie",
     "heis_action_match"),
    # gradedlie/rho_prime_homomorphism: commuting images bracket to 0,
    # against nonzero images of the brackets [Z_a, Z_b]
    ("gradedlie_rho_prime_homomorphism", _drop_character(gradedlie),
     "gradedlie", "rho_prime_homomorphism"),
    # gradedlie/rho_prime_homomorphism and heis_action_match: a sweep
    # that counts 6,400 pairs, one per pair of class groups, has not swept
    # the 240^2 root pairs
    ("gradedlie_rho_prime_pair_count",
     _pair_count_quotient("verify_rho_prime_homomorphism"), "gradedlie",
     "rho_prime_homomorphism"),
    ("gradedlie_heis_action_pair_count",
     _pair_count_quotient("verify_heis_action_match"), "gradedlie",
     "heis_action_match"),
    # gradedlie/graded_bracket_containment: one structure constant off by
    # w leaves a degree-(1, 1) bracket outside every eigenspace
    ("gradedlie_graded_bracket_containment", _shift_one_w_power, "gradedlie",
     "graded_bracket_containment"),
]


# the rows whose patch breaks a build invariant, which raises
ERROR_ROWS = {"rootsys_root_coords"}


@pytest.mark.parametrize(
    "patch, suite, names, status",
    [(row[1], row[2], row[3:], "error" if row[0] in ERROR_ROWS else "fail")
     for row in MUTATIONS], ids=[row[0] for row in MUTATIONS])
def test_mutation_fails_its_check(monkeypatch, patch, suite, names, status):
    assert _statuses(suite, names) == ["pass"] * len(names)
    patch(monkeypatch)
    assert _statuses(suite, names) == [status] * len(names)


def test_build_mutant_gives_no_error_line(monkeypatch):
    # the builders leave to the report lines every fact they do not index
    # by, so a wrong w fails lines by name and breaks no build
    _eleventh_power(monkeypatch)
    for suite in ("rootsys", "heis", "gradedlie"):
        s = Suite(suite)
        suites.run_checks(suites.CHECKS[suite], s, suites.Context(None))
        assert [c["name"] for c in s.checks if c["status"] == "error"] == []


@pytest.mark.parametrize("k", [2, 5, 8, 18, 23, 30])
def test_degenerate_class_pairing_gives_no_error_line(monkeypatch, capfd, k):
    # on these powers of c some class pairs to zero with every other
    # candidate of the symplectic reduction: the class-code map fails by
    # name, and no traceback is printed
    _coxeter_power(k)(monkeypatch)
    capfd.readouterr()
    lines = {}
    for suite in ("rootsys", "heis"):
        s = Suite(suite)
        suites.run_checks(suites.CHECKS[suite], s, suites.Context(None))
        lines.update({(suite, c["name"]): c for c in s.checks})
    assert [key for key, c in lines.items() if c["status"] == "error"] == []
    line = lines["heis", "symplectic_basis"]
    assert line["status"] == "fail"
    assert line["detail"].endswith("pairs to zero with every candidate")
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 8, 9, 11, 13, 15, 17, 19,
                               21, 22, 24, 25, 26, 27])
def test_wrong_power_fails_pairing_nondegenerate(monkeypatch, k):
    # on these powers of c the classes at rows 4..7 of the Smith form
    # pair with rank 4 over F_3, but w - 1 has no divisor 3: the classes
    # of order 3 are none, and their Gram matrix is 0 x 0
    _coxeter_power(k)(monkeypatch)
    s = Suite("rootsys")
    suites.run_checks(suites.CHECKS["rootsys"], s, suites.Context(None))
    status = {c["name"]: c["status"] for c in s.checks}
    assert "error" not in status.values()
    assert status["pairing_nondegenerate"] == "fail"


def test_mutant_refuses_an_edit_that_changes_nothing():
    with pytest.raises(ValueError, match="unchanged"):
        _mutant(sections.pairing_table, lambda src: src.replace("@", "#"))
