"""Bracket table, Jacobi identity, grading, and 9-dim realization checks,
and the gradedlie checks of the session report."""

import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from e8g3.cyclotomic import zeta_mul
from e8g3.gradedlie import (GradedAlgebra, LieElement, code_neg, code_pair,
                            get_algebra, killing_gram,
                            verify_heis_action_match,
                            verify_rho_prime_homomorphism,
                            z_supports_partition)
from e8g3 import gradedlie, suites
from e8g3.heis import CLASSES, COCYCLE, VEC_ADD, Mono, class_code, svn_rep

import gradedlie_oracle as oracle
from qw_oracle import Cyc
from test_mutations import (_corrupt_cartan_pairing,
                            _redirect_to_negative_root, _shift_one_w_power)

KAPPA = Cyc(Fraction(1, 3), Fraction(2, 3))  # w * (1 - w^-1)^-1


def z_element(alg, i, twist=0):
    """Z for the cover element zeta^twist * s(root i); lies in degree 0."""
    w = alg.windex
    scal = zeta_mul(1, 0, twist)
    return LieElement(roots={i: scal, w[i]: scal, w[w[i]]: scal})


def zeta_times(x, k):
    """w^k x, each coordinate rotated by zeta_mul (an int times a w-pair
    would repeat the tuple)."""
    return LieElement({a: zeta_mul(*v, k) for a, v in x.cartan.items()},
                      {r: zeta_mul(*v, k) for r, v in x.roots.items()})


def theta(alg, x):
    """The order-3 symmetry applied once: rs.w on the cartan part, the
    root permutation windex on the root part; the cartan part is summed in
    Cyc and read back as w-pairs."""
    cart = {}
    if x.cartan:
        w = alg.rs.w
        for a, v in x.cartan.items():
            for b in range(8):
                if w[b][a]:
                    cart[b] = cart.get(b, Cyc(0)) + Cyc(*v) * w[b][a]
    roots = {alg.windex[i]: v for i, v in x.roots.items()}
    return LieElement({b: v.pair() for b, v in cart.items()}, roots)


def grading_check(alg, x, i):
    return theta(alg, x) == zeta_times(x, i)


def dense(mono):
    """A monomial matrix as a dense 9x9 Q(w) matrix."""
    rows = [[Cyc(0)] * 9 for _ in range(9)]
    for y, c in enumerate(mono.codes):
        row, e = divmod(c, 3)
        rows[row][y] = Cyc.zeta(e)
    return rows


def dense_mul(a, b):
    return [[sum((a[r][k] * b[k][c] for k in range(9)), Cyc(0))
             for c in range(9)] for r in range(9)]


def rho_prime(alg, z):
    """Image of a degree-0 element as a dense 9x9 Q(w) matrix.

    The element must lie in the span of the symmetrized orbit vectors:
    no cartan part and orbit-constant root coefficients.
    """
    if z.cartan:
        raise ValueError("element has a cartan part; not in the degree-0 span")
    rows = [[Cyc(0)] * 9 for _ in range(9)]
    seen = set()
    for i, c in z.roots.items():
        o = alg.rs.orbit_of[i]
        if o in seen:
            continue
        seen.add(o)
        for m in alg.rs.orbits[o]:
            if z.roots.get(m) != c:
                raise ValueError("coefficients not constant on an orbit")
        image = dense(alg.rho(alg.rs.orbits[o][0]))
        scal = Cyc(*c) * KAPPA
        rows = [[x + scal * m for x, m in zip(row, mrow)]
                for row, mrow in zip(rows, image)]
    return rows


@pytest.fixture(scope="module")
def alg():
    return get_algebra()


def test_basis_size(alg):
    assert alg.n == 240  # plus 8 cartan slots = 248


def test_bracket_coroot_action(alg):
    for i in (0, 71, 100, 239):
        out = alg.bracket(oracle.coroot(alg, i), alg.x(i))
        assert out == alg.x(i) * 2


def test_bracket_opposite_roots(alg):
    for i in (3, 90, 200):
        ni = alg.negidx[i]
        out = alg.bracket(alg.x(i), alg.x(ni))
        expect = zeta_times(oracle.coroot(alg, i) * -1,
                            -COCYCLE[alg.cls[i]][alg.cls[i]])
        assert out == expect


def test_bracket_zero_case(alg):
    i = 12
    j = next(j for j in range(240)
             if alg.PR[i][j] == 0 and alg.kind[i][j] == 0)
    assert oracle.is_zero(alg.bracket(alg.x(i), alg.x(j)))


def test_neighbours_are_the_negative_pairings(alg):
    # nbr, taken from the table build's scan, against the pair table and
    # against the nonzero kinds, on every root
    for i, row in enumerate(alg.PR):
        assert alg.nbr[i] == bytes(j for j, p in enumerate(row) if p < 0)
        assert alg.nbr[i] == bytes(j for j, k in enumerate(alg.kind[i]) if k)


def test_central_twist_scales_bracket(alg):
    # twisting a canonical vector by zeta^k scales outputs by zeta^k
    i, j = 8, min(alg.nbr[8])
    plain = alg.bracket(alg.x(i), alg.x(j))
    twisted = alg.bracket(zeta_times(alg.x(i), 1), alg.x(j))
    assert twisted == zeta_times(plain, 1)


def test_jacobi_full_sweep(report):
    assert report.passed("gradedlie", "jacobi", "antisymmetry")
    detail = report.check("gradedlie", "jacobi")["detail"]
    # 61,440 triples with a cartan generator and 965,906 root triples: a
    # faster sweep must not evaluate fewer
    assert int(detail.split()[0]) == 1_027_346


def test_jacobi_spot_zero_sum_triple(alg):
    # alpha + beta + gamma = 0 with all pairwise sums roots
    found = None
    for i in range(240):
        for j in sorted(alg.nbr[i]):
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
    assert oracle.is_zero(J)


def test_jacobi_cartan_triples(alg):
    for a in range(8):
        for b in range(8):
            ha, hb = alg.cartan_basis(a), alg.cartan_basis(b)
            assert oracle.is_zero(alg.bracket(ha, hb))
            for i in (0, 100):
                x = alg.x(i)
                J = (alg.bracket(ha, alg.bracket(hb, x))
                     + alg.bracket(hb, alg.bracket(x, ha))
                     + alg.bracket(x, alg.bracket(ha, hb)))
                assert oracle.is_zero(J)


def test_theta_is_automorphism(report):
    assert report.passed("gradedlie", "theta_automorphism")


def test_theta_order_three(alg):
    for i in (0, 50, 130):
        x = alg.x(i) + alg.cartan_basis(i % 8)
        assert theta(alg, theta(alg, theta(alg, x))) == x
        assert theta(alg, x) != x or i is None


def test_cartan_pairings_are_rows_of_the_root_pairing_table(alg):
    # P[a][j] = (basis root a, root j), read from the shared 240^2 table
    from e8g3.rootsys import pairing
    rs = alg.rs
    assert [list(row) for row in alg.P] == [
        [pairing(b, r) for r in rs.roots] for b in rs.basis]


def test_theta_no_fixed_cartan_vectors(alg):
    from e8g3.intlinalg import nullspace
    rows = [[(alg.rs.w[r][c] - (r == c), 0) for c in range(8)]
            for r in range(8)]
    assert nullspace(rows, 8) == []


def test_grading_dimensions(alg, report):
    assert report.passed("gradedlie", "grading_dimensions")
    spaces = alg.graded_basis()
    for i in (0, 1, 2):
        for v in spaces[i][:6]:
            assert grading_check(alg, v, i)


def test_grading_bracket_containment(alg):
    spaces = alg.graded_basis()
    import random
    rng = random.Random(7)
    for (i, j) in [(1, 1), (1, 2), (0, 1), (2, 2), (0, 0)]:
        for _ in range(40):
            x = rng.choice(spaces[i])
            y = rng.choice(spaces[j])
            out = alg.bracket(x, y)
            if not oracle.is_zero(out):
                assert theta(alg, out) == zeta_times(out, i + j)


def is_theta_eigenvector(alg, x, k):
    """Whether theta(x) = w^k x: each root coordinate m is w^k times
    coordinate windex[m], and rs.w carries the cartan part to w^k times
    itself; read on the w-pairs of x."""
    roots, w = x.roots, alg.windex
    for m, v in roots.items():
        u = roots.get(w[m])
        if u is None or v != zeta_mul(*u, k):
            return False
    if x.cartan:
        W = alg.rs.w
        for b in range(8):
            # coordinate b of theta(x), against w^k times that of x
            u = sum(W[b][a] * c[0] for a, c in x.cartan.items())
            v = sum(W[b][a] * c[1] for a, c in x.cartan.items())
            c = x.cartan.get(b)
            if (u, v) != (zeta_mul(*c, k) if c else (0, 0)):
                return False
    return True


def _containment_by_generic_bracket(alg, spaces):
    """The failing (i, j, a, b) of graded_bracket_containment, each basis
    bracket taken by the generic bracket and tested by both eigenvector
    forms, which must agree."""
    bad = []
    for i, j in ((1, 1), (1, 2)):
        k = (i + j) % 3
        for a, x in enumerate(spaces[i]):
            for b, y in enumerate(spaces[j]):
                out = alg.bracket(x, y)
                eigen = is_theta_eigenvector(alg, out, k)
                assert eigen == (theta(alg, out) == zeta_times(out, k))
                if not eigen:
                    bad.append((i, j, a, b))
    return bad


def test_theta_eigenvector_matches_cyc_form(alg):
    # the test of graded_bracket_containment against the theta oracle, on
    # every basis pair the check sweeps
    spaces = alg.graded_basis()
    swept = 0
    bent = {}
    for i, j in ((1, 1), (1, 2)):
        for x in spaces[i]:
            for y in spaces[j]:
                out = alg.bracket(x, y)
                swept += 1
                k = (i + j) % 3
                assert is_theta_eigenvector(alg, out, k) == (
                    theta(alg, out) == zeta_times(out, k))
                # one root coordinate, or one cartan coordinate, moved by w
                for part in ("roots", "cartan"):
                    coords = dict(getattr(out, part))
                    if coords and part not in bent:
                        m = next(iter(coords))
                        coords[m] = zeta_mul(*coords[m], 1)
                        parts = {"cartan": out.cartan, "roots": out.roots,
                                 part: coords}
                        bent[part] = (LieElement(**parts), k)
    assert swept == 84 * 84 * 2
    assert alg.check_bracket_containment(spaces) == []
    # a perturbed output: both forms reject it
    assert set(bent) == {"roots", "cartan"}
    for z, k in bent.values():
        assert theta(alg, z) != zeta_times(z, k)
        assert not is_theta_eigenvector(alg, z, k)


def test_z_elements(alg):
    for i in (0, 30, 100):
        z = z_element(alg, i)
        assert theta(alg, z) == z
        assert z_element(alg, alg.windex[i]) == z
        assert z_element(alg, i, twist=1) == zeta_times(z, 1)
    # span rank of all 240 Z's is 80
    orbits = {alg.rs.orbit_of[i] for i in range(240)}
    assert len(orbits) == 80


def test_repeated_orbit_fails_z_span(alg):
    # negative control for the gradedlie/z_span check
    import copy
    fake = copy.copy(alg)
    fake.rs = copy.copy(alg.rs)
    fake.rs.orbits = alg.rs.orbits[:-1] + (alg.rs.orbits[0],)
    assert len(fake.rs.orbits) == 80
    assert not z_supports_partition(fake)
    assert z_supports_partition(alg)


def test_lambda_twist_automorphisms(report):
    assert report.passed("gradedlie", "lambda_twists")


def test_rho_prime_well_defined_and_traceless(alg, report):
    assert report.passed("gradedlie", "rho_prime_traceless")
    z = z_element(alg, 5)
    m = rho_prime(alg, z)
    tr = sum((m[i][i] for i in range(9)), Cyc(0))
    assert tr == Cyc(0)
    with pytest.raises(ValueError):
        rho_prime(alg, alg.x(5))  # not orbit-constant


def _pairing(v, u):
    """The symplectic pairing on coordinate tuples (e1, e2, f1, f2)."""
    return (v[0] * u[2] + v[1] * u[3] - u[0] * v[2] - u[1] * v[3]) % 3


def _lambda_twist_violations_by_class(alg):
    """check_lambda_twists one class at a time, on lists of exponents
    computed from the class tuples."""
    bad = []
    for k, orb in enumerate(alg.rs.orbits):
        lam = CLASSES[alg.cls[orb[0]]]
        sp = [_pairing(lam, CLASSES[c]) for c in alg.cls]
        sp.append(0)  # the exponent of a cartan-valued bracket (target -1)
        for i in range(alg.n):
            for j in sorted(alg.nbr[i]):
                t = alg.out[i][j] if alg.kind[i][j] == 1 else -1
                if (sp[i] + sp[j]) % 3 != sp[t]:
                    bad.append((k, i, j))
    return bad


@pytest.mark.parametrize("corruption", [None, "redirected", "moved"],
                         ids=["algebra", "redirected", "moved"])
def test_lambda_twists_match_per_class_oracle(alg, corruption):
    table = alg if corruption is None else GradedAlgebra()
    if corruption == "redirected":
        # [X_0, X_j] and [X_j, X_0] land on the negative of root 0 + root j
        j = min(j for j in table.nbr[0] if table.kind[0][j] == 1)
        table.out[0][j] = table.out[j][0] = table.negidx[table.out[0][j]]
    elif corruption == "moved":
        # root 0's class moves by the class coded 1, so every bracket with
        # root 0 as an argument or as its target has d != 0
        table.cls[0] = VEC_ADD[table.cls[0]][1]
    got = table.check_lambda_twists()
    assert got == _lambda_twist_violations_by_class(table)
    assert bool(got) == (corruption is not None)


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


def _heis_action_exponents(alg):
    """The exponents heis_action_match lists for its mismatching pairs,
    as (a, b) -> (Heisenberg t, lattice exponent)."""
    return {(a, b): (t, lattice) for a, b, t, lattice
            in verify_heis_action_match(alg)["mismatches"]}


def test_pair_exponent_table_matches_lattice_formula(alg, monkeypatch):
    # the lattice side of heis_action_match: with every class acting by the
    # identity, each conjugation exponent is 0, so the sweep lists every
    # pair whose lattice exponent is nonzero, with that exponent
    monkeypatch.setattr(gradedlie, "svn_rep", lambda g: svn_rep(0))
    lattice = {ab: e for ab, (t, e) in _heis_action_exponents(alg).items()
               if t == 0}
    rs = alg.rs
    for a in range(240):
        for b in range(0, 240, 7):
            assert lattice.get((a, b), 0) == rs.symplectic_exponent(
                rs.roots[a], rs.roots[b])


def test_rho_sweeps_clean_on_real_algebra(alg):
    assert verify_heis_action_match(alg) == {"pairs": 240 * 240,
                                             "mismatches": []}
    assert verify_rho_prime_homomorphism(alg) == {"pairs": 240 * 240,
                                                  "mismatches": []}


def _wrong_class_algebra(alg):
    """A table whose root 0 takes the class of -root 0."""
    fresh = GradedAlgebra()
    fresh.cls[0] = fresh.cls[fresh.negidx[0]]
    assert fresh.cls[0] != alg.cls[0]
    return fresh


def test_wrong_class_fails_rho_sweeps(alg):
    # negative control for gradedlie/heis_action_match and
    # gradedlie/rho_prime_homomorphism: root 0 takes the class of -root 0
    fresh = _wrong_class_algebra(alg)
    act = verify_heis_action_match(fresh)
    hom = verify_rho_prime_homomorphism(fresh)
    assert act["pairs"] == hom["pairs"] == 240 * 240
    assert act["mismatches"] and hom["mismatches"]
    # the lattice side is untouched, so only pairs with root 0 disagree
    assert all(0 in m[:2] for m in act["mismatches"])
    assert any(0 in m for m in hom["mismatches"])


def _mono_combination(terms):
    """Sum of c * m over the (c, m) in terms, c an integer w-pair and m a
    monomial matrix, as a flat tuple: the w-pair at (row, col) is entries
    18 * row + 2 * col and the next."""
    acc = [0] * 162
    for (x, y), mono in terms:
        rot = [zeta_mul(x, y, e) for e in range(3)]
        for col, c in enumerate(mono.codes):
            row, e = divmod(c, 3)
            k = 18 * row + 2 * col
            acc[k] += rot[e][0]
            acc[k + 1] += rot[e][1]
    return tuple(acc)


def _orbit_coefficients(alg, z):
    """Coefficient of each Z vector in z, as orbit index -> w-pair; z must
    lie in their span."""
    assert not z.cartan
    coeffs = {}
    for t, v in z.roots.items():
        o = alg.rs.orbit_of[t]
        assert all(z.roots.get(m) == v for m in alg.rs.orbits[o])
        coeffs[o] = v
    return coeffs


def _rho_prime_sweep_by_brackets(alg):
    """The rho' sweep on generic brackets of Z vectors (one per orbit
    pair), flat w-pair matrices and one comparison per root pair."""
    orbit_of = alg.rs.orbit_of
    orbit_monos = [alg.rho(orb[0]) for orb in alg.rs.orbits]
    orbit_zs = [z_element(alg, orb[0]) for orb in alg.rs.orbits]
    groups = {}
    for i, v in enumerate(alg.cls):
        groups.setdefault(v, []).append(i)
    lhs = {}
    mismatches = []
    pairs = 0
    for roots_a in groups.values():
        ma = alg.rho(roots_a[0])
        for roots_b in groups.values():
            mb = alg.rho(roots_b[0])
            rhs = _mono_combination([((1, 2), ma * mb), ((-1, -2), mb * ma)])
            for a in roots_a:
                for b in roots_b:
                    pairs += 1
                    key = (orbit_of[a], orbit_of[b])
                    if key not in lhs:
                        z = alg.bracket(*(orbit_zs[o] for o in key))
                        lhs[key] = _mono_combination(
                            ((3 * x, 3 * y), orbit_monos[o])
                            for o, (x, y)
                            in _orbit_coefficients(alg, z).items())
                    if lhs[key] != rhs:
                        mismatches.append((a, b))
    return {"pairs": pairs, "mismatches": mismatches}


@pytest.mark.parametrize("wrong_class", [False, True],
                         ids=["algebra", "wrong_class"])
def test_rho_prime_sweep_matches_bracket_oracle(alg, wrong_class):
    table = _wrong_class_algebra(alg) if wrong_class else alg
    got = verify_rho_prime_homomorphism(table)
    assert got == _rho_prime_sweep_by_brackets(table)
    assert bool(got["mismatches"]) == wrong_class


def test_rho_prime_packs_stay_in_range(alg):
    # the packed comparison is exact while every packed component stays
    # below 2**7; on the left it is at most 3 times the summed components
    # of the coefficients of one bracket [Z_a, Z_b]
    worst = max(sum(abs(x) + abs(y) for x, y
                    in oracle.z_bracket_coefficients(alg, a, b).values())
                for a in range(80) for b in range(80))
    assert 0 < 3 * worst <= 54 < 2 ** 7


def test_flipped_pairing_fails_heis_action_match(alg):
    # negative control for the lattice side of gradedlie/heis_action_match:
    # negating PR[0][b] = 1 moves the exponent of (0, b) by 1 mod 3
    # (the algebra reads the root system's shared, immutable table, so the
    # corrupted copy gets rows of its own)
    fresh = GradedAlgebra()
    fresh.PR = [list(row) for row in fresh.PR]
    b = fresh.PR[0].index(1)
    fresh.PR[0][b] = -1
    mismatches = verify_heis_action_match(fresh)["mismatches"]
    assert (0, b) in {m[:2] for m in mismatches}


def test_heis_action_alternating_diagonal(alg, monkeypatch):
    # the Heisenberg side of heis_action_match: with a zero pairing table
    # every lattice exponent is 0, so the sweep lists every pair whose
    # conjugation exponent t is nonzero, with t.  It is alternating (0 on
    # the diagonal, t(a, b) = -t(b, a)), and for a sample of pairs it is
    # the scalar rho(a) rho(b) rho(a)^-1 = zeta^t rho(b) of dense matrices
    monkeypatch.setattr(alg, "PR", [[0] * 240] * 240)
    t = {ab: e for ab, (e, lattice) in _heis_action_exponents(alg).items()
         if lattice == 0}
    # the class of a pairs nonzero with the 54 classes off its hyperplane,
    # 3 roots each
    assert len(t) == 240 * 54 * 3
    assert not any(a == b for a, b in t)
    assert all((t.get((b, a), 0) + e) % 3 == 0 for (a, b), e in t.items())
    for a in (0, 99):
        for b in range(0, 240, 17):
            m, n = dense(alg.rho(a)), dense(alg.rho(b))
            conj = dense_mul(dense_mul(m, n), dense(mono_inverse(alg.rho(a))))
            assert conj == [[Cyc.zeta(t.get((a, b), 0)) * x for x in row]
                            for row in n]


def test_killing_form(alg, report):
    assert report.passed("gradedlie", "killing_form")
    kg = killing_gram(alg)
    assert kg["kind2_opposite"]
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
    fresh = GradedAlgebra()
    i, j = 0, min(fresh.nbr[0])
    fresh.scl[i][j] = code_neg(fresh.scl[i][j])
    assert fresh.digest() != GRADEDLIE_DIGEST
    assert alg.digest() == GRADEDLIE_DIGEST


def test_threads_do_not_change_report(tmp_path, capsys, monkeypatch):
    # two real suites: a worker process finds them by name under any
    # multiprocessing start method
    from e8g3 import suites
    from e8g3.cli import main
    from e8g3.report import strip_volatile
    monkeypatch.setattr(suites, "SUITES", {name: suites.SUITES[name]
                                           for name in ("rootsys", "heis")})
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.json"
        assert main(["verify", "all", "--threads", threads,
                     "--json", str(out)]) == 0
        runs.append((capsys.readouterr().out, strip_volatile(out.read_text())))
    assert runs[0] == runs[1]
    assert len(runs[0][0].splitlines()) > 10


def test_corrupted_structure_constant_fails_jacobi(alg):
    # negative control for the gradedlie/jacobi check: flipping the sign of
    # one bracket on both sides keeps the table antisymmetric
    from e8g3.gradedlie import GradedAlgebra, _jacobi_root_range, code_neg
    fresh = GradedAlgebra()
    j = min(fresh.nbr[0])
    fresh.scl[0][j] = code_neg(fresh.scl[0][j])
    fresh.scl[j][0] = code_neg(fresh.scl[j][0])
    assert fresh.check_antisymmetry() == []
    assert _jacobi_root_range(fresh, 0, 1)[1]
    assert _jacobi_root_range(alg, 0, 1)[1] == []


def _next_neighbour(fresh, r, kinds):
    """The first j after r, cyclically, with kind[r][j] in kinds."""
    return min((j for j in fresh.nbr[r] if fresh.kind[r][j] in kinds),
               key=lambda j: (j - r) % fresh.n)


def _corrupt_scl(fresh, r):
    j = _next_neighbour(fresh, r, (1, 2))
    fresh.scl[r][j] = (fresh.scl[r][j] + 1) % 6


def _corrupt_out(fresh, r):
    j = _next_neighbour(fresh, r, (1,))
    fresh.out[r][j] = fresh.windex[fresh.out[r][j]]


def _corrupt_opposite_scl(fresh, r):
    # the opposite-root entry: [x_r, x_-r] is cartan-valued (kind 2)
    j = fresh.negidx[r]
    fresh.scl[r][j] = (fresh.scl[r][j] + 3) % 6


def _corrupt_kind_one_sided(fresh, r):
    # [x_k, x_r] reads as zero while [x_r, x_k] stays a root vector, so
    # that k is in nbr[r] but kind[k][r] is 0: a sweep must read
    # kind[k][r] itself, not infer it from that membership
    k = max(k for k in fresh.nbr[r] if fresh.kind[r][k] == 1)
    fresh.kind[k][r] = 0


def _fresh_opposite_scl(monkeypatch):
    fresh = GradedAlgebra()
    _corrupt_opposite_scl(fresh, 0)
    monkeypatch.setattr(gradedlie, "get_algebra", lambda: fresh)


@pytest.mark.parametrize(
    "corrupt",
    [_shift_one_w_power, _redirect_to_negative_root, _fresh_opposite_scl,
     _corrupt_cartan_pairing],
    ids=["w_power", "redirect", "opposite_scl", "cartan_pairing"])
def test_bracket_containment_matches_generic_oracle(monkeypatch, corrupt):
    # the check's table reads against the generic bracket on all 14,112
    # basis pairs, 1,312 of them with a cartan basis vector, on corrupted
    # tables; the real table is test_theta_eigenvector_matches_cyc_form
    corrupt(monkeypatch)
    table = gradedlie.get_algebra()
    spaces = table.graded_basis()
    bad = table.check_bracket_containment(spaces)
    assert bad and bad == _containment_by_generic_bracket(table, spaces)


@pytest.mark.parametrize("corrupt",
                         [_corrupt_scl, _corrupt_out, _corrupt_opposite_scl],
                         ids=["scl", "out", "opposite_scl"])
def test_jacobi_sweep_matches_generic_bracket(alg, corrupt):
    # the sweep's inlined term against the generic bracket: on a corrupted
    # table it flags exactly the triples (0, j, k) whose Jacobi sum is
    # nonzero.  The candidates are the triples where X_k brackets nonzero
    # with X_0 or X_j; weight additivity makes the rest vanish on the real
    # table, but a corrupted `out` breaks additivity, so the comparison
    # stays on the candidates.
    from e8g3.gradedlie import _jacobi_root_range
    fresh = GradedAlgebra()
    corrupt(fresh, 0)
    evaluated, violations = _jacobi_root_range(fresh, 0, 1)
    flagged = {v[:3] for v in violations}
    candidates = [(j, k) for j in range(1, 240) for k in range(j + 1, 240)
                  if fresh.kind[0][k] or fresh.kind[j][k]]
    assert evaluated == len(candidates) == 11_634
    nonzero = set()
    for j, k in candidates:
        x, y, z = fresh.x(0), fresh.x(j), fresh.x(k)
        total = (fresh.bracket(x, fresh.bracket(y, z))
                 + fresh.bracket(y, fresh.bracket(z, x))
                 + fresh.bracket(z, fresh.bracket(x, y)))
        if not oracle.is_zero(total):
            nonzero.add((0, j, k))
    assert flagged and flagged == nonzero


def _addc_pairs(acc, coords, x, y):
    if acc is None:
        acc = [[0, 0] for _ in range(8)]
    for a in range(8):
        c = coords[a]
        if c:
            acc[a][0] += x * c
            acc[a][1] += y * c
    return acc


def _jacobi_root_range_by_union(alg, lo, hi):
    """Oracle for gradedlie._jacobi_root_range: one loop over the union
    nbr[i] | nbr[j] per pair, skipping k <= j, with each term summed as a
    w-pair of ints.  An outer bracket [x_p, c X_m] of any nonzero kind but 1
    is cartan-valued, as in GradedAlgebra.bracket and the sweep."""
    from e8g3.gradedlie import _jacobi_residual
    kind = alg.kind
    out = alg.out
    scl = alg.scl
    PR = alg.PR
    cr = alg.cr
    nbr = alg.nbr
    n = alg.n
    pair = oracle.PAIR
    mul_pair = oracle.MUL_PAIR
    evaluated = 0
    violations = []

    for i in range(lo, hi):
        kind_i, out_i, scl_i, PR_i, cr_i = kind[i], out[i], scl[i], PR[i], cr[i]
        cand_i = set(nbr[i])
        for j in range(i + 1, n):
            kind_j, out_j, scl_j, cr_j = kind[j], out[j], scl[j], cr[j]
            c_ji = -PR[j][i]
            k_ij, m_ij, s_ij = kind_i[j], out_i[j], scl_i[j]
            mul_ij = mul_pair[s_ij] if k_ij == 1 else None
            for k in cand_i | set(nbr[j]):
                if k <= j:
                    continue
                evaluated += 1
                kind_k, out_k, scl_k = kind[k], out[k], scl[k]
                target = None
                stray = False
                x = y = 0
                acc_c = None

                # [x_i, [x_j, x_k]]
                kq = kind_j[k]
                if kq == 1:
                    m = out_j[k]
                    kp = kind_i[m]
                    if kp:
                        dx, dy = mul_pair[scl_j[k]][scl_i[m]]
                        if kp != 1:
                            acc_c = _addc_pairs(acc_c, cr_i, dx, dy)
                        else:
                            target = out_i[m]
                            x, y = dx, dy
                elif kq == 2 and c_ji:
                    dx, dy = pair[scl_j[k]]
                    target = i
                    x, y = dx * c_ji, dy * c_ji

                # [x_j, [x_k, x_i]]
                kq = kind_k[i]
                if kq == 1:
                    m = out_k[i]
                    kp = kind_j[m]
                    if kp:
                        dx, dy = mul_pair[scl_k[i]][scl_j[m]]
                        if kp != 1:
                            acc_c = _addc_pairs(acc_c, cr_j, dx, dy)
                        else:
                            t = out_j[m]
                            if target is None:
                                target = t
                            elif t != target:
                                stray = True
                            x += dx
                            y += dy
                elif kq == 2:
                    c = -PR[k][j]
                    if c:
                        dx, dy = pair[scl_k[i]]
                        if target is None:
                            target = j
                        elif j != target:
                            stray = True
                        x += dx * c
                        y += dy * c

                # [x_k, [x_i, x_j]]
                if k_ij == 1:
                    kp = kind_k[m_ij]
                    if kp:
                        dx, dy = mul_ij[scl_k[m_ij]]
                        if kp != 1:
                            acc_c = _addc_pairs(acc_c, cr[k], dx, dy)
                        else:
                            t = out_k[m_ij]
                            if target is not None and t != target:
                                stray = True
                            x += dx
                            y += dy
                elif k_ij == 2:
                    c = -PR_i[k]
                    if c:
                        dx, dy = pair[s_ij]
                        if target is not None and k != target:
                            stray = True
                        x += dx * c
                        y += dy * c

                if (stray or x or y or acc_c is not None
                        and any(v[0] or v[1] for v in acc_c)):
                    violations.append(
                        (i, j, k, _jacobi_residual(alg, i, j, k)))
    return evaluated, violations


@pytest.mark.parametrize(
    "corrupt, positions",
    [(None, set()), (_corrupt_scl, {0, 1, 2}), (_corrupt_out, {0, 1, 2}),
     (_corrupt_opposite_scl, {0, 1}), (_corrupt_kind_one_sided, {0})],
    ids=["real", "scl", "out", "opposite_scl", "kind_one_sided"])
def test_jacobi_sweep_matches_union_oracle(alg, corrupt, positions):
    # the sweep against the union sweep over the full range.  A corruption
    # at the middle root 119 puts it first, second or third in the flagged
    # triples (`positions`), with the third root in nbr[j] and outside it
    from e8g3.gradedlie import _jacobi_root_range
    table = alg
    if corrupt is not None:
        table = GradedAlgebra()
        corrupt(table, 119)
    evaluated, violations = _jacobi_root_range(table, 0, 240)
    expected, expected_violations = _jacobi_root_range_by_union(table, 0, 240)
    assert (evaluated, sorted(violations)) == (expected,
                                               sorted(expected_violations))
    assert evaluated == 965_906
    triples = [v[:3] for v in violations]
    assert {t.index(119) for t in triples if 119 in t} == positions
    if corrupt is not None:
        assert {k in alg.nbr[j] for _, j, k in triples} == {True, False}


# one corrupted entry of row lo + d (d < 4) of a fresh table, at the pick-th
# neighbour: ("kind_nbr", d, pick, v) sets kind to v, so a kind 2 away from
# the opposite pair or a kind 3 takes the filter's SLOW path; ("out", d,
# pick, t) moves the target of a root-valued entry by t; ("scl", d, pick, c)
# sets the code to c, NONE included.  ("kind", d, j, v) sets kind to v at
# any column j of row lo + d, off the neighbour rows too: both sweeps take
# their candidates from nbr and read every term of each
JACOBI_CORRUPTIONS = st.one_of(
    st.tuples(st.just("kind_nbr"), st.integers(0, 3), st.integers(0, 56),
              st.integers(0, 3)),
    st.tuples(st.just("out"), st.integers(0, 3), st.integers(0, 55),
              st.integers(1, 239)),
    st.tuples(st.just("scl"), st.integers(0, 3), st.integers(0, 56),
              st.sampled_from([*range(6), gradedlie.NONE])),
    st.tuples(st.just("kind"), st.integers(0, 3), st.integers(0, 239),
              st.integers(0, 3)))


@settings(deadline=None, derandomize=True, max_examples=25)
@given(st.integers(0, 236), st.lists(JACOBI_CORRUPTIONS, min_size=1,
                                     max_size=3))
def test_jacobi_filter_matches_union_oracle(lo, corruptions):
    # the byte filter sends a triple to the Python body unless every term
    # reads zero; on 1-3 corrupted entries in a window of four rows i, the
    # sweep equals the union sweep, which evaluates every candidate
    from e8g3.gradedlie import _jacobi_root_range
    fresh = GradedAlgebra()
    for what, d, pick, value in corruptions:
        r = lo + d
        nbr = sorted(fresh.nbr[r])
        if what == "kind_nbr":
            fresh.kind[r][nbr[pick]] = value
        elif what == "out":
            ones = [j for j in nbr if fresh.kind[r][j] == 1]
            j = ones[pick % len(ones)]
            fresh.out[r][j] = (fresh.out[r][j] + value) % fresh.n
        elif what == "scl":
            fresh.scl[r][nbr[pick]] = value
        else:
            fresh.kind[r][pick] = value
    evaluated, violations = _jacobi_root_range(fresh, lo, lo + 4)
    expected, expected_violations = _jacobi_root_range_by_union(fresh, lo,
                                                                lo + 4)
    assert (evaluated, sorted(violations)) == (expected,
                                               sorted(expected_violations))


def test_jacobi_cartan_parts_match_per_coroot_loop(alg):
    # the packed one-cartan comparison against the loop over each coroot,
    # on the table and on a fresh one with one root-valued bracket
    # redirected ("cr") and one read as zero ("cr0")
    from e8g3.gradedlie import _jacobi_cartan_parts
    fresh = GradedAlgebra()
    _corrupt_out(fresh, 0)
    fresh.kind[1][_next_neighbour(fresh, 1, (1,))] = 0
    tags = []
    for table in (alg, fresh):
        evaluated, violations = _jacobi_cartan_parts(table)
        expected, expected_violations = oracle.jacobi_cartan_parts(table)
        assert evaluated == expected == 61_440
        assert sorted(violations, key=repr) == sorted(expected_violations,
                                                      key=repr)
        tags.append({v[0] for v in violations})
    assert tags == [set(), {"cr", "cr0"}]


def test_jacobi_residual_shows_cartan_part():
    # a violation whose Jacobi sum has only a cartan part still prints it
    from e8g3.gradedlie import _jacobi_root_range
    fresh = GradedAlgebra()
    _corrupt_opposite_scl(fresh, 0)
    _, violations = _jacobi_root_range(fresh, 0, 240)
    residuals = [v[3] for v in violations]
    assert residuals and repr(LieElement()) not in residuals
    assert any("roots={}" in r for r in residuals)


def test_code_tables_match_code_functions():
    # the packed tables against the code arithmetic they replace, on every
    # code a table entry can hold
    from e8g3.gradedlie import _PMUL, _PPAIR, NONE, _unpack, code_mul
    codes = [*range(6), NONE]
    assert all(_unpack(_PPAIR[c]) == code_pair(c) for c in codes)
    assert all(_unpack(_PMUL[a][b]) == code_pair(code_mul(a, b))
               for a in codes for b in codes)


def test_packed_sums_stay_below_the_packing_bound(alg):
    # a packed accumulator sums unit multiples of root pairings (PR) or of
    # coroot coordinates (cr): at most three per Jacobi triple, nine per
    # orbit bracket (_orbit_row) and 58 per Killing entry (_killing_entry:
    # one per nonzero entry of a row, and the cartan term).  Below 2**31 in
    # each component, a packed sum is 0 exactly when its w-pair is
    unit = max(abs(v) for p in [*oracle.PAIR, *(
        q for row in oracle.MUL_PAIR for q in row)] for v in p)
    scale = max(max(abs(p) for row in alg.PR for p in row),
                max(abs(c) for row in alg.cr for c in row))
    assert unit == 1 and scale == 6
    assert {bytes(row).count(0) for row in alg.kind} == {240 - 57}
    assert 58 * unit * scale < 2**31


@pytest.mark.parametrize("order", ["0j", "j0"])
def test_redirected_out_fails_additivity(alg, order):
    # negative control for the additivity part of the gradedlie/jacobi
    # check, which the sweep's pruning relies on; both orders of a pair
    from e8g3.gradedlie import _out_additive
    fresh = GradedAlgebra()
    j = min(j for j in fresh.nbr[0] if fresh.kind[0][j] == 1)
    i, j = (0, j) if order == "0j" else (j, 0)
    fresh.out[i][j] = fresh.windex[fresh.out[i][j]]
    assert not _out_additive(fresh)
    assert _out_additive(alg)


def test_diagonal_ad_entry_fails_killing(alg, monkeypatch):
    # negative control for the mixed cartan/root part of killing_gram: a
    # false killing_form, not a raise
    fresh = _table_copy(alg)
    r = 100
    k = min(k for k in fresh.nbr[r] if fresh.kind[r][k] == 1)
    fresh.out[r][k] = k
    assert not killing_gram(fresh)["mixed_block_zero"]
    assert killing_gram(alg)["mixed_block_zero"]
    monkeypatch.setattr(gradedlie, "get_algebra", lambda: fresh)
    status = {c["name"]: c["status"]
              for c in suites.run_suite("gradedlie", None)["checks"]}
    assert status["killing_form"] == "fail"


def _table_copy(alg):
    """alg with kind, out and scl copied, so that they can be corrupted."""
    fresh = copy.copy(alg)
    fresh.kind = [bytearray(row) for row in alg.kind]
    fresh.out = [list(row) for row in alg.out]
    fresh.scl = [list(row) for row in alg.scl]
    return fresh


# one corruption of the structure table: ("scl", i, pick, code) moves the
# code of the pick-th neighbour entry of row i, with its antisymmetric
# partner; ("out", i, pick, t) moves the target of the pick-th root-valued
# entry of row i by t; ("kind", i, j, k) moves kind[i][j] by k mod 3, at
# any j, and ("kind_nbr", i, pick, k) at the pick-th neighbour of row i
CORRUPTIONS = st.one_of(
    st.tuples(st.just("scl"), st.integers(0, 239), st.integers(0, 56),
              st.integers(1, 5)),
    st.tuples(st.just("out"), st.integers(0, 239), st.integers(0, 55),
              st.integers(1, 239)),
    st.tuples(st.just("kind"), st.integers(0, 239), st.integers(0, 239),
              st.integers(1, 2)),
    st.tuples(st.just("kind_nbr"), st.integers(0, 239), st.integers(0, 56),
              st.integers(1, 2)))


def _corrupted(alg, corruption):
    """A copy of alg with one corruption (CORRUPTIONS) applied, and the
    entry (i, j) it changed."""
    fresh = _table_copy(alg)
    what, i, a, b = corruption
    if what == "scl":
        j = sorted(alg.nbr[i])[a]
        c = (alg.scl[i][j] + b) % 6
        fresh.scl[i][j] = c
        fresh.scl[j][i] = code_neg(c) if alg.kind[i][j] == 1 else c
    elif what == "out":
        j = [j for j in sorted(alg.nbr[i]) if alg.kind[i][j] == 1][a]
        fresh.out[i][j] = (alg.out[i][j] + b) % 240
    else:
        j = sorted(alg.nbr[i])[a] if what == "kind_nbr" else a
        fresh.kind[i][j] = (alg.kind[i][j] + b) % 3
    return fresh, (i, j)


def _killing_diagonal_by_trace(table):
    return [oracle.killing_entry(table, r, table.negidx[r])
            for r in range(table.n)]


def test_row_sweeps_match_entry_oracles_on_the_table(alg):
    # each sweep that reads the nonzero table entries row by row against
    # the form that reads them entry by entry (tests/gradedlie_oracle.py)
    from e8g3.gradedlie import _out_additive
    assert killing_gram(alg)["root_diag"] == _killing_diagonal_by_trace(alg)
    assert _out_additive(alg) and oracle.out_additive(alg)
    assert alg.check_theta_automorphism() == oracle.theta_automorphism(alg)
    assert verify_rho_prime_homomorphism(alg) == \
        oracle.rho_prime_homomorphism(alg)
    assert alg.digest() == oracle.digest(alg)


ORACLE_CASES = settings(deadline=None, derandomize=True, max_examples=15)


@ORACLE_CASES
@given(CORRUPTIONS)
def test_killing_diagonal_matches_full_trace(alg, corruption):
    # the root diagonal over the nonzero kind entries against the trace
    # over all 248 basis vectors
    fresh = _corrupted(alg, corruption)[0]
    assert killing_gram(fresh)["root_diag"] == \
        _killing_diagonal_by_trace(fresh)


@settings(deadline=None, derandomize=True, max_examples=40)
@given(CORRUPTIONS)
def test_out_additive_matches_root_sums(alg, corruption):
    # packed basis coordinates against root tuples summed by rootsys.add.
    # The oracle reads only the neighbour rows, so a kind entry moved off
    # them to kind 1 is seen by the packed form alone (its pairing is not
    # -1), and fails it
    from e8g3.gradedlie import _out_additive
    fresh, (i, j) = _corrupted(alg, corruption)
    if j in alg.nbr[i] or fresh.kind[i][j] != 1:
        assert _out_additive(fresh) == oracle.out_additive(fresh)
    else:
        assert not _out_additive(fresh)


@ORACLE_CASES
@given(CORRUPTIONS)
def test_theta_rows_match_every_pair(alg, corruption):
    # the same list, in the same order, as the sweep over all 240^2 pairs
    fresh = _corrupted(alg, corruption)[0]
    bad = fresh.check_theta_automorphism()
    assert bad and bad == oracle.theta_automorphism(fresh)


@ORACLE_CASES
@given(CORRUPTIONS)
def test_rho_prime_rows_match_orbit_brackets(alg, corruption):
    # the orbit-row sweep with memoised right-hand sides against one
    # bracket of Z vectors per orbit pair, summed afresh; a bracket outside
    # the span of the Z vectors is a mismatch on both sides
    fresh = _corrupted(alg, corruption)[0]
    got = verify_rho_prime_homomorphism(fresh)
    assert got == oracle.rho_prime_homomorphism(fresh)
    assert got["pairs"] == 240 * 240


@ORACLE_CASES
@given(CORRUPTIONS)
def test_digest_by_rows_matches_digest_by_lines(alg, corruption):
    fresh = _corrupted(alg, corruption)[0]
    assert fresh.digest() == oracle.digest(fresh)
    # a row without lines adds no separator
    fresh.nbr = [bytes(), *fresh.nbr[1:]]
    assert fresh.digest() == oracle.digest(fresh)


@settings(deadline=None, derandomize=True, max_examples=8)
@given(CORRUPTIONS)
def test_corrupted_table_fails_checks_without_crash(alg, report, corruption):
    # every gradedlie check still reports on a corrupted table, and one
    # that reads the table fails
    fresh = _corrupted(alg, corruption)[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gradedlie, "get_algebra", lambda: fresh)
        checks = suites.run_suite("gradedlie", None)["checks"]
    names = [c["name"] for c in checks]
    assert not [c for c in checks if c["status"] == "error"]
    assert names == [c["name"] for c in report.suites["gradedlie"]["checks"]]
    assert any(c["status"] == "fail" for c in checks
               if c["name"] != "structure_digest")


def test_missing_eigenvector_fails_grading_dimensions_only(report):
    # graded_basis returns what it finds, and the suite's
    # grading_dimensions check alone judges the count: an eigenspace short
    # of one vector fails that check, and the other checks still report
    kernel = gradedlie.nullspace
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gradedlie, "nullspace",
                   lambda rows, width: kernel(rows, width)[1:])
        checks = suites.run_suite("gradedlie", None)["checks"]
    assert ([c["name"] for c in checks]
            == [c["name"] for c in report.suites["gradedlie"]["checks"]])
    assert [c["name"] for c in checks
            if c["status"] != "pass"] == ["grading_dimensions"]


def mono_inverse(m):
    """The inverse monomial matrix: column y coded 3 r + e becomes column
    r coded 3 y - e."""
    codes = [0] * 9
    for y, c in enumerate(m.codes):
        row, e = divmod(c, 3)
        codes[row] = 3 * y + -e % 3
    return Mono(bytes(codes))


def test_mono_products_match_dense_products():
    # Mono's byte-table kernels against 9x9 matrices over Q(w): every
    # product of two of the 8 images of the four generators and their
    # inverses, by Mono.__mul__ and by bytes.translate through the left
    # factor's table, and the trace of each
    gens = [svn_rep(class_code(v)) for v in
            [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]]
    monos = gens + [mono_inverse(m) for m in gens]
    one = dense(svn_rep(0))
    for m in monos:
        dm = dense(m)
        assert dense_mul(dm, dense(mono_inverse(m))) == one
        assert Cyc(*m.trace()) == sum((dm[y][y] for y in range(9)), Cyc(0))
        table = m.table()
        assert len(table) == 256
        for n in monos:
            product = dense_mul(dm, dense(n))
            assert dense(m * n) == product
            assert dense(Mono(n.codes.translate(table))) == product
    # the table of a central image zeta^t multiplies by the scalar
    for t in range(3):
        for m in monos:
            assert dense(svn_rep(81 * t) * m) == [
                [Cyc.zeta(t) * x for x in row] for row in dense(m)]


def _cyc_coords(coords):
    return {k: Cyc(*v) for k, v in coords.items()}


def reference_bracket(alg, x, y):
    """The bracket term by term from the table, accumulated in Cyc and
    read back as w-pairs."""
    acc_c, acc_r = {}, {}

    def add(acc, key, v):
        acc[key] = acc.get(key, Cyc(0)) + v

    y_roots = _cyc_coords(y.roots)
    for a, ca in _cyc_coords(x.cartan).items():
        for j, cj in y_roots.items():
            if alg.P[a][j]:
                add(acc_r, j, ca * cj * alg.P[a][j])
    for i, ci in _cyc_coords(x.roots).items():
        for a, ca in _cyc_coords(y.cartan).items():
            if alg.P[a][i]:
                add(acc_r, i, ci * ca * -alg.P[a][i])
        for j, cj in y_roots.items():
            k = alg.kind[i][j]
            if not k:
                continue
            s = alg.scl[i][j]  # the unit (-1)^(s // 3) w^(s % 3)
            v = ci * cj * Cyc.zeta(s % 3) * (-1) ** (s // 3)
            if k == 1:
                add(acc_r, alg.out[i][j], v)
            elif k == 2:
                for a, c in enumerate(alg.cr[i]):
                    if c:
                        add(acc_c, a, v * c)
    return LieElement({a: v.pair() for a, v in acc_c.items()},
                      {m: v.pair() for m, v in acc_r.items()})


_RATIONALS = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-12, 12), st.sampled_from([2, 3, 7])))
_COEFFS = st.tuples(_RATIONALS, _RATIONALS).filter(lambda v: v[0] or v[1])


@st.composite
def _bracket_pairs(draw):
    """Sparse (x, y) with cartan parts; y holds the opposites of some roots
    of x, so that cartan-valued brackets occur."""
    n = 240
    negidx = get_algebra().negidx

    def element(roots):
        cartan = draw(st.dictionaries(st.integers(0, 7), _COEFFS, max_size=3))
        return LieElement(cartan, {r: draw(_COEFFS) for r in roots})

    xs = draw(st.lists(st.integers(0, n - 1), max_size=5, unique=True))
    ys = draw(st.lists(st.integers(0, n - 1), max_size=5, unique=True))
    ys += [negidx[r] for r in xs[:draw(st.integers(0, len(xs)))]]
    return element(xs), element(dict.fromkeys(ys))


@settings(deadline=None, derandomize=True, max_examples=300)
@given(_bracket_pairs())
def test_bracket_matches_cyc_reference(xy):
    x, y = xy
    alg = get_algebra()
    got, want = alg.bracket(x, y), reference_bracket(alg, x, y)
    assert got == want
    # same coefficients and the same key order, so nothing downstream of a
    # bracket sees a difference
    assert list(got.cartan) == list(want.cartan)
    assert list(got.roots) == list(want.roots)
    assert all(type(v) is tuple and len(v) == 2
               for v in (*got.cartan.values(), *got.roots.values()))
    assert all(type(c) is int or c.denominator > 1
               for v in (*got.cartan.values(), *got.roots.values())
               for c in v)


def test_lie_element_holds_nonzero_exact_pairs():
    # (0, 0) is truthy as a tuple, so zero pairs are dropped by component
    v = LieElement({0: (0, 0), 1: (Fraction(0), 0), 2: (0, 1)},
                   {5: (Fraction(0), Fraction(0)), 6: (Fraction(4, 2), 0)})
    assert v.cartan == {2: (0, 1)} and v.roots == {6: (2, 0)}
    assert type(v.roots[6][0]) is int
    assert oracle.is_zero(LieElement({0: (0, 0)}, {1: (Fraction(0), 0)}))
    # the bracket reads and returns w-pairs of int or Fraction, never Cyc
    alg = get_algebra()
    x = LieElement({1: (Fraction(1, 2), 3)},
                   {0: (1, Fraction(2, 3)), 7: (0, 1)})
    out = alg.bracket(x, alg.x(alg.negidx[0]) + alg.x(min(alg.nbr[7])))
    coords = [*out.cartan.values(), *out.roots.values()]
    assert coords and all(
        type(v) is tuple and len(v) == 2
        and all(type(c) in (int, Fraction) for c in v) for v in coords)
    assert any(type(c) is Fraction for v in coords for c in v)
