"""Encoded Sp4(F_3) arithmetic against F_3 matrix products written out
here, the cofactor row of the direct strategy against two determinants,
and the subspace lattice and basis orbits of the Moebius strategy."""

import tracemalloc
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from e8g3 import sp4
from e8g3.heis import FORM, UNIT_CODES
from e8g3.intlinalg import det_bareiss, rref_mod

from test_mutations import _non_generating_pair

ELEMENTS = st.integers(0, 51839)


@lru_cache(maxsize=None)
def group():
    return sp4.enumerate_sp4()


def _columns(code):
    """The columns (e1, e2, f1, f2) of the element packed as
    ((e1 * 81 + f1) * 81 + e2) * 81 + f2."""
    e1f1, e2f2 = divmod(code, 81 ** 2)
    e1, f1 = divmod(e1f1, 81)
    e2, f2 = divmod(e2f2, 81)
    return e1, e2, f1, f2


@lru_cache(maxsize=None)
def tuple_enumeration():
    """The group as the list of column 4-tuples, completing symplectic
    bases in the order the packed enumeration must keep."""
    vecs = range(1, 81)
    out = []
    for e1 in vecs:
        for f1 in vecs:
            if FORM[e1][f1] != 1:
                continue
            perp = [v for v in vecs if FORM[e1][v] == 0 and FORM[f1][v] == 0]
            for e2 in perp:
                for f2 in perp:
                    if FORM[e2][f2] == 1:
                        out.append((e1, e2, f1, f2))
    return out


def test_enumeration_is_a_sorted_code_array():
    g = group()
    assert g.typecode == "I"
    assert len(g) == 51840
    assert all(a < b for a, b in zip(g, g[1:]))


@settings(deadline=None, derandomize=True)
@given(i=ELEMENTS)
def test_codes_unpack_to_the_tuple_enumeration(i):
    assert _columns(group()[i]) == tuple_enumeration()[i]


def _vector(code):
    # code = 27 v0 + 9 v1 + 3 v2 + v3
    return [code // 3 ** (3 - r) % 3 for r in range(4)]


def _matrix(cols):
    """Rows of the matrix whose columns have the given codes."""
    vecs = [_vector(c) for c in cols]
    return [[vecs[c][r] for c in range(4)] for r in range(4)]


@settings(deadline=None, derandomize=True)
@given(i=ELEMENTS, v=st.integers(0, 80))
def test_action_is_matrix_times_vector(i, v):
    cols = _columns(group()[i])
    g = _matrix(cols)
    image = [sum(g[r][k] * x for k, x in enumerate(_vector(v))) % 3
             for r in range(4)]
    assert _vector(sp4.action(cols)[v]) == image


@lru_cache(maxsize=None)
def lattice():
    return sp4._subspaces()


@lru_cache(maxsize=None)
def actions():
    return [sp4.action(g) for g in sp4._GENERATORS]


def test_levels_are_gaussian_binomials():
    # [4 choose k]_3 subspaces of each dimension k, all distinct, each of
    # 3^k codes
    levels = lattice()
    assert [len(level) for level in levels] == [1, 40, 130, 40, 1]
    assert len({m for level in levels for m in level}) == 212
    for k, level in enumerate(levels):
        assert all(bin(m).count("1") == 3 ** k for m in level)


def test_mobius_is_the_closed_form():
    # mu(0, W) = (-1)^k 3^(k(k-1)/2) on a k-dimensional W (Rota 1964)
    mu = sp4._mobius(lattice())
    assert len(mu) == 212
    for k, level in enumerate(lattice()):
        assert {mu[m] for m in level} == {(-1) ** k * 3 ** (k * (k - 1) // 2)}


def test_subspace_orbits():
    # the zero space, lines, isotropic planes, hyperbolic planes,
    # hyperplanes and the whole space
    sizes = []
    for columns in sp4._ORBIT_REPRESENTATIVES:
        basis = tuple(UNIT_CODES[i] for i in columns)
        sizes.append(len(sp4._orbit(basis, actions(), sp4._span)))
    assert sizes == [1, 40, 40, 90, 40, 1]


def _laplace_det_minus_identity(cols):
    """det(M - I) mod 3 by Laplace expansion along columns 0 and 1: the
    six 2 x 2 minors of those columns times their complementary minors."""
    a, b, c, d = ([x - (r == j) for r, x in enumerate(_vector(code))]
                  for j, code in enumerate(cols))
    return sum(sign * (a[i] * b[j] - a[j] * b[i]) * (c[k] * d[m] - c[m] * d[k])
               for sign, (i, j), (k, m) in [
                   (1, (0, 1), (2, 3)), (-1, (0, 2), (1, 3)),
                   (1, (0, 3), (1, 2)), (1, (1, 2), (0, 3)),
                   (-1, (1, 3), (0, 2)), (1, (2, 3), (0, 1))]) % 3


@settings(deadline=None, derandomize=True)
@given(cols=st.tuples(*[st.integers(0, 80)] * 4))
def test_det_minus_identity_matches_elimination(cols):
    # any four columns, so singular and non-symplectic M are drawn too:
    # the cofactor row of the shifted (e1, e2, f1), from the minors of e1
    # and f1, dotted with f2 - u4 is det(M - I)
    shifted = [[x - (r == c) for c, x in enumerate(row)]
               for r, row in enumerate(_matrix(cols))]
    a, b, c, d = ([x - (r == j) for r, x in enumerate(_vector(code))]
                  for j, code in enumerate(cols))
    row = sp4._cofactor_row(sp4._minors(a, c), b)
    det = sum(k * x for k, x in zip(row, d)) % 3
    assert det == det_bareiss(shifted) % 3 == _laplace_det_minus_identity(cols)
    assert (det == 0) == (len(rref_mod(shifted, 4, 3)[1]) < 4)


def test_basis_orbits_on_the_walk():
    # ordered bases of a line, an isotropic plane, a hyperbolic plane and
    # a hyperplane, against the orbit of tuples
    for columns, size in zip(sp4._ORBIT_REPRESENTATIVES[1:5],
                             [80, 1920, 2160, 17280]):
        basis = tuple(UNIT_CODES[i] for i in columns)
        assert sp4._walk(basis, actions(), 81, 0) == (size, False)
        assert len(sp4._orbit(basis, actions(), tuple)) == size


def _closure(acts):
    """The action tables of every product of the given ones, breadth
    first from the identity's."""
    identity = tuple(range(81))
    group, frontier = {identity}, [identity]
    while frontier:
        frontier = [image for t in frontier for act in acts
                    if (image := tuple(act[x] for x in t)) not in group]
        group.update(frontier)
    return group


def test_walk_carries_the_tail(monkeypatch):
    e1, e2, f1, f2 = UNIT_CODES
    hyperplane = (e1, e2, f1)
    # f2 has three images over each basis (e1, e2, f1), so the walk closes
    # a loop that moves it, and the stabiliser brings the group up
    count, moved = sp4._walk(hyperplane, actions(), 81, f2)
    assert moved and 3 * count == len(group())
    assert sp4._hyperplane_order(actions()) == (len(group()), count)
    # e2 is a digit of the basis, so every path carries it alike
    assert sp4._walk(hyperplane, actions(), 81, e2) == (count, False)
    # two generators that agree on (e1, e2, f1): the derived order is
    # that of the group the two matrices generate
    _non_generating_pair(monkeypatch)
    acts = [sp4.action(g) for g in sp4._GENERATORS]
    order, _ = sp4._hyperplane_order(acts)
    assert order == len(_closure(acts)) == 36


def test_direct_density_shares_no_kernel(monkeypatch):
    # the direct strategy uses neither the action tables, the walk nor the
    # orbit sweeps of the Moebius strategy, which in turn computes no
    # cofactor row and never reads the enumerated group
    def refuse(*args):
        raise RuntimeError("shared by the two strategies")

    with monkeypatch.context() as patch:
        for name in ("action", "_orbit", "_walk", "_hyperplane_order"):
            patch.setattr(sp4, name, refuse)
        assert sp4.density_direct() == (51840, 18711)
    for name in ("_minors", "_cofactor_row", "enumerate_sp4"):
        monkeypatch.setattr(sp4, name, refuse)
    assert sp4.density_by_classes() == (51840, 18711)


def _traced_peak(fn):
    """fn's result and the peak of the memory Python allocated while it
    ran, in bytes."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_densities_stay_small_in_memory():
    # the packed enumeration and the hyperplane walk: the tuple list and
    # the set of 51,840 tuples they replace peaked at 4 and 5.6 MB, and
    # the closure of the whole group over a bitmap at 2.4 MB
    result, peak = _traced_peak(sp4.density_direct)
    assert result == (51840, 18711) and peak < 1_000_000
    result, peak = _traced_peak(sp4.density_by_classes)
    assert result == (51840, 18711) and peak < 1_600_000
