"""Mutation table: each row patches one ingredient of a check and asserts
that a cheap in-process form of the check holds before and fails after."""

import pytest

from e8g3 import kostant
from e8g3.cyclotomic import Cyc
from e8g3.gradedlie import LieElement


def _patch_triple(change):
    def patch(monkeypatch):
        build = kostant.build_triple
        monkeypatch.setattr(kostant, "build_triple",
                            lambda alg=None: change(alg, *build(alg)))
    return patch


def _stray_root(alg):
    """A degree-1 root vector, which no [E, F'] with F' of degree 2 reaches."""
    return LieElement(roots={alg.degree.index(1): Cyc(1)})


def _drop_basis_root(monkeypatch):
    indices = kostant._s0_indices
    monkeypatch.setattr(kostant, "_s0_indices", lambda alg: indices(alg)[:-1])


MUTATIONS = [
    # cusp/kostant_relations: 2E breaks [E, F] = X
    ("kostant_relations", _patch_triple(lambda alg, E, X, F: (E * 2, X, F)),
     lambda alg: kostant.verify_triple(alg)["ok"]),
    # cusp/kostant_relations, its re-solve of [E, F'] = X alone: a component
    # of X outside every image must make it unsolvable
    ("kostant_relations_unique",
     _patch_triple(lambda alg, E, X, F: (E, X + _stray_root(alg), F)),
     lambda alg: kostant.verify_triple(alg)["unique"]),
    # cusp/kostant_ad_e_kernel: E without one basis root is not regular
    ("kostant_ad_e_kernel", _drop_basis_root,
     lambda alg: kostant.ad_e_kernel_dim(alg) == 8),
]


@pytest.mark.parametrize("patch, holds", [row[1:] for row in MUTATIONS],
                         ids=[row[0] for row in MUTATIONS])
def test_mutation_fails_its_check(monkeypatch, patch, holds):
    alg = kostant.get_algebra()
    assert holds(alg)
    patch(monkeypatch)
    assert not holds(alg)
