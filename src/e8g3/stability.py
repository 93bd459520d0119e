"""Finite verifications behind the per-weight reducibility case analysis.

Each fixture certifies, by one of four mechanisms, that cutting a given
up-closed set of weight coordinates forces a nilpotent centralizer:

* ``lambda``: a character whose positive side lies inside the cut set;
* ``gamma``: a root whose translates out of the cut set all leave the
  weight support;
* ``support``: a family of negative-height elements whose images land in
  a common span of smaller dimension;
* ``alternating``: the rank-drop of an odd alternating pairing.

One case (the normalization argument for (2 5 8)) is genuinely not a
finite computation and is reported as skipped.
"""

from __future__ import annotations

from itertools import combinations, permutations

from .cuspdata import SIX_STABLE
from .rootsys import canonical, eij, neg, weight_vector
from .vinberg import (
    ALL_WEIGHTS,
    check_gamma_criterion,
    check_lambda_criterion,
    leq,
    up_closure,
    x_value,
)
from .wedge import merge_sign


def _lam(*terms):
    """Signed sum of weight triples as a canonical lattice vector."""
    acc = [0] * 9
    for sign, t in terms:
        for i in t:
            acc[i - 1] += sign
    return canonical(tuple(acc))


def _comp(u):
    return tuple(sorted(set(range(1, 10)) - set(u)))


def support_targets(actors, M):
    """Targets of the given actors on weight vectors outside M.

    Actors: ("w3", triple) wedge elements, ("g", (p, q)) root e_p - e_q,
    ("w6", 6-tuple) top-side elements.  Returns (targets, zero_hit,
    heights); the criterion needs fewer targets than distinct actors, no
    zero-weight target, and all actor heights negative.
    """
    M = frozenset(M)
    targets = set()
    zero_hit = False
    heights = []
    for kind, data in actors:
        if kind == "w3":
            heights.append(x_value(weight_vector(data)))
            for a in ALL_WEIGHTS:
                if a in M or set(a) & set(data):
                    continue
                targets.add(("w6", tuple(sorted(set(a) | set(data)))))
        elif kind == "g":
            p, q = data
            heights.append(x_value(eij(p, q)))
            for a in ALL_WEIGHTS:
                if a in M or q not in a or p in a:
                    continue
                targets.add(("w3", tuple(sorted((set(a) - {q}) | {p}))))
        elif kind == "w6":
            cset = set(_comp(data))
            vec = [1 if i + 1 in data else 0 for i in range(9)]
            heights.append(x_value(tuple(vec)))
            for a in ALL_WEIGHTS:
                if a in M:
                    continue
                inter = set(a) & cset
                if len(inter) == 3:
                    zero_hit = True
                elif len(inter) == 2:
                    p = (set(a) - cset).pop()
                    q = (cset - set(a)).pop()
                    targets.add(("g", (p, q)))
        else:
            raise ValueError(kind)
    return targets, zero_hit, heights


def support_criterion(actors, M) -> bool:
    """Fewer targets than distinct actors (distinct basis elements are
    independent; a repeated one is not), no zero-weight target, and every
    actor of negative height."""
    targets, zero_hit, heights = support_targets(actors, M)
    return (len(targets) < len(set(actors))
            and not zero_hit
            and all(h < 0 for h in heights))


def alternating_det(n):
    """The determinant of the generic n x n alternating matrix, entries
    x_ij = -x_ji for i < j, as a map from monomials (sorted tuples of the
    pairs (i, j)) to their nonzero coefficients."""
    acc = {}
    for perm in permutations(range(n)):
        if any(i == j for i, j in enumerate(perm)):
            continue
        coef = merge_sign(perm)[1]
        mono = []
        for i, j in enumerate(perm):
            if i > j:
                i, j = j, i
                coef = -coef
            mono.append((i, j))
        key = tuple(sorted(mono))
        acc[key] = acc.get(key, 0) + coef
    return {key: c for key, c in acc.items() if c}


def antisym5_det_vanishes() -> bool:
    """Exact symbolic determinant of a generic 5x5 alternating matrix."""
    return not alternating_det(5)


# the five indices of case (3 4 8): its actors e_1^e_2^e_k, and the 5-dim
# space of its wedge pairing
SPAN_348 = (3, 4, 5, 6, 7)


def wedge_pairing_alternating() -> bool:
    """(omega, x, y) -> omega ^ x ^ y on a 5-dim space is alternating in
    (x, y), checked exactly on every basis combination."""
    for omega in combinations(SPAN_348, 3):
        for x in SPAN_348:
            if merge_sign(omega, (x,), (x,))[0] is not None:
                return False
            for y in SPAN_348:
                kxy = merge_sign(omega, (x,), (y,))
                kyx = merge_sign(omega, (y,), (x,))
                if kxy[0] is None and kyx[0] is None:
                    continue
                if kxy[0] != kyx[0] or kxy[1] != -kyx[1]:
                    return False
    return True


def case_348() -> bool:
    """Images of e_1^e_2^e_k (k in `SPAN_348`) stay inside the span
    indexed by {1..7}; the induced odd alternating pairing then forces a
    kernel."""
    M = up_closure([(3, 4, 8)])
    confined = all(set(a) <= set(SPAN_348)
                   for k in SPAN_348 for a in ALL_WEIGHTS
                   if a not in M and not set(a) & {1, 2, k})
    actors = [("w3", (1, 2, k)) for k in SPAN_348]
    _, zero_hit, heights = support_targets(actors, M)
    return (confined and not zero_hit
            and all(h < 0 for h in heights)
            and wedge_pairing_alternating()
            and antisym5_det_vanishes())


def reduces_to(weight, target) -> bool:
    """The case of weight reduces to that of target: the up-set of target
    lies inside the up-set of weight (equivalently, weight <= target)."""
    return up_closure([target]) <= up_closure([weight])


def negative_weight_sweep() -> bool:
    """Every negative weight except (1 5 9) sits under a verified trigger."""
    triggers = set(SIX_STABLE) | {(1, 6, 8), (2, 4, 8), (2, 3, 9), (1, 4, 9)}
    return all(any(leq(a, t) for t in triggers)
               for a in ALL_WEIGHTS
               if x_value(weight_vector(a)) <= 0 and a != (1, 5, 9))


def case7_part5() -> bool:
    """Closure conditions for the shift argument on the four-generator set."""
    gens = ((1, 6, 9), (2, 4, 9), (2, 7, 8), (4, 6, 7))
    M = up_closure(gens)
    alpha = (1, 5, 9)
    shift_free = True
    for sign in (1, -1):
        for g in M:
            vec = list(weight_vector(g))
            vec[4] += sign   # +- (e5 - e4)
            vec[3] -= sign
            if min(vec) < 0 or max(vec) > 1 or sum(vec) != 3:
                continue
            t = tuple(i + 1 for i, c in enumerate(vec) if c)
            if t in ALL_WEIGHTS and t not in M:
                shift_free = False
    cond_b = alpha not in M and (1, 4, 9) not in M
    # with (1 5 9) added, the configuration covering the paired-case
    # criterion is contained in the enlarged set
    enlarged = M | up_closure([alpha])
    cond_c = up_closure([(1, 5, 9), (5, 6, 7)]) <= enlarged
    return shift_free and cond_b and cond_c


def verify_stability() -> dict:
    """All fixtures as (name, status) results, status None for the one
    that is not a finite computation."""
    out = []

    lam267 = _lam((-1, (1, 3, 4)), (-1, (1, 2, 5)))
    out.append(("part1_267_lambda",
                check_lambda_criterion(lam267, up_closure([(2, 6, 7)]))))

    out.append(("part1_178_gamma",
                check_gamma_criterion(neg(weight_vector((7, 8, 9))),
                                      up_closure([(1, 7, 8)]))))
    out.append(("part1_456_gamma",
                check_gamma_criterion(weight_vector((1, 2, 3)),
                                      up_closure([(4, 5, 6)]))))

    out.append(("part1_357_support",
                support_criterion([("w3", (1, 2, 3)), ("w3", (1, 2, 4))],
                                  up_closure([(3, 5, 7)]))))

    out.append(("part1_348_alternating", case_348()))

    # proof-level, not machine-checked: relies on a group-action normal
    # form, not a finite sweep
    out.append(("part1_258_skipped", None))

    out.append(("part1_248_reduces_to_348",
                reduces_to((2, 4, 8), (3, 4, 8))))

    out.append(("part2_negative_sweep", negative_weight_sweep()))

    out.append(("part2_168_gamma",
                check_gamma_criterion(neg(weight_vector((6, 8, 9))),
                                      up_closure([(1, 6, 8)]))))
    out.append(("part2_239_gamma",
                check_gamma_criterion(eij(1, 9), up_closure([(2, 3, 9)]))))

    out.append(("part2_149_support",
                support_criterion([("g", (3, 9)), ("g", (2, 9))],
                                  up_closure([(1, 4, 9), (2, 4, 9)]))))

    out.append(("part3_169_268_support",
                support_criterion([("w6", _comp((6, 8, 9))),
                                   ("w6", _comp((7, 8, 9)))],
                                  up_closure([(1, 6, 9), (2, 6, 8)]))))

    lam4 = _lam((-1, (1, 2, 3)), (-1, (1, 4, 6)), (1, (1, 6, 9)))
    out.append(("part4_159_567_lambda",
                check_lambda_criterion(
                    lam4, up_closure([(1, 5, 9), (5, 6, 7)]))))

    lam5 = _lam((-1, (1, 2, 3)), (1, (7, 8, 9)), (1, (3, 6, 9)))
    out.append(("part5_169_349_367_lambda",
                check_lambda_criterion(
                    lam5, up_closure([(1, 6, 9), (3, 4, 9), (3, 6, 7)]))))

    actors6 = [("w6", _comp(t)) for t in
               ((5, 7, 9), (6, 7, 9), (4, 8, 9), (5, 8, 9), (6, 8, 9), (7, 8, 9))]
    out.append(("part6_179_249_457_support",
                support_criterion(actors6, up_closure(
                    [(1, 7, 9), (2, 4, 9), (4, 5, 7)]))))

    out.append(("part7_169_249_278_467_shift", case7_part5()))

    return {"results": out}
