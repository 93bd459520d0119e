"""Weight combinatorics for the 84-dimensional degree-1 piece and the
complete cusp-certificate verification.

Weights (i j k) embed into the lattice as e_i + e_j + e_k.  The partial
order is coordinatewise; it agrees with the coweight-valued definition,
and both are checked against each other as 84 pairs of up-set masks.
The coweight order's masks (`_coweight_order`) are the AND of one
threshold mask and one residue-mod-9 mask per coordinate; the
certificates' descent steps read the same masks.

Weight sets are frozensets at the API (the layers of a CuspCase,
`up_closure`, the criteria) and bit masks over ALL_WEIGHTS in every sweep
(the small-set enumeration, the sampled intermediates, positivity), read
by popcounts; the mask tables are built on first use, so that importing
this module costs the suites that never sweep nothing.

Coweight coordinates are kept as integers scaled by 9.  Positivity has
one kernel, `_certificate_positivity`.  A certificate whose f has
denominators dividing den is tested on the integer vector 9 * den * n,
whose 8 coordinates the kernel packs into one int of biased lanes: the
map to coweights is linear, so the pack is a sum of the packs of
sum(Phi_G+), of e_1, ..., e_9 weighted by popcounts, and of the weights
of f.  "All coordinates > 0" is then one test of the lanes' top bits,
at a lane width chosen per call from a bound in den (`_lane_width`).
Exact rational slack is built only for the report (the case sum,
positivity and capacity slacks), read back from the lanes.
"""

from __future__ import annotations

import json
import random
from collections import Counter, namedtuple
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import lcm
from operator import itemgetter

from . import cuspdata
from .rootsys import (
    build_root_system,
    eij,
    lanes,
    pairing,
    sub,
    unlanes,
    weight_vector,
)

ALL_WEIGHTS = tuple(combinations(range(1, 10), 3))

_D = (0, 2, 3, 4, 5, 6, 7, 8, 9)


def x_value(v) -> int:
    """Pairing of a lattice class with the marking element x.

    x is integral against the whole lattice, takes the value 1 exactly on
    the eight basis triples, and separates positives from negatives.
    """
    s = sum(v)
    num = 9 * sum(d * c for d, c in zip(_D, v)) - 44 * s
    if num % 3:
        raise ValueError(f"{v} is not a lattice class")
    return num // 3


def leq(a, b) -> bool:
    """(i j k) <= (l m n) iff i <= l, j <= m, k <= n."""
    return a[0] <= b[0] and a[1] <= b[1] and a[2] <= b[2]


def _coweights9(v):
    """9 x the coweight coordinates of a lattice vector mod ones:
    i * sum(v) - 9 * (v_1 + ... + v_i) for i = 1..8."""
    total = sum(v)
    out = []
    prefix = 0
    for i in range(1, 9):
        prefix += v[i - 1]
        out.append(i * total - 9 * prefix)
    return tuple(out)


_COWEIGHTS9 = {a: _coweights9(weight_vector(a)) for a in ALL_WEIGHTS}


@cache
def _coweight_order(cws):
    """The up-set {b : a <= b} of every weight a in the coweight order, as
    a bit mask over ALL_WEIGHTS, for cws the 9 x coweight vectors of the
    weights in the order of ALL_WEIGHTS.

    a <= b when b - a has integral, nonnegative coweight coordinates, so
    the up-set of a is the AND over i = 1..8 of two masks: the weights b
    with cw_i(b) >= cw_i(a) and those with cw_i(b) = cw_i(a) (mod 9).
    Keyed by the vectors themselves, so a changed table is read afresh."""
    ups = [-1] * len(cws)
    for col in zip(*cws):
        at = {}
        for j, t in enumerate(col):
            at[t] = at.get(t, 0) | 1 << j
        geq, acc = {}, 0
        for t in sorted(at, reverse=True):
            acc |= at[t]
            geq[t] = acc
        mod9 = {}
        for t, m in at.items():
            mod9[t % 9] = mod9.get(t % 9, 0) | m
        for j, t in enumerate(col):
            ups[j] &= geq[t] & mod9[t % 9]
    return dict(zip(ALL_WEIGHTS, ups))


def _coweight_up_masks():
    """`_coweight_order` on the table _COWEIGHTS9 as it is when called."""
    return _coweight_order(tuple(map(_COWEIGHTS9.__getitem__, ALL_WEIGHTS)))


def phi_v_plus():
    """Weights above some basis triple (equivalently with positive height)."""
    return frozenset(a for a in ALL_WEIGHTS if x_value(weight_vector(a)) > 0)


def _leq_masks():
    """The up-set {b : a <= b} of every weight a under `leq` as it is when
    called, as a bit mask over ALL_WEIGHTS."""
    return {a: sum(1 << i for i, b in enumerate(ALL_WEIGHTS) if leq(a, b))
            for a in ALL_WEIGHTS}


# the sweeps' up-sets, built once (84 ints, where frozensets would hold
# ~160 KB)
_up_masks = cache(_leq_masks)


def up_closure(gens):
    ups = _up_masks()
    mask = 0
    for g in gens:
        mask |= ups[g]
    return frozenset(mask_weights(mask))


def is_up_closed(M) -> bool:
    M = frozenset(M)
    return up_closure(M) == M


def enumerate_up_closed(max_size: int):
    """All nonempty up-closed sets with at most max_size weights, as bit
    masks, by breadth-first growth from the unique maximal weight: a weight
    a joins S when its up-set outside S is a alone."""
    grow = [(up, 1 << i) for i, up in enumerate(_up_masks().values())]
    start = _bits()[(7, 8, 9)]
    seen = {start}
    frontier = [start]
    out = [start]
    while frontier:
        nxt = []
        for S in frontier:
            if S.bit_count() >= max_size:
                continue
            for up, bit in grow:
                T = S | bit
                if up & ~S == bit and T not in seen:
                    seen.add(T)
                    nxt.append(T)
        out += nxt
        frontier = nxt
    return out


def phi_g_plus_vectors():
    return [eij(j, i) for i in range(1, 10) for j in range(i + 1, 10)]


@cache
def sum_phi_g_plus():
    acc = [0] * 9
    for v in phi_g_plus_vectors():
        for t in range(9):
            acc[t] += v[t]
    return tuple(acc)


# -- structural verifications -------------------------------------------------


def verify_s0_basis():
    """x takes nonzero integer values on all roots and 1 exactly on S_H."""
    rs = build_root_system()
    failures = []
    ones = set()
    for r in rs.roots:
        val = x_value(r)
        if val == 0:
            failures.append(("zero", r))
        if val == 1:
            ones.add(r)
    expect = {weight_vector(t) for t in cuspdata.S_H}
    if ones != expect:
        failures.append(("value-one set mismatch", sorted(ones)))
    return failures


def verify_leq_agreement():
    """The pairs (a, b) on which `leq` and the coweight order disagree, a
    first, each in the order of ALL_WEIGHTS: the two up-set masks of each
    weight compared, the coordinatewise ones built from `leq` now."""
    cw = _coweight_up_masks()
    bad = []
    for a, up in _leq_masks().items():
        bad += [(a, b) for b in mask_weights(up ^ cw[a])]
    return bad


def verify_intersection_table():
    """Weight pairs (a, b) whose lattice pairing is not |a & b| - 1, each in
    the order of ALL_WEIGHTS.  The pairings are the weight-weight block of
    the root system's pair table, read a row at a time as the check runs,
    and |a & b| is the popcount of the AND of the weights' 9-bit masks."""
    rs = build_root_system()
    cols = [rs.index[weight_vector(a)] for a in ALL_WEIGHTS]
    masks = [sum(1 << (i - 1) for i in a) for a in ALL_WEIGHTS]
    block = itemgetter(*cols)
    bad = []
    for a, i, m in zip(ALL_WEIGHTS, cols, masks):
        got = block(rs.pairs[i])
        want = tuple((m & n).bit_count() - 1 for n in masks)
        if got != want:
            bad += [(a, b) for b, p, q in zip(ALL_WEIGHTS, got, want)
                    if p != q]
    return bad


def check_lambda_criterion(lam, M) -> bool:
    """True iff every weight pairing positively with lam lies in M."""
    M = frozenset(M)
    for a in ALL_WEIGHTS:
        if pairing(lam, weight_vector(a)) > 0 and a not in M:
            return False
    return True


def check_gamma_criterion(gamma, M) -> bool:
    """True iff every weight a with a + gamma a root lies in M, for a root
    gamma."""
    rs = build_root_system()
    sums = rs.sum_row(rs.index[gamma],
                      [rs.index[weight_vector(a)] for a in ALL_WEIGHTS])
    M = frozenset(M)
    return all(a in M for a, m in zip(ALL_WEIGHTS, sums) if m is not None)


# -- cusp cases ---------------------------------------------------------------


class CuspCase(namedtuple("CuspCase", "label m0_prime m0_dprime m1_prime "
                                      "f_prime g printed_counts")):
    """One cusp certificate: its label, the frozensets m0_prime and
    m0_dprime, the tuple m1_prime, the dicts f_prime and g, and the dict
    printed_counts of the source (None for a base case)."""
    __slots__ = ()


def build_base_cases():
    """The seven certificates covering up-closed sets inside the positive
    non-basis weights."""
    pv = phi_v_plus()
    sh = frozenset(cuspdata.S_H)
    dd = frozenset(cuspdata.M0_DPRIME_BASE)
    g0 = cuspdata.map_column("g0")
    cases = []
    for i, gamma in enumerate(cuspdata.GAMMAS, start=1):
        m0p = frozenset(pv - sh - {gamma})
        dom = m0p - dd
        g = {a: g0[a] for a in dom}
        if i == 7:
            g[(1, 7, 9)] = (1, 6, 9)
        cases.append(CuspCase(
            label=f"f{i}",
            m0_prime=m0p,
            m0_dprime=dd,
            m1_prime=tuple(cuspdata.S_H),
            f_prime=cuspdata.base_f(i),
            g=g,
            printed_counts=None,
        ))
    return cases


def build_boundary_cases():
    pv = phi_v_plus()
    sh = frozenset(cuspdata.S_H)
    cases = []
    for data in cuspdata.BOUNDARY_CASES:
        m0p = frozenset((pv - sh - set(data["excluded"])) | set(data["added"]))
        m0d = up_closure(data["m0_dprime_gens"])
        col = cuspdata.map_column(data["g_col"])
        dom = m0p - m0d
        g = {a: col[a] for a in dom if a in col}
        cases.append(CuspCase(
            label=data["label"],
            m0_prime=m0p,
            m0_dprime=m0d,
            m1_prime=tuple(data["m1_prime"]),
            f_prime=dict(data["f_prime"]),
            g=g,
            printed_counts=dict(data["printed_counts"]),
        ))
    return cases


def _scaled(f_map):
    """den, the lcm of the denominators of f, and den * f as ints."""
    den = lcm(*(f.denominator for f in f_map.values()))
    return den, {a: f.numerator * (den // f.denominator)
                 for a, f in f_map.items()}


def _lane_width(den, size):
    """The lane width in bits for `_certificate_positivity` on an f made
    integral by den, with size at least sum(|den * f(a)|) over its pairs.

    A coordinate x_i = 9 den n_i is sum_k v_k cw9(e_k)_i, where v is
    den (sum(Phi_G+) - sum(M0)) + sum den f(a) a and |cw9(e_k)_i| <= 8.
    Coordinate k of sum(Phi_G+) is 2k - 10 (40 in absolute sum), sum(M0)
    has coordinate sum 3 |M0| <= 252 and each weight three coordinates 1,
    so |x_i| <= B = 8 (292 den + 3 size).  At B.bit_length() + 1 bits every
    biased lane x_i + 2^(bits-1) - 1 lies in [0, 2^bits): the packing is
    one-to-one, and the top bit of a lane is set exactly when x_i > 0."""
    return (8 * (292 * den + 3 * size)).bit_length() + 1


@cache
def _lane_tables(bits):
    """At `bits`-bit lanes (`lanes`): the packs of 9 x the coweight
    coordinates of sum(Phi_G+), of e_1, ..., e_9 and of each weight, and
    the bias 2^(bits-1) - 1 and the top bit 2^(bits-1) in all 8 lanes."""
    units = [lanes(_coweights9(tuple(int(t == k) for t in range(9))), bits)
             for k in range(9)]
    top = 1 << bits - 1
    return (lanes(_coweights9(sum_phi_g_plus()), bits), units,
            {a: sum(units[i - 1] for i in a) for a in ALL_WEIGHTS},
            lanes((top - 1,) * 8, bits), lanes((top,) * 8, bits))


def _certificate_positivity(m0, den, fd, bits):
    """9 * den x the coweight coordinates of
    sum(Phi_G+) - sum(M0) + sum f(a) a, each biased by 2^(bits-1) - 1 and
    packed in `bits`-bit lanes, for the bit mask m0 of M0, the pairs
    (a, den * f(a)) fd of an f made integral by den and bits from
    `_lane_width`.  Coordinate k of sum(M0) is the popcount of m0 on the
    weights that contain k, and the map to coweights is linear, so the
    vector is a sum of packs."""
    phi, units, packs, bias, _ = _lane_tables(bits)
    x = den * (phi - sum((m0 & m).bit_count() * u
                         for m, u in zip(_index_masks(), units))) + bias
    for a, k in fd:
        x += k * packs[a]
    return x


def _positive(x, bits):
    """Whether every coordinate packed in x by `_certificate_positivity` at
    `bits` bits is > 0: every lane has its top bit."""
    top = _lane_tables(bits)[4]
    return x & top == top


def _unpack(x, bits):
    """The 8 coordinates packed in x by `_certificate_positivity` at
    `bits` bits, as ints: its bias is one less than the one `unlanes` takes
    off."""
    return tuple(v + 1 for v in unlanes(x, bits, 8))


def verify_cusp_case(case: CuspCase) -> dict:
    """All four certificate conditions with exact slack, plus fixture
    well-formedness and the printed-count cross-check."""
    res = {"label": case.label, "conditions": {}, "notes": []}
    ok_form = (is_up_closed(case.m0_prime)
               and is_up_closed(case.m0_dprime)
               and case.m0_dprime <= case.m0_prime
               and not (set(case.m1_prime) & case.m0_prime)
               and set(case.f_prime) == set(case.m1_prime)
               and all(f >= 0 for f in case.f_prime.values())
               and set(case.g) == case.m0_prime - case.m0_dprime
               and set(case.g.values()) <= set(case.m1_prime))
    res["conditions"]["well_formed"] = {"ok": ok_form}

    total = sum(case.f_prime.values(), Fraction(0))
    slack = Fraction(len(case.m0_prime)) - total
    res["conditions"]["sum_bound"] = {"ok": slack > 0, "slack": slack}

    den, fd = _scaled(case.f_prime)
    bits = _lane_width(den, sum(map(abs, fd.values())))
    pos = _certificate_positivity(_mask(case.m0_prime), den, fd.items(), bits)
    res["conditions"]["positivity"] = {
        "ok": _positive(pos, bits),
        "slack": tuple(Fraction(v, 9 * den) for v in _unpack(pos, bits)),
    }

    # each step must drop strictly in the coweight order (a in the up-set
    # of g(a), and a != g(a)): the induction bound only needs
    # <alpha - g(alpha), coweight> >= 0 in every slot
    # (the table includes steps across two simple roots, so literal
    # root-membership is logged as a note rather than enforced)
    root_vecs = set(phi_g_plus_vectors())
    ups, bit = _coweight_up_masks(), _bits()
    bad_steps = []
    nonroot_steps = []
    for a, b in case.g.items():
        if a == b or not ups[b] & bit[a]:
            bad_steps.append(a)
        elif sub(weight_vector(a), weight_vector(b)) not in root_vecs:
            nonroot_steps.append((a, b))
    res["conditions"]["descent_steps"] = {"ok": not bad_steps, "bad": bad_steps}
    if nonroot_steps:
        res["notes"].append({"steps_spanning_multiple_simple_roots":
                             sorted(nonroot_steps)})

    counts = Counter(case.g.values())
    cap = [(a, case.f_prime[a] - counts[a]) for a in case.m1_prime]
    res["conditions"]["capacity"] = {
        "ok": all(s >= 0 for _, s in cap),
        "slack": {a: s for a, s in cap},
    }

    if case.printed_counts is not None:
        diffs = {a: (case.printed_counts[a], counts[a])
                 for a in case.m1_prime if case.printed_counts[a] != counts[a]}
        if diffs:
            res["notes"].append({"printed_count_discrepancies": diffs})

    return res


INTERMEDIATE_SAMPLES = 100


@cache
def _bits():
    """Each weight's bit, 1 << its index in ALL_WEIGHTS."""
    return {a: 1 << i for i, a in enumerate(ALL_WEIGHTS)}


def _mask(weights):
    """The bit mask of a set of weights."""
    bits = _bits()
    return sum(bits[a] for a in weights)


def mask_weights(mask):
    """The weights of a bit mask, in the order of ALL_WEIGHTS."""
    return [a for i, a in enumerate(ALL_WEIGHTS) if mask >> i & 1]


@cache
def _index_masks():
    """For k = 1..9, the mask of the weights that contain k: coordinate k
    of the sum of weight_vector over a set M of weights is |M & mask|."""
    return tuple(sum(bit for a, bit in _bits().items() if k in a)
                 for k in range(1, 10))


def intermediate_masks(case: CuspCase):
    """Fixed random up-closed sets between the two fixture layers, as bit
    masks, drawn from a generator keyed by the case label."""
    ups = _up_masks()
    inner, outer = _mask(case.m0_dprime), _mask(case.m0_prime)
    free = [ups[a] for a in sorted(case.m0_prime - case.m0_dprime)]
    rng = random.Random(case.label)
    out = []
    for _ in range(INTERMEDIATE_SAMPLES):
        # random() < 1/2 in integers: both read two 32-bit words, and the
        # top bit of the first (bit 31 of getrandbits(64)) decides
        up = 0
        for mask in free:
            if not rng.getrandbits(64) & 1 << 31:
                up |= mask
        out.append(inner | up & outer)
    return out


def intermediate_check(case: CuspCase):
    """The direct certificate for an intermediate set of the case: a
    function of the mask of M0 (between the two layers) giving
    (sum_ok, positivity_ok, nonneg_ok) for M0 and the f that the case
    derives for it, f' less one at g(b) for every b of M0' outside M0.

    f' less an integer keeps its denominators, so den, den * f', the
    masks of the g-preimages of each M1' weight and the lane width are
    built once.
    """
    den, fd = _scaled({a: case.f_prime[a] for a in case.m1_prime})
    preimages = dict.fromkeys(fd, 0)
    bit = _bits()
    for b, a in case.g.items():
        if a in preimages:
            preimages[a] |= bit[b]
    slots = [(fd[a], preimages[a]) for a in fd]
    outer = _mask(case.m0_prime)
    # |k - den * popcount| <= |k| + den |preimages| for every set
    bits = _lane_width(den, sum(abs(k) + den * pre.bit_count()
                                for k, pre in slots))

    def check(m0):
        removed = outer & ~m0
        ks = [k - den * (removed & pre).bit_count() for k, pre in slots]
        pos = _certificate_positivity(m0, den, zip(fd, ks), bits)
        return (sum(ks) < den * m0.bit_count(), _positive(pos, bits),
                min(ks, default=0) >= 0)
    return check


SMALL_SET_SIZE = 10


def verify_small_sets() -> dict:
    """Every up-closed set of size <= SMALL_SET_SIZE passes with f = 0."""
    sets = enumerate_up_closed(SMALL_SET_SIZE)
    bits = _lane_width(1, 0)
    failures = [mask_weights(m0) for m0 in sets
                if not _positive(_certificate_positivity(m0, 1, (), bits),
                                 bits)]
    return {"enumerated": len(sets), "failures": failures}


def coverage_checks() -> dict:
    """Finite poset facts that stitch the certificates into full coverage."""
    pv = phi_v_plus()
    sh = frozenset(cuspdata.S_H)
    out = {}
    out["gamma_upset_is_complement"] = up_closure(cuspdata.GAMMAS) == pv - sh
    out["dprime_escapes_small"] = all(
        sum(not leq(a, g) for a in ALL_WEIGHTS) <= SMALL_SET_SIZE
        for g in cuspdata.M0_DPRIME_BASE)
    out["positive_basis_split"] = (sh <= pv) and (
        sh - {(1, 6, 9), (2, 4, 9)} == set(cuspdata.SIX_STABLE))
    out["poset_facts"] = (
        leq((1, 5, 9), (1, 6, 9))
        and all(leq(a, (5, 6, 7)) for a in ((3, 6, 7), (4, 5, 7), (4, 6, 7)))
        and leq((2, 4, 9), (3, 4, 9))
        and leq((1, 6, 9), (1, 7, 9)))
    out["base_g0_counts_match_printed"] = _check_base_counts()
    out["ok"] = all(v is True for v in out.values())
    return out


def _check_base_counts():
    g0 = cuspdata.map_column("g0")
    counts = {a: 0 for a in cuspdata.S_H}
    for b in g0.values():
        counts[b] += 1
    return counts == cuspdata.BASE_G0_COUNTS


def verify_cusp_bound() -> dict:
    """Every tabulated case, the small-set sweep, the derived-f property on
    fixed sampled intermediate sets, and the coverage facts."""
    report = {"cases": []}
    for case in build_base_cases() + build_boundary_cases():
        res = verify_cusp_case(case)
        check = intermediate_check(case)
        masks = intermediate_masks(case)
        inter_fail = [mask_weights(m0) for m0 in masks if not all(check(m0))]
        res["sampled_intermediates"] = {"count": len(masks),
                                        "failures": inter_fail}
        report["cases"].append(res)
    report["small_sets"] = verify_small_sets()
    report["coverage"] = coverage_checks()
    return report


# -- fixture (de)serialization -------------------------------------------------


def _frac_json(f: Fraction):
    return {"num": str(f.numerator), "den": str(f.denominator)}


def cases_to_json() -> str:
    def enc(case: CuspCase):
        return {
            "label": case.label,
            "m0_prime": sorted(case.m0_prime),
            "m0_dprime": sorted(case.m0_dprime),
            "m1_prime": [list(a) for a in case.m1_prime],
            "f_prime": [[list(a), _frac_json(f)]
                        for a, f in sorted(case.f_prime.items())],
            "g": [[list(a), list(b)] for a, b in sorted(case.g.items())],
            "printed_counts": ([[list(a), c] for a, c in
                                sorted(case.printed_counts.items())]
                               if case.printed_counts else None),
        }
    payload = {
        "fixture_version": cuspdata.FIXTURE_VERSION,
        "cases": [enc(c) for c in build_base_cases() + build_boundary_cases()],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
