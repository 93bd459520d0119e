"""Embedded cusp-certificate fixtures: the map table, the weight tables
f_1..f_7, and the per-case data used by the cusp verification, over the
root basis S_H, which is `rootsys.S0_TRIPLES`, and its six stable triples.

Weights are (i, j, k) triples, 1 <= i < j < k <= 9.  Rationals are exact.
The printed preimage counts ride along so the checker can flag any
transcription drift between the maps and the convenience columns.
"""

from __future__ import annotations

from fractions import Fraction as Fr

from .rootsys import S0_TRIPLES

FIXTURE_VERSION = 1

# the root basis; the library reads it at call time, so a test can cut it
S_H = S0_TRIPLES

# the six stable basis triples, all but (1 6 9) and (2 4 9); `stability`
# takes them as triggers of its negative-weight sweep
SIX_STABLE = ((2, 6, 7), (2, 5, 8), (3, 4, 8), (3, 5, 7), (1, 7, 8), (4, 5, 6))

# top slice of the weight poset: every up-closed set of size > 10 contains it
M0_DPRIME_BASE = ((7, 8, 9), (6, 8, 9), (5, 8, 9), (6, 7, 9), (5, 7, 9), (4, 8, 9))

GAMMAS = ((2, 6, 8), (3, 6, 7), (3, 5, 8), (2, 5, 9),
          (3, 4, 9), (1, 7, 9), (4, 5, 7))

# map table: row weight -> value under each of the eight maps (None = not
# in that map's domain)
_T = {
    (2, 4, 9): (None, (2, 3, 9), None, None, None, None, None, None),
    (2, 6, 8): ((2, 6, 7), None, None, None, (2, 6, 7), (2, 6, 7), None, None),
    (3, 6, 7): ((3, 5, 7), None, None, None, (2, 6, 7), (2, 6, 7), None, (3, 5, 7)),
    (3, 5, 8): ((3, 4, 8), (3, 4, 8), (3, 4, 8), (3, 4, 8), (3, 4, 8), (3, 4, 8), (3, 4, 8), (3, 5, 7)),
    (2, 5, 9): ((2, 5, 8), None, None, None, None, None, (2, 4, 9), (1, 5, 9)),
    (3, 4, 9): ((2, 4, 9), (1, 4, 9), None, None, None, None, (2, 4, 9), None),
    (1, 7, 9): ((1, 7, 8), None, None, None, None, (1, 6, 9), None, None),
    (4, 5, 7): ((4, 5, 6), None, None, None, (4, 5, 6), None, (4, 5, 6), (4, 5, 6)),
    (3, 6, 8): ((3, 4, 8), (2, 6, 8), (3, 4, 8), (3, 4, 8), (3, 4, 8), (3, 4, 8), (3, 6, 7), (2, 6, 8)),
    (2, 6, 9): ((1, 6, 9), None, None, None, None, None, None, None),
    (2, 7, 8): ((2, 5, 8), (2, 6, 8), None, (2, 6, 8), (2, 5, 8), (2, 5, 8), (2, 6, 8), (2, 6, 8)),
    (4, 6, 7): ((3, 5, 7), None, (3, 6, 7), None, (4, 5, 6), (4, 5, 7), (3, 6, 7), (3, 5, 7)),
    (3, 5, 9): ((3, 5, 7), None, None, None, None, None, (1, 5, 9), (1, 5, 9)),
    (1, 8, 9): ((1, 6, 9), None, None, None, (1, 7, 9), (1, 6, 9), None, None),
    (4, 5, 8): ((3, 4, 8), (3, 4, 8), (3, 4, 8), (3, 4, 8), (3, 4, 8), (4, 5, 7), (3, 4, 8), (4, 5, 6)),
    (3, 6, 9): ((1, 6, 9), None, None, None, None, None, None, None),
    (3, 7, 8): ((3, 4, 8), (2, 6, 8), (2, 7, 8), (3, 4, 8), (3, 4, 8), (3, 4, 8), (3, 6, 7), (2, 6, 8)),
    (4, 6, 8): ((3, 4, 8), (2, 6, 8), (3, 6, 7), (3, 4, 8), (3, 4, 8), (4, 5, 7), (3, 6, 7), (2, 6, 8)),
    (2, 7, 9): ((2, 6, 7), None, None, None, None, None, None, None),
    (5, 6, 7): ((3, 5, 7), None, (3, 6, 7), (4, 6, 7), (4, 5, 6), (4, 5, 7), (3, 6, 7), (3, 5, 7)),
    (4, 5, 9): ((2, 4, 9), None, None, None, None, None, (1, 5, 9), (3, 4, 9)),
    (2, 8, 9): ((2, 4, 9), None, None, None, None, None, None, None),
    (5, 6, 8): ((2, 5, 8), (5, 6, 7), (3, 6, 7), (4, 6, 7), (4, 5, 6), (4, 5, 7), (3, 6, 7), (2, 6, 8)),
    (3, 7, 9): ((1, 6, 9), None, None, None, None, None, None, None),
    (4, 6, 9): ((1, 6, 9), None, None, None, None, None, None, None),
    (4, 7, 8): ((3, 5, 7), (2, 6, 8), (2, 7, 8), (4, 6, 7), (3, 4, 8), (4, 5, 7), (3, 6, 7), (2, 6, 8)),
    (3, 8, 9): ((1, 6, 9), None, None, None, None, None, None, None),
    (5, 6, 9): ((1, 6, 9), None, None, None, None, None, None, None),
    (5, 7, 8): ((3, 5, 7), (5, 6, 7), (2, 7, 8), (4, 6, 7), (4, 5, 6), (3, 4, 8), (1, 7, 8), (2, 6, 8)),
    (4, 7, 9): ((2, 4, 9), None, None, None, None, None, None, None),
    (6, 7, 8): ((1, 7, 8), (5, 6, 7), (2, 7, 8), (2, 6, 8), (3, 5, 7), (3, 4, 8), (1, 7, 8), (1, 7, 8)),
}

_COLS = ("g0", "g1", "g21", "g22", "g31", "g32", "g41", "g42")


def map_column(name: str) -> dict:
    idx = _COLS.index(name)
    return {a: row[idx] for a, row in _T.items() if row[idx] is not None}


# weight tables for the seven base certificates, rows in S_H order;
# the first column is the printed |g0^-1| count
BASE_G0_COUNTS = {
    (2, 6, 7): 2, (2, 5, 8): 3, (3, 4, 8): 5, (1, 6, 9): 7,
    (3, 5, 7): 6, (2, 4, 9): 4, (1, 7, 8): 2, (4, 5, 6): 1,
}

_F_ROWS = {
    (2, 6, 7): (Fr(1041, 512), Fr(1041, 512), Fr(1553, 512), Fr(1553, 512),
                Fr(1553, 512), Fr(1553, 512), Fr(1553, 512)),
    (2, 5, 8): (Fr(1573, 512), Fr(2085, 512), Fr(1573, 512), Fr(1573, 512),
                Fr(2085, 512), Fr(2085, 512), Fr(2089, 512)),
    (3, 4, 8): (Fr(2709, 512), Fr(2709, 512), Fr(2709, 512), Fr(3221, 512),
                Fr(2709, 512), Fr(3221, 512), Fr(3157, 512)),
    (1, 6, 9): (Fr(3767, 512), Fr(3767, 512), Fr(3767, 512), Fr(3767, 512),
                Fr(3767, 512), Fr(3767, 512), Fr(4215, 512)),
    (3, 5, 7): (Fr(3755, 512), Fr(3243, 512), Fr(3243, 512), Fr(3243, 512),
                Fr(3243, 512), Fr(3243, 512), Fr(3179, 512)),
    (2, 4, 9): (Fr(2635, 512), Fr(2635, 512), Fr(2635, 512), Fr(2123, 512),
                Fr(2123, 512), Fr(2123, 512), Fr(2315, 512)),
    (1, 7, 8): (Fr(137, 64), Fr(137, 64), Fr(137, 64), Fr(137, 64),
                Fr(137, 64), Fr(73, 64), Fr(97, 64)),
    (4, 5, 6): (Fr(9, 8), Fr(9, 8), Fr(9, 8), Fr(9, 8),
                Fr(9, 8), Fr(9, 8), Fr(1, 2)),
}


def base_f(i: int) -> dict:
    """f_i table (i in 1..7) as weight -> Fraction."""
    return {a: row[i - 1] for a, row in _F_ROWS.items()}


# certificates allowing the three special weights ------------------------------------------------------

CASE1 = {
    "label": "case1",
    "excluded": ((2, 6, 8), (3, 6, 7), (4, 6, 7), (4, 5, 7), (5, 6, 7)),
    "added": ((1, 6, 9), (2, 4, 9), (1, 5, 9)),
    "m0_dprime_gens": ((1, 5, 9),),
    "m1_prime": ((3, 4, 8), (1, 7, 8), (2, 6, 8), (5, 6, 7), (2, 3, 9), (1, 4, 9)),
    "f_prime": {(3, 4, 8): Fr(53, 16), (1, 7, 8): Fr(35, 16), (2, 6, 8): Fr(5),
                (5, 6, 7): Fr(103, 16), (2, 3, 9): Fr(8), (1, 4, 9): Fr(121, 16)},
    "g_col": "g1",
    "printed_counts": {(3, 4, 8): 2, (1, 7, 8): 0, (2, 6, 8): 5,
                       (5, 6, 7): 3, (2, 3, 9): 1, (1, 4, 9): 1},
}

CASE21 = {
    "label": "case2.1",
    "excluded": ((2, 6, 8), (2, 7, 8), (3, 6, 7), (4, 5, 7)),
    "added": ((1, 6, 9), (2, 4, 9)),
    "m0_dprime_gens": ((1, 6, 9), (2, 4, 9)),
    "m1_prime": ((3, 4, 8), (3, 6, 7), (4, 5, 7), (2, 7, 8), (1, 5, 9), (2, 3, 9)),
    "f_prime": {(3, 4, 8): Fr(201, 64), (3, 6, 7): Fr(533, 128),
                (4, 5, 7): Fr(553, 128), (2, 7, 8): Fr(815, 128),
                (1, 5, 9): Fr(41, 4), (2, 3, 9): Fr(545, 128)},
    "g_col": "g21",
    "printed_counts": {(3, 4, 8): 3, (3, 6, 7): 4, (4, 5, 7): 0,
                       (2, 7, 8): 4, (1, 5, 9): 0, (2, 3, 9): 0},
}

CASE22 = {
    "label": "case2.2",
    "excluded": ((2, 6, 8), (3, 6, 7), (4, 5, 7), (4, 6, 7)),
    "added": ((1, 6, 9), (2, 4, 9), (3, 5, 8)),
    "m0_dprime_gens": ((1, 6, 9), (2, 4, 9)),
    "m1_prime": ((1, 7, 8), (2, 6, 8), (3, 4, 8), (4, 6, 7), (1, 5, 9), (2, 3, 9)),
    "f_prime": {(1, 7, 8): Fr(9, 8), (2, 6, 8): Fr(39, 8), (3, 4, 8): Fr(5),
                (4, 6, 7): Fr(47, 8), (1, 5, 9): Fr(67, 8), (2, 3, 9): Fr(23, 4)},
    "g_col": "g22",
    "printed_counts": {(1, 7, 8): 0, (2, 6, 8): 2, (3, 4, 8): 5,
                       (4, 6, 7): 4, (1, 5, 9): 0, (2, 3, 9): 0},
}

CASE31 = {
    "label": "case3.1",
    "excluded": ((1, 7, 9),),
    "added": ((2, 4, 9),),
    "m0_dprime_gens": ((2, 4, 9),),
    "m1_prime": ((2, 6, 7), (2, 5, 8), (3, 4, 8), (3, 5, 7), (4, 5, 6),
                 (1, 7, 9), (2, 3, 9)),
    "f_prime": {(2, 6, 7): Fr(27, 8), (2, 5, 8): Fr(73, 16),
                (3, 4, 8): Fr(207, 32), (3, 5, 7): Fr(33, 32),
                (4, 5, 6): Fr(177, 32), (1, 7, 9): Fr(31, 4),
                (2, 3, 9): Fr(137, 32)},
    "g_col": "g31",
    "printed_counts": {(2, 6, 7): 2, (2, 5, 8): 1, (3, 4, 8): 6, (3, 5, 7): 1,
                       (4, 5, 6): 5, (1, 7, 9): 1, (2, 3, 9): 0},
}

CASE32 = {
    "label": "case3.2",
    "excluded": ((4, 5, 7),),
    "added": ((2, 4, 9),),
    "m0_dprime_gens": ((2, 4, 9),),
    "m1_prime": ((2, 6, 7), (2, 5, 8), (3, 4, 8), (1, 6, 9), (1, 7, 8),
                 (4, 5, 7), (2, 3, 9)),
    "f_prime": {(2, 6, 7): Fr(785, 256), (2, 5, 8): Fr(1061, 256),
                (3, 4, 8): Fr(1621, 256), (1, 6, 9): Fr(2167, 256),
                (1, 7, 8): Fr(33, 32), (4, 5, 7): Fr(1643, 256),
                (2, 3, 9): Fr(1291, 256)},
    "g_col": "g32",
    "printed_counts": {(2, 6, 7): 2, (2, 5, 8): 1, (3, 4, 8): 5, (1, 6, 9): 2,
                       (1, 7, 8): 0, (4, 5, 7): 6, (2, 3, 9): 0},
}

CASE41 = {
    "label": "case4.1",
    "excluded": ((2, 6, 8), (3, 6, 7)),
    "added": ((1, 6, 9),),
    "m0_dprime_gens": ((1, 6, 9),),
    "m1_prime": ((3, 4, 8), (2, 4, 9), (1, 7, 8), (4, 5, 6), (2, 6, 8),
                 (3, 6, 7), (1, 5, 9)),
    "f_prime": {(3, 4, 8): Fr(57, 16), (2, 4, 9): Fr(99, 16),
                (1, 7, 8): Fr(69, 32), (4, 5, 6): Fr(33, 32),
                (2, 6, 8): Fr(69, 16), (3, 6, 7): Fr(253, 32),
                (1, 5, 9): Fr(219, 32)},
    "g_col": "g41",
    "printed_counts": {(3, 4, 8): 2, (2, 4, 9): 2, (1, 7, 8): 2, (4, 5, 6): 1,
                       (2, 6, 8): 1, (3, 6, 7): 7, (1, 5, 9): 1},
}

CASE42 = {
    "label": "case4.2",
    "excluded": ((2, 6, 8), (3, 4, 9)),
    "added": ((1, 6, 9),),
    "m0_dprime_gens": ((1, 6, 9),),
    "m1_prime": ((3, 5, 7), (1, 7, 8), (4, 5, 6), (2, 6, 8), (3, 4, 9), (1, 5, 9)),
    "f_prime": {(3, 5, 7): Fr(4), (1, 7, 8): Fr(25, 8), (4, 5, 6): Fr(2),
                (2, 6, 8): Fr(73, 8), (3, 4, 9): Fr(61, 8), (1, 5, 9): Fr(37, 8)},
    "g_col": "g42",
    "printed_counts": {(3, 5, 7): 3, (1, 7, 8): 1, (4, 5, 6): 2, (2, 6, 8): 7,
                       (3, 4, 9): 1, (1, 5, 9): 1},
}

BOUNDARY_CASES = (CASE1, CASE21, CASE22, CASE31, CASE32, CASE41, CASE42)
