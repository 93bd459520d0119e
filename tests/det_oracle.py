"""The determinant by Laplace expansion, for the tests.

The library takes determinants by fraction-free elimination
(`intlinalg.det_bareiss`) and resultants also by a remainder sequence
(`genus2.remainder_resultant`).  This expansion shares no step with
either, so a test that compares them checks one against the other.
"""

from __future__ import annotations


def det_laplace(M):
    """Exhaustive determinant by expansion down the columns, with the minor
    of each remaining row set computed once."""
    memo = {(): 1}

    def minor(rows_key, col):
        # rows_key: the remaining row indices, expanded along column `col`
        if rows_key in memo:
            return memo[rows_key]
        val = 0
        sign = 1
        for pos, r in enumerate(rows_key):
            a = M[r][col]
            if a:
                rest = rows_key[:pos] + rows_key[pos + 1:]
                val += sign * a * minor(rest, col + 1)
            sign = -sign
        memo[rows_key] = val
        return val

    det = minor(tuple(range(len(M))), 0)
    del minor  # it refers to itself: end the cycle, and free the memo, now
    return det
