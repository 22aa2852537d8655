"""Exact rank and determinant of rational matrices.

Rank is an incremental row echelon over the integers on sparse rows.  Each
row is read once as ``{col: int}``: its nonzero entries, scaled by the lcm
of their denominators over the gcd of their numerators, which leaves the
row integral and content-free.  It is reduced by the stored pivot rows,
leading column first: holding ``a`` where the pivot row leads with ``b``,
it becomes ``row·(b/g) − pivot·(a/g)`` with ``g = gcd(a, b)``, divided by
the gcd of its entries.  A row that keeps an entry becomes the pivot row
of its leading column, and the rank is the number of pivot rows.

Rank does not depend on the pivot order, so no choice made here can change
a result.  Entries stay small: if R are the input rows behind the pivot
rows and P their leading columns, a fully reduced row r is a multiple of
the vector of minors of the scaled input rows R + {r} on the columns
P + {j} (Cramer's rule).  Those minors are integers, so no entry of the
content-free r exceeds the minor for its column in absolute value, and
Bareiss elimination stores minors of this kind as they are.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence


def exact_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of rows of ``Fraction`` or ``int``; ``ValueError`` if ragged."""
    pivots: dict[int, dict[int, int]] = {}
    width = None
    for row in rows:
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValueError("ragged matrix")
        entries = {j: x for j, x in enumerate(row) if x}
        if not entries:
            continue
        den = math.lcm(*(x.denominator for x in entries.values()))
        num = math.gcd(*(x.numerator for x in entries.values()))
        vec = {j: x.numerator // num * (den // x.denominator) for j, x in entries.items()}
        for c in sorted(pivots):
            a = vec.get(c)
            if a is None:
                continue
            pivot = pivots[c]
            g = math.gcd(a, pivot[c])
            a, b = a // g, pivot[c] // g
            vec = {j: v * b for j, v in vec.items()}
            for j, v in pivot.items():
                vec[j] = vec.get(j, 0) - v * a
            content = math.gcd(*vec.values())
            if not content:
                break
            vec = {j: v // content for j, v in vec.items() if v}
        else:  # the row did not reduce to zero
            pivots[min(vec)] = vec
    return len(pivots)


def exact_det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    M = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if M[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            M[c], M[pivot] = M[pivot], M[c]
            det = -det
        det *= M[c][c]
        inv = 1 / M[c][c]
        for i in range(c + 1, n):
            f = M[i][c] * inv
            if f:
                M[i] = [a - f * b for a, b in zip(M[i], M[c])]
    return det
