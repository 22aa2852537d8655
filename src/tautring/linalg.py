"""Exact rank of rational matrices.

Rank is an incremental row echelon over the integers on sparse rows
``{col: value}``, as pairing matrices hold them; a zero value is skipped, so
it is never a pivot.  Each row is read once as ``{col: int}``: its nonzero
entries, scaled by the lcm of their denominators over the gcd of their
numerators, which leaves the row integral and content-free.  It is reduced
by the stored pivot rows, leading column first: holding ``a`` where the
pivot row leads with ``b``, it becomes ``row·(b/g) − pivot·(a/g)`` with
``g = gcd(a, b)``, divided by the gcd of its entries.  A row that keeps an
entry becomes the pivot row of its leading column, and the rank is the
number of pivot rows.

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
from typing import Iterable, Mapping, Union


def exact_rank(rows: Iterable[Mapping[int, Union[Fraction, int]]]) -> int:
    """Rank of sparse rows ``{column: value}`` of ``Fraction`` or ``int``
    values; zero values are skipped."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        entries = {j: x for j, x in row.items() if x}
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

