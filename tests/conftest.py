import dataclasses

import pytest

from tautring import Evaluator, RingContext, pairing_matrix
from tautring.forest import ll_monomials

_MATRICES = {}


def get_matrices(g, n):
    """Context, evaluator and all pairing matrices for (g, n), built once."""
    if (g, n) not in _MATRICES:
        ctx = RingContext(g, n)
        ev = Evaluator(ctx)
        ms = [pairing_matrix(ctx, k, ev) for k in range(ctx.top_degree + 1)]
        _MATRICES[(g, n)] = (ctx, ev, ms)
    return _MATRICES[(g, n)]


def forced_zero(m, i, j):
    """Whether the filtration bound forces entry (i, j) of ``m`` to vanish."""
    top = m.ctx.top_degree
    r, c = m.rows[i], m.cols[j]
    return (ll_monomials(r.monomial, c.monomial) and c.p + r.degree > top) or (
        ll_monomials(c.monomial, r.monomial) and r.p + c.degree > top
    )


def forced_positions(m):
    """Every forced-zero position of ``m``, row-major."""
    return [(i, j) for i in range(len(m.rows)) for j in range(len(m.cols))
            if forced_zero(m, i, j)]


def with_entries(m, changes):
    """Copy of ``m`` with the entries at the given positions replaced."""
    rows = [list(r) for r in m.entries]
    for (i, j), v in changes.items():
        rows[i][j] = v
    return dataclasses.replace(m, entries=tuple(tuple(r) for r in rows))


@pytest.fixture
def ctx22():
    return RingContext(2, 2)


@pytest.fixture
def ctx23():
    return RingContext(2, 3)


@pytest.fixture
def ctx33():
    return RingContext(3, 3)
