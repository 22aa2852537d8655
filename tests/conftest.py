import dataclasses

import pytest

from tautring import Evaluator, Polynomial, RingContext, pairing_matrix
from tautring.forest import ll_monomials
from tautring.rewrite import apply_step

_MATRICES = {}


def get_matrices(g, n):
    """Context, evaluator and all pairing matrices for (g, n), built once."""
    if (g, n) not in _MATRICES:
        ctx = RingContext(g, n)
        ev = Evaluator(ctx)
        ms = [pairing_matrix(ctx, k, ev) for k in range(ctx.top_degree + 1)]
        _MATRICES[(g, n)] = (ctx, ev, ms)
    return _MATRICES[(g, n)]


def oracle_normal_form(nz, poly):
    """Normal form of ``poly`` by recursion: ``NF(m) = m`` when
    ``nz.find_step(m)`` is None, else ``sum c * NF(t)`` over the terms of
    :func:`~tautring.rewrite.apply_step`.  It shares no code with the
    normalizer's graph walk, memo or flow loop, so tests hold those to it."""
    nf = {}

    def of(m):
        if m not in nf:
            step = nz.find_step(m)
            if step is None:
                nf[m] = Polynomial.monomial(m)
            else:
                out = Polynomial.zero()
                for t, c in apply_step(m, step).items():
                    out = out + of(t) * c
                nf[m] = out
        return nf[m]

    out = Polynomial.zero()
    for m, c in poly.items():
        out = out + of(m) * c
    return out


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
