import dataclasses
from fractions import Fraction

import pytest

from tautring import Evaluator, Monomial, Polynomial, RingContext, pairing_matrix
from tautring.core import DIAG, KAPPA, POINT, diag, kappa, point_k
from tautring.evaluate import socle_raw_value
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


def _contract_marking(ctx, m, j):
    """Integrate ``m`` along the forgetful map of marking ``j``: the scalar
    it picks up and the monomial left on the other markings."""
    partners = [s.params[0] if s.params[1] == j else s.params[1]
                for s, _ in m.pairs if s.kind == DIAG and j in s.params]
    if partners:
        p = min(partners)
        anchor = diag(p, j)
        sign = 1
        kept = []
        moved = []
        for s, e in m.pairs:
            if s.kind == DIAG and j in s.params:
                if s == anchor:
                    sign = (-1) ** (e - 1)
                    moved.append((point_k(p), e - 1))
                else:
                    q = s.params[0] if s.params[1] == j else s.params[1]
                    moved.append((diag(p, q), e))
            elif s.kind == POINT and s.params[0] == j:
                moved.append((point_k(p), e))
            else:
                kept.append((s, e))
        return Fraction(sign), Monomial.from_pairs(kept + moved)
    for s, e in m.pairs:
        if s.kind == POINT and s.params[0] == j:
            rest = [q for q in m.pairs if q[0] is not s]
            if e == 1:
                return Fraction(ctx.kappa_zero), Monomial.from_pairs(rest)
            if e - 1 > ctx.g - 2:
                return Fraction(0), None
            return Fraction(1), Monomial.from_pairs(rest + [(kappa(e - 1), 1)])
    return Fraction(0), None


def oracle_contract(ctx, table, m, markings=None, order=None):
    """Socle-normalized value of an exceptional-free top-degree monomial
    over ``markings`` (all by default), by integrating one marking at a
    time in ``order`` (default: descending).  If diagonals touch the
    marking ``j``, its smallest partner ``p`` is the anchor: every other
    ``d(q,j)`` becomes ``d(p,q)``, ``K[j]^a`` becomes ``K[p]^a`` and
    ``d(p,j)^e`` integrates to ``(-1)^(e-1) * K[p]^(e-1)``; otherwise
    ``K[j]^a`` integrates to the kappa class of degree ``a - 1``.  It
    shares no code with :func:`~tautring.evaluate.evaluate_free`'s
    component formula, so tests hold the formula to it."""
    marks = sorted(markings if markings is not None else ctx.markings, reverse=True)
    seq = marks if order is None else list(order)
    if sorted(seq) != sorted(marks):
        raise ValueError("order must list each marking exactly once")
    scal = Fraction(1)
    for j in seq:
        c, m = _contract_marking(ctx, m, j)
        scal *= c
        if not scal:
            return Fraction(0)
    parts = []
    for s, e in m.pairs:
        assert s.kind == KAPPA, f"leftover non-kappa factor in {m!r}"
        parts += [s.params[0]] * e
    return scal * table.value(parts) / socle_raw_value(ctx, len(marks))


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


def sparse(rows):
    """Dense ``rows`` as sparse rows: ``{column: value}`` of the nonzero
    values, in increasing column order."""
    return tuple({j: x for j, x in enumerate(row) if x} for row in rows)


def dense(m, width=None):
    """Sparse rows as dense ones, zeros included: the entries of the pairing
    matrix ``m``, or the rows ``m`` of ``width`` columns.  Fails on a stored
    zero or a column outside the width."""
    rows, width = (m.entries, len(m.cols)) if width is None else (tuple(m), width)
    out = tuple(tuple(row.get(j, Fraction(0)) for j in range(width)) for row in rows)
    assert sparse(out) == rows, "a stored zero or a column outside the matrix"
    return out


def with_entries(m, changes):
    """Copy of ``m`` with the entries at the given positions replaced."""
    rows = [list(r) for r in dense(m)]
    for (i, j), v in changes.items():
        rows[i][j] = v
    return dataclasses.replace(m, entries=sparse(rows))


@pytest.fixture
def ctx22():
    return RingContext(2, 2)


@pytest.fixture
def ctx23():
    return RingContext(2, 3)


@pytest.fixture
def ctx33():
    return RingContext(3, 3)
