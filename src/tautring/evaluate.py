"""Exact evaluation of top-degree classes against the socle.

Monomials without exceptional factors are evaluated by contracting one
marking at a time (integrating along the forgetful map of that marking):

* if diagonals touch the marking ``j``, the partner ``p`` with the smallest
  index becomes the anchor; every other diagonal ``d(q,j)`` turns into
  ``d(p,q)``, a power ``K[j]^a`` turns into ``K[p]^a``, and the anchor
  ``d(p,j)^e`` integrates to ``(-1)^(e-1) * K[p]^(e-1)``;
* otherwise a power ``K[j]^a`` integrates to the kappa class of degree
  ``a - 1`` (the degree-0 kappa class is the scalar ``2g - 2``, and indices
  above ``g - 2`` vanish);
* a marking nothing touches integrates to zero.

After all markings are contracted a kappa monomial of degree ``g - 2``
remains and is looked up in a :class:`KappaTable`.  The result is divided
by the value of the socle monomial so that the socle evaluates to one.

Monomials that do carry exceptional factors are valued through their
rewrite graph (see :mod:`tautring.rewrite`): a rewritten monomial is worth
the values of the terms its step produces, and at top degree the standard
monomials reached are exceptional-free, which the contraction handles.
:class:`Evaluator` does this for the monomial it is given; the pairing fill
asks it for one product per orbit of the symmetric group on the markings.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

from .core import (
    DIAG,
    EXC,
    KAPPA,
    Monomial,
    POINT,
    Polynomial,
    RingContext,
    UNIT,
    diag,
    kappa,
    point_k,
)
from .forest import _partitions_bounded
from .rewrite import NonTermination, Normalizer


class EvaluationError(ValueError):
    pass


class DegreeError(EvaluationError):
    pass


class KappaTableError(ValueError):
    pass


class KappaTable:
    """Evaluation of degree ``g - 2`` kappa monomials.

    Maps each partition of ``g - 2`` (a nonincreasing tuple of kappa
    indices) to a rational, normalized so the one-part partition maps to 1.
    Genus 2 and 3 have a single partition each, so their tables are built
    in; higher genus needs externally supplied values.  Two tables are
    equal when their genus and values are, and a table is never changed
    once built, so it can key a memo of what it values.
    """

    def __init__(self, g: int, values: Mapping[tuple[int, ...], Union[int, Fraction]]):
        if g < 2:
            raise KappaTableError("genus must be at least 2")
        self.g = g
        clean: dict[tuple[int, ...], Fraction] = {}
        for part, val in values.items():
            part = tuple(sorted(part, reverse=True))
            if any(not isinstance(p, int) or p < 1 for p in part):
                raise KappaTableError(f"bad partition {part}")
            if sum(part) != g - 2:
                raise KappaTableError(f"partition {part} does not sum to g-2={g - 2}")
            if part in clean:
                raise KappaTableError(f"duplicate partition {part}")
            clean[part] = Fraction(val)
        expected = set(_partitions_bounded(g - 2, max(g - 2, 1)))
        missing = expected - set(clean)
        if missing:
            raise KappaTableError(f"missing partitions: {sorted(missing)}")
        extra = set(clean) - expected
        if extra:
            raise KappaTableError(f"unexpected partitions: {sorted(extra)}")
        top = (g - 2,) if g > 2 else ()
        if clean[top] != 1:
            raise KappaTableError("the one-part partition must evaluate to 1")
        self._values = clean
        self._hash = hash((g, self.items()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, KappaTable):
            return NotImplemented
        return self.g == other.g and self._values == other._values

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def builtin(g: int) -> "KappaTable":
        if g == 2:
            return KappaTable(2, {(): Fraction(1)})
        if g == 3:
            return KappaTable(3, {(1,): Fraction(1)})
        raise KappaTableError(
            f"no built-in table for genus {g}; supply one (see KappaTable.load)"
        )

    @staticmethod
    def load(g: int, path) -> "KappaTable":
        """Read a table from a text file of ``part,part,...=rational`` lines.

        Example for genus 4::

            2=1
            1,1=32/3

        Blank lines and ``#`` comments are ignored.
        """
        values: dict[tuple[int, ...], Fraction] = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise KappaTableError(f"{path}:{lineno}: expected 'parts=value'")
                left, right = line.split("=", 1)
                try:
                    part = tuple(int(p) for p in left.split(",") if p.strip())
                    val = Fraction(right.strip())
                except (ValueError, ZeroDivisionError) as err:
                    raise KappaTableError(f"{path}:{lineno}: {err}") from err
                if part in values:
                    raise KappaTableError(f"{path}:{lineno}: duplicate partition {part}")
                values[part] = val
        return KappaTable(g, values)

    def value(self, partition: Iterable[int]) -> Fraction:
        key = tuple(sorted(partition, reverse=True))
        try:
            return self._values[key]
        except KeyError:
            raise KappaTableError(f"partition {key} is not a partition of g-2={self.g - 2}")

    def items(self) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
        return tuple(sorted(self._values.items()))


def socle_monomial(ctx: RingContext) -> tuple[Fraction, Monomial]:
    """The socle generator as ``(scalar, monomial)``.

    The class is the top kappa class times every marking's ``K``; in genus 2
    the kappa factor is the degree-0 scalar ``2g - 2``.
    """
    pairs = [(point_k(i), 1) for i in ctx.markings]
    if ctx.g == 2:
        return Fraction(ctx.kappa_zero), Monomial.from_pairs(pairs)
    pairs.append((kappa(ctx.g - 2), 1))
    return Fraction(1), Monomial.from_pairs(pairs)


def socle_raw_value(ctx: RingContext, num_markings: int) -> Fraction:
    """Raw contraction value of the socle monomial on the given marking count."""
    e = num_markings + (1 if ctx.g == 2 else 0)
    return Fraction(ctx.kappa_zero) ** e


def _contract_marking(ctx: RingContext, m: Monomial, j: int) -> tuple[Fraction, Monomial]:
    partners = []
    for s, _ in m.pairs:
        if s.kind == DIAG and j in s.params:
            partners.append(s.params[0] if s.params[1] == j else s.params[1])
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
                    if e > 1:
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
            rest = Monomial(tuple(p for p in m.pairs if p[0] is not s))
            if e - 1 == 0:
                return Fraction(ctx.kappa_zero), rest
            if e - 1 > ctx.g - 2:
                return Fraction(0), UNIT
            return Fraction(1), Monomial.from_pairs(list(rest.pairs) + [(kappa(e - 1), 1)])
    return Fraction(0), UNIT


def evaluate_free(
    ctx: RingContext,
    table: KappaTable,
    m: Monomial,
    markings: Optional[Iterable[int]] = None,
    order: Optional[Sequence[int]] = None,
) -> Fraction:
    """Socle-normalized value of an exceptional-free top-degree monomial.

    ``markings`` is the marking set to integrate over (all of them by
    default); the monomial must only involve those markings and have degree
    ``g - 2 + #markings``.  ``order`` overrides the contraction order
    (default: descending); the result does not depend on it.
    """
    marks = frozenset(markings) if markings is not None else frozenset(ctx.markings)
    if any(s.kind == EXC for s, _ in m.pairs):
        raise EvaluationError(f"{m!r} has exceptional factors; rewrite it first")
    if not m.marking_indices() <= marks:
        raise EvaluationError(
            f"{m!r} involves markings outside {sorted(marks)}"
        )
    expected = ctx.g - 2 + len(marks)
    if m.degree != expected:
        raise DegreeError(f"{m!r} has degree {m.degree}, expected {expected}")
    if order is None:
        seq = sorted(marks, reverse=True)
    else:
        seq = list(order)
        if sorted(seq) != sorted(marks):
            raise ValueError("order must list each marking exactly once")
    scal = Fraction(1)
    cur = m
    for j in seq:
        c, cur = _contract_marking(ctx, cur, j)
        scal *= c
        if not scal:
            return Fraction(0)
    parts = []
    for s, e in cur.pairs:
        if s.kind != KAPPA:
            raise AssertionError(f"leftover non-kappa factor in {cur!r}")
        parts.extend([s.params[0]] * e)
    return scal * table.value(parts) / socle_raw_value(ctx, len(marks))


class Evaluator:
    """Rewrite-then-evaluate pipeline with a memo of values.

    A monomial is valued over its rewrite graph: the walk stops at monomials
    that already have a value, and every monomial it passes through is
    memoized, so products that share part of their graph value it once.

    Relabelling the markings is a ring automorphism that fixes the kappa
    classes and the socle, so a monomial and its relabellings have one
    value.  ``orbit_values`` is the fill table of
    :func:`~tautring.pairing.pairing_matrix`: it maps the packed key
    (:func:`~tautring.core.packed_keys`) of every product the fill has
    valued, and of every relabelling of it, to its value.  It lives as long
    as the evaluator, so a run that fills several degrees with one evaluator
    values each orbit once; a degree's products whose orbit an earlier
    degree valued are lookups, with no product built.
    """

    def __init__(self, ctx: RingContext, table: Optional[KappaTable] = None,
                 normalizer: Optional[Normalizer] = None):
        self.ctx = ctx
        self.table = table if table is not None else KappaTable.builtin(ctx.g)
        if self.table.g != ctx.g:
            raise KappaTableError(
                f"table is for genus {self.table.g}, context has genus {ctx.g}"
            )
        self.normalizer = normalizer if normalizer is not None else Normalizer(ctx)
        self._memo: dict[Monomial, Fraction] = {}
        self.orbit_values: dict[int, Fraction] = {}

    def evaluate_monomial(self, m: Monomial) -> Fraction:
        """Value of a top-degree monomial (exceptional factors allowed),
        summed over its rewrite graph."""
        values = self._memo
        got = values.get(m)
        if got is not None:
            return got
        ctx = self.ctx
        if m.degree != ctx.top_degree:
            raise DegreeError(
                f"{m!r} has degree {m.degree}, expected top degree {ctx.top_degree}"
            )
        graph = self.normalizer._memo
        try:
            order, _ = self.normalizer.rewrite_order((m,), done=values)
            for t in order:
                terms = graph[t]
                if terms is not None:
                    values[t] = sum((c * values[u] for u, c in terms), Fraction(0))
                elif any(s.kind == EXC for s, _ in t.pairs):
                    raise EvaluationError(f"normal form kept exceptional factors in {t!r}")
                else:
                    values[t] = evaluate_free(ctx, self.table, t)
        except (EvaluationError, NonTermination) as err:
            raise type(err)(f"{err} (evaluating {m!r})") from err
        return values[m]

    def evaluate(self, poly: Polynomial) -> Fraction:
        return sum((c * self.evaluate_monomial(m) for m, c in poly.items()), Fraction(0))
