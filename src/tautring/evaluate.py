"""Exact evaluation of top-degree classes against the socle.

A monomial without exceptional factors, of degree ``g - 2 + s`` on a set of
``s`` markings, is valued in closed form.  Let ``G`` be the graph on the
markings with one edge per ``d(i,j)`` factor.  For each connected component
``C`` of ``G`` (isolated markings included) let ``V_C`` be its number of
markings, ``t_C`` the sum of its ``K_i`` exponents and of the exponents of
the diagonals inside it, and ``j_C = t_C - V_C``.  The ``j_C`` sum to ``g - 2``
minus the degree of the monomial's kappa factors.  The value is 0 if some
``j_C`` is negative, and otherwise none is above ``g - 2`` and it is::

    (-1)^(E - s + #components) * (2g - 2)^#{C : j_C = 0}
        * table(the j_C >= 1 and the monomial's own kappa indices)

divided by the value of the socle monomial (:func:`socle_raw_value`), so
that the socle evaluates to one.  ``E`` is the sum of all diagonal
exponents, and ``table`` is a :class:`KappaTable`.

Why: integrate along the forgetful map of one marking ``j`` at a time.  If
diagonals touch ``j``, merge it into a partner ``p``: the power of ``K[j]``
becomes a power of ``K[p]``, every other ``d(q,j)`` becomes ``d(p,q)``, and
the anchor ``d(p,j)^e`` integrates to ``(-1)^(e-1) * K[p]^(e-1)``.  A merge
keeps the components, lowers the exponent total of its component by one
and flips the sign by the anchor multiplicity minus one.  After
``V_C - 1`` merges ``C`` is one marking carrying ``K^(j_C + 1)`` and no
diagonal, so every diagonal exponent has been an anchor once, and the
signs multiply to ``(-1)^(E_C - V_C + 1)``.  That marking integrates to the
kappa class of degree ``j_C``: the scalar ``2g - 2`` at degree 0, zero
above ``g - 2``, and zero when ``K`` has exponent 0.  What is left is a
kappa monomial of degree ``g - 2``, looked up in the table.  The formula
reads the genus, the table and the pairs ``(V_C, t_C)`` only, so the
order of integration does not matter, and neither does an injective
relabelling of the markings.

Monomials that do carry exceptional factors are valued through their
rewrite graph (see :mod:`tautring.rewrite`): a rewritten monomial is worth
the values of the terms its step produces, and at top degree the standard
monomials reached are exceptional-free, which the formula values.
:class:`Evaluator` does this for the monomial it is given; the pairing fill
asks it for one product per orbit of the symmetric group on the markings.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

from .core import (
    EXC,
    KAPPA,
    Monomial,
    POINT,
    Polynomial,
    RingContext,
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
                    # "=1" is the empty partition (g = 2); no part may be empty
                    part = tuple(int(p) for p in left.split(",")) if left.strip() else ()
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


def evaluate_free(
    ctx: RingContext,
    table: KappaTable,
    m: Monomial,
    markings: Optional[Iterable[int]] = None,
) -> Fraction:
    """Socle-normalized value of an exceptional-free top-degree monomial,
    by the component formula of the module docstring.

    ``markings`` is the marking set to integrate over (all of them by
    default); the monomial must only involve those markings and have degree
    ``g - 2 + #markings``.
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
    parent = {i: i for i in marks}

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    # t[i]: the K_i exponent plus the exponents of the diagonals whose
    # smaller index is i, so t summed over a component is its t_C
    t = dict.fromkeys(marks, 0)
    parts = []
    diagonals = 0
    for s, e in m.pairs:
        if s.kind == KAPPA:
            parts += [s.params[0]] * e
        elif s.kind == POINT:
            t[s.params[0]] += e
        else:
            i, j = s.params
            parent[root(j)] = root(i)
            t[i] += e
            diagonals += e
    jc: dict[int, int] = {}
    for i in marks:
        r = root(i)
        jc[r] = jc.get(r, 0) + t[i] - 1
    scal = Fraction((-1) ** ((diagonals - len(marks) + len(jc)) % 2))
    for j in jc.values():
        if j < 0:
            return Fraction(0)
        if j:
            parts.append(j)
        else:
            scal *= ctx.kappa_zero
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
