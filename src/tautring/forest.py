"""Nesting forests of exceptional divisors and the standard-monomial basis.

The exceptional factors of a monomial form a forest: vertices are the
distinct marking sets (with their exponents), and a vertex's parent is the
smallest other vertex strictly containing it.  Two sets that overlap without
nesting multiply to zero, so no forest exists for them.  Roots are the
inclusion-maximal sets.

A monomial ``v = a(v) * D(v)`` is *standard* when

* its exceptional sets nest or are disjoint,
* each vertex exponent ``e`` satisfies ``1 <= e <= bound(I)`` where
  ``bound(I) = |I| - |union of child sets| + (number of children) - 2``
  (for a leaf this is ``|I| - 2``),
* the remaining factors ``a(v)`` only use markings from the marking set
  ``S(v)`` and have degree at most ``g - 2 + |S|``, and
* ``a(v)`` is in canonical cluster form (see :func:`cluster_monomials`).

The marking set is ``S = {min(J) for each root J} ∪ (all markings not covered
by any vertex)``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from .core import (
    DIAG,
    KAPPA,
    Monomial,
    POINT,
    RingContext,
    diag,
    exc,
    kappa,
    point_k,
)


def nested_or_disjoint(a: frozenset, b: frozenset) -> bool:
    return a <= b or b <= a or not (a & b)


@dataclass(frozen=True)
class ExceptionalForest:
    """Forest of exceptional-divisor sets with exponents.

    ``vertices[i]`` is ``(sorted marking tuple, exponent)``; ``edges`` are
    ``(parent index, child index)`` pairs; ``roots`` are the indices of the
    inclusion-maximal sets.
    """

    vertices: tuple[tuple[tuple[int, ...], int], ...]
    edges: tuple[tuple[int, int], ...]
    roots: tuple[int, ...]

    @functools.cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        kids: list[list[int]] = [[] for _ in self.vertices]
        for p, c in self.edges:
            kids[p].append(c)
        return tuple(tuple(sorted(k)) for k in kids)

    @functools.cached_property
    def depth(self) -> tuple[int, ...]:
        out = [0] * len(self.vertices)

        def walk(i: int, d: int) -> None:
            out[i] = d
            for c in self.children[i]:
                walk(c, d + 1)

        for r in self.roots:
            walk(r, 0)
        return tuple(out)

    def vertex_set(self, i: int) -> tuple[int, ...]:
        return self.vertices[i][0]

    def exponent(self, i: int) -> int:
        return self.vertices[i][1]

    def degree(self, i: int) -> int:
        """Number of outgoing edges (children) of vertex ``i``."""
        return len(self.children[i])

    def covered(self, i: int) -> int:
        """Size of the union of the child sets of vertex ``i``."""
        seen: set[int] = set()
        for c in self.children[i]:
            seen.update(self.vertex_set(c))
        return len(seen)

    def bound_total(self, i: int) -> int:
        """Total exponent budget ``B(I) = |I| - |∪ children| + deg(I) - 1``.

        Standard exponents lie in ``[1, B - 1]``; an exponent ``e`` pairs with
        the dual exponent ``B - e``.
        """
        return len(self.vertex_set(i)) - self.covered(i) + self.degree(i) - 1

    def exponent_bound(self, i: int) -> int:
        return min(len(self.vertex_set(i)) - 2, self.bound_total(i) - 1)

    @functools.cached_property
    def union_all(self) -> frozenset[int]:
        out: set[int] = set()
        for s, _ in self.vertices:
            out.update(s)
        return frozenset(out)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def epsilon(self) -> int:
        """Sign exponent ``|∪ vertex sets| + sum of vertex degrees``."""
        return len(self.union_all) + self.edge_count


EMPTY_FOREST = ExceptionalForest((), (), ())


def build_forest(ctx: RingContext, m: Monomial) -> Union[ExceptionalForest, None]:
    """Forest of the exceptional factors of ``m`` (other factors ignored).

    Returns None when two exceptional sets overlap without nesting, since
    ``m`` is then zero.
    """
    items = m.exc_items()
    if not items:
        return EMPTY_FOREST
    sets = [frozenset(s) for s, _ in items]
    for a, b in itertools.combinations(sets, 2):
        if not nested_or_disjoint(a, b):
            return None
    order = sorted(range(len(items)), key=lambda i: (len(items[i][0]), items[i][0]))
    vertices = tuple(items[i] for i in order)
    fsets = [frozenset(v[0]) for v in vertices]
    edges = []
    roots = []
    for i, s in enumerate(fsets):
        supersets = [j for j, t in enumerate(fsets) if i != j and s < t]
        if not supersets:
            roots.append(i)
        else:
            parent = min(supersets, key=lambda j: len(fsets[j]))
            edges.append((parent, i))
    return ExceptionalForest(vertices, tuple(sorted(edges)), tuple(sorted(roots)))


def marking_set(ctx: RingContext, forest: ExceptionalForest) -> frozenset[int]:
    """Marking set ``S``: the root minima and the markings no vertex covers."""
    mins = {min(forest.vertex_set(r)) for r in forest.roots}
    return frozenset(mins) | (frozenset(ctx.markings) - forest.union_all)


def less_sets(a: Iterable[int], b: Iterable[int]) -> bool:
    """Set preorder: ``a < b`` when ``|b| < |a|`` or equal sizes but ``a != b``.

    Distinct sets of equal size compare less in *both* directions; this is a
    preorder, not a partial order, and is used as such.
    """
    sa, sb = frozenset(a), frozenset(b)
    return len(sb) < len(sa) or (len(sa) == len(sb) and sa != sb)


def ll_monomials(w: Monomial, v: Monomial) -> bool:
    """Whether every exceptional factor of ``w`` is below every one of ``v``.

    By convention the relation holds whenever ``w`` has no exceptional
    factors, and fails when only ``v`` is exceptional-free.
    """
    ws = [s for s, _ in w.exc_items()]
    if not ws:
        return True
    vs = [s for s, _ in v.exc_items()]
    if not vs:
        return False
    return all(less_sets(a, b) for a in ws for b in vs)


def dpart_sort_key(m: Monomial) -> tuple:
    """Deterministic layout key for exceptional parts.

    Factors are expanded with multiplicity and listed biggest-set-first, which
    refines the set preorder (bigger sets are smaller); the exceptional-free
    part sorts first.
    """
    bits = []
    for s, e in m.exc_items():
        bits.extend([(-len(s), s)] * e)
    return tuple(sorted(bits))


@dataclass(frozen=True)
class StandardMonomial:
    """A standard monomial with its forest, marking set and filtration level."""

    monomial: Monomial
    forest: ExceptionalForest
    S: frozenset[int]
    p: int

    @property
    def degree(self) -> int:
        return self.monomial.degree

    @functools.cached_property
    def dpart(self) -> Monomial:
        return self.monomial.d_part()


def filtration_level(apart_degree: int, forest: ExceptionalForest) -> int:
    """Filtration level ``p = deg a(v) + sum of root set sizes - #roots``."""
    return apart_degree + sum(len(forest.vertex_set(r)) for r in forest.roots) - len(forest.roots)


def apart_in_cluster_form(m: Monomial) -> bool:
    """Whether a monomial without exceptional factors is in cluster form.

    Cluster form is a local rule: every ``d(i,j)`` (``i < j``) has exponent
    1, and its larger index ``j`` lies in no other diagonal and carries no
    ``K``.  The diagonals are then stars ``d(min B, x)`` over blocks ``B`` of
    markings, with ``K`` only on block minima.  The rule is the negation of
    the triggers of the rewriter's CS, CD and CK steps, so it holds exactly
    where they stop.
    """
    diags = [(s.params, e) for s, e in m.pairs if s.kind == DIAG]
    ends = [x for pair, _ in diags for x in pair]
    points = {s.params[0] for s, _ in m.pairs if s.kind == POINT}
    return all(e == 1 and ends.count(j) == 1 and j not in points
               for (_, j), e in diags)


def standard_info(ctx: RingContext, m: Monomial) -> Union[StandardMonomial, None]:
    """StandardMonomial view of ``m``, or None when ``m`` is not standard."""
    forest = build_forest(ctx, m)
    if forest is None:
        return None
    for i in range(len(forest.vertices)):
        if forest.exponent(i) > forest.exponent_bound(i):
            return None
    S = marking_set(ctx, forest)
    apart = m.a_part()
    if not apart.marking_indices() <= S:
        return None
    if apart.degree > ctx.g - 2 + len(S):
        return None
    for s, _ in apart.pairs:
        if s.kind == KAPPA and s.params[0] > ctx.g - 2:
            return None
    if not apart_in_cluster_form(apart):
        return None
    return StandardMonomial(m, forest, S, filtration_level(apart.degree, forest))


# ---------------------------------------------------------------------------
# enumeration


@functools.lru_cache(maxsize=None)
def laminar_families(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All families of >=3-element marking subsets that pairwise nest or are
    disjoint, each family sorted by (size, lex).  Includes the empty family."""
    cands = [frozenset(c) for size in range(3, n + 1)
             for c in itertools.combinations(range(1, n + 1), size)]
    out: list[tuple[tuple[int, ...], ...]] = []
    chosen: list[frozenset] = []

    def rec(start: int) -> None:
        out.append(tuple(tuple(sorted(s)) for s in chosen))
        for i in range(start, len(cands)):
            s = cands[i]
            if all(nested_or_disjoint(s, t) for t in chosen):
                chosen.append(s)
                rec(i + 1)
                chosen.pop()

    rec(0)
    return tuple(out)


@functools.lru_cache(maxsize=None)
def admissible_dparts(ctx: RingContext) -> tuple[ExceptionalForest, ...]:
    """All forests with exponents inside the standard bounds, deterministically
    ordered by their exceptional-part layout key; built once per ring."""
    out: list[ExceptionalForest] = []
    for family in laminar_families(ctx.n):
        base = build_forest(ctx, Monomial.from_pairs((exc(s), 1) for s in family))
        bounds = [base.exponent_bound(i) for i in range(len(family))]
        if any(b < 1 for b in bounds):
            continue
        sets = [base.vertex_set(i) for i in range(len(family))]
        for exps in itertools.product(*(range(1, b + 1) for b in bounds)):
            out.append(ExceptionalForest(tuple(zip(sets, exps)), base.edges, base.roots))
    out.sort(key=lambda f: dpart_sort_key(dpart_monomial(f)))
    return tuple(out)


def dpart_monomial(forest: ExceptionalForest) -> Monomial:
    return Monomial.from_pairs((exc(s), e) for s, e in forest.vertices)


def dual_forest(forest: ExceptionalForest) -> ExceptionalForest:
    """Involution sending each vertex exponent ``e`` to ``B(I) - e``.

    Standard exponent ranges are preserved: ``1 <= e <= B - 1`` maps onto
    itself.  Raises for exponents at or above the budget ``B``.
    """
    new_vertices = []
    for i, (s, e) in enumerate(forest.vertices):
        dual_e = forest.bound_total(i) - e
        if dual_e < 1:
            raise ValueError(
                f"vertex {s} with exponent {e} is at or over its budget; no dual"
            )
        new_vertices.append((s, dual_e))
    return ExceptionalForest(tuple(new_vertices), forest.edges, forest.roots)


def _partitions_bounded(total: int, max_part: int) -> Iterator[tuple[int, ...]]:
    """Partitions of ``total`` with parts in [1, max_part], nonincreasing."""
    if total == 0:
        yield ()
        return
    if max_part < 1:
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in _partitions_bounded(total - first, first):
            yield (first,) + rest


def _set_partitions(elems: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All set partitions; blocks are sorted tuples, blocks sorted by minimum."""
    if not elems:
        yield ()
        return
    first, rest = elems[0], elems[1:]
    for part in _set_partitions(rest):
        yield ((first,),) + part
        for i, block in enumerate(part):
            yield tuple(
                tuple(sorted(block + (first,))) if i == j else part[j]
                for j in range(len(part))
            )


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


@functools.lru_cache(maxsize=None)
def _cluster_monomials_cached(g: int, S: tuple[int, ...], degree: int) -> tuple[Monomial, ...]:
    out: list[Monomial] = []
    kappa_parts = []
    for m0 in range(degree + 1):
        for mu in _partitions_bounded(m0, g - 2):
            kappa_parts.append(mu)
    for mu in kappa_parts:
        kdeg = sum(mu)
        for blocks in _set_partitions(S):
            m1 = sum(len(b) - 1 for b in blocks if len(b) >= 2)
            rem = degree - kdeg - m1
            if rem < 0:
                continue
            positions = sorted(
                [b[0] for b in blocks if len(b) >= 2]
                + [b[0] for b in blocks if len(b) == 1]
            )
            diag_pairs = []
            for b in blocks:
                if len(b) >= 2:
                    mu_b = b[0]
                    diag_pairs.extend((diag(mu_b, x), 1) for x in b[1:])
            for comp in _compositions(rem, len(positions)):
                pairs = list(diag_pairs)
                pairs.extend((kappa(i), 1) for i in mu)
                pairs.extend(
                    (point_k(pos), e) for pos, e in zip(positions, comp) if e
                )
                out.append(Monomial.from_pairs(pairs))
    uniq = sorted(set(out), key=lambda m: m.sort_key)
    return tuple(uniq)


def cluster_monomials(ctx: RingContext, S: Iterable[int], degree: int) -> tuple[Monomial, ...]:
    """Canonical cluster-form monomials of the given degree on markings ``S``.

    A cluster monomial is a kappa multipartition (parts in ``[1, g-2]``) times
    a partition of part of ``S`` into blocks of size >= 2 — each block ``B``
    contributing the star ``prod_{b in B, b != min B} d(min B, b)`` — times
    ``K`` powers on block minima and unblocked markings.
    """
    if degree < 0:
        return ()
    return _cluster_monomials_cached(ctx.g, tuple(sorted(S)), degree)


def forest_basis(ctx: RingContext, forest: ExceptionalForest, k: int) -> list[StandardMonomial]:
    """Standard monomials of degree ``k`` whose exceptional part is ``forest``,
    in the canonical monomial order."""
    S = marking_set(ctx, forest)
    adeg = k - sum(e for _, e in forest.vertices)
    if not 0 <= adeg <= ctx.g - 2 + len(S):
        return []
    dmon = dpart_monomial(forest)
    p = filtration_level(adeg, forest)
    return [StandardMonomial(apart * dmon, forest, S, p)
            for apart in cluster_monomials(ctx, S, adeg)]


def enumerate_basis(ctx: RingContext, k: int) -> list[StandardMonomial]:
    """All standard monomials of degree ``k``, ordered block-contiguously.

    Rows are grouped by exceptional part (exceptional-free first, then by the
    layout key) and within a group by the canonical monomial order.
    """
    if k < 0 or k > ctx.top_degree:
        return []
    return [sm for forest in admissible_dparts(ctx) for sm in forest_basis(ctx, forest, k)]
