"""Relation instances and normalization to standard form.

Every rewrite step is justified by an explicit relation instance, so a run
can be replayed and audited: if a step turns ``c*m`` into ``c*out`` using
instance ``R`` with leading monomial ``L`` (coefficient ``c_L`` inside
``R``) and quotient ``Q = m / L``, then ``c*m - c*out = (c/c_L) * Q * R``.
Summing over the recorded steps telescopes to ``input - output``, which is
what :meth:`Certificate.verify` checks.

Instance families
-----------------

``R1a``
    ``(d(i,j) + K[j]) * D(I)`` for an ordered pair ``i, j`` in ``I``.
``R1b``
    ``(d(i,k) - d(j,k)) * D(I)`` for ``i, j`` in ``I`` and ``k`` outside.
``R2``
    ``prod_{j in I, j != i} (d(i,j) - E(I))`` where ``E(I)`` sums ``D(J)``
    over all supersets ``J`` of ``I``.
``R3``
    the block family built from a strictly increasing index sequence; see
    :func:`instance_R3`.  Vertex reductions are its main consumer.
``V0``
    ``D(I) * D(J)`` for two sets that overlap without nesting.
``V1``
    a single monomial that vanishes for dimension reasons: either it has a
    kappa index above ``g - 2``, or its non-exceptional part has markings
    inside the marking set ``S`` of its forest but degree above
    ``g - 2 + |S|``.
``CS``
    ``d(i,j)^2 + d(i,j)*K[i]`` with ``i < j`` (diagonal self-intersection).
``CK``
    ``d(i,j)*K[j] - d(i,j)*K[i]`` with ``i < j``.
``CD``
    ``d(i,j)*d(j,k) - d(i,j)*d(i,k)`` for distinct indices (transitivity
    along a diagonal).

The normalizer applies a fixed priority of steps until no step applies;
the result is supported on standard monomials.  Termination is enforced by a
step budget, one unit per distinct monomial rewritten in a call, and by cycle
detection.  The memo is the rewrite graph, shared by plain and certified
normalization and by evaluation: each is one linear pass over it.

Each rewrite step is built once per ring and process.  :func:`relation_step`
keeps one table keyed by the ring, the family and the parameters the
normalizer found (for ``R3``: the vertex set, its child sets, its budget and
the pivot), holding the step and its remainder, so applying a step to ``m``
is one :meth:`~tautring.core.Polynomial.mul_monomial` by ``m / L``.  The
table is sound because an instance is a function of the ring and its
parameters only, and no instance or remainder is ever mutated.  It changes
what a step costs, not which steps are taken, in what order, or the budget.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Container, Iterable, Optional, Sequence

from .core import (
    DIAG,
    KAPPA,
    Monomial,
    POINT,
    Polynomial,
    RingContext,
    diag,
    exc,
    point_k,
    relabel,
)
from .forest import build_forest, marking_set, nested_or_disjoint


class NonTermination(RuntimeError):
    """Normalization exceeded its step budget or found a rewrite cycle."""


class ReductionStuck(NonTermination):
    """An over-bound vertex is fully covered by its children, so no block
    relation with that vertex as its head exists.  Needs n >= 6 to occur."""


@dataclass(frozen=True)
class RelationInstance:
    family: str
    params: tuple
    poly: Polynomial

    def describe(self) -> dict:
        return {
            "family": self.family,
            "params": _jsonable(self.params),
            "relation": repr(self.poly),
        }


def _jsonable(obj):
    if isinstance(obj, Monomial):
        return repr(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (tuple, list)):
        return [_jsonable(x) for x in obj]
    return obj


def _mono(*symbols) -> Monomial:
    return Monomial.from_symbols(*symbols)


def _poly(m: Monomial, c=1) -> Polynomial:
    return Polynomial.monomial(m, Fraction(c))


def superset_sum(ctx: RingContext, members: Iterable[int]) -> Polynomial:
    """Sum of ``D(J)`` over all supersets ``J`` of ``members`` (``|J| >= 3``)."""
    base = frozenset(members)
    rest = sorted(set(ctx.markings) - base)
    out = Polynomial.zero()
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            J = tuple(sorted(base | set(extra)))
            if len(J) >= 3:
                out = out + _poly(_mono(exc(J)))
    return out


def derived_pair_class(ctx: RingContext, i: int, j: int) -> Polynomial:
    """The boundary class of a two-element set, expressed in generators:
    ``d(i,j) - sum of D(J) over J strictly containing {i, j}``."""
    if i == j:
        raise ValueError("need two distinct markings")
    return _poly(_mono(diag(i, j))) - superset_sum(ctx, (i, j))


def instance_R1a(ctx: RingContext, members: Sequence[int], i: int, j: int) -> RelationInstance:
    I = tuple(sorted(members))
    if i not in I or j not in I or i == j:
        raise ValueError(f"R1a needs distinct i, j inside I, got {i}, {j}, {I}")
    poly = (_poly(_mono(diag(i, j))) + _poly(_mono(point_k(j)))) * _poly(_mono(exc(I)))
    return RelationInstance("R1a", (I, i, j), poly)


def instance_R1b(ctx: RingContext, members: Sequence[int], i: int, j: int, k: int) -> RelationInstance:
    I = tuple(sorted(members))
    if i not in I or j not in I or i == j or k in I:
        raise ValueError(f"R1b needs i != j inside I and k outside, got {i}, {j}, {k}, {I}")
    poly = (_poly(_mono(diag(i, k))) - _poly(_mono(diag(j, k)))) * _poly(_mono(exc(I)))
    return RelationInstance("R1b", (I, i, j, k), poly)


def instance_R2(ctx: RingContext, members: Sequence[int], pivot: Optional[int] = None) -> RelationInstance:
    I = tuple(sorted(members))
    if len(I) < 3:
        raise ValueError("R2 needs a set of at least three markings")
    if pivot is None:
        pivot = I[0]
    if pivot not in I:
        raise ValueError(f"pivot {pivot} not in {I}")
    E = superset_sum(ctx, I)
    out = Polynomial.one()
    for j in I:
        if j != pivot:
            out = out * (_poly(_mono(diag(pivot, j))) - E)
    return RelationInstance("R2", (I, pivot), out)


def instance_R3(ctx: RingContext, rseq: Sequence[int],
                sigma: Optional[Sequence[int]] = None) -> RelationInstance:
    """Block relation for a strictly increasing sequence ``r_1 < ... < r_{k+1}``.

    Under identity labels the head set is ``I_0 = {1..r_{k+1}}`` (at least
    three elements) and the blocks are the runs ``I_j = {r_j + 1 .. r_{j+1}}``.
    The relation is ``P(-E(I_0)) * prod_j [I_j]`` where

    * ``P(t) = prod_{i=2}^{r_1} (t + d(1,i)) * prod_{j=1}^{k} (t + d(1, r_j+1))``,
    * ``[I_j]`` is ``D(I_j)`` when the block has three or more elements and
      the :func:`derived_pair_class` when it has exactly two,

    and the whole polynomial is finally relabeled by ``sigma`` (a sequence
    with ``sigma[t-1]`` the image of ``t``; identity when omitted).  Blocks
    of size one are rejected.  The coefficient of
    ``D(I_0)^B * prod_j D(I_j)`` is ``(-1)^B`` with ``B = r_1 - 1 + k``.
    """
    rseq = tuple(rseq)
    if not rseq or any(b <= a for a, b in zip(rseq, rseq[1:])):
        raise ValueError(f"need a strictly increasing sequence, got {rseq}")
    if rseq[0] < 1 or rseq[-1] > ctx.n:
        raise ValueError(f"sequence {rseq} leaves the marking range of n={ctx.n}")
    if rseq[-1] < 3:
        raise ValueError("head set needs at least three markings")
    blocks = [tuple(range(a + 1, b + 1)) for a, b in zip(rseq, rseq[1:])]
    if any(len(b) == 1 for b in blocks):
        raise ValueError("blocks of size one are not allowed")
    E = superset_sum(ctx, range(1, rseq[-1] + 1))
    out = Polynomial.one()
    for i in range(2, rseq[0] + 1):
        out = out * (_poly(_mono(diag(1, i))) - E)
    for r in rseq[:-1]:
        out = out * (_poly(_mono(diag(1, r + 1))) - E)
    for b in blocks:
        if len(b) == 2:
            out = out * derived_pair_class(ctx, *b)
        else:
            out = out * _poly(_mono(exc(b)))
    if sigma is None:
        sigma = tuple(ctx.markings)
    else:
        sigma = tuple(sigma)
        out = relabel(ctx, out, sigma)
    return RelationInstance("R3", (rseq, sigma), out)


def instance_V0(ctx: RingContext, members_a: Sequence[int], members_b: Sequence[int]) -> RelationInstance:
    I = tuple(sorted(members_a))
    J = tuple(sorted(members_b))
    if nested_or_disjoint(frozenset(I), frozenset(J)):
        raise ValueError(f"{I} and {J} nest or are disjoint; their product is not zero on shape grounds")
    return RelationInstance("V0", (I, J), _poly(_mono(exc(I), exc(J))))


def instance_V1(ctx: RingContext, reason: str, m: Monomial) -> RelationInstance:
    if reason not in ("kappa", "degree"):
        raise ValueError(f"unknown V1 reason {reason!r}")
    return RelationInstance("V1", (reason, m), _poly(m))


def instance_CS(ctx: RingContext, i: int, j: int) -> RelationInstance:
    if not i < j:
        raise ValueError("need i < j")
    d = _mono(diag(i, j))
    poly = _poly(d * d) + _poly(d * _mono(point_k(i)))
    return RelationInstance("CS", (i, j), poly)


def instance_CK(ctx: RingContext, i: int, j: int) -> RelationInstance:
    if not i < j:
        raise ValueError("need i < j")
    d = _mono(diag(i, j))
    poly = _poly(d * _mono(point_k(j))) - _poly(d * _mono(point_k(i)))
    return RelationInstance("CK", (i, j), poly)


def instance_CD(ctx: RingContext, i: int, j: int, k: int) -> RelationInstance:
    if len({i, j, k}) != 3:
        raise ValueError("need three distinct markings")
    dij = _mono(diag(i, j))
    poly = _poly(dij * _mono(diag(j, k))) - _poly(dij * _mono(diag(i, k)))
    return RelationInstance("CD", (i, j, k), poly)


# ---------------------------------------------------------------------------
# rewrite steps


class Step(tuple):
    """A rewrite step ``(instance, L, c_L)``: ``L`` is the leading monomial
    of the relation instance and ``c_L`` its coefficient there.

    :attr:`remainder` is what ``L`` rewrites to,
    ``-(instance.poly - c_L * L) / c_L``, built on first use.
    """

    def __new__(cls, instance: RelationInstance, leading: Monomial, coeff: Fraction):
        return super().__new__(cls, (instance, leading, coeff))

    @functools.cached_property
    def remainder(self) -> Polynomial:
        inst, L, c_L = self
        return (inst.poly - _poly(L, c_L)) * (Fraction(-1) / c_L)


def _step_R3(ctx: RingContext, V: tuple[int, ...], child_sets: tuple[tuple[int, ...], ...],
             B: int, pivot: str) -> Step:
    covered = set().union(*map(set, child_sets)) if child_sets else set()
    free = sorted(set(V) - covered)
    if not free:
        raise ReductionStuck(
            f"vertex {V} is covered by its children {list(child_sets)}; "
            "no reduction relation is headed by it"
        )
    anchor = free[0] if pivot == "min" else free[-1]
    images = [anchor] + [x for x in free if x != anchor]
    rseq = [len(free)]
    for c in child_sets:
        images.extend(c)
        rseq.append(rseq[-1] + len(c))
    if rseq[-1] != len(V):
        raise AssertionError("children must partition a subset of the vertex")
    used = set(images)
    images.extend(x for x in ctx.markings if x not in used)
    sigma = [0] * ctx.n
    for t, img in enumerate(images, start=1):
        sigma[t - 1] = img
    inst = instance_R3(ctx, rseq, tuple(sigma))
    L = Monomial.from_pairs([(exc(V), B)] + [(exc(c), 1) for c in child_sets])
    return Step(inst, L, Fraction(-1) ** B)


# family -> (instance builder, leading monomial of the instance), both from
# the same parameters; every leading coefficient is 1.  R1a leads with
# d(i,j) when the normalizer rewrites a diagonal inside the root (i > j) and
# with K[j] when it moves K off a non-minimal marking onto the root minimum
# i (i < j).
_STEPS = {
    "R1a": (instance_R1a, lambda I, i, j: _mono(diag(i, j) if i > j else point_k(j), exc(I))),
    "R1b": (instance_R1b, lambda I, i, j, k: _mono(diag(i, k), exc(I))),
    "V0": (instance_V0, lambda I, J: _mono(exc(I), exc(J))),
    "V1": (instance_V1, lambda reason, m: m),
    "CS": (instance_CS, lambda i, j: _mono(diag(i, j), diag(i, j))),
    "CK": (instance_CK, lambda i, j: _mono(diag(i, j), point_k(j))),
    "CD": (instance_CD, lambda i, j, k: _mono(diag(i, j), diag(j, k))),
}


@functools.lru_cache(maxsize=None)
def relation_step(ctx: RingContext, family: str, params: tuple) -> Step:
    """The rewrite step of ``family`` with the parameters the normalizer
    found, built once per ring and process.

    ``_STEPS`` maps each family but ``R3`` to its ``instance_*`` builder and
    its leading monomial, both read from the same parameters, which are
    those of the builder.  ``R3`` takes the inputs of
    :func:`vertex_reduction`: ``(V, child sets, bound_total, pivot)``.  A
    step is a pure function of the ring and these parameters, and neither
    its instance nor its remainder is ever mutated, so one table serves
    every :class:`Normalizer` of the process.
    """
    if family == "R3":
        return _step_R3(ctx, *params)
    build, lead = _STEPS[family]
    return Step(build(ctx, *params), lead(*params), Fraction(1))


def vertex_reduction(ctx: RingContext, forest, vertex: int, pivot: str = "min") -> Step:
    """Reduction step data for an over-bound forest vertex.

    Returns ``(instance, L, c_L)`` where ``L = D(V)^B * prod children`` is
    the leading monomial of the relation and ``c_L = (-1)^B`` its
    coefficient.  Raises :class:`ReductionStuck` when the vertex is fully
    covered by its children so that no block relation is headed by it.
    """
    child_sets = tuple(sorted(
        (forest.vertex_set(c) for c in forest.children[vertex]), key=lambda s: s[0]
    ))
    params = (forest.vertex_set(vertex), child_sets, forest.bound_total(vertex), pivot)
    return relation_step(ctx, "R3", params)


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class CertificateStep:
    instance: RelationInstance
    quotient: Monomial
    coeff: Fraction

    def contribution(self) -> Polynomial:
        return self.instance.poly.mul_monomial(self.quotient, self.coeff)

    def describe(self) -> dict:
        out = self.instance.describe()
        out["quotient"] = repr(self.quotient)
        out["coeff"] = str(self.coeff)
        return out


@dataclass(frozen=True)
class Certificate:
    steps: tuple[CertificateStep, ...]

    def total(self) -> Polynomial:
        out = Polynomial.zero()
        for s in self.steps:
            out = out + s.contribution()
        return out

    def residual(self, source: Polynomial, result: Polynomial) -> Polynomial:
        return (source - result) - self.total()

    def verify(self, source: Polynomial, result: Polynomial) -> bool:
        return self.residual(source, result).is_zero

    def describe(self) -> dict:
        return {"steps": [s.describe() for s in self.steps]}


def apply_step(m: Monomial, step: Step) -> Polynomial:
    """Rewrite ``m`` by one step: ``m -> m - (1/c_L) * (m/L) * relation``,
    which is ``(m/L) * remainder``."""
    Q = m.try_div(step[1])
    if Q is None:
        raise ValueError(f"leading monomial {step[1]!r} does not divide {m!r}")
    return step.remainder.mul_monomial(Q)


# ---------------------------------------------------------------------------
# the normalizer


class Normalizer:
    """Rewrites polynomials to their standard normal form.

    ``_memo`` is the rewrite graph: each monomial reached maps to the
    ``(monomial, coefficient)`` terms of its step, or to ``None`` when it is
    standard.  It keeps no normal forms and no steps.

    ``pivot`` picks the anchor of vertex reductions ("min" or "max"); both
    must produce equal normal forms, which the test suite exercises.
    ``max_steps`` caps the number of distinct monomials a single call may
    rewrite.
    """

    def __init__(self, ctx: RingContext, pivot: str = "min", max_steps: int = 10 ** 6):
        if pivot not in ("min", "max"):
            raise ValueError(f"pivot must be 'min' or 'max', got {pivot!r}")
        self.ctx = ctx
        self.pivot = pivot
        self.max_steps = max_steps
        self._memo: dict[Monomial, Optional[tuple[tuple[Monomial, Fraction], ...]]] = {}

    # -- step search ------------------------------------------------------

    def find_step(self, m: Monomial) -> Optional[Step]:
        """First applicable rewrite step for ``m`` in priority order."""
        ctx = self.ctx
        for s, _ in m.pairs:
            if s.kind == KAPPA and s.params[0] > ctx.g - 2:
                return relation_step(ctx, "V1", ("kappa", m))
        forest = build_forest(ctx, m)
        if forest is None:
            items = m.exc_items()
            for (a, _), (b, _) in itertools.combinations(items, 2):
                if not nested_or_disjoint(frozenset(a), frozenset(b)):
                    return relation_step(ctx, "V0", (a, b))
            raise AssertionError("zero class without an overlapping pair")

        root_sets = [forest.vertex_set(r) for r in forest.roots]
        root_of = {}
        for rs in root_sets:
            for x in rs:
                root_of[x] = rs

        # diagonal inside a root: replace it by -K on the root minimum
        for s, _ in m.pairs:
            if s.kind != DIAG:
                continue
            u, v = s.params
            ru = root_of.get(u)
            if ru is not None and ru is root_of.get(v):
                return relation_step(ctx, "R1a", (ru, v, u))

        # K on a covered marking that is not its root minimum
        for s, _ in m.pairs:
            if s.kind != POINT:
                continue
            x = s.params[0]
            rx = root_of.get(x)
            if rx is not None and x != rx[0]:
                return relation_step(ctx, "R1a", (rx, rx[0], x))

        # diagonal leg on a covered non-minimal marking, other leg outside
        for s, _ in m.pairs:
            if s.kind != DIAG:
                continue
            u, v = s.params
            for a, b in ((u, v), (v, u)):
                ra = root_of.get(a)
                if ra is not None and b not in ra and a != ra[0]:
                    return relation_step(ctx, "R1b", (ra, a, ra[0], b))

        # dimension kill of the non-exceptional part
        S = marking_set(ctx, forest)
        apart = m.a_part()
        if apart.degree > ctx.g - 2 + len(S) and apart.marking_indices() <= S:
            return relation_step(ctx, "V1", ("degree", m))

        # over-bound vertices, deepest first
        over = [
            i for i in range(len(forest.vertices))
            if forest.exponent(i) > forest.exponent_bound(i)
        ]
        if over:
            over.sort(key=lambda i: (-forest.depth[i], -forest.exponent(i), forest.vertex_set(i)))
            return vertex_reduction(ctx, forest, over[0], self.pivot)

        # cluster form: squares of diagonals
        for s, e in m.pairs:
            if s.kind == DIAG and e >= 2:
                return relation_step(ctx, "CS", s.params)

        # cluster form: re-anchor chained diagonals at the smaller index
        diags = [s for s, _ in m.pairs if s.kind == DIAG]
        for f, h in itertools.permutations(diags, 2):
            shared = set(f.params) & set(h.params)
            if len(shared) != 1:
                continue
            y = shared.pop()
            x = f.params[0] if f.params[1] == y else f.params[1]
            z = h.params[0] if h.params[1] == y else h.params[1]
            if x < y:
                return relation_step(ctx, "CD", (x, y, z))

        # cluster form: K belongs on the anchor of its cluster
        points = [s for s, _ in m.pairs if s.kind == POINT]
        for p in points:
            y = p.params[0]
            for f in diags:
                if y == f.params[1]:
                    return relation_step(ctx, "CK", f.params)
        return None

    # -- normalization -----------------------------------------------------

    def rewrite_order(self, roots: Iterable[Monomial], done: Container[Monomial] = ()
                      ) -> tuple[list[Monomial], dict[Monomial, Step]]:
        """The rewrite graph below ``roots``, children before parents, and
        the steps of the monomials this call rewrote.

        The walk visits terms in :func:`apply_step` order, so the order does
        not depend on what the memo holds.  Each monomial not yet in the memo
        is rewritten once, for one unit of the budget; monomials in ``done``
        are skipped.
        """
        memo = self._memo
        order: list[Monomial] = []
        steps: dict[Monomial, Step] = {}
        seen: set[Monomial] = set()
        gray: set[Monomial] = set()

        def terms_of(m: Monomial):
            if m in memo:
                return memo[m] or ()
            step = self.find_step(m)
            if step is None:
                memo[m] = None
                return ()
            if len(steps) >= self.max_steps:
                raise NonTermination(
                    f"gave up after {self.max_steps} rewrite steps (last monomial: {m!r})"
                )
            steps[m] = step
            terms = memo[m] = tuple(apply_step(m, step).items())
            return terms

        for root in roots:
            if root in seen or root in done:
                continue
            seen.add(root)
            gray.add(root)
            stack = [(root, iter(terms_of(root)))]
            while stack:
                m, children = stack[-1]
                for child, _ in children:
                    if child in gray:
                        raise NonTermination(f"rewrite cycle through {child!r}")
                    if child not in seen and child not in done:
                        seen.add(child)
                        gray.add(child)
                        stack.append((child, iter(terms_of(child))))
                        break
                else:
                    stack.pop()
                    gray.discard(m)
                    order.append(m)
        return order, steps

    def normalize(self, poly: Polynomial, record: bool = False):
        """Normal form of ``poly``; with ``record=True`` also the certificate.

        Pushes the input coefficients through the rewrite graph in reverse
        :meth:`rewrite_order`; what reaches the standard monomials is the
        normal form.  Each monomial rewritten with a nonzero total
        coefficient gives one certificate step scaled by that coefficient.
        """
        memo = self._memo
        order, steps = self.rewrite_order(m for m, _ in poly.items())
        flow = dict(poly.raw())
        cert = []
        for m in reversed(order):
            terms = memo[m]
            if terms is None:
                continue
            c = flow.pop(m, 0)
            if not c:
                continue
            if record:
                inst, L, c_L = steps.get(m) or self.find_step(m)
                cert.append(CertificateStep(inst, m.try_div(L), c / c_L))
            for m2, c2 in terms:
                flow[m2] = flow.get(m2, 0) + c * c2
        normal = Polynomial(flow)
        return (normal, Certificate(tuple(cert))) if record else normal
