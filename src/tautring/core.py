"""Exact-arithmetic algebra of tautological generator monomials.

Generators come in four kinds: kappa classes ``k<i>`` (degree ``i``),
marked-point canonical classes ``K<i>`` (degree 1), diagonal classes
``d(i,j)`` (degree 1), and exceptional boundary divisors ``D(I)`` for marking
subsets with ``|I| >= 3`` (degree 1).  The degree-0 kappa class is a scalar
``2g - 2`` and is always folded into coefficients; it never appears as a
symbol.

Monomials are immutable sorted factor tuples; polynomials map monomials to
nonzero ``Fraction`` coefficients.  Everything is hashable and totally
ordered, so iteration orders (and therefore all printed output) are
deterministic.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

KAPPA = 0
POINT = 1
DIAG = 2
EXC = 3


@dataclass(frozen=True)
class RingContext:
    """Fixed genus and number of markings."""

    g: int
    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.g, int) or self.g < 2:
            raise ValueError("genus must be an integer >= 2")
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError("number of markings must be an integer >= 1")

    @property
    def top_degree(self) -> int:
        return self.g - 2 + self.n

    @property
    def markings(self) -> tuple[int, ...]:
        return tuple(range(1, self.n + 1))

    @property
    def kappa_zero(self) -> int:
        """Value of the scalar degree-0 kappa class."""
        return 2 * self.g - 2


class Symbol:
    """A single generator.  Use the module factories, not the constructor."""

    __slots__ = ("kind", "params", "degree", "key", "_hash")

    def __init__(self, kind: int, params: tuple, degree: int, key: tuple):
        self.kind = kind
        self.params = params
        self.degree = degree
        self.key = key
        self._hash = hash(key)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return isinstance(other, Symbol) and self.key == other.key

    def __lt__(self, other: "Symbol") -> bool:
        return self.key < other.key

    def __repr__(self) -> str:
        return f"Symbol({format_symbol(self)})"


@functools.lru_cache(maxsize=None)
def kappa(i: int) -> Symbol:
    """Kappa class of degree ``i >= 1``.

    Indices above ``g - 2`` denote zero classes; they are constructible,
    normalization removes them, and context-aware code paths never build
    them.
    """
    if not isinstance(i, int) or i < 1:
        raise ValueError("kappa index must be a positive integer")
    return Symbol(KAPPA, (i,), i, (KAPPA, i))


@functools.lru_cache(maxsize=None)
def point_k(i: int) -> Symbol:
    """Canonical class attached to marking ``i``."""
    if not isinstance(i, int) or i < 1:
        raise ValueError("marking index must be a positive integer")
    return Symbol(POINT, (i,), 1, (POINT, i))


@functools.lru_cache(maxsize=None)
def _diag_cached(i: int, j: int) -> Symbol:
    return Symbol(DIAG, (i, j), 1, (DIAG, i, j))


def diag(i: int, j: int) -> Symbol:
    """Diagonal class for the (unordered) pair of markings ``i < j``."""
    if not (isinstance(i, int) and isinstance(j, int)) or i < 1 or j < 1:
        raise ValueError("diagonal indices must be positive integers")
    if i == j:
        raise ValueError("diagonal indices must be distinct")
    if i > j:
        i, j = j, i
    return _diag_cached(i, j)


@functools.lru_cache(maxsize=None)
def _exc_cached(members: tuple[int, ...]) -> Symbol:
    return Symbol(EXC, (members,), 1, (EXC, -len(members), members))


def exc(members: Iterable[int]) -> Symbol:
    """Exceptional divisor for a marking subset with at least 3 elements."""
    tup = tuple(sorted(set(members)))
    if len(tup) < 3:
        raise ValueError("exceptional divisors need at least 3 markings")
    if any(not isinstance(m, int) or m < 1 for m in tup):
        raise ValueError("marking indices must be positive integers")
    return _exc_cached(tup)


def check_symbol(ctx: RingContext, sym: Symbol) -> None:
    """Raise if ``sym`` is not a generator of the ring for ``ctx``."""
    if sym.kind == KAPPA:
        if sym.params[0] > ctx.g - 2:
            raise ValueError(f"kappa index {sym.params[0]} exceeds g-2={ctx.g - 2}")
        return
    idx = sym.params[0] if sym.kind == EXC else sym.params
    for i in idx:
        if i > ctx.n:
            raise ValueError(f"marking index {i} exceeds n={ctx.n}")


def format_symbol(sym: Symbol) -> str:
    if sym.kind == KAPPA:
        return f"k{sym.params[0]}"
    if sym.kind == POINT:
        return f"K{sym.params[0]}"
    if sym.kind == DIAG:
        return f"d({sym.params[0]},{sym.params[1]})"
    return "D(" + ",".join(str(m) for m in sym.params[0]) + ")"


def format_monomial(m: "Monomial") -> str:
    if not m.pairs:
        return "1"
    bits = []
    for s, e in m.pairs:
        bits.append(format_symbol(s) + (f"^{e}" if e > 1 else ""))
    return "*".join(bits)


class Monomial:
    """Product of generator powers, stored sorted by symbol key."""

    __slots__ = ("pairs", "degree", "_hash", "_key")

    def __init__(self, pairs: tuple[tuple[Symbol, int], ...]):
        # callers must pass sorted, merged, positive-exponent pairs
        self.pairs = pairs
        self.degree = sum(s.degree * e for s, e in pairs)
        self._key = (self.degree, tuple((s.key, e) for s, e in pairs))
        self._hash = hash(self._key)

    @staticmethod
    def from_pairs(items: Iterable[tuple[Symbol, int]]) -> "Monomial":
        acc: dict[Symbol, int] = {}
        for sym, e in items:
            if not isinstance(e, int):
                raise ValueError("exponents must be integers")
            if e == 0:
                continue
            if e < 0:
                raise ValueError("exponents must be positive")
            acc[sym] = acc.get(sym, 0) + e
        return Monomial(tuple(sorted(acc.items(), key=lambda p: p[0].key)))

    @staticmethod
    def from_symbols(*symbols: Symbol) -> "Monomial":
        return Monomial.from_pairs((s, 1) for s in symbols)

    @property
    def sort_key(self):
        return self._key

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self._key == other._key

    def __lt__(self, other: "Monomial") -> bool:
        return self._key < other._key

    def __le__(self, other: "Monomial") -> bool:
        return self._key <= other._key

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not isinstance(other, Monomial):
            return NotImplemented
        a, b = self.pairs, other.pairs
        if not b:
            return self
        if not a:
            return other
        # both factor tuples are sorted by symbol key: merge them
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            ka, kb = a[i][0].key, b[j][0].key
            if ka < kb:
                out.append(a[i])
                i += 1
            elif kb < ka:
                out.append(b[j])
                j += 1
            else:
                out.append((a[i][0], a[i][1] + b[j][1]))
                i += 1
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        return Monomial(tuple(out))

    def __pow__(self, e: int) -> "Monomial":
        if e < 0:
            raise ValueError("negative power")
        if e == 0:
            return UNIT
        return Monomial(tuple((s, k * e) for s, k in self.pairs))

    def exponent(self, sym: Symbol) -> int:
        for s, e in self.pairs:
            if s == sym:
                return e
        return 0

    def try_div(self, other: "Monomial") -> Union["Monomial", None]:
        """Return self/other as a monomial, or None if not divisible."""
        rest: dict[Symbol, int] = dict(self.pairs)
        for sym, e in other.pairs:
            have = rest.get(sym, 0)
            if have < e:
                return None
            if have == e:
                del rest[sym]
            else:
                rest[sym] = have - e
        return Monomial(tuple(sorted(rest.items(), key=lambda p: p[0].key)))

    def a_part(self) -> "Monomial":
        """Factors other than exceptional divisors."""
        return Monomial(tuple(p for p in self.pairs if p[0].kind != EXC))

    def d_part(self) -> "Monomial":
        """Exceptional-divisor factors."""
        return Monomial(tuple(p for p in self.pairs if p[0].kind == EXC))

    def exc_items(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """(marking set, exponent) pairs of the exceptional factors."""
        return tuple((s.params[0], e) for s, e in self.pairs if s.kind == EXC)

    def marking_indices(self) -> frozenset[int]:
        """All marking indices used by non-exceptional factors."""
        out: set[int] = set()
        for s, _ in self.pairs:
            if s.kind == POINT:
                out.add(s.params[0])
            elif s.kind == DIAG:
                out.update(s.params)
        return frozenset(out)

    def __repr__(self) -> str:
        return format_monomial(self)


UNIT = Monomial(())

Scalar = Union[int, Fraction]


def _as_fraction(c: Scalar) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficients must be exact rationals, got {type(c)!r}")


class Polynomial:
    """Finite rational linear combination of monomials."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for m, c in terms.items():
                c = _as_fraction(c)
                if c:
                    clean[m] = c
        self._terms = clean

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial({UNIT: Fraction(1)})

    @staticmethod
    def monomial(m: Monomial, coeff: Scalar = 1) -> "Polynomial":
        return Polynomial({m: _as_fraction(coeff)})

    def items(self) -> Iterator[tuple[Monomial, Fraction]]:
        """Terms in canonical monomial order."""
        return iter(sorted(self._terms.items(), key=lambda t: t[0].sort_key))

    def raw(self) -> Mapping[Monomial, Fraction]:
        return self._terms

    def coeff(self, m: Monomial) -> Fraction:
        return self._terms.get(m, Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._terms.items(), key=lambda t: t[0].sort_key)))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        acc = dict(self._terms)
        for m, c in other._terms.items():
            s = acc.get(m, Fraction(0)) + c
            if s:
                acc[m] = s
            else:
                acc.pop(m, None)
        out = Polynomial()
        out._terms = acc
        return out

    def __neg__(self) -> "Polynomial":
        out = Polynomial()
        out._terms = {m: -c for m, c in self._terms.items()}
        return out

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            acc: dict[Monomial, Fraction] = {}
            for m1, c1 in self._terms.items():
                for m2, c2 in other._terms.items():
                    m = m1 * m2
                    s = acc.get(m, Fraction(0)) + c1 * c2
                    if s:
                        acc[m] = s
                    else:
                        acc.pop(m, None)
            out = Polynomial()
            out._terms = acc
            return out
        c = _as_fraction(other)
        out = Polynomial()
        out._terms = {m: k * c for m, k in self._terms.items()} if c else {}
        return out

    def __rmul__(self, other) -> "Polynomial":
        return self.__mul__(other)

    def mul_monomial(self, m: Monomial, coeff: Scalar = 1) -> "Polynomial":
        c = _as_fraction(coeff)
        out = Polynomial()
        if c == 1:
            out._terms = {m * m1: c1 for m1, c1 in self._terms.items()}
        elif c:
            out._terms = {m * m1: c1 * c for m1, c1 in self._terms.items()}
        return out

    def __repr__(self) -> str:
        from .grammar import format_polynomial

        return format_polynomial(self)


def relabel(ctx: RingContext, poly: Polynomial, sigma: Mapping[int, int] | Sequence[int]) -> Polynomial:
    """Apply a marking permutation to every generator index.

    ``sigma`` maps every marking 1..n to a distinct marking 1..n; it may be
    given as a dict or as a sequence ``(sigma(1), ..., sigma(n))``.
    """
    if not isinstance(sigma, Mapping):
        sigma = {i + 1: v for i, v in enumerate(sigma)}
    if sorted(sigma) != list(ctx.markings) or sorted(sigma.values()) != list(ctx.markings):
        raise ValueError("sigma must be a permutation of the markings")
    out: dict[Monomial, Fraction] = {}
    for m, c in poly.raw().items():
        out[relabel_monomial(m, sigma)] = c
    return Polynomial(out)


def _symbol_image(s: Symbol, sigma) -> Symbol:
    """``s`` with every marking index ``i`` replaced by ``sigma[i]``."""
    if s.kind == KAPPA:
        return s
    if s.kind == POINT:
        return point_k(sigma[s.params[0]])
    if s.kind == DIAG:
        return diag(sigma[s.params[0]], sigma[s.params[1]])
    return exc(sigma[i] for i in s.params[0])


def relabel_monomial(m: Monomial, sigma: Mapping[int, int]) -> Monomial:
    return Monomial.from_pairs((_symbol_image(s, sigma), e) for s, e in m.pairs)


class PackedKeys:
    """Packed integer keys of the monomials of degree at most ``top`` in the
    ring of a context, and of their orbits under relabelling the markings.

    The generators of the ring are numbered: ``k1 .. k(g-2)``, the ``K_i``,
    the ``d(i,j)`` and the ``D(I)`` with ``|I| >= 3``.  Each gets a field of
    ``b = top.bit_length()`` bits, so that ``2^b > top``, and the key of a
    monomial is ``sum(e * 2^(b * index(s)))`` over its factors ``s^e``.
    Every generator has degree at least 1, so no exponent of a monomial of
    degree ``<= top`` exceeds ``top`` and each fits its field.  Hence the key
    is injective on those monomials, and ``key(a * b) == key(a) + key(b)``
    whenever ``deg a + deg b <= top``: the fields add with no carry.

    Keys only index memos.  They are never decoded; :class:`Monomial` stays
    the one representation.
    """

    __slots__ = ("_shift", "_sigmas", "_images")

    def __init__(self, ctx: RingContext):
        marks = ctx.markings
        gens = (
            [kappa(i) for i in range(1, ctx.g - 1)]
            + [point_k(i) for i in marks]
            + [diag(i, j) for i, j in itertools.combinations(marks, 2)]
            + [exc(s) for size in range(3, ctx.n + 1) for s in itertools.combinations(marks, size)]
        )
        width = ctx.top_degree.bit_length()
        self._shift = {s: width * t for t, s in enumerate(gens)}
        self._sigmas = [dict(zip(marks, p)) for p in itertools.permutations(marks)]
        # (s, e) -> [key of s^e relabelled by sigma, for each sigma], on first use
        self._images: dict[tuple[Symbol, int], list[int]] = {}

    def key(self, m: Monomial) -> int:
        """The key of ``m``, a monomial of degree ``<= top`` in the ring."""
        shift = self._shift
        return sum([e << shift[s] for s, e in m.pairs])

    def orbit_keys(self, m: Monomial) -> set[int]:
        """The keys of every relabelling of ``m`` by a permutation of the
        markings, the identity (so ``key(m)``) included."""
        images = self._images
        rows = []
        for p in m.pairs:
            row = images.get(p)
            if row is None:
                s, e = p
                row = images[p] = [e << self._shift[_symbol_image(s, sigma)] for sigma in self._sigmas]
            rows.append(row)
        return set(map(sum, zip(*rows))) if rows else {0}


@functools.lru_cache(maxsize=None)
def packed_keys(ctx: RingContext) -> PackedKeys:
    """The :class:`PackedKeys` of ``ctx``, built on first use."""
    return PackedKeys(ctx)
