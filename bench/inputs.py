"""Seeded inputs for the ``normalize_certified`` workload.

The program only ever sees the polynomial text generated here.  Inputs are
drawn in fixed strata, so every seed gives the same mix of kinds, genera,
marking counts and shapes.  The seed draws the random polynomials, every
coefficient and the order of the stream; see ``LABEL_SEED`` for the rest.
"""

from __future__ import annotations

import itertools
import math
import random

# (g, n) pairs of the stream; n stays at most 5 (see the README for why).
RANDOM_GN = [(g, n) for g in (2, 3) for n in (1, 2, 3, 4, 5)]
EXC_GN = [(g, n) for g in (2, 3) for n in (3, 4, 5)]

# Most exceptional factors in a monomial of a "random" item.
MAX_RANDOM_EXC = 2

# Largest total exponent of the exceptional factors of a "product" item.
MAX_PRODUCT_DDEG = 3

# The marking labels and extra factors of "product" and "power" items come
# from this fixed seed, not from --seed: their cost depends on the labels
# (D(1,2,3)^3 takes 233 steps at g=2, n=5, D(3,4,5)^3 takes 384), and the
# stream's total work should not move with --seed.
LABEL_SEED = 20140325

# Polynomials per (g, n) stratum and kind.
PER_STRATUM = {"random": 60, "product": 4, "power": 3}


def _symbols(g: int, n: int) -> list[tuple[str, int]]:
    """Generator names of the ring with their degrees (kappa index <= g-2)."""
    marks = range(1, n + 1)
    out = [(f"k{i}", i) for i in range(1, g - 1)]
    out += [(f"K{i}", 1) for i in marks]
    out += [(f"d({i},{j})", 1) for i, j in itertools.combinations(marks, 2)]
    out += [(_exc(c), 1) for r in range(3, n + 1) for c in itertools.combinations(marks, r)]
    return out


def _exc(members) -> str:
    return "D(" + ",".join(map(str, sorted(members))) + ")"


def _monomial_text(factors: dict[str, int]) -> str:
    if not factors:
        return "1"
    return "*".join(s if e == 1 else f"{s}^{e}" for s, e in sorted(factors.items()))


def _poly_text(terms: list[tuple[int, int, str]]) -> str:
    out = []
    for num, den, mono in terms:
        common = math.gcd(num, den)
        num, den = num // common, den // common
        mag = f"{abs(num)}" if den == 1 else f"{abs(num)}/{den}"
        body = mono if (mag == "1" and mono != "1") else (mag if mono == "1" else f"{mag} {mono}")
        sign = "-" if num < 0 else "+"
        out.append((f"-{body}" if sign == "-" else body) if not out else f"{sign} {body}")
    return " ".join(out)


def _random_monomial(rng: random.Random, pool, target: int) -> dict[str, int]:
    """Random factors up to degree ``target``, with at most two ``D`` factors."""
    plain = [p for p in pool if not p[0].startswith("D")]
    factors: dict[str, int] = {}
    deg = exc = 0
    while deg < target:
        s, d = rng.choice(pool if exc < MAX_RANDOM_EXC else plain)
        if deg + d > target:
            break
        factors[s] = factors.get(s, 0) + 1
        deg += d
        exc += s.startswith("D")
    return factors


def _random_poly(rng: random.Random, g: int, n: int) -> str:
    """A random polynomial in the style of acceptance criterion 1."""
    pool = _symbols(g, n)
    top = g - 2 + n
    terms = []
    for _ in range(rng.randint(1, 4)):
        mono = _monomial_text(_random_monomial(rng, pool, rng.randint(0, top)))
        terms.append((rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9), mono))
    return _poly_text(_merge(terms))


def _merge(terms):
    """Keep the first coefficient of a repeated monomial, so terms are distinct."""
    seen = {}
    for num, den, mono in terms:
        seen.setdefault(mono, (num, den))
    return [(num, den, mono) for mono, (num, den) in seen.items()]


def _exponent_cap(g: int, n: int, size: int) -> int:
    """Largest exponent of a ``D(I)`` factor with ``|I| = size`` in the stream.

    Certified normalization of ``D(I)^e`` grows about fivefold per unit of
    ``e`` (``D(1,2,3)^5`` at g=3, n=5 takes 18k steps); this cap keeps every
    item within tens of milliseconds, so no single item dominates a round.
    """
    return min(g - 2 + n, size + 5 - n)


def _chain_shapes(g: int, n: int) -> list[tuple[tuple[int, int], ...]]:
    """Exceptional parts on one chain of nested sets, as (size, exponent) pairs.

    One set, or an outer set with one inner subset; the total exponent is at
    most ``MAX_PRODUCT_DDEG`` and each exponent is within ``_exponent_cap``.
    """
    out = []
    for s1 in range(3, n + 1):
        for e1 in range(1, _exponent_cap(g, n, s1) + 1):
            if 2 <= e1 <= MAX_PRODUCT_DDEG:
                out.append(((s1, e1),))
            for s2 in range(3, s1):
                for e2 in range(1, _exponent_cap(g, n, s2) + 1):
                    if e1 + e2 <= MAX_PRODUCT_DDEG:
                        out.append(((s1, e1), (s2, e2)))
    return out


def _product_poly(rng: random.Random, labels: random.Random, g: int, n: int, shape) -> str:
    """A product of exceptional factors on one chain of nested sets.

    This is the shape a product of two standard monomials with exceptional
    parts takes when their sets nest: exponents add up past the standard
    budgets, so vertex reductions (R3) do most of the work.  Up to two
    non-exceptional factors ride along, within the top degree.
    """
    pool = [s for s in _symbols(g, n) if not s[0].startswith("D")]
    marks = list(range(1, n + 1))
    labels.shuffle(marks)
    factors: dict[str, int] = {}
    for size, e in shape:
        factors[_exc(marks[:size])] = e
    room = g - 2 + n - sum(e for _, e in shape)
    for _ in range(min(2, room)):
        if labels.random() < 0.5:
            name, deg = labels.choice(pool)
            if deg <= room:
                factors[name] = factors.get(name, 0) + 1
                room -= deg
    coeff = rng.choice([-1, 1]) * rng.randint(1, 9)
    return _poly_text([(coeff, 1, _monomial_text(factors))])


def _power_polys(labels: random.Random, g: int, n: int) -> list[str]:
    """Powers ``D(I)^e`` for every size of ``I`` and every allowed exponent."""
    out = []
    for size in range(3, n + 1):
        for e in range(2, _exponent_cap(g, n, size) + 1):
            for _ in range(PER_STRATUM["power"]):
                members = sorted(labels.sample(range(1, n + 1), size))
                out.append(_poly_text([(1, 1, _monomial_text({_exc(members): e}))]))
    return out


def normalize_stream(seed: int) -> list[tuple[int, int, str]]:
    """``(g, n, polynomial text)`` items of one round, in a seeded order."""
    rng = random.Random(seed)
    labels = random.Random(LABEL_SEED)
    items = []
    for g, n in RANDOM_GN:
        items += [(g, n, _random_poly(rng, g, n)) for _ in range(PER_STRATUM["random"])]
    for g, n in EXC_GN:
        for shape in _chain_shapes(g, n):
            items += [(g, n, _product_poly(rng, labels, g, n, shape)) for _ in range(PER_STRATUM["product"])]
        items += [(g, n, text) for text in _power_polys(labels, g, n)]
    rng.shuffle(items)
    return items
