"""Text serialization for monomials and polynomials.

Monomials print as ``*``-joined factors, e.g. ``k2*K1^3*d(1,2)*D(1,2,3)^2``;
the unit monomial prints as ``1``.  Polynomials print as ``+``-joined terms,
each ``<coefficient> <monomial>`` with exact rational coefficients ``p/q``
(``/q`` omitted when ``q == 1``, the coefficient omitted when it is 1, the
monomial omitted for constants).  The zero polynomial prints as ``0``.

The parsers read this language, with whitespace allowed between tokens
and inside the parentheses of ``d(...)`` and ``D(...)``::

    polynomial := [sign] term {sign term}       "0" is the zero polynomial
    sign       := "+" | "-"
    term       := rat | rat ["*"] monomial | monomial
    monomial   := "1" | factor {"*" factor}
    factor     := generator ["^" e]             e an integer >= 1
    generator  := "k" i | "K" i | "d(" i "," i ")" | "D(" i "," i "," i {"," i} ")"
    rat        := p ["/" q]                     q nonzero

Here ``e``, ``i``, ``p`` and ``q`` are unsigned decimal integers; the
monomial ``1`` and an exponent are written without ``/``.  A generator
must belong to the ring: ``k<i>`` needs ``1 <= i <= g - 2``, a marking
index ``1 <= i <= n``; the markings of ``d`` are two distinct ones, and
``D`` names at least three distinct ones.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .core import (
    Monomial,
    Polynomial,
    RingContext,
    Symbol,
    UNIT,
    check_symbol,
    diag,
    exc,
    format_monomial,
    kappa,
    point_k,
)


class GrammarError(ValueError):
    """Raised on malformed or out-of-context textual input."""


def format_polynomial(p: Polynomial) -> str:
    if p.is_zero:
        return "0"
    out = []
    for m, c in p.items():
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if not m.pairs:
            body = str(mag)
        elif mag == 1:
            body = format_monomial(m)
        else:
            body = f"{mag} {format_monomial(m)}"
        if not out:
            out.append(body if sign == "+" else f"-{body}")
        else:
            out.append(f"{sign} {body}")
    return " ".join(out)


_TOKEN = re.compile(
    r"\s*(?:"
    r"k(?P<k>\d+)"
    r"|K(?P<K>\d+)"
    r"|d\(\s*(?P<d>\d+\s*,\s*\d+)\s*\)"
    r"|D\(\s*(?P<D>\d+(?:\s*,\s*\d+)+)\s*\)"
    r"|(?P<rat>\d+(?:/\d+)?)"
    r"|(?P<op>[*^+-])"
    r")"
)
_GENERATOR = {"k": kappa, "K": point_k, "d": diag}
_TERM_END = (None, "+", "-")


def _tokenize(ctx: RingContext, text: str) -> list:
    """Split ``text`` into tokens and append ``None`` to mark the end.

    A generator becomes its ``Symbol``, checked against ``ctx``; a rational
    becomes an ``int``, or a ``Fraction`` when written with ``/``; an
    operator stays its character.
    """
    tokens: list = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise GrammarError(f"unexpected input at {text[pos:pos + 12]!r}")
        pos = m.end()
        kind, val = m.lastgroup, m.group(m.lastgroup)
        if kind == "op":
            tokens.append(val)
            continue
        try:
            if kind == "rat":
                tokens.append(Fraction(val) if "/" in val else int(val))
                continue
            ints = [int(i) for i in re.findall(r"\d+", val)]
            sym = exc(ints) if kind == "D" else _GENERATOR[kind](*ints)
            check_symbol(ctx, sym)
        except ZeroDivisionError:
            raise GrammarError(f"zero denominator in {val!r}") from None
        except ValueError as e:
            raise GrammarError(str(e)) from None
        tokens.append(sym)
    tokens.append(None)
    return tokens


def _present(tok):
    """Return ``tok``, which the grammar needs; ``None`` is the end of input."""
    if tok is None:
        raise GrammarError("unexpected end of input")
    return tok


def _monomial(toks: list, i: int) -> tuple[Monomial, int]:
    """Read a monomial from ``toks[i]`` on; return it and the index after it."""
    if isinstance(toks[i], int) and toks[i] == 1:
        # bare "1" is the unit monomial
        return UNIT, i + 1
    pairs = []
    while True:
        sym = _present(toks[i])
        if not isinstance(sym, Symbol):
            raise GrammarError(f"expected a generator symbol, got {sym!r}")
        e = 1
        if toks[i + 1] == "^":
            i += 2
            e = _present(toks[i])
            if not isinstance(e, int) or e < 1:
                raise GrammarError("exponent must be a positive integer")
        pairs.append((sym, e))
        if toks[i + 1] != "*":
            return Monomial.from_pairs(pairs), i + 1
        i += 2


def parse_monomial(ctx: RingContext, text: str) -> Monomial:
    toks = _tokenize(ctx, text)
    m, i = _monomial(toks, 0)
    if toks[i] is not None:
        raise GrammarError("trailing input after monomial")
    return m


def parse_polynomial(ctx: RingContext, text: str) -> Polynomial:
    # stripped, so an error quotes no trailing newline from stdin
    toks = _tokenize(ctx, text.strip())
    if toks[0] is None:
        raise GrammarError("empty input")
    acc: dict[Monomial, Fraction | int] = {}
    sign = -1 if toks[0] == "-" else 1
    i = 1 if toks[0] in ("+", "-") else 0
    while True:
        if toks[i] in _TERM_END:
            raise GrammarError("empty term")
        coeff = 1
        mon = UNIT
        if isinstance(toks[i], (int, Fraction)):
            coeff = toks[i]
            i += 1
            # followed by '+', '-' or the end, a rational is a constant term
            if toks[i] not in _TERM_END:
                mon, i = _monomial(toks, i + (toks[i] == "*"))
        else:
            mon, i = _monomial(toks, i)
        acc[mon] = acc.get(mon, 0) + sign * coeff
        if toks[i] is None:
            return Polynomial(acc)
        if toks[i] not in _TERM_END:
            raise GrammarError(f"expected '+' or '-', got {toks[i]!r}")
        sign = -1 if toks[i] == "-" else 1
        i += 1
