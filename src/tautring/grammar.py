"""Text serialization for monomials and polynomials.

Monomials print as ``*``-joined factors, e.g. ``k2*K1^3*d(1,2)*D(1,2,3)^2``;
the unit monomial prints as ``1``.  Polynomials print as ``+``-joined terms,
each ``<coefficient> <monomial>`` with exact rational coefficients ``p/q``
(``/q`` omitted when ``q == 1``, the coefficient omitted when it is 1, the
monomial omitted for constants).  The zero polynomial prints as ``0``.
The parser also accepts ``-`` separators and coefficient-only or
monomial-only terms.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .core import (
    Monomial,
    Polynomial,
    RingContext,
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
    r"(?P<kappa>k(?P<ki>\d+))"
    r"|(?P<point>K(?P<Ki>\d+))"
    r"|(?P<diag>d\(\s*(?P<di>\d+)\s*,\s*(?P<dj>\d+)\s*\))"
    r"|(?P<exc>D\(\s*(?P<dset>\d+(?:\s*,\s*\d+)+)\s*\))"
    r"|(?P<rat>\d+(?:/\d+)?)"
    r"|(?P<op>[*^+-])"
    r")"
)


def _tokenize(text: str) -> list[tuple[str, object]]:
    tokens: list[tuple[str, object]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise GrammarError(f"unexpected input at {text[pos:pos + 12]!r}")
        pos = m.end()
        if m.group("kappa"):
            tokens.append(("sym", ("k", int(m.group("ki")))))
        elif m.group("point"):
            tokens.append(("sym", ("K", int(m.group("Ki")))))
        elif m.group("diag"):
            tokens.append(("sym", ("d", int(m.group("di")), int(m.group("dj")))))
        elif m.group("exc"):
            members = tuple(int(x) for x in m.group("dset").split(","))
            tokens.append(("sym", ("D", members)))
        elif m.group("rat"):
            try:
                tokens.append(("rat", Fraction(m.group("rat"))))
            except ZeroDivisionError:
                raise GrammarError(f"zero denominator in {m.group('rat')!r}") from None
        else:
            tokens.append(("op", m.group("op")))
    return tokens


def _build_symbol(ctx: RingContext, tok: tuple):
    try:
        if tok[0] == "k":
            sym = kappa(tok[1])
        elif tok[0] == "K":
            sym = point_k(tok[1])
        elif tok[0] == "d":
            sym = diag(tok[1], tok[2])
        else:
            sym = exc(tok[1])
        check_symbol(ctx, sym)
    except ValueError as e:
        raise GrammarError(str(e)) from None
    return sym


class _Parser:
    def __init__(self, ctx: RingContext, tokens: list):
        self.ctx = ctx
        self.toks = tokens
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        t = self.peek()
        if t is None:
            raise GrammarError("unexpected end of input")
        self.pos += 1
        return t

    def parse_factor(self) -> tuple[object, int]:
        kind, val = self.take()
        if kind != "sym":
            raise GrammarError(f"expected a generator symbol, got {val!r}")
        sym = _build_symbol(self.ctx, val)
        e = 1
        nxt = self.peek()
        if nxt == ("op", "^"):
            self.take()
            k, v = self.take()
            if k != "rat" or v.denominator != 1:
                raise GrammarError("exponent must be a positive integer")
            e = int(v)
            if e < 1:
                raise GrammarError("exponent must be a positive integer")
        return sym, e

    def parse_monomial(self) -> Monomial:
        t = self.peek()
        if t == ("rat", Fraction(1)):
            # bare "1" is the unit monomial
            self.take()
            return UNIT
        pairs = [self.parse_factor()]
        while self.peek() == ("op", "*"):
            self.take()
            pairs.append(self.parse_factor())
        return Monomial.from_pairs(pairs)

    def parse_term(self) -> tuple[Fraction, Monomial]:
        coeff = Fraction(1)
        took_coeff = False
        t = self.peek()
        if t is not None and t[0] == "rat":
            nxt = self.toks[self.pos + 1] if self.pos + 1 < len(self.toks) else None
            if nxt is not None and nxt == ("op", "^"):
                pass  # "1 ^ ..." is not valid anyway; let monomial parsing fail
            else:
                coeff = self.take()[1]
                took_coeff = True
                if self.peek() == ("op", "*"):
                    self.take()
                    return coeff, self.parse_monomial()
        t = self.peek()
        if t is None or t == ("op", "+") or t == ("op", "-"):
            if not took_coeff:
                raise GrammarError("empty term")
            return coeff, UNIT
        return coeff, self.parse_monomial()

    def parse_polynomial(self) -> Polynomial:
        acc: dict[Monomial, Fraction] = {}
        sign = Fraction(1)
        t = self.peek()
        if t == ("op", "-"):
            self.take()
            sign = Fraction(-1)
        elif t == ("op", "+"):
            self.take()
        while True:
            coeff, mon = self.parse_term()
            coeff *= sign
            acc[mon] = acc.get(mon, Fraction(0)) + coeff
            t = self.peek()
            if t is None:
                break
            if t == ("op", "+"):
                sign = Fraction(1)
            elif t == ("op", "-"):
                sign = Fraction(-1)
            else:
                raise GrammarError(f"expected '+' or '-', got {t[1]!r}")
            self.take()
        return Polynomial(acc)


def parse_monomial(ctx: RingContext, text: str) -> Monomial:
    p = _Parser(ctx, _tokenize(text))
    m = p.parse_monomial()
    if p.peek() is not None:
        raise GrammarError("trailing input after monomial")
    return m


def parse_polynomial(ctx: RingContext, text: str) -> Polynomial:
    text = text.strip()
    if text == "0":
        return Polynomial.zero()
    if not text:
        raise GrammarError("empty input")
    p = _Parser(ctx, _tokenize(text))
    poly = p.parse_polynomial()
    return poly
