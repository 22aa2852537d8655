"""Output checks that do not use the program.

Each ``check_*`` function returns a list of problems; an empty list means
the output passed.  The checks rest on independent computation (a rank
modulo large primes, a replay of certificates with this module's own
polynomial arithmetic) or on properties the method must have (symmetry of
the pairing, palindromic ranks, the block-constant rule).  None of them
compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import numpy as np

# ---------------------------------------------------------------------------
# polynomials in the program's text format, with independent arithmetic
#
# A monomial is a sorted tuple of (symbol text, exponent); a polynomial is a
# dict from monomials to nonzero Fractions.

_FACTOR = re.compile(r"(k\d+|K\d+|d\(\d+,\d+\)|D\(\d+(?:,\d+)+\))(?:\^(\d+))?$")
_COEFF = re.compile(r"\d+(?:/\d+)?$")


def parse_monomial(text: str) -> tuple:
    if text == "1":
        return ()
    exps: dict[str, int] = {}
    for factor in text.split("*"):
        m = _FACTOR.match(factor)
        if m is None:
            raise ValueError(f"bad factor {factor!r} in {text!r}")
        exps[m.group(1)] = exps.get(m.group(1), 0) + int(m.group(2) or 1)
    return tuple(sorted(exps.items()))


def parse_poly(text: str) -> dict:
    """Parse ``repr(Polynomial)`` text: ``-2 K1*D(1,2,3) + 1/2 d(1,2) - 3``."""
    text = text.strip()
    if text == "0":
        return {}
    out: dict[tuple, Fraction] = {}
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    for i, term in enumerate(re.split(r" ([+-]) ", text)):
        if i % 2:
            sign = 1 if term == "+" else -1
            continue
        head, _, rest = term.partition(" ")
        if rest:
            coeff, mono = Fraction(head), rest
        elif _COEFF.match(term) and term != "1":
            coeff, mono = Fraction(term), "1"
        else:
            coeff, mono = Fraction(1), term
        add_term(out, parse_monomial(mono), sign * coeff)
    return out


def add_term(poly: dict, mono: tuple, coeff: Fraction) -> None:
    value = poly.get(mono, 0) + coeff
    if value:
        poly[mono] = value
    else:
        poly.pop(mono, None)


def mul_monomials(a: tuple, b: tuple) -> tuple:
    exps = dict(a)
    for s, e in b:
        exps[s] = exps.get(s, 0) + e
    return tuple(sorted(exps.items()))


def poly_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        add_term(out, m, -c)
    return out


# ---------------------------------------------------------------------------
# normalize_certified


def replay_residual(source: dict, result: dict, steps: list) -> dict:
    """``source - result - sum(coeff * quotient * relation)``; zero if it replays."""
    residual = poly_sub(source, result)
    relations: dict[str, dict] = {}
    for step in steps:
        rel = relations.get(step["relation"])
        if rel is None:
            rel = relations[step["relation"]] = parse_poly(step["relation"])
        q = parse_monomial(step["quotient"])
        c = Fraction(step["coeff"])
        for m, v in rel.items():
            add_term(residual, mul_monomials(q, m), -c * v)
    return residual


def check_normalize(items, result: dict, sample: list[int]) -> list[str]:
    """Every certificate replays; sampled normal forms are fixed points and
    linear over the terms of their inputs; a repeated round gives the same
    bytes."""
    problems = []
    outputs = result["outputs"]
    if len(outputs) != len(items):
        return [f"{len(outputs)} outputs for {len(items)} inputs"]
    if not result["repeat_identical"]:
        problems.append("a repeated round printed different bytes")
    normals = []
    for (g, n, text), out in zip(items, outputs):
        data = json.loads(out)
        source = parse_poly(text)
        normal = parse_poly(data["normal_form"])
        normals.append(normal)
        if data["command"] != "normalize" or data["verified"] is not True:
            problems.append(f"not verified: {text}")
        if parse_poly(data["input"]) != source:
            problems.append(f"input echoed as {data['input']!r}: {text}")
        if replay_residual(source, normal, data["steps"]):
            problems.append(f"certificate does not replay: {text}")
    for idx, again, terms in zip(sample, result["fixed_point"], result["linear_terms"]):
        if parse_poly(again) != normals[idx]:
            problems.append(f"normal form is not a fixed point: {items[idx][2]}")
        total: dict = {}
        for coeff, mono, nf in terms:
            for m, c in parse_poly(nf).items():
                add_term(total, m, Fraction(coeff) * c)
        if terms_source(terms) != parse_poly(items[idx][2]):
            problems.append(f"input terms differ from the input: {items[idx][2]}")
        if total != normals[idx]:
            problems.append(f"normal form is not linear over input terms: {items[idx][2]}")
    return problems


def terms_source(terms) -> dict:
    """The polynomial that the (coefficient, monomial, normal form) terms add up to."""
    out: dict = {}
    for coeff, mono, _ in terms:
        add_term(out, parse_monomial(mono), Fraction(coeff))
    return out


# ---------------------------------------------------------------------------
# verify (both verify workloads)


def label_sets(label: str) -> list[frozenset]:
    """Marking sets of the ``D(...)`` factors of a block label."""
    if label == "1":
        return []
    return [frozenset(map(int, re.findall(r"\d+", s))) for s, _ in parse_monomial(label)]


def label_epsilon_and_S(label: str, n: int) -> tuple[int, tuple[int, ...]]:
    """Sign exponent and marking set of a block, from its label alone.

    ``epsilon = |union of the sets| + (number of nesting edges)``, where each
    set with a strict superset in the label has one edge to its parent;
    ``S`` is the minima of the maximal sets plus every marking in no set.
    """
    sets = label_sets(label)
    union = frozenset().union(*sets)
    nested = [s for s in sets if any(s < t for t in sets)]
    roots = [s for s in sets if not any(s < t for t in sets)]
    S = {min(r) for r in roots} | (set(range(1, n + 1)) - union)
    return len(union) + len(nested), tuple(sorted(S))


def check_verify(text: str, g: int, n: int) -> list[str]:
    """Top-level ``ok``, palindromic dims, complementary shapes, rank
    additivity and the block-constant rule recomputed from each label."""
    problems = []
    data = json.loads(text)
    if data.get("ok") is not True:
        problems.append(f"top-level ok is {data.get('ok')!r}")
    if (data.get("command"), data.get("g"), data.get("n")) != ("verify", g, n):
        problems.append("output is not the verify report asked for")
    top = g - 2 + n
    checks = data["checks"]
    if [c["k"] for c in checks] != list(range(top + 1)):
        return problems + ["degrees are not 0..top"]
    dims = [c["rank"] for c in checks]
    if data["dims"] != dims:
        problems.append(f"dims {data['dims']} differ from the ranks {dims}")
    if dims != dims[::-1] or dims[0] != 1 or dims[-1] != 1:
        problems.append(f"dims {dims} are not palindromic with 1 at both ends")
    for c in checks:
        k = c["k"]
        if c["rows"] != checks[top - k]["cols"]:
            problems.append(f"degree {k}: {c['rows']} rows but degree {top - k} has {checks[top - k]['cols']} columns")
        if sum(b["block_rank"] for b in c["blocks"]) != c["rank"]:
            problems.append(f"degree {k}: block ranks do not sum to the rank {c['rank']}")
        if c["ok"] is not True or c["triangle_violations"] or c["duality_violations"]:
            problems.append(f"degree {k}: check failed")
        for b in c["blocks"]:
            eps, S = label_epsilon_and_S(b["label"], n)
            rule = Fraction(-1) ** eps * Fraction(2 * g - 2) ** (len(S) - n)
            if (b["epsilon"], tuple(b["marking_set"])) != (eps, S):
                problems.append(f"degree {k} block {b['label']}: epsilon/S are {b['epsilon']}/{b['marking_set']}, expected {eps}/{list(S)}")
            if b["constant"] is None or Fraction(b["constant"]) != rule:
                problems.append(f"degree {k} block {b['label']}: constant {b['constant']} != {rule}")
            if b["block_rank"] != b["reference_rank"] or not b["proportional"]:
                problems.append(f"degree {k} block {b['label']}: not proportional to its reference")
    return problems


# ---------------------------------------------------------------------------
# pairing_g3n5_k3

PRIMES = (2147483647, 2147483629)


def _mod_p(text: str, p: int) -> int:
    q = Fraction(text)
    return q.numerator * pow(q.denominator, -1, p) % p


def rank_mod_p(entries: list[list[str]], p: int) -> int:
    """Rank of a rational matrix modulo ``p``, by Gaussian elimination."""
    cache: dict[str, int] = {}
    M = np.array(
        [[cache[x] if x in cache else cache.setdefault(x, _mod_p(x, p)) for x in row] for row in entries],
        dtype=np.int64,
    ).reshape(len(entries), -1)
    rank = 0
    rows, cols = M.shape
    for c in range(cols):
        if rank == rows:
            break
        nonzero = np.flatnonzero(M[rank:, c])
        if not nonzero.size:
            continue
        pivot = rank + nonzero[0]
        M[[rank, pivot]] = M[[pivot, rank]]
        M[rank] = M[rank] * pow(int(M[rank, c]), -1, p) % p
        below = rank + 1 + np.flatnonzero(M[rank + 1:, c])
        if below.size:
            M[below] = (M[below] - np.outer(M[below, c], M[rank]) % p) % p
        rank += 1
    return rank


def check_pairing(text: str, g: int, n: int, k: int) -> list[str]:
    """Shape, rank modulo two large primes, and symmetry of the pairing:
    the entry at (r_i, c_j) equals the one at (row of c_j, column of r_i)."""
    problems = []
    data = json.loads(text)
    rows, cols, entries = data["rows"], data["cols"], data["entries"]
    if (data["command"], data["g"], data["n"], data["k"]) != ("pairing", g, n, k):
        problems.append("output is not the pairing asked for")
    if len(entries) != len(rows) or any(len(r) != len(cols) for r in entries):
        return problems + ["entries do not match the row and column lists"]
    rank = max(rank_mod_p(entries, p) for p in PRIMES)
    if data["rank"] != rank:
        problems.append(f"reported rank {data['rank']}, rank modulo primes is {rank}")
    if 2 * k == g - 2 + n:
        if sorted(rows) != sorted(cols) or len(set(rows)) != len(rows):
            return problems + ["rows and columns are not the same basis"]
        row_of = {m: i for i, m in enumerate(rows)}
        col_of = {m: j for j, m in enumerate(cols)}
        A = np.array(entries, dtype=object)
        swapped = A[np.ix_([row_of[m] for m in cols], [col_of[m] for m in rows])].T
        bad = np.argwhere(A != swapped)
        if len(bad):
            i, j = bad[0]
            problems.append(f"{len(bad)} entries break symmetry, first ({rows[i]}, {cols[j]})")
    return problems
