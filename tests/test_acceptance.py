"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with plain ``pytest``; the status lines print to the live terminal so
the gate is readable even inside a long test run.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from tautring import (
    Evaluator,
    KappaTable,
    Monomial,
    Normalizer,
    Polynomial,
    RingContext,
    check_duality_classes,
    diag,
    enumerate_basis,
    evaluate_free,
    exc,
    kappa,
    parse_monomial,
    point_k,
    socle_monomial,
    verify_triangular,
)
from tautring.pairing import block_constant_reports

from conftest import get_matrices


F = Fraction
GN_RANGE = [(g, n) for g in (2, 3) for n in (1, 2, 3, 4)]


def report(capsys, idx, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {idx} {'PASS' if ok else 'FAIL'}: {detail}")


# -- criterion 1: certificate replay on random polynomials ---------------------


def _symbol_pool(ctx):
    pool = [kappa(1), kappa(2)]
    pool += [point_k(i) for i in ctx.markings]
    pool += [diag(i, j) for i, j in itertools.combinations(ctx.markings, 2)]
    pool += [
        exc(c)
        for size in range(3, ctx.n + 1)
        for c in itertools.combinations(ctx.markings, size)
    ]
    return pool


def _random_monomial(rng, ctx, pool):
    target = rng.randint(0, ctx.top_degree)
    syms, deg = [], 0
    while deg < target:
        s = rng.choice(pool)
        if deg + s.degree > target:
            break
        syms.append(s)
        deg += s.degree
    return Monomial.from_symbols(*syms)


def test_criterion_1_certificate_replay(capsys):
    rng = random.Random(20250825)
    budget = 300.0
    count = 0
    t0 = time.time()
    for g, n in GN_RANGE:
        ctx = RingContext(g, n)
        pool = _symbol_pool(ctx)
        nz = Normalizer(ctx)
        for _ in range(125):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                m = _random_monomial(rng, ctx, pool)
                c = F(rng.randint(-9, 9) or 1, rng.randint(1, 9))
                terms[m] = terms.get(m, F(0)) + c
            poly = Polynomial(terms)
            out, cert = nz.normalize(poly, record=True)
            assert cert.verify(poly, out), f"certificate replay failed for {poly!r}"
            count += 1
    elapsed = time.time() - t0
    ok = count == 1000 and elapsed < budget
    report(capsys, 1, ok,
           f"{count} random polynomials replayed exactly in {elapsed:.1f}s "
           f"(budget {budget:.0f}s)")
    assert ok


# -- criterion 2: socle normalization ------------------------------------------


def test_criterion_2_socle(capsys):
    checked = []
    for g in (2, 3):
        for n in (1, 2, 3, 4, 5):
            ctx = RingContext(g, n)
            ev = Evaluator(ctx)
            scal, m = socle_monomial(ctx)
            val = scal * ev.evaluate_monomial(m)
            checked.append(((g, n), val))
    ok = all(v == 1 for _, v in checked)
    report(capsys, 2, ok,
           f"socle evaluates to 1 for {len(checked)} (g, n) pairs "
           f"(g in {{2,3}}, n <= 5)")
    assert ok, checked


# -- criterion 3: derived fixtures ----------------------------------------------


def test_criterion_3_fixtures(capsys):
    ctx22, _, ms22 = get_matrices(2, 2)
    m = ms22[1]
    fixture = (
        (F(0), F(1, 2), F(1, 4)),
        (F(1, 2), F(0), F(1, 4)),
        (F(1, 4), F(1, 4), F(-1, 4)),
    )
    matrix_ok = m.entries == fixture and m.rank() == 3
    t = KappaTable.builtin(2)
    e1 = evaluate_free(ctx22, t, parse_monomial(ctx22, "K1*K2")) == F(1, 2)
    e2 = evaluate_free(ctx22, t, parse_monomial(ctx22, "d(1,2)*K1")) == F(1, 4)
    e3 = evaluate_free(ctx22, t, parse_monomial(ctx22, "K1^2")) == F(0)
    _, _, ms21 = get_matrices(2, 1)
    dims_ok = tuple(mm.rank() for mm in ms21) == (1, 1)
    ok = matrix_ok and e1 and e2 and e3 and dims_ok
    report(capsys, 3, ok,
           "g2n2 degree-1 matrix, the three contraction values and g2n1 dims "
           "(1, 1) all match exactly")
    assert ok


# -- criterion 4: triangular vanishing -------------------------------------------


def test_criterion_4_triangular(capsys):
    t0 = time.time()
    violations = 0
    pairs = 0
    for g, n in GN_RANGE:
        ctx, _, ms = get_matrices(g, n)
        for m in ms:
            violations += len(verify_triangular(m))
            pairs += len(m.rows) * len(m.cols)
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 1800
    report(capsys, 4, ok,
           f"0 filtration-bound violations over {pairs} complementary pairs, "
           f"g in {{2,3}}, n <= 4 ({elapsed:.1f}s, budget 1800s)")
    assert ok


# -- criterion 5: block structure --------------------------------------------------


def test_criterion_5_blocks(capsys):
    triangle_bad = 0
    not_prop = 0
    not_additive = 0
    n_matrices = 0
    for g, n in GN_RANGE:
        ctx, ev, ms = get_matrices(g, n)
        for m in ms:
            n_matrices += 1
            triangle_bad += len(verify_triangular(m))
            reports = block_constant_reports(m)
            not_prop += sum(1 for r in reports if not r.proportional)
            if m.rank() != sum(r.block_rank for r in reports):
                not_additive += 1
    ok = triangle_bad == 0 and not_prop == 0 and not_additive == 0
    report(capsys, 5, ok,
           f"{n_matrices} matrices: filtration-forced block pairs vanish, every diagonal "
           "block is proportional to its reference, rank is block-additive")
    assert ok, (triangle_bad, not_prop, not_additive)


# -- criterion 6: duality ------------------------------------------------------------


def test_criterion_6_duality(capsys):
    bad = 0
    combos = 0
    top_not_dfree = 0
    p_over = 0
    for g in (2, 3, 4):
        for n in (1, 2, 3, 4, 5):
            ctx = RingContext(g, n)
            for k in range(ctx.top_degree + 1):
                bad += len(check_duality_classes(ctx, k))
                combos += 1
                for sm in enumerate_basis(ctx, k):
                    if sm.p > ctx.top_degree:
                        p_over += 1
                    if k == ctx.top_degree and sm.monomial.exc_items():
                        top_not_dfree += 1
    ok = bad == 0 and top_not_dfree == 0 and p_over == 0
    report(capsys, 6, ok,
           f"involution + degree-complement bijection clean over {combos} "
           "(g, n, k) combos (g <= 4, n <= 5); top degree is D-free; "
           "p <= g-2+n everywhere")
    assert ok, (bad, top_not_dfree, p_over)


# -- criterion 7: Gorenstein symmetry --------------------------------------------------


def test_criterion_7_gorenstein(capsys):
    all_dims = {}
    for g, n in GN_RANGE:
        ctx, _, ms = get_matrices(g, n)
        all_dims[(g, n)] = tuple(m.rank() for m in ms)
    ok = all(
        dims == dims[::-1] and dims[-1] == 1
        for dims in all_dims.values()
    )
    report(capsys, 7, ok,
           "rank sequences palindromic with top dimension 1 for all "
           f"{len(all_dims)} (g, n) pairs: "
           + "; ".join(f"g{g}n{n}={list(d)}" for (g, n), d in sorted(all_dims.items())))
    assert ok, all_dims


# -- criterion 8: constant comparison ----------------------------------------------------


def test_criterion_8_block_constants(capsys):
    lines = []
    rule_misses = []
    quoted_hits = 0
    total = 0
    for g, n in GN_RANGE:
        ctx, ev, ms = get_matrices(g, n)
        for m in ms:
            for r in block_constant_reports(m):
                total += 1
                if r.constant is None:
                    status = "empty"
                elif r.matches_rule:
                    status = "rule"
                else:
                    status = "MISMATCH"
                    rule_misses.append((g, n, m.k, r.label))
                if r.constant is not None and r.constant == r.quoted_constant:
                    quoted_hits += 1
                lines.append(
                    f"  g={g} n={n} k={m.k} block={r.label!r} S={list(r.S)} "
                    f"eps={r.epsilon} empirical={r.constant} "
                    f"rule[(-1)^eps*(2g-2)^(|S|-n)]={r.rule_constant} "
                    f"quoted[(-1)^eps*(2g-2)^(n-|S|+1)]={r.quoted_constant} "
                    f"[{status}]"
                )
    ok = not rule_misses
    with capsys.disabled():
        print(f"ACCEPTANCE 8 {'PASS' if ok else 'FAIL'}: all {total} diagonal "
              "blocks follow the single rule (-1)^eps * (2g-2)^(|S|-n); the "
              f"quoted magnitude (2g-2)^(n-|S|+1) matches {quoted_hits}/{total} "
              "(soft report, free blocks with |S|=n differ by one power)")
        for line in lines:
            print(line)
    assert ok, rule_misses


# -- criterion 9: determinism --------------------------------------------------------------


def test_criterion_9_determinism(capsys):
    argv = [sys.executable, "-m", "tautring.cli", "verify", "--g", "3", "--n", "3",
            "--format", "json"]
    one = subprocess.run(argv + ["--parallelism", "1"], capture_output=True, timeout=600)
    eight = subprocess.run(argv + ["--parallelism", "8"], capture_output=True, timeout=600)
    ok = (
        one.returncode == 0
        and eight.returncode == 0
        and one.stdout == eight.stdout
        and json.loads(one.stdout)["ok"] is True
    )
    report(capsys, 9, ok,
           f"verify --g 3 --n 3 JSON byte-identical across parallelism 1 and 8 "
           f"({len(one.stdout)} bytes)")
    assert ok
