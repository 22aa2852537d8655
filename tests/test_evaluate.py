import itertools
import random
import re
from fractions import Fraction

import pytest

from tautring import (
    DegreeError,
    EvaluationError,
    Evaluator,
    KappaTable,
    KappaTableError,
    Monomial,
    NonTermination,
    Normalizer,
    Polynomial,
    RingContext,
    diag,
    enumerate_basis,
    evaluate_free,
    exc,
    kappa,
    parse_monomial,
    point_k,
    socle_monomial,
)
from tautring.core import canonical_monomial, packed_keys, relabel_monomial
from tautring.evaluate import socle_raw_value
from tautring.pairing import dual_label

from conftest import oracle_normal_form


def mono(*syms):
    return Monomial.from_symbols(*syms)


# -- kappa tables ---------------------------------------------------------------


def test_builtin_tables():
    t2 = KappaTable.builtin(2)
    assert t2.value(()) == 1
    t3 = KappaTable.builtin(3)
    assert t3.value((1,)) == 1
    with pytest.raises(KappaTableError):
        KappaTable.builtin(4)


def test_table_load(tmp_path):
    p = tmp_path / "g4.tbl"
    p.write_text("# genus 4 sample\n2=1\n1,1=7/5\n")
    t = KappaTable.load(4, p)
    assert t.value((2,)) == 1
    assert t.value((1, 1)) == Fraction(7, 5)
    assert t.value([1, 1]) == Fraction(7, 5)   # order-insensitive lookup
    assert t.items() == (((1, 1), Fraction(7, 5)), ((2,), Fraction(1)))


@pytest.mark.parametrize("body,hint", [
    ("2=1\n", "missing"),                      # (1,1) absent
    ("2=1\n1,1=7/5\n1,1=7/5\n", "duplicate"),
    ("2=1\n1,1=7/5\n3=1\n", "sum"),            # 3 != g-2
    ("2=2\n1,1=7/5\n", "one-part"),            # top partition must be 1
    ("2=oops\n1,1=7/5\n", ":2:"),              # line number in message
    ("just text\n", ":1:"),
])
def test_table_load_rejects(tmp_path, body, hint):
    p = tmp_path / "bad.tbl"
    p.write_text(body)
    with pytest.raises(KappaTableError) as err:
        KappaTable.load(4, p)
    assert hint.strip(":") in str(err.value) or hint in str(err.value)


def test_table_value_rejects_junk():
    with pytest.raises(KappaTableError):
        KappaTable.builtin(2).value((1,))


# -- socle ------------------------------------------------------------------------


def test_socle_monomial_shapes():
    c2, m2 = socle_monomial(RingContext(2, 2))
    assert c2 == 2 and m2 == mono(point_k(1), point_k(2))
    c3, m3 = socle_monomial(RingContext(3, 2))
    assert c3 == 1 and m3 == mono(kappa(1), point_k(1), point_k(2))


def test_socle_raw_value():
    assert socle_raw_value(RingContext(2, 2), 2) == 8    # (2g-2)^(n+1)
    assert socle_raw_value(RingContext(3, 2), 2) == 16   # (2g-2)^n


@pytest.mark.parametrize("g", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_socle_evaluates_to_one(g, n):
    ctx = RingContext(g, n)
    scal, m = socle_monomial(ctx)
    assert scal * evaluate_free(ctx, KappaTable.builtin(g), m) == 1


def test_socle_with_custom_table(tmp_path):
    p = tmp_path / "g4.tbl"
    p.write_text("2=1\n1,1=7/5\n")
    ctx = RingContext(4, 3)
    scal, m = socle_monomial(ctx)
    assert scal * evaluate_free(ctx, KappaTable.load(4, p), m) == 1


# -- contraction oracles -----------------------------------------------------------
#
# Hand-derived values for genus 2 with two markings (top degree 2, socle
# divisor (2g-2)^3 = 8).  For example K1*K2: contracting 2 sends K2 to the
# degree-0 kappa scalar 2, contracting 1 sends K1 to 2; raw value 4, so the
# normalized value is 4/8 = 1/2.  K1^2 contracts to kappa_1, which vanishes
# in genus 2.


G2N2_VALUES = [
    ("K1*K2", Fraction(1, 2)),
    ("d(1,2)*K1", Fraction(1, 4)),
    ("d(1,2)*K2", Fraction(1, 4)),
    ("d(1,2)^2", Fraction(-1, 4)),
    ("K1^2", Fraction(0)),
    ("K2^2", Fraction(0)),
]


@pytest.mark.parametrize("text,val", G2N2_VALUES)
def test_g2n2_contraction_oracles(text, val):
    ctx = RingContext(2, 2)
    m = parse_monomial(ctx, text)
    assert evaluate_free(ctx, KappaTable.builtin(2), m) == val


G3N1_VALUES = [
    ("k1*K1", Fraction(1)),
    ("K1^2", Fraction(1, 4)),   # K1^2 -> kappa_1, worth 1, over (2g-2)^1
    ("K1^3", None),             # wrong degree
]


def test_g3n1_contraction_oracles():
    ctx = RingContext(3, 1)
    t = KappaTable.builtin(3)
    assert evaluate_free(ctx, t, parse_monomial(ctx, "k1*K1")) == 1
    assert evaluate_free(ctx, t, parse_monomial(ctx, "K1^2")) == Fraction(1, 4)


def test_diag_power_sign():
    # the anchor diagonal contributes (-1)^(e-1) K^(e-1)
    ctx = RingContext(2, 3)
    t = KappaTable.builtin(2)
    m = parse_monomial(ctx, "d(1,2)^2*K3")
    # contract 3: K3 -> k0 = 2; contract 2: d(1,2)^2 -> -K1; contract 1: K1 -> 2
    assert evaluate_free(ctx, t, m) == Fraction(2 * -1 * 2, 16)


@pytest.mark.parametrize("g,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_contraction_order_invariance(g, n):
    ctx = RingContext(g, n)
    t = KappaTable.builtin(g)
    pool = (
        [kappa(i) for i in range(1, g - 1)]
        + [point_k(i) for i in ctx.markings]
        + [diag(i, j) for i, j in itertools.combinations(ctx.markings, 2)]
    )
    import random
    rng = random.Random(5)
    for _ in range(25):
        syms = [rng.choice(pool) for _ in range(ctx.top_degree)]
        m = mono(*syms)
        if m.degree != ctx.top_degree:
            continue
        vals = {
            evaluate_free(ctx, t, m, order=perm)
            for perm in itertools.permutations(ctx.markings)
        }
        assert len(vals) == 1


# -- the full pipeline ---------------------------------------------------------------


def test_evaluator_handles_exceptional_factors():
    ctx = RingContext(2, 3)
    ev = Evaluator(ctx)
    m = parse_monomial(ctx, "K1*D(1,2,3)^2")
    assert ev.evaluate_monomial(m) == Fraction(-1, 8)


def test_evaluator_memoizes():
    ctx = RingContext(2, 2)
    ev = Evaluator(ctx)
    m = parse_monomial(ctx, "K1*K2")
    assert ev.evaluate_monomial(m) == Fraction(1, 2)
    assert m in ev._memo
    assert ev.evaluate_monomial(m) == Fraction(1, 2)


def test_evaluator_evaluate_polynomial():
    ctx = RingContext(2, 2)
    ev = Evaluator(ctx)
    from tautring import parse_polynomial
    p = parse_polynomial(ctx, "2 K1*K2 - 4 d(1,2)*K1")
    assert ev.evaluate(p) == 2 * Fraction(1, 2) - 4 * Fraction(1, 4)


# -- error paths -----------------------------------------------------------------------


def test_degree_errors():
    ctx = RingContext(2, 2)
    ev = Evaluator(ctx)
    with pytest.raises(DegreeError):
        ev.evaluate_monomial(parse_monomial(ctx, "K1"))
    with pytest.raises(DegreeError):
        evaluate_free(ctx, KappaTable.builtin(2), parse_monomial(ctx, "K1"))


def test_exceptional_factor_rejected_by_free_evaluation():
    ctx = RingContext(2, 3)
    m = parse_monomial(ctx, "D(1,2,3)*K1^2")
    with pytest.raises(EvaluationError):
        evaluate_free(ctx, KappaTable.builtin(2), m)


def test_markings_outside_subset_rejected():
    ctx = RingContext(2, 3)
    m = parse_monomial(ctx, "K1*K3")
    with pytest.raises(EvaluationError):
        evaluate_free(ctx, KappaTable.builtin(2), m, markings=(1, 2))


def test_bad_contraction_order_rejected():
    ctx = RingContext(2, 2)
    m = parse_monomial(ctx, "K1*K2")
    with pytest.raises(ValueError):
        evaluate_free(ctx, KappaTable.builtin(2), m, order=(1, 1))


def test_table_genus_mismatch():
    with pytest.raises(KappaTableError):
        Evaluator(RingContext(2, 2), table=KappaTable.builtin(3))


def test_marking_subset_evaluation():
    # evaluating over S = {1, 2} at n = 3 uses degree g - 2 + |S|
    ctx = RingContext(2, 3)
    t = KappaTable.builtin(2)
    m = parse_monomial(ctx, "K1*K2")
    assert evaluate_free(ctx, t, m, markings=(1, 2)) == Fraction(1, 2)


# -- one evaluation per S_n orbit ------------------------------------------------------


def _sample_products(ctx, count, seed, exceptional=False):
    """Products of standard monomials of complementary degrees, as the
    pairing matrices form them.  With ``exceptional``, only products inside
    a diagonal block with a nonempty exceptional part."""
    rng = random.Random(seed)
    top = ctx.top_degree
    bases = [enumerate_basis(ctx, k) for k in range(top + 1)]
    out = []
    while len(out) < count:
        k = rng.randrange(top + 1)
        r = rng.choice(bases[k])
        cols = bases[top - k]
        if exceptional:
            if not r.dpart.pairs:
                continue
            cols = [c for c in cols if dual_label(c) == r.dpart]
            if not cols:
                continue
        out.append(r.monomial * rng.choice(cols).monomial)
    return out


def _relabelling(perm):
    return {i: v for i, v in enumerate(perm, start=1)}


@pytest.mark.parametrize("g,n", [(2, 3), (2, 4), (3, 4)])
def test_canonical_monomial_picks_one_member_of_each_orbit(g, n):
    ctx = RingContext(g, n)
    for m in _sample_products(ctx, 60, seed=g * 10 + n):
        orbit = {relabel_monomial(m, _relabelling(p)) for p in itertools.permutations(ctx.markings)}
        reps = {canonical_monomial(x, n) for x in orbit}
        assert len(reps) == 1
        rep = reps.pop()
        assert rep in orbit
        assert canonical_monomial(rep, n) is rep


@pytest.mark.parametrize("g,n", [(2, 3), (3, 4), (2, 5)])
def test_orbit_keys_are_the_keys_of_the_relabellings(g, n):
    ctx = RingContext(g, n)
    keys = packed_keys(ctx)
    seed = g * 10 + n
    sample = _sample_products(ctx, 60, seed) + _sample_products(ctx, 20, seed, exceptional=True)
    for m in sample:
        orbit = {keys.key(relabel_monomial(m, _relabelling(p))) for p in itertools.permutations(ctx.markings)}
        assert keys.orbit_keys(m) == orbit
        assert keys.key(m) in orbit


def _value_without_orbits(ctx, table, m):
    nf = oracle_normal_form(Normalizer(ctx), Polynomial.monomial(m))
    return sum((c * evaluate_free(ctx, table, t) for t, c in nf.items()), Fraction(0))


@pytest.mark.parametrize("g,n,count", [(2, 4, 40), (3, 4, 40), (2, 5, 24)])
def test_value_is_invariant_under_relabelling(g, n, count):
    # values each product and one relabelling of it through the recursive
    # normal form of conftest, so neither an asymmetry in the normalizer nor
    # a slip in the evaluator's walk over the rewrite graph can hide behind
    # the orbit memo or the values memoized by earlier products.  Most
    # products vanish, and nonzero ones with exceptional factors sit in the
    # diagonal blocks, so the sample keeps `count` nonzero products, half as
    # many nonzero ones with exceptional factors and a quarter as many zeros.
    ctx = RingContext(g, n)
    table = KappaTable.builtin(g)
    ev = Evaluator(ctx)
    seed = g * 10 + n
    products = _sample_products(ctx, 20 * count, seed)
    blocks = _sample_products(ctx, 4 * count, seed, exceptional=True)
    sample = (
        [m for m in products if ev.evaluate_monomial(m)][:count]
        + [m for m in blocks if ev.evaluate_monomial(m)][:count // 2]
        + [m for m in products if not ev.evaluate_monomial(m)][:count // 4]
    )
    assert len(sample) == count + count // 2 + count // 4
    rng = random.Random(seed)
    for m in sample:
        perm = list(ctx.markings)
        rng.shuffle(perm)
        moved = relabel_monomial(m, _relabelling(perm))
        value = ev.evaluate_monomial(m)
        assert _value_without_orbits(ctx, table, m) == value
        assert _value_without_orbits(ctx, table, moved) == value


def test_evaluator_memoizes_under_the_representative():
    ctx = RingContext(2, 3)
    ev = Evaluator(ctx)
    m = parse_monomial(ctx, "K1*d(2,3)*D(1,2,3)")
    rep = canonical_monomial(m, 3)
    assert rep != m
    value = ev.evaluate_monomial(m)
    assert ev._memo[m] == ev._memo[rep] == value


def test_evaluation_error_names_the_monomial_asked_for():
    ctx = RingContext(2, 3)
    ev = Evaluator(ctx, normalizer=Normalizer(ctx, max_steps=1))
    m = parse_monomial(ctx, "K1*d(2,3)*D(1,2,3)")
    assert canonical_monomial(m, 3) != m
    with pytest.raises(NonTermination, match=re.escape(repr(m))):
        ev.evaluate_monomial(m)
