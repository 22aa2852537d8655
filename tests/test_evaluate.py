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
    dual_forest,
    enumerate_basis,
    evaluate_free,
    exc,
    kappa,
    parse_monomial,
    parse_polynomial,
    point_k,
    socle_monomial,
)
from tautring.core import packed_keys, relabel_monomial
from tautring.evaluate import socle_raw_value
from tautring.forest import cluster_monomials, dpart_monomial

from conftest import oracle_contract, oracle_normal_form


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
    ("2=1\n1,,1=7/5\n", "bad.tbl:2:"),        # an empty part is not dropped
    ("2=1\n1,1,=7/5\n", "bad.tbl:2:"),
])
def test_table_load_rejects(tmp_path, body, hint):
    p = tmp_path / "bad.tbl"
    p.write_text(body)
    with pytest.raises(KappaTableError) as err:
        KappaTable.load(4, p)
    assert hint.strip(":") in str(err.value) or hint in str(err.value)


def test_table_load_empty_partition(tmp_path):
    p = tmp_path / "g2.tbl"
    p.write_text(" = 1\n")
    assert KappaTable.load(2, p) == KappaTable.builtin(2)


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
    rng = random.Random(5)
    for _ in range(25):
        syms = [rng.choice(pool) for _ in range(ctx.top_degree)]
        m = mono(*syms)
        if m.degree != ctx.top_degree:
            continue
        vals = {
            oracle_contract(ctx, t, m, order=perm)
            for perm in itertools.permutations(ctx.markings)
        }
        assert vals == {evaluate_free(ctx, t, m)}


G4_TABLES = [KappaTable(4, {(2,): 1, (1, 1): Fraction(32, 3)}),
             KappaTable(4, {(2,): 1, (1, 1): Fraction(7, 5)})]
G5_TABLE = KappaTable(5, {(3,): 1, (2, 1): 20, (1, 1, 1): 288})


@pytest.mark.parametrize("g,s,table", [
    (2, 2, None), (2, 3, None), (2, 4, None), (3, 3, None), (3, 4, None),
    (4, 3, G4_TABLES[0]), (4, 3, G4_TABLES[1]), (5, 3, G5_TABLE),
], ids=["2-2", "2-3", "2-4", "3-3", "3-4", "4-3-32/3", "4-3-7/5", "5-3"])
def test_component_formula_is_the_contraction_on_every_reference_product(g, s, table):
    # every product of cluster monomials of complementary degrees on C_g^s,
    # as the block references form them
    ctx = RingContext(g, s)
    table = table or KappaTable.builtin(g)
    top = ctx.top_degree
    bases = [cluster_monomials(ctx, ctx.markings, d) for d in range(top + 1)]
    nonzero = 0
    for d in range(top + 1):
        for a in bases[d]:
            for b in bases[top - d]:
                value = evaluate_free(ctx, table, a * b)
                assert value == oracle_contract(ctx, table, a * b), a * b
                nonzero += bool(value)
    assert nonzero


def _double_factorial(k):
    return 1 if k < 2 else k * _double_factorial(k - 2)


def _psi_constants(g, table=None):
    """The values of psi_1^a psi_2^(g-a), a = 0..g, times
    (2a-1)!! (2(g-a)-1)!!, with psi_i = K_i + d(1,2) on two markings."""
    ctx = RingContext(g, 2)
    ev = Evaluator(ctx, table)
    psi1, psi2 = (parse_polynomial(ctx, f"K{i} + d(1,2)") for i in (1, 2))
    out = set()
    for a in range(g + 1):
        p = Polynomial.one()
        for _ in range(a):
            p = p * psi1
        for _ in range(g - a):
            p = p * psi2
        out.add(ev.evaluate(p) * _double_factorial(2 * a - 1) * _double_factorial(2 * (g - a) - 1))
    return out


@pytest.mark.parametrize("g,table,constant", [
    (2, None, Fraction(3, 4)),
    (3, None, Fraction(15, 16)),
    (4, G4_TABLES[0], Fraction(35, 12)),
    (5, G5_TABLE, Fraction(945, 64)),
], ids=["2", "3", "4", "5"])
def test_psi_integrals_are_one_constant_over_double_factorials(g, table, constant):
    # Faber's lambda_g lambda_(g-1) integrals are proportional to
    # 1 / prod (2d_i - 1)!!, an identity from outside this calculus
    assert _psi_constants(g, table) == {constant}


@pytest.mark.parametrize("table", [
    KappaTable(4, {(2,): 1, (1, 1): Fraction(7, 5)}),
    KappaTable(5, {(3,): 1, (2, 1): 21, (1, 1, 1): 288}),
], ids=["g4-7/5", "g5-21"])
def test_psi_integrals_catch_a_wrong_kappa_table(table):
    assert len(_psi_constants(table.g, table)) == 2


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
        oracle_contract(ctx, KappaTable.builtin(2), m, order=(1, 1))


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
            cols = [c for c in cols if dpart_monomial(dual_forest(c.forest)) == r.dpart]
            if not cols:
                continue
        out.append(r.monomial * rng.choice(cols).monomial)
    return out


def _relabelling(perm):
    return {i: v for i, v in enumerate(perm, start=1)}


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


def test_evaluator_memoizes_the_rewrite_graph_of_the_monomial_given():
    # the memo holds the values of the monomials the walk from the product
    # itself passes through, and of nothing else
    ctx = RingContext(2, 3)
    ev = Evaluator(ctx)
    m = parse_monomial(ctx, "K1*d(2,3)*D(1,2,3)")
    value = ev.evaluate_monomial(m)
    order, _ = ev.normalizer.rewrite_order((m,))
    assert set(ev._memo) == set(order)
    assert ev._memo[m] == value


def test_evaluation_error_names_the_monomial_asked_for():
    ctx = RingContext(2, 3)
    ev = Evaluator(ctx, normalizer=Normalizer(ctx, max_steps=1))
    m = parse_monomial(ctx, "K1*d(2,3)*D(1,2,3)")
    with pytest.raises(NonTermination, match=re.escape(repr(m))) as err:
        ev.evaluate_monomial(m)
    assert str(err.value).count(repr(m)) == 1
