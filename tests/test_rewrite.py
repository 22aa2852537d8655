import itertools
import random
from fractions import Fraction

import pytest

from tautring import (
    Certificate,
    Evaluator,
    Monomial,
    NonTermination,
    Normalizer,
    Polynomial,
    ReductionStuck,
    RingContext,
    diag,
    exc,
    kappa,
    pairing_matrix,
    parse_polynomial,
    point_k,
)
from tautring.rewrite import (
    apply_step,
    derived_pair_class,
    instance_CD,
    instance_CK,
    instance_CS,
    instance_R1a,
    instance_R1b,
    instance_R2,
    instance_R3,
    instance_V0,
    instance_V1,
    relation_step,
    superset_sum,
    vertex_reduction,
)
from tautring.forest import build_forest, standard_info

from conftest import oracle_normal_form


def mono(*syms):
    return Monomial.from_symbols(*syms)


# -- relation instance builders -----------------------------------------------


def test_superset_sum():
    ctx = RingContext(2, 4)
    s = superset_sum(ctx, (1, 2))
    expected = {mono(exc((1, 2, 3))), mono(exc((1, 2, 4))), mono(exc((1, 2, 3, 4)))}
    assert {m for m, _ in s.items()} == expected
    assert all(c == 1 for _, c in s.items())
    # a three-element base includes the set itself
    s3 = superset_sum(ctx, (1, 2, 3))
    assert {m for m, _ in s3.items()} == {mono(exc((1, 2, 3))), mono(exc((1, 2, 3, 4)))}


def test_derived_pair_class():
    ctx = RingContext(2, 3)
    p = derived_pair_class(ctx, 1, 2)
    assert p.coeff(mono(diag(1, 2))) == 1
    assert p.coeff(mono(exc((1, 2, 3)))) == -1
    assert len(p) == 2


@pytest.mark.parametrize("builder,args", [
    (instance_R1a, ((1, 2, 3), 1, 1)),       # i == j
    (instance_R1a, ((1, 2, 3), 1, 4)),       # j outside I
    (instance_R1b, ((1, 2, 3), 1, 2, 3)),    # k inside I
    (instance_R1b, ((1, 2, 3), 4, 2, 5)),    # i outside I
    (instance_R2, ((1, 2),)),                # too small
    (instance_R3, ((3, 4),)),                # block of size one
    (instance_R3, ((2,),)),                  # head set too small
    (instance_R3, ((3, 3),)),                # not strictly increasing
    (instance_R3, ((2, 1),)),
    (instance_V0, ((1, 2, 3), (1, 2, 3, 4))),  # nested: no shape vanishing
    (instance_V0, ((1, 2, 3), (1, 2, 3))),
    (instance_CS, (2, 1)),
    (instance_CK, (2, 2)),
    (instance_CD, (1, 2, 2)),
])
def test_builders_reject_bad_input(builder, args):
    ctx = RingContext(2, 5)
    with pytest.raises(ValueError):
        builder(ctx, *args)


def test_v1_reasons():
    ctx = RingContext(2, 2)
    inst = instance_V1(ctx, "kappa", mono(kappa(1)))
    assert inst.family == "V1"
    with pytest.raises(ValueError):
        instance_V1(ctx, "mystery", mono(kappa(1)))


@pytest.mark.parametrize("n,rseq,head,blocks,B", [
    (3, (3,), (1, 2, 3), [], 2),
    (4, (4,), (1, 2, 3, 4), [], 3),
    (4, (1, 4), (1, 2, 3, 4), [(2, 3, 4)], 1),
    (5, (2, 5), (1, 2, 3, 4, 5), [(3, 4, 5)], 2),
])
def test_r3_leading_coefficient(n, rseq, head, blocks, B):
    """D(I0)^B * prod D(Ij) carries coefficient (-1)^B, B = r1 - 1 + k."""
    ctx = RingContext(2, n)
    inst = instance_R3(ctx, rseq)
    target = Monomial.from_pairs([(exc(head), B)] + [(exc(b), 1) for b in blocks])
    assert inst.poly.coeff(target) == (-1) ** B


def test_r3_relabel():
    ctx = RingContext(2, 4)
    ident = instance_R3(ctx, (1, 4))
    sigma = (2, 3, 4, 1)
    moved = instance_R3(ctx, (1, 4), sigma=sigma)
    from tautring import relabel
    assert relabel(ctx, ident.poly, sigma) == moved.poly


def test_describe_is_jsonable():
    import json
    ctx = RingContext(2, 4)
    inst = instance_R1a(ctx, (1, 2, 3), 1, 2)
    text = json.dumps(inst.describe())
    assert "R1a" in text


# -- every relation normalizes to zero ------------------------------------------


def _all_instances(ctx):
    n = ctx.n
    marks = list(ctx.markings)
    out = []
    for size in (3, 4):
        for I in itertools.combinations(marks, size):
            for i, j in itertools.permutations(I, 2):
                out.append(instance_R1a(ctx, I, i, j))
            for k in marks:
                if k not in I:
                    for i, j in itertools.permutations(I, 2):
                        out.append(instance_R1b(ctx, I, i, j, k))
            out.append(instance_R2(ctx, I))
            out.append(instance_R2(ctx, I, pivot=I[-1]))
    # overlapping pairs for V0
    for I in itertools.combinations(marks, 3):
        for J in itertools.combinations(marks, 3):
            if I < J and not (set(I) <= set(J) or set(J) <= set(I) or not set(I) & set(J)):
                out.append(instance_V0(ctx, I, J))
    # R3 sequences
    for rseq in [(3,), (1, 3), (4,), (1, 4), (2, 4), (1, 4) if n >= 4 else (3,)]:
        if rseq[-1] <= n:
            try:
                out.append(instance_R3(ctx, rseq))
            except ValueError:
                pass
    for i, j in itertools.combinations(marks, 2):
        out.append(instance_CS(ctx, i, j))
        out.append(instance_CK(ctx, i, j))
    for i, j, k in itertools.permutations(marks, 3):
        out.append(instance_CD(ctx, i, j, k))
    return out


@pytest.mark.parametrize("g,n", [(2, 3), (3, 3), (2, 4)])
@pytest.mark.parametrize("pivot", ["min", "max"])
def test_relations_normalize_to_zero(g, n, pivot):
    ctx = RingContext(g, n)
    nz = Normalizer(ctx, pivot=pivot)
    for inst in _all_instances(ctx):
        assert nz.normalize(inst.poly).is_zero, inst.describe()


# -- normal form oracle ----------------------------------------------------------


def test_normalize_square_oracle():
    """D(1,2,3)^2 at (g, n) = (2, 3) reduces to -2 K1 D(1,2,3) - d(1,2) d(1,3).

    Hand derivation: apply the vertex reduction for the over-bound vertex
    (B = 2), then clean up with the pair relations; the result is standard.
    """
    ctx = RingContext(2, 3)
    nz = Normalizer(ctx)
    src = Polynomial.monomial(Monomial.from_pairs([(exc((1, 2, 3)), 2)]))
    out = nz.normalize(src)
    assert out == parse_polynomial(ctx, "-2 K1*D(1,2,3) - d(1,2)*d(1,3)")


def test_normalize_v0_kill():
    nz = Normalizer(RingContext(2, 4))
    m = mono(exc((1, 2, 3)), exc((2, 3, 4)))
    assert nz.normalize(Polynomial.monomial(m)).is_zero


def test_normalize_kappa_kill(ctx23):
    nz = Normalizer(ctx23)
    assert nz.normalize(Polynomial.monomial(mono(kappa(1)))).is_zero


def test_normalize_degree_kill():
    # degree above the cap with all indices inside S dies by the dimension cut
    ctx = RingContext(2, 1)
    nz = Normalizer(ctx)
    m = Monomial.from_pairs([(point_k(1), 2)])
    assert nz.normalize(Polynomial.monomial(m)).is_zero


def test_normalize_fixes_standard(ctx23):
    nz = Normalizer(ctx23)
    for text in ["K1", "d(1,2)", "K1*D(1,2,3)", "d(1,2)*d(1,3)"]:
        p = parse_polynomial(ctx23, text)
        assert nz.normalize(p) == p


# -- certificates ---------------------------------------------------------------


def test_certificate_replay_simple():
    ctx = RingContext(2, 3)
    nz = Normalizer(ctx)
    src = Polynomial.monomial(Monomial.from_pairs([(exc((1, 2, 3)), 2)]))
    out, cert = nz.normalize(src, record=True)
    assert isinstance(cert, Certificate)
    assert len(cert.steps) >= 1
    assert cert.verify(src, out)
    assert cert.residual(src, out).is_zero
    # tampering with the output breaks verification
    bad = out + Polynomial.monomial(mono(point_k(1)))
    assert not cert.verify(src, bad)


def test_certificate_describe():
    ctx = RingContext(2, 3)
    nz = Normalizer(ctx)
    src = parse_polynomial(ctx, "d(1,2)^2")
    out, cert = nz.normalize(src, record=True)
    d = cert.describe()
    assert d["steps"]
    assert all("family" in s and "quotient" in s and "coeff" in s for s in d["steps"])


def test_recorded_matches_memoized(ctx23):
    nz = Normalizer(ctx23)
    rng = random.Random(7)
    pool = (
        [point_k(i) for i in (1, 2, 3)]
        + [diag(i, j) for i, j in itertools.combinations((1, 2, 3), 2)]
        + [exc((1, 2, 3))]
    )
    for _ in range(60):
        syms = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        src = Polynomial.monomial(mono(*syms), Fraction(rng.randint(-4, 4) or 1))
        expected = oracle_normal_form(Normalizer(ctx23), src)
        fast = nz.normalize(src)
        slow, cert = nz.normalize(src, record=True)
        assert fast == slow == expected
        assert cert.verify(src, slow)


def test_certificate_over_a_warm_memo_matches_a_fresh_one():
    """A certified run over a graph memoized by earlier plain normalizations
    and an evaluator fill finds the steps of those monomials again and
    writes the same certificate as a fresh normalizer."""
    ctx = RingContext(2, 4)
    src = parse_polynomial(
        ctx, "D(1,2,3)^2*D(1,2,3,4)^2 + 2 d(1,2)*D(1,2,3,4)^3 - K4*D(2,3,4)^3"
    )
    warm = Normalizer(ctx)
    warm.normalize(parse_polynomial(ctx, "D(1,2,3,4)^4 + D(2,3,4)^3*K1"))
    pairing_matrix(ctx, 2, Evaluator(ctx, normalizer=warm))
    graph, _ = Normalizer(ctx).rewrite_order(m for m, _ in src.items())
    assert any(warm._memo.get(m) for m in graph)
    out, cert = warm.normalize(src, record=True)
    fresh_out, fresh_cert = Normalizer(ctx).normalize(src, record=True)
    assert out == fresh_out
    assert cert.describe() == fresh_cert.describe()
    assert cert.verify(src, out)
    assert warm._memo


def test_certificate_rewrites_each_monomial_once():
    """The rewrite graph of D(2,4,5)^5 at (3, 5) has 534 distinct monomials
    that take a step; a recorded run that rewrote a monomial again each time
    it was regenerated would need tens of thousands of steps."""
    ctx = RingContext(3, 5)
    src = parse_polynomial(ctx, "D(2,4,5)^5")
    out, cert = Normalizer(ctx, max_steps=1000).normalize(src, record=True)
    assert cert.verify(src, out)
    assert out == Normalizer(ctx).normalize(src)


# -- normal form properties -------------------------------------------------------


@pytest.mark.parametrize("g,n", [(2, 3), (3, 2)])
def test_normalize_properties(g, n):
    ctx = RingContext(g, n)
    nz_min = Normalizer(ctx, pivot="min")
    nz_max = Normalizer(ctx, pivot="max")
    rng = random.Random(20250825)
    pool = (
        [kappa(i) for i in range(1, max(g - 1, 2))]
        + [point_k(i) for i in ctx.markings]
        + [diag(i, j) for i, j in itertools.combinations(ctx.markings, 2)]
        + [exc(c) for size in range(3, n + 1)
           for c in itertools.combinations(ctx.markings, size)]
    )
    for _ in range(120):
        syms = [rng.choice(pool) for _ in range(rng.randint(1, ctx.top_degree))]
        m = mono(*syms)
        src = Polynomial.monomial(m)
        out = nz_min.normalize(src)
        # supported on standard monomials
        for sm, _ in out.items():
            assert standard_info(ctx, sm) is not None
        # idempotent
        assert nz_min.normalize(out) == out
        # pivot-independent
        assert nz_max.normalize(src) == out


def test_normalize_is_linear(ctx23):
    nz = Normalizer(ctx23)
    a = parse_polynomial(ctx23, "D(1,2,3)^2")
    b = parse_polynomial(ctx23, "d(1,2)*D(1,2,3)")
    left = nz.normalize(a + b * Fraction(3, 2))
    right = nz.normalize(a) + nz.normalize(b) * Fraction(3, 2)
    assert left == right


# -- budget and stuck states ------------------------------------------------------


def test_budget_exhaustion():
    ctx = RingContext(2, 3)
    src = Polynomial.monomial(Monomial.from_pairs([(exc((1, 2, 3)), 2)]))
    # a warm step table does not change the budget unit: one per distinct
    # monomial rewritten in the call, not one per step built
    assert not Normalizer(ctx).normalize(src).is_zero
    nz = Normalizer(ctx, max_steps=1)
    with pytest.raises(NonTermination):
        nz.normalize(src)
    # the budget is per call: a fresh call with enough budget succeeds
    nz2 = Normalizer(ctx, max_steps=10 ** 5)
    assert not nz2.normalize(src).is_zero


def test_reduction_stuck_vertex():
    """A root whose children cover every marking leaves no anchor point."""
    ctx = RingContext(2, 6)
    f = build_forest(ctx, mono(exc(range(1, 7)), exc((1, 2, 3)), exc((4, 5, 6))))
    root = next(i for i in f.roots if len(f.vertex_set(i)) == 6)
    with pytest.raises(ReductionStuck):
        vertex_reduction(ctx, f, root)


def test_vertex_reduction_step_applies():
    ctx = RingContext(2, 3)
    m = Monomial.from_pairs([(exc((1, 2, 3)), 2)])
    f = build_forest(ctx, m)
    step = vertex_reduction(ctx, f, 0)
    inst, lead, c_lead = step
    assert lead == m
    assert inst.poly.coeff(lead) == c_lead == 1
    # one rewrite eliminates m and stays inside the ideal:
    # m - apply_step(m) = (1/c_L) * (m/L) * relation
    rewritten = apply_step(m, step)
    assert m not in dict(rewritten.items())
    diff = Polynomial.monomial(m) - rewritten
    assert diff == inst.poly.mul_monomial(m.try_div(lead), Fraction(1) / c_lead)


def test_vertex_reduction_pivot_changes_anchor():
    ctx = RingContext(2, 4)
    m = Monomial.from_pairs([(exc((1, 2, 3, 4)), 3)])
    f = build_forest(ctx, m)
    inst_min, _, _ = vertex_reduction(ctx, f, 0, pivot="min")
    inst_max, _, _ = vertex_reduction(ctx, f, 0, pivot="max")
    assert inst_min.params != inst_max.params


# -- the process-wide step table --------------------------------------------------


def test_step_table_keys_the_pivot():
    """Certifying with pivot "min" first leaves no min-anchored R3 step for
    a later "max" normalizer of the same ring."""
    ctx = RingContext(2, 4)
    src = parse_polynomial(ctx, "D(1,2,3,4)^3")
    f = build_forest(ctx, next(m for m, _ in src.items()))
    by_min = vertex_reduction(ctx, f, 0, pivot="min")[0].params
    by_max = vertex_reduction(ctx, f, 0, pivot="max")[0].params
    assert by_max == ((4,), (4, 1, 2, 3)) != by_min
    r3_params = []
    for pivot in ("min", "max"):
        out, cert = Normalizer(ctx, pivot=pivot).normalize(src, record=True)
        assert cert.verify(src, out)
        r3_params.append({s.instance.params for s in cert.steps if s.instance.family == "R3"})
    assert by_min in r3_params[0] and by_max not in r3_params[0]
    assert by_max in r3_params[1] and by_min not in r3_params[1]


_INSTANCE_BUILDERS = {
    "R1a": instance_R1a,
    "R1b": instance_R1b,
    "R3": instance_R3,
    "V0": instance_V0,
    "V1": instance_V1,
    "CS": instance_CS,
    "CK": instance_CK,
    "CD": instance_CD,
}


def test_step_table_keys_the_ring():
    """Normalizations interleaved over three rings get the steps of their own
    ring: the R3 polynomial depends on the markings through superset_sum."""
    inputs = ["D(1,2,3)^2", "d(1,2)*D(1,2,3)^2", "K2*K3*D(1,2,3)^2", "d(1,2)^2*d(2,3)*K3",
              "d(2,4)*D(1,2,3)^2"]
    rings = [RingContext(2, 3), RingContext(2, 4), RingContext(3, 4)]
    seen = []
    for text in inputs:
        for ctx in rings:
            if "4" in text and ctx.n < 4:
                continue
            nz = Normalizer(ctx)
            _, steps = nz.rewrite_order(m for m, _ in parse_polynomial(ctx, text).items())
            seen.extend((ctx, m, step) for m, step in steps.items())
    assert {step[0].family for _, _, step in seen} >= {"R1a", "R1b", "R3", "V1", "CS", "CK"}
    r3 = {}
    for ctx, m, (inst, lead, c_lead) in seen:
        direct = _INSTANCE_BUILDERS[inst.family](ctx, *inst.params)
        assert inst.poly == direct.poly
        assert inst.poly.coeff(lead) == c_lead != 0
        assert m.try_div(lead) is not None
        if inst.family == "R3":
            r3.setdefault(lead, set()).add(inst.poly)
    # one R3 leading monomial, so one table key but for the ring, has a
    # different polynomial at n = 3 and n = 4
    assert len(r3[Monomial.from_pairs([(exc((1, 2, 3)), 2)])]) == 2
    relation_step.cache_clear()
    for ctx, m, step in seen:
        assert Normalizer(ctx).find_step(m) == step
