import itertools

import pytest

from tautring import (
    EMPTY_FOREST,
    Monomial,
    RingContext,
    build_forest,
    diag,
    dual_forest,
    enumerate_basis,
    exc,
    kappa,
    marking_set,
    point_k,
    standard_info,
)
from tautring.forest import (
    apart_in_cluster_form,
    admissible_dparts,
    cluster_monomials,
    dpart_monomial,
    dpart_sort_key,
    filtration_level,
    laminar_families,
    less_sets,
    ll_monomials,
    nested_or_disjoint,
)


def mono(*syms):
    return Monomial.from_symbols(*syms)


# -- forest construction ------------------------------------------------------


def test_empty_forest():
    ctx = RingContext(2, 3)
    f = build_forest(ctx, mono(point_k(1)))
    assert f is EMPTY_FOREST
    assert f.epsilon() == 0
    assert marking_set(ctx, f) == frozenset({1, 2, 3})


def test_single_vertex():
    ctx = RingContext(2, 4)
    f = build_forest(ctx, mono(exc((1, 2, 3))))
    assert f.vertices == (((1, 2, 3), 1),)
    assert f.roots == (0,)
    assert f.edges == ()
    assert f.bound_total(0) == 2       # |I| - 0 + 0 - 1
    assert f.exponent_bound(0) == 1    # min(|I| - 2, B - 1)
    assert f.epsilon() == 3


def test_nested_chain():
    ctx = RingContext(2, 4)
    f = build_forest(ctx, mono(exc((1, 2, 3)), exc((1, 2, 3, 4))))
    # vertices sorted smallest set first, so 0 = (1,2,3), 1 = (1,2,3,4)
    assert f.vertex_set(0) == (1, 2, 3)
    assert f.vertex_set(1) == (1, 2, 3, 4)
    assert f.edges == ((1, 0),)
    assert f.roots == (1,)
    assert f.parent == (1, None)
    assert f.depth == (1, 0)
    # outer vertex: B = 4 - 3 + 1 - 1 = 1, so no standard exponent exists
    assert f.bound_total(1) == 1
    assert f.exponent_bound(1) == 0
    assert f.epsilon() == 4 + 1


def test_nested_chain_with_slack():
    ctx = RingContext(2, 5)
    f = build_forest(ctx, mono(exc((1, 2, 3)), exc((1, 2, 3, 4, 5))))
    outer = f.roots[0]
    assert f.vertex_set(outer) == (1, 2, 3, 4, 5)
    assert f.bound_total(outer) == 2    # 5 - 3 + 1 - 1
    assert f.exponent_bound(outer) == 1


def test_overlap_is_zero_class():
    ctx = RingContext(2, 4)
    assert build_forest(ctx, mono(exc((1, 2, 3)), exc((2, 3, 4)))) is None
    assert nested_or_disjoint(frozenset({1, 2, 3}), frozenset({4, 5, 6}))
    assert nested_or_disjoint(frozenset({1, 2}), frozenset({1, 2, 3}))
    assert not nested_or_disjoint(frozenset({1, 2, 3}), frozenset({3, 4, 5}))


def test_two_roots():
    ctx = RingContext(2, 6)
    f = build_forest(ctx, mono(exc((1, 2, 3)), exc((4, 5, 6))))
    assert len(f.roots) == 2
    assert f.edges == ()
    assert f.epsilon() == 6


# -- marking set --------------------------------------------------------------


def test_marking_set_complement_mode():
    ctx = RingContext(2, 4)
    f = build_forest(ctx, mono(exc((1, 2, 3))))
    assert marking_set(ctx, f) == frozenset({1, 4})


def test_marking_set_two_roots():
    ctx = RingContext(2, 6)
    f = build_forest(ctx, mono(exc((1, 2, 3)), exc((4, 5, 6))))
    assert marking_set(ctx, f) == frozenset({1, 4})


# -- preorders and layout keys ------------------------------------------------


def test_less_sets():
    assert less_sets({1, 2, 3}, {1, 2})            # bigger set is smaller
    assert not less_sets({1, 2}, {1, 2, 3})
    assert less_sets({1, 2, 3}, {1, 2, 4})         # equal size, distinct: both ways
    assert less_sets({1, 2, 4}, {1, 2, 3})
    assert not less_sets({1, 2, 3}, {1, 2, 3})


def test_ll_monomials_conventions():
    w = mono(exc((1, 2, 3, 4)))
    v = mono(exc((1, 2, 3)))
    free = mono(point_k(1))
    assert ll_monomials(w, v)
    assert not ll_monomials(v, w)
    assert ll_monomials(free, v)       # exceptional-free left side: always below
    assert ll_monomials(free, free)
    assert not ll_monomials(v, free)   # only right side free: never


def test_dpart_sort_key_orders_big_sets_first():
    a = dpart_sort_key(mono(exc((1, 2, 3, 4))))
    b = dpart_sort_key(mono(exc((1, 2, 3))))
    assert a < b
    assert dpart_sort_key(mono(point_k(1))) == ()
    sq = dpart_sort_key(Monomial.from_pairs([(exc((1, 2, 3)), 2)]))
    assert sq == ((-3, (1, 2, 3)), (-3, (1, 2, 3)))


# -- cluster form ---------------------------------------------------------------


@pytest.mark.parametrize("m", [
    mono(),
    mono(point_k(1)),
    mono(point_k(1), point_k(3)),
    mono(kappa(1), point_k(2)),
    mono(diag(1, 2)),
    mono(diag(1, 2), point_k(1)),
    mono(diag(1, 2), diag(1, 3)),
    mono(diag(1, 2), diag(3, 4)),
    mono(diag(2, 3)),
])
def test_cluster_form_accepts(m):
    assert apart_in_cluster_form(m)


@pytest.mark.parametrize("m", [
    Monomial.from_pairs([(diag(1, 2), 2)]),
    mono(diag(1, 2), diag(2, 3)),   # path, not a star at the minimum
    mono(diag(1, 3), diag(2, 3)),   # star anchored at the maximum
    mono(diag(1, 2), point_k(2)),   # K on a non-minimal block element
])
def test_cluster_form_rejects(m):
    assert not apart_in_cluster_form(m)


# -- standardness ---------------------------------------------------------------


def test_standard_info_basic():
    ctx = RingContext(2, 4)
    sm = standard_info(ctx, mono(exc((1, 2, 3))))
    assert sm is not None
    assert sm.S == frozenset({1, 4})
    assert sm.p == 2                     # 0 + 3 - 1
    assert sm.degree == 1
    sm2 = standard_info(ctx, mono(point_k(1), exc((1, 2, 3))))
    assert sm2 is not None and sm2.p == 3


@pytest.mark.parametrize("g,n,m", [
    (2, 3, Monomial.from_pairs([(exc((1, 2, 3)), 2)])),   # exponent over bound
    (2, 4, mono(exc((1, 2, 3)), exc((1, 2, 3, 4)))),      # outer bound 0
    (2, 3, mono(point_k(2), exc((1, 2, 3)))),             # K index outside S
    (2, 3, Monomial.from_pairs([(point_k(1), 2), (exc((1, 2, 3)), 1)])),  # over cap
    (3, 3, mono(kappa(2))),                               # kappa index over g - 2
    (2, 4, mono(exc((1, 2, 3)), exc((2, 3, 4)))),         # overlapping sets
    (2, 3, mono(diag(1, 2), point_k(2))),                 # not cluster form
])
def test_not_standard(g, n, m):
    assert not standard_info(RingContext(g, n), m) is not None


def test_standard_degree_cap_uses_marking_set():
    # S = {1} under D(1,2,3) at n = 3, so the a-part degree cap is g - 2 + 1
    m = Monomial.from_pairs([(point_k(1), 2), (exc((1, 2, 3)), 1)])
    assert not standard_info(RingContext(2, 3), m) is not None


def test_filtration_level():
    ctx = RingContext(2, 6)
    f = build_forest(ctx, mono(exc((1, 2, 3)), exc((4, 5, 6))))
    assert filtration_level(0, f) == 3 + 3 - 2
    assert filtration_level(2, f) == 6


# -- enumeration ---------------------------------------------------------------


def _brute_laminar(n):
    cand = [frozenset(c) for size in range(3, n + 1)
            for c in itertools.combinations(range(1, n + 1), size)]
    count = 0
    for r in range(len(cand) + 1):
        for fam in itertools.combinations(cand, r):
            if all(nested_or_disjoint(a, b) for a, b in itertools.combinations(fam, 2)):
                count += 1
    return count


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_laminar_families_match_brute_force(n):
    fams = laminar_families(n)
    assert len(fams) == _brute_laminar(n)
    assert len(set(fams)) == len(fams)


def test_laminar_family_counts_frozen():
    assert [len(laminar_families(n)) for n in (1, 2, 3, 4, 5)] == [1, 1, 2, 10, 72]


def test_admissible_dparts_sorted_and_unique():
    ctx = RingContext(2, 4)
    dps = admissible_dparts(ctx)
    keys = [dpart_sort_key(dpart_monomial(f)) for f in dps]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    assert any(f is EMPTY_FOREST or not f.vertices for f in dps)


def test_dual_forest_involution():
    for n in (3, 4, 5):
        ctx = RingContext(2, n)
        for f in admissible_dparts(ctx):
            g = dual_forest(f)
            assert g.edges == f.edges and g.roots == f.roots
            assert dual_forest(g) == f


def test_dual_forest_rejects_saturated_exponent():
    ctx = RingContext(2, 3)
    f = build_forest(ctx, Monomial.from_pairs([(exc((1, 2, 3)), 2)]))
    with pytest.raises(ValueError):
        dual_forest(f)  # exponent 2 >= B = 2


def test_dual_forest_swaps_exponents():
    ctx = RingContext(2, 4)
    f = build_forest(ctx, Monomial.from_pairs([(exc((1, 2, 3, 4)), 1)]))
    assert dual_forest(f).exponent(0) == 2       # B = 3
    f2 = build_forest(ctx, Monomial.from_pairs([(exc((1, 2, 3, 4)), 2)]))
    assert dual_forest(f2).exponent(0) == 1


# -- cluster monomial counting ---------------------------------------------------


def test_cluster_monomials_small():
    ctx = RingContext(2, 2)
    ms = cluster_monomials(ctx, (1, 2), 2)
    assert set(ms) == {
        Monomial.from_pairs([(point_k(1), 2)]),
        Monomial.from_pairs([(point_k(2), 2)]),
        mono(point_k(1), point_k(2)),
        mono(diag(1, 2), point_k(1)),
    }
    assert len(ms) == 4


def test_cluster_monomials_degree_zero():
    ctx = RingContext(2, 3)
    assert cluster_monomials(ctx, (1, 2, 3), 0) == (mono(),)


def test_cluster_monomials_include_kappa():
    ctx = RingContext(3, 1)
    ms = cluster_monomials(ctx, (1,), 2)
    assert mono(kappa(1), point_k(1)) in ms
    assert Monomial.from_pairs([(point_k(1), 2)]) in ms


# -- basis enumeration ------------------------------------------------------------


BASIS_SIZES = {
    (2, 1): [1, 1],
    (2, 2): [1, 3, 4],
    (2, 3): [1, 7, 14, 20],
    (2, 4): [1, 15, 49, 88, 117],
    (3, 1): [1, 2, 3],
    (3, 2): [1, 4, 8, 13],
    (3, 3): [1, 8, 22, 43, 68],
    (3, 4): [1, 16, 65, 154, 289, 409],
}


@pytest.mark.parametrize("g,n", sorted(BASIS_SIZES))
def test_basis_sizes_frozen(g, n):
    ctx = RingContext(g, n)
    assert [len(enumerate_basis(ctx, k)) for k in range(ctx.top_degree + 1)] \
        == BASIS_SIZES[(g, n)]


@pytest.mark.parametrize("g,n", [(2, 3), (3, 2), (2, 4)])
def test_basis_elements_are_standard_and_unique(g, n):
    ctx = RingContext(g, n)
    for k in range(ctx.top_degree + 1):
        basis = enumerate_basis(ctx, k)
        monos = [sm.monomial for sm in basis]
        assert len(set(monos)) == len(monos)
        for sm in basis:
            assert sm.monomial.degree == k
            assert standard_info(ctx, sm.monomial) is not None
            assert sm.p <= ctx.top_degree


@pytest.mark.parametrize("g,n", [(2, 3), (3, 3), (2, 4)])
def test_top_degree_basis_is_exceptional_free(g, n):
    ctx = RingContext(g, n)
    for sm in enumerate_basis(ctx, ctx.top_degree):
        assert not sm.monomial.exc_items()
        assert sm.S == frozenset(ctx.markings)


def test_basis_dpart_groups_contiguous(ctx23):
    for k in range(ctx23.top_degree + 1):
        keys = [dpart_sort_key(sm.monomial) for sm in enumerate_basis(ctx23, k)]
        assert keys == sorted(keys)


def test_basis_exhaustive_against_filter(ctx23):
    """Cross-check enumerate_basis against brute-force standardness at k=2."""
    from tautring.forest import _cluster_monomials_cached  # noqa: F401
    basis = {sm.monomial for sm in enumerate_basis(ctx23, 2)}
    # brute force: all monomials from symbol pool with degree 2
    pool = (
        [point_k(i) for i in (1, 2, 3)]
        + [diag(i, j) for i, j in itertools.combinations((1, 2, 3), 2)]
        + [exc((1, 2, 3))]
    )
    seen = set()
    for a, b in itertools.combinations_with_replacement(pool, 2):
        m = Monomial.from_symbols(a, b)
        if standard_info(ctx23, m) is not None:
            seen.add(m)
    assert seen == basis
