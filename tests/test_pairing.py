import math
import random
from fractions import Fraction

import pytest

from tautring import (
    Evaluator,
    KappaTable,
    Monomial,
    RingContext,
    check_duality_classes,
    conjecture_check,
    evaluate_free,
    exc,
    pairing_matrix,
    parse_monomial,
    verify_triangular,
)
from tautring.core import packed_keys, relabel_monomial
from tautring.evaluate import socle_raw_value
from tautring.linalg import exact_rank
from tautring.forest import admissible_dparts, cluster_monomials, dpart_monomial, dual_forest
from tautring import pairing as pairing_module
from tautring.pairing import (
    all_degree_reports,
    block_constant_reports,
    dual_conjecture_check,
    is_gorenstein,
)

from conftest import (
    dense,
    forced_positions,
    forced_zero,
    get_matrices,
    oracle_contract,
    sparse,
    with_entries,
)


F = Fraction


# -- exact linear algebra -----------------------------------------------------


def test_exact_rank():
    assert exact_rank([]) == 0
    assert exact_rank(sparse([[]])) == 0
    assert exact_rank(sparse([[], []])) == 0
    assert exact_rank(sparse([[F(0), F(0)]])) == 0
    assert exact_rank(sparse([[F(0), F(0)], [F(0), F(0)], [F(0), F(0)]])) == 0
    assert exact_rank(sparse([[F(1, 3), F(2, 3)], [F(1), F(2)]])) == 1
    assert exact_rank(sparse([[F(1), F(0)], [F(0), F(1)]])) == 2
    assert exact_rank(sparse([[F(2), F(3), F(5)], [F(7), F(11), F(13)]])) == 2
    assert exact_rank(sparse([[1, 2], [2, 4], [0, 3]])) == 2


@pytest.mark.parametrize("rows,rank", [
    ([[], [F(1)]], 1),
    ([[F(1)], []], 1),
    ([[F(1), F(0)], [F(1)]], 1),
    ([[F(0), F(0)], [F(0)]], 0),
    ([[F(1), F(2)], [F(2), F(4)], [F(1), F(2), F(3)]], 2),
    ([[F(0), F(1)], [F(0), F(1)]], 1),
], ids=[f"rows{i}" for i in range(6)])
def test_exact_rank_ignores_zero_values(rows, rank):
    # sparse rows have no width, and a zero value given anyway is no pivot
    assert exact_rank([dict(enumerate(row)) for row in rows]) == rank


def _bareiss_rank(rows):
    """Reference rank: dense fraction-free Bareiss elimination on the sparse
    rows laid out with one column past the largest, each row scaled by the
    lcm of its denominators."""
    width = 1 + max((j for row in rows for j in row), default=-1)
    M = []
    for row in dense(rows, width):
        den = math.lcm(*(F(x).denominator for x in row)) if row else 1
        M.append([int(F(x) * den) for x in row])
    if not M or not M[0]:
        return 0
    n_rows, n_cols = len(M), len(M[0])
    rank = 0
    prev = 1
    for c in range(n_cols):
        pivot = next((i for i in range(rank, n_rows) if M[i][c]), None)
        if pivot is None:
            continue
        M[rank], M[pivot] = M[pivot], M[rank]
        for i in range(rank + 1, n_rows):
            for j in range(c + 1, n_cols):
                M[i][j] = (M[i][j] * M[rank][c] - M[i][c] * M[rank][j]) // prev
            M[i][c] = 0
        prev = M[rank][c]
        rank += 1
        if rank == n_rows:
            break
    return rank


def _exact_det(rows):
    """Reference determinant: Gaussian elimination over the rationals."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    M = [[F(x) for x in row] for row in rows]
    det = F(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if M[i][c]), None)
        if pivot is None:
            return F(0)
        if pivot != c:
            M[c], M[pivot] = M[pivot], M[c]
            det = -det
        det *= M[c][c]
        inv = 1 / M[c][c]
        for i in range(c + 1, n):
            f = M[i][c] * inv
            if f:
                M[i] = [a - f * b for a, b in zip(M[i], M[c])]
    return det


def _random_sparse_matrix(rng, n_rows, n_cols):
    """Sparse rational matrix with zero rows, zero columns and appended
    rational combinations of earlier rows, rows shuffled; numerators up to
    2**64, denominators up to 2**20."""
    zero_cols = set(rng.sample(range(n_cols), rng.randint(0, n_cols // 3)))
    density = rng.choice((0.1, 0.3, 0.6))
    rows = []
    for _ in range(n_rows):
        if rng.random() < 0.15:
            rows.append([F(0)] * n_cols)
            continue
        rows.append([
            F(rng.randint(-2**64, 2**64), rng.randint(1, 2**20))
            if j not in zero_cols and rng.random() < density else F(0)
            for j in range(n_cols)
        ])
    for _ in range(rng.randint(0, max(1, n_rows // 2))):
        picked = rng.sample(rows, rng.randint(1, min(3, len(rows))))
        coeffs = [F(rng.randint(-2**20, 2**20), rng.randint(1, 2**20)) for _ in picked]
        rows.append([sum((c * r[j] for c, r in zip(coeffs, picked)), F(0))
                     for j in range(n_cols)])
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("shape", ["tall", "wide", "square"])
def test_exact_rank_matches_bareiss_on_random_matrices(shape):
    rng = random.Random(f"exact-rank-{shape}")
    for _ in range(60):
        small, large = rng.randint(1, 6), rng.randint(7, 14)
        n_rows, n_cols = {"tall": (large, small), "wide": (small, large),
                          "square": (large, large)}[shape]
        rows = sparse(_random_sparse_matrix(rng, n_rows, n_cols))
        assert exact_rank(rows) == _bareiss_rank(rows)


def test_square_full_rank_iff_nonzero_determinant():
    rng = random.Random("exact-rank-det")
    seen = set()
    for _ in range(80):
        size = rng.randint(1, 8)
        rows = _random_sparse_matrix(rng, rng.randint(1, size), size)
        rows = (rows + [[F(0)] * size] * size)[:size]
        full = exact_rank(sparse(rows)) == size
        assert full == (_exact_det(rows) != 0)
        seen.add(full)
    assert seen == {True, False}


@pytest.mark.parametrize("g,n", [(g, n) for g in (2, 3) for n in (1, 2, 3, 4)])
def test_exact_rank_matches_bareiss_on_verify_matrices(g, n, monkeypatch):
    """Every matrix that the reports of every degree rank, and every rank
    and reference entry that they read off instead.

    Each block rank is the Bareiss rank of the block, and each reference
    rank the Bareiss rank of the reference valued directly on the block's
    marking set S.  The run's S_s orbit table holds each of its entries
    under the key of the product relabelled onto 1..|S|, and the run's
    pairing of C_g^|S| in the block's free degree is that reference, in
    block order.
    """
    ctx, ev, ms = get_matrices(g, n)
    ranked = []

    def recording_rank(rows):
        ranked.append(rows)
        return exact_rank(rows)

    monkeypatch.setattr(pairing_module, "exact_rank", recording_rank)
    reference = {}
    monkeypatch.setattr(pairing_module, "_REFERENCES", reference)
    reports = list(all_degree_reports(ctx, ms.__getitem__))
    monkeypatch.undo()
    assert ranked
    for rows in ranked:
        assert exact_rank(rows) == _bareiss_rank(rows)
    assert sorted(r.k for r in reports) == list(range(ctx.top_degree + 1))
    direct = {}
    for report in reports:
        m = ms[report.k]
        assert len(report.block_reports) == len(m.blocks)
        for block, b in zip(m.blocks, report.block_reports):
            assert b.block_rank == _bareiss_rank(m.submatrix(block))
            S = block.S
            s, delta = len(S), report.k - block.label.degree
            orbit_values, pairings = reference[ev.table, s]
            phi = {i: t for t, i in enumerate(S, start=1)}
            keys = packed_keys(RingContext(g, s))
            ref = []
            for r in m.rows[block.row_start:block.row_stop]:
                ref_row = []
                for c in m.cols[block.col_start:block.col_stop]:
                    prod = r.monomial.a_part() * c.monomial.a_part()
                    if (S, prod) not in direct:
                        direct[S, prod] = oracle_contract(ctx, ev.table, prod, markings=S)
                    v = direct[S, prod]
                    assert orbit_values[keys.key(relabel_monomial(prod, phi))] == v
                    ref_row.append(v)
                ref.append(tuple(ref_row))
            assert b.reference_rank == _bareiss_rank(sparse(ref))
            # the run's (s, delta) pairing is the block's reference, entry by
            # entry in block order; a block whose report was read off its
            # transpose left only the complementary degree filled
            if delta in pairings:
                assert dense(pairings[delta][0], block.n_cols) == tuple(ref)
            else:
                transposed = dense(pairings[g - 2 + s - delta][0], block.n_rows)
                assert tuple(zip(*transposed)) == tuple(ref)


def test_exact_det():
    assert _exact_det([[F(1, 2), F(0)], [F(0), F(1, 3)]]) == F(1, 6)
    assert _exact_det([[F(1), F(2)], [F(2), F(4)]]) == 0
    assert _exact_det([[F(3)]]) == 3


# -- frozen fixtures ------------------------------------------------------------


def test_g2n2_degree1_matrix():
    ctx, ev, ms = get_matrices(2, 2)
    m = ms[1]
    assert [r.monomial for r in m.rows] == [
        parse_monomial(ctx, t) for t in ("K1", "K2", "d(1,2)")
    ]
    assert [c.monomial for c in m.cols] == [r.monomial for r in m.rows]
    assert dense(m) == (
        (F(0), F(1, 2), F(1, 4)),
        (F(1, 2), F(0), F(1, 4)),
        (F(1, 4), F(1, 4), F(-1, 4)),
    )
    assert m.rank() == 3
    assert _exact_det(dense(m)) == F(1, 8)


def test_g3n1_degree1_matrix():
    ctx, ev, ms = get_matrices(3, 1)
    m = ms[1]
    assert [repr(r.monomial) for r in m.rows] == ["k1", "K1"]
    assert dense(m) == ((F(0), F(1)), (F(1), F(1, 4)))
    assert m.rank() == 2


DIMS = {
    (2, 1): (1, 1),
    (2, 2): (1, 3, 1),
    (2, 3): (1, 7, 7, 1),
    (3, 1): (1, 2, 1),
    (3, 2): (1, 4, 4, 1),
    (3, 3): (1, 8, 15, 8, 1),
}


@pytest.mark.parametrize("g,n", sorted(DIMS))
def test_rank_sequences_frozen(g, n):
    ctx, ev, ms = get_matrices(g, n)
    assert tuple(m.rank() for m in ms) == DIMS[(g, n)]


def test_pairing_is_symmetric_between_complementary_degrees():
    ctx, ev, ms = get_matrices(2, 3)
    for k in range(ctx.top_degree + 1):
        a, b = ms[k], ms[ctx.top_degree - k]
        da, db = dense(a), dense(b)
        left = {
            (r.monomial, c.monomial): da[i][j]
            for i, r in enumerate(a.rows) for j, c in enumerate(a.cols)
        }
        right = {
            (c.monomial, r.monomial): db[i][j]
            for i, r in enumerate(b.rows) for j, c in enumerate(b.cols)
        }
        assert left == right


def test_pairing_rejects_bad_degree():
    ctx, ev, _ = get_matrices(2, 2)
    with pytest.raises(ValueError):
        pairing_matrix(ctx, 5, ev)


# -- triangular structure -----------------------------------------------------------


@pytest.mark.parametrize("g,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_no_triangle_violations(g, n):
    ctx, ev, ms = get_matrices(g, n)
    for m in ms:
        assert verify_triangular(m) == ()


def _entrywise_violations(m):
    """Oracle: the filtration rule tested at every entry, row-major."""
    entries = dense(m)
    return tuple((i, j, entries[i][j]) for i, j in forced_positions(m) if entries[i][j])


def _tamperable_position(m):
    """A position whose vanishing is forced by the filtration bound."""
    return next(iter(forced_positions(m)), None)


@pytest.mark.parametrize("g,n", [(g, n) for g in (2, 3) for n in (1, 2, 3, 4)])
def test_block_pair_rule_matches_entrywise_oracle(g, n):
    ctx, ev, ms = get_matrices(g, n)
    rng = random.Random(f"triangular-{g}-{n}")
    for m in ms:
        # the rule is constant on each block pair, which is what lets
        # verify_triangular decide it once per pair
        for p in m.blocks:
            for q in m.blocks:
                assert len({
                    forced_zero(m, i, j)
                    for i in range(p.row_start, p.row_stop)
                    for j in range(q.col_start, q.col_stop)
                }) == 1
        assert verify_triangular(m) == _entrywise_violations(m)
        forced = forced_positions(m)
        picked = rng.sample(forced, min(5, len(forced)))
        bad = with_entries(m, {pos: F(rng.randint(1, 9), rng.randint(1, 9)) for pos in picked})
        assert verify_triangular(bad) == _entrywise_violations(bad)
        assert len(verify_triangular(bad)) == len(picked)


def test_tampered_entry_is_detected():
    ctx, ev, ms = get_matrices(2, 3)
    m = ms[1]
    pos = _tamperable_position(m)
    assert pos is not None, "fixture should contain at least one forced zero"
    i, j = pos
    bad = with_entries(m, {pos: F(99)})
    assert verify_triangular(bad) == ((i, j, F(99)),)


def test_tampered_block_is_detected():
    ctx, ev, ms = get_matrices(2, 3)
    # degree-2 matrix pairs the D(1,2,3) block against the free block
    m = ms[2]
    assert verify_triangular(m) == ()
    pos = _tamperable_position(m)
    assert pos is not None
    i, j = pos
    bad = with_entries(m, {pos: F(1, 7)})
    assert verify_triangular(bad) == ((i, j, F(1, 7)),)


# -- diagonal blocks ------------------------------------------------------------------


BLOCK_CONSTANTS = {
    # (g, n, k, label text) -> empirical block constant
    (2, 3, 1, "D(1,2,3)"): F(-1, 4),
    (2, 3, 2, "D(1,2,3)"): F(-1, 4),
    (2, 4, 2, "D(1,2,3,4)"): F(1, 8),
    (2, 4, 2, "D(1,2,3,4)^2"): F(1, 8),
    (2, 4, 1, "D(1,2,3)"): F(-1, 4),
    (3, 3, 2, "D(1,2,3)"): F(-1, 16),
}


@pytest.mark.parametrize("g,n,k,label", sorted((g, n, k, t) for g, n, k, t in BLOCK_CONSTANTS))
def test_block_constants_frozen(g, n, k, label):
    ctx, ev, ms = get_matrices(g, n)
    want = BLOCK_CONSTANTS[(g, n, k, label)]
    target = parse_monomial(ctx, label)
    reports = [r for r in block_constant_reports(ms[k]) if r.label == target]
    assert len(reports) == 1
    rep = reports[0]
    assert rep.proportional
    assert rep.constant == want
    assert rep.matches_rule
    # the quoted constant (2g - 2)^(n - |S| + 1) and the rule constant
    # (2g - 2)^(|S| - n) carry the same sign, so their product is 2g - 2 on
    # every block, as the README states
    assert rep.quoted_constant * rep.rule_constant == ctx.kappa_zero


def test_free_block_constant_is_one():
    ctx, ev, ms = get_matrices(2, 3)
    for m in ms[1:]:
        free = [r for r in block_constant_reports(m) if r.label == Monomial(())]
        for rep in free:
            assert rep.constant in (None, F(1))
            assert rep.matches_rule in (None, True)


@pytest.mark.parametrize("g,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_conjecture_check_passes(g, n):
    ctx, ev, ms = get_matrices(g, n)
    for m in ms:
        rep = conjecture_check(m)
        assert rep.ok
        assert rep.rank_additive
        assert rep.matrix_rank == m.rank()


def test_tampered_block_is_not_proportional():
    ctx, ev, ms = get_matrices(2, 3)
    m = ms[1]
    # scale a single nonzero entry of a diagonal block with several entries
    blocks = [b for b in m.blocks if b.n_rows > 1 and b.n_cols > 1]
    assert blocks
    b = blocks[0]
    i, j = next(
        (i, j)
        for i in range(b.row_start, b.row_stop)
        for j in range(b.col_start, b.col_stop)
        if j in m.entries[i]
    )
    bad = with_entries(m, {(i, j): 2 * m.entries[i][j]})
    [report] = [r for r in block_constant_reports(bad) if r.label == b.label]
    assert not report.proportional
    # a block that is not proportional is ranked itself, not read off
    assert report.block_rank == _bareiss_rank(bad.submatrix(b))
    assert not conjecture_check(bad).ok


def test_zeroed_block_is_proportional_with_constant_and_rank_zero():
    # a zero block is 0 times its reference: proportional, and its rank is
    # 0, not the reference rank
    ctx, ev, ms = get_matrices(2, 3)
    m = ms[1]
    b = next(b for b in m.blocks if b.n_rows > 1 and b.n_cols > 1)
    bad = with_entries(m, {(i, j): F(0) for i in range(b.row_start, b.row_stop)
                           for j in range(b.col_start, b.col_stop)})
    [report] = [r for r in block_constant_reports(bad) if r.label == b.label]
    assert report.proportional and report.constant == 0
    assert report.block_rank == 0 < report.reference_rank


def test_block_columns_use_dual_labels():
    """Block P pairs the rows with part P against the columns whose dual part
    is P, and the blocks tile the rows and the columns with no side empty."""
    for g in (2, 3):
        for n in (1, 2, 3, 4):
            for m in get_matrices(g, n)[2]:
                row_stop = col_stop = 0
                for block in m.blocks:
                    assert (block.row_start, block.col_start) == (row_stop, col_stop)
                    assert block.n_rows > 0 and block.n_cols > 0
                    row_stop, col_stop = block.row_stop, block.col_stop
                    for r in m.rows[block.row_start:block.row_stop]:
                        assert r.dpart == block.label
                    for c in m.cols[block.col_start:block.col_stop]:
                        assert dpart_monomial(dual_forest(c.forest)) == block.label
                assert (row_stop, col_stop) == (len(m.rows), len(m.cols))


def _monomials(sms):
    return [sm.monomial for sm in sms]


@pytest.mark.parametrize("g,n", [(2, 3), (2, 4), (3, 3), (3, 4)])
def test_block_of_degree_top_minus_k_is_transpose_of_dual_block(g, n):
    """Commutativity of the product: block P of degree top - k is the
    transpose of block dual(P) of degree k."""
    ctx, ev, ms = get_matrices(g, n)
    for m in ms:
        t = ms[ctx.top_degree - m.k]
        by_label = {b.label: b for b in t.blocks}
        for p in m.blocks:
            d = by_label[dpart_monomial(dual_forest(p.forest))]
            assert _monomials(m.rows[p.row_start:p.row_stop]) \
                == _monomials(t.cols[d.col_start:d.col_stop])
            assert _monomials(m.cols[p.col_start:p.col_stop]) \
                == _monomials(t.rows[d.row_start:d.row_stop])
            assert dense(m.submatrix(p), p.n_cols) \
                == tuple(zip(*dense(t.submatrix(d), d.n_cols)))


@pytest.mark.parametrize("g,n", [(2, 3), (2, 4), (3, 3), (3, 4)])
def test_dual_matrix_equals_filled_matrix(g, n):
    """The matrix of degree top - k read off degree k by transposition (the
    blocks of degree k in the layout order of their dual parts, rows and
    columns swapped) is the one filled for degree top - k, entry by entry,
    and the all-degree loop fills only k <= top / 2 (the middle degree of an
    even top included) and reads the rest off."""
    ctx, ev, ms = get_matrices(g, n)
    top = ctx.top_degree
    position = {forest: i for i, forest in enumerate(admissible_dparts(ctx))}
    for m in ms:
        t = ms[top - m.k]
        partners = sorted(m.blocks, key=lambda b: position[dual_forest(b.forest)])
        assert [dual_forest(b.forest) for b in partners] == [d.forest for d in t.blocks]
        rows = [j for b in partners for j in range(b.col_start, b.col_stop)]
        cols = [i for b in partners for i in range(b.row_start, b.row_stop)]
        assert [m.cols[j].monomial for j in rows] == _monomials(t.rows)
        assert [m.rows[i].monomial for i in cols] == _monomials(t.cols)
        entries = dense(m)
        assert [[entries[i][j] for i in cols] for j in rows] \
            == [list(row) for row in dense(t)]
    filled = []

    def fill(k):
        filled.append(k)
        return ms[k]

    got = list(all_degree_reports(ctx, fill))
    assert filled == list(range(top // 2 + 1))
    assert [r.k for r in got] == [k for f in filled for k in dict.fromkeys((f, top - f))]


@pytest.mark.parametrize("g,n", [(g, n) for g in (2, 3) for n in (1, 2, 3, 4)])
def test_reports_read_off_by_transposition_equal_computed_ones(g, n):
    """The report of degree top - k read off degree k equals the one
    computed on the degree top - k matrix, in every degree, and the
    all-degree loop yields one report per degree."""
    ctx, ev, ms = get_matrices(g, n)
    top = ctx.top_degree
    computed = [conjecture_check(m) for m in ms]
    for m, report in zip(ms, computed):
        assert dual_conjecture_check(m, report) == computed[top - m.k]
    got = list(all_degree_reports(ctx, ms.__getitem__))
    assert sorted(r.k for r in got) == list(range(top + 1))
    for report in got:
        assert report == computed[report.k]


def _transposed(m, t, changes):
    """``changes`` to entries of ``m`` (degree k), moved to the transposed
    positions in ``t``, the filled matrix of degree top - k, found by
    monomial."""
    row_of = {r.monomial: i for i, r in enumerate(t.rows)}
    col_of = {c.monomial: j for j, c in enumerate(t.cols)}
    return {(row_of[m.cols[j].monomial], col_of[m.rows[i].monomial]): v
            for (i, j), v in changes.items()}


def test_report_of_a_non_proportional_partner_is_computed():
    """A block whose degree-k partner is not proportional is compared on
    its transposed submatrix, not read off: its report is the one computed
    on the filled degree top - k with the same entry changed."""
    ctx, ev, ms = get_matrices(2, 3)
    m = ms[1]
    b = next(b for b in m.blocks if b.n_rows > 1 and b.n_cols > 1)
    i, j = next(
        (i, j)
        for i in range(b.row_start, b.row_stop)
        for j in range(b.col_start, b.col_stop)
        if j in m.entries[i]
    )
    changes = {(i, j): 2 * m.entries[i][j]}
    bad = with_entries(m, changes)
    report = conjecture_check(bad)
    assert not all(r.proportional for r in report.block_reports)
    read = dual_conjecture_check(bad, report)
    t = ms[ctx.top_degree - m.k]
    assert read == conjecture_check(with_entries(t, _transposed(m, t, changes)))
    assert not read.ok


@pytest.mark.parametrize("g,n", [(2, 3), (2, 4), (3, 3), (3, 4)])
def test_read_off_triangle_violations_are_the_transposed_ones(g, n):
    """With the first, a middle and the last forced-zero entry of degree k
    set, the violations (row, column, value) read off degree k, and the rest
    of the report, are the ones computed on the filled degree top - k with
    the same values at the transposed positions, in every degree."""
    ctx, ev, ms = get_matrices(g, n)
    tampered = 0
    for m in ms:
        forced = forced_positions(m)
        if not forced:
            continue
        picks = dict.fromkeys([forced[0], forced[len(forced) // 2], forced[-1]])
        changes = {pos: F(v) for v, pos in enumerate(picks, start=1)}
        bad = with_entries(m, changes)
        read = dual_conjecture_check(bad, conjecture_check(bad))
        assert len(read.triangle_violations) == len(changes)
        t = ms[ctx.top_degree - m.k]
        assert read == conjecture_check(with_entries(t, _transposed(m, t, changes)))
        tampered += 1
    assert tampered >= 2


def test_a_block_whose_dual_part_is_missing_raises(monkeypatch):
    """A degree-k block whose dual part has no place in the layout stops
    the read-off; its rows are not dropped."""
    ctx, ev, ms = get_matrices(2, 3)
    m = ms[1]
    missing = dual_forest(m.blocks[-1].forest)
    parts = tuple(f for f in admissible_dparts(ctx) if f != missing)
    monkeypatch.setattr(pairing_module, "admissible_dparts", lambda ctx: parts)
    with pytest.raises(ValueError, match="not in the degree 2 layout"):
        dual_conjecture_check(m, conjecture_check(m))


# -- duality of classes ----------------------------------------------------------------


@pytest.mark.parametrize("g,n", [(2, 3), (2, 4), (3, 3), (4, 2), (4, 5)])
def test_duality_classes_clean(g, n):
    ctx = RingContext(g, n)
    for k in range(ctx.top_degree + 1):
        assert check_duality_classes(ctx, k) == []


def test_duality_classes_materialized():
    """Spot-check the class bijection at (2, 4), degree 1 vs 3."""
    from tautring import enumerate_basis
    from tautring.forest import dual_forest, dpart_monomial
    ctx = RingContext(2, 4)
    top = ctx.top_degree
    k = 1
    lows = {sm.dpart for sm in enumerate_basis(ctx, k)}
    highs = {sm.dpart for sm in enumerate_basis(ctx, top - k)}
    for sm in enumerate_basis(ctx, k):
        assert dpart_monomial(dual_forest(sm.forest)) in highs
    for sm in enumerate_basis(ctx, top - k):
        assert dpart_monomial(dual_forest(sm.forest)) in lows


# -- Gorenstein rank symmetry -------------------------------------------------------------


@pytest.mark.parametrize("dims,expected", [
    ((1, 4, 4, 1), True),
    ((2, 3, 3, 2), False),
    ((1, 2, 3), False),
])
def test_is_gorenstein(dims, expected):
    assert is_gorenstein(dims) is expected


# -- the fill --------------------------------------------------------------------


@pytest.mark.parametrize("g,n", [(2, 4), (3, 4)])
def test_fill_values_each_orbit_once_per_run(g, n, monkeypatch):
    """One evaluator fills every degree of a verify run: each S_n orbit of
    the products of all filled degrees is valued once, and each entry is
    the value a fresh evaluator gives its product."""
    ctx = RingContext(g, n)
    ev = Evaluator(ctx)
    valued = []
    evaluate_monomial = Evaluator.evaluate_monomial

    def recording(self, m):
        valued.append(m)
        return evaluate_monomial(self, m)

    monkeypatch.setattr(Evaluator, "evaluate_monomial", recording)
    filled = []

    def fill(k):
        filled.append(pairing_matrix(ctx, k, ev))
        return filled[-1]

    list(all_degree_reports(ctx, fill))
    monkeypatch.undo()
    assert [m.k for m in filled] == list(range(ctx.top_degree // 2 + 1))
    keys = packed_keys(ctx)
    orbits = {
        min(keys.orbit_keys(r.monomial * c.monomial))
        for m in filled for r in m.rows for c in m.cols
    }
    assert len(valued) == len(orbits)
    assert {min(keys.orbit_keys(m)) for m in valued} == orbits
    fresh = Evaluator(ctx)
    for m in filled[1:]:
        assert dense(m) == tuple(
            tuple(fresh.evaluate_monomial(r.monomial * c.monomial) for c in m.cols) for r in m.rows
        )


@pytest.mark.parametrize("g,n", [(g, n) for g in (2, 3) for n in (1, 2, 3, 4, 5)] + [(4, 4)])
def test_block_a_parts_are_the_cluster_monomials_of_their_degree(g, n):
    """Relabelled onto 1..s by the order-preserving bijection from the
    block's marking set S, s = |S|, the row a-parts of each block of every
    degree are, in order, the cluster monomials of C_g^s of the block's
    free degree delta, and its column a-parts those of degree
    g - 2 + s - delta; so a block's reference depends only on (s, delta)."""
    ctx = RingContext(g, n)
    for k in range(ctx.top_degree + 1):
        rows, cols, blocks = pairing_module._layout(ctx, k)
        for block in blocks:
            s, delta = len(block.S), k - block.label.degree
            phi = {i: t for t, i in enumerate(block.S, start=1)}
            ref_ctx = RingContext(g, s)
            assert [relabel_monomial(r.monomial.a_part(), phi) for r in rows[block.row_start:block.row_stop]] == list(
                cluster_monomials(ref_ctx, ref_ctx.markings, delta))
            assert [relabel_monomial(c.monomial.a_part(), phi) for c in cols[block.col_start:block.col_stop]] == list(
                cluster_monomials(ref_ctx, ref_ctx.markings, g - 2 + s - delta))


@pytest.mark.parametrize("g,n", [(2, 4), (3, 4)])
def test_references_value_each_orbit_once_per_run(g, n, monkeypatch):
    """The block references of every degree of a verify run value each
    orbit of S_s, s = |S|, once, and each reference value read is the
    value of its product over the block's marking set S."""
    ctx, ev, ms = get_matrices(g, n)
    valued = []

    def recording(ref_ctx, table, m):
        valued.append((ref_ctx.n, min(packed_keys(ref_ctx).orbit_keys(m))))
        return evaluate_free(ref_ctx, table, m)

    monkeypatch.setattr(pairing_module, "evaluate_free", recording)
    reference = {}
    monkeypatch.setattr(pairing_module, "_REFERENCES", reference)
    reports = list(all_degree_reports(ctx, ms.__getitem__))
    monkeypatch.undo()
    assert valued and len(set(valued)) == len(valued)
    direct = {}
    for report in reports:
        m = ms[report.k]
        for block in m.blocks:
            S = block.S
            phi = {i: t for t, i in enumerate(S, start=1)}
            keys = packed_keys(RingContext(g, len(S)))
            for r in m.rows[block.row_start:block.row_stop]:
                for c in m.cols[block.col_start:block.col_stop]:
                    prod = r.monomial.a_part() * c.monomial.a_part()
                    if (S, prod) not in direct:
                        direct[S, prod] = oracle_contract(ctx, ev.table, prod, markings=S)
                    key = keys.key(relabel_monomial(prod, phi))
                    assert reference[ev.table, len(S)][0][key] == direct[S, prod]


G4_TABLE = KappaTable(4, {(2,): 1, (1, 1): F(32, 3)})
G4_OTHER = KappaTable(4, {(2,): 1, (1, 1): F(7, 5)})


def _all_reports(g, n, table=None):
    ctx = RingContext(g, n)
    ev = Evaluator(ctx, table)
    return list(all_degree_reports(ctx, lambda k: pairing_matrix(ctx, k, ev)))


@pytest.mark.parametrize("first,second", [
    ((2, 4, None), (3, 4, None)),
    ((4, 3, G4_TABLE), (4, 3, G4_OTHER)),
])
def test_reports_do_not_depend_on_earlier_runs(first, second, monkeypatch):
    """The references of a process are keyed by table and |S|, so a run
    after one of another genus, or of the same genus with another table,
    reports what it reports in a fresh process."""
    monkeypatch.setattr(pairing_module, "_REFERENCES", {})
    _all_reports(*first)
    after = _all_reports(*second)
    monkeypatch.setattr(pairing_module, "_REFERENCES", {})
    assert after == _all_reports(*second)


def test_all_degree_reports_value_references_with_the_matrix_table():
    # no check is handed a table: at g = 4 there is no built-in one
    reports = sorted(_all_reports(4, 3, G4_TABLE), key=lambda r: r.k)
    assert [r.matrix_rank for r in reports] == [1, 8, 19, 19, 8, 1]
    assert all(r.ok for r in reports)


G5_TABLE = KappaTable(5, {(3,): 1, (2, 1): 20, (1, 1, 1): 288})


@pytest.mark.parametrize("g,n,table", [(g, n, None) for g in (2, 3) for n in (1, 2, 3, 4)] + [
    (2, 5, None), (4, 3, G4_TABLE), (4, 3, G4_OTHER), (4, 4, G4_TABLE), (4, 4, G4_OTHER),
    (5, 3, G5_TABLE),
], ids=[f"{g}-{n}" for g in (2, 3) for n in (1, 2, 3, 4)] + [
    "2-5", "4-3-32/3", "4-3-7/5", "4-4-32/3", "4-4-7/5", "5-3",
])
def test_unnormalized_block_constant_is_the_sign(g, n, table):
    # multiplying by the socle value of n markings over that of |S| undoes
    # the socle normalization on both sides of the block rule: what is left
    # is (-1)^epsilon, with no power of 2g - 2, under a wrong kappa table too
    ctx = RingContext(g, n)
    reports = _all_reports(g, n, table)
    blocks = [b for r in reports for b in r.block_reports if b.constant is not None]
    assert blocks and all(r.ok for r in reports)
    for b in blocks:
        raw = b.constant * socle_raw_value(ctx, n) / socle_raw_value(ctx, len(b.S))
        assert raw == (-1) ** b.epsilon, b


def test_kappa_tables_are_equal_by_genus_and_values():
    assert KappaTable.builtin(3) == KappaTable.builtin(3)
    assert hash(KappaTable.builtin(3)) == hash(KappaTable.builtin(3))
    assert KappaTable(4, {(2,): 1, (1, 1): F(32, 3)}) == G4_TABLE
    assert G4_TABLE != G4_OTHER
    assert KappaTable.builtin(2) != KappaTable.builtin(3)
    assert KappaTable.builtin(2) != ((), F(1))


def test_pairing_matrix_rejects_an_evaluator_of_another_ring():
    with pytest.raises(ValueError):
        pairing_matrix(RingContext(2, 3), 1, Evaluator(RingContext(2, 4)))


def test_parallel_matches_serial():
    ctx = RingContext(2, 2)
    ev = Evaluator(ctx)
    for k in range(ctx.top_degree + 1):
        serial = pairing_matrix(ctx, k, ev, parallelism=1)
        parallel = pairing_matrix(ctx, k, ev, parallelism=2)
        assert serial.entries == parallel.entries
        # the same columns, in the same order
        assert [list(row.items()) for row in serial.entries] \
            == [list(row.items()) for row in parallel.entries]
        assert [r.monomial for r in serial.rows] == [r.monomial for r in parallel.rows]


@pytest.mark.parametrize("g,n,parallelism", [(g, n, 1) for g in (2, 3) for n in (1, 2, 3, 4)] + [(3, 3, 2)])
def test_entries_are_the_values_of_their_products(g, n, parallelism):
    # the fill values one product per S_n orbit and reads the others off
    # packed keys; every entry must still be the value of its own product,
    # and each row holds exactly its nonzero entries, in increasing column order
    ctx = RingContext(g, n)
    ev = Evaluator(ctx)
    for k in range(ctx.top_degree + 1):
        m = pairing_matrix(ctx, k, Evaluator(ctx), parallelism)
        assert len(m.entries) == len(m.rows)
        for r, row in zip(m.rows, m.entries):
            keys = list(row)
            assert keys == sorted(set(keys)) and set(keys) <= set(range(len(m.cols)))
            assert all(row.values())
            assert [row.get(j, 0) for j in range(len(m.cols))] \
                == [ev.evaluate_monomial(r.monomial * c.monomial) for c in m.cols]
