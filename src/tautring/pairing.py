"""Pairing matrices between complementary-degree standard bases.

The degree-``k`` matrix pairs the standard basis of degree ``k`` (rows)
against the one of degree ``top - k`` (columns): the entry is the socle
evaluation of the product.  The matrix is laid out block by block, one
block per admissible exceptional part ``P`` in layout order: its rows have
exceptional part ``P`` and its columns the *dual* part ``dual(P)``
(exponents reflected through their budgets).  Since the product commutes,
block ``P`` of degree ``top - k`` is the transpose of block ``dual(P)`` of
degree ``k``, and :func:`dual_conjecture_check` reads the whole degree
``top - k`` report (blocks, block reports, vanishing violations and rank)
off the degree ``k`` matrix and report, so no degree ``top - k`` matrix is
laid out or built.

The fill values one product per orbit of the symmetric group on the
markings, not one per entry.  Relabelling the markings is a ring
automorphism that fixes the kappa classes and the socle, so a product and
its relabellings have one value.  Every row and column gets a packed
integer key (:class:`~tautring.core.PackedKeys`): one field per generator,
wide enough that no exponent of a monomial of degree ``<= top`` overflows
it, so the key of an entry's product is the row key plus the column key,
with no carry.  The first product of each orbit met in row-major order is
built and valued, and its value is stored under the key of every
relabelling of it; every other entry is a lookup of its key, and its
product is never built.  Only the nonzero entries are kept, as sparse rows
(:class:`PairingMatrix`).  The table of keys is the evaluator's
(:attr:`~tautring.evaluate.Evaluator.orbit_values`), so a run that fills
several degrees with one evaluator, as ``verify`` does, values each orbit
once in all of them.  The process pool ships those first products and keeps
a table of its own per degree.

The conjectured structure is then visible directly:

* entries vanish whenever one side's exceptional sets all lie strictly
  below the other side's and a filtration bound overshoots the top degree
  (:func:`verify_triangular`); the rule reads only what a block's rows, and
  a block's columns, have in common, so it is checked once per block pair;
* each diagonal block, with marking set ``S`` and rows of free degree
  ``delta``, is a single rational constant times the pairing of C_g^s,
  ``s = |S|``, in degree ``delta``; that pairing is filled by the same
  orbit-keyed fill, on the ring of ``s`` markings, and ranked once per
  process per kappa table and ``(s, delta)`` (:func:`block_constant_reports`);
* consequently the rank splits as the sum of the diagonal block ranks
  (:func:`conjecture_check`).

The observed block constant is ``(-1)^epsilon * (2g-2)^(|S| - n)`` with
``epsilon`` the block's sign exponent and ``S`` its marking set.  Without
the socle normalization it is the sign ``(-1)^epsilon``: the constant times
``socle_raw_value`` of ``n`` markings over that of ``|S|`` markings.  The
rule holds under a wrong kappa table too, so it is no check of the table.
The report also carries the magnitude ``(2g-2)^(n - |S| + 1)`` quoted by
the source material; times the rule constant it is ``2g - 2`` on every
block, so it matches none.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import Monomial, RingContext, packed_keys
from .evaluate import Evaluator, KappaTable, evaluate_free
from .forest import (
    ExceptionalForest,
    StandardMonomial,
    admissible_dparts,
    cluster_monomials,
    dpart_monomial,
    dual_forest,
    forest_basis,
    ll_monomials,
    marking_set,
)
from .linalg import exact_rank
from .rewrite import Normalizer


@dataclass(frozen=True)
class PairingBlock:
    """Rows with exceptional part ``forest`` against the columns with part
    ``dual_forest(forest)``; ``S`` is the forest's sorted marking set."""

    label: Monomial
    forest: ExceptionalForest
    S: tuple[int, ...]
    row_start: int
    row_stop: int
    col_start: int
    col_stop: int

    @property
    def n_rows(self) -> int:
        return self.row_stop - self.row_start

    @property
    def n_cols(self) -> int:
        return self.col_stop - self.col_start


@dataclass(frozen=True)
class PairingMatrix:
    """The degree ``k`` pairing.  Each row of ``entries`` maps the column of
    each nonzero entry, in increasing order, to its value.  ``table`` is the
    kappa table the entries were valued with; the structure checks value the
    block references with it."""

    ctx: RingContext
    k: int
    rows: tuple[StandardMonomial, ...]
    cols: tuple[StandardMonomial, ...]
    entries: tuple[dict[int, Fraction], ...]
    blocks: tuple[PairingBlock, ...]
    table: KappaTable

    def rank(self) -> int:
        return exact_rank(self.entries)

    def submatrix(self, block: PairingBlock) -> list[dict[int, Fraction]]:
        """The sparse rows of ``block``, columns counted from its first."""
        start, stop = block.col_start, block.col_stop
        return [
            {j - start: v for j, v in row.items() if start <= j < stop}
            for row in self.entries[block.row_start:block.row_stop]
        ]


# ---------------------------------------------------------------------------
# matrix construction (serial and multiprocess)


_POOL_STATE: Optional[tuple[RingContext, Evaluator]] = None


def _pool_init(g: int, n: int, table_items, max_steps: int) -> None:
    global _POOL_STATE
    ctx = RingContext(g, n)
    table = KappaTable(g, {tuple(p): Fraction(v) for p, v in table_items})
    _POOL_STATE = (ctx, Evaluator(ctx, table, Normalizer(ctx, max_steps=max_steps)))


def _pool_eval(batch: list[str]) -> list[tuple[str, str]]:
    from .grammar import parse_monomial

    ctx, ev = _POOL_STATE
    return [(s, str(ev.evaluate_monomial(parse_monomial(ctx, s)))) for s in batch]


def _layout(ctx: RingContext, k: int):
    """Rows, columns and blocks of the degree ``k`` matrix, block by block."""
    if k < 0 or k > ctx.top_degree:
        raise ValueError(f"degree {k} outside 0..{ctx.top_degree}")
    rows, cols, blocks = [], [], []
    for forest in admissible_dparts(ctx):
        brows = forest_basis(ctx, forest, k)
        bcols = forest_basis(ctx, dual_forest(forest), ctx.top_degree - k)
        if brows or bcols:
            blocks.append(_block(ctx, forest, len(rows), len(brows), len(cols), len(bcols)))
            rows += brows
            cols += bcols
    return tuple(rows), tuple(cols), tuple(blocks)


def _block(ctx: RingContext, forest: ExceptionalForest, row_start, n_rows, col_start, n_cols):
    """Block ``forest`` of ``n_rows`` rows and ``n_cols`` columns from the given starts."""
    return PairingBlock(
        dpart_monomial(forest), forest, tuple(sorted(marking_set(ctx, forest))),
        row_start, row_start + n_rows, col_start, col_start + n_cols,
    )


def pairing_matrix(ctx: RingContext, k: int, evaluator: Optional[Evaluator] = None,
                   parallelism: int = 1) -> PairingMatrix:
    rows, cols, blocks = _layout(ctx, k)
    if evaluator is None:
        evaluator = Evaluator(ctx)
    elif evaluator.ctx != ctx:
        raise ValueError(f"evaluator is for {evaluator.ctx}, the matrix for {ctx}")
    if parallelism > 1 and rows and cols:
        entries = _parallel_entries(ctx, evaluator, rows, cols, parallelism)
    else:
        entries = _orbit_fill(
            packed_keys(ctx), [r.monomial for r in rows], [c.monomial for c in cols],
            evaluator.evaluate_monomial, evaluator.orbit_values,
        )
    return PairingMatrix(ctx, k, rows, cols, entries, blocks, evaluator.table)


def _orbit_fill(keys, rows, cols, value, memo):
    """The entries ``value(r * c)`` for the monomials ``rows`` and ``cols``,
    with ``value`` called once per orbit of the symmetric group on the
    markings of the ring of ``keys`` (a :class:`~tautring.core.PackedKeys`).

    ``memo`` maps packed keys to results.  ``value`` is called on the first
    product in row-major order whose key ``memo`` lacks, and its result is
    stored under the packed key of every relabelling of that product.  Every
    other entry is read off the key ``key(r) + key(c)`` of its product,
    which is never built, so it gets the result for the first product of
    its orbit, in this call or an earlier one with the same ``memo``:
    ``value(r * c)`` itself when ``value`` is constant on orbits, as the
    socle value is.  Returns each row's nonzero entries as ``{column: entry}``
    in increasing column order.
    """
    columns = list(enumerate(map(keys.key, cols)))  # one int object per column index
    out = []
    for r in rows:
        rk = keys.key(r)
        row = {}
        for j, ck in columns:
            v = memo.get(rk + ck)
            if v is None:
                m = r * cols[j]
                v = value(m)
                for key in keys.orbit_keys(m):
                    memo[key] = v
            if v:
                row[j] = v
        out.append(row)
    return tuple(out)


def _parallel_entries(ctx, evaluator, rows, cols, parallelism):
    # workers evaluate the first product of each S_n orbit, shipped as text
    unique = []

    def ship(m):
        unique.append(repr(m))
        return unique[-1]

    texts = _orbit_fill(packed_keys(ctx), [r.monomial for r in rows],
                        [c.monomial for c in cols], ship, {})
    n_chunks = min(len(unique), parallelism * 4)
    size = -(-len(unique) // n_chunks)
    chunks = [unique[i:i + size] for i in range(0, len(unique), size)]
    table_items = tuple((part, str(val)) for part, val in evaluator.table.items())
    values: dict[str, Fraction] = {}  # the products whose value is not zero
    with ProcessPoolExecutor(
        max_workers=parallelism,
        initializer=_pool_init,
        initargs=(ctx.g, ctx.n, table_items, evaluator.normalizer.max_steps),
    ) as pool:
        for out in pool.map(_pool_eval, chunks):
            for s, v in out:
                if v != "0":
                    values[s] = Fraction(v)
    return tuple({j: values[s] for j, s in row.items() if s in values} for row in texts)


# ---------------------------------------------------------------------------
# structure checks


def verify_triangular(matrix: PairingMatrix) -> tuple[tuple[int, int, Fraction], ...]:
    """Entries that should vanish by the filtration bound but do not.

    An entry must vanish when, in either orientation, one factor's
    exceptional sets all sit below the other's while the other factor's
    filtration level plus the first's degree exceeds the top degree.  These
    hypotheses read only the exceptional part, the degree and the filtration
    level, which every row of a block shares, as does every column, so the
    rule is decided once per (row block, column block) pair from its first
    row and column (no block has an empty side; see
    :func:`check_duality_classes`).  Violations are listed in row-major order.
    """
    top = matrix.ctx.top_degree
    bad = []
    for p in matrix.blocks:
        r = matrix.rows[p.row_start]
        forced = set()
        for q in matrix.blocks:
            c = matrix.cols[q.col_start]
            if (ll_monomials(r.monomial, c.monomial) and c.p + r.degree > top) or (
                ll_monomials(c.monomial, r.monomial) and r.p + c.degree > top
            ):
                forced.update(range(q.col_start, q.col_stop))
        for i in range(p.row_start, p.row_stop):
            bad.extend((i, j, v) for j, v in matrix.entries[i].items() if j in forced)
    return tuple(bad)


@dataclass(frozen=True)
class BlockConstantReport:
    label: Monomial
    S: tuple[int, ...]
    epsilon: int
    n_rows: int
    n_cols: int
    constant: Optional[Fraction]
    proportional: bool
    rule_constant: Fraction
    quoted_constant: Fraction
    block_rank: int
    reference_rank: int

    @property
    def matches_rule(self) -> Optional[bool]:
        if self.constant is None:
            return None
        return self.constant == self.rule_constant

    @property
    def ranks_equal(self) -> bool:
        return self.block_rank == self.reference_rank


def _block_report(ctx: RingContext, block: PairingBlock, constant: Optional[Fraction],
                  proportional: bool, block_rank: int, reference_rank: int) -> BlockConstantReport:
    """The report of ``block`` from its comparison with the reference; the
    label, marking set, sign exponent and rule constants come from the block."""
    eps = block.forest.epsilon()
    sign = Fraction(-1) ** eps
    return BlockConstantReport(
        label=block.label,
        S=block.S,
        epsilon=eps,
        n_rows=block.n_rows,
        n_cols=block.n_cols,
        constant=constant,
        proportional=proportional,
        rule_constant=sign * Fraction(ctx.kappa_zero) ** (len(block.S) - ctx.n),
        quoted_constant=sign * Fraction(ctx.kappa_zero) ** (ctx.n - len(block.S) + 1),
        block_rank=block_rank,
        reference_rank=reference_rank,
    )


def _proportional(sub, ref, constant: Fraction) -> bool:
    """Whether the sparse rows ``sub`` are ``constant`` (not zero) times the
    sparse rows ``ref``, row by row."""
    return all(xs == {j: constant * v for j, v in vs.items()} for xs, vs in zip(sub, ref))


# (table, s) -> (orbit table of S_s, {delta: (entries, rank)}); a reference
# depends only on the table's values and (s, delta), and no entry changes
# once filled, so every run of the process shares it
_REFERENCES: dict[tuple[KappaTable, int], tuple[dict, dict]] = {}


def _reference_pairing(table: KappaTable, s: int, delta: int):
    """The pairing of C_g^s in degree ``delta``, and its rank: the cluster
    monomials of degree ``delta`` on ``1..s`` against those of degree
    ``g - 2 + s - delta``, valued by :func:`evaluate_free` with ``table``
    through :func:`_orbit_fill`.  ``_REFERENCES[table, s]`` holds the orbit
    table of ``S_s``, shared by every degree, and the ``(entries, rank)`` of
    each degree filled on the ring, so each is filled and ranked once per
    process."""
    orbit_values, pairings = _REFERENCES.setdefault((table, s), ({}, {}))
    pairing = pairings.get(delta)
    if pairing is None:
        ctx = RingContext(table.g, s)
        entries = _orbit_fill(
            packed_keys(ctx), cluster_monomials(ctx, ctx.markings, delta),
            cluster_monomials(ctx, ctx.markings, ctx.g - 2 + s - delta),
            lambda m: evaluate_free(ctx, table, m), orbit_values,
        )
        pairing = pairings[delta] = (entries, exact_rank(entries))
    return pairing


def _compare_block(ctx: RingContext, table: KappaTable, k: int, block: PairingBlock,
                   sub: list[dict[int, Fraction]]) -> BlockConstantReport:
    """The report of ``block`` of degree ``k``, whose sparse rows are ``sub``."""
    ref, reference_rank = _reference_pairing(table, len(block.S), k - block.label.degree)
    constant = next(
        (xs.get(j, 0) / v for xs, vs in zip(sub, ref) for j, v in vs.items()), None
    )
    if not constant:
        proportional = not any(sub)
    else:
        proportional = _proportional(sub, ref, constant)
    if not proportional:
        block_rank = exact_rank(sub)
    else:
        block_rank = reference_rank if constant else 0
    return _block_report(ctx, block, constant, proportional, block_rank, reference_rank)


def block_constant_reports(matrix: PairingMatrix) -> list[BlockConstantReport]:
    """Compare each diagonal block against its exceptional-free reference.

    The reference entry for row ``a * P`` and column ``a' * dual(P)`` is the
    evaluation of ``a * a'`` over the block's marking set ``S``.  The block
    is expected to equal a single constant times the reference, which
    ``proportional`` reports.

    The reference is the pairing of C_g^s, ``s = |S|``, in degree
    ``delta = k - deg P`` (:func:`_reference_pairing`).  The order-preserving
    bijection ``phi`` from ``S`` onto ``1..s`` maps the block's row a-parts,
    in order, onto the cluster monomials of degree ``delta`` on ``1..s``,
    and its column a-parts onto those of degree ``g - 2 + s - delta``.
    :func:`evaluate_free` reads only the genus, the kappa table and the
    number of markings and exponent total of each component of the
    monomial's diagonal graph, and an injective relabelling such as ``phi``
    keeps all of them, so each value is the same.  Hence every
    block with the same ``(s, delta)`` has the same reference, valued with
    the matrix's kappa table; a process fills and ranks it once per table
    and ``(s, delta)``, valuing one product per orbit of ``S_s``.

    A proportional block with constant ``c`` is ``c`` times its reference,
    so its rank is the reference rank when ``c != 0`` and 0 otherwise; only
    a block that is not proportional is ranked itself.
    """
    return [
        _compare_block(matrix.ctx, matrix.table, matrix.k, block, matrix.submatrix(block))
        for block in matrix.blocks
    ]


@dataclass(frozen=True)
class ConjectureReport:
    k: int
    n_rows: int
    n_cols: int
    matrix_rank: int
    triangle_violations: tuple[tuple[int, int, Fraction], ...]
    block_reports: tuple[BlockConstantReport, ...]

    @property
    def block_rank_sum(self) -> int:
        return sum(b.block_rank for b in self.block_reports)

    @property
    def rank_additive(self) -> bool:
        return self.matrix_rank == self.block_rank_sum

    @property
    def ok(self) -> bool:
        return (
            not self.triangle_violations
            and all(b.proportional for b in self.block_reports)
            and all(b.ranks_equal for b in self.block_reports)
            and self.rank_additive
        )


def conjecture_check(matrix: PairingMatrix) -> ConjectureReport:
    return ConjectureReport(
        k=matrix.k,
        n_rows=len(matrix.rows),
        n_cols=len(matrix.cols),
        matrix_rank=matrix.rank(),
        triangle_violations=verify_triangular(matrix),
        block_reports=tuple(block_constant_reports(matrix)),
    )


def dual_conjecture_check(matrix: PairingMatrix, report: ConjectureReport) -> ConjectureReport:
    """The report of degree ``top - k``, read off ``matrix`` (degree ``k``)
    and its ``report``, with no degree ``top - k`` matrix built.

    The product commutes, so block ``P`` of degree ``top - k`` is the
    transpose of block ``dual(P)`` of degree ``k``; the blocks come in the
    order of ``P`` in :func:`~tautring.forest.admissible_dparts`, and a dual
    part that is not there raises ``ValueError``.  Both blocks have the
    marking set of ``P``, and the reference entry ``a * a'`` is symmetric,
    so a block whose partner is proportional is too, with the partner's
    constant, block rank and reference rank; its label, sign exponent and
    rule constants are its own.  A block whose partner is not proportional
    is compared on the transposed submatrix, since the first nonzero in
    row-major order, and so the constant, can change under transposition.
    The matrix rank is that of degree ``k``: ``rank M^T = rank M``.

    The vanishing rule of :func:`verify_triangular` forces an entry when its
    condition holds in one orientation or the other, so swapping row and
    column leaves it unchanged: the violations of degree ``top - k`` are
    those of degree ``k``, transposed and listed in row-major order.
    """
    ctx = matrix.ctx
    k = ctx.top_degree - matrix.k
    position = {forest: i for i, forest in enumerate(admissible_dparts(ctx))}
    try:
        partners = sorted(zip(matrix.blocks, report.block_reports),
                          key=lambda pair: position[dual_forest(pair[0].forest)])
    except KeyError as err:
        raise ValueError(f"{err.args[0]!r} is not in the degree {k} layout") from None
    row_of = [0] * len(matrix.cols)
    col_of = [0] * len(matrix.rows)
    block_reports = []
    row_stop = col_stop = 0
    for b, p in partners:
        block = _block(ctx, dual_forest(b.forest), row_stop, b.n_cols, col_stop, b.n_rows)
        row_stop, col_stop = block.row_stop, block.col_stop
        row_of[b.col_start:b.col_stop] = range(block.row_start, block.row_stop)
        col_of[b.row_start:b.row_stop] = range(block.col_start, block.col_stop)
        if p.proportional:
            block_reports.append(_block_report(
                ctx, block, p.constant, True, p.block_rank, p.reference_rank
            ))
        else:
            sub = [{} for _ in range(b.n_cols)]
            for i, row in enumerate(matrix.submatrix(b)):
                for j, v in row.items():
                    sub[j][i] = v
            block_reports.append(_compare_block(ctx, matrix.table, k, block, sub))
    return ConjectureReport(
        k=k,
        n_rows=len(matrix.cols),
        n_cols=len(matrix.rows),
        matrix_rank=report.matrix_rank,
        triangle_violations=tuple(sorted(
            (row_of[j], col_of[i], v) for i, j, v in report.triangle_violations
        )),
        block_reports=tuple(block_reports),
    )


def all_degree_reports(ctx: RingContext, fill):
    """The :func:`conjecture_check` of every degree, in the order
    ``0, top, 1, top - 1, ...``: degree ``k <= top / 2`` is filled by
    ``fill(k)`` and checked, and degree ``top - k`` is read off it by
    :func:`dual_conjecture_check`.  A filled matrix is dropped once the
    report of its dual has been handed out."""
    top = ctx.top_degree
    for k in range(top // 2 + 1):
        matrix = fill(k)
        report = conjecture_check(matrix)
        yield report
        if 2 * k != top:
            yield dual_conjecture_check(matrix, report)
        del matrix


# ---------------------------------------------------------------------------
# duality of classes and global rank symmetry


def check_duality_classes(ctx: RingContext, k: int) -> list[tuple]:
    """Violations of the degree ``k`` vs ``top - k`` class correspondence.

    Classes are (exceptional part, remaining degree) pairs.  The involution
    reflects every vertex exponent through its budget and the remaining
    degree through ``g - 2 + |S|``; it must map nonempty classes of degree
    ``k`` onto nonempty classes of degree ``top - k`` and be self-inverse.
    """
    top = ctx.top_degree
    bad = []
    for forest in admissible_dparts(ctx):
        label = dpart_monomial(forest)
        S = marking_set(ctx, forest)
        cap = ctx.g - 2 + len(S)
        ddeg = sum(e for _, e in forest.vertices)
        delta = k - ddeg
        present = 0 <= delta <= cap and bool(cluster_monomials(ctx, S, delta))
        dual = dual_forest(forest)
        if dual_forest(dual) != forest:
            bad.append(("involution", label))
            continue
        dual_ddeg = sum(e for _, e in dual.vertices)
        dual_delta = (top - k) - dual_ddeg
        dual_present = (
            0 <= dual_delta <= cap and bool(cluster_monomials(ctx, S, dual_delta))
        )
        if present != dual_present:
            bad.append(("presence", label, delta, dual_delta))
        elif present and dual_delta != cap - delta:
            bad.append(("degree", label, delta, dual_delta))
    return bad


def is_gorenstein(dims: Sequence[int]) -> bool:
    """Whether a rank sequence is palindromic with 1 in degrees 0 and top."""
    return dims == dims[::-1] and dims[0] == dims[-1] == 1
