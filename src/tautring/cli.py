"""Command-line entry point.

Subcommands: ``enumerate`` (standard basis of a degree), ``pairing`` (one
pairing matrix), ``verify`` (structure checks, optionally for every
degree), and ``normalize`` (rewrite a polynomial read from stdin).

Exit codes: 0 success, 1 a verification check failed, 2 usage or
configuration problems, 3 the rewriter gave up (step budget or cycle).

Output is deterministic byte for byte: JSON is emitted with sorted keys and
carries no timing, and the multiprocess fill path looks each entry up by the
text of the first product of its orbit, whichever worker valued it.

Output is written to stdout as it is encoded, never held as one text, and
only after the computation has ended, so a command stopped by an error
prints nothing.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from itertools import islice
from typing import Optional

from . import __version__
from .core import RingContext
from .evaluate import EvaluationError, Evaluator, KappaTable, KappaTableError
from .forest import enumerate_basis
from .grammar import GrammarError, parse_monomial, parse_polynomial
from .pairing import (
    all_degree_reports,
    check_duality_classes,
    conjecture_check,
    is_gorenstein,
    pairing_matrix,
)
from .rewrite import NonTermination, Normalizer


# JSON pieces joined per write: one write per piece is slow on an
# unbuffered stdout, and joining all of them would hold the whole text.
_JSON_BATCH = 2048


def _write_json(obj) -> None:
    """Write ``obj`` as sorted JSON indented by 2, then a newline, one batch
    of encoded pieces at a time."""
    pieces = json.JSONEncoder(sort_keys=True, indent=2).iterencode(obj)
    while chunk := "".join(islice(pieces, _JSON_BATCH)):
        sys.stdout.write(chunk)
    sys.stdout.write("\n")


def _csv_writer():
    return csv.writer(sys.stdout, lineterminator="\n")


# Name of the one marking-set rule (root minima plus uncovered markings),
# printed in every output.
MODE = "complement"


def _context(args) -> RingContext:
    return RingContext(args.g, args.n)


def _table(args, ctx: RingContext) -> KappaTable:
    path = getattr(args, "kappa_table", None)
    if path:
        return KappaTable.load(ctx.g, path)
    if ctx.g >= 4:
        raise KappaTableError(
            f"genus {ctx.g} has no built-in kappa table; pass --kappa-table"
        )
    return KappaTable.builtin(ctx.g)


def _evaluator(args, ctx: RingContext, table: KappaTable) -> Evaluator:
    normalizer = Normalizer(ctx, max_steps=args.max_rewrite_steps)
    return Evaluator(ctx, table, normalizer)


# ---------------------------------------------------------------------------
# enumerate


def _cmd_enumerate(args) -> int:
    ctx = _context(args)
    if args.k < 0 or args.k > ctx.top_degree:
        raise ValueError(f"degree {args.k} outside 0..{ctx.top_degree}")
    basis = enumerate_basis(ctx, args.k)
    if args.dpart is not None:
        want = parse_monomial(ctx, args.dpart)
        if want.a_part().pairs:
            raise GrammarError("--dpart must only contain D(...) factors")
        basis = [sm for sm in basis if sm.dpart == want]
    if args.format == "json":
        _write_json({
            "command": "enumerate",
            "count": len(basis),
            "g": ctx.g,
            "k": args.k,
            "mode": MODE,
            "monomials": [
                {
                    "S": sorted(sm.S),
                    "dpart": repr(sm.dpart),
                    "monomial": repr(sm.monomial),
                    "p": sm.p,
                }
                for sm in basis
            ],
            "n": ctx.n,
        })
    elif args.format == "csv":
        writer = _csv_writer()
        writer.writerow(["monomial", "dpart", "p", "S"])
        for sm in basis:
            writer.writerow([repr(sm.monomial), repr(sm.dpart), sm.p,
                             " ".join(map(str, sorted(sm.S)))])
    else:
        sys.stdout.write("".join(repr(sm.monomial) + "\n" for sm in basis))
    return 0


# ---------------------------------------------------------------------------
# pairing


def _entry_texts(matrix) -> list[list[str]]:
    """The entries of ``matrix`` as text, every column of every row: the zeros
    share one ``"0"``, and each distinct value object is formatted once, so
    entries that are one object share one ``str``.

    Keyed by ``id``, which is sound because ``matrix.entries`` keeps every
    value alive meanwhile; the fill shares one value object per S_n orbit.
    """
    texts: dict[int, str] = {}
    out = []
    for row in matrix.entries:
        line = ["0"] * len(matrix.cols)
        for j, v in row.items():
            t = texts.get(id(v))
            if t is None:
                t = texts[id(v)] = str(v)
            line[j] = t
        out.append(line)
    return out


def _matrix_payload(matrix) -> dict:
    return {
        "blocks": [
            {
                "cols": [b.col_start, b.col_stop],
                "label": repr(b.label),
                "rows": [b.row_start, b.row_stop],
            }
            for b in matrix.blocks
        ],
        "cols": [repr(sm.monomial) for sm in matrix.cols],
        "entries": _entry_texts(matrix),
        "g": matrix.ctx.g,
        "k": matrix.k,
        "mode": MODE,
        "n": matrix.ctx.n,
        "rank": matrix.rank(),
        "rows": [repr(sm.monomial) for sm in matrix.rows],
    }


def _cmd_pairing(args) -> int:
    ctx = _context(args)
    table = _table(args, ctx)
    matrix = pairing_matrix(ctx, args.k, _evaluator(args, ctx, table), args.parallelism)
    if args.format == "json":
        _write_json({"command": "pairing", **_matrix_payload(matrix)})
        return 0
    texts = _entry_texts(matrix)
    if args.format == "csv":
        writer = _csv_writer()
        writer.writerow([""] + [repr(sm.monomial) for sm in matrix.cols])
        for sm, row in zip(matrix.rows, texts):
            writer.writerow([repr(sm.monomial), *row])
        return 0
    head = [
        f"pairing g={ctx.g} n={ctx.n} k={args.k} mode={MODE} "
        f"rank={matrix.rank()}",
        f"rows ({len(matrix.rows)}): "
        + "; ".join(repr(sm.monomial) for sm in matrix.rows),
        f"cols ({len(matrix.cols)}): "
        + "; ".join(repr(sm.monomial) for sm in matrix.cols),
    ]
    sys.stdout.write("".join(line + "\n" for line in head))
    for row in texts:
        sys.stdout.write(" ".join(row) + "\n")
    return 0


# ---------------------------------------------------------------------------
# verify


def _verify_data(args, ctx: RingContext, table: KappaTable) -> dict:
    evaluator = _evaluator(args, ctx, table)

    def fill(k):
        return pairing_matrix(ctx, k, evaluator, args.parallelism)

    if args.k is not None:
        reports = [conjecture_check(fill(args.k))]
    else:
        reports = all_degree_reports(ctx, fill)
    checks = []
    all_ok = True
    for report in reports:
        k = report.k
        duality_bad = check_duality_classes(ctx, k)
        ok = report.ok and not duality_bad
        all_ok = all_ok and ok
        checks.append({
            "blocks": [
                {
                    "block_rank": b.block_rank,
                    "cols": b.n_cols,
                    "constant": None if b.constant is None else str(b.constant),
                    "epsilon": b.epsilon,
                    "label": repr(b.label),
                    "marking_set": list(b.S),
                    "matches_rule": b.matches_rule,
                    "proportional": b.proportional,
                    "quoted_constant": str(b.quoted_constant),
                    "reference_rank": b.reference_rank,
                    "rows": b.n_rows,
                    "rule_constant": str(b.rule_constant),
                }
                for b in report.block_reports
            ],
            "cols": report.n_cols,
            "duality_violations": len(duality_bad),
            "k": k,
            "ok": ok,
            "rank": report.matrix_rank,
            "rank_additive": report.rank_additive,
            "rows": report.n_rows,
            "triangle_violations": len(report.triangle_violations),
        })
    checks.sort(key=lambda c: c["k"])
    data = {
        "checks": checks,
        "command": "verify",
        "g": ctx.g,
        "mode": MODE,
        "n": ctx.n,
    }
    if args.k is None:
        dims = [c["rank"] for c in checks]
        palindromic = is_gorenstein(dims)
        data["dims"] = dims
        data["dims_palindromic"] = palindromic
        all_ok = all_ok and palindromic
    else:
        data["dims"] = None
        data["dims_palindromic"] = None
    data["ok"] = all_ok
    return data


def _verify_text(data: dict) -> str:
    lines = [
        f"verify g={data['g']} n={data['n']} mode={data['mode']}",
    ]
    for c in data["checks"]:
        lines.append(
            f"k={c['k']} rank={c['rank']} ({c['rows']}x{c['cols']}) "
            f"triangle_violations={c['triangle_violations']} "
            f"duality_violations={c['duality_violations']} "
            f"rank_additive={'yes' if c['rank_additive'] else 'no'} "
            f"ok={'yes' if c['ok'] else 'no'}"
        )
        for b in c["blocks"]:
            lines.append(
                f"  block {b['label']}: {b['rows']}x{b['cols']} "
                f"constant={b['constant']} rule={b['rule_constant']} "
                f"matches_rule={b['matches_rule']} "
                f"rank={b['block_rank']}/{b['reference_rank']}"
            )
    if data["dims"] is not None:
        lines.append(
            "dims=" + ",".join(map(str, data["dims"]))
            + f" palindromic={'yes' if data['dims_palindromic'] else 'no'}"
        )
    lines.append("OK" if data["ok"] else "FAIL")
    return "".join(line + "\n" for line in lines)


def _cmd_verify(args) -> int:
    ctx = _context(args)
    table = _table(args, ctx)
    data = _verify_data(args, ctx, table)
    if args.format == "json":
        _write_json(data)
    else:
        sys.stdout.write(_verify_text(data))
    return 0 if data["ok"] else 1


# ---------------------------------------------------------------------------
# normalize


def _cmd_normalize(args) -> int:
    ctx = _context(args)
    source = sys.stdin.read()
    poly = parse_polynomial(ctx, source)
    normalizer = Normalizer(ctx, max_steps=args.max_rewrite_steps)
    if args.emit_certificate:
        normal, cert = normalizer.normalize(poly, record=True)
        verified = cert.verify(poly, normal)
        if args.format == "json":
            _write_json({
                "command": "normalize",
                "input": repr(poly),
                "normal_form": repr(normal),
                "steps": [s.describe() for s in cert.steps],
                "verified": verified,
            })
        else:
            lines = [repr(normal)]
            for i, s in enumerate(cert.steps):
                d = s.describe()
                lines.append(
                    f"step {i}: {d['family']} params={d['params']} "
                    f"quotient={d['quotient']} coeff={d['coeff']}"
                )
            lines.append(f"certificate: {'verified' if verified else 'MISMATCH'}")
            sys.stdout.write("".join(line + "\n" for line in lines))
        return 0 if verified else 1
    normal = normalizer.normalize(poly)
    if args.format == "json":
        _write_json({
            "command": "normalize",
            "input": repr(poly),
            "normal_form": repr(normal),
        })
    else:
        sys.stdout.write(repr(normal) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser


PARALLELISM_HELP = (
    "worker processes for the matrix fill (default 1); the output never "
    "depends on it, and on a 2-vCPU machine 2 is slower than serial"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tautring",
        description="standard-monomial calculus and pairing checks "
        "for tautological rings of pointed curves with rational tails",
    )
    parser.add_argument("--version", action="version", version=f"tautring {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("text", "json", "csv")):
        p.add_argument("--g", type=int, required=True, help="genus (>= 2)")
        p.add_argument("--n", type=int, required=True, help="number of markings (>= 1)")
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument(
            "--max-rewrite-steps", type=int, default=10 ** 6,
            help="distinct monomials one normalization may rewrite "
            "before giving up (exit code 3)",
        )

    p = sub.add_parser("enumerate", help="list the standard basis of a degree")
    common(p)
    p.add_argument("--k", type=int, required=True, help="degree")
    p.add_argument("--dpart", help="only monomials with this exceptional part")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("pairing", help="print one pairing matrix")
    common(p)
    p.add_argument("--k", type=int, required=True, help="row degree")
    p.add_argument("--kappa-table", help="kappa table file (required for g >= 4)")
    p.add_argument("--parallelism", type=int, default=1, help=PARALLELISM_HELP)
    p.set_defaults(func=_cmd_pairing)

    p = sub.add_parser("verify", help="run the structure checks")
    common(p, formats=("text", "json"))
    p.add_argument("--k", type=int, default=None, help="single degree (default: all)")
    p.add_argument("--kappa-table", help="kappa table file (required for g >= 4)")
    p.add_argument("--parallelism", type=int, default=1, help=PARALLELISM_HELP)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("normalize", help="normalize a polynomial read from stdin")
    common(p, formats=("text", "json"))
    p.add_argument(
        "--emit-certificate", action="store_true",
        help="record and verify the rewrite steps",
    )
    p.set_defaults(func=_cmd_normalize)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if getattr(args, "parallelism", 1) < 1:
            raise ValueError("--parallelism must be at least 1")
        if getattr(args, "max_rewrite_steps", 1) < 1:
            raise ValueError("--max-rewrite-steps must be at least 1")
        return args.func(args)
    except NonTermination as err:
        print(f"tautring: {err}", file=sys.stderr)
        return 3
    except (GrammarError, KappaTableError, EvaluationError, ValueError, OSError) as err:
        print(f"tautring: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
