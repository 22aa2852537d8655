"""Spans and counters around the public functions of ``tautring``.

Nothing here changes the program: wrappers are installed from outside, in
the class that owns a method or in every ``tautring`` module that holds a
reference to a wrapped function, and are removed again by
:meth:`Tracer.uninstall`.  Each span records its name, start, end and the
index of the span that was open when it started (its parent).  Spans stay
in memory, in flat ``array('q')`` columns, until :meth:`Tracer.summary`
turns them into per-layer metrics after the traced pass has ended.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import Counter

# (span name, module, attribute path); the span name is "<layer>.<function>".
SPANS = (
    ("cli.main", "tautring.cli", "main"),
    ("grammar.parse_polynomial", "tautring.grammar", "parse_polynomial"),
    ("grammar.parse_monomial", "tautring.grammar", "parse_monomial"),
    ("forest.enumerate_basis", "tautring.forest", "enumerate_basis"),
    ("rewrite.Normalizer.normalize", "tautring.rewrite", "Normalizer.normalize"),
    ("rewrite.Normalizer.find_step", "tautring.rewrite", "Normalizer.find_step"),
    ("rewrite.Certificate.verify", "tautring.rewrite", "Certificate.verify"),
    ("evaluate.Evaluator.evaluate_monomial", "tautring.evaluate", "Evaluator.evaluate_monomial"),
    ("evaluate.evaluate_free", "tautring.evaluate", "evaluate_free"),
    ("pairing.pairing_matrix", "tautring.pairing", "pairing_matrix"),
    ("pairing._parallel_entries", "tautring.pairing", "_parallel_entries"),
    ("pairing.PairingMatrix.rank", "tautring.pairing", "PairingMatrix.rank"),
    ("pairing.conjecture_check", "tautring.pairing", "conjecture_check"),
    ("pairing.block_constant_reports", "tautring.pairing", "block_constant_reports"),
    ("pairing.verify_triangular", "tautring.pairing", "verify_triangular"),
    ("pairing.check_duality_classes", "tautring.pairing", "check_duality_classes"),
    ("linalg.exact_rank", "tautring.linalg", "exact_rank"),
)

# Spans opened by the benchmark's own code rather than around the program.
LOCAL_SPANS = ("setup.import", "cli.format")

NAMES = tuple(s[0] for s in SPANS) + LOCAL_SPANS

# Self time of these spans (summed per metric) is a per-layer metric.
SELF_TIME = {
    "cli.self_s": ("cli.main", "cli.format"),
    "grammar.parse_s": ("grammar.parse_polynomial", "grammar.parse_monomial"),
    "forest.enumerate_basis_s": ("forest.enumerate_basis",),
    "rewrite.normalize_s": ("rewrite.Normalizer.normalize",),
    "rewrite.find_step_s": ("rewrite.Normalizer.find_step",),
    "rewrite.certificate_verify_s": ("rewrite.Certificate.verify",),
    "evaluate.evaluate_monomial_s": ("evaluate.Evaluator.evaluate_monomial",),
    "evaluate.evaluate_free_s": ("evaluate.evaluate_free",),
    "pairing.fill_s": ("pairing.pairing_matrix",),
    "pairing.pool_wall_s": ("pairing._parallel_entries",),
    "pairing.rank_s": ("pairing.PairingMatrix.rank",),
    "pairing.check_s": ("pairing.conjecture_check",),
    "pairing.blocks_s": ("pairing.block_constant_reports",),
    "pairing.triangular_s": ("pairing.verify_triangular",),
    "pairing.duality_s": ("pairing.check_duality_classes",),
    "linalg.exact_rank_s": ("linalg.exact_rank",),
    "setup.import_s": ("setup.import",),
}

CALLS = {
    "rewrite.find_step_calls": "rewrite.Normalizer.find_step",
    "evaluate.evaluate_monomial_calls": "evaluate.Evaluator.evaluate_monomial",
    "evaluate.evaluate_free_calls": "evaluate.evaluate_free",
    "linalg.exact_rank_calls": "linalg.exact_rank",
}

STEP_FAMILIES = ("R1a", "R1b", "R3", "V0", "V1", "CS", "CK", "CD")

COUNTERS = (
    "core.from_pairs_calls",
    "forest.basis_monomials",
    "rewrite.steps",
    *(f"rewrite.steps.{f}" for f in STEP_FAMILIES),
    "rewrite.certificate_steps",
    "pairing.entries",
    "linalg.rank_cells",
)


def _resolve(module: str, path: str):
    """(owner, attribute, original) for a function or a method."""
    owner = importlib.import_module(module)
    *classes, attr = path.split(".")
    for c in classes:
        owner = getattr(owner, c)
    return owner, attr, owner.__dict__[attr]


class Tracer:
    def __init__(self):
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counts = Counter()
        self.normalizers = []
        self.evaluators = []
        self._undo = []

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> int:
        i = len(self.start)
        self.name.append(NAMES.index(name))
        self.parent.append(self.stack[-1])
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self.stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self.stack.pop()

    def _wrap(self, nid: int, fn, after=None):
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(clock())
            ends.append(0)
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return wrapper

    # -- counters -------------------------------------------------------------

    def _after_hooks(self):
        counts = self.counts

        def find_step(result, args):
            if result is not None:
                counts["rewrite.steps"] += 1
                counts["rewrite.steps." + result[0].family] += 1

        def enumerate_basis(result, args):
            counts["forest.basis_monomials"] += len(result)

        def exact_rank(result, args):
            rows = args[0]
            counts["linalg.rank_cells"] += len(rows) * (len(rows[0]) if len(rows) else 0)

        def pairing_matrix(result, args):
            counts["pairing.entries"] += len(result.rows) * len(result.cols)

        def certificate_verify(result, args):
            counts["rewrite.certificate_steps"] += len(args[0].steps)

        return {
            "rewrite.Normalizer.find_step": find_step,
            "forest.enumerate_basis": enumerate_basis,
            "linalg.exact_rank": exact_rank,
            "pairing.pairing_matrix": pairing_matrix,
            "rewrite.Certificate.verify": certificate_verify,
        }

    # -- installation ---------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every function of :data:`SPANS`, importing its module if needed."""
        for _, module, _ in SPANS:
            importlib.import_module(module)
        modules = [m for k, m in sys.modules.items() if k == "tautring" or k.startswith("tautring.")]
        hooks = self._after_hooks()
        for span, module, path in SPANS:
            owner, attr, orig = _resolve(module, path)
            wrapper = self._wrap(NAMES.index(span), orig, hooks.get(span))
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._set(m, key, wrapper)

        counts = self.counts
        core = sys.modules["tautring.core"]
        from_pairs = core.Monomial.__dict__["from_pairs"].__func__

        def counted_from_pairs(items):
            counts["core.from_pairs_calls"] += 1
            return from_pairs(items)

        self._set(core.Monomial, "from_pairs", staticmethod(counted_from_pairs))

        for cls, registry in (
            (sys.modules["tautring.rewrite"].Normalizer, self.normalizers),
            (sys.modules["tautring.evaluate"].Evaluator, self.evaluators),
        ):
            init = cls.__dict__["__init__"]

            def registering_init(obj, *args, _init=init, _registry=registry, **kwargs):
                _init(obj, *args, **kwargs)
                _registry.append(obj)

            self._set(cls, "__init__", registering_init)

        # pool workers are forked from a traced process: run them untraced
        pairing = sys.modules["tautring.pairing"]
        pool_init = pairing._pool_init

        def untraced_pool_init(*args):
            self.uninstall()
            pool_init(*args)

        self._set(pairing, "_pool_init", untraced_pool_init)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results --------------------------------------------------------------

    def columns(self):
        """Spans as an ``(N, 4)`` int64 array: name id, parent, start ns, end ns."""
        import numpy as np

        cols = [np.frombuffer(a, dtype=np.int64) for a in (self.name, self.parent, self.start, self.end)]
        return np.stack(cols, axis=1) if len(self.start) else np.zeros((0, 4), dtype=np.int64)

    def summary(self) -> dict:
        """Per-layer metrics of everything recorded so far.

        Self time of a span is its duration minus the durations of its
        direct children.  ``trace.root_s`` is the summed duration of the
        spans that have no parent.
        """
        import numpy as np

        spans = self.columns()
        name, parent, dur = spans[:, 0], spans[:, 1], (spans[:, 3] - spans[:, 2]).astype(np.float64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_ns = np.bincount(name, weights=dur - child, minlength=len(NAMES))
        calls = np.bincount(name, minlength=len(NAMES))
        ids = {n: i for i, n in enumerate(NAMES)}

        out = {}
        for metric, spans_of in SELF_TIME.items():
            out[metric] = float(sum(self_ns[ids[s]] for s in spans_of)) / 1e9
        for metric, span in CALLS.items():
            out[metric] = int(calls[ids[span]])
        for metric in COUNTERS:
            out[metric] = int(self.counts[metric])
        free = name == ids["evaluate.evaluate_free"]
        in_blocks = np.zeros(len(name), dtype=bool)
        in_blocks[nested] = name[parent[nested]] == ids["pairing.block_constant_reports"]
        out["pairing.reference_evals"] = int(np.count_nonzero(free & in_blocks))
        out["rewrite.memo_entries"] = sum(len(nz._memo) for nz in self.normalizers)
        distinct = sum(len(ev._memo) for ev in self.evaluators)
        evals = out["evaluate.evaluate_monomial_calls"]
        out["evaluate.distinct_products"] = distinct
        out["evaluate.memo_hit_ratio"] = (evals - distinct) / evals if evals else 0.0
        out["pairing.product_reuse"] = out["pairing.entries"] / distinct if distinct else 0.0
        out["trace.spans"] = len(name)
        out["trace.root_s"] = float(dur[~nested].sum()) / 1e9
        return out
