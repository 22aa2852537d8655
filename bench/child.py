"""The program side of a benchmark run; ``run.py`` starts it, one per run.

Two modes, both run in a process that imports ``tautring`` from ``--src``:

``normalize``
    reads ``{"items": [[g, n, text], ...], "sample": [...]}`` on stdin.
    Round 0 processes every item once and keeps its outputs for checking;
    then whole timed rounds run until ``--seconds`` have passed.  With
    ``--trace FILE`` one untraced round is followed by one traced round.
    The sampled items are then normalized again for the property checks.
    Prints one JSON object.

``cli``
    runs ``tautring.cli.main`` on the arguments after ``--`` with tracing
    installed, then writes the trace summary to ``--trace FILE``.  Stdout is
    the program's own.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def _format(poly, normal, cert, verified) -> str:
    """The text ``normalize --emit-certificate --format json`` prints."""
    return json.dumps({
        "command": "normalize",
        "input": repr(poly),
        "normal_form": repr(normal),
        "steps": [s.describe() for s in cert.steps],
        "verified": verified,
    }, sort_keys=True, indent=2) + "\n"


class NormalizeOps:
    """One operation: parse, normalize with a certificate, replay, format."""

    def __init__(self, items):
        from tautring import core

        self.items = items
        self.ctxs = {(g, n): core.RingContext(g, n) for g, n, _ in items}
        self.format = _format

    def one(self, g, n, text):
        from tautring import grammar, rewrite

        ctx = self.ctxs[(g, n)]
        poly = grammar.parse_polynomial(ctx, text)
        normal, cert = rewrite.Normalizer(ctx).normalize(poly, record=True)
        verified = cert.verify(poly, normal)
        return self.format(poly, normal, cert, verified)

    def round(self, latencies=None):
        clock = time.perf_counter_ns
        out = []
        for g, n, text in self.items:
            t = clock()
            out.append(self.one(g, n, text))
            if latencies is not None:
                latencies.append(clock() - t)
        return out


def _probes(ops, sample, outputs):
    """Second normalization of sampled normal forms, and of their input terms."""
    from tautring import core, grammar, rewrite

    fixed, linear = [], []
    for idx in sample:
        g, n, text = ops.items[idx]
        ctx = ops.ctxs[(g, n)]
        normal = grammar.parse_polynomial(ctx, json.loads(outputs[idx])["normal_form"])
        fixed.append(repr(rewrite.Normalizer(ctx).normalize(normal)))
        terms = []
        for m, c in grammar.parse_polynomial(ctx, text).items():
            nf = rewrite.Normalizer(ctx).normalize(core.Polynomial.monomial(m))
            terms.append([str(c), repr(m), repr(nf)])
        linear.append(terms)
    return fixed, linear


def run_normalize(args) -> int:
    request = json.load(sys.stdin)
    ops = NormalizeOps([tuple(x) for x in request["items"]])
    outputs = ops.round()
    rounds, cpu, latencies = [], [], []
    traced = None
    if args.trace:
        from tracing import Tracer

        wall0, cpu0 = time.perf_counter(), time.process_time()
        again = ops.round(latencies)
        rounds.append(time.perf_counter() - wall0)
        cpu.append(time.process_time() - cpu0)
        tracer = Tracer()
        tracer.install()
        ops.format = _traced_format(tracer)
        wall0 = time.perf_counter()
        ops.round()
        traced_s = time.perf_counter() - wall0
        tracer.uninstall()
        ops.format = _format
        traced = _write_trace(tracer, args.trace, {"trace.solve_s": traced_s})
    else:
        began = time.perf_counter()
        while not rounds or time.perf_counter() - began < args.seconds:
            wall0, cpu0 = time.perf_counter(), time.process_time()
            again = ops.round(latencies)
            rounds.append(time.perf_counter() - wall0)
            cpu.append(time.process_time() - cpu0)
    fixed, linear = _probes(ops, request["sample"], outputs)
    json.dump({
        "outputs": outputs,
        "repeat_identical": again == outputs,
        "round_s": rounds,
        "round_cpu_s": cpu,
        "latency_ns": latencies,
        "fixed_point": fixed,
        "linear_terms": linear,
        "trace": traced,
    }, sys.stdout)
    return 0


def _traced_format(tracer):
    def traced(*args):
        i = tracer.open("cli.format")
        try:
            return _format(*args)
        finally:
            tracer.close(i)

    return traced


def _write_trace(tracer, path, extra) -> dict:
    """Write the spans (``.npy``) and the summary (JSON) once the pass is over."""
    import numpy as np

    t0 = time.perf_counter()
    summary = tracer.summary()
    summary.update(extra)
    np.save(os.path.splitext(path)[0] + ".spans.npy", tracer.columns())
    summary["trace.write_s"] = time.perf_counter() - t0
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=1)
    return summary


def run_cli(args) -> int:
    from tracing import Tracer

    tracer = Tracer()
    i = tracer.open("setup.import")
    import tautring.cli

    tracer.close(i)
    tracer.install()
    try:
        code = tautring.cli.main(args.argv)
        sys.stdout.flush()
    finally:
        tracer.uninstall()
    _write_trace(tracer, args.trace, {})
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("normalize", "cli"))
    parser.add_argument("--src", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace")
    argv = sys.argv[1:]
    cut = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:cut])
    args.argv = argv[cut + 1:]
    sys.path.insert(0, args.src)
    return run_normalize(args) if args.mode == "normalize" else run_cli(args)


if __name__ == "__main__":
    sys.exit(main())
