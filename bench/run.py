"""Benchmark of the ``tautring`` program: one command, four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout, each operation in a fresh process unless the
workload says otherwise.  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it runs one untraced and one traced operation
and reports the per-layer metrics.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Traces
are written under ``bench/out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SPAWNS = 7
NORMALIZE_SAMPLE = 60

END_TO_END_UNITS = {
    "setup_s": "s", "solve_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
    "op_ms_p50": "ms", "op_ms_p99": "ms",
}


def program_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "TAUTRING_CACHE_DIR"}
    env["PYTHONPATH"] = str(SRC)
    return env


def child_cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def child_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def spawn(argv, **kwargs) -> tuple[float, float, subprocess.CompletedProcess]:
    """Run one program process to its end: (wall s, CPU s of it and its children, result)."""
    cpu0, t0 = child_cpu_s(), time.perf_counter()
    proc = subprocess.run(argv, env=program_env(), cwd=ROOT, capture_output=True, **kwargs)
    return time.perf_counter() - t0, child_cpu_s() - cpu0, proc


def measure_setup() -> float:
    """Median time to start the program with every module imported.

    One untimed start first, so the timed ones find compiled bytecode.
    """
    argv = [sys.executable, "-m", "tautring.cli", "--version"]
    times = []
    for i in range(SETUP_SPAWNS + 1):
        wall, _, proc = spawn(argv)
        if proc.returncode != 0:
            raise RuntimeError(f"program does not start: {proc.stderr.decode(errors='replace')}")
        if i:
            times.append(wall)
    return statistics.median(times)


def percentile_ms(samples_ns: list[int], q: int) -> float:
    return statistics.quantiles(samples_ns, n=100, method="inclusive")[q - 1] / 1e6


class Result:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}

    def emit(self) -> int:
        for p in self.problems[:20]:
            print(f"check failed: {p}", file=sys.stderr)
        print(json.dumps({
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        }))
        return 0 if not self.problems else 1


# ---------------------------------------------------------------------------
# workloads that run the command-line program, one cold process per operation


class CliWorkload:
    def __init__(self, argv: list[str], check, reference: list[str] | None = None):
        self.argv = argv
        self.check = check
        self.reference = reference

    def command(self) -> list[str]:
        return [sys.executable, "-m", "tautring.cli", *self.argv]

    def op(self, res: Result):
        res.attempted += 1
        wall, cpu, proc = spawn(self.command())
        if proc.returncode != 0:
            res.failed += 1
            print(proc.stderr.decode(errors="replace"), file=sys.stderr)
            return None
        return wall, cpu, proc.stdout

    def check_outputs(self, res: Result, outputs: list[bytes]) -> None:
        if not outputs:
            return
        res.problems += self.check(outputs[0].decode())
        if any(o != outputs[0] for o in outputs[1:]):
            res.problems.append("repeated runs printed different bytes")
        if self.reference is not None:
            _, _, proc = spawn([sys.executable, "-m", "tautring.cli", *self.reference])
            if proc.stdout != outputs[0]:
                res.problems.append(f"stdout differs from `{' '.join(self.reference)}`")

    def run(self, res: Result, seconds: float, seed: int) -> None:
        setup = measure_setup()
        walls, cpus, outputs = [], [], []
        began = time.perf_counter()
        while not res.attempted or time.perf_counter() - began < seconds:
            got = self.op(res)
            if got is not None:
                walls.append(got[0])
                cpus.append(got[1])
                outputs.append(got[2])
        peak = child_peak_rss_mb()
        self.check_outputs(res, outputs)
        if walls:
            solve = statistics.median(walls)
            res.metrics.update(_end_to_end(setup, solve, statistics.median(cpus), peak,
                                           solve * 1e3, solve * 1e3))

    def trace(self, res: Result, seed: int, trace_path: Path) -> None:
        got = self.op(res)
        res.attempted += 1
        wall, _, proc = spawn([sys.executable, str(HERE / "child.py"), "cli", "--src", str(SRC),
                               "--trace", str(trace_path), "--", *self.argv])
        if got is None or proc.returncode != 0:
            res.failed += proc.returncode != 0
            return
        self.check_outputs(res, [got[2], proc.stdout])
        summary = json.loads(trace_path.read_text())
        traced = wall - summary["trace.write_s"]
        summary.update({
            "trace.solve_s": traced,
            "trace.untraced_solve_s": got[0],
            "trace.overhead_ratio": traced / got[0],
            "trace.outside_share": 1 - summary["trace.root_s"] / traced,
        })
        res.metrics.update(_per_layer(summary))


# ---------------------------------------------------------------------------
# normalize_certified: one process, a seeded stream of polynomials


class NormalizeWorkload:
    def _checked(self, res: Result, seed: int, extra: list[str]) -> dict:
        """Run the stream in one program process and check its outputs."""
        items = inputs.normalize_stream(seed)
        sample = sorted(random.Random(seed).sample(range(len(items)), NORMALIZE_SAMPLE))
        payload = json.dumps({"items": items, "sample": sample}).encode()
        _, _, proc = spawn([sys.executable, str(HERE / "child.py"), "normalize",
                            "--src", str(SRC), *extra], input=payload)
        if proc.returncode != 0:
            raise RuntimeError(proc.stderr.decode(errors="replace"))
        out = json.loads(proc.stdout)
        res.attempted += len(items) * (1 + len(out["round_s"]))
        res.problems += checks.check_normalize(items, out, sample)
        return out

    def run(self, res: Result, seconds: float, seed: int) -> None:
        setup = measure_setup()
        out = self._checked(res, seed, ["--seconds", str(seconds)])
        lat = out["latency_ns"]
        res.metrics.update(_end_to_end(
            setup, statistics.median(out["round_s"]), statistics.median(out["round_cpu_s"]),
            child_peak_rss_mb(), percentile_ms(lat, 50), percentile_ms(lat, 99),
        ))

    def trace(self, res: Result, seed: int, trace_path: Path) -> None:
        out = self._checked(res, seed, ["--trace", str(trace_path)])
        res.attempted += len(out["outputs"])
        summary = out["trace"]
        untraced, traced = out["round_s"][0], summary["trace.solve_s"]
        summary.update({
            "trace.untraced_solve_s": untraced,
            "trace.overhead_ratio": traced / untraced,
            "trace.outside_share": 1 - summary["trace.root_s"] / traced,
        })
        res.metrics.update(_per_layer(summary))


def _end_to_end(setup, solve, cpu, peak, p50, p99) -> dict:
    values = {"setup_s": setup, "solve_s": solve, "cpu_s": cpu, "peak_rss_mb": peak,
              "op_ms_p50": p50, "op_ms_p99": p99}
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}


def _per_layer(summary: dict) -> dict:
    units = {m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}
    return {name: (summary[name], unit) for name, unit in units.items()}


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------


def _verify_check(g, n):
    return lambda text: checks.check_verify(text, g, n)


WORKLOADS = {
    "verify_g2n5": CliWorkload(
        ["verify", "--g", "2", "--n", "5", "--format", "json"], _verify_check(2, 5)),
    "pairing_g3n5_k3": CliWorkload(
        ["pairing", "--g", "3", "--n", "5", "--k", "3", "--format", "json"],
        lambda text: checks.check_pairing(text, 3, 5, 3)),
    "normalize_certified": NormalizeWorkload(),
    "verify_g3n4_p2": CliWorkload(
        ["verify", "--g", "3", "--n", "4", "--format", "json", "--parallelism", "2"],
        _verify_check(3, 4),
        reference=["verify", "--g", "3", "--n", "4", "--format", "json"]),
}


def main() -> int:
    parser = argparse.ArgumentParser(description="tautring benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "tautring" / "cli.py").is_file():
        print(f"no program sources under {SRC}", file=sys.stderr)
        return 2
    work = WORKLOADS[args.workload]
    res = Result()
    if args.trace:
        OUT.mkdir(exist_ok=True)
        work.trace(res, args.seed, OUT / f"trace-{args.workload}.json")
    else:
        work.run(res, args.seconds, args.seed)
    return res.emit()


if __name__ == "__main__":
    sys.exit(main())
