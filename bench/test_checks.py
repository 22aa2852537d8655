"""Each output check passes on real program output and fails on a corrupted copy.

Run from the repository root:  python3 -m pytest bench/test_checks.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import child  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from tautring import cli  # noqa: E402


def program_stdout(*argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(argv)) == 0
    return buf.getvalue()


# -- verify -----------------------------------------------------------------


@pytest.fixture(scope="module")
def verify_g2n4():
    return program_stdout("verify", "--g", "2", "--n", "4", "--format", "json")


def corrupt_json(text, edit):
    data = json.loads(text)
    edit(data)
    return json.dumps(data, sort_keys=True, indent=2)


def test_verify_passes(verify_g2n4):
    assert checks.check_verify(verify_g2n4, 2, 4) == []


def _first_block_with_sets(data):
    return next(b for c in data["checks"] for b in c["blocks"] if b["label"] != "1")


@pytest.mark.parametrize("edit", [
    lambda d: d.update(ok=False),
    lambda d: d.update(dims=[1, 15, 35, 14, 1]),
    lambda d: d["checks"][1].update(rank=d["checks"][1]["rank"] - 1),
    lambda d: d["checks"][1].update(rows=d["checks"][1]["rows"] + 1),
    lambda d: d["checks"][2]["blocks"][0].update(block_rank=d["checks"][2]["blocks"][0]["block_rank"] + 1),
    lambda d: _first_block_with_sets(d).update(constant="1/2"),
    lambda d: _first_block_with_sets(d).update(epsilon=_first_block_with_sets(d)["epsilon"] + 1),
])
def test_verify_fails_on_corruption(verify_g2n4, edit):
    assert checks.check_verify(corrupt_json(verify_g2n4, edit), 2, 4)


def test_ok_is_read_from_the_top_level(verify_g2n4):
    # per-degree "ok": true entries must not make a failing report pass
    bad = corrupt_json(verify_g2n4, lambda d: d.update(ok=False))
    assert '"ok": true' in bad
    assert any("top-level ok" in p for p in checks.check_verify(bad, 2, 4))


def test_label_epsilon_and_S():
    # D(1,2,3,4) contains D(1,2,3): union 4 markings, one nesting edge
    assert checks.label_epsilon_and_S("D(1,2,3)*D(1,2,3,4)^2", 5) == (5, (1, 5))
    assert checks.label_epsilon_and_S("1", 3) == (0, (1, 2, 3))


# -- pairing ----------------------------------------------------------------


@pytest.fixture(scope="module")
def pairing_g2n4_k2():
    return program_stdout("pairing", "--g", "2", "--n", "4", "--k", "2", "--format", "json")


def test_pairing_passes(pairing_g2n4_k2):
    assert checks.check_pairing(pairing_g2n4_k2, 2, 4, 2) == []


def _break_symmetry(d):
    i = next(i for i, row in enumerate(d["entries"]) if any(x != "0" for x in row))
    j = next(j for j, x in enumerate(d["entries"][i]) if x != "0")
    d["entries"][i][j] = str(2 * int(d["entries"][i][j].split("/")[0])) + "/7"


@pytest.mark.parametrize("edit", [
    lambda d: d.update(rank=d["rank"] + 1),
    lambda d: d.update(rank=d["rank"] - 1),
    _break_symmetry,
    lambda d: d["entries"].pop(),
    lambda d: d.update(cols=d["cols"][::-1]),
])
def test_pairing_fails_on_corruption(pairing_g2n4_k2, edit):
    assert checks.check_pairing(corrupt_json(pairing_g2n4_k2, edit), 2, 4, 2)


def test_rank_mod_p_matches_small_cases():
    assert checks.rank_mod_p([["1", "2"], ["2", "4"]], checks.PRIMES[0]) == 1
    assert checks.rank_mod_p([["1/2", "0"], ["0", "-3/5"]], checks.PRIMES[0]) == 2
    assert checks.rank_mod_p([["0", "0"]], checks.PRIMES[1]) == 0


# -- parallel output identity -------------------------------------------------


def test_parallel_output_must_equal_serial():
    argv = ["verify", "--g", "2", "--n", "2", "--format", "json"]
    work = run.CliWorkload(argv + ["--parallelism", "2"], lambda text: [], reference=argv)
    same = run.Result()
    work.check_outputs(same, [program_stdout(*argv).encode()])
    assert same.problems == []
    differs = run.Result()
    work.check_outputs(differs, [program_stdout(*argv).encode() + b" "])
    assert differs.problems


# -- normalize_certified --------------------------------------------------------


@pytest.fixture(scope="module")
def normalize_run():
    items = [x for x in inputs.normalize_stream(7) if x[1] <= 4][:40]
    ops = child.NormalizeOps(items)
    outputs = ops.round()
    sample = list(range(0, len(items), 4))
    fixed, linear = child._probes(ops, sample, outputs)
    result = {"outputs": outputs, "repeat_identical": ops.round() == outputs,
              "fixed_point": fixed, "linear_terms": linear}
    return items, result, sample


def test_normalize_passes(normalize_run):
    items, result, sample = normalize_run
    assert checks.check_normalize(items, result, sample) == []


def _edit_output(result, idx, edit):
    out = json.loads(json.dumps(result))
    data = json.loads(out["outputs"][idx])
    edit(data)
    out["outputs"][idx] = json.dumps(data)
    return out


def _first_with_steps(items, result):
    return next(i for i, o in enumerate(result["outputs"]) if json.loads(o)["steps"])


def test_normalize_fails_on_wrong_normal_form(normalize_run):
    items, result, sample = normalize_run
    i = _first_with_steps(items, result)
    bad = _edit_output(result, i, lambda d: d.update(normal_form=d["normal_form"] + " + K1"))
    assert checks.check_normalize(items, bad, sample)


def test_normalize_fails_on_dropped_step(normalize_run):
    items, result, sample = normalize_run
    i = _first_with_steps(items, result)
    bad = _edit_output(result, i, lambda d: d["steps"].pop())
    assert checks.check_normalize(items, bad, sample)


def test_normalize_fails_on_wrong_step_coefficient(normalize_run):
    items, result, sample = normalize_run
    i = _first_with_steps(items, result)
    bad = _edit_output(result, i, lambda d: d["steps"][0].update(coeff="12345"))
    assert checks.check_normalize(items, bad, sample)


def test_normalize_fails_when_not_a_fixed_point(normalize_run):
    items, result, sample = normalize_run
    bad = json.loads(json.dumps(result))
    bad["fixed_point"][0] = bad["fixed_point"][0] + " + d(1,2)"
    assert checks.check_normalize(items, bad, sample)


def test_normalize_fails_when_not_linear(normalize_run):
    items, result, sample = normalize_run
    bad = json.loads(json.dumps(result))
    coeff, mono, nf = bad["linear_terms"][0][0]
    bad["linear_terms"][0][0] = [coeff, mono, nf + " + K1"]
    assert checks.check_normalize(items, bad, sample)


def test_normalize_fails_on_unverified_or_repeated_mismatch(normalize_run):
    items, result, sample = normalize_run
    bad = _edit_output(result, 0, lambda d: d.update(verified=False))
    assert checks.check_normalize(items, bad, sample)
    assert checks.check_normalize(items, dict(result, repeat_identical=False), sample)


def test_stream_is_seeded():
    assert inputs.normalize_stream(3) == inputs.normalize_stream(3)
    assert inputs.normalize_stream(3) != inputs.normalize_stream(4)
    assert all(n <= 5 for _, n, _ in inputs.normalize_stream(3))
