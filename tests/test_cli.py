import hashlib
import io
import json
import re
import tracemalloc
from pathlib import Path

import pytest

from tautring import cli
from tautring.cli import main
from tautring.rewrite import NonTermination

from conftest import forced_positions, get_matrices, with_entries


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


# -- enumerate -----------------------------------------------------------------


def test_enumerate_text(capsys):
    rc, out, _ = run(capsys, ["enumerate", "--g", "2", "--n", "2", "--k", "1"])
    assert rc == 0
    assert out.splitlines() == ["K1", "K2", "d(1,2)"]


def test_enumerate_json(capsys):
    rc, out, _ = run(capsys, ["enumerate", "--g", "2", "--n", "3", "--k", "1",
                              "--format", "json"])
    assert rc == 0
    data = json.loads(out)
    assert data["count"] == 7 and len(data["monomials"]) == 7
    assert data["g"] == 2 and data["n"] == 3 and data["k"] == 1
    entry = data["monomials"][-1]
    assert set(entry) == {"S", "dpart", "monomial", "p"}


def test_enumerate_csv(capsys):
    rc, out, _ = run(capsys, ["enumerate", "--g", "2", "--n", "2", "--k", "2",
                              "--format", "csv"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "monomial,dpart,p,S"
    assert len(lines) == 1 + 4


def test_enumerate_dpart_filter(capsys):
    rc, out, _ = run(capsys, ["enumerate", "--g", "2", "--n", "3", "--k", "1",
                              "--dpart", "D(1,2,3)"])
    assert rc == 0
    assert out.splitlines() == ["D(1,2,3)"]


def test_enumerate_dpart_rejects_free_factors(capsys):
    rc, _, err = run(capsys, ["enumerate", "--g", "2", "--n", "3", "--k", "1",
                              "--dpart", "K1"])
    assert rc == 2
    assert "dpart" in err


@pytest.mark.parametrize("k", ["99", "-1"])
def test_enumerate_rejects_degree_out_of_range(capsys, k):
    from tautring import RingContext, enumerate_basis

    rc, out, err = run(capsys, ["enumerate", "--g", "2", "--n", "3", "--k", k])
    assert rc == 2
    assert out == ""
    assert err == f"tautring: degree {k} outside 0..3\n"
    assert enumerate_basis(RingContext(2, 3), int(k)) == []


# sha256 of enumerate stdout, taken while the CSV and JSON texts were built
# whole before they were written: writing them as they are encoded must not
# change a byte.
ENUMERATE_SHA256 = {
    ("--g", "3", "--n", "5", "--k", "3", "--format", "json"):
        "9787a54988b37271ad9f73dd0736759e30543e9e9b16d709dabb8e7419526c0a",
    ("--g", "3", "--n", "5", "--k", "3", "--format", "csv"):
        "024ba05679001b5ec1bb0af91344ca3125b221998a9a2746cac10ade5bdb7d8b",
}


@pytest.mark.parametrize("argv", sorted(ENUMERATE_SHA256))
def test_enumerate_output_bytes_pinned(capsys, argv):
    rc, out, _ = run(capsys, ["enumerate", *argv])
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_SHA256[argv]


def test_set_s_mode_is_usage_error(capsys):
    # S has one rule; the option that selected another one is gone
    for command in ("enumerate", "pairing", "verify", "normalize"):
        assert main([command, "--help"]) == 0
        assert "--set-s-mode" not in capsys.readouterr().out
        rc, _, err = run(capsys, [command, "--g", "2", "--n", "3", "--k", "1",
                                  "--set-s-mode", "complement"])
        assert rc == 2 and "--set-s-mode" in err


# -- pairing -------------------------------------------------------------------


def test_pairing_json_matches_library(capsys):
    rc, out, _ = run(capsys, ["pairing", "--g", "2", "--n", "2", "--k", "1",
                              "--format", "json"])
    assert rc == 0
    data = json.loads(out)
    assert data["rank"] == 3
    assert data["rows"] == ["K1", "K2", "d(1,2)"]
    assert data["entries"] == [
        ["0", "1/2", "1/4"],
        ["1/2", "0", "1/4"],
        ["1/4", "1/4", "-1/4"],
    ]
    assert any(b["label"] == "1" for b in data["blocks"])


def test_pairing_csv(capsys):
    rc, out, _ = run(capsys, ["pairing", "--g", "2", "--n", "2", "--k", "1",
                              "--format", "csv"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == ',K1,K2,"d(1,2)"'   # csv quotes the comma in d(1,2)
    assert lines[1] == "K1,0,1/2,1/4"


def test_pairing_text_has_rank(capsys):
    rc, out, _ = run(capsys, ["pairing", "--g", "3", "--n", "1", "--k", "1"])
    assert rc == 0
    assert "rank=2" in out.splitlines()[0]


# -- verify --------------------------------------------------------------------


def test_verify_single_degree(capsys):
    rc, out, _ = run(capsys, ["verify", "--g", "2", "--n", "2", "--k", "1",
                              "--format", "json"])
    assert rc == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["dims"] is None
    assert len(data["checks"]) == 1
    assert data["checks"][0]["triangle_violations"] == 0


def test_verify_all_degrees(capsys):
    rc, out, _ = run(capsys, ["verify", "--g", "2", "--n", "2", "--format", "json"])
    assert rc == 0
    data = json.loads(out)
    assert data["dims"] == [1, 3, 1]
    assert data["dims_palindromic"] is True
    assert data["ok"] is True


def test_verify_text_ends_with_ok(capsys):
    rc, out, _ = run(capsys, ["verify", "--g", "3", "--n", "1"])
    assert rc == 0
    assert out.rstrip().endswith("OK")
    assert "dims=1,2,1 palindromic=yes" in out


def test_verify_rejects_csv(capsys):
    rc, _, err = run(capsys, ["verify", "--g", "2", "--n", "2", "--format", "csv"])
    assert rc == 2


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_verify_fails_on_triangle_violation(capsys, monkeypatch, fmt):
    from tautring.cli import pairing_matrix

    def tampered(ctx, k, evaluator=None, parallelism=1):
        m = pairing_matrix(ctx, k, evaluator, parallelism)
        return with_entries(m, {forced_positions(m)[0]: 1}) if k == 1 else m

    monkeypatch.setattr("tautring.cli.pairing_matrix", tampered)
    rc, out, _ = run(capsys, ["verify", "--g", "2", "--n", "3", "--format", fmt])
    assert rc == 1
    if fmt == "json":
        data = json.loads(out)
        assert [(c["k"], c["triangle_violations"], c["ok"]) for c in data["checks"]] == [
            (0, 0, True), (1, 1, False), (2, 1, False), (3, 0, True)]
        assert data["ok"] is False
    else:
        [line] = [line for line in out.splitlines() if line.startswith("k=1 ")]
        assert "triangle_violations=1 " in line and line.endswith("ok=no")
        assert out.splitlines()[-1] == "FAIL"


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_verify_fails_on_duality_violation(capsys, monkeypatch, fmt):
    # one failing degree among passing ones, found by the duality check alone
    monkeypatch.setattr(
        "tautring.cli.check_duality_classes",
        lambda ctx, k: [("presence", k)] if k == 1 else [],
    )
    rc, out, _ = run(capsys, ["verify", "--g", "2", "--n", "3", "--format", fmt])
    assert rc == 1
    if fmt == "json":
        assert [c["ok"] for c in json.loads(out)["checks"]] == [True, False, True, True]
    else:
        assert out.splitlines()[-1] == "FAIL"


def test_verify_fails_on_ranks_that_are_not_gorenstein(capsys, monkeypatch):
    # degree top - k takes the rank of degree k, so a wrong rank sequence
    # is palindromic; this one fails by its ends, which are not 1
    monkeypatch.setattr("tautring.pairing.PairingMatrix.rank", lambda self: self.k + 2)
    rc, out, _ = run(capsys, ["verify", "--g", "3", "--n", "2", "--format", "json"])
    assert rc == 1
    data = json.loads(out)
    assert data["dims"] == [2, 3, 3, 2]
    assert data["dims_palindromic"] is False
    assert data["ok"] is False


# sha256 of verify stdout, taken with every degree filled directly: reading
# degree top - k off degree k, or any other speed-up, must not change a byte.
VERIFY_SHA256 = {
    (2, 3, "text"): "e357111634a1589e8449d355ea92854c94b46727ecb604b024b615bd366a8eb1",
    (2, 3, "json"): "a0aff102cb706cbb3aca0b17f34372a31d616a7697b094e819366f2abf528e1e",
    (2, 4, "text"): "3061c41f6185daefdf01f4ccd899f96e2fe2480dd9a004784426152ee1374bda",
    (2, 4, "json"): "95986302d0c0e864c3fcc944bc9ea4da6c065630688e45461b6422f07ac3bcdc",
    (3, 3, "text"): "213bb69cabe395e025e0706df4b2671374047b1a1cdcc364a6174830d1a7dcf1",
    (3, 3, "json"): "72e539bafa4e4ca60385bf812607c74b681c4f26ea2dfa9883629cc37c2ac2a2",
    (3, 4, "text"): "c8758d7e575eb9dd611840655b5787a68b32f14d542371a1f4f94071dbb9f898",
    (3, 4, "json"): "aa49f31698eb1259767d40bb8370e6fc878c23db9a78f3210588a08968dffbc0",
}


@pytest.mark.parametrize("g,n,fmt", sorted(VERIFY_SHA256))
def test_verify_output_bytes_pinned(capsys, g, n, fmt):
    rc, out, _ = run(capsys, ["verify", "--g", str(g), "--n", str(n), "--format", fmt])
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SHA256[(g, n, fmt)]


# sha256 of `verify --k` stdout for a degree above top / 2, taken before the
# block references were filled once per (|S|, free degree): a full run reads
# that degree off its dual, but here it is filled and each block is compared
# with its reference directly.
VERIFY_K_SHA256 = {
    (2, 5, 4): "de770b9dfd3794fb7e54b4c1953ffba84f93a265d1f5346e9ba5181c9f5993ff",
    (3, 4, 4): "420a87538bf5076c5a962cae4ef7a863da523cc416a5de73a62a84804618f484",
}


@pytest.mark.parametrize("g,n,k", sorted(VERIFY_K_SHA256))
def test_verify_high_degree_bytes_pinned(capsys, g, n, k):
    rc, out, _ = run(capsys, ["verify", "--g", str(g), "--n", str(n), "--k", str(k),
                              "--format", "json"])
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_K_SHA256[(g, n, k)]


# sha256 of pairing stdout, taken while every product of the fill was
# built and canonicalized: valuing one product per S_n orbit and reading the
# rest off packed keys must not change a byte, with or without the pool.
# The (3, 4, 2) text and CSV pins were taken while each entry was formatted
# on its own and the output built whole before it was written.
PAIRING_SHA256 = {
    ("--g", "3", "--n", "4", "--k", "2", "--format", "json"):
        "e5a2eb702c41256360552ac268bb8e0291136ab01ed287a14ad1abe1e3f0f358",
    ("--g", "3", "--n", "4", "--k", "2", "--format", "json", "--parallelism", "2"):
        "e5a2eb702c41256360552ac268bb8e0291136ab01ed287a14ad1abe1e3f0f358",
    ("--g", "2", "--n", "5", "--k", "2", "--format", "csv"):
        "cefaa470f687548f1ae4f9254bc12ee9ea01c9ba40df187f6921dc1758276a02",
    ("--g", "3", "--n", "4", "--k", "2", "--format", "text"):
        "da47ec5e6a917d02529a0a892dedb0acd5428012c394f788c6f92e6dd1cb19de",
    ("--g", "3", "--n", "4", "--k", "2", "--format", "csv"):
        "be0ea3c01903bfdff05a65bfde28b445f6365a7aee1e9718d4900d93d9ed840f",
}


@pytest.mark.parametrize("argv", sorted(PAIRING_SHA256))
def test_pairing_output_bytes_pinned(capsys, argv):
    rc, out, _ = run(capsys, ["pairing", *argv])
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PAIRING_SHA256[argv]


# -- output writing --------------------------------------------------------------


class _Writes:
    """A stdout that records each write."""

    def __init__(self):
        self.writes = []

    def write(self, s):
        self.writes.append(s)


class _Discard:
    """A stdout that keeps only the number of characters written."""

    def __init__(self):
        self.size = 0

    def write(self, s):
        self.size += len(s)


@pytest.mark.parametrize("obj", [{}, [], {"a": [], "b": {}}])
def test_write_json_prints_what_dumps_prints(capsys, obj):
    cli._write_json(obj)
    assert capsys.readouterr().out == json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_write_json_writes_batches(monkeypatch):
    obj = {"rows": [[str(i), {"z": i, "a": None}] for i in range(5 * cli._JSON_BATCH)]}
    out = _Writes()
    monkeypatch.setattr("sys.stdout", out)
    cli._write_json(obj)
    assert "".join(out.writes) == json.dumps(obj, sort_keys=True, indent=2) + "\n"
    assert len(out.writes) > 5


def test_write_json_does_not_hold_its_text(monkeypatch):
    # ~3.6 MB of JSON: streamed, the peak is a few batches; json.dumps holds
    # every piece and then the joined text
    payload = [["0"] * 1000 for _ in range(400)]
    out = _Discard()
    monkeypatch.setattr("sys.stdout", out)
    tracemalloc.start()
    try:
        cli._write_json(payload)
        streamed = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        text = json.dumps(payload, sort_keys=True, indent=2)
        dumped = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.size == len(text) + 1
    assert streamed < len(text) / 10
    assert dumped > len(text)


def test_entry_texts_share_one_string_per_value_object():
    _, _, matrices = get_matrices(2, 3)
    matrix = matrices[1]
    texts = cli._entry_texts(matrix)
    by_value = {}
    zeros = set()
    for row, text_row in zip(matrix.entries, texts):
        assert len(text_row) == len(matrix.cols)
        for j, t in enumerate(text_row):
            if j in row:
                assert t == str(row[j])
                assert by_value.setdefault(id(row[j]), t) is t
            else:
                assert t == "0"
                zeros.add(id(t))
    assert len(by_value) < sum(map(len, matrix.entries))
    assert len(zeros) == 1


@pytest.mark.parametrize("argv", [
    ["pairing", "--g", "2", "--n", "3", "--k", "1", "--format", "json"],
    ["pairing", "--g", "2", "--n", "3", "--k", "1", "--format", "csv"],
    ["verify", "--g", "2", "--n", "3", "--format", "json"],
])
def test_error_leaves_stdout_empty(capsys, monkeypatch, argv):
    def gives_up(self, m):
        raise NonTermination("step budget exhausted")

    monkeypatch.setattr("tautring.evaluate.Evaluator.evaluate_monomial", gives_up)
    rc, out, err = run(capsys, argv)
    assert rc == 3
    assert out == ""
    assert "step budget exhausted" in err


# sha256 of `normalize --emit-certificate` stdout, taken before the
# certified walk shared its memo with plain normalization and evaluation:
# the certificate steps and their order must not change.
_MIXED_1 = "D(1,2,3)^2*D(1,2,3,4,5)^2 - 3/2 d(4,5)*D(1,2,3)^3 + k1*K2^2"
_MIXED_2 = ("2 d(1,2)^2*D(3,4,5)^2 + d(1,3)*d(3,5)*K5*D(1,2,3,4)^2"
            " - 1/3 K3*D(2,3,4)^3*D(1,2,3,4,5)")
CERTIFICATE_SHA256 = {
    (2, 3, "D(1,2,3)^2", "text"): "6049f1d5f427b642fe6747386aaed393c819a6d794b56481be76a4235e35a89d",
    (2, 3, "D(1,2,3)^2", "json"): "f99533676053499d935a4cfb17a2681d34180c5e1b3c5dd9c20143d44125e775",
    (3, 5, "D(2,4,5)^5", "text"): "6236e9a767f4d80227a1d229ec822c03809fc829983e40c178a4e75098c90e84",
    (3, 5, "D(2,4,5)^5", "json"): "3402a26ab2ffeff0892d6a432e93bd371e4f1ef5777a887fde5577426ed4ddb9",
    (3, 5, _MIXED_1, "text"): "3bf90c3978432fe9e1f3345b9c16dcb6059e89a8f031140b2b5575da3a5fe783",
    (3, 5, _MIXED_1, "json"): "fe4329b9b2c9bf3759e989c9174773f36cea505df397595bc6a2a39350838c16",
    (3, 5, _MIXED_2, "text"): "9a95cc8b78f198054ec889554f83328b09c6f5319706457f4b9ae5b3ef2e2063",
    (3, 5, _MIXED_2, "json"): "6a905dab545c8646ffc9e040c53d201dd3bcb91189e79d07c3e51e8fcd86368b",
}


@pytest.mark.parametrize("g,n,text,fmt", sorted(CERTIFICATE_SHA256))
def test_certificate_output_bytes_pinned(capsys, monkeypatch, g, n, text, fmt):
    rc, out, _ = run(capsys, ["normalize", "--g", str(g), "--n", str(n), "--format", fmt,
                              "--emit-certificate"], stdin=text, monkeypatch=monkeypatch)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CERTIFICATE_SHA256[(g, n, text, fmt)]


def test_verify_deterministic_across_parallelism(capsys):
    argv = ["verify", "--g", "2", "--n", "2", "--format", "json"]
    rc1, out1, _ = run(capsys, argv + ["--parallelism", "1"])
    rc2, out2, _ = run(capsys, argv + ["--parallelism", "2"])
    assert rc1 == rc2 == 0
    assert out1 == out2


# -- normalize -----------------------------------------------------------------


def test_normalize_text(capsys, monkeypatch):
    rc, out, _ = run(capsys, ["normalize", "--g", "2", "--n", "3"],
                     stdin="D(1,2,3)^2", monkeypatch=monkeypatch)
    assert rc == 0
    assert out.strip() == "-2 K1*D(1,2,3) - d(1,2)*d(1,3)"


def test_normalize_json_with_certificate(capsys, monkeypatch):
    rc, out, _ = run(capsys, ["normalize", "--g", "2", "--n", "3",
                              "--format", "json", "--emit-certificate"],
                     stdin="D(1,2,3)^2 + K1", monkeypatch=monkeypatch)
    assert rc == 0
    data = json.loads(out)
    assert data["verified"] is True
    assert data["steps"]
    assert data["normal_form"] == "K1 - 2 K1*D(1,2,3) - d(1,2)*d(1,3)"


def test_normalize_zero(capsys, monkeypatch):
    rc, out, _ = run(capsys, ["normalize", "--g", "2", "--n", "4"],
                     stdin="D(1,2,3)*D(2,3,4)", monkeypatch=monkeypatch)
    assert rc == 0
    assert out.strip() == "0"


def test_normalize_parse_error(capsys, monkeypatch):
    rc, _, err = run(capsys, ["normalize", "--g", "2", "--n", "2"],
                     stdin="K1 + + K2", monkeypatch=monkeypatch)
    assert rc == 2
    assert err


@pytest.mark.parametrize("argv,stdin", [
    (["normalize", "--g", "2", "--n", "3"], "2/0 K1"),
    (["normalize", "--g", "2", "--n", "3"], "K1^1/0"),
    (["enumerate", "--g", "2", "--n", "3", "--k", "1", "--dpart", "1/0"], None),
])
def test_zero_denominator_is_usage_error(capsys, monkeypatch, argv, stdin):
    rc, out, err = run(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
    assert rc == 2
    assert out == ""
    assert err and "Traceback" not in err


@pytest.mark.parametrize("stdin", ["K1^4/2", "3 2/2"])
def test_malformed_rational_is_usage_error(capsys, monkeypatch, stdin):
    # a fractional exponent, and a rational other than 1 as the unit monomial
    rc, out, err = run(capsys, ["normalize", "--g", "2", "--n", "3"],
                       stdin=stdin, monkeypatch=monkeypatch)
    assert rc == 2
    assert out == ""
    assert err and "Traceback" not in err


@pytest.mark.parametrize("parallelism", ["1", "2"])
@pytest.mark.parametrize("argv", [
    ["verify", "--g", "2", "--n", "3", "--max-rewrite-steps", "1"],
    ["pairing", "--g", "2", "--n", "4", "--k", "2", "--max-rewrite-steps", "2"],
])
def test_fill_budget_exhaustion(capsys, argv, parallelism):
    # the pool workers rewrite under the same step budget as the serial fill
    rc, out, err = run(capsys, argv + ["--parallelism", parallelism])
    assert rc == 3
    assert out == ""
    assert "gave up after" in err


def test_normalize_budget_exhaustion(capsys, monkeypatch):
    rc, _, err = run(capsys, ["normalize", "--g", "2", "--n", "3",
                              "--max-rewrite-steps", "1"],
                     stdin="D(1,2,3)^2", monkeypatch=monkeypatch)
    assert rc == 3
    assert err


# -- configuration errors --------------------------------------------------------


def test_bad_genus(capsys):
    rc, _, err = run(capsys, ["enumerate", "--g", "1", "--n", "2", "--k", "0"])
    assert rc == 2


def test_genus4_requires_table(capsys):
    rc, _, err = run(capsys, ["verify", "--g", "4", "--n", "1", "--k", "0"])
    assert rc == 2
    assert "kappa" in err


def test_genus4_with_table(capsys, tmp_path):
    tbl = tmp_path / "g4.tbl"
    tbl.write_text("2=1\n1,1=7/5\n")
    rc, out, _ = run(capsys, ["verify", "--g", "4", "--n", "1", "--k", "0",
                              "--kappa-table", str(tbl), "--format", "json"])
    assert rc == 0
    assert json.loads(out)["ok"] is True


def test_genus4_verify_bytes_pinned(capsys, tmp_path):
    # the one pin whose kappa table has more than one partition, so
    # contractions end on both kappa monomials of degree 2; sha256 taken while each orbit was valued through a relabelled
    # representative: valuing the product the fill hands over must not
    # change a byte
    tbl = tmp_path / "g4.tbl"
    tbl.write_text("2=1\n1,1=32/3\n")
    rc, out, _ = run(capsys, ["verify", "--g", "4", "--n", "4", "--format", "json",
                              "--kappa-table", str(tbl)])
    assert rc == 0
    assert json.loads(out)["dims"] == [1, 16, 61, 95, 61, 16, 1]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "0b202e6aefae148cae204d9c0d296476ffdbf3028b0bdda751a29954e66cef0f"
    )


G5_TABLE = "3=1\n2,1=20\n1,1,1=288\n"


def test_genus5_verify_runs_with_a_table(capsys, tmp_path):
    tbl = tmp_path / "g5.tbl"
    tbl.write_text(G5_TABLE)
    rc, out, _ = run(capsys, ["verify", "--g", "5", "--n", "2", "--format", "json",
                              "--kappa-table", str(tbl)])
    assert rc == 0
    assert json.loads(out)["dims"] == [1, 4, 8, 8, 4, 1]


def test_genus5_verify_bytes_pinned(capsys, tmp_path):
    # the one pin whose kappa table has three partitions; sha256 taken while
    # exceptional-free monomials were valued by contracting one marking at a
    # time: the component formula must not change a byte
    tbl = tmp_path / "g5.tbl"
    tbl.write_text(G5_TABLE)
    rc, out, _ = run(capsys, ["verify", "--g", "5", "--n", "3", "--format", "json",
                              "--kappa-table", str(tbl)])
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "7f49e1ba965475559df4f4623d5d9bb96c3eaf8f01d8b45f032d56368efe4e92"
    )


def test_bad_parallelism(capsys):
    rc, _, err = run(capsys, ["pairing", "--g", "2", "--n", "2", "--k", "1",
                              "--parallelism", "0"])
    assert rc == 2


def test_bad_max_steps(capsys):
    rc, _, err = run(capsys, ["enumerate", "--g", "2", "--n", "2", "--k", "1",
                              "--max-rewrite-steps", "0"])
    assert rc == 2


def test_usage_error(capsys):
    rc, _, err = run(capsys, ["enumerate", "--g", "2", "--n", "2"])  # missing --k
    assert rc == 2


def test_version(capsys):
    # argparse raises SystemExit; main converts it into a return code
    assert main(["--version"]) == 0
    assert "tautring" in capsys.readouterr().out


# -- removed options ---------------------------------------------------------------


def test_cache_dir_is_gone(capsys, tmp_path):
    cache = tmp_path / "cache"
    rc, out, err = run(capsys, ["verify", "--g", "2", "--n", "3", "--cache-dir", str(cache)])
    assert rc == 2 and out == ""
    assert "--cache-dir" in err
    assert not cache.exists()


def test_cache_env_var_is_ignored(capsys, tmp_path, monkeypatch):
    argv = ["verify", "--g", "2", "--n", "3", "--format", "json"]
    rc1, out1, _ = run(capsys, argv)
    cache = tmp_path / "envcache"
    monkeypatch.setenv("TAUTRING_CACHE_DIR", str(cache))
    rc2, out2, _ = run(capsys, argv)
    assert (rc1, rc2) == (0, 0) and out1 == out2
    assert not cache.exists()


# -- documentation -------------------------------------------------------------


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = re.search(r"^```python\n(.*?)^```", section, re.M | re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == "[1, 7, 7, 1]"
