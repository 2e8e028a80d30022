"""Command-line interface: exit codes, formats, file outputs."""
import json

import pytest

from baxter.cli import main

SL2 = ["--field", "gf(2)", "--family", "ab", "--alpha", "0x0",
       "--beta", "0x0"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_pass(capsys):
    code, out, _ = run(
        capsys, "verify", *SL2,
        "--tensor", "0x0,0x0,0x0,0x0,0x0,0x0,0x0,0x0,0x1",
        "--check", "cybe",
    )
    assert code == 0
    assert "HOLDS" in out


def test_verify_fail(capsys):
    code, out, _ = run(
        capsys, "verify", *SL2,
        "--tensor", "0x0,0x1,0x0,0x1,0x0,0x0,0x0,0x0,0x0",
        "--check", "cybe",
    )
    assert code == 1
    assert "FAILS" in out


def test_verify_json(capsys):
    code, out, _ = run(
        capsys, "verify", *SL2, "--format", "json",
        "--tensor", "0x0,0x0,0x0,0x0,0x0,0x0,0x0,0x0,0x1",
        "--check", "cybe",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["holds"] is True
    assert payload["check"] == "cybe"
    assert payload["field"] == "gf(2)"


def test_verify_strong_needs_no_algebra(capsys):
    code, out, _ = run(
        capsys, "verify", "--field", "gf(2)",
        "--tensor", "0x1,0x1,0x1,0x1", "--check", "strong",
    )
    assert code == 0


def test_verify_triangular(capsys):
    code, _, _ = run(
        capsys, "verify", *SL2,
        "--tensor", "0x0,0x0,0x1,0x0,0x0,0x0,0x1,0x0,0x0",
        "--check", "triangular",
    )
    assert code == 0


def test_verify_input_errors(capsys):
    # bad field literal
    code, _, err = run(
        capsys, "verify", "--field", "gf(6)", "--family", "ab",
        "--alpha", "0x0", "--beta", "0x0",
        "--tensor", "0x0", "--check", "cybe",
    )
    assert code == 2 and "error" in err
    # tensor/algebra dimension mismatch
    code, _, err = run(
        capsys, "verify", *SL2, "--tensor", "0x0,0x0,0x0,0x0",
        "--check", "cybe",
    )
    assert code == 2
    # missing tensor
    code, _, err = run(capsys, "verify", *SL2, "--check", "cybe")
    assert code == 2
    # two algebra sources
    code, _, err = run(
        capsys, "verify", *SL2, "--dim2", "abelian",
        "--tensor", "0x0", "--check", "cybe",
    )
    assert code == 2
    # qybe against a Lie algebra
    code, _, err = run(
        capsys, "verify", *SL2,
        "--tensor", "0x0,0x0,0x0,0x0,0x0,0x0,0x0,0x0,0x0",
        "--check", "qybe",
    )
    assert code == 2


def test_enumerate_text_and_limit(capsys):
    code, out, _ = run(
        capsys, "enumerate", *SL2, "--predicate", "cybe", "--limit", "5",
    )
    assert code == 0
    assert "56/512" in out
    assert "... (51 more)" in out


def test_enumerate_rejects_negative_limit(capsys):
    code, out, err = run(
        capsys, "enumerate", "--field", "gf(2)", "--dim2", "nonabelian",
        "--predicate", "cybe", "--limit", "-1",
    )
    assert code == 2
    assert "limit" in err and out == ""


def test_enumerate_json_solutions(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--field", "gf(2)", "--dim2", "nonabelian",
        "--predicate", "cybe", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["predicate_count"] == 8
    assert len(payload["solutions"]) == 8
    assert payload["solutions"][0]["tensor"] == "0x0,0x0,0x0,0x0"


def test_enumerate_csv_counts_only(capsys):
    code, out, _ = run(
        capsys, "enumerate", *SL2, "--predicate", "cybe",
        "--classifier", "alpha-beta-symmetric", "--format", "csv",
    )
    assert code == 0
    import csv as csv_mod
    import io

    rows = list(csv_mod.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert rows[0]["predicate_count"] == "56"
    assert rows[0]["diff_pred_only"] == "24"
    assert "counterexamples" not in rows[0]  # counts only in CSV


def test_enumerate_workers_flag(capsys):
    code, out, _ = run(
        capsys, "enumerate", *SL2, "--predicate", "cybe",
        "--workers", "2", "--limit", "0", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["predicate_count"] == 56


def test_claim_exit_codes(capsys):
    code, out, _ = run(capsys, "claim", "Thm2.4")
    assert code == 0
    code, out, _ = run(capsys, "claim", "Prop1.3")
    assert code == 3
    assert "ledger entries: 16" in out


def test_claim_out_files(capsys, tmp_path):
    report = tmp_path / "report.json"
    ledger = tmp_path / "ledger.jsonl"
    code, _, _ = run(
        capsys, "claim", "Example2.2",
        "--out", str(report), "--ledger-out", str(ledger),
    )
    assert code == 3
    payload = json.loads(report.read_text())
    assert payload["claim"] == "Example2.2"
    assert payload["exit_code"] == 3
    lines = ledger.read_text().splitlines()
    assert len(lines) == 16
    assert json.loads(lines[0])["claim"] == "Example2.2-middle"


def test_claim_fields_override(capsys):
    code, out, _ = run(
        capsys, "claim", "Thm2.4", "--fields", "gf(2)", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    fields = {rep["field"] for rep in payload["reports"]}
    assert fields == {"gf(2)"}


def test_claim_rejects_unknown(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["claim", "NoSuchClaim"])
    assert exc.value.code == 2  # argparse choice failure


def test_claim_bad_fields_literal(capsys):
    code, _, err = run(capsys, "claim", "Thm2.4", "--fields", "gf(banana)")
    assert code == 2


def test_decompose_outputs(capsys):
    code, out, _ = run(
        capsys, "decompose", "--field", "gf(2)",
        "--tensor", "0x1,0x1,0x1,0x1",
    )
    assert code == 0 and out.strip() == "c=0x1, v=(0x1,0x1)"
    code, out, _ = run(
        capsys, "decompose", "--field", "gf(2)",
        "--tensor", "0x0,0x0,0x0,0x0",
    )
    assert code == 0 and out.strip() == "Zero"
    code, out, _ = run(
        capsys, "decompose", "--field", "gf(2)",
        "--tensor", "0x0,0x1,0x1,0x0",
    )
    assert code == 0 and out.strip() == "NotStronglySymmetric"


def test_decompose_json(capsys):
    code, out, _ = run(
        capsys, "decompose", "--field", "gf(2^2;0b111)", "--format", "json",
        "--tensor", "0x2,0x3,0x3,0x1",
    )
    assert code == 0
    payload = json.loads(out)
    if payload["kind"] == "rank1":
        assert set(payload) == {"kind", "scale", "vector"}


def test_bialgebra_coboundary_exit0(capsys):
    code, out, _ = run(
        capsys, "bialgebra", *SL2,
        "--tensor", "0x0,0x1,0x0,0x1,0x0,0x0,0x0,0x0,0x0",
    )
    assert code == 0
    assert "coboundary: True" in out
    assert "triangular: False" in out


def test_bialgebra_non_coboundary_exit1(capsys):
    code, out, _ = run(
        capsys, "bialgebra", *SL2,
        "--tensor", "0x0,0x0,0x0,0x0,0x0,0x0,0x0,0x0,0x1",
    )
    assert code == 1
    assert "r in Im(1-tau): False" in out


def test_bialgebra_json(capsys):
    code, out, _ = run(
        capsys, "bialgebra", *SL2, "--format", "json",
        "--tensor", "0x0,0x0,0x1,0x0,0x0,0x0,0x1,0x0,0x0",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["is_triangular"] is True
    assert payload["cojacobi_defect_zero"] == [True, True, True]
    assert len(payload["cobrackets"]) == 3


def test_algebra_file_source(capsys, tmp_path):
    path = tmp_path / "alg.txt"
    path.write_text(
        "field gf(2)\ndim 3\n"
        "bracket 1 2 -> 3:0x1\n"
        "bracket 1 3 ->\n"
        "bracket 2 3 ->\n"
    )
    code, out, _ = run(
        capsys, "enumerate", "--algebra", str(path),
        "--predicate", "cybe", "--limit", "0",
    )
    assert code == 0
    assert "56/512" in out


def test_algebra_file_missing(capsys):
    code, _, err = run(
        capsys, "enumerate", "--algebra", "/nonexistent/file.alg",
        "--predicate", "cybe",
    )
    assert code == 2


def test_matrix_source_and_qybe_verify(capsys):
    code, out, _ = run(
        capsys, "verify", "--field", "gf(2)", "--matrix", "2",
        "--tensor", ",".join(["0x0"] * 16), "--check", "qybe",
    )
    assert code == 0


def test_out_of_memory_exits_2_without_a_traceback(capsys, monkeypatch):
    import baxter.cli

    def exhausted(spec):
        raise MemoryError

    monkeypatch.setattr(baxter.cli, "sweep", exhausted)
    code, out, err = run(capsys, "enumerate", *SL2, "--predicate", "cybe")
    assert code == 2
    assert err.startswith("error: out of memory")
    assert "Traceback" not in out + err


@pytest.mark.parametrize("argv", [
    ["enumerate", "--field", "gf(257)", "--dim2", "abelian",
     "--predicate", "cybe", "--limit", "2"],
    ["enumerate", "--field", "gf(2^9;0b1000010001)", "--dim2", "abelian",
     "--predicate", "cybe", "--limit", "2"],
    ["claim", "Prop1.3", "--fields", "gf(257)"],
])
def test_field_past_the_kernel_order_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "256" in err


def test_verify_past_the_kernel_order_runs_on_the_object_route(capsys):
    code, out, _ = run(
        capsys, "verify", "--field", "gf(257)", "--dim2", "abelian",
        "--tensor", "0x1,0x2,0x3,0x100", "--check", "cybe",
    )
    assert code == 0 and "HOLDS" in out


def _without_durations(value):
    if isinstance(value, dict):
        return {k: _without_durations(v) for k, v in value.items()
                if k != "duration_ms"}
    if isinstance(value, list):
        return [_without_durations(v) for v in value]
    return value


def test_cached_parser_carries_nothing_between_calls(capsys, monkeypatch,
                                                     tmp_path):
    from baxter import cli

    path = tmp_path / "abelian3_gf5.alg"
    path.write_text("field gf(5)\ndim 3\n")
    listing = ["enumerate", "--algebra", str(path),
               "--predicate", "strongly-symmetric", "--format", "json"]
    calls = [
        listing + ["--limit", "4"],
        listing + ["--limit", "four"],  # argparse rejects it mid-parse
        listing,
        ["claim", "Prop1.3", "--format", "json"],
    ]

    def outputs():
        seen = []
        for argv in calls:
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = ("exit", exc.code)
            captured = capsys.readouterr()
            out = captured.out and _without_durations(json.loads(captured.out))
            seen.append((code, out, captured.err))
        return seen

    assert cli.build_parser() is cli.build_parser()
    cached = outputs()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert cli.build_parser() is not cli.build_parser()
    assert cached == outputs()
    codes = [code for code, _, _ in cached]
    assert codes == [0, ("exit", 2), 0, 3]
    assert len(cached[0][1]["solutions"]) == 4
    assert len(cached[2][1]["solutions"]) == 125
