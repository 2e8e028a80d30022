"""Registered verification suites: pass/fail/ledger behavior per claim."""
import hashlib

import pytest

from baxter import (
    CLAIM_IDS, Tensor2, claim_check, claim_default_fields, field,
)
from baxter.errors import UnknownClaim

# sha256 per claim, on its default fields, over "{cid} {exit_code} {passed}",
# every report's canonical JSON and the ledger's JSON lines.  Captured from
# the object-route comparisons that the sweep rows replaced, so any drift is
# a behaviour change, not a refactor.
GOLDEN = {
    "Lemma0.2": "cea78c574d8f340210f08e186cd7991021502f90c0f650dba89cfe433bb726f0",
    "Thm0.3-CYBE": "85d5b6e07662f087314aa354918725e4abb14fc0b6a10befdf729897b210ba66",
    "Thm0.3-QYBE": "a3eb623e5eda76e53cc0b51b592e6db07c9c7cc73765e4ecb8961d26c3469dbc",
    "Cor0.4": "f6e52dd0eb95500217e3413090cc1f8d790a1c52b4a64d7b7662c271175653c4",
    "Prop1.3": "efad05c55d5444c08662484110afa6f5496c918e20297ea202b74f77cb25fa56",
    "Prop1.4": "12b3e606c62cfff81190d63e7f69dc433f86e4dd98a46d8e0d400e4ee58c7e9a",
    "Example1.5": "8624d76aea7db4821376b891fe325fb5ede29c1f7ac039173ef5bfaf1795839e",
    "Prop1.6": "f110f5015b914eab12aff5ab524730449913513f0d8520a4bb63b76f07457d9d",
    "Lemma2.1.1": "399734186d58e3a79d66735e15a8d4318c63bd87d1e2d2ebf3aeeeffa474ab8a",
    "Thm2.1": "6744e11e33bbd0f9456c3282021f4b746b57005f0a6d995acd8e9dce6b47b24d",
    "Example2.2": "2a5dfedff40398d9576dd2db263269198d82eec9ecf469c5299271dfdd481ce7",
    "Thm2.3-I": "5e49cda41d52b625033b21a97f98a7117af96e2311d01ae33f91fde2c803b159",
    "Thm2.3-II": "e72531ea4d94be59029d49abcf5deac5b0c21a97dafd5d123c20ae296242e894",
    "Thm2.4": "8f9dcba727f51688e026d2c214c31f8ab35ffcb670d6589a0ab10632b854450e",
}


@pytest.fixture(scope="session")
def default_runs():
    """One run of every suite on its default fields, shared by the tests."""
    return {cid: claim_check(cid) for cid in CLAIM_IDS}


def _digest(cid, res) -> str:
    h = hashlib.sha256(f"{cid} {res.exit_code} {res.passed}\n".encode())
    for rep in res.reports:
        h.update(rep.canonical_json().encode() + b"\n")
    h.update(res.ledger.to_json_lines().encode())
    return h.hexdigest()


@pytest.mark.parametrize("cid", CLAIM_IDS)
def test_claim_matches_golden(default_runs, cid):
    assert _digest(cid, default_runs[cid]) == GOLDEN[cid]


def _without_durations(res) -> dict:
    d = res.to_dict()
    for rep in d["reports"]:
        del rep["duration_ms"]
    return d


@pytest.mark.parametrize("cid", CLAIM_IDS)
def test_claim_is_identical_across_worker_counts(cid):
    # reports, notes and ledger, whether the rows' sweeps share helpers
    want = _without_durations(claim_check(cid, workers=1))
    assert _without_durations(claim_check(cid, workers=2)) == want
    if cid == "Thm2.1":
        assert _without_durations(claim_check(cid, workers=3)) == want


def test_claim_ships_helpers_only_sweeps_within_one_chunk(monkeypatch):
    from baxter import search

    tasks = []
    real = search._Helpers.run

    def spy(self, task, count):
        tasks.append(task)
        return real(self, task, count)

    monkeypatch.setattr(search._Helpers, "run", spy)
    claim_check("Thm0.3-CYBE", workers=2)
    whole = [spec for task in tasks if isinstance(task, list)
             for spec in task]
    assert whole and all(
        search.tensor_count(spec.algebra.field, spec.algebra.dim)
        <= spec.chunk and spec.workers == 1
        for spec in whole
    )
    # the dim-4 commutator_lie(M2) sweep over GF(4) is cut into blocks
    blocks = [task for task in tasks if isinstance(task, tuple)]
    assert [bounds[-1] for _, bounds, _ in blocks] == [4 ** 16]


def test_claim_at_one_worker_starts_no_helpers(monkeypatch):
    from baxter import search

    def refuse(count):
        raise AssertionError("a claim at one worker started helpers")

    monkeypatch.setattr(search, "_helpers", refuse)
    res = claim_check("Thm0.3-CYBE", workers=1)
    assert _digest("Thm0.3-CYBE", res) == GOLDEN["Thm0.3-CYBE"]


def test_registry_lists_all_claims():
    assert CLAIM_IDS == (
        "Lemma0.2",
        "Thm0.3-CYBE",
        "Thm0.3-QYBE",
        "Cor0.4",
        "Prop1.3",
        "Prop1.4",
        "Example1.5",
        "Prop1.6",
        "Lemma2.1.1",
        "Thm2.1",
        "Example2.2",
        "Thm2.3-I",
        "Thm2.3-II",
        "Thm2.4",
    )


def test_unknown_claim():
    with pytest.raises(UnknownClaim) as exc:
        claim_check("Prop9.9")
    assert "Prop9.9" in str(exc.value)


def test_default_fields():
    assert claim_default_fields("Thm0.3-QYBE") == ("gf(2)",)
    assert claim_default_fields("Prop1.4") == ("gf(2)", "gf(2^2;0b111)")


def test_lemma02_passes(f2):
    res = claim_check("Lemma0.2", fields=[f2])
    assert res.passed and res.exit_code == 0
    assert res.ledger.is_empty()


def test_lemma02_invariance_check_catches_a_non_invariant_predicate(
    f2, monkeypatch
):
    from baxter import ybe

    monkeypatch.setattr(ybe, "is_strongly_symmetric",
                        lambda r: r.rows[0][0] != r.field.zero())
    res = claim_check("Lemma0.2", fields=[f2])
    assert not res.passed
    (note,) = [n for n in res.notes if "basis changes" in n]
    assert "fails" in note


def test_lemma02_checks_the_tensors_the_selector_selects(f2, monkeypatch):
    from baxter import ybe

    # with no relations the selector admits every tensor, symmetric or not
    monkeypatch.setattr(ybe, "strong_symmetry_equations", lambda k, n: [])
    res = claim_check("Lemma0.2", fields=[f2])
    assert not res.passed
    assert any("selector selects 512 tensors" in n for n in res.notes)
    assert any("is not symmetric" in n for n in res.notes)


def test_row_without_report_still_fails_and_pins(f2):
    from baxter.claims import ClaimResult, _Row, _dim2_algebras, _run_rows

    res = ClaimResult("x", True)
    row = _Row("x", _dim2_algebras, "symmetric", "cybe", expect="subset",
               report=False)
    _run_rows(res, [row], [f2], 1)
    assert not res.passed and res.exit_code == 3
    assert res.reports == []
    # the abelian algebra's 8 non-symmetric solutions; the non-abelian
    # algebra's solutions are exactly the symmetric tensors
    entries = res.ledger.to_list()
    assert [e["encoding"] for e in entries] == [
        code for code in range(16)
        if not Tensor2.decode(f2, 2, code).is_symmetric()
    ]
    assert all(e["classifier"] and not e["predicate"] for e in entries)


def test_thm03_cybe_passes(f2):
    res = claim_check("Thm0.3-CYBE", fields=[f2])
    assert res.passed and res.exit_code == 0


def test_thm03_qybe_passes(default_runs):
    res = default_runs["Thm0.3-QYBE"]
    assert res.passed and res.exit_code == 0
    assert "16" in " ".join(res.notes)


def test_cor04_strong_subset_of_solutions(f2):
    res = claim_check("Cor0.4", fields=[f2])
    assert res.passed and res.exit_code == 0
    for rep in res.reports:
        assert rep.class_only_count == 0


def test_prop13_abelian_defect_is_pinned(f2):
    res = claim_check("Prop1.3", fields=[f2])
    assert not res.passed
    assert res.exit_code == 3
    assert not res.ledger.is_empty()
    by_algebra = {rep.algebra: rep for rep in res.reports}
    assert by_algebra["dim2-abelian"].predicate_count == 16
    assert by_algebra["dim2-abelian"].classifier_count == 8
    assert by_algebra["dim2-nonabelian"].predicate_count == 8
    assert by_algebra["dim2-nonabelian"].pred_only_count == 0
    # ledger rows all come from the abelian algebra, predicate-only side
    for row in res.ledger.to_list():
        assert row["predicate"] is True and row["classifier"] is False


def test_prop14_degenerate_pairs_pinned(f2):
    res = claim_check("Prop1.4", fields=[f2])
    assert res.exit_code == 3
    counts = {
        rep.algebra: rep.predicate_count
        for rep in res.reports if rep.claim == "Prop1.4"
    }
    assert counts == {
        "ab(alpha=0x0,beta=0x0)": 56,
        "ab(alpha=0x0,beta=0x1)": 40,
        "ab(alpha=0x1,beta=0x0)": 40,
        "ab(alpha=0x1,beta=0x1)": 32,
    }
    for rep in res.reports:
        if rep.claim == "Prop1.4":
            assert rep.classifier_count == 32
        assert rep.class_only_count == 0  # classifier set always solves


def test_example15_inherits_00_defect(f2):
    res = claim_check("Example1.5", fields=[f2])
    assert res.exit_code == 3
    assert res.reports[0].predicate_count == 56
    assert res.reports[0].classifier_count == 32


def test_prop16_clean_both_fields(default_runs):
    res = default_runs["Prop1.6"]
    assert res.passed and res.exit_code == 0
    assert res.ledger.is_empty()
    cases = {rep.claim for rep in res.reports if rep.claim}
    assert {"Prop1.6-II", "Prop1.6-III", "Prop1.6-IV"} <= cases
    for rep in res.reports:
        if rep.classifier is not None:
            assert rep.pred_only_count == rep.class_only_count == 0


def test_lemma211_diagonal_reading(default_runs):
    res = default_runs["Lemma2.1.1"]
    assert res.passed and res.exit_code == 0
    joined = " ".join(res.notes)
    assert "192/192" in joined
    assert "cube" in joined  # comparison-mode verdict is recorded


def test_thm21_passes(f2):
    res = claim_check("Thm2.1", fields=[f2])
    assert res.passed and res.exit_code == 0
    for rep in res.reports:
        assert rep.pred_only_count == rep.class_only_count == 0


def test_example22_middle_pinned(default_runs):
    res = default_runs["Example2.2"]
    assert res.passed  # the two outer equivalences hold
    assert res.exit_code == 3  # but the middle one is pinned in the ledger
    by_claim = {rep.claim: rep for rep in res.reports}
    assert by_claim["Example2.2-i"].pred_only_count == 0
    assert by_claim["Example2.2-i"].class_only_count == 0
    assert by_claim["Example2.2-ii"].predicate_count == 4
    assert by_claim["Example2.2-ii"].classifier_count == 4
    mid = by_claim["Example2.2-middle"]
    assert mid.predicate_count == 4
    assert mid.classifier_count == 32
    assert mid.class_only_count == 28
    assert len(res.ledger) == 16  # capped snapshot of the 28


def test_thm23_both_parts_clean():
    for cid in ("Thm2.3-I", "Thm2.3-II"):
        res = claim_check(cid, fields=[field(2)])
        assert res.passed and res.exit_code == 0
        assert res.ledger.is_empty()


def test_thm24_passes(default_runs):
    res = default_runs["Thm2.4"]
    assert res.passed and res.exit_code == 0


def test_claim_result_to_dict_shape(f2):
    res = claim_check("Thm2.4", fields=[f2])
    d = res.to_dict()
    assert d["claim"] == "Thm2.4"
    assert d["passed"] is True
    assert d["exit_code"] == 0
    assert isinstance(d["reports"], list)
    assert isinstance(d["ledger"], list)
    assert isinstance(d["notes"], list)


def test_claims_accept_field_objects_and_literals(f4):
    res = claim_check("Thm2.4", fields=["gf(2^2;0b111)"])
    assert res.passed
    res2 = claim_check("Thm2.4", fields=[f4])
    assert res2.passed
