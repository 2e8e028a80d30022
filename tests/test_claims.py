"""Registered verification suites: pass/fail/ledger behavior per claim."""
import hashlib
import logging

import numpy as np
import pytest

from baxter import (
    CLAIM_IDS, Tensor2, claim_check, claim_default_fields, field,
)
from baxter.algebra import Family
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


@pytest.fixture(autouse=True)
def _fresh_helpers(request):
    """Forked helpers run baxter as it was when they were forked, so a test
    that patches it starts with none and leaves none behind."""
    from baxter import search

    patches = "monkeypatch" in request.fixturenames
    if patches and search._HELPERS is not None:
        search._HELPERS.close()
    yield
    if patches and search._HELPERS is not None:
        search._HELPERS.close()


def _digest(cid, res) -> str:
    h = hashlib.sha256(f"{cid} {res.exit_code} {res.passed}\n".encode())
    for rep in res.reports:
        h.update(rep.canonical_json().encode() + b"\n")
    h.update(res.ledger.to_json_lines().encode())
    return h.hexdigest()


@pytest.mark.parametrize("cid", CLAIM_IDS)
def test_claim_matches_golden(default_runs, cid):
    assert _digest(cid, default_runs[cid]) == GOLDEN[cid]


@pytest.mark.parametrize("workers", [1, 2])
def test_claims_run_twice_in_one_process_match_golden(workers,
                                                     fresh_selector_cache):
    # the first pass replays every selector system, the second finds them
    # all cached by value (in the helper too, once it has swept them)
    for _ in range(2):
        for cid in CLAIM_IDS:
            res = claim_check(cid, workers=workers)
            assert _digest(cid, res) == GOLDEN[cid], cid


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


def test_claim_solves_whole_only_sweeps_of_one_block(monkeypatch):
    # Every sweep of the claim is one item of one helper task; each is
    # planned where it is taken and, being one block, solved there, so no
    # item comes back planned and no block task follows.
    from baxter import search

    tasks, replies = [], []
    real_run = search._Helpers.run

    def spy_run(self, task, count):
        tasks.append(task)
        replies.append(real_run(self, task, count))
        return replies[-1]

    monkeypatch.setattr(search._Helpers, "run", spy_run)
    res = claim_check("Thm0.3-CYBE", workers=2)
    assert _digest("Thm0.3-CYBE", res) == GOLDEN["Thm0.3-CYBE"]
    (task,) = tasks
    assert all(spec.workers == 1 for spec in task)
    # per field: the ab and bd families (q**2 members of q**3 strongly
    # symmetric tensors v (x) v each), the two dim-2 algebras and
    # commutator_lie(M2), each swept on the n coordinates of v
    assert [search._codes(spec) for spec in task] == [
        2 ** 5, 2 ** 5, 2 ** 2, 2 ** 2, 2 ** 4,
        4 ** 5, 4 ** 5, 4 ** 2, 4 ** 2, 4 ** 4,
    ]
    assert [isinstance(spec.algebra, Family) for spec in task] == [
        True, True, False, False, False] * 2
    assert all(isinstance(reports, list) for reports in replies[0])


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


def test_lemma02_checks_the_tensors_the_selector_selects(
        f2, monkeypatch, fresh_selector_cache):
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


# ---------------------------------------------------------------------------
# Lemma2.1.1: the kernel count against the per-tensor loop it replaced


def _lemma211_reference(family, xs=(0, 1, 2)):
    """The per-tensor loop, on the object route: for every member of
    ``family``, r in Im(1 - tau) and x in ``xs``, whether each reading's
    action of e_x on the CYBE residual equals the co-Jacobi defect at x.
    Returns the failing codes ``member * q^3 + (r's rank among the Im
    members)`` per (reading, x), and the diagonal failure notes in loop
    order."""
    from baxter import bialgebra, ybe
    from baxter.claims import _selected

    f = family.field
    members = family.members()
    ims = _selected([members[0]], "im-one-minus-tau", 1)[0]
    failed = {(mode, x): [] for mode in ("diagonal", "cube") for x in xs}
    notes = []
    for k, L in enumerate(members):
        for rank, r in enumerate(ims):
            c = ybe.cybe_residual(L, r)
            defects = bialgebra.cojacobi_defect(L, r)
            for x in xs:
                for mode in ("diagonal", "cube"):
                    act = bialgebra.adjoint_act3(L, x, c, mode=mode)
                    if act != defects[x]:
                        failed[mode, x].append(k * len(ims) + rank)
                        if mode == "diagonal":
                            notes.append(
                                f"diagonal reading fails: {L.label} over "
                                f"{f.literal()}, r={r.literal()}, x=e{x + 1}"
                            )
    return failed, notes


def _lemma211_kernel_failures(family, xs=(0, 1, 2)):
    from baxter.claims import _lemma211_holds

    every = np.arange(family.field.q ** 5)
    holds = _lemma211_holds(family, 1)
    return {(mode, x): np.setdiff1d(every, holds[mode, x][1].codes).tolist()
            for mode in ("diagonal", "cube") for x in xs}


def _failures(failed, reading) -> int:
    return sum(len(codes) for (mode, _), codes in failed.items()
               if mode == reading)


def test_lemma211_kernel_count_matches_the_per_tensor_loop(f2, f4):
    # the same failing (member, r) codes, and the counts of the notes
    cube = 0
    for kind in ("ab", "bd"):
        family = Family(kind, f2)
        failed, _ = _lemma211_reference(family)
        assert _lemma211_kernel_failures(family) == failed
        assert _failures(failed, "diagonal") == 0
        cube += _failures(failed, "cube")
    assert cube == 4  # "fails in 4/192 cases"
    # GF(4): one family and one x, to keep the loop short; bd at e3 holds
    # every cube failure of "fails in 432/6144 cases"
    family = Family("bd", f4)
    failed, _ = _lemma211_reference(family, xs=(2,))
    assert _lemma211_kernel_failures(family, xs=(2,)) == failed
    assert (_failures(failed, "diagonal"), _failures(failed, "cube")) == (
        0, 432)


def test_lemma211_broken_diagonal_action_fails_with_the_loop_notes(
    f2, monkeypatch, fresh_selector_cache
):
    # a wrong action that is still generic over ring scalars
    from baxter.cli import main
    from baxter.search import COUNTEREXAMPLE_CAP

    _wrong_diagonal_action(monkeypatch)
    notes, diag_fail, cube_fail = [], 0, 0
    for kind in ("ab", "bd"):
        failed, family_notes = _lemma211_reference(Family(kind, f2))
        notes += family_notes
        diag_fail += _failures(failed, "diagonal")
        cube_fail += _failures(failed, "cube")
    assert len(notes) > COUNTEREXAMPLE_CAP  # the cap is exercised
    res = claim_check("Lemma2.1.1", fields=[f2])
    assert not res.passed and res.exit_code == 1
    assert res.notes == notes[:COUNTEREXAMPLE_CAP] + [
        f"gf(2): diagonal reading holds in {192 - diag_fail}/192 (algebra,"
        f" r, x) cases; tensor-cube reading fails in {cube_fail}/192 cases"
        " -- the diagonal action is the operative reading"
    ]
    assert main(["claim", "Lemma2.1.1", "--fields", "gf(2)"]) == 1


def _wrong_diagonal_action(monkeypatch):
    """Make the diagonal action add the residual itself, so that it fails
    wherever the residual is nonzero."""
    from baxter import bialgebra

    real = bialgebra.adjoint_act3

    def wrong(L, xi, t, mode="diagonal"):
        out = real(L, xi, t, mode)
        return out.add(t) if mode == "diagonal" else out

    monkeypatch.setattr(bialgebra, "adjoint_act3", wrong)


@pytest.mark.parametrize("broken", [False, True])
def test_lemma211_counted_past_the_chunk_gives_the_listed_notes(
    f4, monkeypatch, caplog, broken, fresh_selector_cache
):
    # GF(4)'s 4**5 codes per family exceed a chunk of 2**8, so every
    # system is counted, and a failing diagonal reading takes its first
    # failures from a scan of the codes: the notes are the listed run's
    from baxter import search
    from baxter.claims import _lemma211_holds

    if broken:
        _wrong_diagonal_action(monkeypatch)
    listed = claim_check("Lemma2.1.1", fields=[f4])
    assert listed.passed is not broken
    monkeypatch.setattr(search.SweepSpec, "chunk", 1 << 8)
    holds = _lemma211_holds(Family("bd", f4), 1)
    assert any(side.codes is None for _, side in holds.values())
    with caplog.at_level(logging.DEBUG, logger="baxter"):
        counted = claim_check("Lemma2.1.1", fields=[f4])
    assert counted.notes == listed.notes
    # the planned sweeps log their (reading, x) sides by name
    assert any(r.getMessage().startswith("variable order: (")
               for r in caplog.records if r.name == "baxter")
    assert counted.passed is listed.passed


def test_lemma211_outside_characteristic_2_is_refused(f3):
    from baxter.errors import WrongCharacteristic

    with pytest.raises(WrongCharacteristic,
                       match="^family requires characteristic 2, got 3$"):
        claim_check("Lemma2.1.1", fields=[f3])


# ---------------------------------------------------------------------------
# Lemma0.2: the generator check against the whole-group check it replaced


def _basis_changes(f2):
    """Every invertible basis change of GF(2)^3, built from all 512
    matrices as the deleted check built them."""
    from baxter.errors import SingularMatrix
    from baxter.search import enumerate_tensors
    from baxter.tensor import BasisChange

    changes = []
    for m in enumerate_tensors(f2, 3):
        try:
            changes.append(BasisChange(f2, m.rows))
        except SingularMatrix:
            continue
    return changes


def _lemma02_reference(f2) -> bool:
    """The deleted check: every invertible basis change maps the strongly
    symmetric tensors onto themselves."""
    from baxter import ybe
    from baxter.search import enumerate_tensors

    strong = {r for r in enumerate_tensors(f2, 3)
              if ybe.is_strongly_symmetric(r)}
    return all({ch.apply_t2(r) for r in strong} == strong
               for ch in _basis_changes(f2))


def test_lemma02_transvections_generate_every_basis_change(f2):
    from baxter.claims import _transvections

    gens = _transvections(f2, 3)
    seen, frontier = {g.matrix for g in gens}, gens
    while frontier:
        grown = {h.matrix: h for g in frontier for s in gens
                 for h in [g.then(s)] if h.matrix not in seen}
        seen.update(grown)
        frontier = list(grown.values())
    invertible = {ch.matrix for ch in _basis_changes(f2)}
    assert len(gens) == 6
    assert seen == invertible and len(invertible) == 168


@pytest.mark.parametrize("patched", [False, True])
def test_lemma02_generator_check_matches_the_whole_group(
    f2, monkeypatch, patched
):
    # the real predicate is invariant; r[0][0] != 0 is not
    from baxter import ybe

    if patched:
        monkeypatch.setattr(ybe, "is_strongly_symmetric",
                            lambda r: r.rows[0][0] != r.field.zero())
    whole = _lemma02_reference(f2)
    assert whole is not patched
    (note,) = [n for n in claim_check("Lemma0.2", fields=[f2]).notes
               if "basis changes" in n]
    assert ("holds" if whole else "fails") in note
    assert "6 transvections" in note and "168" in note


def test_lemma02_product_identity_catches_a_non_symmetric_construction(
    f2, monkeypatch
):
    # k_ij = c v_i v_0 only when built over the polynomial ring, so (III)
    # alone sees it: the selector's members still round-trip through the
    # real rank-one form
    from baxter import ybe
    from baxter._poly import PolyRing

    real = ybe.rank1_tensor

    def lopsided(scalars, scale, vector):
        if not isinstance(scalars, PolyRing):
            return real(scalars, scale, vector)
        n = len(vector)
        return Tensor2(scalars, n, [[scale * vector[i] * vector[0]
                                     for _ in range(n)] for i in range(n)])

    (note,) = [n for n in claim_check("Lemma0.2", fields=[f2]).notes
               if "product permutation invariance" in n]
    assert "holds" in note
    monkeypatch.setattr(ybe, "rank1_tensor", lopsided)
    res = claim_check("Lemma0.2", fields=[f2])
    assert not res.passed and res.exit_code == 1
    (note,) = [n for n in res.notes if "product permutation invariance" in n]
    assert "fails" in note
    assert all("hold" in n for n in res.notes if n != note)


def test_lemma02_shares_its_sweeps_and_notes_match_across_worker_counts(
    monkeypatch,
):
    # the six strongly-symmetric sweeps go to the helpers as one task
    from baxter import search

    tasks = []
    real_run = search._Helpers.run

    def spy_run(self, task, count):
        tasks.append(task)
        return real_run(self, task, count)

    monkeypatch.setattr(search._Helpers, "run", spy_run)
    want = claim_check("Lemma0.2", workers=1).notes
    assert not tasks
    assert claim_check("Lemma0.2", workers=2).notes == want
    (task,) = tasks
    assert [(spec.algebra.field.literal(), spec.algebra.dim, spec.predicate)
            for spec in task] == [
        (f, dim, "strongly-symmetric")
        for f in claim_default_fields("Lemma0.2") for dim in (1, 2, 3)
    ]
