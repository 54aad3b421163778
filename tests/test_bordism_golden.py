"""Every bordism output on the golden pairs matches its recorded value.

The ``algebra`` bench digest hashes only a law check's kind, verdict and
piece sizes; this pin holds every report's points and every class's
payload and structure.
"""

import copy
import json

import pytest

import bordism_golden
from bordism_golden import ChangedOutputError, load, outputs

CASES = load()


def test_golden_cases_cover_both_universes_and_every_check():
    kinds = {case["kind"] for case in CASES}
    assert kinds == {"curves", "meshes"}
    checks = {
        out["check"]
        for case in CASES
        for out in case["outputs"].values()
        if "check" in out
    }
    assert checks == {"cartan", "naturality", "mu-tower"}
    # the pairs are not all trivial: some pieces are non-empty
    assert any(
        out.get("lhs")
        for case in CASES
        for name, out in case["outputs"].items()
        if name.startswith("check_cartan")
    )


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_bordism_outputs_match_golden(case):
    got = outputs(case)
    assert sorted(got) == sorted(case["outputs"])
    for name, expected in case["outputs"].items():
        assert got[name] == expected, name


def test_record_adds_missing_outputs_and_never_changes_a_stored_one(
    tmp_path, monkeypatch
):
    golden = tmp_path / "golden.json"
    monkeypatch.setattr(bordism_golden, "GOLDEN", golden)
    case = copy.deepcopy(CASES[1])
    missing = case["outputs"].pop("psi_r(f, 2)")
    golden.write_text(json.dumps({"cases": [case]}))
    assert bordism_golden.record() == 1
    assert load()[0]["outputs"]["psi_r(f, 2)"] == missing

    case["outputs"]["psi_r(f, 2)"] = {"tampered": True}
    text = json.dumps({"cases": [case]})
    golden.write_text(text)
    with pytest.raises(ChangedOutputError, match="curves-1: psi_r"):
        bordism_golden.record()
    assert golden.read_text() == text
