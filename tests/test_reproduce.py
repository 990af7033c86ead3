import pytest

from cytforge.reproduce import compute, diff_against, load_golden, reproduce_paper

ALL_TARGETS = (
    [("4.1", None), ("4.2", None), ("5", None), ("6.1", None), ("maxroot", None)]
    + [("4.3", k) for k in range(3, 9)]
    + [("4.4", k) for k in range(9, 13)]
)


@pytest.mark.parametrize("section,k", ALL_TARGETS)
def test_reproduction_matches_frozen_values(section, k):
    result = reproduce_paper(section, k)
    assert result["diffs"] == []


def test_every_expected_key_is_produced():
    for section, k in ALL_TARGETS:
        golden = load_golden(section, k)
        computed = compute(section, k)
        missing = set(golden["expected"]) - set(computed)
        assert not missing, (section, k, missing)


def test_diff_reports_mismatch():
    diffs = diff_against({"a": 1, "b": "x"}, {"a": 1, "b": "y"})
    assert diffs == ["b: expected 'x', got 'y'"]
    diffs = diff_against({"gone": 1}, {})
    assert diffs == ["gone: missing from run"]


def test_a_tampered_golden_is_reported_in_diffs(monkeypatch):
    import cytforge.reproduce as reproduce_mod

    real = reproduce_mod.load_golden

    def tampered(section, k=None):
        doc = real(section, k)
        doc["expected"] = dict(doc["expected"], skt_total="99/1")
        return doc

    monkeypatch.setattr(reproduce_mod, "load_golden", tampered)
    result = reproduce_mod.reproduce_paper("5")
    assert result["diffs"] == ["skt_total: expected '99/1', got '0/1'"]


def test_unknown_section_and_missing_k():
    with pytest.raises(ValueError):
        compute("9.9")
    with pytest.raises(ValueError):
        compute("4.3")
    with pytest.raises(FileNotFoundError):
        load_golden("4.3", 99)


def test_a_section_without_k_rejects_one(monkeypatch, capsys):
    import cytforge.reproduce as reproduce_mod
    from cytforge.cli import main

    def never():
        raise AssertionError("compute_4_1 ran")

    monkeypatch.setattr(reproduce_mod, "compute_4_1", never)
    for run in (compute, reproduce_paper):
        with pytest.raises(ValueError, match="section 4.1 takes no k"):
            run("4.1", 5)
    assert main(["reproduce-paper", "--section", "4.1", "--k", "5"]) == 2
    assert capsys.readouterr().err.strip() == "error: section 4.1 takes no k"


def test_targets_are_looked_up_when_they_run(monkeypatch):
    import cytforge.reproduce as reproduce_mod

    assert reproduce_mod.SECTIONS == ("4.1", "4.2", "4.3", "4.4", "5", "6.1", "maxroot")
    monkeypatch.setattr(reproduce_mod, "compute_5", lambda: {"patched": True})
    monkeypatch.setattr(reproduce_mod, "compute_4_3", lambda k: {"k": k})
    assert compute("5") == {"patched": True}
    assert compute("4.3", 4) == {"k": 4}


def test_a_missing_golden_is_found_before_the_target_runs(monkeypatch, capsys):
    import cytforge.reproduce as reproduce_mod
    from cytforge.cli import main

    def never(k):
        raise AssertionError(f"compute_4_4({k}) ran")

    monkeypatch.setattr(reproduce_mod, "compute_4_4", never)
    with pytest.raises(FileNotFoundError, match="no frozen expected data for 4.4 k=300"):
        reproduce_mod.reproduce_paper("4.4", 300)
    assert main(["reproduce-paper", "--section", "4.4", "--k", "300"]) == 2
    assert capsys.readouterr().err.strip() == "error: no frozen expected data for 4.4 k=300"
    with pytest.raises(ValueError, match="needs k"):
        reproduce_mod.reproduce_paper("4.4")
