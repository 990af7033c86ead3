import json
import re

from cytforge.catalog import load_catalog
from cytforge.certificates import Certificate
from cytforge.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_quadric_cyt_passes(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--model", "quadric", "--omega", "C", "--omega", "D",
        "--kahler", "1/2C+1/2D", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] is True
    assert doc["results"]["cyt"]["lambdas"] == ["2/1", "2/1"]


def test_verify_negative_omega_and_wrong_scale(capsys):
    # class expressions may start with '-'; the unscaled class fails by scale
    code, out, _ = run(
        capsys,
        "verify", "--model", "quadric", "--omega", "C", "--omega", "-D",
        "--kahler", "C+D", "--expect", "cyt", "--format", "json",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["results"]["cyt"]["solved_scale"] == "1/2"


def test_verify_skt(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--model", "quadric", "--omega", "C", "--omega", "D",
        "--expect", "skt", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["results"]["skt"]["total"] == "0/1"


def test_verify_balanced_kummer(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--model", "kummer", "--omega", "C1-C2", "--omega", "C3-C4",
        "--kahler", "F", "--expect", "balanced", "--format", "json",
    )
    assert code == 0


def test_cone_check(capsys):
    code, out, _ = run(
        capsys,
        "cone-check", "--model", "blowup_cp2(2)", "--class", "6H-2E1-2E2",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["cone"]["self_intersection"] == "28/1"
    code, _, _ = run(capsys, "cone-check", "--model", "blowup_cp2(2)", "--class", "E1")
    assert code == 1


def test_solve_scale(capsys):
    code, out, _ = run(
        capsys,
        "solve-scale", "--model", "blowup_cp2(2)", "--omega", "3H-E1-E2",
        "--omega", "H-2E1-E2", "--ray", "3H-E1-E2", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["results"]["scale"] == "2/1"
    code, _, _ = run(
        capsys,
        "solve-scale", "--model", "quadric", "--omega", "C", "--omega", "C",
        "--ray", "C+D", "--format", "json",
    )
    assert code == 1


def test_solve_ansatz(capsys):
    code, out, _ = run(capsys, "solve-ansatz", "--k", "9")
    assert code == 0
    assert "n = 38-20*sqrt(3)" in out
    assert "(approx)" in out
    code, _, err = run(capsys, "solve-ansatz", "--k", "8")
    assert code == 1


def test_topology(capsys):
    code, out, _ = run(
        capsys,
        "topology", "--model", "blowup_cp2(5)", "--omega", "3H-E1-E2-E3-E4-E5",
        "--omega", "E1-E2", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["topology"]["diffeo_label"] == "4(S²×S⁴) # 5(S³×S³)"
    assert doc["results"]["topology"]["tables"]["betti"] == [1, 0, 4, 10, 4, 0, 1]
    code, _, _ = run(
        capsys,
        "topology", "--model", "blowup_cp2(2)", "--omega", "2H", "--omega", "E1",
    )
    assert code == 1


def test_search_writes_catalog(tmp_path, capsys):
    out_path = tmp_path / "catalog.jsonl"
    code, _, err = run(
        capsys,
        "search", "--model", "blowup_cp2(2)", "--bound", "3",
        "--filter", "cyt", "--filter", "topology",
        "--out", str(out_path), "--threads", "1",
    )
    assert code == 0
    assert re.search(
        r"search exhausted coefficient bound 3: \d+ pairs visited, \d+ skipped by symmetry, \d+ records",
        err,
    )
    records, errors = load_catalog(str(out_path))
    assert not errors and records
    pair = {(3, -1, -1), (1, -2, -1)}
    assert any({r.omega1, r.omega2} == pair for r in records)


def test_search_reports_exhaustion(tmp_path, capsys):
    # termination contract: the run completes and names the bound it exhausted
    # (witness pairs may or may not exist at a given bound)
    code, _, err = run(
        capsys,
        "search", "--model", "blowup_cp2(2)", "--bound", "1",
        "--filter", "skt", "--filter", "topology", "--filter", "spin",
        "--out", str(tmp_path / "cat.jsonl"), "--threads", "1",
    )
    assert code in (0, 1)
    assert "exhausted coefficient bound 1" in err
    empty_code, _, err2 = run(
        capsys,
        "search", "--model", "quadric", "--bound", "1",
        "--filter", "cyt", "--filter", "balanced", "--threads", "1",
    )
    assert empty_code == 1  # genuinely empty: balanced forces a zero traced sum
    assert "exhausted coefficient bound 1" in err2


def test_reproduce_targets(capsys):
    for args in (["--section", "4.1"], ["--section", "4.3", "--k", "5"],
                 ["--section", "4.4", "--k", "9"], ["--section", "6.1"],
                 ["--section", "maxroot"]):
        code, out, err = run(capsys, "reproduce-paper", *args, "--format", "json")
        assert code == 0, (args, err)
        assert json.loads(out)["results"]["diffs"] == []


def test_reproduce_missing_k(capsys):
    code, _, err = run(capsys, "reproduce-paper", "--section", "4.3")
    assert code == 2
    assert "k" in err


def test_usage_errors(capsys):
    assert run(capsys, "verify", "--model", "quadric")[0] == 2  # missing omegas
    assert run(capsys, "nonsense")[0] == 2
    code, _, err = run(capsys, "verify", "--model", "no_such_model",
                       "--omega", "C", "--omega", "D", "--kahler", "C")
    assert code == 2
    code, _, err = run(capsys, "verify", "--model", "quadric", "--omega", "C",
                       "--omega", "D", "--expect", "cyt")
    assert code == 2  # cyt needs a kahler class


def test_certificate_round_trip_via_cli(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--model", "quadric", "--omega", "C", "--omega", "D",
        "--kahler", "1/2C+1/2D", "--format", "json",
    )
    cert = Certificate.from_json(out)
    doc_again = json.loads(cert.to_json())
    assert doc_again == json.loads(out)


def test_rerun_reproduces_certificate_bytes(capsys):
    argv = ["verify", "--model", "quadric", "--omega", "C", "--omega", "D",
            "--kahler", "1/2C+1/2D", "--format", "json"]
    _, first, _ = run(capsys, *argv)
    a = json.loads(first)
    _, second, _ = run(capsys, *a["command"])  # replay the echoed command
    b = json.loads(second)
    assert a["digest"] == b["digest"]  # digest ignores the timestamp
    a.pop("timestamp"), b.pop("timestamp")
    assert a == b


def test_vector_syntax_and_model_file(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "verify", "--model", "quadric", "--omega", "[1,0]", "--omega", "[0,1]",
        "--kahler", "[1/2,1/2]", "--format", "json",
    )
    assert code == 0
    model_doc = {
        "name": "toy",
        "basis": ["A"],
        "gram": [[1]],
        "c1": [3],
        "curves": [],
        "ample_witness": [1],
        "simply_connected": True,
    }
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(model_doc))
    code, out, _ = run(
        capsys, "cone-check", "--model", str(path), "--class", "2A", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["model"]["name"] == "toy"


def test_text_format_renders(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--model", "quadric", "--omega", "C", "--omega", "D",
        "--kahler", "1/2C+1/2D",
    )
    assert code == 0
    assert "verdict: True" in out


def test_bad_thread_settings_exit_2(tmp_path, capsys, monkeypatch):
    search = ["search", "--model", "quadric", "--bound", "1", "--filter", "skt"]
    monkeypatch.setenv("CYT_FORGE_THREADS", "abc")
    code, _, err = run(capsys, *search, "--threads", "1")
    assert code == 2 and "CYT_FORGE_THREADS" in err
    # only the search reads the variable
    assert run(capsys, "solve-ansatz", "--k", "9")[0] == 0
    monkeypatch.delenv("CYT_FORGE_THREADS")
    for bad in (["--threads", "0"], ["--threads", "-2"], ["--threads", "x"], ["--limit", "-1"]):
        code, _, err = run(capsys, *search, *bad)
        assert code == 2, bad
        assert "Traceback" not in err


def test_search_reports_limit(tmp_path, capsys):
    out_path = tmp_path / "cat.jsonl"
    search = ["search", "--model", "quadric", "--bound", "1", "--filter", "skt", "--threads", "1"]
    code, _, err = run(capsys, *search, "--limit", "0", "--out", str(out_path))
    assert code == 1
    assert load_catalog(str(out_path)) == ([], [])
    assert "search stopped at --limit 0: " in err and "exhausted" not in err
    code, out, err = run(capsys, *search, "--limit", "2")
    assert code == 0
    assert len(out.splitlines()) == 2
    assert "search stopped at --limit 2: " in err and "exhausted" not in err


def test_search_rejects_non_positive_ray(capsys):
    search = ["search", "--model", "blowup_cp2(2)", "--bound", "1", "--filter", "cyt", "--threads", "1"]
    for ray in ("0", "E1"):
        code, out, err = run(capsys, *search, "--ray", ray)
        assert code == 2, ray
        assert "positive self-intersection" in err and "Traceback" not in err
        assert out == ""
