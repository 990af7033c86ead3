import dataclasses
import importlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import property_suites
import pytest

import cytforge
from cytforge import cli
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
    # (3H-E1-E2, H-2E1-E2) as the least pair of its orbit under S_2 and the fiber signs
    pair = {(-3, 1, 1), (-1, 1, 2)}
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
    doc = json.loads(out)
    cert = Certificate(**{f.name: doc[f.name] for f in dataclasses.fields(Certificate)})
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



def test_search_reports_a_dropped_ray(capsys):
    search = ["search", "--model", "blowup_cp2(3)", "--bound", "3", "--filter", "cyt", "--threads", "1"]
    # H pairs to zero with E1, so it is not Kaehler and only the anticanonical route runs
    with property_suites.without_signs():
        assert len(run(capsys, *search, "--ray", "H")[1].splitlines()) == 109
    code, out, err = run(capsys, *search, "--ray", "H")
    assert code == 0 and len(out.splitlines()) == 30
    assert all('"cyt_route":"anticanonical_ray"' in line for line in out.splitlines())
    notes = [line for line in err.splitlines() if "not used" in line]
    assert notes == ["--ray H not used: a cyt ray must be Kaehler with Q(c1,R) > 0 on blowup_cp2(3,general)"]
    assert err.splitlines()[-1].startswith("search exhausted coefficient bound 3: ")
    code, out, err = run(capsys, *search, "--ray", "4H-E1-E2-E3")
    assert code == 0 and "not used" not in err
    assert any('"cyt_route":"ray"' in line for line in out.splitlines())


def test_reproduce_mismatch_exits_1(capsys, monkeypatch):
    import cytforge.reproduce as reproduce_mod

    real = reproduce_mod.load_golden

    def tampered(section, k=None):
        doc = real(section, k)
        doc["expected"] = dict(doc["expected"], skt_total="99/1")
        return doc

    monkeypatch.setattr(reproduce_mod, "load_golden", tampered)
    code, out, err = run(capsys, "reproduce-paper", "--section", "5", "--format", "json")
    assert code == 1
    diff = "skt_total: expected '99/1', got '0/1'"
    assert json.loads(out)["results"]["diffs"] == [diff]
    assert err == f"section 5: {diff}\n"


@pytest.mark.parametrize(
    "doc,message",
    [
        ('{"name": "x", "c1": [1]}', "has no 'gram' field"),
        ("[1, 2]", "must hold a JSON object"),
        ('{"gram": [[1]]}', "has no 'c1' field"),
        ('{"gram": [1], "c1": [3]}', "'gram' must be a list of integer lists"),
        ('{"gram": [[1]], "c1": ["3"]}', "'c1' must be a list of integers"),
        ('{"gram": [[1]], "c1": [3], "basis": 5}', "'basis' must be a list of labels"),
    ],
)
def test_malformed_model_file_exits_2(tmp_path, doc, message):
    path = tmp_path / "model.json"
    path.write_text(doc)
    src = str(Path(cytforge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from cytforge.cli import main; sys.exit(main())",
         "cone-check", "--model", str(path), "--class", "2A"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr and proc.stderr.startswith("error: model file ")


def test_a_model_file_with_a_repeated_basis_label_exits_2(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text('{"gram": [[1, 0], [0, -1]], "c1": [3, -1], "basis": ["H", "H"]}')
    code, out, err = run(capsys, "cone-check", "--model", str(path), "--class", "[2,-1]")
    assert code == 2 and out == ""
    assert err == f"error: model {path}: basis label 'H' appears twice\n"


@pytest.mark.parametrize("doc, field", [('{"gram": [], "c1": []}', "gram"), ('{"gram": [[1]], "c1": []}', "c1")])
def test_empty_gram_or_c1_exits_2(tmp_path, capsys, doc, field):
    path = tmp_path / "model.json"
    path.write_text(doc)
    code, _, err = run(capsys, "search", "--model", str(path), "--bound", "3", "--filter", "cyt")
    assert code == 2 and err.startswith("error: ") and f"'{field}' must not be empty" in err


@pytest.mark.parametrize(
    "doc, message",
    [
        ("[1, 2]", "must hold a JSON object"),
        ('{"c1": [3]}', "has no 'gram' field"),
        ('{"gram": [[1]]}', "has no 'c1' field"),
        ('{"gram": [[1.5]], "c1": [3]}', "'gram' must be a list of integer lists"),
        ('{"gram": [1], "c1": [3]}', "'gram' must be a list of integer lists"),
        ('{"gram": [[1]], "c1": ["3"]}', "'c1' must be a list of integers"),
        ('{"gram": [[1]], "c1": [true]}', "'c1' must be a list of integers"),
        ('{"gram": [[1]], "c1": [3], "curves": [[0.5]]}', "'curves' must be a list of integer lists"),
        ('{"gram": [[1]], "c1": [3], "curves": [1]}', "'curves' must be a list of integer lists"),
        ('{"gram": [[1]], "c1": [3], "ample_witness": ["1"]}', "'ample_witness' must be a list of integers"),
        ('{"gram": [[1]], "c1": [3], "ample_witness": 1}', "'ample_witness' must be a list of integers"),
        ('{"gram": [[1]], "c1": [3], "basis": 5}', "'basis' must be a list of labels"),
        ('{"gram": [[1]], "c1": [3], "basis": [1]}', "'basis' must be a list of labels"),
        ('{"gram": [[1]], "c1": [3], "name": 5}', "'name' must be a string"),
        ('{"gram": [[1]], "c1": [3], "simply_connected": "false"}', "'simply_connected' must be true or false"),
        ('{"gram": [[1]], "c1": [3], "simply_connected": 1}', "'simply_connected' must be true or false"),
        ('{"gram": [[1]], "c1": [3], "simply_connected": null}', "'simply_connected' must be true or false"),
    ],
)
def test_each_malformed_model_field_exits_2(tmp_path, capsys, doc, message):
    path = tmp_path / "model.json"
    path.write_text(doc)
    code, out, err = run(capsys, "cone-check", "--model", str(path), "--class", "0")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: model file {path}") and err.endswith(f"{message}\n") and err.count("\n") == 1


def test_simply_connected_text_is_no_boolean(tmp_path, capsys):
    # "false" as a string was read through bool() as true, and certified S3 x S3
    doc = {"gram": [[1, 0], [0, -1]], "c1": [3, -1], "basis": ["H", "E1"], "curves": [[0, 1]],
           "ample_witness": [2, -1], "simply_connected": "false"}
    path = tmp_path / "f.json"
    topology = ["topology", "--model", str(path), "--omega", "[1,0]", "--omega", "[0,1]", "--format", "json"]
    path.write_text(json.dumps(doc))
    assert run(capsys, *topology) == (2, "", f"error: model file {path}: 'simply_connected' must be true or false\n")
    path.write_text(json.dumps({**doc, "simply_connected": False}))
    code, out, err = run(capsys, *topology)
    assert (code, out) == (2, "") and "not simply connected" in err
    path.write_text(json.dumps({**doc, "simply_connected": True}))
    code, out, err = run(capsys, *topology)
    cert = json.loads(out)
    assert (code, err) == (0, "") and cert["model"]["simply_connected"] is True
    assert cert["results"]["topology"]["diffeo_label"] == "S³×S³"


def _capped_cli(*argv):
    """The CLI in a subprocess with 1 GB of address space and a minute of
    time, so a model too big to build fails the test, not the machine."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(cytforge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run(
        [sys.executable, "-c", "import sys; from cytforge.cli import main; sys.exit(main())", *argv],
        capture_output=True, text=True, env=env, preexec_fn=cap, timeout=60,
    )


@pytest.mark.parametrize(
    "argv, k",
    [
        (["cone-check", "--model", "blowup_cp2(99999999999)", "--class", "H"], 99999999999),
        (["cone-check", "--model", "blowup_cp2(201,on_cubic)", "--class", "H"], 201),
        (["solve-ansatz", "--k", "99999999999"], 99999999999),
        (["search", "--model", "blowup_cp2(99999999999)", "--bound", "1", "--filter", "skt"], 99999999999),
        (["solve-ansatz", "--k", "0"], 0),
        (["solve-ansatz", "--k", "-3"], -3),
    ],
)
def test_too_many_points_exit_2_before_the_model_is_built(argv, k):
    proc = _capped_cli(*argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: 1 <= k <= 200 required, got k={k}\n"


def test_sixty_points_on_a_cubic_fit_the_cap():
    # the section 4.4 sweep runs to k = 60; H is nef, not ample, so the check fails
    proc = _capped_cli("cone-check", "--model", "blowup_cp2(60,on_cubic)", "--class", "H")
    assert (proc.returncode, proc.stderr) == (1, "")


def test_a_huge_ray_searches_to_no_record_within_the_cap():
    # m = Q(c1,R) = 3*10^11 - 1: the walk solves q2 on one coordinate, so
    # nothing of size m is built, and at bound 1 no pair is on the locus
    proc = _capped_cli("search", "--model", "blowup_cp2(1)", "--bound", "1", "--filter", "cyt",
                       "--ray", "100000000000H-E1")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.splitlines()[-1] == (
        "search exhausted coefficient bound 1: 0 pairs visited, 0 skipped by symmetry, 0 records"
    )


@pytest.mark.parametrize("filter_", ["cyt", "skt"])
def test_a_huge_bound_exits_2_before_any_table_is_built(filter_):
    # a bound of 10^7 used to fill the address space with the walk's rows
    # or the skt tails and die with MemoryError; the query refuses it
    proc = _capped_cli("search", "--model", "blowup_cp2(3)", "--bound", "10000000", "--filter", filter_)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: coeff_bound <= 1000 required\n")


def test_a_model_files_steep_anticanonical_ray_searches_to_no_record(tmp_path, capsys):
    # c1 is ample, with Q(c1,c1) = 3000^2 - 1 and gcd(c1) = 1, so m = 8 999 999
    path = tmp_path / "steep.json"
    path.write_text(json.dumps({"name": "steep", "gram": [[1, 0], [0, -1]], "c1": [3000, -1], "curves": [[0, 1]],
                                "ample_witness": [3000, -1], "simply_connected": True}))
    for threads in ("1", "2"):
        code, out, err = run(capsys, "search", "--model", str(path), "--bound", "1", "--filter", "cyt",
                             "--threads", threads)
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == (
            "search exhausted coefficient bound 1: 0 pairs visited, 0 skipped by symmetry, 0 records"
        )


def test_search_into_a_closed_pipe_ends_quietly():
    # 5 133 records, far more than a pipe buffer holds, so the writer is
    # still printing when the reader goes away
    src = str(Path(cytforge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys; from cytforge.cli import main; sys.exit(main())",
         "search", "--model", "blowup_cp2(3)", "--bound", "3", "--filter", "skt", "--threads", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert first.startswith(b'{"canonical_key":')
    assert "error:" not in err and "Traceback" not in err and "Exception ignored" not in err


def _fresh_python(script: str) -> subprocess.CompletedProcess:
    """Run a script in a new interpreter that imports cytforge from these sources."""
    src = str(Path(cytforge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    env.pop("CYT_FORGE_THREADS", None)
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)


_PARSER_LAYERS = {"cli", "errors", "intlinalg", "scalars", "surfaces"}
_CERTIFIER = _PARSER_LAYERS | {"certificates", "cone"}
_SEARCHER = _PARSER_LAYERS | {"catalog", "cone", "cyt", "search", "topology"}
_K8_AMPLE = "[30/1,-10/1,-10/1,-10/1,-10/1,-10/1,-10/1,-10/1,-10/1]"

# (entry point, the cytforge modules it loads): a command loads only the
# layers it runs, and none loads multiprocessing (a search forks its workers
# itself)
_ENTRY_POINTS = [
    ("import cytforge", set()),
    ("import cytforge.cli", _PARSER_LAYERS),
    (["cone-check", "--model", "blowup_cp2(8)", "--class", _K8_AMPLE], _CERTIFIER),
    (["topology", "--model", "blowup_cp2(5)", "--omega", "E1-E2", "--omega", "E3-E4"], _CERTIFIER | {"cyt", "topology"}),
    (["verify", "--model", "quadric", "--omega", "C", "--omega", "D", "--kahler", "1/2C+1/2D"], _CERTIFIER | {"cyt"}),
    (["verify", "--model", "quadric", "--omega", "C", "--omega", "-D", "--expect", "skt"], _CERTIFIER | {"cyt", "skt"}),
    (["search", "--model", "quadric", "--bound", "1", "--filter", "skt", "--threads", "1"], _SEARCHER),
    (["search", "--model", "blowup_cp2(3)", "--bound", "2", "--filter", "cyt", "--threads", "2"], _SEARCHER | {"forkjoin"}),
]


def test_each_entry_point_loads_only_the_layers_it_runs():
    for entry, layers in _ENTRY_POINTS:
        if isinstance(entry, list):
            entry = f"from cytforge.cli import main; main({entry!r})"
        proc = _fresh_python(
            f"import sys; {entry}; "
            "print(sorted(m for m in sys.modules if m.startswith('cytforge.')), 'multiprocessing' in sys.modules)"
        )
        assert proc.returncode == 0, proc.stderr
        expected = f"{sorted('cytforge.' + layer for layer in layers)} False"
        assert proc.stdout.splitlines()[-1] == expected, entry


# the names `cytforge` exported when its __init__ imported each of them
_EXPORTED = {
    "catalog": "CatalogRecord VerdictFlags append_records load_catalog",
    "certificates": "Certificate build_certificate",
    "cone": "ConeCertificate is_kahler negative_curves",
    "cyt": "AnsatzSolution BundleSpec CytCertificate balanced_check c1_bundle_triviality "
    "primitive_route_check solve_scale solve_symmetric_ansatz verify_cyt",
    "errors": "CytForgeError",
    "reproduce": "reproduce_paper",
    "scalars": "QuadraticNumber Scalar exact_sign format_scalar parse_scalar quadratic solve_quadratic",
    "search": "SearchQuery search",
    "skt": "SktReport hodge_obstruction verify_skt",
    "surfaces": "CohClass PairingFunctionalModel SurfaceModel blowup_cp2 builtin_model custom_model "
    "divisibility_index intersect kummer_model load_model parse_class projective_plane quadric",
    "topology": "SpectralTables TopologyCertificate topology_certificate",
}


def test_the_package_exports_resolve_to_the_defining_modules_objects():
    # in a fresh interpreter, so `cytforge.search` is read both before and
    # after the submodule of that name is first imported
    proc = _fresh_python(f"""
import importlib, sys, types
import cytforge
from cytforge import search
assert isinstance(search, types.FunctionType) and cytforge.search is search
import cytforge.search
from cytforge import search as again
assert cytforge.search is again is search is sys.modules["cytforge.search"].search
exported = {_EXPORTED!r}
names = {{name: layer for layer, text in exported.items() for name in text.split()}}
assert len(names) == 48 and sorted(cytforge.__all__) == sorted(names) and set(names) <= set(dir(cytforge))
for name, layer in names.items():
    assert getattr(cytforge, name) is getattr(importlib.import_module("cytforge." + layer), name), name
star = {{}}
exec("from cytforge import *", star)
assert all(star[name] is getattr(cytforge, name) for name in names)
# a lookup returns what the module holds now, as a patch or a tracer swaps it
for layer, name in (("cone", "is_kahler"), ("search", "search")):
    module = sys.modules["cytforge." + layer]
    original = getattr(module, name)
    setattr(module, name, stand_in := lambda *args: None)
    assert getattr(cytforge, name) is stand_in, name
    setattr(module, name, original)
    assert getattr(cytforge, name) is original, name
print("ok")
""")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")


def test_the_parsers_choices_are_the_layers_own():
    # the parser keeps its own copies, so that parsing loads neither layer
    assert cli.VALID_FILTERS == importlib.import_module("cytforge.search").VALID_FILTERS
    assert cli.SECTIONS == importlib.import_module("cytforge.reproduce").SECTIONS


def test_a_two_worker_search_forks_with_no_thread_and_no_multiprocessing(tmp_path):
    # Python 3.12+ warns when a process with threads forks, and as an error
    # the warning reaches stderr: a clean stderr pins that the search holds
    # no helper thread when it forks its worker
    src = str(Path(cytforge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    env.pop("CYT_FORGE_THREADS", None)
    script = "import sys; from cytforge.cli import main; code = main(); print('multiprocessing' in sys.modules); sys.exit(code)"
    proc = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", "-c", script, "search", "--model", "blowup_cp2(3)",
         "--bound", "2", "--filter", "cyt", "--threads", "2", "--out", str(tmp_path / "k3.jsonl")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n")
    assert proc.stderr.splitlines() == [
        "3 chunks done on 2 workers",
        "search exhausted coefficient bound 2: 3 pairs visited, 0 skipped by symmetry, 3 records",
    ]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_search_out_of_memory_exits_2(tmp_path, capsys, monkeypatch, threads):
    # the search, or a forked worker's chunk, raising MemoryError ends in one
    # error line, exit 2 and no new catalog, as any input error does
    search_module = importlib.import_module("cytforge.search")
    parent, chunk = os.getpid(), search_module._Plan.chunk

    def starved(plan, lead):  # on 2 workers only in the forked one
        if threads == "1" or os.getpid() != parent:
            raise MemoryError
        time.sleep(0.3)  # so the forked worker claims a lead
        return chunk(plan, lead)

    def no_memory(*args, **kwargs):
        raise MemoryError

    argv = ["search", "--model", "blowup_cp2(3)", "--bound", "2", "--filter", "skt", "--threads", threads]
    for name, owner, raiser in (("search", search_module, no_memory), ("chunk", search_module._Plan, starved)):
        out = tmp_path / f"{name}.jsonl"
        with monkeypatch.context() as m:
            m.setattr(owner, name, raiser)
            code, out_text, err = run(capsys, *argv, "--out", str(out))
        assert (code, out_text, err) == (2, "", "error: out of memory\n"), name
        assert not out.exists()


def test_unreadable_paths_exit_2(tmp_path, capsys):
    # a directory where a model file or a catalog is expected
    code, _, err = run(capsys, "cone-check", "--model", str(tmp_path), "--class", "H")
    assert code == 2 and err.startswith("error: ") and "Traceback" not in err
    search = ["search", "--model", "quadric", "--bound", "1", "--filter", "skt", "--threads", "1"]
    code, _, err = run(capsys, *search, "--out", str(tmp_path))
    assert code == 2 and err.splitlines()[-1].startswith("error: ")


def test_an_unwritable_catalog_fails_before_the_search(tmp_path, capsys, monkeypatch):
    out = tmp_path / "missing" / "x.jsonl"
    search = ["search", "--model", "blowup_cp2(3)", "--bound", "3", "--filter", "skt", "--threads", "2"]
    with monkeypatch.context() as m:
        m.setattr(importlib.import_module("cytforge.search"), "search", lambda *args, **kwargs: pytest.fail("the search ran"))
        code, out_text, err = run(capsys, *search, "--out", str(out))
    assert (code, out_text) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: '{out}'\n"
    # a query the search rejects leaves no new file, and an existing one as it was
    unfiltered = ["search", "--model", "blowup_cp2(3)", "--bound", "3", "--threads", "1"]
    out = tmp_path / "x.jsonl"
    code, _, err = run(capsys, *unfiltered, "--out", str(out))
    assert code == 2 and "exceed the enumeration cap" in err and not out.exists()
    out.write_text("kept\n")
    code, _, err = run(capsys, *unfiltered, "--out", str(out))
    assert code == 2 and out.read_text() == "kept\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["cone-check", "--model", "quadric", "--class", "[1/0,1]"],
        ["cone-check", "--model", "quadric", "--class", "1/0*C"],
        ["cone-check", "--model", "quadric", "--class", "[0/0,1]"],
        ["cone-check", "--model", "quadric", "--class", "[1+1/0*sqrt(2),1]"],
        ["verify", "--model", "quadric", "--omega", "[1/0,0]", "--omega", "D", "--kahler", "C+D"],
    ],
)
def test_a_zero_denominator_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: zero denominator in ") and "Traceback" not in err


def test_a_radicand_above_the_bound_exits_2(capsys):
    code, out, err = run(capsys, "cone-check", "--model", "quadric", "--class", f"[1+1*sqrt({10**12 + 39}),1]")
    assert (code, out) == (2, "")
    assert err.startswith("error: radicand above 1000000000000 in ") and "Traceback" not in err


def test_a_zero_radicand_exits_2(capsys):
    code, out, err = run(capsys, "cone-check", "--model", "quadric", "--class", "[1*sqrt(0),1]")
    assert (code, out) == (2, "")
    assert err == "error: zero radicand in '1*sqrt(0)'\n"


# a prime radicand just under MAX_RADICAND: trial division up to its root
# takes about 60 ms, so an operation on its field must not factor it again
_PRIME_K8 = "[1000000+1*sqrt(999999999989),-2,-2,-2,-2,-2,-2,-2,-2]"


@pytest.mark.parametrize(
    "argv,code,digest",
    [
        (["cone-check", "--model", "blowup_cp2(8)", "--class", _PRIME_K8], 0,
         "6b7fa8fe7e6fe46bde975bfa4f908d6cf14e4b3fa7110b69c3f4837ec8bd113f"),
        (["verify", "--model", "blowup_cp2(8)", "--omega", "[3,-1,-1,-1,-1,-1,-1,-1,-1]",
          "--omega", "[0,1,-1,0,0,0,0,0,0]", "--kahler", _PRIME_K8], 1,
         "20a0b1adf8130ecf3a01c9be9c7898b048d6772a4cadc3a07617eb6861fb0067"),
    ],
    ids=["cone-check", "verify"],
)
def test_a_big_radicand_is_factored_once(capsys, argv, code, digest):
    from cytforge import scalars

    factor = scalars.square_free_decomposition
    factor.cache_clear()
    got, out, _ = run(capsys, *argv, "--format", "json")
    assert (got, json.loads(out)["digest"]) == (code, digest)
    info = factor.cache_info()
    # no argument was factored twice, and the radicand is among those factored
    assert info.misses == info.currsize < info.maxsize
    factor(999999999989)
    assert factor.cache_info().misses == info.misses


@pytest.mark.parametrize(
    "argv",
    [
        ["cone-check", "--model", "blowup_cp2(2)", "--class", "[1,,1,-1]"],
        ["cone-check", "--model", "blowup_cp2(2)", "--class", "[,1,-1,-1]"],
        ["cone-check", "--model", "blowup_cp2(2)", "--class", "[1,-1,-1,]"],
        ["cone-check", "--model", "blowup_cp2(2)", "--class", "[3, ,-1]"],
        ["verify", "--model", "quadric", "--omega", "[1,,0]", "--omega", "D", "--kahler", "C+D"],
    ],
)
def test_an_empty_vector_entry_exits_2(capsys, argv):
    # the entries used to be dropped: [1,,1,-1] certified (1, 1, -1)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: empty entry in vector ") and "Traceback" not in err


@pytest.mark.parametrize("text", ["3H*E1", "3H+*E1", "*H", "-*E1"])
def test_a_star_without_a_coefficient_exits_2(capsys, text):
    # "3H*E1" used to certify 3H + E1, exit 1
    code, out, err = run(capsys, "cone-check", "--model", "blowup_cp2(2)", "--class", text)
    assert (code, out) == (2, "")
    assert err.startswith("error: bad class expression ") and "Traceback" not in err


def test_the_cached_parser_keeps_no_state_between_calls(capsys):
    assert cli.build_parser() is cli.build_parser()
    two = ["verify", *_QUADRIC, "--kahler", "1/2C+1/2D", "--format", "json"]
    four = ["verify", *_QUADRIC, "--omega", "C", "--omega", "-D", "--kahler", "1/2C+1/2D", "--format", "json"]
    calls = [
        ["verify", "--model", "quadric", "--bogus"],  # an argparse error
        ["--help"],
        two,
        four,
        ["cone-check", "--model", "blowup_cp2(2)", "--class", "6H-2E1-2E2", "--witness", "-E1+3H"],
    ]
    interleaved = calls + calls[::-1]
    cached = [_stateless_view(argv, capsys) for argv in interleaved]
    fresh = []
    for argv in interleaved:
        cli.build_parser.cache_clear()
        fresh.append(_stateless_view(argv, capsys))
    assert cached == fresh
    assert [view[0] for view in cached[: len(calls)]] == [2, 0, 0, 1, 0]
    # the --omega lists start empty on every parse
    for argv, count in ((two, 2), (four, 4), (two, 2)):
        assert len(json.loads(run(capsys, *argv)[1])["inputs"]["omegas"]) == count


def _stateless_view(argv, capsys):
    """Exit code, stdout without its timestamp line, and stderr."""
    code, out, err = run(capsys, *argv)
    kept = [line for line in out.splitlines() if "timestamp" not in line]
    return code, kept, err


# -- frozen command outputs -------------------------------------------------

_QUADRIC = ["--model", "quadric", "--omega", "C", "--omega", "D"]
_KUMMER = ["--model", "kummer", "--omega", "C1-C2", "--omega", "C3-C4", "--kahler", "F"]
_TWO_POINT = ["--model", "blowup_cp2(2)", "--omega", "3H-E1-E2", "--omega", "H-2E1-E2"]

# every certifying command runs once per --format
_CERTIFYING = (
    ["verify", *_QUADRIC, "--kahler", "1/2C+1/2D"],
    ["verify", "--model", "quadric", "--omega", "C", "--omega", "-D", "--kahler", "C+D"],
    ["verify", *_QUADRIC, "--expect", "cyt"],
    ["verify", *_QUADRIC, "--expect", "skt"],
    ["verify", "--model", "blowup_cp2(2)", "--omega", "H", "--omega", "H", "--expect", "skt"],
    ["verify", *_TWO_POINT, "--kahler", "3H-E1-E2", "--expect", "skt"],
    ["verify", *_KUMMER, "--expect", "skt"],
    ["verify", *_KUMMER, "--expect", "balanced"],
    ["verify", *_QUADRIC, "--expect", "balanced"],
    ["verify", "--model", "no_such_model", "--omega", "C", "--omega", "D", "--kahler", "C"],
    ["cone-check", "--model", "blowup_cp2(2)", "--class", "6H-2E1-2E2"],
    ["cone-check", "--model", "blowup_cp2(2)", "--class", "E1"],
    ["cone-check", "--model", "kummer", "--class", "F"],
    ["cone-check", "--model", "blowup_cp2(3)", "--class", "3H-E1-E2-E3", "--witness", "H"],
    ["solve-scale", *_TWO_POINT, "--ray", "3H-E1-E2"],
    ["solve-scale", "--model", "quadric", "--omega", "C", "--omega", "C", "--ray", "C+D"],
    ["solve-scale", *_TWO_POINT, "--ray", "E1"],
    ["solve-ansatz", "--k", "9"],
    ["solve-ansatz", "--k", "5"],
    ["topology", "--model", "blowup_cp2(5)", "--omega", "3H-E1-E2-E3-E4-E5", "--omega", "E1-E2"],
    ["topology", "--model", "blowup_cp2(2)", "--omega", "2H", "--omega", "E1"],
    ["reproduce-paper", "--section", "4.1"],
    ["reproduce-paper", "--section", "4.3"],
    ["reproduce-paper", "--section", "4.3", "--k", "5"],
    ["reproduce-paper", "--section", "4.3", "--k", "8"],
    ["reproduce-paper", "--section", "4.4", "--k", "13"],
    ["reproduce-paper", "--section", "maxroot"],
)

_SEARCH = ["search", "--threads", "1"]
FROZEN_COMMANDS = [
    *(argv + ["--format", fmt] for argv in _CERTIFYING for fmt in ("json", "text")),
    [*_SEARCH, "--model", "kummer", "--bound", "1", "--filter", "skt"],
    [*_SEARCH, "--model", "blowup_cp2(2)", "--bound", "1", "--filter", "cyt", "--ray", "[1+1*sqrt(2),0,0]"],
    [*_SEARCH, "--model", "blowup_cp2(2)", "--bound", "1", "--filter", "cyt", "--ray", "0"],
    [*_SEARCH, "--model", "blowup_cp2(2)", "--bound", "3", "--filter", "cyt", "--ray", "H"],
    [*_SEARCH, "--model", "blowup_cp2(2)", "--bound", "3", "--filter", "cyt", "--filter", "topology"],
    [*_SEARCH, "--model", "quadric", "--bound", "1", "--filter", "skt", "--limit", "2"],
    [*_SEARCH, "--model", "quadric", "--bound", "1", "--filter", "bogus"],
    ["reproduce-paper", "--section", "9.9", "--format", "json"],
]


def _frozen_view(argv, capsys):
    """Exit code, certificate digest (JSON output), sha256 of stdout without
    its timestamp line, and the last stderr line."""
    import hashlib

    code, out, err = run(capsys, *argv)
    digest = json.loads(out)["digest"] if "json" in argv and out else None
    kept = [
        line for line in out.splitlines(keepends=True)
        if not line.startswith("timestamp: ") and not line.startswith('  "timestamp": ')
    ]
    out_sha = hashlib.sha256("".join(kept).encode("utf-8")).hexdigest()
    err_lines = err.splitlines()
    return code, digest, out_sha, err_lines[-1] if err_lines else ""


# (exit code, digest, stdout sha256, last stderr line) per command line, taken
# before the subcommands shared one certificate path; they must not move
FROZEN_VIEWS = {
    'verify --model quadric --omega C --omega D --kahler 1/2C+1/2D --format json': (
        0,
        '897c37cdea60118438cdbb91d91e6f211fa5dfd8cc7a2924f9c5a006dd2b8076',
        '28c1c1d33ea2cf85818bdfc1bd3b1b63af9c6852d5631268011e4291c18d5c78',
        '',
    ),
    'verify --model quadric --omega C --omega D --kahler 1/2C+1/2D --format text': (
        0,
        None,
        '8959a60eb9645a40ed03e4a63e5f571be75e8b4d4fb9477d000aa6552948f6e2',
        '',
    ),
    'verify --model quadric --omega C --omega -D --kahler C+D --format json': (
        1,
        '35d5ef6467ed091b6e5493e085f38270b1c118ae505a81e0dd9269f564225606',
        '6cf9681f17b4a32e559d3b8e5d2ed9bd30719700c1552b9ee8c18253ccfae1d1',
        '',
    ),
    'verify --model quadric --omega C --omega -D --kahler C+D --format text': (
        1,
        None,
        '3ba11c8d6b2725f211d18ed9a2bc5ca86248b20b2803f107c95c5bb3d05c9b33',
        '',
    ),
    'verify --model quadric --omega C --omega D --expect cyt --format json': (
        2,
        None,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'error: --expect cyt needs --kahler',
    ),
    'verify --model quadric --omega C --omega D --expect cyt --format text': (
        2,
        None,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'error: --expect cyt needs --kahler',
    ),
    'verify --model quadric --omega C --omega D --expect skt --format json': (
        0,
        'c1c79ea1980ce9577318a6a719175d330c1a97f2114f4d5a919e4015d5ce3352',
        'a10e9c0be689ba87b500ef01639497fe69d934a0833fb5a2aeb1071337c12cbe',
        '',
    ),
    'verify --model quadric --omega C --omega D --expect skt --format text': (
        0,
        None,
        '2a7f59ea4b6e17dc030cc02fb5fa9909dd88c5b556f609f344d858a450d636c0',
        '',
    ),
    'verify --model blowup_cp2(2) --omega H --omega H --expect skt --format json': (
        1,
        '3c147d574dde9ef2a0ad9b87be7d5863f1b429b959d1f307fed8c7dd9e334726',
        'fd4dbc4eb94119558ae9c32bd0ba78e3c25f56538ef6ae9fc04fa94fd43f6cb0',
        '',
    ),
    'verify --model blowup_cp2(2) --omega H --omega H --expect skt --format text': (
        1,
        None,
        'eb641f73c540b60248a6dbdba96d0ea3f7b172e21800f4826f0c8453f2b6c1d1',
        '',
    ),
    'verify --model blowup_cp2(2) --omega 3H-E1-E2 --omega H-2E1-E2 --kahler 3H-E1-E2 --expect skt --format json': (
        1,
        'df24a093a7c424d84e6d7a1d6a2d98375986ce341abff74db3647e8154d40fc3',
        '9345c83ed779d0350154ec2331618f13fdd20499b8e9910f706ca17767ff2fb2',
        '',
    ),
    'verify --model blowup_cp2(2) --omega 3H-E1-E2 --omega H-2E1-E2 --kahler 3H-E1-E2 --expect skt --format text': (
        1,
        None,
        '3d6151eb3660d3cd810895e0e0c99259fc1186eb47d8539c6d27e186298e21bd',
        '',
    ),
    'verify --model kummer --omega C1-C2 --omega C3-C4 --kahler F --expect skt --format json': (
        1,
        '325af027786eb4abfa11fe28c875a9def80b7f6bea401ba040c26aa588b275f8',
        '60273e704837f73df741168b12fbf595d76707a131fe7e72a59b9a90e9051db3',
        '',
    ),
    'verify --model kummer --omega C1-C2 --omega C3-C4 --kahler F --expect skt --format text': (
        1,
        None,
        'f74e08eef00d315c08bc744ad9ae596e7cd6becc3b17aa8300a467fb6745d13f',
        '',
    ),
    'verify --model kummer --omega C1-C2 --omega C3-C4 --kahler F --expect balanced --format json': (
        0,
        'dddcb7aa91208548089df759a49baa979d455956b1604513af711345c8036b23',
        '6222b152a81781ec6fb7e0ef16d3d977c81e9ea3668175783e35c020ca8b25be',
        '',
    ),
    'verify --model kummer --omega C1-C2 --omega C3-C4 --kahler F --expect balanced --format text': (
        0,
        None,
        '6808005f98d9cd4b550af249f63e9f3d87ce24686547533d768fd9b81d049472',
        '',
    ),
    'verify --model quadric --omega C --omega D --expect balanced --format json': (
        2,
        None,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'error: --expect balanced needs --kahler',
    ),
    'verify --model quadric --omega C --omega D --expect balanced --format text': (
        2,
        None,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'error: --expect balanced needs --kahler',
    ),
    'verify --model no_such_model --omega C --omega D --kahler C --format json': (
        2,
        None,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        "error: [Errno 2] No such file or directory: 'no_such_model'",
    ),
    'verify --model no_such_model --omega C --omega D --kahler C --format text': (
        2,
        None,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        "error: [Errno 2] No such file or directory: 'no_such_model'",
    ),
    'cone-check --model blowup_cp2(2) --class 6H-2E1-2E2 --format json': (
        0,
        'f7a58842345292e36117538ee304e6e59023e46daba09c5fbfc17264fb23c8ff',
        '4ce6cff68b6ec66ff3a588a2246ba9024c5f05d893277f0f2706e4a4298a432c',
        '',
    ),
    'cone-check --model blowup_cp2(2) --class 6H-2E1-2E2 --format text': (
        0,
        None,
        '3ba57fefde1f9f2f148c4240d71594a96a59aa5cf33065f4ac226a03854fcda9',
        '',
    ),
    'cone-check --model blowup_cp2(2) --class E1 --format json': (
        1,
        '3fe74a820cb5ddbd7edbfcf3cb7d57b99b96b33220bdfc0618e508385a9f489c',
        'fc98050d0f5af2fc3e1689e85ed731ad6e3152045a0d7419850eb90f5d06dbb3',
        '',
    ),
    'cone-check --model blowup_cp2(2) --class E1 --format text': (
        1,
        None,
        '4914465a2dcf3cd013e762746009c5113673608f565e3d139703d04cbda7e63d',
        '',
    ),
    'cone-check --model kummer --class F --format json': (
        2,
        None,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'error: cone checks need a full lattice model',
    ),
    'cone-check --model kummer --class F --format text': (
        2,
        None,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'error: cone checks need a full lattice model',
    ),
    'cone-check --model blowup_cp2(3) --class 3H-E1-E2-E3 --witness H --format json': (
        0,
        'c2ce6d9b8353c4ee11356404413da50d08c2ff46a241a45269130b9fee8aa6cd',
        '70a4392b4819a2989df00abd8cbbeab0439bd6737022bdce1b9972e978e01059',
        '',
    ),
    'cone-check --model blowup_cp2(3) --class 3H-E1-E2-E3 --witness H --format text': (
        0,
        None,
        'b7f06e2eebd1c295f311e6103af708df8c3b66799d462232ac34e3d537f0e437',
        '',
    ),
    'solve-scale --model blowup_cp2(2) --omega 3H-E1-E2 --omega H-2E1-E2 --ray 3H-E1-E2 --format json': (
        0,
        '80ae41ca93b531d79df56477c6045e86a7d9bdeffaccf15cbd7e01668f4977eb',
        '06294979d714fed43a76c8858527ed7b575375cbe7915371b32f5aa298d52a34',
        '',
    ),
    'solve-scale --model blowup_cp2(2) --omega 3H-E1-E2 --omega H-2E1-E2 --ray 3H-E1-E2 --format text': (
        0,
        None,
        '776b9aec57979ee6abea0f6f02a92450b406e9a3c3299534d15a7b3bac3e8f78',
        '',
    ),
    'solve-scale --model quadric --omega C --omega C --ray C+D --format json': (
        1,
        '10b30e13f0c4066cd010535db1115a2ab44cf9152c1667a2ef0f59033c6b0288',
        '8bb91d782b101cbe136500dbbd9f1c30c4b7230185f280cb06f299a81fdac3bc',
        '',
    ),
    'solve-scale --model quadric --omega C --omega C --ray C+D --format text': (
        1,
        None,
        '1b5176883897853c1a3244d0f9edc44badc893dcc170fbe4f7234197ecf394ab',
        '',
    ),
    'solve-scale --model blowup_cp2(2) --omega 3H-E1-E2 --omega H-2E1-E2 --ray E1 --format json': (
        2,
        None,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'error: ray needs positive self-intersection',
    ),
    'solve-scale --model blowup_cp2(2) --omega 3H-E1-E2 --omega H-2E1-E2 --ray E1 --format text': (
        2,
        None,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'error: ray needs positive self-intersection',
    ),
    'solve-ansatz --k 9 --format json': (
        0,
        '4adea442e67a385f3deab1e61b54122a150ca56639cbf0349beab9031bf47fd9',
        '2df10220f0355fa4a2ec0a9e4db9b1419257707ae3846ab1f141dd889c7e9502',
        '',
    ),
    'solve-ansatz --k 9 --format text': (
        0,
        None,
        '1b5b92ab6be0ba073ec97a5b2ecc7cb0406ebf706bc29bf51bbe6db52554e195',
        '',
    ),
    'solve-ansatz --k 5 --format json': (
        1,
        None,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'no symmetric-ansatz solution for k=5',
    ),
    'solve-ansatz --k 5 --format text': (
        1,
        None,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'no symmetric-ansatz solution for k=5',
    ),
    'topology --model blowup_cp2(5) --omega 3H-E1-E2-E3-E4-E5 --omega E1-E2 --format json': (
        0,
        'd6c830dce95fd47f27ae926ad81b2d26dada5033db277b30bd71d49838f05f37',
        '8fc0db27238ed9bc828b1395be1ca89c3730a3b4bbde418aebd450ccfc88274a',
        '',
    ),
    'topology --model blowup_cp2(5) --omega 3H-E1-E2-E3-E4-E5 --omega E1-E2 --format text': (
        0,
        None,
        '72300b4cce9a4f928c94be605bd9d6232cb1f8eb1a30003eb93b9ba57af89c53',
        '',
    ),
    'topology --model blowup_cp2(2) --omega 2H --omega E1 --format json': (
        1,
        'c6a45a2b2dd3d7d7f8e0d8f9c658f9253ab139f17157f2c4339f09dd7e9935e4',
        'fbbd5187489d6c6fbeb24fa35fffbf36ced70ea1ebdaf50863ddcfed68b65377',
        '',
    ),
    'topology --model blowup_cp2(2) --omega 2H --omega E1 --format text': (
        1,
        None,
        'd4887c6e5508ad00b4099e70e5aa46c9f8a2f6332d7b99193e35fdd0b6a14387',
        '',
    ),
    'reproduce-paper --section 4.1 --format json': (
        0,
        '6d2ea6e0a898c4c3e2784708fee49c1d4f73c6714456b9c9f5ea44234c9c2c63',
        '23b96483822675b606dd4cd5974ee2b79818eb495e56d6228cb3d4f9e68474db',
        '',
    ),
    'reproduce-paper --section 4.1 --format text': (
        0,
        None,
        'e31ad38882fc9e6f4de51d617768ab0c7eb53d20376affa1c9a27bd1ffa8b662',
        '',
    ),
    'reproduce-paper --section 4.3 --format json': (
        2,
        None,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'error: section 4.3 needs k (3..8)',
    ),
    'reproduce-paper --section 4.3 --format text': (
        2,
        None,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'error: section 4.3 needs k (3..8)',
    ),
    'reproduce-paper --section 4.3 --k 5 --format json': (
        0,
        'd6bd81d8203bd7eb452dc480220bdcab43f21112be6f60ed67eebf45fac13416',
        'c929793a69d51203d3cdc63bfa6deddf094b2c128eb12873ee7ca06f8a97fcc3',
        '',
    ),
    'reproduce-paper --section 4.3 --k 5 --format text': (
        0,
        None,
        '2543bd3835473edf81190d872fdb2218c55bf0e74215fb9e2e9280315d40cf0c',
        '',
    ),
    # taken before the parser and the class text were cached; the CI job
    # bench-smoke checks this digest from a one-shot `cytforge` process
    'reproduce-paper --section 4.3 --k 8 --format json': (
        0,
        '5434f19cf51e0df9c156c4af3c2c40cb01a17c002a7667fdab9d03d325174093',
        'd204348556cf905462b5c378fe6364b9f3e565c9177f811bdce2140b525e4b85',
        '',
    ),
    'reproduce-paper --section 4.3 --k 8 --format text': (
        0,
        None,
        'c1a35a319b3175d2e67f8f7cd2c1e5a03a0867af34310d7acb2ccdb0381990b4',
        '',
    ),
    'reproduce-paper --section 4.4 --k 13 --format json': (
        2,
        None,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'error: no frozen expected data for 4.4 k=13',
    ),
    'reproduce-paper --section 4.4 --k 13 --format text': (
        2,
        None,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'error: no frozen expected data for 4.4 k=13',
    ),
    'reproduce-paper --section maxroot --format json': (
        0,
        '6f12e6958a04c7eeadbf6734f2b8b27f499ba860e88e8e21e6f1bde51b779e72',
        'e116c656d1b7822c79e3782f0d8aa7a22a16fa3cd98e56b3cdc9d4f335570734',
        '',
    ),
    'reproduce-paper --section maxroot --format text': (
        0,
        None,
        'e05ad3d1d68058307ded87254dff7f2a00f74b62a8fb88fc8e250c14f55908ed',
        '',
    ),
    'search --threads 1 --model kummer --bound 1 --filter skt': (
        2,
        None,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'error: search needs a full lattice model',
    ),
    'search --threads 1 --model blowup_cp2(2) --bound 1 --filter cyt --ray [1+1*sqrt(2),0,0]': (
        2,
        None,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'error: search rays must have rational coefficients',
    ),
    'search --threads 1 --model blowup_cp2(2) --bound 1 --filter cyt --ray 0': (
        2,
        None,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'error: search ray needs positive self-intersection',
    ),
    # one record per bundle up to S_k and the fiber signs, and the pairs
    # visited are the partners in the orbit rule's lead window; V1_SEARCH_VIEWS
    # holds these lines as they read before the signs joined the group
    'search --threads 1 --model blowup_cp2(2) --bound 3 --filter cyt --ray H': (
        0,
        None,
        '0fda92e4575c8b688744788e78bdf91317ac7858d357e12f9a548b7c19dbb4f4',
        'search exhausted coefficient bound 3: 10 pairs visited, 0 skipped by symmetry, 10 records',
    ),
    'search --threads 1 --model blowup_cp2(2) --bound 3 --filter cyt --filter topology': (
        0,
        None,
        '8ea2a5a74a27f7bd2897560d568e826d2ac19486f80fc0f26aacec378ede1037',
        'search exhausted coefficient bound 3: 10 pairs visited, 0 skipped by symmetry, 3 records',
    ),
    'search --threads 1 --model quadric --bound 1 --filter skt --limit 2': (
        0,
        None,
        'dc55e6cca6e1100477358da982a9040f8365b91770f72609347643458558c646',
        'search stopped at --limit 2: 15 pairs visited, 8 skipped by symmetry, 2 records',
    ),
    'search --threads 1 --model quadric --bound 1 --filter bogus': (
        2,
        None,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        "cytforge search: error: argument --filter: invalid choice: 'bogus' (choose from 'cyt', 'skt', 'balanced', 'topology', 'spin')",
    ),
    'reproduce-paper --section 9.9 --format json': (
        2,
        None,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        "cytforge reproduce-paper: error: argument --section: invalid choice: '9.9' "
        "(choose from '4.1', '4.2', '4.3', '4.4', '5', '6.1', 'maxroot')",
    ),
}


def test_command_outputs_frozen(capsys):
    assert len(FROZEN_VIEWS) == len(FROZEN_COMMANDS)
    for argv in FROZEN_COMMANDS:
        assert _frozen_view(argv, capsys) == FROZEN_VIEWS[" ".join(argv)], argv


# the search lines of FROZEN_VIEWS as the search wrote them with S_k x swap,
# before the fiber signs joined its group
V1_SEARCH_VIEWS = {
    'search --threads 1 --model blowup_cp2(2) --bound 3 --filter cyt --ray H': (
        0,
        None,
        'f7e3ce152a3dc1e6f3e444e1be30d31e0f2791960447e68b6289e3dea15d76dd',
        'search exhausted coefficient bound 3: 29 pairs visited, 0 skipped by symmetry, 29 records',
    ),
    'search --threads 1 --model blowup_cp2(2) --bound 3 --filter cyt --filter topology': (
        0,
        None,
        '448deab26edba5d3d2c2c24e452941ed145b46dd97ef5089647bef6b99fcff78',
        'search exhausted coefficient bound 3: 29 pairs visited, 0 skipped by symmetry, 10 records',
    ),
    'search --threads 1 --model quadric --bound 1 --filter skt --limit 2': (
        0,
        None,
        '9c6c8f8766029792d69fb6963febc2ae305042d2f78b44d7bb61d5c1a0fc336b',
        'search stopped at --limit 2: 24 pairs visited, 5 skipped by symmetry, 2 records',
    ),
}


def test_v1_search_outputs_frozen(capsys):
    commands = [argv for argv in FROZEN_COMMANDS if " ".join(argv) in V1_SEARCH_VIEWS]
    assert len(commands) == len(V1_SEARCH_VIEWS)
    with property_suites.without_signs():
        for argv in commands:
            assert _frozen_view(argv, capsys) == V1_SEARCH_VIEWS[" ".join(argv)], argv


# classes with Q(sqrt(d)) coefficients: the ansatz classes for k >= 9 and
# hand-picked classes on the plane, the quadric and blow-ups, passing and failing
_R2 = "[3+1*sqrt(2),-1,-1]"
_RQ = "[1+1*sqrt(2),1+1*sqrt(2)]"
_K9 = "[38/1-20/1*sqrt(3)," + ",".join(["-10/1+5/1*sqrt(3)"] * 4 + ["-14/1+8/1*sqrt(3)"] * 5) + "]"
_K10 = "[-18/1+2/1*sqrt(114)," + ",".join(["4/1-1/2*sqrt(114)"] * 4 + ["7/1-2/3*sqrt(114)"] * 6) + "]"
_P9 = ["--model", "blowup_cp2(9)", "--omega", "4H-2E1-2E2-2E3-2E4-E5-E6-E7-E8-E9", "--omega", "-H+E1+E2+E3+E4"]
_P10 = ["--model", "blowup_cp2(10)", "--omega", "4H-2E1-2E2-2E3-2E4-E5-E6-E7-E8-E9-E10", "--omega", "-H+E1+E2+E3+E4"]
_ANTICANONICAL_PAIR = ["--model", "blowup_cp2(2)", "--omega", "3H-E1-E2", "--omega", "E1-E2"]

# (argv, exit code, JSON digest), taken while these classes were still paired
# curve by curve in a separate scalar loop; they must not move
QUADRATIC_DIGESTS = [
    (["solve-ansatz", "--k", "9"], 0, "4adea442e67a385f3deab1e61b54122a150ca56639cbf0349beab9031bf47fd9"),
    (["solve-ansatz", "--k", "10"], 0, "a98c91b06c3b5761a5f9e2f9916b0fdac281e5753ae2acfa14bf20650ea80eff"),
    (["solve-ansatz", "--k", "11"], 0, "214a28b71c25329d74e27a259c09ed0d1e1b10c30f1a6a4ca429197af1bb0ade"),
    (["solve-ansatz", "--k", "12"], 0, "1af3d9e6d48259c9b4662fa0ba3b201faf12857f64438218b2e9512738ee589b"),
    (["solve-ansatz", "--k", "13"], 0, "3f087a811b89f581412c20dbfa3594028b85ddb77bc3afcd106cba5bf44c9b49"),
    (["solve-ansatz", "--k", "14"], 0, "b614ad2c5cb5ac18b83725183838bfa0b879c63f923f972abea8f72443ab6f94"),
    (["solve-ansatz", "--k", "15"], 0, "a9fbef20232818797eb5b777db3e2d21322a1125b8173351d2a5034727726199"),
    (["solve-ansatz", "--k", "16"], 0, "807ace70d5b948e46b0d52e883d4d202e9d4ad66d53391ef84f3a03b2226297d"),
    (["solve-ansatz", "--k", "17"], 0, "43c7e67225a7c455ec4d266cfee5196eef2adbb475220531159c69c851eb9dab"),
    (["solve-ansatz", "--k", "18"], 0, "6469a78c44e36a6fdc02a18dde4c32878a99428a725de364c8e92039fff146ac"),
    (["solve-ansatz", "--k", "19"], 0, "b147d260e2e6307f47df18fd558810979c4930600bbd3a4fddab0eee50a84b44"),
    (["solve-ansatz", "--k", "20"], 0, "91ac4d825543d0c3364c8967f03489da80319fef054d017b0ec4ea149904d161"),
    (["solve-ansatz", "--k", "39"], 0, "c3ff43312fc2e6fbc118cc50245f6cf7b5c9ec2c015ee78c55a779f434d2c2a8"),
    (["cone-check", "--model", "blowup_cp2(2)", "--class", _R2], 0, "2900c5da7dd2bcb52a29db7182916c90b7421bb1be5d4ca8a0a9f9e9ebc65ff3"),
    (["cone-check", "--model", "blowup_cp2(2)", "--class", _R2, "--witness", "H"], 0, "c96b550305d39353d89ad7a3ca47112e2215581829a1eca0cb1f600e5fe319d5"),
    (["cone-check", "--model", "blowup_cp2(2)", "--class", "[1+1*sqrt(2),-2,-1]"], 1, "f934d12345fe7a848dff34dd14bee392e1a5559805ed81a7db843c05586a5484"),
    (["cone-check", "--model", "quadric", "--class", "[1+1*sqrt(2),1/2]"], 0, "ac7926f07da1d0dc4d37f2b83b280b4297a66f67d37521ae3d195fd094153208"),
    (["cone-check", "--model", "quadric", "--class", "[1-1*sqrt(2),1]"], 1, "3939a1cbdff93c782b8fd7c51dc64df8922ffddf3c4d6ac9483032aa46876e91"),
    (["cone-check", "--model", "projective_plane", "--class", "[-1+1*sqrt(5)]"], 0, "56fd9fde95f7b3d8bc168aac67dbdf071055a6e56857a93d1cf4df50bd88265b"),
    (["cone-check", "--model", "blowup_cp2(5)", "--class", "[5+1*sqrt(3),-1,-1,-1,-1,-1-1/2*sqrt(3)]"], 0, "de836ce3d2a28c2ba996fe27b37b1e4f56b52defbcbe38151d7ad54ab5ee67fb"),
    (["cone-check", "--model", "blowup_cp2(8)", "--class", "[7+1*sqrt(7),-2,-2,-2,-2,-2,-2,-2,-2]"], 0, "60ba216620e434cda48e905c3d4baa3521044927e01a759ef93ca90f5c503ef6"),
    (["cone-check", "--model", "blowup_cp2(8)", "--class", "[3+1/10*sqrt(7),-1,-1,-1,-1,-1,-1,-1,-1]"], 0, "3e553a963c645fd63b6a64abf48125df47cfc70737d4f32a079414500ebbe81b"),
    (["cone-check", "--model", "blowup_cp2(10)", "--class", "[4+1*sqrt(2),-1,-1,-1,-1,-1,-1,-1,-1,-1,-1]"], 0, "e2086ba7fa13530d9ff35bb853005fe2bf528123e61b128ab3f6196ca91061f8"),
    (["verify", *_ANTICANONICAL_PAIR, "--kahler", _R2], 1, "ab2551758f6cc68ff7c5bbc3786a0de283727e6d557154268c3e01a02a737460"),
    (["verify", *_ANTICANONICAL_PAIR, "--kahler", _R2, "--expect", "skt"], 1, "ef263e2fe46362f84397d23ce4c327f737472a9abdf32e898e68f4de0d61684e"),
    (["verify", *_ANTICANONICAL_PAIR, "--kahler", _R2, "--expect", "balanced"], 1, "653d26442f51401ab04f63b41d39eb8a1facb3eb7d9a4aa0b17e866b7ca148d1"),
    (["verify", "--model", "blowup_cp2(2)", "--omega", "H-E1-E2", "--omega", "E1-E2", "--kahler", _R2, "--expect", "balanced"], 1, "062b477e542e8c99cd82fc83bfacd66ee18d7447e86b7a77c8241ea4b9040edf"),
    (["verify", *_QUADRIC, "--kahler", _RQ], 1, "fda047279ebbc5f469afed116356c03d8d4c04a3e9628f3d088a38ecbbaff4f9"),
    (["verify", *_QUADRIC, "--kahler", _RQ, "--expect", "skt"], 0, "b35ab252757e9a36f2dde2e34af92ad6c64631eb7fb752146ea72da74268bf16"),
    (["verify", "--model", "quadric", "--omega", "C-D", "--omega", "0", "--kahler", _RQ, "--expect", "balanced"], 0, "c1271606880e9321d577aba4b3ae6b710e5d28478211d95844f475022813dda4"),
    (["verify", *_QUADRIC, "--kahler", "[1+1*sqrt(2),1]"], 1, "a2f981b1abb6b55edd9476fd5bb3b666ebffd6e2c4c0c5d511249a5d8f836176"),
    (["verify", "--model", "blowup_cp2(3)", "--omega", "3H-E1-E2-E3", "--omega", "E1-E2", "--kahler", "[3-1*sqrt(2),-1,-1,-1]"], 1, "abdd0151ff588e4bdb41af72b13dd38b9a5c54360a7c58138db9cb5884593437"),
    (["solve-scale", *_ANTICANONICAL_PAIR, "--ray", _R2], 1, "4289ce86acfb07abb88a899cf08d07f3ec400570a375b4eca451f0acb8d75211"),
    (["solve-scale", *_QUADRIC, "--ray", _RQ], 1, "3a76c280cc18c54ce681630c8e9dd7eae2feb2e4b2bc3cc9b3be87e580fcc255"),
    (["solve-scale", *_QUADRIC, "--ray", "[1+1*sqrt(2),1]"], 1, "247ba5b647af579c567b40e4d58cc676ea5d2da88a42c8ad434d346111e548ee"),
    (["solve-scale", *_ANTICANONICAL_PAIR, "--ray", "[-1+1*sqrt(3),0,0]"], 1, "10f88d7385993e462708a46c2de47b4d4d01eb370f0990ee38f6e7395bbacfa8"),
    (["solve-scale", "--model", "blowup_cp2(3)", "--omega", "3H-E1-E2-E3", "--omega", "0", "--ray", "[3+1*sqrt(3),-1-1/3*sqrt(3),-1-1/3*sqrt(3),-1-1/3*sqrt(3)]"], 1, "810b553dc8c34ac5b8ebd04f16f078b361d061ded0d30c66ebb77d64dddc24a6"),
    (["verify", *_P9, "--kahler", _K9], 0, "3557ceee131c2eff16f58f73db1193361ef74994b7d717f8d4cbc0233200548a"),
    (["verify", *_P10, "--kahler", _K10], 0, "afa59e8f78423639f64fe5f10b4e564346718b0e98ebc574eb836958c2e7b990"),
    (["solve-scale", *_P9, "--ray", _K9], 0, "8ccb741cec4a5649ab8f97aa2c4beead9effef523133cb726db1b8f7564fc47f"),
    # taken before these classes were paired as integer dots in surd form
    (["reproduce-paper", "--section", "4.4", "--k", "12"], 0, "78f836e5af5ef3e953cbd6b12cbd3b21a4537dec10b9a131ac9478824b4e6bfd"),
]


# a Gram matrix of determinant 2, written as the CI step writes it; the
# commands name it by the same relative path, so their digests agree
NONUNIMODULAR = (
    '{"name":"nonunimodular","gram":[[2,0,0],[0,-1,0],[0,0,-1]],"c1":[2,-1,-1],"basis":["A","E1","E2"],'
    '"curves":[[0,1,0],[0,0,1]],"ample_witness":[2,-1,-1],"simply_connected":true}'
)
# (omegas, exit code, digest, basis_extension, surrogate), taken while basis
# extension on a non-unimodular Gram was decided by the Smith form of W
NONUNIMODULAR_DIGESTS = [
    (("[1,0,0]", "[0,1,0]"), 1, "ed740958518709d93a20070cdb970b51061dcf2b98a4af32ccc9145e3d50a485", True, False),
    (("[2,0,0]", "[0,1,0]"), 1, "da9cbc9e115141b7d8cd9bbe1917de2a6bbfaeecfae109624a9476e516a88842", False, False),
    (("[0,1,0]", "[0,0,1]"), 0, "3a2287b87f0eca45651fc1a2220055ccee9948e3d5626beae5e5c2230ca5f4ff", True, True),
]


def test_nonunimodular_topology_digests_frozen(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nonunimodular.json").write_text(NONUNIMODULAR)
    for (a, b), code, digest, extension, surrogate in NONUNIMODULAR_DIGESTS:
        argv = ["topology", "--model", "nonunimodular.json", "--omega", a, "--omega", b, "--format", "json"]
        got, out, err = run(capsys, *argv)
        doc = json.loads(out)
        topology = doc["results"]["topology"]
        assert (got, doc["digest"], err) == (code, digest, ""), argv
        assert (topology["basis_extension"], topology["simply_connected_surrogate"]) == (extension, surrogate)
    assert topology["diffeo_label"] == "1(S²×S⁴) # 2(S³×S³)"


def test_quadratic_class_digests_frozen(capsys):
    for argv, code, digest in QUADRATIC_DIGESTS:
        got, out, err = run(capsys, *argv, "--format", "json")
        assert (got, json.loads(out)["digest"], err) == (code, digest, ""), argv


_MIXED = "[1+1*sqrt(2),1+1*sqrt(3)]"


@pytest.mark.parametrize(
    "argv",
    [
        ["cone-check", "--model", "quadric", "--class", _MIXED],
        ["verify", *_QUADRIC, "--kahler", _MIXED],
        ["verify", *_QUADRIC, "--kahler", _MIXED, "--expect", "skt"],
        ["solve-scale", *_QUADRIC, "--ray", _MIXED],
        ["cone-check", "--model", "blowup_cp2(2)", "--class", "[3+1*sqrt(2),-1,-1-1*sqrt(3)]"],
    ],
)
def test_a_class_in_two_fields_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: sqrt(") and "Traceback" not in err


def test_a_witness_may_start_with_a_minus(capsys):
    argv = ["cone-check", "--model", "blowup_cp2(2)", "--class", "6H-2E1-2E2", "--format", "json"]
    code, out, err = run(capsys, *argv, "--witness", "-E1+3H")
    assert code == 0 and err == ""
    cone = json.loads(out)["results"]["cone"]
    assert cone["ample_witness"] == ["3/1", "-1/1", "0/1"] and cone["witness_source"] == "user"
    _, same, _ = run(capsys, *argv, "--witness=-E1+3H")
    assert json.loads(same)["results"] == json.loads(out)["results"]
