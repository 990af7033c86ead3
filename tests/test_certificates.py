import dataclasses
import gc
import hashlib
import json
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_catalog import TEXTS
from test_cli import FROZEN_COMMANDS

from cytforge import certificates
from cytforge.certificates import Certificate, _render, build_certificate, cone_doc, cyt_doc, digest_of
from cytforge.cli import main
from cytforge.cone import is_kahler
from cytforge.cyt import BundleSpec, verify_cyt
from cytforge.surfaces import blowup_cp2, custom_model, parse_class


def sample_certificate():
    m = blowup_cp2(2)
    bundle = BundleSpec(m, (parse_class(m, "3H-E1-E2"), parse_class(m, "H-2E1-E2")))
    cert = verify_cyt(bundle, 2 * m.c1)
    return build_certificate(
        command=["verify", "--model", "blowup_cp2(2)"],
        model=m,
        inputs={"omegas": [w.serialize() for w in bundle.curvatures]},
        results={"cyt": cyt_doc(cert)},
        verdict=cert.verdict,
    )


def test_json_round_trip():
    cert = sample_certificate()
    text = cert.to_json()
    doc = json.loads(text)
    parsed = Certificate(**{f.name: doc[f.name] for f in dataclasses.fields(Certificate)})
    assert parsed == cert
    assert parsed.to_json() == text


def test_digest_excludes_timestamp():
    a = sample_certificate()
    b = sample_certificate()
    b.timestamp = "2099-01-01T00:00:00+00:00"
    assert a.to_doc()["digest"] == b.to_doc()["digest"]
    assert a.timestamp != b.timestamp


def test_digest_tracks_content():
    a = sample_certificate()
    b = sample_certificate()
    b.inputs = dict(b.inputs, extra=1)
    assert a.to_doc()["digest"] != b.to_doc()["digest"]


def test_model_digest_stable():
    a = sample_certificate().to_doc()
    b = sample_certificate().to_doc()
    assert a["model_digest"] == b["model_digest"]
    assert digest_of(a["model"]) == a["model_digest"]


def test_doc_is_json_clean():
    doc = sample_certificate().to_doc()
    json.dumps(doc)  # every value must be JSON-native
    assert doc["normalization_note"]
    assert doc["results"]["cyt"]["lambdas"] == ["1/1", "0/1"]


def oracle(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


def compact_oracle(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _indented(doc) -> str:
    return _render(doc, "")


def test_json_dumps_is_the_oracle_for_every_frozen_certificate(monkeypatch, capsys):
    seen = []
    to_json = Certificate.to_json

    def checked(cert):
        text = to_json(cert)
        assert text == oracle(cert.to_doc()) + "\n", cert.command
        seen.append(cert.command)
        return text

    monkeypatch.setattr(Certificate, "to_json", checked)
    printed = 0
    for argv in FROZEN_COMMANDS:
        main(list(argv))
        out = capsys.readouterr().out
        printed += "json" in argv and out != ""
    assert len(seen) == printed == 19


def test_every_frozen_digest_is_the_sha256_of_the_compact_json_dumps(monkeypatch, capsys):
    built = []
    build = certificates.build_certificate
    monkeypatch.setattr(certificates, "build_certificate", lambda *args: built.append(build(*args)) or built[-1])
    for argv in FROZEN_COMMANDS:
        main(list(argv))
        capsys.readouterr()
    assert len(built) == 38  # the certifying commands, in json and in text
    for cert in built:
        doc = cert.to_doc()
        body = {k: v for k, v in doc.items() if k not in ("digest", "timestamp")}
        assert doc["digest"] == hashlib.sha256(compact_oracle(body).encode()).hexdigest(), cert.command
        if doc["model"] is not None:
            assert doc["model_digest"] == hashlib.sha256(compact_oracle(doc["model"]).encode()).hexdigest()


def _cone_certificate(model, expr: str) -> Certificate:
    cone = is_kahler(model, parse_class(model, expr))
    cert = build_certificate(["cone-check"], model, {"class": expr}, {"cone": cone_doc(cone)}, cone.verdict)
    cert.timestamp = "2000-01-01T00:00:00+00:00"
    return cert


def test_mutating_a_certificate_changes_only_its_own_text():
    m = blowup_cp2(8)
    k8 = "[31/3,-10/3,-3,-3,-3,-3,-3,-3,-3]"
    before = _cone_certificate(m, k8).to_json()
    for mutate in (
        lambda doc: doc["model"]["gram"][0].__setitem__(0, 2),
        lambda doc: doc["model"]["basis"].append("E9"),
        lambda doc: doc["model"].__setitem__("simply_connected", 1),  # == True, and JSON 1
        lambda doc: doc["model"].__setitem__("name", type("Label", (str,), {})("k8")),
        lambda doc: doc["results"]["cone"]["curve_checks"][0]["curve"].__setitem__(0, "9/1"),
        lambda doc: doc["results"]["cone"]["curve_checks"][-1].__setitem__("sign", -1),
    ):
        cert = _cone_certificate(m, k8)
        mutate({"model": cert.model, "results": cert.results})
        if type(cert.model["name"]) is str:
            doc = cert.to_doc()
            body = {k: v for k, v in doc.items() if k not in ("digest", "timestamp")}
            assert doc["digest"] == hashlib.sha256(compact_oracle(body).encode()).hexdigest()
            assert cert.to_json() == oracle(doc) + "\n" != before
        else:  # the writer takes no str subclass, in either form
            for render in (cert.to_doc, cert.to_json):
                with pytest.raises(TypeError):
                    render()
        again = _cone_certificate(m, k8)
        assert again.to_json() == before
        assert again.to_doc()["digest"] == json.loads(before)["digest"]


def test_a_parsed_certificate_renders_the_printed_text(capsys):
    k8 = "[30/1,-10/1,-10/1,-10/1,-10/1,-10/1,-10/1,-10/1,-10/1]"
    assert main(["cone-check", "--model", "blowup_cp2(8)", "--class", k8, "--format", "json"]) == 0
    text = capsys.readouterr().out
    doc = json.loads(text)
    parsed = Certificate(**{f.name: doc[f.name] for f in dataclasses.fields(Certificate)})
    assert parsed.to_json() == text
    assert parsed.to_doc() == doc


def test_a_custom_model_is_freed_after_a_certificate_on_it():
    m = custom_model("freed", [[1, 0], [0, -1]], [3, -1], curves=[[0, 1]], ample_witness=[2, -1])
    cert = _cone_certificate(m, "[2,-1]")
    text = cert.to_json()
    assert m.certificate_store
    ref = weakref.ref(m)
    del m
    gc.collect()
    assert ref() is None  # the rendered parts live on the model, not in a cache keyed on it
    assert cert.to_json() == text


_STRINGS = st.one_of(
    st.sampled_from(TEXTS),
    st.text(st.one_of(st.characters(exclude_categories=()), st.sampled_from('"\\\x00\x1f\x7f\u2028\udcff😀'))),
)
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from((0, 1, -1, True, False, 2**64, -(2**64) - 1)),
    st.integers(),
    st.integers(min_value=-(2**80), max_value=2**80),
    _STRINGS,
)
_DOCS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(inner, max_size=6).map(tuple),
        st.lists(_STRINGS, max_size=6),
        st.dictionaries(_STRINGS, inner, max_size=6),
    ),
    max_leaves=20,
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_DOCS)
def test_json_dumps_is_the_oracle_for_drawn_documents(doc):
    assert _indented(doc) == oracle(doc)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_DOCS)
def test_json_dumps_is_the_compact_oracle_for_drawn_documents(doc):
    assert _render(doc, None) == compact_oracle(doc)


@pytest.mark.parametrize("bad", [1.5, [0, 2.0], {"a": {1: "b"}}, {"a", "b"}, ["a", {"x"}], [type("Label", (str,), {})("x")]])
def test_a_value_outside_the_certificate_types_raises(bad):
    for indent in ("", None):
        with pytest.raises(TypeError):
            _render(bad, indent)


def test_to_json_never_enters_the_pure_python_encoder(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    k8 = "[30/1," + ",".join(["-10/1"] * 8) + "]"
    assert main(["cone-check", "--model", "blowup_cp2(8)", "--class", k8, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["results"]["cone"]["curve_checks"]) == 240


# -- tables: lists of dicts with one key set ---------------------------------

_Label = type("Label", (str,), {})
_TABLE_KEYS = st.one_of(
    st.sampled_from(("curve", "value", "sign", "%", "%s", "%%", "100%d", "clé", "κ", "😀", "")),
    st.text(st.sampled_from('ab%é"\\\x00 😀'), max_size=4),
)
_TABLE_COLUMNS = {
    "int": st.integers() | st.sampled_from((0, -1, 2**70, -(2**64))),
    "bool": st.booleans(),
    "none": st.none(),
    "str": _STRINGS,
    "str lists": st.lists(_STRINGS, max_size=4),
    "leaf": _LEAVES,
    "nested": _DOCS,
}


@st.composite
def _tables(draw):
    """A list or tuple of dicts sharing one key set, which may be empty,
    each key's column drawn from one kind, each row with its own key order;
    sometimes held in a dict, as a certificate holds curve_checks."""
    keys = draw(st.lists(_TABLE_KEYS, max_size=5, unique=True))
    kinds = {k: draw(st.sampled_from(sorted(_TABLE_COLUMNS))) for k in keys}
    rows = []
    for _ in range(draw(st.integers(1, 7))):
        cells = [(k, draw(_TABLE_COLUMNS[kinds[k]])) for k in keys]
        rows.append(dict(draw(st.permutations(cells))))
    table = rows if draw(st.booleans()) else tuple(rows)
    return {"cone": {"curve_checks": table}} if draw(st.booleans()) else table


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_tables())
def test_json_dumps_is_the_oracle_for_drawn_tables(table):
    assert _indented(table) == oracle(table)
    assert _render(table, None) == compact_oracle(table)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(_tables(), st.data())
def test_a_str_subclass_in_a_table_column_raises(table, data):
    rows = table["cone"]["curve_checks"] if isinstance(table, dict) else table
    if not rows[0]:
        rows = [{"curve": "x"} for _ in rows]
        table = rows
    row = data.draw(st.sampled_from(rows))
    row[data.draw(st.sampled_from(sorted(row)))] = _Label("x")
    with pytest.raises(TypeError):
        _indented(table)


def test_a_table_with_one_odd_row_renders_item_by_item():
    for rows in (
        [{"a": 1, "b": "x"}, {"a": 2, "c": "y"}, {"b": "z", "a": 3}],
        [{"a": 1}, {"a": 2, "b": "y"}, {"a": 3}],  # one row with a key more
        [{"a": 1, "b": "x"}, {"a": 2}],  # one with a key less
    ):
        assert _indented(rows) == oracle(rows)
        assert _render(rows, None) == compact_oracle(rows)
    assert _indented([{}, {}, {}]) == oracle([{}, {}, {}]) == "[\n  {},\n  {},\n  {}\n]"
