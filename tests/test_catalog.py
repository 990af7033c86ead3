import contextlib
import hashlib
import json
import pickle
import random
import re
from dataclasses import fields
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cytforge import catalog
from cytforge.catalog import CatalogRecord, VerdictFlags, _flags, append_records, load_catalog
from cytforge.search import SearchQuery, search
from cytforge.surfaces import blowup_cp2, parse_class

# every kind of text the template must escape as json.dumps does: non-ASCII,
# quotes, backslashes, control characters, astral characters, lone
# surrogates and ℚ(√d) scale text
TEXTS = (
    "S³×S³",
    "1(S²×S⁴) # 2(S³×S³)",
    'a "quoted" label',
    "back\\slash \\u0041",
    "tab\tnew\nline\r\x00\x1f\x7f",
    "astral 𝕊³ 😀",
    "lone \udcff surrogate, \u2028 separator",
    "38-20*sqrt(3)",
    "ℚ(√7): 1/2+3/4*sqrt(7)",
    "",
)
FLAG_VALUES = (None, True, False, 1)


def random_record(rng):
    rank = rng.randint(2, 5)
    return CatalogRecord(
        model=rng.choice(("quadric", "blowup_cp2(2,general)") + TEXTS),
        omega1=tuple(rng.choice((rng.randint(-5, 5), rng.randint(-(2**70), 2**70))) for _ in range(rank)),
        omega2=tuple(rng.choice((rng.randint(-5, 5), rng.randint(-(2**70), 2**70))) for _ in range(rank)),
        kahler=tuple(rng.choice((f"{rng.randint(-9, 9)}/1",) + TEXTS) for _ in range(rank))
        if rng.random() < 0.5
        else None,
        flags=VerdictFlags(
            cyt=rng.choice(FLAG_VALUES),
            skt=rng.choice(FLAG_VALUES),
            balanced=rng.choice(FLAG_VALUES),
            spin=rng.choice(FLAG_VALUES),
            topology_label=rng.choice((None,) + TEXTS),
            cyt_route=rng.choice((None, "ray", "anticanonical_ray", "ansatz")),
            scale=rng.choice((None, "2/1", "1/2") + TEXTS),
        ),
        canonical_key=rng.choice((f"key{rng.randint(0, 10 ** 6)}",) + TEXTS),
    )


def reference_doc(rec):
    """The record body as a dict, the way json.dumps is handed it."""
    return {
        "model": rec.model,
        "omega1": list(rec.omega1),
        "omega2": list(rec.omega2),
        "kahler": list(rec.kahler) if rec.kahler is not None else None,
        "flags": {f.name: getattr(rec.flags, f.name) for f in fields(VerdictFlags)},
        "canonical_key": rec.canonical_key,
    }


def json_line(doc):
    """A catalog line written through json.dumps: the body plus its digest."""
    body = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return json.dumps({**doc, "digest": digest}, sort_keys=True, separators=(",", ":"))


def test_json_dumps_is_the_oracle_for_every_line():
    rng = random.Random(23)
    for _ in range(2000):
        rec = random_record(rng)
        doc = reference_doc(rec)
        line = rec.to_line()
        assert rec.body_text() == json.dumps(doc, sort_keys=True, separators=(",", ":"))
        assert line == json_line(doc)
        assert line.isascii()
        assert CatalogRecord.from_doc(json.loads(line)) == rec


def test_round_trip_hundred_records(tmp_path):
    rng = random.Random(4)
    records = [random_record(rng) for _ in range(100)]
    path = tmp_path / "catalog.jsonl"
    append_records(str(path), records)
    loaded, errors = load_catalog(str(path))
    assert errors == []
    assert [r.to_line() for r in loaded] == [r.to_line() for r in records]


def _digest(record: CatalogRecord) -> str:
    """The sha256 of the record's body, the digest its line carries."""
    return hashlib.sha256(record.body_text().encode("utf-8")).hexdigest()


def test_append_preserves_digests(tmp_path):
    rng = random.Random(8)
    first = [random_record(rng) for _ in range(10)]
    second = [random_record(rng) for _ in range(10)]
    path = tmp_path / "catalog.jsonl"
    append_records(str(path), first)
    digests_before = [_digest(r) for r in load_catalog(str(path))[0]]
    append_records(str(path), second)
    loaded, errors = load_catalog(str(path))
    assert errors == []
    assert [_digest(r) for r in loaded[:10]] == digests_before
    assert [r.to_line() for r in loaded] == [r.to_line() for r in first + second]
    assert len(loaded) == 20


def test_corrupt_line_reported_and_rest_loads(tmp_path):
    rng = random.Random(15)
    records = [random_record(rng) for _ in range(100)]
    path = tmp_path / "catalog.jsonl"
    append_records(str(path), records)
    lines = path.read_text().splitlines()
    lines[49] = '{"definitely": "not a record"'
    path.write_text("\n".join(lines) + "\n")
    loaded, errors = load_catalog(str(path))
    assert len(loaded) == 99
    assert len(errors) == 1
    assert errors[0].line_number == 50
    assert "50" in str(errors[0])


def test_digest_tamper_detected(tmp_path):
    rng = random.Random(16)
    for field in ("model", "canonical_key"):
        rec = random_record(rng)
        doc = json.loads(rec.to_line())
        doc[field] += " tampered"  # the stored digest is left as it was
        path = tmp_path / "catalog.jsonl"
        path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
        loaded, errors = load_catalog(str(path))
        assert (loaded, [e.line_number for e in errors]) == ([], [1]), field


def _good_doc():
    rec = CatalogRecord("quadric", (1, 1), (1, -1), ("1/2", "1/2"), VerdictFlags(cyt=True, skt=True), "1,1|1,-1")
    return reference_doc(rec)


def _with(path, value):
    """A json.dumps line of the good doc with one field replaced: its digest
    matches json's rendering, so only the field's type makes it corrupt."""
    doc = _good_doc()
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    return json_line(doc).encode()


MALFORMED = {
    "flags-a-list": _with(("flags",), []),
    "flags-an-int": _with(("flags",), 1),
    "invalid-utf8": json_line(_good_doc()).encode().replace(b'"quadric"', b'"quadr\xffic"'),
    "deep-nesting": b"[" * 100_000 + b"]" * 100_000,
    "list-flag-value": _with(("flags", "cyt"), [True]),
    "list-flag-value-without-digest": json.dumps({**_good_doc(), "flags": {"cyt": [True]}}).encode(),
    "float-flag-value": _with(("flags", "spin"), 1.5),
    "number-among-kahler": _with(("kahler", 0), 1),
    "object-as-model": _with(("model",), {"name": "quadric"}),
    # with no digest to compare, only the entry's type can make these corrupt
    "string-omega-without-digest": json.dumps({**_good_doc(), "omega1": ["1", 1]}).encode(),
    "float-omega-without-digest": json.dumps({**_good_doc(), "omega1": [1, 2.7]}).encode(),
    "bool-omega-without-digest": json.dumps({**_good_doc(), "omega2": [True, -1]}).encode(),
    "infinite-omega": json_line(_good_doc()).encode().replace(b'"omega1":[1,1]', b'"omega1":[1e400,1]'),
    "tampered-model": json_line(_good_doc()).encode().replace(b'"quadric"', b'"other"'),
}


@pytest.mark.parametrize("bad", list(MALFORMED.values()), ids=list(MALFORMED))
def test_a_malformed_line_is_one_corrupt_record(tmp_path, bad):
    good = CatalogRecord.from_doc(_good_doc())
    path = tmp_path / "catalog.jsonl"
    path.write_bytes(good.to_line().encode() + b"\n" + bad + b"\n" + good.to_line().encode() + b"\n")
    loaded, errors = load_catalog(str(path))
    assert [e.line_number for e in errors] == [2]
    assert loaded == [good, good]


# -- one shared VerdictFlags per distinct verdict ----------------------------


def test_interned_flags_keep_their_types():
    assert _flags(skt=True) is _flags(skt=True)
    assert _flags(skt=True) is not _flags(skt=1)
    assert _flags(None, False) is not _flags(None, 0)


@pytest.mark.parametrize("order", [(True, 1), (1, True)], ids=["true-first", "one-first"])
def test_true_and_one_lines_both_load_as_written(tmp_path, order):
    lines = []
    for skt in order:
        doc = _good_doc()
        doc["flags"]["skt"] = skt
        lines.append(json_line(doc))
    assert [f'"skt":{json.dumps(skt)}' in line for skt, line in zip(order, lines)] == [True, True]
    path = tmp_path / "catalog.jsonl"
    path.write_text("\n".join(lines) + "\n")
    _flags.cache_clear()  # the first line meets an empty cache
    loaded, errors = load_catalog(str(path))
    assert errors == []
    assert [r.to_line() for r in loaded] == lines


def test_records_share_one_flags_object_per_verdict(tmp_path):
    model = blowup_cp2(2)
    # records on both cyt routes, so two verdicts
    ray = parse_class(model, "4H-E1-2E2")
    q = SearchQuery(model=model, coeff_bound=3, filters=frozenset({"cyt", "topology"}), ray=ray)
    records, _ = search(q, threads=1)
    path = tmp_path / "catalog.jsonl"
    append_records(str(path), records)
    loaded, errors = load_catalog(str(path))
    assert errors == [] and len(loaded) == len(records)
    for recs in (records, loaded):
        verdicts = {r.flags for r in recs}
        assert 1 < len(verdicts) < len(recs)
        assert len({id(r.flags) for r in recs}) == len(verdicts)


# -- the template path against the json path ---------------------------------


@contextlib.contextmanager
def json_path_only():
    """load_catalog with a template that matches no line: every line takes
    json.loads and from_doc, the reader's oracle."""
    with mock.patch.object(catalog, "_LINE", re.compile(r"(?!)")):
        yield


@contextlib.contextmanager
def counted_from_doc():
    """The records from_doc built while the block ran, so a loaded record
    not among them came from the template path."""
    built = []
    from_doc = CatalogRecord.from_doc

    def counted(doc):
        built.append(from_doc(doc))
        return built[-1]

    with mock.patch.object(CatalogRecord, "from_doc", staticmethod(counted)):
        yield built


def _as_read(load):
    records, errors = load
    return records, [r.to_line() for r in records], [(e.line_number, str(e)) for e in errors]


def both_loads(path):
    """load_catalog and a json-only load, each as (records, their lines, the
    error line numbers and texts), and the records from_doc built in the first."""
    with counted_from_doc() as built:
        fast = load_catalog(str(path))
    with json_path_only():
        oracle = load_catalog(str(path))
    return _as_read(fast), _as_read(oracle), built


_LABELS = st.one_of(st.sampled_from(TEXTS), st.text(max_size=12))
_SCALAR_TEXTS = st.one_of(
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-99, 99), st.integers(1, 99)),
    st.builds(lambda a, b, d: f"{a}{b:+d}*sqrt({d})", st.integers(-99, 99), st.integers(-99, 99), st.integers(2, 13)),
    st.sampled_from(TEXTS),
)
_FLAGS = st.one_of(st.none(), st.booleans(), st.integers(-2, 2), _LABELS)
_OMEGAS = st.lists(st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70)), max_size=6).map(tuple)


@st.composite
def drawn_records(draw):
    omega1 = draw(_OMEGAS)
    return CatalogRecord(
        model=draw(st.one_of(st.sampled_from(("quadric", "blowup_cp2(3,general)")), _LABELS)),
        omega1=omega1,
        omega2=draw(_OMEGAS),
        kahler=draw(st.one_of(st.none(), st.lists(_SCALAR_TEXTS, max_size=5).map(tuple))),
        flags=_flags(*(draw(_FLAGS) for _ in range(4)), *(draw(st.one_of(st.none(), _LABELS)) for _ in range(3))),
        canonical_key=draw(st.one_of(st.just(",".join(map(str, omega1))), _LABELS)),
    )


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.lists(drawn_records(), min_size=1, max_size=8))
def test_the_template_reads_what_the_json_path_reads(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("catalog") / "catalog.jsonl"
    append_records(str(path), records)
    lines = path.read_text().splitlines()
    fast, oracle, built = both_loads(path)
    assert fast == oracle
    loaded, loaded_lines, errors = fast
    assert loaded == records and loaded_lines == lines and errors == []
    json_built = {id(rec) for rec in built}
    for line, rec in zip(lines, loaded):
        if id(rec) not in json_built:  # the template took the line
            assert rec.to_line() == line
            assert "\\" not in line.split('"digest"')[0]  # a key with an escape falls back


def _good_line():
    flags = VerdictFlags(cyt=True, skt=True, topology_label="1(S²×S⁴) # 2(S³×S³)")
    return CatalogRecord("quadric", (1, -1), (0, 1), ("1/2", "1/2"), flags, "1,-1|0,1").to_line()


def _respliced(line, *edits):
    """The good line with each (old, new) edit made, and its digest taken
    again over the edited text, so only the edit can make the line differ
    from what to_line writes."""
    head, rest = line.split(',"digest":"')
    body = head + rest[64 + 1 :]
    for old, new in edits:
        assert old in body, old
        body = body.replace(old, new, 1)
    head, key_end = body.split(',"flags":', 1)
    digest = hashlib.sha256(body.encode()).hexdigest()
    return f'{head},"digest":"{digest}","flags":{key_end}', body


def _near_canonical():
    good = _good_line()
    edits = {
        "minus-zero-omega": ('"omega2":[0,1]', '"omega2":[-0,1]'),
        "leading-zero-omega": ('"omega2":[0,1]', '"omega2":[01,1]'),
        "float-omega": ('"omega1":[1,-1]', '"omega1":[1.0,-1]'),
        "plus-omega": ('"omega2":[0,1]', '"omega2":[0,+1]'),
        "one-for-true": ('"skt":true', '"skt":1'),
        "extra-flag": ('"spin":null', '"spin":null,"extra":null'),
        "space-after-colon": ('"model":"quadric"', '"model": "quadric"'),
        "swapped-keys": ('"kahler":["1/2","1/2"],"model":"quadric"', '"model":"quadric","kahler":["1/2","1/2"]'),
        "escaped-a-in-model": ('"model":"quadric"', '"model":"\\u0041quadric"'),
        "escaped-a-in-key": ('"canonical_key":"1', '"canonical_key":"\\u0041'),
        "unescaped-label": ("\\u00b2", "²"),
        "uppercase-escape": ("\\u00b2", "\\u00B2"),
    }
    corpus = {"good": good, "no-digest": _respliced(good)[1]}
    for name, edit in edits.items():
        corpus[name], corpus[f"{name}-no-digest"] = _respliced(good, edit)
    head, rest = good.split(',"digest":"')
    corpus["uppercase-digest"] = f'{head},"digest":"{rest[:64].upper()}{rest[64:]}'
    corpus["wrong-digest"] = f'{head},"digest":"{"0" * 64}{rest[64:]}'
    corpus["trailing-space"] = good + "  "
    return {name: line.encode() for name, line in corpus.items()}


NEAR_CANONICAL = _near_canonical()


@pytest.mark.parametrize("line", list(NEAR_CANONICAL.values()), ids=list(NEAR_CANONICAL))
def test_a_near_canonical_line_reads_as_the_json_path_reads_it(tmp_path, line):
    path = tmp_path / "catalog.jsonl"
    good = _good_line().encode()
    path.write_bytes(good + b"\n" + line + b"\n" + good + b"\n")
    fast, oracle, built = both_loads(path)
    assert fast == oracle
    records, _, errors = fast
    assert len(records) + len(errors) == 3
    # the template takes the good lines, and the middle one only when it is
    # what to_line writes for the record it spells ("skt":1 with its digest is)
    canonical = len(records) == 3 and records[1].to_line().encode() == line.strip()
    assert len(built) == (0 if canonical else len(records) - 2)


@pytest.mark.parametrize(
    "filters,k,bound,digest",
    [
        ({"skt"}, 3, 3, "e53631831716964d7f2c9535f31d12ff9617a4eddb33b8ee56e64aff364c6364"),
        ({"cyt", "topology", "spin"}, 5, 3, "fe9b3a4c3398f4c7787ebd34aca1b8ee9eb5d02fb16ec21b39b9feca5a643e11"),
    ],
    ids=["skt", "escaped-labels"],
)
def test_every_line_of_a_frozen_catalog_takes_the_template_path(tmp_path, filters, k, bound, digest):
    records, _ = search(SearchQuery(model=blowup_cp2(k), coeff_bound=bound, filters=frozenset(filters)), threads=1)
    path = tmp_path / "catalog.jsonl"
    append_records(str(path), records)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    with counted_from_doc() as built:
        loaded, errors = load_catalog(str(path))
    assert (built, errors) == ([], [])
    assert loaded == records and [r.to_line() for r in loaded] == [r.to_line() for r in records]
    # the load shares each omega tuple and verdict among its records
    assert len({id(r.omega1) for r in loaded}) == len({r.omega1 for r in loaded})
    assert len({id(r.flags) for r in loaded}) == len({r.flags for r in loaded})


def test_the_flags_text_stays_out_of_equality_hashing_and_pickles():
    fresh, rendered = VerdictFlags(skt=True), VerdictFlags(skt=True)
    blank = pickle.dumps(fresh)
    assert rendered.text == '{"balanced":null,"cyt":null,"cyt_route":null,"scale":null,"skt":true,"spin":null,"topology_label":null}'
    assert "text" in vars(rendered) and "text" not in vars(fresh)
    assert rendered == fresh and hash(rendered) == hash(fresh)
    assert pickle.dumps(rendered) == blank
    assert "text" not in vars(pickle.loads(pickle.dumps(rendered)))
