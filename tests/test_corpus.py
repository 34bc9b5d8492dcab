"""Tests for corpus parsing, normalization, replacement, and serialization."""

from __future__ import annotations

import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from relcnn import corpus
from relcnn.corpus import (
    AnnotationError,
    Concept,
    RelationInstance,
    corpus_stats,
    document_instances,
    generate_negatives,
    instance_from_dict,
    instance_to_dict,
    parse_document,
    read_instances,
    replace_concepts,
    write_instances,
)
from relcnn.relations import CATEGORY_OF, Category, ConceptType, RelationType

from conftest import RAW_DOCS, build_instance, tokenize_normalize, write_instances_reference

# ---------------------------------------------------------------------------
# Tokenization / normalization
# ---------------------------------------------------------------------------

# Hand-worked fixtures: raw string -> token list under the published rules
# (lowercase, punctuation split off, digit runs collapsed to "0").
NORMALIZATION_FIXTURES = [
    ("She was treated.", ["she", "was", "treated", "."]),
    ("WBC 4.5, Hct 33.", ["wbc", "0.0", ",", "hct", "0", "."]),
    ("The dose was 125 mg/day.", ["the", "dose", "was", "0", "mg/day", "."]),
    ("x-ray #2 (repeat)", ["x-ray", "#", "0", "(", "repeat", ")"]),
    ("LVEF of 42%", ["lvef", "of", "0", "%"]),
    ("pt's temp 98.6F", ["pt's", "temp", "0.0f"]),
    ("q.d., p.r.n.", ["q.d", ".", ",", "p.r.n", "."]),
    ("CT-scan was negative", ["ct-scan", "was", "negative"]),
    ("10/21/93 admission", ["0/0/0", "admission"]),
    ("dose: 5 , then 10", ["dose", ":", "0", ",", "then", "0"]),
    ("he said \"stop\" loudly", ["he", "said", '"', "stop", '"', "loudly"]),
    ("3rd hospital day", ["0rd", "hospital", "day"]),
    ("s/p CABG x 4", ["s/p", "cabg", "x", "0"]),
    ("[**2563-6-12**]", ["[", "*", "*", "0-0-0", "*", "*", "]"]),
    ("b.i.d.", ["b.i.d", "."]),
    ("K+ was 4.0", ["k", "+", "was", "0.0"]),
    ("Na: 140, K: 4.0", ["na", ":", "0", ",", "k", ":", "0.0"]),
    ("  leading   spaces  ", ["leading", "spaces"]),
    ("", []),
    ("anti-inflammatory meds;", ["anti-inflammatory", "meds", ";"]),
]


@pytest.mark.parametrize("raw,expected", NORMALIZATION_FIXTURES)
def test_normalization_fixtures(raw, expected):
    assert tokenize_normalize(raw) == expected


@given(st.text(alphabet=st.characters(codec="ascii"), max_size=60))
def test_tokens_are_lowercase_nonempty_digitfree(raw):
    for tok in tokenize_normalize(raw):
        assert tok, "empty token emitted"
        assert tok == tok.lower()
        assert not any(ch.isspace() for ch in tok)
        # digit runs collapse: no token may contain two adjacent digits
        assert "00" not in "".join(ch if ch.isdigit() else " " for ch in tok).replace(" ", "#")


@given(st.lists(st.sampled_from(["Fever", "102.4", "x-ray", ",", "(", "mg/day"]), max_size=8))
def test_tokenization_is_whitespace_stable(words):
    raw = " ".join(words)
    assert tokenize_normalize(raw) == tokenize_normalize("  " + raw.replace(" ", "   ") + " ")


# ---------------------------------------------------------------------------
# Document parsing
# ---------------------------------------------------------------------------


def _parse_fixture(doc_id: str = "record-01"):
    parts = RAW_DOCS[doc_id]
    return parse_document(doc_id, parts["txt"], parts["con"], parts["rel"],
                          f"{doc_id}.con", f"{doc_id}.rel")


def test_parse_document_golden():
    doc = _parse_fixture()
    assert [len(s) for s in doc.sentences[:3]] == [18, 11, 12]
    assert doc.sentences[0][:5] == ["she", "was", "treated", "with", "steroids"]
    golds = [(i.sent_index, i.gold) for i in doc.positives]
    assert golds == [(1, RelationType.TRIP), (2, RelationType.TERP)]
    inst = doc.positives[0]
    c1, c2 = inst.concept1, inst.concept2
    assert inst.tokens[c1.start - 1 : c1.end] == ["steroids"]
    assert inst.tokens[c2.start - 1 : c2.end] == ["this", "swelling"]
    assert inst.concept1.ctype is ConceptType.TREATMENT
    assert inst.concept2.ctype is ConceptType.PROBLEM


def test_document_instances_appends_negatives():
    doc = _parse_fixture()
    insts = document_instances(doc)
    golds = [i.gold for i in insts]
    # sentence 3 has two unannotated test/problem pairs -> two NTeP negatives
    assert golds == [RelationType.TRIP, RelationType.TERP,
                     RelationType.NTEP, RelationType.NTEP]
    for neg in insts[2:]:
        assert neg.sent_index == 3
        assert {neg.concept1.ctype, neg.concept2.ctype} == {ConceptType.TEST,
                                                            ConceptType.PROBLEM}


def test_generate_negatives_skips_incompatible_pairs():
    # test+test and test+treatment pairs have no category -> no instance
    text = "MRI and EKG after surgery .\n"
    con = ('c="mri" 1:0 1:0||t="test"\n'
           'c="ekg" 1:2 1:2||t="test"\n'
           'c="surgery" 1:4 1:4||t="treatment"\n')
    doc = parse_document("d", text, con, "", "d.con", "d.rel")
    assert generate_negatives(doc) == []


def test_parse_errors():
    parts = RAW_DOCS["record-01"]

    with pytest.raises(AnnotationError, match="unknown concept type"):
        parse_document("d", parts["txt"], parts["con"].replace('t="test"', 't="gadget"'),
                       "", "f.con", "f.rel")
    with pytest.raises(AnnotationError, match="out of range"):
        parse_document("d", parts["txt"], 'c="x" 1:40 1:41||t="test"\n', "", "f.con", "f.rel")
    with pytest.raises(AnnotationError, match="malformed"):
        parse_document("d", parts["txt"], "not an annotation\n", "", "f.con", "f.rel")
    with pytest.raises(AnnotationError, match="unannotated concept"):
        parse_document("d", parts["txt"], parts["con"],
                       'c="steroids" 1:4 1:4||r="TrIP"||c="hospital" 1:11 1:11\n',
                       "f.con", "f.rel")
    with pytest.raises(AnnotationError, match="conflicting"):
        parse_document("d", parts["txt"], parts["con"],
                       parts["rel"] + 'c="steroids" 1:4 1:4||r="TrAP"||c="this swelling" 1:6 1:7\n',
                       "f.con", "f.rel")
    with pytest.raises(AnnotationError, match="does not fit category"):
        parse_document("d", parts["txt"], parts["con"],
                       'c="steroids" 1:4 1:4||r="TeRP"||c="this swelling" 1:6 1:7\n',
                       "f.con", "f.rel")
    # relations across sentences reference a span that line cannot hold
    with pytest.raises(AnnotationError):
        parse_document("d", parts["txt"], parts["con"],
                       'c="steroids" 1:4 1:4||r="TrIP"||c="x" 2:4 2:6\n', "f.con", "f.rel")
    with pytest.raises(AnnotationError, match=r"^f\.rel:1: concept spans a line boundary"):
        parse_document("d", parts["txt"], parts["con"],
                       'c="steroids" 1:4 2:4||r="TrAP"||c="this swelling" 1:6 1:7\n',
                       "f.con", "f.rel")


def test_duplicate_identical_relation_is_deduped():
    parts = RAW_DOCS["record-01"]
    doc = parse_document("d", parts["txt"], parts["con"], parts["rel"] + parts["rel"],
                         "f.con", "f.rel")
    assert len(doc.positives) == 2


# ---------------------------------------------------------------------------
# Concept replacement
# ---------------------------------------------------------------------------


def test_replacement_of_multiword_concepts():
    doc = _parse_fixture()
    rep = replace_concepts(doc.positives[0])
    assert rep.tokens[:8] == ["she", "was", "treated", "with", "__treatment__",
                              "for", "__problem__", "at"]
    assert (rep.p1, rep.p2) == (5, 7)  # 1-based placeholder positions
    assert len(rep.tokens) == 17       # 18 tokens - (1-1) - (2-1)


@given(st.integers(0, 10 ** 6), st.sampled_from(list(RelationType)))
def test_replacement_geometry(seed, gold):
    inst = build_instance(np.random.default_rng(seed), gold)
    rep = replace_concepts(inst)
    l1 = inst.concept1.length
    l2 = inst.concept2.length
    assert len(rep.tokens) == len(inst.tokens) - (l1 - 1) - (l2 - 1)
    assert rep.p1 == inst.concept1.start          # spans are 1-based
    assert rep.p2 == inst.concept2.start - (l1 - 1)
    assert rep.tokens[rep.p1 - 1] == corpus.PLACEHOLDER[inst.concept1.ctype]
    assert rep.tokens[rep.p2 - 1] == corpus.PLACEHOLDER[inst.concept2.ctype]
    assert rep.p1 < rep.p2
    # context words survive unchanged around the placeholders
    assert rep.tokens[: rep.p1 - 1] == inst.tokens[: inst.concept1.start - 1]
    assert rep.original is inst


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def test_corpus_stats_hand_computed():
    rng = np.random.default_rng(0)
    insts = [
        build_instance(rng, RelationType.TRIP),
        build_instance(rng, RelationType.TRIP),
        build_instance(rng, RelationType.NPP),
    ]
    stats = corpus_stats(insts)
    assert stats.n_instances == 3
    assert stats.relation_counts[RelationType.TRIP] == 2
    assert stats.relation_counts[RelationType.NPP] == 1
    lengths = [i.concept1.length for i in insts] + [i.concept2.length for i in insts]
    assert stats.mean_concept_tokens_all == pytest.approx(sum(lengths) / len(lengths))
    assert sum(stats.concept_length_hist.values()) == 6
    # Tokens strictly between the pair, counted by hand from the three sentences:
    # "tok36"; "tok22 tok1 tok30"; "tok0".
    assert [inst.tokens[inst.concept1.end : inst.concept2.start - 1] for inst in insts] == [
        ["tok36"], ["tok22", "tok1", "tok30"], ["tok0"]
    ]
    assert stats.distance_hist == {"NPP": {1: 1}, "TrIP": {1: 1, 3: 1}}
    d = stats.to_dict()
    assert d["n_instances"] == 3
    assert json.dumps(d)  # JSON-serializable


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


@given(st.integers(0, 10 ** 6), st.sampled_from(list(RelationType)))
def test_instance_dict_round_trip(seed, gold):
    inst = build_instance(np.random.default_rng(seed), gold)
    assert instance_from_dict(instance_to_dict(inst)) == inst


def test_write_read_instances_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    insts = [build_instance(rng, g) for g in RelationType]
    path = tmp_path / "insts.jsonl"
    write_instances(path, insts)
    assert read_instances(path) == insts
    # one JSON object per line
    lines = path.read_text().splitlines()
    assert len(lines) == len(insts)
    assert all(json.loads(line) for line in lines)


def test_write_instances_matches_the_reference_writer(tmp_path):
    """One encoder per file writes the bytes of one `json.dumps` per line, also
    for tokens outside ASCII, quotes, backslashes and line separators."""
    rng = np.random.default_rng(11)
    words = ["café", "β-blocker", "日本語", "\U0001f489", 'say"x"', "a\\b", "\u2028", "naïve"]
    insts = []
    for i, gold in enumerate(RelationType):
        inst = build_instance(rng, gold)
        tokens = [words[(i + j) % len(words)] for j in range(len(inst.tokens))]
        insts.append(dataclasses.replace(inst, tokens=tokens, doc_id=f"doc-é{i}"))
    got, want = tmp_path / "got.jsonl", tmp_path / "want.jsonl"
    write_instances(got, insts)
    write_instances_reference(want, insts)
    assert got.read_bytes() == want.read_bytes()
    assert "日本語".encode() in got.read_bytes()
    assert read_instances(got) == insts


def test_read_instances_rejects_malformed(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"not": "an instance"}\n')
    with pytest.raises((KeyError, ValueError, AnnotationError)):
        read_instances(path)


_GOOD_RECORD = {"doc": "d", "sent": 1, "tokens": ["a", "x", "b", "y"],
                "c1": {"start": 2, "end": 2, "type": "test"},
                "c2": {"start": 4, "end": 4, "type": "problem"}, "label": "TeRP"}


@pytest.mark.parametrize("record", [
    [1, 2],
    5,
    "tokens",
    None,
    {**_GOOD_RECORD, "tokens": 5},
    {**_GOOD_RECORD, "tokens": "a x b y"},
    {**_GOOD_RECORD, "tokens": ["a", 1, "b", "y"]},
    {**_GOOD_RECORD, "c1": [2, 2]},
    {**_GOOD_RECORD, "c2": {"start": None, "end": 4, "type": "problem"}},
    {**_GOOD_RECORD, "c2": {"start": 4.0, "end": 4, "type": "problem"}},
    {**_GOOD_RECORD, "c1": {"start": 2, "end": 2.7, "type": "test"}},
    {**_GOOD_RECORD, "c1": {"start": True, "end": 2, "type": "test"}},
    {**_GOOD_RECORD, "doc": 7},
    {**_GOOD_RECORD, "sent": 1.5},
    {**_GOOD_RECORD, "sent": "1"},
    {**_GOOD_RECORD, "sent": False},
], ids=["list", "int", "string", "null", "tokens-int", "tokens-string",
        "tokens-non-string-item", "concept-list", "start-null", "start-float",
        "end-float", "start-bool", "doc-int", "sent-float", "sent-string", "sent-bool"])
def test_read_instances_wrong_shape_names_file_and_line(tmp_path, record):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(_GOOD_RECORD) + "\n\n" + json.dumps(record) + "\n")
    with pytest.raises(AnnotationError, match=f"^{re.escape(str(path))}:3: bad instance record"):
        read_instances(path)


def test_concept_validation():
    with pytest.raises(ValueError):
        Concept(start=0, end=0, ctype=ConceptType.TEST).validate()
    Concept(start=1, end=1, ctype=ConceptType.TEST).validate()


def test_concept_is_frozen():
    concept = Concept(start=1, end=2, ctype=ConceptType.TEST)
    with pytest.raises(dataclasses.FrozenInstanceError):
        concept.end = 3
    assert concept == Concept(start=1, end=2, ctype=ConceptType.TEST)


def test_instance_validation_rejects_overlap():
    toks = ["a", "b", "c", "d"]
    c1 = Concept(start=2, end=3, ctype=ConceptType.TEST)
    c2 = Concept(start=3, end=4, ctype=ConceptType.PROBLEM)
    with pytest.raises(ValueError):
        RelationInstance(tokens=toks, concept1=c1, concept2=c2,
                         gold=RelationType.TERP).validate()


def test_instance_validates_when_built_and_replaced():
    toks = ["a", "b", "c", "d"]
    inst = RelationInstance(
        tokens=toks, gold=RelationType.TERP,
        concept1=Concept(start=2, end=3, ctype=ConceptType.TEST),
        concept2=Concept(start=4, end=4, ctype=ConceptType.PROBLEM),
    )
    overlapping = Concept(start=3, end=4, ctype=ConceptType.PROBLEM)
    with pytest.raises(ValueError, match="concept spans overlap"):
        dataclasses.replace(inst, concept2=overlapping)
    with pytest.raises(ValueError, match="does not fit category"):
        dataclasses.replace(inst, gold=RelationType.TRIP)
    with pytest.raises(ValueError, match="bad concept span"):
        dataclasses.replace(inst.concept1, start=4)


def test_instance_key_orders_corpora():
    doc = _parse_fixture()
    insts = document_instances(doc)
    keys = [inst.key for inst in insts]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    first = insts[0]
    c1, c2 = first.concept1, first.concept2
    assert first.key == (first.doc_id, first.sent_index, c1.start, c1.end, c2.start, c2.end)


# Malformed instance records.  Every one must end in an AnnotationError that
# names the file and line, whatever part of the record is wrong.
_WRONG_TYPED = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=3), st.lists(st.integers(0, 5), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
# _GOOD_RECORD's (test, problem) pair is a TeP pair; only these labels fit it.
_TEP_LABELS = {t.value for t in RelationType if CATEGORY_OF[t] is Category.TEP}


def _non_object():
    return st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=5),
                     st.lists(st.integers(), max_size=3))


def _missing_key():
    paths = [("tokens",), ("c1",), ("c2",), ("label",)]
    paths += [(c, key) for c in ("c1", "c2") for key in ("start", "end", "type")]
    return st.sampled_from(paths).map(lambda path: _edit(path, delete=True))


def _wrong_type():
    path = st.sampled_from([("sent",), ("doc",), ("tokens",), ("c1", "start"), ("c1", "end"),
                            ("c2", "start"), ("c2", "end"), ("c1",), ("c2",)])
    cases = st.tuples(path, _WRONG_TYPED).filter(
        lambda case: not (case[0] == ("doc",) and isinstance(case[1], str)))
    return cases.map(lambda case: _edit(*case))


def _bad_span():
    spans = st.tuples(*[st.integers(-2, 6)] * 4)

    def record(s):
        s1, e1, s2, e2 = s
        return {**_GOOD_RECORD, "c1": {**_GOOD_RECORD["c1"], "start": s1, "end": e1},
                "c2": {**_GOOD_RECORD["c2"], "start": s2, "end": e2}}

    def invalid(s):
        s1, e1, s2, e2 = s
        return not 1 <= s1 <= e1 < s2 <= e2 <= len(_GOOD_RECORD["tokens"])

    return spans.filter(invalid).map(record)


def _bad_name():
    ctype = st.one_of(st.sampled_from([t.value for t in ConceptType]), st.text(max_size=4))
    label = st.one_of(st.sampled_from([t.value for t in RelationType]), st.text(max_size=4))
    cases = st.one_of(
        st.tuples(st.sampled_from([("c1", "type"), ("c2", "type")]), ctype),
        st.tuples(st.just(("label",)), label.filter(lambda value: value not in _TEP_LABELS)),
    )
    return cases.filter(lambda case: case[1] != _at(case[0])).map(lambda case: _edit(*case))


def _at(path):
    value = _GOOD_RECORD
    for key in path:
        value = value[key]
    return value


def _edit(path, value=None, delete=False):
    record = json.loads(json.dumps(_GOOD_RECORD))
    *parents, name = path
    target = record
    for key in parents:
        target = target[key]
    if delete:
        del target[name]
    else:
        target[name] = value
    return record


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(record=st.one_of(_non_object(), _missing_key(), _wrong_type(), _bad_span(), _bad_name()),
       blank_lines=st.integers(0, 2))
def test_read_instances_fuzz_names_file_and_line(tmp_path, record, blank_lines):
    path = tmp_path / "fuzz.jsonl"
    path.write_text(json.dumps(_GOOD_RECORD) + "\n" * (1 + blank_lines) + json.dumps(record) + "\n")
    with pytest.raises(AnnotationError, match=f"^{re.escape(str(path))}:{2 + blank_lines}: "):
        read_instances(path)
