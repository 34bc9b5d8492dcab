"""Corpus ingestion: annotation parsing, tokenization, placeholder replacement.

Input records follow the classic clinical-annotation layout: one text file
per record with one sentence per line and space-separated tokens, plus a
concept file and a relation file referencing token spans as
``<line>:<token>`` pairs (lines 1-based, token offsets 0-based within the
line).  Concept files carry ``c="<text>" <start> <end>||t="<type>"`` lines;
relation files carry ``c="<text>" <start> <end>||r="<TYPE>"||c="..." ...``.

Tokenization is a pinned rule set rather than an external toolkit so runs
reproduce exactly:

* split on whitespace,
* detach leading/trailing non-alphanumeric characters one per token
  (underscore counts as punctuation, which keeps the ``__problem__`` style
  placeholder tokens out of reach of any corpus word),
* keep internal punctuation (hyphens, periods) attached,
* lowercase,
* replace every maximal digit run with a single ``0``.

Concept spans given over the raw whitespace tokens are realigned to the
normalized token sequence.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field, asdict
from itertools import combinations, repeat
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

from .relations import (
    CATEGORY_OF,
    Category,
    ConceptType,
    NEGATIVE_OF_CATEGORY,
    RelationType,
    by_value,
    category_for_pair,
)

PLACEHOLDER: dict[ConceptType, str] = {
    ConceptType.PROBLEM: "__problem__",
    ConceptType.TREATMENT: "__treatment__",
    ConceptType.TEST: "__test__",
}


class AnnotationError(ValueError):
    """Malformed or inconsistent annotation input; message names file:line."""


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Concept:
    """An annotated span of its sentence: `start`/`end` are 1-based inclusive
    token positions.  Its words are ``inst.tokens[c.start - 1 : c.end]``.

    A concept validates itself when built: a reversed span or a start below 1
    raises ValueError.  It is frozen, so instances may share it.
    """

    start: int
    end: int
    ctype: ConceptType

    def __post_init__(self) -> None:
        self.validate()

    @property
    def length(self) -> int:
        return self.end - self.start + 1

    def validate(self) -> None:
        if self.start < 1 or self.start > self.end:
            raise ValueError(f"bad concept span [{self.start}, {self.end}]")


@dataclass
class RelationInstance:
    """One sentence with two marked concepts and a gold relation type.

    Each concept is a span of `tokens`, whose slice holds its words.  An
    instance validates itself when built, and so does ``dataclasses.replace``:
    each concept must lie inside the sentence, concept1 must end before
    concept2 starts, and the gold label must fit the category of the
    concept-type pair.  The concepts are not re-checked, since each checked
    itself when it was built.
    """

    tokens: list[str]
    concept1: Concept
    concept2: Concept
    gold: RelationType
    doc_id: str = ""
    sent_index: int = 0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        n = len(self.tokens)
        for c in (self.concept1, self.concept2):
            if c.end > n:
                raise ValueError(f"concept span [{c.start}, {c.end}] outside sentence of {n} tokens")
        if self.concept1.start >= self.concept2.start:
            raise ValueError("concept1 must start before concept2")
        if self.concept1.end >= self.concept2.start:
            raise ValueError("concept spans overlap")
        cat = category_for_pair(self.concept1.ctype, self.concept2.ctype)
        if cat is None:
            raise ValueError(
                f"concept type pair ({self.concept1.ctype.value}, {self.concept2.ctype.value}) "
                "belongs to no relation category"
            )
        if CATEGORY_OF[self.gold] is not cat:
            raise ValueError(f"label {self.gold.value} does not fit category {cat.value}")

    @property
    def key(self) -> tuple[str, int, int, int, int, int]:
        """Which pair this is: (doc_id, sent_index, c1.start, c1.end, c2.start,
        c2.end).  Corpora are ordered by it, and no two instances of one
        corpus share it."""
        c1, c2 = self.concept1, self.concept2
        return (self.doc_id, self.sent_index, c1.start, c1.end, c2.start, c2.end)

    @property
    def category(self) -> Category:
        cat = category_for_pair(self.concept1.ctype, self.concept2.ctype)
        assert cat is not None
        return cat


@dataclass
class ReplacedInstance:
    """Instance with both concept spans collapsed to single placeholder tokens.

    `p1`/`p2` are the 1-based positions of the two placeholders.  The
    original instance stays attached because the model still reads the
    concepts' words, slices of its sentence, as features.
    """

    tokens: list[str]
    p1: int
    p2: int
    original: RelationInstance


@dataclass
class ParsedDocument:
    doc_id: str
    sentences: list[list[str]]
    concepts: list[list[Concept]]  # per sentence, ordered by (start, end)
    positives: list[RelationInstance]


# ---------------------------------------------------------------------------
# Tokenization
# ---------------------------------------------------------------------------

_DIGIT_RUN = re.compile(r"\d+")


def _normalize_word(word: str) -> str:
    return _DIGIT_RUN.sub("0", word.lower())


def split_raw_token(raw: str) -> list[str]:
    """Normalized pieces of one whitespace-separated raw token (never empty)."""
    left: list[str] = []
    right: list[str] = []
    core = raw
    while core and not core[0].isalnum():
        left.append(core[0])
        core = core[1:]
    while core and not core[-1].isalnum():
        right.append(core[-1])
        core = core[:-1]
    pieces = left
    if core:
        pieces = left + [_normalize_word(core)]
    return pieces + right[::-1]


def tokenize_with_alignment(raw_tokens: Sequence[str]) -> tuple[list[str], list[tuple[int, int]]]:
    """Normalize raw tokens; also map each raw index to its 1-based piece span."""
    tokens: list[str] = []
    spans: list[tuple[int, int]] = []
    for raw in raw_tokens:
        pieces = split_raw_token(raw)
        start = len(tokens) + 1
        tokens.extend(pieces)
        spans.append((start, len(tokens)))
    return tokens, spans


# ---------------------------------------------------------------------------
# Annotation parsing
# ---------------------------------------------------------------------------

_OFFSET = r"(\d+):(\d+)"
_CONCEPT_LINE = re.compile(rf'^c="(.*)" {_OFFSET} {_OFFSET}\|\|t="(.*)"\s*$')
_RELATION_LINE = re.compile(
    rf'^c="(.*?)" {_OFFSET} {_OFFSET}\|\|r="(.*?)"\|\|c="(.*?)" {_OFFSET} {_OFFSET}\s*$'
)

_CTYPE_NAMES = {t.value: t for t in ConceptType}
_RELATION_NAMES = {t.value: t for t in RelationType}


def _err(source: str, lineno: int, message: str) -> AnnotationError:
    return AnnotationError(f"{source}:{lineno}: {message}")


def _resolve_span(
    source: str,
    lineno: int,
    sentences: list[list[str]],
    raw_spans: list[list[tuple[int, int]]],
    sl: int,
    st: int,
    el: int,
    et: int,
) -> tuple[int, int, int]:
    """Map a raw (line, token)..(line, token) reference to (line, start, end)."""
    if sl != el:
        raise _err(source, lineno, f"concept spans a line boundary ({sl} to {el})")
    if not 1 <= sl <= len(sentences):
        raise _err(source, lineno, f"line {sl} out of range (document has {len(sentences)} lines)")
    spans = raw_spans[sl - 1]
    if not (0 <= st < len(spans) and 0 <= et < len(spans)) or st > et:
        raise _err(
            source, lineno, f"token span {st}..{et} out of range (line {sl} has {len(spans)} tokens)"
        )
    return sl, spans[st][0], spans[et][1]


def parse_document(
    doc_id: str,
    text: str,
    concept_text: str,
    relation_text: str,
    concept_source: str = "<concepts>",
    relation_source: str = "<relations>",
) -> ParsedDocument:
    """Parse one record (text + concept annotations + relation annotations).

    Returns normalized sentences, per-sentence concept lists, and one
    RelationInstance per annotated relation.  Any malformed line, span out
    of range, unknown label, or label/category mismatch is a hard error
    naming the offending file and line.
    """
    raw_lines = text.split("\n")
    sentences: list[list[str]] = []
    raw_spans: list[list[tuple[int, int]]] = []
    for line in raw_lines:
        toks, spans = tokenize_with_alignment(line.split())
        sentences.append(toks)
        raw_spans.append(spans)

    concepts: list[list[Concept]] = [[] for _ in sentences]
    by_raw_ref: dict[tuple[int, int, int], Concept] = {}
    for lineno, line in enumerate(concept_text.split("\n"), start=1):
        if not line.strip():
            continue
        m = _CONCEPT_LINE.match(line)
        if m is None:
            raise _err(concept_source, lineno, f"malformed concept line: {line!r}")
        _text, sl, st, el, et, tname = m.groups()
        if tname not in _CTYPE_NAMES:
            raise _err(concept_source, lineno, f"unknown concept type {tname!r}")
        sent, start, end = _resolve_span(
            concept_source, lineno, sentences, raw_spans, int(sl), int(st), int(el), int(et)
        )
        concept = Concept(start=start, end=end, ctype=_CTYPE_NAMES[tname])
        key = (int(sl), int(st), int(et))
        if key in by_raw_ref:
            if by_raw_ref[key].ctype is not concept.ctype:
                raise _err(concept_source, lineno, f"conflicting type for concept at {key}")
            continue
        by_raw_ref[key] = concept
        concepts[sent - 1].append(concept)
    for lst in concepts:
        lst.sort(key=lambda c: (c.start, c.end))

    positives: list[RelationInstance] = []
    seen_pairs: dict[tuple, RelationType] = {}
    for lineno, line in enumerate(relation_text.split("\n"), start=1):
        if not line.strip():
            continue
        m = _RELATION_LINE.match(line)
        if m is None:
            raise _err(relation_source, lineno, f"malformed relation line: {line!r}")
        (_t1, sl1, st1, el1, et1, rel, _t2, sl2, st2, el2, et2) = m.groups()
        if rel not in _RELATION_NAMES:
            raise _err(relation_source, lineno, f"unknown relation label {rel!r}")
        ref1 = (int(sl1), int(st1), int(et1))
        ref2 = (int(sl2), int(st2), int(et2))
        for (sl, st, et), el in ((ref1, el1), (ref2, el2)):
            _resolve_span(relation_source, lineno, sentences, raw_spans, sl, st, int(el), et)
        for ref in (ref1, ref2):
            if ref not in by_raw_ref:
                raise _err(relation_source, lineno, f"relation references unannotated concept at {ref}")
        if ref1[0] != ref2[0]:
            raise _err(relation_source, lineno, "relation crosses a sentence boundary")
        sent = ref1[0]
        c1, c2 = by_raw_ref[ref1], by_raw_ref[ref2]
        if c1.start > c2.start:
            c1, c2 = c2, c1
        try:
            inst = RelationInstance(
                tokens=sentences[sent - 1],
                concept1=c1,
                concept2=c2,
                gold=_RELATION_NAMES[rel],
                doc_id=doc_id,
                sent_index=sent,
            )
        except ValueError as exc:
            raise _err(relation_source, lineno, str(exc)) from exc
        if inst.key in seen_pairs:
            if seen_pairs[inst.key] is not inst.gold:
                raise _err(relation_source, lineno, f"conflicting labels for pair at line {sent}")
            continue
        seen_pairs[inst.key] = inst.gold
        positives.append(inst)

    positives.sort(key=attrgetter("key"))
    return ParsedDocument(doc_id, sentences, concepts, positives)


# ---------------------------------------------------------------------------
# Placeholder replacement and negative sampling
# ---------------------------------------------------------------------------


def replace_concepts(inst: RelationInstance) -> ReplacedInstance:
    """Collapse the two concept spans to single placeholder tokens.

    Other concepts in the sentence stay verbatim; only the pair under
    classification is replaced.  The new length is
    n - (l1 - 1) - (l2 - 1) and p1 < p2 always holds.
    """
    c1, c2 = inst.concept1, inst.concept2
    tokens = (
        inst.tokens[: c1.start - 1]
        + [PLACEHOLDER[c1.ctype]]
        + inst.tokens[c1.end : c2.start - 1]
        + [PLACEHOLDER[c2.ctype]]
        + inst.tokens[c2.end :]
    )
    p1 = c1.start
    p2 = c2.start - (c1.length - 1)
    return ReplacedInstance(tokens=tokens, p1=p1, p2=p2, original=inst)


def generate_negatives(doc: ParsedDocument) -> list[RelationInstance]:
    """Emit a negative instance for every unannotated category-compatible pair of `doc`.

    Every unordered intra-sentence concept pair whose type combination
    belongs to a category and which carries no positive annotation becomes
    an NTrP / NTeP / NPP instance.  Pairs with overlapping spans are
    skipped (no valid instance can be formed).  All negatives are emitted;
    sub-sampling for training balance, if any, is the trainer's business.
    """
    positive_keys = {p.key for p in doc.positives}
    negatives: list[RelationInstance] = []
    for sent_index, (tokens, concepts) in enumerate(zip(doc.sentences, doc.concepts), start=1):
        for c1, c2 in combinations(concepts, 2):
            cat = category_for_pair(c1.ctype, c2.ctype)
            if cat is None or c1.end >= c2.start:
                continue
            inst = RelationInstance(
                tokens=tokens,
                concept1=c1,
                concept2=c2,
                gold=NEGATIVE_OF_CATEGORY[cat],
                doc_id=doc.doc_id,
                sent_index=sent_index,
            )
            if inst.key not in positive_keys:
                negatives.append(inst)
    negatives.sort(key=attrgetter("key"))
    return negatives


def document_instances(doc: ParsedDocument) -> list[RelationInstance]:
    """Positives plus generated negatives, deterministically ordered."""
    merged = doc.positives + generate_negatives(doc)
    merged.sort(key=attrgetter("key"))
    return merged


# ---------------------------------------------------------------------------
# Corpus statistics
# ---------------------------------------------------------------------------


@dataclass
class CorpusStats:
    n_instances: int
    relation_counts: dict[str, int]
    concept_length_hist: dict[int, int]
    mean_concept_tokens: dict[str, float]
    mean_concept_tokens_all: float
    distance_hist: dict[str, dict[int, int]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def corpus_stats(instances: Sequence[RelationInstance]) -> CorpusStats:
    """Distribution report: concept lengths, type means, pair distances, label counts.

    Concepts are deduplicated by (doc, sentence, span, type) so a concept
    taking part in many pairs is counted once.  Distance between a pair is
    the number of tokens strictly between the two spans.
    """
    relation_counts = Counter(inst.gold.value for inst in instances)
    seen: set[tuple] = set()
    length_hist: Counter[int] = Counter()
    by_type: dict[ConceptType, list[int]] = {t: [] for t in ConceptType}
    distance_hist: dict[str, Counter[int]] = {}
    for inst in instances:
        for c in (inst.concept1, inst.concept2):
            key = (inst.doc_id, inst.sent_index, c.start, c.end, c.ctype)
            if key in seen:
                continue
            seen.add(key)
            length_hist[c.length] += 1
            by_type[c.ctype].append(c.length)
        dist = inst.concept2.start - inst.concept1.end - 1
        distance_hist.setdefault(inst.gold.value, Counter())[dist] += 1

    all_lengths = [l for lengths in by_type.values() for l in lengths]
    return CorpusStats(
        n_instances=len(instances),
        relation_counts={t.value: relation_counts.get(t.value, 0) for t in RelationType},
        concept_length_hist=dict(sorted(length_hist.items())),
        mean_concept_tokens={
            t.value: (sum(v) / len(v) if v else 0.0) for t, v in by_type.items()
        },
        mean_concept_tokens_all=(sum(all_lengths) / len(all_lengths) if all_lengths else 0.0),
        distance_hist={k: dict(sorted(v.items())) for k, v in sorted(distance_hist.items())},
    )


# ---------------------------------------------------------------------------
# JSON-lines serialization
# ---------------------------------------------------------------------------


def instance_to_dict(inst: RelationInstance) -> dict:
    return {
        "doc": inst.doc_id,
        "sent": inst.sent_index,
        "tokens": inst.tokens,
        "c1": {"start": inst.concept1.start, "end": inst.concept1.end, "type": inst.concept1.ctype.value},
        "c2": {"start": inst.concept2.start, "end": inst.concept2.end, "type": inst.concept2.ctype.value},
        "label": inst.gold.value,
    }


def instance_from_dict(d: dict) -> RelationInstance:
    """The valid instance record `d` describes; ValueError, KeyError or TypeError if none."""
    tokens = d["tokens"]
    if not isinstance(tokens, list) or not all(map(isinstance, tokens, repeat(str))):
        raise ValueError(f"tokens must be a list of strings, got {tokens!r}")

    doc, sent = d.get("doc", ""), d.get("sent", 0)
    if not isinstance(doc, str) or type(sent) is not int:
        raise ValueError(f"doc must be a string and sent an integer, got {doc!r} and {sent!r}")

    def concept(c: dict) -> Concept:
        start, end = c["start"], c["end"]
        if type(start) is not int or type(end) is not int:
            raise ValueError(f"concept start and end must be integers, got {start!r} and {end!r}")
        return Concept(start=start, end=end, ctype=by_value(ConceptType, c["type"]))

    return RelationInstance(
        tokens=list(tokens),
        concept1=concept(d["c1"]),
        concept2=concept(d["c2"]),
        gold=by_value(RelationType, d["label"]),
        doc_id=doc,
        sent_index=sent,
    )


def not_utf8(path: str | Path) -> ValueError:
    """The error for a file that is not UTF-8, naming the line of its first bad byte."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return ValueError(f"{path}:{line}: not UTF-8 text: {exc.reason} at byte {exc.start}")
    return ValueError(f"{path}: not UTF-8 text")


def read_text(path: str | Path) -> str:
    """The text of UTF-8 file `path`, newlines translated as by `open`; see `not_utf8`."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise not_utf8(path) from None


def write_instances(path: str | Path, instances: Iterable[RelationInstance]) -> None:
    encode = json.JSONEncoder(ensure_ascii=False).encode  # one encoder per file
    with open(path, "w", encoding="utf-8") as fh:
        for inst in instances:
            fh.write(encode(instance_to_dict(inst)) + "\n")


def read_instances(path: str | Path) -> list[RelationInstance]:
    out: list[RelationInstance] = []
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            out.append(instance_from_dict(json.loads(line)))
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise AnnotationError(f"{path}:{lineno}: bad instance record: {exc}") from exc
    return out
