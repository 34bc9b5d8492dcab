"""Index-space encoding: vocabularies, position ids, pooling segment bounds.

Words map to dense ids with ``<pad>`` fixed at 0 and ``<unk>`` at 1; the
three concept placeholders are always present so they can never fall out
of vocabulary.  Positions are signed token distances to the two concept
placeholders, clipped to a radius and shifted to the dense id range
``[0, 2 * max_distance]``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import PLACEHOLDER, RelationInstance, ReplacedInstance, read_text, replace_concepts
from .relations import Category, ConceptType, RelationType

PAD = "<pad>"
UNK = "<unk>"
SPECIAL_TOKENS = (PAD, UNK) + tuple(PLACEHOLDER[t] for t in ConceptType)

PAD_ID = 0
UNK_ID = 1
CTYPE_IDS: dict[ConceptType, int] = {t: i for i, t in enumerate(ConceptType)}

VOCAB_FORMAT = "relcnn-vocab v1"


@dataclass(frozen=True)
class EncoderConfig:
    """Encoding knobs the annotation scheme leaves open.

    max_distance: position clip radius; distances beyond it share the
        boundary id.  Clinical sentences put most pairs within 20 tokens
        but the tail is long, so the default radius is generous.
    concept_len: fixed length for concept-content id sequences (pad or
        truncate).  Mean concept length in this domain is ~2 tokens with a
        fast-decaying tail, so 5 keeps nearly all heads intact.
    min_word_freq: words rarer than this in the training set map to <unk>.
    """

    max_distance: int = 60
    concept_len: int = 5
    min_word_freq: int = 1

    def __post_init__(self) -> None:
        if self.max_distance < 1 or self.concept_len < 1 or self.min_word_freq < 1:
            raise ValueError(f"all EncoderConfig fields must be >= 1: {self}")


@dataclass
class Vocab:
    """Word and position id maps; concept types take their ``CTYPE_IDS``."""

    word_ids: dict[str, int]
    max_distance: int

    @property
    def n_words(self) -> int:
        return len(self.word_ids)

    @property
    def n_positions(self) -> int:
        return 2 * self.max_distance + 1

    def position_id(self, distance: int | np.ndarray) -> int | np.ndarray:
        """Id of a signed distance, or of each entry of an integer array of them."""
        r = self.max_distance
        return np.maximum(np.minimum(distance, r), -r) + r


@dataclass
class EncodedInstance:
    """Index-space view of a replaced instance, ready for the model.

    Its arrays are not written after ``encode``.  So the instance keeps what
    the model derives from its ids alone, each part computed on first use:
    the word layout of its embedding gradient (``word_layout``) and its
    pooling segments per window size (``segments``).
    """

    token_ids: np.ndarray  # (n,) int64
    pos1_ids: np.ndarray  # (n,) int64, distance to placeholder 1
    pos2_ids: np.ndarray  # (n,) int64, distance to placeholder 2
    ctype_ids: tuple[int, int]
    content1_ids: np.ndarray  # (concept_len,) int64, original concept tokens
    content2_ids: np.ndarray  # (concept_len,) int64
    p1: int  # 1-based placeholder positions
    p2: int
    gold: RelationType
    category: Category

    @property
    def n_tokens(self) -> int:
        return int(self.token_ids.shape[0])

    @cached_property
    def word_layout(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct ids of [content1_ids; content2_ids; token_ids], ascending, and each
        position's index into them; both read-only."""
        ids = np.concatenate([self.content1_ids, self.content2_ids, self.token_ids])
        uniq, index = np.unique(ids, return_inverse=True)
        uniq.setflags(write=False)
        index.setflags(write=False)
        return uniq, index

    @cached_property
    def _segments(self) -> dict[tuple[int, bool], list[tuple[int, int] | None]]:
        return {}

    def segments(self, k: int, split: bool) -> list[tuple[int, int] | None]:
        """Pooling ranges of the windows of size k over the sentence, padded to k tokens:
        the three ``segment_bounds`` when `split`, else the one range of every window.
        The list is kept for the next call with the same (k, split); do not write it."""
        segs = self._segments.get((k, split))
        if segs is None:
            n = max(self.n_tokens, k)
            segs = segment_bounds(self.p1, self.p2, n, k) if split else [(1, n - k + 1)]
            self._segments[k, split] = segs
        return segs


def build_vocab(train_instances: Sequence[RelationInstance], cfg: EncoderConfig) -> Vocab:
    """Build the word vocabulary from training instances.

    Frequencies are counted over the original (pre-replacement) sentence
    tokens, which also covers every concept-content word.  Words below
    min_word_freq map to <unk> at encode time.
    """
    if not train_instances:
        raise ValueError("cannot build a vocabulary from an empty training set")
    counts: Counter[str] = Counter()
    for inst in train_instances:
        counts.update(inst.tokens)
    word_ids = {tok: i for i, tok in enumerate(SPECIAL_TOKENS)}
    for tok in sorted(counts):
        if counts[tok] >= cfg.min_word_freq and tok not in word_ids:
            word_ids[tok] = len(word_ids)
    return Vocab(word_ids=word_ids, max_distance=cfg.max_distance)


def encode(
    reps: Sequence[ReplacedInstance], vocab: Vocab, cfg: EncoderConfig
) -> list[EncodedInstance]:
    """Map replaced instances into index space, in one pass over the corpus.

    Position ids at token i are clip(i - p1) and clip(i - p2).  A concept
    is a span of the original (pre-replacement) sentence, and its contents
    are the first concept_len words of that slice, padded with <pad> to
    concept_len.  One id lookup covers every sentence and concept token,
    and each instance gets its own copy of its slice of the corpus-wide
    arrays.  One instance is encoded as a corpus of one.
    """
    heads = [
        inst.tokens[c.start - 1 : c.end][: cfg.concept_len]
        for inst in (rep.original for rep in reps)
        for c in (inst.concept1, inst.concept2)
    ]
    words = list(chain(chain.from_iterable(rep.tokens for rep in reps), *heads))
    ids = np.fromiter(map(vocab.word_ids.get, words, repeat(UNK_ID)), np.int64, len(words))

    lengths = np.fromiter(map(len, (rep.tokens for rep in reps)), np.int64, len(reps))
    ends = np.cumsum(lengths)
    starts = ends - lengths
    n_tokens = int(lengths.sum())
    token_ids = ids[:n_tokens]
    # 1-based position of each token within its own sentence.
    idx = np.arange(1, n_tokens + 1, dtype=np.int64) - np.repeat(starts, lengths)
    p1 = np.repeat(np.fromiter((rep.p1 for rep in reps), np.int64, len(reps)), lengths)
    p2 = np.repeat(np.fromiter((rep.p2 for rep in reps), np.int64, len(reps)), lengths)
    pos1_ids = vocab.position_id(idx - p1)
    pos2_ids = vocab.position_id(idx - p2)
    # Row 2i holds instance i's first concept, row 2i + 1 its second.
    n_heads = np.fromiter(map(len, heads), np.int64, len(heads))
    content = np.full((len(heads), cfg.concept_len), PAD_ID, dtype=np.int64)
    content[np.arange(cfg.concept_len) < n_heads[:, None]] = ids[n_tokens:]

    # Copies, not views: with views into the corpus-wide arrays, 10 of 18
    # train-clinical benchmark runs on a 2-vCPU x86_64 host peaked ~3.5 MB
    # higher (68.0-68.9 MB against 64.4-65.7 MB); with copies, 4 of 28 did.
    out: list[EncodedInstance] = []
    for i, (rep, start, end) in enumerate(zip(reps, starts.tolist(), ends.tolist())):
        orig = rep.original
        out.append(
            EncodedInstance(
                token_ids=token_ids[start:end].copy(),
                pos1_ids=pos1_ids[start:end].copy(),
                pos2_ids=pos2_ids[start:end].copy(),
                ctype_ids=(CTYPE_IDS[orig.concept1.ctype], CTYPE_IDS[orig.concept2.ctype]),
                content1_ids=content[2 * i].copy(),
                content2_ids=content[2 * i + 1].copy(),
                p1=rep.p1,
                p2=rep.p2,
                gold=orig.gold,
                category=orig.category,
            )
        )
    return out


def encode_instances(
    instances: Iterable[RelationInstance], vocab: Vocab, cfg: EncoderConfig
) -> list[EncodedInstance]:
    """`encode` of the instances with their concept pairs replaced."""
    return encode([replace_concepts(inst) for inst in instances], vocab, cfg)


def segment_bounds(p1: int, p2: int, n: int, k: int) -> list[tuple[int, int] | None]:
    """Three window ranges over the convolution output, 1-based inclusive.

    The n - k + 1 windows, one row each of the feature map, split at the two
    placeholder positions: [1, p1-1], [p1, p2-1], [p2, n-k+1].  Ranges are
    clamped to the valid window interval; a range whose start exceeds its
    end is returned as None (empty segment).
    """
    if not 1 <= p1 < p2 <= n:
        raise ValueError(f"need 1 <= p1 < p2 <= n, got p1={p1}, p2={p2}, n={n}")
    if k < 1:
        raise ValueError(f"window size must be >= 1, got {k}")
    ncols = n - k + 1
    out: list[tuple[int, int] | None] = []
    for start, end in ((1, p1 - 1), (p1, p2 - 1), (p2, ncols)):
        start, end = max(start, 1), min(end, ncols)
        out.append((start, end) if start <= end else None)
    return out


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def save_vocab(vocab: Vocab, path: str | Path) -> None:
    """Versioned text format: header lines, then one `<token>\\t<id>` per word."""
    lines = [VOCAB_FORMAT, f"max_distance\t{vocab.max_distance}"]
    lines.append("\t".join(["ctypes", *(t.value for t in ConceptType)]))
    for tok, idx in sorted(vocab.word_ids.items(), key=lambda kv: kv[1]):
        lines.append(f"{tok}\t{idx}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _header(path: str | Path, lines: list[str], lineno: int, key: str) -> list[str]:
    """The tab-separated values of header line `lineno`, which must be named `key`."""
    parts = lines[lineno - 1].split("\t") if lineno <= len(lines) else []
    if parts[:1] != [key]:
        raise ValueError(f"{path}:{lineno}: expected the '{key}' header line")
    return parts[1:]


def load_vocab(path: str | Path) -> Vocab:
    """Read a `save_vocab` file; a malformed line is reported as `<file>:<line>: ...`."""
    lines = read_text(path).splitlines()
    if not lines or lines[0] != VOCAB_FORMAT:
        raise ValueError(f"{path}: not a {VOCAB_FORMAT} file")
    radius = "\t".join(_header(path, lines, 2, "max_distance"))
    if not radius.isdecimal() or int(radius) < 1:
        raise ValueError(f"{path}:2: max_distance must be a positive integer, got {radius!r}")
    ctypes = _header(path, lines, 3, "ctypes")
    if ctypes != [t.value for t in ConceptType]:
        raise ValueError(f"{path}:3: concept types {ctypes} are not {[t.value for t in ConceptType]}")
    word_ids: dict[str, int] = {}
    for lineno, line in enumerate(lines[3:], start=4):
        if not line:
            continue
        tok, tab, idx = line.rpartition("\t")
        if not tab or not idx.isdecimal():
            raise ValueError(f"{path}:{lineno}: expected '<token>\\t<id>', got {line!r}")
        word_ids[tok] = int(idx)
    ids = sorted(word_ids.values())
    if ids != list(range(len(ids))):
        raise ValueError(f"{path}: word ids are not dense from 0")
    return Vocab(word_ids=word_ids, max_distance=int(radius))
