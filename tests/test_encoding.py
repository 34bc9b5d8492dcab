"""Tests for vocabulary building, integer encoding, and segment bounds."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from relcnn.corpus import replace_concepts
from relcnn.encoding import (
    PAD,
    PAD_ID,
    SPECIAL_TOKENS,
    UNK,
    UNK_ID,
    EncoderConfig,
    build_vocab,
    encode,
    encode_instances,
    load_vocab,
    save_vocab,
    segment_bounds,
)
from relcnn.relations import ConceptType, RelationType

from conftest import (
    TOY_ENC,
    assert_same_encodings,
    build_instance,
    encode_reference,
    shared_vocab,
    word_id,
)

# ---------------------------------------------------------------------------
# Vocabulary
# ---------------------------------------------------------------------------


def _insts(seed=0, n=6):
    rng = np.random.default_rng(seed)
    return [build_instance(rng, RelationType.TERP) for _ in range(n)]


def test_build_vocab_specials_first_then_sorted():
    vocab = build_vocab(_insts(), TOY_ENC)
    words = sorted(vocab.word_ids, key=vocab.word_ids.get)
    assert words[: len(SPECIAL_TOKENS)] == list(SPECIAL_TOKENS)
    assert vocab.word_ids[PAD] == PAD_ID == 0
    assert vocab.word_ids[UNK] == UNK_ID == 1
    rest = words[len(SPECIAL_TOKENS):]
    assert rest == sorted(rest)
    assert vocab.n_words == len(words)


def test_build_vocab_counts_original_tokens_and_min_freq():
    insts = _insts()
    cfg = EncoderConfig(max_distance=8, concept_len=3, min_word_freq=2)
    vocab = build_vocab(insts, cfg)
    from collections import Counter

    counts = Counter(tok for i in insts for tok in i.tokens)
    expected = {w for w, c in counts.items() if c >= 2}
    present = set(vocab.word_ids) - set(SPECIAL_TOKENS)
    assert present == expected


def test_word_id_unknown_maps_to_unk():
    """A word the vocabulary lacks encodes as <unk>, in the sentence and in a concept."""
    inst = build_instance(np.random.default_rng(1), RelationType.TERP)
    c1 = inst.concept1
    tokens = list(inst.tokens)
    tokens[c1.start - 1] = tokens[c1.end] = "never-seen-token"
    rep = replace_concepts(dataclasses.replace(inst, tokens=tokens))
    (enc,) = encode([rep], shared_vocab(TOY_ENC), TOY_ENC)
    assert enc.content1_ids[0] == enc.token_ids[rep.p1] == UNK_ID


def test_position_id_clipping():
    vocab = build_vocab(_insts(), TOY_ENC)  # radius 8
    r = TOY_ENC.max_distance
    assert vocab.n_positions == 2 * r + 1
    assert vocab.position_id(0) == r          # distance 0 sits at the center
    assert vocab.position_id(3) == r + 3
    assert vocab.position_id(-3) == r - 3
    assert vocab.position_id(100) == 2 * r    # clipped high
    assert vocab.position_id(-100) == 0       # clipped low


def test_position_id_of_an_array_is_elementwise():
    vocab = build_vocab(_insts(), TOY_ENC)
    distances = np.arange(-20, 21)
    ids = vocab.position_id(distances)
    assert ids.dtype == np.int64
    assert ids.tolist() == [vocab.position_id(int(d)) for d in distances]


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def test_encode_golden_small_sentence():
    """Hand-worked encoding of a five-token replaced sentence."""
    inst = build_instance(np.random.default_rng(3), RelationType.TERP)
    vocab = shared_vocab(TOY_ENC)
    rep = replace_concepts(inst)
    (enc,) = encode([rep], vocab, TOY_ENC)
    n = len(rep.tokens)
    assert enc.n_tokens == n
    assert enc.token_ids.tolist() == [word_id(vocab, t) for t in rep.tokens]
    # distances are (i+1) - p measured on 1-based positions, then shifted
    assert enc.pos1_ids.tolist() == [vocab.position_id(i + 1 - rep.p1) for i in range(n)]
    assert enc.pos2_ids.tolist() == [vocab.position_id(i + 1 - rep.p2) for i in range(n)]
    assert enc.pos1_ids[rep.p1 - 1] == TOY_ENC.max_distance
    assert enc.pos2_ids[rep.p2 - 1] == TOY_ENC.max_distance
    assert (enc.p1, enc.p2) == (rep.p1, rep.p2)
    assert enc.gold == RelationType.TERP
    assert enc.category == inst.category


def test_encode_concept_contents_padded_and_truncated():
    vocab = shared_vocab(TOY_ENC)  # concept_len = 3
    rng = np.random.default_rng(11)
    while True:
        inst = build_instance(rng, RelationType.PIP, max_span=5)
        if inst.concept1.length > 3 and inst.concept2.length == 1:
            break
    (enc,) = encode([replace_concepts(inst)], vocab, TOY_ENC)
    c1, c2 = inst.concept1, inst.concept2
    ids1 = [word_id(vocab, t) for t in inst.tokens[c1.start - 1 : c1.start + 2]]
    ids2 = [word_id(vocab, inst.tokens[c2.start - 1]), PAD_ID, PAD_ID]
    assert enc.content1_ids.tolist() == ids1      # truncated to concept_len
    assert enc.content2_ids.tolist() == ids2      # padded with PAD
    assert len(enc.content1_ids) == len(enc.content2_ids) == TOY_ENC.concept_len


def test_encode_instances_order_preserved():
    insts = _insts(seed=5, n=4)
    vocab = build_vocab(insts, TOY_ENC)
    encs = encode_instances(insts, vocab, TOY_ENC)
    assert [e.gold for e in encs] == [i.gold for i in insts]
    assert all(e.category == i.category for e, i in zip(encs, insts))


@pytest.mark.parametrize("n", [0, 1, 40])
def test_encode_matches_the_per_instance_reference(n):
    """Unknown words (vocabulary from a few other instances) and concepts longer
    than concept_len, encoded in one pass, equal the per-instance encoding."""
    rng = np.random.default_rng(21)
    vocab = build_vocab(_insts(seed=22, n=3), TOY_ENC)
    insts = [build_instance(rng, RelationType.PIP, max_span=5) for _ in range(n)]
    reps = [replace_concepts(inst) for inst in insts]
    want = [encode_reference(rep, vocab, TOY_ENC) for rep in reps]
    if n == 40:  # the corpus reaches both edge cases
        assert any(inst.concept1.length > TOY_ENC.concept_len for inst in insts)
        assert any(UNK_ID in enc.token_ids for enc in want)
    assert_same_encodings(encode(reps, vocab, TOY_ENC), want)
    assert_same_encodings(encode_instances(insts, vocab, TOY_ENC), want)


@given(st.integers(0, 10 ** 6), st.sampled_from(list(RelationType)))
def test_encode_arrays_well_formed(seed, gold):
    inst = build_instance(np.random.default_rng(seed), gold)
    vocab = shared_vocab(TOY_ENC)
    (enc,) = encode([replace_concepts(inst)], vocab, TOY_ENC)
    for arr in (enc.token_ids, enc.pos1_ids, enc.pos2_ids):
        assert arr.dtype == np.int64
        assert arr.shape == (enc.n_tokens,)
    assert (enc.token_ids >= 0).all() and (enc.token_ids < vocab.n_words).all()
    for arr in (enc.pos1_ids, enc.pos2_ids):
        assert (arr >= 0).all() and (arr < vocab.n_positions).all()
    assert 1 <= enc.p1 < enc.p2 <= enc.n_tokens
    assert len(enc.ctype_ids) == 2
    assert all(0 <= c < len(ConceptType) for c in enc.ctype_ids)


# ---------------------------------------------------------------------------
# Segment bounds
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "p1,p2,n,k,expected",
    [
        # window k=4 over a 17-token sentence, placeholders at 5 and 7
        (5, 7, 17, 4, [(1, 4), (5, 6), (7, 14)]),
        # first placeholder at the very start: before-segment is empty
        (1, 3, 10, 2, [None, (1, 2), (3, 9)]),
        # adjacent placeholders: between-segment is a single column
        (4, 5, 10, 2, [(1, 3), (4, 4), (5, 9)]),
        # placeholders past the last window start: between and after empty
        (8, 9, 10, 4, [(1, 7), None, None]),
        # second placeholder at last window start: after-segment has one column
        (2, 9, 10, 2, [(1, 1), (2, 8), (9, 9)]),
        # second placeholder beyond the last window start: after is empty
        (2, 9, 10, 4, [(1, 1), (2, 7), None]),
        # k = n leaves a single column landing in the first nonempty segment
        (2, 3, 5, 5, [(1, 1), None, None]),
        (1, 2, 4, 4, [None, (1, 1), None]),
    ],
)
def test_segment_bounds_cases(p1, p2, n, k, expected):
    assert segment_bounds(p1, p2, n, k) == expected


@given(
    st.integers(2, 40).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(1, n - 1).flatmap(
                lambda p1: st.tuples(st.just(p1), st.integers(p1 + 1, n))
            ),
            st.integers(1, 6),
        )
    )
)
def test_segment_bounds_partition_all_columns(args):
    n, (p1, p2), k = args
    if k > n:
        return
    ncols = n - k + 1
    segs = segment_bounds(p1, p2, n, k)
    assert len(segs) == 3
    covered = []
    for seg in segs:
        if seg is None:
            continue
        lo, hi = seg
        assert 1 <= lo <= hi <= ncols
        covered.extend(range(lo, hi + 1))
    # non-empty segments tile 1..ncols exactly, in order, without overlap
    assert covered == list(range(1, ncols + 1))


# ---------------------------------------------------------------------------
# Vocab persistence
# ---------------------------------------------------------------------------


def test_save_load_round_trip_and_hash(tmp_path):
    vocab = build_vocab(_insts(), TOY_ENC)
    path = tmp_path / "vocab.txt"
    save_vocab(vocab, path)
    loaded = load_vocab(path)
    assert loaded.word_ids == vocab.word_ids
    assert loaded.max_distance == vocab.max_distance
    assert loaded == vocab
    # same content -> same bytes on disk, so the same digest pins a checkpoint
    path2 = tmp_path / "vocab2.txt"
    save_vocab(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_vocab_rejects_wrong_format(tmp_path):
    path = tmp_path / "bogus.txt"
    path.write_text("some other file\n")
    with pytest.raises(ValueError):
        load_vocab(path)


def test_hash_changes_with_content(tmp_path):
    v1 = build_vocab(_insts(seed=0), TOY_ENC)
    v3 = build_vocab(_insts(seed=0), EncoderConfig(max_distance=9, concept_len=3))
    p1, p3 = tmp_path / "v1.txt", tmp_path / "v3.txt"
    save_vocab(v1, p1)
    save_vocab(v3, p3)
    assert p1.read_bytes() != p3.read_bytes()
