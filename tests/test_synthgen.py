"""Tests for the synthetic placement-task generator and its self-check."""

from __future__ import annotations

import dataclasses
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from relcnn.corpus import RelationInstance, replace_concepts
from relcnn.encoding import EncoderConfig, build_vocab, encode_instances
from relcnn.relations import CATEGORY_OF, Category, ConceptType, RelationType
from relcnn.synthgen import (
    AFTER_C2,
    BEFORE_C1,
    BETWEEN,
    DEFAULT_SIGNAL,
    MAX_POOL,
    PLACEMENTS,
    LabelRule,
    SynthCheckError,
    SynthLedger,
    SynthSpec,
    generate,
    placement_task_spec,
    self_check,
)

from conftest import (
    THREE_CATEGORY_RULES,
    assert_same_encodings,
    encode_reference,
    generate_reference,
)

T = RelationType


def _spec(**over):
    return placement_task_spec(sentences_per_type=12, seed=0, **over)


# ---------------------------------------------------------------------------
# Spec validation
# ---------------------------------------------------------------------------


class TestSpecValidation:
    def test_placement_task_layout(self):
        spec = _spec()
        assert [r.label for r in spec.rules] == [T.TERP, T.TECP]
        assert [r.placement for r in spec.rules] == [BEFORE_C1, AFTER_C2]
        assert spec.rules[0].signal == spec.rules[1].signal == DEFAULT_SIGNAL
        assert spec.distractor_placement == BETWEEN

    def test_unknown_placement_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec(rules=(LabelRule(T.TERP, "outside", DEFAULT_SIGNAL),))

    def test_sentence_length_feasibility(self):
        spec = _spec()
        lo = spec.min_length(len(DEFAULT_SIGNAL))
        dataclasses.replace(spec, len_lo=lo, len_hi=lo)  # exactly feasible
        with pytest.raises(ValueError):
            dataclasses.replace(spec, len_lo=lo - 1, len_hi=lo - 1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            dataclasses.replace(_spec(), seed=-1)

    def test_len_ordering(self):
        with pytest.raises(ValueError):
            _spec(len_lo=26, len_hi=18)

    def test_noise_needs_at_least_two_labels(self):
        """Each category with a rule needs a second label of its own to flip to;
        a label of another category does not count."""
        for labels, lone in [
            ((T.TERP,), "TeP label to flip TeRP"),
            ((T.TERP, T.TERP), "TeP label to flip TeRP"),
            ((T.TERP, T.TECP, T.PIP), "PP label to flip PIP"),
            ((T.TRIP, T.PIP, T.NPP, T.TRIP), "TrP label to flip TrIP"),
        ]:
            rules = tuple(LabelRule(t, p, DEFAULT_SIGNAL) for t, p in zip(labels, PLACEMENTS * 2))
            SynthSpec(rules=rules)  # without noise, any labels will do
            with pytest.raises(ValueError, match=f"^label noise needs a second {lone} to$"):
                SynthSpec(rules=rules, noise_rate=0.2)

    def test_rules_a_reader_cannot_tell_apart_are_rejected(self):
        """Two labels of one category may not plant one signal in one placement;
        another placement, another signal or another category tells them apart."""
        with pytest.raises(
            ValueError,
            match="^labels TeRP and TeCP plant the same signal before_c1 in category TeP: ",
        ):
            SynthSpec(
                rules=(LabelRule(T.TERP, BEFORE_C1, DEFAULT_SIGNAL),
                       LabelRule(T.TECP, BEFORE_C1, DEFAULT_SIGNAL)),
                sentences_per_type=5,
            )
        for second in [
            LabelRule(T.TECP, AFTER_C2, DEFAULT_SIGNAL),
            LabelRule(T.TECP, BEFORE_C1, ("sigx", "sigy")),
            LabelRule(T.PIP, BEFORE_C1, DEFAULT_SIGNAL),
            LabelRule(T.TERP, BEFORE_C1, DEFAULT_SIGNAL),
        ]:
            SynthSpec(rules=(LabelRule(T.TERP, BEFORE_C1, DEFAULT_SIGNAL), second))
        SynthSpec(rules=THREE_CATEGORY_RULES)  # one signal shared across categories

    @pytest.mark.parametrize("rate", [-0.1, 1.0, 1.5])
    def test_noise_rate_bounds(self, rate):
        with pytest.raises(ValueError):
            _spec(noise_rate=rate)

    def test_distractor_must_avoid_informative_placements(self):
        with pytest.raises(ValueError):
            _spec(distractor_placement=BEFORE_C1)

    @pytest.mark.parametrize("distractor,most", [(BETWEEN, 10), (None, 14)])
    def test_extra_concepts_fit_beside_every_signal_copy(self, distractor, most):
        """A sentence of len_lo 18 less its two placeholders and the 4-token signal,
        planted once or, with a distractor, twice, has `most - 2` free positions."""
        spec = _spec(n_concepts=most, distractor_placement=distractor)
        insts, ledger = generate(spec)
        self_check(insts, ledger)
        assert all(sum(t.startswith("cw") for t in inst.tokens) == most for inst in insts)
        with pytest.raises(ValueError, match=f"^n_concepts={most + 1} needs {most - 1} free"):
            _spec(n_concepts=most + 1, distractor_placement=distractor)

    @pytest.mark.parametrize("name", ["vocab_size", "concept_vocab_size"])
    def test_word_pools_are_limited_to_three_letters(self, name):
        _spec(**{name: MAX_POOL})  # every three-letter word, as train-clinical uses
        with pytest.raises(ValueError, match=f"{name} must be <= {MAX_POOL}"):
            _spec(**{name: MAX_POOL + 1})


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def test_generate_is_deterministic():
    a_insts, a_led = generate(_spec())
    b_insts, b_led = generate(_spec())
    assert a_insts == b_insts
    assert a_led.entries == b_led.entries
    c_insts, _ = generate(placement_task_spec(sentences_per_type=12, seed=1))
    assert a_insts != c_insts


def test_generate_counts_and_labels_exact_without_noise():
    insts, ledger = generate(_spec())
    assert len(insts) == 24
    from collections import Counter

    assert Counter(i.gold for i in insts) == {T.TERP: 12, T.TECP: 12}
    assert all(not e.flipped for e in ledger.entries)
    assert all(e.gold == e.rule_label for e in ledger.entries)


def test_generated_instances_are_valid_and_in_length_band():
    spec = _spec()
    insts, _ = generate(spec)
    for inst in insts:
        inst.validate()
        assert spec.len_lo <= len(inst.tokens) <= spec.len_hi
        assert inst.concept1.ctype is ConceptType.TEST
        assert inst.concept2.ctype is ConceptType.PROBLEM
        assert inst.category is Category.TEP


def test_every_sentence_contains_signal_twice_with_distractor():
    """Signal appears once informatively and once as a between distractor,
    so token presence alone cannot separate the labels."""
    spec = _spec()
    insts, ledger = generate(spec)
    sig = list(DEFAULT_SIGNAL)
    for inst, entry in zip(insts, ledger.entries):
        toks = inst.tokens
        occurrences = [
            i for i in range(len(toks) - len(sig) + 1) if toks[i : i + len(sig)] == sig
        ]
        assert len(occurrences) == 2, entry.doc_id
        assert entry.distractor_start is not None


def test_ledger_geometry_matches_instances():
    spec = _spec()
    insts, ledger = generate(spec)
    assert len(ledger.entries) == len(insts)
    for inst, e in zip(insts, ledger.entries):
        assert e.doc_id == inst.doc_id
        assert 1 <= e.p1 < e.p2
        sig = list(e.signal)
        # signal_start is 1-based in replaced coordinates; check against the
        # original token stream by locating the claimed occurrence
        from relcnn.corpus import replace_concepts

        rep = replace_concepts(inst)
        assert (rep.p1, rep.p2) == (e.p1, e.p2)
        assert rep.tokens[e.signal_start - 1 : e.signal_start - 1 + len(sig)] == sig
        if e.placement == BEFORE_C1:
            assert e.signal_start + len(sig) - 1 < e.p1
        elif e.placement == AFTER_C2:
            assert e.signal_start > e.p2
        else:
            assert e.p1 < e.signal_start and e.signal_start + len(sig) - 1 < e.p2


def test_noise_flips_labels_at_requested_rate():
    spec = placement_task_spec(sentences_per_type=200, seed=4, noise_rate=0.2)
    insts, ledger = generate(spec)
    flipped = sum(e.flipped for e in ledger.entries)
    n = len(ledger.entries)
    # binomial(400, 0.2): allow 4 sigma
    sigma = (n * 0.2 * 0.8) ** 0.5
    assert abs(flipped - n * 0.2) < 4 * sigma
    for inst, e in zip(insts, ledger.entries):
        assert (inst.gold == e.rule_label) == (not e.flipped)
        assert inst.gold in {T.TERP, T.TECP}
    rep = self_check(insts, ledger)
    assert rep.rule_accuracy == pytest.approx(1 - flipped / n)


# ---------------------------------------------------------------------------
# Oracle: the per-word generator and per-instance encoder in conftest
# ---------------------------------------------------------------------------

_ORACLE_SPECS = {
    "placement-seed0": placement_task_spec(sentences_per_type=150, seed=0),
    "placement-seed7": placement_task_spec(sentences_per_type=150, seed=7),
    "clinical-shape": placement_task_spec(
        sentences_per_type=60, seed=3, vocab_size=MAX_POOL, len_lo=30, len_hi=50
    ),
    "noisy-extra-concepts": placement_task_spec(
        sentences_per_type=100, seed=5, noise_rate=0.2, n_concepts=4, concept_tokens=2
    ),
    "no-distractor": placement_task_spec(
        sentences_per_type=100, seed=9, distractor_placement=None, concept_vocab_size=3
    ),
    "noisy-three-categories": SynthSpec(
        rules=THREE_CATEGORY_RULES, sentences_per_type=40, seed=6, noise_rate=0.3,
        n_concepts=3, concept_tokens=2
    ),
}


@pytest.mark.parametrize("name", sorted(_ORACLE_SPECS))
def test_generate_and_encode_match_the_reference(name):
    spec = _ORACLE_SPECS[name]
    insts, ledger = generate(spec)
    ref_insts, ref_ledger = generate_reference(spec)
    assert insts == ref_insts
    assert asdict(ledger) == asdict(ref_ledger)
    # A vocabulary from the first half leaves words of the second half unknown,
    # and concept_len 1 truncates the two-token concepts.
    cfg = EncoderConfig(concept_len=1 if spec.concept_tokens > 1 else 5)
    vocab = build_vocab(insts[: len(insts) // 2], cfg)
    want = [encode_reference(replace_concepts(inst), vocab, cfg) for inst in ref_insts]
    assert_same_encodings(encode_instances(insts, vocab, cfg), want)


# The concept types of each category in text order, written out here rather than
# read from `relations`.
_PAIR_OF_CATEGORY = {
    Category.TRP: (ConceptType.TREATMENT, ConceptType.PROBLEM),
    Category.TEP: (ConceptType.TEST, ConceptType.PROBLEM),
    Category.PP: (ConceptType.PROBLEM, ConceptType.PROBLEM),
}


def test_one_noisy_spec_writes_three_categories():
    """Each instance's concept pair is its gold category's, a noisy flip stays in its
    rule's category, and the one corpus holds no key twice."""
    spec = _ORACLE_SPECS["noisy-three-categories"]
    insts, ledger = generate(spec)
    assert {inst.gold for inst in insts} >= {rule.label for rule in spec.rules}
    for inst, entry in zip(insts, ledger.entries):
        pair = _PAIR_OF_CATEGORY[CATEGORY_OF[inst.gold]]
        assert (inst.concept1.ctype, inst.concept2.ctype) == pair
        assert CATEGORY_OF[entry.gold] is CATEGORY_OF[entry.rule_label]
    flips = [e for e in ledger.entries if e.flipped]
    assert {CATEGORY_OF[e.gold] for e in flips} == set(Category)
    assert len({inst.key for inst in insts}) == len(insts) == 8 * 40
    assert self_check(insts, ledger).rule_accuracy == (len(insts) - len(flips)) / len(insts)


# ---------------------------------------------------------------------------
# Self-check
# ---------------------------------------------------------------------------


def test_self_check_passes_on_fresh_output():
    insts, ledger = generate(_spec())
    rep = self_check(insts, ledger)
    assert rep.n == len(insts)
    assert rep.rule_accuracy == 1.0


def test_self_check_catches_corrupted_gold():
    insts, ledger = generate(_spec())
    bad = dataclasses.replace(insts[3], gold=T.NTEP)
    with pytest.raises(SynthCheckError, match=insts[3].doc_id):
        self_check(insts[:3] + [bad] + insts[4:], ledger)


def test_self_check_catches_corrupted_ledger_position():
    insts, ledger = generate(_spec())
    entries = list(ledger.entries)
    entries[5] = dataclasses.replace(entries[5], signal_start=entries[5].signal_start + 1)
    with pytest.raises(SynthCheckError, match=entries[5].doc_id):
        self_check(insts, SynthLedger(spec=ledger.spec, entries=entries))


def test_self_check_catches_token_tampering():
    insts, ledger = generate(_spec())
    tampered = dataclasses.replace(insts[0], tokens=list(insts[0].tokens))
    tampered.tokens[insts[0].concept1.start + 2] = "smuggled"
    with pytest.raises(SynthCheckError):
        self_check([tampered] + insts[1:], ledger)


def test_self_check_validates_each_instance_once(monkeypatch):
    """The round trip is compared with an instance just validated, so it adds no
    ``validate`` of its own."""
    insts, ledger = generate(_spec())
    validated = []
    validate = RelationInstance.validate

    def counting(inst):
        validated.append(inst)
        validate(inst)

    monkeypatch.setattr(RelationInstance, "validate", counting)
    self_check(insts, ledger)
    assert validated == insts


def test_self_check_round_trip_revalidates_mutated_instance():
    """Instances validate when built; one changed afterwards is caught by the
    round trip, which rebuilds it, with the error ``validate`` gives."""
    insts, ledger = generate(_spec())
    c1, c2 = insts[2].concept1, insts[2].concept2
    insts[2].concept1 = dataclasses.replace(c1, end=c2.start)
    with pytest.raises(ValueError, match="^concept spans overlap$"):
        self_check(insts, ledger)


def _region_of(start: int, s: int, p1: int, p2: int) -> str:
    """The region an s-gram at 1-based `start` lies in; it overlaps no placeholder."""
    assert start + s - 1 < p1 or p1 < start < start + s - 1 < p2 or p2 < start
    return BEFORE_C1 if start < p1 else BETWEEN if start < p2 else AFTER_C2


@pytest.mark.parametrize("region", PLACEMENTS)
def test_self_check_rejects_a_signal_outside_its_recorded_region(region):
    """Each planted copy, recorded as the signal of a region it is not in, fails
    naming its position and that region.  The copies lie in every region: the
    placement task's and its between distractor, and those of a rule per region."""
    three_rules = SynthSpec(
        rules=(
            LabelRule(T.TERP, BEFORE_C1, DEFAULT_SIGNAL),
            LabelRule(T.NTEP, BETWEEN, DEFAULT_SIGNAL),
            LabelRule(T.TECP, AFTER_C2, DEFAULT_SIGNAL),
        ),
        sentences_per_type=30,
        seed=2,
    )
    tried = 0
    for spec in (placement_task_spec(40, seed=0), three_rules):
        insts, ledger = generate(spec)
        for inst, entry in zip(insts, ledger.entries):
            for start in (entry.signal_start, entry.distractor_start):
                if start is None or _region_of(start, 4, entry.p1, entry.p2) == region:
                    continue
                bad = dataclasses.replace(entry, placement=region, signal_start=start)
                with pytest.raises(SynthCheckError,
                                   match=f"^{entry.doc_id}: signal at {start} is outside "
                                         f"region {region}$"):
                    self_check([inst], SynthLedger(spec=spec, entries=[bad]))
                tried += 1
    assert tried >= 100


def test_self_check_rejects_length_mismatch():
    insts, ledger = generate(_spec())
    with pytest.raises(SynthCheckError):
        self_check(insts[:-1], ledger)
