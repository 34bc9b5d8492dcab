"""Deterministic synthetic corpus with segment-localized label signals.

Each generated sentence contains one annotated concept pair plus an
exact signal n-gram planted entirely inside one of the three regions the
pair induces: before the first concept, between the two, or after the
second.  Within the pair's category the gold label is a pure function of
(signal, region).  When the SAME n-gram maps to different labels in
different regions, a model that max-pools over the whole sentence sees
identical features for both labels, while segment-wise pooling separates
them; this is the testbed for the multi- vs max-pooling comparison.

Construction guarantees:

* filler, concept and signal words come from disjoint pools, so the
  signal n-gram occurs only where planted: the informative spot, plus an
  optional distractor copy in a fixed non-informative region;
* all three pooling segments have at least window-size columns, keeping
  the headline experiment away from empty-segment edge cases;
* every instance satisfies the full annotation invariants and the word
  forms are normalization fixed points (lowercase letters only).

The distractor exists because position channels make label placement
visible to whole-sentence pooling even when word content is ambiguous:
a distractor copy in every sentence removes the "signal present at all"
shortcut, so whole-sentence pooling must learn position-conjunctive
filters while segment pooling still reads the label off one segment.

A rule's label fixes its pair's concept types (`CATEGORY_PAIR` of the
label's category), so one spec may mix categories as the clinical corpus
does; a noisy label flips only to another label of its rule's category.
The ledger records the planted truth per instance and `self_check`
verifies corpus and ledger agree; with label-noise rate r a rule reader
scores about 1 - r, exactly 1 at r = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice, product
from typing import Sequence

import numpy as np

from .corpus import (
    Concept,
    RelationInstance,
    instance_from_dict,
    instance_to_dict,
    replace_concepts,
)
from .relations import CATEGORY_OF, CATEGORY_PAIR, RelationType

BEFORE_C1 = "before_c1"
BETWEEN = "between"
AFTER_C2 = "after_c2"
PLACEMENTS = (BEFORE_C1, BETWEEN, AFTER_C2)

_LETTERS = "abcdefghijklmnopqrstuvwxyz"
# Filler and concept words are a prefix plus three letters, so each pool
# holds at most 26^3 distinct words.
MAX_POOL = len(_LETTERS) ** 3


def _word_pool(prefix: str, n: int) -> list[str]:
    """The first `n` words `prefix` + three letters, in alphabetical order:
    word i spells i in base 26 with "a" as the zero digit."""
    return [prefix + "".join(t) for t in islice(product(_LETTERS, repeat=3), n)]


DEFAULT_SIGNAL = ("siga", "sigb", "sigc", "sigd")


class SynthCheckError(RuntimeError):
    """Corpus and ledger disagree; message names the offending instance."""


@dataclass(frozen=True)
class LabelRule:
    """Plant `signal` in `placement`; the instance's gold type is `label`."""

    label: RelationType
    placement: str
    signal: tuple[str, ...]


@dataclass(frozen=True)
class SynthSpec:
    """Generator configuration.  Lengths refer to the replaced sentence
    (placeholders in place of concepts), the form the model consumes."""

    rules: tuple[LabelRule, ...]
    sentences_per_type: int = 100
    len_lo: int = 18
    len_hi: int = 26
    window: int = 4
    vocab_size: int = 120
    concept_vocab_size: int = 12
    n_concepts: int = 2
    concept_tokens: int = 1
    noise_rate: float = 0.0
    seed: int = 0
    # When set, every instance additionally carries its rule's signal in
    # this region, regardless of label.  Must differ from every rule's
    # informative placement.
    distractor_placement: str | None = None

    def __post_init__(self) -> None:
        if not self.rules:
            raise ValueError("need at least one label rule")
        counts = (
            self.sentences_per_type,
            self.window,
            self.vocab_size,
            self.concept_vocab_size,
            self.concept_tokens,
        )
        if any(c < 1 for c in counts):
            raise ValueError(f"counts must be >= 1: {self}")
        for name in ("vocab_size", "concept_vocab_size"):
            if getattr(self, name) > MAX_POOL:
                raise ValueError(
                    f"{name} must be <= {MAX_POOL}, the number of distinct "
                    f"three-letter words: {getattr(self, name)}"
                )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0: {self.seed}")
        if self.n_concepts < 2:
            raise ValueError(f"n_concepts must be >= 2: {self.n_concepts}")
        if not 0.0 <= self.noise_rate < 1.0:
            raise ValueError(f"noise_rate must lie in [0, 1): {self.noise_rate}")
        if self.len_hi < self.len_lo:
            raise ValueError(f"empty length range [{self.len_lo}, {self.len_hi}]")
        planted: dict[tuple, RelationType] = {}
        for rule in self.rules:
            if rule.placement not in PLACEMENTS:
                raise ValueError(f"unknown placement {rule.placement!r}")
            if not rule.signal:
                raise ValueError(f"rule {rule.label.value}: empty signal")
            cat = CATEGORY_OF[rule.label]
            other = planted.setdefault((cat, rule.placement, tuple(rule.signal)), rule.label)
            if other is not rule.label:
                raise ValueError(
                    f"labels {other.value} and {rule.label.value} plant the same signal "
                    f"{rule.placement} in category {cat.value}: no reader can tell them apart"
                )
            if self.noise_rate > 0 and all(
                r.label is rule.label or CATEGORY_OF[r.label] is not cat for r in self.rules
            ):
                raise ValueError(
                    f"label noise needs a second {cat.value} label to flip {rule.label.value} to"
                )
            if self.len_lo < self.min_length(len(rule.signal)):
                raise ValueError(
                    f"len_lo={self.len_lo} cannot fit signal of {len(rule.signal)} tokens, "
                    f"two concepts and window-{self.window} segments "
                    f"(need >= {self.min_length(len(rule.signal))})"
                )
            # The distractor plants a second copy of the signal.
            signal_tokens = len(rule.signal) * (1 if self.distractor_placement is None else 2)
            free = self.len_lo - 2 - signal_tokens
            if free < self.n_concepts - 2:
                raise ValueError(
                    f"n_concepts={self.n_concepts} needs {self.n_concepts - 2} free positions; "
                    f"len_lo={self.len_lo} leaves {free} beside two placeholders and "
                    f"{signal_tokens} signal tokens"
                )
        if self.distractor_placement is not None:
            if self.distractor_placement not in PLACEMENTS:
                raise ValueError(f"unknown placement {self.distractor_placement!r}")
            informative = {r.placement for r in self.rules}
            if self.distractor_placement in informative:
                raise ValueError(
                    f"distractor region {self.distractor_placement!r} collides with an "
                    "informative placement; the task would become ambiguous"
                )

    def geometry(self, signal_len: int) -> tuple[int, int, int]:
        """(p1_lo, gap, tail): the lowest first-placeholder position, the least
        placeholder distance and the least count of positions after the second
        placeholder that fit the signal in any region and keep all three
        pooling segments at least window-size wide."""
        k = self.window
        return max(signal_len, k) + 1, max(k, signal_len + 1), max(2 * k - 2, signal_len)

    def min_length(self, signal_len: int) -> int:
        """Shortest replaced sentence fitting the signal anywhere with all
        three pooling segments at least window-size wide."""
        return sum(self.geometry(signal_len))


def placement_task_spec(
    sentences_per_type: int = 1000, seed: int = 0, **overrides
) -> SynthSpec:
    """The two-label placement-only task: one shared signal n-gram, label
    decided purely by which side of the concept pair it lands on.

    A between-region distractor copy is planted in every sentence so the
    mere presence of the signal carries no label information; see the
    module docstring for why the headline comparison needs this.
    """
    overrides.setdefault("distractor_placement", BETWEEN)
    return SynthSpec(
        rules=(
            LabelRule(RelationType.TERP, BEFORE_C1, DEFAULT_SIGNAL),
            LabelRule(RelationType.TECP, AFTER_C2, DEFAULT_SIGNAL),
        ),
        sentences_per_type=sentences_per_type,
        seed=seed,
        **overrides,
    )


@dataclass(frozen=True)
class LedgerEntry:
    doc_id: str
    rule_label: RelationType
    gold: RelationType
    placement: str
    signal: tuple[str, ...]
    flipped: bool
    p1: int  # placeholder positions in the replaced sentence, 1-based
    p2: int
    signal_start: int  # 1-based position of the signal in the replaced sentence
    distractor_start: int | None = None


@dataclass
class SynthLedger:
    spec: SynthSpec
    entries: list[LedgerEntry] = field(default_factory=list)


def _signal_slot_range(placement: str, p1: int, p2: int, n: int, s: int) -> tuple[int, int]:
    """Valid 1-based start positions keeping the s-gram strictly inside the region."""
    if placement == BEFORE_C1:
        return 1, p1 - s
    if placement == BETWEEN:
        return p1 + 1, p2 - s
    return p2 + 1, n - s + 1


def generate(spec: SynthSpec) -> tuple[list[RelationInstance], SynthLedger]:
    """Materialize the corpus and its ledger.

    Instances are generated independently, one spawned RNG stream each,
    so output is deterministic in the seed and insensitive to generation
    order.  Gold labels follow the instance's rule except that with
    probability noise_rate the label flips to another label of a rule of
    the same category (ledger records both truth and flip).  Word strings
    come from pools sized to the spec and built once per call.
    """
    total = len(spec.rules) * spec.sentences_per_type
    streams = np.random.SeedSequence(spec.seed).spawn(total)
    labels = sorted({r.label for r in spec.rules}, key=lambda t: t.value)
    fillers = _word_pool("w", spec.vocab_size)
    concept_pool = _word_pool("cw", spec.concept_vocab_size)
    n_concept_words = spec.concept_vocab_size
    m = spec.concept_tokens
    extra = spec.n_concepts - 2
    instances: list[RelationInstance] = []
    ledger = SynthLedger(spec=spec)
    for rule in spec.rules:
        s = len(rule.signal)
        signal = list(rule.signal)
        p1_lo, gap, tail = spec.geometry(s)
        category = CATEGORY_OF[rule.label]
        others = [t for t in labels if t != rule.label and CATEGORY_OF[t] is category]
        ctype1, ctype2 = CATEGORY_PAIR[category]
        for _ in range(spec.sentences_per_type):
            idx = len(instances)
            rng = np.random.default_rng(streams[idx])
            draw = rng.integers
            n = int(draw(spec.len_lo, spec.len_hi + 1))
            p2_hi = n - tail
            p1 = int(draw(p1_lo, p2_hi - gap + 1))
            p2 = int(draw(p1 + gap, p2_hi + 1))
            lo, hi = _signal_slot_range(rule.placement, p1, p2, n, s)
            start = int(draw(lo, hi + 1))

            words = [fillers[i] for i in draw(0, spec.vocab_size, n).tolist()]
            words[start - 1 : start - 1 + s] = signal
            distractor_start: int | None = None
            if spec.distractor_placement is not None:
                dlo, dhi = _signal_slot_range(spec.distractor_placement, p1, p2, n, s)
                distractor_start = int(draw(dlo, dhi + 1))
                words[distractor_start - 1 : distractor_start - 1 + s] = signal
            if extra:
                taken = {p1, p2, *range(start, start + s)}
                if distractor_start is not None:
                    taken.update(range(distractor_start, distractor_start + s))
                free = [pos for pos in range(1, n + 1) if pos not in taken]
                for pos_i in rng.choice(len(free), size=extra, replace=False).tolist():
                    words[free[pos_i] - 1] = concept_pool[int(draw(0, n_concept_words))]

            flipped = spec.noise_rate > 0 and bool(rng.random() < spec.noise_rate)
            gold = others[int(draw(0, len(others)))] if flipped else rule.label

            c1_words = [concept_pool[int(draw(0, n_concept_words))] for _ in range(m)]
            c2_words = [concept_pool[int(draw(0, n_concept_words))] for _ in range(m)]
            c2_start = p2 + (m - 1)
            inst = RelationInstance(
                tokens=words[: p1 - 1] + c1_words + words[p1 : p2 - 1] + c2_words + words[p2:],
                concept1=Concept(start=p1, end=p1 + m - 1, ctype=ctype1),
                concept2=Concept(start=c2_start, end=c2_start + m - 1, ctype=ctype2),
                gold=gold,
                doc_id=f"synth-{idx:05d}",
                sent_index=0,
            )
            instances.append(inst)
            ledger.entries.append(
                LedgerEntry(
                    doc_id=inst.doc_id,
                    rule_label=rule.label,
                    gold=gold,
                    placement=rule.placement,
                    signal=rule.signal,
                    flipped=flipped,
                    p1=p1,
                    p2=p2,
                    signal_start=start,
                    distractor_start=distractor_start,
                )
            )
    return instances, ledger


@dataclass
class SelfCheckReport:
    n: int
    rule_accuracy: float  # fraction of instances whose gold matches their rule


def self_check(
    instances: Sequence[RelationInstance], ledger: SynthLedger
) -> SelfCheckReport:
    """Verify corpus and ledger agree; raise SynthCheckError on any mismatch.

    Checks per instance: the serialization round trip, which rebuilds the
    instance and so re-checks its annotation invariants (ValueError if they
    no longer hold); ledger identity; the signal planted at the recorded
    spot inside the recorded region; and gold vs rule/flip bookkeeping.
    Returns the rule-reader accuracy, which must be 1 when the noise rate
    is 0 and concentrates around 1 - noise_rate otherwise.
    """
    if len(instances) != len(ledger.entries):
        raise SynthCheckError(
            f"{len(instances)} instances vs {len(ledger.entries)} ledger entries"
        )
    hits = 0
    for inst, entry in zip(instances, ledger.entries):
        def fail(msg: str) -> SynthCheckError:
            return SynthCheckError(f"{entry.doc_id}: {msg}")

        if instance_from_dict(instance_to_dict(inst)) != inst:
            raise fail("serialization round-trip changed the instance")
        if inst.doc_id != entry.doc_id:
            raise fail(f"instance doc id {inst.doc_id} does not match ledger")
        rep = replace_concepts(inst)
        if (rep.p1, rep.p2) != (entry.p1, entry.p2):
            raise fail(f"placeholders at {(rep.p1, rep.p2)}, ledger says {(entry.p1, entry.p2)}")
        s = len(entry.signal)

        def check_planted(a: int, region: str, what: str) -> None:
            if tuple(rep.tokens[a - 1 : a - 1 + s]) != entry.signal:
                raise fail(f"{what} {entry.signal} not found at position {a}")
            ok_region = {
                BEFORE_C1: a >= 1 and a + s - 1 < entry.p1,
                BETWEEN: a > entry.p1 and a + s - 1 < entry.p2,
                AFTER_C2: a > entry.p2 and a + s - 1 <= len(rep.tokens),
            }[region]
            if not ok_region:
                raise fail(f"{what} at {a} is outside region {region}")

        check_planted(entry.signal_start, entry.placement, "signal")
        if ledger.spec.distractor_placement is not None:
            if entry.distractor_start is None:
                raise fail("spec requests a distractor but ledger records none")
            check_planted(
                entry.distractor_start, ledger.spec.distractor_placement, "distractor"
            )
        if inst.gold != entry.gold:
            raise fail(f"gold {inst.gold.value} disagrees with ledger {entry.gold.value}")
        if (entry.gold == entry.rule_label) == entry.flipped:
            raise fail("flip flag inconsistent with gold vs rule label")
        hits += entry.gold == entry.rule_label
    n = len(instances)
    return SelfCheckReport(n=n, rule_accuracy=hits / n if n else 1.0)
