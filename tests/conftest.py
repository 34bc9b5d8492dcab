"""Shared fixtures and builders for the test suite.

Provides the things the individual test modules lean on:

* a hypothesis profile tuned for deterministic CI runs,
* builders for random-but-valid relation instances of any label
  (``build_instance`` / ``encoded_instance``),
* reference helpers: ``grad_max_rel_err`` compares analytic gradients
  (row gradients densified) with finite differences, and
  ``micro_from_confusion`` recomputes micro scores from a confusion
  matrix alone, and
* a small hand-written raw corpus in the classic clinical-annotation
  layout (``write_raw_corpus``) used by the CLI and end-to-end tests.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from relcnn.corpus import Concept, RelationInstance, replace_concepts
from relcnn.encoding import EncoderConfig, EncodedInstance, Vocab, build_vocab, encode
from relcnn.evaluator import Micro
from relcnn.model import HyperParams, ModelParams, RowGrad, init_params
from relcnn.relations import (
    CATEGORY_OF,
    CLASS_INDEX,
    N_CLASSES,
    POSITIVE_TYPES,
    Category,
    ConceptType,
    RelationType,
)

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# Concept-type pair that realizes each category (order as written in text).
CATEGORY_PAIR = {
    Category.TRP: (ConceptType.TREATMENT, ConceptType.PROBLEM),
    Category.TEP: (ConceptType.TEST, ConceptType.PROBLEM),
    Category.PP: (ConceptType.PROBLEM, ConceptType.PROBLEM),
}

_WORDS = [f"tok{i}" for i in range(40)]
_CONCEPT_WORDS = [f"ent{i}" for i in range(12)]


def build_instance(
    rng: np.random.Generator,
    gold: RelationType,
    *,
    swap_ok: bool = True,
    max_span: int = 3,
) -> RelationInstance:
    """Random valid instance whose concept pair matches ``gold``'s category."""
    ct1, ct2 = CATEGORY_PAIR[CATEGORY_OF[gold]]
    if swap_ok and ct1 != ct2 and rng.random() < 0.5:
        ct1, ct2 = ct2, ct1
    l1 = int(rng.integers(1, max_span + 1))
    l2 = int(rng.integers(1, max_span + 1))
    pre = int(rng.integers(0, 4))
    mid = int(rng.integers(1, 5))
    post = int(rng.integers(0, 4))

    def fill(n: int) -> list[str]:
        return [_WORDS[int(i)] for i in rng.integers(0, len(_WORDS), size=n)]

    c1_words = [_CONCEPT_WORDS[int(i)] for i in rng.integers(0, len(_CONCEPT_WORDS), size=l1)]
    c2_words = [_CONCEPT_WORDS[int(i)] for i in rng.integers(0, len(_CONCEPT_WORDS), size=l2)]
    tokens = fill(pre) + c1_words + fill(mid) + c2_words + fill(post)
    # spans are 1-based inclusive
    c1 = Concept(tokens=c1_words, start=pre + 1, end=pre + l1, ctype=ct1)
    c2 = Concept(tokens=c2_words, start=pre + l1 + mid + 1, end=pre + l1 + mid + l2, ctype=ct2)
    return RelationInstance(
        tokens=tokens, concept1=c1, concept2=c2, gold=gold,
        doc_id=f"fab-{int(rng.integers(0, 10 ** 6)):06d}", sent_index=1,
    )


def shared_vocab(enc_cfg: EncoderConfig) -> Vocab:
    """Vocabulary covering every word ``build_instance`` can emit."""
    tokens = _WORDS + _CONCEPT_WORDS
    c1 = Concept(tokens=[tokens[0]], start=1, end=1, ctype=ConceptType.TEST)
    c2 = Concept(tokens=[tokens[1]], start=2, end=2, ctype=ConceptType.PROBLEM)
    inst = RelationInstance(tokens=list(tokens), concept1=c1, concept2=c2,
                            gold=RelationType.TERP)
    return build_vocab([inst], enc_cfg)


def encoded_instance(
    rng: np.random.Generator,
    gold: RelationType,
    vocab: Vocab,
    enc_cfg: EncoderConfig,
) -> EncodedInstance:
    return encode(replace_concepts(build_instance(rng, gold)), vocab, enc_cfg)


TOY_ENC = EncoderConfig(max_distance=8, concept_len=3, min_word_freq=1)


def toy_hp(**overrides) -> HyperParams:
    base = dict(d_w=4, d_p=2, d_ct=3, d_c=3, windows=(2,), dropout_p=0.0,
                beta=0.0005, lr=0.05)
    base.update(overrides)
    return HyperParams(**base)


def toy_params(hp: HyperParams, vocab: Vocab, enc_cfg: EncoderConfig,
               seed: int = 0) -> ModelParams:
    rng = np.random.default_rng(seed)
    return init_params(hp, vocab.n_words, vocab.n_positions, enc_cfg.concept_len,
                       rng, n_ctypes=vocab.n_ctypes)


# ---------------------------------------------------------------------------
# Reference helpers
# ---------------------------------------------------------------------------


def densify(grad: np.ndarray | RowGrad, table: np.ndarray) -> np.ndarray:
    """The dense gradient a row gradient stands for: decay * W plus its rows."""
    if not isinstance(grad, RowGrad):
        return grad
    dense = grad.decay * table
    np.add.at(dense, grad.ids, grad.rows)
    return dense


def grad_max_rel_err(analytic, numeric, params: ModelParams, floor: float = 1e-5) -> float:
    """Largest elementwise relative error of `analytic` against `numeric`."""
    tables = params.arrays()
    worst = 0.0
    for name, g in analytic.items():
        g = densify(g, tables[name])
        num = numeric[name]
        rel = np.abs(g - num) / np.maximum.reduce(
            [np.abs(g), np.abs(num), np.full_like(num, floor)]
        )
        worst = max(worst, float(rel.max()))
    return worst


def micro_from_confusion(conf: np.ndarray) -> Micro:
    """Micro P/R/F1 over positive types recomputed from a confusion matrix alone."""
    if conf.shape != (N_CLASSES, N_CLASSES):
        raise ValueError(f"expected ({N_CLASSES}, {N_CLASSES}) matrix, got {conf.shape}")
    tp = fp = fn = 0
    for t in POSITIVE_TYPES:
        i = CLASS_INDEX[t]
        tp += int(conf[i, i])
        fp += int(conf[:, i].sum() - conf[i, i])
        fn += int(conf[i, :].sum() - conf[i, i])
    p = 100.0 * tp / (tp + fp) if tp + fp else 0.0
    r = 100.0 * tp / (tp + fn) if tp + fn else 0.0
    f1 = 2.0 * p * r / (p + r) if p + r else 0.0
    return Micro(p, r, f1)


# ---------------------------------------------------------------------------
# Raw corpus fixture (clinical-annotation layout).
# ---------------------------------------------------------------------------

RAW_DOCS = {
    "record-01": {
        "txt": (
            "She was treated with steroids for this swelling at the outside "
            "hospital , and these were continued .\n"
            "A chest x-ray revealed bilateral pleural effusions in 2 views .\n"
            "His PERSANTINE MIBI revealed no ischemia and LVEF of 42% .\n"
        ),
        "con": (
            'c="steroids" 1:4 1:4||t="treatment"\n'
            'c="this swelling" 1:6 1:7||t="problem"\n'
            'c="a chest x-ray" 2:0 2:2||t="test"\n'
            'c="bilateral pleural effusions" 2:4 2:6||t="problem"\n'
            'c="his persantine mibi" 3:0 3:2||t="test"\n'
            'c="ischemia" 3:5 3:5||t="problem"\n'
            'c="lvef" 3:7 3:7||t="test"\n'
        ),
        "rel": (
            'c="steroids" 1:4 1:4||r="TrIP"||c="this swelling" 1:6 1:7\n'
            'c="a chest x-ray" 2:0 2:2||r="TeRP"||c="bilateral pleural effusions" 2:4 2:6\n'
        ),
    },
    "record-02": {
        "txt": (
            "Her nausea improved after Zofran was started .\n"
            "An echocardiogram showed severe mitral regurgitation and a depressed "
            "ejection fraction of 25% .\n"
            "Tylenol was held because of transaminitis .\n"
        ),
        "con": (
            'c="her nausea" 1:0 1:1||t="problem"\n'
            'c="zofran" 1:4 1:4||t="treatment"\n'
            'c="an echocardiogram" 2:0 2:1||t="test"\n'
            'c="severe mitral regurgitation" 2:3 2:5||t="problem"\n'
            'c="a depressed ejection fraction" 2:7 2:10||t="problem"\n'
            'c="tylenol" 3:0 3:0||t="treatment"\n'
            'c="transaminitis" 3:5 3:5||t="problem"\n'
        ),
        "rel": (
            'c="her nausea" 1:0 1:1||r="TrIP"||c="zofran" 1:4 1:4\n'
            'c="an echocardiogram" 2:0 2:1||r="TeRP"||c="severe mitral regurgitation" 2:3 2:5\n'
            'c="tylenol" 3:0 3:0||r="TrNAP"||c="transaminitis" 3:5 3:5\n'
        ),
    },
    "record-03": {
        "txt": (
            "A repeat CT scan was negative for any new hemorrhage .\n"
            "The patient developed a rash which was felt to be secondary to the "
            "Dilantin , so it was discontinued .\n"
            "His chronic back pain radiates with the numbness in both legs .\n"
        ),
        "con": (
            'c="a repeat ct scan" 1:0 1:3||t="test"\n'
            'c="any new hemorrhage" 1:7 1:9||t="problem"\n'
            'c="a rash" 2:3 2:4||t="problem"\n'
            'c="the dilantin" 2:12 2:13||t="treatment"\n'
            'c="his chronic back pain" 3:0 3:3||t="problem"\n'
            'c="the numbness" 3:6 3:7||t="problem"\n'
        ),
        "rel": (
            'c="a repeat ct scan" 1:0 1:3||r="TeCP"||c="any new hemorrhage" 1:7 1:9\n'
            'c="a rash" 2:3 2:4||r="TrCP"||c="the dilantin" 2:12 2:13\n'
            'c="his chronic back pain" 3:0 3:3||r="PIP"||c="the numbness" 3:6 3:7\n'
        ),
    },
}


def write_raw_corpus(root: Path, layout: str = "adjacent") -> Path:
    """Materialize the fixture corpus under ``root``; returns the input dir."""
    root.mkdir(parents=True, exist_ok=True)
    if layout == "adjacent":
        for doc_id, parts in RAW_DOCS.items():
            (root / f"{doc_id}.txt").write_text(parts["txt"])
            (root / f"{doc_id}.con").write_text(parts["con"])
            (root / f"{doc_id}.rel").write_text(parts["rel"])
        return root
    if layout == "parallel":
        for sub, ext in (("txt", "txt"), ("concept", "con"), ("rel", "rel")):
            (root / sub).mkdir(exist_ok=True)
        for doc_id, parts in RAW_DOCS.items():
            (root / "txt" / f"{doc_id}.txt").write_text(parts["txt"])
            (root / "concept" / f"{doc_id}.con").write_text(parts["con"])
            (root / "rel" / f"{doc_id}.rel").write_text(parts["rel"])
        return root
    raise ValueError(f"unknown layout {layout!r}")


@pytest.fixture
def raw_corpus(tmp_path: Path) -> Path:
    return write_raw_corpus(tmp_path / "raw")
