"""Shared fixtures and builders for the test suite.

Provides the things the individual test modules lean on:

* a hypothesis profile tuned for deterministic CI runs,
* builders for random-but-valid relation instances of any label
  (``build_instance`` / ``encoded_instance``) and for a corpus that spans
  all three categories (``three_category_corpus``: one spec of the
  ``THREE_CATEGORY_RULES``, so one ``generate`` call with unique keys),
* reference helpers: ``finite_diff_grad`` takes central-difference
  gradients, ``grad_max_rel_err`` compares analytic gradients (row
  gradients densified) with them, and
  ``prf_reference`` scores one (tp, fp, fn) triple in Python floats,
  ``micro_from_confusion`` recomputes micro scores from a confusion
  matrix alone, ``bootstrap_ci_reference`` resamples through ``evaluate``,
  ``write_ledger_reference``, ``write_instances_reference`` and
  ``write_predictions_reference`` are the JSON writers that encoded each
  ledger with ``asdict`` and each line with its own ``json.dumps``,
  ``generate_reference`` and ``encode_reference`` are the per-word
  generator and per-instance encoder the oracle tests compare against,
  ``pooled_windows_columns`` runs the convolution stages in the column
  layout the windows-as-rows layout replaced, ``relu_map_pooling`` pools
  the feature map after its bias and relu, as training did before it
  pooled the raw map, ``backward_reference`` is
  ``backward`` as it summed the word rows before instances kept their word
  layout (in either layout), ``features_reference`` and its stages
  (``embed_sentence_reference``, ``pool_reference``, ...) are the forward
  stages through numpy's Python-level forms, and ``log_sum_exp_reference``
  is the loss's normalizer through ``np.max``/``np.sum``,
  ``rewrite_checkpoint_meta`` makes older-format or hand-edited
  checkpoints, ``word_id`` looks one word up in a vocabulary and
  ``tokenize_normalize`` tokenizes one raw line, and
* a small hand-written raw corpus in the classic clinical-annotation
  layout (``write_raw_corpus``) used by the CLI and end-to-end tests.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from itertools import accumulate
from pathlib import Path
from typing import Callable, Mapping, Sequence, Union

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from relcnn.cli import _instance_key
from relcnn.corpus import (
    Concept,
    RelationInstance,
    ReplacedInstance,
    instance_to_dict,
    replace_concepts,
    tokenize_with_alignment,
)
from relcnn.encoding import (
    CTYPE_IDS,
    PAD_ID,
    UNK_ID,
    EncoderConfig,
    EncodedInstance,
    Vocab,
    build_vocab,
    encode,
)
from relcnn.evaluator import Micro, evaluate
from relcnn.model import (
    ALL_ROWS,
    LOSS_SOFTMAX,
    PREDICT_CHUNK,
    ForwardTrace,
    HyperParams,
    ModelParams,
    RowGrad,
    WindowTrace,
    _chunk_bounds,
    _padded_ids,
    _row_sums,
    _sum_rows,
    embed_sentence,
    init_params,
    loss_classes,
    pool,
    score,
)
from relcnn.numeric import relu, softmax
from relcnn.relations import (
    CATEGORY_OF,
    CATEGORY_PAIR,
    CLASS_INDEX,
    N_CLASSES,
    POSITIVE_TYPES,
    RELATION_TYPES,
    ConceptType,
    RelationType,
)
from relcnn.synthgen import (
    AFTER_C2,
    BEFORE_C1,
    BETWEEN,
    DEFAULT_SIGNAL,
    LabelRule,
    LedgerEntry,
    SynthLedger,
    SynthSpec,
    _signal_slot_range,
    generate,
)

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# One placement task per category: each label's signal lands in its own region.
_CATEGORY_TASKS = (
    (RelationType.TRIP, RelationType.TRWP, RelationType.NTRP),
    (RelationType.TERP, RelationType.TECP, RelationType.NTEP),
    (RelationType.PIP, RelationType.NPP),
)
THREE_CATEGORY_RULES = tuple(
    LabelRule(label, placement, DEFAULT_SIGNAL)
    for labels in _CATEGORY_TASKS
    for label, placement in zip(labels, (BEFORE_C1, AFTER_C2, BETWEEN))
)


def three_category_corpus(sentences_per_type: int, seed: int) -> list[RelationInstance]:
    """One ``generate`` corpus of all three categories: in each, the first
    label's signal lies before the first concept, the second's after the
    second concept, the third's between them."""
    spec = SynthSpec(rules=THREE_CATEGORY_RULES, sentences_per_type=sentences_per_type, seed=seed)
    return generate(spec)[0]


_WORDS = [f"tok{i}" for i in range(40)]
_CONCEPT_WORDS = [f"ent{i}" for i in range(12)]


def build_instance(
    rng: np.random.Generator,
    gold: RelationType,
    *,
    swap_ok: bool = True,
    max_span: int = 3,
    pre: int | None = None,
    post: int | None = None,
) -> RelationInstance:
    """Random valid instance whose concept pair matches ``gold``'s category.

    `pre` and `post`, when given, fix the number of tokens before the first
    and after the second concept.
    """
    ct1, ct2 = CATEGORY_PAIR[CATEGORY_OF[gold]]
    if swap_ok and ct1 != ct2 and rng.random() < 0.5:
        ct1, ct2 = ct2, ct1
    l1 = int(rng.integers(1, max_span + 1))
    l2 = int(rng.integers(1, max_span + 1))
    drawn_pre = int(rng.integers(0, 4))
    mid = int(rng.integers(1, 5))
    drawn_post = int(rng.integers(0, 4))
    pre = drawn_pre if pre is None else pre
    post = drawn_post if post is None else post

    def fill(n: int) -> list[str]:
        return [_WORDS[int(i)] for i in rng.integers(0, len(_WORDS), size=n)]

    c1_words = [_CONCEPT_WORDS[int(i)] for i in rng.integers(0, len(_CONCEPT_WORDS), size=l1)]
    c2_words = [_CONCEPT_WORDS[int(i)] for i in rng.integers(0, len(_CONCEPT_WORDS), size=l2)]
    tokens = fill(pre) + c1_words + fill(mid) + c2_words + fill(post)
    # spans are 1-based inclusive
    c1 = Concept(start=pre + 1, end=pre + l1, ctype=ct1)
    c2 = Concept(start=pre + l1 + mid + 1, end=pre + l1 + mid + l2, ctype=ct2)
    return RelationInstance(
        tokens=tokens, concept1=c1, concept2=c2, gold=gold,
        doc_id=f"fab-{int(rng.integers(0, 10 ** 6)):06d}", sent_index=1,
    )


def shared_vocab(enc_cfg: EncoderConfig) -> Vocab:
    """Vocabulary covering every word ``build_instance`` can emit."""
    tokens = _WORDS + _CONCEPT_WORDS
    c1 = Concept(start=1, end=1, ctype=ConceptType.TEST)
    c2 = Concept(start=2, end=2, ctype=ConceptType.PROBLEM)
    inst = RelationInstance(tokens=list(tokens), concept1=c1, concept2=c2,
                            gold=RelationType.TERP)
    return build_vocab([inst], enc_cfg)


def encoded_instance(
    rng: np.random.Generator,
    gold: RelationType,
    vocab: Vocab,
    enc_cfg: EncoderConfig,
) -> EncodedInstance:
    return encode([replace_concepts(build_instance(rng, gold))], vocab, enc_cfg)[0]


TOY_ENC = EncoderConfig(max_distance=8, concept_len=3, min_word_freq=1)


def toy_hp(**overrides) -> HyperParams:
    base = dict(d_w=4, d_p=2, d_ct=3, d_c=3, windows=(2,), dropout_p=0.0,
                beta=0.0005, lr=0.05)
    base.update(overrides)
    return HyperParams(**base)


def toy_params(hp: HyperParams, vocab: Vocab, enc_cfg: EncoderConfig,
               seed: int = 0) -> ModelParams:
    rng = np.random.default_rng(seed)
    return init_params(hp, vocab.n_words, vocab.n_positions, enc_cfg.concept_len, rng)


# ---------------------------------------------------------------------------
# Reference helpers
# ---------------------------------------------------------------------------


def densify(grad: RowGrad, table: np.ndarray) -> np.ndarray:
    """The dense gradient a row gradient stands for: decay * W plus its rows."""
    dense = grad.decay * table
    np.add.at(dense, grad.ids, grad.rows)
    return dense


ArrayMap = Mapping[str, np.ndarray]


def _as_array_map(params: Union[ArrayMap, object]) -> ArrayMap:
    arrays = getattr(params, "arrays", None)
    if callable(arrays):
        return arrays()
    if isinstance(params, Mapping):
        return params
    raise TypeError(f"expected a name->array mapping or object with .arrays(), got {type(params)}")


def finite_diff_grad(
    f: Callable[..., float],
    params: Union[ArrayMap, object],
    epsilon: float = 1e-5,
) -> dict[str, np.ndarray]:
    """Central-difference gradient of a scalar function of `params`.

    `params` is either a name->array mapping or an object exposing
    ``.arrays()`` (e.g. ModelParams).  Each coordinate is perturbed in
    place by +/- epsilon and `f(params)` re-evaluated; the original value
    is restored afterwards.  Returns one gradient array per parameter
    array, same keys and shapes.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    arrays = _as_array_map(params)
    grads: dict[str, np.ndarray] = {}
    for name, arr in arrays.items():
        grad = np.zeros_like(arr)
        flat, gflat = arr.ravel(), grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            f_plus = float(f(params))
            flat[i] = orig - epsilon
            f_minus = float(f(params))
            flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise ValueError(f"non-finite objective while perturbing {name}[{i}]")
            gflat[i] = (f_plus - f_minus) / (2.0 * epsilon)
        grads[name] = grad
    return grads


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


def prf_reference(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """Precision, recall and F1 in percent of one count triple, in Python floats."""
    p = 100.0 * tp / (tp + fp) if tp + fp else 0.0
    r = 100.0 * tp / (tp + fn) if tp + fn else 0.0
    f1 = 2.0 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


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
    return Micro(*prf_reference(tp, fp, fn))


def bootstrap_ci_reference(gold, pred, resamples: int, seed: int) -> dict[str, tuple[float, float]]:
    """Percentile bootstrap that rebuilds label lists and calls `evaluate` per resample."""
    n = len(gold)
    stats = np.empty((resamples, 3))
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(resamples)):
        idx = np.random.default_rng(child).integers(0, n, size=n)
        m = evaluate([gold[j] for j in idx], [pred[j] for j in idx]).micro
        stats[i] = (m.p, m.r, m.f1)
    out: dict[str, tuple[float, float]] = {}
    for col, name in enumerate(("micro_p", "micro_r", "micro_f1")):
        lo, hi = np.percentile(stats[:, col], [2.5, 97.5])
        out[name] = (float(lo), float(hi))
    return out


# ---------------------------------------------------------------------------
# Reference JSON writers: `asdict` over the whole ledger, and a fresh
# `json.dumps` encoder for every instance and prediction line.  The CLI
# must write the same bytes.
# ---------------------------------------------------------------------------


def write_ledger_reference(path: Path, ledger: SynthLedger) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(ledger), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_instances_reference(path: Path, instances: Sequence[RelationInstance]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for inst in instances:
            fh.write(json.dumps(instance_to_dict(inst), ensure_ascii=False) + "\n")


def write_predictions_reference(
    path: Path,
    instances: Sequence[RelationInstance],
    labels: Sequence[RelationType],
    probs: np.ndarray,
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for inst, label, row in zip(instances, labels, probs.tolist()):
            rec = {
                "key": _instance_key(inst),
                "doc": inst.doc_id,
                "sent": inst.sent_index,
                "gold": inst.gold.value,
                "pred": label.value,
                "probs": {t.value: p for t, p in zip(RELATION_TYPES, row)},
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Reference generator and encoder: the per-word synthgen.generate and the
# per-instance encoding.encode that the table-driven generator and the
# one-pass encoder replaced, kept verbatim as oracles.
# ---------------------------------------------------------------------------

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _suffix(i: int, width: int = 3) -> str:
    out = []
    for _ in range(width):
        out.append(_LETTERS[i % 26])
        i //= 26
    return "".join(reversed(out))


def filler_word(i: int) -> str:
    return "w" + _suffix(i)


def concept_word(i: int) -> str:
    return "cw" + _suffix(i)


def generate_reference(spec: SynthSpec) -> tuple[list[RelationInstance], SynthLedger]:
    """Materialize the corpus and its ledger.

    Instances are generated independently, one spawned RNG stream each,
    so output is deterministic in the seed and insensitive to generation
    order.  Gold labels follow the instance's rule except that with
    probability noise_rate the label flips to another rule's label
    (ledger records both truth and flip).
    """
    total = len(spec.rules) * spec.sentences_per_type
    streams = np.random.SeedSequence(spec.seed).spawn(total)
    labels = sorted({r.label for r in spec.rules}, key=lambda t: t.value)
    instances: list[RelationInstance] = []
    ledger = SynthLedger(spec=spec)
    idx = 0
    for rule in spec.rules:
        s = len(rule.signal)
        p1_lo, gap, tail = spec.geometry(s)
        for _ in range(spec.sentences_per_type):
            rng = np.random.default_rng(streams[idx])
            n = int(rng.integers(spec.len_lo, spec.len_hi + 1))
            p2_hi = n - tail
            p1 = int(rng.integers(p1_lo, p2_hi - gap + 1))
            p2 = int(rng.integers(p1 + gap, p2_hi + 1))
            lo, hi = _signal_slot_range(rule.placement, p1, p2, n, s)
            start = int(rng.integers(lo, hi + 1))

            words = [filler_word(int(i)) for i in rng.integers(0, spec.vocab_size, n)]
            for off, w in enumerate(rule.signal):
                words[start - 1 + off] = w
            distractor_start: int | None = None
            if spec.distractor_placement is not None:
                dlo, dhi = _signal_slot_range(spec.distractor_placement, p1, p2, n, s)
                distractor_start = int(rng.integers(dlo, dhi + 1))
                for off, w in enumerate(rule.signal):
                    words[distractor_start - 1 + off] = w
            taken = {p1, p2} | set(range(start, start + s))
            if distractor_start is not None:
                taken |= set(range(distractor_start, distractor_start + s))
            free = [pos for pos in range(1, n + 1) if pos not in taken]
            extra = spec.n_concepts - 2
            if extra:
                for pos_i in rng.choice(len(free), size=extra, replace=False):
                    words[free[int(pos_i)] - 1] = concept_word(
                        int(rng.integers(0, spec.concept_vocab_size))
                    )

            flipped = spec.noise_rate > 0 and bool(rng.random() < spec.noise_rate)
            gold = rule.label
            if flipped:
                others = [t for t in labels
                          if t != rule.label and CATEGORY_OF[t] == CATEGORY_OF[rule.label]]
                gold = others[int(rng.integers(0, len(others)))]

            m = spec.concept_tokens
            c1_words = [
                concept_word(int(i)) for i in rng.integers(0, spec.concept_vocab_size, m)
            ]
            c2_words = [
                concept_word(int(i)) for i in rng.integers(0, spec.concept_vocab_size, m)
            ]
            tokens: list[str] = []
            for pos in range(1, n + 1):
                if pos == p1:
                    tokens.extend(c1_words)
                elif pos == p2:
                    tokens.extend(c2_words)
                else:
                    tokens.append(words[pos - 1])
            ct1, ct2 = CATEGORY_PAIR[CATEGORY_OF[rule.label]]
            c1 = Concept(start=p1, end=p1 + m - 1, ctype=ct1)
            c2_start = p2 + (m - 1)
            c2 = Concept(start=c2_start, end=c2_start + m - 1, ctype=ct2)
            inst = RelationInstance(
                tokens=tokens,
                concept1=c1,
                concept2=c2,
                gold=gold,
                doc_id=f"synth-{idx:05d}",
                sent_index=0,
            )
            inst.validate()
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
            idx += 1
    return instances, ledger


def word_id(vocab: Vocab, token: str) -> int:
    """Id of `token` in `vocab`; <unk>'s id for a word it does not hold."""
    return vocab.word_ids.get(token, UNK_ID)


def tokenize_normalize(sentence: str) -> list[str]:
    """Tokenize and normalize raw text (lowercase, digit runs to "0")."""
    tokens, _ = tokenize_with_alignment(sentence.split())
    return tokens


def _content_ids(vocab: Vocab, tokens: Sequence[str], concept_len: int) -> np.ndarray:
    ids = [word_id(vocab, t) for t in tokens[:concept_len]]
    ids += [PAD_ID] * (concept_len - len(ids))
    return np.asarray(ids, dtype=np.int64)


def encode_reference(inst: ReplacedInstance, vocab: Vocab, cfg: EncoderConfig) -> EncodedInstance:
    """Map a replaced instance into index space.

    Position ids at token i are clip(i - p1) and clip(i - p2).  Concept
    contents come from the concept's slice of the original (pre-replacement)
    sentence, padded with <pad> to concept_len or truncated to the first
    concept_len tokens.
    """
    word_ids = vocab.word_ids
    token_ids = np.asarray([word_ids.get(t, UNK_ID) for t in inst.tokens], dtype=np.int64)
    idx = np.arange(1, len(inst.tokens) + 1, dtype=np.int64)
    pos1_ids = vocab.position_id(idx - inst.p1)
    pos2_ids = vocab.position_id(idx - inst.p2)
    orig = inst.original
    c1, c2 = orig.concept1, orig.concept2
    return EncodedInstance(
        token_ids=token_ids,
        pos1_ids=pos1_ids,
        pos2_ids=pos2_ids,
        ctype_ids=(CTYPE_IDS[orig.concept1.ctype], CTYPE_IDS[orig.concept2.ctype]),
        content1_ids=_content_ids(vocab, orig.tokens[c1.start - 1 : c1.end], cfg.concept_len),
        content2_ids=_content_ids(vocab, orig.tokens[c2.start - 1 : c2.end], cfg.concept_len),
        p1=inst.p1,
        p2=inst.p2,
        gold=orig.gold,
        category=orig.category,
    )


def assert_same_encodings(got: list[EncodedInstance], want: list[EncodedInstance]) -> None:
    """Equal instance by instance: arrays in values and dtype, other fields by ==."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for name, value in vars(w).items():
            if isinstance(value, np.ndarray):
                assert getattr(g, name).dtype == value.dtype, name
                np.testing.assert_array_equal(getattr(g, name), value, err_msg=name)
            else:
                assert getattr(g, name) == value, name


# ---------------------------------------------------------------------------
# Reference column layout: the convolution stages as they ran while X held one
# window per column, (k d_x, windows), and Z one filter per row, (d_c, windows),
# kept verbatim as oracles for the windows-as-rows layout.
# ---------------------------------------------------------------------------


def embed_sentence_columns(
    tok: np.ndarray,
    pos1: np.ndarray,
    pos2: np.ndarray,
    lengths: Sequence[int],
    params: ModelParams,
    k: int,
) -> np.ndarray:
    """Windowed embedding matrix X, one window per column, C-contiguous."""
    E = np.concatenate([params.word_rows(tok), params.w_pos[pos1], params.w_pos[pos2]], axis=1)
    n, d_x = E.shape
    step = E.itemsize
    windows = np.ndarray((k * d_x, n - k + 1), E.dtype, buffer=E, strides=(step, d_x * step))
    starts = accumulate(lengths[:-1], initial=0)
    X = np.empty((k * d_x, n - len(lengths) * (k - 1)))
    return np.concatenate(
        [windows[:, s : s + m - k + 1] for s, m in zip(starts, lengths)], axis=1, out=X
    )


def convolve_columns(X: np.ndarray, w_conv: np.ndarray) -> np.ndarray:
    """The raw feature map Z = W_conv X, one window per column."""
    return w_conv @ X


def pool_columns(
    Z: np.ndarray, bounds: Sequence[tuple[int, int] | None]
) -> tuple[np.ndarray, np.ndarray]:
    """Columnwise max and first argmax column over each 1-based inclusive column range."""
    d_c = Z.shape[0]
    Zt = Z.T.copy()  # the columns of a range are a block of rows of Zt
    pooled = np.zeros((len(bounds), d_c))
    arg = np.full((len(bounds), d_c), -1)
    for i, rng in enumerate(bounds):
        if rng is not None:
            block = Zt[rng[0] - 1 : rng[1]]
            np.maximum.reduce(block, axis=0, out=pooled[i])
            block.argmax(axis=0, out=arg[i])
            arg[i] += rng[0] - 1
    return pooled.ravel(), arg


def pooled_windows_columns(
    encs: Sequence[EncodedInstance], params: ModelParams, hp: HyperParams
) -> tuple[np.ndarray, list[WindowTrace]]:
    """The pooled blocks r_x of ``model._features`` with its traces, through the
    column-layout stages: each segment's maxima and first argmax column of the raw map,
    then the bias and relu on the maxima, and zeros for an empty segment."""
    windows: list[WindowTrace] = []
    for j, k in enumerate(hp.windows):
        tok, pos1, pos2, lengths = _padded_ids(encs, params, k)
        X = embed_sentence_columns(tok, pos1, pos2, lengths, params, k)
        bounds = _chunk_bounds(encs, lengths, k, hp.pooling)
        maxima, arg = pool_columns(convolve_columns(X, params.w_conv[j]), bounds)
        pooled = relu(maxima.reshape(arg.shape) + params.b_conv[j])
        pooled[np.array([rng is None for rng in bounds])] = 0.0
        windows.append(WindowTrace(k, tok, pos1, pos2, X, arg, pooled.ravel()))
    r_x = np.concatenate([wt.pooled.reshape(len(encs), -1) for wt in windows], axis=1)
    return r_x, windows


def relu_map_pooling(
    encs: Sequence[EncodedInstance], params: ModelParams, hp: HyperParams
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per window size, a chunk's pooled blocks (one row per instance) and argmax rows
    as they stood before pooling ran on the raw feature map: the bias and relu over
    every window of X W_conv^T, then each segment's maxima, zeros for an empty
    segment, and first argmax row (``pool``)."""
    out = []
    for j, k in enumerate(hp.windows):
        tok, pos1, pos2, lengths = _padded_ids(encs, params, k)
        Z = embed_sentence(tok, pos1, pos2, lengths, params, k) @ params.w_conv[j].T
        Z += params.b_conv[j]
        pooled, arg = pool(relu(Z, out=Z), _chunk_bounds(encs, lengths, k, hp.pooling))
        out.append((pooled.reshape(len(encs), -1), arg))
    return out


def score_chunk_reference(
    encs: Sequence[EncodedInstance], params: ModelParams, hp: HyperParams
) -> np.ndarray:
    """``model.score_chunk`` as it stood before inference pooled the raw feature map:
    the pooled blocks of bias -> relu -> max (``relu_map_pooling``) and the concept
    features each concatenated, and ``score`` concatenating them again."""
    n = len(encs)
    blocks = [pooled for pooled, _ in relu_map_pooling(encs, params, hp)]
    words = np.concatenate([ids for enc in encs for ids in (enc.content1_ids, enc.content2_ids)])
    cf_x = np.concatenate(
        [params.w_ctype[[enc.ctype_ids for enc in encs]].reshape(n, -1),
         params.word_rows(words).reshape(n, -1)],
        axis=1,
    )
    return score(np.concatenate(blocks, axis=1), cf_x, params)


def predict_batch_reference(
    encs: Sequence[EncodedInstance], params: ModelParams, hp: HyperParams
) -> tuple[list[RelationType], np.ndarray]:
    """``model.predict_batch`` as it stood before inference pooled the raw feature map:
    ``score_chunk_reference`` in chunks of PREDICT_CHUNK, the decode mask of the
    constrained loss, and ``numeric.softmax`` of the masked scores."""
    scores = np.zeros((len(encs), N_CLASSES))
    for lo in range(0, len(encs), PREDICT_CHUNK):
        scores[lo : lo + PREDICT_CHUNK] = score_chunk_reference(
            encs[lo : lo + PREDICT_CHUNK], params, hp
        )
    if hp.loss != LOSS_SOFTMAX:
        for row, enc in zip(scores, encs):
            classes = loss_classes(enc.category, hp)
            row[: classes.start] = row[classes.stop :] = -np.inf
    return [RELATION_TYPES[i] for i in np.argmax(scores, axis=1)], softmax(scores)


def backward_reference(
    trace: ForwardTrace, params: ModelParams, hp: HyperParams, columns: bool = False
) -> dict[str, RowGrad]:
    """``model.backward`` as it stood before an instance kept its word layout, without
    the `out` buffers or the revision check: the class gradient zero-filled and then
    written by ``np.outer``, and the word rows summed by ``_sum_rows`` over the
    concatenated ids of the concept contents and of each window's padded tokens.
    With `columns`, the trace's windows hold the column layout
    (``pooled_windows_columns``) and the convolution stages run in it."""
    enc = trace.enc
    decay = 2.0 * hp.beta
    classes = loss_classes(enc.category, hp)
    ds = np.zeros(N_CLASSES)
    ds[classes] = softmax(trace.scores[classes])
    ds[CLASS_INDEX[enc.gold]] -= 1.0

    g_classes = np.zeros_like(params.w_classes)
    active = np.outer(ds[classes], trace.rc_dropped, out=g_classes[classes])
    active += decay * params.w_classes[classes]
    grads = {"w_classes": RowGrad(ALL_ROWS, g_classes, 0.0, params.w_classes.shape)}

    drc = (params.w_classes.T @ ds) * trace.dropout_mask
    dr_x = drc[: hp.pooled_size]
    dcf = drc[hp.pooled_size :]

    ct1, ct2 = enc.ctype_ids
    g_ctype = np.zeros_like(params.w_ctype)
    g_ctype[ct1] += dcf[: hp.d_ct]
    g_ctype[ct2] += dcf[hp.d_ct : 2 * hp.d_ct]
    grads["w_ctype"] = RowGrad(ALL_ROWS, g_ctype, decay, params.w_ctype.shape)
    content_ids = np.concatenate([enc.content1_ids, enc.content2_ids])
    word_ids = [content_ids]
    word_rows = [dcf[2 * hp.d_ct :].reshape(content_ids.shape[0], hp.d_w)]
    pos_ids: list[np.ndarray] = []
    pos_rows: list[np.ndarray] = []

    per = hp.pooled_per_window
    for j, wt in enumerate(trace.windows):
        dr_w = dr_x[j * per : (j + 1) * per].reshape(wt.argmax_cols.shape)
        live = (wt.pooled > 0.0).reshape(wt.argmax_cols.shape)
        if columns:  # the map is (d_c, ncols), X is (d_x * k, ncols)
            dpre = np.zeros((hp.d_c, wt.X.shape[1]))
            dpre[np.nonzero(live)[1], wt.argmax_cols[live]] = dr_w[live]
            data = dpre @ wt.X.T
            bias = np.sum(dpre, axis=1)
            dX = (params.w_conv[j].T @ dpre).T
        else:
            dpre = np.zeros((wt.X.shape[0], hp.d_c))
            dpre[wt.argmax_cols[live], np.nonzero(live)[1]] = dr_w[live]
            data = dpre.T @ wt.X
            bias = np.sum(dpre, axis=0)
            dX = dpre @ params.w_conv[j]
        grads[f"w_conv_{j}"] = RowGrad(ALL_ROWS, data, decay, params.w_conv[j].shape)
        grads[f"b_conv_{j}"] = RowGrad(ALL_ROWS, bias, 0.0, params.b_conv[j].shape)

        ncols = dX.shape[0]  # (ncols, d_x * k), one window per row
        dE = np.zeros((wt.token_ids.shape[0], hp.d_x))
        for off in range(wt.k):
            dE[off : off + ncols] += dX[:, off * hp.d_x : (off + 1) * hp.d_x]
        word_ids.append(wt.token_ids)
        word_rows.append(dE[:, : hp.d_w])
        pos_ids += [wt.pos1_ids, wt.pos2_ids]
        pos_rows += [dE[:, hp.d_w : hp.d_w + hp.d_p], dE[:, hp.d_w + hp.d_p :]]

    ids, rows = _sum_rows(np.concatenate(word_ids), np.concatenate(word_rows))
    grads["w_word"] = RowGrad(ids, rows, decay, params.w_word.shape)
    g_pos = _row_sums(np.concatenate(pos_ids), np.concatenate(pos_rows), params.w_pos.shape[0])
    grads["w_pos"] = RowGrad(ALL_ROWS, g_pos, decay, params.w_pos.shape)
    return grads


# ---------------------------------------------------------------------------
# The forward stages through numpy's Python-level forms, as they stood before the
# stages moved to C-level equivalents: fancy-index gathers, ``np.full`` fills, each
# sentence's windows sliced and joined by ``concatenate``, ``np.max``/``np.sum``.
# Oracles that pin the stages to the same bits.
# ---------------------------------------------------------------------------


def word_rows_reference(params: ModelParams, ids: np.ndarray) -> np.ndarray:
    rows = params.w_word[ids]
    if params.word_scale != 1.0:
        rows *= params.word_scale
    return rows


def embed_sentence_reference(
    tok: np.ndarray,
    pos1: np.ndarray,
    pos2: np.ndarray,
    lengths: Sequence[int],
    params: ModelParams,
    k: int,
) -> np.ndarray:
    """``model.embed_sentence`` through fancy-index gathers and per-sentence slices of
    the window view joined by ``concatenate``."""
    E = np.concatenate(
        [word_rows_reference(params, tok), params.w_pos[pos1], params.w_pos[pos2]], axis=1
    )
    n, d_x = E.shape
    step = E.itemsize
    windows = np.ndarray((n - k + 1, k * d_x), E.dtype, buffer=E, strides=(d_x * step, step))
    starts = accumulate(lengths[:-1], initial=0)
    X = np.empty((n - len(lengths) * (k - 1), k * d_x))
    return np.concatenate([windows[s : s + m - k + 1] for s, m in zip(starts, lengths)], out=X)


def pool_reference(
    Z: np.ndarray,
    bounds: Sequence[tuple[int, int] | None],
    argmax: bool = True,
    empty: float = 0.0,
) -> tuple[np.ndarray, np.ndarray | None]:
    """``model.pool`` with its outputs filled by ``np.full`` first."""
    d_c = Z.shape[1]
    pooled = np.full((len(bounds), d_c), empty)
    arg = np.full((len(bounds), d_c), -1) if argmax else None
    for i, rng in enumerate(bounds):
        if rng is not None:
            block = Z[rng[0] - 1 : rng[1]]
            np.maximum.reduce(block, axis=0, out=pooled[i])
            if arg is not None:
                block.argmax(axis=0, out=arg[i])
                arg[i] += rng[0] - 1
    return pooled.ravel(), arg


def concept_features_reference(
    encs: Sequence[EncodedInstance], params: ModelParams
) -> np.ndarray:
    """``model.concept_features`` as the concatenation of the gathered type and word rows."""
    ctypes = [enc.ctype_ids for enc in encs]
    words = np.concatenate([ids for enc in encs for ids in (enc.content1_ids, enc.content2_ids)])
    return np.concatenate(
        [
            params.w_ctype[ctypes].reshape(len(encs), -1),
            word_rows_reference(params, words).reshape(len(encs), -1),
        ],
        axis=1,
    )


def features_reference(
    encs: Sequence[EncodedInstance], params: ModelParams, hp: HyperParams, traced: bool
) -> tuple[np.ndarray, list[WindowTrace]]:
    """``model._features`` through the reference stages: the bias added into rc's
    strided blocks, relu in place there, and the concept features copied in."""
    n = len(encs)
    rc = np.empty((n, params.w_classes.shape[1]))
    per = hp.pooled_per_window
    windows: list[WindowTrace] = []
    for j, k in enumerate(hp.windows):
        tok, pos1, pos2, lengths = _padded_ids(encs, params, k)
        X = embed_sentence_reference(tok, pos1, pos2, lengths, params, k)
        bounds = _chunk_bounds(encs, lengths, k, hp.pooling)
        maxima, arg = pool_reference(X @ params.w_conv[j].T, bounds, traced, -np.inf)
        pooled = rc[:, j * per : (j + 1) * per]
        blocks = pooled.reshape(n, hp.n_segments, hp.d_c)
        np.add(maxima.reshape(blocks.shape), params.b_conv[j], out=blocks)
        relu(blocks, out=blocks)
        if traced:
            windows.append(WindowTrace(k, tok, pos1, pos2, X, arg, pooled.reshape(-1)))
    rc[:, hp.pooled_size :] = concept_features_reference(encs, params)
    return rc, windows


def log_sum_exp_reference(s: np.ndarray) -> float:
    m = float(np.max(s))
    return m + float(np.log(np.sum(np.exp(s - m))))


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


def rewrite_checkpoint_arrays(src: Path, dst: Path, edit) -> None:
    """Copy checkpoint `src` to `dst` (an .npz path) with `edit(arrays)` applied to
    its dict of arrays, ``__meta__`` included."""
    with np.load(src) as data:
        arrays = {name: data[name] for name in data.files}
    edit(arrays)
    np.savez(dst, **arrays)


def rewrite_checkpoint_meta(src: Path, dst: Path, edit) -> None:
    """Copy checkpoint `src` to `dst` (an .npz path) with `edit(meta)` applied to its meta."""

    def edit_meta(arrays: dict) -> None:
        meta = json.loads(str(arrays["__meta__"][()]))
        edit(meta)
        arrays["__meta__"] = np.array(json.dumps(meta, sort_keys=True))

    rewrite_checkpoint_arrays(src, dst, edit_meta)


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
