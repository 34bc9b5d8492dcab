"""The CNN classifier: forward pass, the loss, and hand-written gradients.

Architecture per instance (sentence of n tokens with placeholders at
p1 < p2):

* every token becomes ``[word_vec; pos1_vec; pos2_vec]`` of size
  d_x = d_w + 2 d_p (one shared position table serves both distance
  channels),
* windows of k consecutive token vectors are stacked into the columns of
  X (shape d_x k by n-k+1) and convolved: Z = relu(W_conv X + b),
* max-pooling runs either over all columns ("max") or independently over
  the three column segments delimited by the placeholders ("multi"),
  concatenating the results; empty segments pool to zero vectors,
* the pooled vector is joined with concept features (two concept-type
  vectors plus the word vectors of both original concept contents, padded
  to a fixed length) and, after inverted dropout, scored against one row
  per relation type.

Both losses are one cross-entropy whose normalization and class-row L2
penalty run over a sample's loss classes (``loss_classes``): every class
under the "softmax" loss, the classes of the sample's category under the
"constrained" loss, so rows outside the category receive exactly zero
gradient.  ``backward`` produces analytic gradients for every parameter;
``numeric.finite_diff_grad`` is the independent check.

The word table grows with the vocabulary, but one sample looks up only its
own tokens and concept words.  Its gradient is therefore a ``RowGrad``:
the summed rows of the looked-up ids plus the L2 term as one coefficient,
and ``apply_sgd`` applies the decay as a single in-place scale of the
table (Bottou, "Stochastic Gradient Descent Tricks", 2012).  The update is
still W <- W - lr (g + 2 beta W); only the float rounding differs from
the dense form.

Multi-window models (e.g. windows=(3, 4, 5)) run one filter bank per
window size and concatenate the pooled outputs before scoring.

At inference the parameters are fixed, so ``predict_batch`` scores
PREDICT_CHUNK instances at a time with one GEMM per window size
(``score_chunk``).  Training and ``predict`` keep the per-instance
``forward``.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .encoding import EncodedInstance, EncoderConfig, PAD_ID, segment_bounds
from .numeric import glorot_init, log_sum_exp, relu, softmax
from .relations import (
    CATEGORY_CLASS_IDS,
    CLASS_INDEX,
    Category,
    ConceptType,
    N_CLASSES,
    RELATION_TYPES,
    RelationType,
)

POOL_MAX = "max"
POOL_MULTI = "multi"
LOSS_SOFTMAX = "softmax"
LOSS_CONSTRAINED = "constrained"

# Instances per batched scoring pass (``predict_batch``).  The pass holds a
# chunk's window matrix and feature maps at once, so peak memory grows with it.
PREDICT_CHUNK = 16


class StaleTraceError(RuntimeError):
    """Backward was called with parameters updated since the forward pass."""


@dataclass(frozen=True)
class HyperParams:
    """Model sizes and training behaviour.

    Defaults are the selected values from the reference configuration:
    word embeddings 50, concept-type embeddings 5, position embeddings 10,
    200 filters with window size 4, dropout 0.5, learning rate 0.075 and
    L2 coefficient 0.0005.
    """

    d_w: int = 50
    d_p: int = 10
    d_ct: int = 5
    d_c: int = 200
    windows: tuple[int, ...] = (4,)
    dropout_p: float = 0.5
    pooling: str = POOL_MULTI
    loss: str = LOSS_SOFTMAX
    beta: float = 0.0005
    lr: float = 0.075

    def __post_init__(self) -> None:
        if min(self.d_w, self.d_p, self.d_ct, self.d_c) < 1:
            raise ValueError(f"embedding/filter sizes must be >= 1: {self}")
        if not self.windows or any(k < 1 for k in self.windows):
            raise ValueError(f"windows must be a nonempty tuple of sizes >= 1: {self.windows}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError(f"dropout_p must lie in [0, 1): {self.dropout_p}")
        if self.pooling not in (POOL_MAX, POOL_MULTI):
            raise ValueError(f"unknown pooling mode {self.pooling!r}")
        if self.loss not in (LOSS_SOFTMAX, LOSS_CONSTRAINED):
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.beta < 0 or self.lr <= 0:
            raise ValueError(f"need beta >= 0 and lr > 0: beta={self.beta}, lr={self.lr}")

    @property
    def d_x(self) -> int:
        return self.d_w + 2 * self.d_p

    @property
    def n_segments(self) -> int:
        return 3 if self.pooling == POOL_MULTI else 1

    @property
    def pooled_per_window(self) -> int:
        return self.n_segments * self.d_c

    @property
    def pooled_size(self) -> int:
        return len(self.windows) * self.pooled_per_window

    def d_cf(self, concept_len: int) -> int:
        return 2 * self.d_ct + 2 * concept_len * self.d_w

    def rc_size(self, concept_len: int) -> int:
        return self.pooled_size + self.d_cf(concept_len)


@dataclass
class ModelParams:
    """All trainable arrays.  `revision` ties forward traces to updates."""

    w_word: np.ndarray  # (n_words, d_w)
    w_pos: np.ndarray  # (2 * max_distance + 1, d_p)
    w_conv: list[np.ndarray]  # per window: (d_c, d_x * k)
    b_conv: list[np.ndarray]  # per window: (d_c,)
    w_ctype: np.ndarray  # (len(ConceptType), d_ct)
    w_classes: np.ndarray  # (N_CLASSES, rc_size)
    revision: int = field(default=0, compare=False)

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray], revision: int = 0) -> "ModelParams":
        """The parameters holding `arrays`, named as ``arrays()`` names them."""
        n_windows = sum(name.startswith("w_conv_") for name in arrays)
        return cls(
            w_word=arrays["w_word"],
            w_pos=arrays["w_pos"],
            w_conv=[arrays[f"w_conv_{i}"] for i in range(n_windows)],
            b_conv=[arrays[f"b_conv_{i}"] for i in range(n_windows)],
            w_ctype=arrays["w_ctype"],
            w_classes=arrays["w_classes"],
            revision=revision,
        )

    def arrays(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {"w_word": self.w_word, "w_pos": self.w_pos}
        for i, (w, b) in enumerate(zip(self.w_conv, self.b_conv)):
            out[f"w_conv_{i}"] = w
            out[f"b_conv_{i}"] = b
        out["w_ctype"] = self.w_ctype
        out["w_classes"] = self.w_classes
        return out

    def copy(self) -> "ModelParams":
        return ModelParams.from_arrays(
            {name: arr.copy() for name, arr in self.arrays().items()}, self.revision
        )


def param_shapes(
    hp: HyperParams, n_words: int | None, n_positions: int | None, concept_len: int
) -> dict[str, tuple[int | None, ...]]:
    """The shape of each trainable array, named and ordered as in ``ModelParams.arrays()``.

    A checkpoint is checked against it with None for the vocabulary-sized
    row counts, which ``predict`` checks against the vocabulary file.
    """
    shapes: dict[str, tuple[int | None, ...]] = {
        "w_word": (n_words, hp.d_w),
        "w_pos": (n_positions, hp.d_p),
    }
    for i, k in enumerate(hp.windows):
        shapes[f"w_conv_{i}"] = (hp.d_c, hp.d_x * k)
        shapes[f"b_conv_{i}"] = (hp.d_c,)
    shapes["w_ctype"] = (len(ConceptType), hp.d_ct)
    shapes["w_classes"] = (N_CLASSES, hp.rc_size(concept_len))
    return shapes


def init_params(
    hp: HyperParams,
    n_words: int,
    n_positions: int,
    concept_len: int,
    rng: np.random.Generator,
) -> ModelParams:
    """Glorot-uniform init for every matrix, drawn in ``param_shapes`` order;
    convolution biases start at zero."""
    shapes = param_shapes(hp, n_words, n_positions, concept_len)
    return ModelParams.from_arrays(
        {
            name: glorot_init(*shape, rng) if len(shape) == 2 else np.zeros(shape)
            for name, shape in shapes.items()
        }
    )


@dataclass
class WindowTrace:
    k: int
    token_ids: np.ndarray
    pos1_ids: np.ndarray
    pos2_ids: np.ndarray
    X: np.ndarray  # (d_x * k, ncols)
    Z: np.ndarray  # (d_c, ncols)
    bounds: list[tuple[int, int] | None]
    argmax_cols: np.ndarray  # (n_segments, d_c); -1 marks an empty segment
    pooled: np.ndarray  # (n_segments * d_c,)


@dataclass
class ForwardTrace:
    """Cached activations of one forward pass, consumed by backward()."""

    enc: EncodedInstance
    windows: list[WindowTrace]
    r_x: np.ndarray
    cf_x: np.ndarray
    rc: np.ndarray
    dropout_mask: np.ndarray
    rc_dropped: np.ndarray
    scores: np.ndarray
    params_revision: int


def _row_sums(ids: np.ndarray, rows: np.ndarray, n_rows: int) -> np.ndarray:
    """(n_rows, d) array holding, per id, the sum of its rows added in the order given.

    Bit for bit what ``np.add.at`` into zeros gives, at a fraction of its
    cost on a few dozen rows: one ``bincount`` over flat (row, column) slots.
    """
    d = rows.shape[1]
    slots = (ids[:, None] * d + np.arange(d)).ravel()
    return np.bincount(slots, weights=rows.ravel(), minlength=n_rows * d).reshape(n_rows, d)


def _sum_rows(ids: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct ids, ascending, and the ``_row_sums`` of each."""
    uniq, inverse = np.unique(ids, return_inverse=True)
    return uniq, _row_sums(inverse, rows, uniq.shape[0])


@dataclass
class RowGrad:
    """Gradient of an embedding table held as its touched rows plus weight decay.

    Stands for the dense gradient ``scatter_add(ids, rows) + decay * W``,
    W being the table it belongs to.  `ids` are distinct and ascending, so
    ``W[ids] -= ...`` writes every row exactly once.  `shape` is the
    table's shape; `nbytes` counts only the arrays held.
    """

    ids: np.ndarray  # (r,) distinct row ids, ascending
    rows: np.ndarray  # (r, d) summed data gradient per row
    decay: float
    shape: tuple[int, int]

    @property
    def nbytes(self) -> int:
        return self.ids.nbytes + self.rows.nbytes

    def __add__(self, other: "RowGrad") -> "RowGrad":
        ids, rows = _sum_rows(
            np.concatenate([self.ids, other.ids]), np.concatenate([self.rows, other.rows])
        )
        return RowGrad(ids, rows, self.decay + other.decay, self.shape)

    def __truediv__(self, n: float) -> "RowGrad":
        return RowGrad(self.ids, self.rows / n, self.decay / n, self.shape)


# ---------------------------------------------------------------------------
# Forward pieces
# ---------------------------------------------------------------------------


def _padded_ids(
    enc: EncodedInstance, params: ModelParams, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Token/position id arrays, extended with <pad> tokens up to length k."""
    n = enc.n_tokens
    if n >= k:
        return enc.token_ids, enc.pos1_ids, enc.pos2_ids
    radius = (params.w_pos.shape[0] - 1) // 2
    extra = np.arange(n + 1, k + 1)

    def pos_ids(p: int) -> np.ndarray:
        return np.clip(extra - p, -radius, radius) + radius

    pad = np.full(k - n, PAD_ID, dtype=np.int64)
    return (
        np.concatenate([enc.token_ids, pad]),
        np.concatenate([enc.pos1_ids, pos_ids(enc.p1)]),
        np.concatenate([enc.pos2_ids, pos_ids(enc.p2)]),
    )


def embed_sentence(enc: EncodedInstance, params: ModelParams, k: int) -> np.ndarray:
    """Windowed embedding matrix X: column i stacks token vectors i .. i+k-1.

    Sentences shorter than the window are padded with <pad> tokens (their
    embedding row is trainable and receives gradient when looked up).
    """
    tok, pos1, pos2 = _padded_ids(enc, params, k)
    E = np.concatenate([params.w_word[tok], params.w_pos[pos1], params.w_pos[pos2]], axis=1)
    ncols = E.shape[0] - k + 1
    return np.hstack([E[off : off + ncols] for off in range(k)]).T


def convolve(X: np.ndarray, w_conv: np.ndarray, b_conv: np.ndarray) -> np.ndarray:
    """Z = relu(W_conv X + b), bias broadcast per column."""
    return relu(w_conv @ X + b_conv[:, None])


def pool(
    Z: np.ndarray, bounds: Sequence[tuple[int, int] | None]
) -> tuple[np.ndarray, np.ndarray]:
    """Columnwise max over each 1-based inclusive column range of Z.

    Returns the concatenated pooled vector (one d_c block per segment,
    zeros for empty segments) and the chosen column index per filter per
    segment (-1 for empty segments), which backward uses for gradient
    routing.  A single full-range segment gives plain max-pooling.
    """
    d_c = Z.shape[0]
    parts: list[np.ndarray] = []
    arg = np.full((len(bounds), d_c), -1, dtype=np.int64)
    for i, rng in enumerate(bounds):
        if rng is None:
            parts.append(np.zeros(d_c))
            continue
        lo, hi = rng
        seg = Z[:, lo - 1 : hi]
        cols = np.argmax(seg, axis=1) + (lo - 1)
        arg[i] = cols
        parts.append(Z[np.arange(d_c), cols])
    return np.concatenate(parts), arg


def concept_features(enc: EncodedInstance, params: ModelParams) -> np.ndarray:
    """cf_x = [ctype1; ctype2; concept1 words; concept2 words] (padded rows included)."""
    ct1, ct2 = enc.ctype_ids
    return np.concatenate(
        [
            params.w_ctype[ct1],
            params.w_ctype[ct2],
            params.w_word[enc.content1_ids].ravel(),
            params.w_word[enc.content2_ids].ravel(),
        ]
    )


def score(r_x: np.ndarray, cf_x: np.ndarray, params: ModelParams) -> np.ndarray:
    """Class scores s = W_classes rc with rc = [r_x; cf_x]."""
    return params.w_classes @ np.concatenate([r_x, cf_x])


def forward(
    enc: EncodedInstance,
    params: ModelParams,
    hp: HyperParams,
    train: bool = False,
    dropout_rng: np.random.Generator | None = None,
) -> ForwardTrace:
    """Full forward pass; returns the trace backward() consumes.

    In training mode an inverted-dropout mask is sampled for rc: entries
    are kept with probability 1 - dropout_p and scaled by 1/(1 - p), so
    inference needs no rescaling.
    """
    window_traces: list[WindowTrace] = []
    for j, k in enumerate(hp.windows):
        tok, pos1, pos2 = _padded_ids(enc, params, k)
        X = embed_sentence(enc, params, k)
        Z = convolve(X, params.w_conv[j], params.b_conv[j])
        n = tok.shape[0]
        if hp.pooling == POOL_MULTI:
            bounds = segment_bounds(enc.p1, enc.p2, n, k)
        else:
            bounds = [(1, n - k + 1)]
        pooled, arg = pool(Z, bounds)
        window_traces.append(WindowTrace(k, tok, pos1, pos2, X, Z, bounds, arg, pooled))

    r_x = np.concatenate([wt.pooled for wt in window_traces])
    cf_x = concept_features(enc, params)
    rc = np.concatenate([r_x, cf_x])
    if train and hp.dropout_p > 0.0:
        if dropout_rng is None:
            raise ValueError("training forward with dropout_p > 0 needs a dropout_rng")
        keep = dropout_rng.random(rc.shape[0]) >= hp.dropout_p
        mask = keep.astype(np.float64) / (1.0 - hp.dropout_p)
    else:
        mask = np.ones(rc.shape[0])
    rc_dropped = rc * mask
    scores = params.w_classes @ rc_dropped
    return ForwardTrace(
        enc=enc,
        windows=window_traces,
        r_x=r_x,
        cf_x=cf_x,
        rc=rc,
        dropout_mask=mask,
        rc_dropped=rc_dropped,
        scores=scores,
        params_revision=params.revision,
    )


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def loss_classes(category: Category, hp: HyperParams) -> slice:
    """The classes a sample's loss normalizes and regularizes over.

    All classes under the softmax loss; under the constrained loss, the
    sample's category, whose classes the class table lists contiguously.
    """
    if hp.loss == LOSS_SOFTMAX:
        return slice(0, N_CLASSES)
    ids = CATEGORY_CLASS_IDS[category]
    return slice(ids[0], ids[-1] + 1)


def loss_over(
    s: np.ndarray,
    gold: int,
    classes: slice,
    params: ModelParams,
    beta: float,
    word_sq: float | None = None,
) -> float:
    """Cross-entropy of `gold` normalized over `classes`, plus beta times the L2 sum.

    The L2 sum covers the word, position, concept-type and convolution
    matrices and the `classes` rows of the class matrix (biases excluded),
    so class rows outside `classes` are untouched by training on this
    sample.  `word_sq` is ||w_word||^2 when the caller already tracks it
    (the trainer keeps it up to date from the touched rows); by default it
    is summed over the whole table.
    """
    if gold not in range(s.shape[0])[classes]:
        raise ValueError(f"gold class {gold} is outside the loss classes {classes}")
    nll = log_sum_exp(s[classes]) - float(s[gold])
    if beta == 0.0:
        return nll
    if word_sq is None:
        word_sq = float(np.sum(params.w_word**2))
    l2 = word_sq + float(np.sum(params.w_pos**2)) + float(np.sum(params.w_ctype**2))
    for w in params.w_conv:
        l2 += float(np.sum(w**2))
    return nll + beta * (l2 + float(np.sum(params.w_classes[classes] ** 2)))


def loss_from_trace(
    trace: ForwardTrace, params: ModelParams, hp: HyperParams, word_sq: float | None = None
) -> float:
    """The configured loss of a traced sample; `word_sq` as in ``loss_over``."""
    enc = trace.enc
    classes = loss_classes(enc.category, hp)
    return loss_over(trace.scores, CLASS_INDEX[enc.gold], classes, params, hp.beta, word_sq)


# ---------------------------------------------------------------------------
# Backward
# ---------------------------------------------------------------------------


def backward(
    trace: ForwardTrace, params: ModelParams, hp: HyperParams
) -> dict[str, np.ndarray | RowGrad]:
    """Analytic gradients of the traced loss for every parameter array.

    Gradient routing: pooling sends gradient only to the cached argmax
    columns, relu gates on Z > 0, the dropout mask is reused, and
    embedding rows accumulate from every position that looked them up.
    Class rows outside the sample's loss classes get exactly zero.

    ``w_word`` gets a ``RowGrad``: the deduplicated ids this sample looked
    up (sentence tokens, <pad> included, and both concept contents), their
    summed gradient rows, and decay 2 beta.  Every other array gets a dense
    gradient that already includes its L2 term.
    """
    if trace.params_revision != params.revision:
        raise StaleTraceError(
            f"trace built at revision {trace.params_revision}, params now at {params.revision}"
        )
    enc = trace.enc
    classes = loss_classes(enc.category, hp)
    ds = np.zeros(N_CLASSES)
    ds[classes] = softmax(trace.scores[classes])
    ds[CLASS_INDEX[enc.gold]] -= 1.0

    grads: dict[str, np.ndarray | RowGrad] = {
        "w_ctype": np.zeros_like(params.w_ctype),
        "w_classes": np.zeros_like(params.w_classes),
    }
    active = np.outer(ds[classes], trace.rc_dropped, out=grads["w_classes"][classes])
    active += 2.0 * hp.beta * params.w_classes[classes]

    drc = (params.w_classes.T @ ds) * trace.dropout_mask
    dr_x = drc[: hp.pooled_size]
    dcf = drc[hp.pooled_size :]

    # Concept features: two type rows, then both concept-content blocks.
    ct1, ct2 = enc.ctype_ids
    grads["w_ctype"][ct1] += dcf[: hp.d_ct]
    grads["w_ctype"][ct2] += dcf[hp.d_ct : 2 * hp.d_ct]
    content_ids = np.concatenate([enc.content1_ids, enc.content2_ids])
    word_ids = [content_ids]
    word_rows = [dcf[2 * hp.d_ct :].reshape(content_ids.shape[0], hp.d_w)]
    pos_ids: list[np.ndarray] = []
    pos_rows: list[np.ndarray] = []

    # Convolution stacks, one per window size.
    per = hp.pooled_per_window
    for j, wt in enumerate(trace.windows):
        dr_w = dr_x[j * per : (j + 1) * per]
        dZ = np.zeros_like(wt.Z)
        filt = np.arange(hp.d_c)
        for seg, cols in enumerate(wt.argmax_cols):
            if cols[0] < 0:  # an empty segment: pooled to zeros, no gradient
                continue
            dZ[filt, cols] += dr_w[seg * hp.d_c : (seg + 1) * hp.d_c]
        dpre = dZ * (wt.Z > 0.0)
        grads[f"w_conv_{j}"] = dpre @ wt.X.T + 2.0 * hp.beta * params.w_conv[j]
        grads[f"b_conv_{j}"] = dpre.sum(axis=1)

        dX = params.w_conv[j].T @ dpre  # (d_x * k, ncols)
        ncols = dX.shape[1]
        dE = np.zeros((wt.token_ids.shape[0], hp.d_x))
        for off in range(wt.k):
            dE[off : off + ncols] += dX[off * hp.d_x : (off + 1) * hp.d_x].T
        word_ids.append(wt.token_ids)
        word_rows.append(dE[:, : hp.d_w])
        pos_ids += [wt.pos1_ids, wt.pos2_ids]
        pos_rows += [dE[:, hp.d_w : hp.d_w + hp.d_p], dE[:, hp.d_w + hp.d_p :]]

    ids, rows = _sum_rows(np.concatenate(word_ids), np.concatenate(word_rows))
    grads["w_word"] = RowGrad(ids, rows, 2.0 * hp.beta, params.w_word.shape)
    grads["w_pos"] = _row_sums(
        np.concatenate(pos_ids), np.concatenate(pos_rows), params.w_pos.shape[0]
    )
    grads["w_pos"] += 2.0 * hp.beta * params.w_pos
    grads["w_ctype"] += 2.0 * hp.beta * params.w_ctype
    return grads


def apply_sgd(
    params: ModelParams, grads: dict[str, np.ndarray | RowGrad], lr: float
) -> None:
    """In-place SGD step W <- W - lr g; bumps the revision so stale traces are detectable.

    A ``RowGrad`` is applied in closed form: the whole table is scaled by
    1 - lr decay in place (skipped when decay is 0), then only its touched
    rows get ``W[ids] -= lr * rows``.
    """
    for name, arr in params.arrays().items():
        g = grads[name]
        if isinstance(g, RowGrad):
            scale = 1.0 - lr * g.decay
            if scale != 1.0:
                arr *= scale
            arr[g.ids] -= lr * g.rows
        else:
            arr -= lr * g
    params.revision += 1


def predict(
    enc: EncodedInstance, params: ModelParams, hp: HyperParams
) -> tuple[RelationType, np.ndarray]:
    """Most probable relation type over all classes, plus the probability vector.

    Ties break toward the lowest class index.  Scoring is over all
    classes regardless of the sample's category, mirroring single-model
    training; cross-category mistakes stay observable in evaluation.
    """
    trace = forward(enc, params, hp, train=False)
    probs = softmax(trace.scores)
    idx = int(np.argmax(trace.scores))
    return RELATION_TYPES[idx], probs


def score_chunk(
    encs: Sequence[EncodedInstance], params: ModelParams, hp: HyperParams
) -> np.ndarray:
    """Inference-mode class scores of a nonempty chunk of instances, one row each.

    The chunk shares one GEMM per window size: every instance's valid
    window columns are gathered into one (columns, d_x k) matrix.  Within
    an instance the nonempty pooling segments tile its columns in order, so
    one ``np.maximum.reduceat`` over the chunk's segment starts pools them
    all; empty segments stay zero.  Max is exact, so the pooled values are
    the ones ``pool`` picks; the scores equal ``forward``'s up to the
    summation order of the products.
    """
    B = len(encs)
    n_blocks = hp.n_segments * len(hp.windows)
    pooled = np.zeros((B * n_blocks, hp.d_c))
    for j, k in enumerate(hp.windows):
        padded = [_padded_ids(enc, params, k) for enc in encs]
        tok, pos1, pos2 = (np.concatenate(ids) for ids in zip(*padded))
        E = np.concatenate([params.w_word[tok], params.w_pos[pos1], params.w_pos[pos2]], axis=1)
        n = np.array([ids[0].shape[0] for ids in padded])
        ncols = n - k + 1
        # Window i of instance b starts at token row i + b (k - 1) of E.
        rows = np.arange(ncols.sum()) + np.repeat(np.arange(B) * (k - 1), ncols)
        X = E[rows[:, None] + np.arange(k)].reshape(-1, k * hp.d_x)
        Zt = params.w_conv[j] @ X.T
        Zt += params.b_conv[j][:, None]
        np.maximum(Zt, 0.0, out=Zt)

        starts: list[int] = []
        slots: list[int] = []
        col0 = 0
        for b, (enc, n_b, ncols_b) in enumerate(zip(encs, n.tolist(), ncols.tolist())):
            if hp.pooling == POOL_MULTI:
                bounds = segment_bounds(enc.p1, enc.p2, n_b, k)
            else:
                bounds = [(1, ncols_b)]
            for seg, rng in enumerate(bounds):
                if rng is not None:
                    starts.append(col0 + rng[0] - 1)
                    slots.append(b * n_blocks + j * hp.n_segments + seg)
            col0 += ncols_b
        pooled[slots] = np.maximum.reduceat(Zt, starts, axis=1).T

    ctypes = np.array([enc.ctype_ids for enc in encs])
    contents = np.array([np.concatenate([enc.content1_ids, enc.content2_ids]) for enc in encs])
    rc = np.concatenate(
        [
            pooled.reshape(B, -1),
            params.w_ctype[ctypes].reshape(B, -1),
            params.w_word[contents].reshape(B, -1),
        ],
        axis=1,
    )
    return rc @ params.w_classes.T


def predict_batch(
    encs: Sequence[EncodedInstance], params: ModelParams, hp: HyperParams
) -> tuple[list[RelationType], np.ndarray]:
    """``predict`` for every instance, scored PREDICT_CHUNK instances at a time.

    Returns the labels and a (len(encs), N_CLASSES) array of probability
    rows.  Labels and probabilities match ``predict``'s up to the last
    float digits (``score_chunk``); the chunk size bounds the memory a
    scoring pass takes.
    """
    scores = np.zeros((len(encs), N_CLASSES))
    for lo in range(0, len(encs), PREDICT_CHUNK):
        scores[lo : lo + PREDICT_CHUNK] = score_chunk(encs[lo : lo + PREDICT_CHUNK], params, hp)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    return [RELATION_TYPES[i] for i in np.argmax(scores, axis=1)], probs


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = "relcnn-checkpoint v1"


@dataclass
class Checkpoint:
    params: ModelParams
    hp: HyperParams
    encoder: EncoderConfig
    vocab_sha256: str


def save_checkpoint(
    path: str | Path,
    params: ModelParams,
    hp: HyperParams,
    encoder: EncoderConfig,
    vocab_sha256: str,
) -> None:
    """Write params + config as .npz data to exactly `path` (no suffix is added);
    float64 arrays round-trip bit-exactly."""
    meta = {
        "format": CHECKPOINT_FORMAT,
        "tool_version": __version__,
        "hyperparams": asdict(hp),
        "encoder": asdict(encoder),
        "vocab_sha256": vocab_sha256,
    }
    with open(path, "wb") as fh:
        np.savez(fh, __meta__=np.array(json.dumps(meta, sort_keys=True)), **params.arrays())


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint, rejecting a missing or extra array and any array that is
    not finite float64 of the shape its hyperparameters and encoder imply."""
    try:
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        meta = json.loads(str(arrays.pop("__meta__")[()]))
    except (zipfile.BadZipFile, EOFError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: not a {CHECKPOINT_FORMAT} file: {exc!r}") from None
    if not isinstance(meta, dict) or meta.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    try:
        hp_dict = dict(meta["hyperparams"])
        m = hp_dict.pop("m", N_CLASSES)  # older checkpoints record the class count
        if m != N_CLASSES:
            raise ValueError(f"checkpoint has m={m!r} classes, not {N_CLASSES}")
        hp = HyperParams(**{**hp_dict, "windows": tuple(hp_dict["windows"])})
        encoder = EncoderConfig(**meta["encoder"])
        vocab_sha256 = meta["vocab_sha256"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad checkpoint config: {exc!r}") from None
    shapes = param_shapes(hp, None, None, encoder.concept_len)
    if set(arrays) != set(shapes):
        raise ValueError(
            f"{path}: arrays missing {sorted(set(shapes) - set(arrays))}, "
            f"unexpected {sorted(set(arrays) - set(shapes))}"
        )
    for name, arr in arrays.items():
        want = shapes[name]
        if arr.dtype != np.float64:
            raise ValueError(f"{path}: array {name} is {arr.dtype}, not float64")
        if arr.ndim != len(want) or any(w not in (None, n) for n, w in zip(arr.shape, want)):
            raise ValueError(f"{path}: array {name} has shape {arr.shape}, expected {want}")
        if not np.isfinite(arr).all():
            raise ValueError(f"{path}: array {name} holds non-finite values")
    return Checkpoint(
        params=ModelParams.from_arrays(arrays),
        hp=hp,
        encoder=encoder,
        vocab_sha256=vocab_sha256,
    )
