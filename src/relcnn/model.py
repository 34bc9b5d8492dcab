"""The CNN classifier: forward pass, the loss, and hand-written gradients.

Architecture per instance (sentence of n tokens with placeholders at
p1 < p2):

* every token becomes ``[word_vec; pos1_vec; pos2_vec]`` of size
  d_x = d_w + 2 d_p (one shared position table serves both distance
  channels),
* each window of k consecutive token vectors is one row of X (shape n-k+1
  by k d_x) and is convolved into one row of the raw feature map
  X W_conv^T, one column per filter,
* max-pooling runs either over all windows ("max") or independently over
  the three window segments delimited by the placeholders ("multi"),
  concatenating the results; the bias b and relu then apply to the pooled
  maxima, which equals pooling relu(X W_conv^T + b) bit for bit, and
  empty segments pool to zero vectors,
* the pooled vector is joined with concept features (two concept-type
  vectors plus the word vectors of both original concept contents, padded
  to a fixed length) and, after inverted dropout, scored against one row
  per relation type.

Both losses are one cross-entropy whose normalization and class-row L2
penalty run over a sample's loss classes (``loss_classes``): every class
under the "softmax" loss, the classes of the sample's category under the
"constrained" loss, so rows outside the category receive exactly zero
gradient.  ``backward`` produces analytic gradients for every parameter;
the central differences of ``finite_diff_grad`` in the tests are the
independent check.  ``predict_batch`` decodes each sample over the same
loss classes.

Every gradient is a ``RowGrad``: its data gradient plus weight decay as
one coefficient, which ``apply_sgd`` applies in closed form (Bottou,
"Stochastic Gradient Descent Tricks", 2012).  The decay is 2 beta for the
tables the L2 penalty covers in full (word, position and concept-type
embeddings and the convolution filters) and 0 for the biases and the class
matrix, which keeps an explicit L2 term because the constrained loss
decays only the category's rows.  The word table grows with the
vocabulary, but one sample looks up only its own tokens and concept words,
so its ``RowGrad`` holds only the summed rows of the looked-up ids.  The
word table is held as a scalar times a stored table, W = s U (Carpenter,
"Lazy Sparse Stochastic Gradient Descent for Regularized Multinomial
Logistic Regression", 2008): its decay scales s alone and the step writes
only the looked-up rows of U, so no part of a step grows with the
vocabulary.  Every reader sees W: the gathers scale the rows they read,
and s is folded into U (``ModelParams.fold``) at each epoch end and
whenever it falls below WORD_SCALE_FLOOR.  The update is still
W <- W - lr (g + 2 beta W); only the float rounding differs from the
dense form.

A training step allocates no array the size of a parameter: ``backward``
can write the convolution, bias and class gradients into the arrays of
the gradients it returned for an earlier step (``out=``), a batch sums
its samples' gradients in place (``RowGrad.__iadd__``), and ``apply_sgd``
consumes the gradients it is given, scaling them by the learning rate in
place.

Multi-window models (e.g. windows=(3, 4, 5)) run one filter bank per
window size and concatenate the pooled outputs before scoring.

The forward stages (``embed_sentence``, ``convolve``, ``pool``,
``concept_features``, ``score``) each run on a chunk of instances, with one
GEMM per window size over every instance's windows.  ``forward`` (a chunk
of one, traced) and ``score_chunk`` (PREDICT_CHUNK instances for
``predict_batch``) share one pooling stage (``_features``): it pools the
raw feature map X W_conv^T, then adds b and takes relu on the pooled
maxima alone.  IEEE addition and max(., 0) are monotone, so
relu(max_t z_t + b) equals max_t relu(z_t + b) bit for bit.  Only a traced
pass records each filter's argmax row, the first maximum of the raw map,
which backward routes its gradient through.  ``predict`` is
``predict_batch`` of one instance.  A chunk of one reads what its instance
keeps (``EncodedInstance``): its own id arrays when no window pads it, its
pooling segments, and the word layout backward sums the word rows by.

No numpy function runs where an array method gives the same bits: row
gathers go through ``take``, reductions through array methods.
"""

from __future__ import annotations

import json
import math
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
from .schema import typed

POOL_MAX = "max"
POOL_MULTI = "multi"
LOSS_SOFTMAX = "softmax"
LOSS_CONSTRAINED = "constrained"

# ``apply_sgd`` folds the word scale into the stored table when it would fall
# below this, so the stored rows stay within 1/WORD_SCALE_FLOOR times W's.  At the
# reference grid's largest decay rate, lr 2 beta = 2e-4, the scale takes ~35,000
# steps to get there; the epoch-end fold almost always comes first.
WORD_SCALE_FLOOR = 1e-3

# Instances per batched scoring pass (``predict_batch``).  The pass holds a
# chunk's window matrix and feature map at once, so peak memory grows with it.
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
        for name in ("beta", "lr"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number: {getattr(self, name)}")
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
    """All trainable arrays.  `revision` ties forward traces to updates.

    The word table is W = word_scale * w_word: ``apply_sgd`` decays it by
    scaling `word_scale` alone.  Read W's rows through ``word_rows``;
    ``copy`` and ``fold`` give the table itself.  ``arrays()`` names the
    stored arrays, so it holds W only while `word_scale` is 1, which is how
    training leaves every epoch, ``from_arrays`` builds parameters and
    ``copy`` returns them.
    """

    w_word: np.ndarray  # (n_words, d_w); W / word_scale
    w_pos: np.ndarray  # (2 * max_distance + 1, d_p)
    w_conv: list[np.ndarray]  # per window: (d_c, d_x * k)
    b_conv: list[np.ndarray]  # per window: (d_c,)
    w_ctype: np.ndarray  # (len(ConceptType), d_ct)
    w_classes: np.ndarray  # (N_CLASSES, rc_size)
    revision: int = field(default=0, compare=False)
    word_scale: float = 1.0

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
        """A copy holding W itself: the word scale is folded into the copied table."""
        return ModelParams.from_arrays(
            {
                name: arr * self.word_scale if name == "w_word" else arr.copy()
                for name, arr in self.arrays().items()
            },
            self.revision,
        )

    def word_rows(self, ids: np.ndarray) -> np.ndarray:
        """Rows `ids` of W, a new array: the stored rows times `word_scale`."""
        rows = self.w_word.take(ids, axis=0)
        if self.word_scale != 1.0:
            rows *= self.word_scale
        return rows

    def fold(self) -> None:
        """Multiply `word_scale` into the stored table in place, leaving it 1: w_word is W."""
        if self.word_scale != 1.0:
            self.w_word *= self.word_scale
            self.word_scale = 1.0


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
    """One window size's stages over a traced chunk; its instances' ids, windows and
    segments follow each other in order.  The feature map itself is not kept: backward
    needs only the argmax rows and the pooled values."""

    k: int
    token_ids: np.ndarray  # padded to at least k tokens per instance
    pos1_ids: np.ndarray
    pos2_ids: np.ndarray
    X: np.ndarray  # (ncols, d_x * k): one window per row
    argmax_cols: np.ndarray  # (segments, d_c): row of X W_conv^T; -1 marks an empty segment
    pooled: np.ndarray  # (segments * d_c,): relu(max + b), 0 for an empty segment


@dataclass
class ForwardTrace:
    """Cached activations of one forward pass, consumed by backward()."""

    enc: EncodedInstance
    windows: list[WindowTrace]
    r_x: np.ndarray  # rc[:pooled_size], a view
    cf_x: np.ndarray  # rc[pooled_size:], a view
    rc: np.ndarray  # [r_x; cf_x]
    dropout_mask: np.ndarray
    rc_dropped: np.ndarray
    scores: np.ndarray
    params_revision: int


def sq_norm(w: np.ndarray) -> float:
    """Sum of the squares of a contiguous array's entries, without a squared copy."""
    return float(np.vdot(w, w))


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


ALL_ROWS = slice(None)


@dataclass
class RowGrad:
    """Gradient of a parameter array held as its data part plus weight decay.

    Stands for the dense gradient ``scatter_add(ids, rows) + decay * W``,
    W being the array it belongs to.  `ids` is either ALL_ROWS, when `rows`
    is the data gradient of the whole array, or distinct ascending row ids,
    so ``W[ids] -= ...`` writes every row exactly once.  `decay` is 0 for
    the biases and the class matrix.  `shape` is the array's shape;
    `nbytes` counts only the arrays held.
    """

    ids: np.ndarray | slice  # ALL_ROWS, or (r,) distinct row ids, ascending
    rows: np.ndarray  # (r, d) summed data gradient per row; the whole array for ALL_ROWS
    decay: float
    shape: tuple[int, ...]

    @property
    def nbytes(self) -> int:
        return self.rows.nbytes + (0 if isinstance(self.ids, slice) else self.ids.nbytes)

    def __iadd__(self, other: "RowGrad") -> "RowGrad":
        """Add `other`'s gradient in place: into `rows` over ALL_ROWS, else over the
        union of both id sets."""
        if isinstance(self.ids, slice):
            self.rows += other.rows
        else:
            self.ids, self.rows = _sum_rows(
                np.concatenate([self.ids, other.ids]), np.concatenate([self.rows, other.rows])
            )
        self.decay += other.decay
        return self


# ---------------------------------------------------------------------------
# Forward stages.  Each runs on a chunk of instances; one instance is a chunk of one.
# ---------------------------------------------------------------------------


def _padded_ids(
    encs: Sequence[EncodedInstance], params: ModelParams, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """Token/position ids of a chunk's sentences, each extended with <pad> tokens up to
    length k, concatenated; and the length of each extended sentence.  A chunk of one
    that needs no <pad> gets its instance's own arrays.

    The <pad> embedding row is trainable and receives gradient when looked up.
    """
    if len(encs) == 1 and encs[0].n_tokens >= k:
        enc = encs[0]
        return enc.token_ids, enc.pos1_ids, enc.pos2_ids, [enc.n_tokens]
    radius = (params.w_pos.shape[0] - 1) // 2
    tok, pos1, pos2 = [], [], []
    for enc in encs:
        tok.append(enc.token_ids)
        pos1.append(enc.pos1_ids)
        pos2.append(enc.pos2_ids)
        n = enc.n_tokens
        if n < k:
            extra = np.arange(n + 1, k + 1)
            tok.append(np.full(k - n, PAD_ID, dtype=np.int64))
            pos1.append(np.clip(extra - enc.p1, -radius, radius) + radius)
            pos2.append(np.clip(extra - enc.p2, -radius, radius) + radius)
    lengths = [max(enc.n_tokens, k) for enc in encs]
    return np.concatenate(tok), np.concatenate(pos1), np.concatenate(pos2), lengths


def embed_sentence(
    tok: np.ndarray,
    pos1: np.ndarray,
    pos2: np.ndarray,
    lengths: Sequence[int],
    params: ModelParams,
    k: int,
) -> np.ndarray:
    """Windowed embedding matrix X of a chunk of sentences, C-contiguous.

    The ids hold the sentences one after another, `lengths` tokens each
    (``_padded_ids``).  Row i of a sentence is one window: its token vectors
    i .. i+k-1, one after another.  The sentences' windows follow each other
    in order, and no window straddles two sentences.
    """
    pos_rows = params.w_pos.take
    E = np.concatenate([params.word_rows(tok), pos_rows(pos1, axis=0), pos_rows(pos2, axis=0)], 1)
    # E is C-contiguous, so window i, tokens i .. i+k-1, is the k d_x floats from flat
    # position i d_x of E: the windows are a strided view of E.  X is a C-contiguous copy
    # of each sentence's windows: the GEMM in ``convolve`` runs faster on it, and its
    # rounding depends on the layout.
    n, d_x = E.shape
    step = E.itemsize
    windows = np.ndarray((n - k + 1, k * d_x), E.dtype, buffer=E, strides=(d_x * step, step))
    if len(lengths) == 1:
        return windows.copy()
    # Row r of sentence i is view row r + i (k - 1).  (``take`` would copy the whole view.)
    shift = np.arange(len(lengths)) * (k - 1)
    rows = np.arange(n - shift[-1] - (k - 1))
    return windows[rows + np.repeat(shift, np.subtract(lengths, k - 1))]


def convolve(X: np.ndarray, w_conv: np.ndarray) -> np.ndarray:
    """The raw feature map X W_conv^T: one row per window, one column per filter."""
    return X @ w_conv.T


def pool(
    Z: np.ndarray,
    bounds: Sequence[tuple[int, int] | None],
    argmax: bool = True,
    empty: float = 0.0,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-filter max over each 1-based inclusive range of Z's rows (windows).

    Returns the concatenated pooled vector (one d_c block per range, `empty`
    for empty ranges) and, with `argmax`, the row of each filter's maximum
    per range (the first on ties, -1 for empty ranges), which backward uses
    for gradient routing; without it, None.  A single full-range segment
    gives plain max-pooling, and a chunk's instances give their segments as
    ranges of one Z.
    """
    d_c = Z.shape[1]
    pooled = np.empty((len(bounds), d_c))
    arg = np.empty((len(bounds), d_c), dtype=np.intp) if argmax else None
    for i, rng in enumerate(bounds):
        if rng is None:
            pooled[i] = empty
            if arg is not None:
                arg[i] = -1
        else:
            block = Z[rng[0] - 1 : rng[1]]
            np.maximum.reduce(block, axis=0, out=pooled[i])
            if arg is not None:
                block.argmax(axis=0, out=arg[i])
                arg[i] += rng[0] - 1
    return pooled.ravel(), arg


def _chunk_bounds(
    encs: Sequence[EncodedInstance], lengths: Sequence[int], k: int, pooling: str
) -> list[tuple[int, int] | None]:
    """Every instance's pooling segments as ranges of the rows (windows) of the chunk's
    window matrix.  A chunk of one's are the ones its instance keeps
    (``EncodedInstance.segments``); a larger chunk's instances are mostly scored once,
    so theirs are computed afresh."""
    if len(encs) == 1:
        return encs[0].segments(k, pooling == POOL_MULTI)
    out: list[tuple[int, int] | None] = []
    col0 = 0
    for enc, n in zip(encs, lengths):
        ncols = n - k + 1
        segs = segment_bounds(enc.p1, enc.p2, n, k) if pooling == POOL_MULTI else [(1, ncols)]
        out += [None if seg is None else (seg[0] + col0, seg[1] + col0) for seg in segs]
        col0 += ncols
    return out


def concept_features(
    encs: Sequence[EncodedInstance], params: ModelParams, out: np.ndarray
) -> np.ndarray:
    """cf_x = [ctype1; ctype2; concept1 words; concept2 words] (padded rows included),
    one row per instance, written into `out` (a view such as rc's tail) and returned."""
    n = len(encs)
    words = np.concatenate([ids for enc in encs for ids in (enc.content1_ids, enc.content2_ids)])
    d_ct = 2 * params.w_ctype.shape[1]
    out[:, :d_ct] = params.w_ctype.take([enc.ctype_ids for enc in encs], axis=0).reshape(n, -1)
    out[:, d_ct:] = params.word_rows(words).reshape(n, -1)
    return out


def score(r_x: np.ndarray, cf_x: np.ndarray, params: ModelParams) -> np.ndarray:
    """Class scores s = W_classes rc with rc = [r_x; cf_x]: a vector for vectors, and one
    row per instance for rows."""
    return np.concatenate([r_x, cf_x], axis=-1) @ params.w_classes.T


def _features(
    encs: Sequence[EncodedInstance], params: ModelParams, hp: HyperParams, traced: bool
) -> tuple[np.ndarray, list[WindowTrace]]:
    """rc = [r_x; cf_x] of a nonempty chunk, one row per instance, and with `traced`
    each window size's WindowTrace for backward (else no traces).

    Per window size: every instance's windows (``embed_sentence``), one GEMM
    X W_conv^T over them without bias or relu (``convolve``), the per-filter
    maxima of each pooling segment of that raw map, with the argmax rows only
    when `traced` (``pool``), then b_conv and relu on the pooled rows alone,
    written into each instance's r_x block.  max_t relu(z_t + b) ==
    relu(max_t z_t + b) bit for bit, since IEEE addition and max(., 0) are
    monotone.  An empty segment pools to -inf, which bias and relu take to 0.
    The concept features fill the tail of each row.
    """
    n = len(encs)
    rc = np.empty((n, params.w_classes.shape[1]))
    per = hp.pooled_per_window
    windows: list[WindowTrace] = []
    for j, k in enumerate(hp.windows):
        tok, pos1, pos2, lengths = _padded_ids(encs, params, k)
        X = embed_sentence(tok, pos1, pos2, lengths, params, k)
        Z = convolve(X, params.w_conv[j])
        bounds = _chunk_bounds(encs, lengths, k, hp.pooling)
        maxima, arg = pool(Z, bounds, argmax=traced, empty=-np.inf)
        maxima = maxima.reshape(n, hp.n_segments, hp.d_c)
        maxima += params.b_conv[j]
        pooled = rc[:, j * per : (j + 1) * per]
        relu(maxima, out=pooled.reshape(maxima.shape))  # a view of rc
        if traced:
            windows.append(WindowTrace(k, tok, pos1, pos2, X, arg, pooled.reshape(-1)))
    concept_features(encs, params, out=rc[:, hp.pooled_size :])
    return rc, windows


def forward(
    enc: EncodedInstance,
    params: ModelParams,
    hp: HyperParams,
    train: bool = False,
    dropout_rng: np.random.Generator | None = None,
) -> ForwardTrace:
    """Full forward pass of one instance, a chunk of one; returns the trace backward() consumes.

    In training mode an inverted-dropout mask is sampled for rc: entries
    are kept with probability 1 - dropout_p and scaled by 1/(1 - p), so
    inference needs no rescaling.
    """
    rows, window_traces = _features([enc], params, hp, traced=True)
    rc = rows[0]
    if train and hp.dropout_p > 0.0:
        if dropout_rng is None:
            raise ValueError("training forward with dropout_p > 0 needs a dropout_rng")
        mask = (dropout_rng.random(rc.shape[0]) >= hp.dropout_p) / (1.0 - hp.dropout_p)
    else:
        mask = np.ones(rc.shape[0])
    rc_dropped = rc * mask
    scores = score(rc_dropped[: hp.pooled_size], rc_dropped[hp.pooled_size :], params)
    return ForwardTrace(
        enc=enc,
        windows=window_traces,
        r_x=rc[: hp.pooled_size],
        cf_x=rc[hp.pooled_size :],
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
    sample.  `word_sq` is ||W||^2 of the word table when the caller already
    tracks it (the trainer keeps it up to date from the touched rows); by
    default it is word_scale^2 times the stored table's squared norm.  Each
    squared norm is one ``np.vdot``, which allocates nothing.
    """
    if gold not in range(s.shape[0])[classes]:
        raise ValueError(f"gold class {gold} is outside the loss classes {classes}")
    nll = log_sum_exp(s[classes]) - float(s[gold])
    if beta == 0.0:
        return nll
    if word_sq is None:
        word_sq = params.word_scale * params.word_scale * sq_norm(params.w_word)
    l2 = word_sq + sq_norm(params.w_pos) + sq_norm(params.w_ctype)
    for w in params.w_conv:
        l2 += sq_norm(w)
    return nll + beta * (l2 + sq_norm(params.w_classes[classes]))


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
    trace: ForwardTrace,
    params: ModelParams,
    hp: HyperParams,
    out: dict[str, RowGrad] | None = None,
) -> dict[str, RowGrad]:
    """Analytic gradients of the traced loss, one ``RowGrad`` per parameter array.

    Gradient routing: pooling sends gradient only to the cached argmax
    windows, and relu passes it only where the pooled value is positive;
    the dropout mask is reused, and embedding rows accumulate from every
    position that looked them up.  Class rows outside the sample's loss
    classes get exactly zero.

    Decay is 2 beta for the convolution filters and the position and
    concept-type tables, over all rows, and for ``w_word`` over the
    deduplicated ids this sample looked up (sentence tokens, <pad>
    included, and both concept contents); those ids may be the instance's
    own read-only array (``EncodedInstance.word_layout``).  The biases and
    the class matrix get decay 0 over all rows, the class matrix's rows
    holding its L2 term over the loss classes.

    `out` is a dict an earlier ``backward`` returned for parameters of the
    same shapes, possibly consumed by ``apply_sgd`` since: the convolution,
    bias and class gradients are written into its ``rows`` arrays, which
    the returned dict holds again.
    """
    if trace.params_revision != params.revision:
        raise StaleTraceError(
            f"trace built at revision {trace.params_revision}, params now at {params.revision}"
        )
    enc = trace.enc
    decay = 2.0 * hp.beta
    classes = loss_classes(enc.category, hp)
    ds = np.zeros(N_CLASSES)
    ds[classes] = softmax(trace.scores[classes])
    ds[CLASS_INDEX[enc.gold]] -= 1.0

    g_classes = np.empty_like(params.w_classes) if out is None else out["w_classes"].rows
    if classes != slice(0, N_CLASSES):  # rows outside the loss classes get exactly zero
        g_classes.fill(0.0)
    active = np.multiply(ds[classes, None], trace.rc_dropped, out=g_classes[classes])
    active += decay * params.w_classes[classes]
    grads = {"w_classes": RowGrad(ALL_ROWS, g_classes, 0.0, params.w_classes.shape)}

    drc = (params.w_classes.T @ ds) * trace.dropout_mask
    dr_x = drc[: hp.pooled_size]
    dcf = drc[hp.pooled_size :]

    # Concept features: two type rows, then both concept-content blocks.
    ct1, ct2 = enc.ctype_ids
    g_ctype = np.zeros(params.w_ctype.shape)
    g_ctype[ct1] += dcf[: hp.d_ct]
    g_ctype[ct2] += dcf[hp.d_ct : 2 * hp.d_ct]
    grads["w_ctype"] = RowGrad(ALL_ROWS, g_ctype, decay, params.w_ctype.shape)

    # Word rows: both concept contents, then each window size's tokens, <pad> included,
    # summed per distinct id through the instance's word layout.
    uniq, index = enc.word_layout
    n = enc.n_tokens
    token_index = index[-n:]
    if max(hp.windows) > n and uniq[0] != PAD_ID:
        # <pad> is the smallest id, so it becomes the first distinct id.
        uniq = np.concatenate(([PAD_ID], uniq))
        index = index + 1
        token_index = token_index + 1
    word_index = [index]
    word_rows = [dcf[2 * hp.d_ct :].reshape(-1, hp.d_w)]
    pos_ids: list[np.ndarray] = []
    pos_rows: list[np.ndarray] = []

    # Convolution stacks, one per window size.
    per = hp.pooled_per_window
    filters = np.arange(hp.d_c)
    for j, wt in enumerate(trace.windows):
        # A pooled value is positive only at a live argmax cell; empty segments pool to 0.
        # Live cells are distinct (row, filter) pairs, since segments do not overlap.
        live = wt.pooled > 0.0
        dpre = np.zeros((wt.X.shape[0], hp.d_c))
        cells = (wt.argmax_cols * hp.d_c + filters).reshape(-1)
        dpre.put(cells[live], dr_x[j * per : (j + 1) * per][live])
        w_name, b_name = f"w_conv_{j}", f"b_conv_{j}"
        data = np.matmul(dpre.T, wt.X, out=None if out is None else out[w_name].rows)
        grads[w_name] = RowGrad(ALL_ROWS, data, decay, params.w_conv[j].shape)
        bias = dpre.sum(axis=0, out=None if out is None else out[b_name].rows)
        grads[b_name] = RowGrad(ALL_ROWS, bias, 0.0, params.b_conv[j].shape)

        dX = dpre @ params.w_conv[j]  # (ncols, d_x * k), one window per row
        ncols = dX.shape[0]
        dE = np.zeros((wt.token_ids.shape[0], hp.d_x))
        for off in range(wt.k):
            dE[off : off + ncols] += dX[:, off * hp.d_x : (off + 1) * hp.d_x]
        if j:
            word_index.append(token_index)
        if wt.k > n:
            word_index.append(np.zeros(wt.k - n, dtype=np.int64))
        word_rows.append(dE[:, : hp.d_w])
        pos_ids += [wt.pos1_ids, wt.pos2_ids]
        pos_rows += [dE[:, hp.d_w : hp.d_w + hp.d_p], dE[:, hp.d_w + hp.d_p :]]

    word_index = word_index[0] if len(word_index) == 1 else np.concatenate(word_index)
    rows = _row_sums(word_index, np.concatenate(word_rows), uniq.shape[0])
    grads["w_word"] = RowGrad(uniq, rows, decay, params.w_word.shape)
    g_pos = _row_sums(np.concatenate(pos_ids), np.concatenate(pos_rows), params.w_pos.shape[0])
    grads["w_pos"] = RowGrad(ALL_ROWS, g_pos, decay, params.w_pos.shape)
    return grads


def apply_sgd(params: ModelParams, grads: dict[str, RowGrad], lr: float) -> bool:
    """In-place SGD step W <- W - lr g; bumps the revision so stale traces are detectable.

    Every gradient is applied in closed form.  The word table W = s U
    decays through its scale alone, s' = s (1 - lr decay), and then
    ``U[ids] -= (lr / s') * rows``: the step writes only the looked-up rows.
    Should s' fall below WORD_SCALE_FLOOR, it is folded into U first
    (``ModelParams.fold``) and the rows step at lr.  Every other array is
    scaled by 1 - lr decay in place (skipped when that is 1), then
    ``W[ids] -= lr * rows``.  Returns whether the word scale was folded,
    which rewrites every row of the stored table.

    Consumes `grads`: every ``rows`` array is scaled by its rate in place
    (``g *= lr; W -= g`` is bit for bit ``W -= lr * g``), so its values
    are lost; the dict can still serve as ``backward``'s `out`.
    """
    folded = False
    for name, arr in params.arrays().items():
        g = grads[name]
        rate = lr
        if name == "w_word":
            params.word_scale *= 1.0 - lr * g.decay
            folded = not params.word_scale >= WORD_SCALE_FLOOR
            if folded:
                params.fold()  # in place: `arr` is still the stored table
            rate = lr / params.word_scale
        elif (scale := 1.0 - lr * g.decay) != 1.0:
            arr *= scale
        g.rows *= rate
        arr[g.ids] -= g.rows
    params.revision += 1
    return folded


def score_chunk(
    encs: Sequence[EncodedInstance], params: ModelParams, hp: HyperParams
) -> np.ndarray:
    """Inference-mode class scores of a nonempty chunk of instances, one row each.

    The forward stages, run once for the whole chunk without a trace
    (``_features``), so no argmax row is computed; one GEMM then scores
    every instance's row rc = [r_x; cf_x].  The scores equal ``forward``'s
    up to the summation order the GEMMs' shapes give.
    """
    rc, _ = _features(encs, params, hp, traced=False)
    return rc @ params.w_classes.T


def predict_batch(
    encs: Sequence[EncodedInstance], params: ModelParams, hp: HyperParams
) -> tuple[list[RelationType], np.ndarray]:
    """The most probable relation type of every instance among its loss classes,
    plus its probability row.

    An instance is decoded over the classes its loss normalizes over
    (``loss_classes``): every class under the softmax loss, its pair's
    category under the constrained loss, whose loss never pushes down the
    other categories' rows.  The concept types fix the category, so the
    decode reads no gold label.  A probability row is the softmax over those
    classes, with exact zeros elsewhere, computed in place with
    ``numeric.softmax``'s max-subtraction, bit for bit.  Ties break toward
    the lowest class index.  Returns the labels and a (len(encs), N_CLASSES)
    array of probability rows, scored PREDICT_CHUNK instances at a time
    (``score_chunk``); the chunk size bounds the memory a scoring pass takes.
    """
    if 0 < len(encs) <= PREDICT_CHUNK:
        scores = score_chunk(encs, params, hp)
    else:
        scores = np.zeros((len(encs), N_CLASSES))
        for lo in range(0, len(encs), PREDICT_CHUNK):
            scores[lo : lo + PREDICT_CHUNK] = score_chunk(encs[lo : lo + PREDICT_CHUNK], params, hp)
    if hp.loss != LOSS_SOFTMAX:  # under the softmax loss every row keeps every class
        for row, enc in zip(scores, encs):
            classes = loss_classes(enc.category, hp)
            row[: classes.start] = row[classes.stop :] = -np.inf
    labels = [RELATION_TYPES[i] for i in scores.argmax(axis=1).tolist()]
    scores -= scores.max(axis=1, keepdims=True)
    probs = np.exp(scores, out=scores)
    probs /= probs.sum(axis=1, keepdims=True)
    return labels, probs


def predict(
    enc: EncodedInstance, params: ModelParams, hp: HyperParams
) -> tuple[RelationType, np.ndarray]:
    """``predict_batch`` of one instance: its label and probability vector."""
    labels, probs = predict_batch([enc], params, hp)
    return labels[0], probs[0]


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
    float64 arrays round-trip bit-exactly.  The word table is written as W, its
    scale folded into a copy when it is not 1."""
    if params.word_scale != 1.0:
        params = params.copy()
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
    """Read a checkpoint; any fault is a ValueError starting with `path`.  The meta goes
    through the typed reader of config files, with every field ``save_checkpoint`` writes
    required; the arrays must be exactly the finite float64 arrays of the shapes it implies."""
    try:
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        meta = json.loads(str(arrays.pop("__meta__")[()]))
    except (zipfile.BadZipFile, EOFError, KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: not a {CHECKPOINT_FORMAT} file: {exc!r}") from None
    if not isinstance(meta, dict) or meta.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    hyperparams = meta.get("hyperparams")
    try:  # older checkpoints record the class count m among the hyperparams
        if isinstance(hyperparams, dict) and (m := hyperparams.pop("m", N_CLASSES)) != N_CLASSES:
            raise ValueError(f"checkpoint has m={m!r} classes, not {N_CLASSES}")
        hp = typed(hyperparams, HyperParams, "hyperparams", required=True)
        encoder = typed(meta.get("encoder"), EncoderConfig, "encoder", required=True)
        typed(meta.get("tool_version"), str, "tool_version")
        vocab_sha256 = typed(meta.get("vocab_sha256"), str, "vocab_sha256")
    except ValueError as exc:
        raise ValueError(f"{path}: bad checkpoint config: {exc}") from None
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
    return Checkpoint(ModelParams.from_arrays(arrays), hp, encoder, vocab_sha256)
