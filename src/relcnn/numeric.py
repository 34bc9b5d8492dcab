"""Dense float64 numerics: nonlinearities, a stable softmax, init.

All arrays are numpy float64.  The model is small enough that double
precision everywhere is cheap, and it makes the tests' finite-difference
gradient checks decisive (central differences at eps=1e-5 resolve relative
errors well below 1e-4 in float64).
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Operands do not conform; message carries both shapes."""


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise max(0, x), any shape; into `out` when given (``out=x`` works in place)."""
    return np.maximum(x, 0.0, out=out)


def softmax(s: np.ndarray) -> np.ndarray:
    """Probabilities e^{s_i} / sum_l e^{s_l} over the last axis of a vector or a
    matrix (one distribution per row), computed with max-subtraction.

    Subtracting the maximum before exponentiating leaves the result
    unchanged (shift invariance) and avoids overflow for large scores.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim not in (1, 2) or s.shape[-1] == 0:
        raise ShapeError(f"softmax expects a vector or matrix, last axis nonempty: {s.shape}")
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def log_sum_exp(s: np.ndarray) -> float:
    """log(sum_i e^{s_i}) with max-subtraction."""
    m = float(s.max())
    return m + float(np.log(np.exp(s - m).sum()))


def glorot_init(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Normalized (Glorot) uniform init on [-sqrt(6/(rows+cols)), +sqrt(...)]."""
    if rows < 1 or cols < 1:
        raise ShapeError(f"glorot_init needs positive dims, got {rows}x{cols}")
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))
