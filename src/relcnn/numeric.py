"""Dense float64 numerics: products, nonlinearities, init, finite differences.

All arrays are numpy float64.  The model is small enough that double
precision everywhere is cheap, and it makes the finite-difference gradient
checks decisive (central differences at eps=1e-5 resolve relative errors
well below 1e-4 in float64).
"""

from __future__ import annotations

from typing import Callable, Mapping, Union

import numpy as np

ArrayMap = Mapping[str, np.ndarray]


class ShapeError(ValueError):
    """Operands do not conform; message carries both shapes."""


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with an explicit conformance check."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    return a @ b


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise max(0, x), any shape."""
    return np.maximum(x, 0.0)


def softmax(s: np.ndarray) -> np.ndarray:
    """Probability vector e^{s_i} / sum_l e^{s_l}, computed with max-subtraction.

    Subtracting max(s) before exponentiating leaves the result unchanged
    (shift invariance) and avoids overflow for large scores.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise ShapeError(f"softmax expects a nonempty vector, got shape {s.shape}")
    e = np.exp(s - s.max())
    return e / e.sum()


def log_sum_exp(s: np.ndarray) -> float:
    """log(sum_i e^{s_i}) with max-subtraction."""
    m = float(np.max(s))
    return m + float(np.log(np.sum(np.exp(s - m))))


def glorot_init(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Normalized (Glorot) uniform init on [-sqrt(6/(rows+cols)), +sqrt(...)]."""
    if rows < 1 or cols < 1:
        raise ShapeError(f"glorot_init needs positive dims, got {rows}x{cols}")
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))


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
