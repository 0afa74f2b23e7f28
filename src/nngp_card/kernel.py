"""Covariance functions: the infinite-width network kernel and an RBF baseline.

The network kernel starts from the linear-readout base case

    K0(x, x') = sigma_b^2 + sigma_w^2 * <x, x'> / d

and applies one closed-form step per hidden layer. For ReLU the step is the
first-order arc-cosine form

    K(x, x') = sigma_b^2 + sigma_w^2 / (2 pi) * sqrt(Kxx * Kx'x')
               * (sin(theta) + (pi - theta) * cos(theta)),
    theta = arccos(Kxx' / sqrt(Kxx * Kx'x')),

whose diagonal reduces to sigma_b^2 + sigma_w^2 * Kxx / 2. For Erf the step is

    K(x, x') = sigma_b^2 + sigma_w^2 * (2 / pi)
               * arcsin(2 Kxx' / sqrt((1 + 2 Kxx)(1 + 2 Kx'x'))).

The bias of a shared additive bias term lands on every entry, diagonal and
off-diagonal alike, as in the infinite-width limit.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

_ROW_CHUNK = 2048  # bounds temporary memory in the layer steps


class KernelError(Exception):
    """Invalid kernel configuration or numerically unusable input."""


@dataclass(frozen=True)
class KernelConfig:
    """Prior variances, depth, activation, observation noise, kernel family."""

    sigma_w_sq: float = 1.6
    sigma_b_sq: float = 0.1
    depth: int = 3
    activation: str = "relu"
    noise_sq: float = 1e-3
    kernel_family: str = "nngp"
    length_scale: float = 1.0

    def __post_init__(self):
        if self.sigma_w_sq <= 0:
            raise KernelError(f"sigma_w_sq must be > 0, got {self.sigma_w_sq}")
        if self.sigma_b_sq < 0:
            raise KernelError(f"sigma_b_sq must be >= 0, got {self.sigma_b_sq}")
        if self.noise_sq < 0:
            raise KernelError(f"noise_sq must be >= 0, got {self.noise_sq}")
        if self.depth < 0:
            raise KernelError(f"depth must be >= 0, got {self.depth}")
        if self.activation not in ("relu", "erf"):
            raise KernelError(f"unknown activation {self.activation!r}")
        if self.kernel_family not in ("nngp", "rbf"):
            raise KernelError(f"unknown kernel family {self.kernel_family!r}")
        if self.length_scale <= 0:
            raise KernelError(f"length_scale must be > 0, got {self.length_scale}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "KernelConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise KernelError(f"unknown kernel config keys: {sorted(unknown)}")
        return cls(**doc)


def array_hash(arr: np.ndarray) -> str:
    """Short content hash of an array (shape-sensitive)."""
    h = hashlib.sha256()
    h.update(str(arr.shape).encode())
    h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# base case and layer steps
# ---------------------------------------------------------------------------


def base_kernel(X: np.ndarray, X2: Optional[np.ndarray], config: KernelConfig) -> np.ndarray:
    """Linear-readout kernel sigma_b^2 + sigma_w^2 <x, x'> / d.

    X2=None means the symmetric same-batch case.
    """
    X = np.asarray(X, dtype=np.float64)
    X2m = X if X2 is None else np.asarray(X2, dtype=np.float64)
    if X.ndim != 2 or X2m.ndim != 2:
        raise KernelError("inputs must be 2-d (n, d_enc) batches")
    if X.shape[1] != X2m.shape[1]:
        raise KernelError(f"feature dimensions differ: {X.shape[1]} vs {X2m.shape[1]}")
    d = X.shape[1]
    if d == 0:
        raise KernelError("feature dimension must be >= 1")
    K = (config.sigma_w_sq / d) * (X @ X2m.T)
    K += config.sigma_b_sq
    return K


def base_diag(X: np.ndarray, config: KernelConfig) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    d = X.shape[1]
    return config.sigma_b_sq + (config.sigma_w_sq / d) * np.einsum("ij,ij->i", X, X)


def relu_layer_step(
    k_xx: np.ndarray, k_xxp: np.ndarray, k_xpxp: np.ndarray, config: KernelConfig
) -> np.ndarray:
    """One ReLU-layer update of cross-covariance entries (vectorized).

    Takes the previous layer's variances k_xx, k_xpxp and covariance k_xxp
    (broadcastable shapes) and returns the next layer's covariance. The
    cosine is clamped into [-1, 1] to absorb floating-point drift on
    near-identical inputs.
    """
    k_xx = np.asarray(k_xx, dtype=np.float64)
    k_xpxp = np.asarray(k_xpxp, dtype=np.float64)
    k_xxp = np.asarray(k_xxp, dtype=np.float64)
    if np.any(k_xx <= 0) or np.any(k_xpxp <= 0):
        raise KernelError("relu layer step requires strictly positive variances")
    s = np.sqrt(k_xx * k_xpxp)
    theta = np.arccos(np.clip(k_xxp / s, -1.0, 1.0))
    expectation = s / (2.0 * math.pi) * (np.sin(theta) + (math.pi - theta) * np.cos(theta))
    return config.sigma_b_sq + config.sigma_w_sq * expectation


def erf_kernel_step(
    k_xx: np.ndarray, k_xxp: np.ndarray, k_xpxp: np.ndarray, config: KernelConfig
) -> np.ndarray:
    """One Erf-layer update of cross-covariance entries (vectorized)."""
    k_xx = np.asarray(k_xx, dtype=np.float64)
    k_xpxp = np.asarray(k_xpxp, dtype=np.float64)
    k_xxp = np.asarray(k_xxp, dtype=np.float64)
    denom = np.sqrt((1.0 + 2.0 * k_xx) * (1.0 + 2.0 * k_xpxp))
    ratio = np.clip(2.0 * k_xxp / denom, -1.0, 1.0)
    expectation = (2.0 / math.pi) * np.arcsin(ratio)
    return config.sigma_b_sq + config.sigma_w_sq * expectation


def _diag_step(diag: np.ndarray, config: KernelConfig) -> np.ndarray:
    if config.activation == "relu":
        return config.sigma_b_sq + config.sigma_w_sq * diag / 2.0
    return config.sigma_b_sq + config.sigma_w_sq * (2.0 / math.pi) * np.arcsin(
        2.0 * diag / (1.0 + 2.0 * diag)
    )


def kernel_diag(X: np.ndarray, config: KernelConfig) -> np.ndarray:
    """K(x, x) per row, without observation noise."""
    if config.kernel_family == "rbf":
        return np.ones(len(X), dtype=np.float64)
    diag = base_diag(X, config)
    for _ in range(config.depth):
        if config.activation == "relu" and np.any(diag <= 0):
            raise KernelError("non-positive variance encountered in depth recursion")
        diag = _diag_step(diag, config)
    return diag


def _layer_step_matrix(
    K: np.ndarray, d1: np.ndarray, d2: np.ndarray, config: KernelConfig
) -> np.ndarray:
    """Apply one activation-layer step to a full cross matrix, row-chunked."""
    step = relu_layer_step if config.activation == "relu" else erf_kernel_step
    out = np.empty_like(K)
    for lo in range(0, K.shape[0], _ROW_CHUNK):
        hi = min(lo + _ROW_CHUNK, K.shape[0])
        out[lo:hi] = step(d1[lo:hi, None], K[lo:hi], d2[None, :], config)
    return out


def nngp_kernel(
    X: np.ndarray,
    X2: Optional[np.ndarray] = None,
    config: KernelConfig = KernelConfig(),
    include_noise: Optional[bool] = None,
) -> np.ndarray:
    """Depth-recursed network kernel matrix.

    X2=None computes the symmetric same-batch matrix: the result is mirrored
    from its lower triangle, the diagonal is taken from the exact diagonal
    recurrence, and (by default) the observation noise lands on the diagonal.
    Cross matrices never receive noise unless explicitly requested.
    Depth 0 is exactly the base kernel.
    """
    same = X2 is None
    if include_noise is None:
        include_noise = same
    K = base_kernel(X, X2, config)
    d1 = base_diag(X, config)
    d2 = d1 if same else base_diag(np.asarray(X2, dtype=np.float64), config)
    for _ in range(config.depth):
        if config.activation == "relu" and (np.any(d1 <= 0) or np.any(d2 <= 0)):
            raise KernelError("non-positive variance encountered in depth recursion")
        K = _layer_step_matrix(K, d1, d2, config)
        d1 = _diag_step(d1, config)
        d2 = d1 if same else _diag_step(d2, config)
    if same:
        low = np.tril(K)
        K = low + np.tril(K, -1).T
        K[np.diag_indices_from(K)] = d1
    if include_noise:
        if K.shape[0] != K.shape[1]:
            raise KernelError("noise can only be added to a square same-batch matrix")
        K[np.diag_indices_from(K)] += config.noise_sq
    return K


def rbf_kernel(
    X: np.ndarray, X2: Optional[np.ndarray] = None, length_scale: float = 1.0
) -> np.ndarray:
    """Stationary baseline kernel exp(-||x - x'||^2 / (2 l^2))."""
    if length_scale <= 0:
        raise KernelError(f"length_scale must be > 0, got {length_scale}")
    X = np.asarray(X, dtype=np.float64)
    same = X2 is None
    X2m = X if same else np.asarray(X2, dtype=np.float64)
    sq1 = np.einsum("ij,ij->i", X, X)
    sq2 = sq1 if same else np.einsum("ij,ij->i", X2m, X2m)
    d2 = np.maximum(sq1[:, None] + sq2[None, :] - 2.0 * (X @ X2m.T), 0.0)
    K = np.exp(-d2 / (2.0 * length_scale**2))
    if same:
        low = np.tril(K)
        K = low + np.tril(K, -1).T
        K[np.diag_indices_from(K)] = 1.0
    return K


def kernel_matrix(
    X: np.ndarray,
    X2: Optional[np.ndarray] = None,
    config: KernelConfig = KernelConfig(),
    include_noise: Optional[bool] = None,
) -> np.ndarray:
    """Family dispatch used by the regressor (noise handling as in nngp_kernel)."""
    if config.kernel_family == "rbf":
        same = X2 is None
        K = rbf_kernel(X, X2, config.length_scale)
        if include_noise if include_noise is not None else same:
            K[np.diag_indices_from(K)] += config.noise_sq
        return K
    return nngp_kernel(X, X2, config, include_noise)
