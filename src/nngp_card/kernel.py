"""The covariance function: the infinite-width network kernel.

The network kernel starts from the linear-readout base case

    K0(x, x') = sigma_b^2 + sigma_w^2 * <x, x'> / d

and applies one closed-form step per hidden layer. For ReLU the step is the
first-order arc-cosine form, written in the cosine c = cos(theta):

    K(x, x') = sigma_b^2 + sigma_w^2 / (2 pi) * sqrt(Kxx * Kx'x')
               * (sqrt(1 - c^2) + (pi - arccos(c)) * c),
    c = Kxx' / sqrt(Kxx * Kx'x'),

whose diagonal reduces to sigma_b^2 + sigma_w^2 * Kxx / 2. For Erf the step is

    K(x, x') = sigma_b^2 + sigma_w^2 * (2 / pi)
               * arcsin(2 Kxx' / sqrt((1 + 2 Kxx)(1 + 2 Kx'x'))).

The bias of a shared additive bias term lands on every entry, diagonal and
off-diagonal alike, as in the infinite-width limit.

Given the per-layer diagonals, which follow their own recurrence, every
layer step is elementwise. `nngp_kernel` therefore builds a matrix in row
blocks of a fixed number of entries: each block gets its base values and then
every depth layer, in place, while it is in cache. A same-batch matrix
computes only its upper row blocks K[lo:hi, lo:], each in one contiguous
tile, since the view itself is strided and ragged and every elementwise pass
is slower on it. It copies each into a zeroed buffer and either mirrors it
(the dense matrix) or leaves the strict lower triangle 0 (triangle=True, the
half a Cholesky never reads), so a build allocates one n x m output and
block-sized tile and scratch, nothing more. The zeroed buffer comes from
`square_zeros`, which declines transparent huge pages: numpy advises them for
every array of 4 MiB or more, and a 2 MiB page would back the untouched
triangle along with the written one. So the triangle takes about 4n^2
resident bytes, while tracemalloc, which counts numpy's allocation, still
sees 8n^2.

`nngp_kernel` returns the noise-free prior covariance.
Observation noise is the regressor's: `kernel_matrix` is the one place that
puts it on a kernel, on the diagonal of the same-batch (training) matrix;
its cross-batch matrices carry none.
"""

from __future__ import annotations

import ctypes
import math
import mmap
import numbers
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

# Entries per row block of a kernel build. The block (a same-batch build's
# tile, or a cross build's full-width rows) and the three scratch arrays of the
# ReLU step, 4 MiB in all, stay in a core's L2 cache while every depth layer
# runs over them. On a 2-core Xeon with one BLAS thread, 2^17 built N=2300 and
# N=8000 kernels faster than 2^18 or 2^19.
_BLOCK_ELEMS = 1 << 17

# Linux's advice that a range take no transparent huge pages; None elsewhere.
_MADV_NOHUGEPAGE = getattr(mmap, "MADV_NOHUGEPAGE", None)
if _MADV_NOHUGEPAGE is not None:
    _madvise = ctypes.CDLL(None).madvise
    _madvise.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int)


class KernelError(Exception):
    """Invalid kernel configuration or numerically unusable input."""


@dataclass(frozen=True)
class KernelConfig:
    """Prior variances, depth, activation and observation noise of the network kernel."""

    sigma_w_sq: float = 1.6
    sigma_b_sq: float = 0.1
    depth: int = 3
    activation: str = "relu"
    noise_sq: float = 1e-3

    def __post_init__(self):
        # checked, not coerced: a model header records the values as given
        for name in ("sigma_w_sq", "sigma_b_sq", "noise_sq"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
                raise KernelError(f"{name} must be a finite number, got {value!r}")
        if isinstance(self.depth, bool) or not isinstance(self.depth, numbers.Integral):
            raise KernelError(f"depth must be an integer, got {self.depth!r}")
        if not isinstance(self.activation, str):
            raise KernelError(f"activation must be a string, got {self.activation!r}")
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

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "KernelConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise KernelError(f"unknown kernel config keys: {sorted(unknown)}")
        return cls(**doc)


# ---------------------------------------------------------------------------
# base case and layer steps
# ---------------------------------------------------------------------------


def _batches(X: np.ndarray, X2: Optional[np.ndarray]) -> tuple:
    """Validated float64 (n, d) and (m, d) batches; X2=None repeats X."""
    X = np.asarray(X, dtype=np.float64)
    X2 = X if X2 is None else np.asarray(X2, dtype=np.float64)
    if X.ndim != 2 or X2.ndim != 2:
        raise KernelError("inputs must be 2-d (n, d_enc) batches")
    if X.shape[1] != X2.shape[1]:
        raise KernelError(f"feature dimensions differ: {X.shape[1]} vs {X2.shape[1]}")
    if X.shape[1] == 0:
        raise KernelError("feature dimension must be >= 1")
    return X, X2


def base_kernel(X: np.ndarray, X2: Optional[np.ndarray], config: KernelConfig) -> np.ndarray:
    """Linear-readout kernel sigma_b^2 + sigma_w^2 <x, x'> / d.

    X2=None means the symmetric same-batch case.
    """
    X, X2 = _batches(X, X2)
    K = (config.sigma_w_sq / X.shape[1]) * (X @ X2.T)
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
    (broadcastable shapes) and returns the next layer's covariance, computed
    by the same in-place step that builds kernel matrices.
    """
    k_xx = np.asarray(k_xx, dtype=np.float64)
    k_xpxp = np.asarray(k_xpxp, dtype=np.float64)
    if np.any(k_xx <= 0) or np.any(k_xpxp <= 0):
        raise KernelError("relu layer step requires strictly positive variances")
    K = _broadcast_copy(k_xx, k_xxp, k_xpxp)
    _relu_step(K, k_xx, k_xpxp, config, [np.empty_like(K) for _ in range(3)])
    return K


def erf_kernel_step(
    k_xx: np.ndarray, k_xxp: np.ndarray, k_xpxp: np.ndarray, config: KernelConfig
) -> np.ndarray:
    """One Erf-layer update of cross-covariance entries (vectorized)."""
    k_xx = np.asarray(k_xx, dtype=np.float64)
    k_xpxp = np.asarray(k_xpxp, dtype=np.float64)
    K = _broadcast_copy(k_xx, k_xxp, k_xpxp)
    _erf_step(K, k_xx, k_xpxp, config)
    return K


def _broadcast_copy(k_xx, k_xxp, k_xpxp) -> np.ndarray:
    shape = np.broadcast_shapes(np.shape(k_xx), np.shape(k_xxp), np.shape(k_xpxp))
    return np.array(np.broadcast_to(np.asarray(k_xxp, dtype=np.float64), shape))


def _relu_step(K, k_xx, k_xpxp, config, scratch) -> None:
    """Arc-cosine step in place on K, with three scratch arrays of K's shape.

    With s = sqrt(Kxx Kx'x') and c = cos(theta) = K / s clamped into [-1, 1]
    (absorbing floating-point drift on near-identical inputs), the
    expectation is s / (2 pi) * (sqrt((1 - c)(1 + c)) + (pi - arccos c) c).
    """
    s, t, u = scratch
    np.multiply(k_xx, k_xpxp, out=s)
    np.sqrt(s, out=s)
    K /= s
    np.clip(K, -1.0, 1.0, out=K)
    np.arccos(K, out=t)
    np.subtract(math.pi, t, out=t)
    t *= K
    np.subtract(1.0, K, out=u)
    K += 1.0
    K *= u
    np.sqrt(K, out=K)
    K += t
    s /= 2.0 * math.pi
    K *= s
    K *= config.sigma_w_sq
    K += config.sigma_b_sq


def _erf_step(K, k_xx, k_xpxp, config) -> None:
    """Erf step in place on K; the arcsin argument is clamped into [-1, 1]."""
    K *= 2.0 / np.sqrt(1.0 + 2.0 * k_xx)
    K *= 1.0 / np.sqrt(1.0 + 2.0 * k_xpxp)
    np.clip(K, -1.0, 1.0, out=K)
    np.arcsin(K, out=K)
    K *= (2.0 / math.pi) * config.sigma_w_sq
    K += config.sigma_b_sq


def _diag_step(diag: np.ndarray, config: KernelConfig) -> np.ndarray:
    if config.activation == "relu":
        return config.sigma_b_sq + config.sigma_w_sq * diag / 2.0
    return config.sigma_b_sq + config.sigma_w_sq * (2.0 / math.pi) * np.arcsin(
        2.0 * diag / (1.0 + 2.0 * diag)
    )


def _diag_layers(X: np.ndarray, config: KernelConfig) -> list:
    """K^l(x, x) for l = 0..depth; each variance a ReLU step divides by is checked."""
    diags = [base_diag(X, config)]
    for _ in range(config.depth):
        if config.activation == "relu" and np.any(diags[-1] <= 0):
            raise KernelError("non-positive variance encountered in depth recursion")
        diags.append(_diag_step(diags[-1], config))
    return diags


def kernel_diag(X: np.ndarray, config: KernelConfig) -> np.ndarray:
    """K(x, x) per row, without observation noise."""
    return _diag_layers(X, config)[-1]


def row_blocks(n_rows: int, n_cols: int, upper: bool = False):
    """(lo, hi) row ranges of an n_rows x n_cols matrix, each of at most
    _BLOCK_ELEMS entries (or one row, if a row is longer).

    upper=True walks the upper triangle of a square matrix: block lo:hi spans
    only columns lo:n_cols, so the blocks hold more rows as they go down.
    """
    lo = 0
    while lo < n_rows:
        width = n_cols - lo if upper else n_cols
        hi = min(n_rows, lo + max(1, _BLOCK_ELEMS // max(width, 1)))
        yield lo, hi
        lo = hi


def _largest_block(n_rows: int, n_cols: int) -> int:
    """Entries of the largest of `row_blocks`: _BLOCK_ELEMS, or one row if longer."""
    return min(n_rows * n_cols, max(_BLOCK_ELEMS, n_cols))


def square_zeros(n: int, order: str = "C", dtype=np.float64) -> np.ndarray:
    """np.zeros((n, n)), whose pages are backed only where it is written.

    numpy advises transparent huge pages for every array of 4 MiB or more, so
    the first write into a 2 MiB page backs all of it, and a triangle written
    in an n x n buffer backs the unwritten one along with it. The array's
    page-aligned interior is advised MADV_NOHUGEPAGE instead (where the
    platform has it), so only the 4 KiB pages a write touches are backed. The
    memory is still numpy's own allocation, which tracemalloc counts in full.
    """
    A = np.zeros((n, n), dtype, order=order)
    if _MADV_NOHUGEPAGE is not None:
        start = -A.ctypes.data % mmap.PAGESIZE  # offset of the first whole page
        length = (A.nbytes - start) // mmap.PAGESIZE * mmap.PAGESIZE
        if length > 0:
            _madvise(A.ctypes.data + start, length, _MADV_NOHUGEPAGE)
    return A


def nngp_kernel(
    X: np.ndarray,
    X2: Optional[np.ndarray] = None,
    config: KernelConfig = KernelConfig(),
    triangle: bool = False,
) -> np.ndarray:
    """Depth-recursed network kernel matrix, without observation noise.

    It is built row block by row block, as the module docstring describes. A
    cross matrix K(X, X2) is built in place: its rows are full width, so each
    block is contiguous. X2=None builds the symmetric same-batch matrix: each
    upper block K[lo:hi, lo:] is built in one C-contiguous tile, allocated
    once per build, by the same passes in the same order, to the same bits,
    then copied in, and its entries below the diagonal are zeroed
    (triangle=True) or mirrored from those above it. So the upper triangle is
    the same, bit for bit, in both layouts, and the triangle is exactly what a
    lower Cholesky of the Fortran-order K.T reads. The diagonal comes from the
    exact diagonal recurrence, so it equals `kernel_diag`. Depth 0 is exactly
    the base kernel.
    """
    same = X2 is None
    X, X2 = _batches(X, X2)
    n, m = len(X), len(X2)
    if triangle and not same:
        raise KernelError("triangle=True needs the same-batch matrix (X2=None)")
    row_diags = _diag_layers(X, config)
    col_diags = row_diags if same else _diag_layers(X2, config)
    relu = config.activation == "relu"
    scratch = np.empty((3, _largest_block(n, m))) if relu else None
    if same:
        K, tile = square_zeros(n), np.empty(_largest_block(n, n))
    else:
        K = np.empty((n, m))
    for lo, hi in row_blocks(n, m, upper=same):
        rows, cols = slice(lo, hi), (slice(lo, None) if same else slice(None))
        block = tile[: (hi - lo) * (n - lo)].reshape(hi - lo, n - lo) if same else K[rows]
        block[...] = base_kernel(X[rows], X2[cols], config)
        if relu:
            block_scratch = [buf[: block.size].reshape(block.shape) for buf in scratch]
        for depth in range(config.depth):
            k_xx, k_xpxp = row_diags[depth][rows, None], col_diags[depth][None, cols]
            if relu:
                _relu_step(block, k_xx, k_xpxp, config, block_scratch)
            else:
                _erf_step(block, k_xx, k_xpxp, config)
        if same:
            K[lo:hi, lo:] = block
            square = K[lo:hi, lo:hi]
            below = np.tri(hi - lo, k=-1, dtype=bool)
            if triangle:
                square[below] = 0.0
            else:
                square[below] = square.T[below]
                K[hi:, lo:hi] = K[lo:hi, hi:].T
    if same:
        np.fill_diagonal(K, row_diags[-1])
    return K


def kernel_matrix(
    X: np.ndarray,
    X2: Optional[np.ndarray] = None,
    config: KernelConfig = KernelConfig(),
    triangle: bool = False,
) -> np.ndarray:
    """The regressor's covariance: the network kernel plus observation noise.

    X2=None gives the training covariance K(X, X) + noise_sq * I; a cross
    matrix K(X, X2) carries no noise. triangle=True, for the training
    covariance only, leaves its strict lower triangle 0 instead of mirroring
    the upper one: the C-order upper triangle is all that `gp.fit` factors.
    """
    K = nngp_kernel(X, X2, config, triangle)
    if X2 is None:
        K[np.diag_indices_from(K)] += config.noise_sq
    return K
