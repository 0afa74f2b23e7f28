"""Exact Gaussian-process training and prediction over log-cardinalities.

Training factorizes the train-train covariance K + noise*I, which
`kernel_matrix` returns, once with a Cholesky decomposition L; the only term
the regressor adds to K is the jitter of a failed factorization. A posterior
whitens the queries' cross kernel, v = L^-1 K(train, X): its mean is v^T w
for the whitened targets w = L^-1 y, its variance prior - colsum(v^2).
The fit builds only the upper triangle of the kernel, the half LAPACK reads,
and factors it in place, so the factor occupies the kernel's own n x n
buffer, a fit holds one n x n matrix at a time, and the factor's strict
upper triangle is exactly zero. That triangle is never written. Every n x n
buffer here (a fit's kernel, a grown and a loaded factor) comes from
`square_zeros`, which declines transparent huge pages, so unwritten pages are
never backed: a fitted or loaded model holds about 4n^2 resident bytes, while
tracemalloc still counts the buffer's 8n^2. A jitter rung that fails has
consumed that buffer; it is released before the next rung rebuilds the
kernel.
Prediction whitens the queries in pieces of `_WHITEN_COLS` columns, so its
working set is one n x `_WHITEN_COLS` block, whatever the batch size.
`extend` grows a fitted model by new training rows with an exact
block-Cholesky append instead of a refit. `save` and `load` keep the trained
state in an `artifact` file, whose header and every payload are hash-verified
on load; the file stores only the factor's lower triangle, column by column.
Targets are natural logs of cardinalities; point estimates return to count
space as max(1, exp(mean)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cholesky, solve_triangular
from scipy.special import ndtri

from . import artifact
from .kernel import KernelConfig, KernelError, kernel_diag, kernel_matrix, row_blocks, square_zeros

# Relative jitter escalation before a factorization failure is declared.
# The first attempt adds nothing: a numerically PD kernel keeps the exact
# interpolation identity, which any jitter would spoil in proportion.
JITTER_LADDER = (0.0, 1e-8, 1e-6, 1e-4)

# Query columns per whitened piece, in `predict` and in the active-learning
# blocks: one piece is n x 512 doubles (8 MiB at n = 2000). On a 2-core Xeon
# with one BLAS thread and n = 2000, 3000 columns solved in 0.34 s as
# 512-column pieces and in 0.45 s as 65-column ones.
_WHITEN_COLS = 512

MODEL_FORMAT = "nngp-card-model"
MODEL_VERSION = 6


class FitError(Exception):
    """Kernel factorization failed even after jitter escalation."""


class ModelIOError(Exception):
    """Model file is truncated, malformed, or used with the wrong layout."""


@dataclass(frozen=True)
class CardinalityEstimator:
    """Immutable trained state; safe for concurrent predict calls.

    `chol` is the lower factor L of K + noise*I (+ jitter), in Fortran order
    and in the memory the kernel was built in, with a zero strict upper
    triangle; `w` = L^-1 y_log are the whitened targets. `file_hash` is the
    verified header hash of the model file the state was loaded from, empty
    for a fitted state.
    """

    X_train: np.ndarray
    y_log: np.ndarray
    chol: np.ndarray
    w: np.ndarray
    config: KernelConfig
    layout_hash: str = ""
    jitter: float = 0.0
    file_hash: str = ""

    @property
    def n_train(self) -> int:
        return len(self.y_log)

    @property
    def alpha(self) -> np.ndarray:
        """The smoother weights (K + noise*I)^-1 y_log = L^-T w, solved on each read."""
        return solve_triangular(self.chol.T, self.w, lower=False, check_finite=False)


@dataclass(frozen=True)
class Prediction:
    """Per-query predictive distribution summaries, all aligned arrays.

    mean_log/var_log live in log-count space, card_estimate in counts
    (clamped to >= 1), (ci_low, ci_high) is the central delta-interval and
    cov the coefficient of variation used as the uncertainty score.
    """

    mean_log: np.ndarray
    var_log: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    cov: np.ndarray
    card_estimate: np.ndarray
    delta: float

    def __len__(self) -> int:
        return len(self.mean_log)


def fit(
    X_train: np.ndarray,
    y_log: np.ndarray,
    config: KernelConfig = KernelConfig(),
    layout_hash: str = "",
) -> CardinalityEstimator:
    """Factorize the train-train kernel and whiten the targets by its factor.

    The Cholesky is first attempted on the kernel as-is; on failure the
    kernel is rebuilt with a relative jitter, escalating through
    `JITTER_LADDER`, before a FitError (with conditioning diagnostics of the
    unfactorized kernel) is raised. O(N^3), computed once; deterministic.
    """
    X_train, y_log = _training_data(X_train, y_log)
    # noise included on the diagonal; the strict lower triangle is zero
    K = kernel_matrix(X_train, None, config, triangle=True)
    mean_diag = float(np.mean(np.diagonal(K)))
    last_error = ""
    for rel in JITTER_LADDER:
        if K is None:  # the failed factorization consumed the buffer
            K = kernel_matrix(X_train, None, config, triangle=True)
        jitter = rel * mean_diag
        if jitter:
            K[np.diag_indices_from(K)] += jitter
        try:
            # K.T is the Fortran-order transpose, so LAPACK's lower factor
            # reads K's upper triangle and overwrites it in place: the factor
            # takes the kernel's memory, over the zeros of its upper part.
            L, _ = cho_factor(K.T, lower=True, overwrite_a=True, check_finite=False)
        except LinAlgError as exc:
            # keep the message only: the traceback holds the consumed buffer
            last_error, K = str(exc), None
            continue
        return _estimator(X_train, y_log, L, config, layout_hash, jitter)
    raise FitError(
        "kernel factorization failed after jitter escalation "
        f"(tried relative jitters {JITTER_LADDER}); diagnostics: "
        f"{_conditioning(kernel_matrix(X_train, None, config))}: {last_error}"
    )


def extend(
    estimator: CardinalityEstimator, X_new: np.ndarray, y_new: np.ndarray
) -> CardinalityEstimator:
    """The model fitted on its training set plus k new rows, by a block-Cholesky append.

    With B = L^-1 K(old, new) and S = K(new, new) + noise + jitter - B^T B, the
    factor of the grown kernel is L' = [[L, 0], [B^T, chol(S)]]: O(n^2 k + k^3)
    plus an n x k cross kernel, against O((n + k)^3) for a refit. The new
    diagonal carries the model's absolute jitter, so the result is the exact
    fit of the union at that jitter, and the leading n x n block of L' is L
    itself. If S does not factor, the union is refit by `fit`, jitter ladder
    and all.
    """
    return extend_whitened(estimator, X_new, y_new, ())[0]


def extend_whitened(estimator: CardinalityEstimator, X_new: np.ndarray, y_new: np.ndarray, batches) -> tuple:
    """`extend`, growing each `Whitened` batch in `batches` with the model, and whether
    it appended (True: the batches grew by k rows) or refit (False: they were whitened again)."""
    X_new, y_new = _training_data(X_new, y_new)
    n, d = estimator.X_train.shape
    if X_new.shape[1] != d:
        raise FitError(f"feature dimension {X_new.shape[1]} does not match training dimension {d}")
    X = np.concatenate([estimator.X_train, X_new])
    y = np.concatenate([estimator.y_log, y_new])
    config = estimator.config
    B = _whiten(estimator, X_new)
    S = kernel_matrix(X_new, None, config)  # noise included on the diagonal
    S[np.diag_indices_from(S)] += estimator.jitter
    S -= B.T @ B
    try:
        C = cholesky(S, lower=True, overwrite_a=True, check_finite=False)
    except LinAlgError:
        grown = fit(X, y, config, estimator.layout_hash)
        for batch in batches:
            batch._rebuild(grown)
        return grown, False
    # the batches grow before the (n + k)^2 factor is allocated
    for batch in batches:
        batch._grow(X_new, B, C)
    # the old factor's zeros are not copied: above row n, the strict upper
    # triangle stays the buffer's zeros, and its pages are never backed
    L = square_zeros(len(y), "F")
    for column, old in zip(_lower_columns(L), _lower_columns(estimator.chol)):
        column[: len(old)] = old
    L[n:, :n] = B.T
    L[n:, n:] = C
    return _estimator(X, y, L, config, estimator.layout_hash, estimator.jitter), True


def _training_data(X: np.ndarray, y: np.ndarray) -> tuple:
    """Validated float64 features (n >= 1 rows) and their n finite targets."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    if X.ndim != 2 or len(X) < 1:
        raise FitError("training features must be a non-empty (n, d_enc) matrix")
    if y.shape != (len(X),):
        raise FitError(f"targets have shape {y.shape}, expected ({len(X)},)")
    if not np.all(np.isfinite(y)):
        raise FitError("targets contain non-finite values")
    if not np.all(np.isfinite(X)):
        raise FitError("features contain non-finite values")
    return X, y


def _estimator(X, y, L, config, layout_hash, jitter) -> CardinalityEstimator:
    """Trained state from the factor L of the kernel: w = L^-1 y by one triangular solve."""
    return CardinalityEstimator(
        X_train=X,
        y_log=y,
        chol=L,
        w=solve_triangular(L, y, lower=True, check_finite=False),
        config=config,
        layout_hash=layout_hash,
        jitter=jitter,
    )


def _conditioning(K: np.ndarray) -> str:
    """Size and diagonal/off-diagonal scale of a kernel, read block by block."""
    n = len(K)
    diag = np.diagonal(K)
    offdiag = 0.0
    for lo, hi in row_blocks(n, n):
        block = np.abs(K[lo:hi])
        block[np.arange(hi - lo), np.arange(lo, hi)] = 0.0
        offdiag = max(offdiag, float(block.max()))
    return (
        f"n={n}, mean diag={diag.mean():.3e}, min diag={diag.min():.3e}, "
        f"max |offdiag|={offdiag:.3e}"
    )


def predict(
    estimator: CardinalityEstimator,
    X_test: np.ndarray,
    delta: float = 0.95,
    layout_hash: str | None = None,
) -> Prediction:
    """Predictive mean/variance plus interval, CoV and count-space estimate.

    Parameters
    ----------
    delta : float
        Coverage of the central interval mean +- z * std; must lie in (0, 1).
    layout_hash : str, optional
        When given, must match the hash recorded at fit time.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if layout_hash is not None and estimator.layout_hash and layout_hash != estimator.layout_hash:
        raise ModelIOError(
            f"encoding layout mismatch: model was trained with {estimator.layout_hash}, "
            f"queries encoded with {layout_hash}"
        )
    X_test = np.ascontiguousarray(X_test, dtype=np.float64)
    if X_test.ndim != 2:
        raise ModelIOError("X_test must be a 2-d (m, d_enc) matrix")
    if X_test.shape[1] != estimator.X_train.shape[1]:
        raise ModelIOError(
            f"feature dimension {X_test.shape[1]} does not match training "
            f"dimension {estimator.X_train.shape[1]}"
        )
    if not np.all(np.isfinite(X_test)):
        raise ModelIOError("query features contain non-finite values")
    if len(X_test) == 0:
        empty = np.zeros(0, dtype=np.float64)
        return Prediction(empty, empty, empty, empty, empty, empty, delta)

    mean, explained = np.empty(len(X_test)), np.empty(len(X_test))
    for lo in range(0, len(X_test), _WHITEN_COLS):
        piece = slice(lo, lo + _WHITEN_COLS)
        # the piece is freed before the next one is built
        mean[piece], explained[piece] = _moments(_whiten(estimator, X_test[piece]), estimator.w)
    return _summarize(mean, kernel_diag(X_test, estimator.config), explained, delta)


def _whiten(estimator: CardinalityEstimator, X: np.ndarray) -> np.ndarray:
    """The whitened cross block L^-1 K(train, X).

    The cross kernel is built as K(X, train) and transposed, so the n x m block
    is already in Fortran order and the triangular solve runs in its memory.
    """
    k_star = kernel_matrix(X, estimator.X_train, estimator.config).T
    return solve_triangular(estimator.chol, k_star, lower=True, overwrite_b=True, check_finite=False)


def _moments(v: np.ndarray, w: np.ndarray) -> tuple:
    """The posterior mean v^T w and the variance the training data explains, colsum(v^2)."""
    return v.T @ w, np.einsum("ij,ij->j", v, v)


def _summarize(mean, prior_var, explained, delta) -> Prediction:
    """Posterior summaries from the mean, the prior variances and the variance
    the training data explains: the latent variance prior - explained,
    clamped at zero."""
    var = np.maximum(prior_var - explained, 0.0)
    ci_low, ci_high = _interval(mean, var, delta)
    cov = _coefficient_of_variation(mean, var)
    card = np.maximum(1.0, np.exp(np.minimum(mean, 700.0)))
    return Prediction(mean, var, ci_low, ci_high, cov, card, delta)


def _interval(mean, var, delta):
    q = float(ndtri((1.0 + delta) / 2.0))
    half = q * np.sqrt(var)
    return mean - half, mean + half


def _coefficient_of_variation(mean, var):
    with np.errstate(divide="ignore"):
        return np.where(mean != 0.0, np.sqrt(var) / np.abs(mean), np.inf)


class Whitened:
    """v = L^-1 K(train, X) for a fixed query batch X, with `predict`'s posterior.

    v sits in the leading rows and columns of one Fortran-order buffer sized
    for the largest training set it will see, so `extend_whitened` appends
    rows and `drop` removes columns without copying it. It is whitened, grown
    and compacted in pieces of `_WHITEN_COLS` columns, so no second
    block-sized array is ever held.
    """

    def __init__(self, X: np.ndarray, rows: int, estimator: CardinalityEstimator):
        self.X, self.config = X, estimator.config
        self.cols = np.arange(len(X))
        self.prior = kernel_diag(X, self.config)
        self.buf = np.empty((rows, len(X)), order="F")
        self._rebuild(estimator)

    def predict(self, estimator: CardinalityEstimator) -> Prediction:
        """The posterior at `estimator`, the model the batch was whitened or grown by."""
        mean, explained = _moments(self.buf[: self.n, : len(self.cols)], estimator.w)
        return _summarize(mean, self.prior, explained, delta=0.95)

    def drop(self, positions: np.ndarray) -> None:
        """Remove the columns at `positions`, moving the kept ones left in place."""
        keep = np.delete(np.arange(len(self.cols)), positions)
        # kept column j comes from column keep[j] >= j, so moving pieces in
        # ascending order never overwrites a column before it is read
        for lo in range(0, len(keep), _WHITEN_COLS):
            part = keep[lo : lo + _WHITEN_COLS]
            self.buf[: self.n, lo : lo + len(part)] = self.buf[: self.n, part]
        self.cols, self.prior = self.cols[keep], self.prior[keep]

    def _rebuild(self, estimator: CardinalityEstimator) -> None:
        """Whiten every column against the estimator's factor."""
        self.n = estimator.n_train
        for lo in range(0, len(self.cols), _WHITEN_COLS):
            part = self.cols[lo : lo + _WHITEN_COLS]
            self.buf[: self.n, lo : lo + len(part)] = _whiten(estimator, self.X[part])

    def _grow(self, X_new: np.ndarray, B: np.ndarray, C: np.ndarray) -> None:
        """Append the rows of the new training rows X_new: with the grown factor
        [[L, 0], [B^T, C]], they are C^-1 (K(X_new, X) - B^T v)."""
        n, k = self.n, len(X_new)
        for lo in range(0, len(self.cols), _WHITEN_COLS):
            part = slice(lo, min(lo + _WHITEN_COLS, len(self.cols)))
            R = kernel_matrix(self.X[self.cols[part]], X_new, self.config).T
            R -= B.T @ self.buf[:n, part]
            self.buf[n : n + k, part] = solve_triangular(C, R, lower=True, overwrite_b=True, check_finite=False)
        self.n = n + k


# ---------------------------------------------------------------------------
# model persistence: an `artifact` file of four float64 payloads
# ---------------------------------------------------------------------------


# (estimator field, header key of its hash, name in errors, hashed shape for n
# rows of d features), in file order; the factor is stored as its lower triangle
_PAYLOADS = (
    ("X_train", "train_hash", "training-feature", lambda n, d: (n, d)),
    ("y_log", "target_hash", "target", lambda n, d: (n,)),
    ("chol", "chol_hash", "Cholesky-factor", lambda n, d: (n * (n + 1) // 2,)),
    ("w", "w_hash", "whitened-target", lambda n, d: (n,)),
)


def _lower_columns(L: np.ndarray) -> list:
    """The lower triangle of L as its columns L[j:, j], in LAPACK's packed-lower
    order; each is a contiguous view when L is in Fortran order."""
    return [L[j:, j] for j in range(len(L))]


def save(estimator: CardinalityEstimator, path) -> None:
    """Serialize the trained state; `load` + `predict` round-trips exactly.

    The factor is stored as its lower triangle, written and hashed column by
    column straight from the Fortran-order buffer, without an n x n copy.
    """
    n, d = estimator.X_train.shape
    header = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "config": estimator.config.to_dict(),
        "layout_hash": estimator.layout_hash,
        "n": n,
        "d_enc": d,
        "jitter": estimator.jitter,
    }
    data = dict(vars(estimator), chol=_lower_columns(estimator.chol))
    payloads = [(key, data[field], np.float64) for field, key, _, _ in _PAYLOADS]
    artifact.write(path, header, payloads)


def load(path) -> CardinalityEstimator:
    """Read a model file; its header and every payload must match their recorded hashes.

    The factor is read column by column into a zeroed Fortran-order buffer,
    so it has the fitted factor's layout and bits, and its upper triangle,
    never written, is never backed.
    """
    fields = {}

    def check(header):
        if header.get("format") != MODEL_FORMAT:
            raise ModelIOError(f"{path}: not a model file (format={header.get('format')!r})")
        if header.get("version") != MODEL_VERSION:
            raise ModelIOError(f"{path}: unsupported model version {header.get('version')!r}")

    def payloads(header):
        try:
            fields["config"] = KernelConfig.from_dict(header["config"])
        except KernelError:
            raise ModelIOError(f"{path}: missing or corrupt header") from None
        n, d = int(header["n"]), int(header["d_enc"])

        def factor():
            fields["chol"] = square_zeros(n, "F", "<f8")
            return _lower_columns(fields["chol"])

        return [
            (key, what, shape(n, d), "<f8", factor if field == "chol" else None)
            for field, key, what, shape in _PAYLOADS
        ]

    header, buffers = artifact.read(path, ModelIOError, check, payloads)
    for field, key, _, _ in _PAYLOADS:
        fields.setdefault(field, buffers[key])
    return CardinalityEstimator(
        **fields,
        layout_hash=header.get("layout_hash", ""),
        jitter=float(header.get("jitter", 0.0)),
        file_hash=header["header_hash"],
    )
