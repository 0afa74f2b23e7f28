"""Exact Gaussian-process training and prediction over log-cardinalities.

Training factorizes the (noise-augmented) train-train kernel once with a
Cholesky decomposition; prediction is then a linear smoother over the
training targets plus a triangular solve for the predictive variance.
Targets are natural logs of cardinalities; point estimates return to count
space as max(1, exp(mean)).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cholesky, solve_triangular
from scipy.special import ndtri

from .kernel import KernelConfig, array_hash, kernel_diag, kernel_matrix

# Relative jitter escalation before a factorization failure is declared.
# The first attempt adds nothing: a numerically PD kernel keeps the exact
# interpolation identity, which any jitter would spoil in proportion.
JITTER_LADDER = (0.0, 1e-8, 1e-6, 1e-4)

MODEL_FORMAT = "nngp-card-model"
MODEL_VERSION = 2


class FitError(Exception):
    """Kernel factorization failed even after jitter escalation."""


class ModelIOError(Exception):
    """Model file is truncated, malformed, or used with the wrong layout."""


@dataclass(frozen=True)
class CardinalityEstimator:
    """Immutable trained state; safe for concurrent predict calls.

    `chol` is the lower factor of K + noise*I (+ jitter), `alpha` solves
    (K + noise*I) alpha = y_log.
    """

    X_train: np.ndarray
    y_log: np.ndarray
    chol: np.ndarray
    alpha: np.ndarray
    config: KernelConfig
    layout_hash: str = ""
    jitter: float = 0.0

    @property
    def n_train(self) -> int:
        return len(self.y_log)


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
    """Factorize the train-train kernel and solve for the smoother weights.

    The Cholesky is first attempted on the kernel as-is; on failure a
    relative jitter escalates through `JITTER_LADDER` before a FitError
    (with conditioning diagnostics) is raised. O(N^3), computed once;
    deterministic.
    """
    X_train = np.ascontiguousarray(X_train, dtype=np.float64)
    y_log = np.ascontiguousarray(y_log, dtype=np.float64)
    if X_train.ndim != 2 or len(X_train) < 1:
        raise FitError("X_train must be a non-empty (n, d_enc) matrix")
    if y_log.shape != (len(X_train),):
        raise FitError(f"targets have shape {y_log.shape}, expected ({len(X_train)},)")
    if not np.all(np.isfinite(y_log)):
        raise FitError("targets contain non-finite values")
    if not np.all(np.isfinite(X_train)):
        raise FitError("features contain non-finite values")

    K = kernel_matrix(X_train, None, config)  # noise included on the diagonal
    mean_diag = float(np.mean(np.diagonal(K)))
    applied = 0.0
    ladder = JITTER_LADDER
    last_error = None
    for rel in ladder:
        increment = rel * mean_diag - applied
        if increment > 0:
            K[np.diag_indices_from(K)] += increment
            applied = rel * mean_diag
        try:
            L = cholesky(K, lower=True, check_finite=False)
        except LinAlgError as exc:
            last_error = exc
            continue
        alpha = solve_triangular(L, y_log, lower=True, check_finite=False)
        alpha = solve_triangular(L.T, alpha, lower=False, check_finite=False)
        return CardinalityEstimator(
            X_train=X_train,
            y_log=y_log,
            chol=L,
            alpha=alpha,
            config=config,
            layout_hash=layout_hash,
            jitter=applied,
        )
    diag = np.diagonal(K)
    raise FitError(
        "kernel factorization failed after jitter escalation "
        f"(tried relative jitters {ladder}); diagnostics: n={len(K)}, "
        f"mean diag={mean_diag:.3e}, min diag={diag.min():.3e}, "
        f"max |offdiag|={np.abs(K - np.diag(diag)).max():.3e}: {last_error}"
    )


def predict(
    estimator: CardinalityEstimator,
    X_test: np.ndarray,
    delta: float = 0.95,
    layout_hash: str | None = None,
    predictive_noise: bool = False,
) -> Prediction:
    """Predictive mean/variance plus interval, CoV and count-space estimate.

    Parameters
    ----------
    delta : float
        Coverage of the central interval mean +- z * std; must lie in (0, 1).
    layout_hash : str, optional
        When given, must match the hash recorded at fit time.
    predictive_noise : bool
        Add the observation noise to the returned variances (default reports
        the latent-function variance).
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
    if len(X_test) == 0:
        empty = np.zeros(0, dtype=np.float64)
        return Prediction(empty, empty, empty, empty, empty, empty, delta)

    config = estimator.config
    k_star = kernel_matrix(estimator.X_train, X_test, config, include_noise=False)
    mean = k_star.T @ estimator.alpha
    v = solve_triangular(estimator.chol, k_star, lower=True, check_finite=False)
    var = kernel_diag(X_test, config) - np.einsum("ij,ij->j", v, v)
    var = np.maximum(var, 0.0)
    if predictive_noise:
        var = var + config.noise_sq

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


# ---------------------------------------------------------------------------
# model persistence: JSON header line + little-endian float64 payload
# ---------------------------------------------------------------------------


def save(estimator: CardinalityEstimator, path) -> None:
    """Serialize the trained state; `load` + `predict` round-trips exactly."""
    n, d = estimator.X_train.shape
    header = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "config": estimator.config.to_dict(),
        "layout_hash": estimator.layout_hash,
        "n": n,
        "d_enc": d,
        "jitter": estimator.jitter,
        "train_hash": array_hash(estimator.X_train),
        "target_hash": array_hash(estimator.y_log),
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        for arr in (estimator.X_train, estimator.y_log, estimator.chol, estimator.alpha):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load(path) -> CardinalityEstimator:
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline())
        except json.JSONDecodeError:
            raise ModelIOError(f"{path}: missing or corrupt model header") from None
        if header.get("format") != MODEL_FORMAT:
            raise ModelIOError(f"{path}: not a model file (format={header.get('format')!r})")
        if header.get("version") != MODEL_VERSION:
            raise ModelIOError(f"{path}: unsupported model version {header.get('version')!r}")
        payload = fh.read()
    n, d = int(header["n"]), int(header["d_enc"])
    expected = (n * d + n + n * n + n) * 8
    if len(payload) != expected:
        raise ModelIOError(f"{path}: payload has {len(payload)} bytes, expected {expected} (truncated?)")
    pos = 0

    def take(count, shape):
        nonlocal pos
        arr = np.frombuffer(payload[pos : pos + count * 8], dtype="<f8").reshape(shape).copy()
        pos += count * 8
        return arr

    X_train = take(n * d, (n, d))
    y_log = take(n, (n,))
    chol = take(n * n, (n, n))
    alpha = take(n, (n,))
    estimator = CardinalityEstimator(
        X_train=X_train,
        y_log=y_log,
        chol=chol,
        alpha=alpha,
        config=KernelConfig.from_dict(header["config"]),
        layout_hash=header.get("layout_hash", ""),
        jitter=float(header.get("jitter", 0.0)),
    )
    if array_hash(X_train) != header.get("train_hash"):
        raise ModelIOError(f"{path}: training-feature payload does not match its recorded hash")
    if array_hash(y_log) != header.get("target_hash"):
        raise ModelIOError(f"{path}: target payload does not match its recorded hash")
    return estimator
