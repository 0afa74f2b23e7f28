"""Accuracy metrics, uncertainty/error diagnostics, and uncertainty sampling.

q-error is the symmetric ratio max(c/chat, chat/c) (1 = perfect); the squared
log-ratio loss it pairs with is reported as mse_log. The active-learning loop
implements plain uncertainty sampling: rank the unlabeled pool by coefficient
of variation, move the top k into training and grow the exact GP by a
block-Cholesky append (`gp.extend`); the pool and test posteriors grow by the
same k rows instead of being recomputed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from . import gp
from .gp import CardinalityEstimator, Prediction
from .kernel import KernelConfig, kernel_diag, kernel_matrix

Q_QUANTILES = (25, 50, 75, 95)


def q_errors(true_cards: np.ndarray, est_cards: np.ndarray) -> np.ndarray:
    """Symmetric relative errors max(true/est, est/true); every input must be >= 1."""
    true_cards = np.asarray(true_cards, dtype=np.float64)
    est_cards = np.asarray(est_cards, dtype=np.float64)
    if true_cards.shape != est_cards.shape:
        raise ValueError("true and estimated cardinalities must align")
    if np.any(true_cards < 1) or np.any(est_cards < 1):
        raise ValueError("q-error needs cardinalities >= 1")
    ratio = true_cards / est_cards
    return np.maximum(ratio, 1.0 / ratio)


def mse_log(true_cards: np.ndarray, est_cards: np.ndarray) -> float:
    """Mean squared natural-log ratio, the training loss reported on test sets."""
    q = q_errors(true_cards, est_cards)  # validates and symmetrizes
    return float(np.mean(np.log(q) ** 2))


@dataclass
class QErrorStats:
    """Quantile summary of a q-error batch, optionally stratified.

    mse_log is the mean squared log q-error, so per-stratum entries give the
    MSE broken down by condition count.
    """

    count: int
    quantiles: dict[int, float]
    max: float
    geometric_mean: float
    mse_log: float
    by_condition_count: dict[int, "QErrorStats"] = field(default_factory=dict)

    @classmethod
    def from_errors(cls, q: np.ndarray, condition_counts: np.ndarray | None = None) -> "QErrorStats":
        q = np.asarray(q, dtype=np.float64)
        if q.size == 0:
            raise ValueError("cannot summarize an empty q-error batch")
        stats = cls(
            count=int(q.size),
            quantiles={p: float(np.percentile(q, p)) for p in Q_QUANTILES},
            max=float(q.max()),
            geometric_mean=float(np.exp(np.mean(np.log(q)))),
            mse_log=float(np.mean(np.log(q) ** 2)),
        )
        if condition_counts is not None:
            condition_counts = np.asarray(condition_counts)
            for value in sorted(set(condition_counts.tolist())):
                stats.by_condition_count[int(value)] = cls.from_errors(q[condition_counts == value])
        return stats

    def to_dict(self) -> dict:
        doc = {
            "count": self.count,
            "quantiles": {str(p): v for p, v in self.quantiles.items()},
            "max": self.max,
            "geometric_mean": self.geometric_mean,
            "mse_log": self.mse_log,
        }
        if self.by_condition_count:
            doc["by_condition_count"] = {
                str(k): v.to_dict() for k, v in self.by_condition_count.items()
            }
        return doc

    def to_text(self) -> str:
        header = f"{'stratum':>10} {'count':>7} " + " ".join(f"p{p:<4}" for p in Q_QUANTILES)
        header += f" {'max':>9} {'gmean':>8} {'mse':>8}"
        lines = [header, _stats_row("all", self)]
        for key in sorted(self.by_condition_count):
            lines.append(_stats_row(str(key), self.by_condition_count[key]))
        return "\n".join(lines)


def _stats_row(label: str, s: QErrorStats) -> str:
    cells = " ".join(f"{s.quantiles[p]:<5.2f}" for p in Q_QUANTILES)
    return (
        f"{label:>10} {s.count:>7} {cells} {s.max:>9.2f} "
        f"{s.geometric_mean:>8.3f} {s.mse_log:>8.3f}"
    )


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks, each tie group sharing its mean rank; all NaN if any
    value is NaN. Equal, bit for bit, to `scipy.stats.rankdata(a)`."""
    if np.isnan(a).any():
        return np.full(a.size, np.nan)
    _, group, counts = np.unique(a, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)  # the tie group of each distinct value holds ranks end - count + 1 .. end
    return ((ends - counts + 1 + ends) / 2.0)[group]


def spearman(x: np.ndarray, y: np.ndarray) -> float | None:
    """Rank correlation with average ties; None when undefined.

    Undefined for batches smaller than 10 or when either side is constant.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("spearman needs two aligned 1-d arrays")
    if x.size < 10:
        return None
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    if rx.std() == 0.0 or ry.std() == 0.0:
        return None
    return float(np.corrcoef(rx, ry)[0, 1])


@dataclass
class UncertaintyReport:
    """Per-query (CoV, q-error) pairs plus their rank correlation."""

    cov: np.ndarray
    q_error: np.ndarray
    abs_log_q_error: np.ndarray
    spearman_cov_vs_log_q: float | None
    stats: QErrorStats
    ids: np.ndarray
    n_conditions: np.ndarray | None = None

    def to_dict(self) -> dict:
        return {
            "spearman_cov_vs_log_q": self.spearman_cov_vs_log_q,
            "q_error_stats": self.stats.to_dict(),
            "count": int(self.q_error.size),
        }

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["query_id", "cov", "q_error", "n_conditions"])
            n_conds = (
                self.n_conditions
                if self.n_conditions is not None
                else np.full(self.q_error.size, -1, dtype=np.int64)
            )
            for qid, cov, qe, nc in zip(self.ids, self.cov, self.q_error, n_conds):
                writer.writerow([int(qid), repr(float(cov)), repr(float(qe)), int(nc)])


def uncertainty_error_report(
    prediction: Prediction,
    true_cards: np.ndarray,
    ids: np.ndarray | None = None,
    n_conditions: np.ndarray | None = None,
) -> UncertaintyReport:
    """Pair each prediction's CoV with its q-error and correlate the two."""
    true_cards = np.asarray(true_cards, dtype=np.float64)
    if len(prediction) != true_cards.size:
        raise ValueError("predictions and labels must align")
    q = q_errors(true_cards, prediction.card_estimate)
    log_q = np.abs(np.log(q))
    if ids is None:
        ids = np.arange(true_cards.size, dtype=np.int64)
    return UncertaintyReport(
        cov=prediction.cov,
        q_error=q,
        abs_log_q_error=log_q,
        spearman_cov_vs_log_q=spearman(prediction.cov, log_q),
        stats=QErrorStats.from_errors(q, n_conditions),
        ids=np.asarray(ids, dtype=np.int64),
        n_conditions=None if n_conditions is None else np.asarray(n_conditions, dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# uncertainty-sampling active learning
# ---------------------------------------------------------------------------


@dataclass
class ALResult:
    """Per-iteration record of an uncertainty-sampling run.

    mse_history[0] is the base model's test MSE; one entry follows per
    iteration. selected holds original pool indices, in selection order.
    refits counts the iterations whose block-Cholesky append failed (the new
    rows' Schur complement did not factor), so that `gp.extend` refit the
    union from scratch.
    """

    mse_history: list[float]
    selected: list[np.ndarray]
    estimator: CardinalityEstimator
    refits: int


class _Whitened:
    """V = L^-1 K(train, X) for a fixed query batch X, grown with the model.

    With V and the whitened targets w = L^-1 y, the posterior mean is V^T w
    and the latent variance prior - colsum(V^2). V sits in the leading rows
    and columns of one Fortran-order buffer sized for the largest training
    set it will see, so appending rows and dropping columns never copies it.
    The block is built and compacted in pieces of `gp._WHITEN_COLS` columns,
    so no second block-sized array is ever held.
    """

    def __init__(self, X: np.ndarray, rows: int, estimator: CardinalityEstimator):
        self.X = X
        self.cols = np.arange(len(X))
        self.prior = kernel_diag(X, estimator.config)
        self.buf = np.empty((rows, len(X)), order="F")
        self.rebuild(estimator)

    @property
    def V(self) -> np.ndarray:
        return self.buf[: self.n, : len(self.cols)]

    def rebuild(self, estimator: CardinalityEstimator) -> None:
        """Whiten every column against the estimator's factor."""
        self.n = estimator.n_train
        for lo in range(0, len(self.cols), gp._WHITEN_COLS):
            part = self.cols[lo : lo + gp._WHITEN_COLS]
            self.buf[: self.n, lo : lo + len(part)] = gp._whiten(estimator, self.X[part])[1]

    def grow(self, estimator: CardinalityEstimator) -> None:
        """Append the rows for the estimator's training rows beyond the first n.

        Its factor is [[L, 0], [B^T, C]] with L the one V was whitened by, so
        the new rows are C^-1 (K(new, X) - B^T V).
        """
        n, L = self.n, estimator.chol
        R = kernel_matrix(self.X[self.cols], estimator.X_train[n:], estimator.config).T
        R -= L[n:, :n] @ self.V
        rows = solve_triangular(L[n:, n:], R, lower=True, overwrite_b=True, check_finite=False)
        self.buf[n : estimator.n_train, : len(self.cols)] = rows
        self.n = estimator.n_train

    def drop(self, positions: np.ndarray) -> None:
        """Remove the columns at `positions`, moving the kept ones left in place."""
        keep = np.delete(np.arange(len(self.cols)), positions)
        # kept column j comes from column keep[j] >= j, so moving pieces in
        # ascending order never overwrites a column before it is read
        for lo in range(0, len(keep), gp._WHITEN_COLS):
            part = keep[lo : lo + gp._WHITEN_COLS]
            self.buf[: self.n, lo : lo + len(part)] = self.buf[: self.n, part]
        self.cols, self.prior = self.cols[keep], self.prior[keep]

    def predict(self, w: np.ndarray) -> Prediction:
        V = self.V
        return gp._summarize(V.T @ w, self.prior, np.einsum("ij,ij->j", V, V), delta=0.95)


def active_learn(
    X_train: np.ndarray,
    y_train_log: np.ndarray,
    X_pool: np.ndarray,
    y_pool_log: np.ndarray,
    X_test: np.ndarray,
    test_cards: np.ndarray,
    config: KernelConfig = KernelConfig(),
    iterations: int = 3,
    k: int = 1000,
) -> ALResult:
    """Grow the training set by the k most-uncertain pool queries per iteration.

    Pool queries are drawn without replacement, ranked by coefficient of
    variation (descending, ties broken by ascending pool index); the model
    grows by `gp.extend` each iteration and the test MSE is recorded. The
    pool's and the test set's whitened cross blocks grow by k rows per
    iteration, so an iteration costs O(k n (n + m) + k^3) for m pool and test
    queries, not a refit's O(n^3 + n^2 m); the result is the exact GP of
    each grown training set at the model's absolute jitter. Pool labels are
    looked up only for selected queries, mirroring an oracle call.
    """
    X_pool = np.asarray(X_pool, dtype=np.float64)
    y_pool_log = np.asarray(y_pool_log, dtype=np.float64)
    if iterations < 0 or k < 0:
        raise ValueError("iterations and k must be non-negative")
    if iterations * k > len(X_pool):
        raise ValueError(
            f"pool exhausted: {iterations} x {k} selections exceed pool size {len(X_pool)}"
        )

    estimator = gp.fit(X_train, y_train_log, config)
    rows = estimator.n_train + iterations * k
    test = _Whitened(np.asarray(X_test, dtype=np.float64), rows, estimator)
    # the pool block is last read before the final selection
    pool = _Whitened(X_pool, rows - k, estimator) if iterations and k else None
    w = _whitened_targets(estimator)
    history = [mse_log(test_cards, test.predict(w).card_estimate)]
    selected: list[np.ndarray] = []
    refits = 0

    for i in range(iterations):
        chosen = np.zeros(0, dtype=np.int64)
        if pool is not None:
            order = np.argsort(-pool.predict(w).cov, kind="stable")[:k]
            chosen = pool.cols[order]
            if i == iterations - 1:
                pool = None  # free the block before the factor grows
            else:
                pool.drop(order)
            grown = gp.extend(estimator, X_pool[chosen], y_pool_log[chosen])
            # extend keeps the old factor as the leading block unless it refit
            appended = np.array_equal(grown.chol[: estimator.n_train, : estimator.n_train], estimator.chol)
            estimator = grown
            update = _Whitened.grow if appended else _Whitened.rebuild
            update(test, estimator)
            if pool is not None:
                update(pool, estimator)
            refits += not appended
            w = _whitened_targets(estimator)
        selected.append(chosen)
        history.append(mse_log(test_cards, test.predict(w).card_estimate))
    return ALResult(mse_history=history, selected=selected, estimator=estimator, refits=refits)


def _whitened_targets(estimator: CardinalityEstimator) -> np.ndarray:
    return solve_triangular(estimator.chol, estimator.y_log, lower=True, check_finite=False)
