"""Accuracy metrics, uncertainty/error diagnostics, and uncertainty sampling.

q-error is the symmetric ratio max(c/chat, chat/c) (1 = perfect); the squared
log-ratio loss it pairs with is reported as mse_log. The active-learning loop
implements plain uncertainty sampling: rank the unlabeled pool by coefficient
of variation, move the top k into training and grow the exact GP by a
block-Cholesky append; `gp` grows the pool's and the test set's whitened
batches by the same k rows instead of recomputing their posteriors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import artifact, gp
from .gp import CardinalityEstimator, Prediction
from .kernel import KernelConfig

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
    value is NaN. Equal, bit for bit, to SciPy's `stats.rankdata(a)`."""
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
        n_conds = self.n_conditions if self.n_conditions is not None else np.full(self.q_error.size, -1)
        columns = [(str, self.ids), (repr, self.cov), (repr, self.q_error), (str, n_conds)]
        artifact.write_csv(
            path,
            ["query_id", "cov", "q_error", "n_conditions"],
            [[text(v) for v in values.tolist()] for text, values in columns],
        )


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
    rows' Schur complement did not factor), so that `gp.extend_whitened`
    refit the union from scratch.
    """

    mse_history: list[float]
    selected: list[np.ndarray]
    estimator: CardinalityEstimator
    refits: int


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
    grows by `gp.extend_whitened` each iteration and the test MSE is
    recorded. The pool's and the test set's `gp.Whitened` batches grow by k
    rows per iteration, so an iteration costs O(k n (n + m) + k^3) for m pool
    and test queries, not a refit's O(n^3 + n^2 m); the result is the exact
    GP of each grown training set at the model's absolute jitter. Pool labels
    are looked up only for selected queries, mirroring an oracle call.
    """
    X_pool = np.asarray(X_pool, dtype=np.float64)
    y_pool_log = np.asarray(y_pool_log, dtype=np.float64)
    X_test = np.asarray(X_test, dtype=np.float64)
    test_cards = np.asarray(test_cards, dtype=np.float64)
    if iterations < 0 or k < 0:
        raise ValueError("iterations and k must be non-negative")
    d, pool_rows, test_rows = np.shape(X_train)[-1], X_pool.shape[:1], X_test.shape[:1]
    for name, a, shape in (
        ("X_pool", X_pool, (*pool_rows, d)),
        ("y_pool_log", y_pool_log, pool_rows),
        ("X_test", X_test, (*test_rows, d)),
        ("test_cards", test_cards, test_rows),
    ):
        if a.shape != shape:
            raise ValueError(f"{name} has shape {a.shape}, expected {shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError(f"{name} contains non-finite values")
    if iterations * k > len(X_pool):
        raise ValueError(
            f"pool exhausted: {iterations} x {k} selections exceed pool size {len(X_pool)}"
        )

    estimator = gp.fit(X_train, y_train_log, config)
    rows = estimator.n_train + iterations * k
    test = gp.Whitened(X_test, rows, estimator)
    # the pool block is last read before the final selection
    pool = gp.Whitened(X_pool, rows - k, estimator) if iterations and k else None
    history = [mse_log(test_cards, test.predict(estimator).card_estimate)]
    selected: list[np.ndarray] = []
    refits = 0

    for i in range(iterations):
        chosen = np.zeros(0, dtype=np.int64)
        if pool is not None:
            order = np.argsort(-pool.predict(estimator).cov, kind="stable")[:k]
            chosen = pool.cols[order]
            if i == iterations - 1:
                pool = None  # free the block before the factor grows
            else:
                pool.drop(order)
            batches = [test] if pool is None else [test, pool]
            estimator, appended = gp.extend_whitened(estimator, X_pool[chosen], y_pool_log[chosen], batches)
            refits += not appended
        selected.append(chosen)
        history.append(mse_log(test_cards, test.predict(estimator).card_estimate))
    return ALResult(mse_history=history, selected=selected, estimator=estimator, refits=refits)
