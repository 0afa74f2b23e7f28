"""Metrics, uncertainty diagnostics, and the uncertainty-sampling loop."""

import csv

import numpy as np
import pytest

from nngp_card import gp
from nngp_card.evaluation import (
    QErrorStats,
    _average_ranks,
    active_learn,
    mse_log,
    q_errors,
    spearman,
    uncertainty_error_report,
)
from nngp_card.kernel import KernelConfig


class TestQError:
    def test_overestimate(self):
        assert q_errors([100.0], [50.0]).tolist() == [2.0]

    def test_exact(self):
        assert q_errors([7.0], [7.0]).tolist() == [1.0]

    def test_symmetric(self):
        assert q_errors([50.0, 100.0], [100.0, 50.0]).tolist() == [2.0, 2.0]

    def test_inputs_below_one_rejected(self):
        with pytest.raises(ValueError):
            q_errors(np.array([0.5]), np.array([10.0]))
        with pytest.raises(ValueError):
            q_errors(np.array([2.0, 0.9]), np.array([2.0, 2.0]))

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(0)
        t = rng.uniform(1, 1e5, 40)
        e = rng.uniform(1, 1e5, 40)
        vec = q_errors(t, e)
        for i in range(40):
            assert vec[i] == pytest.approx(max(t[i] / e[i], e[i] / t[i]))


class TestMseLog:
    def test_perfect_predictions(self):
        assert mse_log(np.array([5.0, 9.0]), np.array([5.0, 9.0])) == 0.0

    def test_single_ratio_e_squared(self):
        assert mse_log(np.array([np.e**2]), np.array([1.0])) == pytest.approx(4.0)

    def test_matches_scalar_recomputation(self):
        # independent oracle: per-element python log computation
        import math

        rng = np.random.default_rng(1)
        t = rng.uniform(1, 1e4, 25)
        e = rng.uniform(1, 1e4, 25)
        want = sum((math.log(a) - math.log(b)) ** 2 for a, b in zip(t, e)) / 25
        assert mse_log(t, e) == pytest.approx(want, rel=1e-12)


class TestQErrorStats:
    def test_quantiles_monotone(self):
        rng = np.random.default_rng(2)
        q = np.exp(np.abs(rng.normal(0, 1, 200)))
        stats = QErrorStats.from_errors(q)
        values = [stats.quantiles[p] for p in (25, 50, 75, 95)] + [stats.max]
        assert values == sorted(values)
        assert stats.geometric_mean >= 1.0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        q = np.exp(np.abs(rng.normal(0, 1, 100)))
        a = QErrorStats.from_errors(q)
        b = QErrorStats.from_errors(q[rng.permutation(100)])
        assert a.quantiles == b.quantiles
        assert a.geometric_mean == pytest.approx(b.geometric_mean)

    def test_stratified_by_condition_count(self):
        q = np.array([1.0, 2.0, 4.0, 8.0])
        conds = np.array([2, 2, 3, 3])
        stats = QErrorStats.from_errors(q, conds)
        assert set(stats.by_condition_count) == {2, 3}
        assert stats.by_condition_count[3].count == 2

    def test_stratified_mse_matches_direct_metric(self):
        rng = np.random.default_rng(13)
        true = rng.uniform(1, 1e4, 40)
        est = rng.uniform(1, 1e4, 40)
        conds = np.repeat([2, 3], 20)
        stats = QErrorStats.from_errors(q_errors(true, est), conds)
        assert stats.mse_log == pytest.approx(mse_log(true, est))
        assert stats.by_condition_count[2].mse_log == pytest.approx(mse_log(true[:20], est[:20]))
        assert stats.by_condition_count[3].mse_log == pytest.approx(mse_log(true[20:], est[20:]))

    def test_text_table_has_rows(self):
        stats = QErrorStats.from_errors(q_errors([4.0, 2.0], [2.0, 2.0]), np.array([2, 3]))
        text = stats.to_text()
        assert "all" in text and text.count("\n") == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            QErrorStats.from_errors(np.array([]))


class TestSpearman:
    def test_constructed_monotone_is_one(self):
        x = np.arange(20, dtype=float)
        assert spearman(x, np.exp(x)) == pytest.approx(1.0)

    def test_reversed_is_minus_one(self):
        x = np.arange(20, dtype=float)
        assert spearman(x, -x) == pytest.approx(-1.0)

    def test_constant_is_none(self):
        assert spearman(np.ones(20), np.arange(20.0)) is None

    def test_small_batch_is_none(self):
        assert spearman(np.arange(9.0), np.arange(9.0)) is None

    @pytest.mark.parametrize(
        "draw",
        [
            lambda rng: rng.normal(size=40),
            lambda rng: rng.integers(0, 6, size=40).astype(float),
            lambda rng: np.r_[rng.integers(0, 4, size=30), [np.inf] * 3, [-np.inf] * 2],
            lambda rng: np.r_[rng.normal(size=20), np.nan],
        ],
        ids=["untied", "tied", "infinite", "nan"],
    )
    def test_ranks_equal_scipy_rankdata(self, draw):
        from scipy.stats import rankdata

        rng = np.random.default_rng(11)
        for _ in range(50):
            x = draw(rng)
            assert _average_ranks(x).tobytes() == rankdata(x).tobytes()

    def test_handles_infinities_by_rank(self):
        x = np.array([1.0, 2.0, np.inf] + list(range(3, 10)))
        y = x.copy()
        assert spearman(x, y) == pytest.approx(1.0)


def _prediction(mean, var, cards):
    mean = np.asarray(mean, dtype=float)
    var = np.asarray(var, dtype=float)
    lo, hi = gp._interval(mean, var, 0.95)
    cov = gp._coefficient_of_variation(mean, var)
    return gp.Prediction(mean, var, lo, hi, cov, np.asarray(cards, dtype=float), 0.95)


class TestUncertaintyReport:
    def test_exact_zero_variance_gives_null_correlation(self):
        cards = np.array([4.0, 8.0, 16.0] * 4)
        pred = _prediction(np.log(cards), np.zeros(12), cards)
        report = uncertainty_error_report(pred, cards)
        assert report.spearman_cov_vs_log_q is None  # CoV constant at 0

    def test_constructed_perfect_correlation(self):
        rng = np.random.default_rng(4)
        true = rng.uniform(10, 1000, 30)
        ratio = np.exp(rng.uniform(0.1, 2.0, 30))
        est = np.maximum(1.0, true * ratio)
        # choose mean/var so that CoV equals |log q| exactly
        mean = np.ones(30)
        var = np.log(q_errors(true, est)) ** 2
        pred = _prediction(mean, var, est)
        report = uncertainty_error_report(pred, true)
        assert report.spearman_cov_vs_log_q == pytest.approx(1.0)

    def test_small_batch_reports_null(self):
        cards = np.array([4.0, 8.0])
        pred = _prediction(np.log(cards), np.array([0.1, 0.2]), cards * 2)
        assert uncertainty_error_report(pred, cards).spearman_cov_vs_log_q is None

    def test_csv_output_columns(self, tmp_path):
        cards = np.linspace(10, 100, 12)
        pred = _prediction(np.log(cards), np.linspace(0.1, 1, 12), cards * 1.5)
        report = uncertainty_error_report(
            pred, cards, ids=np.arange(12) + 100, n_conditions=np.full(12, 3)
        )
        path = tmp_path / "scatter.csv"
        report.to_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["query_id", "cov", "q_error", "n_conditions"]
        assert len(rows) == 13
        assert rows[1][0] == "100" and rows[1][3] == "3"

    def test_misaligned_batches_rejected(self):
        cards = np.array([4.0, 8.0, 16.0])
        pred = _prediction(np.log(cards), np.zeros(3), cards)
        with pytest.raises(ValueError):
            uncertainty_error_report(pred, cards[:2])


class TestLossOrderingEquivalence:
    def test_mse_and_geometric_mean_order_candidates_identically(self):
        # both are monotone in sum(log^2 ratio) for symmetric ratios
        rng = np.random.default_rng(5)
        true = rng.uniform(10, 1000, 50)
        candidates = [np.maximum(1.0, true * np.exp(rng.normal(0, s, 50))) for s in (0.1, 0.4, 0.9, 1.5)]
        mses = [mse_log(true, est) for est in candidates]
        gmeans = [QErrorStats.from_errors(q_errors(true, est)).geometric_mean for est in candidates]
        assert np.argsort(mses).tolist() == np.argsort(gmeans).tolist()


@pytest.fixture(scope="module")
def al_data():
    rng = np.random.default_rng(6)
    d = 6

    def smooth(X):
        return 4.0 + 2.0 * np.sin(X @ np.linspace(1, 2, d)) + X.sum(axis=1) / d

    X_train = rng.uniform(0, 1, (60, d))
    X_pool = rng.uniform(0, 1, (80, d))
    X_test = rng.uniform(0, 1, (40, d))
    return (
        X_train,
        smooth(X_train),
        X_pool,
        smooth(X_pool),
        X_test,
        np.exp(smooth(X_test)),
    )


def refit_reference(X_train, y_train, X_pool, y_pool, X_test, test_cards, config, iterations, k):
    """Uncertainty sampling by a full refit and whole-pool predict per iteration."""
    X_cur, y_cur = X_train, y_train
    est = gp.fit(X_cur, y_cur, config)
    history = [mse_log(test_cards, gp.predict(est, X_test).card_estimate)]
    remaining = np.arange(len(X_pool))
    selected = []
    for _ in range(iterations):
        cov = gp.predict(est, X_pool[remaining]).cov
        chosen = remaining[np.argsort(-cov, kind="stable")[:k]]
        selected.append(chosen)
        X_cur = np.vstack([X_cur, X_pool[chosen]])
        y_cur = np.concatenate([y_cur, y_pool[chosen]])
        remaining = np.setdiff1d(remaining, chosen)
        est = gp.fit(X_cur, y_cur, config)
        history.append(mse_log(test_cards, gp.predict(est, X_test).card_estimate))
    return history, selected, est


class TestActiveLearn:
    def test_k_zero_keeps_mse_constant(self, al_data):
        Xtr, ytr, Xpo, ypo, Xte, cte = al_data
        res = active_learn(Xtr, ytr, Xpo, ypo, Xte, cte, KernelConfig(), iterations=3, k=0)
        assert len(res.mse_history) == 4
        assert len(set(res.mse_history)) == 1

    def test_whole_pool_single_iteration_equals_union_training(self, al_data):
        Xtr, ytr, Xpo, ypo, Xte, cte = al_data
        cfg = KernelConfig()
        res = active_learn(Xtr, ytr, Xpo, ypo, Xte, cte, cfg, iterations=1, k=len(Xpo))
        union = gp.fit(np.vstack([Xtr, Xpo]), np.concatenate([ytr, ypo]), cfg)
        want = mse_log(cte, gp.predict(union, Xte).card_estimate)
        assert res.mse_history[-1] == pytest.approx(want, rel=1e-6)

    def test_deterministic(self, al_data):
        Xtr, ytr, Xpo, ypo, Xte, cte = al_data
        r1 = active_learn(Xtr, ytr, Xpo, ypo, Xte, cte, KernelConfig(), iterations=2, k=10)
        r2 = active_learn(Xtr, ytr, Xpo, ypo, Xte, cte, KernelConfig(), iterations=2, k=10)
        assert r1.mse_history == r2.mse_history
        for a, b in zip(r1.selected, r2.selected):
            assert np.array_equal(a, b)

    def test_selection_without_replacement(self, al_data):
        Xtr, ytr, Xpo, ypo, Xte, cte = al_data
        res = active_learn(Xtr, ytr, Xpo, ypo, Xte, cte, KernelConfig(), iterations=3, k=15)
        all_chosen = np.concatenate(res.selected)
        assert len(all_chosen) == 45
        assert len(np.unique(all_chosen)) == 45

    def test_selects_highest_cov_first(self, al_data):
        Xtr, ytr, Xpo, ypo, Xte, cte = al_data
        cfg = KernelConfig()
        base = gp.fit(Xtr, ytr, cfg)
        cov = gp.predict(base, Xpo).cov
        res = active_learn(Xtr, ytr, Xpo, ypo, Xte, cte, cfg, iterations=1, k=5)
        want = np.argsort(-cov, kind="stable")[:5]
        assert np.array_equal(res.selected[0], want)

    def test_pool_exhaustion_rejected(self, al_data):
        Xtr, ytr, Xpo, ypo, Xte, cte = al_data
        with pytest.raises(ValueError, match="pool exhausted"):
            active_learn(Xtr, ytr, Xpo, ypo, Xte, cte, KernelConfig(), iterations=3, k=30)

    @pytest.mark.parametrize(
        "which, bad, match",
        [
            ("y_pool_log", lambda a: a[:-1], r"y_pool_log has shape \(79,\), expected \(80,\)"),
            ("test_cards", lambda a: a[:-1], r"test_cards has shape \(39,\), expected \(40,\)"),
            ("X_pool", lambda a: a[:, :-1], r"X_pool has shape \(80, 5\), expected \(80, 6\)"),
            ("X_test", lambda a: a[0], r"X_test has shape \(6,\)"),
            ("X_pool", lambda a: np.where(np.arange(len(a))[:, None] == 7, np.nan, a), "X_pool contains non-finite"),
            ("y_pool_log", lambda a: np.where(np.arange(len(a)) == 7, np.inf, a), "y_pool_log contains non-finite"),
            ("X_test", lambda a: np.where(np.arange(len(a))[:, None] == 7, np.inf, a), "X_test contains non-finite"),
            ("test_cards", lambda a: np.where(np.arange(len(a)) == 7, np.nan, a), "test_cards contains non-finite"),
        ],
    )
    def test_bad_inputs_rejected_before_the_fit(self, al_data, monkeypatch, which, bad, match):
        names = ("X_train", "y_train_log", "X_pool", "y_pool_log", "X_test", "test_cards")
        inputs = dict(zip(names, al_data))
        inputs[which] = bad(inputs[which])

        def no_fit(*args, **kwargs):
            raise AssertionError("active_learn fit before it checked its inputs")

        monkeypatch.setattr(gp, "fit", no_fit)
        with pytest.raises(ValueError, match=match):
            active_learn(**inputs, config=KernelConfig(), iterations=2, k=10)

    @pytest.mark.parametrize("cfg", [KernelConfig(), KernelConfig(activation="erf", depth=2)])
    def test_matches_full_refit_reference(self, al_data, cfg):
        res = active_learn(*al_data, cfg, iterations=3, k=15)
        history, selected, est = refit_reference(*al_data, cfg, iterations=3, k=15)
        assert res.refits == 0
        for got, want in zip(res.selected, selected, strict=True):
            assert np.array_equal(got, want)
        np.testing.assert_allclose(res.mse_history, history, rtol=1e-9)
        np.testing.assert_allclose(res.estimator.chol, est.chol, rtol=0, atol=1e-10 * np.abs(est.chol).max())
        np.testing.assert_allclose(res.estimator.w, est.w, rtol=0, atol=1e-8 * np.abs(est.w).max())

    def test_failed_append_refits_and_is_counted(self, al_data):
        Xtr, ytr, Xpo, ypo, Xte, cte = al_data
        cfg = KernelConfig(noise_sq=0.0)
        # copies of eight training rows: the Schur complement of their append is
        # singular and does not factor, so the iteration that selects them (the
        # last: known rows are the least uncertain) refits the union
        Xpo, ypo = np.vstack([Xpo, Xtr[:8]]), np.concatenate([ypo, ytr[:8]])
        res = active_learn(Xtr, ytr, Xpo, ypo, Xte, cte, cfg, iterations=2, k=len(Xpo) // 2)
        history, selected, est = refit_reference(Xtr, ytr, Xpo, ypo, Xte, cte, cfg, iterations=2, k=len(Xpo) // 2)
        assert res.refits == 1
        assert set(range(80, 88)) <= set(res.selected[1].tolist())
        for got, want in zip(res.selected, selected, strict=True):
            assert np.array_equal(got, want)
        np.testing.assert_allclose(res.mse_history, history, rtol=1e-9)

    def test_refit_rebuilds_the_pool_block(self, al_data):
        Xtr, ytr, Xpo, ypo, Xte, cte = al_data
        cfg = KernelConfig(noise_sq=0.0)
        # three copies each of three new points far from the training set: the
        # first iteration selects them all, its append fails and the union is refit
        far = np.repeat([-0.5, -1.0, -1.5], 3)[:, None] * np.ones(Xtr.shape[1])
        Xpo, ypo = np.vstack([Xpo, far]), np.concatenate([ypo, np.full(9, 6.0)])
        k = len(Xpo) // 2
        res = active_learn(Xtr, ytr, Xpo, ypo, Xte, cte, cfg, iterations=2, k=k)
        history, selected, _ = refit_reference(Xtr, ytr, Xpo, ypo, Xte, cte, cfg, iterations=2, k=k)
        assert res.refits == 1
        assert set(range(80, 89)) <= set(res.selected[0].tolist())
        # the second selection ranks the pool block rebuilt after the refit
        for got, want in zip(res.selected, selected, strict=True):
            assert np.array_equal(got, want)
        np.testing.assert_allclose(res.mse_history[:2], history[:2], rtol=1e-9)
        # the later append carries the refit's absolute jitter
        refit = gp.fit(np.vstack([Xtr, Xpo[res.selected[0]]]), np.concatenate([ytr, ypo[res.selected[0]]]), cfg)
        assert res.estimator.jitter == refit.jitter > 0.0
