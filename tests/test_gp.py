"""Exact GP regression: inference identities, intervals, CoV, persistence."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from nngp_card import artifact, gp
from nngp_card.gp import FitError, ModelIOError
from nngp_card.kernel import KernelConfig, kernel_diag, kernel_matrix, nngp_kernel


@pytest.fixture
def small_data():
    rng = np.random.default_rng(17)
    X = rng.uniform(0, 1, (12, 6))
    y = rng.uniform(0, 8, 12)
    return X, y


@pytest.fixture(scope="module")
def model_3000(tmp_path_factory):
    """A fitted N=3000 model and its saved file."""
    rng = np.random.default_rng(21)
    est = gp.fit(rng.uniform(0, 1, (3000, 12)), rng.uniform(0, 8, 3000), KernelConfig())
    path = tmp_path_factory.mktemp("model") / "model.bin"
    gp.save(est, path)
    return est, path


class TestFit:
    def test_single_point_alpha_is_target_over_variance(self):
        X = np.array([[0.2, 0.4]])
        y = np.array([3.0])
        cfg = KernelConfig(noise_sq=0.0)
        est = gp.fit(X, y, cfg)
        k_xx = nngp_kernel(X, None, cfg)[0, 0]
        assert est.alpha[0] == pytest.approx(3.0 / (k_xx + est.jitter), rel=1e-9)
        assert gp.predict(est, X).mean_log[0] == pytest.approx(3.0, abs=1e-9)

    def test_duplicated_rows_with_noise_succeed(self):
        X = np.tile(np.array([[0.5, 0.5, 0.5]]), (6, 1))
        y = np.linspace(1, 2, 6)
        est = gp.fit(X, y, KernelConfig(noise_sq=0.1))
        assert est.jitter == 0.0

    def test_duplicated_rows_without_noise_escalate_jitter(self):
        X = np.tile(np.array([[0.5, 0.5, 0.5]]), (8, 1))
        y = np.linspace(1, 2, 8)
        est = gp.fit(X, y, KernelConfig(noise_sq=0.0))
        assert est.jitter > 0.0  # rank-1 kernel forces the ladder

    def test_reconstruction_and_residual_invariants(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 1, (64, 8))
        y = rng.uniform(0, 9, 64)
        cfg = KernelConfig(noise_sq=1e-3)
        est = gp.fit(X, y, cfg)
        K = kernel_matrix(X, None, cfg)
        K[np.diag_indices_from(K)] += est.jitter
        rebuilt = est.chol @ est.chol.T
        assert np.linalg.norm(rebuilt - K) / np.linalg.norm(K) < 1e-6
        assert np.linalg.norm(K @ est.alpha - y) < 1e-6

    @pytest.mark.parametrize(
        "cfg",
        [KernelConfig(depth=d, activation=a) for a in ("relu", "erf") for d in range(5)],
        ids=[f"{a}-{d}" for a in ("relu", "erf") for d in range(5)],
    )
    @pytest.mark.parametrize("noise_sq", [1e-3, 0.0])
    def test_factor_is_the_noise_free_kernel_plus_noise_and_jitter(self, cfg, noise_sq):
        rng = np.random.default_rng(31)
        X = rng.uniform(0, 1, (40, 6))
        X[-5:] = X[:5]  # duplicated rows: without noise the kernel is singular
        cfg = dataclasses.replace(cfg, noise_sq=noise_sq)
        est = gp.fit(X, rng.uniform(0, 8, 40), cfg)
        assert (est.jitter > 0.0) == (noise_sq == 0.0)
        K = nngp_kernel(X, None, cfg)
        assert np.array_equal(np.diagonal(K), kernel_diag(X, cfg))
        K[np.diag_indices_from(K)] += noise_sq + est.jitter
        assert np.linalg.norm(est.chol @ est.chol.T - K) / np.linalg.norm(K) < 1e-12

    def test_failure_reports_diagnostics_of_the_unfactorized_kernel(self, monkeypatch):
        builds = []

        def indefinite(*args, **kwargs):
            builds.append(args)
            return np.array([[1.0, 2.0], [2.0, 1.0]])

        monkeypatch.setattr(gp, "kernel_matrix", indefinite)
        with pytest.raises(FitError) as err:
            gp.fit(np.zeros((2, 3)), np.zeros(2), KernelConfig())
        message = str(err.value)
        for part in ("n=2", "mean diag=1.000e+00", "min diag=1.000e+00", "max |offdiag|=2.000e+00"):
            assert part in message
        # one build per rung (a failed factorization consumes the buffer),
        # plus one intact kernel for the diagnostics
        assert len(builds) == len(gp.JITTER_LADDER) + 1

    def test_fit_holds_one_kernel_sized_buffer(self):
        n = 3000
        rng = np.random.default_rng(21)
        X, y = rng.uniform(0, 1, (n, 12)), rng.uniform(0, 8, n)
        tracemalloc.start()
        try:
            est = gp.fit(X, y, KernelConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.jitter == 0.0
        assert peak <= 1.5 * 8 * n * n

    def test_fitted_factor_has_a_zero_upper_triangle(self, model_3000):
        est, _ = model_3000
        assert est.chol.flags.f_contiguous and not np.any(np.triu(est.chol, 1))

    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_failed_rung_releases_its_buffer_before_the_rebuild(self, seed):
        # depth 0 on d = 2 features with no noise: the kernel has rank at most
        # d + 1 = 3, so it is singular on every seed, and the first relative
        # jitter makes it factor
        n = 1500
        rng = np.random.default_rng(seed)
        X, y = rng.uniform(0, 1, (n, 2)), rng.uniform(0, 8, n)
        cfg = KernelConfig(depth=0, noise_sq=0.0)
        tracemalloc.start()
        try:
            est = gp.fit(X, y, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.jitter == pytest.approx(gp.JITTER_LADDER[1] * np.mean(kernel_diag(X, cfg)), rel=1e-12)
        assert peak <= 1.5 * 8 * n * n

    @pytest.mark.parametrize(
        "X, y, match",
        [
            (np.zeros((0, 3)), np.zeros(0), "non-empty"),
            (np.zeros((2, 3)), np.zeros(3), "shape"),
            (np.zeros((2, 3)), np.array([1.0, np.nan]), "non-finite"),
            (np.array([[np.inf, 0.0]]), np.zeros(1), "non-finite"),
        ],
    )
    def test_input_validation(self, X, y, match):
        with pytest.raises(FitError, match=match):
            gp.fit(X, y, KernelConfig())


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


EXTEND_CONFIGS = [KernelConfig(activation=act, depth=depth) for act in ("relu", "erf") for depth in range(5)]


class TestExtend:
    @pytest.mark.parametrize("k", [1, 50])
    @pytest.mark.parametrize(
        "cfg", EXTEND_CONFIGS, ids=[f"nngp-{c.activation}-{c.depth}" for c in EXTEND_CONFIGS]
    )
    def test_matches_fit_on_the_union(self, cfg, k):
        rng = np.random.default_rng(8)
        X, y = rng.uniform(0, 1, (60 + k, 6)), rng.uniform(0, 8, 60 + k)
        probe = rng.uniform(0, 1, (25, 6))
        grown = gp.extend(gp.fit(X[:60], y[:60], cfg, layout_hash="h"), X[60:], y[60:])
        union = gp.fit(X, y, cfg, layout_hash="h")
        assert grown.jitter == union.jitter == 0.0
        assert grown.layout_hash == "h" and np.array_equal(grown.X_train, X)
        assert grown.chol.flags.f_contiguous and not np.any(np.triu(grown.chol, 1))
        assert _rel(grown.chol, union.chol) < 1e-8
        assert _rel(grown.w, union.w) < 1e-8
        p_grown, p_union = gp.predict(grown, probe), gp.predict(union, probe)
        assert _rel(p_grown.mean_log, p_union.mean_log) < 1e-8
        assert _rel(p_grown.var_log, p_union.var_log) < 1e-8

    def test_carries_the_absolute_jitter(self):
        cfg = KernelConfig(noise_sq=0.0)
        X_old = np.tile(np.array([[0.5, 0.5, 0.5]]), (8, 1))  # rank-1 kernel: needs jitter
        X_new = np.random.default_rng(4).uniform(0, 1, (5, 3))
        est = gp.fit(X_old, np.linspace(1, 2, 8), cfg)
        assert est.jitter > 0.0
        grown = gp.extend(est, X_new, np.linspace(3, 4, 5))
        assert grown.jitter == est.jitter
        X = np.vstack([X_old, X_new])
        K = nngp_kernel(X, None, cfg)
        # a jitter relative to the union's mean diagonal would be another value
        assert 1e-8 * np.mean(np.diagonal(K)) != est.jitter
        K[np.diag_indices_from(K)] += est.jitter
        assert _rel(grown.chol @ grown.chol.T, K) < 1e-12
        assert np.array_equal(grown.chol[:8, :8], est.chol)

    def test_grown_factor_writes_only_its_lower_triangle(self, small_data, monkeypatch):
        # above the new rows, the strict upper triangle is left to the zeroed
        # buffer, whose pages a write would back
        X, y = small_data
        est = gp.fit(X[:8], y[:8], KernelConfig())
        want = gp.extend(est, X[8:], y[8:]).chol
        monkeypatch.setattr(gp, "square_zeros", lambda n, order: np.full((n, n), np.nan, order=order))
        got = gp.extend(est, X[8:], y[8:]).chol
        upper = np.triu_indices(8, 1, len(y))
        assert np.all(np.isnan(got[upper]))
        got[upper] = 0.0
        assert np.array_equal(got, want)

    def test_schur_complement_failure_refits_the_union(self):
        cfg = KernelConfig(noise_sq=0.0)
        rng = np.random.default_rng(5)
        X_old, X_new = rng.uniform(0, 1, (20, 4)), np.tile(rng.uniform(2, 3, (1, 4)), (8, 1))
        est = gp.fit(X_old, rng.uniform(0, 8, 20), cfg)
        grown = gp.extend(est, X_new, np.full(8, 5.0))
        union = gp.fit(np.vstack([X_old, X_new]), np.concatenate([est.y_log, np.full(8, 5.0)]), cfg)
        assert est.jitter == 0.0 and grown.jitter > 0.0
        assert np.array_equal(grown.chol, union.chol)
        assert np.array_equal(grown.w, union.w)

    @pytest.mark.parametrize(
        "X_new, y_new, match",
        [
            (np.zeros((2, 5)), np.zeros(2), "dimension"),
            (np.zeros((0, 6)), np.zeros(0), "non-empty"),
            (np.zeros((2, 6)), np.zeros(3), "shape"),
            (np.zeros((2, 6)), np.array([1.0, np.inf]), "non-finite"),
            (np.array([[np.nan] * 6]), np.zeros(1), "non-finite"),
        ],
    )
    def test_input_validation(self, small_data, X_new, y_new, match):
        est = gp.fit(*small_data, KernelConfig())
        with pytest.raises(FitError, match=match):
            gp.extend(est, X_new, y_new)


class TestWhitened:
    def test_batch_posterior_is_predicts(self):
        # 700 queries: predict whitens them in two pieces, the batch in one buffer
        rng = np.random.default_rng(30)
        est = gp.fit(rng.uniform(0, 1, (300, 6)), rng.uniform(0, 8, 300), KernelConfig())
        X = rng.uniform(0, 1, (700, 6))
        got, want = gp.Whitened(X, 300, est).predict(est), gp.predict(est, X)
        for field in ("mean_log", "var_log", "cov"):
            values = getattr(want, field)
            np.testing.assert_allclose(getattr(got, field), values, rtol=0, atol=1e-12 * np.abs(values).max())

    @pytest.mark.parametrize("noise_sq, appended", [(1e-3, True), (0.0, False)])
    def test_extend_grows_or_rebuilds_the_batches(self, noise_sq, appended):
        # with zero noise, copies of training rows make the Schur complement
        # singular, so the model is refit and each batch whitened again
        rng = np.random.default_rng(31)
        X, y = rng.uniform(0, 1, (80, 6)), rng.uniform(0, 8, 80)
        X_new = np.vstack([rng.uniform(0, 1, (7, 6)), X[:3]])
        y_new = np.concatenate([rng.uniform(0, 8, 7), y[:3]])
        est = gp.fit(X, y, KernelConfig(noise_sq=noise_sq))
        batches = [gp.Whitened(rng.uniform(0, 1, (m, 6)), 90, est) for m in (40, 25)]
        batches[1].drop(np.array([0, 5, 24]))
        grown, did_append = gp.extend_whitened(est, X_new, y_new, batches)
        assert did_append is appended
        assert np.array_equal(grown.chol, gp.extend(est, X_new, y_new).chol)
        for batch in batches:
            got, want = batch.predict(grown), gp.predict(grown, batch.X[batch.cols])
            for field in ("mean_log", "var_log"):
                values = getattr(want, field)
                np.testing.assert_allclose(getattr(got, field), values, rtol=0, atol=1e-9 * np.abs(values).max())


class TestPredict:
    def test_interpolates_training_points_without_noise(self, small_data):
        X, y = small_data
        est = gp.fit(X, y, KernelConfig(noise_sq=0.0))
        pred = gp.predict(est, X)
        np.testing.assert_allclose(pred.mean_log, y, atol=1e-6)
        assert np.all(pred.var_log <= 1e-6)

    def test_empty_test_batch(self, small_data):
        X, y = small_data
        est = gp.fit(X, y, KernelConfig())
        pred = gp.predict(est, np.zeros((0, X.shape[1])))
        assert len(pred) == 0

    def test_two_point_closed_form(self):
        # independent oracle: explicit 2x2 inverse [[a,b],[b,c]]^-1
        cfg = KernelConfig(depth=1, noise_sq=0.05)
        X = np.array([[0.1, 0.9], [0.8, 0.3]])
        y = np.array([2.0, 5.0])
        x_star = np.array([[0.5, 0.5]])
        est = gp.fit(X, y, cfg)
        pred = gp.predict(est, x_star)

        K = kernel_matrix(X, None, cfg)
        a, b, c = K[0, 0], K[0, 1], K[1, 1]
        det = a * c - b * b
        Kinv = np.array([[c, -b], [-b, a]]) / det
        ks = nngp_kernel(X, x_star, cfg)[:, 0]
        kss = nngp_kernel(x_star, None, cfg)[0, 0]
        mean_ref = ks @ Kinv @ y
        var_ref = kss - ks @ Kinv @ ks
        assert pred.mean_log[0] == pytest.approx(mean_ref, rel=1e-10)
        assert pred.var_log[0] == pytest.approx(var_ref, rel=1e-8)

    def test_card_estimate_clamped_to_one(self):
        X = np.array([[0.0, 1.0], [1.0, 0.0]])
        y = np.array([-3.0, -4.0])  # negative log-targets force exp(mean) < 1
        est = gp.fit(X, y, KernelConfig(noise_sq=1e-3))
        pred = gp.predict(est, X)
        assert np.all(pred.card_estimate >= 1.0)

    def test_linear_smoother_in_targets(self, small_data):
        X, _ = small_data
        rng = np.random.default_rng(5)
        y1 = rng.uniform(0, 5, len(X))
        y2 = rng.uniform(0, 5, len(X))
        cfg = KernelConfig(noise_sq=1e-2)
        Xt = rng.uniform(0, 1, (7, X.shape[1]))
        p1 = gp.predict(gp.fit(X, y1, cfg), Xt).mean_log
        p2 = gp.predict(gp.fit(X, y2, cfg), Xt).mean_log
        combo = gp.predict(gp.fit(X, 2.0 * y1 - 0.5 * y2, cfg), Xt).mean_log
        np.testing.assert_allclose(combo, 2.0 * p1 - 0.5 * p2, atol=1e-9)

    def test_variance_independent_of_targets(self, small_data):
        X, _ = small_data
        rng = np.random.default_rng(6)
        cfg = KernelConfig(noise_sq=1e-2)
        Xt = rng.uniform(0, 1, (5, X.shape[1]))
        v1 = gp.predict(gp.fit(X, rng.uniform(0, 5, len(X)), cfg), Xt).var_log
        v2 = gp.predict(gp.fit(X, rng.uniform(5, 9, len(X)), cfg), Xt).var_log
        np.testing.assert_allclose(v1, v2, atol=1e-12)

    def test_large_noise_shrinks_predictions_toward_zero(self, small_data):
        # the prior mean is 0, so heavy observation noise must dominate the
        # data and pull test predictions toward it (decade-spaced noise:
        # small-noise wiggles are not monotone, the large-noise trend is)
        X, y = small_data
        rng = np.random.default_rng(7)
        Xt = rng.uniform(0, 1, (6, X.shape[1]))
        norms = []
        for noise in (1.0, 100.0, 1e4, 1e6):
            pred = gp.predict(gp.fit(X, y, KernelConfig(noise_sq=noise)), Xt)
            norms.append(np.linalg.norm(pred.mean_log))
        assert norms[0] > norms[1] > norms[2] > norms[3]
        assert norms[-1] < 1e-3 * norms[0]

    def test_far_points_more_uncertain_than_near(self, small_data):
        X, y = small_data
        est = gp.fit(X, y, KernelConfig(noise_sq=1e-3))
        near = X[0] + 1e-3
        far = np.full(X.shape[1], 40.0)  # far outside the training support
        pred = gp.predict(est, np.vstack([near, far]))
        assert pred.var_log[1] > pred.var_log[0]

    def test_dimension_mismatch_rejected(self, small_data):
        X, y = small_data
        est = gp.fit(X, y, KernelConfig())
        with pytest.raises(ModelIOError, match="dimension"):
            gp.predict(est, np.zeros((1, X.shape[1] + 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, small_data, bad):
        X, y = small_data
        est = gp.fit(X, y, KernelConfig())
        X_test = X[:3].copy()
        X_test[1, 2] = bad
        with pytest.raises(ModelIOError, match="non-finite"):
            gp.predict(est, X_test)


    def test_predict_solves_in_the_cross_kernel_buffer(self, model_3000):
        est, _ = model_3000
        X_test = np.random.default_rng(22).uniform(0, 1, (500, est.X_train.shape[1]))
        tracemalloc.start()
        try:
            pred = gp.predict(est, X_test)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(pred.var_log))
        assert peak <= 1.5 * 8 * est.n_train * len(X_test)

    def test_predict_holds_one_piece_at_a_time(self, model_3000):
        est, _ = model_3000
        X_test = np.random.default_rng(24).uniform(0, 1, (4 * gp._WHITEN_COLS, est.X_train.shape[1]))
        tracemalloc.start()
        try:
            pred = gp.predict(est, X_test)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(pred.var_log))
        assert peak <= 1.5 * 8 * est.n_train * gp._WHITEN_COLS

    def test_pieces_match_per_piece_and_single_query_predictions(self):
        # noise 0.1 keeps |alpha| small: a single query's mean is a gemv, a
        # batch's a gemm, and their rounding scales with sum |k_i alpha_i|
        rng = np.random.default_rng(26)
        est = gp.fit(rng.uniform(0, 1, (2000, 12)), rng.uniform(0, 8, 2000), KernelConfig(noise_sq=0.1))
        X_test = rng.uniform(0, 1, (1100, 12))
        whole = gp.predict(est, X_test)
        pieces = [gp.predict(est, X_test[lo : lo + gp._WHITEN_COLS]) for lo in range(0, 1100, gp._WHITEN_COLS)]
        singles = [gp.predict(est, X_test[i : i + 1]) for i in range(0, 1100, 37)]
        for field in ("mean_log", "var_log"):
            values = getattr(whole, field)
            assert np.array_equal(values, np.concatenate([getattr(p, field) for p in pieces]))
            np.testing.assert_allclose(
                values[::37], [getattr(p, field)[0] for p in singles], rtol=0, atol=1e-12 * np.abs(values).max()
            )


class TestIntervalAndCov:
    def _pred(self, mean, var, delta=0.95):
        mean = np.asarray(mean, dtype=float)
        var = np.asarray(var, dtype=float)
        lo, hi = gp._interval(mean, var, delta)
        cov = gp._coefficient_of_variation(mean, var)
        card = np.maximum(1.0, np.exp(mean))
        return gp.Prediction(mean, var, lo, hi, cov, card, delta)

    def test_zero_variance_degenerate_interval(self):
        pred = self._pred([2.0], [0.0])
        assert pred.ci_low[0] == pred.ci_high[0] == 2.0

    def test_unit_variance_quantile(self):
        # frozen standard-normal quantile for the central 95% interval
        pred = self._pred([0.0], [1.0])
        assert pred.ci_high[0] == pytest.approx(1.959963985, abs=1e-8)
        assert pred.ci_low[0] == pytest.approx(-1.959963985, abs=1e-8)

    def test_width_strictly_increases_with_variance(self):
        pred = self._pred([0.0, 0.0, 0.0], [0.1, 0.5, 2.0], delta=0.9)
        widths = pred.ci_high - pred.ci_low
        assert np.all(np.diff(widths) > 0)

    def test_delta_validated(self, small_data):
        X, y = small_data
        est = gp.fit(X, y, KernelConfig())
        # the empty batch takes an early return, which must not skip the check
        for X_test in (X[:2], np.zeros((0, X.shape[1]))):
            for delta in (1.5, 0.0, 1.0):
                with pytest.raises(ValueError, match="delta"):
                    gp.predict(est, X_test, delta=delta)

    def test_cov_zero_variance(self):
        assert self._pred([3.0], [0.0]).cov[0] == 0.0

    def test_cov_formula(self):
        assert self._pred([2.0], [4.0]).cov[0] == pytest.approx(1.0)

    def test_cov_infinite_at_zero_mean(self):
        assert np.isinf(self._pred([0.0], [1.0]).cov[0])

    def test_cov_ranking_matches_recomputation(self):
        rng = np.random.default_rng(8)
        mean = rng.uniform(0.5, 8, 50)
        var = rng.uniform(0, 4, 50)
        pred = self._pred(mean, var)
        ref = np.sqrt(var) / np.abs(mean)
        assert np.array_equal(np.argsort(pred.cov), np.argsort(ref))


class TestPersistence:
    def test_round_trip_predictions_identical(self, tmp_path, small_data):
        X, y = small_data
        est = gp.fit(X, y, KernelConfig(depth=2), layout_hash="abc123")
        path = tmp_path / "model.bin"
        gp.save(est, path)
        loaded = gp.load(path)
        probe = np.random.default_rng(9).uniform(0, 1, (20, X.shape[1]))
        p1 = gp.predict(est, probe)
        p2 = gp.predict(loaded, probe)
        np.testing.assert_allclose(p1.mean_log, p2.mean_log, atol=1e-12)
        np.testing.assert_allclose(p1.var_log, p2.var_log, atol=1e-12)
        assert loaded.layout_hash == "abc123"

    def test_truncated_file_rejected(self, tmp_path, small_data):
        X, y = small_data
        est = gp.fit(X, y, KernelConfig())
        path = tmp_path / "model.bin"
        gp.save(est, path)
        data = path.read_bytes()
        # a short file, and one with trailing bytes, disagree with the header's size
        for bad in (data[:-16], data + bytes(8)):
            path.write_bytes(bad)
            with pytest.raises(ModelIOError, match="truncated"):
                gp.load(path)

    def test_load_reads_payloads_without_a_copy(self, model_3000):
        est, path = model_3000
        tracemalloc.start()
        try:
            loaded = gp.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.chol, est.chol) and np.array_equal(loaded.w, est.w)
        # the file holds only the factor's lower triangle, so the arrays the
        # load returns, not the file, are the memory it must hold
        returned = sum(a.nbytes for a in (loaded.X_train, loaded.y_log, loaded.chol, loaded.w))
        assert peak <= 1.3 * returned

    def test_packed_round_trip_is_bit_identical(self, model_3000):
        est, path = model_3000
        loaded = gp.load(path)
        assert est.chol.flags.f_contiguous and loaded.chol.flags.f_contiguous
        assert not np.any(np.triu(loaded.chol, 1))
        assert np.array_equal(loaded.chol, est.chol)
        assert loaded.config == est.config and loaded.jitter == est.jitter
        X_test = np.random.default_rng(23).uniform(0, 1, (50, est.X_train.shape[1]))
        p1, p2 = gp.predict(est, X_test), gp.predict(loaded, X_test)
        for field in ("mean_log", "var_log", "ci_low", "ci_high", "cov", "card_estimate"):
            assert np.array_equal(getattr(p1, field), getattr(p2, field))

    def test_file_stores_the_lower_triangle(self, model_3000):
        est, path = model_3000
        n, d = est.X_train.shape
        head = path.read_bytes()[: 1 << 12].split(b"\n", 1)[0]
        assert path.stat().st_size == len(head) + 1 + 8 * (n * d + n + n * (n + 1) // 2 + n)

    def test_save_makes_no_factor_sized_copy(self, model_3000, tmp_path):
        est, _ = model_3000
        n = est.n_train
        tracemalloc.start()
        try:
            gp.save(est, tmp_path / "model.bin")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * 8 * n * n

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b'{"format": "something-else"}\n')
        with pytest.raises(ModelIOError, match="not a model file"):
            gp.load(path)
        # version-1 configs hold a kernel key that KernelConfig no longer has;
        # version-2 files carry no hashes of the factor and the weights;
        # version-3 files store the full factor and carry no header hash;
        # version-5 configs hold the two RBF keys KernelConfig no longer has
        for version in (1, 2, 3, 5):
            path.write_bytes(json.dumps({"format": gp.MODEL_FORMAT, "version": version}).encode() + b"\n")
            with pytest.raises(ModelIOError, match="unsupported model version"):
                gp.load(path)

    def test_version_3_file_rejected(self, tmp_path, small_data):
        """A file in the version-3 layout (full factor, payload hashes only)."""
        X, y = small_data
        est = gp.fit(X, y, KernelConfig())
        n, d = X.shape
        payloads = [est.X_train, est.y_log, np.ascontiguousarray(est.chol), est.alpha]
        header = {
            "format": gp.MODEL_FORMAT, "version": 3, "config": est.config.to_dict(),
            "layout_hash": "", "n": n, "d_enc": d, "jitter": est.jitter,
        }
        keys = ("train_hash", "target_hash", "chol_hash", "alpha_hash")
        header.update({key: artifact.payload_hash(a.shape, [a]) for key, a in zip(keys, payloads)})
        path = tmp_path / "model.bin"
        path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + b"".join(a.tobytes() for a in payloads))
        with pytest.raises(ModelIOError, match="unsupported model version 3"):
            gp.load(path)

    def test_version_4_file_rejected(self, tmp_path, small_data):
        """A file in the version-4 layout: this version's payloads, with alpha where w is."""
        X, y = small_data
        est = gp.fit(X, y, KernelConfig())
        header = {
            "format": gp.MODEL_FORMAT, "version": 4, "config": est.config.to_dict(),
            "layout_hash": "", "n": len(X), "d_enc": X.shape[1], "jitter": est.jitter,
        }
        lower = [est.chol[j:, j] for j in range(len(X))]
        arrays = (("train_hash", est.X_train), ("target_hash", est.y_log), ("chol_hash", lower), ("alpha_hash", est.alpha))
        path = tmp_path / "model.bin"
        artifact.write(path, header, [(key, a, np.float64) for key, a in arrays])
        with pytest.raises(ModelIOError, match="unsupported model version 4"):
            gp.load(path)

    def test_flipped_noise_in_header_rejected(self, tmp_path, small_data):
        X, y = small_data
        path = tmp_path / "model.bin"
        gp.save(gp.fit(X, y, KernelConfig(noise_sq=0.001)), path)
        data = path.read_bytes()
        at = data.index(b'"noise_sq": 0.001') + len(b'"noise_sq": 0.00')
        path.write_bytes(data[:at] + b"3" + data[at + 1 :])  # 0x31 -> 0x33, one bit
        with pytest.raises(ModelIOError, match="header does not match its recorded hash"):
            gp.load(path)

    @pytest.mark.parametrize("config", [None, {"sigma_w_sq": 1.6, "bogus": 1}, {"depth": -1}, 7])
    def test_bad_config_is_a_corrupt_header(self, tmp_path, small_data, config):
        X, y = small_data
        path = tmp_path / "model.bin"
        gp.save(gp.fit(X, y, KernelConfig()), path)
        _rewrite_header(path, config=config)
        with pytest.raises(ModelIOError, match="missing or corrupt header"):
            gp.load(path)

    @pytest.mark.parametrize("region", ["chol", "w"])
    def test_flipped_payload_byte_rejected(self, tmp_path, small_data, region):
        X, y = small_data
        n, d = X.shape
        path = tmp_path / "model.bin"
        gp.save(gp.fit(X, y, KernelConfig()), path)
        gp.load(path)
        # payload order: X_train, y_log, chol (lower triangle by columns,
        # n (n + 1) / 2 values), w (n)
        chol_start = (n * d + n) * 8
        j = n // 2  # column j starts after sum_{i < j} (n - i) values; its first is the diagonal
        offset = {
            "chol": chol_start + (j * n - j * (j - 1) // 2) * 8 + 3,  # a diagonal entry
            "w": chol_start + n * (n + 1) // 2 * 8 + 8 + 3,
        }[region]
        data = bytearray(path.read_bytes())
        data[data.index(b"\n") + 1 + offset] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(ModelIOError, match="does not match its recorded hash"):
            gp.load(path)

    def test_layout_hash_guard_at_predict(self, tmp_path, small_data):
        X, y = small_data
        est = gp.fit(X, y, KernelConfig(), layout_hash="layout-A")
        with pytest.raises(ModelIOError, match="layout mismatch"):
            gp.predict(est, X, layout_hash="layout-B")
        gp.predict(est, X, layout_hash="layout-A")


def _rewrite_header(path, **changes):
    """Replace header values (None deletes the key) and record a matching
    header hash, as a file written with that header would carry."""
    head, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    del header["header_hash"]
    for key, value in changes.items():
        if value is None:
            del header[key]
        else:
            header[key] = value
    header["header_hash"] = artifact._header_hash(header)
    path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + payload)
