"""Covariance functions: closed forms vs sampling, recursion, PSD, symmetry."""

import dataclasses
import math
import mmap
import tracemalloc

import numpy as np
import pytest

from nngp_card.diagnostics import mc_activation_expectations, random_psd_case
from nngp_card.kernel import (
    _BLOCK_ELEMS,
    KernelConfig,
    KernelError,
    base_kernel,
    kernel_diag,
    kernel_matrix,
    nngp_kernel,
    relu_layer_step,
    row_blocks,
    square_zeros,
)


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sigma_w_sq": 0.0},
            {"sigma_b_sq": -0.1},
            {"noise_sq": -1.0},
            {"depth": -1},
            {"noise_sq": float("nan")},
            {"sigma_w_sq": float("inf")},
            {"sigma_b_sq": None},
            {"noise_sq": "0.1"},
            {"depth": 2.5},
            {"depth": True},
            {"depth": "3"},
            {"sigma_b_sq": False},
            {"noise_sq": True},
            {"depth": None},
            {"sigma_w_sq": -1.6},
            {"sigma_b_sq": float("nan")},
            {"noise_sq": float("-inf")},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(KernelError):
            KernelConfig(**kwargs)

    @pytest.mark.parametrize(
        "doc",
        [
            {"sigma_w_sq": 1.0, "bogus": 2},
            {"kernel_family": "nngp"},
            {"length_scale": 0.8},
            {"activation": "relu"},
        ],
    )
    def test_unknown_keys_rejected(self, doc):
        with pytest.raises(KernelError, match="unknown kernel config keys"):
            KernelConfig.from_dict(doc)

    def test_round_trip(self):
        cfg = KernelConfig(depth=5, noise_sq=0.01)
        assert KernelConfig.from_dict(cfg.to_dict()) == cfg


class TestBaseKernel:
    def test_zero_vectors_give_bias(self):
        cfg = KernelConfig(sigma_w_sq=2.0, sigma_b_sq=0.3)
        X = np.zeros((2, 4))
        assert np.allclose(base_kernel(X, None, cfg), 0.3)
        assert np.allclose(base_kernel(X, np.zeros((3, 4)), cfg), 0.3)

    def test_unit_norm_self_similarity(self):
        cfg = KernelConfig(sigma_w_sq=1.0, sigma_b_sq=0.0)
        X = np.ones((1, 6))  # ||x||^2 = d
        assert base_kernel(X, None, cfg)[0, 0] == pytest.approx(1.0)

    def test_matches_scalar_recomputation(self):
        # independent oracle: plain python loop over coordinates
        rng = np.random.default_rng(2)
        cfg = KernelConfig(sigma_w_sq=1.7, sigma_b_sq=0.2)
        X = rng.uniform(-1, 1, (3, 5))
        X2 = rng.uniform(-1, 1, (4, 5))
        K = base_kernel(X, X2, cfg)
        for i in range(3):
            for j in range(4):
                dot = sum(float(X[i, k]) * float(X2[j, k]) for k in range(5))
                assert K[i, j] == pytest.approx(0.2 + 1.7 * dot / 5, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(KernelError, match="differ"):
            base_kernel(np.zeros((2, 3)), np.zeros((2, 4)), KernelConfig())


class TestReluStep:
    def test_identical_inputs(self):
        cfg = KernelConfig(sigma_w_sq=1.3, sigma_b_sq=0.2)
        k = 0.8
        expected = 0.2 + 1.3 * k / 2.0
        assert relu_layer_step(k, k, k, cfg) == pytest.approx(expected, rel=1e-12)

    def test_orthogonal_inputs(self):
        cfg = KernelConfig(sigma_w_sq=1.5, sigma_b_sq=0.0)
        kxx, kyy = 0.9, 1.6
        expected = 1.5 / (2 * math.pi) * math.sqrt(kxx * kyy)
        assert relu_layer_step(kxx, 0.0, kyy, cfg) == pytest.approx(expected, rel=1e-12)

    def test_non_positive_variance_rejected(self):
        with pytest.raises(KernelError, match="positive"):
            relu_layer_step(0.0, 0.0, 1.0, KernelConfig())

    def test_monotone_in_previous_covariance(self):
        # fixed diagonals, increasing K^{l-1}_xy must increase K^l_xy
        cfg = KernelConfig()
        kxx = kyy = 1.2
        cov = np.linspace(-1.19, 1.19, 201)
        out = relu_layer_step(kxx, cov, kyy, cfg)
        assert np.all(np.diff(out) > 0)

    def test_clamps_cosine_drift(self):
        cfg = KernelConfig(sigma_w_sq=2.0, sigma_b_sq=0.0)
        k = 0.7
        val = relu_layer_step(k, k * (1 + 1e-15), k, cfg)
        assert val == pytest.approx(2.0 * k / 2.0, rel=1e-12)

    def test_opposite_inputs_give_bias(self):
        # c = -1: theta = pi, and the arc-cosine term vanishes
        cfg = KernelConfig(sigma_w_sq=1.4, sigma_b_sq=0.25)
        assert relu_layer_step(0.9, -0.9, 0.9, cfg) == pytest.approx(0.25, rel=1e-12)

    def test_clamps_negative_cosine_drift(self):
        cfg = KernelConfig(sigma_w_sq=2.0, sigma_b_sq=0.1)
        k = 0.7
        val = relu_layer_step(k, -k * (1 + 1e-15), k, cfg)
        assert np.isfinite(val) and val == pytest.approx(0.1, abs=1e-12)

    def test_weight_term_is_positively_homogeneous(self):
        # without bias, scaling every input covariance by a scales the output by a
        cfg = KernelConfig(sigma_w_sq=1.6, sigma_b_sq=0.0)
        kxx, kxy, kyy, a = 0.8, 0.3, 1.1, 3.5
        scaled = relu_layer_step(a * kxx, a * kxy, a * kyy, cfg)
        assert scaled == pytest.approx(a * relu_layer_step(kxx, kxy, kyy, cfg), rel=1e-12)


class TestMonteCarloAgreement:
    def test_relu_step_matches_sampled_expectations(self):
        # smoke-scale version of the full acceptance check
        rng = np.random.default_rng(424242)
        cfg = KernelConfig(sigma_w_sq=1.0, sigma_b_sq=0.0, depth=1)
        for _ in range(10):
            kxx, kxy, kyy = random_psd_case(rng)
            mc = mc_activation_expectations(kxx, kxy, kyy, 500_000, rng)
            assert relu_layer_step(kxx, kxy, kyy, cfg) == pytest.approx(mc, rel=0.02)


class TestDepthRecursion:
    def test_depth_zero_equals_base(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 1, (10, 7))
        cfg = KernelConfig(depth=0, noise_sq=0.0)
        np.testing.assert_allclose(
            nngp_kernel(X, None, cfg), base_kernel(X, None, cfg), atol=1e-12
        )

    def test_diagonal_matches_scalar_recurrence(self):
        # independent oracle: python loop a_{l} = sb + sw * a_{l-1} / 2
        rng = np.random.default_rng(4)
        X = rng.uniform(0, 1, (6, 5))
        cfg = KernelConfig(sigma_w_sq=1.6, sigma_b_sq=0.1, depth=3, noise_sq=0.0)
        K = nngp_kernel(X, None, cfg)
        for i in range(len(X)):
            a = 0.1 + 1.6 * sum(float(v) ** 2 for v in X[i]) / 5
            for _ in range(3):
                a = 0.1 + 1.6 * a / 2.0
            assert K[i, i] == pytest.approx(a, rel=1e-12)

    def test_cross_matrix_consistent_with_same_batch(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(0, 1, (8, 4))
        cfg = KernelConfig(depth=3, noise_sq=0.0)
        full = nngp_kernel(X, None, cfg)
        cross = nngp_kernel(X[:5], X[5:], cfg)
        np.testing.assert_allclose(cross, full[:5, 5:], atol=1e-12)

    def test_noise_only_on_same_batch_diagonal(self):
        # nngp_kernel is noise-free; kernel_matrix adds noise_sq to the
        # same-batch diagonal and nowhere else
        rng = np.random.default_rng(7)
        X = rng.uniform(0, 1, (5, 4))
        cfg = KernelConfig(depth=1, noise_sq=0.25)
        without = nngp_kernel(X, None, cfg)
        assert np.array_equal(np.diagonal(without), kernel_diag(X, cfg))
        expected = without.copy()
        expected[np.diag_indices_from(expected)] += 0.25
        assert np.array_equal(kernel_matrix(X, None, cfg), expected)
        cross = kernel_matrix(X, X.copy(), cfg)
        assert np.array_equal(cross, nngp_kernel(X, X.copy(), cfg))
        np.testing.assert_allclose(cross, without, atol=1e-12)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(0, 1, (20, 6))
        K = nngp_kernel(X, None, KernelConfig(depth=4, noise_sq=0.0))
        assert np.array_equal(K, K.T)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(0, 1, (12, 5))
        perm = rng.permutation(12)
        cfg = KernelConfig(depth=2, noise_sq=0.0)
        K = nngp_kernel(X, None, cfg)
        Kp = nngp_kernel(X[perm], None, cfg)
        np.testing.assert_allclose(Kp, K[np.ix_(perm, perm)], atol=1e-12)

    def test_psd_after_jitter_on_random_batches(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            n = int(rng.integers(3, 30))
            d = int(rng.integers(2, 10))
            X = rng.uniform(0, 1, (n, d))
            cfg = KernelConfig(depth=int(rng.integers(0, 4)), noise_sq=0.0)
            K = nngp_kernel(X, None, cfg)
            K[np.diag_indices_from(K)] += 1e-8 * np.mean(np.diagonal(K))
            min_eig = float(np.linalg.eigvalsh(K)[0])
            assert min_eig >= -1e-8 * np.trace(K) / n

    def test_kernel_diag_matches_matrix_diag(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(0, 1, (9, 4))
        cfg = KernelConfig(depth=3, noise_sq=0.0)
        K = nngp_kernel(X, None, cfg)
        np.testing.assert_allclose(kernel_diag(X, cfg), np.diag(K), atol=1e-12)


def _dense_layers(X, X2, cfg):
    """Depth 0..cfg.depth of the recursion over full broadcast matrices."""
    X2 = X if X2 is None else X2
    K = base_kernel(X, X2, cfg)
    yield K
    for depth in range(cfg.depth):
        layer = dataclasses.replace(cfg, depth=depth)
        K = relu_layer_step(kernel_diag(X, layer)[:, None], K, kernel_diag(X2, layer)[None, :], cfg)
        yield K


# The block-build tests run the default prior and one above ReLU's critical
# weight variance 2, whose layers grow the diagonal instead of shrinking it.
PRIORS = {"relu": {}, "relu-w2.4-b0.5": {"sigma_w_sq": 2.4, "sigma_b_sq": 0.5}}


class TestBlockBuild:
    @pytest.mark.parametrize("prior", PRIORS)
    @pytest.mark.parametrize("n", [1, 7, 2000])
    def test_same_batch_matches_dense_recursion(self, prior, n):
        if n == 2000:  # several upper row blocks, growing down the matrix
            blocks = list(row_blocks(n, n, upper=True))
            assert len(blocks) > 2 and blocks[-1][1] - blocks[-1][0] > blocks[0][1] - blocks[0][0]
        X = np.random.default_rng(n).uniform(0, 1, (n, 6))
        top = KernelConfig(depth=4, noise_sq=0.01, **PRIORS[prior])
        for depth, ref in enumerate(_dense_layers(X, None, top)):
            cfg = dataclasses.replace(top, depth=depth)
            K = nngp_kernel(X, None, cfg)  # noise-free whatever noise_sq says
            assert np.array_equal(K, K.T)
            assert np.array_equal(np.diagonal(K), kernel_diag(X, cfg))
            np.testing.assert_allclose(K, ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [1, 7, 2000])
    @pytest.mark.parametrize(
        "cfg",
        [KernelConfig(depth=d, **PRIORS[p]) for p in PRIORS for d in range(5)],
        ids=[f"{p}-{d}" for p in PRIORS for d in range(5)],
    )
    def test_triangle_is_the_dense_upper_triangle(self, cfg, n):
        X = np.random.default_rng(n).uniform(0, 1, (n, 6))
        dense = kernel_matrix(X, None, cfg)
        tri = kernel_matrix(X, None, cfg, triangle=True)
        assert np.array_equal(dense, dense.T)
        assert np.array_equal(np.triu(tri), np.triu(dense))
        assert not np.any(np.tril(tri, -1))

    @pytest.mark.parametrize("n", [1999, 2000])
    @pytest.mark.parametrize(
        "cfg",
        [KernelConfig(depth=3), KernelConfig(depth=2, **PRIORS["relu-w2.4-b0.5"])],
        ids=["relu-3", "relu-w2.4-b0.5-2"],
    )
    def test_each_upper_block_is_its_cross_kernel(self, cfg, n):
        """Above the diagonal, same-batch block K[lo:hi, lo:] is, bit for bit,
        the cross kernel of its rows against columns lo:, which fills its rows
        in one contiguous block of the same shape. (The whole K(X, X) need not
        equal the triangle: GEMM bits depend on the block shape.)"""
        X = np.random.default_rng(n).uniform(0, 1, (n, 40))
        tri = kernel_matrix(X, None, cfg, triangle=True)
        for lo, hi in row_blocks(n, n, upper=True):
            cross = nngp_kernel(X[lo:hi], X[lo:], cfg)
            assert np.array_equal(np.triu(tri[lo:hi, lo:], 1), np.triu(cross, 1))

    @pytest.mark.xfail(
        strict=True,
        reason="the ReLU step computes a duplicate's off-diagonal entry by the arc-cosine "
        "form and the diagonal by its own recurrence; they differ in the last bits on some seeds",
    )
    def test_duplicated_row_off_diagonal_equals_its_diagonal(self):
        """A duplicated row's off-diagonal entry equals its diagonal, bit for bit,
        so a duplicated training row without noise leaves the kernel singular."""
        differ = []
        for seed in range(60):
            X = np.random.default_rng(seed).uniform(0, 1, (300, 12))
            X[-1] = X[0]
            K = nngp_kernel(X, None, KernelConfig())
            if K[0, -1] != K[0, 0]:
                differ.append(seed)
        assert differ == []

    def test_triangle_needs_the_same_batch(self):
        X = np.zeros((3, 2))
        with pytest.raises(KernelError, match="same-batch"):
            kernel_matrix(X, X, KernelConfig(), triangle=True)

    @pytest.mark.parametrize(
        "n_rows, n_cols, upper",
        [(1, 300_000, False), (5000, 3, False)] + [(n, n, upper) for n in (1, 7, 2000) for upper in (False, True)],
    )
    def test_row_blocks_tile_the_rows_within_the_block_size(self, n_rows, n_cols, upper):
        blocks = list(row_blocks(n_rows, n_cols, upper))
        assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]] and blocks[-1][1] == n_rows
        for lo, hi in blocks:
            width = n_cols - lo if upper else n_cols
            assert hi > lo and ((hi - lo) * width <= _BLOCK_ELEMS or hi - lo == 1)

    @pytest.mark.parametrize("prior", PRIORS)
    @pytest.mark.parametrize("m", [1, 123])
    def test_cross_batch_matches_dense_recursion(self, prior, m):
        rng = np.random.default_rng(m)
        X, X2 = rng.uniform(0, 1, (2000, 6)), rng.uniform(0, 1, (m, 6))
        top = KernelConfig(depth=4, **PRIORS[prior])
        for depth, ref in enumerate(_dense_layers(X, X2, top)):
            K = nngp_kernel(X, X2, dataclasses.replace(top, depth=depth))
            np.testing.assert_allclose(K, ref, rtol=1e-12, atol=0)


def _resident_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * mmap.PAGESIZE


class TestSquareZeros:
    @pytest.mark.parametrize("n, order", [(0, "C"), (1, "F"), (300, "C"), (1000, "F")])
    def test_is_a_zeroed_square_that_tracemalloc_counts(self, n, order):
        tracemalloc.start()
        try:
            A = square_zeros(n, order)
            traced = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert A.shape == (n, n) and A.dtype == np.float64 and not np.any(A)
        assert A.flags.c_contiguous if order == "C" else A.flags.f_contiguous
        assert traced >= A.nbytes

    @pytest.mark.skipif(not hasattr(mmap, "MADV_NOHUGEPAGE"), reason="no MADV_NOHUGEPAGE on this platform")
    def test_writing_the_upper_triangle_backs_about_half(self):
        # 4 KiB pages round each 32 KiB row's written part up to whole pages,
        # about 0.69 of the array; with 2 MiB huge pages all of it is backed
        n = 4096
        A = square_zeros(n)
        before = _resident_bytes()
        for i in range(n):
            A[i, i:] = 1.0
        assert _resident_bytes() - before <= 0.75 * A.nbytes

