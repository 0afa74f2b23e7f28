"""Sampling-based oracles for the closed-form ReLU kernel, plus self-checks.

Nothing here shares code with the analytic kernel step: the ReLU expectation
is estimated by drawing bivariate normals, and finite-width ReLU networks are
actually sampled. The CLI `selfcheck` subcommand runs reduced versions of
the same checks the test suite uses.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import gp
from .kernel import KernelConfig, nngp_kernel, relu_layer_step


def random_psd_case(rng: np.random.Generator) -> tuple[float, float, float]:
    """A random well-conditioned 2x2 PSD input (k_xx, k_xy, k_yy).

    Variances are uniform in [0.5, 4]; the correlation is drawn from
    [-0.6, 0.9] excluding (-0.25, 0.25), keeping the ReLU expectation far
    enough from zero for relative comparisons at feasible sample counts.
    """
    a = float(rng.uniform(0.5, 4.0))
    b = float(rng.uniform(0.5, 4.0))
    while True:
        rho = float(rng.uniform(-0.6, 0.9))
        if abs(rho) >= 0.25:
            break
    return a, rho * math.sqrt(a * b), b


def mc_activation_expectations(
    k_xx: float, k_xy: float, k_yy: float, n_samples: int, rng: np.random.Generator
) -> float:
    """Monte-Carlo E[relu(u) relu(v)] for (u, v) ~ N(0, [[k_xx, k_xy], [k_xy, k_yy]])."""
    if k_xx <= 0 or k_yy <= 0:
        raise ValueError("variances must be positive")
    # Explicit 2x2 Cholesky factor.
    l11 = math.sqrt(k_xx)
    l21 = k_xy / l11
    l22 = math.sqrt(max(k_yy - l21 * l21, 0.0))
    z = rng.standard_normal((n_samples, 2))
    u = l11 * z[:, 0]
    v = l21 * z[:, 0] + l22 * z[:, 1]
    return float(np.mean(np.maximum(u, 0.0) * np.maximum(v, 0.0)))


def kernel_mc_check(
    n_cases: int = 100, n_samples: int = 3_000_000, seed: int = 20240811
) -> dict:
    """Compare the closed-form ReLU layer step against sampled expectations.

    For every random PSD input the analytic expectation is the layer step with
    no bias and unit weight variance, compared with the Monte-Carlo estimate,
    relative to the estimate.
    """
    rng = np.random.default_rng(seed)
    config = KernelConfig(sigma_w_sq=1.0, sigma_b_sq=0.0, depth=1)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(n_cases):
        k_xx, k_xy, k_yy = random_psd_case(rng)
        mc = mc_activation_expectations(k_xx, k_xy, k_yy, n_samples, rng)
        analytic = float(relu_layer_step(k_xx, k_xy, k_yy, config))
        worst = max(worst, abs(analytic - mc) / abs(mc))
    return {
        "cases": n_cases,
        "samples_per_case": n_samples,
        "worst_rel_err": worst,
        "elapsed_s": time.perf_counter() - start,
    }


# ---------------------------------------------------------------------------
# finite-width network sampling
# ---------------------------------------------------------------------------


def sample_network_covariance(
    X: np.ndarray,
    config: KernelConfig,
    n_networks: int = 200,
    width: int = 4096,
    seed: int = 0,
) -> np.ndarray:
    """Empirical output covariance of finite-width ReLU networks over inputs X.

    Each network draws `config.depth` hidden layers of the given width with
    weight variance sigma_w^2 / fan_in and bias variance sigma_b^2. The
    linear readout layer is averaged analytically per network (its weights
    enter the output covariance only through sigma_w^2/width * <h, h'> +
    sigma_b^2, which is exact given the sampled hidden features); the
    networks themselves are what is sampled.
    """
    if config.depth < 1:
        raise ValueError("finite-width sampling needs at least one hidden layer")
    X = np.asarray(X, dtype=np.float64)
    rng = np.random.default_rng(seed)
    n = len(X)
    total = np.zeros((n, n), dtype=np.float64)
    sw, sb = config.sigma_w_sq, config.sigma_b_sq
    for _ in range(n_networks):
        h = X
        fan_in = X.shape[1]
        for _ in range(config.depth):
            w = rng.standard_normal((fan_in, width)) * math.sqrt(sw / fan_in)
            b = rng.standard_normal(width) * math.sqrt(sb)
            h = np.maximum(h @ w + b, 0.0)
            fan_in = width
        total += (sw / width) * (h @ h.T) + sb
    return total / n_networks


def finite_width_check(
    X: np.ndarray,
    config: KernelConfig,
    n_networks: int = 200,
    width: int = 4096,
    seed: int = 0,
) -> dict:
    """Relative Frobenius gap between sampled and analytic output covariance."""
    start = time.perf_counter()
    empirical = sample_network_covariance(X, config, n_networks, width, seed)
    analytic = nngp_kernel(X, None, config)
    rel = float(np.linalg.norm(empirical - analytic) / np.linalg.norm(analytic))
    return {
        "networks": n_networks,
        "width": width,
        "inputs": len(X),
        "rel_frobenius_err": rel,
        "elapsed_s": time.perf_counter() - start,
    }


# ---------------------------------------------------------------------------
# GP identity checks
# ---------------------------------------------------------------------------


def gp_interpolation_check(
    n: int = 64, d: int = 8, seed: int = 7, config: KernelConfig | None = None
) -> dict:
    """With zero observation noise the GP must reproduce its training targets."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(n, d))
    y = rng.uniform(0.0, 9.0, size=n)
    cfg = config or KernelConfig(noise_sq=0.0)
    est = gp.fit(X, y, cfg)
    pred = gp.predict(est, X)
    return {
        "n": n,
        "max_abs_mean_err": float(np.max(np.abs(pred.mean_log - y))),
        "max_var": float(np.max(pred.var_log)),
    }


def selfcheck(seed: int = 0, fast: bool = True) -> dict:
    """User-facing diagnostic bundle; `fast` shrinks the sampling budgets."""
    mc = kernel_mc_check(
        n_cases=10 if fast else 100,
        n_samples=500_000 if fast else 3_000_000,
        seed=seed + 1,
    )
    rng = np.random.default_rng(seed + 2)
    X = rng.uniform(0.0, 1.0, size=(8, 6))
    fw = finite_width_check(
        X,
        KernelConfig(depth=1, noise_sq=0.0),
        n_networks=50 if fast else 200,
        width=1024 if fast else 4096,
        seed=seed + 3,
    )
    interp = gp_interpolation_check(seed=seed + 4)
    checks = {
        "kernel_mc_relu": {"value": mc["worst_rel_err"], "threshold": 0.05 if fast else 0.01},
        "finite_width": {"value": fw["rel_frobenius_err"], "threshold": 0.08 if fast else 0.03},
        "gp_interpolation_mean": {"value": interp["max_abs_mean_err"], "threshold": 1e-6},
        "gp_interpolation_var": {"value": interp["max_var"], "threshold": 1e-6},
    }
    for check in checks.values():
        check["pass"] = bool(check["value"] <= check["threshold"])
    return {"checks": checks, "all_pass": all(c["pass"] for c in checks.values())}
