"""Linear baseline solvers checked against independent oracles.

The ridge solver is compared with a separately coded normal-equation
solve; the lasso solver with its orthonormal-design closed form, its KKT
conditions, and an iteratively refined grid search over the objective.
"""

import numpy as np
import pytest

from sparselocal.baselines import (
    LinearModel,
    design_matrix,
    lasso_fit,
    ridge_fit,
    select_alpha,
    soft_threshold,
    topk_truncate,
    topk_truncate_eval,
)
from sparselocal.data import Sample
from sparselocal.errors import SolverError


def lasso_objective(Z, y, w, alpha):
    r = y - Z @ w
    return 0.5 * float(r @ r) + alpha * float(np.abs(w).sum())


def grid_search_lasso(Z, y, alpha, span=3.0, stages=7, points=21):
    """Iteratively refined grid minimization of the lasso objective."""
    d = Z.shape[1]
    center = np.zeros(d)
    width = span
    for _ in range(stages):
        axes = [np.linspace(c - width, c + width, points) for c in center]
        best, best_val = None, np.inf
        grids = np.meshgrid(*axes, indexing="ij")
        candidates = np.stack([g.ravel() for g in grids], axis=1)
        residuals = y[None, :] - candidates @ Z.T
        values = 0.5 * (residuals**2).sum(axis=1) + alpha * np.abs(candidates).sum(axis=1)
        best = candidates[int(np.argmin(values))]
        center = best
        width = 2.0 * width / (points - 1)
    return center


class TestRidge:
    def test_identity_design(self):
        model = ridge_fit(np.eye(2), np.array([1.0, -1.0]), alpha=0.0)
        np.testing.assert_allclose(model.weights, [1.0, -1.0], atol=1e-12)

    def test_large_alpha_shrinks_to_zero(self):
        rng = np.random.default_rng(0)
        Z = rng.normal(size=(30, 4))
        y = rng.normal(size=30)
        w = ridge_fit(Z, y, alpha=1e9).weights
        assert np.max(np.abs(w)) < 1e-5

    def test_singular_at_alpha_zero_suggests_regularization(self):
        Z = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])  # rank 1
        with pytest.raises(SolverError, match="alpha > 0"):
            ridge_fit(Z, np.ones(3), alpha=0.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_normal_equation_oracle(self, seed):
        rng = np.random.default_rng(seed)
        Z = rng.normal(size=(20, 5))
        y = rng.normal(size=20)
        alpha = float(rng.uniform(0.01, 2.0))
        w = ridge_fit(Z, y, alpha).weights
        oracle = np.linalg.inv(Z.T @ Z + alpha * np.eye(5)) @ (Z.T @ y)
        assert np.max(np.abs(w - oracle)) <= 1e-8

    def test_sample_order_invariance(self):
        rng = np.random.default_rng(42)
        Z = rng.normal(size=(25, 4))
        y = rng.normal(size=25)
        perm = rng.permutation(25)
        w1 = ridge_fit(Z, y, 0.5).weights
        w2 = ridge_fit(Z[perm], y[perm], 0.5).weights
        np.testing.assert_allclose(w1, w2, atol=1e-10)


class TestLasso:
    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            lasso_fit(np.eye(2), np.ones(2), alpha=0.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_orthonormal_design_closed_form(self, seed):
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.normal(size=(12, 5)))
        y = rng.normal(scale=2.0, size=12)
        alpha = float(rng.uniform(0.05, 0.8))
        w = lasso_fit(Q, y, alpha).weights
        closed = soft_threshold(Q.T @ y, alpha)
        assert np.max(np.abs(w - closed)) <= 1e-6

    def test_huge_alpha_zeroes_everything(self):
        rng = np.random.default_rng(3)
        Z = rng.normal(size=(15, 4))
        y = rng.normal(size=15)
        w = lasso_fit(Z, y, alpha=1e6).weights
        np.testing.assert_array_equal(w, np.zeros(4))

    @pytest.mark.parametrize("seed", range(15))
    def test_kkt_conditions_at_convergence(self, seed):
        rng = np.random.default_rng(100 + seed)
        Z = rng.normal(size=(25, 6))
        y = rng.normal(size=25)
        alpha = float(rng.uniform(0.1, 1.5))
        w = lasso_fit(Z, y, alpha).weights
        corr = Z.T @ (y - Z @ w)
        active = w != 0
        assert np.max(np.abs(corr[active] - alpha * np.sign(w[active])), initial=0.0) <= 1e-6
        assert np.max(np.abs(corr[~active]), initial=0.0) <= alpha + 1e-6

    def test_matches_grid_search_oracle(self):
        rng = np.random.default_rng(7)
        Z = rng.normal(size=(10, 3))
        y = rng.normal(size=10)
        alpha = 0.5
        w = lasso_fit(Z, y, alpha).weights
        w_grid = grid_search_lasso(Z, y, alpha)
        assert np.max(np.abs(w - w_grid)) <= 1e-4
        assert lasso_objective(Z, y, w, alpha) <= lasso_objective(Z, y, w_grid, alpha) + 1e-8

    def test_warns_when_sweep_budget_runs_out(self):
        rng = np.random.default_rng(9)
        Z = rng.normal(size=(30, 5))
        y = rng.normal(size=30)
        with pytest.warns(UserWarning, match="did not converge"):
            lasso_fit(Z, y, alpha=0.01, max_sweeps=1)


def make_samples(Z, y):
    return [
        Sample(id=i, x=z, z=z, y=int(lbl), m=np.zeros(len(z), dtype=np.int64))
        for i, (z, lbl) in enumerate(zip(Z, y))
    ]


class TestTopKTruncation:
    def test_keeps_largest_magnitudes(self):
        out = topk_truncate(np.array([3.0, -1.0, 2.0]), 2)
        np.testing.assert_array_equal(out, [3.0, 0.0, 2.0])

    def test_tie_prefers_lowest_index(self):
        out = topk_truncate(np.array([1.0, -1.0, 1.0]), 2)
        np.testing.assert_array_equal(out, [1.0, -1.0, 0.0])

    def test_k_equal_d_changes_nothing(self):
        rng = np.random.default_rng(11)
        w = rng.normal(size=6)
        Z = rng.normal(size=(50, 6))
        y = np.where(Z @ w >= 0, 1, -1)
        samples = make_samples(Z, y)
        assert topk_truncate_eval(w, samples, 6) == 1.0

    def test_truncation_degrades_gracefully(self):
        rng = np.random.default_rng(13)
        w = np.array([5.0, 0.1, 0.1, 0.1])
        Z = rng.normal(size=(200, 4))
        y = np.where(Z @ w >= 0, 1, -1)
        samples = make_samples(Z, y)
        acc1 = topk_truncate_eval(w, samples, 1)
        assert acc1 >= 0.9  # the dominant weight carries the signal


class TestAlphaSelection:
    def test_prefers_useful_regularization(self):
        rng = np.random.default_rng(17)
        w_true = np.array([2.0, -1.5, 0.0, 0.0, 0.0])
        Z = rng.normal(size=(400, 5))
        y = np.where(Z @ w_true + rng.normal(scale=0.3, size=400) >= 0, 1, -1)
        samples = make_samples(Z, y)
        model, alpha = select_alpha(ridge_fit, samples[:300], samples[300:])
        assert isinstance(model, LinearModel)
        assert alpha in [10.0**e for e in range(-4, 3)]
        Zv, yv = design_matrix(samples[300:])
        acc = np.mean(np.where(model.margins(Zv) >= 0, 1, -1) == yv)
        assert acc >= 0.85
