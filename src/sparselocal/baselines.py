"""Global linear baselines and the top-k truncation evaluation protocol.

Both baselines fit a single weight vector on the simplified
representations with squared loss on the +1/-1 labels and read out the
prediction sign. Accuracy at a given k is measured after zeroing all but
the k largest-magnitude weights, which is how a global linear model is
forced to explain with k features.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from . import gate as gt


@dataclass
class LinearModel:
    weights: np.ndarray
    alpha: float

    def margins(self, Z):
        return np.asarray(Z) @ self.weights


def ridge_fit(Z, y, alpha):
    """Least squares with an L2 penalty, solved from the normal equations."""
    Z = np.asarray(Z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if alpha < 0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    if Z.ndim != 2 or Z.shape[0] < 1:
        raise ValueError(f"design matrix must be 2-d and non-empty, got shape {Z.shape}")
    d = Z.shape[1]
    gram = Z.T @ Z + alpha * np.eye(d)
    if alpha == 0 and np.linalg.matrix_rank(Z) < d:
        raise SolverError("normal equations are singular at alpha=0; use alpha > 0")
    try:
        w = np.linalg.solve(gram, Z.T @ y)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"normal equations are singular ({exc}); use alpha > 0") from exc
    return LinearModel(weights=w, alpha=float(alpha))


def soft_threshold(value, level):
    return np.sign(value) * np.maximum(np.abs(value) - level, 0.0)


def lasso_fit(Z, y, alpha, max_sweeps=10_000, tol=1e-8):
    """L1-penalized least squares by cyclic coordinate descent.

    Minimizes 0.5 * ||y - Z w||^2 + alpha * ||w||_1 with soft-threshold
    updates until the largest coordinate change in a sweep drops below
    ``tol``. Warns with the final delta if the sweep budget runs out.
    """
    Z = np.asarray(Z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    n, d = Z.shape
    norms = (Z * Z).sum(axis=0)
    w = np.zeros(d)
    residual = y.copy()  # y - Z w, maintained incrementally
    delta = np.inf
    for _ in range(max_sweeps):
        delta = 0.0
        for j in range(d):
            if norms[j] == 0.0:
                continue
            old = w[j]
            rho = Z[:, j] @ residual + norms[j] * old
            new = soft_threshold(rho, alpha) / norms[j]
            if new != old:
                residual += Z[:, j] * (old - new)
                w[j] = new
                delta = max(delta, abs(new - old))
        if delta < tol:
            break
    else:
        warnings.warn(f"lasso did not converge; final max coordinate change {delta:.3e}")
    return LinearModel(weights=w, alpha=float(alpha))


def topk_truncate(weights, k):
    """Keep the k largest-|w| entries of each row, zero the rest.

    The selection is the hard gate :func:`~sparselocal.gate.k_hot_gate`
    over every entry, so ties go to the lowest index.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if k >= weights.shape[-1]:
        return weights.copy()
    return np.where(gt.k_hot_gate(weights, True, k)[0] == 1.0, weights, 0.0)


def topk_truncate_eval(weights, samples, k):
    """Sign accuracy of a global weight vector truncated to its top-k entries."""
    Z, y = design_matrix(samples)
    return float(np.mean(np.where(Z @ topk_truncate(weights, k) >= 0, 1, -1) == y))


def design_matrix(samples):
    Z = np.stack([np.asarray(s.z, dtype=np.float64) for s in samples])
    y = np.array([s.y for s in samples], dtype=np.float64)
    return Z, y


ALPHAS = [10.0**e for e in range(-4, 3)]


def select_alpha(fit, train_samples, val_samples):
    """Pick the regularization strength in ``ALPHAS`` with the best validation sign accuracy."""
    Ztr, ytr = design_matrix(train_samples)
    Zval, yval = design_matrix(val_samples)
    best_alpha, best_acc, best_model = None, -1.0, None
    for alpha in ALPHAS:
        model = fit(Ztr, ytr, alpha)
        acc = float(np.mean(np.where(model.margins(Zval) >= 0, 1, -1) == yval))
        if acc > best_acc:
            best_alpha, best_acc, best_model = alpha, acc, model
    return best_model, best_alpha
