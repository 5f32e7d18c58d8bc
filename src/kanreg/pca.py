"""PCA feature compression with a variance-ratio + floor selection rule.

The retained dimension is ``k = min(d, max(k_var, 64))`` where ``k_var`` is
the smallest k whose top-k eigenvalue mass reaches the requested variance
ratio. The floor of 64 keeps enough coordinates for the downstream network
even when the spectrum collapses early; for d < 64 the floor caps at d.

Fitting eigendecomposes whichever of the covariance (d x d) or the Gram
matrix (n x n) of the centred rows is smaller, in one ``sym_eig`` call; both
give the same nonzero spectrum, and Gram eigenvectors map onto covariance
eigenvectors exactly. Either route keeps the eigenvectors of the live
spectrum (above 1e-10 of the largest eigenvalue); when the floor asks for
more components, the rest are one deterministic orthonormal completion, so
the components depend on neither the route nor the row order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateDataError, InsufficientDataError, NumericError,
                     ParameterError, ShapeError)
from .linalg import as_matrix, sym_eig

K_FLOOR = 64


@dataclass
class PcaModel:
    mean: np.ndarray          # [d] training column means
    components: np.ndarray    # [k, d] orthonormal rows, fixed sign convention
    eigenvalues: np.ndarray   # [d] descending, nonnegative
    k: int
    tau: float | None = None  # variance-ratio target used at fit time, if any


def _check_tau(tau: float) -> float:
    tau = float(tau)
    if not 0.0 < tau <= 1.0:
        raise ParameterError(f"variance ratio target must be in (0, 1], got {tau}")
    return tau


def _clean_spectrum(eigenvalues) -> np.ndarray:
    w = np.asarray(eigenvalues, dtype=np.float64).reshape(-1).copy()
    if w.size < 1:
        raise ShapeError("empty eigenvalue vector")
    scale = max(1.0, float(w.max(initial=0.0)))
    bad = w < -1e-7 * scale
    if np.any(bad):
        raise NumericError(
            f"spectrum has a significantly negative eigenvalue ({w[bad].min():.3e})")
    w[w < 0.0] = 0.0
    if np.any(w[1:] > w[:-1] + 1e-9 * scale):
        raise ParameterError("eigenvalues must be sorted in descending order")
    return w


def variance_ratio(eigenvalues, k: int) -> float:
    """Fraction of total eigenvalue mass captured by the top k entries."""
    w = _clean_spectrum(eigenvalues)
    if not 0 <= k <= w.size:
        raise ParameterError(f"k must be in [0, {w.size}], got {k}")
    total = float(w.sum())
    if total <= 0.0:
        raise DegenerateDataError("all eigenvalues are zero")
    return float(w[:k].sum()) / total


def select_k(eigenvalues, tau: float) -> int:
    """Smallest k reaching the variance target, floored at 64, capped at d.

    ``d`` is the spectrum length, one eigenvalue per original feature.
    """
    tau = _check_tau(tau)
    w = _clean_spectrum(eigenvalues)
    total = float(w.sum())
    if total <= 0.0:
        raise DegenerateDataError("all eigenvalues are zero; nothing to select")
    cum = np.cumsum(w)
    k_var = int(np.searchsorted(cum, tau * total, side="left")) + 1
    return min(w.size, max(k_var, K_FLOOR))


def _orthonormal_completion(rows: np.ndarray, k: int, d: int) -> np.ndarray:
    """Extend orthonormal ``rows`` to k rows using standard basis directions."""
    got = [rows[i] for i in range(rows.shape[0])]
    for j in range(d):
        if len(got) >= k:
            break
        v = np.zeros(d)
        v[j] = 1.0
        basis = np.asarray(got)
        for _ in range(2):  # re-orthogonalize once for numerical safety
            v = v - basis.T @ (basis @ v)
        norm = float(np.linalg.norm(v))
        if norm > 1e-6:
            got.append(v / norm)
    if len(got) < k:
        raise NumericError("could not complete an orthonormal component set")
    return np.asarray(got)


def _fix_signs(components: np.ndarray) -> np.ndarray:
    """Flip each row whose largest-magnitude entry is negative."""
    pivots = components[np.arange(components.shape[0]),
                        np.argmax(np.abs(components), axis=1)]
    return np.where((pivots < 0.0)[:, None], -components, components)


def fit(features, tau: float) -> PcaModel:
    """Fit PCA on rows of ``features`` and keep ``select_k`` components."""
    tau = _check_tau(tau)
    x = as_matrix(features, "pca input")
    n, d = x.shape
    if n < 2:
        raise InsufficientDataError(f"pca fit needs at least 2 rows, got {n}")
    mean = x.mean(axis=0)
    centered = x - mean
    gram = d > n
    product = (centered @ centered.T if gram else centered.T @ centered) / (n - 1)
    mu, u = sym_eig((product + product.T) / 2.0)  # symmetrize away accumulation skew
    mu = _clean_spectrum(mu)
    eigenvalues = np.concatenate([mu, np.zeros(d - mu.size)])
    live = np.flatnonzero(mu > mu[0] * 1e-10)
    if gram:  # v = X^T u / sqrt(mu (n - 1)) is the unit covariance eigenvector
        available = np.array([centered.T @ u[i] / np.sqrt(mu[i] * (n - 1))
                              for i in live]).reshape(-1, d)
    else:
        available = u[live]
    k = select_k(eigenvalues, tau)
    components = _orthonormal_completion(available[:k], k, d)
    components = _fix_signs(components)
    return PcaModel(mean=mean, components=components,
                    eigenvalues=eigenvalues, k=k, tau=tau)


def transform(model: PcaModel, features) -> np.ndarray:
    """Project raw rows onto the retained components: (x - mean) @ C^T."""
    x = as_matrix(features, "pca transform input")
    d = model.mean.size
    if x.shape[1] != d:
        raise ShapeError(f"pca model was fit on {d} features, input has {x.shape[1]}")
    return (x - model.mean) @ model.components.T
