"""Two-cluster algorithms used to split APs into mapped / not-mapped groups.

All three algorithms are deterministic given their seed, which the rest of
the pipeline relies on for reproducible runs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .records import DegenerateDataError


@dataclass
class KMeansResult:
    assignment: np.ndarray
    centroids: np.ndarray
    sse: float
    n_iter: int
    sse_history: list[float]


@dataclass
class GmmResult:
    assignment: np.ndarray
    posteriors: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    weights: np.ndarray
    log_likelihoods: list[float]


def _as_matrix(matrix) -> np.ndarray:
    X = np.asarray(matrix, dtype=float)
    if X.ndim != 2:
        raise ValueError("expected a 2-D feature matrix")
    if not np.all(np.isfinite(X)):
        raise DegenerateDataError("feature matrix contains non-finite values")
    return X


def _too_few_distinct(X: np.ndarray, k: int) -> bool:
    """Whether `X` has fewer than `k` distinct rows.

    For k=2 that is whether every row equals the first, which needs no sort.
    """
    if k == 2:
        return X.shape[0] == 0 or bool((X == X[0]).all())
    return np.unique(X, axis=0).shape[0] < k


def _kmeanspp_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]))
    centroids[0] = X[rng.integers(n)]
    for j in range(1, k):
        d2 = np.min(((X[:, None, :] - centroids[None, :j, :]) ** 2).sum(axis=2), axis=1)
        total = d2.sum()
        if total <= 0:
            # remaining points coincide with chosen centroids; spread uniformly
            centroids[j] = X[rng.integers(n)]
            continue
        centroids[j] = X[rng.choice(n, p=d2 / total)]
    return centroids


def kmeans(matrix, k: int = 2, seed: int = 0, max_iter: int = 300) -> KMeansResult:
    """Lloyd's algorithm from a seeded k-means++ start.

    Point-to-centroid ties break toward the lower centroid index; a cluster
    that empties is reseeded to the point farthest from its current centroid.
    Stops when assignments stop changing.
    """
    X = _as_matrix(matrix)
    n = X.shape[0]
    if _too_few_distinct(X, k):
        raise DegenerateDataError(f"need at least {k} distinct rows for k={k}")
    rng = np.random.default_rng(seed)
    centroids = _kmeanspp_init(X, k, rng)

    assignment = np.full(n, -1, dtype=np.int64)
    history: list[float] = []
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        d2 = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assignment = np.argmin(d2, axis=1)  # argmin returns the lowest index on ties
        if np.bincount(new_assignment, minlength=k).min() == 0:
            for j in range(k):
                if not np.any(new_assignment == j):
                    farthest = int(np.argmax(d2[np.arange(n), new_assignment]))
                    new_assignment[farthest] = j
                    centroids[j] = X[farthest]
        history.append(float(((X - centroids[new_assignment]) ** 2).sum()))
        if (new_assignment == assignment).all():
            break
        assignment = new_assignment
        for j in range(k):
            centroids[j] = X[assignment == j].mean(axis=0)

    sse = float(((X - centroids[assignment]) ** 2).sum())
    return KMeansResult(assignment, centroids, sse, n_iter, history)


def hierarchical(matrix, k: int = 2) -> np.ndarray:
    """Agglomerative clustering, Ward linkage, Euclidean metric.

    Merges until `k` clusters remain. Ties on merge cost break toward the
    pair of clusters with lexicographically smallest representative indices
    (a cluster is represented by its smallest original row index).
    """
    X = _as_matrix(matrix)
    n = X.shape[0]
    if n < k:
        raise DegenerateDataError(f"need at least {k} rows, found {n}")

    # cluster key = smallest member row index
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    means: dict[int, np.ndarray] = {i: X[i].copy() for i in range(n)}
    sizes: dict[int, int] = {i: 1 for i in range(n)}

    def ward_cost(a: int, b: int) -> float:
        diff = means[a] - means[b]
        return sizes[a] * sizes[b] / (sizes[a] + sizes[b]) * float(diff @ diff)

    while len(members) > k:
        keys = sorted(members)
        best = None
        for i, a in enumerate(keys):
            for b in keys[i + 1 :]:
                cost = ward_cost(a, b)
                if best is None or cost < best[0] - 1e-12:
                    best = (cost, a, b)
        _, a, b = best
        total = sizes[a] + sizes[b]
        means[a] = (sizes[a] * means[a] + sizes[b] * means[b]) / total
        sizes[a] = total
        members[a].extend(members[b])
        del members[b], means[b], sizes[b]

    assignment = np.empty(n, dtype=np.int64)
    for label, key in enumerate(sorted(members)):
        assignment[members[key]] = label
    return assignment


def _log_gaussians(X: np.ndarray, means: np.ndarray, covariances: np.ndarray) -> np.ndarray:
    """Per-component log N(x | mu_k, Sigma_k); shape (n, k)."""
    n, d = X.shape
    k = means.shape[0]
    out = np.empty((n, k))
    for j in range(k):
        chol = np.linalg.cholesky(covariances[j])
        z = np.linalg.solve(chol, (X - means[j]).T)
        maha = (z**2).sum(axis=0)
        log_det = 2.0 * np.log(np.diag(chol)).sum()
        out[:, j] = -0.5 * (d * np.log(2 * np.pi) + log_det + maha)
    return out


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    peak = a.max(axis=axis, keepdims=True)
    return (peak + np.log(np.exp(a - peak).sum(axis=axis, keepdims=True))).squeeze(axis)


def em_gmm(
    matrix,
    k: int = 2,
    seed: int = 0,
    max_iter: int = 200,
    tol: float = 1e-6,
    reg: float = 1e-6,
) -> GmmResult:
    """Full-covariance Gaussian mixture fitted by EM, warm-started from k-means.

    Every M-step adds `reg` to the covariance diagonals. Iteration stops when
    the log-likelihood improves by less than `tol`. Hard assignments take the
    highest posterior, ties breaking to component 0.
    """
    X = _as_matrix(matrix)
    n, d = X.shape
    if _too_few_distinct(X, 2):
        raise DegenerateDataError("all rows identical; mixture is undefined")

    start = kmeans(X, k=k, seed=seed)
    means = np.empty((k, d))
    covariances = np.empty((k, d, d))
    weights = np.empty(k)
    for j in range(k):
        rows = X[start.assignment == j]
        means[j] = rows.mean(axis=0)
        centered = rows - means[j]
        covariances[j] = centered.T @ centered / rows.shape[0] + reg * np.eye(d)
        weights[j] = rows.shape[0] / n

    log_likelihoods: list[float] = []
    log_resp = None
    for _ in range(max_iter):
        joint = _log_gaussians(X, means, covariances) + np.log(weights)[None, :]
        norm = _logsumexp(joint, axis=1)
        log_resp = joint - norm[:, None]
        ll = float(norm.sum())
        if log_likelihoods and ll - log_likelihoods[-1] < tol:
            log_likelihoods.append(ll)
            break
        log_likelihoods.append(ll)

        resp = np.exp(log_resp)
        counts = resp.sum(axis=0)
        weights = counts / n
        means = (resp.T @ X) / counts[:, None]
        for j in range(k):
            centered = X - means[j]
            weighted = centered * resp[:, j : j + 1]
            covariances[j] = weighted.T @ centered / counts[j] + reg * np.eye(d)

    posteriors = np.exp(log_resp)
    assignment = np.argmax(posteriors, axis=1)  # first max wins ties -> component 0
    return GmmResult(assignment, posteriors, means, covariances, weights, log_likelihoods)


def pca_project(matrix, components: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Project rows onto the top principal components of the column covariance.

    Returns (coordinates, explained_variance_ratio). Component signs are fixed
    so the largest-magnitude loading is positive, making output independent of
    row order.
    """
    X = _as_matrix(matrix)
    n = X.shape[0]
    if n < 2:
        raise DegenerateDataError("PCA needs at least 2 rows")
    centered = X - X.mean(axis=0)
    cov = centered.T @ centered / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:components]
    vecs = eigvecs[:, order]
    for j in range(vecs.shape[1]):
        pivot = np.argmax(np.abs(vecs[:, j]))
        if vecs[pivot, j] < 0:
            vecs[:, j] = -vecs[:, j]
    total = float(eigvals.sum())
    ratio = eigvals[order] / total if total > 0 else np.zeros(len(order))
    return centered @ vecs, ratio
