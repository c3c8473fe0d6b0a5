"""Two-cluster algorithms used to split APs into mapped / not-mapped groups.

Each algorithm splits the rows of a feature matrix into clusters 0 and 1.
All three are deterministic given their seed, which the rest of the pipeline
relies on for reproducible runs. Their settings are the constants below.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .records import DegenerateDataError

KMEANS_MAX_ITER = 300
EM_MAX_ITER = 200
EM_TOL = 1e-6  # EM stops once the log-likelihood improves by less
EM_REG = 1e-6  # added to every covariance diagonal
PCA_COMPONENTS = 2


@dataclass
class KMeansResult:
    assignment: np.ndarray
    n_iter: int
    sse_history: list[float]


@dataclass
class GmmResult:
    assignment: np.ndarray
    posteriors: np.ndarray
    log_likelihoods: list[float]


def _as_matrix(matrix) -> np.ndarray:
    X = np.asarray(matrix, dtype=float)
    if X.ndim != 2:
        raise ValueError("expected a 2-D feature matrix")
    if not np.all(np.isfinite(X)):
        raise DegenerateDataError("feature matrix contains non-finite values")
    return X


def too_few_distinct(X: np.ndarray) -> bool:
    """Whether `X` has fewer than two distinct rows: every row equals the first."""
    return X.shape[0] == 0 or bool((X == X[0]).all())


# Per thread, one (generator, its initial state) per seed; see `_generator`.
_SEEDED = threading.local()


def _generator(seed: int) -> np.random.Generator:
    """A generator in the state `np.random.default_rng(seed)` starts in.

    On every call with `seed` in one thread it is the same generator, its
    initial state restored: setting a state costs about a tenth of seeding a
    new generator, which k-means would otherwise do for every class. No
    thread draws from another's.
    """
    generators = _SEEDED.__dict__.setdefault("generators", {})
    if seed not in generators:
        rng = np.random.default_rng(seed)
        generators[seed] = rng, rng.bit_generator.state
    rng, state = generators[seed]
    rng.bit_generator.state = state
    return rng


def _kmeanspp_init(X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centroids = np.empty((2, X.shape[1]))
    centroids[0] = X[rng.integers(n)]
    d2 = ((X - centroids[0]) ** 2).sum(axis=1)
    total = d2.sum()
    if total <= 0:
        # every point coincides with the first centroid; draw the second uniformly
        centroids[1] = X[rng.integers(n)]
    else:
        centroids[1] = X[rng.choice(n, p=d2 / total)]
    return centroids


def kmeans(matrix, seed: int = 0) -> KMeansResult:
    """Lloyd's algorithm from a seeded k-means++ start.

    Point-to-centroid ties break toward the lower centroid index; a cluster
    that empties is reseeded to the point farthest from its current centroid.
    Stops when assignments stop changing, or after `KMEANS_MAX_ITER` steps.
    """
    X = _as_matrix(matrix)
    n = X.shape[0]
    if too_few_distinct(X):
        raise DegenerateDataError("need at least 2 distinct rows for two clusters")
    centroids = _kmeanspp_init(X, _generator(seed))

    assignment = np.full(n, -1, dtype=np.int64)
    history: list[float] = []
    n_iter = 0
    for n_iter in range(1, KMEANS_MAX_ITER + 1):
        d2 = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assignment = np.argmin(d2, axis=1)  # argmin returns the lowest index on ties
        if np.bincount(new_assignment, minlength=2).min() == 0:
            for j in range(2):
                if not np.any(new_assignment == j):
                    farthest = int(np.argmax(d2[np.arange(n), new_assignment]))
                    new_assignment[farthest] = j
                    centroids[j] = X[farthest]
        history.append(float(((X - centroids[new_assignment]) ** 2).sum()))
        if (new_assignment == assignment).all():
            break
        assignment = new_assignment
        for j in range(2):
            centroids[j] = X[assignment == j].mean(axis=0)

    return KMeansResult(assignment, n_iter, history)


def hierarchical(matrix) -> np.ndarray:
    """Agglomerative clustering, Ward linkage, Euclidean metric.

    Merges until two clusters remain. Ties on merge cost break toward the
    pair of clusters with lexicographically smallest representative indices
    (a cluster is represented by its smallest original row index).
    """
    X = _as_matrix(matrix)
    n = X.shape[0]
    if n < 2:
        raise DegenerateDataError(f"need at least 2 rows, found {n}")

    # cluster key = smallest member row index
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    means: dict[int, np.ndarray] = {i: X[i].copy() for i in range(n)}
    sizes: dict[int, int] = {i: 1 for i in range(n)}

    def ward_cost(a: int, b: int) -> float:
        diff = means[a] - means[b]
        return sizes[a] * sizes[b] / (sizes[a] + sizes[b]) * float(diff @ diff)

    while len(members) > 2:
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


def em_gmm(matrix, seed: int = 0) -> GmmResult:
    """Two-component full-covariance Gaussian mixture fitted by EM, warm-started from k-means.

    Every M-step adds `EM_REG` to the covariance diagonals. Iteration stops
    when the log-likelihood improves by less than `EM_TOL`, or after
    `EM_MAX_ITER` steps. Hard assignments take the highest posterior, ties
    breaking to component 0.
    """
    X = _as_matrix(matrix)
    n, d = X.shape
    if too_few_distinct(X):
        raise DegenerateDataError("all rows identical; mixture is undefined")

    start = kmeans(X, seed=seed)
    means = np.empty((2, d))
    covariances = np.empty((2, d, d))
    weights = np.empty(2)
    for j in range(2):
        rows = X[start.assignment == j]
        means[j] = rows.mean(axis=0)
        centered = rows - means[j]
        covariances[j] = centered.T @ centered / rows.shape[0] + EM_REG * np.eye(d)
        weights[j] = rows.shape[0] / n

    log_likelihoods: list[float] = []
    log_resp = None
    for _ in range(EM_MAX_ITER):
        joint = _log_gaussians(X, means, covariances) + np.log(weights)[None, :]
        norm = _logsumexp(joint, axis=1)
        log_resp = joint - norm[:, None]
        ll = float(norm.sum())
        if log_likelihoods and ll - log_likelihoods[-1] < EM_TOL:
            log_likelihoods.append(ll)
            break
        log_likelihoods.append(ll)

        resp = np.exp(log_resp)
        counts = resp.sum(axis=0)
        weights = counts / n
        means = (resp.T @ X) / counts[:, None]
        for j in range(2):
            centered = X - means[j]
            weighted = centered * resp[:, j : j + 1]
            covariances[j] = weighted.T @ centered / counts[j] + EM_REG * np.eye(d)

    posteriors = np.exp(log_resp)
    assignment = np.argmax(posteriors, axis=1)  # first max wins ties -> component 0
    return GmmResult(assignment, posteriors, log_likelihoods)


def pca_project(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Project rows onto the top `PCA_COMPONENTS` principal components of the column covariance.

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
    order = np.argsort(eigvals)[::-1][:PCA_COMPONENTS]
    vecs = eigvecs[:, order]
    for j in range(vecs.shape[1]):
        pivot = np.argmax(np.abs(vecs[:, j]))
        if vecs[pivot, j] < 0:
            vecs[:, j] = -vecs[:, j]
    total = float(eigvals.sum())
    ratio = eigvals[order] / total if total > 0 else np.zeros(len(order))
    return centered @ vecs, ratio
