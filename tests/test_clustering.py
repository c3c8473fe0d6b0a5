"""Clustering algorithm oracles: brute-force SSE, hand-traced merges, EM guarantees."""
import numpy as np
import pytest

from roomsense.clustering import em_gmm, hierarchical, kmeans, pca_project
from roomsense.records import DegenerateDataError


def best_two_partition_sse(X: np.ndarray) -> float:
    """Exhaustive optimum over all 2-partitions; independent of Lloyd's algorithm."""
    n = len(X)
    best = np.inf
    for mask in range(1, 1 << (n - 1)):  # point n-1 pinned to group 0: each split once
        g1 = [i for i in range(n) if (mask >> i) & 1]
        g0 = [i for i in range(n) if not (mask >> i) & 1]
        sse = 0.0
        for group in (g0, g1):
            pts = X[group]
            sse += float(((pts - pts.mean(axis=0)) ** 2).sum())
        best = min(best, sse)
    return best


def cluster_means(X: np.ndarray, assignment: np.ndarray) -> np.ndarray:
    """The centroid of each of the two clusters of `assignment`."""
    return np.array([X[assignment == j].mean(axis=0) for j in (0, 1)])


def assignment_sse(X: np.ndarray, assignment: np.ndarray) -> float:
    """Squared distance of every row to the mean of its cluster, summed."""
    return float(((X - cluster_means(X, assignment)[assignment]) ** 2).sum())


SMALL_FIXTURES = [
    np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 10.0], [10.0, 11.0]]),
    np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]]),
    np.array([[0, 0], [1, 0], [0, 1], [8, 8], [9, 8], [8, 9], [9, 9]], dtype=float),
]
# planted two-group fixtures with jitter, up to 8 points
_rng = np.random.default_rng(1234)
for _n0, _n1, _gap in ((2, 3, 6.0), (4, 4, 8.0), (3, 5, 7.0), (2, 6, 9.0)):
    group0 = _rng.normal(0.0, 0.8, size=(_n0, 2))
    group1 = _rng.normal(_gap, 0.8, size=(_n1, 2))
    SMALL_FIXTURES.append(np.round(np.vstack([group0, group1]), 2))


class TestKMeans:
    def test_separable_pairs(self):
        X = SMALL_FIXTURES[0]
        fit = kmeans(X, seed=0)
        assert fit.assignment[0] == fit.assignment[1]
        assert fit.assignment[2] == fit.assignment[3]
        assert fit.assignment[0] != fit.assignment[2]

    def test_identical_rows_error(self):
        with pytest.raises(DegenerateDataError):
            kmeans(np.ones((4, 3)), seed=0)

    @pytest.mark.parametrize("idx", range(len(SMALL_FIXTURES)))
    @pytest.mark.parametrize("seed", [0, 3, 17])
    def test_sse_matches_bruteforce_optimum(self, idx, seed):
        X = SMALL_FIXTURES[idx]
        fit = kmeans(X, seed=seed)
        sse = assignment_sse(X, fit.assignment)
        assert sse == pytest.approx(best_two_partition_sse(X), rel=1e-9, abs=1e-9)

    def test_sse_nonincreasing_and_fixed_point(self):
        rng = np.random.default_rng(5)
        X = np.vstack([rng.normal(0, 1, (12, 3)), rng.normal(6, 1, (12, 3))])
        fit = kmeans(X, seed=11)
        diffs = np.diff(fit.sse_history)
        assert np.all(diffs <= 1e-9)
        # one more Lloyd step changes nothing
        d2 = ((X[:, None, :] - cluster_means(X, fit.assignment)[None]) ** 2).sum(axis=2)
        assert np.array_equal(np.argmin(d2, axis=1), fit.assignment)

    def test_deterministic_under_seed(self):
        X = SMALL_FIXTURES[2]
        a = kmeans(X, seed=9)
        b = kmeans(X, seed=9)
        assert np.array_equal(a.assignment, b.assignment)
        assert (a.n_iter, a.sse_history) == (b.n_iter, b.sse_history)


class TestHierarchical:
    def test_two_far_pairs(self):
        X = np.array([[0.0, 0], [0.5, 0], [50, 0], [50.5, 0]])
        labels = hierarchical(X)
        assert labels[0] == labels[1] and labels[2] == labels[3] and labels[0] != labels[2]

    def test_two_rows_singletons(self):
        labels = hierarchical(np.array([[0.0], [5.0]]))
        assert sorted(labels.tolist()) == [0, 1]

    def test_too_few_rows_error(self):
        with pytest.raises(DegenerateDataError):
            hierarchical(np.array([[1.0]]))

    def test_five_point_hand_trace(self):
        # points 0, 0.5, 2, 9, 10 on a line. Ward costs (size-weighted squared
        # distance): first merge {0,0.5} at 0.125, then {9,10} at 0.5, then
        # {0,0.5}+{2} at 2*(2-0.25)^2/3 = 2.042 < {9,10} joins. Final split:
        # {0, 0.5, 2} vs {9, 10}.
        X = np.array([[0.0], [0.5], [2.0], [9.0], [10.0]])
        labels = hierarchical(X)
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4]
        assert labels[0] != labels[3]

    def test_planted_blobs_reproduced_exactly(self):
        rng = np.random.default_rng(21)
        a = rng.normal(0, 1, (10, 4))
        b = rng.normal(30, 1, (9, 4))
        X = np.vstack([a, b])
        order = rng.permutation(len(X))
        labels = hierarchical(X[order])
        truth = (order >= 10).astype(int)
        agree = (labels == truth).mean()
        assert agree in (0.0, 1.0)  # label names are arbitrary


class TestEmGmm:
    def test_separated_blobs_confident_posteriors(self):
        rng = np.random.default_rng(3)
        a = rng.normal(0, 0.5, (15, 2))
        b = rng.normal(20, 0.5, (15, 2))  # separation 20x the spread
        X = np.vstack([a, b])
        fit = em_gmm(X, seed=1)
        own = fit.posteriors[np.arange(len(X)), fit.assignment]
        assert np.all(own >= 0.99)
        assert len(set(fit.assignment[:15].tolist())) == 1
        assert len(set(fit.assignment[15:].tolist())) == 1

    def test_symmetric_two_point_split(self):
        X = np.array([[0.0], [10.0]])
        fit = em_gmm(X, seed=0)
        assert sorted(fit.assignment.tolist()) == [0, 1]
        assert np.all(fit.posteriors.max(axis=1) > 0.999)

    @pytest.mark.parametrize("seed", range(20))
    def test_loglik_nondecreasing_20_fixtures(self, seed):
        rng = np.random.default_rng(1000 + seed)
        X = np.vstack(
            [
                rng.normal(0, 1, (rng.integers(8, 20), 2)),
                rng.normal(rng.uniform(3, 8), 1.5, (rng.integers(8, 20), 2)),
            ]
        )
        fit = em_gmm(X, seed=seed)
        diffs = np.diff(fit.log_likelihoods)
        assert np.all(diffs >= -1e-9)

    def test_posteriors_sum_to_one(self):
        rng = np.random.default_rng(8)
        X = rng.normal(0, 2, (25, 3))
        fit = em_gmm(X, seed=4)
        assert np.allclose(fit.posteriors.sum(axis=1), 1.0, atol=1e-9)

    def test_identical_rows_error(self):
        with pytest.raises(DegenerateDataError):
            em_gmm(np.ones((5, 2)), seed=0)


class TestPca:
    def test_centered_2d_preserves_distances(self):
        rng = np.random.default_rng(2)
        X = rng.normal(0, 1, (10, 2))
        X -= X.mean(axis=0)
        coords, _ = pca_project(X)
        orig = np.linalg.norm(X[:, None] - X[None, :], axis=2)
        proj = np.linalg.norm(coords[:, None] - coords[None, :], axis=2)
        assert np.allclose(orig, proj, atol=1e-9)

    def test_rank_one_second_component_zero(self):
        direction = np.array([1.0, 2.0, 3.0])
        X = np.outer(np.arange(6, dtype=float), direction)
        coords, _ = pca_project(X)
        assert np.all(np.abs(coords[:, 1]) < 1e-9)

    def test_explained_variance_against_independent_eigensolver(self):
        rng = np.random.default_rng(7)
        X = rng.normal(0, 1, (12, 4)) @ np.diag([4.0, 2.0, 1.0, 0.5])
        _, ratio = pca_project(X)
        # independent path: singular values of the centered data matrix
        centered = X - X.mean(axis=0)
        svals = np.linalg.svd(centered, compute_uv=False)
        eig = svals**2 / (len(X) - 1)
        expected = eig[:2] / eig.sum()
        assert np.allclose(ratio, expected, atol=1e-12)

    def test_row_reorder_invariance(self):
        rng = np.random.default_rng(9)
        X = rng.normal(0, 1, (9, 5))
        coords, _ = pca_project(X)
        perm = rng.permutation(len(X))
        coords_perm, _ = pca_project(X[perm])
        assert np.allclose(coords[perm], coords_perm, atol=1e-9)
