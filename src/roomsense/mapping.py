"""Map APs to classrooms from two temporal connection-share features.

For one class, every AP gets a time series of two percentages sampled over
the trimmed class window (first and last 10 minutes dropped to avoid the
entry/exit flux):

- share of all enrolled-student connections captured by this AP, and
- share of this AP's connections that come from enrolled students.

Both series of every AP are resampled to a fixed length and concatenated
into one feature row; the rows are split into two clusters, and the cluster
dominated by enrolled traffic is the mapped set for the class.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import clustering
from .records import ApInventory, ClassEvent, DataValidationError, to_minutes
from .store import SessionStore, batches

TRIM_MINUTES = 10
DEFAULT_RESOLUTION = 10
DEFAULT_RESAMPLE_LEN = 8
MAX_RESAMPLE_LEN = 1440  # a sample per minute of a day; no class series is longer
SWEEP_RESOLUTIONS = (1, 2, 5, 10, 15, 30, 45, 60)
CCDF_STEP = 0.05

ALGORITHMS = ("kmeans", "hierarchical", "em-gmm")


@dataclass
class MappingResult:
    """Two-way split of the featured APs for one class."""

    class_id: str
    mapped: frozenset[str]
    not_mapped: frozenset[str]
    scores: dict[str, float]

    @property
    def featured(self) -> frozenset[str]:
        return self.mapped | self.not_mapped


def sample_grid(event: ClassEvent, resolution: int) -> tuple[int, int]:
    """(first, count) of the sample instants: start+10min stepping by `resolution` up to end-10min."""
    if resolution <= 0:
        raise ValueError("resolution must be positive minutes")
    lo = to_minutes(event.start) + TRIM_MINUTES
    hi = to_minutes(event.end) - TRIM_MINUTES
    if hi <= lo:
        raise DataValidationError(
            f"class {event.class_id} too short ({event.duration_minutes} min) "
            "for the 10-minute trim"
        )
    return lo, (hi - lo) // resolution + 1


def compute_ap_features(
    store: SessionStore, events: list[ClassEvent], rosters: list[frozenset[str]], resolution: int
) -> list[tuple[list[str], np.ndarray, np.ndarray]]:
    """Per class, (AP names, fracClass, classFrac) of every AP with enrolled activity during it.

    `rosters[i]` is the enrolled users of `events[i]`; one count query serves
    every class. The two share matrices hold one row per AP, in name order,
    and one column per sample instant. APs that never hold an enrolled
    connection at any sample instant carry identically-zero features and are
    omitted (implicitly not mapped).
    """
    grids = [sample_grid(event, resolution) for event in events]
    counts = store.user_counts_at(resolution, grids, [store.user_ids(enrolled) for enrolled in rosters])
    ap_names = store.table.ap_names  # code order is name order
    series = []
    for totals, members in counts:
        featured = np.flatnonzero(members.any(axis=1))
        totals, members = totals[featured], members[featured]
        enrolled_sum = members.sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            frac_class = np.where(enrolled_sum > 0, 100.0 * members / enrolled_sum, 0.0)
            class_frac = np.where(totals > 0, 100.0 * members / totals, 0.0)
        series.append(([ap_names[code] for code in featured.tolist()], frac_class, class_frac))
    return series


def build_feature_matrix(
    frac_class: np.ndarray, class_frac: np.ndarray, resample_len: int = DEFAULT_RESAMPLE_LEN
) -> np.ndarray:
    """One row per AP: its fracClass ++ classFrac, each resampled to `resample_len` points.

    Each row is linearly interpolated from its samples, spread evenly over
    [0, 1], onto `resample_len` points spread the same way; a single sample
    is repeated.
    """
    both = _resample(np.concatenate([frac_class, class_frac]), resample_len)
    return np.hstack([both[: len(frac_class)], both[len(frac_class) :]])


def _resample(series: np.ndarray, resample_len: int) -> np.ndarray:
    """`np.interp` of every row of `series` onto `resample_len` points, all rows at once.

    The rows' samples lie at `linspace(0, 1, n)`. As in `np.interp`, a point
    on a sample takes the sample's value, and any other point takes
    `slope * (point - left sample) + left value` of the samples around it.
    The values must be finite.
    """
    n = series.shape[1]
    if n == 1:
        return np.repeat(series, resample_len, axis=1)
    src = np.linspace(0.0, 1.0, n)
    dst = np.linspace(0.0, 1.0, resample_len)
    at = np.searchsorted(src, dst, side="right") - 1  # the last sample at or before each point
    left = np.minimum(at, n - 2)  # the left sample of the gap a point between samples lies in
    value = series[:, left]
    slope = (series[:, left + 1] - value) / (src[left + 1] - src[left])
    return np.where(src[at] == dst, series[:, at], slope * (dst - src[left]) + value)


def label_clusters(assignment: np.ndarray, matrix: np.ndarray) -> int:
    """The id of the cluster dominating enrolled traffic, whose APs are mapped.

    The mapped cluster is the one with the larger mean over the fracClass half
    of the feature vector; ties fall back to the classFrac half, then to the
    smaller cluster. Invariant under swapping the cluster ids.
    """
    half = matrix.shape[1] // 2
    labels = sorted(set(assignment.tolist()))
    if len(labels) != 2:
        raise ValueError("label_clusters expects exactly 2 clusters")

    def stats(lab):
        rows = matrix[assignment == lab]
        return rows[:, :half].mean(), rows[:, half:].mean(), rows.shape[0]

    a, b = labels
    fa, ca, na = stats(a)
    fb, cb, nb = stats(b)
    if fa != fb:
        return a if fa > fb else b
    if ca != cb:
        return a if ca > cb else b
    return a if na <= nb else b


def _margin_scores(matrix: np.ndarray, is_mapped: np.ndarray) -> list[float]:
    """Distance margin to the rival centroid; positive means more mapped-like.

    A row's distance to a centroid is `sqrt(d @ d)` of their difference `d`,
    the dot product `np.linalg.norm` takes; one batched matmul takes it for
    every row.
    """

    def distances(centroid: np.ndarray) -> np.ndarray:
        d = matrix - centroid
        return np.sqrt(d[:, None, :] @ d[:, :, None])[:, 0, 0]

    mapped = distances(matrix[is_mapped].mean(axis=0))
    return (distances(matrix[~is_mapped].mean(axis=0)) - mapped).tolist()


def map_class_aps(
    class_id: str,
    series: tuple[list[str], np.ndarray, np.ndarray],
    resample_len: int = DEFAULT_RESAMPLE_LEN,
    algorithm: str = "kmeans",
    seed: int = 0,
) -> tuple[MappingResult, tuple[np.ndarray, list[str]]]:
    """One class's mapping from its `compute_ap_features` series: features, clustering, cluster naming.

    Returns the mapping and the clustered feature matrix of
    `build_feature_matrix` with its AP names. Degenerate classes are decided
    here, the same way under every algorithm: zero featured APs give an empty
    mapping, and a feature matrix with fewer than two distinct rows (one
    featured AP, or APs that share enrolled traffic alike) maps every featured
    AP with score 0.0.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    ap_names, frac_class, class_frac = series
    if not ap_names:
        empty = MappingResult(class_id, frozenset(), frozenset(), {})
        return empty, (np.empty((0, 2 * resample_len)), [])
    matrix = build_feature_matrix(frac_class, class_frac, resample_len)
    features = matrix, ap_names
    if clustering.too_few_distinct(matrix):
        result = MappingResult(
            class_id, frozenset(ap_names), frozenset(), dict.fromkeys(ap_names, 0.0)
        )
        return result, features

    if algorithm == "kmeans":
        assignment = clustering.kmeans(matrix, seed=seed).assignment
        posterior = None
    elif algorithm == "hierarchical":
        assignment = clustering.hierarchical(matrix)
        posterior = None
    else:
        fit = clustering.em_gmm(matrix, seed=seed)
        assignment = fit.assignment
        posterior = fit.posteriors

    label = label_clusters(assignment, matrix)
    is_mapped = assignment == label
    if posterior is not None:
        scores = posterior[:, label].tolist()
    else:
        scores = _margin_scores(matrix, is_mapped)
    result = MappingResult(
        class_id,
        frozenset(ap for ap, m in zip(ap_names, is_mapped) if m),
        frozenset(ap for ap, m in zip(ap_names, is_mapped) if not m),
        dict(zip(ap_names, scores)),
    )
    return result, features


def map_classes(
    store: SessionStore,
    events: list[ClassEvent],
    rosters: dict[str, frozenset[str]],
    resolution: int = DEFAULT_RESOLUTION,
    resample_len: int = DEFAULT_RESAMPLE_LEN,
    algorithm: str = "kmeans",
    seed: int = 0,
) -> Iterator[tuple[MappingResult, tuple[np.ndarray, list[str]]]]:
    """`map_class_aps` of each event, in order; the counts are queried
    `QUERY_BATCH` classes at a time, and each class is clustered alone."""
    for batch in batches(events):
        series = compute_ap_features(store, batch, [rosters[e.class_id] for e in batch], resolution)
        for event, one in zip(batch, series):
            yield map_class_aps(event.class_id, one, resample_len, algorithm, seed)


@dataclass
class MappingEvaluation:
    """Confusion of mapped/not-mapped decisions against the AP inventory."""

    tp: int
    fn: int
    tn: int
    fp: int
    per_room: dict[str, dict[str, int]]
    unevaluable: list[str]

    @property
    def tp_rate(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def tn_rate(self) -> float:
        return self.tn / (self.tn + self.fp) if self.tn + self.fp else 0.0


def evaluate_mapping(
    results: list[MappingResult],
    inventory: ApInventory,
    events_by_id: dict[str, ClassEvent],
    adjacency: bool = True,
) -> MappingEvaluation:
    """Score mapping decisions for every inventory AP across all classes.

    Positive class: the AP sits in the class's room, or (with `adjacency` on)
    in a corridor on the same building+floor. Inventory APs never featured
    count as not-mapped decisions. Featured APs absent from the inventory are
    reported as unevaluable.
    """
    per_room: dict[str, dict[str, int]] = {}
    unevaluable: set[str] = set()
    all_aps = list(inventory)
    for result in results:
        event = events_by_id[result.class_id]
        positives = inventory.positives_for_room(event.room_id, adjacency=adjacency)
        unevaluable.update(ap for ap in result.featured if ap not in inventory)
        room = per_room.setdefault(event.room_id, {"tp": 0, "fn": 0, "tn": 0, "fp": 0})
        for ap in all_aps:
            is_mapped = ap in result.mapped
            if ap in positives:
                key = "tp" if is_mapped else "fn"
            else:
                key = "fp" if is_mapped else "tn"
            room[key] += 1
    tp = sum(r["tp"] for r in per_room.values())
    fn = sum(r["fn"] for r in per_room.values())
    tn = sum(r["tn"] for r in per_room.values())
    fp = sum(r["fp"] for r in per_room.values())
    return MappingEvaluation(tp, fn, tn, fp, per_room, sorted(unevaluable))


def consistency(
    results: list[MappingResult],
    inventory: ApInventory,
    events_by_id: dict[str, ClassEvent],
    adjacency: bool = True,
) -> dict[str, float]:
    """Per-AP fraction of featured classes where its mapping matches ground truth."""
    correct: dict[str, int] = {}
    seen: dict[str, int] = {}
    for result in results:
        event = events_by_id[result.class_id]
        positives = inventory.positives_for_room(event.room_id, adjacency=adjacency)
        for ap in result.featured:
            if ap not in inventory:
                continue
            seen[ap] = seen.get(ap, 0) + 1
            if (ap in result.mapped) == (ap in positives):
                correct[ap] = correct.get(ap, 0) + 1
    return {ap: correct.get(ap, 0) / seen[ap] for ap in sorted(seen)}


def consistency_ccdf(per_ap: dict[str, float]) -> list[tuple[float, float]]:
    """(threshold, fraction of APs with consistency >= threshold) pairs, every `CCDF_STEP`."""
    values = np.array(sorted(per_ap.values()))
    thresholds = np.round(np.arange(0.0, 1.0 + CCDF_STEP / 2, CCDF_STEP), 10)
    if values.size == 0:
        return [(float(t), 0.0) for t in thresholds]
    return [(float(t), float(np.mean(values >= t))) for t in thresholds]


def resolution_sweep(
    store: SessionStore,
    events: list[ClassEvent],
    rosters: dict[str, frozenset[str]],
    inventory: ApInventory,
    resolutions=SWEEP_RESOLUTIONS,
    resample_len: int = DEFAULT_RESAMPLE_LEN,
    algorithm: str = "kmeans",
    seed: int = 0,
    adjacency: bool = True,
    mapped: dict[int, dict[str, MappingResult]] | None = None,
) -> list[dict]:
    """TP/TN accuracy per sampling resolution.

    At each resolution only classes whose trimmed window yields at least two
    samples take part; a resolution no class can serve is marked skipped.
    `mapped` holds results already computed with the same settings, by
    resolution and class id; those classes are not mapped again.
    """
    mapped = mapped or {}
    events_by_id = {e.class_id: e for e in events}
    rows = []
    for resolution in resolutions:
        eligible = [
            e
            for e in events
            if e.class_id in rosters and e.duration_minutes >= 2 * TRIM_MINUTES + resolution
        ]
        if not eligible:
            rows.append({"resolution": resolution, "skipped": True})
            continue
        known = dict(mapped.get(resolution, {}))
        fresh = [e for e in eligible if e.class_id not in known]
        for event, (result, _) in zip(
            fresh,
            map_classes(store, fresh, rosters, resolution, resample_len, algorithm, seed),
        ):
            known[event.class_id] = result
        results = [known[e.class_id] for e in eligible]
        scored = evaluate_mapping(results, inventory, events_by_id, adjacency=adjacency)
        rows.append(
            {
                "resolution": resolution,
                "skipped": False,
                "classes": len(eligible),
                "tp_rate": scored.tp_rate,
                "tn_rate": scored.tn_rate,
            }
        )
    return rows
