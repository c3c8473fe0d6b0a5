"""Map APs to classrooms from two temporal connection-share features.

For one class, every AP gets a time series of two percentages sampled over
the trimmed class window (first and last 10 minutes dropped to avoid the
entry/exit flux):

- share of all enrolled-student connections captured by this AP, and
- share of this AP's connections that come from enrolled students.

The per-AP series are resampled to a fixed length, concatenated, and split
into two clusters; the cluster dominated by enrolled traffic is the mapped
set for the class.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import clustering
from .records import ApInventory, ClassEvent, DataValidationError, DegenerateDataError, to_minutes
from .store import SessionStore

TRIM_MINUTES = 10
DEFAULT_RESOLUTION = 10
DEFAULT_RESAMPLE_LEN = 8
MAX_RESAMPLE_LEN = 1440  # a sample per minute of a day; no class series is longer
SWEEP_RESOLUTIONS = (1, 2, 5, 10, 15, 30, 45, 60)

ALGORITHMS = ("kmeans", "hierarchical", "em-gmm")


@dataclass
class ApFeatureSeries:
    """Per-AP temporal features for one class at a fixed sampling resolution."""

    ap_name: str
    resolution: int
    times: np.ndarray  # minutes since epoch
    frac_class: np.ndarray  # % of all enrolled connections captured, per sample
    class_frac: np.ndarray  # % of this AP's connections that are enrolled, per sample


@dataclass
class MappingResult:
    """Two-way split of the featured APs for one class."""

    class_id: str
    mapped: frozenset[str]
    not_mapped: frozenset[str]
    algorithm: str
    scores: dict[str, float]

    @property
    def featured(self) -> frozenset[str]:
        return self.mapped | self.not_mapped


def sample_times(event: ClassEvent, resolution: int) -> np.ndarray:
    """Sample instants: start+10min stepping by `resolution` up to end-10min."""
    if resolution <= 0:
        raise ValueError("resolution must be positive minutes")
    lo = to_minutes(event.start) + TRIM_MINUTES
    hi = to_minutes(event.end) - TRIM_MINUTES
    if hi <= lo:
        raise DataValidationError(
            f"class {event.class_id} too short ({event.duration_minutes} min) "
            "for the 10-minute trim"
        )
    return np.arange(lo, hi + 1, resolution, dtype=np.int64)


def compute_ap_features(
    store: SessionStore, event: ClassEvent, enrolled: frozenset[str], resolution: int
) -> list[ApFeatureSeries]:
    """Feature series for every AP with enrolled activity during the class, by AP name.

    APs that never hold an enrolled connection at any sample instant carry
    identically-zero features and are omitted (implicitly not mapped).
    """
    times = sample_times(event, resolution)
    totals, members = store.user_counts_at(times, store.user_ids(enrolled))
    featured = np.flatnonzero(members.any(axis=1))
    totals, members = totals[featured], members[featured]

    enrolled_sum = members.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        frac_class = np.where(enrolled_sum > 0, 100.0 * members / enrolled_sum, 0.0)
        class_frac = np.where(totals > 0, 100.0 * members / totals, 0.0)

    ap_names = store.table.ap_names
    return [
        ApFeatureSeries(ap_names[code], resolution, times, frac_class[i], class_frac[i])
        for i, code in enumerate(featured.tolist())
    ]


def resample_series(values, target_len: int) -> np.ndarray:
    """Linear interpolation onto `target_len` points over normalized index [0, 1]."""
    vals = np.asarray(values, dtype=float)
    if vals.size == 0:
        raise ValueError("cannot resample an empty series")
    if vals.size == 1:
        return np.full(target_len, vals[0])
    src = np.linspace(0.0, 1.0, vals.size)
    dst = np.linspace(0.0, 1.0, target_len)
    return np.interp(dst, src, vals)


def build_feature_matrix(
    series: list[ApFeatureSeries], resample_len: int = DEFAULT_RESAMPLE_LEN
) -> tuple[np.ndarray, list[str]]:
    """Rows sorted by AP name; columns = resampled fracClass ++ resampled classFrac."""
    ordered = sorted(series, key=lambda s: s.ap_name)
    rows = [
        np.concatenate(
            [resample_series(s.frac_class, resample_len), resample_series(s.class_frac, resample_len)]
        )
        for s in ordered
    ]
    return np.array(rows), [s.ap_name for s in ordered]


def label_clusters(
    assignment: np.ndarray,
    matrix: np.ndarray,
    ap_names: list[str],
    class_id: str,
    algorithm: str,
    scores: dict[str, float] | None = None,
) -> MappingResult:
    """Name the two clusters: the one dominating enrolled traffic is `mapped`.

    The mapped cluster is the one with the larger mean over the fracClass half
    of the feature vector; ties fall back to the classFrac half, then to the
    smaller cluster. Invariant under swapping the cluster ids.
    """
    half = matrix.shape[1] // 2
    labels = sorted(set(int(a) for a in assignment))
    if len(labels) != 2:
        raise ValueError("label_clusters expects exactly 2 clusters")

    def stats(lab):
        rows = matrix[assignment == lab]
        return rows[:, :half].mean(), rows[:, half:].mean(), rows.shape[0]

    a, b = labels
    fa, ca, na = stats(a)
    fb, cb, nb = stats(b)
    if fa != fb:
        mapped_label = a if fa > fb else b
    elif ca != cb:
        mapped_label = a if ca > cb else b
    else:
        mapped_label = a if na <= nb else b

    mapped = frozenset(ap for ap, lab in zip(ap_names, assignment) if lab == mapped_label)
    not_mapped = frozenset(ap_names) - mapped
    return MappingResult(class_id, mapped, not_mapped, algorithm, scores or {})


def _margin_scores(matrix, assignment, ap_names, mapped: frozenset[str]) -> dict[str, float]:
    """Distance margin to the rival centroid; positive means more mapped-like."""
    centroids = {lab: matrix[assignment == lab].mean(axis=0) for lab in set(assignment.tolist())}
    mapped_lab = next(
        lab for ap, lab in zip(ap_names, assignment) if ap in mapped
    ) if mapped else None
    scores = {}
    for ap, row in zip(ap_names, matrix):
        dists = {lab: float(np.linalg.norm(row - c)) for lab, c in centroids.items()}
        if mapped_lab is None:
            scores[ap] = 0.0
        else:
            other = [d for lab, d in dists.items() if lab != mapped_lab]
            scores[ap] = min(other) - dists[mapped_lab]
    return scores


def map_class_aps(
    store: SessionStore,
    event: ClassEvent,
    enrolled: frozenset[str],
    resolution: int = DEFAULT_RESOLUTION,
    resample_len: int = DEFAULT_RESAMPLE_LEN,
    algorithm: str = "kmeans",
    seed: int = 0,
) -> tuple[MappingResult, tuple[np.ndarray, list[str]]]:
    """Full per-class mapping: features, clustering, cluster naming.

    Returns the mapping and the clustered (feature matrix, AP names) of
    `build_feature_matrix`. Degenerate classes are handled conservatively:
    zero featured APs give an empty mapping, a single featured AP (which by
    definition holds all enrolled connections) maps alone, and identical
    feature rows map together.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    series = compute_ap_features(store, event, enrolled, resolution)
    if not series:
        empty = MappingResult(event.class_id, frozenset(), frozenset(), algorithm, {})
        return empty, (np.empty((0, 2 * resample_len)), [])
    features = matrix, ap_names = build_feature_matrix(series, resample_len)
    if len(ap_names) == 1:
        result = MappingResult(
            event.class_id, frozenset(ap_names), frozenset(), algorithm, {ap_names[0]: 0.0}
        )
        return result, features

    try:
        if algorithm == "kmeans":
            fit = clustering.kmeans(matrix, k=2, seed=seed)
            assignment = fit.assignment
            posterior = None
        elif algorithm == "hierarchical":
            assignment = clustering.hierarchical(matrix, k=2)
            posterior = None
        else:
            fit = clustering.em_gmm(matrix, k=2, seed=seed)
            assignment = fit.assignment
            posterior = fit.posteriors
    except DegenerateDataError:
        # indistinguishable featured APs: all share enrolled traffic equally
        result = MappingResult(
            event.class_id,
            frozenset(ap_names),
            frozenset(),
            algorithm,
            {ap: 0.0 for ap in ap_names},
        )
        return result, features

    result = label_clusters(assignment, matrix, ap_names, event.class_id, algorithm)
    if posterior is not None:
        mapped_lab = next(
            lab for ap, lab in zip(ap_names, assignment) if ap in result.mapped
        )
        scores = {ap: float(posterior[i, mapped_lab]) for i, ap in enumerate(ap_names)}
    else:
        scores = _margin_scores(matrix, assignment, ap_names, result.mapped)
    result.scores.update(scores)
    return result, features


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


def consistency_ccdf(per_ap: dict[str, float], step: float = 0.05) -> list[tuple[float, float]]:
    """(threshold, fraction of APs with consistency >= threshold) pairs."""
    values = np.array(sorted(per_ap.values()))
    thresholds = np.round(np.arange(0.0, 1.0 + step / 2, step), 10)
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
        known = mapped.get(resolution, {})
        results = [
            known[e.class_id]
            if e.class_id in known
            else map_class_aps(
                store,
                e,
                rosters[e.class_id],
                resolution=resolution,
                resample_len=resample_len,
                algorithm=algorithm,
                seed=seed,
            )[0]
            for e in eligible
        ]
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
