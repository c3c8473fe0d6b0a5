"""AP feature computation, clustering labels, evaluation and consistency."""
import numpy as np
import pytest

from roomsense.mapping import (
    MappingResult,
    build_feature_matrix,
    compute_ap_features,
    consistency,
    consistency_ccdf,
    evaluate_mapping,
    label_clusters,
    map_classes,
    resolution_sweep,
    sample_grid,
)
from roomsense.records import ApInventory, ApLocation, ClassEvent, DataValidationError, parse_stamp

from conftest import DAY, make_session, record_store


def event(class_id="c1", room="room1", start="10:00", end="11:00"):
    return ClassEvent(class_id, room, parse_stamp(f"{DAY} {start}"), parse_stamp(f"{DAY} {end}"))


def ap_features(store, event, enrolled, resolution):
    """`compute_ap_features` of one class."""
    (series,) = compute_ap_features(store, [event], [enrolled], resolution)
    return series


def map_one(store, event, enrolled, **settings):
    """`map_classes` of one class: (mapping, clustered features)."""
    (mapped,) = map_classes(store, [event], {event.class_id: enrolled}, **settings)
    return mapped


def span_sessions(ap, users, start="10:00", end="11:00", prefix="m"):
    """One whole-window session per user on one AP."""
    return [
        make_session(u, ap, start, end, mac=f"{prefix}{i}") for i, u in enumerate(users)
    ]


class TestSampleTimes:
    def test_one_hour_class_at_10min_gives_5_samples(self):
        _, count = sample_grid(event(), 10)
        assert count == 5  # 10:10 .. 10:50 inclusive

    def test_trimmed_window_empty_errors(self):
        with pytest.raises(DataValidationError):
            sample_grid(event(end="10:20"), 10)

    def test_inclusive_upper_bound(self):
        _, count = sample_grid(event(end="12:00"), 10)
        assert 10 * (count - 1) == 100  # 10:10 .. 11:50


class TestComputeApFeatures:
    def test_single_ap_holds_all_connections(self, store_builder):
        store = record_store(span_sessions("ap1", ["e1", "e2", "e3", "e4", "e5"]))
        names, frac_class, class_frac = ap_features(
            store, event(), frozenset(["e1", "e2", "e3", "e4", "e5"]), 10
        )
        assert names == ["ap1"]
        assert np.allclose(frac_class, 100.0)
        assert np.allclose(class_frac, 100.0)

    def test_class_frac_60_percent(self):
        enrolled = [f"e{i}" for i in range(6)]
        outsiders = [f"b{i}" for i in range(4)]
        store = record_store(
            span_sessions("ap1", enrolled) + span_sessions("ap1", outsiders, prefix="x")
        )
        _, _, class_frac = ap_features(store, event(), frozenset(enrolled), 10)
        assert np.allclose(class_frac[0], 60.0)

    def test_frac_class_split_50_30_20(self):
        e = [f"e{i}" for i in range(10)]
        store = record_store(
            span_sessions("ap1", e[:5])
            + span_sessions("ap2", e[5:8], prefix="n")
            + span_sessions("ap3", e[8:], prefix="o")
        )
        names, frac_class, _ = ap_features(store, event(), frozenset(e), 10)
        assert names == ["ap1", "ap2", "ap3"]
        assert np.allclose(frac_class[0], 50.0)
        assert np.allclose(frac_class[1], 30.0)
        assert np.allclose(frac_class[2], 20.0)

    def test_frac_class_sums_to_100_or_0(self):
        e = ["e1", "e2"]
        store = record_store(
            span_sessions("ap1", e, start="10:00", end="10:30")  # gone by 10:40
            + span_sessions("ap2", ["b1"], prefix="q")
        )
        _, frac_class, _ = ap_features(store, event(), frozenset(e), 10)
        total = frac_class.sum(axis=0)
        assert all(abs(t - 100.0) < 1e-9 or abs(t) < 1e-9 for t in total)
        assert any(abs(t) < 1e-9 for t in total)  # samples after the enrolled left

    def test_ap_without_enrolled_omitted(self):
        store = record_store(
            span_sessions("ap1", ["e1"]) + span_sessions("ap2", ["b1"], prefix="z")
        )
        names, frac_class, class_frac = ap_features(store, event(), frozenset(["e1"]), 10)
        assert names == ["ap1"] and len(frac_class) == len(class_frac) == 1

    def test_class_frac_100_iff_all_enrolled(self):
        store = record_store(
            span_sessions("ap1", ["e1", "e2"]) + span_sessions("ap1", ["b1"], prefix="y")
        )
        _, _, class_frac = ap_features(store, event(), frozenset(["e1", "e2"]), 10)
        assert np.all(class_frac[0] < 100.0)
        assert np.allclose(class_frac[0], 200.0 / 3)


def resample(values, target_len):
    """Both halves of the one feature row of an AP whose two series are `values`."""
    series = np.array([values], dtype=float)
    row = build_feature_matrix(series, series, target_len)[0]
    assert np.array_equal(row[:target_len], row[target_len:])
    return row[:target_len]


class TestResample:
    def test_linear_interpolation(self):
        assert np.allclose(resample([0, 100], 3), [0, 50, 100])

    def test_identity(self):
        vals = [3.0, 1.0, 4.0, 1.0]
        assert np.allclose(resample(vals, 4), vals)

    def test_endpoints_of_normalized_index(self):
        assert np.allclose(resample([10, 30, 50, 70], 2), [10, 70])

    def test_length_one_replicates(self):
        assert np.allclose(resample([42.0], 5), [42.0] * 5)


class TestLabelClusters:
    def _matrix(self, rows):
        return np.array(rows, dtype=float)

    def _mapped(self, assignment, matrix, names):
        label = label_clusters(assignment, matrix)
        return {ap for ap, lab in zip(names, assignment) if lab == label}

    def test_larger_frac_class_mean_wins(self):
        matrix = self._matrix([[30, 30, 90, 90], [0.5, 0.5, 10, 10]])
        assert self._mapped(np.array([0, 1]), matrix, ["a", "b"]) == {"a"}

    def test_tie_breaks_to_class_frac(self):
        matrix = self._matrix([[10, 10, 60, 60], [10, 10, 5, 5]])
        assert self._mapped(np.array([0, 1]), matrix, ["a", "b"]) == {"a"}

    def test_full_tie_smaller_cluster_mapped(self):
        matrix = self._matrix([[10, 10, 50, 50], [10, 10, 50, 50], [10, 10, 50, 50]])
        assert self._mapped(np.array([0, 1, 1]), matrix, ["a", "b", "c"]) == {"a"}

    def test_invariant_under_cluster_id_swap(self):
        rng = np.random.default_rng(0)
        matrix = np.vstack([rng.uniform(20, 40, (3, 8)), rng.uniform(0, 2, (4, 8))])
        names = list("abcdefg")
        assignment = np.array([0, 0, 0, 1, 1, 1, 1])
        swapped = 1 - assignment
        assert self._mapped(assignment, matrix, names) == self._mapped(swapped, matrix, names)


def toy_inventory():
    locations = {f"in{i}": ApLocation("room1", "bldA", 1) for i in range(4)}
    for i in range(60):
        locations[f"out{i}"] = ApLocation(None, "campus", 0)
    return ApInventory(locations)


class TestEvaluateMapping:
    def test_perfect_mapping(self):
        inventory = toy_inventory()
        result = MappingResult("c1", frozenset(f"in{i}" for i in range(4)), frozenset(), {})
        scored = evaluate_mapping([result], inventory, {"c1": event()}, adjacency=False)
        assert scored.tp_rate == 1.0 and scored.tn_rate == 1.0

    def test_75_tp_100_tn(self):
        inventory = toy_inventory()
        result = MappingResult("c1", frozenset(["in0", "in1", "in2"]), frozenset(["in3"]), {})
        scored = evaluate_mapping([result], inventory, {"c1": event()}, adjacency=False)
        assert scored.tp_rate == pytest.approx(0.75)
        assert scored.tn_rate == pytest.approx(1.0)
        assert scored.per_room["room1"] == {"tp": 3, "fn": 1, "tn": 60, "fp": 0}

    def test_unfeatured_inventory_aps_count_as_not_mapped(self):
        inventory = toy_inventory()
        result = MappingResult("c1", frozenset(["in0"]), frozenset(), {})
        scored = evaluate_mapping([result], inventory, {"c1": event()}, adjacency=False)
        assert scored.tp == 1 and scored.fn == 3 and scored.tn == 60

    def test_featured_ap_missing_from_inventory_unevaluable(self):
        inventory = toy_inventory()
        result = MappingResult("c1", frozenset(["ghost"]), frozenset(), {})
        scored = evaluate_mapping([result], inventory, {"c1": event()}, adjacency=False)
        assert scored.unevaluable == ["ghost"]

    def test_adjacency_flag_includes_same_floor_corridor(self):
        locations = {
            "in0": ApLocation("room1", "bldA", 1),
            "cor0": ApLocation(None, "bldA", 1),
            "far0": ApLocation(None, "bldB", 2),
        }
        inventory = ApInventory(locations)
        result = MappingResult("c1", frozenset(["in0", "cor0"]), frozenset(), {})
        with_adj = evaluate_mapping([result], inventory, {"c1": event()}, adjacency=True)
        without = evaluate_mapping([result], inventory, {"c1": event()}, adjacency=False)
        assert with_adj.tp == 2 and with_adj.fp == 0
        assert without.tp == 1 and without.fp == 1


class TestConsistency:
    def _results(self, n_correct, n_total):
        inventory = ApInventory({"in0": ApLocation("room1", "bldA", 1)})
        events = {}
        results = []
        for i in range(n_total):
            cid = f"c{i}"
            room = "room1" if i < n_correct else "room2"
            # mapped in every class: correct for room1 classes, wrong otherwise
            events[cid] = event(class_id=cid, room=room)
            results.append(MappingResult(cid, frozenset(["in0"]), frozenset(), {}))
        # room2 needs a location too
        inventory = ApInventory(
            {"in0": ApLocation("room1", "bldA", 1), "in1": ApLocation("room2", "bldA", 2)}
        )
        return results, inventory, events

    def test_eight_of_ten(self):
        results, inventory, events = self._results(8, 10)
        per_ap = consistency(results, inventory, events, adjacency=False)
        assert per_ap["in0"] == pytest.approx(0.8)

    def test_never_featured_absent(self):
        results, inventory, events = self._results(3, 3)
        per_ap = consistency(results, inventory, events, adjacency=False)
        assert "in1" not in per_ap

    def test_ccdf_starts_at_one_and_monotone(self):
        per_ap = {"a": 0.1, "b": 0.5, "c": 0.9}
        ccdf = consistency_ccdf(per_ap)
        assert ccdf[0] == (0.0, 1.0)
        values = [f for _, f in ccdf]
        assert all(x >= y for x, y in zip(values, values[1:]))


class TestMapClassAps:
    def _store_two_groups(self):
        e = [f"e{i}" for i in range(8)]
        sessions = (
            span_sessions("in0", e[:4])
            + span_sessions("in1", e[4:7], prefix="n")
            + span_sessions("far0", e[7:], start="10:00", end="10:21", prefix="f")
            + span_sessions("far0", [f"b{i}" for i in range(9)], prefix="bb")
        )
        return record_store(sessions), frozenset(e)

    @pytest.mark.parametrize("algorithm", ["kmeans", "hierarchical", "em-gmm"])
    def test_algorithms_find_the_room_aps(self, algorithm):
        store, enrolled = self._store_two_groups()
        result, series = map_one(store, event(), enrolled, algorithm=algorithm, seed=1)
        assert result.mapped == {"in0", "in1"}
        assert result.not_mapped == {"far0"}
        assert set(result.scores) == {"in0", "in1", "far0"}

    def test_deterministic_result_bitwise(self):
        store, enrolled = self._store_two_groups()
        a, _ = map_one(store, event(), enrolled, seed=42)
        b, _ = map_one(store, event(), enrolled, seed=42)
        assert a == b

    def test_em_gmm_scores_are_posteriors(self):
        store, enrolled = self._store_two_groups()
        result, _ = map_one(store, event(), enrolled, algorithm="em-gmm", seed=1)
        for ap, score in result.scores.items():
            assert 0.0 <= score <= 1.0
            assert (score > 0.5) == (ap in result.mapped)

    def test_single_featured_ap_maps_alone(self):
        store = record_store(span_sessions("only", ["e1", "e2"]))
        result, _ = map_one(store, event(), frozenset(["e1", "e2"]))
        assert result.mapped == {"only"} and result.not_mapped == frozenset()

    @pytest.mark.parametrize("algorithm", ["kmeans", "hierarchical", "em-gmm"])
    def test_identical_feature_rows_map_together(self, algorithm):
        # each AP holds one of the two enrolled users all along: 50% / 100% at every sample
        store = record_store(span_sessions("a1", ["e1"]) + span_sessions("a2", ["e2"], prefix="n"))
        result, _ = map_one(store, event(), frozenset(["e1", "e2"]), algorithm=algorithm)
        assert result.mapped == {"a1", "a2"} and result.not_mapped == frozenset()
        assert result.scores == {"a1": 0.0, "a2": 0.0}

    def test_no_featured_aps_empty_mapping(self):
        store = record_store(span_sessions("ap1", ["b1"]))
        result, (matrix, ap_names) = map_one(store, event(), frozenset(["enrolled-absent"]))
        assert result.mapped == frozenset() and ap_names == [] and matrix.size == 0


class TestResolutionSweep:
    def _corpus(self):
        e = [f"e{i}" for i in range(6)]
        sessions = (
            span_sessions("in0", e[:5], start="10:00", end="12:00")
            + span_sessions("far0", e[5:], start="10:00", end="10:25", prefix="f")
            + span_sessions("far0", [f"b{i}" for i in range(8)], start="10:00", end="12:00", prefix="x")
        )
        store = record_store(sessions)
        ev = event(end="12:00")
        inventory = ApInventory(
            {"in0": ApLocation("room1", "bldA", 1), "far0": ApLocation(None, "campus", 0)}
        )
        return store, [ev], {"c1": frozenset(e)}, inventory

    def test_single_resolution_one_row(self):
        store, events, rosters, inventory = self._corpus()
        rows = resolution_sweep(store, events, rosters, inventory, resolutions=(10,))
        assert len(rows) == 1 and not rows[0]["skipped"]
        assert rows[0]["tp_rate"] == 1.0

    def test_too_coarse_resolution_skipped(self):
        store, events, rosters, inventory = self._corpus()
        rows = resolution_sweep(store, events, rosters, inventory, resolutions=(120,))
        assert rows[0]["skipped"] is True


class TestFeatureInvariantsOnSyntheticCorpus:
    def test_bounds_and_normalization(self, corpus42):
        for event in corpus42.events[:12]:
            names, frac_class, class_frac = ap_features(
                corpus42.store, event, corpus42.rosters[event.class_id], 10
            )
            assert names, event.class_id
            assert np.all(frac_class >= 0) and np.all(frac_class <= 100 + 1e-9)
            assert np.all(class_frac >= 0) and np.all(class_frac <= 100 + 1e-9)
            for total in frac_class.sum(axis=0):
                assert abs(total - 100.0) < 1e-9 or abs(total) < 1e-9
