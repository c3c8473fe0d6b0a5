"""Acceptance gate: ten criteria, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py -v` to see the lines for passing
criteria too. Criteria 3-5 and 9-10 run against the shared seed-42 default
synthetic corpus; the rest are fixture-exact checks.
"""
import filecmp
import json
import math
import time

import numpy as np
import pytest

from roomsense.clustering import em_gmm, hierarchical, kmeans
from roomsense.mapping import resolution_sweep
from roomsense.metrics import smape
from roomsense.model import fit_calibration, predict_lda, train_lda
from roomsense.pipeline import run_pipeline
from roomsense.records import BYSTANDER, OCCUPANT, ClassEvent, day_start, parse_stamp
from roomsense.userfeatures import ClassFeatures

from conftest import DAY, pipeline_config
from test_clustering import SMALL_FIXTURES, assignment_sse, best_two_partition_sse
from test_model import make_corpus
from test_userfeatures import build_four_user_day, user_features


def check(criterion: int, description: str, passed: bool, elapsed: float, budget: float):
    in_time = elapsed <= budget
    status = "PASS" if (passed and in_time) else "FAIL"
    print(f"[ACCEPTANCE {criterion:02d}] {status} ({elapsed:.1f}s/{budget:.0f}s) {description}")
    assert passed, f"criterion {criterion}: {description}"
    assert in_time, f"criterion {criterion}: exceeded {budget}s runtime budget"


def test_criterion_01_worked_trace_examples():
    start = time.time()
    store = build_four_user_day()
    one_hour = ClassEvent("c1", "r", parse_stamp(f"{DAY} 09:00"), parse_stamp(f"{DAY} 10:00"))
    three_hour = ClassEvent("c3", "r", parse_stamp(f"{DAY} 11:00"), parse_stamp(f"{DAY} 14:00"))
    aps = frozenset(["room-ap"])
    expected = {
        "S1": (one_hour, 66.7, 0.0),
        "S2": (three_hour, 27.8, 5.6),
        "S3": (three_hour, 25.0, 0.0),
        "S4": (three_hour, 22.2, 15.7),
    }
    ok = True
    for user, (event, t_in, t_out) in expected.items():
        vec = user_features(store, event, user, aps)
        ok = ok and abs(vec["t_in"] - t_in) <= 0.05 and abs(vec["t_out"] - t_out) <= 0.05
    check(1, "four-user worked examples exact within 0.05pp", ok, time.time() - start, 1.0)


def test_criterion_02_smape_unit_checks():
    start = time.time()
    ok = smape([4, 7, 2], [4, 7, 2]) == 0.0
    ok = ok and abs(smape([1], [3]) - 50.0) < 1e-12
    actual = [3, 8, 21]
    ok = ok and abs(smape([2 * a for a in actual], actual) - 33.33) <= 0.01
    check(2, "error-metric unit identities", ok, time.time() - start, 1.0)


def test_criterion_03_method_ordering(pipeline42, corpus42):
    start = time.time()
    report = json.loads(open(pipeline42["evaluation"]).read())
    m = report["methods"]
    ordering = m["lda_lr"] < m["lda"] < m["enrolled_count_lr"] < m["wifi_count_lr"]
    bound = m["lda_lr"] <= 15.0
    enough = len(corpus42.events) >= 200
    check(
        3,
        f"sMAPE ordering d<c<b<a ({m['lda_lr']:.1f}<{m['lda']:.1f}"
        f"<{m['enrolled_count_lr']:.1f}<{m['wifi_count_lr']:.1f}) and d<=15%",
        ordering and bound and enough,
        time.time() - start,
        300.0,
    )


def test_criterion_04_mapping_accuracy(pipeline42):
    start = time.time()
    report = json.loads(open(pipeline42["mapping_report"]).read())
    ok = report["tp_rate"] >= 0.85 and report["tn_rate"] >= 0.99
    check(
        4,
        f"k-means 10-min mapping TP {report['tp_rate']:.3f}>=0.85, "
        f"TN {report['tn_rate']:.3f}>=0.99",
        ok,
        time.time() - start,
        120.0,
    )


def test_criterion_05_resolution_trend(corpus42):
    start = time.time()
    eligible = [e for e in corpus42.events if e.duration_minutes >= 60 + 20]
    rows = resolution_sweep(
        corpus42.store,
        eligible,
        corpus42.rosters,
        corpus42.inventory,
        resolutions=(1, 10, 60),
        seed=42,
    )
    tp = {row["resolution"]: row["tp_rate"] for row in rows}
    tolerance = 0.02
    ok = tp[1] >= tp[10] - tolerance and tp[10] >= tp[60] - tolerance
    ok = ok and all(row["tn_rate"] >= 0.99 for row in rows)
    check(
        5,
        f"TP trend across resolutions 1/10/60 min: {tp[1]:.3f} >= {tp[10]:.3f} >= {tp[60]:.3f} "
        "(2pp tol), TN >= 0.99 at all three",
        ok,
        time.time() - start,
        600.0,
    )


def test_criterion_06_clustering_oracles():
    start = time.time()
    ok = True
    for X in SMALL_FIXTURES:
        for seed in (0, 3, 17):
            sse = assignment_sse(X, kmeans(X, seed=seed).assignment)
            ok = ok and math.isclose(sse, best_two_partition_sse(X), rel_tol=1e-9, abs_tol=1e-9)
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        X = np.vstack(
            [
                rng.normal(0, 1, (rng.integers(8, 20), 2)),
                rng.normal(rng.uniform(3, 8), 1.5, (rng.integers(8, 20), 2)),
            ]
        )
        fit = em_gmm(X, seed=seed)
        ok = ok and bool(np.all(np.diff(fit.log_likelihoods) >= -1e-9))
    rng = np.random.default_rng(77)
    blob_a = rng.normal(0, 1, (11, 3))
    blob_b = rng.normal(25, 1, (7, 3))
    labels = hierarchical(np.vstack([blob_a, blob_b]))
    ok = ok and len(set(labels[:11].tolist())) == 1 and len(set(labels[11:].tolist())) == 1
    ok = ok and labels[0] != labels[-1]
    check(
        6,
        "k-means == brute-force SSE on <=8-point fixtures; EM log-lik monotone x20; "
        "Ward recovers planted blobs",
        ok,
        time.time() - start,
        30.0,
    )


def test_criterion_07_lda_oracle_and_invariance():
    start = time.time()
    rng = np.random.default_rng(7)
    train = make_corpus(rng, 6, 6)
    model = train_lda([train])
    inv = np.linalg.inv(model.covariance)
    X = make_corpus(np.random.default_rng(99), 6, 6).matrix
    labels, scores = predict_lda(model, X)
    ok = True
    for i, row in enumerate(X):
        d_occ = row @ inv @ model.mean_occupant - 0.5 * model.mean_occupant @ inv @ model.mean_occupant
        d_occ += math.log(model.prior_occupant)
        d_bys = row @ inv @ model.mean_bystander - 0.5 * model.mean_bystander @ inv @ model.mean_bystander
        d_bys += math.log(model.prior_bystander)
        ok = ok and labels[i] == (OCCUPANT if d_occ > d_bys else BYSTANDER)
        ok = ok and math.isclose(scores[i, 0], d_occ, rel_tol=1e-9)

    A = np.diag([0.5, 2.0, 1.5, 0.8, 1.2, 0.6]) @ np.random.default_rng(4).normal(0, 1, (6, 6))
    b = np.random.default_rng(5).normal(0, 5, 6)
    transformed = ClassFeatures(train.users, train.matrix @ A.T + b, train.occupant)
    model_t = train_lda([transformed])
    labels_t, _ = predict_lda(model_t, X @ A.T + b)
    margins = np.abs(scores[:, 0] - scores[:, 1])
    ok = ok and all(
        lab == lab_t for lab, lab_t, m in zip(labels, labels_t, margins) if m > 1e-8
    )
    check(7, "discriminant oracle on 12-sample fixture; affine invariance", ok, time.time() - start, 1.0)


def test_criterion_08_ols_checks():
    start = time.time()
    rng = np.random.default_rng(50)
    xs = rng.uniform(5, 80, 50)
    ys = 1.22 * xs + 4.0 + rng.normal(0, 3.0, 50)
    model = fit_calibration(list(zip(xs, ys)))
    residuals = ys - (model.slope * xs + model.intercept)
    scale = float(np.abs(ys).sum())
    ok = abs(model.slope - 1.22) <= 0.1
    ok = ok and abs(residuals.sum()) / scale < 1e-8
    ok = ok and abs((residuals * xs).sum()) / (scale * xs.max()) < 1e-8
    check(
        8,
        f"normal-equation residuals ~0 and planted slope recovered ({model.slope:.3f})",
        ok,
        time.time() - start,
        1.0,
    )


def test_criterion_09_run_determinism(corpus42_dir, pipeline42, tmp_path):
    start = time.time()
    second = run_pipeline(pipeline_config(corpus42_dir, str(tmp_path / "second")))
    ok = filecmp.cmp(second["estimates"], pipeline42["estimates"], shallow=False)
    ok = ok and filecmp.cmp(second["mapping"], pipeline42["mapping"], shallow=False)
    ok = ok and filecmp.cmp(second["evaluation"], pipeline42["evaluation"], shallow=False)
    check(9, "repeat end-to-end run byte-identical estimates/mapping", ok, time.time() - start, 600.0)


def week_index(event: ClassEvent, origin) -> int:
    """Week of semester of a class relative to an origin date (week 0 contains origin)."""
    return (event.date - day_start(origin)).days // 7


def test_criterion_10_consistency_metric(pipeline42, corpus42):
    start = time.time()
    report = json.loads(open(pipeline42["mapping_report"]).read())
    ccdf = [f for _, f in report["consistency_ccdf"]]
    monotone = all(x >= y for x, y in zip(ccdf, ccdf[1:]))
    weeks = {week_index(e, corpus42.events[0].start) for e in corpus42.events}
    in_room_aps = {
        ap
        for ap in corpus42.inventory
        if not corpus42.inventory.location(ap).is_corridor
    }
    cons = report["consistency"]
    featured_in_room = [ap for ap in in_room_aps if ap in cons]
    frac_above = sum(1 for ap in featured_in_room if cons[ap] > 0.8) / len(featured_in_room)
    ok = monotone and frac_above >= 0.6 and len(weeks) >= 10
    check(
        10,
        f"CCDF monotone; {100 * frac_above:.0f}% of in-room APs above 0.8 consistency "
        f"over {len(weeks)} weeks",
        ok,
        time.time() - start,
        300.0,
    )
