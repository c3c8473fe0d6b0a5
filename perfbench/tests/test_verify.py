"""Each output check passes on the program's reports and fails on a one-cell corruption."""
from __future__ import annotations

import csv
import json
import os
import shutil

import pytest
from conftest import SEED, SWEEP

import verify


def copy_with_cell(src: str, dst_dir: str, row: int, column: str, change) -> str:
    """Copy a CSV report with one cell of data row `row` replaced by change(old)."""
    with open(src, newline="") as handle:
        rows = list(csv.reader(handle))
    col = rows[0].index(column)
    rows[row + 1][col] = change(rows[row + 1][col])
    dst = os.path.join(dst_dir, os.path.basename(src))
    with open(dst, "w", newline="") as handle:
        csv.writer(handle).writerows(rows)
    return dst


def copy_with_json(src: str, dst_dir: str, change) -> str:
    with open(src) as handle:
        payload = json.load(handle)
    change(payload)
    dst = os.path.join(dst_dir, os.path.basename(src))
    with open(dst, "w") as handle:
        json.dump(payload, handle)
    return dst


def test_checks_pass_on_program_reports(reports):
    corpus, _, out, sweep = reports
    assert verify.check_wifi_counts(corpus, f"{out}/estimates.csv", f"{out}/mapping.csv") == []
    assert verify.check_estimates(corpus, f"{out}/estimates.csv") == []
    assert verify.check_mapping_report(corpus, f"{out}/mapping.csv", f"{out}/mapping_report.json") == []
    assert verify.check_evaluation(corpus, f"{out}/estimates.csv", f"{out}/evaluation.json", SEED) == []
    assert verify.check_model(f"{out}/model.txt") == []
    assert verify.check_sweep(corpus, f"{sweep}/resolution_sweep.csv", SWEEP) == []


def test_wifi_count_raised_by_one_fails(reports, tmp_path):
    corpus, _, out, _ = reports
    bad = copy_with_cell(f"{out}/estimates.csv", tmp_path, 3, "wifi_count", lambda v: str(int(v) + 1))
    assert verify.check_wifi_counts(corpus, bad, f"{out}/mapping.csv")


def test_ground_truth_changed_fails(reports, tmp_path):
    corpus, _, out, _ = reports
    bad = copy_with_cell(f"{out}/estimates.csv", tmp_path, 0, "ground_truth", lambda v: str(int(v) + 1))
    assert verify.check_estimates(corpus, bad)


@pytest.mark.parametrize("row", [0, 5])
def test_mapped_flag_flipped_fails(reports, tmp_path, row):
    corpus, _, out, _ = reports
    bad = copy_with_cell(f"{out}/mapping.csv", tmp_path, row, "mapped", lambda v: "0" if v == "1" else "1")
    assert verify.check_mapping_report(corpus, bad, f"{out}/mapping_report.json")


@pytest.mark.parametrize("method", ["lda", "lda_lr"])
def test_smape_changed_fails(reports, tmp_path, method):
    corpus, _, out, _ = reports
    # lda must equal the recount; lda_lr raised past wifi_count_lr must no longer beat it
    bump = 0.001 if method == "lda" else 100.0

    def change(payload):
        payload["methods"][method] += bump

    bad = copy_with_json(f"{out}/evaluation.json", tmp_path, change)
    assert verify.check_evaluation(corpus, f"{out}/estimates.csv", bad, SEED)


def test_sweep_classes_changed_fails(reports, tmp_path):
    corpus, _, _, sweep = reports
    bad = copy_with_cell(f"{sweep}/resolution_sweep.csv", tmp_path, 1, "classes", lambda v: str(int(v) - 1))
    assert verify.check_sweep(corpus, bad, SWEEP)


def test_model_feature_order_changed_fails(reports, tmp_path):
    _, _, out, _ = reports
    bad = os.path.join(tmp_path, "model.txt")
    shutil.copy(f"{out}/model.txt", bad)
    with open(bad) as handle:
        text = handle.read().replace("t_in t_out", "t_out t_in", 1)
    with open(bad, "w") as handle:
        handle.write(text)
    assert verify.check_model(bad)
