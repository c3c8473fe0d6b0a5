"""Output checks for the benchmark, computed apart from the program.

Nothing here imports roomsense. Every expected value is recomputed from the
corpus files with this module's own parsing, or is a property the method
must have (the paper's accuracy figures, the FORMATS.md invariants). Each
check returns a list of failure messages; an empty list means it passed.
"""
from __future__ import annotations

import csv
import json
import os
import random
from dataclasses import dataclass
from datetime import date

import numpy as np

PAPER_MAPPING_TP = 0.846  # mapping accuracy reported in the paper
PAPER_CALIBRATED_SMAPE = 13.10  # sMAPE of the calibrated classifier in the paper
FEATURES = ("t_in", "t_out", "arrival_delay", "n_sessions", "n_devices", "avg_rssi")
CORRIDOR = ("corridor", "walkway")
REPORT_MINUTE = 21 * 60  # ongoing sessions end at 21:00 on their own date
TRIM = 10  # minutes dropped at each end of a class window before sampling


def read_rows(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as handle:
        rows = [[f.strip() for f in r] for r in csv.reader(handle) if r]
    if not rows:
        raise ValueError(f"{path}: empty file")
    return rows[0], rows[1:]


class _Clock:
    """`dd/mm/yyyy HH:MM` -> minutes since 0001-01-01, caching the date part."""

    def __init__(self):
        self._days: dict[str, int] = {}

    def day(self, text: str) -> int:
        minutes = self._days.get(text)
        if minutes is None:
            d, m, y = (int(p) for p in text.split("/"))
            minutes = self._days[text] = date(y, m, d).toordinal() * 1440
        return minutes

    def stamp(self, text: str) -> int:
        return self.day(text[:10]) + int(text[11:13]) * 60 + int(text[14:16])


@dataclass
class ClassRow:
    class_id: str
    room_id: str
    start: int
    end: int


@dataclass
class Corpus:
    """The simulated inputs, parsed once per benchmark run."""

    classes: dict[str, ClassRow]
    rosters: dict[str, set[str]]
    truth: dict[str, int]
    inventory: dict[str, tuple[str | None, str, str]]  # ap -> (room or None, building, floor)
    users: list[str]
    by_ap: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]  # ap -> (start, end, user)


def load_corpus(corpus_dir: str) -> Corpus:
    clock = _Clock()
    _, rows = read_rows(os.path.join(corpus_dir, "timetable.csv"))
    classes = {
        cid: ClassRow(cid, room, clock.stamp(f"{day} {start}"), clock.stamp(f"{day} {end}"))
        for cid, room, day, start, end in (r[:5] for r in rows)
    }
    rosters: dict[str, set[str]] = {}
    for cid, user in (r[:2] for r in read_rows(os.path.join(corpus_dir, "roster.csv"))[1]):
        rosters.setdefault(cid, set()).add(user)
    truth = {
        cid: int(count)
        for cid, count in (r[:2] for r in read_rows(os.path.join(corpus_dir, "ground_truth_counts.csv"))[1])
    }
    inventory = {
        ap: (None if room.lower() in CORRIDOR else room, building, floor)
        for ap, room, building, floor in (r[:4] for r in read_rows(os.path.join(corpus_dir, "inventory.csv"))[1])
    }

    user_ids: dict[str, int] = {}
    aps, starts, ends, users = [], [], [], []
    with open(os.path.join(corpus_dir, "sessions.csv"), newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        for fields in reader:
            if not fields:
                continue
            start = clock.stamp(fields[2].strip())
            if fields[10].strip().lower() in ("ass", "associated"):
                end = clock.day(fields[2].strip()[:10]) + REPORT_MINUTE
            else:
                end = clock.stamp(fields[3].strip())
            aps.append(fields[5].strip())
            starts.append(start)
            ends.append(end)
            users.append(user_ids.setdefault(fields[0].strip(), len(user_ids)))
    ap_arr = np.array(aps)
    start_arr = np.array(starts, dtype=np.int64)
    end_arr = np.array(ends, dtype=np.int64)
    user_arr = np.array(users, dtype=np.int64)
    by_ap = {}
    for ap in np.unique(ap_arr):
        mask = ap_arr == ap
        by_ap[str(ap)] = (start_arr[mask], end_arr[mask], user_arr[mask])
    return Corpus(classes, rosters, truth, inventory, list(user_ids), by_ap)


def read_mapping(path: str) -> dict[str, dict[str, int]]:
    """class_id -> {ap: mapped flag} from mapping.csv."""
    header, rows = read_rows(path)
    if header != ["class_id", "ap_name", "mapped", "score"]:
        raise ValueError(f"{path}: unexpected header {header}")
    out: dict[str, dict[str, int]] = {}
    for cid, ap, flag, _ in rows:
        out.setdefault(cid, {})[ap] = int(flag)
    return out


def read_estimates(path: str) -> list[dict]:
    header, rows = read_rows(path)
    return [dict(zip(header, r)) for r in rows]


def class_users(corpus: Corpus, row: ClassRow, aps) -> set[str]:
    """Distinct users with a session on `aps` overlapping [start, end)."""
    found: set[int] = set()
    for ap in aps:
        if ap not in corpus.by_ap:
            continue
        starts, ends, users = corpus.by_ap[ap]
        hit = np.maximum(starts, row.start) < np.minimum(ends, row.end)
        found.update(users[hit].tolist())
    return {corpus.users[u] for u in found}


def check_wifi_counts(corpus: Corpus, estimates_path: str, mapping_path: str) -> list[str]:
    """wifi_count and enrolled_wifi_count equal the count made here from the raw files."""
    mapping = read_mapping(mapping_path)
    errors = []
    for est in read_estimates(estimates_path):
        cid = est["class_id"]
        if cid not in corpus.classes:
            errors.append(f"estimates.csv: unknown class {cid}")
            continue
        mapped = [ap for ap, flag in mapping.get(cid, {}).items() if flag == 1]
        users = class_users(corpus, corpus.classes[cid], mapped)
        enrolled = len(users & corpus.rosters.get(cid, set()))
        if int(est["wifi_count"]) != len(users) or int(est["enrolled_wifi_count"]) != enrolled:
            errors.append(
                f"estimates.csv {cid}: wifi {est['wifi_count']}/{est['enrolled_wifi_count']}, "
                f"expected {len(users)}/{enrolled}"
            )
    return errors


def check_estimates(corpus: Corpus, estimates_path: str) -> list[str]:
    """One row per class, the FORMATS.md invariants, and the ground-truth column."""
    rows = read_estimates(estimates_path)
    errors = []
    ids = [r["class_id"] for r in rows]
    if sorted(ids) != sorted(corpus.classes) or len(set(ids)) != len(ids):
        errors.append(f"estimates.csv: {len(ids)} rows do not match {len(corpus.classes)} classes")
    for r in rows:
        wifi, enrolled, lda, calibrated = (
            int(r[k]) for k in ("wifi_count", "enrolled_wifi_count", "lda_count", "calibrated_count")
        )
        if not (enrolled <= wifi and lda <= wifi and calibrated >= 0):
            errors.append(f"estimates.csv {r['class_id']}: invariant broken {r}")
        if r["ground_truth"] != str(corpus.truth.get(r["class_id"], "")):
            errors.append(f"estimates.csv {r['class_id']}: ground_truth {r['ground_truth']!r}")
    return errors


def confusion(corpus: Corpus, mapping: dict[str, dict[str, int]]) -> dict[str, int]:
    """Mapped/not-mapped decisions of every inventory AP for every class."""
    counts = {"tp": 0, "fn": 0, "tn": 0, "fp": 0}
    for cid, row in corpus.classes.items():
        room_aps = [ap for ap, loc in corpus.inventory.items() if loc[0] == row.room_id]
        floor = corpus.inventory[room_aps[0]][1:]
        flags = mapping.get(cid, {})
        for ap, (room, building, level) in corpus.inventory.items():
            positive = room == row.room_id or (room is None and (building, level) == floor)
            mapped = flags.get(ap, 0) == 1
            counts[("tp" if mapped else "fn") if positive else ("fp" if mapped else "tn")] += 1
    return counts


def check_mapping_report(corpus: Corpus, mapping_path: str, report_path: str) -> list[str]:
    """Confusion counts and rates equal the count made here, and TP rate meets the paper."""
    counts = confusion(corpus, read_mapping(mapping_path))
    with open(report_path) as handle:
        report = json.load(handle)
    tp_rate = counts["tp"] / (counts["tp"] + counts["fn"])
    tn_rate = counts["tn"] / (counts["tn"] + counts["fp"])
    errors = []
    if report.get("counts") != counts:
        errors.append(f"mapping_report.json: counts {report.get('counts')}, expected {counts}")
    for key, value in (("tp_rate", tp_rate), ("tn_rate", tn_rate)):
        if abs(report.get(key, -1.0) - value) > 1e-6:
            errors.append(f"mapping_report.json: {key} {report.get(key)}, expected {value:.6f}")
    if tp_rate < PAPER_MAPPING_TP:
        errors.append(f"mapping TP rate {tp_rate:.4f} below the paper's {PAPER_MAPPING_TP}")
    return errors


def split_test_ids(class_ids, seed: int, train_ratio: float = 0.7) -> set[str]:
    """The documented split: a seeded shuffle of the sorted ids, the first share trains."""
    ids = sorted(class_ids)
    shuffled = random.Random(seed).sample(ids, len(ids))
    return set(shuffled[round(train_ratio * len(ids)):])


def smape(forecasts, actuals) -> float:
    terms = [abs(f - a) / (abs(f) + abs(a)) if abs(f) + abs(a) else 0.0 for f, a in zip(forecasts, actuals)]
    return 100.0 * sum(terms) / len(terms)


def check_evaluation(corpus: Corpus, estimates_path: str, evaluation_path: str, seed: int) -> list[str]:
    """The lda sMAPE equals the one made here; calibration beats the raw count and the paper."""
    with open(evaluation_path) as handle:
        methods = json.load(handle)["methods"]
    lda = {r["class_id"]: int(r["lda_count"]) for r in read_estimates(estimates_path)}
    test = sorted(split_test_ids(lda, seed))
    expected = smape([lda[c] for c in test], [corpus.truth[c] for c in test])
    errors = []
    if abs(methods["lda"] - expected) > 1e-6:
        errors.append(f"evaluation.json: lda sMAPE {methods['lda']}, expected {expected:.6f}")
    if not methods["lda_lr"] < methods["wifi_count_lr"]:
        errors.append(f"evaluation.json: lda_lr {methods['lda_lr']} does not beat wifi_count_lr")
    if methods["lda_lr"] > PAPER_CALIBRATED_SMAPE:
        errors.append(f"evaluation.json: lda_lr {methods['lda_lr']} above the paper's {PAPER_CALIBRATED_SMAPE}")
    return errors


def check_sweep(corpus: Corpus, sweep_path: str, resolutions) -> list[str]:
    """One row per resolution in order; class counts follow from class lengths; rates in [0, 1]."""
    header, rows = read_rows(sweep_path)
    table = [dict(zip(header, r)) for r in rows]
    errors = []
    if [int(r["resolution"]) for r in table] != list(resolutions):
        errors.append(f"resolution_sweep.csv: resolutions {[r['resolution'] for r in table]}")
    for r in table:
        res = int(r["resolution"])
        served = sum(1 for c in corpus.classes.values() if c.end - c.start >= 2 * TRIM + res)
        if int(r["classes"]) != served:
            errors.append(f"resolution_sweep.csv {res}: {r['classes']} classes, expected {served}")
        for key in ("tp_rate", "tn_rate"):
            if served and not 0.0 <= float(r[key]) <= 1.0:
                errors.append(f"resolution_sweep.csv {res}: {key} {r[key]} outside [0, 1]")
    return errors


def check_model(model_path: str) -> list[str]:
    """The model file lists the six features in their documented order."""
    with open(model_path) as handle:
        values = dict(
            (k.strip(), v.strip())
            for k, _, v in (line.partition("=") for line in handle if "=" in line and not line.startswith("#"))
        )
    if tuple(values.get("features", "").split()) != FEATURES:
        return [f"model.txt: features {values.get('features')!r}"]
    return []
