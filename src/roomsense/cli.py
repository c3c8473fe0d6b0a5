"""Command-line entry point.

Subcommands run each pipeline stage independently against the documented
file formats (see FORMATS.md), or the whole pipeline in one process:

  simulate   generate a synthetic campus corpus with ground truth
  map-aps    cluster APs into per-class mapped / not-mapped sets
  train      fit the occupant classifier and count calibration
  estimate   per-class occupancy estimates using a trained model
  evaluate   method-comparison report from an estimates file
  run        load -> map-aps -> train -> estimate -> evaluate

Exit codes: 0 success, 1 usage/config error, 2 data validation failure,
3 numerical failure. Environment variables are never consulted.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import estimation, mapping, model as model_mod, pipeline, userfeatures
from .config import (
    PipelineConfig,
    echo_config,
    pipeline_config_from,
    read_config_file,
    sim_config_from,
)
from .records import ConfigError, DataValidationError, NumericalError, RoomsenseError
from .simulate import simulate_corpus


def _add_corpus_args(parser: argparse.ArgumentParser, need_truth: bool = False) -> None:
    parser.add_argument("--sessions", required=True, help="session log CSV")
    parser.add_argument("--timetable", required=True, help="timetable CSV")
    parser.add_argument("--rosters", required=True, help="roster CSV")
    parser.add_argument("--inventory", default="", help="AP inventory CSV (evaluation only)")
    parser.add_argument(
        "--ground-truth-counts",
        default="",
        required=need_truth,
        help="per-class true occupancy CSV",
    )
    parser.add_argument("--delimiter", default=",", help="input file delimiter")


def _add_mapping_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--resolution", type=int, default=mapping.DEFAULT_RESOLUTION)
    parser.add_argument(
        "--algorithm", choices=mapping.ALGORITHMS, default="kmeans", help="clustering algorithm"
    )
    parser.add_argument("--resample-len", type=int, default=mapping.DEFAULT_RESAMPLE_LEN)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--no-adjacency", action="store_true", help="corridor APs never count as in-room")


def _config_from_args(args, need_truth: bool) -> PipelineConfig:
    config = PipelineConfig(
        sessions=args.sessions,
        timetable=args.timetable,
        rosters=args.rosters,
        inventory=args.inventory,
        ground_truth_counts=getattr(args, "ground_truth_counts", ""),
        output_dir=args.out,
        resolution=getattr(args, "resolution", mapping.DEFAULT_RESOLUTION),
        algorithm=getattr(args, "algorithm", "kmeans"),
        resample_len=getattr(args, "resample_len", mapping.DEFAULT_RESAMPLE_LEN),
        seed=getattr(args, "seed", 0),
        train_ratio=getattr(args, "train_ratio", 0.7),
        adjacency=not getattr(args, "no_adjacency", False),
        use_room_aps=getattr(args, "use_room_aps", False),
        delimiter=args.delimiter,
    )
    config.validate(require_truth=need_truth)
    return config


def cmd_simulate(args) -> int:
    overrides = {"seed": args.seed, "weeks": args.weeks}
    if args.config:
        config = sim_config_from(read_config_file(args.config), overrides)
    else:
        config = sim_config_from({}, overrides)
    campus, _ = simulate_corpus(config, args.out)
    echo_config(os.path.join(args.out, "sim_config.txt"), config)
    print(
        f"simulated {len(campus.events)} classes, {len(campus.inventory)} APs, "
        f"{len(campus.population)} students -> {args.out}"
    )
    return 0


def _parse_sweep(text: str) -> tuple[int, ...]:
    """`--sweep` resolutions: comma-separated positive integer minutes."""
    resolutions = []
    for part in text.split(","):
        try:
            resolution = int(part)
        except ValueError:
            raise ConfigError(f"--sweep: {part.strip()!r} is not an integer resolution") from None
        if resolution <= 0:
            raise ConfigError(f"--sweep: resolution {resolution} is not positive")
        resolutions.append(resolution)
    return tuple(resolutions)


def cmd_map_aps(args) -> int:
    config = _config_from_args(args, need_truth=False)
    resolutions = _parse_sweep(args.sweep) if args.sweep else ()
    if resolutions and not config.inventory:
        raise ConfigError("--sweep requires --inventory for accuracy scoring")
    corpus = pipeline.load_corpus(config)
    if args.classes:
        wanted = set(args.classes.split(","))
        corpus.events = [e for e in corpus.events if e.class_id in wanted]
        if not corpus.events:
            raise ConfigError(f"no timetable entries match --classes {args.classes}")
    os.makedirs(config.output_dir, exist_ok=True)
    results, clustered = pipeline.map_stage(corpus, config)
    pipeline.write_mapping_csv(os.path.join(config.output_dir, "mapping.csv"), results)
    pipeline.write_pca_csv(
        os.path.join(config.output_dir, "pca.csv"), corpus, results, clustered, config
    )
    pipeline.write_json(
        os.path.join(config.output_dir, "mapping_report.json"),
        pipeline.mapping_report(corpus, results, config),
    )
    if resolutions:
        rows = mapping.resolution_sweep(
            corpus.store,
            corpus.events,
            corpus.rosters,
            corpus.inventory,
            resolutions=resolutions,
            resample_len=config.resample_len,
            algorithm=config.algorithm,
            seed=config.seed,
            adjacency=config.adjacency,
            mapped={config.resolution: results},
        )
        pipeline.write_sweep_csv(os.path.join(config.output_dir, "resolution_sweep.csv"), rows)
    print(f"mapped {len(results)} classes -> {config.output_dir}")
    return 0


def cmd_train(args) -> int:
    config = _config_from_args(args, need_truth=True)
    corpus = pipeline.load_corpus(config)
    results = pipeline.read_mapping_csv(args.mapping)
    train_ids, _ = estimation.split_classes(
        [e.class_id for e in corpus.events], train_ratio=config.train_ratio, seed=config.seed
    )
    features = pipeline.features_stage(corpus, results, config, train_ids)
    imputed = sum(
        int(np.isnan(f.matrix[:, userfeatures.AVG_RSSI]).sum()) for f in features.values()
    )
    lda, calibration = pipeline.train_stage(corpus, features, train_ids)
    os.makedirs(config.output_dir, exist_ok=True)
    model_path = os.path.join(config.output_dir, "model.txt")
    model_mod.save_model(model_path, lda, calibration)
    if imputed:
        print(f"note: {imputed} users had no RSSI; filled with corpus mean {lda.rssi_fill:.1f}")
    print(f"trained on {len(train_ids)} classes -> {model_path}")
    return 0


def cmd_estimate(args) -> int:
    config = _config_from_args(args, need_truth=False)
    corpus = pipeline.load_corpus(config)
    results = pipeline.read_mapping_csv(args.mapping)
    lda, calibration = model_mod.load_model(args.model)
    features = pipeline.features_stage(corpus, results, config)
    estimates = pipeline.estimate_stage(corpus, features, lda, calibration)
    os.makedirs(config.output_dir, exist_ok=True)
    out_path = os.path.join(config.output_dir, "estimates.csv")
    pipeline.write_estimates_csv(out_path, estimates)
    print(f"estimated {len(estimates)} classes -> {out_path}")
    return 0


def cmd_evaluate(args) -> int:
    estimates = pipeline.read_estimates_csv(args.estimates)
    report = pipeline.evaluate_estimates(estimates, args.seed, args.train_ratio)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "evaluation.json")
    pipeline.write_json(out_path, report)
    methods = report["methods"]
    for key in ("wifi_count_lr", "enrolled_count_lr", "lda", "lda_lr"):
        print(f"sMAPE {key}: {methods[key]:.2f}%")
    return 0


def cmd_run(args) -> int:
    overrides = {
        key: getattr(args, key)
        for key in (
            "sessions",
            "timetable",
            "rosters",
            "inventory",
            "ground_truth_counts",
            "output_dir",
            "resolution",
            "algorithm",
            "resample_len",
            "seed",
            "train_ratio",
        )
    }
    if args.no_adjacency:
        overrides["adjacency"] = False
    if args.use_room_aps:
        overrides["use_room_aps"] = True
    values = read_config_file(args.config) if args.config else {}
    config = pipeline_config_from(values, overrides)
    paths = pipeline.run_pipeline(config)
    for name in sorted(paths):
        print(f"{name}: {paths[name]}")
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as `ConfigError` (exit 1) rather than exiting with 2."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="roomsense", description="Classroom occupancy estimation from WiFi session logs"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic campus corpus")
    p.add_argument("--config", default="", help="simulator config file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--weeks", type=int, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("map-aps", help="map APs to classrooms per class")
    _add_corpus_args(p)
    _add_mapping_args(p)
    p.add_argument("--classes", default="", help="comma-separated class ids to map")
    p.add_argument("--sweep", default="", help="comma-separated resolutions for an accuracy sweep")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_map_aps)

    p = sub.add_parser("train", help="fit classifier and calibration")
    _add_corpus_args(p, need_truth=True)
    p.add_argument("--mapping", required=True, help="mapping.csv from map-aps")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-ratio", type=float, default=0.7)
    p.add_argument("--use-room-aps", action="store_true", help="use inventory room APs instead of the mapping")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("estimate", help="per-class occupancy estimates")
    _add_corpus_args(p)
    p.add_argument("--mapping", required=True, help="mapping.csv from map-aps")
    p.add_argument("--model", required=True, help="model.txt from train")
    p.add_argument("--use-room-aps", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("evaluate", help="method comparison from an estimates file")
    p.add_argument("--estimates", required=True, help="estimates.csv from estimate")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-ratio", type=float, default=0.7)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("run", help="run the whole pipeline")
    p.add_argument("--config", default="", help="pipeline config file")
    p.add_argument("--sessions", default=None)
    p.add_argument("--timetable", default=None)
    p.add_argument("--rosters", default=None)
    p.add_argument("--inventory", default=None)
    p.add_argument("--ground-truth-counts", default=None)
    p.add_argument("--output-dir", default=None)
    p.add_argument("--resolution", type=int, default=None)
    p.add_argument("--algorithm", choices=mapping.ALGORITHMS, default=None)
    p.add_argument("--resample-len", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--train-ratio", type=float, default=None)
    p.add_argument("--no-adjacency", action="store_true")
    p.add_argument("--use-room-aps", action="store_true")
    p.set_defaults(func=cmd_run)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RoomsenseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
