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
from dataclasses import fields

import numpy as np

from . import estimation, mapping, model as model_mod, pipeline, userfeatures
from .config import PipelineConfig, echo_config, pipeline_config_from, sim_config_from
from .records import ConfigError, RoomsenseError
from .simulate import simulate_corpus
from .store import MERGED_INDEX, RAW_INDEX, read_key_values


# Every pipeline flag, declared once: its config key, flag and argparse options.
# No flag has an argparse default, so an omitted flag is None and
# `PipelineConfig` holds the only copy of each default.
_FLAGS = {
    "sessions": ("--sessions", {"help": "session log CSV"}),
    "timetable": ("--timetable", {"help": "timetable CSV"}),
    "rosters": ("--rosters", {"help": "roster CSV"}),
    "inventory": ("--inventory", {"help": "AP inventory CSV (evaluation only)"}),
    "ground_truth_counts": ("--ground-truth-counts", {"help": "per-class true occupancy CSV"}),
    "delimiter": ("--delimiter", {"help": "input file delimiter"}),
    "resolution": ("--resolution", {"type": int}),
    "algorithm": ("--algorithm", {"choices": mapping.ALGORITHMS, "help": "clustering algorithm"}),
    "resample_len": ("--resample-len", {"type": int}),
    "seed": ("--seed", {"type": int}),
    "train_ratio": ("--train-ratio", {"type": float}),
    "adjacency": ("--no-adjacency", {"action": "store_false",
                                     "help": "corridor APs never count as in-room"}),
    "use_room_aps": ("--use-room-aps", {"action": "store_true",
                                        "help": "use inventory room APs instead of the mapping"}),
}
_CORPUS = ("sessions", "timetable", "rosters", "inventory", "ground_truth_counts", "delimiter")
_MAPPING = ("resolution", "algorithm", "resample_len", "seed", "adjacency")
_PATHS = ("sessions", "timetable", "rosters")


def _add_pipeline_args(parser: argparse.ArgumentParser, *keys: str, required=_PATHS) -> None:
    for key in keys:
        flag, options = _FLAGS[key]
        parser.add_argument(flag, dest=key, default=None, required=key in required, **options)


def _config_from_args(args, need_truth: bool = False, need_corpus: bool = True) -> PipelineConfig:
    """File values (`run --config`), then every given flag, then validation."""
    values = read_key_values(args.config, ConfigError) if getattr(args, "config", "") else {}
    flags = {f.name: getattr(args, f.name, None) for f in fields(PipelineConfig)}
    config = pipeline_config_from(values, flags)
    config.validate(require_truth=need_truth, require_corpus=need_corpus)
    return config


def cmd_simulate(args) -> int:
    values = read_key_values(args.config, ConfigError) if args.config else {}
    config = sim_config_from(values, {"seed": args.seed, "weeks": args.weeks})
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
    config = _config_from_args(args)
    resolutions = _parse_sweep(args.sweep) if args.sweep else ()
    if resolutions and not config.inventory:
        raise ConfigError("--sweep requires --inventory for accuracy scoring")
    corpus = pipeline.load_corpus(config, indexes=(MERGED_INDEX,))
    if args.classes:
        wanted = {part.strip() for part in args.classes.split(",")}
        unknown = sorted(wanted - {e.class_id for e in corpus.events})
        if unknown:
            raise ConfigError(f"--classes: not in the timetable: {', '.join(map(repr, unknown))}")
        corpus.events = [e for e in corpus.events if e.class_id in wanted]
    os.makedirs(config.output_dir, exist_ok=True)
    results, clustered = pipeline.map_stage(corpus, config)
    pipeline.write_map_reports(corpus, results, clustered, config)
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
    corpus = pipeline.load_corpus(config, indexes=(RAW_INDEX,))
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
    config = _config_from_args(args)
    corpus = pipeline.load_corpus(config, indexes=(RAW_INDEX,))
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
    config = _config_from_args(args, need_corpus=False)
    estimates = pipeline.read_estimates_csv(args.estimates)
    report = pipeline.evaluate_estimates(estimates, config.seed, config.train_ratio)
    os.makedirs(config.output_dir, exist_ok=True)
    out_path = os.path.join(config.output_dir, "evaluation.json")
    pipeline.write_json(out_path, report)
    methods = report["methods"]
    for key in ("wifi_count_lr", "enrolled_count_lr", "lda", "lda_lr"):
        print(f"sMAPE {key}: {methods[key]:.2f}%")
    return 0


def cmd_run(args) -> int:
    paths = pipeline.run_pipeline(_config_from_args(args, need_truth=True))
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
    _add_pipeline_args(p, *_CORPUS, *_MAPPING)
    p.add_argument("--classes", default="", help="comma-separated class ids to map")
    p.add_argument("--sweep", default="", help="comma-separated resolutions for an accuracy sweep")
    p.add_argument("--out", dest="output_dir", required=True)
    p.set_defaults(func=cmd_map_aps)

    p = sub.add_parser("train", help="fit classifier and calibration")
    _add_pipeline_args(
        p, *_CORPUS, "seed", "train_ratio", "use_room_aps",
        required=(*_PATHS, "ground_truth_counts"),
    )
    p.add_argument("--mapping", required=True, help="mapping.csv from map-aps")
    p.add_argument("--out", dest="output_dir", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("estimate", help="per-class occupancy estimates")
    _add_pipeline_args(p, *_CORPUS, "use_room_aps")
    p.add_argument("--mapping", required=True, help="mapping.csv from map-aps")
    p.add_argument("--model", required=True, help="model.txt from train")
    p.add_argument("--out", dest="output_dir", required=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("evaluate", help="method comparison from an estimates file")
    p.add_argument("--estimates", required=True, help="estimates.csv from estimate")
    _add_pipeline_args(p, "seed", "train_ratio")
    p.add_argument("--out", dest="output_dir", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("run", help="run the whole pipeline")
    p.add_argument("--config", default="", help="pipeline config file")
    _add_pipeline_args(p, *_CORPUS, *_MAPPING, "train_ratio", "use_room_aps", required=())
    p.add_argument("--output-dir", dest="output_dir")
    p.set_defaults(func=cmd_run)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except RoomsenseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # every reader reports its own, so this is an output that cannot be made
        print(f"error: cannot write {exc.filename or 'an output'}: {exc.strerror or exc}", file=sys.stderr)
        return ConfigError.exit_code


if __name__ == "__main__":
    sys.exit(main())
