"""Command-line entry point.

Subcommands (``COMMANDS``) mirror the protocol stages. The protocol commands
read a JSON config (--config); --seed and --out override its fields.
``evaluate`` takes --pipeline, --data and --format, and ``predict`` also --out.
Exit code 0 on success, 1 on failure with a stage-tagged message on stderr, 2
on a usage error.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from functools import partial

import numpy as np

from ..metrics import evaluate
from ..persistence import load as load_pipeline
from ..pipeline import ROUTE_AUXILIARY, ROUTE_BASE, pipeline_predict
from ..thresholding import curve_to_csv
from .config import ExperimentConfig, load_config
from .experiment import VARIANTS, StageError, load_data, metrics_to_csv, prepare, run_experiment
from .io import DATA_FORMATS, load_file, output_dir, write_dense_csv


def _build_parser() -> argparse.ArgumentParser:
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="path to a JSON experiment config")
    config.add_argument("--seed", type=int, help="override the config seed")
    config.add_argument("--out", help="override the config output directory")
    archive = argparse.ArgumentParser(add_help=False)
    archive.add_argument("--pipeline", required=True, help="path to a saved pipeline archive")
    archive.add_argument("--data", required=True, help="path to the dataset file")
    archive.add_argument("--format", choices=DATA_FORMATS, default="dense")

    parser = argparse.ArgumentParser(
        prog="guidedboost",
        description="Two-stage boosting of binary classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler) in COMMANDS.items():
        reads_archive = handler in (_cmd_evaluate, _cmd_predict)
        p = sub.add_parser(name, parents=[archive if reads_archive else config], help=help_text)
        if handler is _cmd_predict:
            p.add_argument("--out", help="write predictions.csv there instead of to stdout")
    return parser


def _load_cfg(args) -> ExperimentConfig:
    if not args.config:
        raise ValueError(f"{args.command} requires --config")
    overrides = {"seed": args.seed, "out_dir": args.out}
    # replace() runs ExperimentConfig's checks on the overrides too
    return replace(load_config(args.config),
                   **{k: v for k, v in overrides.items() if v is not None})


def _print_report(label: str, rep) -> None:
    print(
        f"{label}: n={rep.n} accuracy={rep.accuracy:.6f} f1={rep.f1:.6f} "
        f"errors={rep.total_errors} (fp={rep.fp} fn={rep.fn})"
    )


def _cmd_train_base(args) -> int:
    cfg = _load_cfg(args)
    prep = prepare(cfg)
    lines = ["split,n,accuracy,f1,fp,fn"]
    for name, part in (("train", prep.train), ("validation", prep.val), ("test", prep.test)):
        rep = evaluate(prep.reports[name].predictions, part.labels)
        _print_report(name, rep)
        lines.append(
            f"{name},{rep.n},{rep.accuracy:.6f},{rep.f1:.6f},{rep.fp},{rep.fn}"
        )
    if cfg.out_dir:
        (output_dir(cfg.out_dir) / "base_metrics.csv").write_text("\n".join(lines) + "\n")
    return 0


def _cmd_calibrate(args) -> int:
    cfg = _load_cfg(args)
    prep = prepare(cfg)
    print(f"th_n={prep.thresholds.th_n:.6g} th_p={prep.thresholds.th_p:.6g}")
    print(
        f"tolerated_fps={prep.tolerated.tolerated_fps} "
        f"tolerated_fns={prep.tolerated.tolerated_fns}"
    )
    if cfg.out_dir:
        out = output_dir(cfg.out_dir)
        payload = {
            "th_n": prep.thresholds.th_n,
            "th_p": prep.thresholds.th_p,
            "tolerated": {
                "fps": prep.tolerated.tolerated_fps,
                "fns": prep.tolerated.tolerated_fns,
            },
        }
        (out / "thresholds.json").write_text(json.dumps(payload, indent=2) + "\n")
        (out / "curve_validation.csv").write_text(curve_to_csv(prep.curves["validation"]))
    return 0


def _cmd_split(args) -> int:
    cfg = _load_cfg(args)
    prep = prepare(cfg)
    lines = ["split,id,subset"]
    for name in ("train", "validation", "test"):
        a = prep.assignments[name]
        print(f"{name}: easy={len(a.easy_ids)} difficult={len(a.difficult_ids)}")
        for i in sorted(a.easy_ids):
            lines.append(f"{name},{i},easy")
        for i in sorted(a.difficult_ids):
            lines.append(f"{name},{i},difficult")
    if cfg.out_dir:
        (output_dir(cfg.out_dir) / "assignments.csv").write_text("\n".join(lines) + "\n")
    return 0


def _cmd_run(args, variants: tuple[str, ...]) -> int:
    cfg = _load_cfg(args)
    result = run_experiment(cfg, variants=variants)
    print(f"th_n={result.thresholds.th_n:.6g} th_p={result.thresholds.th_p:.6g}")
    if result.skipped:
        print(f"warning: retraining skipped: {result.skipped}", file=sys.stderr)
    print(metrics_to_csv(result.rows), end="")
    if cfg.out_dir:
        print(f"artifacts written to {cfg.out_dir}")
    return 0


def _cmd_synth(args) -> int:
    cfg = _load_cfg(args)
    if cfg.synthetic is None:
        raise ValueError("synth requires a config with a synthetic data section")
    if not cfg.out_dir:
        raise ValueError("synth requires an output directory (--out or out_dir)")
    data = load_data(cfg)
    path = output_dir(cfg.out_dir) / "synthetic.csv"
    write_dense_csv(data, path)
    print(f"wrote {data.n_samples} samples x {data.n_features} features to {path}")
    return 0


def _cmd_evaluate(args) -> int:
    pipeline = load_pipeline(args.pipeline)
    data = load_file(args.data, args.format, pipeline.n_raw_features)
    preds, routes = pipeline_predict(pipeline, data)
    _print_report("whole", evaluate(preds, data.labels))
    for label, route in (("easy", ROUTE_BASE), ("difficult", ROUTE_AUXILIARY)):
        mask = routes == route
        if mask.any():
            _print_report(label, evaluate(preds[mask], data.labels[mask], scope=label))
        else:
            print(f"{label}: n=0")
    return 0


def _cmd_predict(args) -> int:
    pipeline = load_pipeline(args.pipeline)
    data = load_file(args.data, args.format, pipeline.n_raw_features)
    preds, routes = pipeline_predict(pipeline, data)
    lines = ["id,prediction,route"]
    lines += [
        f"{int(i)},{int(p)},{r}"
        for i, p, r in zip(data.ids, preds, routes)
    ]
    text = "\n".join(lines) + "\n"
    if args.out:
        path = output_dir(args.out) / "predictions.csv"
        path.write_text(text)
        print(f"wrote {len(preds)} predictions to {path}")
    else:
        print(text, end="")
    return 0


# command -> (help, handler)
COMMANDS = {
    "train-base": ("train the base classifier and report per-split metrics", _cmd_train_base),
    "calibrate": ("derive routing thresholds from the validation split", _cmd_calibrate),
    "split": ("partition each split into easy and difficult subsets", _cmd_split),
    **{f"{name}-retrain": (f"run the protocol with the {name} retraining stage only",
                           partial(_cmd_run, variants=(name,))) for name in VARIANTS},
    "run": ("run the full protocol with both retraining variants",
            partial(_cmd_run, variants=VARIANTS)),
    "synth": ("generate the configured synthetic dataset as dense CSV", _cmd_synth),
    "evaluate": ("evaluate a saved pipeline on a labeled dataset", _cmd_evaluate),
    "predict": ("predict a saved pipeline on a labeled dataset", _cmd_predict),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    np.seterr(over="ignore")  # stable sigmoid clips anyway; keep CLI output clean
    try:
        return COMMANDS[args.command][1](args)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
