"""Command-line entry point: train, eval, ablate, gradcheck, gen-data.

Configuration is one JSON document with four sections, `model`, `train`,
`data` and the optional `ablate`. One reader, `model.read_section`, turns
each into its dataclass (`model.ModelConfig`, `train.TrainConfig`,
`dataio.DataConfig`, `AblateConfig`). A section that is not an object, an
unknown key, a value of the wrong type, checked down to each list element,
or a value out of range is a ConfigError that names the section or
`section.key`. The model section (a `preset` name plus `ModelConfig`
overrides) sets the task, and the data section follows it: its dataset is
built for the model's task, and its `kinds` set the model's class count. The
model section is also the only place to set the ablation switches
`aggregation`, `encoder` and `vector_dim`; the `ablate` section sweeps them
by replacing those fields, and every cell is validated before the first one
trains. `train`, `ablate` and `gen-data` build the dataset, and `train` and
`ablate` check that the model can train on it, before they create their
output directory. `eval` builds it for the task of the checkpoint's model.
Run artifacts live under the run directory: config.json (the resolved
sections, which the checkpoint's model config equals), metrics.csv,
best.ckpt.npz, log.txt; ablate writes ablate.csv. With `--jobs N` > 1,
ablate trains its cells in N fresh interpreters, each with the BLAS thread
variables that the user has not set at max(1, usable CPUs // N). Timings
come from the benchmark in a source checkout, `bench/run.py`, not from this
CLI.

Exit codes: 0 success, 2 configuration error, 3 numeric fault, 4 gradient
check failure, 5 checkpoint error.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import multiprocessing
import os
import sys
from collections.abc import Mapping
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from . import dataio, gradcheck, model as model_mod, nnops, train as train_mod
from .errors import CheckpointError, ConfigError, NumericFaultError, PointVectorError
from .model import ModelConfig, preset_config, read_section
from .train import TrainConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_GRADCHECK = 4
EXIT_CHECKPOINT = 5


@dataclass
class AblateConfig:
    """The values each ablation sweep takes; a sweep left at None takes
    the one value of the model or train section."""
    aggregations: list[str] | None = None
    encoders: list[str] | None = None
    vector_dims: list[int] | None = None
    seeds: list[int] | None = None
    epochs: int | None = None

    def __post_init__(self):
        model_mod.check_field_types(self, "ablate")
        for f in dataclasses.fields(self):
            if getattr(self, f.name) == []:
                raise ConfigError(f"ablate.{f.name} must list at least one value")
        if self.epochs is not None and self.epochs < 1:
            raise ConfigError(f"ablate.epochs must be >= 1, got {self.epochs}")


def model_config_from_section(section, num_classes: int) -> ModelConfig:
    """The model section's config: a `preset` name plus overrides, or the
    fields themselves. Its class count is that of data.kinds."""
    if isinstance(section, dict):
        if "num_classes" in section:
            raise ConfigError("model.num_classes is not a setting: the class count "
                              "is the number of data.kinds")
        section = dict(section, num_classes=num_classes)
        if "preset" in section:
            return preset_config(section.pop("preset"), **section)
    return read_section(ModelConfig, section, "model")


def load_config(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    unknown = set(doc) - {"model", "train", "data", "ablate"}
    if unknown:
        raise ConfigError(f"{path}: unknown config sections: {sorted(unknown)}")
    return doc


def resolve_configs(doc: dict, seed_override: int | None = None):
    """The (model, train, data) configs of a config document."""
    data_cfg = read_section(dataio.DataConfig, doc.get("data", {}), "data")
    train_cfg = TrainConfig.from_dict(doc.get("train", {}))
    if seed_override is not None:
        train_cfg = dataclasses.replace(train_cfg, seed=seed_override)
    model_cfg = model_config_from_section(doc.get("model", {}), len(data_cfg.kinds))
    return model_cfg, train_cfg, data_cfg


class RunLogger:
    """Appends each message to the log file at path, and prints it unless quiet."""

    def __init__(self, path, quiet=False):
        self.path = Path(path)
        self.quiet = quiet
        self.path.write_text("", encoding="utf-8")

    def __call__(self, msg: str) -> None:
        if not self.quiet:
            print(msg)
        with open(self.path, "a", encoding="utf-8", newline="\n") as fh:
            fh.write(msg + "\n")


def _prepare_out_dir(out, overwrite: bool) -> Path:
    """Create the output directory out; a path that is not a directory, or
    one that is not empty without --overwrite, is a ConfigError."""
    out = Path(out)
    if out.exists() and not out.is_dir():
        raise ConfigError(f"output path {out} is not a directory")
    if out.exists() and any(out.iterdir()) and not overwrite:
        raise ConfigError(f"{out} already exists; pass --overwrite to reuse it")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _prepare_run_dir(args, config_path) -> Path:
    name = args.name or Path(config_path).stem
    return _prepare_out_dir(args.run_dir or Path("run") / name, args.overwrite)


# ---------------------------------------------------------------------------
# subcommands


def cmd_train(args) -> int:
    doc = load_config(args.config)
    model_cfg, train_cfg, data_cfg = resolve_configs(doc, args.seed)
    dataset = dataio.make_dataset(data_cfg, model_cfg.task)
    train_mod.check_trainable(model_cfg, train_cfg, dataset)
    run_dir = _prepare_run_dir(args, args.config)
    log = RunLogger(run_dir / "log.txt", quiet=args.quiet)
    resolved = {"model": dataclasses.asdict(model_cfg),
                "train": dataclasses.asdict(train_cfg),
                "data": dataclasses.asdict(data_cfg)}
    (run_dir / "config.json").write_text(
        json.dumps(resolved, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    log(f"dataset: {dataset.num_scenes} {dataset.task} scenes")
    log(f"training for {train_cfg.epochs} epochs, seed {train_cfg.seed}, "
        f"precision {args.precision}")
    report = train_mod.train_loop(model_cfg, train_cfg, dataset,
                                  run_dir=run_dir, log=log)
    train_mod.write_metrics_csv(report, run_dir / "metrics.csv")
    log(f"best epoch {report.best_epoch} "
        f"({'val mIoU' if dataset.task == 'segmentation' else 'val OA'} "
        f"{report.best_metric:.4f}); metrics in {run_dir / 'metrics.csv'}")
    return EXIT_OK


def cmd_eval(args) -> int:
    mdl, extra = model_mod.load_checkpoint(args.checkpoint)
    doc = load_config(args.config)
    _, train_cfg, data_cfg = resolve_configs(doc)
    dataset = dataio.make_dataset(data_cfg, mdl.cfg.task)
    eps = train_cfg.label_smoothing
    if args.perturbations == "none":
        specs = [("none", train_mod.AugmentSpec(), 1.0)]
    else:
        specs = train_mod.table8_specs(rescale_radius=args.rescale_radius)
    rows = train_mod.perturbation_eval(mdl, dataset, specs, split=args.split,
                                       eps=eps, batch_size=train_cfg.batch_size)
    metric_key = "miou" if dataset.task == "segmentation" else "oa"
    header = " ".join(f"{r['name']:>10}" for r in rows)
    values = " ".join(f"{r[metric_key] * 100:10.2f}" for r in rows)
    print(f"{metric_key:>6} | {header}")
    print(f"{'':>6} | {values}")
    if args.csv:
        lines = ["name,loss,oa,macc,miou"]
        for r in rows:
            lines.append(f"{r['name']},{r['loss']!r},{r['oa']!r},{r['macc']!r},{r['miou']!r}")
        Path(args.csv).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return EXIT_OK


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def worker_blas_env(jobs: int, environ: Mapping[str, str], cpus: int) -> dict[str, str]:
    """The BLAS thread variables to give each of `jobs` workers that share
    `cpus` CPUs: max(1, cpus // jobs) threads, for each variable `environ`
    does not set, so a value the user set wins."""
    threads = str(max(1, cpus // jobs))
    return {var: threads for var in BLAS_THREAD_VARS if var not in environ}


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _ablate_cell(cell) -> dict:
    """One ablation cell, a (model config, train config, dataset, precision)
    tuple; runs in a worker process."""
    model_cfg, train_cfg, dataset, precision = cell
    with nnops.precision(precision):
        report = train_mod.train_loop(model_cfg, train_cfg, dataset)
        best_rows = [r for r in report.rows
                     if r.split == "val" and r.epoch == report.best_epoch]
        row = best_rows[0]
        return {
            "aggregation": model_cfg.resolved_aggregation(),
            "encoder": model_cfg.encoder,
            "m": model_cfg.vector_dim,
            "seed": train_cfg.seed,
            "param_count": report.param_count,
            "best_epoch": report.best_epoch,
            "loss": row.loss,
            "oa": row.oa,
            "macc": row.macc,
            "miou": row.miou,
        }


def _sweep_value(cfg, key: str, **changes):
    """cfg with the value of the ablation sweep ablate.<key> set; a value
    out of range is a ConfigError that names the sweep."""
    try:
        return dataclasses.replace(cfg, **changes)
    except ConfigError as exc:
        raise ConfigError(f"ablate.{key}: {exc}") from exc


def cmd_ablate(args) -> int:
    doc = load_config(args.config)
    model_cfg, train_cfg, data_cfg = resolve_configs(doc, args.seed)
    ab = read_section(AblateConfig, doc.get("ablate", {}), "ablate")

    def sweep(values, default):
        return [default] if values is None else values

    if ab.epochs is not None:
        train_cfg = dataclasses.replace(train_cfg, epochs=ab.epochs)
    dataset = dataio.make_dataset(data_cfg, model_cfg.task)
    train_mod.check_trainable(model_cfg, train_cfg, dataset)
    # every cell's config is built, and so validated, before any cell runs
    payloads = []
    for agg, enc, m, seed in itertools.product(
            sweep(ab.aggregations, model_cfg.resolved_aggregation()),
            sweep(ab.encoders, model_cfg.encoder),
            sweep(ab.vector_dims, model_cfg.vector_dim),
            sweep(ab.seeds, train_cfg.seed)):
        cell = _sweep_value(model_cfg, "aggregations", aggregation=agg)
        cell = _sweep_value(cell, "encoders", encoder=enc)
        cell = _sweep_value(cell, "vector_dims", vector_dim=m)
        payloads.append((cell, _sweep_value(train_cfg, "seeds", seed=seed),
                         dataset, args.precision))
    run_dir = _prepare_run_dir(args, args.config)
    log = RunLogger(run_dir / "log.txt", quiet=args.quiet)
    log(f"{len(payloads)} ablation cells, jobs={args.jobs}")
    if args.jobs > 1:
        # a forked worker keeps the BLAS library, and its thread count, that
        # this process loaded; only a fresh interpreter reads the variables
        env = worker_blas_env(args.jobs, os.environ, _usable_cpus())
        os.environ.update(env)
        try:
            with ProcessPoolExecutor(max_workers=args.jobs,
                                     mp_context=multiprocessing.get_context("spawn")) as pool:
                rows = list(pool.map(_ablate_cell, payloads))
        finally:
            for var in env:
                os.environ.pop(var, None)
    else:
        rows = [_ablate_cell(p) for p in payloads]
    header = "aggregation,encoder,m,seed,param_count,best_epoch,loss,oa,macc,miou"
    lines = [header]
    for r in rows:
        lines.append(
            f"{r['aggregation']},{r['encoder']},{r['m']},{r['seed']},"
            f"{r['param_count']},{r['best_epoch']},{r['loss']!r},{r['oa']!r},"
            f"{r['macc']!r},{r['miou']!r}")
        log(lines[-1])
    (run_dir / "ablate.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    log(f"wrote {run_dir / 'ablate.csv'}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    failures = []

    def progress(name, worst):
        status = "PASS" if worst < gradcheck.TOLERANCE else "FAIL"
        print(f"{name:30s} worst_rel_err {worst:12.3e}  {status}")
        if worst >= gradcheck.TOLERANCE:
            failures.append(name)

    gradcheck.run_all(instances=args.instances, seed=args.seed or 0, progress=progress)
    print("gradients were checked in float64, whatever --precision says")
    if failures:
        print(f"gradient check FAILED for: {', '.join(failures)}")
        return EXIT_GRADCHECK
    print("all gradient checks passed")
    return EXIT_OK


def cmd_gen_data(args) -> int:
    doc = load_config(args.config)
    model_cfg, _, data_cfg = resolve_configs(doc)
    dataset = dataio.make_dataset(data_cfg, model_cfg.task)
    manifest = dataio.save_dataset_scenes(
        dataset, _prepare_out_dir(args.out, args.overwrite))
    print(f"wrote {dataset.num_scenes} scenes and manifest {manifest}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_global_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    """The flags accepted on either side of the subcommand.

    The subcommand's copies default to SUPPRESS, so they set an attribute only
    when given and never overwrite a value given before the subcommand.
    """
    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--seed", type=int, default=default(None),
                        help="override the training seed")
    parser.add_argument("--jobs", type=int, default=default(1),
                        help="parallel workers for ablation cells")
    parser.add_argument("--overwrite", action="store_true", default=default(False),
                        help="allow reuse of an existing run directory")
    parser.add_argument("--precision", choices=("single", "double"),
                        default=default("double"), help="float precision for training")
    parser.add_argument("--quiet", action="store_true", default=default(False),
                        help="suppress stdout logs")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pointvector",
        description="Vector-encoding point-cloud networks at desk scale")
    _add_global_flags(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_global_flags(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", parents=[common],
                       help="train a model from a JSON config")
    p.add_argument("config")
    p.add_argument("--run-dir", default=None)
    p.add_argument("--name", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate a checkpoint, optionally perturbed")
    p.add_argument("checkpoint")
    p.add_argument("config")
    p.add_argument("--split", default="val")
    p.add_argument("--perturbations", choices=("none", "table8"), default="none")
    p.add_argument("--rescale-radius", action="store_true",
                   help="scale ball-query radii together with scaling perturbations")
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", parents=[common],
                       help="sweep aggregation/encoder/vector-dim cells")
    p.add_argument("config")
    p.add_argument("--run-dir", default=None)
    p.add_argument("--name", default=None)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gradcheck", parents=[common],
                       help="finite-difference check of every op")
    p.add_argument("--instances", type=int, default=20)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("gen-data", parents=[common],
                       help="write synthetic scenes and a manifest")
    p.add_argument("config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        with nnops.precision(args.precision):
            return args.func(args)
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except NumericFaultError as exc:
        print(f"numeric fault: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except PointVectorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc.filename}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
