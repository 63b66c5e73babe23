"""Command-line interface.

Subcommands: synth, train, advtrain, attack, sweep, report. Exit codes:
0 success, 1 validation error (bad arguments, missing or malformed
files), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .attacks.budget import NORMS, AttackBudget
from .data import DataError, load_dataset, save_dataset
from .defense import AUGMENT_METHODS, ATConfig, AugmentConfig, adversarial_train, augment_dataset
from .engine import DEFAULT_PENALTY_CONFIG, PenaltyConfig
from .harness import SWEEP_AXES, SweepSpec, evaluate
from .mlp import ReferenceModel, TrainConfig, TrainHistory, TrainingDiverged, train
from .parser import load_constraints, save_constraints
from .report import REPORT_FORMATS, emit_report, load_report, merge_leaderboard, write_leaderboard
from .synth import SyntheticSpec, generate_synthetic


class CliError(Exception):
    """User-facing validation problem; exits with code 1."""


def _require_file(path: str | Path, kind: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise CliError(f"{kind} file not found: {path}")
    return p


def _load_bundle(args):
    """The --data dataset, its schema and, for a command that takes
    --constraints, its constraint set (else None). --schema and
    --constraints default to the files beside the data CSV."""
    data_dir = Path(args.data)
    csv_path = _require_file(data_dir / "data.csv" if data_dir.is_dir() else data_dir, "data")
    schema_path = _require_file(args.schema or csv_path.parent / "schema.json", "schema")
    constraints_path = _require_file(
        args.constraints or csv_path.parent / "constraints.txt", "constraints"
    ) if "constraints" in args else None
    dataset, schema = load_dataset(csv_path, schema_path)
    cs = load_constraints(constraints_path, schema) if constraints_path else None
    return dataset, schema, cs


# Flag (argparse dest) -> the config key or keyword it sets. Each of
# these flags defaults to None, so the library owns every default.
_FLAG_KEYS = {
    "epochs": "epochs", "batch_size": "batch_size", "lr": "learning_rate",
    "norm": "norm", "eps": "eps", "gradient_iters": "n_iter_gradient", "n_gen": "n_gen",
    "seed": "seed", "rows": "n_rows", "features": "n_features", "template": "template",
    "noise": "label_noise", "inner_iters": "n_iter_gradient", "replay": "replay_fraction",
    "augment_ratio": "ratio", "cap": "cap", "name": "model_name", "defense": "defense",
}


def _flags(args, keys) -> dict:
    """The given flags whose config key is among `keys`, by key."""
    return {
        key: getattr(args, flag) for flag, key in _FLAG_KEYS.items()
        if key in keys and getattr(args, flag, None) is not None
    }


def _config(args, keys) -> dict:
    """The --config file's JSON object (empty without one), which may
    hold only `keys`, with the given flags overriding its keys."""
    config = {}
    if args.config:
        config = json.loads(_require_file(args.config, "config").read_text())
        if not isinstance(config, dict):
            raise CliError(f"config must be a JSON object, got {type(config).__name__}")
    unknown = set(config) - set(keys)
    if unknown:
        raise CliError(f"unknown config keys: {sorted(unknown)}")
    return {**config, **_flags(args, keys)}


def _attack_budget(args) -> tuple[AttackBudget, PenaltyConfig]:
    config = _config(args, [*AttackBudget().to_dict(), "tolerance"])
    tolerance = config.pop("tolerance", None)
    cfg = DEFAULT_PENALTY_CONFIG if tolerance is None else PenaltyConfig(tolerance=tolerance)
    return AttackBudget.from_dict(config), cfg


def _train_config(args) -> TrainConfig:
    return TrainConfig(**_config(args, [f.name for f in fields(TrainConfig)]))


def _nonnegative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return int(text)


def _add_train_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--data", required=True, help="dataset directory or CSV")
    sub.add_argument("--epochs", type=int)
    sub.add_argument("--batch-size", type=int)
    sub.add_argument("--lr", type=float)


def _add_attack_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--model", required=True)
    sub.add_argument("--data", required=True)
    sub.add_argument("--cap", type=int)
    sub.add_argument("--name")
    sub.add_argument("--defense")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tabrobust",
        description="Constraint-aware adversarial robustness engine for tabular models",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("synth", help="generate a synthetic constrained dataset")
    p.add_argument("--rows", type=int)
    p.add_argument("--features", type=int)
    p.add_argument("--template")
    p.add_argument("--noise", type=float)

    p = subs.add_parser("train", help="train the reference classifier")
    _add_train_flags(p)

    p = subs.add_parser("advtrain", help="adversarially train the classifier")
    _add_train_flags(p)
    p.add_argument("--eps", type=float)
    p.add_argument("--norm", choices=NORMS)
    p.add_argument("--inner-iters", type=int)
    p.add_argument("--replay", type=float)
    p.add_argument("--augment", choices=AUGMENT_METHODS, default="none")
    p.add_argument("--augment-ratio", type=float)

    p = subs.add_parser("attack", help="evaluate robust accuracy under attack")
    _add_attack_flags(p)
    p.add_argument("--eps", type=float)
    p.add_argument("--norm", choices=NORMS)
    p.add_argument("--gradient-iters", type=int)
    p.add_argument("--n-gen", type=int)
    p.add_argument("--format", choices=REPORT_FORMATS, default="json")

    p = subs.add_parser("sweep", help="robust accuracy across an attack budget axis")
    _add_attack_flags(p)
    p.add_argument("--axis", choices=SWEEP_AXES, required=True)
    p.add_argument("--values", help="comma-separated budget values")

    p = subs.add_parser("report", help="merge report JSONs into a leaderboard CSV")
    p.add_argument("--inputs", nargs="+", required=True)

    # The shared flags, each on the subcommands whose handler reads it.
    for commands, flag, kwargs in (
        ("synth train advtrain attack sweep report", "--out", {"help": "output path"}),
        ("synth train advtrain attack sweep", "--seed",
         {"type": _nonnegative_int, "help": "master seed"}),
        ("synth train advtrain attack sweep", "--schema",
         {"help": "schema JSON (defaults to <data>/schema.json)"}),
        ("train advtrain attack sweep", "--config", {"help": "JSON config file"}),
        ("synth advtrain attack sweep", "--constraints",
         {"help": "constraint file (defaults to <data>/constraints.txt)"}),
    ):
        for command in commands.split():
            subs.choices[command].add_argument(flag, **kwargs)
    return parser


def cmd_synth(args) -> int:
    spec = SyntheticSpec(**_flags(args, [f.name for f in fields(SyntheticSpec)]))
    out_dir = Path(args.out or "dataset")
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset, schema, cs = generate_synthetic(spec, seed=args.seed or 0)
    save_dataset(dataset, schema, out_dir / "data.csv")
    schema.save(Path(args.schema or out_dir / "schema.json"))
    save_constraints(cs, Path(args.constraints or out_dir / "constraints.txt"))
    print(f"wrote {dataset.n_rows} rows to {out_dir}")
    return 0


def _save_model(model: ReferenceModel, history: TrainHistory, out: Path, trained: str) -> int:
    """Save the model and print what training did: `trained` and the
    validation AUCs, or that no epoch ran."""
    model.save(out)
    if history.epochs:
        print(
            f"{trained}; val AUC best={history.best_val_auc:.4f} (epoch {history.best_epoch}) "
            f"last={history.epochs[-1].val_auc:.4f}; saved {out}"
        )
    else:
        print(f"saved untrained model to {out}")
    return 0


def cmd_train(args) -> int:
    dataset, schema, _ = _load_bundle(args)
    cfg = _train_config(args)
    model = ReferenceModel(schema.n_features, seed=cfg.seed)
    model, history = train(model, dataset, cfg, schema=schema)
    return _save_model(model, history, Path(args.out or "model.json"),
                       f"trained {cfg.epochs} epochs")


def cmd_advtrain(args) -> int:
    dataset, schema, cs = _load_bundle(args)
    cfg = _train_config(args)
    dataset = augment_dataset(
        dataset, schema, cs,
        AugmentConfig(method=args.augment, seed=cfg.seed, **_flags(args, ("ratio",))),
    )
    inner = ATConfig().inner_budget.with_(
        seed=cfg.seed, **_flags(args, ("norm", "eps", "n_iter_gradient"))
    )
    at_cfg = ATConfig(inner_budget=inner, **_flags(args, ("replay_fraction",)))
    model = ReferenceModel(schema.n_features, seed=cfg.seed)
    model, history = adversarial_train(
        model, dataset, cs, at_cfg, cfg, schema
    )
    return _save_model(model, history, Path(args.out or "model_at.json"),
                       f"adversarially trained {cfg.epochs} epochs (inner eps={inner.eps})")


def cmd_evaluate(args) -> int:
    """`attack` (one budget, a JSON or CSV report) and `sweep` (one
    budget per value along an axis, a CSV report)."""
    _require_file(args.model, "model")
    dataset, schema, cs = _load_bundle(args)
    model = ReferenceModel.load(args.model)
    if model.n_features != schema.n_features:
        raise DataError(
            f"model {args.model} takes {model.n_features} features, "
            f"but the schema has {schema.n_features}"
        )
    budget, cfg = _attack_budget(args)
    if args.command == "attack":
        sweep, out, fmt = None, args.out or "report.json", args.format
    else:
        try:
            values = [float(v) for v in (args.values or "").split(",") if v.strip()]
        except ValueError as e:
            raise CliError(f"bad --values: {e}") from None
        sweep, out, fmt = SweepSpec(axis=args.axis, values=values), args.out or "sweep.csv", "csv"
    report = evaluate(
        model, cs, dataset, schema, budget, cfg=cfg, sweep=sweep,
        **_flags(args, ("cap", "model_name", "defense")),
    )
    emit_report(report, Path(out), format=fmt)
    print(f"clean acc={report.clean['accuracy']:.4f}")
    for e in report.budgets:
        print(
            f"{e.axis}={e.value}: robust acc (constrained)={e.robust_accuracy_constrained:.4f} "
            f"(unconstrained)={e.robust_accuracy_unconstrained:.4f}"
        )
    print(f"wrote {out}")
    return 0


def cmd_report(args) -> int:
    reports = []
    for path in args.inputs:
        _require_file(path, "report")
        reports.append(load_report(path))
    rows = merge_leaderboard(reports)
    out = Path(args.out or "leaderboard.csv")
    write_leaderboard(rows, out)
    print(f"wrote {len(rows)} leaderboard rows to {out}")
    return 0


_COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "advtrain": cmd_advtrain,
    "attack": cmd_evaluate,
    "sweep": cmd_evaluate,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors; fold those into the
        # validation-error code, keep 0 for --help.
        return 0 if e.code == 0 else 1
    try:
        return _COMMANDS[args.command](args)
    except (CliError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except TrainingDiverged as e:
        print(f"runtime failure: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
