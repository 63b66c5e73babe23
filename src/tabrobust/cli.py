"""Command-line interface.

Subcommands: synth, train, advtrain, attack, sweep, report. Exit codes:
0 success, 1 validation error (bad arguments, missing or malformed
files), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .attacks.budget import AttackBudget
from .data import DataError, load_dataset, save_dataset
from .defense import ATConfig, AugmentConfig, adversarial_train, augment_dataset
from .engine import PenaltyConfig
from .harness import (
    EmptyAttackSet,
    SweepSpec,
    evaluate,
)
from .mlp import ReferenceModel, TrainConfig, TrainingDiverged, train
from .parser import ConstraintParseError, load_constraints, save_constraints
from .report import (
    emit_report,
    load_report,
    merge_leaderboard,
    write_leaderboard,
)
from .synth import InfeasibleSpec, SyntheticSpec, generate_synthetic


class CliError(Exception):
    """User-facing validation problem; exits with code 1."""


def _require_file(path: str, kind: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise CliError(f"{kind} file not found: {path}")
    return p


def _data_paths(args) -> tuple[Path, Path, Path]:
    data_dir = Path(args.data)
    csv_path = data_dir / "data.csv" if data_dir.is_dir() else data_dir
    schema_path = Path(args.schema) if args.schema else csv_path.parent / "schema.json"
    constraints_path = (
        Path(args.constraints) if args.constraints else csv_path.parent / "constraints.txt"
    )
    _require_file(str(csv_path), "data")
    _require_file(str(schema_path), "schema")
    _require_file(str(constraints_path), "constraints")
    return csv_path, schema_path, constraints_path


def _load_bundle(args):
    csv_path, schema_path, constraints_path = _data_paths(args)
    dataset, schema = load_dataset(csv_path, schema_path)
    cs = load_constraints(constraints_path, schema)
    return dataset, schema, cs


def _attack_budget(args) -> tuple[AttackBudget, PenaltyConfig]:
    config = {}
    if args.config:
        config = json.loads(_require_file(args.config, "config").read_text())
    tolerance = config.pop("tolerance", None)
    budget = AttackBudget.from_dict(config) if config else AttackBudget()
    overrides = {}
    for name in ("norm", "eps", "n_gen"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if getattr(args, "gradient_iters", None) is not None:
        overrides["n_iter_gradient"] = args.gradient_iters
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        budget = budget.with_(**overrides)
    cfg = PenaltyConfig(tolerance=tolerance) if tolerance is not None else PenaltyConfig()
    return budget, cfg


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=None, help="master seed")
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--schema", help="schema JSON (defaults to <data>/schema.json)")
    sub.add_argument(
        "--constraints", help="constraint file (defaults to <data>/constraints.txt)"
    )
    sub.add_argument("--out", help="output path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tabrobust",
        description="Constraint-aware adversarial robustness engine for tabular models",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("synth", help="generate a synthetic constrained dataset")
    p.add_argument("--rows", type=int, default=5000)
    p.add_argument("--features", type=int, default=6)
    p.add_argument("--template", default="benchmark")
    p.add_argument("--noise", type=float, default=0.05)
    _add_common(p)

    p = subs.add_parser("train", help="train the reference classifier")
    p.add_argument("--data", required=True, help="dataset directory or CSV")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    _add_common(p)

    p = subs.add_parser("advtrain", help="adversarially train the classifier")
    p.add_argument("--data", required=True)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--norm", choices=("L2", "Linf"), default=None)
    p.add_argument("--inner-iters", type=int, default=5)
    p.add_argument("--replay", type=float, default=0.5)
    p.add_argument("--augment", choices=("none", "cutmix"), default="none")
    p.add_argument("--augment-ratio", type=float, default=0.5)
    _add_common(p)

    p = subs.add_parser("attack", help="evaluate robust accuracy under attack")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--norm", choices=("L2", "Linf"), default=None)
    p.add_argument("--gradient-iters", type=int, default=None)
    p.add_argument("--n-gen", type=int, default=None)
    p.add_argument("--cap", type=int, default=500)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--name", default="reference-mlp")
    p.add_argument("--defense", default="none")
    _add_common(p)

    p = subs.add_parser("sweep", help="robust accuracy across an attack budget axis")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--axis", choices=("eps", "gradient_iters", "search_iters"),
                   required=True)
    p.add_argument("--values", help="comma-separated budget values")
    p.add_argument("--cap", type=int, default=500)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--name", default="reference-mlp")
    p.add_argument("--defense", default="none")
    _add_common(p)

    p = subs.add_parser("report", help="merge report JSONs into a leaderboard CSV")
    p.add_argument("--inputs", nargs="+", required=True)
    _add_common(p)

    return parser


def cmd_synth(args) -> int:
    out_dir = Path(args.out or "dataset")
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = SyntheticSpec(
        n_rows=args.rows,
        n_features=args.features,
        template=args.template,
        label_noise=args.noise,
    )
    dataset, schema, cs = generate_synthetic(spec, seed=args.seed or 0)
    save_dataset(dataset, schema, out_dir / "data.csv")
    schema.save(Path(args.schema) if args.schema else out_dir / "schema.json")
    save_constraints(
        cs, Path(args.constraints) if args.constraints else out_dir / "constraints.txt"
    )
    print(f"wrote {dataset.n_rows} rows to {out_dir}")
    return 0


def _train_config(args) -> TrainConfig:
    kwargs = {}
    if args.config:
        kwargs = json.loads(_require_file(args.config, "config").read_text())
    if args.epochs is not None:
        kwargs["epochs"] = args.epochs
    if getattr(args, "batch_size", None) is not None:
        kwargs["batch_size"] = args.batch_size
    if getattr(args, "lr", None) is not None:
        kwargs["learning_rate"] = args.lr
    if args.seed is not None:
        kwargs["seed"] = args.seed
    return TrainConfig(**kwargs)


def cmd_train(args) -> int:
    dataset, schema, _ = _load_bundle(args)
    cfg = _train_config(args)
    model = ReferenceModel(schema.n_features, seed=cfg.seed)
    model, history = train(model, dataset, cfg, schema=schema)
    out = Path(args.out or "model.json")
    model.save(out)
    if history.epochs:
        last = history.epochs[-1]
        print(
            f"trained {cfg.epochs} epochs; val AUC best={history.best_val_auc:.4f} "
            f"last={last.val_auc:.4f}; saved {out}"
        )
    else:
        print(f"saved untrained model to {out}")
    return 0


def cmd_advtrain(args) -> int:
    dataset, schema, cs = _load_bundle(args)
    cfg = _train_config(args)
    if args.augment != "none":
        dataset = augment_dataset(
            dataset, schema, cs,
            AugmentConfig(method=args.augment, ratio=args.augment_ratio,
                          seed=cfg.seed),
        )
    inner = AttackBudget(
        norm=args.norm or "L2",
        eps=args.eps if args.eps is not None else 0.5,
        n_iter_gradient=args.inner_iters,
        seed=cfg.seed,
    )
    at_cfg = ATConfig(inner_budget=inner, replay_fraction=args.replay)
    model = ReferenceModel(schema.n_features, seed=cfg.seed)
    model, history = adversarial_train(
        model, dataset, cs, at_cfg, cfg, schema
    )
    out = Path(args.out or "model_at.json")
    model.save(out)
    print(
        f"adversarially trained {cfg.epochs} epochs (inner eps={inner.eps}); "
        f"val AUC best={history.best_val_auc:.4f}; saved {out}"
    )
    return 0


def cmd_attack(args) -> int:
    _require_file(args.model, "model")
    dataset, schema, cs = _load_bundle(args)
    model = ReferenceModel.load(args.model)
    budget, cfg = _attack_budget(args)
    report = evaluate(
        model, cs, dataset, schema, budget,
        model_name=args.name, defense=args.defense,
        cfg=cfg, cap=args.cap, workers=args.workers,
    )
    out = Path(args.out or "report.json")
    emit_report(report, out, format=args.format)
    entry = report.headline
    print(
        f"clean acc={report.clean['accuracy']:.4f} "
        f"robust acc (constrained)={entry.robust_accuracy_constrained:.4f} "
        f"(unconstrained)={entry.robust_accuracy_unconstrained:.4f}; wrote {out}"
    )
    return 0


def cmd_sweep(args) -> int:
    _require_file(args.model, "model")
    dataset, schema, cs = _load_bundle(args)
    model = ReferenceModel.load(args.model)
    budget, cfg = _attack_budget(args)
    values = None
    if args.values:
        try:
            values = [float(v) for v in args.values.split(",") if v.strip()]
        except ValueError as e:
            raise CliError(f"bad --values: {e}") from None
    sweep = SweepSpec(axis=args.axis, values=values or [])
    report = evaluate(
        model, cs, dataset, schema, budget,
        model_name=args.name, defense=args.defense,
        cfg=cfg, cap=args.cap, workers=args.workers, sweep=sweep,
    )
    out = Path(args.out or "sweep.csv")
    emit_report(report, out, format="csv")
    for e in report.budgets:
        print(
            f"{args.axis}={e.value}: robust acc constrained="
            f"{e.robust_accuracy_constrained:.4f}"
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
    "attack": cmd_attack,
    "sweep": cmd_sweep,
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
    except (
        CliError,
        DataError,
        ConstraintParseError,
        InfeasibleSpec,
        EmptyAttackSet,
        json.JSONDecodeError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
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
