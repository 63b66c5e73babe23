"""Evaluation reports: stable JSON/CSV emission and leaderboard merging.

Metric fields are deterministic under fixed seeds; wall-time fields are
informational and live under "timing" so consumers comparing runs can
skip them.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Union

from .data import DataError, json_field

CSV_HEADER = [
    "model",
    "defense",
    "axis",
    "budget_value",
    "norm",
    "eps",
    "n_iter_gradient",
    "n_gen",
    "seed",
    "clean_accuracy",
    "clean_auc",
    "clean_mcc",
    "clean_precision",
    "clean_recall",
    "attack_set_size",
    "robust_accuracy_constrained",
    "robust_accuracy_unconstrained",
]

# JSON types of the field annotations read by `from_dict`.
JSON_TYPES = {"str": str, "int": int, "float": (int, float), "dict": dict, "dict[str, float]": dict}


def _read_fields(cls, d, what: str, skip=()) -> dict:
    """`cls`'s fields (but `skip`) from the JSON object `d`, type-checked."""
    return {
        f.name: json_field(d, f.name, JSON_TYPES[f.type], what)
        for f in fields(cls) if f.name not in skip
    }


@dataclass
class BudgetEntry:
    """Robust metrics for one attack budget."""

    axis: str
    value: float
    budget: dict
    robust_accuracy_constrained: float
    robust_accuracy_unconstrained: float
    n_success_constrained: int
    n_success_unconstrained: int
    wall_time: float = 0.0

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "wall_time"}

    @classmethod
    def from_dict(cls, d: dict, wall_time: float = 0.0) -> "BudgetEntry":
        if not isinstance(d, dict):
            raise DataError(f"report budget entry must be a JSON object, got {type(d).__name__}")
        return cls(wall_time=wall_time, **_read_fields(cls, d, "report", ("wall_time",)))


@dataclass
class EvaluationReport:
    model: str
    defense: str
    seed: int
    clean: dict[str, float]
    attack_set_size: int
    budgets: list[BudgetEntry] = field(default_factory=list)
    config: dict = field(default_factory=dict)

    @property
    def headline(self) -> BudgetEntry:
        if not self.budgets:
            raise ValueError("report has no budget entries")
        return self.budgets[0]

    @property
    def robust_accuracy_constrained(self) -> float:
        return self.headline.robust_accuracy_constrained

    @property
    def robust_accuracy_unconstrained(self) -> float:
        return self.headline.robust_accuracy_unconstrained

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "model": self.model,
            "defense": self.defense,
            "seed": self.seed,
            "clean": dict(self.clean),
            "attack_set_size": self.attack_set_size,
            "budgets": [b.to_dict() for b in self.budgets],
            "config": dict(self.config),
            "timing": {
                "attack_seconds": [b.wall_time for b in self.budgets],
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EvaluationReport":
        timing = json_field(d, "timing", dict, "report", default={})
        times = json_field(timing, "attack_seconds", list, "report timing", default=[])
        budgets = [
            BudgetEntry.from_dict(b, wall_time=times[i] if i < len(times) else 0.0)
            for i, b in enumerate(json_field(d, "budgets", list, "report"))
        ]
        return cls(
            **_read_fields(cls, d, "report", ("budgets", "config")),
            budgets=budgets,
            config=json_field(d, "config", dict, "report", default={}),
        )

    def comparable_dict(self) -> dict:
        """Everything except wall-clock timing (for determinism checks)."""
        d = self.to_dict()
        d.pop("timing", None)
        return d


def emit_report(
    report: EvaluationReport, path: Union[str, Path], format: str = "json"
) -> None:
    path = Path(path)
    if format == "json":
        path.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    elif format == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for row in report_rows(report):
                writer.writerow(row)
    else:
        raise ValueError(f"unknown report format {format!r}")


def report_rows(report: EvaluationReport) -> list[list]:
    """One CSV row per (model, defense, budget)."""
    rows = []
    for b in report.budgets:
        rows.append(
            [
                report.model,
                report.defense,
                b.axis,
                b.value,
                b.budget.get("norm"),
                b.budget.get("eps"),
                b.budget.get("n_iter_gradient"),
                b.budget.get("n_gen"),
                report.seed,
                report.clean.get("accuracy"),
                report.clean.get("auc"),
                report.clean.get("mcc"),
                report.clean.get("precision"),
                report.clean.get("recall"),
                report.attack_set_size,
                b.robust_accuracy_constrained,
                b.robust_accuracy_unconstrained,
            ]
        )
    return rows


def load_report(path: Union[str, Path]) -> EvaluationReport:
    return EvaluationReport.from_dict(json.loads(Path(path).read_text()))


def merge_leaderboard(reports: list[EvaluationReport]) -> list[dict]:
    """Flatten reports into leaderboard rows, best constrained robust
    accuracy first (clean accuracy breaks ties)."""
    rows = [
        {
            "model": r.model,
            "defense": r.defense,
            "clean_accuracy": r.clean.get("accuracy"),
            "robust_accuracy_constrained": r.robust_accuracy_constrained,
            "robust_accuracy_unconstrained": r.robust_accuracy_unconstrained,
            "seed": r.seed,
        }
        for r in reports
    ]
    rows.sort(
        key=lambda row: (
            -row["robust_accuracy_constrained"],
            -(row["clean_accuracy"] or 0.0),
            row["model"],
        )
    )
    return rows


def write_leaderboard(rows: list[dict], path: Union[str, Path]) -> None:
    header = [
        "model",
        "defense",
        "clean_accuracy",
        "robust_accuracy_constrained",
        "robust_accuracy_unconstrained",
        "seed",
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([row[k] for k in header])
