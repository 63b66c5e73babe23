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

from .data import DataError, is_finite_number, json_field

REPORT_VERSION = 1

REPORT_FORMATS = ("json", "csv")

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
        values = _read_fields(cls, d, "report", ("wall_time",))
        for name in ("robust_accuracy_constrained", "robust_accuracy_unconstrained"):
            if not (is_finite_number(values[name]) and 0 <= values[name] <= 1):
                raise DataError(f"report field {name!r} must be a finite number in [0, 1], "
                                f"got {values[name]!r}")
        return cls(wall_time=wall_time, **values)


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

    def to_dict(self) -> dict:
        return {
            "version": REPORT_VERSION,
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
        version = json_field(d, "version", int, "report", default=None)
        if version != REPORT_VERSION:
            raise DataError(f"unsupported report version {version!r}")
        timing = json_field(d, "timing", dict, "report", default={})
        times = json_field(timing, "attack_seconds", list, "report timing", default=[])
        budgets = [
            BudgetEntry.from_dict(b, wall_time=times[i] if i < len(times) else 0.0)
            for i, b in enumerate(json_field(d, "budgets", list, "report"))
        ]
        values = _read_fields(cls, d, "report", ("budgets", "config"))
        for name, entries in (("clean", values["clean"].items()),
                              ("attack_seconds", enumerate(times))):
            for key, value in entries:
                if not is_finite_number(value):
                    raise DataError(f"report field {name!r} entry {key!r} must be a finite "
                                    f"number, got {value!r}")
        return cls(
            **values,
            budgets=budgets,
            config=json_field(d, "config", dict, "report", default={}),
        )

    def comparable_dict(self) -> dict:
        """Everything except wall-clock timing (for determinism checks)."""
        d = self.to_dict()
        d.pop("timing", None)
        return d


# The report CSV's columns, in order, each with its value for one
# (report, budget entry) pair.
REPORT_COLUMNS = {
    "model": lambda r, b: r.model,
    "defense": lambda r, b: r.defense,
    "axis": lambda r, b: b.axis,
    "budget_value": lambda r, b: b.value,
    **{key: (lambda r, b, key=key: b.budget.get(key))
       for key in ("norm", "eps", "n_iter_gradient", "n_gen")},
    "seed": lambda r, b: r.seed,
    **{f"clean_{key}": (lambda r, b, key=key: r.clean.get(key))
       for key in ("accuracy", "auc", "mcc", "precision", "recall")},
    "attack_set_size": lambda r, b: r.attack_set_size,
    "robust_accuracy_constrained": lambda r, b: b.robust_accuracy_constrained,
    "robust_accuracy_unconstrained": lambda r, b: b.robust_accuracy_unconstrained,
}

# The leaderboard's columns, valued at each report's headline entry.
LEADERBOARD_COLUMNS = (
    "model",
    "defense",
    "clean_accuracy",
    "robust_accuracy_constrained",
    "robust_accuracy_unconstrained",
    "seed",
)


def _write_csv(path: Union[str, Path], columns, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(columns))
        writer.writeheader()
        writer.writerows(rows)


def emit_report(
    report: EvaluationReport, path: Union[str, Path], format: str = "json"
) -> None:
    if format not in REPORT_FORMATS:
        raise ValueError(f"unknown report format {format!r}")
    if format == "json":
        Path(path).write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    else:
        _write_csv(path, REPORT_COLUMNS, report_rows(report))


def report_rows(report: EvaluationReport) -> list[dict]:
    """One CSV row per (model, defense, budget)."""
    return [{name: value(report, b) for name, value in REPORT_COLUMNS.items()}
            for b in report.budgets]


def load_report(path: Union[str, Path]) -> EvaluationReport:
    return EvaluationReport.from_dict(json.loads(Path(path).read_text()))


def merge_leaderboard(reports: list[EvaluationReport]) -> list[dict]:
    """Flatten reports into leaderboard rows, best constrained robust
    accuracy first (clean accuracy breaks ties)."""
    rows = [
        {name: REPORT_COLUMNS[name](r, r.headline) for name in LEADERBOARD_COLUMNS}
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
    _write_csv(path, LEADERBOARD_COLUMNS, rows)
