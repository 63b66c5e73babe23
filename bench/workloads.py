"""The two benchmark workloads and the checks on their outputs.

Each workload is a closed loop: one client, one process, workers=1. It has
a set-up (input generation plus training the reference model) and an
operation, a call into the public `tabrobust` API that the benchmark
times. Attack operations cycle through disjoint slices of the dataset, so
a run attacks up to SLICES x cap distinct rows; the defence part of an
operation repeats the same training. Every operation's output is
re-checked here, outside the library's own checks.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

from tabrobust import defense, harness, mlp
from tabrobust.attacks import AttackBudget, validity_mask
from tabrobust.data import Dataset, DatasetSchema, validate_against_schema
from tabrobust.engine import PenaltyConfig, check
from tabrobust.expressions import ConstraintSet
from tabrobust.mlp import ReferenceModel, TrainConfig
from tabrobust.report import EvaluationReport
from tabrobust.synth import SyntheticSpec, generate_synthetic

from wide import generate_wide

REFERENCE_EPOCHS = 20
# The workload seed makes the data; weight initialisation and batch order
# stay fixed, which keeps attack difficulty, and so the work per attacked
# row, from varying with the seed more than the data makes it.
TRAIN_SEED = 0
SLICES = 20  # attack operations cycle through this many disjoint dataset slices

NARROW_ROWS = 5000
NARROW_CAP = 10  # attacked rows per attack-narrow operation
NARROW_EPS = (0.5, 5.0)  # the default budget's eps, then the harness's largest
WIDE_ROWS = 1000
WIDE_CAP = 2  # a wide row takes about 2 s on one 2.1 GHz Xeon core
AUGMENT_RATIO = 0.1
AT_EPOCHS = 1


@dataclass
class Setup:
    dataset: Dataset
    schema: DatasetSchema
    cs: ConstraintSet
    model: ReferenceModel
    train_s: float
    train_rows: int  # rows x epochs of the reference model's training

    def digest(self) -> str:
        return _digest(self.dataset.X, self.dataset.y, *self.model.get_params())


@dataclass
class OpResult:
    digest: str
    attack_rows: int
    attack_s: float
    train_rows: int = 0
    train_s: float = 0.0
    clean_acc: Optional[float] = None
    robust: Optional[list] = None  # (constrained, unconstrained) robust accuracy per budget


class CheckFailed(AssertionError):
    """An operation's output failed the benchmark's independent checks."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p).tobytes())
        else:
            h.update(json.dumps(p, sort_keys=True).encode())
    return h.hexdigest()[:16]


def _outputs(results) -> list[np.ndarray]:
    """Every candidate the attacks returned, for digests: the report's
    counts alone would not show a change in what the attack found."""
    return [
        np.array([a for smp in r.samples for a in (smp.candidate, *smp.attempts.values())])
        for r in results
    ]


def _fit(dataset: Dataset, schema: DatasetSchema, cs: ConstraintSet) -> Setup:
    model = ReferenceModel(schema.n_features, seed=TRAIN_SEED)
    start = time.perf_counter()
    model, _ = mlp.train(
        model, dataset, TrainConfig(epochs=REFERENCE_EPOCHS, seed=TRAIN_SEED), schema=schema
    )
    train_s = time.perf_counter() - start
    return Setup(dataset, schema, cs, model, train_s, dataset.n_rows * REFERENCE_EPOCHS)


def _slice(dataset: Dataset, k: int) -> Dataset:
    size = dataset.n_rows // SLICES
    k %= SLICES
    return Dataset(dataset.X[k * size : (k + 1) * size], dataset.y[k * size : (k + 1) * size])


def _require_attack_sets(s: Setup, cap: int) -> None:
    """Every slice must hold at least `cap` attackable rows, or an
    operation would silently attack fewer."""
    attackable = (s.dataset.y == s.schema.critical_class) & (
        s.model.predict(s.dataset.X) == s.dataset.y
    )
    size = s.dataset.n_rows // SLICES
    counts = attackable[: size * SLICES].reshape(SLICES, size).sum(axis=1)
    _require(bool(np.all(counts >= cap)),
             f"a slice has {counts.min()} attackable rows, fewer than the cap {cap}")


@contextmanager
def captured_attacks():
    """Record every AttackResult the harness gets from `caa`, so the
    benchmark can re-check what the report counted."""
    results = []
    original = harness.caa

    def recording(*args, **kwargs):
        out = original(*args, **kwargs)
        results.append(out)
        return out

    harness.caa = recording
    try:
        yield results
    finally:
        harness.caa = original


def verify_entry(entry, result, model, s: Setup, data: Dataset, budget: AttackBudget) -> None:
    """Recount one budget's validated successes from the attack output.

    Every attempt is re-checked with validity_mask (with and without the
    domain constraints) and the model's argmax; a row counts when any of
    its attempts passes, as in the harness.
    """
    cfg = PenaltyConfig()
    samples = result.samples
    n = len(samples)
    y = data.y[[smp.row_index for smp in samples]]
    owner = np.array([i for i, smp in enumerate(samples) for _ in smp.attempts])
    cand = np.array([a for smp in samples for a in smp.attempts.values()])
    orig = np.array([samples[i].original for i in owner])
    mis = model.predict_proba_scaled(cand).argmax(axis=1) != y[owner]
    scaler = model.scaler
    valid_c = validity_mask(s.schema, scaler, s.cs, orig, cand, budget, cfg)
    valid_u = validity_mask(s.schema, scaler, s.cs, orig, cand, budget, cfg, include_constraints=False)
    con = np.bincount(owner, weights=mis & valid_c, minlength=n) > 0
    unc = np.bincount(owner, weights=mis & valid_u, minlength=n) > 0

    _require(int(con.sum()) == entry.n_success_constrained,
             f"report counts {entry.n_success_constrained} constrained successes, recount {con.sum()}")
    _require(int(unc.sum()) == entry.n_success_unconstrained,
             f"report counts {entry.n_success_unconstrained} unconstrained successes, recount {unc.sum()}")
    _require(not np.any(con & ~unc), "a constrained success fails unconstrained validation")
    _require(entry.n_success_constrained <= entry.n_success_unconstrained,
             "more constrained than unconstrained successes")
    _require(entry.robust_accuracy_constrained == 1.0 - con.sum() / n
             and entry.robust_accuracy_unconstrained == 1.0 - unc.sum() / n,
             "robust accuracy disagrees with the success counts")
    final = [i for i, smp in enumerate(samples) if smp.success]
    if final:
        fc = np.array([samples[i].candidate for i in final])
        fo = np.array([samples[i].original for i in final])
        ok = validity_mask(s.schema, scaler, s.cs, fo, fc, budget, cfg)
        ok &= model.predict_proba_scaled(fc).argmax(axis=1) != y[final]
        _require(bool(np.all(ok)), "a finalized success does not re-validate")


class Workload:
    """One workload: `setup()` builds the inputs from the seed, `op(s, k)`
    runs the k-th timed operation and checks its output."""

    name = ""
    trace_ops = 1  # operations in the traced run

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> Setup:
        raise NotImplementedError

    def op(self, s: Setup, k: int) -> OpResult:
        raise NotImplementedError

    def clean_acc(self, s: Setup, model: Optional[ReferenceModel] = None) -> float:
        """Accuracy on the whole dataset of `model`, by default the reference model."""
        model = s.model if model is None else model
        return float((model.predict(s.dataset.X) == s.dataset.y).mean())


class AttackNarrow(Workload):
    """North star on the 5000-row `benchmark` template (6 features, 2
    constraints): budget_sweep over eps 0.5, 5.0. Its first point is the
    default-budget evaluation, where MOEVA's survival sort dominates; the
    second runs the carried-candidate path (caa with known_candidates)."""

    name = "attack-narrow"
    trace_ops = 4
    cap = NARROW_CAP

    def setup(self) -> Setup:
        ds, schema, cs = generate_synthetic(SyntheticSpec(n_rows=NARROW_ROWS), self.seed)
        s = _fit(ds, schema, cs)
        _require_attack_sets(s, self.cap)
        return s

    def op(self, s: Setup, k: int) -> OpResult:
        data = _slice(s.dataset, k)
        spec = harness.SweepSpec("eps", list(NARROW_EPS))
        with captured_attacks() as results:
            start = time.perf_counter()
            entries = harness.budget_sweep(
                s.model, s.cs, data, s.schema, spec, cap=self.cap, workers=1
            )
            elapsed = time.perf_counter() - start
        _require(len(results) == len(entries), "one attack per sweep value expected")
        _require(entries[0].budget == AttackBudget().to_dict(),
                 "the first sweep point is not the default budget")
        for entry, result in zip(entries, results):
            verify_entry(entry, result, s.model, s, data, AttackBudget.from_dict(entry.budget))
        robust = [e.robust_accuracy_constrained for e in entries]
        _require(all(a >= b for a, b in zip(robust, robust[1:])),
                 "robust accuracy increases along the eps sweep")
        n = len(results[0].samples)
        _require(n == self.cap, "attack set smaller than the cap")
        report = EvaluationReport(
            model="reference-mlp", defense="none", seed=0, clean={},
            attack_set_size=n, budgets=entries,
        )
        return OpResult(
            digest=_digest(report.comparable_dict(), *_outputs(results)),
            attack_rows=n * len(entries),
            attack_s=elapsed,
            robust=[(e.robust_accuracy_constrained, e.robust_accuracy_unconstrained) for e in entries],
        )


class DefendAttackWide(Workload):
    """Cutmix augmentation plus adversarial fine-tuning of the reference
    model on the wide schema (224 features, 128 constraints), then the
    default-budget evaluation of the defended model. Cutmix checks and
    repairs one row at a time and CAPGD takes batched penalty gradients
    (no MOEVA while training); in the evaluation the constraint engine and
    MOEVA's per-gene-slot loops dominate, the survival sort does not."""

    name = "defend-attack-wide"
    trace_ops = 2
    cap = WIDE_CAP

    def setup(self) -> Setup:
        ds, schema, cs = generate_wide(WIDE_ROWS, self.seed)
        s = _fit(ds, schema, cs)
        _require_attack_sets(s, self.cap)
        return s

    def op(self, s: Setup, k: int) -> OpResult:
        model = ReferenceModel(s.schema.n_features, scaler=s.model.scaler)
        model.set_params(s.model.get_params())
        start = time.perf_counter()
        augmented = defense.augment_dataset(
            s.dataset, s.schema, s.cs,
            defense.AugmentConfig(method="cutmix", ratio=AUGMENT_RATIO, seed=self.seed),
        )
        model, _ = defense.adversarial_train(
            model, augmented, s.cs, defense.ATConfig(),
            TrainConfig(epochs=AT_EPOCHS, seed=TRAIN_SEED), s.schema,
        )
        train_s = time.perf_counter() - start

        new_rows = augmented.X[s.dataset.n_rows :]
        _require(len(new_rows) == round(AUGMENT_RATIO * s.dataset.n_rows),
                 f"cutmix produced {len(new_rows)} rows")
        validate_against_schema(new_rows, s.schema)
        _require(bool(np.all(check(s.cs, new_rows))), "an augmented row violates the constraints")

        data = _slice(s.dataset, k)
        budget = AttackBudget()
        with captured_attacks() as results:
            start = time.perf_counter()
            report = harness.evaluate(model, s.cs, data, s.schema, budget, cap=self.cap, workers=1)
            attack_s = time.perf_counter() - start
        entry = report.headline
        verify_entry(entry, results[0], model, s, data, budget)
        _require(report.attack_set_size == self.cap, "attack set smaller than the cap")
        return OpResult(
            digest=_digest(augmented.X, augmented.y, *model.get_params(), report.comparable_dict(),
                           *_outputs(results)),
            attack_rows=report.attack_set_size,
            attack_s=attack_s,
            train_rows=augmented.n_rows * AT_EPOCHS,
            train_s=train_s,
            clean_acc=self.clean_acc(s, model),
            robust=[(entry.robust_accuracy_constrained, entry.robust_accuracy_unconstrained)],
        )


WORKLOADS = {w.name: w for w in (AttackNarrow, DefendAttackWide)}
