"""Per-layer tracing for the traced benchmark run.

Wrappers are installed where each function is called, not where it is
defined: `from .engine import fix` binds a name in the calling module,
so patching `tabrobust.engine.fix` would record nothing. Modules are
resolved through importlib (sys.modules), because `tabrobust.attacks.caa`,
`.capgd` and `.moeva` are shadowed on the package by the functions that
`attacks/__init__.py` re-exports; attribute access would return the
function, not the module.

Each wrapper opens a span. A span's self time is its duration minus the
durations of the spans opened inside it, so `moeva.self_s` is MOEVA's own
loops (crossover, mutation, bookkeeping) without the engine, MLP or
survival-sort calls it makes.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

NARROW = ("attack-narrow",)
WIDE = ("defend-attack-wide",)
ALL = NARROW + WIDE


def _rows(x) -> int:
    return int(np.atleast_2d(np.asarray(x)).shape[0])


@dataclass
class Site:
    """One wrapped call site.

    module/attr: where the name is looked up at call time; key: the
    layer.function the span is recorded under; rows(args, out): rows of
    work in the call; after(tracer, args, out): extra counters; heavy:
    workloads on which the wrapper must fire (the self-test).
    """

    module: str
    attr: str
    key: str
    heavy: tuple[str, ...]
    rows: Optional[Callable] = None
    after: Optional[Callable] = None


@dataclass
class Stat:
    calls: int = 0
    rows: int = 0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)


def _count_nonfinite(t, args, out):
    total = out[0] if isinstance(out, tuple) else out
    t.count("engine.nonfinite_rows", int(np.sum(~np.isfinite(np.atleast_1d(total)))))


def _count_fix(t, args, out):
    changed = np.any(np.atleast_2d(out) != np.atleast_2d(args[1]), axis=1)
    t.count("engine.fix.changed_rows", int(changed.sum()))


def _count_valid(*prefixes):
    def after(t, args, out):
        for prefix in prefixes:
            t.count(f"{prefix}.valid_rows", int(np.sum(out)))
            t.count(f"{prefix}.checked_rows", int(np.size(out)))

    return after


def _count_capgd(t, args, out):
    t.count("attacks.capgd.misclassified_rows", int(np.sum(out.misclassified)))


def _count_moeva(t, args, out):
    t.count("attacks.moeva.successes", int(out.success))


def _count_caa(t, args, out):
    t.count("attacks.caa.carried_rows", sum(s.stage == "carried" for s in out.samples))


def _count_masks(t, args, out):
    t.count("harness.success_constrained", int(out[0].sum()))
    t.count("harness.success_unconstrained", int(out[1].sum()))


def _count_cutmix(t, args, out):
    t.count("defense.cutmix_tabular.accepted", int(out is not None))


def _first_rows(i):
    return lambda args, out: _rows(args[i])


_MLP = "tabrobust.mlp"
SITES = [
    # attacks.moeva
    Site("tabrobust.attacks.moeva", "rank_and_crowding", "attacks.moeva.rank_and_crowding",
         ALL, rows=_first_rows(0)),
    Site("tabrobust.attacks.caa", "moeva", "attacks.moeva.moeva", ALL,
         rows=lambda args, out: 1, after=_count_moeva),
    # engine
    Site("tabrobust.attacks.moeva", "total_penalty", "engine.total_penalty", ALL,
         rows=_first_rows(1), after=_count_nonfinite),
    Site("tabrobust.attacks.capgd", "total_penalty", "engine.total_penalty", ALL,
         rows=_first_rows(1), after=_count_nonfinite),
    Site("tabrobust.attacks.capgd", "total_penalty_with_gradient",
         "engine.total_penalty_with_gradient", ALL, rows=_first_rows(1), after=_count_nonfinite),
    Site("tabrobust.attacks.validation", "check", "engine.check", ALL, rows=_first_rows(1)),
    Site("tabrobust.defense", "check", "engine.check", WIDE, rows=_first_rows(1)),
    Site("tabrobust.attacks.moeva", "fix", "engine.fix", ALL, rows=_first_rows(1),
         after=_count_fix),
    Site("tabrobust.attacks.capgd", "fix", "engine.fix", ALL, rows=_first_rows(1),
         after=_count_fix),
    Site("tabrobust.defense", "fix", "engine.fix", WIDE, rows=_first_rows(1),
         after=_count_fix),
    # mlp: methods are looked up on the class at every call site
    Site(_MLP, "ReferenceModel.predict_proba_scaled", "mlp.predict_proba_scaled", ALL,
         rows=_first_rows(1)),
    Site(_MLP, "ReferenceModel.input_gradient", "mlp.input_gradient", ALL, rows=_first_rows(1)),
    Site(_MLP, "ReferenceModel.loss_and_gradients", "mlp.loss_and_gradients", ALL,
         rows=_first_rows(1)),
    Site(_MLP, "train", "mlp.train", ALL, rows=lambda args, out: args[1].n_rows),
    Site("tabrobust.defense", "train", "mlp.train", WIDE, rows=lambda args, out: args[1].n_rows),
    # attacks.capgd
    Site("tabrobust.attacks.caa", "capgd", "attacks.capgd.capgd", ALL, rows=_first_rows(2),
         after=_count_capgd),
    Site("tabrobust.defense", "capgd", "attacks.capgd.capgd", WIDE, rows=_first_rows(2),
         after=_count_capgd),
    # attacks.projection / attacks.validation
    Site("tabrobust.attacks.moeva", "project", "attacks.projection.project", ALL,
         rows=_first_rows(0)),
    Site("tabrobust.attacks.capgd", "project", "attacks.projection.project", ALL,
         rows=_first_rows(0)),
    Site("tabrobust.attacks.caa", "validity_mask", "attacks.validation.validity_mask", ALL,
         rows=_first_rows(4), after=_count_valid("attacks.validation.validity_mask")),
    Site("tabrobust.harness", "validity_mask", "attacks.validation.validity_mask",
         NARROW, rows=_first_rows(4),
         after=_count_valid("attacks.validation.validity_mask")),
    Site("tabrobust.defense", "validity_mask", "attacks.validation.validity_mask", WIDE,
         rows=_first_rows(4),
         after=_count_valid("attacks.validation.validity_mask", "defense.adv")),
    # attacks.caa / harness
    Site("tabrobust.harness", "caa", "attacks.caa.caa", ALL, rows=_first_rows(2),
         after=_count_caa),
    Site("tabrobust.harness", "success_masks", "harness.success_masks", ALL,
         rows=lambda args, out: len(out[0]), after=_count_masks),
    Site("tabrobust.harness", "select_attack_set", "harness.select_attack_set", ALL),
    Site("tabrobust.harness", "evaluate", "harness.evaluate", WIDE),
    Site("tabrobust.harness", "budget_sweep", "harness.budget_sweep", NARROW),
    # defense
    Site("tabrobust.defense", "cutmix_tabular", "defense.cutmix_tabular", WIDE,
         after=_count_cutmix),
    Site("tabrobust.defense", "augment_dataset", "defense.augment_dataset", WIDE),
    Site("tabrobust.defense", "adversarial_train", "defense.adversarial_train", WIDE),
]


def _owner(site: Site):
    """(object holding the name, attribute name) for a call site."""
    obj = importlib.import_module(site.module)
    *path, name = site.attr.split(".")
    for part in path:
        obj = getattr(obj, part)
    return obj, name


class Tracer:
    """Span stack plus counters; `install` patches every call site and
    `uninstall` restores the originals."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, float] = {}
        self.fired: set[int] = set()
        self._stack: list[list[float]] = []
        self._saved: list[tuple[object, str, Callable]] = []

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def _wrap(self, site_id: int, site: Site, fn: Callable) -> Callable:
        stat = self.stats.setdefault(site.key, Stat())

        def wrapper(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += dur
                stat.calls += 1
                stat.self_s += dur - frame[0]
                stat.durations.append(dur)
                self.fired.add(site_id)
            if site.rows is not None:
                stat.rows += site.rows(args, out)
            if site.after is not None:
                site.after(self, args, out)
            return out

        return wrapper

    def install(self) -> None:
        for site_id, site in enumerate(SITES):
            owner, name = _owner(site)
            original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(site_id, site, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def missing(self, workload: str) -> list[str]:
        """Call sites marked heavy for `workload` that never fired."""
        return [
            f"{s.module}.{s.attr}"
            for i, s in enumerate(SITES)
            if workload in s.heavy and i not in self.fired
        ]

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics: <layer>.<fn>.{calls,rows,self_s} plus ratios."""
        st = lambda key: self.stats.get(key, Stat())  # noqa: E731
        c = lambda name: self.counters.get(name, 0)  # noqa: E731
        ratio = lambda num, den: num / den if den else 0.0  # noqa: E731
        out: dict[str, float] = {}

        def spans(key, fields=("calls", "rows", "self_s")):
            s = st(key)
            for f in fields:
                out[f"{key}.{f}"] = getattr(s, f)

        spans("attacks.moeva.rank_and_crowding")
        spans("attacks.moeva.moeva", ("calls", "self_s"))
        per_row = sorted(st("attacks.moeva.moeva").durations)
        n = len(per_row)
        out["attacks.moeva.moeva.p50_s"] = per_row[n // 2] if n else 0.0
        # Slowest call that still has ten slower calls beyond it.
        out["attacks.moeva.moeva.tail_s"] = per_row[max(n // 2, n - 11)] if n else 0.0
        out["attacks.moeva.moeva.success_frac"] = ratio(c("attacks.moeva.successes"), n)

        for fn in ("total_penalty", "total_penalty_with_gradient", "check", "fix"):
            spans(f"engine.{fn}")
        out["engine.fix.changed_frac"] = ratio(c("engine.fix.changed_rows"), st("engine.fix").rows)
        out["engine.nonfinite_rows"] = c("engine.nonfinite_rows")

        for fn in ("predict_proba_scaled", "input_gradient", "loss_and_gradients"):
            spans(f"mlp.{fn}")
        spans("mlp.train", ("calls", "self_s"))

        spans("attacks.capgd.capgd")
        out["attacks.capgd.capgd.success_frac"] = ratio(
            c("attacks.capgd.misclassified_rows"), st("attacks.capgd.capgd").rows
        )
        spans("attacks.projection.project")
        spans("attacks.validation.validity_mask")
        out["attacks.validation.validity_mask.valid_frac"] = ratio(
            c("attacks.validation.validity_mask.valid_rows"),
            c("attacks.validation.validity_mask.checked_rows"),
        )

        spans("attacks.caa.caa")
        out["attacks.caa.caa.carried_frac"] = ratio(
            c("attacks.caa.carried_rows"), st("attacks.caa.caa").rows
        )
        spans("harness.success_masks")
        masked = st("harness.success_masks").rows
        out["harness.success_masks.constrained_frac"] = ratio(c("harness.success_constrained"), masked)
        out["harness.success_masks.unconstrained_frac"] = ratio(
            c("harness.success_unconstrained"), masked
        )
        for fn in ("select_attack_set", "evaluate", "budget_sweep"):
            spans(f"harness.{fn}", ("calls", "self_s"))

        spans("defense.cutmix_tabular", ("calls", "self_s"))
        out["defense.cutmix_tabular.accept_frac"] = ratio(
            c("defense.cutmix_tabular.accepted"), st("defense.cutmix_tabular").calls
        )
        out["defense.adv_valid_frac"] = ratio(c("defense.adv.valid_rows"), c("defense.adv.checked_rows"))
        for fn in ("augment_dataset", "adversarial_train"):
            spans(f"defense.{fn}", ("calls", "self_s"))
        return out
