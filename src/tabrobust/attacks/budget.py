"""Attack budgets and the gradient attack's checkpoint schedule."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from fractions import Fraction

from ..data import is_finite_number, is_int_at_least

NORMS = ("L2", "Linf")


@dataclass(frozen=True)
class AttackBudget:
    """Perturbation and iteration budget, in scaled [0, 1] space.

    Defaults are the standard ensemble configuration: 10 gradient
    iterations; at most 100 generations of 100 offspring with 200
    survivors (a row's search stops once it holds a validated success).
    `lam` weighs the constraint penalty inside the gradient attack's
    objective (adapted upward when the best candidate stays invalid).
    """

    norm: str = "L2"
    eps: float = 0.5
    n_iter_gradient: int = 10
    n_gen: int = 100
    n_off: int = 100
    n_pop: int = 200
    seed: int = 0
    lam: float = 0.5

    def __post_init__(self):
        if self.norm not in NORMS:
            raise ValueError(f"norm must be one of {NORMS}, got {self.norm!r}")
        for name in ("eps", "lam"):
            value = getattr(self, name)
            if not (is_finite_number(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")
        for name, low in (("n_iter_gradient", 1), ("n_gen", 0), ("n_off", 1), ("n_pop", 1),
                          ("seed", 0)):
            value = getattr(self, name)
            if not is_int_at_least(value, low):
                raise ValueError(f"{name} must be an integer in [{low}, 2**63 - 1], got {value!r}")
            object.__setattr__(self, name, int(value))  # numpy's too, for JSON

    def with_(self, **kwargs) -> "AttackBudget":
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["lambda"] = d.pop("lam")
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "AttackBudget":
        unknown = set(d) - set(cls().to_dict())
        if unknown:
            raise ValueError(f"unknown attack config keys: {sorted(unknown)}")
        kwargs = {k: v for k, v in d.items() if k != "lambda"}
        if "lambda" in d:
            kwargs["lam"] = d["lambda"]
        return cls(**kwargs)


def checkpoint_schedule(n_iter: int) -> list[int]:
    """Step-halving checkpoints for an n_iter-iteration gradient attack.

    Built from the fraction sequence p_0 = 0, p_1 = 0.22,
    p_{j+1} = p_j + max(p_j - p_{j-1} - 0.03, 0.06), with checkpoints
    ceil(p_j * n_iter) capped at n_iter. Exact rational arithmetic
    avoids float-rounding artifacts in the ceil.
    """
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    p_prev, p_cur = Fraction(0), Fraction(22, 100)
    points = {0}
    step_floor = Fraction(6, 100)
    shrink = Fraction(3, 100)
    while True:
        w = math.ceil(p_cur * n_iter)
        if w >= n_iter:
            points.add(n_iter)
            break
        points.add(w)
        p_prev, p_cur = p_cur, p_cur + max(p_cur - p_prev - shrink, step_floor)
    return sorted(points)
