"""Attacks: schedule, projection, gradient stage, search stage, ensemble."""

import importlib
from dataclasses import replace

import numpy as np
import pytest
import reference_mutate
from conftest import column_slots
from hypothesis import given, settings
from hypothesis import strategies as st

from tabrobust.attacks import (
    AttackBudget,
    caa,
    capgd,
    checkpoint_schedule,
    distance,
    moeva,
    project,
    validity_mask,
)
from tabrobust.attacks.capgd import GradientAttackOutput, _lex_less
from tabrobust.attacks.moeva import (
    MUTATION_PROB,
    SIGMA_FRACTION,
    SearchAttackOutput,
    _crossover_batch,
    _mutate,
    rank_and_crowding,
    slot_layout,
    survival_select,
)
from tabrobust.attacks.projection import BOX_SLACK, DISTANCE_SLACK, in_ball_and_box
from tabrobust.data import DatasetSchema, FeatureMetadata, MinMaxScaler
from tabrobust.engine import PenaltyConfig
from tabrobust.expressions import (
    Constant,
    ConstraintSet,
    Feature,
    Log,
    Mul,
    Pow,
    Relation,
    SafeDiv,
    Sub,
)
from tabrobust.harness import select_attack_set
from tabrobust.mlp import ReferenceModel, misclassified
from tabrobust.parser import parse_constraint

moeva_module = importlib.import_module("tabrobust.attacks.moeva")
caa_module = importlib.import_module("tabrobust.attacks.caa")

# Hand-iterated from p_0 = 0, p_1 = 0.22,
# p_{j+1} = p_j + max(p_j - p_{j-1} - 0.03, 0.06):
# p = 0, 0.22, 0.41, 0.57, 0.70, 0.80, 0.87, 0.93, 0.99, 1.05, ...
EXPECTED_SCHEDULES = {
    1: [0, 1],
    5: [0, 2, 3, 4, 5],
    10: [0, 3, 5, 6, 7, 8, 9, 10],
    20: [0, 5, 9, 12, 14, 16, 18, 19, 20],
    100: [0, 22, 41, 57, 70, 80, 87, 93, 99, 100],
}


class TestCheckpointSchedule:
    @pytest.mark.parametrize("n_iter,expected", sorted(EXPECTED_SCHEDULES.items()))
    def test_matches_hand_iteration(self, n_iter, expected):
        assert checkpoint_schedule(n_iter) == expected

    def test_nondecreasing_and_capped(self):
        for n in (2, 3, 7, 13, 37, 250):
            sched = checkpoint_schedule(n)
            assert sched == sorted(sched)
            assert sched[0] == 0 and sched[-1] == n

    def test_fraction_steps_at_least_006(self):
        from fractions import Fraction

        p_prev, p_cur = Fraction(0), Fraction(22, 100)
        for _ in range(30):
            step = max(p_cur - p_prev - Fraction(3, 100), Fraction(6, 100))
            assert step >= Fraction(6, 100)
            p_prev, p_cur = p_cur, p_cur + step

    def test_invalid_n_iter(self):
        with pytest.raises(ValueError):
            checkpoint_schedule(0)


class TestAttackBudget:
    def test_defaults_match_standard_configuration(self):
        b = AttackBudget()
        assert (b.n_iter_gradient, b.n_gen, b.n_off, b.n_pop) == (10, 100, 100, 200)
        assert b.norm == "L2" and b.eps == 0.5

    def test_lambda_key_round_trip(self):
        b = AttackBudget(lam=0.25, eps=1.0)
        d = b.to_dict()
        assert d["lambda"] == 0.25
        assert AttackBudget.from_dict(d) == b

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown attack config"):
            AttackBudget.from_dict({"epsilon": 1.0})
        with pytest.raises(ValueError, match="unknown attack config"):
            AttackBudget.from_dict({"tolerance": 0.01})

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            AttackBudget(eps=-1)
        with pytest.raises(ValueError, match="finite"):
            AttackBudget(eps=float("nan"))
        with pytest.raises(ValueError):
            AttackBudget(norm="L1")

    @pytest.mark.parametrize("kwargs,message", [
        # A NaN weight made CAPGD's objective NaN: no step, no success.
        ({"lam": float("nan")}, "lam must be finite"),
        ({"lam": float("inf")}, "lam must be finite"),
        ({"eps": "0.5"}, "eps must be finite"),
        ({"n_gen": 2.5}, "n_gen must be an integer"),
        ({"n_off": 3.0}, "n_off must be an integer"),
        ({"n_pop": True}, "n_pop must be an integer"),
        ({"n_iter_gradient": "10"}, "n_iter_gradient must be an integer"),
        ({"seed": 1.5}, "seed must be an integer"),
        ({"seed": -1}, r"seed must be an integer in \[0, 2\*\*63 - 1\], got -1"),
        ({"eps": 10**400}, "eps must be finite"),  # past float's range
        ({"lam": 10**400}, "lam must be finite"),
        # Past numpy's 64-bit integers: n_pop crashed the search.
        *(({name: big}, rf"{name} must be an integer in \[{low}, 2\*\*63 - 1\]")
          for name, low in (("n_iter_gradient", 1), ("n_gen", 0), ("n_off", 1), ("n_pop", 1),
                            ("seed", 0))
          for big in (2**63, 10**400)),
        ({"n_pop": 0}, r"n_pop must be an integer in \[1, 2\*\*63 - 1\], got 0"),
    ])
    def test_rejects_values_that_break_a_stage(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            AttackBudget(**kwargs)

    def test_accepts_numpy_integers(self):
        b = AttackBudget(n_gen=np.int64(3), seed=np.uint32(7), eps=np.float64(0.25))
        assert (b.n_gen, b.seed, b.eps) == (3, 7, 0.25)
        assert type(b.n_gen) is int and type(b.seed) is int


def continuous_schema(n, immutable=()):
    feats = [
        FeatureMetadata(f"F{i}", "continuous", 0.0, 1.0, mutable=i not in immutable)
        for i in range(n)
    ]
    return DatasetSchema(feats)


class TestProject:
    def test_inside_ball_only_clipped(self):
        schema = continuous_schema(3)
        scaler = MinMaxScaler.from_schema(schema)
        budget = AttackBudget(eps=0.6)
        orig = np.array([0.5, 0.5, 0.5])
        cand = np.array([0.6, 1.2, 0.45])  # post-clip distance ~0.512
        out = project(cand, orig, budget, schema, scaler)
        assert np.allclose(out, [0.6, 1.0, 0.45])

    def test_l2_radial_projection_closed_form(self):
        schema = continuous_schema(2)
        scaler = MinMaxScaler.from_schema(schema)
        eps = 0.2
        budget = AttackBudget(eps=eps, norm="L2")
        orig = np.array([0.5, 0.5])
        direction = np.array([0.6, 0.8])
        cand = orig + 2 * eps * direction  # distance 2 eps
        out = project(cand, orig, budget, schema, scaler)
        assert np.allclose(out, orig + eps * direction, atol=1e-12)
        assert distance(out, orig, "L2") <= eps + 1e-9

    def test_linf_coordinate_clip(self):
        schema = continuous_schema(2)
        scaler = MinMaxScaler.from_schema(schema)
        budget = AttackBudget(eps=0.1, norm="Linf")
        out = project(np.array([0.9, 0.52]), np.array([0.5, 0.5]), budget, schema, scaler)
        assert np.allclose(out, [0.6, 0.52])

    def test_immutable_restored_exactly(self):
        schema = continuous_schema(3, immutable={1})
        scaler = MinMaxScaler.from_schema(schema)
        budget = AttackBudget(eps=0.5)
        orig = np.array([0.5, 0.123456789, 0.5])
        out = project(np.array([0.6, 0.9, 0.4]), orig, budget, schema, scaler)
        assert out[1] == orig[1]

    def test_idempotent_for_continuous_schema(self):
        rng = np.random.default_rng(0)
        schema = continuous_schema(4, immutable={2})
        scaler = MinMaxScaler.from_schema(schema)
        for norm in ("L2", "Linf"):
            budget = AttackBudget(eps=0.3, norm=norm)
            for _ in range(50):
                orig = rng.uniform(0, 1, 4)
                cand = orig + rng.normal(0, 0.5, 4)
                once = project(cand, orig, budget, schema, scaler)
                twice = project(once, orig, budget, schema, scaler)
                assert np.array_equal(once, twice)

    def test_integer_rounding_in_scaled_space(self):
        schema = DatasetSchema(
            [
                FeatureMetadata("a", "continuous", 0.0, 1.0),
                FeatureMetadata("k", "integer", 0.0, 10.0),
            ]
        )
        scaler = MinMaxScaler.from_schema(schema)
        budget = AttackBudget(eps=1.0, norm="Linf")
        out = project(
            np.array([0.5, 0.33]), np.array([0.5, 0.3]), budget, schema, scaler
        )
        # raw 3.3 rounds to 3 -> scaled 0.3
        assert out[1] == pytest.approx(0.3)

    def test_onehot_snap_to_argmax(self):
        schema = DatasetSchema(
            [
                FeatureMetadata("x", "continuous", 0.0, 1.0),
                FeatureMetadata("c_a", "categorical", 0, 1, onehot_group="g"),
                FeatureMetadata("c_b", "categorical", 0, 1, onehot_group="g"),
                FeatureMetadata("c_c", "categorical", 0, 1, onehot_group="g"),
            ]
        )
        scaler = MinMaxScaler.from_schema(schema)
        budget = AttackBudget(eps=2.0, norm="Linf")
        orig = np.array([0.5, 1.0, 0.0, 0.0])
        out = project(np.array([0.5, 0.2, 0.7, 0.4]), orig, budget, schema, scaler)
        assert out[1:].tolist() == [0.0, 1.0, 0.0]


def linear_model(w, b, scaler):
    """1-layer model with logits (0, w . z + b)."""
    model = ReferenceModel(len(w), hidden=(), seed=0, scaler=scaler)
    model.weights = [np.column_stack([np.zeros(len(w)), np.asarray(w, dtype=float)])]
    model.biases = [np.array([0.0, float(b)])]
    return model


def identity_scaler(n):
    lo = np.zeros(n)
    hi = np.ones(n)
    return MinMaxScaler.from_bounds(lo, hi)


class TestBallAndBox:
    """The attacks' ball-and-box test and the re-validation agree on
    the ball's edge, and the box's slack holds on both sides."""

    schema = DatasetSchema([FeatureMetadata(f"F{i}", "continuous", 0.0, 1.0) for i in range(2)])

    @pytest.mark.parametrize("norm", ["L2", "Linf"])
    def test_ball_slack_agrees_with_validity_mask(self, norm):
        z0, eps = np.array([[0.2, 0.3]]), 0.25
        budget = AttackBudget(norm=norm, eps=eps)
        scaler = MinMaxScaler.from_schema(self.schema)
        for over, inside in ((DISTANCE_SLACK / 2, True), (2 * DISTANCE_SLACK, False)):
            cand = z0 + [[eps + over, 0.0]]
            dist = distance(cand, z0, norm)
            assert in_ball_and_box(cand, dist, eps).tolist() == [inside]
            assert validity_mask(
                self.schema, scaler, ConstraintSet(), z0, cand, budget, PenaltyConfig(),
                include_constraints=False,
            ).tolist() == [inside]

    def test_box_slack_on_both_sides(self):
        Z = np.array([
            [-BOX_SLACK / 2, 1.0 + BOX_SLACK / 2],
            [-2 * BOX_SLACK, 0.5],
            [0.5, 1.0 + 2 * BOX_SLACK],
        ])
        assert in_ball_and_box(Z, np.zeros(3), 0.0).tolist() == [True, False, False]
        # Distance and box are both required.
        assert not in_ball_and_box(Z[:1], np.array([2 * DISTANCE_SLACK]), 0.0)[0]


class TestCapgd:
    def test_zero_eps_returns_original(self):
        schema = continuous_schema(2)
        model = linear_model([4.0], -2.0, identity_scaler(1))
        schema = continuous_schema(1)
        z = np.array([[0.4]])
        out = capgd(model, ConstraintSet(), z, np.array([0]),
                    AttackBudget(eps=0.0), schema)
        assert np.array_equal(out.candidates, z)
        assert not out.misclassified[0]

    def test_constant_model_never_succeeds(self):
        schema = continuous_schema(3)
        model = linear_model([0.0, 0.0, 0.0], -1.0, identity_scaler(3))
        z = np.array([[0.5, 0.5, 0.5]])
        out = capgd(model, ConstraintSet(), z, np.array([0]),
                    AttackBudget(eps=0.5), schema)
        assert not out.misclassified[0]
        assert np.array_equal(out.candidates, z)

    def test_linear_boundary_crossing(self):
        # Boundary at z = 0.5 (w=4, b=-2); start below, attack upward.
        schema = continuous_schema(1)
        model = linear_model([4.0], -2.0, identity_scaler(1))
        budget = AttackBudget(eps=0.2, norm="L2", n_iter_gradient=10)
        z = np.array([[0.42]])
        out = capgd(model, ConstraintSet(), z, np.array([0]), budget, schema)
        assert out.misclassified[0]
        candidate = out.candidates[0, 0]
        assert candidate > 0.5
        # Ranked by smallest distance among successes: near the crossing.
        assert abs(candidate - 0.5) <= 2 * (2 * budget.eps / budget.n_iter_gradient)

    def test_penalty_guides_toward_feasible(self, small_bench):
        model, dataset, schema, cs = small_bench
        budget = AttackBudget(eps=0.5, seed=0)
        cfg = PenaltyConfig()
        idx = select_attack_set(model, dataset, schema, cap=25, seed=0)
        Z = model.scaler.transform(dataset.X[idx])
        out = capgd(model, cs, Z, dataset.y[idx], budget, schema, cfg)
        hits = out.misclassified & validity_mask(
            schema, model.scaler, cs, Z, out.candidates, budget, cfg
        )
        assert hits.sum() >= 1

    def test_deterministic(self, small_bench):
        model, dataset, schema, cs = small_bench
        budget = AttackBudget(eps=0.5, seed=0)
        idx = select_attack_set(model, dataset, schema, cap=10, seed=0)
        Z = model.scaler.transform(dataset.X[idx])
        out1 = capgd(model, cs, Z, dataset.y[idx], budget, schema)
        out2 = capgd(model, cs, Z, dataset.y[idx], budget, schema)
        assert np.array_equal(out1.candidates, out2.candidates)

    def test_one_forward_pass_per_objective_evaluation(self, small_bench, monkeypatch):
        # The input gradient's pass also gives the loss and the
        # misclassification mask, and restarts make no evaluation.
        capgd_module = importlib.import_module("tabrobust.attacks.capgd")
        model, dataset, schema, cs = small_bench
        forwards = [0]
        per_call = []
        forward = ReferenceModel._forward
        pieces = capgd_module._objective_pieces

        def counting_forward(self, Z):
            forwards[0] += 1
            return forward(self, Z)

        def counting_pieces(*args, **kwargs):
            before = forwards[0]
            out = pieces(*args, **kwargs)
            per_call.append(forwards[0] - before)
            return out

        monkeypatch.setattr(ReferenceModel, "_forward", counting_forward)
        monkeypatch.setattr(capgd_module, "_objective_pieces", counting_pieces)
        budget = AttackBudget(eps=0.5, seed=0)
        idx = select_attack_set(model, dataset, schema, cap=5, seed=0)
        capgd(model, cs, model.scaler.transform(dataset.X[idx]), dataset.y[idx],
              budget, schema)
        assert per_call == [1] * (1 + budget.n_iter_gradient)

    def test_start_point_scored_once(self, monkeypatch):
        # Without fix rules, every penalty and forward pass is made by
        # `_objective_pieces`, the start point's included.
        capgd_module = importlib.import_module("tabrobust.attacks.capgd")
        schema = continuous_schema(2)
        cs = ConstraintSet([parse_constraint("F0 + 0.5 <= F1", schema)])
        model = linear_model([2.0, -1.5], 0.2, identity_scaler(2))
        z = np.array([[0.3, 0.7], [0.6, 0.2]])
        counts = {"total_penalty": 0, "forward": 0, "pieces": 0}
        forward = ReferenceModel._forward
        pieces = capgd_module._objective_pieces

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(capgd_module, "total_penalty",
                            counting("total_penalty", capgd_module.total_penalty))
        monkeypatch.setattr(ReferenceModel, "_forward", counting("forward", forward))
        monkeypatch.setattr(capgd_module, "_objective_pieces", counting("pieces", pieces))
        for eps, start_only in ((0.0, True), (0.3, False)):
            counts.update(dict.fromkeys(counts, 0))
            capgd(model, cs, z, np.array([0, 0]), AttackBudget(eps=eps), schema)
            assert counts["total_penalty"] == 0
            assert counts["forward"] == counts["pieces"]
            assert (counts["pieces"] == 1) == start_only

    @pytest.mark.parametrize("n_iter", [1, 5, 10, 20])
    def test_no_restart_at_the_last_checkpoint(self, n_iter, monkeypatch):
        # A zero-weight model never improves its objective, so every
        # checkpoint stalls; only those before the last iteration restart.
        # Points are evaluated once each, the start and every iterate; a
        # restart only recombines the best point's stored pieces.
        capgd_module = importlib.import_module("tabrobust.attacks.capgd")
        schema = continuous_schema(2)
        model = linear_model([0.0, 0.0], 0.0, identity_scaler(2))
        calls = {"_objective_pieces": 0, "_objective": 0}

        def counting(name):
            fn = getattr(capgd_module, name)

            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        for name in calls:
            monkeypatch.setattr(capgd_module, name, counting(name))
        budget = AttackBudget(eps=0.3, n_iter_gradient=n_iter)
        capgd(model, ConstraintSet(), np.array([[0.4, 0.6]]), np.array([1]), budget, schema)
        restarts = [c for c in checkpoint_schedule(n_iter) if 0 < c < n_iter]
        assert calls["_objective_pieces"] == 1 + n_iter
        assert calls["_objective"] == 1 + n_iter + len(restarts)

    def test_nan_penalty_ranks_after_every_number(self):
        # Keys (not misclassified, penalty, distance): a closer candidate
        # with a NaN penalty does not replace a finite-penalty best, NaN
        # ties with NaN, and equal keys keep the earlier candidate.
        nan = np.nan
        a = np.array([[0, nan, 0.1], [0, 0.0, 0.4], [0, nan, 0.1], [0, nan, 0.4],
                      [1, 0.0, 0.0], [0, -0.0, 0.4], [0, np.inf, 0.4]])
        b = np.array([[0, 0.0, 0.4], [0, nan, 0.1], [0, nan, 0.4], [0, nan, 0.4],
                      [0, nan, 0.0], [0, 0.0, 0.4], [0, nan, 0.1]])
        assert _lex_less(a, b).tolist() == [False, True, True, False, False, False, True]
        # The order np.lexsort sorts by, which MOEVA ranks a population by.
        rng = np.random.default_rng(0)
        values = np.array([nan, np.inf, -np.inf, -0.0, 0.0, 1.0])
        a, b = rng.choice(values, (500, 3)), rng.choice(values, (500, 3))
        first = [np.lexsort(np.array([kb, ka]).T[::-1])[0] for ka, kb in zip(a, b)]
        assert _lex_less(a, b).tolist() == [k == 1 for k in first]


class TestNondominatedSort:
    def test_simple_fronts(self):
        F = np.array(
            [
                [0.0, 0.0],  # dominates everything
                [1.0, 1.0],
                [0.5, 2.0],
                [2.0, 0.5],
                [3.0, 3.0],  # dominated by all but the extremes
            ]
        )
        rank = rank_and_crowding(F)[0]
        assert rank[0] == 0
        assert rank[4] == max(rank)

    def test_incomparable_share_front(self):
        F = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert rank_and_crowding(F)[0].tolist() == [0, 0]

    def test_survival_keeps_extremes(self):
        rng = np.random.default_rng(0)
        F = rng.uniform(0, 1, (30, 3))
        keep, rank, crowd = survival_select(F, 10)
        assert len(keep) == len(rank) == len(crowd) == 10
        kept = F[keep]
        front0 = F[rank_and_crowding(F)[0] == 0]
        assert front0[:, 2].min() == kept[:, 2].min()


def crossover_by_slot(rng, PA, PB, slots):
    """The per-slot crossover _crossover_batch used to run, kept as its
    bit-exact reference."""
    k, d = PA.shape
    c1, c2 = PA.copy(), PB.copy()
    n_slots = len(slots)
    if n_slots >= 2:
        pts = np.sort(rng.integers(0, n_slots + 1, size=(k, 2)), axis=1)
        slot_ids = np.arange(n_slots)
        swap = (slot_ids[None, :] >= pts[:, :1]) & (slot_ids[None, :] < pts[:, 1:])
        for s, cols in enumerate(slots):
            rows = swap[:, s]
            if rows.any():
                c1[np.ix_(rows, cols)] = PB[np.ix_(rows, cols)]
                c2[np.ix_(rows, cols)] = PA[np.ix_(rows, cols)]
    out = np.empty((2 * k, d))
    out[0::2] = c1
    out[1::2] = c2
    return out


class TestCrossover:
    def test_bit_exact_against_per_slot_loop(self):
        # Two one-hot groups and two immutable columns, which sit in no slot.
        schema = DatasetSchema([
            FeatureMetadata("x0"),
            FeatureMetadata("g_a", "categorical", 0, 1, onehot_group="g"),
            FeatureMetadata("x1", mutable=False),
            FeatureMetadata("g_b", "categorical", 0, 1, onehot_group="g"),
            FeatureMetadata("x2"),
            FeatureMetadata("h_a", "categorical", 0, 1, onehot_group="h"),
            FeatureMetadata("h_b", "categorical", 0, 1, onehot_group="h"),
            FeatureMetadata("x3", mutable=False),
            FeatureMetadata("x4", "integer", 0, 9),
        ])
        mutable = schema.mutable
        slots = [c for c in column_slots(schema) if mutable[c].all()]
        assert len(slots) == 5
        # The gene slots of the schema, of it with only the first slot
        # mutable, and of it with none.
        layouts = []
        for use in (slots, slots[:1], []):
            genes = {int(i) for c in use for i in c}
            frozen = DatasetSchema([
                replace(f, mutable=i in genes) for i, f in enumerate(schema.features)
            ])
            layouts.append((use, slot_layout(frozen)))
        for seed in range(30):
            data_rng = np.random.default_rng(seed)
            k = int(data_rng.integers(1, 12))
            PA = data_rng.uniform(0, 1, (k, schema.n_features))
            PB = data_rng.uniform(0, 1, (k, schema.n_features))
            for use, layout in layouts:
                rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
                out = _crossover_batch(rng_new, PA, PB, layout)
                assert np.array_equal(out, crossover_by_slot(rng_old, PA, PB, use))
                assert rng_new.bit_generator.state == rng_old.bit_generator.state


class TestMutation:
    # Continuous columns, an integer with a nonzero lower bound, two
    # one-hot groups of different sizes, and immutable columns (one
    # integer) that sit in no slot.
    schema = DatasetSchema([
        FeatureMetadata("x0", "continuous", 0.0, 10.0),
        FeatureMetadata("term", "integer", 1, 6),
        FeatureMetadata("g_a", "categorical", 0, 1, onehot_group="g"),
        FeatureMetadata("imm", mutable=False),
        FeatureMetadata("g_b", "categorical", 0, 1, onehot_group="g"),
        FeatureMetadata("x1", "continuous", -5.0, 5.0),
        FeatureMetadata("h_a", "categorical", 0, 1, onehot_group="h"),
        FeatureMetadata("h_b", "categorical", 0, 1, onehot_group="h"),
        FeatureMetadata("h_c", "categorical", 0, 1, onehot_group="h"),
        FeatureMetadata("k", "integer", 2, 5, mutable=False),
        FeatureMetadata("x2"),
    ])
    budget = AttackBudget(eps=0.5)
    n = 1500
    seeds = range(4)

    def layout(self):
        mutable = self.schema.mutable
        slots = [c for c in column_slots(self.schema) if mutable[c].all()]
        return slots, slot_layout(self.schema)

    def marked(self, seed):
        """Scaled rows whose integer and one-hot slots hold values no
        mutation writes (off the integer grid, not one-hot), so that a
        slot changed exactly when it was hit."""
        X = np.random.default_rng(1000 + seed).uniform(0, 1, (self.n, self.schema.n_features))
        X[:, [1, 2, 4, 6, 7, 8]] = 0.5 + 1 / 7
        return X

    def changed(self, X, out, cols):
        return out[:, cols].view(np.int64) != X[:, cols].view(np.int64)

    def mutations(self, which):
        """(seed, input, output) per seed, for the block `_mutate` or
        the per-slot reference."""
        slots, layout = self.layout()
        scaler = MinMaxScaler.from_schema(self.schema)
        lo, hi = self.schema.lo, self.schema.hi
        for seed in self.seeds:
            X = self.marked(seed)
            rng = np.random.default_rng(seed)
            if which == "block":
                out = _mutate(rng, X.copy(), layout, self.budget, scaler)
            else:
                out = reference_mutate._mutate(
                    rng, X.copy(), None, slots, self.budget, scaler, lo, hi,
                    self.schema.integer,
                )
            yield seed, X, out

    def test_layout(self):
        slots, layout = self.layout()
        assert len(slots) == 6
        assert layout.cont.tolist() == [0, 5, 10]
        assert layout.ints.tolist() == [1]
        assert layout.int_lo.tolist() == [1] and layout.int_hi.tolist() == [6]
        assert layout.int_lo.dtype == np.int64
        assert layout.group_cols.tolist() == [2, 4, 6, 7, 8]
        assert layout.group_of.tolist() == [0, 0, 1, 1, 1]
        assert layout.group_pos.tolist() == [0, 1, 0, 1, 2]
        assert layout.group_sizes.tolist() == [2, 3]

    def test_only_hit_slots_change_in_the_documented_order(self):
        _, layout = self.layout()
        for seed, X, out in self.mutations("block"):
            assert np.array_equal(out[:, [3, 9]].view(np.int64), X[:, [3, 9]].view(np.int64))
            # The first draw is the (n, C + I + G) hit block.
            hit = np.random.default_rng(seed).random((self.n, 6)) < MUTATION_PROB
            assert np.array_equal(self.changed(X, out, [0, 5, 10, 1]), hit[:, :4])
            assert np.array_equal(self.changed(X, out, [2, 4]), hit[:, [4, 4]])
            assert np.array_equal(self.changed(X, out, [6, 7, 8]), hit[:, [5, 5, 5]])

    @pytest.mark.parametrize("which", ["block", "reference"])
    def test_mutation_law(self, which):
        scaler = MinMaxScaler.from_schema(self.schema)
        hits = np.zeros(6)
        noise, terms, cats = [], [], {"g": [], "h": []}
        for _, X, out in self.mutations(which):
            assert np.array_equal(out[:, [3, 9]].view(np.int64), X[:, [3, 9]].view(np.int64))
            cont = self.changed(X, out, [0, 5, 10])
            noise.append((out - X)[:, [0, 5, 10]][cont])
            term = self.changed(X, out, [1])[:, 0]
            terms.append(scaler.inverse_transform(out[term])[:, 1])
            hits[:3] += cont.sum(axis=0)
            hits[3] += term.sum()
            for s, (name, cols) in enumerate([("g", [2, 4]), ("h", [6, 7, 8])]):
                changed = self.changed(X, out, cols)
                # A group changes whole or not at all.
                assert np.array_equal(changed.all(axis=1), changed.any(axis=1))
                block = out[changed[:, 0]][:, cols]
                assert np.all((block == 0.0) | (block == 1.0))
                assert np.all(block.sum(axis=1) == 1.0)
                cats[name].append(block.argmax(axis=1))
                hits[4 + s] += changed[:, 0].sum()
        trials = self.n * len(self.seeds)
        band = 5 * np.sqrt(trials * MUTATION_PROB * (1 - MUTATION_PROB))
        assert np.all(np.abs(hits - trials * MUTATION_PROB) <= band), hits
        terms = np.concatenate(terms)
        assert np.array_equal(terms, np.round(terms))
        assert set(np.round(terms).astype(int).tolist()) == {1, 2, 3, 4, 5, 6}
        assert set(np.concatenate(cats["g"]).tolist()) == {0, 1}
        assert set(np.concatenate(cats["h"]).tolist()) == {0, 1, 2}
        sd = np.concatenate(noise).std()
        assert abs(sd - SIGMA_FRACTION * self.budget.eps) <= 0.1 * SIGMA_FRACTION * self.budget.eps

    def test_draws_do_not_depend_on_the_candidates(self):
        _, layout = self.layout()
        scaler = MinMaxScaler.from_schema(self.schema)
        states = []
        for X in (self.marked(0)[:40], np.zeros((40, self.schema.n_features))):
            rng = np.random.default_rng(7)
            _mutate(rng, X, layout, self.budget, scaler)
            states.append(rng.bit_generator.state)
        assert states[0] == states[1]


class TestMoeva:
    def toy(self):
        # Boundary z0 + z1 = 1.1; start at (0.5, 0.5); constraint F0 <= F1.
        schema = continuous_schema(2)
        model = linear_model([3.0, 3.0], -3.3, identity_scaler(2))
        cs = ConstraintSet([parse_constraint("F0 <= F1", schema)])
        return schema, model, cs

    def test_grid_oracle_confirms_feasible_then_moeva_finds_it(self):
        schema, model, cs = self.toy()
        budget = AttackBudget(eps=0.3, n_gen=30, n_pop=40, n_off=30, seed=5)
        cfg = PenaltyConfig()
        z0 = np.array([0.5, 0.5])

        # Exhaustive grid over the ball: a valid adversarial must exist.
        grid = np.linspace(0, 1, 101)
        gx, gy = np.meshgrid(grid, grid)
        points = np.column_stack([gx.ravel(), gy.ravel()])
        inside = distance(points, np.tile(z0, (len(points), 1)), "L2") <= budget.eps
        adv = model.predict_proba_scaled(points).argmax(axis=1) == 1
        feasible = points[:, 0] <= points[:, 1]
        assert np.any(inside & adv & feasible), "oracle found no adversarial region"

        out = moeva(model, cs, z0, 0, budget, schema, cfg, row_seed=3)
        assert out.success
        assert validity_mask(schema, model.scaler, cs, z0, out.candidate, budget, cfg)[0]
        assert model.predict_proba_scaled(out.candidate[None]).argmax() == 1

    def test_zero_eps_all_offspring_collapse(self):
        schema, model, cs = self.toy()
        budget = AttackBudget(eps=0.0, n_gen=5, n_pop=10, n_off=10, seed=1)
        out = moeva(model, cs, np.array([0.5, 0.5]), 0, budget, schema, row_seed=0)
        assert not out.success
        assert np.array_equal(out.candidate, [0.5, 0.5])

    def test_elitist_best_penalty_nonincreasing(self, small_bench):
        model, dataset, schema, cs = small_bench
        budget = AttackBudget(eps=0.5, n_gen=15, n_pop=30, n_off=20, seed=2)
        idx = select_attack_set(model, dataset, schema, cap=3, seed=2)
        Z = model.scaler.transform(dataset.X[idx])
        out = moeva(model, cs, Z[0], int(dataset.y[idx[0]]), budget, schema,
                    row_seed=int(idx[0]))
        f3 = np.array([t[2] for t in out.trace])
        assert np.all(np.diff(f3) <= 1e-12)

    def test_exact_tie_uses_argmax_rule(self):
        # A zero-weight model gives probabilities exactly [0.5, 0.5]:
        # argmax is class 0, so a valid row with y = 1 is misclassified
        # and already a success.
        schema = continuous_schema(2)
        model = linear_model([0.0, 0.0], 0.0, identity_scaler(2))
        budget = AttackBudget(eps=0.3, n_gen=2, n_pop=6, n_off=4, seed=0)
        out = moeva(model, ConstraintSet(), np.array([0.5, 0.5]), 1, budget, schema,
                    row_seed=0)
        assert out.success

    def test_nan_penalty_ranks_after_every_number(self, monkeypatch):
        # The seed population's penalties are NaN, the offspring's finite.
        # NaN ranks last across generations as it does within one, so the
        # best candidate is the first lexicographic minimum of (penalty,
        # true-class probability, distance) over the offspring.
        schema, model, cs = self.toy()
        budget = AttackBudget(eps=0.05, n_gen=3, n_pop=8, n_off=6, seed=0)
        z0 = np.array([0.2, 0.5])  # eps cannot reach the boundary
        populations = []
        total_penalty = moeva_module.total_penalty

        def nan_seed_penalty(cs, X):
            penalties = total_penalty(cs, X)
            if not populations:
                penalties = np.full_like(penalties, np.nan)
            populations.append((X.copy(), penalties))
            return penalties

        monkeypatch.setattr(moeva_module, "total_penalty", nan_seed_penalty)
        out = moeva(model, cs, z0, 0, budget, schema, row_seed=0)
        monkeypatch.undo()
        assert not out.success and len(populations) == 1 + budget.n_gen
        pop = np.vstack([X for X, _ in populations])  # raw is scaled here
        f3 = np.concatenate([p for _, p in populations])
        f1 = model.predict_proba_scaled(pop)[:, 0]
        f2 = distance(pop, np.tile(z0, (len(pop), 1)), budget.norm)
        best = np.lexsort((f2, f1, f3))[0]
        # An offspring that copies no seed row.
        assert not np.any(np.all(pop[:budget.n_pop] == pop[best], axis=1))
        assert np.array_equal(out.candidate, pop[best])

    def test_best_row_is_not_evaluated_again(self, small_bench, monkeypatch):
        # One forward pass per evaluated population, the seed population
        # and each generation run, which is one per trace entry.
        model, dataset, schema, cs = small_bench
        budget = AttackBudget(eps=0.5, n_gen=6, n_pop=20, n_off=12, seed=2)
        idx = select_attack_set(model, dataset, schema, cap=3, seed=2)
        z = model.scaler.transform(dataset.X[idx])[0]
        y = int(dataset.y[idx[0]])
        forwards = [0]
        forward = ReferenceModel._forward

        def counting_forward(self, Z):
            forwards[0] += 1
            return forward(self, Z)

        monkeypatch.setattr(ReferenceModel, "_forward", counting_forward)
        out = moeva(model, cs, z, y, budget, schema, row_seed=int(idx[0]))
        assert forwards[0] == len(out.trace)

    @staticmethod
    def full_run(monkeypatch, *args, **kwargs):
        """`moeva` with the stop rule's check never accepting: all n_gen
        generations, as before the rule."""
        with monkeypatch.context() as m:
            m.setattr(
                moeva_module, "validity_mask",
                lambda schema, scaler, cs, Z_orig, Z_cand, *rest: np.zeros(
                    len(np.atleast_2d(Z_cand)), dtype=bool
                ),
            )
            return moeva(*args, **kwargs)

    def test_stop_truncates_the_search_on_won_rows(self, small_bench, monkeypatch):
        model, dataset, schema, cs = small_bench
        budget = AttackBudget(eps=0.5, n_gen=15, n_pop=30, n_off=20, seed=2)
        idx = select_attack_set(model, dataset, schema, cap=3, seed=2)
        Z = model.scaler.transform(dataset.X[idx])
        for z, r in zip(Z, idx):
            args = (model, cs, z, int(dataset.y[r]), budget, schema)
            out = moeva(*args, row_seed=int(r))
            full = self.full_run(monkeypatch, *args, row_seed=int(r))
            assert len(out.trace) < len(full.trace) == budget.n_gen + 1
            assert out.trace == full.trace[: len(out.trace)]
            assert out.success and full.success
            best = out.candidate[None]
            assert validity_mask(schema, model.scaler, cs, z, best, budget,
                                 PenaltyConfig())[0]
            assert model.predict_proba_scaled(best).argmax() != dataset.y[r]

    def test_stop_leaves_never_won_rows_unchanged(self, small_bench, monkeypatch):
        # The eps=0 toy, and a row the search does not win at a small eps,
        # where any random draw the stop check took would change the run.
        schema, model, cs = self.toy()
        budget = AttackBudget(eps=0.0, n_gen=5, n_pop=10, n_off=10, seed=1)
        runs = [((model, cs, np.array([0.5, 0.5]), 0, budget, schema), 0)]
        model, dataset, schema, cs = small_bench
        budget = AttackBudget(eps=0.1, n_gen=8, n_pop=20, n_off=12, seed=3)
        r = select_attack_set(model, dataset, schema, cap=1, seed=3)[0]
        z = model.scaler.transform(dataset.X[r][None])[0]
        runs.append(((model, cs, z, int(dataset.y[r]), budget, schema), int(r)))
        for args, row_seed in runs:
            out = moeva(*args, row_seed=row_seed)
            full = self.full_run(monkeypatch, *args, row_seed=row_seed)
            assert not out.success
            assert len(out.trace) == len(full.trace) == args[4].n_gen + 1
            assert out.trace == full.trace
            assert np.array_equal(out.candidate, full.candidate)

    @pytest.mark.parametrize("n", [37, 200, 300])
    @pytest.mark.parametrize("pairs", [1, 50, 51])
    def test_one_tournament_draw_gives_the_stream_of_two(self, n, pairs):
        # The generation loop draws both parent sets at once.
        rng = np.random.default_rng(n)
        rank = rng.integers(0, 4, n)
        crowd = np.where(rng.random(n) < 0.2, np.inf, rng.random(n))
        one, two = np.random.default_rng(pairs), np.random.default_rng(pairs)
        both = moeva_module._tournament(one, rank, crowd, 2 * pairs)
        a = moeva_module._tournament(two, rank, crowd, pairs)
        b = moeva_module._tournament(two, rank, crowd, pairs)
        assert np.array_equal(both, np.concatenate([a, b]))
        assert one.bit_generator.state == two.bit_generator.state

    def test_reproducible_for_fixed_seed(self):
        schema, model, cs = self.toy()
        budget = AttackBudget(eps=0.3, n_gen=10, n_pop=20, n_off=16, seed=9)
        outs = [
            moeva(model, cs, np.array([0.5, 0.5]), 0, budget, schema, row_seed=4)
            for _ in range(2)
        ]
        assert np.array_equal(outs[0].candidate, outs[1].candidate)
        assert outs[0].trace == outs[1].trace


# Trees over the operations with restricted domains: `^` with bases that
# can be negative (NaN for fractional exponents, inf for negative ones at
# zero), `log` and `/`, on features whose raw bounds straddle zero.
_LEAVES = st.one_of(
    st.integers(0, 2).map(Feature),
    st.sampled_from([-2.0, -0.5, 0.0, 0.5, 1.5]).map(Constant),
)


def _extend(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        st.tuples(children, st.sampled_from([-1.0, 0.5, 1.5, 2.0])).map(
            lambda t: Pow(t[0], Constant(t[1]))
        ),
        pairs.map(lambda t: Pow(*t)),
        children.map(Log),
        pairs.map(lambda t: SafeDiv(*t)),
        pairs.map(lambda t: Sub(*t)),
        pairs.map(lambda t: Mul(*t)),
    )


_EXPRS = st.recursive(_LEAVES, _extend, max_leaves=6)
_CONSTRAINT_SETS = st.lists(
    st.builds(Relation, st.sampled_from(["<=", "<", ">=", ">", "=="]), _EXPRS, _EXPRS),
    min_size=1, max_size=3,
).map(ConstraintSet)


class TestRestrictedDomainConstraints:
    """NaN and inf penalties must neither crash an attack nor let an
    invalid candidate through as a success."""

    @given(
        _CONSTRAINT_SETS,
        st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
        st.integers(0, 1),
        st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_attacks_survive_and_successes_validate(self, cs, z, y, seed):
        schema = DatasetSchema(
            [FeatureMetadata(f"F{i}", "continuous", -2.0, 2.0) for i in range(3)]
        )
        model = linear_model([3.0, -2.0, 1.0], -1.0, MinMaxScaler.from_schema(schema))
        budget = AttackBudget(eps=0.4, n_iter_gradient=3, n_gen=3, n_pop=10, n_off=8,
                              seed=seed)
        cfg = PenaltyConfig()
        z0 = np.array([z])
        with np.errstate(all="ignore"):
            search = moeva(model, cs, z0[0], y, budget, schema, cfg, row_seed=seed)
            grad = capgd(model, cs, z0, np.array([y]), budget, schema, cfg)
            claimed = [search.candidate[None]] if search.success else []
            if grad.misclassified[0] and validity_mask(
                schema, model.scaler, cs, z0, grad.candidates, budget, cfg
            )[0]:
                claimed.append(grad.candidates)
            for cand in claimed:
                assert validity_mask(schema, model.scaler, cs, z0, cand, budget, cfg)[0]
                assert model.predict_proba_scaled(cand).argmax() != y


class TestCaa:
    def small_budget(self, **kw):
        defaults = dict(eps=0.5, n_gen=10, n_pop=30, n_off=20, seed=3)
        defaults.update(kw)
        return AttackBudget(**defaults)

    def test_ensemble_success_superset_of_gradient_only(self, small_bench):
        model, dataset, schema, cs = small_bench
        idx = select_attack_set(model, dataset, schema, cap=40, seed=3)
        Z = model.scaler.transform(dataset.X[idx])
        y = dataset.y[idx]
        full = caa(model, cs, Z, y, self.small_budget(), schema, row_indices=idx)
        grad_only = caa(
            model, cs, Z, y, self.small_budget(n_gen=0), schema, row_indices=idx
        )
        assert grad_only.success_indices() <= full.success_indices()

    def test_zero_generations_equals_gradient_stage(self, small_bench):
        model, dataset, schema, cs = small_bench
        budget = self.small_budget(n_gen=0)
        cfg = PenaltyConfig()
        idx = select_attack_set(model, dataset, schema, cap=20, seed=3)
        Z = model.scaler.transform(dataset.X[idx])
        y = dataset.y[idx]
        ens = caa(model, cs, Z, y, budget, schema, cfg, row_indices=idx)
        grad = capgd(model, cs, Z, y, budget, schema, cfg)
        grad_ok = grad.misclassified & validity_mask(
            schema, model.scaler, cs, Z, grad.candidates, budget, cfg
        )
        assert [s.success for s in ens.samples] == grad_ok.tolist()
        for i, s in enumerate(ens.samples):
            expected = grad.candidates[i] if grad_ok[i] else Z[i]
            assert np.array_equal(s.candidate, expected)

    def test_every_success_validates_independently(self, small_bench):
        model, dataset, schema, cs = small_bench
        budget = self.small_budget()
        cfg = PenaltyConfig()
        idx = select_attack_set(model, dataset, schema, cap=40, seed=3)
        Z = model.scaler.transform(dataset.X[idx])
        result = caa(model, cs, Z, dataset.y[idx], budget, schema, cfg,
                     row_indices=idx)
        assert result.success_indices()
        for i, s in enumerate(result.samples):
            if s.success:
                ok = validity_mask(
                    schema, model.scaler, cs, Z[i][None], s.candidate[None],
                    budget, cfg,
                )[0]
                mis = model.predict_proba_scaled(
                    s.candidate[None]
                ).argmax() != dataset.y[idx[i]]
                assert ok and mis
                immutable = ~schema.mutable
                assert np.array_equal(s.candidate[immutable], Z[i][immutable])
            else:
                assert np.array_equal(s.candidate, Z[i])

    @pytest.mark.parametrize("norm", ["L2", "Linf"])
    def test_settle_repeats_the_gradient_flags_bit_for_bit(self, small_bench, monkeypatch, norm):
        # The judge scores a gradient candidate at the position and batch
        # size CAPGD scored it at, so its flag is CAPGD's own.
        model, dataset, schema, cs = small_bench
        idx = select_attack_set(model, dataset, schema, cap=60, seed=3)
        Z = model.scaler.transform(dataset.X[idx])
        outs, judged = [], []

        def spy_capgd(*args):
            outs.append(capgd(*args))
            return outs[-1]

        def spy_judge(probs, y):
            judged.append(misclassified(probs, y))
            return judged[-1]

        monkeypatch.setattr(caa_module, "capgd", spy_capgd)
        monkeypatch.setattr(caa_module, "misclassified", spy_judge)
        caa(model, cs, Z, dataset.y[idx], self.small_budget(norm=norm, n_gen=0), schema,
            row_indices=idx)
        [out], [mis] = outs, judged
        assert np.array_equal(mis, out.misclassified)
        assert 0 < mis.sum() < len(mis)

    def test_settle_takes_no_flag_from_a_stage(self, small_bench, monkeypatch):
        # Stages that hand back the unperturbed, correctly classified rows
        # and claim them as misclassified successes win nothing.
        model, dataset, schema, cs = small_bench
        idx = select_attack_set(model, dataset, schema, cap=8, seed=3)
        Z = model.scaler.transform(dataset.X[idx])
        monkeypatch.setattr(
            caa_module, "capgd",
            lambda model, cs, Z, *rest: GradientAttackOutput(Z.copy(), np.ones(len(Z), bool)),
        )
        monkeypatch.setattr(
            caa_module, "moeva",
            lambda model, cs, z, *rest, **kw: SearchAttackOutput(z.copy(), success=True),
        )
        result = caa(model, cs, Z, dataset.y[idx], self.small_budget(), schema,
                     row_indices=idx)
        assert not result.success_indices()
        assert all(list(s.attempts) == ["gradient", "search"] for s in result.samples)

    def test_failed_carried_candidate_goes_on_to_the_attack(self, small_bench):
        # The unperturbed original is correctly classified, so as a carried
        # candidate it fails: the row is attacked exactly as without it.
        model, dataset, schema, cs = small_bench
        budget = self.small_budget()
        idx = select_attack_set(model, dataset, schema, cap=16, seed=3)
        Z = model.scaler.transform(dataset.X[idx])
        y = dataset.y[idx]
        plain = caa(model, cs, Z, y, budget, schema, row_indices=idx)
        pool = {int(r): z.copy() for r, z in zip(idx, Z)}
        carried = caa(model, cs, Z, y, budget, schema, row_indices=idx,
                      known_candidates=pool)
        searched = 0
        for a, b in zip(plain.samples, carried.samples):
            assert "carried" not in b.attempts and b.stage != "carried"
            assert list(b.attempts) == list(a.attempts)
            assert list(b.attempts)[0] == "gradient"
            if "search" in b.attempts:
                searched += 1
                assert list(b.attempts) == ["gradient", "search"]
            assert np.array_equal(a.candidate, b.candidate)
            assert (a.success, a.stage) == (b.success, b.stage)
        assert searched >= 1

    def test_linf_attack_respects_coordinate_budget(self):
        schema = continuous_schema(2)
        model = linear_model([3.0, 3.0], -3.3, identity_scaler(2))
        budget = AttackBudget(norm="Linf", eps=0.25, n_gen=5, n_pop=20,
                              n_off=16, seed=1)
        z = np.array([[0.5, 0.5]])
        result = caa(model, ConstraintSet(), z, np.array([0]), budget, schema)
        s = result.samples[0]
        assert s.success
        assert np.abs(s.candidate - 0.5).max() <= budget.eps + 1e-9

    def test_onehot_schema_end_to_end(self):
        # Flipping the active category is what defeats this model; the
        # gradient stage cannot (snap undoes small steps), the search
        # stage can, and the result must still be a valid one-hot row.
        feats = [
            FeatureMetadata("x", "continuous", 0, 1),
            FeatureMetadata("c_a", "categorical", 0, 1, onehot_group="g"),
            FeatureMetadata("c_b", "categorical", 0, 1, onehot_group="g"),
            FeatureMetadata("c_c", "categorical", 0, 1, onehot_group="g"),
        ]
        schema = DatasetSchema(feats)
        scaler = MinMaxScaler.from_schema(schema)
        model = ReferenceModel(4, hidden=(), seed=0, scaler=scaler)
        model.weights = [
            np.array([[0.0, 1.0], [0.0, -2.0], [0.0, 2.0], [0.0, 0.0]])
        ]
        model.biases = [np.array([0.0, -0.5])]
        cs = ConstraintSet([parse_constraint("x <= 0.9", schema)])
        z = np.array([[0.4, 1.0, 0.0, 0.0]])
        budget = AttackBudget(norm="L2", eps=1.6, n_gen=20, n_pop=30,
                              n_off=20, seed=2)
        cfg = PenaltyConfig()
        result = caa(model, cs, z, np.array([0]), budget, schema, cfg,
                     row_indices=np.array([0]))
        s = result.samples[0]
        assert s.success and s.stage == "search"
        group = s.candidate[1:]
        assert sorted(group.tolist()) == [0.0, 0.0, 1.0]
        assert s.candidate[0] <= 0.9 + cfg.tolerance
        assert validity_mask(
            schema, scaler, cs, z, s.candidate[None], budget, cfg
        )[0]

    def test_known_candidates_finalize_without_reattack(self, small_bench):
        model, dataset, schema, cs = small_bench
        budget = self.small_budget()
        idx = select_attack_set(model, dataset, schema, cap=20, seed=3)
        Z = model.scaler.transform(dataset.X[idx])
        first = caa(model, cs, Z, dataset.y[idx], budget, schema, row_indices=idx)
        pool = {
            s.row_index: s.candidate.copy() for s in first.samples if s.success
        }
        assert pool
        second = caa(model, cs, Z, dataset.y[idx], budget, schema,
                     row_indices=idx, known_candidates=pool)
        for s in second.samples:
            if s.row_index in pool:
                assert s.stage == "carried" and s.success
                assert np.array_equal(s.candidate, pool[s.row_index])
