"""Attacks: schedule, projection, gradient stage, search stage, ensemble."""

import importlib

import numpy as np
import pytest
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
from tabrobust.attacks.moeva import _crossover_batch, nondominated_sort, survival_select
from tabrobust.data import DatasetSchema, FeatureMetadata, MinMaxScaler
from tabrobust.engine import PenaltyConfig, total_penalty
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
from tabrobust.mlp import ReferenceModel
from tabrobust.parser import parse_constraint

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


def continuous_schema(n, immutable=()):
    feats = [
        FeatureMetadata(f"F{i}", "continuous", 0.0, 1.0, mutable=i not in immutable)
        for i in range(n)
    ]
    return DatasetSchema(feats)


class TestProject:
    def test_inside_ball_only_clipped(self):
        schema = continuous_schema(3)
        budget = AttackBudget(eps=0.6)
        orig = np.array([0.5, 0.5, 0.5])
        cand = np.array([0.6, 1.2, 0.45])  # post-clip distance ~0.512
        out = project(cand, orig, budget, schema)
        assert np.allclose(out, [0.6, 1.0, 0.45])

    def test_l2_radial_projection_closed_form(self):
        schema = continuous_schema(2)
        eps = 0.2
        budget = AttackBudget(eps=eps, norm="L2")
        orig = np.array([0.5, 0.5])
        direction = np.array([0.6, 0.8])
        cand = orig + 2 * eps * direction  # distance 2 eps
        out = project(cand, orig, budget, schema)
        assert np.allclose(out, orig + eps * direction, atol=1e-12)
        assert distance(out, orig, "L2") <= eps + 1e-9

    def test_linf_coordinate_clip(self):
        schema = continuous_schema(2)
        budget = AttackBudget(eps=0.1, norm="Linf")
        out = project(np.array([0.9, 0.52]), np.array([0.5, 0.5]), budget, schema)
        assert np.allclose(out, [0.6, 0.52])

    def test_immutable_restored_exactly(self):
        schema = continuous_schema(3, immutable={1})
        budget = AttackBudget(eps=0.5)
        orig = np.array([0.5, 0.123456789, 0.5])
        out = project(np.array([0.6, 0.9, 0.4]), orig, budget, schema)
        assert out[1] == orig[1]

    def test_idempotent_for_continuous_schema(self):
        rng = np.random.default_rng(0)
        schema = continuous_schema(4, immutable={2})
        for norm in ("L2", "Linf"):
            budget = AttackBudget(eps=0.3, norm=norm)
            for _ in range(50):
                orig = rng.uniform(0, 1, 4)
                cand = orig + rng.normal(0, 0.5, 4)
                once = project(cand, orig, budget, schema)
                twice = project(once, orig, budget, schema)
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
        budget = AttackBudget(eps=2.0, norm="Linf")
        orig = np.array([0.5, 1.0, 0.0, 0.0])
        out = project(np.array([0.5, 0.2, 0.7, 0.4]), orig, budget, schema)
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
    return MinMaxScaler().fit_bounds(lo, hi)


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

    def test_unconstrained_best_so_far_loss_nondecreasing(self):
        # Convex objective (linear model, no penalty): the best-so-far
        # trace of the ascent must be non-decreasing.
        schema = continuous_schema(2)
        model = linear_model([2.0, -1.5], 0.2, identity_scaler(2))
        budget = AttackBudget(eps=0.4, n_iter_gradient=20, lam=0.0)
        z = np.array([[0.3, 0.7]])
        out = capgd(model, ConstraintSet(), z, np.array([0]), budget, schema)
        trace = np.array([t[0] for t in out.loss_trace])
        best = np.maximum.accumulate(trace)
        assert np.all(np.diff(best) >= -1e-12)

    def test_penalty_guides_toward_feasible(self, small_bench):
        model, dataset, schema, cs = small_bench
        budget = AttackBudget(eps=0.5, seed=0)
        cfg = PenaltyConfig()
        idx = select_attack_set(model, dataset, schema, cap=25, seed=0)
        Z = model.scaler.transform(dataset.X[idx])
        out = capgd(model, cs, Z, dataset.y[idx], budget, schema, cfg)
        hits = out.misclassified & (out.penalties <= cfg.tolerance)
        assert hits.sum() >= 1

    def test_deterministic(self, small_bench):
        model, dataset, schema, cs = small_bench
        budget = AttackBudget(eps=0.5, seed=0)
        idx = select_attack_set(model, dataset, schema, cap=10, seed=0)
        Z = model.scaler.transform(dataset.X[idx])
        out1 = capgd(model, cs, Z, dataset.y[idx], budget, schema)
        out2 = capgd(model, cs, Z, dataset.y[idx], budget, schema)
        assert np.array_equal(out1.candidates, out2.candidates)

    def test_two_forward_passes_per_objective_evaluation(self, small_bench, monkeypatch):
        # One probability pass gives the loss and the misclassification
        # mask; the input gradient makes the other.
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
        assert len(per_call) > budget.n_iter_gradient
        assert per_call == [2] * len(per_call)


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
        rank = nondominated_sort(F)
        assert rank[0] == 0
        assert rank[4] == max(rank)

    def test_incomparable_share_front(self):
        F = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert nondominated_sort(F).tolist() == [0, 0]

    def test_survival_keeps_extremes(self):
        rng = np.random.default_rng(0)
        F = rng.uniform(0, 1, (30, 3))
        keep, rank, crowd = survival_select(F, 10)
        assert len(keep) == len(rank) == len(crowd) == 10
        kept = F[keep]
        front0 = F[nondominated_sort(F) == 0]
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
        mutable = schema.mutable_mask()
        slots = [c for c in schema.column_slots() if mutable[c].all()]
        assert len(slots) == 5
        for seed in range(30):
            data_rng = np.random.default_rng(seed)
            k = int(data_rng.integers(1, 12))
            PA = data_rng.uniform(0, 1, (k, schema.n_features))
            PB = data_rng.uniform(0, 1, (k, schema.n_features))
            for use in (slots, slots[:1], []):
                rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
                out = _crossover_batch(rng_new, PA, PB, use)
                assert np.array_equal(out, crossover_by_slot(rng_old, PA, PB, use))
                assert rng_new.bit_generator.state == rng_old.bit_generator.state


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
        assert out.dist <= budget.eps + 1e-9
        assert out.penalty <= cfg.tolerance
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
        assert out.misclassified and out.success

    def test_best_row_is_not_evaluated_again(self, small_bench, monkeypatch):
        # One forward pass for the seed population and one per generation;
        # the best row's flag, penalty and distance come from those passes.
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
        assert forwards[0] == budget.n_gen + 1
        monkeypatch.undo()
        best = out.candidate[None]
        assert out.misclassified == (model.predict_proba_scaled(best).argmax() != y)
        assert out.penalty == total_penalty(cs, model.scaler.inverse_transform(best))[0]
        assert out.dist == distance(best, z[None], budget.norm)[0]

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
            if grad.misclassified[0] and grad.penalties[0] <= cfg.tolerance:
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
        assert np.array_equal(ens.success_mask, grad_ok)
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
        assert result.success_mask.sum() >= 1
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
                immutable = ~schema.mutable_mask()
                assert np.array_equal(s.candidate[immutable], Z[i][immutable])
            else:
                assert np.array_equal(s.candidate, Z[i])

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
