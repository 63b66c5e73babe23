"""Harness protocol, sweeps, reports, and the command-line interface."""

import csv
import json
import re
import shlex
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tabrobust import harness
from tabrobust.attacks import AttackBudget, validity_mask
from tabrobust.attacks.budget import NORMS
from tabrobust.cli import build_parser
from tabrobust.cli import main as cli_main
from tabrobust.data import DataError, Dataset, DatasetSchema
from tabrobust.defense import AUGMENT_METHODS
from tabrobust.engine import PenaltyConfig
from tabrobust.harness import (
    EmptyAttackSet,
    SweepSpec,
    budget_sweep,
    robust_accuracy,
    select_attack_set,
    success_masks,
)
from tabrobust.mlp import ReferenceModel, TrainConfig, train
from tabrobust.report import (
    REPORT_FORMATS,
    EvaluationReport,
    emit_report,
    load_report,
    merge_leaderboard,
)
from tabrobust.synth import SyntheticSpec, generate_synthetic

BUDGET = AttackBudget(eps=0.5, n_gen=10, n_pop=30, n_off=20, seed=3)

# The config keys and keywords that CLI flags set.
LIBRARY_KEYS = {
    "epochs", "batch_size", "learning_rate", "norm", "eps", "n_iter_gradient", "n_gen",
    "seed", "n_rows", "n_features", "template", "label_noise", "replay_fraction", "ratio",
    "cap", "model_name", "defense",
}


class TestSelectAttackSet:
    def test_counts_correct_critical_rows(self, small_bench):
        model, dataset, schema, _ = small_bench
        idx = select_attack_set(model, dataset, schema, cap=None)
        preds = model.predict(dataset.X)
        expected = np.where((dataset.y == 1) & (preds == dataset.y))[0]
        assert np.array_equal(idx, expected)

    def test_cap_subsamples_deterministically(self, small_bench):
        model, dataset, schema, _ = small_bench
        a = select_attack_set(model, dataset, schema, cap=50, seed=1)
        b = select_attack_set(model, dataset, schema, cap=50, seed=1)
        assert np.array_equal(a, b) and len(a) == 50

    def test_cap_must_be_none_or_positive_integer(self, small_bench):
        model, dataset, schema, _ = small_bench
        for cap in (0, -3, 2.5, True, 2**63, 10**400):
            with pytest.raises(ValueError,
                               match=r"cap must be None or an integer in \[1, 2\*\*63 - 1\]"):
                select_attack_set(model, dataset, schema, cap=cap)

    def test_all_wrong_class_is_error(self, small_bench):
        model, dataset, schema, _ = small_bench
        flipped = Dataset(dataset.X, np.zeros(dataset.n_rows, dtype=int))
        with pytest.raises(EmptyAttackSet):
            select_attack_set(model, flipped, schema)


class TestRobustAccuracy:
    def test_arithmetic_of_definition(self, small_bench):
        model, dataset, schema, cs = small_bench
        idx = select_attack_set(model, dataset, schema, cap=30, seed=3)
        ra, result = robust_accuracy(
            model, cs, dataset, schema, BUDGET, indices=idx
        )
        n_success = sum(s.success for s in result.samples)
        assert ra == 1.0 - n_success / len(idx)
        assert 0.0 <= ra <= 1.0

    def test_constrained_at_least_unconstrained(self, small_bench):
        model, dataset, schema, cs = small_bench
        cfg = PenaltyConfig()
        idx = select_attack_set(model, dataset, schema, cap=30, seed=3)
        ra_c, result = robust_accuracy(
            model, cs, dataset, schema, BUDGET, indices=idx, cfg=cfg
        )
        con, uncon = success_masks(
            result, model, cs, schema, BUDGET, cfg, dataset.y[idx]
        )
        ra_u = 1.0 - uncon.sum() / len(idx)
        assert np.all(uncon[con])  # constrained success implies unconstrained
        assert ra_c >= ra_u

    def test_feature_with_one_legal_value_is_pinned(self):
        # F6 declared [0.5, 0.5], mutable or not: the attack cannot move it
        # off its one value, so both declarations give the same attack.
        dataset, schema, cs = generate_synthetic(SyntheticSpec(n_rows=1500, n_features=7),
                                                 seed=7)
        X = dataset.X.copy()
        X[:, 6] = 0.5
        dataset = Dataset(X, dataset.y)

        def pinned(mutable):
            feats = list(schema.features)
            feats[6] = replace(feats[6], min=0.5, max=0.5, mutable=mutable)
            return DatasetSchema(feats, schema.critical_class)

        model = ReferenceModel(7, seed=1)
        model, _ = train(model, dataset, TrainConfig(epochs=10, seed=1), schema=pinned(True))
        idx = select_attack_set(model, dataset, pinned(True), cap=60)
        budget = AttackBudget(n_gen=0)
        runs = [robust_accuracy(model, cs, dataset, pinned(m), budget, indices=idx)
                for m in (True, False)]
        (acc_mutable, mutable), (acc_fixed, fixed) = runs
        assert acc_mutable == acc_fixed < 1.0
        for a, b in zip(mutable.samples, fixed.samples):
            assert np.array_equal(a.candidate, b.candidate)
            assert a.attempts["gradient"][6] == a.original[6]

    def test_all_reverted_gives_one(self, small_bench):
        model, dataset, schema, cs = small_bench
        idx = select_attack_set(model, dataset, schema, cap=10, seed=3)
        zero = AttackBudget(eps=0.0, n_gen=0, seed=3)
        ra, result = robust_accuracy(model, cs, dataset, schema, zero, indices=idx)
        assert ra == 1.0
        for s in result.samples:
            assert np.array_equal(s.candidate, s.original)


class TestSweep:
    def test_single_value_equals_direct_call(self, small_bench):
        model, dataset, schema, cs = small_bench
        entries = budget_sweep(
            model, cs, dataset, schema,
            SweepSpec(axis="eps", values=[0.5]),
            base_budget=BUDGET, cap=25,
        )
        assert len(entries) == 1
        idx = select_attack_set(model, dataset, schema, cap=25, seed=BUDGET.seed)
        ra, _ = robust_accuracy(model, cs, dataset, schema, BUDGET, indices=idx)
        assert entries[0].robust_accuracy_constrained == ra

    def test_eps_axis_monotone_nonincreasing(self, small_bench):
        model, dataset, schema, cs = small_bench
        entries = budget_sweep(
            model, cs, dataset, schema,
            SweepSpec(axis="eps", values=[0.25, 0.5, 1.0]),
            base_budget=BUDGET, cap=25,
        )
        ras = [e.robust_accuracy_constrained for e in entries]
        assert all(a >= b for a, b in zip(ras, ras[1:]))

    def test_search_axis_monotone_nonincreasing(self, small_bench):
        model, dataset, schema, cs = small_bench
        entries = budget_sweep(
            model, cs, dataset, schema,
            SweepSpec(axis="search_iters", values=[5, 10, 20]),
            base_budget=BUDGET, cap=20,
        )
        ras = [e.robust_accuracy_constrained for e in entries]
        assert all(a >= b for a, b in zip(ras, ras[1:]))

    def test_batched_success_masks_match_per_attempt_recount(
        self, small_bench, monkeypatch
    ):
        model, dataset, schema, cs = small_bench
        cfg = PenaltyConfig()
        results = []
        original = harness.caa

        def recording(*args, **kwargs):
            results.append(original(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(harness, "caa", recording)
        entries = budget_sweep(
            model, cs, dataset, schema,
            SweepSpec(axis="eps", values=[0.25, 0.5]),
            base_budget=BUDGET, cap=20,
        )
        result = results[1]
        stages = {k for s in result.samples for k in s.attempts}
        assert stages == {"carried", "gradient", "search"}

        budget = AttackBudget.from_dict(entries[1].budget)
        y = dataset.y[[s.row_index for s in result.samples]]
        con, uncon = success_masks(result, model, cs, schema, budget, cfg, y)

        # Reference: every attempt on its own, one row at a time.
        ref_con = np.zeros(len(y), dtype=bool)
        ref_uncon = np.zeros(len(y), dtype=bool)
        for i, s in enumerate(result.samples):
            for cand in s.attempts.values():
                c, o = cand[None], s.original[None]
                if model.predict_proba_scaled(c).argmax(axis=1)[0] == y[i]:
                    continue
                ref_con[i] |= validity_mask(
                    schema, model.scaler, cs, o, c, budget, cfg
                )[0]
                ref_uncon[i] |= validity_mask(
                    schema, model.scaler, cs, o, c, budget, cfg,
                    include_constraints=False,
                )[0]
        assert np.array_equal(con, ref_con)
        assert np.array_equal(uncon, ref_uncon)
        assert con.any() and not con.all()
        assert entries[1].n_success_constrained == ref_con.sum()

    def test_default_values(self):
        spec = SweepSpec(axis="gradient_iters")
        assert spec.values == [5, 10, 20, 100]

    def test_bad_axis(self):
        with pytest.raises(ValueError, match="axis"):
            SweepSpec(axis="zeps")
        with pytest.raises(ValueError, match="integers"):
            SweepSpec(axis="search_iters", values=[2.2, 2.7])
        for big in (2**63, 1e30):
            with pytest.raises(ValueError, match=r"integers in \[1, 2\*\*63 - 1\]"):
                SweepSpec(axis="gradient_iters", values=[5, big])
        with pytest.raises(ValueError, match="finite"):
            SweepSpec(axis="eps", values=[float("nan"), 0.5])
        with pytest.raises(ValueError, match="finite"):
            SweepSpec(axis="eps", values=[0.5, 10**400])

    def test_values_must_be_real_numbers(self):
        # A bool is not a number (True would sweep eps 1.0), nor is a string.
        for axis, values in (("eps", [True, 0.5]), ("eps", ["0.5"]),
                             ("gradient_iters", [5, None])):
            with pytest.raises(ValueError, match=f"{axis} sweep values must be real numbers"):
                SweepSpec(axis=axis, values=values)

    def test_repeated_values_rejected(self):
        for axis, values in (("eps", [0.5, 0.25, 0.5]), ("gradient_iters", [5, 5.0])):
            with pytest.raises(ValueError, match="sweep values must not repeat"):
                SweepSpec(axis=axis, values=values)


class TestReports:
    def make_report(self, seed=0, ra=0.8):
        from tabrobust.report import BudgetEntry

        return EvaluationReport(
            model="mlp",
            defense="none",
            seed=seed,
            clean={"accuracy": 0.95, "auc": 0.99, "mcc": 0.9,
                   "precision": 0.94, "recall": 0.96},
            attack_set_size=100,
            budgets=[
                BudgetEntry(
                    axis="eps", value=0.5, budget=AttackBudget().to_dict(),
                    robust_accuracy_constrained=ra,
                    robust_accuracy_unconstrained=ra - 0.1,
                    n_success_constrained=20, n_success_unconstrained=30,
                    wall_time=1.23,
                )
            ],
            config={"tolerance": 0.01},
        )

    def test_json_round_trip(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "r.json"
        emit_report(report, path, format="json")
        loaded = load_report(path)
        assert loaded.comparable_dict() == report.comparable_dict()

    def test_missing_field_is_named(self):
        d = self.make_report().to_dict()
        del d["budgets"][0]["n_success_constrained"]
        with pytest.raises(DataError, match="report missing field 'n_success_constrained'"):
            EvaluationReport.from_dict(d)
        with pytest.raises(DataError, match="report missing field 'budgets'"):
            EvaluationReport.from_dict({"version": 1, "model": "x"})

    def test_csv_has_fixed_header(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "r.csv"
        emit_report(report, path, format="csv")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("model,defense,axis,budget_value,norm,eps")
        assert len(lines) == 2

    def test_leaderboard_sorted_descending(self):
        rows = merge_leaderboard(
            [self.make_report(ra=0.7), self.make_report(ra=0.9),
             self.make_report(ra=0.8)]
        )
        values = [r["robust_accuracy_constrained"] for r in rows]
        assert values == sorted(values, reverse=True)


@pytest.fixture(scope="module")
def cli_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    ds_dir = root / "ds"
    code = cli_main(
        ["synth", "--rows", "600", "--template", "benchmark", "--seed", "7",
         "--out", str(ds_dir)]
    )
    assert code == 0
    return ds_dir


@pytest.fixture(scope="module")
def cli_model(cli_dataset, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_model") / "model.json"
    assert cli_main(
        ["train", "--data", str(cli_dataset), "--epochs", "1", "--seed", "1",
         "--out", str(path)]
    ) == 0
    return path


class TestCli:
    def test_synth_train_attack_happy_path(self, cli_dataset, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        code = cli_main(
            ["train", "--data", str(cli_dataset), "--epochs", "8",
             "--seed", "1", "--out", str(model_path)]
        )
        assert code == 0 and model_path.exists()
        # The saved weights are the best epoch's, and the line says which.
        best = re.search(r"val AUC best=\d\.\d{4} \(epoch (\d+)\) last=",
                         capsys.readouterr().out)
        assert best and 0 <= int(best.group(1)) < 8

        report_path = tmp_path / "report.json"
        code = cli_main(
            ["attack", "--model", str(model_path), "--data", str(cli_dataset),
             "--n-gen", "5", "--cap", "15", "--seed", "2",
             "--out", str(report_path)]
        )
        assert code == 0 and report_path.exists()
        report = json.loads(report_path.read_text())
        assert "robust_accuracy_constrained" in report["budgets"][0]

    def test_synth_saves_the_template_lines(self, cli_dataset):
        text = (cli_dataset / "constraints.txt").read_text()
        assert text == "F0 == F1 + F2\nif F1 > 0 then F4 > 0\n"

    def test_missing_model_exits_one(self, cli_dataset, tmp_path, capsys):
        code = cli_main(
            ["attack", "--model", str(tmp_path / "missing.json"),
             "--data", str(cli_dataset)]
        )
        assert code == 1
        assert "model file not found" in capsys.readouterr().err

    def test_unknown_flag_exits_one(self, capsys):
        assert cli_main(["synth", "--bogus"]) == 1

    def test_non_integer_iteration_sweep_exits_one(self, cli_dataset, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert cli_main(
            ["train", "--data", str(cli_dataset), "--epochs", "1",
             "--seed", "1", "--out", str(model_path)]
        ) == 0
        code = cli_main(
            ["sweep", "--model", str(model_path), "--data", str(cli_dataset),
             "--axis", "search_iters", "--values", "2.5",
             "--out", str(tmp_path / "sweep.csv")]
        )
        assert code == 1
        assert "must be integers" in capsys.readouterr().err

    def test_nan_eps_exits_one(self, cli_dataset, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert cli_main(
            ["train", "--data", str(cli_dataset), "--epochs", "1",
             "--seed", "1", "--out", str(model_path)]
        ) == 0
        common = ["--model", str(model_path), "--data", str(cli_dataset), "--cap", "5"]
        for argv in (
            ["sweep", "--axis", "eps", "--values", "nan",
             "--out", str(tmp_path / "sweep.csv")],
            ["attack", "--eps", "nan", "--n-gen", "2",
             "--out", str(tmp_path / "report.json")],
        ):
            capsys.readouterr()
            assert cli_main(argv + common) == 1
            assert "finite" in capsys.readouterr().err

    def test_nan_tolerance_exits_one(self, cli_dataset, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert cli_main(
            ["train", "--data", str(cli_dataset), "--epochs", "1",
             "--seed", "1", "--out", str(model_path)]
        ) == 0
        config = tmp_path / "config.json"
        config.write_text('{"tolerance": NaN, "n_gen": 5}')
        capsys.readouterr()
        assert cli_main(
            ["attack", "--model", str(model_path), "--data", str(cli_dataset),
             "--config", str(config), "--cap", "5", "--out", str(tmp_path / "r.json")]
        ) == 1
        assert "tolerance must be finite" in capsys.readouterr().err

    def test_bad_budget_config_exits_one(self, cli_dataset, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert cli_main(
            ["train", "--data", str(cli_dataset), "--epochs", "1",
             "--seed", "1", "--out", str(model_path)]
        ) == 0
        config = tmp_path / "config.json"
        for text, message in (
            ('{"lambda": NaN}', "lam must be finite"),
            ('{"n_gen": 2.5}', "n_gen must be an integer"),
            ('{"n_off": 3.0}', "n_off must be an integer"),
            ('{"n_pop": true}', "n_pop must be an integer"),
            ('{"seed": 1.5}', "seed must be an integer"),
            ('{"seed": -1}', "seed must be an integer in [0, 2**63 - 1], got -1"),
            ("[]", "config must be a JSON object, got list"),
            ('{"epochs": 5}', "unknown config keys: ['epochs']"),
            ('{"tolerance": "0.1"}', "tolerance must be finite"),
        ):
            config.write_text(text)
            capsys.readouterr()
            assert cli_main(
                ["attack", "--model", str(model_path), "--data", str(cli_dataset),
                 "--config", str(config), "--cap", "5", "--out", str(tmp_path / "r.json")]
            ) == 1, text
            assert message in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_bad_train_config_exits_one(self, cli_dataset, tmp_path, capsys):
        config = tmp_path / "config.json"
        for command, text, message in (
            ("train", "[]", "config must be a JSON object, got list"),
            ("train", '{"foo": 1}', "unknown config keys: ['foo']"),
            ("advtrain", '{"eps": 0.5}', "unknown config keys: ['eps']"),
            ("train", '{"epochs": "5"}', "epochs must be an integer"),
            ("train", '{"epochs": 1.5}', "epochs must be an integer"),
            ("advtrain", '{"batch_size": 0.5}', "batch_size must be an integer"),
            ("train", '{"adam_eps": 0.0}', "adam_eps must be finite and positive"),
            ("train", '{"adam_beta1": 1.5}', "adam_beta1 must be in [0, 1)"),
        ):
            config.write_text(text)
            capsys.readouterr()
            assert cli_main(
                [command, "--data", str(cli_dataset), "--config", str(config),
                 "--out", str(tmp_path / "m.json")]
            ) == 1, (command, text)
            assert message in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_negative_seed_exits_one(self, cli_dataset, cli_model, tmp_path, capsys):
        # The flag is named, not left to numpy's generator.
        for command, extra in (("synth", []), ("train", ["--data", str(cli_dataset)]),
                               ("advtrain", ["--data", str(cli_dataset)]),
                               ("attack", ["--data", str(cli_dataset), "--model", str(cli_model)])):
            capsys.readouterr()
            assert cli_main([command, *extra, "--seed", "-1",
                             "--out", str(tmp_path / "out")]) == 1, command
            assert "argument --seed: must be a nonnegative integer, got '-1'" in (
                capsys.readouterr().err
            )
        config = tmp_path / "config.json"
        config.write_text('{"seed": -1}')
        assert cli_main(["train", "--data", str(cli_dataset), "--config", str(config),
                         "--out", str(tmp_path / "out")]) == 1
        assert "seed must be an integer in [0, 2**63 - 1], got -1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_malformed_schema_exits_one(self, cli_dataset, tmp_path, capsys):
        schema = json.loads((cli_dataset / "schema.json").read_text())
        schema["features"][0]["mutable"] = "false"
        bad = tmp_path / "schema.json"
        bad.write_text(json.dumps(schema))
        (tmp_path / "model.json").write_text("{}")  # the schema is read first
        capsys.readouterr()
        assert cli_main(
            ["attack", "--model", str(tmp_path / "model.json"), "--data", str(cli_dataset),
             "--schema", str(bad), "--out", str(tmp_path / "r.json")]
        ) == 1
        assert "field 'mutable' must be bool, got str" in capsys.readouterr().err

    def test_oversized_integers_exit_one(self, cli_dataset, cli_model, tmp_path, capsys):
        # An integer past float's range is a validation error naming the
        # field, in a config and in a schema alike.
        big = 10**400
        model = ["--model", str(cli_model)]
        config = tmp_path / "config.json"
        schema = json.loads((cli_dataset / "schema.json").read_text())
        schema["features"][0]["max"] = big
        bad_schema = tmp_path / "schema.json"
        bad_schema.write_text(json.dumps(schema))
        for command, extra, text, message in (
            ("attack", model, {"eps": big}, "eps must be finite"),
            ("attack", model, {"tolerance": big}, "tolerance must be finite"),
            ("train", [], {"learning_rate": big}, "learning rate must be finite"),
            ("attack", model, None, "schema feature 0 field 'max' is an integer too large"),
            ("train", [], None, "schema feature 0 field 'max' is an integer too large"),
            # Integer settings past numpy's 64-bit range; n_pop crashed the search.
            ("attack", model, {"n_pop": big}, "n_pop must be an integer in [1, 2**63 - 1]"),
            ("attack", model, {"seed": 2**63}, "seed must be an integer in [0, 2**63 - 1]"),
            ("train", [], {"epochs": big}, "epochs must be an integer in [0, 2**63 - 1]"),
            ("train", [], {"batch_size": 2**63},
             "batch_size must be an integer in [1, 2**63 - 1]"),
        ):
            config.write_text(json.dumps(text or {}))
            flags = ["--schema", str(bad_schema)] if text is None else []
            capsys.readouterr()
            assert cli_main(
                [command, "--data", str(cli_dataset), *extra, *flags, "--config", str(config),
                 "--out", str(tmp_path / "out")]
            ) == 1, (command, message)
            assert message in capsys.readouterr().err
        assert cli_main(["synth", "--rows", str(big), "--out", str(tmp_path / "out")]) == 1
        assert "n_rows must be an integer in [2, 2**63 - 1]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_overlong_constraint_chain_exits_one(self, cli_dataset, cli_model, tmp_path, capsys):
        # A 1000-term sum parsed, then hit the recursion limit (exit 2).
        constraints = tmp_path / "constraints.txt"
        constraints.write_text(" + ".join(["F0"] * 1000) + " <= 1\n")
        capsys.readouterr()
        assert cli_main(
            ["attack", "--model", str(cli_model), "--data", str(cli_dataset),
             "--constraints", str(constraints), "--out", str(tmp_path / "out")]
        ) == 1
        assert "line 1, column 1004: expression nested too deeply" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_advtrain_rejects_constraint_violating_row(self, cli_dataset, tmp_path, capsys):
        ds = tmp_path / "ds"
        shutil.copytree(cli_dataset, ds)
        lines = (ds / "data.csv").read_text().splitlines()
        row = lines[4].split(",")  # data row 3
        f1_plus_f2 = float(row[1]) + float(row[2])
        row[0] = "10.0" if f1_plus_f2 < 5 else "-10.0"  # breaks F0 == F1 + F2
        lines[4] = ",".join(row)
        (ds / "data.csv").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli_main(
            ["advtrain", "--data", str(ds), "--epochs", "1", "--inner-iters", "1",
             "--out", str(tmp_path / "m.json")]
        ) == 1
        assert "row 3 violates the constraints" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_library_key_flags_default_to_none(self):
        # A flag is named by the library key it sets, and leaves the
        # default to the library.
        checked = set()
        for command, sub in build_parser()._subparsers._group_actions[0].choices.items():
            for action in sub._actions:
                if action.dest in LIBRARY_KEYS:
                    assert action.default is None, (command, action.dest)
                    checked.add(action.dest)
        assert checked == LIBRARY_KEYS

    def test_choice_lists_come_from_the_library(self):
        subs = build_parser()._subparsers._group_actions[0].choices
        found = {
            (command, action.dest): action.choices
            for command, sub in subs.items() for action in sub._actions
            if action.choices is not None
        }
        expected = {
            ("advtrain", "norm"): NORMS, ("attack", "norm"): NORMS,
            ("advtrain", "augment"): AUGMENT_METHODS, ("attack", "format"): REPORT_FORMATS,
            ("sweep", "axis"): harness.SWEEP_AXES,
        }
        assert found.keys() == expected.keys()
        assert all(found[key] is choices for key, choices in expected.items())

    def test_model_and_schema_widths_must_match(self, cli_model, tmp_path, capsys):
        # A 6-feature model on a 7-feature dataset fails before any attack.
        wide = tmp_path / "wide"
        assert cli_main(
            ["synth", "--rows", "600", "--features", "7", "--seed", "7", "--out", str(wide)]
        ) == 0
        for argv in (["attack"], ["sweep", "--axis", "eps", "--values", "0.5"]):
            capsys.readouterr()
            assert cli_main(
                [*argv, "--model", str(cli_model), "--data", str(wide), "--cap", "3",
                 "--out", str(tmp_path / "out")]
            ) == 1, argv
            assert "takes 6 features, but the schema has 7" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_model_and_schema_bounds_must_match(self, cli_dataset, cli_model, tmp_path, capsys):
        # The attack searches the model scaler's box and validation reads
        # the schema's bounds: widening a bound the data still meets
        # moves only the second.
        schema = json.loads((cli_dataset / "schema.json").read_text())
        schema["features"][0]["min"] -= 1.0
        edited = tmp_path / "schema.json"
        edited.write_text(json.dumps(schema))
        for argv in (["attack"], ["sweep", "--axis", "eps", "--values", "0.5"]):
            capsys.readouterr()
            assert cli_main(
                [*argv, "--model", str(cli_model), "--data", str(cli_dataset),
                 "--schema", str(edited), "--cap", "3", "--out", str(tmp_path / "out")]
            ) == 1, argv
            assert "trained for other feature bounds than the schema's" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_categorical_bounds_other_than_zero_and_one_exit_one(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        ds.mkdir()
        group = {"kind": "categorical", "min": 0, "max": 2, "onehot_group": "g"}
        (ds / "schema.json").write_text(json.dumps({"features": [
            {"name": "x", "min": 0, "max": 1}, {"name": "g_a", **group},
            {"name": "g_b", **group},
        ]}))
        rows = [f"{i / 40},{i % 2},{1 - i % 2},{i % 2}" for i in range(40)]
        (ds / "data.csv").write_text("\n".join(["x,g_a,g_b,label", *rows]) + "\n")
        capsys.readouterr()
        assert cli_main(
            ["train", "--data", str(ds), "--epochs", "1", "--out", str(tmp_path / "m.json")]
        ) == 1
        assert "categorical feature 'g_a': bounds must be [0, 1]" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_unread_flags_exit_one(self, cli_dataset, tmp_path, capsys):
        inputs = ["--inputs", str(tmp_path / "r.json")]
        for argv in (
            ["synth", "--config", "c.json"],
            ["report", *inputs, "--seed", "5"],
            ["report", *inputs, "--config", "c.json"],
            ["report", *inputs, "--schema", "s.json"],
            ["report", *inputs, "--constraints", "c.txt"],
            ["train", "--data", str(cli_dataset), "--constraints", "c.txt"],
        ):
            capsys.readouterr()
            assert cli_main([*argv, "--out", str(tmp_path / "out")]) == 1, argv
            assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        # `train` reads only data.csv and schema.json.
        ds = tmp_path / "ds"
        shutil.copytree(cli_dataset, ds)
        (ds / "constraints.txt").unlink()
        assert cli_main(
            ["train", "--data", str(ds), "--epochs", "1", "--out", str(tmp_path / "m.json")]
        ) == 0

    def test_bad_cap_and_repeated_sweep_values_exit_one(
        self, cli_dataset, cli_model, tmp_path, capsys
    ):
        common = ["--model", str(cli_model), "--data", str(cli_dataset),
                  "--out", str(tmp_path / "out")]
        for argv, message in (
            (["attack", "--cap", "0"], "cap must be None or an integer in [1, 2**63 - 1], got 0"),
            (["attack", "--cap", "-3"],
             "cap must be None or an integer in [1, 2**63 - 1], got -3"),
            (["sweep", "--axis", "eps", "--values", "0.5,0.5", "--cap", "2"],
             "sweep values must not repeat"),
            (["sweep", "--axis", "gradient_iters", "--values", "5,5.0", "--cap", "2"],
             "sweep values must not repeat"),
        ):
            capsys.readouterr()
            assert cli_main([*argv, *common]) == 1, argv
            assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_readme_commands_parse(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"## Command line\s+```bash\n(.*?)```", readme, re.S).group(1)
        commands = [
            shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("tabrobust ")
        ]
        assert [argv[0] for argv in commands] == [
            "synth", "train", "advtrain", "attack", "sweep", "report"
        ]
        for argv in commands:
            build_parser().parse_args(argv)

    def test_non_finite_training_options_exit_one(self, cli_dataset, tmp_path, capsys):
        common = ["--data", str(cli_dataset), "--epochs", "1", "--inner-iters", "1",
                  "--out", str(tmp_path / "m.json")]
        for extra, message in (
            (["--augment", "cutmix", "--augment-ratio", "nan"], "ratio must be finite"),
            (["--augment", "cutmix", "--augment-ratio", "inf"], "ratio must be finite"),
            (["--lr", "nan"], "learning rate must be finite"),
        ):
            capsys.readouterr()
            assert cli_main(["advtrain", *common, *extra]) == 1
            assert message in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_malformed_report_and_model_exit_one(
        self, cli_dataset, cli_model, tmp_path, capsys
    ):
        entry = {"axis": "eps", "value": 0.5, "budget": {},
                 "robust_accuracy_constrained": 1.0, "robust_accuracy_unconstrained": 1.0,
                 "n_success_constrained": 0, "n_success_unconstrained": 0}
        report = {"version": 1, "model": "m", "defense": "none", "seed": 0, "clean": {},
                  "attack_set_size": 1, "budgets": [entry]}
        unversioned = {k: v for k, v in report.items() if k != "version"}
        bad_report = tmp_path / "bad.json"
        for payload, message in (
            ({"version": 1, "model": "x"}, "report missing field 'budgets'"),
            ({**report, "version": 99}, "unsupported report version 99"),
            (unversioned, "unsupported report version None"),
            ({**report, "clean": {"accuracy": "x"}},
             "report field 'clean' entry 'accuracy' must be a finite number, got 'x'"),
            ({**report, "clean": {"accuracy": float("nan")}},
             "report field 'clean' entry 'accuracy' must be a finite number, got nan"),
            ({**report, "timing": {"attack_seconds": ["x"]}},
             "report field 'attack_seconds' entry 0 must be a finite number, got 'x'"),
            # One NaN robust accuracy scrambled the leaderboard's sort.
            *(({**report, "budgets": [{**entry, field: value}]},
               f"report field {field!r} must be a finite number in [0, 1], got {value!r}")
              for field in ("robust_accuracy_constrained", "robust_accuracy_unconstrained")
              for value in (float("nan"), float("inf"), -3.0, 7.5)),
            ([], "report must be a JSON object, got list"),
            ({**report, "budgets": 5}, "report field 'budgets' must be list, got int"),
            ({**report, "seed": "0"}, "report field 'seed' must be int, got str"),
            ({**report, "budgets": [[]]}, "report budget entry must be a JSON object, got list"),
            ({**report, "budgets": [{**entry, "n_success_constrained": True}]},
             "report field 'n_success_constrained' must be int, got bool"),
            ({**report, "timing": []}, "report field 'timing' must be dict, got list"),
        ):
            bad_report.write_text(json.dumps(payload))
            capsys.readouterr()
            assert cli_main(["report", "--inputs", str(bad_report),
                             "--out", str(tmp_path / "lb.csv")]) == 1, payload
            assert message in capsys.readouterr().err
        bad_report.write_text(json.dumps(report))
        assert cli_main(["report", "--inputs", str(bad_report),
                         "--out", str(tmp_path / "lb.csv")]) == 0
        bad_model = tmp_path / "model.json"
        # Trained checkpoint: 6 features, hidden (64, 32, 16).
        trained = json.loads(cli_model.read_text())
        scaler, weights, biases = trained["scaler"], trained["weights"], trained["biases"]

        def first_row(row):  # the weights with the first layer's first row replaced
            return [[row, *weights[0][1:]], *weights[1:]]

        bad_weights = ("each layer of model field 'weights' must be a list of equal-length "
                       "lists of finite numbers")
        for payload, message in (
            ({"version": 1}, "model missing field 'n_features'"),
            ([], "model must be a JSON object, got list"),
            ({"version": 1, "n_features": 3, "hidden": 5},
             "model field 'hidden' must be list, got int"),
            ({"version": 1, "n_features": 3, "hidden": [2.5]},
             "model field 'hidden' must be a list of integers"),
            ({"version": 1, "n_features": 3, "hidden": [], "weights": [], "biases": [],
              "scaler": {"min": [0.0]}}, "scaler missing field 'width'"),
            ({**trained, "scaler": {**scaler, "width": scaler["width"][:3]}},
             "model scaler fields 'min' and 'width' must have 6 entries"),
            ({**trained, "weights": [weights[0][:4], *weights[1:]]},
             "model field 'weights' must have shapes [(6, 64), (64, 32), (32, 16), (16, 2)]"),
            ({**trained, "biases": biases[:-1]},
             "model field 'biases' must have shapes [(64,), (32,), (16,), (2,)]"),
            ({**trained, "scaler": {**scaler, "width": [0.0] * 6}},
             "scaler field 'width' must be positive"),
            ({**trained, "scaler": None}, "model field 'scaler' must be dict, got NoneType"),
            ({**trained, "weights": first_row(weights[0][0][:-1])}, bad_weights),
            ({**trained, "weights": first_row(["x", *weights[0][0][1:]])}, bad_weights),
            ({**trained, "weights": first_row([None, *weights[0][0][1:]])}, bad_weights),
            ({**trained, "biases": [*biases[:-1], [float("inf"), 0.0]]},
             "each layer of model field 'biases' must be a list of finite numbers"),
            ({**trained, "hidden": [-4]}, "model field 'hidden' must be a list of integers >= 1"),
            ({**trained, "n_features": -3}, "model field 'n_features' must be >= 1, got -3"),
        ):
            bad_model.write_text(json.dumps(payload))
            capsys.readouterr()
            assert cli_main(["attack", "--model", str(bad_model), "--data", str(cli_dataset),
                             "--out", str(tmp_path / "r.json")]) == 1, payload
            assert message in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0
        assert cli_main(["attack", "--help"]) == 0

    def test_sweep_writes_rows(self, cli_dataset, tmp_path):
        model_path = tmp_path / "model.json"
        assert cli_main(
            ["train", "--data", str(cli_dataset), "--epochs", "8",
             "--seed", "1", "--out", str(model_path)]
        ) == 0
        out = tmp_path / "sweep.csv"
        code = cli_main(
            ["sweep", "--model", str(model_path), "--data", str(cli_dataset),
             "--axis", "eps", "--values", "0.25,0.5,1", "--cap", "10",
             "--seed", "2", "--out", str(out)]
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3  # one row per budget value

        report_path = tmp_path / "report.json"
        assert cli_main(
            ["attack", "--model", str(model_path), "--data", str(cli_dataset),
             "--n-gen", "1", "--cap", "10", "--seed", "2",
             "--out", str(report_path)]
        ) == 0
        clean = json.loads(report_path.read_text())["clean"]
        for row in rows:
            assert int(row["attack_set_size"]) == 10
            for metric in ("accuracy", "auc", "mcc", "precision", "recall"):
                assert row[f"clean_{metric}"] != ""
                assert float(row[f"clean_{metric}"]) == clean[metric]

    def test_report_merges_leaderboard(self, cli_dataset, tmp_path):
        model_path = tmp_path / "model.json"
        assert cli_main(
            ["train", "--data", str(cli_dataset), "--epochs", "5",
             "--seed", "1", "--out", str(model_path)]
        ) == 0
        reports = []
        for seed in ("2", "3"):
            rp = tmp_path / f"r{seed}.json"
            assert cli_main(
                ["attack", "--model", str(model_path), "--data", str(cli_dataset),
                 "--n-gen", "3", "--cap", "8", "--seed", seed, "--out", str(rp)]
            ) == 0
            reports.append(str(rp))
        out = tmp_path / "leaderboard.csv"
        assert cli_main(["report", "--inputs", *reports, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        header = lines[0].split(",")
        ra_col = header.index("robust_accuracy_constrained")
        values = [float(line.split(",")[ra_col]) for line in lines[1:]]
        assert values == sorted(values, reverse=True)

    def test_advtrain_happy_path(self, cli_dataset, tmp_path, capsys):
        model_path = tmp_path / "model_at.json"
        code = cli_main(
            ["advtrain", "--data", str(cli_dataset), "--epochs", "3",
             "--seed", "1", "--eps", "0.3", "--inner-iters", "2",
             "--out", str(model_path)]
        )
        assert code == 0 and model_path.exists()
        best = re.search(r"val AUC best=\d\.\d{4} \(epoch (\d+)\) last=\d\.\d{4}; saved",
                         capsys.readouterr().out)
        assert best and 0 <= int(best.group(1)) < 3

    @pytest.mark.parametrize("command", ["train", "advtrain"])
    def test_zero_epochs_saves_untrained_model(self, command, cli_dataset, tmp_path, capsys):
        out = tmp_path / "model.json"
        assert cli_main([command, "--data", str(cli_dataset), "--epochs", "0",
                         "--out", str(out)]) == 0
        assert out.exists() and capsys.readouterr().out == f"saved untrained model to {out}\n"
