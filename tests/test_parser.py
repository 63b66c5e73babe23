"""Constraint language: parsing, constraint files, totality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabrobust.data import DatasetSchema, FeatureMetadata
from tabrobust.engine import check
from tabrobust.expressions import (
    Abs,
    Add,
    Constant,
    ConstraintSet,
    Feature,
    Implies,
    Log,
    Max,
    Min,
    Mul,
    Pow,
    Relation,
    SafeDiv,
    Sub,
    evaluate_expr,
)
from tabrobust.parser import (
    ConstraintParseError,
    load_constraints,
    parse_constraint,
    save_constraints,
)

SCHEMA = DatasetSchema.generic(8)


class TestParse:
    def test_sum_relation(self):
        c = parse_constraint("F0 == F1 + F2", SCHEMA)
        assert c == Relation("==", Feature(0), Add(Feature(1), Feature(2)))

    def test_reflexive_relation(self):
        c = parse_constraint("F3 <= F3", SCHEMA)
        assert c == Relation("<=", Feature(3), Feature(3))

    def test_implication(self):
        c = parse_constraint("if F1 > 0 then F4 > 0", SCHEMA)
        assert c == Implies(
            Relation(">", Feature(1), Constant(0.0)),
            Relation(">", Feature(4), Constant(0.0)),
        )

    def test_named_columns_resolve(self):
        schema = DatasetSchema(
            [
                FeatureMetadata("amount", min=0, max=100),
                FeatureMetadata("rate", min=0, max=1),
            ]
        )
        c = parse_constraint("amount >= rate * 10", schema)
        assert features_sorted(c) == [0, 1]

    def test_precedence(self):
        c = parse_constraint("F0 == F1 + F2 * F3 ^ 2", SCHEMA)
        assert c == Relation(
            "==",
            Feature(0),
            Add(Feature(1), Mul(Feature(2), Pow(Feature(3), Constant(2.0)))),
        )

    def test_parentheses(self):
        c1 = parse_constraint("(F0 + F1) * F2 <= 5", SCHEMA)
        c2 = parse_constraint("F0 + F1 * F2 <= 5", SCHEMA)
        assert c1 != c2

    def test_min_max_calls(self):
        c = parse_constraint("min(F0, F1, 3) <= max(F2, 0.5)", SCHEMA)
        assert c == Relation(
            "<=",
            Min((Feature(0), Feature(1), Constant(3.0))),
            Max((Feature(2), Constant(0.5))),
        )

    @pytest.mark.parametrize("text, left", [
        ("F0 - F1 - F2", Sub(Sub(Feature(0), Feature(1)), Feature(2))),
        ("F0 / F1 / F2", SafeDiv(SafeDiv(Feature(0), Feature(1)), Feature(2))),
        ("F0 - (F1 - F2)", Sub(Feature(0), Sub(Feature(1), Feature(2)))),
        ("(F0 + F1) ^ 2", Pow(Add(Feature(0), Feature(1)), Constant(2.0))),
    ])
    def test_association_and_grouping(self, text, left):
        assert parse_constraint(f"{text} == 0", SCHEMA) == Relation("==", left, Constant(0.0))

    def test_nested_calls(self):
        c = parse_constraint("log(abs(F0)) <= max(min(F1, F2), -3)", SCHEMA)
        assert c == Relation(
            "<=",
            Log(Abs(Feature(0))),
            Max((Min((Feature(1), Feature(2))), Constant(-3.0))),
        )

    def test_signed_literal(self):
        c = parse_constraint("F0 >= -1.5", SCHEMA)
        assert c == Relation(">=", Feature(0), Constant(-1.5))


class TestParseErrors:
    def test_unknown_feature_name(self):
        with pytest.raises(ConstraintParseError, match="unknown feature name 'F99'"):
            parse_constraint("F99 == 0", SCHEMA)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ConstraintParseError) as err:
            parse_constraint("F0 == + 2", SCHEMA)
        assert err.value.line == 1
        assert err.value.column >= 7

    def test_missing_operator(self):
        with pytest.raises(ConstraintParseError, match="relational operator"):
            parse_constraint("F0 + F1", SCHEMA)

    def test_unbalanced_parens(self):
        with pytest.raises(ConstraintParseError):
            parse_constraint("(F0 + F1 == 2", SCHEMA)

    def test_equality_guard_rejected(self):
        with pytest.raises(ConstraintParseError, match="equality guards"):
            parse_constraint("if F0 == 1 then F1 > 0", SCHEMA)

    def test_arity_bad_call(self):
        with pytest.raises(ConstraintParseError):
            parse_constraint("log() == 1", SCHEMA)

    def test_trailing_garbage(self):
        with pytest.raises(ConstraintParseError, match="trailing"):
            parse_constraint("F0 == 1 banana", SCHEMA)

    def test_deep_nesting_rejected_not_crashing(self):
        text = "(" * 500 + "F0" + ")" * 500 + " == 1"
        with pytest.raises(ConstraintParseError, match="nested too deeply"):
            parse_constraint(text, SCHEMA)

    def test_long_operator_chains_rejected_not_crashing(self):
        # Each link is one level of the tree that evaluation walks
        # recursively: a 600-term sum parsed, then crashed in `check`.
        nested = "F0"
        for _ in range(10):  # a chain as the left operand of the next
            nested = f"({nested}{' + F1' * 50})"
        for text in (" + ".join(["F0"] * 1000), " * ".join(["F0"] * 1000),
                     " - ".join(["F0"] * 201), nested):
            with pytest.raises(ConstraintParseError, match="nested too deeply"):
                parse_constraint(text + " <= 1", SCHEMA)

    def test_long_chains_and_deep_parentheses_within_the_limit(self):
        c = parse_constraint(" + ".join(["F0"] * 150) + " == 150", SCHEMA)
        assert evaluate_expr(c.left, np.ones(8)) == 150.0
        assert check(ConstraintSet([c]), np.ones((2, 8))).all()
        text = "(" * 199 + "F0" + ")" * 199 + " == 1"
        assert parse_constraint(text, SCHEMA) == Relation("==", Feature(0), Constant(1.0))

    @pytest.mark.parametrize("text", ["F0 <= 1e400", "F0 >= -1e400", "F0 == 1e400 * F1"])
    def test_number_past_float_range_rejected(self, text):
        # 1e400 parsed to inf, and the penalty of `F0 == 1e400 * F1` to NaN.
        with pytest.raises(ConstraintParseError,
                           match="line 3, column 7: number too large for a float"):
            parse_constraint(text, SCHEMA, line=3)


class TestRoundTrip:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_any_float_literal_round_trips(self, value):
        c = Relation("==", Feature(0), Constant(value))
        assert parse_constraint(f"F0 == {value!r}", SCHEMA) == c

    @given(st.text(max_size=80))
    @settings(max_examples=300, deadline=None)
    def test_parser_totality(self, text):
        try:
            parse_constraint(text, SCHEMA)
        except ConstraintParseError as e:
            assert e.line >= 1 and e.column >= 1


class TestConstraintFiles:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "constraints.txt"
        path.write_text(
            "# domain relations\n"
            "F0 == F1 + F2\n"
            "\n"
            "if F1 > 0 then F4 > 0  # boolean\n"
        )
        cs = load_constraints(path, SCHEMA)
        assert len(cs) == 2
        assert cs.source_text[0] == "F0 == F1 + F2"

        out = tmp_path / "out.txt"
        save_constraints(cs, out)
        assert out.read_text() == "F0 == F1 + F2\nif F1 > 0 then F4 > 0\n"
        cs2 = load_constraints(out, SCHEMA)
        assert cs2.constraints == cs.constraints

    def test_constraint_without_source_text_is_not_saved(self, tmp_path):
        cs = ConstraintSet([Relation("<=", Feature(0), Constant(1.0))])
        with pytest.raises(ValueError, match="constraint 0 has no source text"):
            save_constraints(cs, tmp_path / "out.txt")

    def test_error_reports_file_line(self, tmp_path):
        path = tmp_path / "constraints.txt"
        path.write_text("F0 == F1\nF0 ===== F1\n")
        with pytest.raises(ConstraintParseError, match="line 2"):
            load_constraints(path, SCHEMA)


def features_sorted(c):
    from tabrobust.expressions import features_of

    return sorted(features_of(c))
