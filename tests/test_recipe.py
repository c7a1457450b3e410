"""Recipe parsing, validation, lowering, and operator sampling."""

import json
import random
from collections import Counter

import pytest

from recipefuzz.recipe import (
    ByteRange,
    MutationRecipe,
    OperatorKind,
    OPERATOR_ORDER,
    SchemaViolation,
    Selector,
    choose_operator,
    decode_token,
    encode_token,
    lower_recipe,
    merge_ranges,
    parse_recipe,
)

from conftest import REFERENCE_WEIGHTS


def make_doc(**overrides):
    doc = {
        "id": "t1",
        "selector": {"mode": "mode", "key": "any"},
        "priority": 1,
        "ttl_sec": 60,
        "operator_weights": {"BitFlip": 1.0},
    }
    doc.update(overrides)
    return json.dumps(doc)


class TestParse:
    def test_reference_document(self, reference_recipe_text):
        recipe = parse_recipe(reference_recipe_text)
        assert len(recipe.operator_weights) == 7
        assert sum(recipe.operator_weights.values()) == pytest.approx(1.00)
        assert len(recipe.focus_ranges) == 2
        assert len(recipe.protect_ranges) == 1
        assert len(recipe.dictionary_tokens) == 7
        assert b'"' in recipe.dictionary_tokens
        assert recipe.selector.mode == "seed_hash"

    def test_missing_operator_weights(self):
        doc = json.loads(make_doc())
        del doc["operator_weights"]
        with pytest.raises(SchemaViolation) as exc:
            parse_recipe(json.dumps(doc))
        assert any(path == "operator_weights" for path, _ in exc.value.violations)

    def test_negative_weight(self):
        text = make_doc(operator_weights={"BitFlip": -0.1, "Arith": 0.5})
        with pytest.raises(SchemaViolation) as exc:
            parse_recipe(text)
        assert any("BitFlip" in path for path, _ in exc.value.violations)

    def test_weight_above_one(self):
        with pytest.raises(SchemaViolation):
            parse_recipe(make_doc(operator_weights={"BitFlip": 1.5}))

    def test_nan_weight_rejected(self):
        # json.loads accepts the NaN literal, and NaN fails both bound checks.
        text = make_doc(operator_weights={"BitFlip": float("nan"), "Arith": 0.5})
        assert '"BitFlip": NaN' in text
        with pytest.raises(SchemaViolation) as exc:
            parse_recipe(text)
        assert exc.value.violations == [("operator_weights.BitFlip", "weight must be finite")]

    def test_unknown_operator(self):
        with pytest.raises(SchemaViolation):
            parse_recipe(make_doc(operator_weights={"MegaFlip": 0.5}))

    def test_unknown_top_level_field(self):
        doc = json.loads(make_doc())
        doc["bonus"] = 1
        with pytest.raises(SchemaViolation):
            parse_recipe(json.dumps(doc))

    def test_duplicate_operator_keys_rejected(self):
        text = (
            '{"id": "d", "selector": {"mode": "mode", "key": "k"}, "priority": 1,'
            ' "ttl_sec": 5, "operator_weights": {"BitFlip": 0.5, "BitFlip": 0.5}}'
        )
        with pytest.raises(SchemaViolation) as exc:
            parse_recipe(text)
        assert "duplicate" in str(exc.value)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(SchemaViolation):
            parse_recipe(make_doc(operator_weights={"BitFlip": 0.0, "Arith": 0}))

    def test_token_required_when_token_op_weighted(self):
        with pytest.raises(SchemaViolation) as exc:
            parse_recipe(make_doc(operator_weights={"InsertToken": 1.0}))
        assert any(path == "dictionary_tokens" for path, _ in exc.value.violations)
        # DictionaryOverwrite triggers the same rule.
        with pytest.raises(SchemaViolation):
            parse_recipe(make_doc(operator_weights={"DictionaryOverwrite": 1.0}))

    def test_bad_ranges(self):
        for bad in ([[5, 5]], [[7, 2]], [[-1, 4]], [[0, 2**32 + 1]]):
            with pytest.raises(SchemaViolation):
                parse_recipe(make_doc(focus_ranges=bad))

    def test_ttl_and_priority_floor(self):
        with pytest.raises(SchemaViolation):
            parse_recipe(make_doc(ttl_sec=0))
        with pytest.raises(SchemaViolation):
            parse_recipe(make_doc(priority=0))

    def test_empty_selector_key(self):
        with pytest.raises(SchemaViolation):
            parse_recipe(make_doc(selector={"mode": "family", "key": ""}))

    @pytest.mark.parametrize("key", [5, None, ["a"]])
    def test_non_string_selector_key_is_dropped(self, key):
        # Not coerced to "5", "None" or "['a']".
        with pytest.raises(SchemaViolation) as exc:
            parse_recipe(make_doc(selector={"mode": "family", "key": key}))
        assert exc.value.violations == [("selector.key", "must be a non-empty string")]

    @pytest.mark.parametrize("field,value", [("priority", "3"), ("ttl_sec", 1.5)])
    def test_non_integer_scalar_is_reported_as_such(self, field, value):
        # Not replaced by 0 and then reported as "must be >= 1".
        with pytest.raises(SchemaViolation) as exc:
            parse_recipe(make_doc(**{field: value}))
        assert exc.value.violations == [(field, "must be an integer")]

    @pytest.mark.parametrize("op", ["InsertToken", "DictionaryOverwrite"])
    @pytest.mark.parametrize("weight", [[1], {"a": 1}, "abc", "0.5"])
    def test_malformed_token_op_weight_is_one_violation(self, op, weight):
        # Neither a raw TypeError/ValueError nor a token violation for a
        # weight that is not a number.
        with pytest.raises(SchemaViolation) as exc:
            parse_recipe(make_doc(operator_weights={"BitFlip": 1.0, op: weight}))
        assert exc.value.violations == [(f"operator_weights.{op}", "weight must be numeric")]

    def test_token_length_bounds(self):
        with pytest.raises(SchemaViolation):
            parse_recipe(
                make_doc(
                    operator_weights={"BitFlip": 1.0},
                    dictionary_tokens=["x" * 65],
                )
            )
        with pytest.raises(SchemaViolation):
            parse_recipe(
                make_doc(operator_weights={"BitFlip": 1.0}, dictionary_tokens=[""])
            )

    def test_not_json(self):
        with pytest.raises(SchemaViolation):
            parse_recipe(b"\xff\xfe not a doc")
        with pytest.raises(SchemaViolation):
            parse_recipe("[1, 2]")


class TestTokens:
    def test_escape_round_trip(self):
        for token in (b"{", b"\x00\x01\xff", b'say "hi"\\', b"plain", bytes(range(256))):
            assert decode_token(encode_token(token)) == token

    def test_bad_escapes(self):
        for bad in ("\\x", "\\xZZ", "\\q", "tab\there"):
            with pytest.raises(ValueError):
                decode_token(bad)


class TestLower:
    def test_reference_lowering(self, reference_recipe_text):
        compact = lower_recipe(parse_recipe(reference_recipe_text))
        assert compact.cumulative_weights[-1] == 1.0
        assert all(
            b >= a
            for a, b in zip(compact.cumulative_weights, compact.cumulative_weights[1:])
        )
        assert len(compact.tokens) == 7
        assert compact.tokens == (b"{", b"}", b"[", b"]", b'"', b"true", b"null")

    def test_normalization_preserves_relative_weights(self):
        # Unnormalized proposal: weights sum to 2.0.
        recipe = parse_recipe(
            make_doc(operator_weights={"BitFlip": 1.0, "Arith": 0.5, "Splice": 0.5})
        )
        compact = lower_recipe(recipe)
        cum = (0.0,) + compact.cumulative_weights
        weight = {op: cum[i + 1] - cum[i] for i, op in enumerate(OPERATOR_ORDER)}
        assert weight[OperatorKind.BitFlip] == pytest.approx(0.5, rel=1e-9)
        assert weight[OperatorKind.Arith] == pytest.approx(0.25, rel=1e-9)
        assert weight[OperatorKind.Splice] == pytest.approx(0.25, rel=1e-9)
        assert weight[OperatorKind.InsertToken] == 0.0

    def test_range_merging(self):
        recipe = parse_recipe(make_doc(focus_ranges=[[5, 20], [0, 10]]))
        compact = lower_recipe(recipe)
        assert compact.focus_ranges == (ByteRange(0, 20),)

    def test_adjacent_ranges_merge(self):
        assert merge_ranges([ByteRange(0, 5), ByteRange(5, 9)]) == (ByteRange(0, 9),)
        assert merge_ranges([ByteRange(3, 4), ByteRange(8, 9)]) == (
            ByteRange(3, 4),
            ByteRange(8, 9),
        )

    def test_degenerate_weights(self):
        recipe = MutationRecipe(
            id="zero",
            selector=Selector("mode", "any"),
            priority=1,
            ttl_sec=5,
            operator_weights={"BitFlip": 0.0},
        )
        with pytest.raises(SchemaViolation):
            lower_recipe(recipe)


class TestChooseOperator:
    def test_point_mass(self):
        compact = lower_recipe(parse_recipe(make_doc()))
        rng = random.Random(3)
        assert all(
            choose_operator(compact, rng) is OperatorKind.BitFlip for _ in range(200)
        )

    def test_frequency_matches_weights(self, reference_recipe_text):
        compact = lower_recipe(parse_recipe(reference_recipe_text))
        rng = random.Random(7)
        n = 100_000
        counts = Counter(choose_operator(compact, rng) for _ in range(n))
        for op in OPERATOR_ORDER:
            expected = REFERENCE_WEIGHTS[op.value]
            assert abs(counts[op] / n - expected) < 0.01

    def test_deterministic_sequence(self, reference_recipe_text):
        compact = lower_recipe(parse_recipe(reference_recipe_text))
        seq1 = [choose_operator(compact, random.Random(11)) for _ in range(1)]
        a = random.Random(11)
        b = random.Random(11)
        seq_a = [choose_operator(compact, a) for _ in range(500)]
        seq_b = [choose_operator(compact, b) for _ in range(500)]
        assert seq_a == seq_b

    def test_zero_weight_never_sampled(self):
        compact = lower_recipe(
            parse_recipe(make_doc(operator_weights={"BitFlip": 0.5, "DeleteBlock": 0.5}))
        )
        rng = random.Random(5)
        seen = {choose_operator(compact, rng) for _ in range(5000)}
        assert seen == {OperatorKind.BitFlip, OperatorKind.DeleteBlock}

    def test_argmax_preserved_by_lowering(self, reference_recipe_text):
        recipe = parse_recipe(reference_recipe_text)
        compact = lower_recipe(recipe)
        rng = random.Random(13)
        counts = Counter(choose_operator(compact, rng) for _ in range(100_000))
        most_frequent = counts.most_common(1)[0][0]
        heaviest = max(recipe.operator_weights, key=recipe.operator_weights.get)
        assert most_frequent.value == heaviest
