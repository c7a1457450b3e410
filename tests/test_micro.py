"""Micro-campaign gate: snapshots, reward, candidate evaluation, winner."""

import hashlib
import json
import random

import pytest

from recipefuzz.micro import (
    BudgetZero,
    Candidate,
    EmptyQueue,
    EmptyResults,
    ExecutorFailure,
    IoFailure,
    MicroResult,
    PromotionDecision,
    RewardWeights,
    compute_reward,
    decide_winner,
    evaluate_candidate,
    read_queue,
    snapshot_corpus,
    snapshot_digest,
)
from recipefuzz.recipe import parse_recipe
from recipefuzz.targets import ParserTarget, StaircaseTarget
from recipefuzz.targets import PARSER_SEEDS, STAIRCASE_SEEDS


def recipe_with_tokens(tokens, selector=None, recipe_id="cand"):
    return parse_recipe(
        json.dumps(
            {
                "id": recipe_id,
                "selector": selector or {"mode": "mode", "key": "any"},
                "priority": 1,
                "ttl_sec": 300,
                "operator_weights": {
                    "InsertToken": 0.4,
                    "DictionaryOverwrite": 0.2,
                    "Splice": 0.15,
                    "OverwriteRange": 0.1,
                    "BitFlip": 0.1,
                    "Arith": 0.03,
                    "DeleteBlock": 0.02,
                },
                "dictionary_tokens": tokens,
            }
        )
    )


def fill_queue(tmp_path, seeds):
    queue = tmp_path / "queue"
    queue.mkdir()
    for name, data in seeds:
        (queue / name).write_bytes(data)
    return queue


class TestComputeReward:
    W = RewardWeights()

    def test_pinned_weight_values(self):
        w = RewardWeights()
        assert (w.alpha, w.beta, w.gamma, w.delta_h, w.delta_m) == (
            1.0,
            0.5,
            10.0,
            1e-3,
            5e-4,
        )

    def test_worked_example(self):
        r = compute_reward(3, 0, 0, 100, 40, self.W, bitmap_available=True)
        assert r == pytest.approx(3.08, abs=1e-9)

    def test_all_zero(self):
        assert compute_reward(0, 0, 0, 0, 0, self.W, True) == 0.0

    def test_fallback_branch(self):
        r = compute_reward(7, 4, 0, 0, 0, self.W, bitmap_available=False)
        assert r == pytest.approx(0.5 * 4)

    def test_crash_term(self):
        assert compute_reward(0, 0, 1, 0, 0, self.W, True) == pytest.approx(10.0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            compute_reward(-1, 0, 0, 0, 0, self.W, True)

    def test_affine_against_brute_force(self):
        rng = random.Random(55)
        w = self.W
        for _ in range(2_000):
            de, dp, dc, h, m = (rng.randrange(0, 1000) for _ in range(5))
            available = rng.random() < 0.5
            expected = (
                (w.alpha * de if available else w.beta * dp)
                + w.gamma * dc
                + w.delta_h * h
                - w.delta_m * m
            )
            assert compute_reward(de, dp, dc, h, m, w, available) == expected


class TestSnapshot:
    def test_copy_and_manifest(self, tmp_path):
        queue = fill_queue(tmp_path, [("a", b"one"), ("b", b"two"), ("c", b"three")])
        ref = snapshot_corpus(read_queue(queue), tmp_path / "snap")
        assert [e.seed_id for e in ref.entries] == ["a", "b", "c"]
        for name in ("a", "b", "c"):
            assert (ref.path / name).read_bytes() == (queue / name).read_bytes()
        manifest = json.loads((ref.path / "manifest.json").read_text())
        assert len(manifest) == 3
        assert manifest == {e.seed_id: e.seed_hash for e in ref.entries}

    def test_empty_queue(self, tmp_path):
        queue = tmp_path / "queue"
        queue.mkdir()
        with pytest.raises(EmptyQueue):
            snapshot_corpus(read_queue(queue), tmp_path / "snap")

    def test_immutability_after_queue_changes(self, tmp_path):
        queue = fill_queue(tmp_path, [("a", b"one"), ("b", b"two")])
        ref = snapshot_corpus(read_queue(queue), tmp_path / "snap")
        digest_before = snapshot_digest(ref)
        (queue / "a").write_bytes(b"MUTATED")
        (queue / "new").write_bytes(b"added later")
        assert snapshot_digest(ref) == digest_before == ref.digest

    def test_load_entries(self, tmp_path):
        queue = fill_queue(tmp_path, [("x", b"payload")])
        ref = snapshot_corpus(read_queue(queue), tmp_path / "snap")
        entries = ref.entries
        assert entries[0].data == b"payload"
        assert entries[0].seed_id == "x"


class TestReadQueue:
    def test_entries_sorted_with_hashes(self, tmp_path):
        queue = fill_queue(tmp_path, [("b", b"two"), ("a", b"one"), ("c", b"three")])
        entries = read_queue(queue)
        assert [e.seed_id for e in entries] == ["a", "b", "c"]
        assert [e.data for e in entries] == [b"one", b"two", b"three"]
        for e in entries:
            assert e.seed_hash == hashlib.sha256(e.data).hexdigest()

    def test_missing_dir(self, tmp_path):
        with pytest.raises(IoFailure):
            read_queue(tmp_path / "absent")


class TestEvaluateCandidate:
    def test_saturated_target_scores_zero(self, tmp_path):
        # The parser seed corpus covers every reachable edge, so a
        # well-formed global candidate earns exactly 0.0.
        queue = fill_queue(tmp_path, PARSER_SEEDS)
        ref = snapshot_corpus(read_queue(queue), tmp_path / "snap")
        candidate = Candidate(
            recipe_with_tokens(["FUZZ", "MAGIC", "TOKEN"]), "dictionary", "c0"
        )
        result = evaluate_candidate(
            candidate, ref, ParserTarget(), RewardWeights(), 1, budget_execs=400
        )
        assert result.delta_edges == 0
        assert result.delta_paths == 0
        assert result.delta_crashes == 0
        assert result.hits == 0
        assert result.execs == 400
        assert result.reward <= 0.0

    def test_gate_token_candidate_discovers(self, tmp_path):
        queue = fill_queue(tmp_path, STAIRCASE_SEEDS)
        ref = snapshot_corpus(read_queue(queue), tmp_path / "snap")
        target = StaircaseTarget()
        gate = Candidate(recipe_with_tokens(["XKEY1"]), "dictionary", "gate")
        garbage = Candidate(
            recipe_with_tokens(["FUZZ", "MAGIC", "TOKEN"]), "default", "garbage"
        )
        r_gate = evaluate_candidate(
            gate, ref, target, RewardWeights(), 3, budget_execs=600
        )
        r_garbage = evaluate_candidate(
            garbage, ref, target, RewardWeights(), 3, budget_execs=600
        )
        assert r_gate.delta_edges >= 4
        assert r_gate.reward > 0
        assert r_garbage.delta_edges == 0
        assert r_garbage.reward <= 0
        assert r_gate.reward > r_garbage.reward

    def test_selector_mismatch_bleeds_misses(self, tmp_path):
        queue = fill_queue(tmp_path, PARSER_SEEDS)
        ref = snapshot_corpus(read_queue(queue), tmp_path / "snap")
        candidate = Candidate(
            recipe_with_tokens(
                ["FUZZ"], selector={"mode": "seed_id", "key": "no-such-seed"}
            ),
            "seed_focus",
            "c1",
        )
        result = evaluate_candidate(
            candidate, ref, ParserTarget(), RewardWeights(), 2, budget_execs=200
        )
        assert result.misses == 200
        assert result.reward < 0

    def test_budget_zero(self, tmp_path):
        queue = fill_queue(tmp_path, [("a", b"x")])
        ref = snapshot_corpus(read_queue(queue), tmp_path / "snap")
        candidate = Candidate(recipe_with_tokens(["T1"]), "default", "c")
        with pytest.raises(BudgetZero):
            evaluate_candidate(
                candidate, ref, ParserTarget(), RewardWeights(), 0, budget_execs=0
            )
        with pytest.raises(BudgetZero):
            evaluate_candidate(candidate, ref, ParserTarget(), RewardWeights(), 0)

    def test_executor_failure_wrapped(self, tmp_path):
        queue = fill_queue(tmp_path, [("a", b"xy")])
        ref = snapshot_corpus(read_queue(queue), tmp_path / "snap")

        class Broken:
            name = "broken"

            def execute(self, data):
                raise RuntimeError("harness fault")

        candidate = Candidate(recipe_with_tokens(["T1"]), "default", "c")
        with pytest.raises(ExecutorFailure):
            evaluate_candidate(
                candidate, ref, Broken(), RewardWeights(), 0, budget_execs=10
            )

    def test_deterministic_per_seed(self, tmp_path):
        queue = fill_queue(tmp_path, STAIRCASE_SEEDS)
        ref = snapshot_corpus(read_queue(queue), tmp_path / "snap")
        candidate = Candidate(recipe_with_tokens(["XKEY1"]), "dictionary", "c")
        a = evaluate_candidate(
            candidate, ref, StaircaseTarget(), RewardWeights(), 9, budget_execs=300
        )
        b = evaluate_candidate(
            candidate, ref, StaircaseTarget(), RewardWeights(), 9, budget_execs=300
        )
        assert a == b

    def test_reward_matches_fields(self, tmp_path):
        queue = fill_queue(tmp_path, STAIRCASE_SEEDS)
        ref = snapshot_corpus(read_queue(queue), tmp_path / "snap")
        candidate = Candidate(recipe_with_tokens(["XKEY1"]), "dictionary", "c")
        w = RewardWeights()
        result = evaluate_candidate(
            candidate, ref, StaircaseTarget(), w, 4, budget_execs=500
        )
        assert result.reward == compute_reward(
            result.delta_edges,
            result.delta_paths,
            result.delta_crashes,
            result.hits,
            result.misses,
            w,
            result.bitmap_available,
        )


def mk_result(cid, reward):
    return MicroResult(cid, 0, 0, 0, 0, 0, 100, reward, True)


class TestDecideWinner:
    def test_all_zero_skips(self):
        decision, events = decide_winner([mk_result(f"c{i}", 0.0) for i in range(4)])
        assert decision == PromotionDecision(None, 0.0, "no_significance")
        kinds = [k for k, _ in events]
        assert kinds == ["winner_decided", "promotion_skipped"]
        assert events[0][1]["status"] == "no_significance"
        assert events[1][1]["reason"] == "no_successful_micro_campaign"

    def test_argmax_promotion(self):
        rewards = [0.5, 3.08, 0.0, 1.0]
        decision, events = decide_winner(
            [mk_result(f"c{i}", r) for i, r in enumerate(rewards)]
        )
        assert decision.status == "promoted"
        assert decision.winner == "c1"
        assert decision.winner_reward == 3.08
        kinds = [k for k, _ in events]
        assert kinds == ["winner_decided", "recipe_promoted"]

    def test_tie_breaks_to_first(self):
        decision, _ = decide_winner([mk_result("first", 2.0), mk_result("second", 2.0)])
        assert decision.winner == "first"

    def test_negative_best_skips(self):
        decision, events = decide_winner([mk_result("a", -0.5), mk_result("b", -0.1)])
        assert decision.status == "no_significance"
        assert decision.winner is None
        assert events[1][1]["reason"] == "no_successful_micro_campaign"

    def test_empty_results(self):
        with pytest.raises(EmptyResults):
            decide_winner([])
