"""Micro-campaign gate: snapshots, reward, candidate evaluation, winner."""

import functools
import hashlib
import json
import random

import pytest

from recipefuzz.engine import make_entry, mutate
from recipefuzz.micro import (
    INTERVENTIONS,
    REWARD,
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
)
from recipefuzz.providers import RuleProvider, StaticTokenProvider
from recipefuzz.recipe import lower_recipe, parse_recipe
from recipefuzz.targets import (
    EdgeBitmap,
    ParserTarget,
    StaircaseTarget,
    default_seeds,
    merge_into,
)
from recipefuzz.targets import PARSER_SEEDS, STAIRCASE_SEEDS

from conftest import BrokenResultExecutor, CountingExecutor, RecordingExecutor


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
    def test_manifest_only(self, tmp_path):
        # A snapshot writes nothing: it is its sorted entries and the sha256
        # of the canonical {seed_id: seed_hash} manifest, in any entry order.
        queue = fill_queue(tmp_path, [("a", b"one"), ("b", b"two"), ("c", b"three")])
        before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
        entries = read_queue(queue)
        ref = snapshot_corpus(reversed(entries))
        assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == before
        assert [e.seed_id for e in ref.entries] == ["a", "b", "c"]
        manifest = json.dumps({e.seed_id: e.seed_hash for e in entries}, sort_keys=True)
        assert ref.digest == hashlib.sha256(manifest.encode()).hexdigest()
        shuffled = list(entries)
        random.Random(1).shuffle(shuffled)
        assert snapshot_corpus(shuffled) == ref

    def test_empty_queue(self, tmp_path):
        queue = tmp_path / "queue"
        queue.mkdir()
        with pytest.raises(EmptyQueue):
            snapshot_corpus(read_queue(queue))

    def test_digest_reads_the_queue_bytes(self, tmp_path):
        # A re-execution reads a snapshot back as the first len(entries)
        # queue files in name order: an entry added later leaves its digest
        # alone, and a changed byte in one of its entries changes it. The
        # ref keeps the bytes it was given.
        queue = fill_queue(tmp_path, [("a", b"one"), ("b", b"two")])
        ref = snapshot_corpus(read_queue(queue))
        (queue / "c").write_bytes(b"added later")
        assert snapshot_corpus(read_queue(queue)[:2]).digest == ref.digest
        data = bytearray((queue / "a").read_bytes())
        data[1] ^= 0x01
        (queue / "a").write_bytes(bytes(data))
        assert snapshot_corpus(read_queue(queue)[:2]).digest != ref.digest
        assert ref.entries[0].data == b"one"

    def test_load_entries(self, tmp_path):
        queue = fill_queue(tmp_path, [("x", b"payload")])
        ref = snapshot_corpus(read_queue(queue))
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
        entries = read_queue(queue)
        candidate = Candidate(
            recipe_with_tokens(["FUZZ", "MAGIC", "TOKEN"]), "dictionary", "c0"
        )
        result = evaluate_candidate(candidate, entries, ParserTarget(), 1, budget_execs=400)
        assert result.delta_edges == 0
        assert result.delta_paths == 0
        assert result.delta_crashes == 0
        assert result.hits == 0
        assert result.execs == 400
        assert result.reward <= 0.0

    def test_gate_token_candidate_discovers(self, tmp_path):
        queue = fill_queue(tmp_path, STAIRCASE_SEEDS)
        entries = read_queue(queue)
        target = StaircaseTarget()
        gate = Candidate(recipe_with_tokens(["XKEY1"]), "dictionary", "gate")
        garbage = Candidate(
            recipe_with_tokens(["FUZZ", "MAGIC", "TOKEN"]), "default", "garbage"
        )
        r_gate = evaluate_candidate(gate, entries, target, 3, budget_execs=600)
        r_garbage = evaluate_candidate(garbage, entries, target, 3, budget_execs=600)
        assert r_gate.delta_edges >= 4
        assert r_gate.reward > 0
        assert r_garbage.delta_edges == 0
        assert r_garbage.reward <= 0
        assert r_gate.reward > r_garbage.reward

    def test_selector_mismatch_bleeds_misses(self, tmp_path):
        queue = fill_queue(tmp_path, PARSER_SEEDS)
        entries = read_queue(queue)
        candidate = Candidate(
            recipe_with_tokens(
                ["FUZZ"], selector={"mode": "seed_id", "key": "no-such-seed"}
            ),
            "seed_focus",
            "c1",
        )
        result = evaluate_candidate(candidate, entries, ParserTarget(), 2, budget_execs=200)
        assert result.misses == 200
        assert result.reward < 0

    def test_budget_zero(self, tmp_path):
        queue = fill_queue(tmp_path, [("a", b"x")])
        entries = read_queue(queue)
        candidate = Candidate(recipe_with_tokens(["T1"]), "default", "c")
        with pytest.raises(BudgetZero):
            evaluate_candidate(candidate, entries, ParserTarget(), 0, budget_execs=0)

    def test_executor_failure_wrapped(self, tmp_path):
        queue = fill_queue(tmp_path, [("a", b"xy")])
        entries = read_queue(queue)

        class Broken:
            name = "broken"

            def execute(self, data):
                raise RuntimeError("harness fault")

        candidate = Candidate(recipe_with_tokens(["T1"]), "default", "c")
        with pytest.raises(ExecutorFailure):
            evaluate_candidate(candidate, entries, Broken(), 0, budget_execs=10)

    @pytest.mark.parametrize("fail_at", [1, len(PARSER_SEEDS) + 1], ids=["replay", "mutation-loop"])
    def test_broken_result_is_executor_failure(self, fail_at):
        # Call fail_at returns None: in the replay of the entries, or at
        # the first target run of the mutation loop.
        entries = snapshot_entries(PARSER_SEEDS)
        executor = BrokenResultExecutor(ParserTarget(), fail_at)
        candidate = Candidate(recipe_with_tokens(["T1"]), "default", "c")
        with pytest.raises(ExecutorFailure) as info:
            evaluate_candidate(candidate, entries, executor, 0, budget_execs=50)
        assert isinstance(info.value.__cause__, AttributeError)
        assert executor.calls == fail_at
        if fail_at == 1:
            assert repr(entries[0].seed_id) in str(info.value)

    def test_deterministic_per_seed(self, tmp_path):
        queue = fill_queue(tmp_path, STAIRCASE_SEEDS)
        entries = read_queue(queue)
        candidate = Candidate(recipe_with_tokens(["XKEY1"]), "dictionary", "c")
        a = evaluate_candidate(candidate, entries, StaircaseTarget(), 9, budget_execs=300)
        b = evaluate_candidate(candidate, entries, StaircaseTarget(), 9, budget_execs=300)
        assert a == b

    def test_reward_matches_fields(self, tmp_path):
        queue = fill_queue(tmp_path, STAIRCASE_SEEDS)
        entries = read_queue(queue)
        candidate = Candidate(recipe_with_tokens(["XKEY1"]), "dictionary", "c")
        result = evaluate_candidate(candidate, entries, StaircaseTarget(), 4, budget_execs=500)
        assert result.reward == compute_reward(
            result.delta_edges,
            result.delta_paths,
            result.delta_crashes,
            result.hits,
            result.misses,
            REWARD,
            result.bitmap_available,
        )


def reference_evaluate(candidate, entries, executor, weights, rng_seed, budget_execs):
    """evaluate_candidate as it was before misses skipped the target: every
    mutation call runs the target, and a miss's result is thrown away."""
    corpus = list(entries)
    compact = lower_recipe(candidate.recipe)
    rng = random.Random(rng_seed)
    bitmap = EdgeBitmap(capacity=4096)
    crash_sigs = set()
    for entry in corpus:
        result = executor.execute(entry.data)
        merge_into(bitmap, result)
        if result.crashed:
            crash_sigs.add(result.edges_hit)
    delta_edges = delta_paths = delta_crashes = hits = misses = execs = 0
    queue_pos = 0
    while execs < budget_execs:
        entry = corpus[queue_pos % len(corpus)]
        queue_pos += 1
        outcome = mutate(compact, entry.data, corpus, rng, 1024, seed=entry)
        result = executor.execute(outcome.output)
        execs += 1
        if outcome.miss:
            misses += 1
            continue
        new_edges = merge_into(bitmap, result)
        if result.crashed and result.edges_hit not in crash_sigs:
            crash_sigs.add(result.edges_hit)
            delta_crashes += 1
        if new_edges > 0:
            delta_edges += new_edges
            delta_paths += 1
            hits += 1
            if not result.crashed:
                corpus.append(make_entry(f"{entry.seed_id}+{execs}", outcome.output))
    reward = compute_reward(delta_edges, delta_paths, delta_crashes, hits, misses, weights)
    return MicroResult(
        candidate.candidate_id, delta_edges, delta_paths, delta_crashes,
        hits, misses, execs, reward, True,
    )


def proposed_candidates(entries):
    """The four rule-provider interventions and the static-token dictionary
    recipe, proposed from a blackboard listing these entries as seeds."""
    doc = {
        "snapshot": {
            "seeds": [
                {"seed_id": e.seed_id, "seed_hash": e.seed_hash, "size": len(e.data)}
                for e in entries
            ]
        },
        "static_context": {"available": False, "tokens": []},
    }
    texts = [(i, RuleProvider().propose(doc, i)) for i in INTERVENTIONS]
    texts.append(("dictionary", StaticTokenProvider([b"XKEY1"]).propose(doc, "dictionary")))
    return [
        Candidate(parse_recipe(text), intervention, f"c{n}_{intervention}")
        for n, (intervention, text) in enumerate(texts)
    ]


SNAPSHOT_SEEDS = {
    "parser": (PARSER_SEEDS, ParserTarget),
    # A shallow crash depth: the replay crashes, and a candidate finds a
    # new crash signature, so delta_crashes is not always 0.
    "parser-crash": (PARSER_SEEDS, functools.partial(ParserTarget, crash_depth=8)),
    "staircase": (STAIRCASE_SEEDS, StaircaseTarget),
}


def snapshot_entries(seeds):
    """Seeds as a campaign hands them to the gate: its snapshot's entries,
    sorted by seed_id."""
    return tuple(sorted((make_entry(n, d) for n, d in seeds), key=lambda e: e.seed_id))


class TestLeanGate:
    @pytest.mark.parametrize("target_name", sorted(SNAPSHOT_SEEDS))
    def test_matches_reference_that_runs_every_miss(self, target_name):
        seeds, target_cls = SNAPSHOT_SEEDS[target_name]
        entries = snapshot_entries(seeds)
        for i, candidate in enumerate(proposed_candidates(entries)):
            counting = CountingExecutor(target_cls())
            lean = evaluate_candidate(candidate, entries, counting, 50 + i, budget_execs=500)
            recording = RecordingExecutor(target_cls())
            reference = reference_evaluate(
                candidate, entries, recording, RewardWeights(), 50 + i, 500
            )
            assert lean == reference, candidate.candidate_id
            assert counting.calls == len(set(recording.inputs))

    def test_cases_include_misses_and_finds(self):
        # The equivalence above is only worth something if the cases hit
        # both branches the skip touches.
        seeds, target_cls = SNAPSHOT_SEEDS["staircase"]
        entries = snapshot_entries(seeds)
        results = [
            evaluate_candidate(c, entries, target_cls(), 50 + i, budget_execs=500)
            for i, c in enumerate(proposed_candidates(entries))
        ]
        assert any(r.misses > 0 for r in results)
        assert any(r.hits > 0 for r in results)

    def test_cases_include_new_crashes(self):
        # delta_crashes is the crash set's growth past the replay, so the
        # equivalence needs a case whose replay crashes and whose run then
        # finds a crash signature the replay did not.
        seeds, target_cls = SNAPSHOT_SEEDS["parser-crash"]
        entries = snapshot_entries(seeds)
        assert any(target_cls().execute(e.data).crashed for e in entries)
        results = [
            evaluate_candidate(c, entries, target_cls(), 50 + i, budget_execs=500)
            for i, c in enumerate(proposed_candidates(entries))
        ]
        assert any(r.delta_crashes > 0 for r in results)


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
