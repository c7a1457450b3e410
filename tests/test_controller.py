"""Campaign orchestration: event trail, gate wiring, ablations, artifacts."""

import hashlib
import json
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import recipefuzz.controller as controller_module
import recipefuzz.micro as micro_module
from recipefuzz.controller import (
    CampaignConfig,
    ConfigInvalid,
    _Campaign,
    hash_context,
    hash_response,
    load_events,
    propose_candidates,
    run_campaign,
)
from recipefuzz.cli import _reference_recipe_doc
from recipefuzz.micro import (
    INTERVENTIONS,
    MAX_SIZE,
    Candidate,
    ExecutorFailure,
    RewardWeights,
    compute_reward,
    decide_winner,
    evaluate_candidate,
    micro_seed,
    read_queue,
    snapshot_corpus,
)
from recipefuzz.plateau import REARM_AFTER_COOLDOWN, THETA_EXECS, DetectorConfig
from recipefuzz.providers import (
    DEFAULT_RECIPE_ID,
    RuleProvider,
    StaticTokenProvider,
    default_recipe_doc,
)
from recipefuzz.recipe import OperatorKind, parse_recipe
from recipefuzz.stats import parse_run_dir
from recipefuzz.targets import (
    DEFAULT_MAP_SIZE,
    PARSER_SEEDS,
    ExecResult,
    ParserTarget,
    StaircaseTarget,
    default_seeds,
    get_target,
)

from conftest import BrokenResultExecutor, CountingExecutor


def saturated_config(tmp_path, **overrides):
    kwargs = dict(
        target="parser",
        output_dir=tmp_path / "run",
        ablation="full",
        budget_execs=2500,
        rng_seed=42,
    )
    kwargs.update(overrides)
    return CampaignConfig(**kwargs)


def kinds_of(artifacts):
    return [e.kind for e in artifacts.events]


class AbortingProvider:
    """Fails the run hard if anything ever consults it."""

    name = "aborting"

    def propose(self, blackboard, intervention):
        raise AssertionError("provider invoked")


class TestSaturatedCampaign:
    def test_structural_signature(self, tmp_path):
        artifacts = run_campaign(saturated_config(tmp_path))
        kinds = kinds_of(artifacts)
        assert kinds.count("plateau_detected") == 1
        assert kinds.count("corpus_snapshot") == 1
        assert kinds.count("micro_result") == 4
        assert kinds.count("recipe_promoted") == 0
        winner = next(e for e in artifacts.events if e.kind == "winner_decided")
        assert winner.payload["status"] == "no_significance"
        skipped = next(e for e in artifacts.events if e.kind == "promotion_skipped")
        assert skipped.payload["reason"] == "no_successful_micro_campaign"

    def test_event_grammar(self, tmp_path):
        artifacts = run_campaign(saturated_config(tmp_path))
        kinds = [
            k
            for k in kinds_of(artifacts)
            if k
            in (
                "plateau_detected",
                "corpus_snapshot",
                "micro_result",
                "winner_decided",
                "recipe_promoted",
                "promotion_skipped",
            )
        ]
        assert kinds[0] == "plateau_detected"
        assert kinds[1] == "corpus_snapshot"
        assert kinds[2:6] == ["micro_result"] * 4
        assert kinds[6] == "winner_decided"
        assert kinds[7] in ("recipe_promoted", "promotion_skipped")
        assert len(kinds) == 8

    def test_micro_results_carry_reward_inputs(self, tmp_path):
        artifacts = run_campaign(saturated_config(tmp_path))
        micro = [e for e in artifacts.events if e.kind == "micro_result"]
        for event in micro:
            payload = event.payload
            assert payload["reward"] == compute_reward(
                payload["delta_edges"],
                payload["delta_paths"],
                payload["delta_crashes"],
                payload["hits"],
                payload["misses"],
                RewardWeights(),
                payload["bitmap_available"],
            )

    def test_default_recipe_continuity(self, tmp_path):
        artifacts = run_campaign(saturated_config(tmp_path))
        completed = artifacts.events[-1]
        assert completed.kind == "run_completed"
        assert completed.payload["active_recipe_id"] == DEFAULT_RECIPE_ID
        meta = json.loads((artifacts.output_dir / "run_metadata.json").read_text())
        assert meta["active_recipe_id"] == DEFAULT_RECIPE_ID

    def test_decision_replayable_from_event_log(self, tmp_path):
        artifacts = run_campaign(saturated_config(tmp_path))
        events = load_events(artifacts.output_dir / "events.jsonl")
        micro = [e for e in events if e.kind == "micro_result"]
        rewards = [
            compute_reward(
                e.payload["delta_edges"],
                e.payload["delta_paths"],
                e.payload["delta_crashes"],
                e.payload["hits"],
                e.payload["misses"],
                RewardWeights(),
                e.payload["bitmap_available"],
            )
            for e in micro
        ]
        best = max(rewards)
        winner = next(e for e in events if e.kind == "winner_decided")
        if best > 0:
            assert winner.payload["status"] == "promoted"
        else:
            assert winner.payload["status"] == "no_significance"
        assert winner.payload["winner_reward"] == best


class TestStaircasePromotion:
    def test_gate_token_promoted_and_installed(self, tmp_path):
        config = CampaignConfig(
            target="staircase",
            output_dir=tmp_path / "run",
            ablation="full",
            budget_execs=4000,
            rng_seed=7,
            providers=(StaticTokenProvider([b"XKEY1"]),),
        )
        artifacts = run_campaign(config)
        promoted = [e for e in artifacts.events if e.kind == "recipe_promoted"]
        assert len(promoted) == 1
        assert promoted[0].payload["candidate_id"].endswith("_dictionary")
        assert promoted[0].payload["reward"] > 0
        # The promoted recipe drives the main loop into the gated edges.
        control = run_campaign(
            CampaignConfig(
                target="staircase",
                output_dir=tmp_path / "control",
                ablation="rule-only",
                budget_execs=4000,
                rng_seed=7,
            )
        )
        assert artifacts.edges_found > control.edges_found
        # One gated cycle, four distinct proposal documents.
        candidates = list((artifacts.output_dir / "candidates").iterdir())
        assert len(candidates) == 4

    def test_promoted_recipe_expires_after_ttl(self, tmp_path):
        class ShortTTLProvider:
            name = "short-ttl"

            def propose(self, blackboard, intervention):
                if intervention != "dictionary":
                    return None
                return json.dumps(
                    {
                        "id": "short_lived",
                        "selector": {"mode": "mode", "key": "any"},
                        "priority": 5,
                        "ttl_sec": 40,
                        "operator_weights": {"InsertToken": 0.8, "BitFlip": 0.2},
                        "dictionary_tokens": ["XKEY1"],
                    }
                )

        config = CampaignConfig(
            target="staircase",
            output_dir=tmp_path / "run",
            ablation="full",
            budget_execs=4000,
            rng_seed=5,
            providers=(ShortTTLProvider(),),
        )
        artifacts = run_campaign(config)
        promoted = [e for e in artifacts.events if e.kind == "recipe_promoted"]
        assert len(promoted) == 1
        # Promotion happens near the detector window, the ttl lapses well
        # before the budget: the default rule recipe is active again.
        completed = artifacts.events[-1]
        assert completed.payload["active_recipe_id"] == DEFAULT_RECIPE_ID

    def test_promoted_event_grammar(self, tmp_path):
        config = CampaignConfig(
            target="staircase",
            output_dir=tmp_path / "run",
            ablation="full",
            budget_execs=3000,
            rng_seed=3,
            providers=(StaticTokenProvider([b"XKEY1"]),),
        )
        artifacts = run_campaign(config)
        kinds = kinds_of(artifacts)
        w = kinds.index("winner_decided")
        assert kinds[w + 1] == "recipe_promoted"
        assert "promotion_skipped" not in kinds


class BigramExecutor:
    """One edge per adjacent byte pair: every new pair is new coverage, so
    the corpus keeps growing."""

    name = "bigram"

    def execute(self, data):
        return ExecResult(frozenset(a << 8 | b for a, b in zip(data, data[1:])), False, len(data))


def golden_campaigns():
    """(name, config, executor, seeds) of the golden-artifact campaigns; the
    output directories are relative, so events.jsonl holds no absolute path.
    The full ablation always has a recipe installed; baseline and
    no-mutator pin the havoc fallthrough."""

    def parser(name, ablation):
        config = CampaignConfig(
            target="parser", output_dir=name, ablation=ablation, budget_execs=3000, rng_seed=42
        )
        return name, config, None, None

    def staircase(name, ablation):
        config = CampaignConfig(
            target="staircase",
            output_dir=name,
            ablation=ablation,
            budget_execs=3000,
            rng_seed=3,
            providers=(StaticTokenProvider([b"XKEY1"]),),
            detector=DetectorConfig(rearm_policy=REARM_AFTER_COOLDOWN, cooldown_sec=30),
        )
        return name, config, None, None

    def bigram(name, ablation):
        config = CampaignConfig(
            target="bigram",
            output_dir=name,
            ablation=ablation,
            budget_execs=3000,
            rng_seed=1,
            map_capacity=1 << 16,
        )
        return name, config, BigramExecutor(), (("hello", b"hello world"),)

    return (
        parser("parser", "full"),
        staircase("staircase", "full"),
        bigram("bigram", "full"),
        parser("parser-baseline", "baseline"),
        staircase("staircase-no-mutator", "no-mutator"),
        bigram("bigram-baseline", "baseline"),
    )


def artifact_sha256(out):
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("fuzzer_stats", "coverage.csv", "events.jsonl")
    }
    queue = hashlib.sha256()
    for path in sorted((out / "queue").iterdir()):
        queue.update(f"{path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}\n".encode())
    digests["queue"] = queue.hexdigest()
    return digests


# Recorded before the queue-admission and snapshot refactor (the baseline
# and no-mutator cases before havoc moved behind `mutate`); any change in
# admission order, favored-set membership or rng draws shows up here.
# The two re-armed staircase logs were re-recorded when the gate began
# skipping a corpus it had judged; PROJECTED pins what else they hold.
# The three gated logs were re-recorded when snapshots stopped being
# written and the config digest gained the cooldown; V1_PROJECTED pins
# what else they hold.
GOLDEN = {
    "parser": {
        "fuzzer_stats": "6450b3b4f9a974b2705f553d4d0aa955f5657bdc65ae4d1a7028034e609b0a9b",
        "coverage.csv": "9f85255aee84962f2ddb021d3a401df5f92d72ad94c8dd2e7003df34d48c3fd7",
        "events.jsonl": "05e367583346897f01edbcb0627b5a7b5d24508a745af42e07958955bf5a02e0",
        "queue": "161d5b4c9b9d6ae342ea8355d6284065965b20990869ff7a19e93d47b028d613",
    },
    "staircase": {
        "fuzzer_stats": "9120fcc67f124591c94af6e0cc345d34eadd7933df24e4a2487ae05c8317ab61",
        "coverage.csv": "1081d71cdf311213791676048f0d047007a6c21e504a9956ba4c9fe30f845eb3",
        "events.jsonl": "fd5ed5a00422217358286258f8104fffd4ab71f2aa3da2445e95ac707155bad4",
        "queue": "531437780f62852c9cdcdc88ed32009fd4b1f38ca3a4ffc92abb0192915bf32f",
    },
    "bigram": {
        "fuzzer_stats": "a61284c4ca836229a04ad18d79f22adc1a4ffa2d4a20b472b77ad0f9df2709d7",
        "coverage.csv": "2960ea5dfb45af18bfc8d061a3ac90f4043ab694a0cb830a118ce3c82ea53612",
        "events.jsonl": "d39cfe2e81c4dc21e9e1fc31e08d916efc3cd5a39ac41cbba882b4b6d0c1feb6",
        "queue": "613180bdf5ec919d3cc2d48d775a5da3a996fb0da71232211541bfeee2928650",
    },
    "parser-baseline": {
        "fuzzer_stats": "6450b3b4f9a974b2705f553d4d0aa955f5657bdc65ae4d1a7028034e609b0a9b",
        "coverage.csv": "9f85255aee84962f2ddb021d3a401df5f92d72ad94c8dd2e7003df34d48c3fd7",
        "events.jsonl": "084d273a4dc6b1055e48994c50b3548147fdc1035bc444ae17272d2a770a9fa1",
        "queue": "161d5b4c9b9d6ae342ea8355d6284065965b20990869ff7a19e93d47b028d613",
    },
    "staircase-no-mutator": {
        "fuzzer_stats": "a29cadbd1f2b69f08288a384686db2e07c49cf1f7ccefc303922d036e79ad889",
        "coverage.csv": "dcfe2d8e4d9c516fe10e39dfa80f67957768774dcc7aefe893fa24e0459e219a",
        "events.jsonl": "63e85d55c0b8c086a5c56a069908d0e20d555af56a8ade8f76d75b341e1545a1",
        "queue": "83b055b81022f7a3d8e5ffe60df64b539933031e7b1c9abbec0ca846e60dde34",
    },
    "bigram-baseline": {
        "fuzzer_stats": "c802ffe4cf37f9a7769af89299a38657cf27f6b3686233f6a91fd9167a884688",
        "coverage.csv": "1a88feac12496e21b0bccd72da524c9460b4aa4742cfad7f9ca07924b46a2f0d",
        "events.jsonl": "1bfdd4e3cb159af60666ca198c9288f7f7344b60d2936b42a50714963f2388a4",
        "queue": "5d4c7b3094bb311c452e53f4a9b8e4cc2aa19947d8cfb31b126da0b5bfc2867a",
    },
}


def project_skipped_cycles(text: str) -> str:
    """An events.jsonl as a gate that judges each corpus once would write
    it, with nothing logged for a skip.

    gate_skipped lines are dropped. A cycle whose corpus_snapshot digest
    equals the last snapshot's is cut down to its plateau_detected line.
    run_completed's promotions count becomes the number of recipe_promoted
    lines kept. A log in which every snapshot is of a new corpus loses
    only its gate_skipped lines.
    """
    kept, last_digest, cutting = [], None, False
    for line in text.splitlines(keepends=True):
        event = json.loads(line)
        kind = event["kind"]
        if kind in ("plateau_detected", "run_completed"):
            cutting = False
        if kind == "corpus_snapshot":
            cutting = event["payload"]["digest"] == last_digest
            last_digest = event["payload"]["digest"]
        if kind == "gate_skipped" or cutting:
            continue
        if kind == "run_completed":
            promoted = sum(json.loads(k)["kind"] == "recipe_promoted" for k in kept)
            event["payload"]["promotions"] = promoted
            line = json.dumps(event, sort_keys=True) + "\n"
        kept.append(line)
    return "".join(kept)


# project_skipped_cycles of the re-armed golden campaigns' events.jsonl,
# first recorded from the code that re-ran the gate on every plateau, and
# re-recorded with GOLDEN's gated logs, whose other content V1_PROJECTED
# ties to the log those first digests were taken from. The projection of
# today's log must match: skipping a judged corpus changes nothing else.
PROJECTED = {
    "staircase": "e78c16ae98db0baf9fbda9920d4bc65eda555455bd33d52dee61d315fc87b9f4",
    "staircase-no-mutator": "a99694645c2ff58e4ff827a0e2a550fb02769d949ad996f6d4882f74d059ebab",
}


def project_v1(text: str) -> str:
    """An events.jsonl less what the log dropped when snapshots stopped
    being written: corpus_snapshot's path, proposal_recorded's
    fallback_used, and every top-level context_hash (the blackboard lost
    the snapshot path and the config digest gained the cooldown). Every
    line is re-serialized as AuditEvent.to_json_line writes it."""
    lines = []
    for line in text.splitlines():
        event = json.loads(line)
        event.pop("context_hash", None)
        if event["kind"] == "corpus_snapshot":
            event["payload"].pop("path", None)
        if event["kind"] == "proposal_recorded":
            event["payload"].pop("fallback_used", None)
        lines.append(json.dumps(event, sort_keys=True) + "\n")
    return "".join(lines)


# project_v1 of the gated golden campaigns' events.jsonl, recorded from the
# code that wrote snapshots/ and logged each snapshot's path. Today's log
# must project to the same bytes: nothing else in it changed.
V1_PROJECTED = {
    "parser": "23e7abf4fad1b5dc80c5b3968c790e7227092942afe814f647c0a51d91632016",
    "staircase": "5a0d45764cfb93e6adb0d1143a0522b5c9b1150dbdb73ca18c2cc0a32a6d9d79",
    "staircase-no-mutator": "58f09125bf1d358dc37ed4f23b1a33fa1c7914ba0fdcf8e487b6203058046653",
}


class TestGoldenArtifacts:
    @pytest.mark.parametrize("name", [c[0] for c in golden_campaigns()])
    def test_artifacts_match_recorded_digests(self, name, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _, config, executor, seeds = next(c for c in golden_campaigns() if c[0] == name)
        artifacts = run_campaign(config, executor, seeds)
        assert artifact_sha256(artifacts.output_dir) == GOLDEN[name]

    @pytest.mark.parametrize("name", sorted(PROJECTED))
    def test_skips_are_the_only_change_to_the_log(self, name, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _, config, executor, seeds = next(c for c in golden_campaigns() if c[0] == name)
        artifacts = run_campaign(config, executor, seeds)
        text = (artifacts.output_dir / "events.jsonl").read_text()
        assert "gate_skipped" in text
        projected = project_skipped_cycles(text)
        assert projected == "".join(
            line for line in text.splitlines(keepends=True) if '"gate_skipped"' not in line
        )
        assert hashlib.sha256(projected.encode()).hexdigest() == PROJECTED[name]

    @pytest.mark.parametrize("name", sorted(V1_PROJECTED))
    def test_dropped_fields_are_the_only_change_to_the_log(self, name, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _, config, executor, seeds = next(c for c in golden_campaigns() if c[0] == name)
        artifacts = run_campaign(config, executor, seeds)
        text = (artifacts.output_dir / "events.jsonl").read_text()
        assert '"path"' not in text and "fallback_used" not in text
        projected = project_v1(text)
        assert hashlib.sha256(projected.encode()).hexdigest() == V1_PROJECTED[name]


def run_golden(name, out, **overrides):
    _, config, executor, seeds = next(c for c in golden_campaigns() if c[0] == name)
    config.output_dir = out / name
    for key, value in overrides.items():
        setattr(config, key, value)
    return run_campaign(config, executor, seeds)


def events_by_cycle(events):
    """Cycle number -> its events, from plateau_detected up to the next."""
    cycles = {}
    for event in events:
        if event.kind == "plateau_detected":
            cycles[len(cycles) + 1] = []
        if cycles and event.kind != "run_completed":
            cycles[len(cycles)].append(event)
    return cycles


def snapshot_of(cycle_events):
    return next((e for e in cycle_events if e.kind == "corpus_snapshot"), None)


@pytest.fixture(scope="module")
def staircase_run(tmp_path_factory):
    return run_golden("staircase", tmp_path_factory.mktemp("gate_skip"))


class TestGateSkip:
    """The re-armed golden staircase campaign: the gate judges the seed
    corpus and promotes, judges the corpus the promotion grew, and then
    skips every later plateau, since the corpus never changes again."""

    def test_skipped_cycle_is_plateau_then_gate_skipped(self, staircase_run):
        cycles = events_by_cycle(staircase_run.events)
        skipped = [n for n, evs in cycles.items() if snapshot_of(evs) is None]
        assert len(skipped) == len(cycles) - 2 > 0
        for n in skipped:
            assert [e.kind for e in cycles[n]] == ["plateau_detected", "gate_skipped"]

    def test_judged_cycle_names_its_snapshot(self, staircase_run):
        cycles = events_by_cycle(staircase_run.events)
        last_gated, skips = None, 0
        for n, evs in cycles.items():
            snapshot = snapshot_of(evs)
            if snapshot is not None:
                last_gated = n
                continue
            skip = evs[1].payload
            skips += 1
            assert skip["judged_cycle"] == last_gated
            assert snapshot_of(cycles[last_gated]).payload["digest"] == skip["digest"]
        assert skips > 0

    def test_no_snapshot_for_skipped_cycles(self, staircase_run):
        cycles = events_by_cycle(staircase_run.events)
        gated = [n for n, evs in cycles.items() if snapshot_of(evs) is not None]
        assert 0 < len(gated) < len(cycles)
        assert not (staircase_run.output_dir / "snapshots").exists()

    def test_gate_runs_again_after_promotion_grows_corpus(self, staircase_run):
        cycles = events_by_cycle(staircase_run.events)
        promoted = next(
            n for n, evs in cycles.items() if any(e.kind == "recipe_promoted" for e in evs)
        )
        before = snapshot_of(cycles[promoted]).payload
        after = snapshot_of(cycles[promoted + 1]).payload
        assert after["entries"] > before["entries"]
        assert after["digest"] != before["digest"]
        assert [e.kind for e in cycles[promoted + 1]].count("micro_result") == 4

    def test_controller_only_snapshots_every_plateau(self, tmp_path):
        artifacts = run_golden("staircase", tmp_path, ablation="controller-only")
        kinds = kinds_of(artifacts)
        assert kinds.count("plateau_detected") == kinds.count("corpus_snapshot") > 1
        assert "gate_skipped" not in kinds
        # A snapshot is logged, never written.
        assert sorted(p.name for p in artifacts.output_dir.iterdir()) == [
            "candidates", "coverage.csv", "events.jsonl", "fuzzer_stats", "queue",
            "run_metadata.json",
        ]

    def test_snapshot_and_decide_calls_pair(self, tmp_path, monkeypatch):
        # campaignbench/child.py times a plateau from its snapshot_corpus
        # call to the next decide_winner return, so a gated arm must make
        # the two calls equally often. The blackboard is hashed once per
        # gated plateau too.
        calls = {"snapshot_corpus": 0, "decide_winner": 0, "hash_context": 0}

        def counted(name):
            real = getattr(controller_module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(controller_module, name, wrapper)

        counted("snapshot_corpus")
        counted("decide_winner")
        counted("hash_context")
        artifacts = run_golden("staircase", tmp_path)
        assert calls["snapshot_corpus"] == calls["decide_winner"] == calls["hash_context"] == 2
        assert kinds_of(artifacts).count("gate_skipped") > 0


def check_reexecution(out):
    """Re-execute every gated cycle of the campaign in out from the run
    directory alone, asserting that each micro_result and gate decision
    comes back as logged; returns the number of gated cycles.

    The queue only grows, so a cycle's corpus is the queue entries whose
    admission index (id_NNNNNN_...) is below its logged entry count, and
    their snapshot digest must be the logged one. A micro_result's
    candidate is the cycle's schema-valid proposal of its intervention,
    read from candidates/<response_hash>.json. Its seed is micro_seed of
    run_metadata's seed, the cycle and its index; its budget the logged
    execs; its map run_metadata's map_capacity.
    """
    meta = json.loads((out / "run_metadata.json").read_text())
    executor = get_target(meta["target"])
    events = load_events(out / "events.jsonl")
    queue = read_queue(out / "queue")
    gated = 0
    for n, evs in events_by_cycle(events).items():
        micro = [e.payload for e in evs if e.kind == "micro_result"]
        if not micro:
            continue
        gated += 1
        logged = snapshot_of(evs).payload
        entries = queue[: logged["entries"]]
        assert snapshot_corpus(entries).digest == logged["digest"]
        documents = {
            e.payload["intervention"]: e.response_hash
            for e in evs
            if e.kind == "proposal_recorded" and e.payload["schema_valid"]
        }
        results = []
        for i, payload in enumerate(micro):
            logged = dict(payload)
            intervention, recipe_id = logged.pop("intervention"), logged.pop("recipe_id")
            assert logged["candidate_id"] == f"c{n:02d}_{i}_{intervention}"
            document = (out / "candidates" / f"{documents[intervention]}.json").read_bytes()
            recipe = parse_recipe(document)
            assert recipe.id == recipe_id
            result = evaluate_candidate(
                Candidate(recipe, intervention, logged["candidate_id"]),
                entries,
                executor,
                micro_seed(meta["seed"], n, i),
                logged["execs"],
                meta["map_capacity"],
            )
            assert asdict(result) == logged
            results.append(result)
        _, decided = decide_winner(results)
        gate_kinds = ("winner_decided", "recipe_promoted", "promotion_skipped")
        assert decided == [(e.kind, e.payload) for e in evs if e.kind in gate_kinds]

    # One file per distinct response_hash, each named by its bytes' sha256.
    files = {p.name: p.read_bytes() for p in (out / "candidates").iterdir()}
    for name, data in files.items():
        assert name == f"{hashlib.sha256(data).hexdigest()}.json"
    hashes = {e.response_hash for e in events if e.kind == "proposal_recorded"}
    assert {name.removesuffix(".json") for name in files} == hashes
    return gated


class TestReexecution:
    @pytest.mark.parametrize(
        "name, cycles", [("parser", 1), ("staircase", 2), ("staircase-no-mutator", 1)]
    )
    def test_gate_reexecutes_from_run_dir(self, name, cycles, tmp_path):
        out = run_golden(name, tmp_path).output_dir
        assert check_reexecution(out) == cycles

    def test_reexecution_uses_the_logged_map_capacity(self, tmp_path):
        # With 1,000 slots the staircase's gated edges 2000-2003 land on
        # slots the base edges hold, so the dictionary candidate finds one
        # new slot where the default 4,096 give four: a re-execution at
        # another map size scores the gate differently.
        out = run_golden("staircase", tmp_path, map_capacity=1000).output_dir
        assert check_reexecution(out) == 2
        events = load_events(out / "events.jsonl")
        first = next(
            e.payload for e in events
            if e.kind == "micro_result" and e.payload["intervention"] == "dictionary"
        )
        assert first["delta_edges"] == 1
        meta_path = out / "run_metadata.json"
        meta = json.loads(meta_path.read_text())
        assert meta["map_capacity"] == 1000
        meta_path.write_text(json.dumps({**meta, "map_capacity": DEFAULT_MAP_SIZE}))
        with pytest.raises(AssertionError):
            check_reexecution(out)

    def test_schema_invalid_document_kept(self, tmp_path):
        artifacts = run_campaign(saturated_config(tmp_path, providers=(BadDocProvider(),)))
        assert check_reexecution(artifacts.output_dir) == 1
        bad = next(
            e for e in artifacts.events
            if e.kind == "proposal_recorded" and not e.payload["schema_valid"]
        )
        path = artifacts.output_dir / "candidates" / f"{bad.response_hash}.json"
        assert path.read_bytes() == BadDocProvider().propose({}, "dictionary").encode()

    def test_rerun_clears_candidates(self, tmp_path):
        config = saturated_config(tmp_path, providers=(BadDocProvider(),))
        run_campaign(config)
        config.providers = ()
        artifacts = run_campaign(config)
        assert check_reexecution(artifacts.output_dir) == 1


class TestAdmission:
    def test_slots_held_matches_favored_rebuild(self, tmp_path):
        _, config, executor, seeds = next(c for c in golden_campaigns() if c[0] == "bigram")
        config.output_dir = tmp_path / "run"
        campaign = _Campaign(config, executor, seeds)
        campaign.run()
        # Reference: the favored set rebuilt from scratch out of the slot map.
        favored_set = set(campaign.favored.values())
        assert len(campaign.slots_held) == len(campaign.queue)
        assert {i for i, n in enumerate(campaign.slots_held) if n > 0} == favored_set
        assert sum(campaign.slots_held) == len(campaign.favored)
        # Shorter finds took slots over, so some entries hold none.
        assert len(favored_set) < len(campaign.queue)


class TestHotPathPurity:
    def test_aborting_provider_without_plateau(self, tmp_path):
        # Budget shorter than the detector window: the detector can never
        # fire, and a provider that aborts on call proves the mutation
        # path never consults providers.
        config = CampaignConfig(
            target="parser",
            output_dir=tmp_path / "run",
            ablation="full",
            budget_sec=8.0,
            rng_seed=1,
            providers=(AbortingProvider(),),
        )
        artifacts = run_campaign(config)
        assert kinds_of(artifacts) == ["run_completed"]
        assert artifacts.execs_done > 0

    def test_campaign_import_skips_multiprocessing(self):
        # Only the microbench's single-process guard uses multiprocessing;
        # a campaign's set-up must not pay for importing it.
        src = str(Path(controller_module.__file__).parents[1])
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import recipefuzz.controller; "
            "print('multiprocessing' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"


class TestMutationSeam:
    @pytest.mark.parametrize("ablation", ["full", "baseline"])
    def test_main_loop_mutates_through_controller_mutate(self, ablation, tmp_path, monkeypatch):
        # campaignbench/child.py times the main loop by wrapping
        # controller.mutate and tags each call by its outcome's op_applied.
        real = controller_module.mutate
        outcomes = []

        def counting(*args, **kwargs):
            outcome = real(*args, **kwargs)
            outcomes.append(outcome)
            return outcome

        monkeypatch.setattr(controller_module, "mutate", counting)
        artifacts = run_campaign(saturated_config(tmp_path, ablation=ablation))
        assert len(outcomes) == artifacts.execs_done - len(default_seeds("parser"))
        assert all(o.op_applied is None or o.op_applied in OperatorKind for o in outcomes)
        applied = sum(o.op_applied is not None for o in outcomes)
        assert applied > 0 if ablation == "full" else applied == 0


class StopRun(Exception):
    """A caller's own exception, raised through execute to stop a run."""


class NoEdges:
    """A non-crashing executor result with no edges_hit."""

    crashed = False


class TestExecutorFailure:
    SEEDS = len(default_seeds("parser"))

    @pytest.mark.parametrize(
        "fail_at, exc",
        [
            (1, RuntimeError("harness fault")),
            (SEEDS, OSError("pipe closed")),
            (SEEDS + 1, ValueError("input exceeds max size")),
            (SEEDS + 20, RuntimeError("harness fault")),
        ],
        ids=["first-seed", "last-seed", "first-loop-exec", "loop"],
    )
    def test_failure_raises_executor_failure(self, fail_at, exc, tmp_path):
        executor = CountingExecutor(ParserTarget(), fail_at, exc)
        with pytest.raises(ExecutorFailure) as info:
            run_campaign(saturated_config(tmp_path), executor)
        assert info.value.__cause__ is exc
        assert executor.calls == fail_at

    def test_callers_own_exception_passes_through(self, tmp_path):
        stop = StopRun()
        with pytest.raises(StopRun):
            run_campaign(saturated_config(tmp_path), CountingExecutor(ParserTarget(), self.SEEDS + 1, stop))

    @pytest.mark.parametrize(
        "fail_at, result",
        [
            (1, None),
            (SEEDS, None),
            (SEEDS + 1, None),
            (SEEDS + 20, None),
            (SEEDS + 1, NoEdges()),
            (SEEDS + 1, (frozenset({1}), False, 3)),
        ],
        ids=["first-seed", "last-seed", "first-loop-exec", "loop", "loop-no-edges", "plain-tuple"],
    )
    def test_broken_result_raises_executor_failure(self, fail_at, result, tmp_path):
        # Reading the missing crashed or edges_hit is the original error,
        # raised where the result is read, not later in merge_into. The
        # message names the input's origin.
        executor = BrokenResultExecutor(ParserTarget(), fail_at, result)
        with pytest.raises(ExecutorFailure) as info:
            run_campaign(saturated_config(tmp_path), executor)
        assert isinstance(info.value.__cause__, AttributeError)
        assert executor.calls == fail_at
        if fail_at <= self.SEEDS:
            assert repr(PARSER_SEEDS[fail_at - 1][0]) in str(info.value)
        else:
            assert "from 'id_" in str(info.value)


def flag_gate_runs(monkeypatch):
    """Wrap controller.evaluate_candidate; the returned one-item list
    holds True while a gate run is in progress."""
    real = controller_module.evaluate_candidate
    flag = [False]

    def evaluate(*args, **kwargs):
        flag[0] = True
        try:
            return real(*args, **kwargs)
        finally:
            flag[0] = False

    monkeypatch.setattr(controller_module, "evaluate_candidate", evaluate)
    return flag


class TestOneExecutionPath:
    def test_crashing_seed_is_counted(self, tmp_path):
        # deep_ok nests 10 deep, past crash_depth 8: it crashes, is counted
        # once, and is admitted to queue/ like every other seed.
        config = CampaignConfig(
            target="parser", output_dir=tmp_path / "run", ablation="baseline",
            budget_execs=25, rng_seed=1,
        )
        artifacts = run_campaign(config, ParserTarget(crash_depth=8), PARSER_SEEDS)
        completed = next(e for e in artifacts.events if e.kind == "run_completed")
        assert completed.payload["crashes"] == 1
        index = [name for name, _ in PARSER_SEEDS].index("deep_ok")
        assert (artifacts.output_dir / "queue" / f"id_{index:06d}_deep_ok").is_file()

    def test_every_execute_goes_through_run_input(self, tmp_path, monkeypatch):
        # The re-armed golden staircase campaign runs seeds, main loop,
        # gate replays and gate mutation loops, and skips judged corpora.
        real = micro_module.run_input
        steps = gate_steps = 0
        in_gate = flag_gate_runs(monkeypatch)

        def counted(*args, **kwargs):
            nonlocal steps, gate_steps
            steps += 1
            gate_steps += in_gate[0]
            return real(*args, **kwargs)

        for module in (micro_module, controller_module):
            monkeypatch.setattr(module, "run_input", counted)
        _, config, _, _ = next(c for c in golden_campaigns() if c[0] == "staircase")
        config.output_dir = tmp_path / "run"
        executor = CountingExecutor(StaircaseTarget())
        artifacts = run_campaign(config, executor)
        kinds = kinds_of(artifacts)
        assert "gate_skipped" in kinds and "micro_result" in kinds
        assert steps == executor.calls
        assert gate_steps > 0


class TestRunsEachInputOnce:
    def test_main_loop_runs_each_distinct_input_once(self, tmp_path, monkeypatch):
        # The golden parser corpus is saturated, so most main-loop outputs
        # repeat an input: a miss's unchanged entry, or a mutation seen
        # before. Seeds and main loop run each distinct input once, in the
        # order it first appears.
        real_mutate = controller_module.mutate
        produced, main_inputs = [], []
        in_gate = flag_gate_runs(monkeypatch)

        def mutate(*args, **kwargs):
            outcome = real_mutate(*args, **kwargs)
            produced.append(outcome.output)
            return outcome

        class Recording:
            def execute(self, data):
                if not in_gate[0]:
                    main_inputs.append(data)
                return target.execute(data)

        monkeypatch.setattr(controller_module, "mutate", mutate)
        target = ParserTarget()
        seeds = default_seeds("parser")
        _, config, _, _ = next(c for c in golden_campaigns() if c[0] == "parser")
        config.output_dir = tmp_path / "run"
        artifacts = run_campaign(config, Recording(), seeds)
        distinct = list(dict.fromkeys([data for _, data in seeds] + produced))
        assert main_inputs == distinct
        assert len(produced) == artifacts.execs_done - len(seeds)
        assert len(main_inputs) < artifacts.execs_done

    def test_forgetting_runs_changes_no_artifact(self, tmp_path, monkeypatch):
        # A campaign that forgets the inputs it ran every 16 runs them
        # again, and writes the same artifacts.
        def run(cap, name):
            monkeypatch.setattr(controller_module, "RAN_CAP", cap)
            _, config, _, _ = next(c for c in golden_campaigns() if c[0] == "staircase")
            config.output_dir = tmp_path / name
            executor = CountingExecutor(StaircaseTarget())
            artifacts = run_campaign(config, executor)
            return artifact_sha256(artifacts.output_dir), executor.calls

        default, default_calls = run(controller_module.RAN_CAP, "default")
        small, small_calls = run(16, "small")
        assert small == default == GOLDEN["staircase"]
        assert small_calls > default_calls


class TestDetectorFeed:
    @staticmethod
    def observed_times(monkeypatch, name, out):
        """Run a golden campaign; return its artifacts and the frame time
        of every observe call."""
        real = controller_module.observe
        times = []

        def counted(state, frame):
            times.append(frame.t)
            return real(state, frame)

        monkeypatch.setattr(controller_module, "observe", counted)
        return run_golden(name, out), times

    def test_once_per_campaign_detector_is_not_fed_after_firing(self, tmp_path, monkeypatch):
        artifacts, times = self.observed_times(monkeypatch, "parser", tmp_path)
        fired = [e.t for e in artifacts.events if e.kind == "plateau_detected"]
        assert len(fired) == 1
        assert times == [float(t) for t in range(1, int(fired[0]) + 1)]

    def test_rearming_detector_is_fed_every_frame(self, tmp_path, monkeypatch):
        artifacts, times = self.observed_times(monkeypatch, "staircase", tmp_path)
        assert len([e for e in artifacts.events if e.kind == "plateau_detected"]) > 1
        assert times == [t for t, _ in artifacts.coverage_series[1:]]

    @pytest.mark.parametrize("name", ["parser", "staircase", "bigram"])
    def test_every_window_holds_fewer_than_theta_execs(self, tmp_path, monkeypatch, name):
        # Under the virtual clock a window spans WINDOW_SEC frames of
        # FRAME_EXECS execs, which is why the detector needs no exec
        # condition.
        real = controller_module.check_plateau
        spans = []

        def checked(state, config):
            spans.append(state.frames[-1].execs_done - state.frames[0].execs_done)
            return real(state, config)

        monkeypatch.setattr(controller_module, "check_plateau", checked)
        run_golden(name, tmp_path)
        assert spans and max(spans) < THETA_EXECS


class TestBudgetsAndDeterminism:
    def test_zero_budget(self, tmp_path):
        config = saturated_config(tmp_path, budget_execs=None, budget_sec=0.0)
        artifacts = run_campaign(config)
        assert artifacts.coverage_series == ((0.0, artifacts.edges_found),)
        assert kinds_of(artifacts) == ["run_completed"]
        for name in ("fuzzer_stats", "coverage.csv", "events.jsonl", "run_metadata.json"):
            assert (artifacts.output_dir / name).is_file()

    def test_second_budget_runs_whole_frames(self, tmp_path):
        # Each virtual second is one frame: 2.5 s runs three of them.
        config = saturated_config(tmp_path, budget_execs=None, budget_sec=2.5)
        artifacts = run_campaign(config)
        assert artifacts.fuzzer_stats["run_time"] == "3"
        frames = 3 * controller_module.FRAME_EXECS
        assert artifacts.execs_done == len(default_seeds("parser")) + frames

    def test_identical_runs(self, tmp_path, monkeypatch):
        # One seed, written to an absolute and to a relative directory:
        # nothing logged or digested depends on where the run lives.
        a = run_campaign(saturated_config(tmp_path, output_dir=tmp_path / "a"))
        monkeypatch.chdir(tmp_path)
        b = run_campaign(saturated_config(tmp_path, output_dir=Path("b")))
        assert "corpus_snapshot" in kinds_of(a)
        assert a.fuzzer_stats == b.fuzzer_stats
        assert a.coverage_series == b.coverage_series
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert (out_a / "events.jsonl").read_bytes() == (out_b / "events.jsonl").read_bytes()
        meta_a, meta_b = (json.loads((out / "run_metadata.json").read_text()) for out in (out_a, out_b))
        assert meta_a["artifact_digests"] == meta_b["artifact_digests"]

    def test_rerun_into_same_directory_is_clean(self, tmp_path):
        config = saturated_config(tmp_path)
        first = run_campaign(config)
        second = run_campaign(config)
        assert first.fuzzer_stats == second.fuzzer_stats
        snap_a = next(e for e in first.events if e.kind == "corpus_snapshot")
        snap_b = next(e for e in second.events if e.kind == "corpus_snapshot")
        assert snap_a.payload["digest"] == snap_b.payload["digest"]
        assert snap_a.payload["entries"] == snap_b.payload["entries"]

    def test_seed_changes_run(self, tmp_path):
        a = run_campaign(
            saturated_config(tmp_path, output_dir=tmp_path / "a", rng_seed=1)
        )
        b = run_campaign(
            saturated_config(tmp_path, output_dir=tmp_path / "b", rng_seed=2)
        )
        assert a.fuzzer_stats["execs_done"] == b.fuzzer_stats["execs_done"]
        sa = next(e for e in a.events if e.kind == "corpus_snapshot")
        sb = next(e for e in b.events if e.kind == "corpus_snapshot")
        # Same saturated corpus, but the campaigns are distinct processes:
        # micro rewards may differ in miss counts.
        assert sa.payload["digest"] == sb.payload["digest"]

    def test_config_validation(self, tmp_path):
        with pytest.raises(ConfigInvalid):
            run_campaign(saturated_config(tmp_path, ablation="mystery"))
        with pytest.raises(ConfigInvalid):
            run_campaign(saturated_config(tmp_path, budget_execs=None))
        with pytest.raises(ConfigInvalid):
            run_campaign(
                saturated_config(tmp_path, budget_execs=10, budget_sec=10.0)
            )
        with pytest.raises(ConfigInvalid):
            run_campaign(saturated_config(tmp_path, target="mystery"))
        with pytest.raises(ConfigInvalid):
            run_campaign(saturated_config(tmp_path, micro_budget_execs=0))
        # 0 divided by zero mid-set-up; -7 ran and reported a negative
        # bitmap_cvg.
        for map_capacity in (0, -7):
            with pytest.raises(ConfigInvalid):
                run_campaign(saturated_config(tmp_path, map_capacity=map_capacity))
        for budget_sec in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigInvalid):
                run_campaign(
                    saturated_config(tmp_path, budget_execs=None, budget_sec=budget_sec)
                )
        # mutate takes 1..MAX_SIZE bytes: an empty seed would fail mid-run,
        # a longer one would put oversized children in queue/.
        for data in (b"", b"x" * (MAX_SIZE + 1)):
            with pytest.raises(ConfigInvalid):
                run_campaign(saturated_config(tmp_path), seeds=(("ok", b"{}"), ("bad", data)))
        assert not (tmp_path / "run").exists()


class TestControllerOffHotPath:
    """The paper's "controller off the hot path" in its strictest form:
    controller-only and no-mutator never install a recipe, so their main
    loop draws the same rng values and grows the same queue as baseline's,
    and their fuzzer_stats and coverage.csv are byte-identical to it. A
    plateau-path change that touches the main loop's rng or queue fails
    here.

    The parser seeds saturate their target, so that case cannot see the
    rng; the bigram case never saturates, so every main-loop rng draw and
    schedule step shows in its output, and its detector, re-armed every
    100 s, fires on a corpus of up to about 2,000 entries."""

    @pytest.mark.parametrize("target", ["parser", "staircase", "bigram"])
    def test_matches_baseline(self, target, tmp_path):
        def run(ablation):
            config = CampaignConfig(
                target=target,
                output_dir=tmp_path / ablation,
                ablation=ablation,
                budget_execs=40_000,
                rng_seed=7,
            )
            executor = seeds = None
            if target == "staircase":
                config.providers = (StaticTokenProvider([b"XKEY1"]),)
                config.detector = DetectorConfig(
                    rearm_policy=REARM_AFTER_COOLDOWN, cooldown_sec=30
                )
            if target == "bigram":
                config.budget_execs = 3000
                config.map_capacity = 1 << 16
                config.detector = DetectorConfig(
                    theta_paths=1 << 30, rearm_policy=REARM_AFTER_COOLDOWN, cooldown_sec=100
                )
                executor, seeds = BigramExecutor(), (("hello", b"hello world"),)
            artifacts = run_campaign(config, executor, seeds)
            out = artifacts.output_dir
            files = {name: (out / name).read_bytes() for name in ("fuzzer_stats", "coverage.csv")}
            return files, kinds_of(artifacts)

        baseline, _ = run("baseline")
        for ablation in ("controller-only", "no-mutator"):
            files, kinds = run(ablation)
            assert files == baseline, ablation
            assert "corpus_snapshot" in kinds, ablation
        assert "micro_result" in kinds


class TestAblations:
    def test_baseline_has_no_control_events(self, tmp_path):
        config = saturated_config(tmp_path, ablation="baseline")
        artifacts = run_campaign(config)
        assert kinds_of(artifacts) == ["run_completed"]

    def test_controller_only_snapshots_without_gate(self, tmp_path):
        config = saturated_config(tmp_path, ablation="controller-only")
        artifacts = run_campaign(config)
        kinds = kinds_of(artifacts)
        assert kinds.count("plateau_detected") == 1
        assert kinds.count("corpus_snapshot") == 1
        assert "micro_result" not in kinds
        assert "winner_decided" not in kinds

    def test_no_mutator_keeps_gate_but_not_recipes(self, tmp_path):
        config = CampaignConfig(
            target="staircase",
            output_dir=tmp_path / "run",
            ablation="no-mutator",
            budget_execs=4000,
            rng_seed=7,
            providers=(StaticTokenProvider([b"XKEY1"]),),
        )
        artifacts = run_campaign(config)
        kinds = kinds_of(artifacts)
        assert kinds.count("micro_result") == 4
        # Promotion is recorded, but the main loop never installs it.
        assert kinds.count("recipe_promoted") == 1
        completed = artifacts.events[-1]
        assert completed.payload["active_recipe_id"] is None

    def test_rule_only_runs_gate_without_providers(self, tmp_path):
        config = saturated_config(
            tmp_path, ablation="rule-only", providers=(AbortingProvider(),)
        )
        artifacts = run_campaign(config)
        proposals = [e for e in artifacts.events if e.kind == "proposal_recorded"]
        assert len(proposals) == 4
        assert all(p.payload["provider"] == "rule" for p in proposals)


class TestArtifacts:
    def test_fuzzer_stats_keys(self, tmp_path):
        artifacts = run_campaign(saturated_config(tmp_path))
        expected = {
            "run_time",
            "execs_done",
            "execs_per_sec",
            "cycles_done",
            "corpus_count",
            "edges_found",
            "bitmap_cvg",
            "last_find",
            "stability",
        }
        assert set(artifacts.fuzzer_stats) == expected
        row = parse_run_dir(artifacts.output_dir)
        assert row.mode == "full"
        assert row.plateau_sec == row.run_time - row.last_find

    def test_coverage_csv_format(self, tmp_path):
        artifacts = run_campaign(saturated_config(tmp_path))
        lines = (artifacts.output_dir / "coverage.csv").read_text().splitlines()
        assert lines[0] == "t_sec,edges_found"
        assert lines[1].startswith("0,")
        edges = [int(line.split(",")[1]) for line in lines[1:]]
        assert edges == sorted(edges)

    def test_events_are_jsonl(self, tmp_path):
        artifacts = run_campaign(saturated_config(tmp_path))
        text = (artifacts.output_dir / "events.jsonl").read_text()
        parsed = [json.loads(line) for line in text.splitlines()]
        assert all({"t", "kind", "payload"} <= set(doc) for doc in parsed)
        assert len(parsed) == len(artifacts.events)

    def test_run_metadata_digests(self, tmp_path):
        artifacts = run_campaign(saturated_config(tmp_path))
        meta = json.loads((artifacts.output_dir / "run_metadata.json").read_text())
        for name, digest in meta["artifact_digests"].items():
            actual = hashlib.sha256(
                (artifacts.output_dir / name).read_bytes()
            ).hexdigest()
            assert actual == digest

    def test_snapshot_is_logged_not_written(self, tmp_path, monkeypatch):
        # A snapshot is the first `entries` queue entries: the log holds its
        # size and digest, and queue/ its bytes. Nothing else is written.
        refs = []
        real = controller_module.snapshot_corpus

        def recorded(*args):
            refs.append(real(*args))
            return refs[-1]

        monkeypatch.setattr(controller_module, "snapshot_corpus", recorded)
        artifacts = run_campaign(saturated_config(tmp_path))
        snap = next(e for e in artifacts.events if e.kind == "corpus_snapshot")
        assert snap.payload == {"entries": len(refs[0].entries), "digest": refs[0].digest}
        assert not (artifacts.output_dir / "snapshots").exists()
        entries = read_queue(artifacts.output_dir / "queue")[: snap.payload["entries"]]
        assert entries == refs[0].entries


def make_blackboard(seeds=None, **overrides):
    """A blackboard document; top-level keys may be overridden, and
    seeds replaces the snapshot's seed list."""
    if seeds is None:
        seeds = [
            {"seed_id": "s0", "seed_hash": "h0", "size": 4, "family": "default"},
            {"seed_id": "s1", "seed_hash": "h1", "size": 40, "family": "default"},
        ]
    doc = {
        "snapshot": {"digest": "d" * 64, "seeds": list(seeds)},
        "recent_stats": [{"t": 1.0, "execs_done": 10, "paths_total": 2, "edges_found": 5}],
        "static_context": {"available": False, "tokens": []},
        "config_digest": "c" * 64,
        "cycle": 1,
    }
    doc.update(overrides)
    return doc


class TestHashing:
    def test_stable_digest(self):
        a = make_blackboard()
        b = make_blackboard()
        assert hash_context(a) == hash_context(b)
        assert len(hash_context(a)) == 64
        assert all(c in "0123456789abcdef" for c in hash_context(a))

    def test_counter_change_alters_digest(self):
        a = make_blackboard()
        b = make_blackboard(
            recent_stats=[{"t": 1.0, "execs_done": 11, "paths_total": 2, "edges_found": 5}]
        )
        assert hash_context(a) != hash_context(b)

    # Re-recorded when the digest document gained detector.cooldown_sec
    # and lost the micro_budget_sec placeholder.
    @pytest.mark.parametrize(
        "overrides, digest",
        [
            (
                dict(target="parser", budget_execs=3000),
                "8921a40b64675786759943c4ba3bc781ab45531cff46169172ddfa0142ba38de",
            ),
            (
                dict(
                    target="staircase",
                    budget_sec=5.0,
                    static_tokens=(b"XKEY1",),
                    micro_budget_execs=200,
                ),
                "ce956d69362cff614cea273667d83cf254d63352f53a252b00a1157d4c0c1cd0",
            ),
        ],
        ids=["default", "tokens"],
    )
    def test_config_digest_pinned(self, overrides, digest, tmp_path):
        assert CampaignConfig(output_dir=tmp_path, **overrides).digest() == digest

    def test_cooldown_changes_digest(self, tmp_path):
        # The cooldown sets when a re-arming detector fires again, so two
        # configs that differ only there must not share a config digest.
        def digest(cooldown):
            detector = DetectorConfig(rearm_policy=REARM_AFTER_COOLDOWN, cooldown_sec=cooldown)
            return CampaignConfig(output_dir=tmp_path, budget_execs=10, detector=detector).digest()

        assert digest(5) != digest(500)

    def test_response_hash(self):
        assert hash_response(b"doc") == hashlib.sha256(b"doc").hexdigest()
        assert hash_response(b"doc") != hash_response(b"doc2")


# sha256 of each built-in recipe document, recorded before the documents
# came from one writer: a change to any byte changes response_hash.
DOCUMENT_PINS = {
    "default": "7599bae6e961e81165301c0abc2c35c199543744dd41d82b50ee80cc27dc95c1",
    "dictionary": "b5422b2ad0ae7546400ca68663f72ef97be20ed1409d5e03d328ac4dd2701f5e",
    "dictionary-static": "7e9ee2e2ed02943a81f2a85e5d1798c1c2a1d0570203d884e50cd606477d432d",
    "seed_focus": "372f25b1a9b0d5a2aa94744b2c3f9132998020b0f9bb1ad52ab1490d66830c63",
    "per_seed_recipe": "12e9432193797b44b4d1f06a3a7d72b90d7e314fa3d21bc22aa84999f6a1aca9",
    "static-dict": "3816299ebceec3fe5820bba612e138ee0a3b2766027dd26709f796bad1ec6c1c",
    "reference": "adaf1a9fccff9ee89af12dffc58615e2ec6e23fb98aaf0371313a37fc56ed0f6",
}


class TestBuiltinDocuments:
    @pytest.mark.parametrize("static", [False, True], ids=["no-static", "static"])
    @pytest.mark.parametrize("intervention", INTERVENTIONS)
    def test_rule_provider(self, intervention, static):
        bb = make_blackboard()
        if static:
            bb = make_blackboard(static_context={"available": True, "tokens": ["null", "true"]})
        text = RuleProvider().propose(bb, intervention)
        key = "dictionary-static" if static and intervention == "dictionary" else intervention
        assert hash_response(text.encode()) == DOCUMENT_PINS[key]

    def test_default(self):
        assert hash_response(default_recipe_doc().encode()) == DOCUMENT_PINS["default"]

    def test_static_token_provider(self):
        text = StaticTokenProvider([b"XKEY1"]).propose({}, "dictionary")
        assert hash_response(text.encode()) == DOCUMENT_PINS["static-dict"]
        assert StaticTokenProvider([b"XKEY1"]).propose({}, "default") is None

    def test_cli_reference(self):
        assert hash_response(_reference_recipe_doc().encode()) == DOCUMENT_PINS["reference"]


class BadDocProvider:
    name = "bad-doc"

    def propose(self, blackboard, intervention):
        if intervention == "dictionary":
            return '{"id": "nope"}'  # missing required fields
        return None


class TestProposeCandidates:
    def test_rule_bundle(self):
        candidates, records = propose_candidates(make_blackboard(), ())
        assert [c.intervention for c in candidates] == [
            "default",
            "dictionary",
            "seed_focus",
            "per_seed_recipe",
        ]
        assert len({c.candidate_id for c in candidates}) == 4
        assert all(r["schema_valid"] for r in records)

    def test_default_dictionary_tokens(self):
        candidates, _ = propose_candidates(make_blackboard(), ())
        dictionary = next(c for c in candidates if c.intervention == "dictionary")
        assert dictionary.recipe.dictionary_tokens == (b"FUZZ", b"MAGIC", b"TOKEN")
        default = next(c for c in candidates if c.intervention == "default")
        assert default.recipe.operator_weights["InsertToken"] == 0.35

    def test_static_context_feeds_dictionary(self):
        bb = make_blackboard(
            static_context={"available": True, "tokens": ["null", "true"]}
        )
        candidates, _ = propose_candidates(bb, ())
        dictionary = next(c for c in candidates if c.intervention == "dictionary")
        assert dictionary.recipe.dictionary_tokens == (b"null", b"true")

    def test_static_tokens_are_escaped(self):
        # A quote and a trailing backslash, a byte above 0x7e, and a token
        # spelled like an escape: each must reach the recipe as given.
        tokens = (b'say "q"\\x', b"caf\xe9", b"\\x41")
        bb = make_blackboard(
            static_context={"available": True, "tokens": [t.decode("latin-1") for t in tokens]}
        )
        candidates, records = propose_candidates(bb, ())
        assert len(candidates) == 4
        assert all(r["schema_valid"] for r in records)
        dictionary = next(c for c in candidates if c.intervention == "dictionary")
        assert dictionary.recipe.dictionary_tokens == tokens

    def test_overlong_static_token_keeps_the_slot(self):
        # A token no recipe can carry (over MAX_TOKEN_LEN bytes) is skipped,
        # not allowed to make the dictionary document schema-invalid.
        bb = make_blackboard(static_context={"available": True, "tokens": ["x" * 65, "ok"]})
        for providers in ((), (StaticTokenProvider([b"x" * 65, b"ok"]),)):
            candidates, records = propose_candidates(bb, providers)
            assert len(candidates) == 4
            assert all(r["schema_valid"] for r in records)
            dictionary = next(c for c in candidates if c.intervention == "dictionary")
            assert dictionary.recipe.dictionary_tokens == (b"ok",)

    def test_no_usable_static_token(self):
        bb = make_blackboard(static_context={"available": True, "tokens": ["x" * 65]})
        candidates, records = propose_candidates(bb, (StaticTokenProvider([b"x" * 65]),))
        assert [r["provider"] for r in records] == ["rule"] * 4
        dictionary = next(c for c in candidates if c.intervention == "dictionary")
        assert dictionary.recipe.dictionary_tokens == (b"FUZZ", b"MAGIC", b"TOKEN")

    def test_invalid_provider_output_recorded_and_backfilled(self):
        candidates, records = propose_candidates(make_blackboard(), (BadDocProvider(),))
        assert len(candidates) == 4
        bad = [r for r in records if not r["schema_valid"]]
        assert len(bad) == 1
        assert bad[0]["error_kind"] == "schema_invalid"
        assert bad[0]["provider"] == "bad-doc"
        # The slot was still filled by the rule provider.
        dictionary = next(c for c in candidates if c.intervention == "dictionary")
        assert dictionary.recipe.id == "rule_dictionary"

    @pytest.mark.parametrize("weight", [[1], {"a": 1}, "abc"])
    def test_malformed_token_weight_recorded_and_backfilled(self, weight):
        class MalformedWeightProvider:
            name = "malformed-weight"

            def propose(self, blackboard, intervention):
                weights = {"BitFlip": 1.0, "InsertToken": weight}
                return json.dumps({
                    "id": "w", "selector": {"mode": "mode", "key": "any"},
                    "priority": 1, "ttl_sec": 60, "operator_weights": weights,
                })

        candidates, records = propose_candidates(make_blackboard(), (MalformedWeightProvider(),))
        assert len(candidates) == 4
        bad = [r for r in records if not r["schema_valid"]]
        assert [r["error_kind"] for r in bad] == ["schema_invalid"] * 4
        assert all(
            r["violations"] == [["operator_weights.InsertToken", "weight must be numeric"]]
            for r in bad
        )
        assert [r["provider"] for r in records if r["schema_valid"]] == ["rule"] * 4

    def test_empty_seed_list_backs_seed_slots_with_default(self):
        bb = make_blackboard(seeds=())
        candidates, records = propose_candidates(bb, ())
        assert len(candidates) == 4
        for intervention in ("seed_focus", "per_seed_recipe"):
            record = next(r for r in records if r["intervention"] == intervention)
            assert record == {
                "provider": "rule",
                "intervention": intervention,
                "schema_valid": True,
                "recipe_id": DEFAULT_RECIPE_ID,
                "context_hash": hash_context(bb),
                "response_hash": hash_response(default_recipe_doc().encode()),
                "document": default_recipe_doc().encode(),
            }
            candidate = next(c for c in candidates if c.intervention == intervention)
            assert candidate.recipe.id == DEFAULT_RECIPE_ID

    def test_seed_scoped_selectors(self):
        candidates, _ = propose_candidates(make_blackboard(), ())
        focus = next(c for c in candidates if c.intervention == "seed_focus")
        assert focus.recipe.selector.mode == "seed_hash"
        assert focus.recipe.selector.key == "h0"  # shortest seed
        per_seed = next(c for c in candidates if c.intervention == "per_seed_recipe")
        assert per_seed.recipe.selector.mode == "seed_id"
        assert per_seed.recipe.selector.key == "s1"  # largest seed
