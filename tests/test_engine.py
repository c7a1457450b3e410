"""Mutation engine: operator semantics, range discipline, determinism,
hit/miss accounting, and the dispatch bench plumbing."""

import dataclasses
import json
import random
from collections import Counter

import pytest

from recipefuzz.engine import (
    ZeroCalls,
    _pick_run,
    bench_dispatch,
    format_bench_report,
    havoc_mutate,
    make_entry,
    mutate,
    selector_matches,
    writable_intervals,
)
from recipefuzz.recipe import (
    ByteRange,
    OperatorKind,
    Selector,
    lower_recipe,
    parse_recipe,
)

from conftest import REFERENCE_WEIGHTS


def compact_from(**overrides):
    doc = {
        "id": "t",
        "selector": {"mode": "mode", "key": "any"},
        "priority": 1,
        "ttl_sec": 60,
        "operator_weights": {"BitFlip": 1.0},
        "focus_ranges": [],
        "protect_ranges": [],
        "dictionary_tokens": [],
    }
    doc.update(overrides)
    return lower_recipe(parse_recipe(json.dumps(doc)))


CORPUS = (
    make_entry("s0", b'{"alpha": 1}'),
    make_entry("s1", b"[true, null]"),
    make_entry("s2", b'"text body here"'),
)


def bitflip_offset(compact, data, rng):
    """Offset a BitFlip-only recipe wrote, read from the one changed byte;
    None on a miss."""
    outcome = mutate(compact, data, CORPUS, rng, 64)
    if outcome.miss:
        assert outcome.output == data
        return None
    changed = [i for i, (a, b) in enumerate(zip(data, outcome.output)) if a != b]
    assert len(changed) == 1
    return changed[0]


class TestWritableOffsets:
    def test_singleton_focus(self):
        compact = compact_from(focus_ranges=[[0, 1]])
        rng = random.Random(0)
        for _ in range(50):
            assert bitflip_offset(compact, bytes(8), rng) == 0

    def test_fully_protected(self):
        compact = compact_from(protect_ranges=[[0, 8]])
        rng = random.Random(0)
        assert bitflip_offset(compact, bytes(8), rng) is None

    def test_split_uniformity(self):
        compact = compact_from(focus_ranges=[[0, 4]], protect_ranges=[[2, 4]])
        rng = random.Random(42)
        counts = Counter(bitflip_offset(compact, bytes(8), rng) for _ in range(10_000))
        assert set(counts) == {0, 1}
        assert abs(counts[0] / 10_000 - 0.5) < 0.03
        assert abs(counts[1] / 10_000 - 0.5) < 0.03

    def test_focus_clipped_to_input(self):
        compact = compact_from(focus_ranges=[[4, 100]])
        rng = random.Random(1)
        offs = {bitflip_offset(compact, bytes(6), rng) for _ in range(200)}
        assert offs == {4, 5}

    def test_interval_subtraction(self):
        iv = writable_intervals(
            (ByteRange(0, 10), ByteRange(20, 30)),
            (ByteRange(3, 5), ByteRange(8, 22), ByteRange(29, 40)),
            50,
        )
        assert iv == [(0, 3), (5, 8), (22, 29)]


FOCUS_GRID = ([], [[0, 4]], [[2, 6], [10, 40]])
PROTECT_GRID = ([], [[0, 2]], [[3, 12]])
LENGTHS = (1, 3, 5, 8, 17, 64)
TOKEN = "XKEY1"
MIN_LENS = (1, 2, 4, len(TOKEN))


def cache_grid_recipes():
    """One recipe per focus/protect pair of the grid, every operator on."""
    for focus in FOCUS_GRID:
        for protect in PROTECT_GRID:
            yield parse_recipe(json.dumps({
                "id": "t",
                "selector": {"mode": "mode", "key": "any"},
                "priority": 1,
                "ttl_sec": 60,
                "operator_weights": dict(REFERENCE_WEIGHTS),
                "focus_ranges": focus,
                "protect_ranges": protect,
                "dictionary_tokens": [TOKEN, "ab"],
            }))


def interval_pick(intervals, min_len, rng):
    """The offset pick over freshly computed intervals, as it was before
    run tables were cached."""
    total = sum(e - s - min_len + 1 for s, e in intervals if e - s >= min_len)
    if total <= 0:
        return None
    u = rng.randrange(total)
    for s, e in intervals:
        if e - s < min_len:
            continue
        count = e - s - min_len + 1
        if u < count:
            return s + u, e - (s + u)
        u -= count
    raise AssertionError("unreachable")


class TestRunTableCache:
    def test_warmed_recipe_matches_fresh_copy(self):
        for recipe in cache_grid_recipes():
            warm = lower_recipe(recipe)
            warm_rng = random.Random(5)
            for n in LENGTHS:
                for _ in range(30):
                    mutate(warm, bytes(range(n)), CORPUS, warm_rng, 128)
            for i, n in enumerate(reversed(LENGTHS)):
                data = bytes(range(100, 100 + n))
                fresh = lower_recipe(recipe)
                a, b = random.Random(i), random.Random(i)
                for _ in range(50):
                    assert mutate(warm, data, CORPUS, a, 128) == mutate(fresh, data, CORPUS, b, 128)
                    assert a.getstate() == b.getstate()

    def test_picks_match_interval_walk_and_stay_writable(self):
        for recipe in cache_grid_recipes():
            compact = lower_recipe(recipe)
            for n in LENGTHS:
                iv = writable_intervals(compact.focus_ranges, compact.protect_ranges, n)
                for min_len in MIN_LENS:
                    cached, reference = random.Random(n), random.Random(n)
                    for _ in range(40):
                        run = _pick_run(compact, n, min_len, cached)
                        assert run == interval_pick(iv, min_len, reference)
                        assert cached.getstate() == reference.getstate()
                        if run is None:
                            assert all(e - s < min_len for s, e in iv)
                            continue
                        start, room = run
                        assert any(s <= start and start + room == e for s, e in iv)
                        assert room >= min_len

    def test_used_recipe_still_equals_fresh_lowering(self):
        for recipe in cache_grid_recipes():
            used, untouched = lower_recipe(recipe), lower_recipe(recipe)
            rng = random.Random(0)
            for n in LENGTHS:
                mutate(used, bytes(n), CORPUS, rng, 128)
            assert used.run_tables and not untouched.run_tables
            assert used == untouched
            assert hash(used) == hash(untouched)
            assert repr(used) == repr(untouched)
            # A copy with other ranges must not inherit the tables.
            assert not dataclasses.replace(used, focus_ranges=()).run_tables


class TestOperators:
    def test_insert_token_length_arithmetic(self):
        compact = compact_from(
            operator_weights={"InsertToken": 1.0}, dictionary_tokens=["{"]
        )
        # Deterministic: find a seed placing the token at offset 1 and
        # verify the exact splice shape.
        for seed in range(200):
            rng = random.Random(seed)
            outcome = mutate(compact, b"ab", CORPUS, rng, 64)
            assert outcome.hit and outcome.op_applied is OperatorKind.InsertToken
            assert len(outcome.output) == 3
            if outcome.output == b"a{b":
                return
        pytest.fail("no seed produced insertion at offset 1")

    def test_fully_protected_is_miss(self):
        compact = compact_from(
            operator_weights={"OverwriteRange": 1.0},
            protect_ranges=[[0, 4096]],
        )
        rng = random.Random(5)
        outcome = mutate(compact, b"abcdef", CORPUS, rng, 64)
        assert outcome.miss and not outcome.hit
        assert outcome.output == b"abcdef"
        assert outcome.op_applied is None

    def test_delete_block_floor(self):
        compact = compact_from(operator_weights={"DeleteBlock": 1.0})
        rng = random.Random(0)
        outcome = mutate(compact, b"x", CORPUS, rng, 64)
        assert outcome.miss
        assert outcome.output == b"x"
        # On longer inputs at least one byte always survives.
        for seed in range(100):
            out = mutate(compact, b"ab", CORPUS, random.Random(seed), 64)
            assert out.hit and len(out.output) == 1

    def test_splice_empty_corpus_is_miss(self):
        compact = compact_from(operator_weights={"Splice": 1.0})
        rng = random.Random(9)
        outcome = mutate(compact, b"abcdef", (), rng, 64)
        assert outcome.miss and outcome.output == b"abcdef"

    def test_insert_token_without_tokens_unreachable(self):
        # Validation refuses token ops without tokens, so the engine-level
        # miss only arises via direct construction; exercise overwrite
        # instead: token longer than input is a miss.
        compact = compact_from(
            operator_weights={"DictionaryOverwrite": 1.0},
            dictionary_tokens=["longtoken"],
        )
        outcome = mutate(compact, b"ab", CORPUS, random.Random(1), 64)
        assert outcome.miss

    def test_dictionary_overwrite_length_preserving(self):
        compact = compact_from(
            operator_weights={"DictionaryOverwrite": 1.0}, dictionary_tokens=["XY"]
        )
        for seed in range(50):
            out = mutate(compact, b"abcdef", CORPUS, random.Random(seed), 64)
            assert out.hit and len(out.output) == 6
            assert b"XY" in out.output

    def test_arith_changes_bytes_in_place(self):
        compact = compact_from(operator_weights={"Arith": 1.0})
        changed = 0
        for seed in range(50):
            out = mutate(compact, b"\x10\x10\x10\x10\x10\x10\x10\x10", CORPUS, random.Random(seed), 64)
            assert out.hit and len(out.output) == 8
            changed += out.output != b"\x10\x10\x10\x10\x10\x10\x10\x10"
        assert changed == 50  # delta never zero

    def test_max_size_respected_by_growth_ops(self):
        compact = compact_from(
            operator_weights={"InsertToken": 1.0}, dictionary_tokens=["BIGTOKEN"]
        )
        outcome = mutate(compact, b"abcd", CORPUS, random.Random(2), 5)
        assert outcome.miss  # 4 + 8 > 5

    def test_selector_mismatch_is_miss(self):
        compact = compact_from(selector={"mode": "seed_id", "key": "other"})
        entry = CORPUS[0]
        outcome = mutate(compact, entry.data, CORPUS, random.Random(3), 64, seed=entry)
        assert outcome.miss and outcome.output == entry.data

    def test_selector_modes(self):
        entry = CORPUS[0]
        assert selector_matches(Selector("mode", "anything"), entry)
        assert selector_matches(Selector("seed_id", "s0"), entry)
        assert not selector_matches(Selector("seed_id", "s1"), entry)
        assert selector_matches(Selector("seed_hash", entry.seed_hash), entry)
        assert selector_matches(Selector("family", "default"), entry)
        assert not selector_matches(Selector("family", "png"), entry)


def random_recipe_doc(rng):
    ops = list(REFERENCE_WEIGHTS)
    chosen = rng.sample(ops, rng.randint(1, len(ops)))
    weights = {op: round(rng.uniform(0.05, 1.0), 2) for op in chosen}
    tokens = []
    if weights.get("InsertToken") or weights.get("DictionaryOverwrite") or rng.random() < 0.5:
        tokens = [
            "".join(rng.choice("ABCdef01") for _ in range(rng.randint(1, 6)))
            for _ in range(rng.randint(1, 4))
        ]
    focus = []
    if rng.random() < 0.5:
        a = rng.randrange(0, 48)
        focus = [[a, a + rng.randint(1, 48)]]
    protect = []
    if rng.random() < 0.5:
        a = rng.randrange(0, 48)
        protect = [[a, a + rng.randint(1, 16)]]
    return json.dumps(
        {
            "id": "prop",
            "selector": {"mode": "mode", "key": "any"},
            "priority": 1,
            "ttl_sec": 60,
            "operator_weights": weights,
            "focus_ranges": focus,
            "protect_ranges": protect,
            "dictionary_tokens": tokens,
        }
    )


LENGTH_PRESERVING = {
    OperatorKind.BitFlip,
    OperatorKind.OverwriteRange,
    OperatorKind.Arith,
    OperatorKind.DictionaryOverwrite,
}


class TestProperties:
    N_TRIALS = 20_000

    def test_randomized_invariants(self):
        rng = random.Random(20240917)
        violations = {"protect": 0, "size": 0, "accounting": 0}
        for trial in range(self.N_TRIALS):
            compact = lower_recipe(parse_recipe(random_recipe_doc(rng)))
            length = rng.randint(1, 120)
            data = bytes(rng.randrange(256) for _ in range(length))
            max_size = rng.randint(length, 4 * length + 16)
            call_rng = random.Random(rng.randrange(2**30))
            outcome = mutate(compact, data, CORPUS, call_rng, max_size)
            if outcome.hit == outcome.miss:
                violations["accounting"] += 1
            if not 1 <= len(outcome.output) <= max_size:
                violations["size"] += 1
            if outcome.op_applied in LENGTH_PRESERVING:
                for pr in compact.protect_ranges:
                    for i in range(pr.start, min(pr.end, length)):
                        if outcome.output[i] != data[i]:
                            violations["protect"] += 1
            if outcome.miss and outcome.output != data:
                violations["accounting"] += 1
        assert violations == {"protect": 0, "size": 0, "accounting": 0}

    def test_determinism(self):
        rng = random.Random(7)
        compact = lower_recipe(parse_recipe(random_recipe_doc(rng)))
        data = bytes(rng.randrange(256) for _ in range(64))
        for seed in range(500):
            o1 = mutate(compact, data, CORPUS, random.Random(seed), 256)
            o2 = mutate(compact, data, CORPUS, random.Random(seed), 256)
            assert o1 == o2

    def test_op_frequency_no_forced_misses(self, reference_recipe_text):
        # Roomy input, tokens present, corpus present: every op applies.
        doc = json.loads(reference_recipe_text)
        doc["focus_ranges"] = []
        doc["protect_ranges"] = []
        doc["selector"] = {"mode": "mode", "key": "any"}
        compact = lower_recipe(parse_recipe(json.dumps(doc)))
        data = bytes(range(64))
        rng = random.Random(99)
        n = 100_000
        counts = Counter()
        misses = 0
        for _ in range(n):
            outcome = mutate(compact, data, CORPUS, rng, 256)
            if outcome.hit:
                counts[outcome.op_applied] += 1
            else:
                misses += 1
        assert misses == 0
        for op, weight in REFERENCE_WEIGHTS.items():
            assert abs(counts[OperatorKind(op)] / n - weight) < 0.01

    def test_hits_plus_misses_equals_calls(self):
        rng = random.Random(31)
        compact = compact_from(
            operator_weights=dict(REFERENCE_WEIGHTS),
            dictionary_tokens=["GATE1", "xx"],
        )
        hits = misses = 0
        calls = 5_000
        for _ in range(calls):
            outcome = mutate(compact, b"ab", CORPUS, rng, 8)
            hits += outcome.hit
            misses += outcome.miss
        assert hits + misses == calls
        assert misses > 0  # short input forces some inapplicable ops


class TestHavocAndDispatch:
    def test_havoc_size_bounds(self):
        rng = random.Random(8)
        for _ in range(5_000):
            data = bytes(rng.randrange(256) for _ in range(rng.randint(1, 40)))
            out = havoc_mutate(data, rng, 64)
            assert 1 <= len(out) <= 64

    def test_dispatch_without_recipe_uses_havoc(self):
        out = mutate(None, b"abcdef", CORPUS, random.Random(3), 64)
        assert out.op_applied is None
        assert not out.hit and not out.miss

    def test_dispatch_with_recipe(self):
        compact = compact_from()
        out = mutate(compact, b"abcdef", CORPUS, random.Random(3), 64)
        assert out.hit

    def test_no_recipe_matches_havoc_mutate(self):
        via_mutate, via_havoc = random.Random(11), random.Random(11)
        for i in range(2_000):
            data = CORPUS[i % len(CORPUS)].data
            out = mutate(None, data, CORPUS, via_mutate, 64, seed=CORPUS[0])
            assert out.output == havoc_mutate(data, via_havoc, 64)
            assert via_mutate.getstate() == via_havoc.getstate()

    @pytest.mark.parametrize("size,max_size", [(0, 10), (11, 10), (1, 0)])
    @pytest.mark.parametrize("recipe", [False, True], ids=["havoc", "recipe"])
    def test_input_outside_max_size_rejected(self, size, max_size, recipe):
        compact = compact_from() if recipe else None
        rng = random.Random(0)
        with pytest.raises(ValueError, match=f"input is {size} bytes"):
            mutate(compact, b"x" * size, CORPUS, rng, max_size)
        with pytest.raises(ValueError, match=f"input is {size} bytes"):
            havoc_mutate(b"x" * size, rng, max_size)
        assert rng.getstate() == random.Random(0).getstate()


class TestBench:
    def test_zero_calls(self):
        with pytest.raises(ZeroCalls):
            bench_dispatch("vanilla", 0, CORPUS, 0)

    def test_reports(self, reference_recipe_text):
        doc = json.loads(reference_recipe_text)
        doc["selector"] = {"mode": "mode", "key": "any"}
        active = lower_recipe(parse_recipe(json.dumps(doc)))
        for config in ("vanilla", "fp-empty", "fp-active"):
            report = bench_dispatch(config, 2_000, CORPUS, 1, active_recipe=active)
            assert report.calls == 2_000
            assert report.ns_per_call > 0
            assert report.calls_per_sec == pytest.approx(
                report.calls / (report.elapsed_ns / 1e9)
            )
            text = format_bench_report(report)
            assert f"config        : {config}" in text

    def test_fp_active_requires_recipe(self):
        with pytest.raises(ValueError):
            bench_dispatch("fp-active", 10, CORPUS, 0)

    def test_unknown_config(self):
        with pytest.raises(ValueError):
            bench_dispatch("turbo", 10, CORPUS, 0)
