"""Simulated target determinism, saturation, token gating, bitmap merging."""

import itertools
import random

import pytest

from recipefuzz import targets as T
from recipefuzz.targets import (
    EdgeBitmap,
    ExecResult,
    ParserTarget,
    StaircaseTarget,
    merge_into,
)

PARSER_EDGE_IDS = {v for n, v in vars(T).items() if n.startswith("E_")}
# The empty-input arm is unreachable during fuzzing (mutations never
# produce empty buffers), so the campaign-reachable universe excludes it.
REACHABLE_EDGES = PARSER_EDGE_IDS - {T.E_EMPTY_INPUT}


class TestParserTarget:
    def test_determinism(self):
        t = ParserTarget()
        r1 = t.execute(b"{}")
        r2 = t.execute(b"{}")
        assert r1 == r2
        assert r1.edges_hit and not r1.crashed

    def test_crash_bomb(self):
        t = ParserTarget()
        assert t.execute(b"[" * 80).crashed
        assert not t.execute(b"[" * 40).crashed
        shallow = ParserTarget(crash_depth=8)
        assert shallow.execute(b"[" * 12).crashed

    def test_seeds_cover_reachable_universe(self):
        t = ParserTarget()
        covered = set()
        for name, data in T.PARSER_SEEDS:
            result = t.execute(data)
            assert not result.crashed, name
            covered |= result.edges_hit
        assert covered == REACHABLE_EDGES

    def test_empty_input_edge(self):
        t = ParserTarget()
        result = t.execute(b"")
        assert T.E_EMPTY_INPUT in result.edges_hit

    def test_saturation_ceiling(self):
        # Random fuzzing from the seed corpus converges to the seeds' own
        # coverage: the seeded corpus is the saturated fixture.
        t = ParserTarget()
        seed_cov = set()
        for _, data in T.PARSER_SEEDS:
            seed_cov |= t.execute(data).edges_hit
        rng = random.Random(2024)
        corpus = [d for _, d in T.PARSER_SEEDS]
        extra = set()
        for _ in range(50_000):
            buf = bytearray(rng.choice(corpus))
            for _ in range(rng.randint(1, 4)):
                k = rng.randrange(3)
                if k == 0:
                    buf[rng.randrange(len(buf))] = rng.randrange(256)
                elif k == 1 and len(buf) > 1:
                    del buf[rng.randrange(len(buf))]
                else:
                    buf.insert(rng.randrange(len(buf) + 1), rng.randrange(256))
            extra |= t.execute(bytes(buf)).edges_hit - seed_cov
        assert extra == set()


class TestStaircaseTarget:
    def test_gate_reveals_exact_edge_group(self):
        t = StaircaseTarget(gates=(b"XKEY1", b"XKEY2"))
        base = t.execute(b"hello")
        only_first = t.execute(b"say XKEY1 now")
        assert only_first.edges_hit - base.edges_hit == t.gate_edges(0)
        only_second = t.execute(b"say XKEY2 now")
        assert only_second.edges_hit - base.edges_hit == t.gate_edges(1)
        both = t.execute(b"XKEY1 and XKEY2")
        assert both.edges_hit == base.edges_hit | t.gate_edges(0) | t.gate_edges(1)

    def test_gating_exhaustive_small_inputs(self):
        # No input of length <= 2 (full byte alphabet) can reach a gated
        # edge: gate literals are at least 5 bytes.
        t = StaircaseTarget()
        gated = frozenset().union(*(t.gate_edges(i) for i in range(len(t.gates))))
        for length in (0, 1, 2):
            for combo in itertools.product(range(0, 256, 17), repeat=length):
                result = t.execute(bytes(combo))
                assert not (result.edges_hit & gated)

    def test_gating_random_inputs(self):
        t = StaircaseTarget()
        gated = frozenset().union(*(t.gate_edges(i) for i in range(len(t.gates))))
        rng = random.Random(7)
        checked = 0
        for _ in range(100_000):
            data = bytes(rng.randrange(256) for _ in range(rng.randint(1, 32)))
            if any(g in data for g in t.gates):
                continue
            checked += 1
            assert not (t.execute(data).edges_hit & gated)
        assert checked > 99_000

    def test_gate_literal_floor(self):
        try:
            StaircaseTarget(gates=(b"ab",))
        except ValueError:
            return
        raise AssertionError("short gate literal accepted")

    def test_seeds_cover_base_only(self):
        t = StaircaseTarget()
        cov = set()
        for _, data in T.STAIRCASE_SEEDS:
            cov |= t.execute(data).edges_hit
        assert cov == set(T.STAIR_BASE)


@pytest.mark.parametrize("target", [ParserTarget(), StaircaseTarget()], ids=["parser", "staircase"])
def test_input_over_one_mib_rejected(target):
    assert T.MAX_INPUT == 1 << 20
    with pytest.raises(ValueError, match="exceeds max size"):
        target.execute(b"[" * (T.MAX_INPUT + 1))
    # At the limit the input runs; nested brackets crash the parser at
    # its depth budget within the first hundred bytes.
    assert target.execute(b"[" * T.MAX_INPUT).edges_hit


class TestExecResult:
    def test_positional_and_keyword_construction(self):
        edges = frozenset({1, 2})
        result = ExecResult(edges, True, 3)
        assert result == ExecResult(edges_hit=edges, crashed=True, consumed=3)
        assert (result.edges_hit, result.crashed, result.consumed) == (edges, True, 3)

    def test_fields_are_read_only(self):
        result = ExecResult(frozenset(), False, 0)
        with pytest.raises(AttributeError):
            result.crashed = True


class TestEdgeBitmap:
    def test_merge_counts(self):
        t = ParserTarget()
        bm = EdgeBitmap()
        result = t.execute(b"{}")
        new = merge_into(bm, result)
        assert new == len(result.edges_hit)
        again = merge_into(bm, result)
        assert again == 0  # idempotent

    def test_disjoint_results_add(self):
        s = StaircaseTarget()
        bm = EdgeBitmap()
        n1 = merge_into(bm, s.execute(b"aaaaa"))
        n2 = merge_into(bm, s.execute(b"with XKEY1 in it"))
        assert bm.count == n1 + n2

    def test_capacity_wraps(self):
        bm = EdgeBitmap(capacity=8)
        from recipefuzz.targets import ExecResult

        merge_into(bm, ExecResult(frozenset({1, 9}), False, 0))
        assert bm.count == 1  # 1 and 9 share slot 1 at capacity 8
