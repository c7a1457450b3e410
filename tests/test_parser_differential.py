"""The built-in parser target against its former implementation
(parser_reference): both must report the same edges_hit, crashed and
consumed for every input, at shallow and default crash depths."""

import itertools
import random

import pytest

import parser_reference
from recipefuzz.controller import CampaignConfig, run_campaign
from recipefuzz.engine import mutate
from recipefuzz.recipe import lower_recipe
from recipefuzz.targets import PARSER_SEEDS, ParserTarget

from test_acceptance import SPLICE_CORPUS, _random_recipe

CRASH_DEPTHS = (0, 3, 8, 64)

# Bytes the parser branches on, plus whitespace and a control byte, and
# words made of them that random draws would hardly ever spell.
STRUCTURAL = b'{}[]",:\\' + b"ueEtfnrlsa" + b"0123456789" + b".+-" + b" \t\n\r" + b"\x01"
WORDS = (b"true", b"false", b"null", b"\\u0aE1", b'{"a": 0, ', b"-0.5e+1")


def campaign_inputs(out):
    """Every input a 100k-exec parser/full campaign hands its executor:
    seeds, main loop, gate replays and gate mutations."""
    target = ParserTarget()
    seen = {}

    class Recording:
        def execute(self, data):
            seen[data] = None
            return target.execute(data)

    config = CampaignConfig(
        target="parser", output_dir=out, ablation="full", budget_execs=100_000, rng_seed=1
    )
    run_campaign(config, Recording())
    return list(seen)


def c07_inputs():
    """The splice corpus of C07 and the inputs and outputs of its first
    2,000 mutation trials, drawn as C07 draws them."""
    rng = random.Random(70_707)
    inputs = [entry.data for entry in SPLICE_CORPUS]
    for _ in range(2_000):
        compact = lower_recipe(_random_recipe(rng))
        length = rng.randint(1, 100)
        data = bytes(rng.randrange(256) for _ in range(length))
        max_size = rng.randint(length, 3 * length + 32)
        call_seed = rng.randrange(2**31)
        outcome = mutate(compact, data, SPLICE_CORPUS, random.Random(call_seed), max_size)
        inputs += [data, outcome.output]
    return inputs


def random_bytes():
    rng = random.Random(19)
    return [bytes(rng.randrange(256) for _ in range(rng.randint(0, 64))) for _ in range(10_000)]


def structural():
    """Every string of up to two structural bytes, and 20,000 of up to 32
    structural bytes or words."""
    rng = random.Random(20)
    pieces = [bytes([b]) for b in STRUCTURAL] + list(WORDS)
    short = [bytes(p) for k in range(3) for p in itertools.product(STRUCTURAL, repeat=k)]
    return short + [
        b"".join(rng.choice(pieces) for _ in range(rng.randint(0, 32))) for _ in range(20_000)
    ]


def nesting():
    return [b"[" * k + b"1" + b"]" * k for k in range(80)]


CORPORA = {
    "c07": c07_inputs,
    "random_bytes": random_bytes,
    "structural": structural,
    "nesting": nesting,
}


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    built = {name: make() for name, make in CORPORA.items()}
    built["campaign"] = campaign_inputs(tmp_path_factory.mktemp("campaign") / "run")
    return built


@pytest.mark.parametrize("crash_depth", CRASH_DEPTHS)
@pytest.mark.parametrize("corpus", ["campaign", *CORPORA])
def test_matches_reference(corpora, corpus, crash_depth):
    reference = parser_reference.ParserTarget(crash_depth)
    target = ParserTarget(crash_depth)
    inputs = corpora[corpus]
    assert inputs
    mismatches = [
        data for data in inputs if target.execute(data) != reference.execute(data)
    ]
    assert mismatches[:5] == []


def test_generated_corpora_reach_every_edge(corpora):
    # Apart from the campaign, which runs the seeds, the corpora reach
    # every edge the seeds do, and crash at the shallow depths.
    reference = parser_reference.ParserTarget()
    generated = [data for name in CORPORA for data in corpora[name]]
    edges = set().union(*(reference.execute(data).edges_hit for data in generated))
    assert edges >= set().union(*(reference.execute(data).edges_hit for _, data in PARSER_SEEDS))
    for crash_depth in CRASH_DEPTHS[:-1]:
        shallow = parser_reference.ParserTarget(crash_depth)
        assert any(shallow.execute(data).crashed for data in generated)
