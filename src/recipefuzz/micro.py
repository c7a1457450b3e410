"""Micro-campaign validation gate.

A candidate recipe is never trusted directly: it is scored in a short
isolated fuzzing run over a frozen corpus snapshot, using a coverage map
disjoint from the main run, and promoted only when its reward is strictly
positive. A snapshot lives in memory only, as its entries and their
digest. A campaign's queue only grows, so the run's queue/ and the logged
entry count give a snapshot's corpus back.

Reward accounting: delta_edges / delta_paths / delta_crashes are measured
against the snapshot's replayed baseline coverage. The hit count h is the
number of mutation calls whose output produced new coverage in the
micro-campaign's own map (the recipe paid off); the miss count m is the
number of calls where the recipe failed to engage at all (selector
mismatch, no writable offset, missing tokens, inapplicable operator).
Calls that applied an operator without discovering anything are neutral.
A well-formed recipe on a fully saturated corpus therefore scores exactly
0.0, a recipe that cannot engage scores negative, and a discovering recipe
scores positive.

A micro-campaign has one budget, an exec count, so a snapshot, recipe and
seed always give the same result. The budget counts mutation calls. The
target runs each distinct input once: a call whose output has already run
in this micro-campaign (a miss hands back its entry unchanged, and a
mutation can repeat) is charged to the budget without a target run, since
for a deterministic executor a repeat finds nothing. So MicroResult.execs
is the budget spent, not the number of target runs.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

from .engine import CorpusEntry, make_entry, mutate
from .recipe import MutationRecipe, lower_recipe
from .targets import DEFAULT_MAP_SIZE, EdgeBitmap, merge_into

INTERVENTIONS = ("default", "dictionary", "seed_focus", "per_seed_recipe")

STATUS_PROMOTED = "promoted"
STATUS_NO_SIGNIFICANCE = "no_significance"
REASON_NO_SUCCESS = "no_successful_micro_campaign"

# The largest input a campaign's main loop or its gate may produce.
MAX_SIZE = 1024


class EmptyQueue(ValueError):
    pass


class IoFailure(OSError):
    pass


class BudgetZero(ValueError):
    pass


class ExecutorFailure(Exception):
    """The execution harness itself failed (distinct from a target crash)."""


# What a failing executor raises: I/O errors, the target's own errors on
# an input, a broken result (one with no crashed or edges_hit). run_input
# re-raises each as ExecutorFailure. An exception class of the caller's own
# that is outside these families (one raised through execute to stop a run
# early, say) passes through as is.
EXECUTOR_ERRORS = (
    OSError, EOFError, ArithmeticError, AssertionError, AttributeError,
    LookupError, MemoryError, RuntimeError, TypeError, ValueError,
)


def run_input(executor, data: bytes, crash_sigs: set[frozenset[int]], where: str):
    """Execute one input: the only call to executor.execute.

    A crash adds its edge set to crash_sigs, so crashes are counted once
    per distinct signature (uniqueness by coverage, not triage). A failure
    in the EXECUTOR_ERRORS families, a broken result included, raises
    ExecutorFailure naming where, the input's origin: the seed or corpus
    entry it is, or the entry it was mutated from.
    """
    try:
        result = executor.execute(data)
        edges, crashed = result.edges_hit, result.crashed
        if crashed:
            crash_sigs.add(edges)
    except EXECUTOR_ERRORS as exc:
        raise ExecutorFailure(f"executor failed on an input from {where!r}: {exc}") from exc
    return result


class EmptyResults(ValueError):
    pass


@dataclass(frozen=True)
class Candidate:
    recipe: MutationRecipe
    intervention: str
    candidate_id: str

    def __post_init__(self):
        if self.intervention not in INTERVENTIONS:
            raise ValueError(f"unknown intervention {self.intervention!r}")


@dataclass(frozen=True)
class RewardWeights:
    alpha: float = 1.0
    beta: float = 0.5
    gamma: float = 10.0
    delta_h: float = 1e-3
    delta_m: float = 5e-4

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "delta_h", "delta_m"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


# The gate's one set of reward weights, as fixed as MAX_SIZE.
REWARD = RewardWeights()


@dataclass(frozen=True)
class MicroResult:
    candidate_id: str
    delta_edges: int
    delta_paths: int
    delta_crashes: int
    hits: int
    misses: int
    execs: int
    reward: float
    bitmap_available: bool


@dataclass(frozen=True)
class PromotionDecision:
    winner: str | None
    winner_reward: float
    status: str


@dataclass(frozen=True)
class SnapshotRef:
    entries: tuple[CorpusEntry, ...]
    digest: str


def compute_reward(
    delta_edges: int,
    delta_paths: int,
    delta_crashes: int,
    hits: int,
    misses: int,
    weights: RewardWeights,
    bitmap_available: bool = True,
) -> float:
    """Scalar reward for one micro-campaign.

    alpha per new edge (beta per new path when no coverage bitmap is
    available), gamma per new crash, delta_h per hit, minus delta_m per
    miss.
    """
    for name, value in (
        ("delta_edges", delta_edges),
        ("delta_paths", delta_paths),
        ("delta_crashes", delta_crashes),
        ("hits", hits),
        ("misses", misses),
    ):
        if value < 0:
            raise ValueError(f"{name} must be >= 0")
    if bitmap_available:
        coverage = weights.alpha * delta_edges
    else:
        coverage = weights.beta * delta_paths
    return coverage + weights.gamma * delta_crashes + weights.delta_h * hits - weights.delta_m * misses


def read_queue(queue_dir: Path | str) -> tuple[CorpusEntry, ...]:
    """Read a queue directory into corpus entries, sorted by name. A file
    outside 1..MAX_SIZE bytes, which the gate cannot mutate, raises
    ValueError naming it."""
    queue_dir = Path(queue_dir)
    try:
        entries = tuple(
            make_entry(p.name, p.read_bytes())
            for p in sorted(queue_dir.iterdir())
            if p.is_file()
        )
    except OSError as exc:
        raise IoFailure(f"cannot read queue dir {queue_dir}: {exc}") from exc
    if not entries:
        raise EmptyQueue(f"queue dir {queue_dir} has no entries")
    for entry in entries:
        if not 1 <= len(entry.data) <= MAX_SIZE:
            raise ValueError(
                f"queue entry {queue_dir / entry.seed_id} is {len(entry.data)} bytes;"
                f" entries must be 1..{MAX_SIZE} bytes"
            )
    return entries


def snapshot_corpus(entries: Iterable[CorpusEntry]) -> SnapshotRef:
    """Freeze corpus entries as a snapshot, in memory.

    The ref carries the entries sorted by seed_id, so later corpus changes
    cannot affect it, and their digest: the sha256 of the canonical JSON
    mapping each seed_id to its seed_hash, which entry order does not
    change.
    """
    entries = tuple(sorted(entries, key=lambda e: e.seed_id))
    manifest = json.dumps({e.seed_id: e.seed_hash for e in entries}, sort_keys=True)
    return SnapshotRef(entries, hashlib.sha256(manifest.encode()).hexdigest())


def micro_seed(rng_seed: int, cycle: int, index: int) -> int:
    """The rng seed of the gate run that scores candidate `index` of plateau
    `cycle` in a campaign seeded with `rng_seed`."""
    return rng_seed * 1_000_003 + cycle * 1_000 + index


def evaluate_candidate(
    candidate: Candidate,
    entries: Sequence[CorpusEntry],
    executor,
    rng_seed: int,
    budget_execs: int,
    map_capacity: int = DEFAULT_MAP_SIZE,
) -> MicroResult:
    """Score one candidate in an isolated run seeded from corpus entries.

    entries is the corpus the run starts from: a snapshot's entries in a
    campaign, a queue directory's under `recipefuzz micro`. The run uses
    its own coverage map; deltas are measured against the entries'
    replayed baseline: delta_edges and delta_crashes are the growth of the
    map and crash set past it, and delta_paths (= hits) counts calls that
    found new coverage. The one budget is budget_execs mutation
    calls (a campaign's micro_budget_execs, 500 by default), so the run is
    reproducible from rng_seed. The reward is weighted by REWARD.

    Each mutation call spends one exec of the budget. An output that has
    run already, the replay included, is charged without running the
    target again; result.execs counts mutation calls, and the target runs
    once per entry plus once per distinct new output, each through
    run_input.
    """
    if budget_execs <= 0:
        raise BudgetZero(f"budget_execs must be > 0, got {budget_execs}")

    corpus = list(entries)
    if not corpus:
        raise EmptyQueue("no corpus entries to start from")

    compact = lower_recipe(candidate.recipe)
    rng = random.Random(rng_seed)
    bitmap = EdgeBitmap(capacity=map_capacity)
    crash_sigs: set[frozenset[int]] = set()

    # Replay the entries to establish the baseline the deltas are
    # measured against.
    for entry in corpus:
        merge_into(bitmap, run_input(executor, entry.data, crash_sigs, entry.seed_id))
    baseline_edges, baseline_crashes = bitmap.count, len(crash_sigs)
    ran = {entry.data for entry in corpus}

    delta_paths = misses = 0

    for execs in range(1, budget_execs + 1):
        entry = corpus[(execs - 1) % len(corpus)]
        outcome = mutate(compact, entry.data, corpus, rng, MAX_SIZE, seed=entry)
        misses += outcome.miss
        # An input that has run already (a miss hands back its entry
        # unchanged) can find nothing new, so it only spends budget.
        if outcome.output in ran:
            continue
        ran.add(outcome.output)
        result = run_input(executor, outcome.output, crash_sigs, entry.seed_id)
        if merge_into(bitmap, result) > 0:
            delta_paths += 1
            if not result.crashed:
                corpus.append(make_entry(f"{entry.seed_id}+{execs}", outcome.output))

    delta_edges = bitmap.count - baseline_edges
    delta_crashes = len(crash_sigs) - baseline_crashes
    reward = compute_reward(delta_edges, delta_paths, delta_crashes, delta_paths, misses, REWARD)
    return MicroResult(
        candidate_id=candidate.candidate_id,
        delta_edges=delta_edges,
        delta_paths=delta_paths,
        delta_crashes=delta_crashes,
        hits=delta_paths,
        misses=misses,
        execs=budget_execs,
        reward=reward,
        bitmap_available=True,
    )


def decide_winner(
    results: list[MicroResult],
) -> tuple[PromotionDecision, list[tuple[str, dict]]]:
    """Rank candidates by reward and gate promotion on reward > 0.

    Ties break toward the earlier candidate. Returns the decision plus the
    audit events to emit, in order. The gate-event payload strings are
    fixed: status=no_significance / reason=no_successful_micro_campaign.
    """
    if not results:
        raise EmptyResults("no micro results to rank")
    best = max(results, key=lambda r: r.reward)
    if best.reward > 0:
        decision = PromotionDecision(
            winner=best.candidate_id, winner_reward=best.reward, status=STATUS_PROMOTED
        )
        events = [
            (
                "winner_decided",
                {
                    "status": STATUS_PROMOTED,
                    "winner": best.candidate_id,
                    "winner_reward": best.reward,
                },
            ),
            (
                "recipe_promoted",
                {"candidate_id": best.candidate_id, "reward": best.reward},
            ),
        ]
    else:
        decision = PromotionDecision(
            winner=None, winner_reward=best.reward, status=STATUS_NO_SIGNIFICANCE
        )
        events = [
            (
                "winner_decided",
                {"status": STATUS_NO_SIGNIFICANCE, "winner_reward": best.reward},
            ),
            ("promotion_skipped", {"reason": REASON_NO_SUCCESS}),
        ]
    return decision, events
