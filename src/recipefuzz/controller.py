"""Campaign controller.

Runs the in-process coverage-guided main loop over an executor, feeds the
plateau detector one telemetry frame per virtual second (none after a
once-per-campaign detector has fired), and on a plateau runs the full
intervention pipeline: corpus snapshot, candidate proposals,
micro-campaign gate, promote-or-skip. The gate judges each distinct
corpus once: a plateau that finds the corpus the last gated cycle judged
logs gate_skipped and leaves the active recipe as it is, since a
re-judge would only redraw the micro seeds. Every decision lands in an
append-only event log, and every proposal document once in candidates/.
No proposal provider is reachable from the mutation path; providers are
consulted exclusively by the plateau handler.

Campaign time is virtual: each telemetry frame spans one virtual second
and covers a fixed number of executions, so runs with exec-count or
(virtual) second budgets are bit-for-bit deterministic given the seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .engine import CorpusEntry, make_entry, mutate
from .micro import (
    Candidate,
    INTERVENTIONS,
    MAX_SIZE,
    REWARD,
    MicroResult,
    SnapshotRef,
    decide_winner,
    evaluate_candidate,
    micro_seed,
    run_input,
    snapshot_corpus,
)
from .plateau import (
    ONCE_PER_CAMPAIGN,
    THETA_EXECS,
    WINDOW_SEC,
    DetectorConfig,
    DetectorState,
    TelemetryFrame,
    check_plateau,
    observe,
)
from .providers import RuleProvider, default_recipe_doc
from .recipe import SchemaViolation, lower_recipe, parse_recipe
from .targets import DEFAULT_MAP_SIZE, EdgeBitmap, UnknownTarget, default_seeds, get_target, merge_into

ABLATIONS = ("baseline", "rule-only", "no-mutator", "controller-only", "full")

# Event kinds, in the vocabulary consumers grep for.
K_PLATEAU = "plateau_detected"
K_SNAPSHOT = "corpus_snapshot"
K_PROPOSAL = "proposal_recorded"
K_MICRO = "micro_result"
K_GATE_SKIPPED = "gate_skipped"
K_COMPLETED = "run_completed"

# Proposal record keys kept out of the proposal_recorded payload.
UNLOGGED_RECORD_KEYS = ("context_hash", "response_hash", "document")

SCHEDULE_ENERGY = 4
SKIP_NON_FAVORED = 0.75

# The fixed campaign shape, with micro.MAX_SIZE and micro.REWARD:
# executions per telemetry frame (one virtual second).
FRAME_EXECS = 4

# The most inputs a campaign remembers having run before it forgets them
# all; an input it forgot runs again, which changes no artifact.
RAN_CAP = 8192


class ConfigInvalid(ValueError):
    pass


@dataclass(frozen=True)
class AuditEvent:
    t: float
    kind: str
    payload: dict
    context_hash: str | None = None
    response_hash: str | None = None

    def to_json_line(self) -> str:
        doc = {"t": self.t, "kind": self.kind, "payload": self.payload}
        if self.context_hash is not None:
            doc["context_hash"] = self.context_hash
        if self.response_hash is not None:
            doc["response_hash"] = self.response_hash
        return json.dumps(doc, sort_keys=True)


def load_events(path: Path | str) -> list[AuditEvent]:
    events = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        doc = json.loads(line)
        events.append(
            AuditEvent(
                t=doc["t"],
                kind=doc["kind"],
                payload=doc["payload"],
                context_hash=doc.get("context_hash"),
                response_hash=doc.get("response_hash"),
            )
        )
    return events


def hash_context(blackboard: dict) -> str:
    canon = json.dumps(blackboard, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def hash_response(document: bytes) -> str:
    return hashlib.sha256(document).hexdigest()


@dataclass
class CampaignConfig:
    target: str = "parser"
    output_dir: Path | str = "run_out"
    ablation: str = "full"
    budget_sec: float | None = None
    budget_execs: int | None = None
    rng_seed: int = 0
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    micro_budget_execs: int = 500
    providers: tuple = ()
    static_tokens: tuple[bytes, ...] = ()
    map_capacity: int = DEFAULT_MAP_SIZE

    def digest(self) -> str:
        doc = {
            "target": self.target,
            "ablation": self.ablation,
            "budget_sec": self.budget_sec,
            "budget_execs": self.budget_execs,
            "rng_seed": self.rng_seed,
            "detector": {
                "window_sec": WINDOW_SEC,
                "theta_execs": THETA_EXECS,
                "theta_paths": self.detector.theta_paths,
                "rearm_policy": self.detector.rearm_policy,
                "cooldown_sec": self.detector.cooldown_sec,
            },
            "frame_execs": FRAME_EXECS,
            # One candidate slot per intervention.
            "k_cand": len(INTERVENTIONS),
            "micro_budget_execs": self.micro_budget_execs,
            "reward": [REWARD.alpha, REWARD.beta, REWARD.gamma, REWARD.delta_h, REWARD.delta_m],
            "providers": [getattr(p, "name", type(p).__name__) for p in self.providers],
            "static_tokens": [t.decode("latin-1") for t in self.static_tokens],
            "max_size": MAX_SIZE,
            "map_capacity": self.map_capacity,
        }
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def validate_config(config: CampaignConfig) -> None:
    if config.ablation not in ABLATIONS:
        raise ConfigInvalid(f"unknown ablation {config.ablation!r}")
    if (config.budget_sec is None) == (config.budget_execs is None):
        raise ConfigInvalid("exactly one of budget_sec / budget_execs required")
    if config.budget_sec is not None and not (
        0 <= config.budget_sec and math.isfinite(config.budget_sec)
    ):
        raise ConfigInvalid("budget_sec must be finite and >= 0")
    if config.budget_execs is not None and config.budget_execs < 0:
        raise ConfigInvalid("budget_execs must be >= 0")
    if config.micro_budget_execs < 1:
        raise ConfigInvalid("micro_budget_execs must be >= 1")
    if config.map_capacity < 1:
        raise ConfigInvalid("map_capacity must be >= 1")


@dataclass(frozen=True)
class RunArtifacts:
    output_dir: Path
    fuzzer_stats: dict[str, str]
    coverage_series: tuple[tuple[float, int], ...]
    events: tuple[AuditEvent, ...]

    @property
    def edges_found(self) -> int:
        return int(self.fuzzer_stats["edges_found"])

    @property
    def execs_done(self) -> int:
        return int(self.fuzzer_stats["execs_done"])


def propose_candidates(
    blackboard: dict,
    providers,
    cycle: int = 1,
) -> tuple[list[Candidate], list[dict]]:
    """Fill one candidate slot per intervention type, in INTERVENTIONS order.

    Providers are consulted in order per slot; a schema-invalid document is
    dropped and recorded (error_kind=schema_invalid) and the next provider
    gets the slot. The built-in rule provider terminates the chain, so the
    bundle always comes back full. Each record keeps the provider's bytes
    under "document"; response_hash is their sha256.
    """
    ctx_hash = hash_context(blackboard)
    chain = list(providers) + [RuleProvider()]
    candidates: list[Candidate] = []
    records: list[dict] = []
    for i, intervention in enumerate(INTERVENTIONS):
        for provider in chain:
            text = provider.propose(blackboard, intervention)
            if text is None:
                continue
            document = text.encode("utf-8") if isinstance(text, str) else text
            record = {
                "provider": getattr(provider, "name", type(provider).__name__),
                "intervention": intervention,
                "context_hash": ctx_hash,
                "response_hash": hash_response(document),
                "document": document,
            }
            records.append(record)
            try:
                recipe = parse_recipe(text)
            except SchemaViolation as exc:
                record["schema_valid"] = False
                record["error_kind"] = "schema_invalid"
                record["violations"] = [list(v) for v in exc.violations]
                continue
            record["schema_valid"] = True
            record["recipe_id"] = recipe.id
            candidates.append(
                Candidate(
                    recipe=recipe,
                    intervention=intervention,
                    candidate_id=f"c{cycle:02d}_{i}_{intervention}",
                )
            )
            break
    return candidates, records


class _Campaign:
    """Mutable state for one campaign run."""

    def __init__(self, config: CampaignConfig, executor, seeds):
        self.config = config
        self.config_digest = config.digest()
        self.executor = executor
        self.out = Path(config.output_dir)
        # A rerun into the same directory starts clean: stale queue
        # entries or candidates must not leak into this campaign.
        for sub in ("queue", "candidates"):
            if (self.out / sub).exists():
                shutil.rmtree(self.out / sub)
        self.queue_dir = self.out / "queue"
        self.queue_dir.mkdir(parents=True)
        (self.out / "candidates").mkdir()

        self.rng = random.Random(config.rng_seed)
        self.bitmap = EdgeBitmap(capacity=config.map_capacity)
        self.queue: list[CorpusEntry] = []
        self.favored: dict[int, int] = {}  # edge slot -> queue idx of its holder
        self.slots_held: list[int] = []  # queue idx -> edge slots it holds in favored
        self.crash_sigs: set[frozenset[int]] = set()
        # Inputs the target has run, compared by their bytes. For a
        # deterministic executor a repeat cannot add a bitmap slot, a crash
        # signature or a queue entry, so the main loop does not run it.
        self.ran: set[bytes] = set()

        self.t = 0.0
        self.execs_done = 0
        # The one budget test: each virtual second is one frame of
        # FRAME_EXECS execs, so a budget in seconds is an exec count too.
        if config.budget_execs is not None:
            self.exec_limit = config.budget_execs
        else:
            self.exec_limit = len(seeds) + FRAME_EXECS * math.ceil(config.budget_sec)
        self.cycles_done = 0
        self.last_find = 0.0
        self.plateau_cycles = 0
        # (cycle, snapshot) of the last cycle that ran the gate; None until
        # a gated arm runs it. The queue only grows, so the corpus is the
        # one that cycle judged exactly when the queue still has its length.
        self.judged: tuple[int, SnapshotRef] | None = None
        self.promotions = 0
        self.events: list[AuditEvent] = []
        self.coverage: list[tuple[float, int]] = []

        self.schedule = self._schedule()

        self.detector_on = config.ablation != "baseline"
        self.gate_on = config.ablation in ("rule-only", "no-mutator", "full")
        self.recipes_on = config.ablation in ("rule-only", "full")
        self.providers = tuple(config.providers) if config.ablation in ("full", "no-mutator") else ()

        self.detector_state = DetectorState()

        self.default_compact = lower_recipe(parse_recipe(default_recipe_doc()))
        self.active = self.default_compact if self.recipes_on else None
        self.active_expires: float | None = None

        for name, data in seeds:
            result = run_input(self.executor, data, self.crash_sigs, name)
            self.execs_done += 1
            merge_into(self.bitmap, result)
            self._admit(name, data, result.edges_hit)
            self.ran.add(data)
        self._events_fh = (self.out / "events.jsonl").open("w")

    # -- queue / coverage plumbing ------------------------------------

    def _admit(self, name: str, data: bytes, edges_hit: frozenset[int]) -> None:
        """Append seed or find data to the queue as entry id_<index>_<name>,
        write it to queue/, and give it every edge slot it reaches with a
        shorter input than the slot's current holder, read from the queue.
        An entry holding at least one slot is favored."""
        idx = len(self.queue)
        entry = make_entry(f"id_{idx:06d}_{name}", data)
        self.queue.append(entry)
        self.slots_held.append(0)
        (self.queue_dir / entry.seed_id).write_bytes(data)
        size = len(data)
        for edge in edges_hit:
            slot = edge % self.bitmap.capacity
            holder = self.favored.get(slot)
            if holder is None or size < len(self.queue[holder].data):
                if holder is not None:
                    self.slots_held[holder] -= 1
                self.favored[slot] = idx
                self.slots_held[idx] += 1

    def _schedule(self):
        """The main loop's entries: walk the growing queue, counting a cycle
        at each wrap, and yield each favored entry, and each other one with
        probability 1 - SKIP_NON_FAVORED, SCHEDULE_ENERGY times in a row."""
        idx = 0
        while True:
            if idx >= len(self.queue):
                idx = 0
                self.cycles_done += 1
            if self.slots_held[idx] > 0 or self.rng.random() >= SKIP_NON_FAVORED:
                yield from (self.queue[idx],) * SCHEDULE_ENERGY
            idx += 1

    def _emit(self, kind: str, payload: dict, context_hash=None, response_hash=None):
        event = AuditEvent(self.t, kind, payload, context_hash, response_hash)
        self.events.append(event)
        self._events_fh.write(event.to_json_line() + "\n")
        self._events_fh.flush()

    # -- main loop -----------------------------------------------------

    def _one_exec(self) -> None:
        entry = next(self.schedule)
        data = mutate(self.active, entry.data, self.queue, self.rng, MAX_SIZE, seed=entry).output
        self.execs_done += 1
        if data in self.ran:
            return
        if len(self.ran) >= RAN_CAP:
            self.ran.clear()
        self.ran.add(data)
        result = run_input(self.executor, data, self.crash_sigs, entry.seed_id)
        if merge_into(self.bitmap, result) > 0 and not result.crashed:
            self._admit(f"x{self.execs_done}", data, result.edges_hit)
            self.last_find = self.t + 1.0  # credited to this frame's close

    def _handle_plateau(self, event) -> None:
        """Snapshot the corpus and, on a gated arm, run the gate on it.

        The queue only grows, so a gated arm whose queue has the length it
        had at the last gated cycle holds the corpus that cycle judged. It
        then logs gate_skipped, naming that cycle and its digest, and takes
        no snapshot: re-judging would only redraw the micro seeds. The cycle
        number still advances, so micro seeds keep their cycle term.
        Nothing here touches the main loop's rng, queue or schedule.
        Proposal documents not yet in candidates/ are written there once
        decide_winner returns.
        """
        self.plateau_cycles += 1
        cycle = self.plateau_cycles
        self._emit(K_PLATEAU, asdict(event))
        if self.judged is not None:
            judged_cycle, judged = self.judged
            if len(judged.entries) == len(self.queue):
                self._emit(
                    K_GATE_SKIPPED, {"judged_cycle": judged_cycle, "digest": judged.digest}
                )
                return
        snapshot = snapshot_corpus(self.queue)
        self._emit(K_SNAPSHOT, {"entries": len(snapshot.entries), "digest": snapshot.digest})
        if not self.gate_on:
            return
        self.judged = (cycle, snapshot)

        blackboard = self._build_blackboard(snapshot, cycle)
        candidates, records = propose_candidates(blackboard, self.providers, cycle)
        # propose_candidates hashed the blackboard once for every record; the
        # rule provider fills every slot, so records is never empty.
        ctx_hash = records[0]["context_hash"]
        for record in records:
            payload = {k: v for k, v in record.items() if k not in UNLOGGED_RECORD_KEYS}
            self._emit(K_PROPOSAL, payload, ctx_hash, record["response_hash"])

        results: list[MicroResult] = []
        for i, candidate in enumerate(candidates):
            result = evaluate_candidate(
                candidate,
                snapshot.entries,
                self.executor,
                micro_seed(self.config.rng_seed, cycle, i),
                budget_execs=self.config.micro_budget_execs,
                map_capacity=self.config.map_capacity,
            )
            results.append(result)
            self._emit(
                K_MICRO,
                {
                    "intervention": candidate.intervention,
                    "recipe_id": candidate.recipe.id,
                    **asdict(result),
                },
                context_hash=ctx_hash,
            )

        decision, gate_events = decide_winner(results)
        for kind, payload in gate_events:
            self._emit(kind, payload, context_hash=ctx_hash)
        for record in records:
            path = self.out / "candidates" / f"{record['response_hash']}.json"
            if not path.exists():
                path.write_bytes(record["document"])
        if decision.status == "promoted":
            self.promotions += 1
            if self.recipes_on:
                winner = next(c for c in candidates if c.candidate_id == decision.winner)
                self.active = lower_recipe(winner.recipe)
                self.active_expires = self.t + winner.recipe.ttl_sec

    def _build_blackboard(self, snapshot: SnapshotRef, cycle: int) -> dict:
        """The proposal layer's only view of campaign state."""
        seeds = [
            {
                "seed_id": e.seed_id,
                "seed_hash": e.seed_hash,
                "size": len(e.data),
                "family": e.family,
            }
            for e in snapshot.entries
        ]
        tokens = [t.decode("latin-1") for t in self.config.static_tokens]
        recent = [asdict(f) for f in self.detector_state.frames[-10:]]
        return {
            "snapshot": {"digest": snapshot.digest, "seeds": seeds},
            "recent_stats": recent,
            "static_context": {"available": bool(tokens), "tokens": tokens},
            "config_digest": self.config_digest,
            "cycle": cycle,
        }

    def _frame(self) -> None:
        for _ in range(FRAME_EXECS):
            if self.execs_done >= self.exec_limit:
                break
            self._one_exec()
        self.t += 1.0
        self.coverage.append((self.t, self.bitmap.count))
        if self.active_expires is not None and self.t >= self.active_expires:
            self.active = self.default_compact
            self.active_expires = None
        if not self.detector_on:
            return
        frame = TelemetryFrame(
            t=self.t,
            execs_done=self.execs_done,
            paths_total=len(self.queue),
            edges_found=self.bitmap.count,
        )
        self.detector_state = observe(self.detector_state, frame)
        event, self.detector_state = check_plateau(self.detector_state, self.config.detector)
        if event is not None:
            self._handle_plateau(event)
            # A once-per-campaign detector never fires again and nothing
            # else reads its frames, so later frames stop at the coverage
            # row, as on baseline.
            if self.config.detector.rearm_policy == ONCE_PER_CAMPAIGN:
                self.detector_on = False

    def run(self) -> RunArtifacts:
        try:
            self.coverage.append((0.0, self.bitmap.count))
            while self.execs_done < self.exec_limit:
                self._frame()
            self._emit(
                K_COMPLETED,
                {
                    "execs_done": self.execs_done,
                    "edges_found": self.bitmap.count,
                    "paths_total": len(self.queue),
                    "crashes": len(self.crash_sigs),
                    "plateau_cycles": self.plateau_cycles,
                    "promotions": self.promotions,
                    "active_recipe_id": self.active.id if self.active else None,
                },
            )
        finally:
            self._events_fh.close()
        return self._write_artifacts()

    def _write_artifacts(self) -> RunArtifacts:
        run_time = self.t
        eps = self.execs_done / run_time if run_time > 0 else 0.0
        coverage_pct = 100.0 * self.bitmap.count / self.bitmap.capacity
        stats = {
            "run_time": f"{run_time:g}",
            "execs_done": str(self.execs_done),
            "execs_per_sec": f"{eps:.2f}",
            "cycles_done": str(self.cycles_done),
            "corpus_count": str(len(self.queue)),
            "edges_found": str(self.bitmap.count),
            "bitmap_cvg": f"{coverage_pct:.2f}%",
            "last_find": f"{self.last_find:g}",
            "stability": "100.00%",
        }
        stats_text = "".join(f"{k:<18}: {v}\n" for k, v in stats.items())
        (self.out / "fuzzer_stats").write_text(stats_text)

        cov_lines = ["t_sec,edges_found"]
        cov_lines += [f"{t:g},{edges}" for t, edges in self.coverage]
        (self.out / "coverage.csv").write_text("\n".join(cov_lines) + "\n")

        digests = {}
        for name in ("fuzzer_stats", "coverage.csv", "events.jsonl"):
            digests[name] = hashlib.sha256((self.out / name).read_bytes()).hexdigest()
        meta = {
            "mode": self.config.ablation,
            "target": self.config.target,
            "executor": getattr(self.executor, "name", type(self.executor).__name__),
            "seed": self.config.rng_seed,
            "map_capacity": self.config.map_capacity,
            "config_digest": self.config_digest,
            "active_recipe_id": self.active.id if self.active else None,
            "promotions": self.promotions,
            "artifact_digests": digests,
        }
        (self.out / "run_metadata.json").write_text(json.dumps(meta, indent=2))

        return RunArtifacts(
            output_dir=self.out,
            fuzzer_stats=stats,
            coverage_series=tuple(self.coverage),
            events=tuple(self.events),
        )


def run_campaign(
    config: CampaignConfig,
    executor=None,
    seeds: tuple[tuple[str, bytes], ...] | None = None,
) -> RunArtifacts:
    """Run one campaign to its budget and write the artifact set.

    The executor defaults to the built-in target named by the config;
    seeds default to the target's curated corpus. Each seed must be
    1..MAX_SIZE bytes, the sizes mutate can take and give back; any other
    raises ConfigInvalid before anything is written. The in-memory queue is
    the campaign's corpus: the main loop mutates over it and the plateau
    handler snapshots it, and nothing reads queue/ back. queue/ records it,
    one write-once file per entry written on admission, id_NNNNNN_<name>
    with NNNNNN the admission index. The queue only grows, so a snapshot
    is its first `entries` entries: the corpus_snapshot event logs that
    count and the digest, and the snapshot itself is never written.
    candidates/ holds each distinct proposal document once, as its
    provider returned it, in <response_hash>.json, so every gate decision
    re-executes from the run directory. Artifacts: fuzzer_stats,
    coverage.csv, events.jsonl, run_metadata.json (not digested; it
    records the map capacity a re-execution needs) plus queue/ and
    candidates/ under output_dir. No logged byte depends on output_dir.

    On a gated arm, a plateau whose corpus is unchanged since the last
    gated cycle skips the gate: it logs gate_skipped and takes no
    snapshot, since re-judging that corpus would only redraw the micro
    seeds. Providers therefore see one blackboard per distinct corpus.
    A once-per-campaign detector gets no frame after it fires: it cannot
    fire again, so later frames end at the coverage row, as on baseline.

    Every input runs through micro.run_input, as the gate's do: a crash,
    a crashing seed's included, counts once per edge set in run_completed,
    and a failing executor or a broken result raises ExecutorFailure (the
    CLI's exit 4) naming the input's origin.

    execs_done counts the seeds plus the main-loop iterations, and the
    target runs at most that many times: an iteration whose input the
    campaign has already run (it remembers up to RAN_CAP inputs, by their
    bytes, then forgets them all) spends its exec, rng draws and frame
    clock as before but skips the target. For a deterministic executor a
    repeat adds no coverage, crash or queue entry, so every artifact is
    the same as if it had run.
    """
    validate_config(config)
    if executor is None:
        try:
            executor = get_target(config.target)
        except UnknownTarget as exc:
            raise ConfigInvalid(str(exc)) from None
    if seeds is None:
        try:
            seeds = default_seeds(config.target)
        except UnknownTarget:
            raise ConfigInvalid(
                f"no built-in seeds for target {config.target!r}; pass seeds explicitly"
            ) from None
    if not seeds:
        raise ConfigInvalid("seed corpus must be non-empty")
    for name, data in seeds:
        if not 1 <= len(data) <= MAX_SIZE:
            raise ConfigInvalid(
                f"seed {name!r} is {len(data)} bytes; seeds must be 1..{MAX_SIZE} bytes"
            )
    campaign = _Campaign(config, executor, seeds)
    return campaign.run()
