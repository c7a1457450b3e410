"""Run one campaign of a benchmark workload in this fresh interpreter.

Started by run.py, one process per campaign, so that set-up time and peak
memory describe this campaign alone. Writes result.json (and spans.bin in
traced mode) into --out; output checks are made by the parent from the
run directory.

Modes:
  campaign  untraced run; only the two per-plateau calls carry timestamps
  traced    every layer call is wrapped and recorded as a span
  setup     stops at the first main-loop exec, for set-up time alone
"""

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

BIGRAM_SEED = ("hello", b"hello world")
BIGRAM_MAP = 1 << 16
STAIRCASE_TOKEN = b"XKEY1"
DISPATCH_CALLS = 20_000
DISPATCH_REPS = 3
# Main-loop execs of a gate probe: the default 10 s window closes after
# 44 execs at 4 execs per virtual second, so one plateau fires.
PROBE_EXECS = 60


class SetupDone(Exception):
    """Raised at the first main-loop exec in setup mode."""


def bigram_executor():
    """Executor with one edge per distinct adjacent byte pair (a << 8 | b),
    so every new pair is new coverage and the corpus keeps growing."""
    from recipefuzz.targets import ExecResult

    class BigramExecutor:
        name = "bigram"

        def execute(self, data: bytes):
            pairs = frozenset(a << 8 | b for a, b in zip(data, data[1:]))
            return ExecResult(pairs, False, len(data))

    return BigramExecutor()


def build(workload: str, budget: int, seed: int, out: Path):
    """The campaign a workload runs: (config, executor, seeds)."""
    from recipefuzz.controller import CampaignConfig
    from recipefuzz.plateau import REARM_AFTER_COOLDOWN, DetectorConfig
    from recipefuzz.providers import StaticTokenProvider
    from recipefuzz.targets import default_seeds, get_target

    if workload == "parser-saturated":
        config = CampaignConfig(
            target="parser", output_dir=out, budget_execs=budget, rng_seed=seed
        )
        return config, get_target("parser"), default_seeds("parser")
    if workload == "staircase-gate":
        config = CampaignConfig(
            target="staircase",
            output_dir=out,
            budget_execs=budget,
            rng_seed=seed,
            providers=(StaticTokenProvider([STAIRCASE_TOKEN]),),
            detector=DetectorConfig(rearm_policy=REARM_AFTER_COOLDOWN, cooldown_sec=30),
        )
        return config, get_target("staircase"), default_seeds("staircase")
    if workload == "bigram-growing":
        config = CampaignConfig(
            target="bigram",
            output_dir=out,
            budget_execs=budget,
            rng_seed=seed,
            map_capacity=BIGRAM_MAP,
        )
        return config, bigram_executor(), (BIGRAM_SEED,)
    raise SystemExit(f"unknown workload {workload!r}")


def mark_first_loop_exec(executor, seed_count: int, on_first):
    """Call on_first() at the first main-loop exec, then step aside.

    Set-up executes each seed once; the next execute is the main loop's
    first. The wrapper is an instance attribute and deletes itself, so the
    remaining execs pay nothing.
    """
    calls = 0

    def execute(data):
        nonlocal calls
        calls += 1
        if calls > seed_count:
            del executor.execute
            on_first()
        return type(executor).execute(executor, data)

    executor.execute = execute


def time_plateaus(controller, stalls: list):
    """Record the wall time of each plateau, from the snapshot_corpus call
    to the return of decide_winner. Nothing on the per-exec path is
    wrapped."""
    snapshot, decide = controller.snapshot_corpus, controller.decide_winner
    began = []

    def timed_snapshot(*args, **kwargs):
        began.append(time.perf_counter())
        return snapshot(*args, **kwargs)

    def timed_decide(*args, **kwargs):
        result = decide(*args, **kwargs)
        stalls.append((time.perf_counter() - began.pop()) * 1e3)
        return result

    controller.snapshot_corpus = timed_snapshot
    controller.decide_winner = timed_decide


def read_io() -> dict[str, int]:
    fields = {}
    with open("/proc/self/io") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            fields[key] = int(value)
    return fields


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def install_tracer(tracer, executor):
    """Wrap the calls into every layer, as the controller and micro
    modules reach them."""
    from recipefuzz import controller, micro, providers

    import tracing as T

    ops = {name: i for i, name in enumerate(T.OPERATORS)}

    def op_tag(outcome):
        return T.MISS_TAG if outcome.op_applied is None else ops[outcome.op_applied.value]

    wrap = tracer.wrap
    controller.mutate = wrap(T.MUTATE_MAIN, controller.mutate, op_tag)
    micro.mutate = wrap(T.MUTATE_MICRO, micro.mutate)
    executor.execute = wrap(T.EXECUTE, executor.execute)
    controller.merge_into = wrap(T.MERGE, controller.merge_into)
    micro.merge_into = wrap(T.MERGE, micro.merge_into)
    controller.observe = wrap(T.OBSERVE, controller.observe)
    controller.check_plateau = wrap(
        T.CHECK, controller.check_plateau, lambda r: int(r[0] is not None)
    )
    controller.snapshot_corpus = wrap(
        T.SNAPSHOT, controller.snapshot_corpus, lambda ref: len(ref.entries)
    )
    controller.propose_candidates = wrap(T.PROPOSE, controller.propose_candidates)
    for cls in (providers.RuleProvider, providers.StaticTokenProvider):
        cls.propose = wrap(T.PROVIDER, cls.propose)
    controller.evaluate_candidate = wrap(T.EVALUATE, controller.evaluate_candidate)
    controller.decide_winner = wrap(
        T.DECIDE, controller.decide_winner, lambda r: int(r[0].status == "promoted")
    )
    return wrap(T.ROOT, controller.run_campaign)


def dispatch_ns(seed: int) -> dict[str, float]:
    """engine.bench_dispatch ns/call per configuration, median of reps,
    over the parser seed corpus."""
    from recipefuzz.engine import BENCH_CONFIGS, bench_dispatch, make_entry
    from recipefuzz.providers import default_recipe_doc
    from recipefuzz.recipe import lower_recipe, parse_recipe
    from recipefuzz.targets import default_seeds

    corpus = tuple(make_entry(name, data) for name, data in default_seeds("parser"))
    active = lower_recipe(parse_recipe(default_recipe_doc()))
    return {
        config: statistics.median(
            bench_dispatch(config, DISPATCH_CALLS, corpus, seed + rep, active_recipe=active).ns_per_call
            for rep in range(DISPATCH_REPS)
        )
        for config in BENCH_CONFIGS
    }


def gate_probes(workload: str, seed: int, out: Path, count: int) -> None:
    """Plateaus for a workload with at most one per campaign: short
    campaigns of the same workload whose detector fires at its first
    check, one plateau each, timed by the time_plateaus wrappers.
    """
    from recipefuzz.controller import run_campaign
    from recipefuzz.plateau import DetectorConfig

    for rep in range(count):
        config, executor, seeds = build(workload, 0, seed + rep, out / str(rep))
        config.detector = DetectorConfig(theta_paths=1 << 30)
        config.budget_execs = len(seeds) + PROBE_EXECS
        run_campaign(config, executor, seeds)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--budget", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("campaign", "traced", "setup"), required=True)
    parser.add_argument("--probes", type=int, default=0,
                        help="plateaus to time in short probe campaigns")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    # Set-up: package import, target and seed construction, and campaign
    # set-up up to the first main-loop exec.
    setup_began = time.perf_counter()
    config, executor, seeds = build(args.workload, args.budget, args.seed, args.out / "campaign")
    from recipefuzz import controller

    first_exec = []

    def on_first():
        first_exec.append(time.perf_counter())
        if args.mode == "setup":
            raise SetupDone

    stalls: list[float] = []
    tracer = None
    run = controller.run_campaign
    if args.mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        run = install_tracer(tracer, executor)
    else:
        mark_first_loop_exec(executor, len(seeds), on_first)
        time_plateaus(controller, stalls)

    io_before = read_io()
    began = time.perf_counter()
    try:
        artifacts = run(config, executor, seeds)
    except SetupDone:
        artifacts = None
    wall_s = time.perf_counter() - began
    io_after = read_io()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"setup_s": first_exec[0] - setup_began if first_exec else None}
    if artifacts is not None:
        result.update(
            wall_s=wall_s,
            main_execs=artifacts.execs_done - len(seeds),
            seed_count=len(seeds),
            corpus_count=int(artifacts.fuzzer_stats["corpus_count"]),
            peak_rss_mb=peak_rss_mb,
            io={k: io_after[k] - io_before[k] for k in ("wchar", "syscw")},
            artifact_bytes=tree_bytes(config.output_dir),
        )
        if tracer is not None:
            tracer.write(args.out / "spans.bin")
            result["dispatch_ns"] = dispatch_ns(args.seed)
        result["stalls_ms"] = stalls[:]
        if args.probes:
            gate_probes(args.workload, args.seed, args.out / "probe", args.probes)
        result["probe_stalls_ms"] = stalls[len(result["stalls_ms"]):]
    (args.out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
