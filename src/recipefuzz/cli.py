"""Command-line entry point.

Subcommands cover the whole artifact surface: `run` (campaigns), `mutate`
(one-shot mutation), `micro` (standalone gate evaluation), `microbench`
(dispatch-cost protocol), `extract-dict` (binary string vocabulary), and
`stats` (run-tree aggregation and comparisons). Headless by design: output
goes to files or stdout, diagnostics to stderr.

Exit codes: 0 success, 2 usage, 3 I/O, 4 executor failure, 5 validation.
An error's exit code follows from its family: every validation error is a
ValueError, every I/O error an OSError.
"""

from __future__ import annotations

import argparse
import dataclasses
import random
import statistics
import sys
from pathlib import Path

from . import controller, elfdict, engine, micro, providers, stats, targets
from .recipe import lower_recipe, parse_recipe

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_EXECUTOR = 4
EXIT_VALIDATION = 5


def _reference_recipe_doc() -> str:
    """Structural-token demo recipe: boundary tokens, head/tail focus."""
    return providers.recipe_doc(
        "reference_structural",
        "exercise object/array nesting boundaries",
        priority=3,
        focus=[(0, 1), (42, 64)],
        protect=[(16, 20)],
        tokens=[b"{", b"}", b"[", b"]", b'"', b"true", b"null"],
    )


# Built-in recipes addressable by name from the CLI.
BUILTIN_RECIPES = {
    "default": providers.default_recipe_doc,
    "reference": _reference_recipe_doc,
}


def _load_recipe(spec_arg: str):
    if spec_arg in BUILTIN_RECIPES:
        return parse_recipe(BUILTIN_RECIPES[spec_arg]())
    return parse_recipe(Path(spec_arg).read_bytes())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="recipefuzz", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a fuzzing campaign on a built-in target")
    p_run.add_argument("--target", default="parser", help="built-in target name")
    p_run.add_argument("--ablation", default="full", choices=controller.ABLATIONS)
    p_run.add_argument("--budget", type=float, default=None, help="campaign budget in (virtual) seconds")
    p_run.add_argument("--exec-budget", type=int, default=None, help="campaign budget in executions")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--out", required=True, help="output directory for run artifacts")
    p_run.add_argument("--dict", dest="dict_file", default=None, help="dictionary file feeding the blackboard")

    p_mut = sub.add_parser("mutate", help="apply one recipe mutation to a file")
    p_mut.add_argument("--recipe", required=True, help="recipe file or built-in name (default, reference)")
    p_mut.add_argument("--input", required=True)
    p_mut.add_argument("--seed", type=int, default=0)
    p_mut.add_argument("--out", default=None, help="output file (stdout as raw bytes when omitted)")

    p_micro = sub.add_parser("micro", help="evaluate one candidate recipe against a queue directory")
    p_micro.add_argument("--target", default="parser")
    p_micro.add_argument("--queue", required=True, help="queue directory whose entries seed the run")
    p_micro.add_argument("--recipe", required=True)
    p_micro.add_argument("--seed", type=int, default=0)

    p_bench = sub.add_parser("microbench", help="mutator dispatch-cost protocol")
    p_bench.add_argument("--config", default="all", choices=engine.BENCH_CONFIGS + ("all",))
    p_bench.add_argument("--calls", type=int, default=100_000)
    p_bench.add_argument("--reps", type=int, default=5)
    p_bench.add_argument("--corpus-size", type=int, default=10_000)
    p_bench.add_argument("--seed", type=int, default=0)

    p_dict = sub.add_parser("extract-dict", help="extract a dictionary from a binary's read-only data")
    p_dict.add_argument("--binary", required=True)
    p_dict.add_argument("--min-len", type=int, default=4)
    p_dict.add_argument("--all-readonly", action="store_true")
    p_dict.add_argument("--out", default=None, help="dictionary file (stdout when omitted)")

    p_stats = sub.add_parser("stats", help="aggregate a run-artifact tree")
    p_stats.add_argument("--runs", required=True)
    p_stats.add_argument("--baseline-mode", default="baseline")
    p_stats.add_argument("--out", default=None, help="per-run CSV file (stdout when omitted)")
    p_stats.add_argument("--resamples", type=int, default=10_000)
    p_stats.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_run(args) -> int:
    static_tokens = ()
    if args.dict_file:
        tokens = elfdict.parse_dictionary(Path(args.dict_file).read_text())
        static_tokens = tuple(tokens)
    config = controller.CampaignConfig(
        target=args.target,
        output_dir=args.out,
        ablation=args.ablation,
        budget_sec=args.budget,
        budget_execs=args.exec_budget,
        rng_seed=args.seed,
        static_tokens=static_tokens,
    )
    artifacts = controller.run_campaign(config)
    print(f"run complete: {artifacts.output_dir}")
    for key in ("run_time", "execs_done", "edges_found", "corpus_count", "last_find"):
        print(f"  {key}: {artifacts.fuzzer_stats[key]}")
    return EXIT_OK


def _cmd_mutate(args) -> int:
    recipe = _load_recipe(args.recipe)
    compact = lower_recipe(recipe)
    data = Path(args.input).read_bytes()
    rng = random.Random(args.seed)
    entry = engine.make_entry("input", data)
    outcome = engine.mutate(compact, data, (entry,), rng, micro.MAX_SIZE, seed=entry)
    if args.out:
        Path(args.out).write_bytes(outcome.output)
    else:
        sys.stdout.buffer.write(outcome.output)
    op = outcome.op_applied.value if outcome.op_applied else "none"
    print(f"op={op} hit={int(outcome.hit)} size={len(outcome.output)}", file=sys.stderr)
    return EXIT_OK


def _cmd_micro(args) -> int:
    target = targets.get_target(args.target)
    recipe = _load_recipe(args.recipe)
    candidate = micro.Candidate(
        recipe=recipe, intervention="dictionary", candidate_id=f"cli_{recipe.id}"
    )
    entries = micro.read_queue(args.queue)
    result = micro.evaluate_candidate(candidate, entries, target, args.seed)
    for key, value in dataclasses.asdict(result).items():
        print(f"{key:<16}: {value}")
    return EXIT_OK


def _bench_corpus(size: int, seed: int) -> tuple[engine.CorpusEntry, ...]:
    """Deterministic structured-text corpus for the bench protocol."""
    rng = random.Random(seed)
    shapes = (
        '{{"k{i}": {i}}}',
        '[{i}, {i}, "s{i}"]',
        '{{"a": [{i}], "b": "v{i}"}}',
        '"string-{i}"',
        "[true, false, null, {i}]",
    )
    entries = []
    for i in range(size):
        text = shapes[rng.randrange(len(shapes))].format(i=i)
        entries.append(engine.make_entry(f"bench_{i:05d}", text.encode()))
    return tuple(entries)


def _cmd_microbench(args) -> int:
    if args.reps < 1:
        raise ValueError(f"--reps must be >= 1, got {args.reps}")
    corpus = _bench_corpus(args.corpus_size, args.seed)
    active = lower_recipe(parse_recipe(providers.default_recipe_doc()))
    configs = list(engine.BENCH_CONFIGS) if args.config == "all" else [args.config]
    per_config: dict[str, list[engine.BenchReport]] = {}
    for config in configs:
        reports = []
        for rep in range(args.reps):
            report = engine.bench_dispatch(
                config, args.calls, corpus, args.seed + rep, active_recipe=active
            )
            reports.append(report)
            print(engine.format_bench_report(report))
        per_config[config] = reports
    if args.config == "all":
        med = {
            c: statistics.median(r.calls_per_sec for r in reps)
            for c, reps in per_config.items()
        }
        ratio_empty = med["fp-empty"] / med["vanilla"]
        ratio_active = med["fp-active"] / med["fp-empty"]
        # The sanity gate bounds dispatch cost: per-call cost of the empty
        # dispatch path at most 5x the havoc shim's.
        cost_ratio = med["vanilla"] / med["fp-empty"]
        print(f"median fp-empty/vanilla speed: {ratio_empty:.3f}")
        print(f"median fp-empty cost ratio   : {cost_ratio:.3f} (sanity gate <= 5.0)")
        print(f"median fp-active/fp-empty    : {ratio_active:.3f}")
        try:
            p = stats.tost_equivalence(
                [r.calls_per_sec for r in per_config["fp-active"]],
                [r.calls_per_sec for r in per_config["fp-empty"]],
                band=0.05,
            )
            print(f"tost_p_active_vs_empty   : {p:.3f}")
        except (stats.DegenerateVariance, stats.EmptySample) as exc:
            print(f"tost_p_active_vs_empty   : n/a ({exc})")
        if cost_ratio > 5.0:
            print("sanity gate FAILED: dispatch overhead above 5x", file=sys.stderr)
            return EXIT_VALIDATION
    return EXIT_OK


def _cmd_extract_dict(args) -> int:
    binary = Path(args.binary).read_bytes()
    inventory = elfdict.extract_strings(
        binary, min_len=args.min_len, all_readonly=args.all_readonly
    )
    text = elfdict.write_dictionary(inventory)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    sys.stderr.write(elfdict.format_inventory_report(inventory, len(binary)))
    return EXIT_OK


def _cmd_stats(args) -> int:
    rows, summaries = stats.aggregate(
        args.runs,
        baseline_mode=args.baseline_mode,
        resamples=args.resamples,
        seed=args.seed,
    )
    csv_text = stats.render_rows_csv(rows)
    if args.out:
        Path(args.out).write_text(csv_text)
    else:
        sys.stdout.write(csv_text)
        print()
    print(stats.render_summary_report(summaries, args.baseline_mode))
    return EXIT_OK


_DISPATCH = {
    "run": _cmd_run,
    "mutate": _cmd_mutate,
    "micro": _cmd_micro,
    "microbench": _cmd_microbench,
    "extract-dict": _cmd_extract_dict,
    "stats": _cmd_stats,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except micro.ExecutorFailure as exc:
        print(f"executor failure: {exc}", file=sys.stderr)
        return EXIT_EXECUTOR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
