"""Span recording for traced campaign runs, and the per-layer metrics
derived from the spans.

The recorder wraps the public calls into each layer from outside the
program. Spans are kept in memory as parallel integer arrays (name,
parent, start, end, tag), written to one file when the campaign ends, and
read back by the orchestrator, which derives self times and the named
per-layer metrics from them.
"""

from __future__ import annotations

import json
import statistics
import time
from array import array
from pathlib import Path

OPERATORS = (
    "BitFlip",
    "OverwriteRange",
    "InsertToken",
    "Arith",
    "Splice",
    "DeleteBlock",
    "DictionaryOverwrite",
)
MISS_TAG = -1

# Span names, one per wrapped call. The module prefix names the layer.
ROOT = "controller.run_campaign"
MUTATE_MAIN = "engine.mutate_main"
MUTATE_MICRO = "engine.mutate_micro"
EXECUTE = "targets.execute"
MERGE = "targets.merge"
OBSERVE = "plateau.observe"
CHECK = "plateau.check"
SNAPSHOT = "micro.snapshot"
PROPOSE = "controller.propose"
PROVIDER = "providers.propose"
EVALUATE = "micro.evaluate"
DECIDE = "micro.decide"

_ARRAYS = ("name", "parent", "start", "end", "tag")

# Every per-layer metric, with its unit, in report order.
PER_LAYER_UNITS = {
    "engine.mutate_main.calls": "count",
    "engine.mutate_main.us_per_call": "us",
    "engine.mutate_main.miss_ratio": "ratio",
    **{
        f"engine.op.{op}.{key}": unit
        for op in OPERATORS
        for key, unit in (("calls", "count"), ("us_per_call", "us"))
    },
    "engine.mutate_micro.us_per_call": "us",
    "engine.dispatch_ns.vanilla": "ns",
    "engine.dispatch_ns.fp-empty": "ns",
    "engine.dispatch_ns.fp-active": "ns",
    "targets.execute_main.calls": "count",
    "targets.execute_main.us_per_call": "us",
    "targets.execute_micro.calls": "count",
    "targets.execute_micro.us_per_call": "us",
    "targets.merge.us_per_call": "us",
    "plateau.observe.us_per_call": "us",
    "plateau.check.us_per_call": "us",
    "plateau.fired": "count",
    "micro.snapshot.ms_per_call": "ms",
    "micro.snapshot.entries": "count",
    "micro.evaluate.calls": "count",
    "micro.evaluate.ms_per_call": "ms",
    "micro.decide.us_per_call": "us",
    "micro.replay_execs": "count",
    "micro.replay_ratio": "ratio",
    "micro.promote_ratio": "ratio",
    "providers.propose.us_per_call": "us",
    "controller.propose.ms_per_call": "ms",
    "controller.admits": "count",
    "controller.self_s": "s",
    "controller.us_per_exec.first_decile": "us",
    "controller.us_per_exec.last_decile": "us",
    "controller.io.wchar_bytes": "bytes",
    "controller.io.syscw": "count",
    "controller.io.artifact_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """In-memory span store. Single-threaded: spans nest by call order."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.tag = array("q")
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, tag=None):
        """Return fn recording one span per call; tag(result) -> int, when
        given, is stored with the span."""
        nid = self._name_id(name)
        names, parents, starts, ends, tags = (
            self.name, self.parent, self.start, self.end, self.tag
        )
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            tags.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if tag is not None:
                tags[idx] = tag(result)
            return result

        return traced

    def write(self, path: Path) -> None:
        with open(path, "wb") as fh:
            header = {"names": self.names, "count": len(self.name)}
            fh.write(json.dumps(header).encode() + b"\n")
            for key in _ARRAYS:
                getattr(self, key).tofile(fh)


def read_spans(path: Path) -> tuple[list[str], dict[str, array]]:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = {}
        for key in _ARRAYS:
            col = array("q")
            col.fromfile(fh, header["count"])
            cols[key] = col
    return header["names"], cols


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive_metrics(spans_path: Path, info: dict, untraced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics from one traced campaign's spans.

    info carries what the traced child measured outside the spans: seed
    count, fuzzer_stats corpus count, /proc/self/io deltas, artifact bytes
    and the dispatch bench. untraced_wall_s is the same campaign's wall
    time without tracing. Layers with no calls report 0.
    """
    names, cols = read_spans(spans_path)
    kinds = [names[i] for i in cols["name"]]
    parent, start, end, tag = cols["parent"], cols["start"], cols["end"], cols["tag"]
    n = len(kinds)
    by_name: dict[str, list[int]] = {}
    children: dict[int, list[int]] = {}
    for i in range(n):
        by_name.setdefault(kinds[i], []).append(i)
        children.setdefault(parent[i], []).append(i)

    def dur(i: int) -> int:
        return end[i] - start[i]

    def us(ids) -> float:
        return _mean([dur(i) for i in ids]) / 1e3

    def ms(ids) -> float:
        return us(ids) / 1e3

    root = by_name[ROOT][0]
    evaluates = by_name.get(EVALUATE, [])
    evaluate_set = set(evaluates)
    executes = by_name.get(EXECUTE, [])
    exec_main = [i for i in executes if parent[i] == root]
    exec_micro = [i for i in executes if parent[i] in evaluate_set]

    # Snapshot replay: the executes an evaluate span makes before its
    # first micro-campaign mutation.
    replay = 0
    for ev in evaluates:
        for child in children.get(ev, ()):
            if kinds[child] == MUTATE_MICRO:
                break
            if kinds[child] == EXECUTE:
                replay += 1

    mutate_main = by_name.get(MUTATE_MAIN, [])
    misses = [i for i in mutate_main if tag[i] == MISS_TAG]
    checks = by_name.get(CHECK, [])
    snapshots = by_name.get(SNAPSHOT, [])
    decides = by_name.get(DECIDE, [])

    # Gaps between consecutive main-loop executes; the seed executes made
    # during set-up are not part of the loop.
    loop_starts = [start[i] for i in exec_main[info["seed_count"]:]]
    gaps = [b - a for a, b in zip(loop_starts, loop_starts[1:])]
    tenth = max(len(gaps) // 10, 1)

    root_wall = dur(root)
    child_time = sum(dur(i) for i in children.get(root, ()))

    metrics = {
        "engine.mutate_main.calls": len(mutate_main),
        "engine.mutate_main.us_per_call": us(mutate_main),
        "engine.mutate_main.miss_ratio": _ratio(len(misses), len(mutate_main)),
    }
    for op_index, op in enumerate(OPERATORS):
        applied = [i for i in mutate_main if tag[i] == op_index]
        metrics[f"engine.op.{op}.calls"] = len(applied)
        metrics[f"engine.op.{op}.us_per_call"] = us(applied)
    metrics["engine.mutate_micro.us_per_call"] = us(by_name.get(MUTATE_MICRO, []))
    for config, ns in info["dispatch_ns"].items():
        metrics[f"engine.dispatch_ns.{config}"] = ns
    metrics.update({
        "targets.execute_main.calls": len(exec_main),
        "targets.execute_main.us_per_call": us(exec_main),
        "targets.execute_micro.calls": len(exec_micro),
        "targets.execute_micro.us_per_call": us(exec_micro),
        "targets.merge.us_per_call": us(by_name.get(MERGE, [])),
        "plateau.observe.us_per_call": us(by_name.get(OBSERVE, [])),
        "plateau.check.us_per_call": us(checks),
        "plateau.fired": sum(1 for i in checks if tag[i]),
        "micro.snapshot.ms_per_call": ms(snapshots),
        "micro.snapshot.entries": _mean([tag[i] for i in snapshots]),
        "micro.evaluate.calls": len(evaluates),
        "micro.evaluate.ms_per_call": ms(evaluates),
        "micro.decide.us_per_call": us(decides),
        "micro.replay_execs": replay,
        "micro.replay_ratio": _ratio(replay, len(exec_micro)),
        "micro.promote_ratio": _ratio(sum(tag[i] for i in decides), len(decides)),
        "providers.propose.us_per_call": us(by_name.get(PROVIDER, [])),
        "controller.propose.ms_per_call": ms(by_name.get(PROPOSE, [])),
        "controller.admits": info["corpus_count"] - info["seed_count"],
        "controller.self_s": (root_wall - child_time) / 1e9,
        "controller.us_per_exec.first_decile": _mean(gaps[:tenth]) / 1e3,
        "controller.us_per_exec.last_decile": _mean(gaps[-tenth:]) / 1e3,
        "controller.io.wchar_bytes": info["io"]["wchar"],
        "controller.io.syscw": info["io"]["syscw"],
        "controller.io.artifact_bytes": info["artifact_bytes"],
        "trace.overhead_ratio": root_wall / 1e9 / untraced_wall_s,
    })
    return metrics
