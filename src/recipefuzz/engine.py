"""Hot-path mutation engine.

`mutate` is the one mutation entry point. With a compact recipe installed it
applies one sampled operator to the input buffer: focus ranges bias where the
mutator writes, protect ranges are never written, tokens come from the
recipe's list. An operator that cannot apply (no writable offset, no tokens,
empty splice corpus, selector mismatch) degrades to a miss: the input is
returned unchanged and the loop never aborts or resamples. With no recipe
installed it falls through to havoc, one conventional random edit.

Also hosts the dispatch-cost microbench.
"""

from __future__ import annotations

import hashlib
import random
import time
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

from .recipe import ByteRange, CompactRecipe, OperatorKind, RunTable, Selector, choose_operator

ARITH_DELTAS = tuple(d for d in range(-35, 36) if d != 0)
ARITH_WIDTHS = (1, 2, 4)
OVERWRITE_CAP = 64
HAVOC_INSERT_CAP = 4

BENCH_CONFIGS = ("vanilla", "fp-empty", "fp-active")


class ZeroCalls(ValueError):
    """bench_dispatch was asked to time zero calls."""


@dataclass(frozen=True)
class CorpusEntry:
    seed_id: str
    seed_hash: str
    data: bytes
    family: str = "default"


def make_entry(seed_id: str, data: bytes, family: str = "default") -> CorpusEntry:
    return CorpusEntry(seed_id, hashlib.sha256(data).hexdigest(), data, family)


class MutationOutcome(NamedTuple):
    """Result of one mutation call.

    Under a recipe exactly one of hit/miss is true: hit means the sampled
    operator was applied (op_applied says which), miss means the call could
    not engage and output equals the input. With no recipe installed the
    havoc fallthrough is neither a hit nor a miss: there is no recipe to
    account against.
    """

    output: bytes
    op_applied: OperatorKind | None
    miss: bool

    @property
    def hit(self) -> bool:
        return self.op_applied is not None


def selector_matches(selector: Selector, entry: CorpusEntry) -> bool:
    """Whether a recipe's selector applies to a corpus entry.

    Mode "mode" is the global selector (the key names a campaign mode and
    is informational only); the other three match on entry identity.
    """
    if selector.mode == "mode":
        return True
    if selector.mode == "seed_id":
        return selector.key == entry.seed_id
    if selector.mode == "seed_hash":
        return selector.key == entry.seed_hash
    if selector.mode == "family":
        return selector.key == entry.family
    return False


def writable_intervals(
    focus: tuple[ByteRange, ...],
    protect: tuple[ByteRange, ...],
    input_len: int,
) -> list[tuple[int, int]]:
    """Half-open intervals the mutator may write, in ascending order.

    (focus ∩ [0, input_len)) minus protect when focus is non-empty,
    [0, input_len) minus protect otherwise. Inputs must be sorted and
    disjoint, which recipe lowering guarantees.
    """
    if focus:
        base = [
            (r.start, min(r.end, input_len)) for r in focus if r.start < input_len
        ]
    else:
        base = [(0, input_len)]
    out: list[tuple[int, int]] = []
    for start, end in base:
        cur = start
        for p in protect:
            if p.end <= cur:
                continue
            if p.start >= end:
                break
            if p.start > cur:
                out.append((cur, p.start))
            cur = max(cur, p.end)
            if cur >= end:
                break
        if cur < end:
            out.append((cur, end))
    return out


def _run_table(compact: CompactRecipe, input_len: int, min_len: int) -> RunTable:
    """The writable runs of at least min_len bytes in an input of
    input_len bytes, as (total, ((start, end, count), ...)): count is the
    number of start offsets a run admits, total their sum."""
    runs = tuple(
        (s, e, e - s - min_len + 1)
        for s, e in writable_intervals(compact.focus_ranges, compact.protect_ranges, input_len)
        if e - s >= min_len
    )
    return sum(r[2] for r in runs), runs


def _pick_run(compact: CompactRecipe, input_len: int, min_len: int, rng) -> tuple[int, int] | None:
    """Uniformly pick a start offset admitting a writable run of at least
    min_len bytes; returns (start, room) where room is the run length
    available from start within its interval.

    The run table is built once per (input_len, min_len) and kept on the
    recipe; a pick is one rng.randrange(total) and a walk over the runs.
    min_len is 1, an Arith width (2, 4) or a token length, and input_len
    stays within max_size, which bounds the number of tables.
    """
    key = (input_len, min_len)
    table = compact.run_tables.get(key)
    if table is None:
        table = compact.run_tables[key] = _run_table(compact, input_len, min_len)
    total, runs = table
    if total == 0:
        return None
    u = rng.randrange(total)
    for s, e, count in runs:
        if u < count:
            start = s + u
            return start, e - start
        u -= count
    raise AssertionError("unreachable")


def _op_bitflip(compact, data, corpus, rng, max_size):
    run = _pick_run(compact, len(data), 1, rng)
    if run is None:
        return None
    off = run[0]
    out = bytearray(data)
    out[off] ^= 1 << rng.randrange(8)
    return bytes(out)


def _op_overwrite_range(compact, data, corpus, rng, max_size):
    run = _pick_run(compact, len(data), 1, rng)
    if run is None:
        return None
    start, room = run
    length = rng.randint(1, min(room, OVERWRITE_CAP))
    out = bytearray(data)
    out[start : start + length] = rng.randbytes(length)
    return bytes(out)


def _op_insert_token(compact, data, corpus, rng, max_size):
    tokens = compact.tokens
    if not tokens:
        return None
    tok = tokens[rng.randrange(len(tokens))]
    if len(data) + len(tok) > max_size:
        return None
    run = _pick_run(compact, len(data), 1, rng)
    if run is None:
        return None
    off = run[0]
    return data[:off] + tok + data[off:]


def _op_arith(compact, data, corpus, rng, max_size):
    width = rng.choice(ARITH_WIDTHS)
    run = _pick_run(compact, len(data), width, rng)
    if run is None:
        return None
    start, _room = run
    delta = rng.choice(ARITH_DELTAS)
    endian = "little" if width == 1 else rng.choice(("little", "big"))
    value = int.from_bytes(data[start : start + width], endian)
    value = (value + delta) % (1 << (8 * width))
    out = bytearray(data)
    out[start : start + width] = value.to_bytes(width, endian)
    return bytes(out)


def _op_splice(compact, data, corpus, rng, max_size):
    if not corpus:
        return None
    donor = corpus[rng.randrange(len(corpus))].data
    if not donor:
        return None
    run = _pick_run(compact, len(data), 1, rng)
    if run is None:
        return None
    start, room = run
    excise = rng.randint(1, room)
    splice_len = rng.randint(1, len(donor))
    # Replacement length may differ from the excised length but the result
    # must stay within max_size.
    overflow = len(data) - excise + splice_len - max_size
    if overflow > 0:
        splice_len -= overflow
        if splice_len < 1:
            return None
    src = rng.randrange(len(donor) - splice_len + 1)
    return data[:start] + donor[src : src + splice_len] + data[start + excise :]


def _op_delete_block(compact, data, corpus, rng, max_size):
    if len(data) <= 1:
        return None
    run = _pick_run(compact, len(data), 1, rng)
    if run is None:
        return None
    start, room = run
    # Never delete the whole buffer: at least one byte survives.
    length = rng.randint(1, min(room, len(data) - 1))
    return data[:start] + data[start + length :]


def _op_dictionary_overwrite(compact, data, corpus, rng, max_size):
    tokens = compact.tokens
    if not tokens:
        return None
    tok = tokens[rng.randrange(len(tokens))]
    if len(tok) > len(data):
        return None
    run = _pick_run(compact, len(data), len(tok), rng)
    if run is None:
        return None
    start, _room = run
    out = bytearray(data)
    out[start : start + len(tok)] = tok
    return bytes(out)


_OP_TABLE = {
    OperatorKind.BitFlip: _op_bitflip,
    OperatorKind.OverwriteRange: _op_overwrite_range,
    OperatorKind.InsertToken: _op_insert_token,
    OperatorKind.Arith: _op_arith,
    OperatorKind.Splice: _op_splice,
    OperatorKind.DeleteBlock: _op_delete_block,
    OperatorKind.DictionaryOverwrite: _op_dictionary_overwrite,
}


def mutate(
    compact: CompactRecipe | None,
    data: bytes,
    corpus: Sequence[CorpusEntry],
    rng,
    max_size: int,
    seed: CorpusEntry | None = None,
) -> MutationOutcome:
    """Apply one mutation to data: havoc when compact is None, otherwise
    one recipe-sampled operator.

    Deterministic given (compact, data, corpus, rng state). When a recipe
    is installed and seed is provided, the recipe's selector is checked
    first and a mismatch is a recorded miss. The input must be
    1..max_size bytes (ValueError otherwise), and the output stays within
    [1, max_size] for every applied operator.
    """
    if compact is None:
        return MutationOutcome(havoc_mutate(data, rng, max_size), None, False)
    if not 1 <= len(data) <= max_size:
        raise ValueError(f"input is {len(data)} bytes; mutate takes 1..{max_size} bytes")
    if seed is not None and not selector_matches(compact.selector, seed):
        return MutationOutcome(data, None, True)
    op = choose_operator(compact, rng)
    out = _OP_TABLE[op](compact, data, corpus, rng, max_size)
    if out is None:
        return MutationOutcome(data, None, True)
    return MutationOutcome(out, op, False)


def havoc_mutate(data: bytes, rng, max_size: int) -> bytes:
    """Recipe-free fallback: one conventional random byte/bit edit.

    Reached through `mutate` when no recipe is installed; the vanilla bench
    configuration calls it directly. The input must be 1..max_size bytes.
    """
    if not 1 <= len(data) <= max_size:
        raise ValueError(f"input is {len(data)} bytes; mutate takes 1..{max_size} bytes")
    kind = rng.randrange(4)
    if kind == 0:
        out = bytearray(data)
        out[rng.randrange(len(out))] ^= 1 << rng.randrange(8)
        return bytes(out)
    if kind == 1:
        out = bytearray(data)
        out[rng.randrange(len(out))] = rng.randrange(256)
        return bytes(out)
    if kind == 2:
        if len(data) == 1:
            return data
        off = rng.randrange(len(data) - 1)
        length = rng.randint(1, min(len(data) - 1 - off, OVERWRITE_CAP))
        return data[:off] + data[off + length :]
    length = rng.randint(1, HAVOC_INSERT_CAP)
    if len(data) + length > max_size:
        return data
    off = rng.randrange(len(data))
    return data[:off] + rng.randbytes(length) + data[off:]


@dataclass(frozen=True)
class BenchReport:
    config_name: str
    calls: int
    elapsed_ns: int
    calls_per_sec: float
    ns_per_call: float


def format_bench_report(report: BenchReport) -> str:
    lines = [
        f"config        : {report.config_name}",
        f"calls         : {report.calls}",
        f"elapsed_ns    : {report.elapsed_ns}",
        f"calls_per_sec : {report.calls_per_sec:.1f}",
        f"ns_per_call   : {report.ns_per_call:.1f}",
    ]
    return "\n".join(lines) + "\n"


def bench_dispatch(
    config: str,
    calls: int,
    corpus: tuple[CorpusEntry, ...],
    seed: int,
    max_size: int = 4096,
    active_recipe: CompactRecipe | None = None,
) -> BenchReport:
    """Time `calls` mutation calls over a fixed corpus.

    Configurations: vanilla calls `havoc_mutate` directly; fp-empty calls
    `mutate` with no recipe installed, so it times the havoc fallthrough
    behind the one dispatch path; fp-active calls `mutate` with a populated
    recipe and the input's corpus entry as seed. Corpus setup
    happens outside the timed region. Wall-clock numbers are hardware- and
    load-relative: the harness refuses to run alongside worker children of
    this process, and results should come from an otherwise idle machine.
    """
    if calls < 1:
        raise ZeroCalls(f"calls must be >= 1, got {calls}")
    if config not in BENCH_CONFIGS:
        raise ValueError(f"unknown bench config {config!r}")
    if not corpus:
        raise ValueError("bench corpus must be non-empty")
    import multiprocessing  # only this guard needs it; campaigns never load it

    if multiprocessing.active_children():
        raise RuntimeError("bench requires single-process execution")
    if config == "fp-active" and active_recipe is None:
        raise ValueError("fp-active requires an active recipe")

    rng = random.Random(seed)
    n = len(corpus)
    inputs = [entry.data for entry in corpus]

    if config == "vanilla":
        t0 = time.perf_counter_ns()
        for i in range(calls):
            havoc_mutate(inputs[i % n], rng, max_size)
        t1 = time.perf_counter_ns()
    elif config == "fp-empty":
        t0 = time.perf_counter_ns()
        for i in range(calls):
            mutate(None, inputs[i % n], corpus, rng, max_size)
        t1 = time.perf_counter_ns()
    else:
        recipe = active_recipe
        t0 = time.perf_counter_ns()
        for i in range(calls):
            mutate(recipe, inputs[i % n], corpus, rng, max_size, corpus[i % n])
        t1 = time.perf_counter_ns()

    elapsed = max(t1 - t0, 1)
    return BenchReport(
        config_name=config,
        calls=calls,
        elapsed_ns=elapsed,
        calls_per_sec=calls / (elapsed / 1e9),
        ns_per_call=elapsed / calls,
    )
