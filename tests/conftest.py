"""Shared fixtures: reference recipe document, run-tree fixture data,
and a minimal ELF image builder for extraction tests."""

from __future__ import annotations

import json
import struct
from pathlib import Path

import pytest

# Reference recipe document: 7 weights summing to 1.00, 2 focus ranges,
# 1 protect range, 7 dictionary tokens.
REFERENCE_RECIPE_TEXT = json.dumps(
    {
        "id": "demo_boundary_tokens",
        "selector": {"mode": "seed_hash", "key": "9c4f17e2a7b1"},
        "priority": 3,
        "ttl_sec": 1800,
        "operator_weights": {
            "InsertToken": 0.35,
            "DictionaryOverwrite": 0.25,
            "Splice": 0.15,
            "OverwriteRange": 0.10,
            "BitFlip": 0.10,
            "Arith": 0.03,
            "DeleteBlock": 0.02,
        },
        "focus_ranges": [[0, 1], [42, 64]],
        "protect_ranges": [[16, 20]],
        "dictionary_tokens": ["{", "}", "[", "]", "\\x22", "true", "null"],
        "expected_signal": "exercise object/array nesting boundaries",
    }
)

REFERENCE_WEIGHTS = {
    "InsertToken": 0.35,
    "DictionaryOverwrite": 0.25,
    "Splice": 0.15,
    "OverwriteRange": 0.10,
    "BitFlip": 0.10,
    "Arith": 0.03,
    "DeleteBlock": 0.02,
}


@pytest.fixture
def reference_recipe_text() -> str:
    return REFERENCE_RECIPE_TEXT


# Per-run fixture data for the two main campaign arms: run_time, last_find,
# execs_done, execs_per_sec, cycles_done, corpus_count, edges_found and the
# time at which the coverage series crosses the 269-edge ceiling (None:
# never reaches it).
BASELINE_RUNS = [
    ("r01", 14444, 11130, 188_492_319, 13049, 797, 585, 269, 1081),
    ("r02", 14443, 10473, 187_158_013, 12958, 800, 607, 269, 1800),
    ("r03", 14443, 13258, 189_334_714, 13108, 702, 606, 269, 2524),
    ("r04", 14443, 11911, 185_251_854, 12826, 569, 649, 269, 3300),
    ("r05", 14446, 13907, 200_147_594, 13854, 819, 607, 269, 4448),
]

FULL_AGENT_RUNS = [
    ("r01", 14441, 13606, 199_520_607, 13816, 122, 598, 269, 3487),
    ("r02", 14442, 11216, 195_572_895, 13542, 141, 573, 266, None),
    ("r03", 14443, 13059, 195_567_575, 13540, 144, 601, 269, 4329),
    ("r04", 14443, 14205, 201_466_942, 13949, 126, 604, 269, 14205),
    ("r05", 14437, 12827, 225_180_431, 15597, 140, 600, 269, 9076),
]

BASELINE_PLATEAUS = [3314, 3970, 1185, 2532, 539]
FULL_AGENT_PLATEAUS = [835, 3226, 1384, 238, 1610]
RULE_ONLY_PLATEAUS = [674, 1165, 1540]


def _coverage_rows(run_time: int, ceiling: int, crossing: int | None):
    """Nondecreasing coverage series with >= 200 rows: quick ramp to 264,
    268 at 660 s, ceiling at the crossing time."""

    def edges_at(t: float) -> int:
        if t <= 0:
            return 10
        if t < 660:
            return 264
        if crossing is not None and t >= crossing:
            return ceiling
        return min(268, ceiling)

    times = {float(i * 72) for i in range(0, 201)}
    times.add(float(run_time))
    if crossing is not None:
        times.add(float(crossing))
    return [(t, edges_at(t)) for t in sorted(times) if t <= run_time]


def _write_run_dir(run_dir: Path, mode: str, row) -> None:
    run_id, run_time, last_find, execs, eps, cycles, corpus, edges, crossing = row
    run_dir.mkdir(parents=True)
    stats = {
        "run_time": run_time,
        "execs_done": execs,
        "execs_per_sec": eps,
        "cycles_done": cycles,
        "corpus_count": corpus,
        "edges_found": edges,
        "bitmap_cvg": "23.21%",
        "last_find": last_find,
        "stability": "99.26%",
    }
    (run_dir / "fuzzer_stats").write_text(
        "".join(f"{k:<18}: {v}\n" for k, v in stats.items())
    )
    rows = _coverage_rows(run_time, edges, crossing)
    (run_dir / "coverage.csv").write_text(
        "t_sec,edges_found\n" + "\n".join(f"{t:g},{e}" for t, e in rows) + "\n"
    )
    event = {"t": float(run_time), "kind": "run_completed", "payload": {"edges_found": edges}}
    (run_dir / "events.jsonl").write_text(json.dumps(event) + "\n")
    (run_dir / "run_metadata.json").write_text(
        json.dumps({"mode": mode, "target": "reference", "seed": 0})
    )


def build_fixture_run_tree(root: Path) -> Path:
    """Ten-run fixture tree: five baseline runs, five full-pipeline runs."""
    root.mkdir(parents=True, exist_ok=True)
    for row in BASELINE_RUNS:
        _write_run_dir(root / f"e1_baseline_{row[0]}", "baseline", row)
    for row in FULL_AGENT_RUNS:
        _write_run_dir(root / f"e1_full_{row[0]}", "full", row)
    return root


@pytest.fixture
def fixture_run_tree(tmp_path) -> Path:
    return build_fixture_run_tree(tmp_path / "runs")


def build_elf(rodata: bytes, bits: int = 64, little: bool = True,
              extra_sections: list[tuple[str, int, int, bytes]] | None = None) -> bytes:
    """Minimal ELF image with a .rodata section (plus optional extras).

    extra_sections: list of (name, sh_type, sh_flags, payload).
    """
    end = "<" if little else ">"
    sections = [(".rodata", 1, 0x2, rodata)] + list(extra_sections or [])

    shstrtab = bytearray(b"\x00")
    name_offsets = []
    for name, *_ in sections:
        name_offsets.append(len(shstrtab))
        shstrtab += name.encode() + b"\x00"
    shstr_name_off = len(shstrtab)
    shstrtab += b".shstrtab\x00"

    if bits == 64:
        ehsize, shentsize = 64, 64
        sh_fmt = end + "IIQQQQIIQQ"
    else:
        ehsize, shentsize = 52, 40
        sh_fmt = end + "IIIIIIIIII"

    payload_off = ehsize
    blobs = []
    offsets = []
    for _, _, _, payload in sections:
        offsets.append(payload_off)
        blobs.append(payload)
        payload_off += len(payload)
    shstr_off = payload_off
    payload_off += len(shstrtab)
    shoff = payload_off + (-payload_off % 8)

    shnum = len(sections) + 2  # NULL + payload sections + shstrtab
    headers = [b"\x00" * shentsize]
    for (name, sh_type, flags, payload), name_off, off in zip(
        sections, name_offsets, offsets
    ):
        headers.append(
            struct.pack(sh_fmt, name_off, sh_type, flags, 0, off, len(payload), 0, 0, 1, 0)
        )
    headers.append(
        struct.pack(sh_fmt, shstr_name_off, 3, 0, 0, shstr_off, len(shstrtab), 0, 0, 1, 0)
    )

    e_ident = b"\x7fELF" + bytes([2 if bits == 64 else 1, 1 if little else 2, 1]) + b"\x00" * 9
    if bits == 64:
        ehdr = struct.pack(
            end + "16sHHIQQQIHHHHHH",
            e_ident, 2, 0x3E, 1, 0, 0, shoff, 0, ehsize, 0, 0, shentsize, shnum, shnum - 1,
        )
    else:
        ehdr = struct.pack(
            end + "16sHHIIIIIHHHHHH",
            e_ident, 2, 3, 1, 0, 0, shoff, 0, ehsize, 0, 0, shentsize, shnum, shnum - 1,
        )

    image = bytearray(ehdr)
    for blob in blobs:
        image += blob
    image += shstrtab
    image += b"\x00" * (shoff - len(image))
    for h in headers:
        image += h
    return bytes(image)


@pytest.fixture
def fixture_elf() -> bytes:
    rodata = b"\x00null\x00true\x00ok\x00null\x00%1.15g\x00\x01\x02binary\xffdata\x00"
    return build_elf(rodata)



class CountingExecutor:
    """Wraps an executor and counts its execute calls. With fail_at set,
    call number fail_at (counted from 1, seeds included) raises exc."""

    name = "counting"

    def __init__(self, target, fail_at: int | None = None, exc: Exception | None = None):
        self.target = target
        self.fail_at = fail_at
        self.exc = exc
        self.calls = 0

    def execute(self, data: bytes):
        self.calls += 1
        if self.calls == self.fail_at:
            raise self.exc
        return self.target.execute(data)


class RecordingExecutor(CountingExecutor):
    """A CountingExecutor that also keeps every input it executes, in
    order."""

    def __init__(self, target):
        super().__init__(target)
        self.inputs: list[bytes] = []

    def execute(self, data: bytes):
        self.inputs.append(data)
        return super().execute(data)


class BrokenResultExecutor(CountingExecutor):
    """Returns result in place of an ExecResult at call fail_at (counted
    from 1, seeds included): None by default, which has neither crashed
    nor edges_hit."""

    def __init__(self, target, fail_at: int, result=None):
        super().__init__(target, fail_at)
        self.result = result

    def execute(self, data: bytes):
        self.calls += 1
        if self.calls == self.fail_at:
            return self.result
        return self.target.execute(data)
