"""Deterministic in-process instrumented targets.

Two built-ins stand in for externally instrumented binaries:

* ``parser``: a recursive-descent structured-text parser (objects, arrays,
  strings with escapes, numbers, literals) with a statically assigned edge
  ID at every branch arm and a depth-triggered crash. Its reachable edge
  set is small and a curated seed corpus covers it completely, which makes
  it the saturated-scenario reference target. It is written flat for
  speed: one module-level function per production, each taking
  (data, pos, n, edges, ...) and returning the new pos, so a nesting
  level costs at most two Python frames. Peeks and edge hits are inline
  expressions; whitespace and digit runs are index loops, and a run of
  plain string bytes is one regex match that adds its edge once.
* ``staircase``: a target whose edge groups are revealed only when a gate
  literal appears in the input; used to test that the promotion gate can
  tell a useful dictionary token from a useless one.

Edge IDs are stable across calls and processes for a given target version,
so coverage deltas against a snapshot are meaningful.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

DEFAULT_MAP_SIZE = 4096
# The largest input a built-in target executes; a longer one is a ValueError.
MAX_INPUT = 1 << 20


class UnknownTarget(ValueError):
    pass


class ExecResult(NamedTuple):
    edges_hit: frozenset[int]
    crashed: bool
    consumed: int


@dataclass
class EdgeBitmap:
    """Fixed-capacity coverage accumulator. Single-writer."""

    capacity: int = DEFAULT_MAP_SIZE
    slots: set[int] = field(default_factory=set)

    @property
    def count(self) -> int:
        return len(self.slots)


def merge_into(bitmap: EdgeBitmap, result: ExecResult) -> int:
    """Merge a result's edges into the bitmap; returns the new-edge count.

    Idempotent and commutative: re-merging the same result adds nothing.
    """
    new = 0
    for edge in result.edges_hit:
        slot = edge % bitmap.capacity
        if slot not in bitmap.slots:
            bitmap.slots.add(slot)
            new += 1
    return new


# --- parser target edge IDs (statically assigned, one per branch arm) ---

E_ENTER = 1
E_EMPTY_INPUT = 2
E_LEADING_WS = 3

E_VAL_OBJECT = 10
E_VAL_ARRAY = 11
E_VAL_STRING = 12
E_VAL_NUM_DIGIT = 13
E_VAL_NUM_MINUS = 14
E_VAL_LIT_T = 15
E_VAL_LIT_F = 16
E_VAL_LIT_N = 17
E_VAL_BAD_CHAR = 18

E_OBJ_OPEN = 20
E_OBJ_EMPTY = 21
E_OBJ_KEY = 22
E_OBJ_COLON = 23
E_OBJ_NO_COLON = 24
E_OBJ_COMMA = 25
E_OBJ_CLOSE = 26
E_OBJ_UNTERMINATED = 27
E_OBJ_BAD_KEY = 28

E_ARR_OPEN = 30
E_ARR_EMPTY = 31
E_ARR_ELEMENT = 32
E_ARR_COMMA = 33
E_ARR_CLOSE = 34
E_ARR_UNTERMINATED = 35
E_ARR_BAD_SEP = 36

E_STR_OPEN = 40
E_STR_PLAIN = 41
E_STR_ESC_SIMPLE = 42
E_STR_ESC_U = 43
E_STR_ESC_U_BAD = 44
E_STR_ESC_BAD = 45
E_STR_CLOSE = 46
E_STR_UNTERMINATED = 47
E_STR_CONTROL = 48

E_NUM_INT = 50
E_NUM_LEADING_ZERO = 51
E_NUM_FRAC = 52
E_NUM_EXP = 53
E_NUM_EXP_SIGN = 54
E_NUM_BAD = 55

E_LIT_TRUE = 60
E_LIT_FALSE = 61
E_LIT_NULL = 62
E_LIT_BAD = 63

E_DEEP_NESTING = 70
DEEP_NESTING_AT = 8

E_TOP_TRAILING = 80
E_TOP_CLEAN_EOF = 81

_WS = frozenset(b" \t\n\r")
_SIMPLE_ESCAPES = frozenset(b'"\\/bfnrt')
# A run of plain string bytes: anything but a quote, a backslash or a
# control byte. A run adds E_STR_PLAIN once, which is the edge set that
# adding it per byte gives.
_STR_PLAIN_RUN = re.compile(rb'[^"\\\x00-\x1f]+')
_HEX_QUAD = re.compile(rb"[0-9a-fA-F]{4}")


class _CrashSignal(Exception):
    def __init__(self, pos: int):
        super().__init__(pos)
        self.pos = pos


def _ws(data: bytes, pos: int, n: int, edges: set[int]) -> int:
    """Skip the whitespace run at pos, which holds at least one byte."""
    pos += 1
    while pos < n and data[pos] in _WS:
        pos += 1
    edges.add(E_LEADING_WS)
    return pos


def _value(data: bytes, pos: int, n: int, edges: set[int], depth: int, crash_depth: int) -> int:
    if depth > crash_depth:
        raise _CrashSignal(pos)
    if depth > DEEP_NESTING_AT:
        edges.add(E_DEEP_NESTING)
    if pos < n and data[pos] in _WS:
        pos = _ws(data, pos, n, edges)
    c = data[pos] if pos < n else -1
    if c == 0x7B:  # {
        edges.add(E_VAL_OBJECT)
        return _object(data, pos, n, edges, depth, crash_depth)
    if c == 0x5B:  # [
        edges.add(E_VAL_ARRAY)
        return _array(data, pos, n, edges, depth, crash_depth)
    if c == 0x22:  # "
        edges.add(E_VAL_STRING)
        return _string(data, pos, n, edges)
    if 0x30 <= c <= 0x39:  # 0-9
        edges.add(E_VAL_NUM_DIGIT)
        return _number(data, pos, n, edges)
    if c == 0x2D:  # -
        edges.add(E_VAL_NUM_MINUS)
        return _number(data, pos + 1, n, edges)
    if c == 0x74:  # t
        edges.add(E_VAL_LIT_T)
        return _literal(data, pos, edges, b"true", E_LIT_TRUE)
    if c == 0x66:  # f
        edges.add(E_VAL_LIT_F)
        return _literal(data, pos, edges, b"false", E_LIT_FALSE)
    if c == 0x6E:  # n
        edges.add(E_VAL_LIT_N)
        return _literal(data, pos, edges, b"null", E_LIT_NULL)
    edges.add(E_VAL_BAD_CHAR)
    return pos + 1 if c >= 0 else pos


def _object(data: bytes, pos: int, n: int, edges: set[int], depth: int, crash_depth: int) -> int:
    edges.add(E_OBJ_OPEN)
    pos += 1
    if pos < n and data[pos] in _WS:
        pos = _ws(data, pos, n, edges)
    if pos < n and data[pos] == 0x7D:  # }
        edges.add(E_OBJ_EMPTY)
        return pos + 1
    while True:
        c = data[pos] if pos < n else -1
        if c < 0:
            edges.add(E_OBJ_UNTERMINATED)
            return pos
        if c != 0x22:  # "
            edges.add(E_OBJ_BAD_KEY)
            return pos + 1
        edges.add(E_OBJ_KEY)
        pos = _string(data, pos, n, edges)
        if pos < n and data[pos] in _WS:
            pos = _ws(data, pos, n, edges)
        if pos < n and data[pos] == 0x3A:  # :
            edges.add(E_OBJ_COLON)
            pos += 1
        else:
            edges.add(E_OBJ_NO_COLON)
        pos = _value(data, pos, n, edges, depth + 1, crash_depth)
        if pos < n and data[pos] in _WS:
            pos = _ws(data, pos, n, edges)
        c = data[pos] if pos < n else -1
        if c == 0x2C:  # ,
            edges.add(E_OBJ_COMMA)
            pos += 1
            if pos < n and data[pos] in _WS:
                pos = _ws(data, pos, n, edges)
        elif c == 0x7D:  # }
            edges.add(E_OBJ_CLOSE)
            return pos + 1
        else:
            edges.add(E_OBJ_UNTERMINATED)
            return pos


def _array(data: bytes, pos: int, n: int, edges: set[int], depth: int, crash_depth: int) -> int:
    edges.add(E_ARR_OPEN)
    pos += 1
    if pos < n and data[pos] in _WS:
        pos = _ws(data, pos, n, edges)
    if pos < n and data[pos] == 0x5D:  # ]
        edges.add(E_ARR_EMPTY)
        return pos + 1
    while True:
        edges.add(E_ARR_ELEMENT)
        pos = _value(data, pos, n, edges, depth + 1, crash_depth)
        if pos < n and data[pos] in _WS:
            pos = _ws(data, pos, n, edges)
        c = data[pos] if pos < n else -1
        if c == 0x2C:  # ,
            edges.add(E_ARR_COMMA)
            pos += 1
        elif c == 0x5D:  # ]
            edges.add(E_ARR_CLOSE)
            return pos + 1
        elif c < 0:
            edges.add(E_ARR_UNTERMINATED)
            return pos
        else:
            edges.add(E_ARR_BAD_SEP)
            return pos + 1


def _string(data: bytes, pos: int, n: int, edges: set[int]) -> int:
    edges.add(E_STR_OPEN)
    pos += 1
    while True:
        if pos >= n:
            edges.add(E_STR_UNTERMINATED)
            return pos
        c = data[pos]
        if c == 0x22:  # "
            edges.add(E_STR_CLOSE)
            return pos + 1
        if c == 0x5C:  # backslash
            pos += 1
            e = data[pos] if pos < n else -1
            if e in _SIMPLE_ESCAPES:
                edges.add(E_STR_ESC_SIMPLE)
                pos += 1
            elif e == 0x75:  # u
                pos += 1
                if _HEX_QUAD.match(data, pos):
                    edges.add(E_STR_ESC_U)
                    pos += 4
                else:
                    edges.add(E_STR_ESC_U_BAD)
            else:
                edges.add(E_STR_ESC_BAD)
                if e >= 0:
                    pos += 1
        elif c < 0x20:
            edges.add(E_STR_CONTROL)
            pos += 1
        else:
            edges.add(E_STR_PLAIN)
            pos = _STR_PLAIN_RUN.match(data, pos).end()


def _number(data: bytes, pos: int, n: int, edges: set[int]) -> int:
    c = data[pos] if pos < n else -1
    if not 0x30 <= c <= 0x39:
        edges.add(E_NUM_BAD)
        return pos
    if c == 0x30:
        edges.add(E_NUM_LEADING_ZERO)
    edges.add(E_NUM_INT)
    pos += 1
    while pos < n and 0x30 <= data[pos] <= 0x39:
        pos += 1
    if pos < n and data[pos] == 0x2E:  # .
        pos += 1
        if not (pos < n and 0x30 <= data[pos] <= 0x39):
            edges.add(E_NUM_BAD)
            return pos
        edges.add(E_NUM_FRAC)
        pos += 1
        while pos < n and 0x30 <= data[pos] <= 0x39:
            pos += 1
    if pos < n and data[pos] in (0x65, 0x45):  # e E
        pos += 1
        if pos < n and data[pos] in (0x2B, 0x2D):  # + -
            edges.add(E_NUM_EXP_SIGN)
            pos += 1
        if not (pos < n and 0x30 <= data[pos] <= 0x39):
            edges.add(E_NUM_BAD)
            return pos
        edges.add(E_NUM_EXP)
        pos += 1
        while pos < n and 0x30 <= data[pos] <= 0x39:
            pos += 1
    return pos


def _literal(data: bytes, pos: int, edges: set[int], word: bytes, ok_edge: int) -> int:
    if data.startswith(word, pos):
        edges.add(ok_edge)
        return pos + len(word)
    edges.add(E_LIT_BAD)
    return pos + 1


class ParserTarget:
    """Reference structured-text parser target."""

    def __init__(self, crash_depth: int = 64):
        self.name = f"parser(depth={crash_depth})"
        self.crash_depth = crash_depth

    def execute(self, data: bytes) -> ExecResult:
        n = len(data)
        if n > MAX_INPUT:
            raise ValueError(f"input exceeds max size {MAX_INPUT}")
        edges = {E_ENTER}
        if not n:
            edges.add(E_EMPTY_INPUT)
            return ExecResult(frozenset(edges), False, 0)
        try:
            pos = _value(data, 0, n, edges, 0, self.crash_depth)
        except _CrashSignal as crash:
            # Depth budget exceeded: report a crash, no dedicated edge.
            return ExecResult(frozenset(edges), True, crash.pos)
        if pos < n and data[pos] in _WS:
            pos = _ws(data, pos, n, edges)
        edges.add(E_TOP_TRAILING if pos < n else E_TOP_CLEAN_EOF)
        return ExecResult(frozenset(edges), False, pos)


# --- staircase target ---

STAIR_BASE = (1000, 1001, 1002)
STAIR_GATE_EDGE_BASE = 2000
STAIR_GATE_EDGE_STRIDE = 10
DEFAULT_GATES = (b"XKEY1", b"ZMAGIC9")
EDGES_PER_GATE = 4


class StaircaseTarget:
    """Token-gated target: edge group i fires only when gate literal i
    appears anywhere in the input. Base edges saturate from any small
    seed set; the gated groups are unreachable without the literal."""

    def __init__(self, gates: tuple[bytes, ...] = DEFAULT_GATES):
        for g in gates:
            if len(g) < 5:
                raise ValueError("gate literals must be at least 5 bytes")
        self.name = "staircase(" + ",".join(g.decode("ascii") for g in gates) + ")"
        self.gates = tuple(gates)

    def gate_edges(self, index: int) -> frozenset[int]:
        base = STAIR_GATE_EDGE_BASE + STAIR_GATE_EDGE_STRIDE * index
        return frozenset(range(base, base + EDGES_PER_GATE))

    def execute(self, data: bytes) -> ExecResult:
        if len(data) > MAX_INPUT:
            raise ValueError(f"input exceeds max size {MAX_INPUT}")
        edges = {STAIR_BASE[0]}
        if len(data) >= 1:
            edges.add(STAIR_BASE[1])
        if len(data) >= 16:
            edges.add(STAIR_BASE[2])
        for i, gate in enumerate(self.gates):
            if gate in data:
                edges.update(self.gate_edges(i))
        return ExecResult(frozenset(edges), False, len(data))


# Curated parser seeds. Together they cover the parser target's entire
# reachable edge set (asserted by the test suite), which makes a campaign
# over them the saturated scenario: no coverage headroom remains.
PARSER_SEEDS = (
    ("empty_object", b"{}"),
    ("empty_array", b"[]"),
    ("object_pairs", b'{"a": 1, "b": 2}'),
    ("nested", b'{"deep": [1, [2, [3, [{"x": null}]]]]}'),
    ("string_escapes", b'"pl\\n\\t\\"ain\\u0041\\q"'),
    ("string_escape_u_bad", b'"\\u12zz"'),
    ("string_control", b'"a\x01b"'),
    ("string_unterminated", b'"abc'),
    ("numbers", b"[0, 12.5, -3, 1e9, 2E+4, 3e-2]"),
    ("number_bad", b"[1., -x, 2e]"),
    ("literals", b"[true, false, null]"),
    ("literal_bad", b"[tru, fa, nul]"),
    ("ws", b"  {\t}\n"),
    ("trailing", b"1 x"),
    ("bad_value", b"@"),
    ("object_errors", b'{"k" 1}'),
    ("object_bad_key", b"{5}"),
    ("object_missing_close", b'{"a": 1'),
    ("array_errors", b"[1 2"),
    ("array_unterminated", b"[1,"),
    ("deep_ok", b"[[[[[[[[[[1]]]]]]]]]]"),
)

# Staircase seeds: cover all base edges, contain no gate literal.
STAIRCASE_SEEDS = (
    ("tiny", b"aa"),
    ("sixteen", b"abcdefghijklmnop"),
    ("plain", b"hello world 123"),
)


# The built-in targets: name -> (executor factory, curated seeds).
BUILTIN_TARGETS = {
    "parser": (ParserTarget, PARSER_SEEDS),
    "staircase": (StaircaseTarget, STAIRCASE_SEEDS),
}


def _builtin(name: str):
    if name not in BUILTIN_TARGETS:
        raise UnknownTarget(f"unknown built-in target {name!r}")
    return BUILTIN_TARGETS[name]


def get_target(name: str):
    """Resolve a built-in target by name."""
    return _builtin(name)[0]()


def default_seeds(name: str) -> tuple[tuple[str, bytes], ...]:
    return _builtin(name)[1]
