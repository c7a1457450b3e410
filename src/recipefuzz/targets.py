"""Deterministic in-process instrumented targets.

Two built-ins stand in for externally instrumented binaries:

* ``parser``: a recursive-descent structured-text parser (objects, arrays,
  strings with escapes, numbers, literals) with a statically assigned edge
  ID at every branch arm and a depth-triggered crash. Its reachable edge
  set is small and a curated seed corpus covers it completely, which makes
  it the saturated-scenario reference target.
* ``staircase``: a target whose edge groups are revealed only when a gate
  literal appears in the input; used to test that the promotion gate can
  tell a useful dictionary token from a useless one.

Edge IDs are stable across calls and processes for a given target version,
so coverage deltas against a snapshot are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field

DEFAULT_MAP_SIZE = 4096
# The largest input a built-in target executes; a longer one is a ValueError.
MAX_INPUT = 1 << 20


class UnknownTarget(ValueError):
    pass


@dataclass(frozen=True)
class ExecResult:
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

_WS = b" \t\n\r"
_SIMPLE_ESCAPES = b'"\\/bfnrt'
_HEX = b"0123456789abcdefABCDEF"


class _CrashSignal(Exception):
    pass


class _ParseRun:
    __slots__ = ("data", "pos", "edges", "crash_depth")

    def __init__(self, data: bytes, crash_depth: int):
        self.data = data
        self.pos = 0
        self.edges: set[int] = set()
        self.crash_depth = crash_depth

    def edge(self, eid: int) -> None:
        self.edges.add(eid)

    def peek(self) -> int:
        return self.data[self.pos] if self.pos < len(self.data) else -1

    def skip_ws(self) -> None:
        skipped = False
        while self.pos < len(self.data) and self.data[self.pos] in _WS:
            self.pos += 1
            skipped = True
        if skipped:
            self.edge(E_LEADING_WS)

    def parse_value(self, depth: int) -> None:
        if depth > self.crash_depth:
            raise _CrashSignal
        if depth > DEEP_NESTING_AT:
            self.edge(E_DEEP_NESTING)
        self.skip_ws()
        c = self.peek()
        if c == ord("{"):
            self.edge(E_VAL_OBJECT)
            self.parse_object(depth)
        elif c == ord("["):
            self.edge(E_VAL_ARRAY)
            self.parse_array(depth)
        elif c == ord('"'):
            self.edge(E_VAL_STRING)
            self.parse_string()
        elif ord("0") <= c <= ord("9"):
            self.edge(E_VAL_NUM_DIGIT)
            self.parse_number()
        elif c == ord("-"):
            self.edge(E_VAL_NUM_MINUS)
            self.pos += 1
            self.parse_number()
        elif c == ord("t"):
            self.edge(E_VAL_LIT_T)
            self.parse_literal(b"true", E_LIT_TRUE)
        elif c == ord("f"):
            self.edge(E_VAL_LIT_F)
            self.parse_literal(b"false", E_LIT_FALSE)
        elif c == ord("n"):
            self.edge(E_VAL_LIT_N)
            self.parse_literal(b"null", E_LIT_NULL)
        else:
            self.edge(E_VAL_BAD_CHAR)
            if c >= 0:
                self.pos += 1

    def parse_object(self, depth: int) -> None:
        self.edge(E_OBJ_OPEN)
        self.pos += 1
        self.skip_ws()
        if self.peek() == ord("}"):
            self.edge(E_OBJ_EMPTY)
            self.pos += 1
            return
        while True:
            self.skip_ws()
            c = self.peek()
            if c < 0:
                self.edge(E_OBJ_UNTERMINATED)
                return
            if c != ord('"'):
                self.edge(E_OBJ_BAD_KEY)
                self.pos += 1
                return
            self.edge(E_OBJ_KEY)
            self.parse_string()
            self.skip_ws()
            if self.peek() == ord(":"):
                self.edge(E_OBJ_COLON)
                self.pos += 1
            else:
                self.edge(E_OBJ_NO_COLON)
            self.parse_value(depth + 1)
            self.skip_ws()
            c = self.peek()
            if c == ord(","):
                self.edge(E_OBJ_COMMA)
                self.pos += 1
            elif c == ord("}"):
                self.edge(E_OBJ_CLOSE)
                self.pos += 1
                return
            else:
                self.edge(E_OBJ_UNTERMINATED)
                return

    def parse_array(self, depth: int) -> None:
        self.edge(E_ARR_OPEN)
        self.pos += 1
        self.skip_ws()
        if self.peek() == ord("]"):
            self.edge(E_ARR_EMPTY)
            self.pos += 1
            return
        while True:
            self.edge(E_ARR_ELEMENT)
            self.parse_value(depth + 1)
            self.skip_ws()
            c = self.peek()
            if c == ord(","):
                self.edge(E_ARR_COMMA)
                self.pos += 1
            elif c == ord("]"):
                self.edge(E_ARR_CLOSE)
                self.pos += 1
                return
            elif c < 0:
                self.edge(E_ARR_UNTERMINATED)
                return
            else:
                self.edge(E_ARR_BAD_SEP)
                self.pos += 1
                return

    def parse_string(self) -> None:
        self.edge(E_STR_OPEN)
        self.pos += 1
        while True:
            c = self.peek()
            if c < 0:
                self.edge(E_STR_UNTERMINATED)
                return
            if c == ord('"'):
                self.edge(E_STR_CLOSE)
                self.pos += 1
                return
            if c == ord("\\"):
                self.pos += 1
                e = self.peek()
                if e >= 0 and e in _SIMPLE_ESCAPES:
                    self.edge(E_STR_ESC_SIMPLE)
                    self.pos += 1
                elif e == ord("u"):
                    self.pos += 1
                    run = self.data[self.pos : self.pos + 4]
                    if len(run) == 4 and all(b in _HEX for b in run):
                        self.edge(E_STR_ESC_U)
                        self.pos += 4
                    else:
                        self.edge(E_STR_ESC_U_BAD)
                else:
                    self.edge(E_STR_ESC_BAD)
                    if e >= 0:
                        self.pos += 1
            elif c < 0x20:
                self.edge(E_STR_CONTROL)
                self.pos += 1
            else:
                self.edge(E_STR_PLAIN)
                self.pos += 1

    def parse_number(self) -> None:
        c = self.peek()
        if not (ord("0") <= c <= ord("9")):
            self.edge(E_NUM_BAD)
            return
        if c == ord("0"):
            self.edge(E_NUM_LEADING_ZERO)
        self.edge(E_NUM_INT)
        while ord("0") <= self.peek() <= ord("9"):
            self.pos += 1
        if self.peek() == ord("."):
            self.pos += 1
            if not (ord("0") <= self.peek() <= ord("9")):
                self.edge(E_NUM_BAD)
                return
            self.edge(E_NUM_FRAC)
            while ord("0") <= self.peek() <= ord("9"):
                self.pos += 1
        if self.peek() in (ord("e"), ord("E")):
            self.pos += 1
            if self.peek() in (ord("+"), ord("-")):
                self.edge(E_NUM_EXP_SIGN)
                self.pos += 1
            if not (ord("0") <= self.peek() <= ord("9")):
                self.edge(E_NUM_BAD)
                return
            self.edge(E_NUM_EXP)
            while ord("0") <= self.peek() <= ord("9"):
                self.pos += 1

    def parse_literal(self, word: bytes, ok_edge: int) -> None:
        if self.data[self.pos : self.pos + len(word)] == word:
            self.edge(ok_edge)
            self.pos += len(word)
        else:
            self.edge(E_LIT_BAD)
            self.pos += 1


class ParserTarget:
    """Reference structured-text parser target."""

    def __init__(self, crash_depth: int = 64):
        self.name = f"parser(depth={crash_depth})"
        self.crash_depth = crash_depth

    def execute(self, data: bytes) -> ExecResult:
        if len(data) > MAX_INPUT:
            raise ValueError(f"input exceeds max size {MAX_INPUT}")
        run = _ParseRun(data, self.crash_depth)
        run.edge(E_ENTER)
        if not data:
            run.edge(E_EMPTY_INPUT)
            return ExecResult(frozenset(run.edges), False, 0)
        try:
            run.parse_value(0)
            run.skip_ws()
            if run.pos < len(data):
                run.edge(E_TOP_TRAILING)
            else:
                run.edge(E_TOP_CLEAN_EOF)
        except _CrashSignal:
            # Depth budget exceeded: report a crash, no dedicated edge.
            return ExecResult(frozenset(run.edges), True, run.pos)
        return ExecResult(frozenset(run.edges), False, run.pos)


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


def get_target(name: str):
    """Resolve a built-in target by name."""
    if name == "parser":
        return ParserTarget()
    if name == "staircase":
        return StaircaseTarget()
    raise UnknownTarget(f"unknown built-in target {name!r}")


def default_seeds(name: str) -> tuple[tuple[str, bytes], ...]:
    if name == "parser":
        return PARSER_SEEDS
    if name == "staircase":
        return STAIRCASE_SEEDS
    raise UnknownTarget(f"unknown built-in target {name!r}")
