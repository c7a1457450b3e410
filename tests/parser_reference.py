"""The parser target as a method-per-production recursive descent, kept
as the reference for the differential test of the built-in parser target.

The code below is the built-in target's former implementation, unchanged:
one _ParseRun object per input, with edge and peek methods. The edge IDs
come from the package, so the two parsers differ only in how they parse.
"""

from __future__ import annotations

from recipefuzz.targets import (
    E_ENTER,
    E_EMPTY_INPUT,
    E_LEADING_WS,
    E_VAL_OBJECT,
    E_VAL_ARRAY,
    E_VAL_STRING,
    E_VAL_NUM_DIGIT,
    E_VAL_NUM_MINUS,
    E_VAL_LIT_T,
    E_VAL_LIT_F,
    E_VAL_LIT_N,
    E_VAL_BAD_CHAR,
    E_OBJ_OPEN,
    E_OBJ_EMPTY,
    E_OBJ_KEY,
    E_OBJ_COLON,
    E_OBJ_NO_COLON,
    E_OBJ_COMMA,
    E_OBJ_CLOSE,
    E_OBJ_UNTERMINATED,
    E_OBJ_BAD_KEY,
    E_ARR_OPEN,
    E_ARR_EMPTY,
    E_ARR_ELEMENT,
    E_ARR_COMMA,
    E_ARR_CLOSE,
    E_ARR_UNTERMINATED,
    E_ARR_BAD_SEP,
    E_STR_OPEN,
    E_STR_PLAIN,
    E_STR_ESC_SIMPLE,
    E_STR_ESC_U,
    E_STR_ESC_U_BAD,
    E_STR_ESC_BAD,
    E_STR_CLOSE,
    E_STR_UNTERMINATED,
    E_STR_CONTROL,
    E_NUM_INT,
    E_NUM_LEADING_ZERO,
    E_NUM_FRAC,
    E_NUM_EXP,
    E_NUM_EXP_SIGN,
    E_NUM_BAD,
    E_LIT_TRUE,
    E_LIT_FALSE,
    E_LIT_NULL,
    E_LIT_BAD,
    E_DEEP_NESTING,
    DEEP_NESTING_AT,
    E_TOP_TRAILING,
    E_TOP_CLEAN_EOF,
    MAX_INPUT,
    ExecResult,
)

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
