"""Mutation recipes: the data objects that drive the mutation engine.

A recipe is a small JSON document describing a mutation strategy: a weight
per operator, byte ranges the mutator should focus on or must not touch,
dictionary tokens, and a corpus selector. Recipes are validated strictly on
parse (malformed proposals are dropped, never repaired) and then lowered to
a compact immutable form that the hot path consumes.
"""

from __future__ import annotations

import enum
import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field

MAX_RANGE_END = 2**32
MAX_TOKEN_LEN = 64
MAX_TOKEN_COUNT = 256

SELECTOR_MODES = ("mode", "seed_id", "seed_hash", "family")

RECIPE_FIELDS = (
    "id",
    "selector",
    "priority",
    "ttl_sec",
    "operator_weights",
    "focus_ranges",
    "protect_ranges",
    "dictionary_tokens",
    "expected_signal",
)


class OperatorKind(enum.Enum):
    """The closed seven-operator mutation vocabulary.

    Members hash by identity (they are singletons and compare by
    identity): Enum's own __hash__ is a Python-level call, paid on every
    engine operator-table lookup.
    """

    __hash__ = object.__hash__

    BitFlip = "BitFlip"
    OverwriteRange = "OverwriteRange"
    InsertToken = "InsertToken"
    Arith = "Arith"
    Splice = "Splice"
    DeleteBlock = "DeleteBlock"
    DictionaryOverwrite = "DictionaryOverwrite"


# Canonical dispatch order; cumulative weight tables index into this.
OPERATOR_ORDER = (
    OperatorKind.BitFlip,
    OperatorKind.OverwriteRange,
    OperatorKind.InsertToken,
    OperatorKind.Arith,
    OperatorKind.Splice,
    OperatorKind.DeleteBlock,
    OperatorKind.DictionaryOverwrite,
)

_TOKEN_OPS = (OperatorKind.InsertToken.value, OperatorKind.DictionaryOverwrite.value)

# Writable runs for one (input length, min run length):
# (total start offsets, ((start, end, count), ...)).
RunTable = tuple[int, tuple[tuple[int, int, int], ...]]


class SchemaViolation(ValueError):
    """Raised when a recipe document fails validation.

    Carries the full list of (field_path, reason) pairs so a dropped
    proposal can be audited; the proposal is never partially accepted.
    """

    def __init__(self, violations: list[tuple[str, str]]):
        self.violations = list(violations)
        summary = "; ".join(f"{path}: {reason}" for path, reason in self.violations)
        super().__init__(f"recipe schema violation: {summary}")


@dataclass(frozen=True)
class Selector:
    """Which corpus elements a recipe applies to: a (mode, key) pair."""

    mode: str
    key: str


@dataclass(frozen=True)
class ByteRange:
    """Half-open byte range [start, end)."""

    start: int
    end: int


@dataclass(frozen=True)
class MutationRecipe:
    id: str
    selector: Selector
    priority: int
    ttl_sec: int
    operator_weights: dict[str, float]
    focus_ranges: tuple[ByteRange, ...] = ()
    protect_ranges: tuple[ByteRange, ...] = ()
    dictionary_tokens: tuple[bytes, ...] = ()
    # Free-text prediction of what the recipe should achieve. Audit-only:
    # nothing on the mutation path ever reads it.
    expected_signal: str = ""


@dataclass(frozen=True)
class CompactRecipe:
    """Lowered hot-path form: what `mutate` and the controller read.

    Cumulative operator weights, merged focus and protect ranges, and the
    decoded dictionary tokens. run_tables is the engine's cache of
    writable-run tables, keyed by (input length, min run length). It is
    derived from the ranges alone, so it takes no part in equality,
    hashing or repr, and every new instance (dataclasses.replace
    included) starts with an empty one.
    """

    id: str
    selector: Selector
    cumulative_weights: tuple[float, ...]
    focus_ranges: tuple[ByteRange, ...]
    protect_ranges: tuple[ByteRange, ...]
    tokens: tuple[bytes, ...]
    run_tables: dict[tuple[int, int], RunTable] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )


def encode_token(token: bytes) -> str:
    """Encode token bytes for a recipe document; non-printable, quote and
    backslash bytes become \\xNN escapes."""
    out = []
    for b in token:
        if 0x20 <= b <= 0x7E and b not in (0x22, 0x5C):
            out.append(chr(b))
        else:
            out.append(f"\\x{b:02x}")
    return "".join(out)


def decode_token(text: str) -> bytes:
    """Inverse of encode_token. Raises ValueError on a malformed escape."""
    out = bytearray()
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\":
            if text[i + 1 : i + 2] != "x":
                raise ValueError(f"lone backslash at index {i}")
            hexpart = text[i + 2 : i + 4]
            if len(hexpart) != 2:
                raise ValueError(f"truncated \\x escape at index {i}")
            try:
                out.append(int(hexpart, 16))
            except ValueError:
                raise ValueError(f"bad \\x escape {hexpart!r} at index {i}") from None
            i += 4
            continue
        code = ord(ch)
        if code > 0x7E or code < 0x20:
            raise ValueError(f"non-printable character {code:#x} at index {i}")
        out.append(code)
        i += 1
    return bytes(out)


def _reject_duplicate_keys(pairs):
    seen = set()
    obj = {}
    for key, value in pairs:
        if key in seen:
            raise ValueError(f"duplicate key {key!r}")
        seen.add(key)
        obj[key] = value
    return obj


def validate_recipe(recipe: MutationRecipe) -> list[tuple[str, str]]:
    """Check every recipe invariant; returns the (possibly empty) violation list."""
    bad: list[tuple[str, str]] = []

    if not isinstance(recipe.id, str) or not recipe.id:
        bad.append(("id", "must be a non-empty string"))

    if recipe.selector.mode not in SELECTOR_MODES:
        bad.append(("selector.mode", f"unknown mode {recipe.selector.mode!r}"))
    if not isinstance(recipe.selector.key, str) or not recipe.selector.key:
        bad.append(("selector.key", "must be a non-empty string"))

    for name, value in (("priority", recipe.priority), ("ttl_sec", recipe.ttl_sec)):
        if isinstance(value, bool) or not isinstance(value, int):
            bad.append((name, "must be an integer"))
        elif value < 1:
            bad.append((name, "must be >= 1"))

    known = {op.value for op in OPERATOR_ORDER}
    total = 0.0
    needs_tokens = False
    for name, weight in recipe.operator_weights.items():
        path = f"operator_weights.{name}"
        if name not in known:
            bad.append((path, "unknown operator"))
            continue
        if name in _TOKEN_OPS and isinstance(weight, (int, float)) and weight > 0:
            needs_tokens = True
        if isinstance(weight, bool) or not isinstance(weight, (int, float)):
            bad.append((path, "weight must be numeric"))
        elif weight < 0:
            bad.append((path, "weight must be >= 0"))
        elif weight > 1:
            bad.append((path, "weight must be <= 1"))
        elif not math.isfinite(weight):
            # NaN, which passes both comparisons.
            bad.append((path, "weight must be finite"))
        else:
            total += float(weight)
    if not bad and total <= 0.0:
        bad.append(("operator_weights", "weights must sum to > 0"))

    for list_name, ranges in (
        ("focus_ranges", recipe.focus_ranges),
        ("protect_ranges", recipe.protect_ranges),
    ):
        for i, r in enumerate(ranges):
            path = f"{list_name}[{i}]"
            if not isinstance(r.start, int) or not isinstance(r.end, int):
                bad.append((path, "bounds must be integers"))
            elif r.start < 0:
                bad.append((path, "start must be >= 0"))
            elif r.end <= r.start:
                bad.append((path, "end must be > start (half-open [a, b))"))
            elif r.end > MAX_RANGE_END:
                bad.append((path, f"end must be <= {MAX_RANGE_END}"))

    if len(recipe.dictionary_tokens) > MAX_TOKEN_COUNT:
        bad.append(("dictionary_tokens", f"at most {MAX_TOKEN_COUNT} tokens"))
    for i, tok in enumerate(recipe.dictionary_tokens):
        if not 1 <= len(tok) <= MAX_TOKEN_LEN:
            bad.append((f"dictionary_tokens[{i}]", f"token length must be 1..{MAX_TOKEN_LEN} bytes"))

    if needs_tokens and not recipe.dictionary_tokens:
        bad.append(
            ("dictionary_tokens", "must be non-empty when InsertToken or DictionaryOverwrite has weight > 0")
        )

    return bad


def parse_recipe(text: str | bytes) -> MutationRecipe:
    """Parse and validate a recipe document.

    Raises SchemaViolation with the full violation list on any defect;
    a document either yields a fully valid recipe or nothing.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaViolation([("<document>", f"not UTF-8: {exc}")]) from None
    try:
        doc = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except ValueError as exc:
        raise SchemaViolation([("<document>", f"not valid JSON: {exc}")]) from None
    if not isinstance(doc, dict):
        raise SchemaViolation([("<document>", "top level must be an object")])

    bad: list[tuple[str, str]] = []
    for key in doc:
        if key not in RECIPE_FIELDS:
            bad.append((key, "unknown field"))
    for key in ("id", "selector", "priority", "ttl_sec", "operator_weights"):
        if key not in doc:
            bad.append((key, "required field missing"))
    if bad:
        raise SchemaViolation(bad)

    sel_raw = doc["selector"]
    if not isinstance(sel_raw, dict) or set(sel_raw) != {"mode", "key"}:
        bad.append(("selector", "must be an object with exactly mode and key"))
        selector = Selector("", "")
    else:
        selector = Selector(sel_raw["mode"], sel_raw["key"])

    weights_raw = doc["operator_weights"]
    if not isinstance(weights_raw, dict):
        bad.append(("operator_weights", "must be an object"))
        weights_raw = {}

    def _ranges(name: str) -> tuple[ByteRange, ...]:
        raw = doc.get(name, [])
        if not isinstance(raw, list):
            bad.append((name, "must be a list"))
            return ()
        out = []
        for i, pair in enumerate(raw):
            if not isinstance(pair, list) or len(pair) != 2 or any(
                isinstance(v, bool) or not isinstance(v, int) for v in pair
            ):
                bad.append((f"{name}[{i}]", "must be an [int, int] pair"))
                continue
            out.append(ByteRange(pair[0], pair[1]))
        return tuple(out)

    focus = _ranges("focus_ranges")
    protect = _ranges("protect_ranges")

    tokens_raw = doc.get("dictionary_tokens", [])
    tokens: list[bytes] = []
    if not isinstance(tokens_raw, list):
        bad.append(("dictionary_tokens", "must be a list"))
    else:
        for i, item in enumerate(tokens_raw):
            if not isinstance(item, str):
                bad.append((f"dictionary_tokens[{i}]", "must be a string"))
                continue
            try:
                tokens.append(decode_token(item))
            except ValueError as exc:
                bad.append((f"dictionary_tokens[{i}]", str(exc)))

    signal = doc.get("expected_signal", "")
    if not isinstance(signal, str):
        bad.append(("expected_signal", "must be a string"))
        signal = ""

    # Scalar fields go to validate_recipe as the document gave them, so a
    # wrong type is reported as one, not coerced.
    recipe = MutationRecipe(
        id=doc["id"],
        selector=selector,
        priority=doc["priority"],
        ttl_sec=doc["ttl_sec"],
        operator_weights={str(k): v for k, v in weights_raw.items()},
        focus_ranges=focus,
        protect_ranges=protect,
        dictionary_tokens=tuple(tokens),
        expected_signal=signal,
    )
    bad.extend(validate_recipe(recipe))
    if bad:
        raise SchemaViolation(bad)
    return recipe


def merge_ranges(ranges: tuple[ByteRange, ...] | list[ByteRange]) -> tuple[ByteRange, ...]:
    """Sort ranges and merge overlapping or adjacent ones."""
    if not ranges:
        return ()
    ordered = sorted(ranges, key=lambda r: (r.start, r.end))
    merged = [ordered[0]]
    for r in ordered[1:]:
        last = merged[-1]
        if r.start <= last.end:
            if r.end > last.end:
                merged[-1] = ByteRange(last.start, r.end)
        else:
            merged.append(r)
    return tuple(merged)


def lower_recipe(recipe: MutationRecipe) -> CompactRecipe:
    """Lower a validated recipe to its compact hot-path form.

    Weights are normalized here (proposals may arrive unnormalized); the
    cumulative table's final entry is pinned to exactly 1.0. Focus and
    protect ranges come out sorted, merged and disjoint.
    """
    bad = validate_recipe(recipe)
    if bad:
        raise SchemaViolation(bad)

    raw = [float(recipe.operator_weights.get(op.value, 0.0)) for op in OPERATOR_ORDER]
    # validate_recipe guarantees a positive total.
    total = sum(raw)
    cumulative: list[float] = []
    acc = 0.0
    for w in raw:
        acc += w / total
        cumulative.append(acc)
    cumulative[-1] = 1.0

    return CompactRecipe(
        id=recipe.id,
        selector=recipe.selector,
        cumulative_weights=tuple(cumulative),
        focus_ranges=merge_ranges(recipe.focus_ranges),
        protect_ranges=merge_ranges(recipe.protect_ranges),
        tokens=recipe.dictionary_tokens,
    )


def choose_operator(compact: CompactRecipe, rng) -> OperatorKind:
    """Sample one operator by the compact recipe's weights.

    Pure function of (compact, rng state); advances the rng by exactly
    one draw. Zero-weight operators occupy flat segments of the cumulative
    table and are never selected.
    """
    u = rng.random()
    return OPERATOR_ORDER[bisect_right(compact.cumulative_weights, u)]
