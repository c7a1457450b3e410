"""Proposal providers: where candidate recipes come from.

A provider is anything with a ``name`` and a ``propose(blackboard_doc,
intervention)`` method returning a recipe document (or None to pass on a
slot). Providers are consulted only from the plateau handler, never from
the mutation path. The built-in rule provider is deterministic and always
produces a schema-valid document, so it backs every candidate slot when
no external provider answers; an external model-backed client is just
another provider plugged into the same seam.

Providers see one blackboard per distinct corpus: a plateau that finds
the corpus the gate last judged skips the gate without consulting them.
On a saturated corpus with a re-arming detector, a model-backed provider
is therefore asked once, not once per plateau.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence

from .recipe import MAX_TOKEN_LEN, encode_token

# Reference operator-weight distribution used by the built-in recipes:
# token-heavy, with light structural edits.
REFERENCE_WEIGHTS = {
    "InsertToken": 0.35,
    "DictionaryOverwrite": 0.25,
    "Splice": 0.15,
    "OverwriteRange": 0.10,
    "BitFlip": 0.10,
    "Arith": 0.03,
    "DeleteBlock": 0.02,
}

DEFAULT_TOKENS = (b"FUZZ", b"MAGIC", b"TOKEN")
DEFAULT_RECIPE_ID = "rule_default"
DEFAULT_TTL_SEC = 1800
# The built-in focus range [0, FOCUS_HEAD_BYTES) spans every input a
# campaign holds (micro.MAX_SIZE, 1024 bytes), so it biases nothing.
FOCUS_HEAD_BYTES = 4096
# Most extracted tokens a dictionary recipe carries.
DICTIONARY_TOKENS = 16
GLOBAL_SELECTOR = ("mode", "any")


def usable_tokens(tokens: Iterable[bytes]) -> list[bytes]:
    """The first DICTIONARY_TOKENS tokens a recipe can carry (1 to
    MAX_TOKEN_LEN bytes); any other token is skipped."""
    return [t for t in tokens if 1 <= len(t) <= MAX_TOKEN_LEN][:DICTIONARY_TOKENS]


def recipe_doc(
    recipe_id: str,
    expected_signal: str,
    *,
    priority: int,
    selector: tuple[str, str] = GLOBAL_SELECTOR,
    weights: dict[str, float] = REFERENCE_WEIGHTS,
    focus: Sequence[tuple[int, int]] = (),
    protect: Sequence[tuple[int, int]] = (),
    tokens: Iterable[bytes] = DEFAULT_TOKENS,
) -> str:
    """The document of one built-in recipe, keys in RECIPE_FIELDS order.

    selector is a (mode, key) pair, focus and protect are (start, end)
    pairs, and tokens are bytes, escaped with encode_token. The TTL is
    DEFAULT_TTL_SEC. Unless given, a recipe applies to every seed, uses
    the reference weights over the whole buffer and the default tokens.
    """
    return json.dumps(
        {
            "id": recipe_id,
            "selector": {"mode": selector[0], "key": selector[1]},
            "priority": priority,
            "ttl_sec": DEFAULT_TTL_SEC,
            "operator_weights": weights,
            "focus_ranges": [list(r) for r in focus],
            "protect_ranges": [list(r) for r in protect],
            "dictionary_tokens": [encode_token(t) for t in tokens],
            "expected_signal": expected_signal,
        }
    )


def default_recipe_doc() -> str:
    """The controller's default rule recipe: token insertions and
    overwrites anywhere in a campaign input (its focus spans all of it)."""
    return recipe_doc(
        DEFAULT_RECIPE_ID,
        "generic token coverage over the buffer head",
        priority=3,
        focus=[(0, FOCUS_HEAD_BYTES)],
    )


class RuleProvider:
    """Deterministic built-in provider; covers every intervention type."""

    name = "rule"

    def propose(self, blackboard: dict, intervention: str) -> str | None:
        if intervention == "default":
            return default_recipe_doc()
        if intervention == "dictionary":
            ctx = blackboard.get("static_context", {})
            tokens = []
            if ctx.get("available"):
                # The blackboard carries static tokens as latin-1 text.
                tokens = usable_tokens(t.encode("latin-1") for t in ctx.get("tokens", ()))
            return recipe_doc(
                "rule_dictionary",
                "exercise extracted vocabulary",
                priority=3,
                focus=[(0, FOCUS_HEAD_BYTES)],
                tokens=tokens or DEFAULT_TOKENS,
            )
        seeds = blackboard.get("snapshot", {}).get("seeds", [])
        if intervention in ("seed_focus", "per_seed_recipe") and not seeds:
            # No seed to scope to: the global default recipe takes the slot.
            return default_recipe_doc()
        if intervention == "seed_focus":
            # Focus the shortest snapshot seed: cheap to mutate densely.
            chosen = min(seeds, key=lambda s: (s["size"], s["seed_id"]))
            return recipe_doc(
                "rule_seed_focus",
                "dense edits on the shortest seed",
                selector=("seed_hash", chosen["seed_hash"]),
                priority=4,
                focus=[(0, 256)],
            )
        if intervention == "per_seed_recipe":
            # Largest seed: most room for splices and deletions.
            chosen = max(seeds, key=lambda s: (s["size"], s["seed_id"]))
            weights = dict(REFERENCE_WEIGHTS)
            weights["Splice"] = 0.30
            weights["DeleteBlock"] = 0.10
            weights["InsertToken"] = 0.20
            weights["DictionaryOverwrite"] = 0.17
            return recipe_doc(
                "rule_per_seed",
                "structural edits on the largest seed",
                selector=("seed_id", chosen["seed_id"]),
                priority=2,
                weights=weights,
            )
        return None


class StaticTokenProvider:
    """Proposes a dictionary recipe built from an extracted token list."""

    name = "static-dict"

    def __init__(self, tokens):
        # With no usable token the provider passes on every slot.
        self._tokens = usable_tokens(
            t if isinstance(t, bytes) else t.encode("ascii") for t in tokens
        )

    def propose(self, blackboard: dict, intervention: str) -> str | None:
        if intervention != "dictionary" or not self._tokens:
            return None
        return recipe_doc(
            "static_dict_dictionary",
            "drive comparisons with extracted literals",
            priority=4,
            tokens=self._tokens,
        )
