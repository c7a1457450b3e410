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

from .recipe import encode_token

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

DEFAULT_TOKENS = ("FUZZ", "MAGIC", "TOKEN")
DEFAULT_RECIPE_ID = "rule_default"
DEFAULT_TTL_SEC = 1800
FOCUS_HEAD_BYTES = 4096


def default_recipe_doc() -> str:
    """The controller's default rule recipe: token insertions and
    overwrites biased to the head of the buffer."""
    return json.dumps(
        {
            "id": DEFAULT_RECIPE_ID,
            "selector": {"mode": "mode", "key": "any"},
            "priority": 3,
            "ttl_sec": DEFAULT_TTL_SEC,
            "operator_weights": REFERENCE_WEIGHTS,
            "focus_ranges": [[0, FOCUS_HEAD_BYTES]],
            "protect_ranges": [],
            "dictionary_tokens": list(DEFAULT_TOKENS),
            "expected_signal": "generic token coverage over the buffer head",
        }
    )


class RuleProvider:
    """Deterministic built-in provider; covers every intervention type."""

    name = "rule"

    def propose(self, blackboard: dict, intervention: str) -> str | None:
        if intervention == "default":
            return default_recipe_doc()
        if intervention == "dictionary":
            tokens = list(DEFAULT_TOKENS)
            ctx = blackboard.get("static_context", {})
            if ctx.get("available") and ctx.get("tokens"):
                tokens = list(ctx["tokens"])[:16]
            return json.dumps(
                {
                    "id": "rule_dictionary",
                    "selector": {"mode": "mode", "key": "any"},
                    "priority": 3,
                    "ttl_sec": DEFAULT_TTL_SEC,
                    "operator_weights": REFERENCE_WEIGHTS,
                    "focus_ranges": [[0, FOCUS_HEAD_BYTES]],
                    "protect_ranges": [],
                    "dictionary_tokens": tokens,
                    "expected_signal": "exercise extracted vocabulary",
                }
            )
        seeds = blackboard.get("snapshot", {}).get("seeds", [])
        if intervention in ("seed_focus", "per_seed_recipe") and not seeds:
            # No seed to scope to: the global default recipe takes the slot.
            return default_recipe_doc()
        if intervention == "seed_focus":
            # Focus the shortest snapshot seed: cheap to mutate densely.
            chosen = min(seeds, key=lambda s: (s["size"], s["seed_id"]))
            return json.dumps(
                {
                    "id": "rule_seed_focus",
                    "selector": {"mode": "seed_hash", "key": chosen["seed_hash"]},
                    "priority": 4,
                    "ttl_sec": DEFAULT_TTL_SEC,
                    "operator_weights": REFERENCE_WEIGHTS,
                    "focus_ranges": [[0, 256]],
                    "protect_ranges": [],
                    "dictionary_tokens": list(DEFAULT_TOKENS),
                    "expected_signal": "dense edits on the shortest seed",
                }
            )
        if intervention == "per_seed_recipe":
            # Largest seed: most room for splices and deletions.
            chosen = max(seeds, key=lambda s: (s["size"], s["seed_id"]))
            weights = dict(REFERENCE_WEIGHTS)
            weights["Splice"] = 0.30
            weights["DeleteBlock"] = 0.10
            weights["InsertToken"] = 0.20
            weights["DictionaryOverwrite"] = 0.17
            return json.dumps(
                {
                    "id": "rule_per_seed",
                    "selector": {"mode": "seed_id", "key": chosen["seed_id"]},
                    "priority": 2,
                    "ttl_sec": DEFAULT_TTL_SEC,
                    "operator_weights": weights,
                    "focus_ranges": [],
                    "protect_ranges": [],
                    "dictionary_tokens": list(DEFAULT_TOKENS),
                    "expected_signal": "structural edits on the largest seed",
                }
            )
        return None


class StaticTokenProvider:
    """Proposes dictionary recipes built from an extracted token list."""

    name = "static-dict"

    def __init__(self, tokens, interventions=("dictionary",), max_tokens: int = 16):
        self._encoded = [
            encode_token(t if isinstance(t, bytes) else t.encode("ascii"))
            for t in list(tokens)[:max_tokens]
        ]
        self.interventions = tuple(interventions)

    def propose(self, blackboard: dict, intervention: str) -> str | None:
        if intervention not in self.interventions or not self._encoded:
            return None
        return json.dumps(
            {
                "id": f"static_dict_{intervention}",
                "selector": {"mode": "mode", "key": "any"},
                "priority": 4,
                "ttl_sec": DEFAULT_TTL_SEC,
                "operator_weights": REFERENCE_WEIGHTS,
                "focus_ranges": [],
                "protect_ranges": [],
                "dictionary_tokens": self._encoded,
                "expected_signal": "drive comparisons with extracted literals",
            }
        )
