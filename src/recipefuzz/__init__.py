"""recipefuzz: plateau-triggered fuzzing controller with recipe-driven
mutation, a micro-campaign promotion gate, and campaign statistics."""

__version__ = "0.1.0"

from .recipe import (  # noqa: F401
    ByteRange,
    CompactRecipe,
    MutationRecipe,
    OperatorKind,
    SchemaViolation,
    Selector,
    choose_operator,
    lower_recipe,
    parse_recipe,
)
from .engine import (  # noqa: F401
    BenchReport,
    CorpusEntry,
    MutationOutcome,
    bench_dispatch,
    havoc_mutate,
    make_entry,
    mutate,
)
from .micro import (  # noqa: F401
    Candidate,
    MicroResult,
    PromotionDecision,
    RewardWeights,
    compute_reward,
    decide_winner,
    evaluate_candidate,
    snapshot_corpus,
)
from .plateau import (  # noqa: F401
    DetectorConfig,
    DetectorState,
    PlateauEvent,
    TelemetryFrame,
    check_plateau,
    observe,
)
from .controller import CampaignConfig, RunArtifacts, run_campaign  # noqa: F401
