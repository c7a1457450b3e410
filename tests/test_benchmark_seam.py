"""The names campaignbench/child.py builds and wraps.

The benchmark is not part of this suite, so this guard fails here first
when a rename or a dropped field would break it.
"""

from recipefuzz import controller, micro, providers
from recipefuzz.engine import BENCH_CONFIGS, bench_dispatch, make_entry
from recipefuzz.plateau import REARM_AFTER_COOLDOWN, DetectorConfig
from recipefuzz.targets import ExecResult, default_seeds, get_target

CONTROLLER_WRAPPED = (
    "mutate",
    "merge_into",
    "observe",
    "check_plateau",
    "snapshot_corpus",
    "propose_candidates",
    "evaluate_candidate",
    "decide_winner",
    "run_campaign",
)
MICRO_WRAPPED = ("mutate", "merge_into")


def test_benchmark_seam(tmp_path):
    for name in CONTROLLER_WRAPPED:
        assert callable(getattr(controller, name)), f"controller.{name}"
    for name in MICRO_WRAPPED:
        assert callable(getattr(micro, name)), f"micro.{name}"
    for cls in (providers.RuleProvider, providers.StaticTokenProvider):
        assert callable(cls.propose)
    assert BENCH_CONFIGS and callable(bench_dispatch)

    # The keyword sets the workloads and the gate probes pass.
    DetectorConfig(rearm_policy=REARM_AFTER_COOLDOWN, cooldown_sec=30)
    probe = DetectorConfig(theta_paths=1 << 30)

    # The bigram executor builds its results positionally.
    assert ExecResult(frozenset(), False, 0).edges_hit == frozenset()

    # The workloads set these fields, and the probes reassign two of them.
    config = controller.CampaignConfig(
        target="bigram",
        output_dir=tmp_path,
        budget_execs=1,
        rng_seed=0,
        providers=(providers.StaticTokenProvider([b"XKEY1"]),),
        map_capacity=1 << 16,
    )
    config.detector = probe
    config.budget_execs = 2

    # The traced benchmark counts len(ref.entries) per snapshot.
    entries = [make_entry(name, name.encode()) for name in ("b", "c", "a")]
    ref = controller.snapshot_corpus(entries)
    assert ref.entries == tuple(sorted(entries, key=lambda e: e.seed_id))


def test_wrapped_names_are_called(tmp_path, monkeypatch):
    # The benchmark wraps these module attributes; a call that bypasses
    # one would leave its layer with no spans, which the traced benchmark
    # reads as 0.0 rather than failing.
    calls = {}

    def count(module, name):
        real = getattr(module, name)
        key = f"{module.__name__}.{name}"
        calls[key] = 0

        def counted(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for name in CONTROLLER_WRAPPED:
        if name != "run_campaign":
            count(controller, name)
    for name in MICRO_WRAPPED:
        count(micro, name)

    config = controller.CampaignConfig(
        target="staircase",
        output_dir=tmp_path / "run",
        budget_execs=3000,
        rng_seed=3,
        providers=(providers.StaticTokenProvider([b"XKEY1"]),),
        detector=DetectorConfig(rearm_policy=REARM_AFTER_COOLDOWN, cooldown_sec=30),
    )
    controller.run_campaign(config)
    assert all(calls.values()), calls


def test_seeds_are_the_first_executes(tmp_path, monkeypatch):
    # child.mark_first_loop_exec times set-up up to execute call
    # len(seeds) + 1, taking the first len(seeds) calls to be the seeds,
    # in order. An extra set-up execute would shift that mark silently.
    executed = []

    class Recording:
        def execute(self, data):
            executed.append(data)
            return target.execute(data)

    seen_at_first_mutate = []
    real_mutate = controller.mutate

    def mutate(*args, **kwargs):
        if not seen_at_first_mutate:
            seen_at_first_mutate.append(len(executed))
        return real_mutate(*args, **kwargs)

    monkeypatch.setattr(controller, "mutate", mutate)
    target = get_target("staircase")
    seeds = default_seeds("staircase")
    config = controller.CampaignConfig(
        target="staircase",
        output_dir=tmp_path / "run",
        budget_execs=len(seeds) + 8,
        rng_seed=0,
    )
    controller.run_campaign(config, Recording(), seeds)
    assert executed[: len(seeds)] == [data for _, data in seeds]
    assert seen_at_first_mutate == [len(seeds)]
