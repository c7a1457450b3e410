"""Statistics toolkit: exact rank test against a brute-force oracle,
effect sizes, bootstrap, TOST, and run-tree aggregation."""

import itertools
import random

import pytest

from recipefuzz.stats import (
    DegenerateVariance,
    EmptySample,
    MissingArtifact,
    NonMonotonicSeries,
    aggregate,
    bootstrap_median_ci,
    mann_whitney,
    parse_run_dir,
    render_rows_csv,
    render_summary_report,
    time_to_n_edges,
    tost_equivalence,
    vargha_delaney_a12,
)

from conftest import (
    BASELINE_PLATEAUS,
    FULL_AGENT_PLATEAUS,
    RULE_ONLY_PLATEAUS,
)

# Dispatch-bench throughput replicates used for the equivalence check.
ACTIVE_REPS = [2_645_520, 3_008_030, 3_561_610, 1_746_280, 3_039_270]
EMPTY_REPS = [2_961_850, 3_982_240, 2_080_370, 2_671_850, 4_414_230]


def brute_force_p(x, y):
    """Independent oracle: enumerate every split of the pooled values and
    count arrangements whose min-U (naive pair counting) is at least as
    extreme as the observed one."""

    def u_min(xs, ys):
        ux = 0.0
        for a in xs:
            for b in ys:
                if a > b:
                    ux += 1.0
                elif a == b:
                    ux += 0.5
        return min(ux, len(xs) * len(ys) - ux)

    pooled = list(x) + list(y)
    observed = u_min(x, y)
    n = len(x)
    idx = set(range(len(pooled)))
    total = extreme = 0
    for combo in itertools.combinations(sorted(idx), n):
        chosen = set(combo)
        xs = [pooled[i] for i in combo]
        ys = [pooled[i] for i in idx - chosen]
        total += 1
        if u_min(xs, ys) <= observed + 1e-9:
            extreme += 1
    return extreme / total


class TestMannWhitney:
    def test_main_arm_comparison(self):
        u, p = mann_whitney(BASELINE_PLATEAUS, FULL_AGENT_PLATEAUS)
        assert u == 8
        assert p == pytest.approx(0.42, abs=0.01)

    def test_ablation_comparison(self):
        u, p = mann_whitney(RULE_ONLY_PLATEAUS, BASELINE_PLATEAUS)
        assert u == 4
        assert p == pytest.approx(0.39, abs=0.02)

    def test_separated_samples(self):
        u, p = mann_whitney([1, 2, 3], [4, 5, 6])
        assert u == 0
        assert p == pytest.approx(0.10, abs=1e-12)

    def test_identical_samples(self):
        _, p = mann_whitney([3, 1, 2], [1, 2, 3])
        assert p == 1.0

    def test_order_invariance(self):
        u1, p1 = mann_whitney(BASELINE_PLATEAUS, FULL_AGENT_PLATEAUS)
        u2, p2 = mann_whitney(FULL_AGENT_PLATEAUS, BASELINE_PLATEAUS)
        assert (u1, p1) == (u2, p2)

    def test_exact_matches_brute_force(self):
        rng = random.Random(616)
        for _ in range(200):
            n = rng.randint(1, 5)
            m = rng.randint(1, 5)
            # Small value range forces plenty of ties.
            x = [rng.randint(0, 6) for _ in range(n)]
            y = [rng.randint(0, 6) for _ in range(m)]
            _, p = mann_whitney(x, y)
            assert p == pytest.approx(brute_force_p(x, y), abs=1e-12)

    def test_large_samples_use_approximation(self):
        rng = random.Random(3)
        x = [rng.gauss(0, 1) for _ in range(40)]
        y = [rng.gauss(1.0, 1) for _ in range(40)]
        _, p_shift = mann_whitney(x, y)
        _, p_same = mann_whitney(x, x)
        assert p_shift < 0.01
        assert p_same > 0.9

    def test_empty_sample(self):
        with pytest.raises(EmptySample):
            mann_whitney([], [1])

    @pytest.mark.parametrize(
        "x,y,u,p,a12",
        [
            ([i % 5 for i in range(12)], [(3 * i) % 7 for i in range(15)],
             64.5, 0.2163088013033556, 0.35833333333333334),
            ([1.5 * i for i in range(10)], [2.25 * i + 0.1 for i in range(9)],
             33.0, 0.3477455989106976, 0.36666666666666664),
            ([4] * 9, [4] * 9, 40.5, 1.0, 0.5),
        ],
    )
    def test_approximation_values_pinned(self, x, y, u, p, a12):
        # Both samples exceed EXACT_MIN_N: tie- and continuity-corrected
        # normal approximation.
        u_got, p_got = mann_whitney(x, y)
        assert u_got == u
        assert p_got == pytest.approx(p, abs=1e-12)
        assert vargha_delaney_a12(x, y) == pytest.approx(a12, abs=1e-12)

    @pytest.mark.parametrize("func", [mann_whitney, vargha_delaney_a12])
    def test_nan_rejected(self, func):
        # NaN would otherwise lose every comparison without a word.
        with pytest.raises(ValueError):
            func([1, float("nan"), 3], [2, 4])


class TestA12:
    def test_main_arm_effect(self):
        a = vargha_delaney_a12(BASELINE_PLATEAUS, FULL_AGENT_PLATEAUS)
        assert a == pytest.approx(17 / 25)
        # Brute-force pair count cross-check.
        gt = sum(
            1 for b in BASELINE_PLATEAUS for f in FULL_AGENT_PLATEAUS if b > f
        )
        assert gt == 17

    def test_ablation_effect(self):
        a = vargha_delaney_a12(BASELINE_PLATEAUS, RULE_ONLY_PLATEAUS)
        assert a == pytest.approx(11 / 15)

    def test_identical(self):
        assert vargha_delaney_a12([5, 5], [5, 5]) == 0.5

    def test_duality(self):
        rng = random.Random(12)
        for _ in range(100):
            x = [rng.random() for _ in range(rng.randint(1, 6))]
            y = [rng.random() for _ in range(rng.randint(1, 6))]
            assert vargha_delaney_a12(x, y) + vargha_delaney_a12(y, x) == pytest.approx(1.0)


class TestBootstrap:
    def test_main_arm_cis(self):
        assert bootstrap_median_ci(BASELINE_PLATEAUS, 10_000, seed=0) == (539.0, 3970.0)
        assert bootstrap_median_ci(FULL_AGENT_PLATEAUS, 10_000, seed=0) == (238.0, 3226.0)

    def test_constant_sample(self):
        assert bootstrap_median_ci([5, 5, 5], 1_000, seed=1) == (5.0, 5.0)

    def test_deterministic_per_seed(self):
        a = bootstrap_median_ci([1, 5, 9, 2, 7], 5_000, seed=42)
        b = bootstrap_median_ci([1, 5, 9, 2, 7], 5_000, seed=42)
        assert a == b

    def test_wider_spread_never_narrows(self):
        rng = random.Random(77)
        for _ in range(20):
            base = sorted(rng.uniform(0, 100) for _ in range(7))
            center = base[len(base) // 2]
            widened = [center + (v - center) * 3 for v in base]
            lo1, hi1 = bootstrap_median_ci(base, 2_000, seed=5)
            lo2, hi2 = bootstrap_median_ci(widened, 2_000, seed=5)
            assert (hi2 - lo2) >= (hi1 - lo1) - 1e-9

    def test_empty(self):
        with pytest.raises(EmptySample):
            bootstrap_median_ci([], 100, 0)


class TestTost:
    def test_dispatch_equivalence_value(self):
        p = tost_equivalence(ACTIVE_REPS, EMPTY_REPS, band=0.05)
        assert p == pytest.approx(0.68, abs=0.10)
        # The closed-form Welch df and t-cdf give this value to 1e-12.
        assert p == pytest.approx(0.6678528234809789, abs=1e-12)

    def test_clearly_nonequivalent(self):
        p = tost_equivalence(ACTIVE_REPS, [v * 10 for v in ACTIVE_REPS], band=0.05)
        assert p > 0.99

    def test_degenerate_variance(self):
        with pytest.raises(DegenerateVariance):
            tost_equivalence([5, 5, 5], [5, 5, 5], band=0.05)

    def test_small_sample_rejected(self):
        with pytest.raises(EmptySample):
            tost_equivalence([1], [2, 3], band=0.05)


class TestTimeToN:
    def test_first_crossing(self):
        series = [(0, 10), (60, 264), (120, 269)]
        assert time_to_n_edges(series, 269) == 120

    def test_unreached(self):
        series = [(0, 10), (60, 264), (120, 269)]
        assert time_to_n_edges(series, 270) is None

    def test_boundary_at_start(self):
        assert time_to_n_edges([(0, 5), (10, 5), (20, 7)], 5) == 0

    def test_non_monotonic_time(self):
        with pytest.raises(NonMonotonicSeries):
            time_to_n_edges([(10, 5), (5, 6)], 1)


class TestAggregate:
    def test_plateau_identity(self, fixture_run_tree):
        rows, _ = aggregate(fixture_run_tree, baseline_mode="baseline")
        assert len(rows) == 10
        for row in rows:
            assert row.plateau_sec + row.last_find == row.run_time
        by_id = {r.run_id: r for r in rows}
        assert by_id["e1_baseline_r01"].plateau_sec == 14444 - 11130 == 3314
        baseline = sorted(
            r.plateau_sec for r in rows if r.mode == "baseline"
        )
        assert baseline == sorted(BASELINE_PLATEAUS)

    def test_gates(self, fixture_run_tree, tmp_path):
        rows, _ = aggregate(fixture_run_tree, baseline_mode="baseline")
        assert all(r.gates_passed for r in rows)
        # A run below the exec floor fails its gate.
        bad = tmp_path / "bad_tree" / "e9_baseline_r99"
        bad.mkdir(parents=True)
        src = fixture_run_tree / "e1_baseline_r01"
        for name in ("coverage.csv", "events.jsonl", "run_metadata.json"):
            (bad / name).write_text((src / name).read_text())
        stats_text = (src / "fuzzer_stats").read_text().replace("188492319", "999999")
        (bad / "fuzzer_stats").write_text(stats_text)
        rows2, _ = aggregate(tmp_path / "bad_tree")
        assert rows2[0].execs_done == 999999
        assert not rows2[0].gates_passed

    def test_missing_artifact(self, fixture_run_tree):
        victim = fixture_run_tree / "e1_full_r01" / "coverage.csv"
        victim.unlink()
        with pytest.raises(MissingArtifact) as exc:
            aggregate(fixture_run_tree)
        assert exc.value.artifact == "coverage.csv"

    def test_pairwise_summary_reproduces_comparison(self, fixture_run_tree):
        _, summaries = aggregate(fixture_run_tree, baseline_mode="baseline")
        full = next(s for s in summaries if s.mode == "full")
        assert full.vs_baseline.u == 8
        assert full.vs_baseline.p_two_sided == pytest.approx(0.42, abs=0.01)
        assert full.vs_baseline.a12 == pytest.approx(0.68)
        assert full.plateau_ci == (238.0, 3226.0)
        assert full.median_plateau == 1384
        baseline = next(s for s in summaries if s.mode == "baseline")
        assert baseline.median_plateau == 2532
        assert baseline.plateau_ci == (539.0, 3970.0)

    def test_time_to_ceiling_from_fixture(self, fixture_run_tree):
        from recipefuzz.stats import load_coverage_series

        series = load_coverage_series(
            fixture_run_tree / "e1_baseline_r03" / "coverage.csv"
        )
        assert time_to_n_edges(series, 269) == 2524
        never = load_coverage_series(
            fixture_run_tree / "e1_full_r02" / "coverage.csv"
        )
        assert time_to_n_edges(never, 269) is None

    def test_renderers(self, fixture_run_tree):
        rows, summaries = aggregate(fixture_run_tree, baseline_mode="baseline")
        csv_text = render_rows_csv(rows)
        assert csv_text.splitlines()[0].startswith("mode,run_id")
        assert len(csv_text.splitlines()) == 11
        report = render_summary_report(summaries, "baseline")
        assert "U=8" in report
        assert "p=0.42" in report
        assert "A12=0.68" in report
        # The full arm's CI prints on its plateau line and on its "vs" line.
        assert report.count("CI [238, 3226]") == 2

    def test_parse_run_dir_fields(self, fixture_run_tree):
        row = parse_run_dir(fixture_run_tree / "e1_full_r05")
        assert row.mode == "full"
        assert row.execs_per_sec == 15597
        assert row.edges_found == 269
        assert row.coverage_rows >= 200
