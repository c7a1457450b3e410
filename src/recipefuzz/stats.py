"""Campaign statistics: run-artifact aggregation and the comparison toolkit.

Implements the two-group comparison machinery used to evaluate campaigns:
two-sided Mann-Whitney U (exact, tie-aware enumeration of rank arrangements
for small samples, scipy's asymptotic test otherwise; NaN is rejected),
Vargha-Delaney A12 effect size, percentile-bootstrap median confidence
intervals, and a TOST equivalence check for throughput parity. Also parses
run-artifact trees (fuzzer_stats, coverage series, event log) into per-run
rows with plateau arithmetic and acceptance gates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np
from scipy.stats import mannwhitneyu, rankdata, ttest_ind

# Exact enumeration applies up to this smaller-sample size; beyond it (or
# beyond the arrangement cap) the normal approximation takes over.
EXACT_MIN_N = 8
EXACT_ARRANGEMENT_CAP = 5_000_000

GATE_MIN_RUN_TIME = 14_000
GATE_MIN_EXECS = 1_000_000
GATE_MIN_COVERAGE_ROWS = 200

REQUIRED_ARTIFACTS = ("fuzzer_stats", "coverage.csv", "events.jsonl", "run_metadata.json")


class EmptySample(ValueError):
    pass


class DegenerateVariance(ValueError):
    pass


class NonMonotonicSeries(ValueError):
    pass


class MissingArtifact(ValueError):
    def __init__(self, run_id: str, artifact: str):
        self.run_id = run_id
        self.artifact = artifact
        super().__init__(f"run {run_id}: missing artifact {artifact}")


def _rank_test(x, y):
    """Both samples as lists plus scipy's asymptotic Mann-Whitney result.

    Its statistic is the U of x with ties credited 0.5; a NaN in either
    sample raises ValueError.
    """
    x, y = list(x), list(y)
    if not x or not y:
        raise EmptySample("both samples must be non-empty")
    return x, y, mannwhitneyu(x, y, method="asymptotic", nan_policy="raise")


def mann_whitney(x, y) -> tuple[float, float]:
    """Two-sided Mann-Whitney U test; returns (U, p).

    U is min(Ux, Uy) with ties credited 0.5. When the smaller sample has
    at most 8 elements the p-value is exact: the proportion of all
    C(n+m, n) rank arrangements whose min-U is at least as extreme as the
    observed one, ties credited half. Larger samples use scipy's normal
    approximation with tie and continuity correction. NaN raises
    ValueError.
    """
    x, y, res = _rank_test(x, y)
    n, m = len(x), len(y)
    prod = n * m
    ux = float(res.statistic)
    u_obs = min(ux, prod - ux)

    arrangements = math.comb(n + m, n)
    if min(n, m) > EXACT_MIN_N or arrangements > EXACT_ARRANGEMENT_CAP:
        return u_obs, float(res.pvalue)
    # Plain floats keep the enumeration loop out of numpy scalars.
    ranks = rankdata(x + y).tolist()
    extreme = 0
    offset = n * (n + 1) / 2
    for comb in combinations(range(n + m), n):
        ux_c = sum(ranks[i] for i in comb) - offset
        if min(ux_c, prod - ux_c) <= u_obs + 1e-9:
            extreme += 1
    return u_obs, extreme / arrangements


def vargha_delaney_a12(x, y) -> float:
    """A12: probability a draw from x exceeds a draw from y, ties half."""
    x, y, res = _rank_test(x, y)
    return float(res.statistic) / (len(x) * len(y))


def bootstrap_median_ci(x, resamples: int = 10_000, seed: int = 0) -> tuple[float, float]:
    """Percentile-bootstrap 95% CI for the median, deterministic per seed."""
    arr = np.asarray(list(x), dtype=float)
    if arr.size == 0:
        raise EmptySample("sample must be non-empty")
    if resamples < 1:
        raise ValueError("resamples must be >= 1")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, arr.size, size=(resamples, arr.size))
    medians = np.median(arr[idx], axis=1)
    lo, hi = np.percentile(medians, [2.5, 97.5])
    return float(lo), float(hi)


def tost_equivalence(x, y, band: float = 0.05) -> float:
    """Two one-sided tests for throughput equivalence within a relative band.

    Works on log-transformed values with unequal-variance (Welch) one-sided
    t tests against margins +-log(1 + band); returns the larger of the two
    one-sided p-values. Small p supports equivalence.
    """
    x, y = list(x), list(y)
    if len(x) < 2 or len(y) < 2:
        raise EmptySample("both samples need at least 2 elements")
    if any(v <= 0 for v in x) or any(v <= 0 for v in y):
        raise ValueError("samples must be strictly positive")
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    v1 = float(lx.var(ddof=1))
    v2 = float(ly.var(ddof=1))
    if v1 == 0 and v2 == 0:
        raise DegenerateVariance("both samples are constant")
    if v1 / len(x) + v2 / len(y) == 0:
        raise DegenerateVariance("zero standard error")
    margin = math.log(1.0 + band)
    # Shifting lx by the margin tests the mean difference against it.
    p_lower = ttest_ind(lx + margin, ly, equal_var=False, alternative="greater").pvalue
    p_upper = ttest_ind(lx - margin, ly, equal_var=False, alternative="less").pvalue
    return float(max(p_lower, p_upper))


def time_to_n_edges(series, n: int) -> float | None:
    """Earliest time at which the coverage series reaches n edges.

    Returns None when the series never gets there. Timestamps must be
    nondecreasing.
    """
    rows = list(series)
    for (t_prev, _), (t_cur, _) in zip(rows, rows[1:]):
        if t_cur < t_prev:
            raise NonMonotonicSeries(f"time went backwards at t={t_cur}")
    for t, edges in rows:
        if edges >= n:
            return t
    return None


@dataclass(frozen=True)
class StatsSummary:
    u: float
    p_two_sided: float
    a12: float


@dataclass(frozen=True)
class RunRow:
    mode: str
    run_id: str
    run_time: float
    last_find: float
    execs_done: int
    execs_per_sec: float
    cycles_done: int
    corpus_count: int
    edges_found: int
    plateau_sec: float
    coverage_rows: int
    gates_passed: bool


@dataclass(frozen=True)
class ModeSummary:
    mode: str
    runs: int
    median_plateau: float
    plateau_ci: tuple[float, float]
    median_last_find: float
    median_execs_per_sec: float
    median_edges: int
    vs_baseline: StatsSummary | None


def parse_fuzzer_stats(text: str) -> dict[str, str]:
    """Parse the `key : value` lines of a fuzzer_stats file."""
    stats: dict[str, str] = {}
    for line in text.splitlines():
        if ":" not in line:
            continue
        key, _, value = line.partition(":")
        stats[key.strip()] = value.strip()
    return stats


def load_coverage_series(path: Path) -> list[tuple[float, int]]:
    series = []
    lines = path.read_text().splitlines()
    for line in lines[1:]:  # header row
        if not line.strip():
            continue
        t_str, edges_str = line.split(",")
        series.append((float(t_str), int(edges_str)))
    return series


def parse_run_dir(run_dir: Path) -> RunRow:
    run_id = run_dir.name
    for artifact in REQUIRED_ARTIFACTS:
        if not (run_dir / artifact).is_file():
            raise MissingArtifact(run_id, artifact)
    meta = json.loads((run_dir / "run_metadata.json").read_text())
    stats = parse_fuzzer_stats((run_dir / "fuzzer_stats").read_text())
    coverage_rows = len(load_coverage_series(run_dir / "coverage.csv"))

    run_time = float(stats["run_time"])
    last_find = float(stats["last_find"])
    execs_done = int(float(stats["execs_done"]))
    gates = (
        run_time >= GATE_MIN_RUN_TIME
        and execs_done >= GATE_MIN_EXECS
        and coverage_rows >= GATE_MIN_COVERAGE_ROWS
    )
    return RunRow(
        mode=str(meta["mode"]),
        run_id=run_id,
        run_time=run_time,
        last_find=last_find,
        execs_done=execs_done,
        execs_per_sec=float(stats["execs_per_sec"]),
        cycles_done=int(float(stats["cycles_done"])),
        corpus_count=int(float(stats["corpus_count"])),
        edges_found=int(float(stats["edges_found"])),
        plateau_sec=run_time - last_find,
        coverage_rows=coverage_rows,
        gates_passed=gates,
    )


def aggregate(
    run_root: Path | str,
    baseline_mode: str | None = None,
    resamples: int = 10_000,
    seed: int = 0,
) -> tuple[list[RunRow], list[ModeSummary]]:
    """Parse a run-artifact tree into per-run rows and per-mode summaries.

    Each immediate subdirectory of run_root is one run. Summaries carry
    the mode's median plateau with its bootstrap CI plus the pairwise
    U / p / A12 against the named baseline mode (A12 is the probability
    that a baseline plateau exceeds the mode's plateau, ties half).
    """
    run_root = Path(run_root)
    rows = [
        parse_run_dir(d) for d in sorted(run_root.iterdir()) if d.is_dir()
    ]
    if not rows:
        raise EmptySample(f"no run directories under {run_root}")

    by_mode: dict[str, list[RunRow]] = {}
    for row in rows:
        by_mode.setdefault(row.mode, []).append(row)

    baseline_plateaus = None
    if baseline_mode is not None and baseline_mode in by_mode:
        baseline_plateaus = [r.plateau_sec for r in by_mode[baseline_mode]]

    summaries = []
    for mode in sorted(by_mode):
        mode_rows = by_mode[mode]
        plateaus = [r.plateau_sec for r in mode_rows]
        vs = None
        if baseline_plateaus is not None and mode != baseline_mode:
            u, p = mann_whitney(baseline_plateaus, plateaus)
            a12 = vargha_delaney_a12(baseline_plateaus, plateaus)
            vs = StatsSummary(u=u, p_two_sided=p, a12=a12)
        summaries.append(
            ModeSummary(
                mode=mode,
                runs=len(mode_rows),
                median_plateau=float(np.median(plateaus)),
                plateau_ci=bootstrap_median_ci(plateaus, resamples=resamples, seed=seed),
                median_last_find=float(np.median([r.last_find for r in mode_rows])),
                median_execs_per_sec=float(np.median([r.execs_per_sec for r in mode_rows])),
                median_edges=int(np.median([r.edges_found for r in mode_rows])),
                vs_baseline=vs,
            )
        )
    return rows, summaries


def render_rows_csv(rows: list[RunRow]) -> str:
    header = (
        "mode,run_id,run_time,last_find,plateau_sec,execs_done,execs_per_sec,"
        "cycles_done,corpus_count,edges_found,coverage_rows,gates_passed"
    )
    lines = [header]
    for r in rows:
        lines.append(
            f"{r.mode},{r.run_id},{r.run_time:g},{r.last_find:g},{r.plateau_sec:g},"
            f"{r.execs_done},{r.execs_per_sec:g},{r.cycles_done},{r.corpus_count},"
            f"{r.edges_found},{r.coverage_rows},{int(r.gates_passed)}"
        )
    return "\n".join(lines) + "\n"


def render_summary_report(summaries: list[ModeSummary], baseline_mode: str | None) -> str:
    """Plain-text summary: one block per mode, metric / result / companion."""
    out = []
    for s in summaries:
        out.append(f"mode: {s.mode} (n={s.runs})")
        out.append(
            f"  median plateau      : {s.median_plateau:g} s"
            f"   CI [{s.plateau_ci[0]:g}, {s.plateau_ci[1]:g}]"
        )
        out.append(f"  median last_find    : {s.median_last_find:g} s")
        out.append(f"  median execs_per_sec: {s.median_execs_per_sec:g}")
        out.append(f"  median edges_found  : {s.median_edges}")
        if s.vs_baseline is not None:
            v = s.vs_baseline
            out.append(
                f"  vs {baseline_mode}: U={v.u:g}  p={v.p_two_sided:.2f}  "
                f"A12={v.a12:.2f}  CI [{s.plateau_ci[0]:g}, {s.plateau_ci[1]:g}]"
            )
        out.append("")
    return "\n".join(out)
