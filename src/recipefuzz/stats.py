"""Campaign statistics: run-artifact aggregation and the comparison toolkit.

Implements the two-group comparison machinery used to evaluate campaigns:
exact two-sided Mann-Whitney U (full enumeration of rank arrangements for
small samples, normal approximation with tie correction otherwise),
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
from scipy.stats import ttest_ind

from .plateau import parse_fuzzer_stats

# Exact enumeration applies up to this smaller-sample size; beyond it (or
# beyond the arrangement cap) the normal approximation takes over.
EXACT_MIN_N = 8
EXACT_ARRANGEMENT_CAP = 5_000_000

GATE_MIN_RUN_TIME = 14_000
GATE_MIN_EXECS = 1_000_000
GATE_MIN_COVERAGE_ROWS = 200

REQUIRED_ARTIFACTS = ("fuzzer_stats", "coverage.csv", "events.jsonl", "run_metadata.json")


class EmptySample(Exception):
    pass


class DegenerateVariance(Exception):
    pass


class NonMonotonicSeries(Exception):
    pass


class MissingArtifact(Exception):
    def __init__(self, run_id: str, artifact: str):
        self.run_id = run_id
        self.artifact = artifact
        super().__init__(f"run {run_id}: missing artifact {artifact}")


def _midranks(values: list[float]) -> list[float]:
    """Fractional ranks (1-based); tied values share the mean rank."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return ranks


def _u_pair(x, y) -> tuple[float, float]:
    """(Ux, Uy) with ties credited 0.5 to each side."""
    ux = 0.0
    for xi in x:
        for yj in y:
            if xi > yj:
                ux += 1.0
            elif xi == yj:
                ux += 0.5
    return ux, len(x) * len(y) - ux


def mann_whitney(x, y) -> tuple[float, float]:
    """Two-sided Mann-Whitney U test; returns (U, p).

    U is min(Ux, Uy) with ties credited 0.5. When the smaller sample has
    at most 8 elements the p-value is exact: the proportion of all
    C(n+m, n) rank arrangements whose min-U is at least as extreme as the
    observed one. Larger samples use the normal approximation with tie
    correction and continuity correction.
    """
    x, y = list(x), list(y)
    if not x or not y:
        raise EmptySample("both samples must be non-empty")
    n, m = len(x), len(y)
    ux, uy = _u_pair(x, y)
    u_obs = min(ux, uy)

    small = min(n, m)
    if small <= EXACT_MIN_N and math.comb(n + m, small) <= EXACT_ARRANGEMENT_CAP:
        pooled = x + y
        ranks = _midranks(pooled)
        total = 0
        extreme = 0
        offset = n * (n + 1) / 2
        prod = n * m
        for comb in combinations(range(n + m), n):
            ux_c = sum(ranks[i] for i in comb) - offset
            u_c = min(ux_c, prod - ux_c)
            total += 1
            if u_c <= u_obs + 1e-9:
                extreme += 1
        return u_obs, extreme / total

    # Normal approximation with tie correction.
    pooled = x + y
    big_n = n + m
    tie_sum = 0
    seen: dict[float, int] = {}
    for v in pooled:
        seen[v] = seen.get(v, 0) + 1
    for count in seen.values():
        tie_sum += count**3 - count
    var = (n * m / 12) * (big_n + 1 - tie_sum / (big_n * (big_n - 1)))
    if var <= 0:
        return u_obs, 1.0
    z = (u_obs - n * m / 2 + 0.5) / math.sqrt(var)
    p = 2 * (0.5 * math.erfc(-z / math.sqrt(2)))
    return u_obs, min(p, 1.0)


def vargha_delaney_a12(x, y) -> float:
    """A12: probability a draw from x exceeds a draw from y, ties half."""
    x, y = list(x), list(y)
    if not x or not y:
        raise EmptySample("both samples must be non-empty")
    ux, _ = _u_pair(x, y)
    return ux / (len(x) * len(y))


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
