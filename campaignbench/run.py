"""Campaign benchmark: runs recipefuzz campaigns on fixed workloads and
prints end-to-end metrics (untraced) or per-layer metrics (traced).

    python3 campaignbench/run.py --workload parser-saturated --seed 1 \
        --seconds 35 --trace 0
    python3 campaignbench/run.py --workload all      # every workload

Each campaign runs in a fresh interpreter (child.py), one at a time. Every
campaign's outputs are checked against references that do not come from
the code under test. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. See README.md.
"""

from __future__ import annotations

import argparse
import array
import compileall
import fcntl
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "_runs"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402

# Exec budgets per campaign: (full, tiny). Tiny sizes serve the smoke run.
BUDGETS = {
    "parser-saturated": (100_000, 3_000),
    "staircase-gate": (10_000, 3_000),
    "bigram-growing": (10_000, 1_000),
}
# Workloads with at most one plateau per campaign: gate probes
# (child.gate_probes), run after each campaign, add plateaus to their
# stall metrics.
PROBED = {"parser-saturated", "bigram-growing"}
PROBES = 15
# The parser target's full reachable edge set, which its built-in seeds
# cover; the staircase's 3 base edges plus the 4 edges gated by XKEY1.
PARSER_EDGES = 49
STAIRCASE_EDGES = 7

SETUP_PROBES = 5
MIN_CAMPAIGNS = 2
CHILD_TIMEOUT_S = 150
# How long an emptied run dir's directories stay (Run.__init__).
SKELETON_AGE_S = 600
# Linux inode-flag ioctls and the ext4 "top of directory hierarchy" flag
# (linux/fs.h; chattr +T), for a 64-bit long.
FS_IOC_GETFLAGS = 0x80086601
FS_IOC_SETFLAGS = 0x40086602
FS_TOPDIR_FL = 0x00020000

END_TO_END_UNITS = {
    "execs_per_sec": "1/s",
    "plateau_stall_ms_p50": "ms",
    "plateau_stall_ms_p95": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}
# Digested artifacts compared across the campaigns of one run.
# events.jsonl (and run_metadata.json, which holds its digest) are left
# out: the corpus_snapshot event embeds the snapshot's path, so the same
# seed written to two run directories gives two different logs.
COMPARED = ("fuzzer_stats", "coverage.csv")


class CheckFailed(Exception):
    pass


def spread_subdirs(path: Path) -> bool:
    """Ask ext4 to put each new subdirectory of path in a block group of
    its own, as it does for top-level directories (chattr +T). Returns
    whether the file system took the hint."""
    try:
        fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY)
    except OSError:
        return False
    try:
        flags = array.array("l", [0])
        fcntl.ioctl(fd, FS_IOC_GETFLAGS, flags)
        flags[0] |= FS_TOPDIR_FL
        fcntl.ioctl(fd, FS_IOC_SETFLAGS, flags)
        fcntl.ioctl(fd, FS_IOC_GETFLAGS, flags)
        return bool(flags[0] & FS_TOPDIR_FL)
    except OSError:
        return False
    finally:
        os.close(fd)


def delete_files(root: Path) -> None:
    """Delete every file under root and keep the directories."""
    for parent, _, files in os.walk(root):
        for name in files:
            os.unlink(os.path.join(parent, name))


def sweep_skeletons(runs: Path, min_age_s: float) -> None:
    """Remove the run dirs that hold no file and were emptied at least
    min_age_s ago. A run dir that still holds files (a failed run's,
    kept for inspection, or a run in progress) is left alone."""
    now = time.time()
    for run_dir in runs.iterdir():
        if (
            run_dir.is_dir()
            and now - run_dir.stat().st_mtime >= min_age_s
            and not any(files for _, _, files in os.walk(run_dir))
        ):
            shutil.rmtree(run_dir, ignore_errors=True)


def read_stats(run_dir: Path) -> dict[str, str]:
    stats = {}
    for line in (run_dir / "fuzzer_stats").read_text().splitlines():
        key, _, value = line.partition(":")
        stats[key.strip()] = value.strip()
    return stats


def distinct_pairs(queue_dir: Path) -> int:
    pairs = set()
    for path in queue_dir.iterdir():
        data = path.read_bytes()
        pairs.update(zip(data, data[1:]))
    return len(pairs)


def check_outputs(workload: str, run_dir: Path, budget: int) -> dict[str, str]:
    """Check one campaign's artifacts; returns the compared digests."""
    stats = read_stats(run_dir)
    edges = int(stats["edges_found"])
    if int(stats["execs_done"]) != budget:
        raise CheckFailed(f"execs_done {stats['execs_done']} != budget {budget}")
    if workload == "parser-saturated" and edges != PARSER_EDGES:
        raise CheckFailed(f"edges_found {edges} != {PARSER_EDGES}")
    if workload == "staircase-gate":
        if edges != STAIRCASE_EDGES:
            raise CheckFailed(f"edges_found {edges} != {STAIRCASE_EDGES}")
        events = (run_dir / "events.jsonl").read_text().splitlines()
        if not any(json.loads(line)["kind"] == "recipe_promoted" for line in events):
            raise CheckFailed("no recipe_promoted event")
    if workload == "bigram-growing":
        expected = distinct_pairs(run_dir / "queue")
        if edges != expected:
            raise CheckFailed(f"edges_found {edges} != {expected} distinct byte pairs in queue/")
    return {
        name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest() for name in COMPARED
    }


class Run:
    """The child processes of one benchmark run and their outcomes."""

    def __init__(self, workload: str, seed: int, budget: int):
        self.workload = workload
        self.seed = seed
        self.budget = budget
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] | None = None
        # On ext4 without a journal, an inode number freed in the last
        # minute or more is not reused, and every file creation steps
        # over each such number in the block group it allocates from:
        # after a bigram-growing campaign's ~4,000 queue files are
        # deleted, a file created in their group costs about 0.5 ms
        # instead of 0.05 ms. So the benchmark's clean-up would be
        # measured, not the program. Instead, each run dir gets a block
        # group of its own (spread_subdirs), its files stay until the
        # run ends, and its emptied directories stay for SKELETON_AGE_S
        # more, so that no later run's dir is put in that group while
        # its freed inode numbers are still held back.
        RUNS.mkdir(parents=True, exist_ok=True)
        self.spread = spread_subdirs(RUNS)
        sweep_skeletons(RUNS, SKELETON_AGE_S)
        self.dir = RUNS / f"{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)

    def clean(self) -> None:
        """Delete the run's files once every check has passed."""
        delete_files(self.dir)
        os.utime(self.dir)

    def child(self, mode: str, probes: int = 0) -> tuple[dict | None, Path]:
        """Run one child; returns (result or None on failure, its dir).

        Every child's files stay until the run ends (see clean).
        """
        self.attempted += 1
        out = self.dir / f"{self.attempted:03d}-{mode}"
        out.mkdir(parents=True)
        cmd = [
            sys.executable, str(HERE / "child.py"),
            "--workload", self.workload, "--budget", str(self.budget),
            "--seed", str(self.seed), "--mode", mode, "--out", str(out),
            "--probes", str(probes),
        ]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
                                  stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        except subprocess.TimeoutExpired:
            return self._fail(out, f"timed out after {CHILD_TIMEOUT_S} s")
        if proc.returncode != 0:
            return self._fail(out, proc.stdout.decode(errors="replace").strip())
        result = json.loads((out / "result.json").read_text())
        if mode == "setup":
            return result, out
        try:
            digests = check_outputs(self.workload, out / "campaign", self.budget)
            if len(result["probe_stalls_ms"]) != probes:
                raise CheckFailed(f"{probes} gate probes timed {len(result['probe_stalls_ms'])} plateaus")
        except (CheckFailed, OSError, KeyError, ValueError) as exc:
            return self._fail(out, f"output check: {exc}")
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            return self._fail(out, f"artifact digests differ from the run's first campaign: {digests}")
        return result, out

    def _fail(self, out: Path, why: str):
        self.failed += 1
        print(f"[{self.workload} seed {self.seed}] {out.name} failed: {why}", file=sys.stderr)
        return None, out


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def run_untraced(run: Run, seconds: float) -> dict[str, float]:
    setups, eps, rss, p50s, p95s = [], [], [], [], []
    began = time.perf_counter()
    for _ in range(SETUP_PROBES):
        result, _ = run.child("setup")
        if result is not None:
            setups.append(result["setup_s"])
    last = 0.0
    campaigns = 0
    while campaigns < MIN_CAMPAIGNS or time.perf_counter() - began + last <= seconds:
        t = time.perf_counter()
        result, _ = run.child("campaign", PROBES if run.workload in PROBED else 0)
        last = time.perf_counter() - t
        campaigns += 1
        if result is None:
            continue
        setups.append(result["setup_s"])
        eps.append(result["main_execs"] / result["wall_s"])
        rss.append(result["peak_rss_mb"])
        stalls = result["stalls_ms"] + result["probe_stalls_ms"]
        p50s.append(statistics.median(stalls))
        p95s.append(percentile(stalls, 95))
    if not eps:
        return {}
    return {
        "execs_per_sec": statistics.median(eps),
        "plateau_stall_ms_p50": statistics.median(p50s),
        "plateau_stall_ms_p95": statistics.median(p95s),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
        "pass_ratio": (run.attempted - run.failed) / run.attempted,
    }


def run_traced(run: Run) -> dict[str, float]:
    plain, _ = run.child("campaign")
    traced, traced_out = run.child("traced")
    if plain is None or traced is None:
        return {}
    return tracing.derive_metrics(traced_out / "spans.bin", traced, plain["wall_s"])


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (which
    would search parent directories)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def bench_one(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    budget = BUDGETS[workload][1 if tiny else 0]
    provenance = {
        "workload": workload,
        "seed": seed,
        "budget_execs": budget,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_at_start": os.getloadavg(),
        "git_commit": git_commit(),
    }
    run = Run(workload, seed, budget)
    provenance["spread_subdirs"] = run.spread
    metrics = run_traced(run) if trace else run_untraced(run, seconds)
    units = tracing.PER_LAYER_UNITS if trace else END_TO_END_UNITS
    correct = run.failed == 0 and set(metrics) == set(units)
    if correct:
        run.clean()
    print("provenance " + json.dumps(provenance))
    for name, value in metrics.items():
        print(f"{workload:<18} {name:<42} {value:>14.6g} {units[name]}")
    return {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(BUDGETS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test budgets")
    args = parser.parse_args()
    # On SIGTERM, unwind like on any other exception: subprocess.run then
    # kills the running child and waits for it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "recipefuzz" / "controller.py").is_file():
        print(f"no recipefuzz sources under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(SRC, quiet=1)

    workloads = list(BUDGETS) if args.workload == "all" else [args.workload]
    results = {w: bench_one(w, args.seed, args.seconds, bool(args.trace), args.tiny) for w in workloads}
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}/{name}": m for w, r in results.items() for name, m in r["metrics"].items()
            },
        }
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
