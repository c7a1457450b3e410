"""Sliding-window plateau detector.

Watches telemetry frames (cumulative exec/path/edge counters) and fires a
plateau event when, over the trailing window of WINDOW_SEC seconds, fewer
than theta_paths new paths have accumulated ("fewer than" is strict). The
detector is armed once per campaign by default; a cooldown-based re-arm
variant exists but is off by default. The campaign stops feeding a
once-per-campaign detector after it fires: it can never fire again, and
nothing reads its later frames.

Under the campaign's virtual clock a frame covers controller.FRAME_EXECS=4
executions, so the 10 s window spans about 40 execs, always fewer than
THETA_EXECS=50. The detector therefore has no exec condition: a
campaign's default plateau means "no new path in 10 s". THETA_EXECS stays
in the config digest and delta_execs in the plateau event.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

# The trailing window is fixed; DetectorConfig sets the path threshold and
# the arming policy. A window never holds THETA_EXECS execs.
WINDOW_SEC = 10.0
THETA_EXECS = 50

ONCE_PER_CAMPAIGN = "once_per_campaign"
REARM_AFTER_COOLDOWN = "rearm_after_cooldown"


class NonMonotonicTelemetry(ValueError):
    """A cumulative counter (or the clock) went backwards."""


@dataclass(frozen=True)
class TelemetryFrame:
    t: float
    execs_done: int
    paths_total: int
    edges_found: int


@dataclass(frozen=True)
class DetectorConfig:
    theta_paths: int = 1
    rearm_policy: str = ONCE_PER_CAMPAIGN
    cooldown_sec: float = 0.0

    def __post_init__(self):
        # "not >=" also rejects NaN: a NaN threshold never fires, and a NaN
        # cooldown never re-arms.
        if not self.theta_paths >= 1:
            raise ValueError("theta_paths must be >= 1")
        if self.rearm_policy not in (ONCE_PER_CAMPAIGN, REARM_AFTER_COOLDOWN):
            raise ValueError(f"unknown rearm policy {self.rearm_policy!r}")
        if not self.cooldown_sec >= 0:
            raise ValueError("cooldown_sec must be >= 0")


@dataclass(frozen=True)
class PlateauEvent:
    fired_at: float
    window_start: float
    delta_execs: int
    delta_paths: int


@dataclass(frozen=True)
class DetectorState:
    """Frames retained for the trailing window, and when the detector last
    fired (-inf until it first does)."""

    frames: tuple[TelemetryFrame, ...] = ()
    last_fired_at: float = float("-inf")


def observe(state: DetectorState, frame: TelemetryFrame) -> DetectorState:
    """Fold a telemetry frame into the window.

    Frames older than t - WINDOW_SEC are evicted, except that the newest
    such frame is kept as the window anchor so deltas always span at least
    WINDOW_SEC even when frame timestamps jitter. Counters must be
    nondecreasing.
    """
    if state.frames:
        last = state.frames[-1]
        if frame.t < last.t:
            raise NonMonotonicTelemetry(f"time went backwards: {last.t} -> {frame.t}")
        if frame.execs_done < last.execs_done:
            raise NonMonotonicTelemetry(
                f"execs_done decreased: {last.execs_done} -> {frame.execs_done}"
            )
        if frame.paths_total < last.paths_total:
            raise NonMonotonicTelemetry(
                f"paths_total decreased: {last.paths_total} -> {frame.paths_total}"
            )
        if frame.edges_found < last.edges_found:
            raise NonMonotonicTelemetry(
                f"edges_found decreased: {last.edges_found} -> {frame.edges_found}"
            )
    frames = state.frames + (frame,)
    cutoff = frame.t - WINDOW_SEC
    # index of the last frame at or before the cutoff: keep it as anchor
    anchor = 0
    for i, f in enumerate(frames):
        if f.t <= cutoff:
            anchor = i
        else:
            break
    return DetectorState(frames[anchor:], state.last_fired_at)


def _armed(state: DetectorState, config: DetectorConfig, now: float) -> bool:
    if state.last_fired_at == float("-inf"):
        return True
    if config.rearm_policy == ONCE_PER_CAMPAIGN:
        return False
    return now >= state.last_fired_at + config.cooldown_sec


def check_plateau(
    state: DetectorState, config: DetectorConfig
) -> tuple[PlateauEvent | None, DetectorState]:
    """Evaluate the trailing window; returns (event_or_none, new_state).

    Pure in (state, config): no side effects, deterministic. Returns no
    event during warm-up (observed span < WINDOW_SEC) or while disarmed;
    firing disarms the detector per the rearm policy.
    """
    if len(state.frames) < 2:
        return None, state
    oldest, newest = state.frames[0], state.frames[-1]
    if newest.t - oldest.t < WINDOW_SEC:
        return None, state
    if not _armed(state, config, newest.t):
        return None, state
    delta_paths = newest.paths_total - oldest.paths_total
    if delta_paths < config.theta_paths:
        event = PlateauEvent(
            fired_at=newest.t,
            window_start=oldest.t,
            delta_execs=newest.execs_done - oldest.execs_done,
            delta_paths=delta_paths,
        )
        return event, replace(state, last_fired_at=newest.t)
    return None, state
