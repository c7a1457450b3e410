"""Plateau detector: window arithmetic, strict thresholds, arming."""

import pytest

from recipefuzz.plateau import (
    DetectorConfig,
    DetectorState,
    NonMonotonicTelemetry,
    TelemetryFrame,
    check_plateau,
    observe,
)


def feed(frames, config=None):
    config = config or DetectorConfig()
    state = DetectorState()
    events = []
    for frame in frames:
        state = observe(state, frame)
        event, state = check_plateau(state, config)
        if event:
            events.append(event)
    return events, state


def ramp(deltas_execs, deltas_paths):
    """Build cumulative frames at 1 s cadence from per-second deltas."""
    frames = []
    execs = paths = 0
    for t, (de, dp) in enumerate(zip(deltas_execs, deltas_paths)):
        execs += de
        paths += dp
        frames.append(TelemetryFrame(float(t), execs, paths, edges_found=paths))
    return frames


class TestObserve:
    def test_first_frame_retained(self):
        state = observe(DetectorState(), TelemetryFrame(0.0, 0, 0, 0))
        assert len(state.frames) == 1

    def test_window_eviction(self):
        state = DetectorState()
        for t in range(13):
            state = observe(state, TelemetryFrame(float(t), t * 100, t, t))
        # Newest t=12, cutoff 2: frames before t=2 evicted, t=2 kept.
        assert state.frames[0].t == 2.0
        assert state.frames[-1].t == 12.0

    def test_anchor_survives_jitter(self):
        state = DetectorState()
        times = [0.0, 1.1, 2.2, 3.3, 4.4, 5.5, 6.6, 7.7, 8.8, 9.9, 11.0]
        for t in times:
            state = observe(state, TelemetryFrame(t, int(t * 10), 0, 0))
        # No frame sits exactly at 11.0 - 10; the newest older frame (0.0)
        # anchors the window so the span still covers >= W.
        assert state.frames[0].t == 0.0
        assert state.frames[-1].t - state.frames[0].t >= 10

    def test_non_monotonic_execs(self):
        state = observe(DetectorState(), TelemetryFrame(0.0, 100, 1, 1))
        with pytest.raises(NonMonotonicTelemetry):
            observe(state, TelemetryFrame(1.0, 99, 1, 1))

    @pytest.mark.parametrize(
        "frame, message",
        [
            (TelemetryFrame(1.0, 99, 5, 7), "execs_done decreased: 100 -> 99"),
            (TelemetryFrame(1.0, 100, 4, 7), "paths_total decreased: 5 -> 4"),
            (TelemetryFrame(1.0, 100, 5, 6), "edges_found decreased: 7 -> 6"),
        ],
    )
    def test_non_monotonic_counter_message(self, frame, message):
        state = observe(DetectorState(), TelemetryFrame(0.0, 100, 5, 7))
        with pytest.raises(NonMonotonicTelemetry) as info:
            observe(state, frame)
        assert str(info.value) == message

    def test_non_monotonic_time(self):
        state = observe(DetectorState(), TelemetryFrame(5.0, 1, 1, 1))
        with pytest.raises(NonMonotonicTelemetry):
            observe(state, TelemetryFrame(4.0, 2, 1, 1))


class TestCheckPlateau:
    def test_fires_below_both_thresholds(self):
        # 49 execs and 0 paths over the window: both strictly below.
        frames = ramp([10] * 3 + [4] * 11, [1] * 3 + [0] * 11)
        events, _ = feed(frames)
        assert len(events) == 1
        event = events[0]
        assert event.delta_execs < 50 and event.delta_paths < 1

    def test_exec_count_does_not_block(self):
        # The detector has no exec condition: a window of 50 or 5000 execs
        # with no new path is a plateau, and the event reports its execs.
        for per_sec, window_execs in ((5, 50), (500, 5000)):
            events, _ = feed(ramp([per_sec] * 30, [0] * 30))
            assert [(e.fired_at, e.delta_execs) for e in events] == [(10.0, window_execs)]

    def test_one_path_blocks(self):
        # theta_paths = 1 means zero new paths required.
        frames = ramp([0] * 30, [1] * 30)
        events, _ = feed(frames)
        assert events == []

    def test_no_fire_during_warmup(self):
        frames = ramp([0] * 9, [0] * 9)  # spans only 8 s
        events, _ = feed(frames)
        assert events == []

    def test_once_per_campaign(self):
        frames = ramp([0] * 60, [0] * 60)
        events, _ = feed(frames)
        assert len(events) == 1

    def test_rearm_after_cooldown(self):
        config = DetectorConfig(
            rearm_policy="rearm_after_cooldown", cooldown_sec=20
        )
        frames = ramp([0] * 60, [0] * 60)
        events, _ = feed(frames, config)
        assert len(events) == 3  # t=10, t=30, t=50
        assert [e.fired_at for e in events] == [10.0, 30.0, 50.0]

    def test_pure_no_side_effects(self):
        frames = ramp([0] * 12, [0] * 12)
        config = DetectorConfig()
        state = DetectorState()
        for frame in frames:
            state = observe(state, frame)
        e1, _ = check_plateau(state, config)
        e2, _ = check_plateau(state, config)
        assert e1 == e2  # same state in, same verdict out

    def test_event_payload(self):
        frames = ramp([4] * 15, [0] * 15)
        events, _ = feed(frames)
        assert len(events) == 1
        event = events[0]
        assert event.fired_at - event.window_start >= 10
        assert event.delta_execs == 40


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            DetectorConfig(theta_paths=0)
        with pytest.raises(ValueError):
            DetectorConfig(rearm_policy="sometimes")
        # A NaN cooldown never re-arms: 60 flat frames would fire only at
        # t=10, as once_per_campaign does.
        for cooldown in (float("nan"), -1.0):
            with pytest.raises(ValueError):
                DetectorConfig(rearm_policy="rearm_after_cooldown", cooldown_sec=cooldown)

    def test_nan_theta_paths_rejected(self):
        # A NaN threshold is never crossed: 60 flat frames would not fire.
        with pytest.raises(ValueError):
            DetectorConfig(theta_paths=float("nan"))
