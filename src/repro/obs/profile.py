"""Tail-latency capture: a zero-dependency sampling profiler.

Why sampling, why tail-only: instrumenting every round with a tracing
profiler would blow the telemetry overhead budget, and profiling *fast*
rounds answers nothing.  So :class:`TailProfiler` arms a cheap ticker
thread around each round — ``sys._current_frames()`` every few
milliseconds, stack walked and folded — and at round exit *keeps* the
samples only when the round's wall time beat the latency threshold.
The first tick is deferred until the round has already run half the
keep threshold, so a fast round costs zero wakeups; a slow round
leaves a collapsed-stack profile (the ``func (file:line);...  count``
format flamegraph tooling eats) attached to the trace and the quality
ledger.

The sampler targets the arming thread only: ``sys._current_frames``
returns every thread's frame, but profiling the round means profiling
the thread running it, not the live-metrics server or the ticker
itself.
"""

from __future__ import annotations

import os.path
import sys
import threading
import time
from contextlib import contextmanager
from typing import Iterator

from repro.errors import ConfigurationError

__all__ = ["TailProfiler", "RoundProfile", "collapse_frame"]


def collapse_frame(frame) -> str:
    """One sampled stack, root-first, in collapsed-stack notation."""
    parts: list[str] = []
    while frame is not None:
        code = frame.f_code
        parts.append(f"{code.co_name} "
                     f"({os.path.basename(code.co_filename)}:"
                     f"{frame.f_lineno})")
        frame = frame.f_back
    parts.reverse()
    return ";".join(parts)


class RoundProfile:
    """Samples from one armed round, resolved at round exit."""

    def __init__(self, threshold_ms: float) -> None:
        self.threshold_ms = threshold_ms
        self.samples: dict[str, int] = {}
        self.wall_ms = 0.0
        self.kept = False

    def sample_count(self) -> int:
        return sum(self.samples.values())

    def collapsed(self) -> str:
        """Profile as collapsed-stack text, heaviest stacks first."""
        lines = sorted(self.samples.items(),
                       key=lambda kv: (-kv[1], kv[0]))
        return "\n".join(f"{stack} {n}" for stack, n in lines)


class _Sampler:
    """One persistent daemon ticker, armed per round.

    Spawning a thread per round costs ~100 µs — enough to blow the
    combined-observability budget on millisecond rounds.  So the ticker
    is created once per profiler and parks on an Event between rounds:
    arming is an Event set plus two reference stores, disarming an
    Event clear, both microseconds.  All sampling writes happen under
    ``_lock``, and ``disarm`` nulls the targets under the same lock, so
    once ``disarm`` returns no further sample lands in the round's dict.
    """

    def __init__(self, interval_s: float) -> None:
        self.interval_s = interval_s
        self._armed = threading.Event()
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._target_ident: int | None = None
        self._samples: dict[str, int] | None = None
        self._first_delay_s = interval_s
        self._thread: threading.Thread | None = None

    def arm(self, target_ident: int, samples: dict[str, int],
            first_delay_s: float | None = None) -> None:
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="repro-obs-sampler", daemon=True)
            self._thread.start()
        with self._lock:
            self._target_ident = target_ident
            self._samples = samples
            self._first_delay_s = (self.interval_s if first_delay_s is None
                                   else first_delay_s)
        self._armed.set()

    def disarm(self) -> None:
        self._armed.clear()
        with self._lock:
            self._target_ident = None
            self._samples = None

    def shutdown(self) -> None:
        self._stop.set()
        self._armed.set()  # release a parked ticker so it can exit
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    def _run(self) -> None:
        while True:
            self._armed.wait()
            if self._stop.is_set():
                return
            # The first wait per armed round is the keep-threshold grace
            # period: a round disarmed before it elapses was never going
            # to keep its profile, and it costs zero ticks.
            if self._stop.wait(self._first_delay_s):
                return
            while True:
                with self._lock:
                    target, samples = self._target_ident, self._samples
                    if target is None or samples is None:
                        break  # disarmed; park on the outer wait
                    frame = sys._current_frames().get(target)
                    if frame is not None:
                        stack = collapse_frame(frame)
                        samples[stack] = samples.get(stack, 0) + 1
                if self._stop.wait(self.interval_s):
                    return


class TailProfiler:
    """Arms a sampler per round; keeps the profile only for slow rounds.

    Parameters
    ----------
    threshold_ms:
        Rounds at or above this wall time keep their profile; faster
        rounds discard it (that is the "tail capture" contract).
    interval_s:
        Sampling period.  5 ms ≈ 200 Hz — coarse enough to be nearly
        free, fine enough to localise a 100 ms stall.
    max_profiles:
        Kept profiles are a bounded deque — a pathological session
        can't grow memory through its own profiler.
    """

    def __init__(self, threshold_ms: float, *, interval_s: float = 0.005,
                 max_profiles: int = 16) -> None:
        if threshold_ms <= 0:
            raise ConfigurationError(
                f"threshold_ms must be > 0, got {threshold_ms}")
        if interval_s <= 0:
            raise ConfigurationError(
                f"interval_s must be > 0, got {interval_s}")
        self.threshold_ms = float(threshold_ms)
        self.interval_s = float(interval_s)
        self.max_profiles = int(max_profiles)
        #: Kept (tail) profiles, oldest first.
        self.profiles: list[RoundProfile] = []
        self._sampler = _Sampler(self.interval_s)

    @contextmanager
    def round(self, **attrs) -> Iterator[RoundProfile]:
        """Sample the calling thread for the duration of the block."""
        profile = RoundProfile(self.threshold_ms)
        t0 = time.perf_counter()
        first_delay_s = max(self.interval_s, self.threshold_ms / 2000.0)
        self._sampler.arm(threading.get_ident(), profile.samples,
                          first_delay_s)
        try:
            yield profile
        finally:
            self._sampler.disarm()
            profile.wall_ms = (time.perf_counter() - t0) * 1000.0
            self._resolve(profile, attrs)

    def close(self) -> None:
        """Stop the ticker thread (long-lived services shutting down)."""
        self._sampler.shutdown()

    def _resolve(self, profile: RoundProfile, attrs: dict) -> None:
        from repro.obs import get_telemetry  # late: avoids module cycle

        obs = get_telemetry()
        if profile.wall_ms >= self.threshold_ms:
            profile.kept = True
            self.profiles.append(profile)
            if len(self.profiles) > self.max_profiles:
                del self.profiles[0]
            obs.counter("obs.profiles.captured").inc()
            obs.event("obs.profile_captured", level="warning",
                      wall_ms=round(profile.wall_ms, 3),
                      threshold_ms=self.threshold_ms,
                      samples=profile.sample_count(),
                      profile=profile.collapsed(), **attrs)
        else:
            profile.samples.clear()
            obs.counter("obs.profiles.discarded").inc()

    def write_profiles(self, directory) -> list[str]:
        """Dump kept profiles as ``.collapsed`` files; returns paths."""
        import pathlib

        out = pathlib.Path(directory)
        out.mkdir(parents=True, exist_ok=True)
        paths = []
        for i, profile in enumerate(self.profiles):
            path = out / f"profile-{i:03d}-{int(profile.wall_ms)}ms.collapsed"
            path.write_text(profile.collapsed() + "\n", encoding="utf-8")
            paths.append(str(path))
        return paths
