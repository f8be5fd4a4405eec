"""Timing of passes and steps, with host-speed calibration.

On a shared virtual machine the CPU's speed drifts: a fixed pure-Python
loop takes anywhere from 28 to 44 ms, switching every few seconds, and
``time.process_time`` drifts with it, so the slowdown is real CPU speed,
not preemption. Run-to-run spread of raw host times is then 10-30 %, too
wide to bound a regression. The benchmark therefore samples the host's
speed during every pass: about every 50 ms, between two steps, it times a
short reference burst (small numpy calls inside a Python loop, the same
mix as pursuitlab's hot paths). Host times are rescaled by
``NOMINAL_BURST_NS / burst time`` around them, so the reported figures are
host times on a machine where the burst takes 1 ms. The reference code is
part of the benchmark, so no change to pursuitlab moves it.
"""

from __future__ import annotations

import gc
import time
from array import array

import numpy as np

BURST_EVERY_NS = 50_000_000
NOMINAL_BURST_NS = 1_000_000
_BURST_ITERATIONS = 250
_SMOOTHING = 5  # bursts in the rolling median behind each speed estimate
_SETUP_BURSTS = 7  # back-to-back bursts that calibrate one set-up sample
_ARRAY = np.arange(200.0)


def reference_burst() -> float:
    """The fixed reference work: about 1 ms on a 2-core cloud VM."""
    total = 0.0
    for k in range(_BURST_ITERATIONS):
        total += float(np.argmin(_ARRAY - k * 0.1)) + k * 0.5
    return total


def current_scale() -> float:
    """Scale factor for the host's speed now, from a few back-to-back bursts."""
    durations = []
    for _ in range(_SETUP_BURSTS):
        t0 = time.perf_counter_ns()
        reference_burst()
        durations.append(time.perf_counter_ns() - t0)
    return NOMINAL_BURST_NS / float(np.median(durations))


class Calibrator:
    """Times reference bursts between steps and rescales host intervals."""

    def __init__(self):
        self.burst = reference_burst
        self.start = array("q")
        self.duration = array("q")
        self._next = 0

    def maybe_burst(self, now_ns: int):
        """Run one burst if ``BURST_EVERY_NS`` has passed since the last one."""
        if now_ns < self._next:
            return
        t0 = time.perf_counter_ns()
        self.burst()
        t1 = time.perf_counter_ns()
        self.start.append(t0)
        self.duration.append(t1 - t0)
        self._next = t1 + BURST_EVERY_NS

    def _speed(self):
        """Burst start times and the rolling-median scale factor at each."""
        starts = np.frombuffer(self.start, dtype=np.int64)
        durations = np.frombuffer(self.duration, dtype=np.int64)
        if starts.size == 0:
            raise RuntimeError("no calibration burst ran; the pass took no steps")
        half = _SMOOTHING // 2
        padded = np.pad(durations.astype(np.float64), half, mode="edge")
        windows = np.lib.stride_tricks.sliding_window_view(padded, _SMOOTHING)
        return starts, NOMINAL_BURST_NS / np.median(windows, axis=1)

    def scale(self, times_ns) -> np.ndarray:
        """Scale factor in force at each of ``times_ns``."""
        starts, factor = self._speed()
        i = np.searchsorted(starts, np.asarray(times_ns), side="right") - 1
        return factor[np.clip(i, 0, factor.size - 1)]

    def seconds(self, begin_ns: int, end_ns: int, calibrated: bool) -> float:
        """Length of ``[begin_ns, end_ns]`` with the bursts inside taken out,
        rescaled to the nominal host speed when ``calibrated``."""
        starts = np.frombuffer(self.start, dtype=np.int64)
        ends = starts + np.frombuffer(self.duration, dtype=np.int64)
        inside = (starts >= begin_ns) & (ends <= end_ns)
        # Segments between consecutive bursts inside the interval.
        cuts = np.concatenate(([begin_ns], np.column_stack(
            (starts[inside], ends[inside])).ravel(), [end_ns]))
        seg_begin, seg_end = cuts[0::2], cuts[1::2]
        weight = self.scale(seg_begin) if calibrated else 1.0
        return float(np.sum((seg_end - seg_begin) * weight)) * 1e-9


class Probe:
    """Wraps every step call: records its host interval, then samples host speed."""

    def __init__(self):
        self.calibrator = Calibrator()
        self.begin_ns = array("q")
        self.end_ns = array("q")

    def step(self, fn, name: str, nested: bool):
        begin, end, calibrator = self.begin_ns, self.end_ns, self.calibrator
        clock = time.perf_counter_ns

        def timed(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            t1 = clock()
            begin.append(t0)
            end.append(t1)
            calibrator.maybe_burst(t1)
            return result

        return timed


class TraceProbe(Probe):
    """Each step opens a unit and a span; calibration bursts get their own span."""

    def __init__(self, tracer):
        super().__init__()
        self.tracer = tracer
        self.calibrator.burst = tracer.span("bench.calibration",
                                            reference_burst)

    def step(self, fn, name: str, nested: bool):
        return super().step(self.tracer.span(name, fn, unit="step", nested=nested),
                            name, nested)


def measure(workload, probe: Probe, seconds: float):
    """Whole passes until the next one would end past ``seconds``; at least one.

    Returns the pass results and each pass's (begin, end) host time in ns.
    """
    results, intervals, elapsed = [], [], 0.0
    while True:
        prepared = workload.prepare(probe)
        gc.collect()
        t0 = time.perf_counter_ns()
        raw = workload.run(prepared)
        t1 = time.perf_counter_ns()
        results.append(workload.result(prepared, raw))
        intervals.append((t0, t1))
        took = (t1 - t0) * 1e-9
        elapsed += took
        if elapsed + took > seconds:
            return results, intervals


def figures(results, intervals, probe: Probe, calibrated: bool) -> dict:
    """Throughput and step-latency percentiles, in calibrated or raw host time."""
    cal = probe.calibrator
    seconds = sum(cal.seconds(t0, t1, calibrated) for t0, t1 in intervals)
    begin = np.frombuffer(probe.begin_ns, dtype=np.int64)
    latency_us = (np.frombuffer(probe.end_ns, dtype=np.int64) - begin) * 1e-3
    if calibrated:
        latency_us = latency_us * cal.scale(begin)
    return {
        "control_steps_per_s": sum(r.steps for r in results) / seconds,
        "step_us_p50": float(np.percentile(latency_us, 50)),
        "step_us_p99": float(np.percentile(latency_us, 99)),
    }
