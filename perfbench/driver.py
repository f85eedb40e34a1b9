"""Load drivers: an open loop for servers, a closed loop for engines.

Both run on the benchmark's single thread and time everything with
``time.perf_counter``.  Responses are kept and checked after the timed
region, so checking never delays a request.

Between the program's calls both drivers time a fixed piece of the
benchmark's own pure-Python work (:class:`HostReference`).  On a shared
host the speed of every process drifts by 10-40% over minutes; in a
five-minute probe on two vCPUs the simulated engine's call time divided
by the reference's time, both taken over the same seconds, drifted a
quarter as much as the call time alone (coefficient of variation 0.04
against 0.18 over 15-second windows).
"""

from __future__ import annotations

import gc
import resource
import time
import traceback
from collections import deque
from dataclasses import dataclass, field

import numpy as np

#: After the last scheduled arrival, give up on stragglers after this
#: long and drain the server explicitly.
_STRAGGLER_TIMEOUT_S = 5.0
#: Iterations of :func:`reference_op`: about 0.3 ms on a quiet 2-vCPU
#: x86 host.
REF_ITERATIONS = 4000
#: The open loop times the reference only when the next request or
#: flush is at least this far away, so that the reference has ended
#: before it is due.
REF_HEADROOM_S = 1.5e-3
#: A call's time is divided by the median reference time of the window
#: of this length it started in, so drift within a run cancels too.
REF_WINDOW_S = 1.0
#: Most overdue arrivals handed to one ``run()`` call.  Without a cap an
#: overloaded phase collapses into a few calls of thousands of requests
#: each, which hides the per-call cost a server pays under real load.
MAX_CALL_REQUESTS = 128


@dataclass
class OpenLoopPhase:
    """What one open-loop phase observed.

    ``latency_s`` is measured from each request's *scheduled* arrival to
    the moment ``run()`` handed its response back (NaN if never
    answered); ``lag_s`` is how late the driver submitted each request.
    ``run_walls_s`` holds the calls that returned responses;
    ``call_starts_s`` and ``call_walls_s`` hold every ``run()`` call: its
    ``perf_counter`` start and its wall time.
    """

    sent: int
    responses: list
    latency_s: np.ndarray
    lag_s: np.ndarray
    run_walls_s: list[float]
    call_starts_s: list[float]
    call_walls_s: list[float]
    wall_s: float
    idle_s: float
    backlog_end: int
    errors: list[str] = field(default_factory=list)


def reference_op() -> int:
    """Fixed pure-Python work whose duration tracks the host's speed."""
    total = 0
    for i in range(REF_ITERATIONS):
        total += i * i % 7
    return total


class HostReference:
    """Timings of :func:`reference_op` taken while a phase runs."""

    def __init__(self) -> None:
        self.starts_s: list[float] = []
        self.samples_s: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_op()
        self.starts_s.append(t0)
        self.samples_s.append(time.perf_counter() - t0)

    def median_s(self) -> float:
        return float(np.median(self.samples_s))

    def in_reference_units(self, starts_s, walls_s) -> float:
        """Total of the calls' wall times, each divided by the median
        reference time of the :data:`REF_WINDOW_S` window it started in
        (the whole phase's median where a window has no sample).

        Both ``starts_s`` and this object's samples are
        ``time.perf_counter`` readings.
        """
        ref_window = (np.asarray(self.starts_s) // REF_WINDOW_S).astype(np.int64)
        samples = np.asarray(self.samples_s)
        per_window = {int(w): float(np.median(samples[ref_window == w]))
                      for w in np.unique(ref_window)}
        overall = self.median_s()
        call_window = (np.asarray(starts_s) // REF_WINDOW_S).astype(np.int64)
        return float(sum(wall / per_window.get(int(w), overall)
                         for w, wall in zip(call_window, walls_s)))


def _wait_until(deadline: float, log) -> float:
    """Spin until ``deadline``; returns the seconds spent waiting.

    A sleep overshoots its deadline by several milliseconds about once
    in a hundred calls on a shared host, which would read as tail
    latency the program did not cause; spinning keeps the driver on time.
    """
    start = time.perf_counter()
    if deadline <= start:
        return 0.0
    index = log.open("idle.wait") if log is not None else None
    while time.perf_counter() < deadline:
        pass
    if index is not None:
        log.close(index)
    return time.perf_counter() - start


def drive_open_loop(server, requests: list, times: np.ndarray, *, origin: float,
                    clock_base: float, max_wait: float, ref: HostReference,
                    log=None) -> OpenLoopPhase:
    """Submit ``requests`` at their scheduled wall times and collect answers.

    ``times`` are the scheduled arrivals in seconds after ``origin`` (a
    ``perf_counter`` reading); each request's ``arrival_time`` must be
    ``clock_base + times[i]`` so the server's scripted clock and the wall
    clock advance together.  ``run(..., until=now)`` is called only when
    a request is due or the oldest outstanding request's max-wait flush
    is due — never on a poll — with at most :data:`MAX_CALL_REQUESTS`
    due arrivals per call.
    """
    n = len(requests)
    first_id = requests[0].request_id if n else 0
    done = np.full(n, np.nan)
    lag = np.zeros(n)
    answered = np.zeros(n, dtype=bool)
    responses: list = [None] * n
    outstanding: deque[int] = deque()
    run_walls: list[float] = []
    call_starts: list[float] = []
    call_walls: list[float] = []
    errors: list[str] = []
    idle = 0.0
    backlog_end = -1
    i = 0
    start = time.perf_counter()
    last_due = origin + (float(times[-1]) if n else 0.0)
    while i < n or outstanding:
        while outstanding and answered[outstanding[0]]:
            outstanding.popleft()
        if i >= n and not outstanding:
            break
        next_arrival = origin + times[i] if i < n else np.inf
        next_flush = origin + times[outstanding[0]] + max_wait if outstanding else np.inf
        if i >= n and time.perf_counter() > last_due + _STRAGGLER_TIMEOUT_S:
            # A request the scheduler never flushed: drain explicitly.
            errors.append(f"{len(outstanding)} requests unanswered after the schedule; drained")
            result = server.run(None)
            now = time.perf_counter() - origin
            _collect(result.responses, first_id, answered, done, responses, now)
            break
        due = min(next_arrival, next_flush)
        if due - time.perf_counter() > REF_HEADROOM_S:
            ref.sample()
        idle += _wait_until(due, log)
        now = time.perf_counter() - origin
        j = i
        while j < n and j - i < MAX_CALL_REQUESTS and times[j] <= now:
            j += 1
        lag[i:j] = now - times[i:j]
        batch = requests[i:j]
        outstanding.extend(range(i, j))
        i = j
        if log is not None:
            log.request_id = batch[0].request_id if len(batch) == 1 else None
        t_call = time.perf_counter()
        try:
            result = server.run(batch, until=clock_base + now)
        except Exception:  # a failed run() loses its requests; record and stop
            errors.append(traceback.format_exc())
            break
        t_ret = time.perf_counter()
        call_starts.append(t_call)
        call_walls.append(t_ret - t_call)
        if result.responses:
            run_walls.append(t_ret - t_call)
            _collect(result.responses, first_id, answered, done, responses, t_ret - origin)
        if i == n and backlog_end < 0:
            backlog_end = int(n - answered.sum())
    if log is not None:
        log.request_id = None
    return OpenLoopPhase(
        sent=i,
        responses=responses,
        latency_s=done - times,
        lag_s=lag[:i],
        run_walls_s=run_walls,
        call_starts_s=call_starts,
        call_walls_s=call_walls,
        wall_s=time.perf_counter() - start,
        idle_s=idle,
        backlog_end=max(backlog_end, 0),
        errors=errors,
    )


def _collect(batch, first_id, answered, done, responses, now) -> None:
    for response in batch:
        k = response.request_id - first_id
        answered[k] = True
        responses[k] = response
        done[k] = now


@dataclass
class ClosedLoopPhase:
    """What one closed-loop phase observed: one entry per call
    (``starts_s`` are ``perf_counter`` readings)."""

    inputs: list[int]
    results: list
    starts_s: list[float]
    walls_s: list[float]
    wall_s: float
    errors: list[str] = field(default_factory=list)


def drive_closed_loop(call, n_inputs: int, seconds: float, *, ref: HostReference,
                      log=None) -> ClosedLoopPhase:
    """One caller: issue ``call(k)`` for ``k = 0, 1, ...`` (cycling over
    ``n_inputs``) back to back until ``seconds`` have passed, at least one
    full cycle, timing ``ref`` after each call.  A call that raises is
    recorded and counts as failed."""
    inputs: list[int] = []
    results: list = []
    starts: list[float] = []
    walls: list[float] = []
    errors: list[str] = []
    start = time.perf_counter()
    k = 0
    while k < n_inputs or time.perf_counter() - start < seconds:
        item = k % n_inputs
        if log is not None:
            log.request_id = k
        t0 = time.perf_counter()
        try:
            result = call(item)
        except Exception:  # count it and keep the loop going
            errors.append(traceback.format_exc())
            result = None
        starts.append(t0)
        walls.append(time.perf_counter() - t0)
        ref.sample()
        inputs.append(item)
        results.append(result)
        k += 1
    if log is not None:
        log.request_id = None
    return ClosedLoopPhase(
        inputs=inputs, results=results, starts_s=starts, walls_s=walls,
        wall_s=time.perf_counter() - start, errors=errors,
    )


class ProcessMeter:
    """CPU time, garbage-collection time and involuntary context switches
    over an interval (``start()`` ... ``stop()``).

    ``cpu_util`` leaves out the driver's idle spinning (``idle_s``), so it
    reads as the share of busy wall time the process held a CPU: below 1
    means the host took the CPU away.
    """

    def __init__(self) -> None:
        self.gc_s = 0.0
        self._gc_t0 = 0.0
        self.cpu_util = 0.0
        self.invol_ctx_switches = 0
        self.idle_s = 0.0

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_t0

    def start(self) -> None:
        self._ru0 = resource.getrusage(resource.RUSAGE_SELF)
        self._wall0 = time.perf_counter()
        gc.callbacks.append(self._on_gc)

    def stop(self) -> None:
        gc.callbacks.remove(self._on_gc)
        ru = resource.getrusage(resource.RUSAGE_SELF)
        wall = time.perf_counter() - self._wall0
        cpu = (ru.ru_utime - self._ru0.ru_utime) + (ru.ru_stime - self._ru0.ru_stime)
        busy = wall - self.idle_s
        self.cpu_util = (cpu - self.idle_s) / busy if busy > 0 else 0.0
        self.invol_ctx_switches = ru.ru_nivcsw - self._ru0.ru_nivcsw


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
