"""Time-weighted gauges for utilization time series — lazy materialization.

Utilization changes only at simulation events (assignments and departures),
so a piecewise-constant integral gives the exact time-weighted average — the
quantity the paper plots in Figure 8 — with O(1) work per event.

Two stores exist for the same accumulator semantics:

* :class:`TimeWeightedGauge` — one gauge, plain python floats.  Optionally
  records a coalesced ``(time, value)`` history (``keep_records=True`` +
  :meth:`~TimeWeightedGauge.sample`).
* :class:`GaugeBank` — parallel float lists for gauges that always tick
  together (the metrics collector's case).  Element ``i`` performs the
  identical IEEE-754 operation sequence as a standalone gauge, so both
  stores produce bit-identical snapshots.

Lazy materialization
--------------------
``integral += value * dt`` is *deferred*: each store keeps a pending
``(value, since)`` register — ``since`` is the last fold time (the
``last_time`` column) and a separate pending clock ``now`` advances for free
on ticks that change no value.  The deferred interval folds in only at a
*value-change barrier* (:meth:`TimeWeightedGauge.update` /
:meth:`GaugeBank.update_all`); readers (:meth:`average`) compose the folded
base with the pending term ``value * (now - since)`` without committing it,
so observing a gauge mid-run never perturbs the fold grouping of the rest of
the run.

Because ``v*dt1 + v*dt2 != v*(dt1+dt2)`` in IEEE-754, the fold *points* are
what define the bit-exact semantics.  The metrics collector places them only
where a freshly sampled value differs from the current one, identically
whether samples arrive one event at a time or as a batched departure run,
for both gauge stores and both state backends — which is what keeps run
summaries bit-identical across those paths.

Checkpoint transparency: snapshots capture the raw pending register (the
six scalars include the pending clock) and restores write it back verbatim.
A snapshot never folds, so a continuation folds the deferred interval from
the *original* ``since`` — grouping the accumulation exactly as the
uninterrupted run does across a snapshot/restore/fork cut.
"""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError


class TimeWeightedGauge:
    """Piecewise-constant signal with an exact running time integral.

    ``_last_time`` is the last fold time (``since``); ``_now`` is the
    pending clock.  ``_integral`` holds only the folded base — the pending
    interval ``value * (now - since)`` stays symbolic until the next
    :meth:`update` barrier (or forever: :meth:`average` reads it without
    committing).
    """

    __slots__ = (
        "_value",
        "_last_time",
        "_now",
        "_integral",
        "_start_time",
        "_peak",
        "_keep_records",
        "_history",
    )

    def __init__(
        self,
        initial_value: float = 0.0,
        start_time: float = 0.0,
        keep_records: bool = False,
    ) -> None:
        self._value = initial_value
        self._last_time = start_time
        self._now = start_time
        self._start_time = start_time
        self._integral = 0.0
        self._peak = initial_value
        self._keep_records = keep_records
        self._history: list[tuple[float, float]] = []

    @property
    def value(self) -> float:
        """Current signal value."""
        return self._value

    @property
    def peak(self) -> float:
        """Largest value observed so far."""
        return self._peak

    @property
    def history(self) -> tuple[tuple[float, float], ...]:
        """Coalesced ``(time, value)`` points recorded by :meth:`sample`.

        Consecutive samples with an unchanged value collapse onto the first
        point — a piecewise-constant signal is fully described by its change
        points, so the redundant entries would only bloat long runs.
        """
        return tuple(self._history)

    def update(self, time: float, value: float) -> None:
        """Advance the clock to ``time`` and set a new value.

        This is a fold barrier: the pending interval (at the *old* value)
        commits into the integral before the new value takes over.  Callers
        that want change-gated folding (the metrics collector) call
        :meth:`advance` instead when the value is unchanged.
        """
        self.advance(time)
        self.flush()
        self._value = value
        if value > self._peak:
            self._peak = value

    def sample(self, time: float, value: float) -> None:
        """Like :meth:`update`, but also records the point in :attr:`history`
        when ``keep_records=True`` — skipping it if the value is unchanged
        from the previous recorded point (coalescing)."""
        self.update(time, value)
        if self._keep_records and (
            not self._history or self._history[-1][1] != value
        ):
            self._history.append((time, value))

    def advance(self, time: float) -> None:
        """Advance the pending clock without folding (O(1), no arithmetic)."""
        if time < self._now:
            raise SimulationError(
                f"gauge clock moved backwards: {time} < {self._now}"
            )
        self._now = time

    def flush(self, time: float | None = None) -> None:
        """Fold the pending interval into the integral (explicit barrier).

        With ``time`` given the clock advances there first.  Flushing is
        idempotent; flushing at every event reproduces the pre-lazy eager
        accumulation (a different — equally exact — float grouping).
        """
        if time is not None:
            self.advance(time)
        dt = self._now - self._last_time
        if dt > 0.0:
            self._integral += self._value * dt
            self._last_time = self._now

    def average(self, until: float | None = None) -> float:
        """Time-weighted average from the start time to ``until`` (default:
        the pending clock).  Non-committing: the pending term is composed on
        read, never folded in, so reads don't perturb fold grouping."""
        if until is not None:
            self.advance(until)
        duration = self._now - self._start_time
        if duration <= 0:
            return self._value
        return (self._integral + self._value * (self._now - self._last_time)) / duration

    def restart(self, now: float) -> None:
        """Reset the gauge to a zero signal whose window opens at ``now``.

        Equivalent to constructing ``TimeWeightedGauge(0.0, now)`` in place:
        the integral, peak, value, and recorded history all clear and the
        averaging window restarts.  Used to discard idle lead-in time once
        the first arrival lands.
        """
        self._value = 0.0
        self._last_time = now
        self._now = now
        self._start_time = now
        self._integral = 0.0
        self._peak = 0.0
        self._history.clear()

    # ------------------------------------------------------------------ #
    # Fork support
    # ------------------------------------------------------------------ #

    def snapshot(self) -> tuple[float, float, float, float, float, float]:
        """Capture the six scalars of gauge state (O(1), no history).

        Deliberately *not* a flush: the pending register rides the snapshot
        verbatim (``last_time`` is the fold time, the sixth scalar the
        pending clock), so a restored continuation folds the deferred
        interval from the original ``since`` — bit-identical grouping across
        the cut.
        """
        return (
            self._value,
            self._last_time,
            self._start_time,
            self._integral,
            self._peak,
            self._now,
        )

    def restore(self, state: tuple[float, float, float, float, float, float]) -> None:
        """Rewind to a state captured by :meth:`snapshot`.

        Restoring the raw folded integral *and* the pending ``(value,
        since, now)`` register — not a recomputed or flushed view —
        guarantees that a forked continuation accumulates bit-identical
        averages to the uninterrupted run, even when the cut lands inside a
        deferred interval.
        """
        (
            self._value,
            self._last_time,
            self._start_time,
            self._integral,
            self._peak,
            self._now,
        ) = state


class GaugeBank:
    """A set of named time-weighted gauges stored as parallel float lists.

    All gauges in a bank share every clock tick (the collector samples the
    whole set on each simulation event), so the fold clock stays in
    lockstep: one scalar ``_since`` mirrors the ``last_time`` column and one
    scalar ``_now`` is the shared pending clock.  An unchanged-value tick
    (:meth:`advance_all`) is a scalar compare-and-store, which is what makes
    drop-dominated runs cheap; a value-change barrier runs one per-gauge
    fold loop over a handful of Python floats — cheaper than numpy dispatch
    at this width.  Snapshots interchange with per-gauge
    :meth:`TimeWeightedGauge.snapshot` tuples bit-for-bit.
    """

    __slots__ = (
        "names", "_index", "_now", "_since",
        "value", "last_time", "start_time", "integral", "peak",
    )

    def __init__(self, names: tuple[str, ...] | list[str]) -> None:
        if len(set(names)) != len(names):
            raise SimulationError(f"duplicate gauge names: {names}")
        self.names = tuple(names)
        self._index = {name: i for i, name in enumerate(self.names)}
        self._now = 0.0  # shared pending clock
        self._since = 0.0  # scalar mirror of the (lockstep) last_time column
        n = len(self.names)
        self.value = [0.0] * n
        self.last_time = [0.0] * n
        self.start_time = [0.0] * n
        self.integral = [0.0] * n
        self.peak = [0.0] * n

    def advance_all(self, now: float) -> None:
        """Advance every gauge's pending clock without folding."""
        if now < self._now:
            raise SimulationError(
                f"gauge clock moved backwards: {now} < {self._now}"
            )
        self._now = now

    def _set_since(self, since: float) -> None:
        self.last_time[:] = [since] * len(self.last_time)
        self._since = since

    def _fold_rows(self, times, rows) -> None:
        """The per-gauge fold loop: for each ``(t, row)`` in turn, fold the
        pending interval up to ``t`` (``integral += value * dt``), then take
        ``row`` as the new values and raise the peaks.  Every row is a fold
        barrier; callers apply the change gate first.

        A zero-dt row (several events at one timestamp) skips the fold;
        that is bit-exact: values and dt are non-negative, so every
        integral stays ``+0.0``-signed and adding ``value * 0.0`` would
        change no bits."""
        value = self.value
        acc = self.integral
        peak = self.peak
        since = self._since
        for t, row in zip(times, rows):
            dt = t - since
            if dt > 0.0:
                for j, v in enumerate(value):
                    acc[j] += v * dt
                since = t
            for j, x in enumerate(row):
                value[j] = x
                if x > peak[j]:
                    peak[j] = x
        if since != self._since:
            self._set_since(since)

    def update_all(self, now: float, values) -> None:
        """Fold the pending interval, then set every gauge's value.

        ``values`` is any sequence of ``len(names)`` floats, in name order.
        This is the fold barrier; the collector only routes a sample here
        when at least one value changed (unchanged ticks take
        :meth:`advance_all`), which is what pins the fold points — and so
        the summary bits — whether samples arrive per event or batched.
        """
        self.advance_all(now)
        self._fold_rows((now,), (values,))

    def update_all_batch(self, times, values) -> None:
        """Apply a run of consecutive samples in one call.

        ``times`` is a non-decreasing sequence and ``values`` a
        ``(len(times), len(names))`` float array: row ``i`` holds every
        gauge's value after event ``i``.  Semantically identical — IEEE-754
        op for op — to the per-event loop::

            for t, row in zip(times, values):
                advance_all(t) / update_all(t, row)   # by row != current

        The change gate is applied per row, exactly as the collector would:
        an unchanged row only moves the pending clock.
        """
        n = len(times)
        if n == 0:
            return
        ts = times.tolist() if isinstance(times, np.ndarray) else [
            float(t) for t in times
        ]
        if ts[0] < self._now:
            raise SimulationError(
                f"gauge clock moved backwards: {ts[0]} < {self._now}"
            )
        for i in range(n - 1):
            if ts[i + 1] < ts[i]:
                raise SimulationError(
                    f"gauge batch times not sorted: {ts[i + 1]} < {ts[i]}"
                )
        rows = values.tolist() if isinstance(values, np.ndarray) else list(values)
        changed_times: list[float] = []
        changed_rows: list[list[float]] = []
        cur = self.value
        for t, row in zip(ts, rows):
            if row != cur:
                changed_times.append(t)
                changed_rows.append(row)
                cur = row
        self._fold_rows(changed_times, changed_rows)
        self._now = ts[-1]

    def restart_all(self, now: float) -> None:
        """Reset every gauge to a zero signal opening at ``now``."""
        n = len(self.names)
        self.value[:] = [0.0] * n
        self.start_time[:] = [now] * n
        self.integral[:] = [0.0] * n
        self.peak[:] = [0.0] * n
        self._now = now
        self._set_since(now)

    def average(self, name: str) -> float:
        """Time-weighted average of one gauge up to the pending clock.

        Non-committing: composes the folded base with the pending term on
        read (same expression as :meth:`TimeWeightedGauge.average`)."""
        i = self._index[name]
        duration = self._now - self.start_time[i]
        if duration <= 0:
            return self.value[i]
        pending = self.value[i] * (self._now - self.last_time[i])
        return (self.integral[i] + pending) / duration

    def peak_of(self, name: str) -> float:
        """Peak value of one gauge."""
        return self.peak[self._index[name]]

    def value_of(self, name: str) -> float:
        """Current value of one gauge."""
        return self.value[self._index[name]]

    def values_list(self) -> list[float]:
        """Every gauge's current value, in name order (a copy)."""
        return list(self.value)

    # ------------------------------------------------------------------ #
    # Fork support
    # ------------------------------------------------------------------ #

    def snapshot_tuples(
        self,
    ) -> tuple[tuple[str, tuple[float, float, float, float, float, float]], ...]:
        """Per-gauge six-scalar snapshots, in name order — the same format
        a dict of :class:`TimeWeightedGauge` produces.  Like the standalone
        gauge, this never flushes: the pending register is captured raw."""
        return tuple(
            (
                name,
                (
                    self.value[i],
                    self.last_time[i],
                    self.start_time[i],
                    self.integral[i],
                    self.peak[i],
                    self._now,
                ),
            )
            for i, name in enumerate(self.names)
        )

    def restore_tuples(
        self,
        gauges: tuple[tuple[str, tuple[float, float, float, float, float, float]], ...],
    ) -> None:
        """Rewind from :meth:`snapshot_tuples` output (names pre-validated
        by the caller).

        Rebuilds the pending register exactly: the fold clock comes back
        from the ``last_time`` scalars and the pending clock from the sixth
        scalar, so a checkpoint taken mid-defer resumes without re-folding
        or dropping the deferred interval.  Scalars are stored as Python
        floats whatever type they arrive in.
        """
        columns = (self.value, self.last_time, self.start_time, self.integral, self.peak)
        for i, (_, state) in enumerate(gauges):
            for column, x in zip(columns, state[:5]):
                column[i] = float(x)
        lt = self.last_time
        if any(t != lt[0] for t in lt):
            raise SimulationError("gauge bank clocks must move in lockstep")
        self._since = lt[0] if lt else 0.0
        nows = {float(state[5]) for _, state in gauges}
        if len(nows) > 1:
            raise SimulationError("gauge bank clocks must move in lockstep")
        self._now = nows.pop() if nows else 0.0
        if self._now < self._since:
            raise SimulationError(
                f"gauge snapshot pending clock {self._now} precedes its "
                f"fold time {self._since}"
            )
