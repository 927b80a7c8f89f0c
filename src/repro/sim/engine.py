"""Flat typed-event calendar: the simulator's engine.

A DDC trace only ever produces two event kinds, so the calendar is *typed*
and flat — no generator processes, no callbacks:

* **arrivals** come pre-sorted by arrival time and are consumed lazily from
  an iterator — O(1) engine state per pending arrival, O(active VMs) overall
  when the caller streams the trace;
* **departures** live on a binary heap of ``(time, sequence, payload)``.

Two tie rules fix the event order, and with it every digest: at equal times
arrivals fire before departures, and equal-time departures fire in the order
their placements were committed (the heap's ``sequence``).  Equal-time
arrivals keep trace order.

The calendar is *resumable*: :meth:`bind_arrivals` attaches the arrival
stream once and :meth:`advance` drives it any number of times (optionally up
to a horizon), so a run can pause mid-trace, :meth:`snapshot` its heap and
clock, branch, and :meth:`restore` — the primitive behind
``DDCSimulator.fork()`` and the what-if scenario engine.  :meth:`run` keeps
the original one-shot semantics exactly (it is now bind + advance).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional, TypeVar

from ..errors import SimulationError
from ..workloads import ResolvedRequest

P = TypeVar("P")

#: ``on_arrival(request, now)`` -> departure payload, or None when the VM is
#: dropped (no departure is scheduled).
ArrivalHandler = Callable[[ResolvedRequest, float], Optional[P]]
#: ``on_departure(payload, now)`` releases whatever the arrival committed.
DepartureHandler = Callable[[P, float], Any]
#: ``on_departures(batch)`` applies a run of consecutive departures at once;
#: ``batch`` is ``[(time, payload), ...]`` in exact pop order.
DepartureBatchHandler = Callable[[list[tuple[float, Any]]], Any]


@dataclass(frozen=True, slots=True)
class EngineSnapshot:
    """Copy-on-fork state of a :class:`FlatEngine` calendar.

    ``departures`` is the heap list captured verbatim (a valid heap in its
    own right; entries are immutable tuples).  ``next_arrival_index`` counts
    arrivals already *dispatched* from the bound stream — the caller owns the
    stream, so restoring means re-binding the stream from that index via
    :meth:`FlatEngine.bind_arrivals`.  ``sequence`` restores the departure
    tie-break counter, which is what makes a forked continuation order
    equal-time departures bit-identically to the uninterrupted run.
    """

    now: float
    sequence: int
    departures: tuple[tuple[float, int, Any], ...]
    next_arrival_index: int


class FlatEngine:
    """Arrival/departure calendar with no generators and no callbacks.

    One engine drives one run: bind the arrival iterator, then
    :meth:`advance` consumes it and drains the departure heap, advancing
    :attr:`now` monotonically.  Arrivals must be sorted by arrival time
    (ties keep iterator order); an out-of-order arrival raises
    :class:`SimulationError` rather than silently reordering history.
    """

    __slots__ = ("_now", "_departures", "_sequence", "_arrivals", "_pending", "_consumed")

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._departures: list[tuple[float, int, Any]] = []
        self._sequence = 0
        self._arrivals: Iterator[ResolvedRequest] | None = None
        self._pending: ResolvedRequest | None = None
        self._consumed = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_count(self) -> int:
        """Departures still pending (VMs currently holding resources)."""
        return len(self._departures)

    @property
    def next_arrival_index(self) -> int:
        """Index (into the bound stream) of the next un-dispatched arrival."""
        return self._consumed - (1 if self._pending is not None else 0)

    @property
    def exhausted(self) -> bool:
        """True when no arrival or departure remains on the calendar."""
        return self._pending is None and not self._departures

    def bind_arrivals(
        self, arrivals: Iterable[ResolvedRequest], consumed: int = 0
    ) -> None:
        """Attach the arrival stream (pre-fetching its head).

        ``consumed`` seeds the dispatched-arrival counter when the stream is
        a suffix of a longer trace — the restore path passes the snapshot's
        ``next_arrival_index`` here so subsequent snapshots stay aligned with
        the full trace.

        ``arrivals`` may be a plain iterable (which must already *be* the
        suffix at ``consumed``) or an arrival *source* exposing
        ``iter_requests(start)`` — e.g. a
        :class:`~repro.workloads.columns.ColumnarArrivals` — in which case
        the engine asks the source for the suffix itself, so restore/fork
        never materialize the earlier part of the trace.
        """
        source = getattr(arrivals, "iter_requests", None)
        if source is not None:
            self._arrivals = source(consumed)
        else:
            self._arrivals = iter(arrivals)
        self._consumed = consumed
        self._pending = next(self._arrivals, None)
        if self._pending is not None:
            self._consumed += 1

    def _pop_arrival(self) -> None:
        assert self._arrivals is not None
        self._pending = next(self._arrivals, None)
        if self._pending is not None:
            self._consumed += 1

    def schedule_departure(self, time: float, payload: Any) -> None:
        """Enqueue a departure at an absolute time (used by :meth:`advance`)."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule a departure into the past: {time} < {self._now}"
            )
        heapq.heappush(self._departures, (time, self._sequence, payload))
        self._sequence += 1

    def run(
        self,
        arrivals: Iterable[ResolvedRequest],
        on_arrival: ArrivalHandler,
        on_departure: DepartureHandler,
        until: float | None = None,
        on_departures: DepartureBatchHandler | None = None,
    ) -> float:
        """One-shot convenience: bind ``arrivals`` and advance the calendar."""
        self.bind_arrivals(arrivals)
        return self.advance(
            on_arrival, on_departure, until=until, on_departures=on_departures
        )

    def advance(
        self,
        on_arrival: ArrivalHandler,
        on_departure: DepartureHandler,
        until: float | None = None,
        on_departures: DepartureBatchHandler | None = None,
    ) -> float:
        """Drive the calendar until both queues drain (or past ``until``).

        Returns the final clock.  With ``until`` given, events strictly after
        ``until`` are left unprocessed and the clock lands exactly on
        ``until``.  Calling :meth:`advance` again continues from where the
        last call stopped.

        Without ``on_departures``, each departure goes to ``on_departure``
        on its own.  With ``on_departures`` given, runs of consecutive departures are
        drained in one sweep — every departure up to (strictly before) the
        next pending arrival and within ``until`` pops in exact heap order
        into one list, the clock jumps to the last entry, and the whole run
        is handed to ``on_departures`` at once so the caller can apply it
        with fused array operations.  Between two scheduler decision points
        (arrivals) nothing observes intermediate clocks, so batching is
        invisible to event ordering; a batch never crosses ``until``, so
        checkpoints cannot land inside one.
        """
        if until is not None and until < self._now:
            raise SimulationError(
                f"until={until} is before current time {self._now}"
            )
        departures = self._departures
        while self._pending is not None or departures:
            pending = self._pending
            if pending is not None and (
                not departures or pending.vm.arrival <= departures[0][0]
            ):
                # Arrival next (ties go to arrivals).
                time = pending.vm.arrival
                if time < self._now:
                    raise SimulationError(
                        f"arrival stream is not sorted: VM {pending.vm_id} "
                        f"arrives at {time} after the clock reached {self._now}"
                    )
                if until is not None and time > until:
                    self._now = until
                    return self._now
                self._now = time
                payload = on_arrival(pending, time)
                if payload is not None:
                    self.schedule_departure(pending.vm.departure, payload)
                self._pop_arrival()
            elif on_departures is not None:
                # Departure next: collect the whole run up to the next
                # arrival (ties go to arrivals — strict bound) and horizon.
                bound = pending.vm.arrival if pending is not None else None
                time = departures[0][0]
                if until is not None and time > until:
                    self._now = until
                    return self._now
                batch: list[tuple[float, Any]] = []
                while departures:
                    time = departures[0][0]
                    if bound is not None and time >= bound:
                        break
                    if until is not None and time > until:
                        break
                    time, _, payload = heapq.heappop(departures)
                    batch.append((time, payload))
                self._now = batch[-1][0]
                on_departures(batch)
            else:
                time = departures[0][0]
                if until is not None and time > until:
                    self._now = until
                    return self._now
                time, _, payload = heapq.heappop(departures)
                self._now = time
                on_departure(payload, time)
        if until is not None:
            self._now = max(self._now, until)
        return self._now

    # ------------------------------------------------------------------ #
    # Fork support
    # ------------------------------------------------------------------ #

    def snapshot(self) -> EngineSnapshot:
        """Capture the calendar: clock, tie-break counter, departure heap,
        and the position of the next un-dispatched arrival."""
        return EngineSnapshot(
            now=self._now,
            sequence=self._sequence,
            departures=tuple(self._departures),
            next_arrival_index=self.next_arrival_index,
        )

    def restore(
        self, snap: EngineSnapshot, arrivals: Iterable[ResolvedRequest]
    ) -> None:
        """Rewind the calendar to ``snap``.

        ``arrivals`` must be the original stream's suffix starting at
        ``snap.next_arrival_index`` — the engine cannot rewind an iterator it
        does not own — or an arrival source with ``iter_requests(start)``,
        which the engine re-seeks itself.  The departure heap entries come back verbatim
        (payloads included), so continuation is bit-identical as long as the
        caller also rewinds whatever state those payloads reference.
        """
        self._now = snap.now
        self._sequence = snap.sequence
        self._departures = list(snap.departures)
        self.bind_arrivals(arrivals, consumed=snap.next_arrival_index)
