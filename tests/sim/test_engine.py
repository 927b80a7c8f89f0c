"""Unit tests for the flat arrival/departure calendar engine."""

import pytest

from repro.config import tiny_test
from repro.errors import SimulationError
from repro.sim import DDCSimulator, EventLog, FlatEngine
from repro.workloads import resolve
from tests.conftest import make_vm


def _request(spec, vm_id=0, arrival=0.0, lifetime=10.0):
    return resolve(
        make_vm(vm_id=vm_id, arrival=arrival, lifetime=lifetime, cpu_cores=4,
                ram_gb=4.0, storage_gb=64.0),
        spec,
    )


def _drive(engine, requests, until=None, place=lambda r: True):
    """Run the engine recording the event order; returns the trace."""
    events = []

    def on_arrival(request, now):
        events.append(("arrival", request.vm_id, now))
        return request if place(request) else None

    def on_departure(payload, now):
        events.append(("departure", payload.vm_id, now))

    engine.run(iter(requests), on_arrival, on_departure, until=until)
    return events


class TestFlatEngine:
    def test_empty_run(self):
        engine = FlatEngine()
        assert engine.run(iter(()), lambda r, t: None, lambda p, t: None) == 0.0
        assert engine.active_count == 0

    def test_lifecycle_order_and_clock(self, tiny_spec):
        engine = FlatEngine()
        requests = [_request(tiny_spec, vm_id=i, arrival=float(i), lifetime=2.5)
                    for i in range(3)]
        events = _drive(engine, requests)
        assert [e[0:2] for e in events] == [
            ("arrival", 0), ("arrival", 1), ("arrival", 2),
            ("departure", 0), ("departure", 1), ("departure", 2),
        ]
        assert engine.now == 4.5  # last departure: arrival 2 + lifetime 2.5

    def test_equal_time_arrival_beats_departure(self, tiny_spec):
        # VM 0 departs at t=5; VM 1 arrives at t=5: at equal times the
        # arrival fires first.
        requests = [
            _request(tiny_spec, vm_id=0, arrival=0.0, lifetime=5.0),
            _request(tiny_spec, vm_id=1, arrival=5.0, lifetime=1.0),
        ]
        events = _drive(FlatEngine(), requests)
        assert [e[0:2] for e in events] == [
            ("arrival", 0), ("arrival", 1), ("departure", 0), ("departure", 1),
        ]

    def test_equal_time_departures_fifo(self, tiny_spec):
        requests = [
            _request(tiny_spec, vm_id=0, arrival=0.0, lifetime=10.0),
            _request(tiny_spec, vm_id=1, arrival=2.0, lifetime=8.0),
        ]
        events = _drive(FlatEngine(), requests)
        departures = [e for e in events if e[0] == "departure"]
        assert [d[1] for d in departures] == [0, 1]  # commit order

    def test_dropped_vm_schedules_no_departure(self, tiny_spec):
        requests = [_request(tiny_spec, vm_id=0, arrival=0.0)]
        events = _drive(FlatEngine(), requests, place=lambda r: False)
        assert events == [("arrival", 0, 0.0)]

    def test_until_stops_before_later_events(self, tiny_spec):
        engine = FlatEngine()
        requests = [_request(tiny_spec, vm_id=0, arrival=0.0, lifetime=10.0),
                    _request(tiny_spec, vm_id=1, arrival=7.0, lifetime=10.0)]
        events = _drive(engine, requests, until=5.0)
        assert [e[0:2] for e in events] == [("arrival", 0)]
        assert engine.now == 5.0
        assert engine.active_count == 1  # VM 0 still holds resources

    def test_until_past_last_event_extends_clock(self, tiny_spec):
        engine = FlatEngine()
        _drive(engine, [_request(tiny_spec, arrival=0.0, lifetime=1.0)], until=99.0)
        assert engine.now == 99.0

    def test_until_in_the_past_rejected(self):
        engine = FlatEngine(initial_time=10.0)
        with pytest.raises(SimulationError):
            engine.run(iter(()), lambda r, t: None, lambda p, t: None, until=5.0)

    def test_unsorted_arrival_stream_rejected(self, tiny_spec):
        requests = [_request(tiny_spec, vm_id=0, arrival=5.0),
                    _request(tiny_spec, vm_id=1, arrival=1.0)]
        with pytest.raises(SimulationError, match="not sorted"):
            _drive(FlatEngine(), requests)

    def test_departure_in_the_past_rejected(self):
        engine = FlatEngine(initial_time=3.0)
        with pytest.raises(SimulationError):
            engine.schedule_departure(1.0, object())


class TestSimulatorCalendar:
    def test_flat_is_the_only_engine(self):
        DDCSimulator(tiny_test(), "risa")
        for name in ("generator", "warp"):
            with pytest.raises(SimulationError, match="only engine"):
                DDCSimulator(tiny_test(), "risa", engine=name)

    def test_unsorted_trace_sorted_before_the_calendar(self, tiny_spec):
        # Trace files need not be arrival-sorted; the simulator restores
        # arrival order (stable) before streaming into the calendar.
        vms = [
            make_vm(vm_id=0, arrival=9.0, lifetime=2.0, cpu_cores=4,
                    ram_gb=4.0, storage_gb=64.0),
            make_vm(vm_id=1, arrival=1.0, lifetime=2.0, cpu_cores=4,
                    ram_gb=4.0, storage_gb=64.0),
        ]
        result = DDCSimulator(tiny_spec, "risa").run(vms)
        assert result.summary.scheduled_vms == 2
        assert result.end_time == 11.0

    def test_unsorted_generator_input_buffered_and_sorted(self, tiny_spec):
        # Non-sequence iterables accept any order (buffered + sorted) unless stream=True opts in
        # to lazy consumption.
        def trace():
            yield make_vm(vm_id=0, arrival=9.0, lifetime=2.0, cpu_cores=4,
                          ram_gb=4.0, storage_gb=64.0)
            yield make_vm(vm_id=1, arrival=1.0, lifetime=2.0, cpu_cores=4,
                          ram_gb=4.0, storage_gb=64.0)

        result = DDCSimulator(tiny_spec, "risa").run(trace())
        assert result.summary.scheduled_vms == 2
        assert result.end_time == 11.0

    def test_stream_mode_enforces_sorted_arrivals(self, tiny_spec):
        def trace():
            yield make_vm(vm_id=0, arrival=9.0, cpu_cores=4, ram_gb=4.0,
                          storage_gb=64.0)
            yield make_vm(vm_id=1, arrival=1.0, cpu_cores=4, ram_gb=4.0,
                          storage_gb=64.0)

        sim = DDCSimulator(tiny_spec, "risa")
        with pytest.raises(SimulationError, match="not sorted"):
            sim.run(trace(), stream=True)

    def test_stream_mode_runs_sorted_iterables_lazily(self, tiny_spec):
        def trace():
            for i in range(3):
                yield make_vm(vm_id=i, arrival=float(i), lifetime=2.0,
                              cpu_cores=4, ram_gb=4.0, storage_gb=64.0)

        result = DDCSimulator(tiny_spec, "risa").run(
            trace(), stream=True
        )
        assert result.summary.scheduled_vms == 3

    def test_equal_arrivals_keep_trace_order_when_sorting(self, tiny_spec):
        # Stable sort: among equal arrival times the trace order decides.
        vms = [
            make_vm(vm_id=0, arrival=5.0, lifetime=1.0, cpu_cores=4,
                    ram_gb=4.0, storage_gb=64.0),
            make_vm(vm_id=1, arrival=1.0, lifetime=1.0, cpu_cores=4,
                    ram_gb=4.0, storage_gb=64.0),
            make_vm(vm_id=2, arrival=1.0, lifetime=1.0, cpu_cores=4,
                    ram_gb=4.0, storage_gb=64.0),
        ]
        log = EventLog()
        DDCSimulator(tiny_spec, "risa", event_log=log).run(vms)
        arrivals = [e.vm_id for e in log.events if e.kind == "arrival"]
        assert arrivals == [1, 2, 0]
