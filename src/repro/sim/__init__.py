"""Discrete-event simulation: the flat calendar engine and the DDC driver."""

from .engine import EngineSnapshot, FlatEngine
from .event_log import EventLog, SimEvent
from .results import SimulationResult
from .simulator import DDCSimulator, RunCheckpoint, SimCheckpoint, simulate

__all__ = [
    "DDCSimulator",
    "EngineSnapshot",
    "EventLog",
    "FlatEngine",
    "RunCheckpoint",
    "SimEvent",
    "SimulationResult",
    "SimCheckpoint",
    "simulate",
]
