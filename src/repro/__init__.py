"""repro — a reproduction of "RISA: Round-Robin Intra-Rack Friendly
Scheduling Algorithm for Disaggregated Datacenters" (Kabir, Kim, Nikdast,
SC-W 2023).

Quickstart::

    from repro import paper_default, generate_synthetic, compare_schedulers

    spec = paper_default()
    vms = generate_synthetic(seed=0)
    comparison = compare_schedulers(spec, vms)
    print(comparison.table(["inter_rack_assignments", "avg_cpu_ram_latency_ns"]))

See README.md for the architecture overview and EXPERIMENTS.md for the
paper-versus-measured record of every figure.
"""

from .analysis import ComparisonResult, compare_schedulers
from .config import (
    BandwidthBasis,
    ClusterSpec,
    DDCConfig,
    EnergyConfig,
    LatencyConfig,
    NetworkConfig,
    paper_default,
    scaled,
    tiny_test,
    toy_example,
)
from .errors import (
    AllocationError,
    CapacityError,
    ConfigurationError,
    NetworkAllocationError,
    ReproError,
    SchedulerError,
    SimulationError,
    TopologyError,
    WorkloadError,
)
from .metrics import MetricsCollector, RunSummary, VMRecord
from .network import LinkSelectionPolicy, NetworkFabric
from .schedulers import (
    ALL_SCHEDULERS,
    NALBScheduler,
    NULBScheduler,
    PAPER_SCHEDULERS,
    Placement,
    RISABFScheduler,
    RISAScheduler,
    Scheduler,
    create_scheduler,
    register_scheduler,
)
from .sim import DDCSimulator, SimulationResult, simulate
from .topology import Cluster, build_cluster, prime_availability
from .types import ResourceType, ResourceVector
from .workloads import (
    VMRequest,
    generate_synthetic,
    load_azure_trace_csv,
    load_trace,
    save_trace,
    synthesize_azure,
)

__version__ = "1.0.0"

__all__ = [
    "ALL_SCHEDULERS",
    "AllocationError",
    "BandwidthBasis",
    "CapacityError",
    "Cluster",
    "ClusterSpec",
    "ComparisonResult",
    "ConfigurationError",
    "DDCConfig",
    "DDCSimulator",
    "EnergyConfig",
    "LatencyConfig",
    "LinkSelectionPolicy",
    "MetricsCollector",
    "NALBScheduler",
    "NULBScheduler",
    "NetworkAllocationError",
    "NetworkConfig",
    "NetworkFabric",
    "PAPER_SCHEDULERS",
    "Placement",
    "RISABFScheduler",
    "RISAScheduler",
    "ReproError",
    "ResourceType",
    "ResourceVector",
    "RunSummary",
    "Scheduler",
    "SchedulerError",
    "SimulationError",
    "SimulationResult",
    "TopologyError",
    "VMRecord",
    "VMRequest",
    "WorkloadError",
    "build_cluster",
    "compare_schedulers",
    "create_scheduler",
    "generate_synthetic",
    "load_azure_trace_csv",
    "load_trace",
    "paper_default",
    "prime_availability",
    "register_scheduler",
    "save_trace",
    "scaled",
    "simulate",
    "synthesize_azure",
    "tiny_test",
    "toy_example",
]
