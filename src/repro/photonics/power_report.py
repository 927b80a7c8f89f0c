"""Aggregate optical energy/power accounting for a scheduled workload.

Figure 9 reports "power consumption for optical components": transceiver
power plus total optical switch power across every switch a circuit
traverses (box + rack + inter-rack in the paper's two-tier fabric; box +
rack + pod + spine on deeper hierarchies — each circuit carries the
per-tier switch radices of its resolved path, so Equation (1) prices every
aggregation stage with its own radix).  We accumulate per-VM energy at
assignment time (the lifetime is known) and report the workload's average
optical power as total energy over makespan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import EnergyConfig
from ..errors import SimulationError
from ..network import Circuit
from .switch_energy import switch_reconfig_energy_j, switch_trim_power_w
from .transceiver import transceiver_energy_j


@dataclass(slots=True)
class VMOpticalEnergy:
    """Energy breakdown for one VM's circuits."""

    vm_id: int
    switch_energy_j: float
    transceiver_energy_j: float

    @property
    def total_j(self) -> float:
        """Switch plus transceiver energy."""
        return self.switch_energy_j + self.transceiver_energy_j


#: Equation (1)'s lifetime-independent terms of every switch on a path:
#: ``(reconfig_j, trim_w)`` per switch, keyed by the path's switch radices.
SwitchTerms = dict[tuple[int, ...], tuple[tuple[float, float], ...]]


def vm_optical_energy(
    vm_id: int,
    circuits: list[Circuit],
    lifetime_time_units: float,
    energy: EnergyConfig,
    switch_terms: SwitchTerms | None = None,
) -> VMOpticalEnergy:
    """Equation (1) plus transceiver energy over all of a VM's circuits.

    Each switch costs ``reconfig + trim * lifetime`` with its two terms
    looked up in ``switch_terms`` (filled on first use; a
    :class:`PowerReport` passes its own, so a path's radices are priced
    once per report).  That is the operation sequence of
    :func:`~repro.photonics.switch_energy.switch_energy_j`, summed per
    circuit like :func:`~repro.photonics.switch_energy.path_switch_energy_j`,
    so the energies are bit-identical to pricing every switch afresh.
    """
    lifetime_s = lifetime_time_units * energy.seconds_per_time_unit
    if circuits and lifetime_s < 0:
        raise ValueError(f"lifetime must be >= 0, got {lifetime_s}")
    if switch_terms is None:
        switch_terms = {}
    switch_j = 0.0
    tx_j = 0.0
    for circuit in circuits:
        ports = circuit.switch_ports
        terms = switch_terms.get(ports)
        if terms is None:
            terms = switch_terms[ports] = tuple(
                (switch_reconfig_energy_j(p, energy), switch_trim_power_w(p, energy))
                for p in ports
            )
        switch_j += sum(reconfig + trim * lifetime_s for reconfig, trim in terms)
        tx_j += transceiver_energy_j(
            circuit.demand_gbps, lifetime_s, circuit.hop_count, energy
        )
    return VMOpticalEnergy(
        vm_id=vm_id, switch_energy_j=switch_j, transceiver_energy_j=tx_j
    )


@dataclass(slots=True)
class PowerReport:
    """Workload-level accumulator of optical energy.

    ``average_power_w(makespan)`` divides accumulated energy by the workload
    makespan (in time units) to yield the Figure 9 quantity.
    """

    energy_config: EnergyConfig
    switch_energy_j: float = 0.0
    transceiver_energy_j: float = 0.0
    per_vm: list[VMOpticalEnergy] = field(default_factory=list)
    #: Per-path Equation (1) terms (see :func:`vm_optical_energy`); a pure
    #: function of ``energy_config``, so snapshots never carry it.  Not an
    #: ``lru_cache``: an :class:`EnergyConfig` holds a dict and is unhashable.
    _switch_terms: SwitchTerms = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def total_energy_j(self) -> float:
        """All optical energy recorded so far."""
        return self.switch_energy_j + self.transceiver_energy_j

    def record(self, entry: VMOpticalEnergy) -> None:
        """Add one VM's energy to the totals."""
        self.per_vm.append(entry)
        self.switch_energy_j += entry.switch_energy_j
        self.transceiver_energy_j += entry.transceiver_energy_j

    def record_vm(
        self, vm_id: int, circuits: list[Circuit], lifetime_time_units: float
    ) -> VMOpticalEnergy:
        """Compute and record one VM's optical energy."""
        entry = vm_optical_energy(
            vm_id, circuits, lifetime_time_units, self.energy_config,
            self._switch_terms,
        )
        self.record(entry)
        return entry

    # ------------------------------------------------------------------ #
    # Fork support
    # ------------------------------------------------------------------ #

    def snapshot(self) -> tuple[float, float, int]:
        """Capture the scalar energy tallies plus the per-VM entry count.

        O(1): the per-VM breakdown list is append-only, so its length is
        enough to rewind it without copying entries.
        """
        return (self.switch_energy_j, self.transceiver_energy_j, len(self.per_vm))

    def restore(self, state: tuple[float, float, int]) -> None:
        """Rewind to a state captured by :meth:`snapshot`.

        The per-VM list is truncated back to its snapshot length; the state
        must come from *this* report's own history (the list can only be
        rewound, never regrown).
        """
        switch_j, tx_j, count = state
        if count > len(self.per_vm):
            raise SimulationError(
                f"power snapshot holds {count} per-VM entries but the report "
                f"has only {len(self.per_vm)}; snapshots rewind, never regrow"
            )
        del self.per_vm[count:]
        self.switch_energy_j = switch_j
        self.transceiver_energy_j = tx_j

    def average_power_w(self, makespan_time_units: float) -> float:
        """Average optical power over the workload (watts)."""
        if makespan_time_units <= 0:
            return 0.0
        seconds = makespan_time_units * self.energy_config.seconds_per_time_unit
        return self.total_energy_j / seconds

    def average_power_kw(self, makespan_time_units: float) -> float:
        """Average optical power in kilowatts (the Figure 9 unit)."""
        return self.average_power_w(makespan_time_units) / 1e3
