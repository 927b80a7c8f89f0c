"""Common value types shared across the library.

The central type is :class:`ResourceType` — the three disaggregated resource
kinds from the paper's architecture (Section 3.1) — and
:class:`ResourceVector`, an immutable integer triple of *units* used for all
capacity accounting.

Unit accounting
---------------
The paper's hardware is quantized: a brick holds 16 units, a CPU unit is
4 cores, a RAM unit is 4 GB, a storage unit is 64 GB (Table 1).  All hot-path
arithmetic in this library is integer unit arithmetic; conversion from
natural quantities (cores / GB) happens once, at :class:`~repro.workloads.vm.
VMRequest` construction time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Mapping


class ResourceType(enum.Enum):
    """The three disaggregated resource kinds (Section 3.1 of the paper)."""

    CPU = "cpu"
    RAM = "ram"
    STORAGE = "storage"

    # Members are singletons compared by identity, so hash by identity too:
    # ``Enum.__hash__`` is a Python-level call on every dict/set lookup.
    __hash__ = object.__hash__

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResourceType.{self.name}"


#: Deterministic iteration order used everywhere resource types are scanned
#: (contention-ratio ties, BFS search order, reporting columns).
RESOURCE_ORDER: tuple[ResourceType, ...] = (
    ResourceType.CPU,
    ResourceType.RAM,
    ResourceType.STORAGE,
)


class SwitchTier(enum.Enum):
    """Where a switch sits in the two-tier optical hierarchy (Figure 3)."""

    BOX = "box"
    RACK = "rack"
    INTER_RACK = "inter_rack"


class TierId:
    """Identity of one link tier in an N-tier fabric.

    ``level`` counts aggregation hops from the leaves: level 0 links connect
    box switches to rack switches, level 1 connects rack switches to the
    next aggregation stage, and so on up to the root.  Instances are
    interned — ``TierId(0, "intra_rack")`` always returns the same object —
    so identity comparisons (``link.tier is tier``), equality, and dict
    lookups all behave exactly like the enum members this class replaces,
    and the legacy two-tier constants below keep working against any fabric
    whose topology names its tiers the same way.
    """

    __slots__ = ("level", "name")

    _interned: "dict[tuple[int, str], TierId]" = {}

    def __new__(cls, level: int, name: str) -> "TierId":
        key = (level, name)
        inst = cls._interned.get(key)
        if inst is None:
            inst = super().__new__(cls)
            inst.level = level
            inst.name = name
            cls._interned[key] = inst
        return inst

    @property
    def value(self) -> str:
        """The tier name (kept for compatibility with the old enum API)."""
        return self.name

    def __reduce__(self):
        # Re-intern on unpickle so identity semantics survive process pools.
        return (type(self), (self.level, self.name))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TierId({self.level}, {self.name!r})"


class _LinkTierMeta(type):
    """Makes ``for tier in LinkTier`` iterate the two legacy tiers."""

    def __iter__(cls):
        return iter((cls.INTRA_RACK, cls.INTER_RACK))

    def __len__(cls) -> int:
        return 2


class LinkTier(metaclass=_LinkTierMeta):
    """The paper's two link tiers, as :class:`TierId` constants.

    Box<->rack-switch links are *intra-rack*, rack-switch<->inter-rack-
    switch links are *inter-rack* (Figure 3).  Deeper hierarchies mint their
    own :class:`TierId` values from the fabric topology; this shim exists so
    two-tier call sites (and the paper's figures) keep their spelling.
    """

    INTRA_RACK = TierId(0, "intra_rack")
    INTER_RACK = TierId(1, "inter_rack")


@dataclass(frozen=True, slots=True)
class ResourceVector:
    """An immutable (cpu, ram, storage) triple measured in *units*.

    Supports element-wise arithmetic and comparison helpers used by the
    schedulers.  Negative components are permitted in intermediate arithmetic
    but :meth:`is_valid` / :meth:`fits_within` express the invariants callers
    actually check.
    """

    cpu: int = 0
    ram: int = 0
    storage: int = 0

    def get(self, rtype: ResourceType) -> int:
        """Return the component for ``rtype``."""
        if rtype is ResourceType.CPU:
            return self.cpu
        if rtype is ResourceType.RAM:
            return self.ram
        return self.storage

    def replace(self, rtype: ResourceType, value: int) -> "ResourceVector":
        """Return a copy with the ``rtype`` component set to ``value``."""
        parts = {t: self.get(t) for t in RESOURCE_ORDER}
        parts[rtype] = value
        return ResourceVector(
            cpu=parts[ResourceType.CPU],
            ram=parts[ResourceType.RAM],
            storage=parts[ResourceType.STORAGE],
        )

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.cpu + other.cpu, self.ram + other.ram, self.storage + other.storage
        )

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.cpu - other.cpu, self.ram - other.ram, self.storage - other.storage
        )

    def __iter__(self) -> Iterator[int]:
        yield self.cpu
        yield self.ram
        yield self.storage

    def fits_within(self, other: "ResourceVector") -> bool:
        """True when every component of ``self`` is <= that of ``other``."""
        return (
            self.cpu <= other.cpu
            and self.ram <= other.ram
            and self.storage <= other.storage
        )

    def is_valid(self) -> bool:
        """True when no component is negative."""
        return self.cpu >= 0 and self.ram >= 0 and self.storage >= 0

    def is_zero(self) -> bool:
        """True when every component is zero."""
        return self.cpu == 0 and self.ram == 0 and self.storage == 0

    def total(self) -> int:
        """Sum of all three components (used for quick size heuristics)."""
        return self.cpu + self.ram + self.storage

    def as_dict(self) -> dict[str, int]:
        """Serialize to a plain dict keyed by resource-type value strings."""
        return {t.value: self.get(t) for t in RESOURCE_ORDER}

    @classmethod
    def from_mapping(cls, mapping: Mapping[ResourceType, int]) -> "ResourceVector":
        """Build from a ``{ResourceType: units}`` mapping (missing keys = 0)."""
        return cls(
            cpu=int(mapping.get(ResourceType.CPU, 0)),
            ram=int(mapping.get(ResourceType.RAM, 0)),
            storage=int(mapping.get(ResourceType.STORAGE, 0)),
        )


def ceil_div(numerator: int, denominator: int) -> int:
    """Integer ceiling division for non-negative operands.

    Used to quantize natural quantities (cores, GB) into hardware units.
    """
    if denominator <= 0:
        raise ValueError(f"denominator must be positive, got {denominator}")
    if numerator < 0:
        raise ValueError(f"numerator must be non-negative, got {numerator}")
    return -(-numerator // denominator)
