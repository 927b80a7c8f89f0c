"""The hierarchical optical fabric of the DDC (Figures 2-3, generalized).

The paper's fabric is two-tier: every box switch connects to its rack's
intra-rack switch through a bundle of parallel links, every rack switch to
the single inter-rack switch through another bundle.  This module models the
N-tier generalization described by :class:`~repro.config.FabricTopology`:
boxes (level 0) hang off rack switches (level 1), racks off pod switches,
pods off spines, ... until a single root.  A flow between two boxes climbs
to their lowest common ancestor and back down:

- same rack:     box A -> rack switch -> box B            (2 links)
- across racks:  box A -> rack A -> parent -> rack B -> box B  (4 links)
- across pods:   box A -> rack A -> pod A -> spine -> pod B -> rack B -> box B

Circuit allocation is atomic over the variable-length path: either every hop
reserves bandwidth or nothing does.  Per-tier used-bandwidth counters are
maintained incrementally so utilization sampling is O(1) per tier — the
quantities plotted in Figure 8 (and their per-tier generalization).

The default two-tier topology reproduces the paper's fabric bit-for-bit:
same bundles, same link order, same switch-port tuples, same tier counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from ..config import ClusterSpec, FabricTopology
from ..errors import NetworkAllocationError, TopologyError
from ..state import FabricStateArrays, arrays_enabled
from ..topology import Cluster
from ..types import TierId
from .bundle import LinkBundle, LinkSelectionPolicy
from .circuit import Circuit
from .link import BANDWIDTH_EPS, Link

#: Resolved paths depend only on the immutable topology, so the array
#: backend memoizes them per (box_a, box_b); the cap bounds memory on
#: adversarial access patterns (cleared wholesale when hit).
_PATH_CACHE_MAX = 65536

#: Residual capacity of a failed link.  Down links keep their identity (ids,
#: bundle membership, committed reservations) but offer effectively zero
#: headroom: any real demand fails ``can_fit`` while zero-demand circuits —
#: which reserve nothing — still route.  A strictly positive value keeps the
#: bundle capacity invariants (and the segment-tree keys) well-defined.
LINK_DOWN_CAPACITY_GBPS = 1e-6


@dataclass(frozen=True, slots=True)
class FabricPath:
    """The resolved route between two boxes.

    ``bundles`` holds one :class:`LinkBundle` per hop (ascending on the A
    side, then descending on the B side); ``switch_ports`` the radix of
    every switch traversed, in path order; ``lca_level`` the node level of
    the lowest common ancestor (1 = same rack).
    """

    bundles: tuple[LinkBundle, ...]
    switch_ports: tuple[int, ...]
    lca_level: int

    @property
    def intra_rack(self) -> bool:
        """True when both endpoints share a rack."""
        return self.lca_level <= 1


class NetworkFabric:
    """Bandwidth state of the whole optical network, over N tiers."""

    __slots__ = (
        "spec",
        "topology",
        "_tiers",
        "_bundles",
        "_ancestors",
        "_rack_ancestors",
        "_tier_capacity",
        "_tier_used",
        "_num_racks",
        "_node_counts",
        "_rings_cache",
        "_state_arrays",
        "_version",
        "_path_cache",
        "_down_capacity",
    )

    def __init__(
        self,
        spec: ClusterSpec,
        cluster: Cluster,
        topology: FabricTopology | None = None,
    ) -> None:
        self.spec = spec
        topo = topology if topology is not None else spec.network.fabric_topology()
        self.topology = topo
        num_racks = cluster.num_racks
        self._num_racks = num_racks
        node_counts = topo.node_counts(num_racks)  # levels 1..T
        self._node_counts = node_counts
        self._tiers: tuple[TierId, ...] = topo.tier_ids
        self._tier_capacity: dict[TierId, float] = {t: 0.0 for t in self._tiers}
        self._tier_used: dict[TierId, float] = {t: 0.0 for t in self._tiers}
        self._rings_cache: dict[int, tuple[tuple[tuple[int, int], ...], ...]] = {}

        # Ancestor chains: one per rack (levels 1..T), one per box (levels
        # 0..T).  The box chain is the rack chain prefixed with the box id.
        rack_chains = [topo.rack_ancestors(r) for r in range(num_racks)]
        self._rack_ancestors: tuple[tuple[int, ...], ...] = tuple(rack_chains)
        self._ancestors: dict[int, tuple[int, ...]] = {}

        # Bundles per tier level: tier 0 keyed by box id, tier l >= 1 keyed
        # by the level-l node id.  Link ids are assigned tier-major in
        # construction order, matching the legacy fabric exactly.
        self._bundles: tuple[dict[int, LinkBundle], ...] = tuple(
            {} for _ in range(topo.num_tiers)
        )
        next_link_id = 0
        tier0 = topo.tier_id(0)
        bw0 = topo.tier_link_bandwidth_gbps(0)
        for box in cluster.all_boxes():
            links = [
                Link(
                    link_id=next_link_id + i,
                    tier=tier0,
                    capacity_gbps=bw0,
                    a=f"box:{box.box_id}",
                    b=f"rack:{box.rack_index}",
                )
                for i in range(topo.tiers[0].uplinks)
            ]
            next_link_id += len(links)
            bundle = LinkBundle(name=f"box{box.box_id}-rack{box.rack_index}", links=links)
            self._bundles[0][box.box_id] = bundle
            self._ancestors[box.box_id] = (box.box_id, *rack_chains[box.rack_index])
            self._tier_capacity[tier0] += bundle.capacity_gbps
        for level in range(1, topo.num_tiers):
            tier = topo.tier_id(level)
            bw = topo.tier_link_bandwidth_gbps(level)
            spec_tier = topo.tiers[level]
            for node in range(node_counts[level - 1]):
                parent = (
                    0 if spec_tier.group_size is None else node // spec_tier.group_size
                )
                links = [
                    Link(
                        link_id=next_link_id + i,
                        tier=tier,
                        capacity_gbps=bw,
                        a=f"{tier.name}:{node}",
                        b=f"up{level + 1}:{parent}",
                    )
                    for i in range(spec_tier.uplinks)
                ]
                next_link_id += len(links)
                bundle = LinkBundle(name=f"{tier.name}{node}-up", links=links)
                self._bundles[level][node] = bundle
                self._tier_capacity[tier] += bundle.capacity_gbps
        self._version = 0
        self._down_capacity: dict[int, float] = {}
        self._state_arrays = None  # accessors fall back to dicts during bind
        if arrays_enabled():
            self._state_arrays = FabricStateArrays(self)
        self._path_cache: dict[tuple[int, int], FabricPath] | None = (
            {} if self._state_arrays is not None else None
        )

    # ------------------------------------------------------------------ #
    # Hierarchy queries
    # ------------------------------------------------------------------ #

    @property
    def state_arrays(self) -> FabricStateArrays | None:
        """The struct-of-arrays bandwidth state, or None in object mode
        (``REPRO_STATE_BACKEND=objects``)."""
        return self._state_arrays

    @property
    def version(self) -> int:
        """Monotone counter bumped on every fabric-level bandwidth or
        capacity change — lets callers (the metrics collector) skip
        re-sampling unchanged state."""
        return self._version

    @property
    def tiers(self) -> tuple[TierId, ...]:
        """Every link tier, leaf tier first."""
        return self._tiers

    @property
    def num_tiers(self) -> int:
        """Number of link tiers."""
        return len(self._tiers)

    def node_at_level(self, box_id: int, level: int) -> int:
        """The level-``level`` ancestor node of one box (level 0 = the box)."""
        return self._ancestors[box_id][level]

    def tier_distance(self, box_a: int, box_b: int) -> int:
        """LCA level between two boxes (0 = same box, 1 = same rack, ...)."""
        anc_a = self._ancestors[box_a]
        anc_b = self._ancestors[box_b]
        level = 0
        while anc_a[level] != anc_b[level]:
            level += 1
        return level

    def rack_distance(self, rack_a: int, rack_b: int) -> int:
        """LCA level between two racks' switches (1 = same rack)."""
        anc_a = self._rack_ancestors[rack_a]
        anc_b = self._rack_ancestors[rack_b]
        level = 0
        while anc_a[level] != anc_b[level]:
            level += 1
        return level + 1

    def rack_rings(self, home_rack: int) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Rack-index ranges at increasing tier distance from ``home_rack``.

        Entry ``d`` (0-based) lists the contiguous ``(lo, hi)`` rack ranges
        at tier distance ``d + 2`` from home: first the other racks under
        the same level-2 switch (the pod), then racks under the same level-3
        switch but a different pod, and so on.  Each ring is a span minus
        its inner sub-span, so it is at most two runs; runs are in ascending
        rack order.  Two-tier fabrics have a single ring holding every
        remote rack — the legacy "everywhere but home" frontier.
        """
        cached = self._rings_cache.get(home_rack)
        if cached is not None:
            return cached
        chain = self._rack_ancestors[home_rack]
        rings: list[tuple[tuple[int, int], ...]] = []
        inner_lo, inner_hi = home_rack, home_rack + 1
        for level in range(2, self.num_tiers + 1):
            lo, hi = self._rack_span_under(level, chain[level - 1])
            runs: list[tuple[int, int]] = []
            if lo < inner_lo:
                runs.append((lo, inner_lo))
            if inner_hi < hi:
                runs.append((inner_hi, hi))
            rings.append(tuple(runs))
            inner_lo, inner_hi = lo, hi
        result = tuple(rings)
        self._rings_cache[home_rack] = result
        return result

    def _rack_span_under(self, level: int, node: int) -> tuple[int, int]:
        """The contiguous rack-index range under one level-``level`` node.

        Pods (and every higher group) are contiguous runs of rack indices
        by construction, so the span expands tier by tier: a node range at
        level ``l`` maps to child nodes via ``tiers[l - 1].group_size``.
        """
        if level == 1:
            return node, node + 1
        lo, hi = node, node + 1
        for tier_index in range(level - 1, 0, -1):
            children = self._node_counts[tier_index - 1]  # nodes at this level
            group = self.topology.tiers[tier_index].group_size
            if group is None:
                lo, hi = 0, children
            else:
                lo, hi = lo * group, min(hi * group, children)
        return lo, hi

    # ------------------------------------------------------------------ #
    # Path construction
    # ------------------------------------------------------------------ #

    def box_bundle(self, box_id: int) -> LinkBundle:
        """The box<->rack-switch bundle of one box (tier 0)."""
        try:
            return self._bundles[0][box_id]
        except KeyError:
            raise TopologyError(f"no bundle for box {box_id}") from None

    def rack_bundle(self, rack_index: int) -> LinkBundle:
        """The rack-switch uplink bundle of one rack (tier 1)."""
        try:
            return self._bundles[1][rack_index]
        except KeyError:
            raise TopologyError(f"no bundle for rack {rack_index}") from None

    def uplink_bundle(self, level: int, node: int) -> LinkBundle:
        """The uplink bundle of one node at any level."""
        try:
            return self._bundles[level][node]
        except (IndexError, KeyError):
            raise TopologyError(f"no bundle for level-{level} node {node}") from None

    def tier_bundles(self, level: int) -> tuple[LinkBundle, ...]:
        """Every bundle of one tier, in node order."""
        return tuple(self._bundles[level].values())

    def resolve_path(self, box_a: int, box_b: int) -> FabricPath:
        """The lowest-common-ancestor route between two boxes.

        The path climbs A's uplink bundles to the LCA switch and descends
        B's, collecting the radix of every switch traversed for the energy
        model.  Works identically for 2 tiers and N tiers.
        """
        cache = self._path_cache
        if cache is not None:
            cached = cache.get((box_a, box_b))
            if cached is not None:
                return cached
        if box_a == box_b:
            raise NetworkAllocationError(
                f"flow endpoints must differ (both box {box_a}); boxes hold a "
                "single resource type so intra-box flows cannot occur"
            )
        anc_a = self._ancestors[box_a]
        anc_b = self._ancestors[box_b]
        lca = 1
        while anc_a[lca] != anc_b[lca]:
            lca += 1
        bundles = [self._bundles[level][anc_a[level]] for level in range(lca)]
        bundles.extend(
            self._bundles[level][anc_b[level]] for level in range(lca - 1, -1, -1)
        )
        topo = self.topology
        ports = [topo.switch_ports_at(0)]
        ports.extend(topo.switch_ports_at(level) for level in range(1, lca + 1))
        ports.extend(topo.switch_ports_at(level) for level in range(lca - 1, 0, -1))
        ports.append(topo.switch_ports_at(0))
        path = FabricPath(
            bundles=tuple(bundles), switch_ports=tuple(ports), lca_level=lca
        )
        if cache is not None:
            if len(cache) >= _PATH_CACHE_MAX:
                cache.clear()
            cache[(box_a, box_b)] = path
        return path

    def path_bundles(self, box_a: int, box_b: int) -> tuple[list[LinkBundle], tuple[int, ...], bool]:
        """Bundles and switch radices along the flow path between two boxes.

        Returns ``(bundles, switch_ports, intra_rack)`` — the legacy
        accessor; :meth:`resolve_path` additionally reports the LCA level.
        """
        path = self.resolve_path(box_a, box_b)
        return list(path.bundles), path.switch_ports, path.intra_rack

    # ------------------------------------------------------------------ #
    # Feasibility checks (no mutation)
    # ------------------------------------------------------------------ #

    def can_allocate_flow(self, box_a: int, box_b: int, demand_gbps: float) -> bool:
        """True when every hop of the path could carry the demand now.

        Note: concurrent flows on shared bundles are not double-counted here;
        use :meth:`allocate_flows` for an atomic multi-flow commit.
        """
        if demand_gbps <= 0:
            return True
        path = self.resolve_path(box_a, box_b)
        return all(b.can_fit(demand_gbps) for b in path.bundles)

    # ------------------------------------------------------------------ #
    # Allocation / release
    # ------------------------------------------------------------------ #

    def allocate_flow(
        self,
        box_a: int,
        box_b: int,
        demand_gbps: float,
        policy: LinkSelectionPolicy = LinkSelectionPolicy.FIRST_FIT,
    ) -> Circuit | None:
        """Reserve ``demand_gbps`` along the path between two boxes.

        Returns the committed :class:`Circuit`, or None when some hop cannot
        fit the demand (nothing is reserved in that case).  A zero-demand
        flow still produces a circuit (it traverses switches and counts for
        the energy model) but reserves no bandwidth.
        """
        path = self.resolve_path(box_a, box_b)
        chosen: list[Link] = []
        for bundle in path.bundles:
            link = bundle.select(demand_gbps, policy)
            if link is None:
                return None
            chosen.append(link)
        self._version += 1
        fa = self._state_arrays
        if fa is not None:
            fa.reserve_path(chosen, demand_gbps)
        else:
            for link in chosen:
                link.reserve(demand_gbps)
                self._tier_used[link.tier] += demand_gbps
        return Circuit(
            links=tuple(chosen),
            demand_gbps=demand_gbps,
            switch_ports=path.switch_ports,
            intra_rack=path.intra_rack,
            lca_level=path.lca_level,
        )

    def allocate_flows(
        self,
        flows: list[tuple[int, int, float]],
        policy: LinkSelectionPolicy = LinkSelectionPolicy.FIRST_FIT,
    ) -> list[Circuit] | None:
        """Atomically reserve several flows ``(box_a, box_b, demand_gbps)``.

        Either all flows commit (circuits returned in order) or none do
        (returns None).  Sequential commit order makes shared-bundle
        contention between the flows visible, then rolls back on failure.
        """
        circuits: list[Circuit] = []
        for box_a, box_b, demand in flows:
            circuit = self.allocate_flow(box_a, box_b, demand, policy)
            if circuit is None:
                for done in circuits:
                    self.release(done)
                return None
            circuits.append(circuit)
        return circuits

    def release(self, circuit: Circuit) -> None:
        """Return a circuit's bandwidth on every hop.

        Raises :class:`NetworkAllocationError` when a tier's reserved total
        would go meaningfully negative — under-accounting there means a
        double release (or a release of a never-committed circuit) and must
        surface, not be clamped away.  Sub-epsilon negatives are float
        residue from reserve/release cycles and are snapped back to zero.
        All hops are validated *before* anything is freed, so a rejected
        release leaves links and tier counters untouched and consistent.
        """
        self._version += 1
        fa = self._state_arrays
        if fa is not None:
            fa.release_path(circuit)
            return
        demand = circuit.demand_gbps
        pending = dict(self._tier_used)
        for link in circuit.links:
            if demand > link.used_gbps + BANDWIDTH_EPS:
                raise NetworkAllocationError(
                    f"link {link.link_id}: freeing {demand} Gb/s but only "
                    f"{link.used_gbps} Gb/s reserved — circuit released twice?"
                )
            remaining = pending[link.tier] - demand
            if remaining < -BANDWIDTH_EPS * max(1.0, self._tier_capacity[link.tier]):
                raise NetworkAllocationError(
                    f"{link.tier.value} tier accounting underflow: releasing "
                    f"{demand} Gb/s leaves {remaining} Gb/s reserved — "
                    "circuit released twice?"
                )
            pending[link.tier] = remaining if remaining > 0 else 0.0
        for link in circuit.links:
            link.free(demand)
        self._tier_used = pending

    def release_batch(self, groups: Sequence[Sequence[Circuit]]):
        """Release a run of departures' circuits with deferred tree upkeep.

        ``groups`` holds one circuit sequence per departing VM, in event
        order.  Every circuit releases through the exact per-event scalar
        operation chain (:meth:`FabricStateArrays.release_groups_deferred`),
        so link, bundle, and tier floats land bit-identically to sequential
        :meth:`release` calls; only the bundles' free-link segment trees —
        consulted exclusively during scheduling, which cannot interleave
        with a departure batch — are settled once at the end.

        Returns a ``(len(groups), num_tiers)`` float64 matrix whose row
        ``i`` is the per-tier reserved bandwidth *after* departure ``i`` —
        the utilization numerators the metrics batch needs.  Requires the
        array backend.
        """
        fa = self._state_arrays
        if fa is None:
            raise NetworkAllocationError(
                "release_batch requires the array state backend"
            )
        self._version += sum(len(circuits) for circuits in groups)
        return fa.release_groups_deferred(groups)

    # ------------------------------------------------------------------ #
    # Snapshots (what-if analysis and oversubscription rollback)
    # ------------------------------------------------------------------ #

    def _iter_links(self) -> Iterator[Link]:
        """Every link in a deterministic order (tier-major, node order)."""
        for tier_bundles in self._bundles:
            for bundle in tier_bundles.values():
                yield from bundle.links

    def links_by_id(self) -> dict[int, Link]:
        """Every link keyed by its id (fork re-binding of circuits)."""
        return {link.link_id: link for link in self._iter_links()}

    def snapshot(self) -> tuple[float, ...]:
        """Capture per-link reserved bandwidth; restorable and comparable."""
        fa = self._state_arrays
        if fa is not None:
            return fa.used_tuple()
        return tuple(link.used_gbps for link in self._iter_links())

    def restore(self, snap: tuple[float, ...]) -> None:
        """Restore reserved bandwidth captured by :meth:`snapshot`.

        Each link is rewritten through its public occupancy API, so bundle
        aggregates and free-link indexes rebuild as a side effect; the
        per-tier totals are then recomputed from the restored links.  The
        array backend does the same with whole-column writes.
        """
        self._version += 1
        fa = self._state_arrays
        if fa is not None:
            if len(snap) != len(fa.link_used):
                raise TopologyError("snapshot shape does not match fabric")
            fa.bulk_restore_used(snap)
            return
        links = list(self._iter_links())
        if len(snap) != len(links):
            raise TopologyError("snapshot shape does not match fabric")
        for link, used in zip(links, snap):
            link.set_used(used)
        self._tier_used = {tier: 0.0 for tier in self._tiers}
        for link in links:
            self._tier_used[link.tier] += link.used_gbps

    # ------------------------------------------------------------------ #
    # Capacity perturbation (what-if oversubscription branches)
    # ------------------------------------------------------------------ #

    def resolve_tier(self, tier: TierId | int | str) -> TierId:
        """Resolve a tier given as a :class:`TierId`, a level (negative
        indexes from the top, e.g. ``-1`` = the spine/top tier), or a name."""
        if isinstance(tier, TierId):
            return self._tier_key(tier)
        if isinstance(tier, int):
            try:
                return self._tiers[tier]
            except IndexError:
                raise TopologyError(
                    f"fabric has no tier level {tier}; {len(self._tiers)} tiers"
                ) from None
        for candidate in self._tiers:
            if candidate.name == tier:
                return candidate
        raise TopologyError(
            f"fabric has no tier named {tier!r}; tiers are "
            f"{[t.name for t in self._tiers]}"
        )

    def scale_tier_capacity(self, tier: TierId | int | str, factor: float) -> None:
        """Multiply every link capacity of one tier by ``factor``.

        The oversubscription lever of the scenario engine: ``factor < 1``
        tightens the aggregation funnel at that stage mid-run, ``> 1``
        widens it.  Existing reservations are untouched (circuits already
        committed keep flowing and release normally — a shrink can leave a
        link temporarily over its new capacity, it just offers no headroom
        until departures free it).  Bundle aggregates, free-link indexes,
        and the tier capacity counter all stay consistent; rewind with
        :meth:`capacity_snapshot` / :meth:`restore_capacities`.
        """
        if factor <= 0:
            raise TopologyError(f"capacity scale factor must be positive, got {factor}")
        tier = self.resolve_tier(tier)
        self._version += 1
        bundles = self._bundles[tier.level].values()
        for bundle in bundles:
            bundle.set_link_capacities([l.capacity_gbps * factor for l in bundle.links])
            for link in bundle.links:
                stashed = self._down_capacity.get(link.link_id)
                if stashed is not None:
                    # Keep the pre-fault capacity coherent with the scale so
                    # a later restore_links lands on the scaled value.
                    self._down_capacity[link.link_id] = stashed * factor
        self._tier_capacity[tier] = sum(b.capacity_gbps for b in bundles)
        if self._state_arrays is not None:
            self._state_arrays.refresh_tier_capacities(
                [self._tier_capacity[t] for t in self._tiers]
            )

    def capacity_snapshot(self) -> tuple[float, ...]:
        """Capture per-link capacity (the perturbable quantity), in the same
        deterministic order as :meth:`snapshot`."""
        return tuple(link.capacity_gbps for link in self._iter_links())

    def restore_capacities(self, snap: tuple[float, ...]) -> None:
        """Restore link capacities captured by :meth:`capacity_snapshot`,
        rebuilding bundle aggregates, free-link indexes, and tier totals.

        Restore capacities *before* :meth:`restore` when rewinding both, so
        the free-link indexes and bundle aggregates are rebuilt from the
        final capacities and every intermediate headroom value the restore
        publishes is computed against them.
        """
        expected = sum(
            len(bundle.links)
            for tier_bundles in self._bundles
            for bundle in tier_bundles.values()
        )
        if len(snap) != expected:
            raise TopologyError("capacity snapshot shape does not match fabric")
        self._version += 1
        pos = 0
        self._tier_capacity = {tier: 0.0 for tier in self._tiers}
        for level, tier_bundles in enumerate(self._bundles):
            tier = self._tiers[level]
            for bundle in tier_bundles.values():
                n = len(bundle.links)
                bundle.set_link_capacities(snap[pos : pos + n])
                pos += n
                self._tier_capacity[tier] += bundle.capacity_gbps
        if self._state_arrays is not None:
            self._state_arrays.refresh_tier_capacities(
                [self._tier_capacity[t] for t in self._tiers]
            )

    # ------------------------------------------------------------------ #
    # Link-level fault injection (failure-diversity scenarios)
    # ------------------------------------------------------------------ #

    def _fault_bundle(self, tier: TierId, node: int) -> LinkBundle:
        try:
            return self._bundles[tier.level][node]
        except KeyError:
            raise TopologyError(
                f"no {tier.name} bundle for node {node}"
            ) from None

    def _apply_bundle_capacities(
        self, tier: TierId, bundle: LinkBundle, capacities: list[float]
    ) -> None:
        """Rewrite one bundle's link capacities and re-derive every
        aggregate that depends on them (tier totals, array mirrors)."""
        self._version += 1
        bundle.set_link_capacities(capacities)
        self._tier_capacity[tier] = sum(
            b.capacity_gbps for b in self._bundles[tier.level].values()
        )
        if self._state_arrays is not None:
            self._state_arrays.refresh_tier_capacities(
                [self._tier_capacity[t] for t in self._tiers]
            )

    def fail_links(self, tier: TierId | int | str, node: int, count: int | None = None) -> int:
        """Take links of one bundle down (the first ``count``, or all).

        A down link keeps committed reservations (circuits in flight keep
        flowing and release normally) but its capacity drops to
        :data:`LINK_DOWN_CAPACITY_GBPS`, so no new demand fits until
        :meth:`restore_links` brings it back.  Pre-fault capacities are
        stashed per link id; failing an already-down link is a no-op.
        Returns the number of links newly taken down.
        """
        tier = self.resolve_tier(tier)
        bundle = self._fault_bundle(tier, node)
        selected = bundle.links if count is None else bundle.links[:count]
        capacities = [link.capacity_gbps for link in bundle.links]
        downed = 0
        for index, link in enumerate(selected):
            if link.link_id in self._down_capacity:
                continue
            self._down_capacity[link.link_id] = link.capacity_gbps
            capacities[index] = LINK_DOWN_CAPACITY_GBPS
            downed += 1
        if downed:
            self._apply_bundle_capacities(tier, bundle, capacities)
        return downed

    def restore_links(self, tier: TierId | int | str, node: int, count: int | None = None) -> int:
        """Bring downed links of one bundle back at their stashed capacity.

        The inverse of :meth:`fail_links`; restoring a link that is not
        down is a no-op.  Returns the number of links brought back up.
        """
        tier = self.resolve_tier(tier)
        bundle = self._fault_bundle(tier, node)
        selected = bundle.links if count is None else bundle.links[:count]
        capacities = [link.capacity_gbps for link in bundle.links]
        restored = 0
        for index, link in enumerate(selected):
            stashed = self._down_capacity.pop(link.link_id, None)
            if stashed is None:
                continue
            capacities[index] = stashed
            restored += 1
        if restored:
            self._apply_bundle_capacities(tier, bundle, capacities)
        return restored

    def degrade_bundle(self, tier: TierId | int | str, node: int, factor: float) -> None:
        """Scale one bundle's link capacities by ``factor`` (partial loss).

        Unlike :meth:`scale_tier_capacity` this hits a single bundle — a
        frayed cable tray rather than a tier-wide re-provision.  Down links
        stay down; their stashed pre-fault capacity is scaled instead, so a
        later :meth:`restore_links` lands on the degraded value.
        """
        if factor <= 0:
            raise TopologyError(f"degrade factor must be positive, got {factor}")
        tier = self.resolve_tier(tier)
        bundle = self._fault_bundle(tier, node)
        capacities = []
        for link in bundle.links:
            if link.link_id in self._down_capacity:
                self._down_capacity[link.link_id] *= factor
                capacities.append(link.capacity_gbps)
            else:
                capacities.append(link.capacity_gbps * factor)
        self._apply_bundle_capacities(tier, bundle, capacities)

    def down_link_ids(self) -> tuple[int, ...]:
        """Ids of every currently-failed link, ascending."""
        return tuple(sorted(self._down_capacity))

    def fault_snapshot(self) -> tuple[tuple[int, float], ...]:
        """Capture the down-link stash (link id -> pre-fault capacity).

        Complements :meth:`capacity_snapshot`: the *effects* of faults live
        in link capacities (and so in capacity snapshots already); this
        captures the bookkeeping needed for :meth:`restore_links` to undo
        them after a rewind.
        """
        return tuple(sorted(self._down_capacity.items()))

    def restore_faults(self, snap: tuple[tuple[int, float], ...]) -> None:
        """Restore the down-link stash captured by :meth:`fault_snapshot`.

        Pair with :meth:`restore_capacities`, which rewinds the capacity
        values themselves; order between the two does not matter.
        """
        self._down_capacity = dict(snap)

    # ------------------------------------------------------------------ #
    # Utilization (Figure 8 quantities, per tier)
    # ------------------------------------------------------------------ #

    def _tier_key(self, tier: TierId) -> TierId:
        if tier not in self._tier_capacity:
            raise TopologyError(
                f"fabric has no tier {tier!r}; tiers are {list(self._tiers)}"
            )
        return tier

    def tier_capacity_gbps(self, tier: TierId) -> float:
        """Aggregate capacity of one link tier."""
        return self._tier_capacity[self._tier_key(tier)]

    def tier_used_gbps(self, tier: TierId) -> float:
        """Aggregate reserved bandwidth of one link tier (O(1))."""
        tier = self._tier_key(tier)
        fa = self._state_arrays
        if fa is not None:
            return fa.tier_used[tier.level]
        return self._tier_used[tier]

    def tier_utilization(self, tier: TierId) -> float:
        """Fraction of one tier's capacity currently reserved."""
        tier = self._tier_key(tier)
        cap = self._tier_capacity[tier]
        if cap == 0:
            return 0.0
        fa = self._state_arrays
        used = fa.tier_used[tier.level] if fa is not None else self._tier_used[tier]
        return used / cap

    def tier_utilizations(self) -> dict[TierId, float]:
        """Utilization of every tier, leaf tier first."""
        return {tier: self.tier_utilization(tier) for tier in self._tiers}

    def intra_rack_utilization(self) -> float:
        """Leaf-tier (box<->rack-switch) utilization."""
        return self.tier_utilization(self._tiers[0])

    def inter_rack_utilization(self) -> float:
        """Top-tier (highest aggregation stage) utilization."""
        return self.tier_utilization(self._tiers[-1])
