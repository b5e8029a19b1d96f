"""The mini OS proper: ties the replacement table, the free frame list it
implies and the replacement policy together into load/evict decisions."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set

from repro.fpga.frame import FrameRegion
from repro.fpga.geometry import FabricGeometry, FrameAddress
from repro.fpga.placer import Placer, PlacementStrategy
from repro.mcu.minios.policies import CapacityError, LruPolicy, ReplacementPolicy
from repro.mcu.minios.replacement import FrameReplacementTable


@dataclass
class EvictionDecision:
    """The plan for bringing one function onto the fabric."""

    hit: bool
    evictions: List[str] = field(default_factory=list)
    region: Optional[FrameRegion] = None


@dataclass
class MiniOsStatistics:
    """Counters the mini OS keeps across a run."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    frames_evicted: int = 0


class MiniOs:
    """Decision logic for on-demand loading.

    The mini OS never touches the device directly — it only plans.  The
    microcontroller executes the plan (evict, configure, bind) and then
    commits the outcome back, which keeps the decision logic easy to test in
    isolation.

    The replacement table is the mini OS's one record of frame ownership;
    the Free Frame List is its complement (:meth:`free_frames`).
    """

    def __init__(
        self,
        geometry: FabricGeometry,
        policy: Optional[ReplacementPolicy] = None,
        placement_strategy: PlacementStrategy = PlacementStrategy.CONTIGUOUS_FIRST_FIT,
    ) -> None:
        self.geometry = geometry
        self.policy = policy if policy is not None else LruPolicy()
        self._frames = geometry.all_frames()
        self.table = FrameReplacementTable()
        self.placer = Placer(geometry, strategy=placement_strategy)
        self.stats = MiniOsStatistics()
        # Optional OS services (e.g. the readback scrubber) registered by
        # name.  Services survive reset(): they are part of the installed OS,
        # not per-run state.
        self._services: dict = {}

    # -------------------------------------------------------------- services
    def register_service(self, name: str, service) -> None:
        """Install an OS service (the scrubber, a health monitor, ...)."""
        self._services[name] = service

    def service(self, name: str):
        """The registered service called *name*, or ``None``."""
        return self._services.get(name)

    # --------------------------------------------------------------- queries
    def is_resident(self, name: str) -> bool:
        return name in self.table

    def resident_functions(self) -> List[str]:
        """Names of the functions currently holding frames, sorted.

        This is the card's *configuration residency* view — what an external
        dispatcher consults to route requests toward cards that can serve them
        without a reconfiguration (the fleet's affinity policy).
        """
        return sorted(self.table.names())

    def free_frames(self) -> List[FrameAddress]:
        """The Free Frame List: frames no resident function holds, in raster
        order."""
        held = {address for entry in self.table for address in entry.region}
        return [address for address in self._frames if address not in held]

    @property
    def free_count(self) -> int:
        return len(self._frames) - self.table.held_frames

    def touch(self, name: str, now_ns: int) -> None:
        """Record that *name* was just used (updates the replacement table)."""
        self.table.touch(name, now_ns)

    # -------------------------------------------------------------- planning
    def plan_load(
        self,
        name: str,
        frames_needed: int,
        now_ns: int,
        protect: Optional[Set[str]] = None,
        future_requests: Optional[Sequence[str]] = None,
    ) -> EvictionDecision:
        """Plan how to make *name* resident.

        Returns a hit decision when the function is already on the fabric.
        Otherwise selects victims (if needed) with the replacement policy and
        chooses the frames the function will occupy.  Raises
        :class:`~repro.mcu.minios.policies.CapacityError` when the fabric can
        never host the function.
        """
        if frames_needed > self.geometry.frame_count:
            raise CapacityError(
                f"{name!r} needs {frames_needed} frames but the device only has "
                f"{self.geometry.frame_count}"
            )
        if self.is_resident(name):
            self.stats.hits += 1
            return EvictionDecision(hit=True)

        self.stats.misses += 1
        protect = set(protect or set())
        protect.add(name)
        victims = self.policy.select_victims(
            self.table,
            frames_needed,
            self.free_count,
            now_ns,
            protect=protect,
            future_requests=future_requests,
        )
        # Frames available once the victims are gone.
        candidate_frames = self.free_frames()
        for victim in victims:
            candidate_frames.extend(victim.region)
        region = FrameRegion.from_addresses(
            self.placer.choose_frames(frames_needed, candidate_frames)
        )
        return EvictionDecision(
            hit=False,
            evictions=[victim.name for victim in victims],
            region=region,
        )

    # ------------------------------------------------------------ committing
    def commit_eviction(self, name: str) -> FrameRegion:
        """Record that *name* was evicted; returns the frames that became free."""
        entry = self.table.remove(name)
        self.stats.evictions += 1
        self.stats.frames_evicted += entry.frame_count
        return entry.region

    def commit_load(self, name: str, region: FrameRegion, now_ns: int) -> None:
        """Record that *name* is now resident in *region*."""
        self.table.insert(name, region, now_ns)

    def reset(self) -> None:
        """Forget everything (device reset)."""
        self.table.clear()
        self.stats = MiniOsStatistics()
