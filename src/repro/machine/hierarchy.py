"""Two-level memory hierarchy with software-prefetch modelling.

This is the component that makes prefetching *mean something* in a Python
reproduction of the paper: every simulated load/store is charged stall cycles
according to where its block is found, and a ``prefetcht0``-style prefetch
installs the block into both levels immediately (so a wrong prefetch pollutes
the cache, the effect that sinks the Seq-pref baseline in Figure 12) with a
*ready cycle*; a demand access that arrives before the ready cycle pays only
the residual latency (the timeliness effect Section 1 calls out).

The hierarchy also keeps the counters the evaluation needs: per-level
hits/misses and the accuracy/timeliness/pollution breakdown of prefetches.
When the optimizer installs a block -> stream attribution map
(:meth:`MemoryHierarchy.set_stream_attribution`), the same classification
points additionally credit each outcome to the hot data stream whose handler
issued the prefetch (``stream_stats``) — the input of the resilience
watchdog's per-stream scoreboard.  Attribution is bookkeeping only and never
changes stall accounting.

Telemetry: the hierarchy emits :class:`~repro.telemetry.events.PrefetchIssued`,
``PrefetchUsed`` (with the issue-to-use lead distance), ``PrefetchEvicted``
(pollution), ``CacheMiss`` and ``CacheFlushed`` events into the bus assigned
to :attr:`MemoryHierarchy.telemetry`.  The high-rate kinds (misses and the
prefetch life cycle) are *sampled* — one event per ``miss_sample_every`` /
``prefetch_sample_every`` occurrences, deterministic counters, so a run's
event log is reproducible and ``emitted == occurrences // period`` exactly;
set the periods to 1 for exhaustive logs.  The countdowns live on the
tenant's lane (``misses_since``/``used_since``/``issued_since``), where the
compiled kernel (:mod:`repro.fastpath`) also steps them for the misses, uses
and prefetches it decides inline, calling these methods only for the
sampled occurrence; a change to the sampling rule changes both.  Exact
totals always come from the :class:`PrefetchStats`/cache counters, which
the telemetry session renders into the run's metrics snapshot.  Emission never changes stall accounting — runs
are cycle-identical with telemetry on or off.

Tenant lanes: ``MemoryHierarchy(config, tenants=N, sharing=...)`` serves N
interleaved tenants (:mod:`repro.tenancy`) with the same code.  Tenant
``t``'s block ``b`` is stored as ``b + (t << TENANT_SHIFT)``, so tenants
contend for capacity without ever aliasing each other's data.  The L2 is
always shared; ``sharing`` gives each tenant its own L1 (``"private-l1"``)
or one L1 to all (``"shared"``).  Demand and prefetch counters are kept per
lane (the hierarchy's totals are their sums), and cache-level counters both
per cache and per lane: demand and issue counters go to the tenant executing
the operation (:meth:`MemoryHierarchy.activate`), while wasted prefetches,
ledger hooks and eviction events go to the block's owner.  Evictions from a
shared level are split by cause, and the prefetch-caused ones fill the
pollution matrix ``pollution_counts[(issuer, victim_owner)]``;
:meth:`MemoryHierarchy.check_reconciliation` re-derives the identities that
tie these counters together.  A single tenant is lane 0 at offset 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.machine.cache import Cache
from repro.machine.config import MachineConfig
from repro.telemetry.events import (
    CacheFlushed,
    CacheMiss,
    PrefetchEvicted,
    PrefetchIssued,
    PrefetchUsed,
)
from repro.telemetry.sinks import NULL_SINK


@dataclass
class PrefetchStats:
    """Outcome counters for issued prefetches."""

    issued: int = 0
    #: prefetched block was already cache-resident (no-op prefetch)
    redundant: int = 0
    #: a demand access hit a prefetched block after its data arrived
    useful: int = 0
    #: a demand access hit a prefetched block before arrival (partial stall)
    late: int = 0
    #: prefetched block evicted (or never touched) without a demand hit
    wasted: int = 0
    #: issued prefetches per issuer tag ("sw"/"static"/"stride"/"markov"),
    #: so Figure 12's Seq-pref/Dyn-pref bars are attributable by source
    by_source: dict[str, int] = field(default_factory=dict)

    @property
    def accuracy(self) -> float:
        """Fraction of non-redundant prefetches that served a demand access."""
        used = self.useful + self.late
        total = used + self.wasted
        return used / total if total else 0.0

    @property
    def timeliness(self) -> float:
        """Fraction of *used* prefetches whose data arrived in time."""
        used = self.useful + self.late
        return self.useful / used if used else 0.0

    @property
    def pollution(self) -> float:
        """Fraction of non-redundant prefetches that only displaced data."""
        total = self.useful + self.late + self.wasted
        return self.wasted / total if total else 0.0

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable view (sorted ``by_source`` for stable diffs)."""
        return {
            "issued": self.issued,
            "redundant": self.redundant,
            "useful": self.useful,
            "late": self.late,
            "wasted": self.wasted,
            "by_source": {k: self.by_source[k] for k in sorted(self.by_source)},
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "PrefetchStats":
        """Inverse of :meth:`to_dict`."""
        by_source = data.get("by_source", {}) or {}
        return cls(
            issued=int(data["issued"]),
            redundant=int(data["redundant"]),
            useful=int(data["useful"]),
            late=int(data["late"]),
            wasted=int(data["wasted"]),
            by_source={str(k): int(v) for k, v in sorted(by_source.items())},
        )


@dataclass
class StreamPrefetchStats:
    """Per-stream slice of :class:`PrefetchStats` (watchdog scoreboard input).

    Attribution is pure bookkeeping: these counters are updated at the same
    classification points as the aggregate stats and never influence stall
    accounting, so runs are cycle-identical with attribution on or off.
    """

    issued: int = 0
    redundant: int = 0
    useful: int = 0
    late: int = 0
    wasted: int = 0

    @property
    def classified(self) -> int:
        """Non-redundant prefetches that have met their fate."""
        return self.useful + self.late + self.wasted

    @property
    def accuracy(self) -> float:
        """Fraction of classified prefetches that served a demand access."""
        used = self.useful + self.late
        total = used + self.wasted
        return used / total if total else 0.0

    def to_dict(self) -> dict[str, int]:
        """JSON-serializable view."""
        return {
            "issued": self.issued,
            "redundant": self.redundant,
            "useful": self.useful,
            "late": self.late,
            "wasted": self.wasted,
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "StreamPrefetchStats":
        """Inverse of :meth:`to_dict`."""
        return cls(**{k: int(data[k]) for k in ("issued", "redundant", "useful", "late", "wasted")})


@dataclass
class CacheLevelStats:
    """Frozen counter view of one :class:`~repro.machine.cache.Cache` level.

    Duck-types the counter surface of the live cache (``hits``/``misses``/
    ``evictions``/``accesses``) so consumers of a deserialized
    :class:`HierarchyStats` read the same attributes as on a live run.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def to_dict(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "evictions": self.evictions}

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "CacheLevelStats":
        return cls(hits=int(data["hits"]), misses=int(data["misses"]), evictions=int(data["evictions"]))


@dataclass
class HierarchyStats:
    """Serializable statistics snapshot of a finished hierarchy.

    Carries everything the bench/oracle layers read off a finished run's
    :class:`MemoryHierarchy` — per-level counters, the prefetch
    classification and the per-stream attribution — without the live cache
    state, so a :class:`~repro.engine.result.RunResult` can round-trip
    through the result cache bit-identically.  Stream attribution keys are
    the human-readable stream names (live hierarchies key by opaque stream
    identity objects; the snapshot resolves them through ``stream_names``).
    """

    l1: CacheLevelStats = field(default_factory=CacheLevelStats)
    l2: CacheLevelStats = field(default_factory=CacheLevelStats)
    demand_accesses: int = 0
    prefetch: PrefetchStats = field(default_factory=PrefetchStats)
    stream_stats: dict[str, StreamPrefetchStats] = field(default_factory=dict)
    stream_names: dict[str, str] = field(default_factory=dict)

    @property
    def l1_miss_rate(self) -> float:
        """L1 miss rate over all demand accesses (mirrors the live property)."""
        return self.l1.misses / self.l1.accesses if self.l1.accesses else 0.0

    def stats_snapshot(self) -> "HierarchyStats":
        """A snapshot of a snapshot is itself (mirrors the live method)."""
        return self

    @classmethod
    def capture(
        cls,
        l1,
        l2,
        demand_accesses: int,
        prefetch: PrefetchStats,
        stream_stats: dict,
        stream_names: dict,
    ) -> "HierarchyStats":
        """Freeze live counters: two cache levels (anything with ``hits``/
        ``misses``/``evictions``), the demand count, the prefetch
        classification and the per-stream attribution."""
        def name_of(key: object) -> str:
            return stream_names.get(key, str(key))

        return cls(
            l1=CacheLevelStats(l1.hits, l1.misses, l1.evictions),
            l2=CacheLevelStats(l2.hits, l2.misses, l2.evictions),
            demand_accesses=demand_accesses,
            prefetch=PrefetchStats.from_dict(prefetch.to_dict()),
            stream_stats={
                name_of(key): StreamPrefetchStats.from_dict(stats.to_dict())
                for key, stats in sorted(stream_stats.items(), key=lambda kv: name_of(kv[0]))
            },
            stream_names={name_of(key): name_of(key) for key in sorted(stream_names, key=name_of)},
        )

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable view; inverse of :meth:`from_dict`."""
        return {
            "l1": self.l1.to_dict(),
            "l2": self.l2.to_dict(),
            "demand_accesses": self.demand_accesses,
            "prefetch": self.prefetch.to_dict(),
            "stream_stats": {name: s.to_dict() for name, s in sorted(self.stream_stats.items())},
            "stream_names": {k: self.stream_names[k] for k in sorted(self.stream_names)},
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "HierarchyStats":
        """Inverse of :meth:`to_dict`."""
        return cls(
            l1=CacheLevelStats.from_dict(data["l1"]),
            l2=CacheLevelStats.from_dict(data["l2"]),
            demand_accesses=int(data["demand_accesses"]),
            prefetch=PrefetchStats.from_dict(data["prefetch"]),
            stream_stats={
                str(name): StreamPrefetchStats.from_dict(s)
                for name, s in sorted(data.get("stream_stats", {}).items())
            },
            stream_names={str(k): str(v) for k, v in sorted(data.get("stream_names", {}).items())},
        )




#: Block-number bits reserved per tenant lane.  The block offset of tenant
#: ``t`` is ``t << TENANT_SHIFT`` — a multiple of every power-of-two set
#: count, so translation preserves each address's set index while giving every
#: tenant distinct tags (capacity/conflict sharing without false hits).
TENANT_SHIFT = 40

#: Valid ``sharing`` modes: one L1 per tenant, or one L1 for all of them.
SHARING_MODES = ("shared", "private-l1")


def _lane_attr(name: str) -> property:
    """A hierarchy attribute that reads and writes the active tenant's lane."""
    return property(
        lambda self: getattr(self._lane, name),
        lambda self, value: setattr(self._lane, name, value),
    )


class _Lane:
    """One tenant's slice: its L1, counters, attribution and telemetry."""

    __slots__ = (
        "l1", "l1_stats", "l2_stats", "demand", "prefetch",
        "stream_map", "stream_stats", "stream_names", "bus", "ledger",
        "miss_sample_every", "prefetch_sample_every",
        "misses_since", "issued_since", "used_since", "evicted_since",
    )

    def __init__(self, l1: Cache) -> None:
        self.l1 = l1
        #: this tenant's share of the level counters (evictions are charged
        #: to the tenant whose install caused them)
        self.l1_stats = CacheLevelStats()
        self.l2_stats = CacheLevelStats()
        self.demand = 0
        self.prefetch = PrefetchStats()
        #: block -> stream key for prefetch targets of the *current* install
        #: (None = attribution off; the watchdog-enabled optimizer sets it)
        self.stream_map: dict[int, object] | None = None
        #: cumulative per-stream outcome counters (never reset mid-run)
        self.stream_stats: dict[object, StreamPrefetchStats] = {}
        #: stream key -> human-readable identity, filled by the optimizer at
        #: install time so scorecards can render attribution keys
        self.stream_names: dict[object, str] = {}
        #: telemetry bus (``.enabled``/``.emit``); NULL_SINK = off
        self.bus = NULL_SINK
        #: per-prefetch lifecycle ledger (duck-typed ``on_*`` hooks; None =
        #: off).  Recording is bookkeeping only and never changes stalls.
        self.ledger = None
        #: emit one CacheMiss event per this many demand misses
        self.miss_sample_every = 64
        #: emit one PrefetchIssued/Used/Evicted event per this many occurrences
        self.prefetch_sample_every = 32
        self.misses_since = 0
        self.issued_since = 0
        self.used_since = 0
        self.evicted_since = 0


class MemoryHierarchy:
    """L1 + L2 + DRAM with LRU fill, demand misses and software prefetch,
    shared by ``tenants`` interleaved tenant lanes (one by default)."""

    def __init__(
        self, config: MachineConfig, tenants: int = 1, sharing: str = "private-l1"
    ) -> None:
        if tenants < 1:
            raise ConfigError("a memory hierarchy needs at least one tenant")
        if sharing not in SHARING_MODES:
            raise ConfigError(f"unknown sharing mode {sharing!r}")
        self.config = config
        self.sharing = sharing
        self.num_tenants = tenants
        self.l2 = Cache(config.l2, "L2")
        self._l1_shared = sharing == "shared"
        if self._l1_shared or tenants == 1:
            self._l1_caches = [Cache(config.l1, "L1")]
        else:
            self._l1_caches = [Cache(config.l1, f"L1[t{t}]") for t in range(tenants)]
        self._lanes = [_Lane(self._l1_caches[0 if self._l1_shared else t]) for t in range(tenants)]
        # Set geometry, bound once: every L1 has the same shape.
        self._block_shift = config.block_bytes.bit_length() - 1
        self._l1_mask = self._l1_caches[0]._set_mask
        self._l1_assoc = config.l1.associativity
        self._l2_sets = self.l2._sets
        self._l2_mask = self.l2._set_mask
        self._l2_assoc = config.l2.associativity
        #: block -> cycle at which its in-flight prefetch completes
        self._inflight: dict[int, int] = {}
        #: blocks brought in by prefetch and not yet used by a demand access,
        #: mapped to their issue cycle (for lead-time telemetry); the owner
        #: is in the high block bits
        self._prefetched_unused: dict[int, int] = {}
        #: in-flight attribution: prefetched-but-unclassified block -> stream
        self._stream_of: dict[int, object] = {}
        #: evictions in *shared* levels, split by the cause of the install
        self.demand_shared_evictions = 0
        self.prefetch_shared_evictions = 0
        #: (issuer tenant, victim-owner tenant) -> prefetch-caused evictions
        self.pollution_counts: dict[tuple[int, int], int] = {}
        self.activate(0)

    # ------------------------------------------------------------- tenant lanes

    def activate(self, tenant_id: int) -> None:
        """Make ``tenant_id`` the tenant whose accesses and prefetches follow."""
        lane = self._lanes[tenant_id]
        self._active = tenant_id
        self._lane = lane
        self._offset = tenant_id << TENANT_SHIFT
        self.l1 = lane.l1
        self._l1_sets = lane.l1._sets

    def owner_of(self, block: int) -> int:
        """The tenant whose address space a (translated) block belongs to."""
        return block >> TENANT_SHIFT

    def block_of(self, addr: int) -> int:
        """Translated block number of the active tenant's byte address."""
        return (addr >> self._block_shift) + self._offset

    def view(self, tenant_id: int) -> HierarchyStats:
        """Freeze one tenant's counter slice."""
        lane = self._lanes[tenant_id]
        return HierarchyStats.capture(
            lane.l1_stats, lane.l2_stats, lane.demand, lane.prefetch,
            lane.stream_stats, lane.stream_names,
        )

    def shared_eviction_total(self) -> int:
        """Total evictions counted by the shared cache levels themselves."""
        total = self.l2.evictions
        if self._l1_shared:
            total += self._l1_caches[0].evictions
        return total

    def check_reconciliation(self) -> list[str]:
        """Exact accounting identities; returns human-readable violations.

        * matrix total == prefetch-caused shared evictions,
        * cause split sums to the shared caches' own eviction counters,
        * per-tenant L2 eviction charges sum to L2's own counter.
        """
        problems: list[str] = []
        matrix_total = sum(self.pollution_counts.values())
        if matrix_total != self.prefetch_shared_evictions:
            problems.append(
                f"pollution matrix total {matrix_total} != "
                f"prefetch-caused shared evictions {self.prefetch_shared_evictions}"
            )
        cause_total = self.demand_shared_evictions + self.prefetch_shared_evictions
        if cause_total != self.shared_eviction_total():
            problems.append(
                f"cause split {cause_total} != shared cache evictions "
                f"{self.shared_eviction_total()}"
            )
        if sum(lane.l2_stats.evictions for lane in self._lanes) != self.l2.evictions:
            problems.append("per-tenant L2 eviction charges do not sum to L2's counter")
        return problems

    # The assignment surface TelemetrySession.wire and the optimizer use,
    # routed to whichever tenant is active at the time.
    telemetry = _lane_attr("bus")
    ledger = _lane_attr("ledger")
    miss_sample_every = _lane_attr("miss_sample_every")
    prefetch_sample_every = _lane_attr("prefetch_sample_every")
    #: the active tenant's per-stream scoreboard (watchdog input)
    stream_stats = _lane_attr("stream_stats")
    stream_names = _lane_attr("stream_names")

    @property
    def demand_accesses(self) -> int:
        """Demand accesses of every tenant."""
        return sum(lane.demand for lane in self._lanes)

    @property
    def prefetch(self) -> PrefetchStats:
        """Prefetch outcomes of every tenant: the lane's own (live) counters
        when there is one tenant, otherwise their sum."""
        if len(self._lanes) == 1:
            return self._lanes[0].prefetch
        total = PrefetchStats()
        for lane in self._lanes:
            for name in ("issued", "redundant", "useful", "late", "wasted"):
                setattr(total, name, getattr(total, name) + getattr(lane.prefetch, name))
            for source, count in lane.prefetch.by_source.items():
                total.by_source[source] = total.by_source.get(source, 0) + count
        return total

    # --------------------------------------------------- per-stream attribution

    def set_stream_attribution(self, mapping: dict[int, object] | None) -> None:
        """Install (or clear) the active tenant's block -> stream-key map.

        The optimizer rebuilds this map at every install from the handlers'
        prefetch targets, in its own (untranslated) block numbers.  Prefetches
        already in flight keep the attribution they were issued under;
        ``stream_stats`` accumulates across installs.  Attribution never
        changes hit/miss/stall behaviour — only the watchdog's scoreboard
        reads it.
        """
        self._lane.stream_map = mapping

    def _note_outcome(self, block: int, outcome: str) -> None:
        """Credit a classified prefetch to its issuing stream, if attributed."""
        key = self._stream_of.pop(block, None)
        if key is None:
            return
        stream_stats = self._lanes[block >> TENANT_SHIFT].stream_stats
        stats = stream_stats.get(key)
        if stats is None:
            stats = stream_stats[key] = StreamPrefetchStats()
        setattr(stats, outcome, getattr(stats, outcome) + 1)

    # -------------------------------------------------------------- demand path

    def access(self, addr: int, now: int) -> int:
        """Demand access by the active tenant at cycle ``now``; return stall cycles."""
        lane = self._lane
        lane.demand += 1
        block = (addr >> self._block_shift) + self._offset
        stall = 0
        inflight = self._inflight
        pf_unused = self._prefetched_unused
        if block in inflight:
            ready = inflight.pop(block)
            if ready > now:
                stall = ready - now
                self._classify_use(lane, block, now, pf_unused.pop(block, now), stall)
            # on-time arrivals are counted below when the L1 lookup hits
        way = self._l1_sets[block & self._l1_mask]
        if block in way:
            lane.l1.hits += 1
            lane.l1_stats.hits += 1
            if way[-1] != block:
                way.remove(block)
                way.append(block)
            if block in pf_unused:
                self._classify_use(lane, block, now, pf_unused.pop(block), 0)
            return stall
        lane.l1.misses += 1
        lane.l1_stats.misses += 1
        way2 = self._l2_sets[block & self._l2_mask]
        if block in way2:
            self.l2.hits += 1
            lane.l2_stats.hits += 1
            if way2[-1] != block:
                way2.remove(block)
                way2.append(block)
            stall += self.config.l2_latency
            if block in pf_unused:
                self._classify_use(lane, block, now, pf_unused.pop(block), 0)
            level = "L1"
        else:
            self.l2.misses += 1
            lane.l2_stats.misses += 1
            stall += self.config.memory_latency
            self._install_l2(block, way2, now, False)
            level = "L2"
        telem = lane.bus
        if telem.enabled:
            # Sampling countdowns are inlined at the hot sites: a helper call
            # per occurrence alone costs measurable wall-clock.  The compiled
            # kernel takes the same step for the misses it decides inline
            # and calls this method only for the sampled one.
            n = lane.misses_since + 1
            if n >= lane.miss_sample_every:
                n = 0
                telem.emit(CacheMiss(now, level, block, stall))
            lane.misses_since = n
        self._install_l1(block, way, False)
        return stall

    def _classify_use(self, lane: _Lane, block: int, now: int, issued_at: int, stall: int) -> None:
        """A demand access met a prefetched block: *late* if its data was
        still in flight (``stall`` > 0), *useful* otherwise."""
        late = stall > 0
        if late:
            lane.prefetch.late += 1
        else:
            lane.prefetch.useful += 1
        if self._stream_of:
            self._note_outcome(block, "late" if late else "useful")
        if lane.ledger is not None:
            lane.ledger.on_use(block, now, late, now - issued_at, stall)
        telem = lane.bus
        if telem.enabled:
            n = lane.used_since + 1
            if n >= lane.prefetch_sample_every:
                n = 0
                telem.emit(PrefetchUsed(now, block, late, now - issued_at))
            lane.used_since = n

    # ------------------------------------------------------------ prefetch path

    def issue_prefetch(self, addr: int, now: int, source: str = "sw") -> None:
        """Issue a ``prefetcht0``-style prefetch for the block of ``addr``.

        The block is installed in both cache levels right away (it occupies a
        frame and can evict useful data — pollution) and becomes *ready* after
        the fetch latency; demand accesses before then pay the residual.
        ``source`` tags the telemetry event ("sw" for injected handlers,
        "stride"/"markov" for the hardware baselines).  The active tenant is
        credited as the issuer.
        """
        lane = self._lane
        prefetch = lane.prefetch
        prefetch.issued += 1
        by_source = prefetch.by_source
        by_source[source] = by_source.get(source, 0) + 1
        raw = addr >> self._block_shift
        block = raw + self._offset
        smap = lane.stream_map
        skey = smap.get(raw) if smap is not None else None
        if skey is not None:
            sstats = lane.stream_stats.get(skey)
            if sstats is None:
                sstats = lane.stream_stats[skey] = StreamPrefetchStats()
            sstats.issued += 1
        way = self._l1_sets[block & self._l1_mask]
        inflight = self._inflight
        redundant = block in way or block in inflight
        if redundant:
            prefetch.redundant += 1
            if skey is not None:
                sstats.redundant += 1
        if lane.ledger is not None:
            lane.ledger.on_issue(block, now, source, skey, redundant)
        telem = lane.bus
        if telem.enabled:
            n = lane.issued_since + 1
            if n >= lane.prefetch_sample_every:
                n = 0
                telem.emit(PrefetchIssued(now, block, source, redundant))
            lane.issued_since = n
        if redundant:
            return
        way2 = self._l2_sets[block & self._l2_mask]
        if block in way2:
            # L2-resident: promote to L1 quickly.
            inflight[block] = now + self.config.l2_latency
        else:
            inflight[block] = now + self.config.memory_latency
            self._install_l2(block, way2, now, True)
        self._install_l1(block, way, True)
        self._prefetched_unused[block] = now
        if skey is not None:
            self._stream_of[block] = skey

    # -------------------------------------------------------- installs/evictions
    # Both install paths run only for a block absent from the level, so they
    # append without a membership test.  ``way`` is the block's set list.

    def _install_l1(self, block: int, way: list, from_prefetch: bool) -> None:
        # An L1 victim never wastes a prefetch: every unused prefetched block
        # is L2-resident (an L2 eviction wastes it first), so it stays usable.
        if len(way) >= self._l1_assoc:
            victim = way.pop(0)
            lane = self._lane
            lane.l1.evictions += 1
            lane.l1_stats.evictions += 1
            if self._l1_shared:
                self._credit_shared_eviction(victim, from_prefetch)
        way.append(block)

    def _install_l2(self, block: int, way2: list, now: int, from_prefetch: bool) -> None:
        if len(way2) >= self._l2_assoc:
            victim = way2.pop(0)
            self.l2.evictions += 1
            self._lane.l2_stats.evictions += 1
            # Inclusion: an L2 eviction also removes the L1 copy, which only
            # the owner's L1 can hold.
            owner_way = self._lanes[victim >> TENANT_SHIFT].l1._sets[victim & self._l1_mask]
            if victim in owner_way:
                owner_way.remove(victim)
            self._credit_shared_eviction(victim, from_prefetch)
            if victim in self._prefetched_unused:
                self._waste(victim, now)
        way2.append(block)

    def _credit_shared_eviction(self, victim: int, from_prefetch: bool) -> None:
        if from_prefetch:
            self.prefetch_shared_evictions += 1
            key = (self._active, victim >> TENANT_SHIFT)
            self.pollution_counts[key] = self.pollution_counts.get(key, 0) + 1
        else:
            self.demand_shared_evictions += 1

    def _waste(self, victim: int, now: int) -> None:
        """An unused prefetched block left the hierarchy: wasted, for its owner."""
        del self._prefetched_unused[victim]
        self._inflight.pop(victim, None)
        owner = self._lanes[victim >> TENANT_SHIFT]
        owner.prefetch.wasted += 1
        if self._stream_of:
            self._note_outcome(victim, "wasted")
        if owner.ledger is not None:
            owner.ledger.on_evict(victim, now)
        if owner.bus.enabled:
            self._emit_evicted(owner, now, victim, False)

    def _emit_evicted(self, lane: _Lane, now: int, block: int, at_finalize: bool) -> None:
        lane.evicted_since += 1
        if lane.evicted_since >= lane.prefetch_sample_every:
            lane.evicted_since = 0
            lane.bus.emit(PrefetchEvicted(now, block, at_finalize))

    # --------------------------------------------------------------- end of run

    def _expire_unused(self, now: int, at_finalize: bool) -> None:
        """Classify every still-unused prefetched block as wasted, per owner,
        and forget all prefetch state."""
        pf_unused = self._prefetched_unused
        lanes = self._lanes
        for block in pf_unused:
            owner = lanes[block >> TENANT_SHIFT]
            if owner.bus.enabled:
                self._emit_evicted(owner, now, block, at_finalize)
        if self._stream_of:
            for block in pf_unused:
                self._note_outcome(block, "wasted")
        for block in pf_unused:
            owner = lanes[block >> TENANT_SHIFT]
            if owner.ledger is not None:
                owner.ledger.on_expire(block, now)
            owner.prefetch.wasted += 1
        pf_unused.clear()
        self._inflight.clear()

    def finalize(self, now: int = 0) -> None:
        """Classify still-unused prefetched blocks as wasted (end of run)."""
        self._expire_unused(now, True)

    def flush(self, now: int = 0) -> None:
        """Empty every cache level and forget in-flight prefetches.

        Flushing the shared L2 clears every tenant's working set (inclusion).
        Hit/miss/eviction counters and prefetch statistics are preserved (the
        same guarantee :meth:`Cache.flush` documents); prefetched blocks that
        never served a demand access are classified as wasted for their
        owners, so the ``issued == redundant + useful + late + wasted``
        invariant survives a mid-run flush followed by :meth:`finalize`.
        """
        self._expire_unused(now, False)
        lane = self._lane
        if lane.bus.enabled:
            lane.bus.emit(
                CacheFlushed(now, len(lane.l1.resident_blocks()), len(self.l2.resident_blocks()))
            )
        for l1 in self._l1_caches:
            l1.flush()
        self.l2.flush()

    @property
    def l1_miss_rate(self) -> float:
        """L1 miss rate over all demand accesses (every tenant's)."""
        misses = sum(lane.l1_stats.misses for lane in self._lanes)
        accesses = sum(lane.l1_stats.accesses for lane in self._lanes)
        return misses / accesses if accesses else 0.0

    def stats_snapshot(self) -> HierarchyStats:
        """Freeze the aggregate counters (with the active lane's L1 and
        stream attribution) into a serializable snapshot."""
        return HierarchyStats.capture(
            self.l1, self.l2, self.demand_accesses, self.prefetch,
            self.stream_stats, self.stream_names,
        )
