"""The GPU memory hierarchy: per-SMX L1s, a shared L2, and DRAM.

The SMX pipeline walks memory through :meth:`MemoryHierarchy.accessor`:
a per-SMX closure that takes a span of coalesced line addresses, walks
each line through L1 -> L2 -> DRAM, and returns the cycle at which the
slowest transaction completes (the warp's wake-up time).
:meth:`MemoryHierarchy.access_warp` is the readable reference for the
same walk — it coalesces lane addresses itself and reports per-access
hit counts — and tests pin the two together state for state.

Store policy follows Kepler: global stores are write-through and do not
allocate in L1 (they invalidate nothing in this model because we do not
track dirty data), but allocate in L2.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from repro.gpu.config import CacheConfig, GPUConfig
from repro.memory.cache import Cache, CacheStats
from repro.memory.coalescer import coalesce

#: in-flight fill (MSHR) entries kept before the oldest-completion fills
#: are evicted (counted in ``SimStats.mshr_dropped``). Memory-bound inputs
#: do reach it: sssp-cage15 ``small`` (seed 7) drops 50,668-93,668 of its
#: 108 K-152 K DRAM fills per run. Raising it changes simulated results,
#: so it needs regenerated golden pins and a new ``ENGINE_VERSION``.
MSHR_TABLE_LIMIT = 4096

#: miss sentinel for the single-probe (open-addressed dict) set walk:
#: ``cache_set.pop(line, _MISS)`` resolves hit-test + LRU-unlink in one
#: hash probe, and can never collide with a stored value (always None)
_MISS = object()


@dataclass(slots=True)
class AccessResult:
    """Outcome of one warp memory instruction."""

    complete_at: int
    transactions: int
    l1_hits: int
    l2_hits: int
    dram_accesses: int
    mshr_merges: int = 0


class MemoryHierarchy:
    """N private L1 caches in front of a shared L2 and DRAM.

    With ``config.mshr_merging`` (default), misses to a line whose fill is
    already in flight join it — one DRAM transaction serves all merged
    requesters, as hardware MSHRs do. The merged access still counts as an
    L2 miss (the data was not resident) but consumes no DRAM bandwidth.
    """

    def __init__(self, config: GPUConfig) -> None:
        from repro.memory.dram import DRAM  # local import avoids cycle in docs builds

        self.config = config
        # one L1 per *cluster* (= per SMX when smxs_per_cluster == 1);
        # SMXs of the same cluster share it (paper Section IV-B, [25])
        clusters = [Cache(config.l1, name=f"L1[cluster {c}]") for c in range(config.num_clusters)]
        self.l1s = [clusters[config.cluster_of(i)] for i in range(config.num_smx)]
        self._cluster_l1s = clusters
        # the L2 and its DRAM bandwidth split across address-interleaved
        # partitions (line -> partition = line % P), each with its own
        # memory channel; P=1 keeps the classic monolithic view
        parts = config.l2_partitions
        part_config = CacheConfig(
            size_bytes=config.l2.size_bytes // parts,
            line_bytes=config.l2.line_bytes,
            associativity=config.l2.associativity,
            hit_latency=config.l2.hit_latency,
        )
        self.l2_parts = [Cache(part_config, name=f"L2[{p}]") for p in range(parts)]
        self.drams = [
            DRAM(config.dram_latency, config.dram_lines_per_cycle / parts)
            for _ in range(parts)
        ]
        # aliases for the common monolithic configuration
        self.l2 = self.l2_parts[0]
        self.dram = self.drams[0]
        # in-flight L2 fills: line -> completion time (MSHR table), plus a
        # (completion, line) heap so expiry and capacity eviction pop the
        # earliest-completing fills without ever rebuilding the dict
        self._inflight: dict[int, int] = {}
        self._inflight_heap: list[tuple[int, int]] = []
        self.mshr_limit = MSHR_TABLE_LIMIT
        self.mshr_merges = 0
        self.mshr_dropped = 0
        self._accessors: dict[int, object] = {}

    def accessor(self, smx_id: int):
        """A per-SMX bound fast accessor, ``fn(lines, begin, end, now,
        is_write=False) -> complete_at``, built once per SMX and cached.

        ``lines`` is any indexable of line addresses (a
        :class:`~repro.gpu.compiled.CompiledBody` line pool); the walk
        covers ``lines[begin:end]``, so no per-access list is allocated.
        """
        fn = self._accessors.get(smx_id)
        if fn is None:
            fn = self._accessors[smx_id] = self._make_accessor(smx_id)
        return fn

    def _make_accessor(self, smx_id: int):
        """Build the walk closure for one SMX.

        Every per-call constant (set lists, associativities, latencies,
        the DRAM and its timing constants) is frozen into default arguments,
        so the per-access prologue collapses to local-variable loads. All
        referenced structures are mutated in place and never rebound
        (cache sets via ``invalidate_all``, the MSHR dict and heap by the
        walks), so the bindings cannot go stale; the DRAM's ``stats``,
        which ``DRAM.reset`` replaces, is looked up at flush time.

        Both cache levels are walked inline with a single open-addressed
        probe per set (``dict.pop`` with a sentinel: hit-test and
        LRU-unlink in one hash lookup). Only hits and evictions are
        counted per line; accesses, misses and write counts follow from
        the span length and ``is_write`` (one call is all loads or all
        stores) and are flushed once per call. A partitioned L2 rebinds
        the L2 defaults to partition ``line % P`` for every line that
        reaches it, settling the previous line's counters on the
        partition that served it; the monolithic L2 pays one flag test.

        On the monolithic L2, a miss is serviced inside the walk rather
        than through :meth:`DRAM.service` and :meth:`_mshr_insert`: the
        DRAM bus-free time is read into a local at call start and written
        back only if the call reached DRAM, with the same float arithmetic
        as ``DRAM.service``; the DRAM's transaction, latency and queue-delay
        counters are flushed once per call like the cache counters; and a
        load's fill is inserted into the MSHR table, landed fills expired
        and the table capacity-evicted in place, reading ``mshr_limit`` on
        every insert. A partitioned L2 still calls ``DRAM.service`` of the
        partition's channel.

        The walk updates the same cache/DRAM/MSHR state as the readable
        :meth:`_access_lines` reference (which keeps using
        ``DRAM.service`` and ``_mshr_insert``) but skips the per-access hit
        bookkeeping and the :class:`AccessResult` allocation; tests pin
        the two together state for state.
        """
        l1 = self.l1s[smx_id]
        l2_fast = [
            (part._sets, part.num_sets, part.associativity, part.stats, dram.service)
            for part, dram in zip(self.l2_parts, self.drams)
        ]
        l2_sets, l2_num_sets, l2_assoc, l2_stats, dram_service = l2_fast[0]
        config = self.config

        def access(
            lines,
            begin,
            end,
            now,
            is_write=False,
            _l1_sets=l1._sets,
            _l1_num_sets=l1.num_sets,
            _l1_assoc=l1.associativity,
            _l1_stats=l1.stats,
            _l2_sets=l2_sets,
            _l2_num_sets=l2_num_sets,
            _l2_assoc=l2_assoc,
            _l2_stats=l2_stats,
            _dram_service=dram_service,
            _dram=self.dram,
            _dram_lat=self.dram.latency,
            _dram_cpl=self.dram.cycles_per_line,
            _parts=config.l2_partitions,
            _multi=config.l2_partitions > 1,
            _l2_fast=l2_fast,
            _inflight=self._inflight,
            _inflight_get=self._inflight.get,
            _heap=self._inflight_heap,
            _heappush=heappush,
            _heappop=heappop,
            _cfg_merging=config.mshr_merging,
            _l1_lat=config.l1_hit_latency,
            _l2_lat=config.l2_hit_latency,
            _miss=_MISS,
            _hier=self,
        ):
            complete_at = now
            # ``merging`` folds in dict emptiness: an empty MSHR table
            # cannot merge anything, so the per-line fill probe is skipped
            # entirely (state-identical — ``get`` on an empty dict returns
            # the default)
            merging = _cfg_merging and bool(_inflight)
            l1_hit = l1_evict = 0
            l2_acc = l2_hit = l2_evict = 0
            # monolithic DRAM: bus-free time, and the transactions and the
            # sum of their completion times this call
            bus = _dram._bus_free
            dram_n = dram_done_sum = 0
            for k in range(begin, end):
                line = lines[k]
                cache_set = _l1_sets[line % _l1_num_sets]
                if cache_set.pop(line, _miss) is not _miss:
                    cache_set[line] = None  # reinsert at MRU position
                    l1_hit += 1
                    if not is_write:
                        fill = _inflight_get(line, 0) if merging else 0
                        if fill > now:
                            # the line's fill has not landed yet: wait for it
                            _hier.mshr_merges += 1
                            if fill > complete_at:
                                complete_at = fill
                        else:
                            done = now + _l1_lat
                            if done > complete_at:
                                complete_at = done
                        continue
                    # write hit: write-through still goes to L2 below
                elif not is_write:
                    # stores are write-through / no-allocate at L1
                    if len(cache_set) >= _l1_assoc:
                        del cache_set[next(iter(cache_set))]
                        l1_evict += 1
                    cache_set[line] = None
                if _multi:
                    if l2_acc:
                        _l2_stats.accesses += 1
                        _l2_stats.hits += l2_hit
                        _l2_stats.misses += 1 - l2_hit
                        _l2_stats.evictions += l2_evict
                        if is_write:
                            _l2_stats.write_accesses += 1
                            _l2_stats.write_hits += l2_hit
                    l2_acc = 1
                    l2_hit = l2_evict = 0
                    _l2_sets, _l2_num_sets, _l2_assoc, _l2_stats, _dram_service = (
                        _l2_fast[line % _parts]
                    )
                # L2 allocates on both loads and stores (tag at miss time)
                l2_set = _l2_sets[line % _l2_num_sets]
                if l2_set.pop(line, _miss) is not _miss:
                    l2_set[line] = None
                    l2_hit += 1
                    fill = _inflight_get(line, 0) if merging else 0
                    if fill > now:
                        # the tag is resident but the fill is still in
                        # flight: this request merges into the outstanding
                        # miss (MSHR) and sees the data-arrival time
                        _hier.mshr_merges += 1
                        if fill > complete_at:
                            complete_at = fill
                    else:
                        done = now + _l2_lat
                        if done > complete_at:
                            complete_at = done
                else:
                    if len(l2_set) >= _l2_assoc:
                        del l2_set[next(iter(l2_set))]
                        l2_evict += 1
                    l2_set[line] = None
                    if _multi:
                        done = _dram_service(now)
                    else:
                        # DRAM.service: start = max(float(now), bus)
                        start = bus if bus > now else float(now)
                        bus = start + _dram_cpl
                        done = int(start) + _dram_lat
                        dram_n += 1
                        dram_done_sum += done
                    if not is_write and _cfg_merging:
                        # only loads put a fill in flight to merge into:
                        # _mshr_insert, inlined
                        _inflight[line] = done
                        _heappush(_heap, (done, line))
                        # fills that have landed can never merge again
                        while _heap and _heap[0][0] <= now:
                            t, ln = _heappop(_heap)
                            if _inflight_get(ln) == t:
                                del _inflight[ln]
                        while len(_inflight) > _hier.mshr_limit:
                            t, ln = _heappop(_heap)
                            if _inflight_get(ln) == t:
                                del _inflight[ln]
                                _hier.mshr_dropped += 1
                        merging = True  # the table is non-empty from here on
                    if done > complete_at:
                        complete_at = done
            n = end - begin
            _l1_stats.accesses += n
            _l1_stats.hits += l1_hit
            _l1_stats.misses += n - l1_hit
            if l1_evict:
                _l1_stats.evictions += l1_evict
            if not _multi:
                # every line reaches L2 except the L1 read hits
                l2_acc = n if is_write else n - l1_hit
            _l2_stats.accesses += l2_acc
            _l2_stats.hits += l2_hit
            _l2_stats.misses += l2_acc - l2_hit
            if l2_evict:
                _l2_stats.evictions += l2_evict
            if is_write:
                _l1_stats.write_accesses += n
                _l1_stats.write_hits += l1_hit
                _l2_stats.write_accesses += l2_acc
                _l2_stats.write_hits += l2_hit
            if dram_n:
                _dram._bus_free = bus
                dram_stats = _dram.stats
                dram_stats.transactions += dram_n
                dram_stats.total_latency += dram_done_sum - dram_n * now
                # start times only grow within a call, so the last
                # transaction waited longest
                delay = int(start) - now
                if delay > dram_stats.max_queue_delay:
                    dram_stats.max_queue_delay = delay
            return complete_at

        return access

    def access_warp(
        self,
        smx_id: int,
        addresses: list[int],
        now: int,
        *,
        is_write: bool = False,
        bypass_l1: bool = False,
    ) -> AccessResult:
        """Issue one warp memory instruction; return timing and hit counts."""
        lines = coalesce(addresses, self.config.line_bytes)
        return self._access_lines(smx_id, lines, now, is_write, bypass_l1)

    def _mshr_insert(self, line: int, done: int, now: int) -> None:
        """Record an in-flight fill, expiring landed entries lazily and —
        only if every entry is still genuinely in flight — evicting the
        oldest-completing fills deterministically. Eviction loses merge
        *timing* for those lines, never correctness, and is counted in
        ``mshr_dropped`` (surfaced as ``SimStats.mshr_dropped``). The
        monolithic-L2 accessor inlines the same steps; this copy serves
        the reference walk."""
        inflight = self._inflight
        heap = self._inflight_heap
        inflight[line] = done
        heappush(heap, (done, line))
        # fills that have landed can never merge again: drop them now
        while heap and heap[0][0] <= now:
            t, ln = heappop(heap)
            if inflight.get(ln) == t:
                del inflight[ln]
        while len(inflight) > self.mshr_limit:
            t, ln = heappop(heap)
            if inflight.get(ln) == t:
                del inflight[ln]
                self.mshr_dropped += 1

    def _access_lines(
        self, smx_id: int, lines: list[int], now: int, is_write: bool, bypass_l1: bool
    ) -> AccessResult:
        config = self.config
        l1 = self.l1s[smx_id]
        complete_at = now
        l1_hits = l2_hits = dram_accesses = merges = 0
        merging = config.mshr_merging
        parts = config.l2_partitions
        inflight_get = self._inflight.get
        l2_parts = self.l2_parts
        l1_hit_latency = config.l1_hit_latency
        l2_hit_latency = config.l2_hit_latency
        # the L1 lookup is inlined (state changes match Cache.access with
        # is_write/allocate=not is_write exactly): it runs once per
        # coalesced transaction, making it the hottest code in the model
        l1_sets = l1._sets
        l1_num_sets = l1.num_sets
        l1_assoc = l1.associativity
        l1_stats = l1.stats
        for line in lines:
            if not bypass_l1:
                cache_set = l1_sets[line % l1_num_sets]
                l1_stats.accesses += 1
                if line in cache_set:
                    # refresh LRU position
                    del cache_set[line]
                    cache_set[line] = None
                    l1_stats.hits += 1
                    if not is_write:
                        fill = inflight_get(line, 0) if merging else 0
                        if fill > now:
                            # the line's fill has not landed yet: wait for it
                            merges += 1
                            self.mshr_merges += 1
                            if fill > complete_at:
                                complete_at = fill
                        else:
                            l1_hits += 1
                            done = now + l1_hit_latency
                            if done > complete_at:
                                complete_at = done
                        continue
                    # write hit: write-through still goes to L2 below
                    l1_stats.write_accesses += 1
                    l1_stats.write_hits += 1
                    l1_hits += 1
                else:
                    l1_stats.misses += 1
                    if is_write:
                        # stores are write-through / no-allocate at L1
                        l1_stats.write_accesses += 1
                    else:
                        if len(cache_set) >= l1_assoc:
                            del cache_set[next(iter(cache_set))]
                            l1_stats.evictions += 1
                        cache_set[line] = None
            # L2 allocates on both loads and stores (tag at miss time)
            part = line % parts
            if l2_parts[part].access(line, is_write=is_write, allocate=True):
                fill = inflight_get(line, 0) if merging else 0
                if fill > now:
                    # the tag is resident but the fill is still in flight:
                    # this request merges into the outstanding miss (MSHR)
                    # and sees the data-arrival time, not the hit latency
                    merges += 1
                    self.mshr_merges += 1
                    if fill > complete_at:
                        complete_at = fill
                else:
                    l2_hits += 1
                    done = now + l2_hit_latency
                    if done > complete_at:
                        complete_at = done
            else:
                dram_accesses += 1
                done = self.drams[part].service(now)
                if merging and not is_write:
                    # stores write through without fetching: only loads put
                    # a fill in flight that later requests can merge into
                    self._mshr_insert(line, done, now)
                if done > complete_at:
                    complete_at = done
        return AccessResult(
            complete_at=complete_at,
            transactions=len(lines),
            l1_hits=l1_hits,
            l2_hits=l2_hits,
            dram_accesses=dram_accesses,
            mshr_merges=merges,
        )

    # ----- statistics ----------------------------------------------------
    def l1_stats_merged(self) -> CacheStats:
        merged = CacheStats()
        for l1 in self._cluster_l1s:
            merged.merge(l1.stats)
        return merged

    @property
    def l1_hit_rate(self) -> float:
        return self.l1_stats_merged().hit_rate

    def l2_stats_merged(self) -> CacheStats:
        merged = CacheStats()
        for part in self.l2_parts:
            merged.merge(part.stats)
        return merged

    def dram_transactions(self) -> int:
        return sum(d.stats.transactions for d in self.drams)

    def dram_mean_latency(self) -> float:
        total = self.dram_transactions()
        if not total:
            return 0.0
        return sum(d.stats.total_latency for d in self.drams) / total

    @property
    def l2_hit_rate(self) -> float:
        return self.l2_stats_merged().hit_rate
