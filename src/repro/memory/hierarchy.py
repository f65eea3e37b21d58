"""The GPU memory hierarchy: per-SMX L1s, a shared L2, and DRAM.

The SMX pipeline walks memory through :meth:`MemoryHierarchy.accessor`:
a per-SMX closure that takes a span of coalesced line addresses, walks
each line through L1 -> L2 -> DRAM, and returns the cycle at which the
slowest transaction completes (the warp's wake-up time). It is the only
walk; the tests keep a readable reference of the same walk
(``tests/memory_reference.py``) and pin the two together state for
state.

Store policy follows Kepler: global stores are write-through and do not
allocate in L1 (they invalidate nothing in this model because we do not
track dirty data), but allocate in L2.
"""

from __future__ import annotations

from repro.gpu.config import GPUConfig
from repro.memory.cache import Cache, CacheStats
from repro.memory.dram import DRAM

#: miss sentinel for the single-probe (open-addressed dict) set walk:
#: ``cache_set.pop(line, _MISS)`` resolves hit-test + LRU-unlink in one
#: hash probe, and can never collide with a stored value (always None)
_MISS = object()


class MemoryHierarchy:
    """N private L1 caches in front of a shared L2 and DRAM.

    With ``config.mshr_merging`` (default), misses to a line whose fill is
    already in flight join it — one DRAM transaction serves all merged
    requesters, as hardware MSHRs do. The merged access still counts as an
    L2 miss (the data was not resident) but consumes no DRAM bandwidth.

    The MSHR table, ``_inflight``, maps every line a load ever fetched
    from DRAM to the completion time of its latest fill. A request merges
    while ``fill > now``. Nothing is ever expired or evicted: the engine
    clock never goes backwards, so a landed fill can never merge again
    and acts the same kept or deleted, and the table can hold no more
    entries than the trace has distinct lines.
    """

    def __init__(self, config: GPUConfig) -> None:
        self.config = config
        # one L1 per *cluster* (= per SMX when smxs_per_cluster == 1);
        # SMXs of the same cluster share it (paper Section IV-B, [25])
        clusters = [Cache(config.l1, name=f"L1[cluster {c}]") for c in range(config.num_clusters)]
        self.l1s = [clusters[config.cluster_of(i)] for i in range(config.num_smx)]
        self._cluster_l1s = clusters
        self.l2 = Cache(config.l2, name="L2")
        self.dram = DRAM(config.dram_latency, config.dram_lines_per_cycle)
        # the MSHR table: line -> completion time of its latest DRAM fill
        self._inflight: dict[int, int] = {}
        self.mshr_merges = 0

    def accessor(self, smx_id: int):
        """A fresh per-SMX fast accessor, ``fn(lines, begin, end, now,
        is_write=False) -> complete_at``. Each SMX builds its own once and
        keeps it; the hierarchy keeps none, since a closure it held would
        close a reference cycle through ``_hier``.

        ``lines`` is any indexable of line addresses (a
        :class:`~repro.gpu.trace.TraceArena` line pool); the walk
        covers ``lines[begin:end]``, so no per-access list is allocated.

        Every per-call constant (set lists, associativities, latencies,
        the DRAM and its timing constants) is frozen into default arguments,
        so the per-access prologue collapses to local-variable loads. All
        referenced structures are mutated in place and never rebound
        (cache sets via ``invalidate_all``, the MSHR dict by the walk), so
        the bindings cannot go stale; the DRAM's ``stats``,
        which ``DRAM.reset`` replaces, is looked up at flush time.

        Both cache levels are walked inline with a single open-addressed
        probe per set (``dict.pop`` with a sentinel: hit-test and
        LRU-unlink in one hash lookup). Only hits and evictions are
        counted per line; accesses, misses and write counts follow from
        the span length and ``is_write`` (one call is all loads or all
        stores) and are flushed once per call.

        An L2 miss is serviced inside the walk rather than through
        :meth:`DRAM.service`: the DRAM bus-free time is read into a local
        at call start and written back only if the call reached DRAM,
        with the same float arithmetic as ``DRAM.service``, and the
        DRAM's transaction, latency and queue-delay counters are flushed
        once per call like the cache counters. A load's fill is one store
        into the MSHR table, ``_inflight[line] = done``.

        Merging needs no flag: with ``mshr_merging`` off nothing is ever
        stored, so every fill probe reads 0 and no request merges.
        """
        l1 = self.l1s[smx_id]
        l2 = self.l2
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
            _l2_sets=l2._sets,
            _l2_num_sets=l2.num_sets,
            _l2_assoc=l2.associativity,
            _l2_stats=l2.stats,
            _dram=self.dram,
            _dram_lat=self.dram.latency,
            _dram_cpl=self.dram.cycles_per_line,
            _inflight=self._inflight,
            _inflight_get=self._inflight.get,
            _cfg_merging=config.mshr_merging,
            _l1_lat=config.l1_hit_latency,
            _l2_lat=config.l2_hit_latency,
            _miss=_MISS,
            _hier=self,
        ):
            complete_at = now
            l1_hit = l1_evict = 0
            l2_hit = l2_evict = 0
            # DRAM bus-free time, and the transactions and the sum of
            # their completion times this call
            bus = _dram._bus_free
            dram_n = dram_done_sum = 0
            for k in range(begin, end):
                line = lines[k]
                cache_set = _l1_sets[line % _l1_num_sets]
                if cache_set.pop(line, _miss) is not _miss:
                    cache_set[line] = None  # reinsert at MRU position
                    l1_hit += 1
                    if not is_write:
                        fill = _inflight_get(line, 0)
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
                # L2 allocates on both loads and stores (tag at miss time)
                l2_set = _l2_sets[line % _l2_num_sets]
                if l2_set.pop(line, _miss) is not _miss:
                    l2_set[line] = None
                    l2_hit += 1
                    fill = _inflight_get(line, 0)
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
                    # DRAM.service: start = max(float(now), bus)
                    start = bus if bus > now else float(now)
                    bus = start + _dram_cpl
                    done = int(start) + _dram_lat
                    dram_n += 1
                    dram_done_sum += done
                    if not is_write and _cfg_merging:
                        # only loads put a fill in flight to merge into
                        _inflight[line] = done
                    if done > complete_at:
                        complete_at = done
            n = end - begin
            _l1_stats.accesses += n
            _l1_stats.hits += l1_hit
            _l1_stats.misses += n - l1_hit
            if l1_evict:
                _l1_stats.evictions += l1_evict
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

    # ----- statistics ----------------------------------------------------
    def l1_stats_merged(self) -> CacheStats:
        merged = CacheStats()
        for l1 in self._cluster_l1s:
            merged.merge(l1.stats)
        return merged

    @property
    def l1_hit_rate(self) -> float:
        return self.l1_stats_merged().hit_rate

    def dram_transactions(self) -> int:
        return self.dram.stats.transactions

    def dram_mean_latency(self) -> float:
        total = self.dram_transactions()
        if not total:
            return 0.0
        return self.dram.stats.total_latency / total

    @property
    def l2_hit_rate(self) -> float:
        return self.l2.stats.hit_rate
