/**
 * @file
 * The per-channel ReRAM memory controller (paper Fig. 5/6, Table 2).
 *
 * Responsibilities:
 *  - 32-entry read queue and 64-entry write queue with write-drain
 *    mode switching at the 85% high-water mark;
 *  - bank timing (tRCD/tCL/tBURST, variable tWR from the active
 *    write scheme);
 *  - internal reads on behalf of schemes: LRS-metadata line fills and
 *    stale-memory-block (SMB) reads, which contend with demand reads
 *    for banks but are tracked separately;
 *  - the LRS-metadata cache with sharer pinning and the spill buffer;
 *  - Flip-N-Write at dispatch;
 *  - energy and service-time accounting for every operation class.
 */

#ifndef LADDER_CTRL_CONTROLLER_HH
#define LADDER_CTRL_CONTROLLER_HH

#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/event_queue.hh"
#include "common/page_table.hh"
#include "common/slab.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "ctrl/fnw.hh"
#include "ctrl/metadata_cache.hh"
#include "ctrl/scheme.hh"
#include "ctrl/trace_sink.hh"
#include "mem/backing_store.hh"
#include "mem/request.hh"
#include "reram/timing_tables.hh"

namespace ladder
{

/** A line copy a wear-leveling step requires (physical addresses). */
struct RemapMove
{
    Addr from = invalidAddr;
    Addr to = invalidAddr;
};

/** Remaps line addresses ahead of decode (wear-leveling hook). */
class AddressRemapper
{
  public:
    virtual ~AddressRemapper() = default;
    /** Physical line address after remapping. */
    virtual Addr remap(Addr lineAddr) = 0;
    /** Observe a serviced data write (drives remap epochs). */
    virtual void noteDataWrite(Addr physLineAddr) { (void)physLineAddr; }
    /** Line copies the controller must perform for pending remaps. */
    virtual std::vector<RemapMove> collectMoves() { return {}; }
};

/** Controller configuration (paper Table 2 defaults). */
struct ControllerConfig
{
    unsigned readQueueEntries = 32;
    unsigned writeQueueEntries = 64;
    double drainHighWatermark = 0.85;
    double drainLowWatermark = 0.5;
    double tRcdNs = 13.75;
    double tClNs = 13.75;
    double tBurstNs = 5.0;
    /**
     * Concurrent accesses per bank to distinct mat-group subarrays
     * (the paper's banks hold 4 x 64-mat groups sharing peripheral
     * logic; accesses to different groups overlap).
     */
    unsigned subarraysPerBank = 4;
    std::size_t metadataCacheBytes = 64 * 1024;
    unsigned metadataCacheWays = 4;
    unsigned spillBufferEntries = 16;
    FnwMode fnwMode = FnwMode::Classical;
    double readEnergyPj = 250.0;   //!< per demand/metadata/SMB read
    double transitionEnergyPj = 1.0; //!< per cell switched
    /**
     * Per-write causal latency attribution: decompose every data
     * write's end-to-end latency into blame components (dependency /
     * queue / bank / tRCD / base / location / content / scheme) that
     * sum exactly to completion - enqueue in ticks. Off by default —
     * the dispatch hot path then does no attribution work at all and
     * every export stays byte-identical to pre-attribution builds.
     * Components feed the trace sink (v3 records), the blame stat
     * group, and the live blame-rate metrics.
     */
    bool attribution = false;
};

/** Number of blame components in the attribution decomposition. */
inline constexpr unsigned blameComponentCount = 8;

/** Canonical component names, in WriteAttribution field order. */
const char *const *blameComponentNames();

/** Per-channel memory controller. */
class MemoryController
{
  public:
    MemoryController(EventQueue &events, const ControllerConfig &cfg,
                     const MemoryGeometry &geo, unsigned channel,
                     BackingStore &store, const TimingModel &timing,
                     std::shared_ptr<WriteScheme> scheme);

    // ------------------------------------------------------------------
    // Processor-side interface
    // ------------------------------------------------------------------

    bool canAcceptRead() const;
    bool canAcceptWrite() const;

    /**
     * Enqueue a demand read.
     * @pre canAcceptRead()
     */
    void enqueueRead(Addr lineAddr, ReadCallback callback);

    /**
     * Enqueue a (posted) data write.
     * @pre canAcceptWrite()
     */
    void enqueueWrite(Addr lineAddr, const LineData &data);

    /** Notified whenever queue space frees up. */
    void addRetryListener(std::function<void()> listener);

    /**
     * Timing-free (functional) accesses used for cache warmup: they
     * move real data through encode/FNW/store exactly like timed
     * operations but produce no events, queue activity, or stats.
     */
    LineData functionalRead(Addr lineAddr);
    void functionalWrite(Addr lineAddr, const LineData &data);

    // ------------------------------------------------------------------
    // Scheme-facing interface
    // ------------------------------------------------------------------

    BackingStore &store() { return store_; }
    const TimingModel &timing() const { return timing_; }

    /**
     * Timing lookups for schemes: the ⟨WL, BL, LRS⟩ -> entry
     * resolution through the dense precomputed latency surfaces (O(1):
     * two index loads + one entry load), which are exact copies of the
     * bucketed tables.
     */
    const TimingEntry &ladderTiming(unsigned wordline,
                                    unsigned bitline,
                                    unsigned lrsCount) const;
    const TimingEntry &blpTiming(unsigned wordline, unsigned bitline,
                                 unsigned lrsCount) const;
    const TimingEntry &locationTiming(unsigned wordline,
                                      unsigned bitline) const;
    MetadataCache &metadataCache() { return metaCache_; }
    const MemoryGeometry &geometry() const { return geo_; }
    const AddressMap &addressMap() const { return map_; }
    EventQueue &events() { return events_; }

    /** Install a wear-leveling remapper (nullptr = identity). */
    void setRemapper(AddressRemapper *remapper) { remapper_ = remapper; }

    /**
     * Install a cycle-level event trace sink (nullptr = off). The
     * sink must outlive the controller's simulation; it receives one
     * record per data-write dispatch and per demand-read completion.
     */
    void setTraceSink(WriteTraceSink *sink) { traceSink_ = sink; }

    /**
     * Enqueue a metadata writeback (bypasses the data write queue cap
     * via an overflow list so fills can always evict).
     */
    void enqueueMetadataWrite(Addr metaAddr);

    /**
     * Inject extra write traffic that bypasses queue admission (used
     * by wear-leveling segment swaps). Accounted as data writes.
     */
    void injectWrite(Addr lineAddr, const LineData &data);

    /**
     * Inject a write to an already-physical address (no remapping);
     * used for wear-leveling line copies.
     */
    void injectPhysicalWrite(Addr physTo, const LineData &data);

    // ------------------------------------------------------------------
    // Statistics
    // ------------------------------------------------------------------

    StatScalar dataReads, metadataReads, smbReads;
    StatScalar dataWrites, metadataWrites;
    StatScalar fnwFlips, fnwCancelled;
    StatScalar drainEntries;
    StatScalar spillInsertions;
    StatAverage readLatencyNs;     //!< demand reads: queue + service
    StatAverage writeServiceNs;    //!< data writes: tRCD + tWR
    StatAverage writeLatencyOnlyNs; //!< data writes: tWR only
    StatAverage writeQueueTimeNs;
    /** Distribution of demand-read queue+service latency (ns). */
    StatHistogram readLatencyHistNs;
    /** Distribution of data-write service (tRCD + tWR) latency (ns). */
    StatHistogram writeServiceHistNs;
    /**
     * Per-component blame decomposition of data-write latency (ns),
     * indexed by blameComponentNames() order. Registered into the
     * stat group only when cfg.attribution is on, so attribution-off
     * stats.json stays byte-identical.
     */
    StatAverage blameAvgNs[blameComponentCount];
    StatHistogram blameHistNs[blameComponentCount];
    StatScalar readEnergyPj, writeEnergyPj;
    StatScalar dataWriteEnergyPj, metaWriteEnergyPj;
    StatScalar cellResets, cellSets;

    /** Register all stats into @p group. */
    void regStats(StatGroup &group);

    /** Per-page write counts of the written pages (lifetime analysis). */
    std::unordered_map<std::uint64_t, std::uint32_t>
    pageWriteCounts() const;

    /** Demand reads currently outstanding (for drain decisions). */
    std::size_t pendingReads() const { return readQueue_.size(); }
    std::size_t pendingWrites() const { return writeQueue_.size(); }

    const WriteScheme &scheme() const { return *scheme_; }

  private:
    struct ReadEntry
    {
        std::uint64_t id = 0;
        Addr addr = invalidAddr;
        ReadKind kind = ReadKind::Data;
        Tick enqueueTick = 0;
        BlockLocation loc{};
        std::vector<ReadCallback> callbacks; //!< demand reads
        std::uint64_t writeId = 0;           //!< SMB: dependent write
        LineData forwarded{}; //!< payload of a read served by a write
    };

    struct PendingMetaFill
    {
        Addr metaAddr = invalidAddr;
        std::vector<std::uint64_t> waitingWrites;
        bool issued = false;
    };

    /** A dispatched data write, until it completes. */
    struct InFlightWrite
    {
        Addr addr;
        std::uint32_t slot; //!< in writes_
    };

    EventQueue &events_;
    ControllerConfig cfg_;
    MemoryGeometry geo_;
    AddressMap map_;
    unsigned channel_;
    BackingStore &store_;
    const TimingModel &timing_;
    std::shared_ptr<WriteScheme> scheme_;
    MetadataCache metaCache_;
    AddressRemapper *remapper_ = nullptr;
    WriteTraceSink *traceSink_ = nullptr;

    Slab<ReadEntry> reads_;
    Slab<WriteEntry> writes_;
    Slab<PendingMetaFill> fills_;
    // The queues hold slots, oldest first.
    std::vector<std::uint32_t> readQueue_;     //!< demand reads
    std::vector<std::uint32_t> internalReads_; //!< metadata + SMB reads
    std::vector<std::uint32_t> writeQueue_;    //!< data writes
    std::vector<std::uint32_t> metaWrites_;    //!< metadata writebacks
    std::vector<std::uint32_t> pendingFills_;
    std::deque<Addr> spillBuffer_;             //!< blocked metadata fills

    std::vector<Tick> bankBusyUntil_; //!< per (rank, bank) in channel
    Tick lastIssueTick_ = 0;
    bool drainMode_ = false;
    bool schedulePending_ = false;
    std::uint64_t nextId_ = 1;
    std::vector<std::function<void()>> retryListeners_;
    /** Writes per page, by page number. */
    PageTable<std::uint32_t> pageWrites_;
    /** At most one entry per address (the latest dispatch). */
    std::vector<InFlightWrite> inFlightWrites_;

    /** Live-telemetry handles (common/metrics), registered in the
     *  constructor; every use is gated on metrics::enabled(). */
    std::uint32_t mWrites_, mReads_, mWqDepth_, mRqDepth_;
    std::uint32_t mResetTicks_, mSchemeWrites_, mSimTick_;
    /** Blame tick counters (registered only with cfg.attribution). */
    std::uint32_t mBlame_[blameComponentCount] = {};

    Tick tRcd_, tCl_, tBurst_;

    Addr physAddr(Addr lineAddr);
    unsigned bankIndex(const BlockLocation &loc) const;
    void requestSchedule();
    void runSchedule();
    void updateMode();
    /** A read slot for a new internal or demand read. */
    std::uint32_t newRead(ReadKind kind, Addr addr,
                          const BlockLocation &loc);
    /** A write slot reset to a fresh WriteEntry. */
    std::uint32_t newWrite();
    /** Serve a demand read from a queued or in-flight write. */
    void forwardRead(const LineData &data, ReadCallback callback);
    /** Queue a data write (enqueueWrite and both inject paths). */
    void admitWrite(Addr phys, const BlockLocation &loc,
                    const LineData &data, bool isRemapCopy);
    bool issueOneRead(std::vector<std::uint32_t> &queue);
    bool issueOneWrite();
    bool issueOneInternal();
    WriteEntry *findWrite(std::uint64_t id);
    void completeRead(std::uint32_t slot, Tick when);
    void completeWrite(std::uint32_t slot, double latencyNs,
                       double powerMw);
    /**
     * Causal blame decomposition of one data-write dispatch (only
     * called with cfg.attribution on). @p prevBankBusy is the bank's
     * busy-until tick before this dispatch claims it. Samples the
     * blame stats and metrics as a side effect and asserts the exact
     * component-sum invariant.
     */
    WriteAttribution attributeDispatch(const WriteEntry &entry,
                                       const WriteDecision &decision,
                                       Tick prevBankBusy);
    void handleMetadataNeeds(WriteEntry &entry);
    void issueMetaFill(Addr metaAddr);
    void retrySpills();
    void notifyRetry();
    LineData readLogical(Addr physLineAddr, const BlockLocation &loc);
    double metadataWriteLatencyNs(const BlockLocation &loc,
                                  double &powerMw) const;
};

} // namespace ladder

#endif // LADDER_CTRL_CONTROLLER_HH
