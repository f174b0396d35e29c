/**
 * @file
 * Trace-driven out-of-order core approximation (4-wide, ROB- and
 * MSHR-limited, posted stores), the front end of the full-system
 * simulation. The model captures exactly the couplings the paper's
 * results rest on:
 *
 *  - demand reads that miss the hierarchy stall retirement when the
 *    ROB or the MSHRs fill, so read latency (including read-blocking
 *    by long ReRAM writes) translates into IPC;
 *  - pointer-chasing loads serialize on their own completion;
 *  - store misses fetch-for-write (extra reads), dirty L3 victims
 *    carry real content to the controller, and a full write queue
 *    back-pressures the core.
 */

#ifndef LADDER_CPU_CORE_HH
#define LADDER_CPU_CORE_HH

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/event_queue.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "ctrl/controller.hh"
#include "trace/trace_file.hh"

namespace ladder
{

/** Core model parameters (paper Table 2: 4-core OoO x86). */
struct CoreParams
{
    double freqGhz = 3.2;
    unsigned width = 4;        //!< retire width
    unsigned robSize = 192;
    unsigned maxOutstanding = 16; //!< MSHRs to memory
    unsigned quantum = 256;       //!< records per activation
    unsigned writebackStall = 4;  //!< buffered WBs before stalling
};

/** One trace-driven core. */
class Core
{
  public:
    /** Routes a physical address to its channel's controller. */
    using RouteFn = std::function<MemoryController &(Addr)>;

    Core(EventQueue &events, const CoreParams &params, unsigned id,
         std::unique_ptr<TraceSource> trace,
         CacheHierarchy &hierarchy, RouteFn route, Addr regionBase);

    /**
     * Run until @p instructions more have issued, then call
     * @p onDone. The trace continues across phases (warmup, measure).
     */
    void runPhase(std::uint64_t instructions,
                  std::function<void()> onDone);

    /**
     * Timing-free warmup: pull @p instructions worth of trace through
     * the cache hierarchy and the controllers' functional interface,
     * so caches and memory content reach steady state without paying
     * event-simulation cost.
     */
    void functionalWarmup(std::uint64_t instructions);

    /** Instructions issued so far (all phases). */
    std::uint64_t instrIssued() const { return instrIssued_; }
    /** Core-local clock in ticks. */
    Tick coreTime() const { return coreTime_; }
    /** Cycles elapsed between two core times. */
    double
    cyclesBetween(Tick from, Tick to) const
    {
        return static_cast<double>(to - from) /
               static_cast<double>(cycleTicks_);
    }

    unsigned id() const { return id_; }

    /**
     * Controller queue space freed: resume if the core was blocked on
     * back-pressure. Wired to every controller's retry listener list.
     */
    void notifyRetry();

    StatScalar memReads;       //!< demand fetches sent to memory
    StatScalar memWrites;      //!< L3 writebacks sent to memory
    StatScalar loads, stores;
    StatScalar robStalls, mshrStalls, chaseStalls, wbStalls,
        rdqStalls;

    /** Register every core statistic into @p group. */
    void regStats(StatGroup &group);

  private:
    struct OutstandingLoad
    {
        std::uint64_t seqNo;
        Tick completeTick = maxTick; //!< maxTick while pending
    };

    /** A line with an in-flight fetch. */
    struct PendingLine
    {
        Addr addr;
        std::uint64_t seqNo; //!< of the covering load
    };

    /** A store waiting for its line's fetch to return. */
    struct PendingStore
    {
        Addr addr;
        unsigned offset;
        std::array<std::uint8_t, 8> bytes;
    };

    enum class BlockReason
    {
        None,
        FrontLoad,   //!< ROB/MSHR full: wait for oldest load
        OwnLoad,     //!< dependent (chasing) load
        ReadRetry,   //!< controller read queue full
        WriteRetry,  //!< controller write queue full
        Done,
    };

    EventQueue &events_;
    CoreParams params_;
    unsigned id_;
    std::unique_ptr<TraceSource> trace_;
    CacheHierarchy &hierarchy_;
    RouteFn route_;
    Addr regionBase_;

    Tick cycleTicks_;
    Tick coreTime_ = 0;
    std::uint64_t instrIssued_ = 0;
    std::uint64_t phaseTarget_ = 0;
    std::function<void()> onDone_;

    /** Loads in program order; bounded by the MSHRs. */
    std::vector<OutstandingLoad> outstanding_;
    std::vector<Writeback> pendingWritebacks_; //!< oldest first
    BlockReason blocked_ = BlockReason::None;
    std::uint64_t blockedOnLoadSeq_ = 0;
    std::optional<TraceRecord> pendingRecord_;
    bool activationScheduled_ = false;
    // Both tables stay small (one line per MSHR, and the stores that
    // hit those lines while they are fetched), so a scan is cheap.
    /** Lines with an in-flight fetch, at most one entry per line. */
    std::vector<PendingLine> pendingLines_;
    /** Stores waiting for their line's fetch, in program order. */
    std::vector<PendingStore> pendingStoreMerges_;
    /** Writeback scratch of processOne/functionalWarmup and of fills. */
    std::vector<Writeback> wbs_, fillWbs_;
    std::uint64_t issueDebt_ = 0; //!< sub-cycle issue accumulator

    void scheduleActivation();
    void activate();
    bool processOne();
    void advanceIssue(std::uint32_t instructions);
    void chargeLatency(double ns, bool dependent);
    bool issueFetch(Addr physAddr, bool isStore,
                    const TraceRecord &rec);
    void loadCompleted(std::uint64_t seqNo, Tick when);
    void drainWritebacks();
    /** Queue @p writebacks (left empty) and try to send them. */
    void pushWritebacks(std::vector<Writeback> &writebacks);
    PendingLine *findPendingLine(Addr addr);
    void retireCompleted();
    Addr physOf(Addr regionRelative) const;
    void finishPhaseIfDone();
};

} // namespace ladder

#endif // LADDER_CPU_CORE_HH
