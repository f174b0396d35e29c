/**
 * @file
 * Full-system assembly (paper Table 2): trace-driven cores, the
 * content-carrying cache hierarchy, one memory controller per channel
 * with the selected write scheme, the ReRAM backing store, and the
 * circuit-derived timing model — wired onto a single event queue.
 *
 * Scaling note: cache capacities and working sets default to ~8x below
 * the paper's (paper: 4MB L2 + 32MB L3, 500M-instruction windows) so
 * every benchmark binary completes in seconds. Ratios (working set :
 * LLC, queue depths, timing parameters) follow the paper; set
 * SystemConfig::paperScale to restore the full sizes.
 */

#ifndef LADDER_SIM_SYSTEM_HH
#define LADDER_SIM_SYSTEM_HH

#include <memory>
#include <string>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/event_queue.hh"
#include "common/stats.hh"
#include "cpu/core.hh"
#include "ctrl/controller.hh"
#include "mem/backing_store.hh"
#include "schemes/factory.hh"
#include "trace/run_ahead.hh"
#include "trace/workload_frontend.hh"
#include "trace/workloads.hh"

namespace ladder
{

/** Everything needed to build a System. */
struct SystemConfig
{
    MemoryGeometry geometry{};
    CrossbarParams crossbar{};
    ControllerConfig controller{};
    HierarchyParams caches{};
    CoreParams core{};
    SchemeKind scheme = SchemeKind::Baseline;
    SchemeOptions schemeOptions{};
    unsigned tableGranularity = 8;
    double rangeShrink = 1.0; //!< §7 process-variation ablation
    /**
     * One name = single-programmed; four = a mix. Names resolve
     * through the workload frontend: the paper's synthetics, the
     * generator families, or `trace:<path>` external replay.
     */
    std::vector<std::string> workloads{"lbm"};
    /** External-replay knobs (registry group extern.*). */
    WorkloadFrontendOptions frontend{};
    /**
     * Optional recorded trace files, one per core; when set (same
     * count as workloads) each core replays its file instead of
     * synthesizing traffic. First-touch page content defaults to
     * zeros for replayed traces.
     */
    std::vector<std::string> traceFiles;
    double workingSetScale = 1.0;
    double dataPageFraction = 0.75;
    double backgroundDensity = 0.4;  //!< LRS fraction of other rows
    std::uint64_t seed = 1;
    bool paperScale = false;
    /**
     * Core-clock cycles between periodic stat snapshots during the
     * measured window (0 = no epoch time series). Each snapshot
     * flattens every registered stat group — controllers, cores, and
     * the cache hierarchy — into one value vector sampled at the same
     * tick; see epochNames() / epochs().
     */
    std::uint64_t epochCycles = 0;
};

/** One periodic flattened-stats sample of the measured window. */
struct EpochSnapshot
{
    Tick tick = 0;              //!< absolute event-queue time
    std::vector<double> values; //!< parallel to System::epochNames()
};

/** Outcome of one measured simulation window. */
struct SimResult
{
    std::vector<double> coreIpc;
    double ipc = 0.0; //!< core 0 (single) or sum (mix; use coreIpc)
    std::uint64_t instructions = 0;
    double elapsedNs = 0.0;
    double avgReadLatencyNs = 0.0;
    double avgWriteServiceNs = 0.0;
    double avgWriteTwrNs = 0.0;
    std::uint64_t dataReads = 0;
    std::uint64_t metadataReads = 0;
    std::uint64_t smbReads = 0;
    std::uint64_t dataWrites = 0;
    std::uint64_t metadataWrites = 0;
    double readEnergyPj = 0.0;
    double writeEnergyPj = 0.0;
    double fnwFlips = 0.0;
    double fnwCancelled = 0.0;
    double estCounterDiffMean = 0.0; //!< Est - accurate (own content)
    double estimatedCwMean = 0.0;
    double accurateCwMean = 0.0;
    double spillInsertions = 0.0;
};

/** The assembled machine. */
class System
{
  public:
    explicit System(const SystemConfig &config);

    /**
     * Run @p warmupInstr then a measured window of @p measureInstr
     * instructions per core; returns the window's metrics.
     */
    SimResult run(std::uint64_t warmupInstr,
                  std::uint64_t measureInstr);

    MemoryController &controller(unsigned channel);
    unsigned channels() const;
    BackingStore &store() { return *store_; }
    EventQueue &events() { return events_; }
    Core &core(unsigned i) { return *cores_[i]; }
    CacheHierarchy &hierarchy() { return *hierarchy_; }
    unsigned coreCount() const
    {
        return static_cast<unsigned>(cores_.size());
    }
    const SystemConfig &config() const { return config_; }
    WriteScheme &scheme() { return *scheme_; }

    /** Install a wear-leveling remapper on every controller. */
    void setRemapper(AddressRemapper *remapper);

    /**
     * Install a trace sink on every controller (nullptr = off). Must
     * outlive any subsequent run(); records arrive in event order.
     */
    void attachTraceSink(WriteTraceSink *sink);

    /** Dump all statistics. */
    void dumpStats(std::ostream &os);

    /**
     * Every stat group, in fixed registration order: controllers
     * first (ctrl0..), then cores (core0..), then the cache hierarchy
     * (cache<i> folding each core's private L1/L2, then the shared
     * l3). Epoch snapshots flatten the same order, so controller
     * epoch names keep their historical positions.
     */
    const std::vector<StatGroup> &statGroups() const
    {
        return statGroups_;
    }

    /** Flattened stat names sampled by epoch snapshots. */
    const std::vector<std::string> &epochNames() const
    {
        return epochNames_;
    }

    /** Epoch time series from the most recent measured window. */
    const std::vector<EpochSnapshot> &epochs() const
    {
        return epochs_;
    }

  private:
    SystemConfig config_;
    EventQueue events_;
    const TimingModel *timing_;
    std::unique_ptr<BackingStore> store_;
    std::shared_ptr<MetadataLayout> layout_;
    std::shared_ptr<WriteScheme> scheme_;
    std::vector<std::unique_ptr<MemoryController>> controllers_;
    std::unique_ptr<CacheHierarchy> hierarchy_;
    /** Generates the cores' records ahead; outlives cores_. */
    std::unique_ptr<TraceRunAhead> runAhead_;
    std::vector<std::unique_ptr<Core>> cores_;
    std::vector<StatGroup> statGroups_;
    AddressRemapper *remapper_ = nullptr;
    WriteTraceSink *traceSink_ = nullptr;
    std::vector<std::string> epochNames_;
    std::vector<EpochSnapshot> epochs_;

    void resetStats();
    void captureEpoch(Tick when);
    void scheduleEpochSnapshot(Tick when, Tick epochTicks,
                               const unsigned *pending);
};

/** Apply the paper's full-scale parameters to a config. */
void applyPaperScale(SystemConfig &config);

} // namespace ladder

#endif // LADDER_SIM_SYSTEM_HH
