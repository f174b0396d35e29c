#include "system.hh"

#include <chrono>
#include <future>
#include <mutex>
#include <ostream>
#include <set>

#include "common/log.hh"
#include "common/metrics.hh"
#include "common/profiler.hh"
#include "reram/latency_surface.hh"
#include "schemes/ladder_schemes.hh"
#include "trace/data_patterns.hh"
#include "trace/trace_file.hh"

namespace ladder
{

namespace
{

/**
 * Init-time surface verification (SystemConfig::latencySurfaceCheck):
 * exact surface-vs-table identity. Memoized on the shared (cached)
 * model's identity, so a sweep building hundreds of Systems checks
 * each distinct model once.
 */
void
verifyLatencySurfaces(const TimingModel &model)
{
    static std::mutex mutex;
    static std::set<const TimingModel *> checked;
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (!checked.insert(&model).second)
            return;
    }
    PROF_SCOPE("latency_surface_check");
    struct Item
    {
        const std::shared_ptr<const LatencySurface> &surface;
        const WriteTimingTable &table;
        const char *what;
    };
    const Item items[] = {
        {model.ladderSurface, model.ladder, "ladder"},
        {model.blpSurface, model.blp, "blp"},
        {model.locationSurface, model.location, "location"},
    };
    for (const Item &item : items) {
        ladder_assert(item.surface != nullptr,
                      "timing model lacks a %s surface", item.what);
        SurfaceCheckResult check =
            item.surface->verifyAgainst(item.table);
        ladder_assert(check.ok(),
                      "%s latency surface diverges from its table "
                      "(%zu of %zu cells, max %.3g ns)",
                      item.what, check.mismatches, check.cellsChecked,
                      check.maxAbsErrorNs);
    }
}

} // namespace

void
applyPaperScale(SystemConfig &config)
{
    config.caches.l2 = CacheParams{4 * 1024 * 1024, 16};
    config.caches.l3 = CacheParams{32 * 1024 * 1024, 16};
    config.workingSetScale = 8.0;
    config.paperScale = true;
}

System::System(const SystemConfig &config) : config_(config)
{
    ladder_assert(config_.workloads.size() == 1 ||
                      config_.workloads.size() == 4,
                  "workloads must be a single program or a 4-mix");

    timing_ = &cachedTimingModel(config_.crossbar,
                                 config_.tableGranularity,
                                 config_.rangeShrink);
    if (config_.latencySurfaceCheck)
        verifyLatencySurfaces(*timing_);

    store_ = std::make_unique<BackingStore>(
        config_.geometry, /*trackBitlines=*/true,
        config_.backgroundDensity);

    AddressMap map(config_.geometry);
    std::uint64_t dataPages = static_cast<std::uint64_t>(
        map.totalPages() * config_.dataPageFraction);
    layout_ =
        std::make_shared<MetadataLayout>(config_.geometry, dataPages);
    scheme_ = makeScheme(config_.scheme, config_.crossbar, layout_,
                         config_.schemeOptions);

    // Channel engine: one event queue per channel plus the protocol
    // plumbing. The worker count only changes wall-clock time; any
    // channelThreads >= 1 yields byte-identical results because the
    // window protocol (not thread scheduling) orders every merge.
    channelEngine_ = config_.controller.channelThreads > 0;
    if (channelEngine_) {
        double horizonNs = config_.controller.lookaheadNs;
        if (horizonNs <= 0.0)
            horizonNs = config_.controller.tRcdNs +
                        config_.controller.tClNs;
        lookahead_ = std::max<Tick>(nsToTicks(horizonNs), 1);
        scheme_->setChannelShards(config_.geometry.channels);
        outboxes_.resize(config_.geometry.channels);
        for (unsigned ch = 0; ch < config_.geometry.channels; ++ch)
            channelQueues_.push_back(
                std::make_unique<EventQueue>());
    }

    for (unsigned ch = 0; ch < config_.geometry.channels; ++ch) {
        controllers_.push_back(std::make_unique<MemoryController>(
            channelEngine_ ? *channelQueues_[ch] : events_,
            config_.controller, config_.geometry, ch, *store_,
            *timing_, scheme_));
        if (channelEngine_) {
            controllers_.back()->setFrontendQueue(&events_);
            controllers_.back()->setOutbox(&outboxes_[ch]);
        }
        statGroups_.emplace_back("ctrl" + std::to_string(ch));
    }
    for (unsigned ch = 0; ch < controllers_.size(); ++ch)
        controllers_[ch]->regStats(statGroups_[ch]);

    HierarchyParams cacheParams = config_.caches;
    cacheParams.cores =
        static_cast<unsigned>(config_.workloads.size());
    hierarchy_ = std::make_unique<CacheHierarchy>(cacheParams);

    // Lay the per-core workload regions out page-aligned and disjoint
    // in the data region, and register the first-touch initializers.
    struct Region
    {
        Addr base;
        Addr size;
        std::shared_ptr<DataPatternModel> pattern;
        std::uint64_t seed;
    };
    auto regions = std::make_shared<std::vector<Region>>();

    // Routing must agree with the controller-side physical decode,
    // so any installed wear-leveling remap is applied first (remaps
    // may legitimately cross channels).
    Core::RouteFn route = [this](Addr addr) -> MemoryController & {
        Addr phys = remapper_ ? remapper_->remap(addr) : addr;
        BlockLocation loc =
            controllers_[0]->addressMap().decode(phys);
        return *controllers_[loc.channel];
    };

    ladder_assert(config_.traceFiles.empty() ||
                      config_.traceFiles.size() ==
                          config_.workloads.size(),
                  "traceFiles must match the workload count");
    Addr nextBase = 0;
    for (unsigned c = 0; c < config_.workloads.size(); ++c) {
        WorkloadInstance inst = makeWorkloadInstance(
            config_.workloads[c], config_.seed * 16 + c,
            config_.workingSetScale, config_.frontend,
            config_.traceFiles.empty() ? std::string{}
                                       : config_.traceFiles[c]);
        Addr footprint = inst.source->footprintBytes();
        ladder_assert(nextBase + footprint <=
                          dataPages * MemoryGeometry::pageBytes,
                      "workloads exceed the data region");
        regions->push_back(
            {nextBase, footprint,
             std::make_shared<DataPatternModel>(inst.firstTouch),
             inst.seed});
        cores_.push_back(std::make_unique<Core>(
            events_, config_.core, c, std::move(inst.source),
            *hierarchy_, route, nextBase));
        nextBase += footprint;
    }

    // First-touch content is generated in the workload's pattern and
    // stored in its *physical* form (the scheme's encoding applied),
    // as if it had been written through the controller.
    std::shared_ptr<WriteScheme> scheme = scheme_;
    store_->setPageInitializer(
        [regions, scheme](std::uint64_t pageIndex,
                          PageContent &content) {
            Addr byteAddr = pageIndex * MemoryGeometry::pageBytes;
            for (const auto &region : *regions) {
                if (byteAddr < region.base ||
                    byteAddr >= region.base + region.size)
                    continue;
                Rng rng(mix64(pageIndex ^ region.seed));
                for (unsigned b = 0;
                     b < MemoryGeometry::blocksPerPage; ++b) {
                    Addr blockAddr =
                        byteAddr + static_cast<Addr>(b) * lineBytes;
                    content.blocks[b] = scheme->encodeData(
                        blockAddr, region.pattern->generateLine(rng));
                }
                return;
            }
            // Untouched / metadata pages stay zeroed.
        });

    for (auto &ctrl : controllers_) {
        for (auto &core : cores_) {
            Core *corePtr = core.get();
            ctrl->addRetryListener([corePtr]() {
                corePtr->notifyRetry();
            });
        }
    }

    // Core and cache groups follow the controller groups, so the
    // controller stats keep their historical epoch-vector positions.
    for (unsigned c = 0; c < cores_.size(); ++c) {
        statGroups_.emplace_back("core" + std::to_string(c));
        cores_[c]->regStats(statGroups_.back());
    }
    for (unsigned c = 0; c < cores_.size(); ++c) {
        statGroups_.emplace_back("cache" + std::to_string(c));
        StatGroup &group = statGroups_.back();
        hierarchy_->l1(c).regStats(group, "l1_");
        hierarchy_->l2(c).regStats(group, "l2_");
    }
    statGroups_.emplace_back("l3");
    hierarchy_->l3().regStats(statGroups_.back());
}

MemoryController &
System::controller(unsigned channel)
{
    ladder_assert(channel < controllers_.size(),
                  "channel out of range");
    return *controllers_[channel];
}

unsigned
System::channels() const
{
    return static_cast<unsigned>(controllers_.size());
}

void
System::setRemapper(AddressRemapper *remapper)
{
    remapper_ = remapper;
    if (remapper && channelEngine_)
        disableChannelEngine(
            "wear-leveling line copies cross channels");
    for (auto &ctrl : controllers_)
        ctrl->setRemapper(remapper);
}

void
System::disableChannelEngine(const char *reason)
{
    // Observable fallback: monitors watching the heartbeat see the
    // gauge flip to 1 even when stderr is discarded, and warn_once
    // keeps parallel sweeps from repeating the message per cell.
    warn_once("channel engine disabled: %s; running on the shared "
              "queue",
              reason);
    static const metrics::MetricId fallbackGauge =
        metrics::registerGauge("engine.fallback");
    metrics::set(fallbackGauge, 1);
    for (auto &queue : channelQueues_)
        ladder_assert(queue->empty(),
                      "disabling the channel engine mid-run");
    for (auto &ctrl : controllers_) {
        ctrl->rebindEventQueue(events_);
        ctrl->setFrontendQueue(nullptr);
        ctrl->setOutbox(nullptr);
        ctrl->setTraceSink(traceSink_);
    }
    channelEngine_ = false;
    channelQueues_.clear();
    outboxes_.clear();
    traceStaging_.clear();
    channelPool_.reset();
}

void
System::attachTraceSink(WriteTraceSink *sink)
{
    traceSink_ = sink;
    if (channelEngine_ && sink) {
        // Channel workers record into private buffers; the barrier
        // merges them into the real sink by (tick, channel).
        if (traceStaging_.empty()) {
            for (std::size_t ch = 0; ch < controllers_.size(); ++ch)
                traceStaging_.push_back(
                    std::make_unique<WriteTraceSink>());
        }
        for (std::size_t ch = 0; ch < controllers_.size(); ++ch)
            controllers_[ch]->setTraceSink(traceStaging_[ch].get());
        return;
    }
    for (auto &ctrl : controllers_)
        ctrl->setTraceSink(sink);
}

void
System::captureEpoch(Tick when)
{
    EpochSnapshot snap;
    snap.tick = when;
    snap.values.reserve(epochNames_.size());
    for (const auto &group : statGroups_) {
        group.visit([&](const std::string &, double v) {
            snap.values.push_back(v);
        });
    }
    ladder_assert(snap.values.size() == epochNames_.size(),
                  "epoch snapshot arity changed mid-run");
    epochs_.push_back(std::move(snap));
}

void
System::scheduleEpochSnapshot(Tick when, Tick epochTicks,
                              const unsigned *pending)
{
    // The channel engine clamps window ends to the next snapshot, so
    // every channel has executed exactly the events before `when`
    // when the capture runs — the same cut a sequential run makes.
    nextEpochTick_ = when;
    events_.schedule(when, [this, when, epochTicks, pending]() {
        // Stop once every core has finished its measured window so
        // the event queue can drain; the final partial epoch is not
        // sampled (its interval is shorter than epochCycles).
        if (*pending == 0) {
            nextEpochTick_ = maxTick;
            return;
        }
        captureEpoch(when);
        scheduleEpochSnapshot(when + epochTicks, epochTicks, pending);
    });
}

void
System::resetStats()
{
    // Fold outstanding per-channel scheme shards first so the reset
    // below clears them along with the primaries.
    scheme_->foldChannelShards();
    for (auto &group : statGroups_)
        group.resetAll();
    for (auto &ctrl : controllers_) {
        ctrl->metadataCache().hits.reset();
        ctrl->metadataCache().misses.reset();
        ctrl->metadataCache().insertions.reset();
        ctrl->metadataCache().dirtyEvictions.reset();
        ctrl->metadataCache().blockedLookups.reset();
    }
    if (auto *est = dynamic_cast<LadderEstScheme *>(scheme_.get())) {
        est->counterDiff.reset();
        est->estimatedCw.reset();
    }
    if (auto *basic =
            dynamic_cast<LadderBasicScheme *>(scheme_.get())) {
        basic->accurateCw.reset();
    }
}

SimResult
System::run(std::uint64_t warmupInstr, std::uint64_t measureInstr)
{
    // --- Warmup: functional (timing-free) cache/content warmup,
    // then a short timed ramp to fill queues and the metadata cache.
    for (auto &core : cores_)
        core->functionalWarmup(warmupInstr);
    std::uint64_t ramp = std::max<std::uint64_t>(measureInstr / 10,
                                                 5'000);
    unsigned pending = static_cast<unsigned>(cores_.size());
    for (auto &core : cores_) {
        core->runPhase(ramp, [&pending]() { --pending; });
    }
    nextEpochTick_ = maxTick;
    runEventLoop();
    ladder_assert(pending == 0,
                  "deadlock: %u cores stuck in warmup (events drained)",
                  pending);

    // --- Measured window ---
    resetStats();
    // The trace covers the measured window only; drop ramp records.
    if (traceSink_)
        traceSink_->clear();
    std::vector<Tick> startTime;
    for (auto &core : cores_)
        startTime.push_back(core->coreTime());

    SimResult result;
    result.coreIpc.assign(cores_.size(), 0.0);
    pending = static_cast<unsigned>(cores_.size());
    std::vector<Tick> endTime(cores_.size(), 0);
    for (std::size_t c = 0; c < cores_.size(); ++c) {
        Core *core = cores_[c].get();
        core->runPhase(measureInstr, [&pending, &endTime, c, core]() {
            endTime[c] = core->coreTime();
            --pending;
        });
    }
    epochNames_.clear();
    epochs_.clear();
    if (config_.epochCycles > 0) {
        // Names are fixed up front so they are available (and the
        // series arity is pinned) even when the window is shorter
        // than one epoch.
        for (const auto &group : statGroups_) {
            group.visit([&](const std::string &name, double) {
                epochNames_.push_back(name);
            });
        }
        Tick epochTicks = nsToTicks(
            static_cast<double>(config_.epochCycles) /
            config_.core.freqGhz);
        if (epochTicks == 0)
            epochTicks = 1;
        epochTicks_ = epochTicks;
        scheduleEpochSnapshot(events_.now() + epochTicks, epochTicks,
                              &pending);
    }
    runEventLoop();
    ladder_assert(pending == 0,
                  "deadlock: %u cores stuck in measurement", pending);

    double maxElapsed = 0.0;
    for (std::size_t c = 0; c < cores_.size(); ++c) {
        double cycles =
            cores_[c]->cyclesBetween(startTime[c], endTime[c]);
        result.coreIpc[c] =
            cycles > 0.0 ? static_cast<double>(measureInstr) / cycles
                         : 0.0;
        maxElapsed = std::max(
            maxElapsed, ticksToNs(endTime[c] - startTime[c]));
    }
    result.ipc = result.coreIpc[0];
    result.instructions = measureInstr * cores_.size();
    result.elapsedNs = maxElapsed;

    double readLatWeighted = 0.0, writeServWeighted = 0.0,
           writeTwrWeighted = 0.0;
    std::uint64_t readLatCount = 0, writeServCount = 0;
    for (auto &ctrl : controllers_) {
        result.dataReads +=
            static_cast<std::uint64_t>(ctrl->dataReads.value());
        result.metadataReads +=
            static_cast<std::uint64_t>(ctrl->metadataReads.value());
        result.smbReads +=
            static_cast<std::uint64_t>(ctrl->smbReads.value());
        result.dataWrites +=
            static_cast<std::uint64_t>(ctrl->dataWrites.value());
        result.metadataWrites +=
            static_cast<std::uint64_t>(ctrl->metadataWrites.value());
        result.readEnergyPj += ctrl->readEnergyPj.value();
        result.writeEnergyPj += ctrl->writeEnergyPj.value();
        result.fnwFlips += ctrl->fnwFlips.value();
        result.fnwCancelled += ctrl->fnwCancelled.value();
        result.spillInsertions += ctrl->spillInsertions.value();
        readLatWeighted += ctrl->readLatencyNs.sum();
        readLatCount += ctrl->readLatencyNs.count();
        writeServWeighted += ctrl->writeServiceNs.sum();
        writeTwrWeighted += ctrl->writeLatencyOnlyNs.sum();
        writeServCount += ctrl->writeServiceNs.count();
    }
    result.avgReadLatencyNs =
        readLatCount ? readLatWeighted / readLatCount : 0.0;
    result.avgWriteServiceNs =
        writeServCount ? writeServWeighted / writeServCount : 0.0;
    result.avgWriteTwrNs =
        writeServCount ? writeTwrWeighted / writeServCount : 0.0;

    // Channel-order fold of the measured window's scheme samples.
    scheme_->foldChannelShards();
    if (auto *est = dynamic_cast<LadderEstScheme *>(scheme_.get())) {
        result.estCounterDiffMean = est->counterDiff.mean();
        result.estimatedCwMean = est->estimatedCw.mean();
    }
    if (auto *basic =
            dynamic_cast<LadderBasicScheme *>(scheme_.get())) {
        result.accurateCwMean = basic->accurateCw.mean();
    }
    return result;
}

void
System::runEventLoop()
{
    if (!channelEngine_) {
        events_.runUntil(maxTick);
        return;
    }
    runWindowedLoop();
}

void
System::mergeTraceStaging()
{
    if (!traceSink_ || traceStaging_.empty())
        return;
    // Every staged buffer is tick-sorted (each channel records in its
    // own event order), so a k-way merge keyed (tick, channel) yields
    // the exact global order a sequential run would have produced.
    std::vector<std::size_t> pos(traceStaging_.size(), 0);
    for (;;) {
        std::size_t best = traceStaging_.size();
        Tick bestTick = maxTick;
        for (std::size_t ch = 0; ch < traceStaging_.size(); ++ch) {
            const auto &records = traceStaging_[ch]->records();
            if (pos[ch] >= records.size())
                continue;
            Tick tick = records[pos[ch]].tick;
            if (best == traceStaging_.size() || tick < bestTick) {
                best = ch;
                bestTick = tick;
            }
        }
        if (best == traceStaging_.size())
            break;
        traceSink_->record(
            traceStaging_[best]->records()[pos[best]++]);
    }
    for (auto &staging : traceStaging_)
        staging->clear();
}

void
System::runWindowedLoop()
{
    const unsigned channels =
        static_cast<unsigned>(controllers_.size());
    const unsigned workers =
        std::min(config_.controller.channelThreads, channels);
    if (workers > 1 && !channelPool_)
        channelPool_ = std::make_unique<ThreadPool>(
            workers, config_.poolPin == "cores");
    const bool profiling = prof::enabled();
    if (profiling && evqDepthCounterNames_.empty()) {
        for (unsigned ch = 0; ch < channels; ++ch)
            evqDepthCounterNames_.push_back(prof::internName(
                "engine.ch" + std::to_string(ch) + ".evq_depth"));
    }

    std::vector<std::future<void>> futures;
    futures.reserve(channels);
    std::uint64_t window = 0;
    for (;; ++window) {
        // Window bounds: free-run every queue up to (exclusive) the
        // earliest pending event plus the lookahead horizon. All
        // queue clocks sit at the previous window's end, so minNext
        // can never trail any clock.
        Tick minNext = events_.nextEventTick();
        for (auto &queue : channelQueues_)
            minNext = std::min(minNext, queue->nextEventTick());
        if (minNext == maxTick)
            break; // fully drained
        Tick end = maxTick - lookahead_ > minNext
                       ? minNext + lookahead_
                       : maxTick - 1;
        const Tick front = events_.now();
        if (nextEpochTick_ != maxTick) {
            // Epoch snapshots must observe the exact same cut a
            // sequential run makes: never let channels run past the
            // next snapshot. A snapshot due right now executes in
            // this window's frontend phase and reschedules; clamp to
            // its successor instead (end == front would not advance).
            ladder_assert(nextEpochTick_ >= front,
                          "epoch snapshot behind the frontend clock");
            if (nextEpochTick_ > front)
                end = std::min(end, nextEpochTick_);
            else if (epochTicks_ > 0)
                end = std::min(end, front + epochTicks_);
        }

        if (profiling && (window & 15u) == 0) {
            for (unsigned ch = 0; ch < channels; ++ch)
                PROF_COUNTER(
                    evqDepthCounterNames_[ch],
                    static_cast<double>(
                        channelQueues_[ch]->pending()));
        }

        // Phase A — frontend, serial: cores, caches, and the
        // processor-side controller entry points, which timestamp
        // against the frontend clock.
        for (auto &ctrl : controllers_)
            ctrl->setFrontendClock(events_.nowPtr());
        events_.runBefore(end);
        for (auto &ctrl : controllers_)
            ctrl->setFrontendClock(nullptr);

        // Phase B — channels, parallel (or inline, same order, when
        // a single worker is configured): strictly channel-confined
        // state, no frontend interaction until the barrier.
        if (workers <= 1 || channels <= 1) {
            for (auto &queue : channelQueues_)
                queue->runBefore(end);
        } else {
            const auto barrierStart =
                profiling ? std::chrono::steady_clock::now()
                          : std::chrono::steady_clock::time_point{};
            futures.clear();
            for (auto &queue : channelQueues_) {
                EventQueue *q = queue.get();
                futures.push_back(channelPool_->submit(
                    [q, end]() { q->runBefore(end); }));
            }
            for (auto &future : futures)
                future.get();
            if (profiling && (window & 15u) == 0) {
                PROF_COUNTER(
                    "engine.barrier_wait_ns",
                    static_cast<double>(
                        std::chrono::duration_cast<
                            std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() -
                            barrierStart)
                            .count()));
            }
        }

        // Barrier — merge side effects in fixed channel order. The
        // deliveries land at the window boundary with priority -1 so
        // they precede same-tick frontend work, and their payloads
        // carry the true completion ticks.
        mergeTraceStaging();
        for (unsigned ch = 0; ch < channels; ++ch) {
            ChannelOutbox &outbox = outboxes_[ch];
            for (auto &delivery : outbox.deliveries)
                events_.schedule(end, std::move(delivery.fn), -1);
            outbox.deliveries.clear();
            if (outbox.retryPending) {
                outbox.retryPending = false;
                MemoryController *ctrl = controllers_[ch].get();
                events_.schedule(
                    end, [ctrl]() { ctrl->deliverRetries(); }, -1);
            }
        }
    }
}

void
System::dumpStats(std::ostream &os)
{
    for (auto &group : statGroups_)
        group.dump(os);
}

} // namespace ladder
