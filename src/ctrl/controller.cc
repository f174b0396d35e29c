#include "controller.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/metrics.hh"
#include "common/profiler.hh"
#include "reram/latency_surface.hh"

namespace ladder
{

const char *const *
blameComponentNames()
{
    static const char *const names[blameComponentCount] = {
        "dep",  "queue", "bank",     "rcd",
        "base", "location", "content", "scheme"};
    return names;
}

MemoryController::MemoryController(EventQueue &events,
                                   const ControllerConfig &cfg,
                                   const MemoryGeometry &geo,
                                   unsigned channel, BackingStore &store,
                                   const TimingModel &timing,
                                   std::shared_ptr<WriteScheme> scheme)
    : events_(events),
      cfg_(cfg),
      geo_(geo),
      map_(geo),
      channel_(channel),
      store_(store),
      timing_(timing),
      scheme_(std::move(scheme)),
      metaCache_(cfg.metadataCacheBytes, cfg.metadataCacheWays)
{
    ladder_assert(scheme_ != nullptr, "controller needs a scheme");
    ladder_assert(cfg_.subarraysPerBank > 0, "need >= 1 subarray");
    ladder_assert(timing_.ladderSurface && timing_.blpSurface &&
                      timing_.locationSurface,
                  "timing model lacks its latency surfaces");
    // Histogram envelopes: writes span tRCD + the paper's 29-658 ns
    // tWR range; reads add queueing on top of ~32 ns of service, so
    // they get a wider range. Out-of-range samples land in the
    // overflow bucket rather than being lost.
    readLatencyHistNs.init(0.0, 2000.0, 50);
    writeServiceHistNs.init(0.0, 700.0, 35);
    // Blame components: the wait-side ones (dep/queue/bank) share the
    // read-latency envelope, the latency-side ones the tWR envelope.
    for (unsigned i = 0; i < blameComponentCount; ++i) {
        if (i < 3)
            blameHistNs[i].init(0.0, 2000.0, 50);
        else
            blameHistNs[i].init(0.0, 700.0, 35);
    }
    bankBusyUntil_.assign(
        static_cast<std::size_t>(geo_.ranksPerChannel) *
            geo_.banksPerRank * cfg_.subarraysPerBank,
        0);
    tRcd_ = nsToTicks(cfg_.tRcdNs);
    tCl_ = nsToTicks(cfg_.tClNs);
    tBurst_ = nsToTicks(cfg_.tBurstNs);

    // Live-telemetry handles. Registration is idempotent, so every
    // run of a sweep shares the per-channel ids; the per-write uses
    // below cost one relaxed load while telemetry is off.
    const std::string ch = "ctrl.ch" + std::to_string(channel_) + ".";
    mWrites_ = metrics::registerCounter(ch + "writes");
    mReads_ = metrics::registerCounter(ch + "reads");
    mWqDepth_ = metrics::registerGauge(ch + "wq_depth");
    mRqDepth_ = metrics::registerGauge(ch + "rq_depth");
    mResetTicks_ = metrics::registerCounter(ch + "reset_ticks");
    mSchemeWrites_ = metrics::registerCounter(
        "ctrl.scheme." + scheme_->name() + ".writes");
    mSimTick_ = metrics::registerGauge(metrics::names::simTick);
    if (cfg_.attribution) {
        // Global (not per-channel) blame tick counters; their rates
        // drive ladder_top's tail-blame line.
        for (unsigned i = 0; i < blameComponentCount; ++i)
            mBlame_[i] = metrics::registerCounter(
                std::string("ctrl.blame.") + blameComponentNames()[i] +
                "_ticks");
    }
}

void
MemoryController::regStats(StatGroup &group)
{
    group.regScalar("data_reads", &dataReads, "demand reads serviced");
    group.regScalar("metadata_reads", &metadataReads,
                    "LRS-metadata line fills");
    group.regScalar("smb_reads", &smbReads, "stale-memory-block reads");
    group.regScalar("data_writes", &dataWrites, "data writes serviced");
    group.regScalar("metadata_writes", &metadataWrites,
                    "LRS-metadata writebacks");
    group.regScalar("fnw_flips", &fnwFlips, "FNW inversions applied");
    group.regScalar("fnw_cancelled", &fnwCancelled,
                    "FNW flips vetoed by counting constraint");
    group.regScalar("drain_entries", &drainEntries,
                    "write-drain mode entries");
    group.regScalar("spill_insertions", &spillInsertions,
                    "metadata fills parked in the spill buffer");
    group.regAverage("read_latency_ns", &readLatencyNs,
                     "demand read queue+service latency");
    group.regAverage("write_service_ns", &writeServiceNs,
                     "data write tRCD+tWR");
    group.regAverage("write_twr_ns", &writeLatencyOnlyNs,
                     "data write tWR only");
    group.regAverage("write_queue_ns", &writeQueueTimeNs,
                     "data write queueing time");
    group.regHistogram("read_latency_hist_ns", &readLatencyHistNs,
                       "demand read latency distribution");
    group.regHistogram("write_service_hist_ns", &writeServiceHistNs,
                       "data write service time distribution");
    if (cfg_.attribution) {
        // Registered only when attribution is on so attribution-off
        // stats.json stays byte-identical to pre-attribution output.
        for (unsigned i = 0; i < blameComponentCount; ++i) {
            const std::string name = blameComponentNames()[i];
            group.regAverage("blame_" + name + "_ns", &blameAvgNs[i],
                             "write blame: " + name + " component");
            group.regHistogram("blame_" + name + "_hist_ns",
                               &blameHistNs[i],
                               "write blame distribution: " + name);
        }
    }
    group.regScalar("read_energy_pj", &readEnergyPj, "");
    group.regScalar("write_energy_pj", &writeEnergyPj, "");
    group.regScalar("data_write_energy_pj", &dataWriteEnergyPj, "");
    group.regScalar("meta_write_energy_pj", &metaWriteEnergyPj, "");
    group.regScalar("cell_resets", &cellResets, "");
    group.regScalar("cell_sets", &cellSets, "");
}

std::unordered_map<std::uint64_t, std::uint32_t>
MemoryController::pageWriteCounts() const
{
    std::unordered_map<std::uint64_t, std::uint32_t> counts;
    pageWrites_.forEach([&](std::uint64_t page, std::uint32_t writes) {
        if (writes)
            counts.emplace(page, writes);
    });
    return counts;
}

Addr
MemoryController::physAddr(Addr lineAddr)
{
    ladder_assert(lineAddr % lineBytes == 0,
                  "address 0x%llx not line aligned",
                  static_cast<unsigned long long>(lineAddr));
    return remapper_ ? remapper_->remap(lineAddr) : lineAddr;
}

unsigned
MemoryController::bankIndex(const BlockLocation &loc) const
{
    unsigned bank = loc.rank * geo_.banksPerRank + loc.bank;
    unsigned subarray = loc.matGroup % cfg_.subarraysPerBank;
    return bank * cfg_.subarraysPerBank + subarray;
}

bool
MemoryController::canAcceptRead() const
{
    return readQueue_.size() < cfg_.readQueueEntries;
}

bool
MemoryController::canAcceptWrite() const
{
    return writeQueue_.size() < cfg_.writeQueueEntries;
}

void
MemoryController::addRetryListener(std::function<void()> listener)
{
    retryListeners_.push_back(std::move(listener));
}

void
MemoryController::notifyRetry()
{
    for (auto &listener : retryListeners_)
        listener();
}

LineData
MemoryController::readLogical(Addr physLineAddr, const BlockLocation &loc)
{
    LineData raw = store_.read(loc);
    if (store_.flipped(loc))
        raw = invertLine(raw);
    return scheme_->decodeData(physLineAddr, raw);
}

LineData
MemoryController::functionalRead(Addr lineAddr)
{
    Addr phys = physAddr(lineAddr);
    return readLogical(phys, map_.decode(phys));
}

void
MemoryController::functionalWrite(Addr lineAddr, const LineData &data)
{
    Addr phys = physAddr(lineAddr);
    BlockLocation loc = map_.decode(phys);
    LineData encoded = scheme_->encodeData(phys, data);
    FnwMode mode = cfg_.fnwMode;
    if (mode != FnwMode::Off && scheme_->constrainedFnw())
        mode = FnwMode::Constrained;
    const LineData &stored = store_.read(loc);
    FnwDecision fnw = fnwDecide(stored, encoded, mode);
    store_.setFlipped(loc, fnw.flip);
    store_.write(loc, fnw.data);
}

std::uint32_t
MemoryController::newRead(ReadKind kind, Addr addr,
                          const BlockLocation &loc)
{
    std::uint32_t slot = reads_.acquire();
    ReadEntry &entry = reads_[slot];
    entry.id = nextId_++;
    entry.addr = addr;
    entry.kind = kind;
    entry.enqueueTick = events_.now();
    entry.loc = loc;
    entry.callbacks.clear();
    entry.writeId = 0;
    return slot;
}

void
MemoryController::forwardRead(const LineData &data, ReadCallback callback)
{
    std::uint32_t slot = reads_.acquire();
    ReadEntry &entry = reads_[slot];
    entry.enqueueTick = events_.now();
    entry.forwarded = data;
    entry.callbacks.clear();
    entry.callbacks.push_back(std::move(callback));
    Tick when = events_.now() + tCl_;
    events_.schedule(when, [this, slot, when]() {
        ReadEntry &done = reads_[slot];
        readLatencyNs.sample(ticksToNs(when - done.enqueueTick));
        readLatencyHistNs.sample(ticksToNs(when - done.enqueueTick));
        done.callbacks.front()(done.forwarded, when);
        reads_.release(slot);
    });
}

void
MemoryController::enqueueRead(Addr lineAddr, ReadCallback callback)
{
    ladder_assert(canAcceptRead(), "read queue overflow");
    Addr phys = physAddr(lineAddr);
    BlockLocation loc = map_.decode(phys);
    ladder_assert(loc.channel == channel_,
                  "read for channel %u routed to controller %u",
                  loc.channel, channel_);
    ++dataReads;

    // Forward from a queued or in-flight write to the same block.
    for (std::uint32_t slot : writeQueue_) {
        const WriteEntry &entry = writes_[slot];
        if (entry.addr == phys && !entry.isMetadataWrite) {
            forwardRead(entry.data, std::move(callback));
            return;
        }
    }
    for (const InFlightWrite &inflight : inFlightWrites_) {
        if (inflight.addr == phys) {
            forwardRead(writes_[inflight.slot].data, std::move(callback));
            return;
        }
    }

    // Merge with a pending read of the same line (controller MSHR).
    for (std::uint32_t slot : readQueue_) {
        ReadEntry &entry = reads_[slot];
        if (entry.addr == phys && entry.kind == ReadKind::Data) {
            entry.callbacks.push_back(std::move(callback));
            return;
        }
    }

    std::uint32_t slot = newRead(ReadKind::Data, phys, loc);
    reads_[slot].callbacks.push_back(std::move(callback));
    readQueue_.push_back(slot);
    if (metrics::enabled())
        metrics::set(mRqDepth_, readQueue_.size());
    requestSchedule();
}

void
MemoryController::enqueueWrite(Addr lineAddr, const LineData &data)
{
    ladder_assert(canAcceptWrite(), "write queue overflow");
    Addr phys = physAddr(lineAddr);
    BlockLocation loc = map_.decode(phys);
    ladder_assert(loc.channel == channel_,
                  "write for channel %u routed to controller %u",
                  loc.channel, channel_);

    // Coalesce with a queued (not yet dispatched) write.
    for (std::uint32_t slot : writeQueue_) {
        WriteEntry &entry = writes_[slot];
        if (entry.addr == phys && !entry.isMetadataWrite) {
            entry.data = data;
            entry.physData = scheme_->encodeData(phys, data);
            return;
        }
    }

    admitWrite(phys, loc, data, /*isRemapCopy=*/false);
    if (metrics::enabled())
        metrics::set(mWqDepth_, writeQueue_.size());
}

void
MemoryController::injectWrite(Addr lineAddr, const LineData &data)
{
    Addr phys = physAddr(lineAddr);
    admitWrite(phys, map_.decode(phys), data, /*isRemapCopy=*/false);
}

void
MemoryController::injectPhysicalWrite(Addr physTo, const LineData &data)
{
    admitWrite(physTo, map_.decode(physTo), data, /*isRemapCopy=*/true);
}

std::uint32_t
MemoryController::newWrite()
{
    std::uint32_t slot = writes_.acquire();
    WriteEntry &entry = writes_[slot];
    // Reset the reused entry, keeping its metadata list's capacity.
    std::vector<Addr> metaAddrs = std::move(entry.metaAddrs);
    metaAddrs.clear();
    entry = WriteEntry{};
    entry.metaAddrs = std::move(metaAddrs);
    return slot;
}

void
MemoryController::admitWrite(Addr phys, const BlockLocation &loc,
                             const LineData &data, bool isRemapCopy)
{
    std::uint32_t slot = newWrite();
    WriteEntry &entry = writes_[slot];
    entry.id = nextId_++;
    entry.addr = phys;
    entry.data = data;
    entry.loc = loc;
    entry.enqueueTick = events_.now();
    entry.readyTick = entry.enqueueTick;
    entry.isRemapCopy = isRemapCopy;
    // Hook first: wear-leveling decorators may advance per-line state
    // that the encoding depends on.
    scheme_->onWriteEnqueued(*this, entry);
    entry.physData = scheme_->encodeData(phys, data);

    if (entry.needsSmb) {
        entry.smbReady = false;
        std::uint32_t smb = newRead(ReadKind::StaleBlock, phys, loc);
        reads_[smb].writeId = entry.id;
        internalReads_.push_back(smb);
        ++smbReads;
    }
    handleMetadataNeeds(entry);
    writeQueue_.push_back(slot);
    requestSchedule();
}

void
MemoryController::handleMetadataNeeds(WriteEntry &entry)
{
    for (Addr metaAddr : entry.metaAddrs) {
        // A fill already on its way? Join it.
        bool joined = false;
        for (std::uint32_t slot : pendingFills_) {
            PendingMetaFill &fill = fills_[slot];
            if (fill.metaAddr == metaAddr) {
                fill.waitingWrites.push_back(entry.id);
                ++entry.metaPending;
                joined = true;
                break;
            }
        }
        if (joined)
            continue;

        MetaLookup result = metaCache_.lookupForWrite(metaAddr);
        if (result == MetaLookup::Hit)
            continue; // sharer counted inside the cache
        std::uint32_t slot = fills_.acquire();
        PendingMetaFill &fill = fills_[slot];
        fill.metaAddr = metaAddr;
        fill.waitingWrites.clear();
        fill.waitingWrites.push_back(entry.id);
        ++entry.metaPending;
        pendingFills_.push_back(slot);
        if (result == MetaLookup::Miss) {
            fill.issued = true;
            issueMetaFill(metaAddr);
        } else {
            // Every way pinned: park in the spill buffer.
            fill.issued = false;
            spillBuffer_.push_back(metaAddr);
            ++spillInsertions;
            ladder_assert(spillBuffer_.size() <=
                              cfg_.spillBufferEntries * 4,
                          "spill buffer runaway");
        }
    }
}

void
MemoryController::issueMetaFill(Addr metaAddr)
{
    internalReads_.push_back(
        newRead(ReadKind::Metadata, metaAddr, map_.decode(metaAddr)));
    ++metadataReads;
    requestSchedule();
}

void
MemoryController::retrySpills()
{
    for (std::size_t i = 0; i < spillBuffer_.size();) {
        Addr metaAddr = spillBuffer_[i];
        if (!metaCache_.canAllocate(metaAddr)) {
            ++i;
            continue;
        }
        for (std::uint32_t slot : pendingFills_) {
            PendingMetaFill &fill = fills_[slot];
            if (fill.metaAddr == metaAddr && !fill.issued) {
                fill.issued = true;
                issueMetaFill(metaAddr);
                break;
            }
        }
        spillBuffer_.erase(spillBuffer_.begin() +
                           static_cast<long>(i));
    }
}

void
MemoryController::enqueueMetadataWrite(Addr metaAddr)
{
    std::uint32_t slot = newWrite();
    WriteEntry &entry = writes_[slot];
    entry.id = nextId_++;
    entry.addr = metaAddr;
    entry.loc = map_.decode(metaAddr);
    entry.enqueueTick = events_.now();
    entry.readyTick = entry.enqueueTick;
    entry.isMetadataWrite = true;
    metaWrites_.push_back(slot);
    requestSchedule();
}

WriteEntry *
MemoryController::findWrite(std::uint64_t id)
{
    for (std::uint32_t slot : writeQueue_) {
        if (writes_[slot].id == id)
            return &writes_[slot];
    }
    return nullptr;
}

void
MemoryController::requestSchedule()
{
    if (schedulePending_)
        return;
    schedulePending_ = true;
    events_.schedule(events_.now(), [this]() {
        schedulePending_ = false;
        runSchedule();
    });
}

void
MemoryController::updateMode()
{
    std::size_t high = static_cast<std::size_t>(
        cfg_.drainHighWatermark * cfg_.writeQueueEntries);
    std::size_t low = static_cast<std::size_t>(
        cfg_.drainLowWatermark * cfg_.writeQueueEntries);
    if (!drainMode_) {
        bool forced = writeQueue_.size() >= high;
        bool opportunistic = readQueue_.empty() &&
                             (!writeQueue_.empty() ||
                              !metaWrites_.empty());
        if (forced || opportunistic) {
            drainMode_ = true;
            ++drainEntries;
        }
    } else {
        bool drained = writeQueue_.size() <= low && metaWrites_.empty();
        bool readsWaiting = !readQueue_.empty();
        if (drained && readsWaiting)
            drainMode_ = false;
        else if (writeQueue_.empty() && metaWrites_.empty())
            drainMode_ = false;
    }
}

void
MemoryController::runSchedule()
{
    updateMode();
    while (true) {
        // Command-issue rate limiting (one command per tBURST).
        if (lastIssueTick_ != 0 &&
            events_.now() < lastIssueTick_ + tBurst_) {
            Tick when = lastIssueTick_ + tBurst_;
            events_.schedule(when, [this]() { requestSchedule(); });
            return;
        }
        bool progress = false;
        if (drainMode_) {
            progress = issueOneWrite();
            if (!progress)
                progress = issueOneInternal();
            // Don't idle the channel while queued writes wait on
            // their metadata/SMB reads: let demand reads through.
            if (!progress)
                progress = issueOneRead(readQueue_);
        } else {
            progress = issueOneRead(readQueue_);
            if (!progress)
                progress = issueOneInternal();
        }
        if (!progress)
            break;
        updateMode();
    }
}

bool
MemoryController::issueOneRead(std::vector<std::uint32_t> &queue)
{
    for (std::size_t i = 0; i < queue.size(); ++i) {
        std::uint32_t slot = queue[i];
        unsigned bank = bankIndex(reads_[slot].loc);
        if (bankBusyUntil_[bank] > events_.now())
            continue;
        queue.erase(queue.begin() + static_cast<long>(i));
        Tick busy = events_.now() + tRcd_ + tCl_;
        bankBusyUntil_[bank] = busy;
        lastIssueTick_ = events_.now();
        Tick respond = busy + tBurst_;
        readEnergyPj += cfg_.readEnergyPj;
        bool wasFull = queue.size() + 1 >= cfg_.readQueueEntries;
        events_.schedule(respond, [this, slot, respond]() {
            completeRead(slot, respond);
        });
        if (&queue == &readQueue_ && wasFull)
            notifyRetry();
        return true;
    }
    return false;
}

bool
MemoryController::issueOneInternal()
{
    return issueOneRead(internalReads_);
}

void
MemoryController::completeRead(std::uint32_t slot, Tick when)
{
    ReadEntry &entry = reads_[slot];
    switch (entry.kind) {
      case ReadKind::Data: {
        LineData logical = readLogical(entry.addr, entry.loc);
        double latencyNs = ticksToNs(when - entry.enqueueTick);
        readLatencyNs.sample(latencyNs);
        readLatencyHistNs.sample(latencyNs);
        if (metrics::enabled()) {
            metrics::add(mReads_);
            metrics::set(mRqDepth_, readQueue_.size());
            metrics::set(mSimTick_, events_.now());
        }
        if (traceSink_) {
            CtrlTraceRecord r;
            r.tick = when;
            r.kind = CtrlTraceRecord::Kind::Read;
            r.channel = static_cast<std::uint8_t>(channel_);
            r.wordline = static_cast<std::uint16_t>(entry.loc.wordline);
            r.bitline =
                static_cast<std::uint16_t>(entry.loc.worstBitline());
            r.latencyNs = static_cast<float>(latencyNs);
            r.queueDepth =
                static_cast<std::uint32_t>(readQueue_.size());
            traceSink_->record(r);
        }
        for (auto &cb : entry.callbacks)
            cb(logical, when);
        break;
      }
      case ReadKind::Metadata: {
        auto it = std::find_if(pendingFills_.begin(),
                               pendingFills_.end(),
                               [&](std::uint32_t f) {
                                   return fills_[f].metaAddr ==
                                              entry.addr &&
                                          fills_[f].issued;
                               });
        if (it == pendingFills_.end())
            break; // stale fill (shouldn't happen)
        PendingMetaFill &fill = fills_[*it];
        Addr victim = invalidAddr;
        unsigned sharers =
            static_cast<unsigned>(fill.waitingWrites.size());
        if (!metaCache_.insert(entry.addr, sharers, victim)) {
            // All ways got pinned while the fill was in flight; retry
            // through the spill path.
            fill.issued = false;
            spillBuffer_.push_back(entry.addr);
            ++spillInsertions;
            break;
        }
        if (victim != invalidAddr)
            enqueueMetadataWrite(victim);
        for (std::uint64_t id : fill.waitingWrites) {
            if (WriteEntry *w = findWrite(id)) {
                ladder_assert(w->metaPending > 0,
                              "metadata fill underflow");
                --w->metaPending;
                if (cfg_.attribution && w->ready())
                    w->readyTick = events_.now();
            }
        }
        fills_.release(*it);
        pendingFills_.erase(it);
        break;
      }
      case ReadKind::StaleBlock: {
        if (WriteEntry *w = findWrite(entry.writeId)) {
            w->smbData = store_.read(entry.loc);
            w->smbReady = true;
            if (cfg_.attribution && w->ready())
                w->readyTick = events_.now();
        }
        break;
      }
    }
    reads_.release(slot);
    requestSchedule();
}

const TimingEntry &
MemoryController::ladderTiming(unsigned wordline, unsigned bitline,
                               unsigned lrsCount) const
{
    PROF_COUNTER("surface_lookups", 1.0);
    return timing_.ladderSurface->lookup(wordline, bitline, lrsCount);
}

const TimingEntry &
MemoryController::blpTiming(unsigned wordline, unsigned bitline,
                            unsigned lrsCount) const
{
    PROF_COUNTER("surface_lookups", 1.0);
    return timing_.blpSurface->lookup(wordline, bitline, lrsCount);
}

const TimingEntry &
MemoryController::locationTiming(unsigned wordline,
                                 unsigned bitline) const
{
    PROF_COUNTER("surface_lookups", 1.0);
    return timing_.locationSurface->lookup(wordline, bitline, 0);
}

double
MemoryController::metadataWriteLatencyNs(const BlockLocation &loc,
                                         double &powerMw) const
{
    // Metadata blocks have no LRS counters of their own: downgrade to
    // the location-only (content worst-cased) model (paper §3.3).
    const TimingEntry &entry =
        locationTiming(loc.wordline, loc.worstBitline());
    powerMw = entry.powerMw;
    return entry.latencyNs;
}

WriteAttribution
MemoryController::attributeDispatch(const WriteEntry &entry,
                                    const WriteDecision &decision,
                                    Tick prevBankBusy)
{
    const auto sgn = [](Tick t) {
        return static_cast<std::int64_t>(t);
    };
    const Tick now = events_.now();
    const WriteBlameHint hint =
        scheme_->attributeWrite(*this, entry, decision);

    // Wait-side components: enqueue -> ready (dependency stalls),
    // ready -> dispatch split into bank-busy time and residual
    // queueing. prevBankBusy <= now at dispatch (the bank was free),
    // so the clamp only guards readiness after the bank went idle.
    const std::int64_t dep =
        sgn(entry.readyTick) - sgn(entry.enqueueTick);
    const std::int64_t wait = sgn(now) - sgn(entry.readyTick);
    const std::int64_t bank = std::clamp<std::int64_t>(
        sgn(prevBankBusy) - sgn(entry.readyTick), 0, wait);

    // Latency-side components: telescope the decided tWR through the
    // scheme's blame anchors so the four parts sum to nsToTicks(tWR)
    // exactly regardless of rounding.
    const std::int64_t twr = sgn(nsToTicks(decision.latencyNs));
    const std::int64_t base = sgn(nsToTicks(hint.baseNs));
    const std::int64_t loc = sgn(nsToTicks(hint.locationNs));
    const std::int64_t con = sgn(nsToTicks(hint.contentNs));

    WriteAttribution a;
    a.depTicks = static_cast<std::int32_t>(dep);
    a.queueTicks = static_cast<std::int32_t>(wait - bank);
    a.bankTicks = static_cast<std::int32_t>(bank);
    a.rcdTicks = static_cast<std::int32_t>(tRcd_);
    a.baseTicks = static_cast<std::int32_t>(base);
    a.locationTicks = static_cast<std::int32_t>(loc - base);
    a.contentTicks = static_cast<std::int32_t>(con - loc);
    a.schemeTicks = static_cast<std::int32_t>(twr - con);

    // The decomposition is exact by construction: everything
    // telescopes to completion - enqueue. Guards against a scheme
    // handing back anchors on a different timing scale.
    const Tick busy = now + tRcd_ + nsToTicks(decision.latencyNs);
    ladder_assert(
        static_cast<std::int64_t>(a.depTicks) + a.queueTicks +
                a.bankTicks + a.rcdTicks + a.baseTicks +
                a.locationTicks + a.contentTicks + a.schemeTicks ==
            sgn(busy) - sgn(entry.enqueueTick),
        "blame components do not sum to the observed write latency "
        "(scheme %s)",
        scheme_->name().c_str());

    const std::int32_t components[blameComponentCount] = {
        a.depTicks,  a.queueTicks,    a.bankTicks,   a.rcdTicks,
        a.baseTicks, a.locationTicks, a.contentTicks, a.schemeTicks};
    for (unsigned i = 0; i < blameComponentCount; ++i) {
        // Not ticksToNs: components are signed and must not wrap
        // through the unsigned Tick conversion.
        const double ns = static_cast<double>(components[i]) / 1000.0;
        blameAvgNs[i].sample(ns);
        blameHistNs[i].sample(ns);
    }
    if (metrics::enabled()) {
        for (unsigned i = 0; i < blameComponentCount; ++i) {
            if (components[i] > 0)
                metrics::add(mBlame_[i],
                             static_cast<std::uint64_t>(
                                 components[i]));
        }
    }
    return a;
}

bool
MemoryController::issueOneWrite()
{
    // Metadata writebacks first: they unblock metadata cache fills.
    for (std::size_t i = 0; i < metaWrites_.size(); ++i) {
        std::uint32_t slot = metaWrites_[i];
        const WriteEntry &entry = writes_[slot];
        unsigned bank = bankIndex(entry.loc);
        if (bankBusyUntil_[bank] > events_.now())
            continue;
        metaWrites_.erase(metaWrites_.begin() + static_cast<long>(i));
        double powerMw = 0.0;
        double latencyNs = metadataWriteLatencyNs(entry.loc, powerMw);
        Tick busy = events_.now() + tRcd_ + nsToTicks(latencyNs);
        bankBusyUntil_[bank] = busy;
        lastIssueTick_ = events_.now();
        events_.schedule(busy, [this, slot, latencyNs, powerMw]() {
            completeWrite(slot, latencyNs, powerMw);
        });
        return true;
    }

    // Data writes: oldest fully-ready entry with a free bank.
    for (std::size_t i = 0; i < writeQueue_.size(); ++i) {
        std::uint32_t slot = writeQueue_[i];
        WriteEntry &taken = writes_[slot];
        if (!taken.ready())
            continue;
        unsigned bank = bankIndex(taken.loc);
        if (bankBusyUntil_[bank] > events_.now())
            continue;
        // Same-address ordering: a write must not overtake an older
        // pending read of the same block.
        bool hazard = false;
        for (std::uint32_t r : readQueue_) {
            const ReadEntry &read = reads_[r];
            if (read.addr == taken.addr && read.id < taken.id) {
                hazard = true;
                break;
            }
        }
        if (hazard)
            continue;

        writeQueue_.erase(writeQueue_.begin() + static_cast<long>(i));

        // Flip-N-Write against the currently stored bits.
        FnwMode mode = cfg_.fnwMode;
        if (mode != FnwMode::Off && scheme_->constrainedFnw())
            mode = FnwMode::Constrained;
        const LineData &stored = store_.read(taken.loc);
        FnwDecision fnw = fnwDecide(stored, taken.physData, mode);
        if (fnw.flip)
            ++fnwFlips;
        if (fnw.flipCancelled)
            ++fnwCancelled;

        // One ground-truth content scan per dispatch, shared by the
        // scheme decision, power accounting, and the trace record
        // (the store cannot change before completeWrite persists).
        taken.dispatchCw = store_.maxMatLrsCount(taken.loc.pageIndex);
        taken.dispatchCbl = store_.maxSelectedBitlineLrs(taken.loc);

        WriteDecision decision =
            scheme_->decideWrite(*this, taken, fnw.data);
        // Energy uses the scheme-independent content-true power model
        // so Fig. 17 comparisons are fair across schemes.
        if (!timing_.power.empty()) {
            decision.powerMw =
                timing_.power.lookup(taken.loc.wordline,
                                     taken.loc.worstBitline(),
                                     taken.dispatchCw,
                                     taken.dispatchCbl) *
                decision.powerScale;
        }

        WriteAttribution attr{};
        if (cfg_.attribution)
            attr = attributeDispatch(taken, decision,
                                     bankBusyUntil_[bank]);

        if (traceSink_) {
            CtrlTraceRecord r;
            r.tick = events_.now();
            r.kind = CtrlTraceRecord::Kind::Write;
            r.channel = static_cast<std::uint8_t>(channel_);
            r.wordline = static_cast<std::uint16_t>(taken.loc.wordline);
            r.bitline =
                static_cast<std::uint16_t>(taken.loc.worstBitline());
            r.lrsCount = static_cast<std::uint16_t>(taken.dispatchCw);
            r.latencyNs = static_cast<float>(decision.latencyNs);
            r.queueDepth =
                static_cast<std::uint32_t>(writeQueue_.size());
            r.attr = attr;
            traceSink_->record(r);
        }

        Tick busy = events_.now() + tRcd_ + nsToTicks(decision.latencyNs);
        if (metrics::enabled()) {
            metrics::add(mWrites_);
            metrics::add(mSchemeWrites_);
            metrics::add(mResetTicks_,
                         static_cast<std::uint64_t>(
                             nsToTicks(decision.latencyNs)));
            metrics::set(mWqDepth_, writeQueue_.size());
            metrics::set(mSimTick_, events_.now());
        }
        bankBusyUntil_[bank] = busy;
        lastIssueTick_ = events_.now();
        writeQueueTimeNs.sample(
            ticksToNs(events_.now() - taken.enqueueTick));
        auto inflight = std::find_if(
            inFlightWrites_.begin(), inFlightWrites_.end(),
            [&](const InFlightWrite &w) { return w.addr == taken.addr; });
        if (inflight != inFlightWrites_.end())
            inflight->slot = slot;
        else
            inFlightWrites_.push_back({taken.addr, slot});
        bool wasFull =
            writeQueue_.size() + 1 >= cfg_.writeQueueEntries;
        taken.schemeScratch = fnw.flip ? 1u : 0u;
        taken.physData = fnw.data;
        events_.schedule(busy, [this, slot,
                                latencyNs = decision.latencyNs,
                                powerMw = decision.powerMw]() {
            completeWrite(slot, latencyNs, powerMw);
        });
        if (wasFull)
            notifyRetry();
        return true;
    }
    return false;
}

void
MemoryController::completeWrite(std::uint32_t slot, double latencyNs,
                                double powerMw)
{
    WriteEntry &entry = writes_[slot];
    double energyPj = powerMw * latencyNs;
    if (entry.isMetadataWrite) {
        ++metadataWrites;
        metaWriteEnergyPj += energyPj;
        writeEnergyPj += energyPj;
        ++pageWrites_[entry.addr / MemoryGeometry::pageBytes];
    } else {
        store_.setFlipped(entry.loc, entry.schemeScratch != 0);
        BitTransitions t = store_.write(entry.loc, entry.physData);
        cellResets += t.resets;
        cellSets += t.sets;
        energyPj += (t.resets + t.sets) * cfg_.transitionEnergyPj;
        ++dataWrites;
        dataWriteEnergyPj += energyPj;
        writeEnergyPj += energyPj;
        writeServiceNs.sample(cfg_.tRcdNs + latencyNs);
        writeServiceHistNs.sample(cfg_.tRcdNs + latencyNs);
        writeLatencyOnlyNs.sample(latencyNs);
        ++pageWrites_[entry.addr / MemoryGeometry::pageBytes];
        auto inflight = std::find_if(
            inFlightWrites_.begin(), inFlightWrites_.end(),
            [&](const InFlightWrite &w) { return w.addr == entry.addr; });
        if (inflight != inFlightWrites_.end()) {
            *inflight = inFlightWrites_.back();
            inFlightWrites_.pop_back();
        }

        scheme_->onWriteComplete(*this, entry);
        for (Addr metaAddr : entry.metaAddrs) {
            if (metaCache_.contains(metaAddr))
                metaCache_.releaseSharer(metaAddr);
        }
        retrySpills();

        if (remapper_ && !entry.isRemapCopy) {
            remapper_->noteDataWrite(entry.addr);
            for (const RemapMove &move : remapper_->collectMoves()) {
                // Copy the line: logical content out of the old slot,
                // rewritten (re-encoded) into the new physical slot.
                LineData logical =
                    readLogical(move.from, map_.decode(move.from));
                injectPhysicalWrite(move.to, logical);
            }
        }
    }
    writes_.release(slot);
    requestSchedule();
}

} // namespace ladder
